"""Exact linear algebra over prime fields F_p.

Matrices are immutable and act on row vectors: rows span the subspace a
matrix carries, so ``rank`` and ``row_reduce`` speak about row spaces.
A matrix holds sparse rows of Python ints reduced mod p, so its products
and eliminations are exact at any size.  Every rank and echelon form comes
from one elimination, ``eliminate``, over sparse rows, which also ranks the
tensor-word rows of the truncated powers.  A modulus with (p-1)^2 >= 2^63
is refused: those word rows keep their coefficients in int64 and multiply
two of them.  Scalars outside matrices are plain ints reduced into [0, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


# The first 12 primes: as Miller-Rabin bases they decide primality exactly
# below psi_12 = 318665857834031151167461, the least strong pseudoprime to
# all of them (Sorenson and Webster, Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 12 prime bases.

    Exact for n < MILLER_RABIN_LIMIT (about 3.19e23); larger n are refused
    with ValueError.
    """
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality bound {MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_INT64_BOUND = 2 ** 63


def _check_modulus(p: int) -> None:
    # The size test first: it refuses a huge modulus without a primality test.
    if (p - 1) ** 2 >= _INT64_BOUND:
        raise ValueError(f"modulus {p} too large: (p-1)^2 overflows int64")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


@dataclass(frozen=True, slots=True)
class FpMatrix:
    """Immutable matrix over F_p, held as sparse rows.

    ``rows`` are {column: entry} dicts with the entries reduced into [1, p)
    and the zeros dropped; a column outside [0, ncols) is refused.  ``ncols``
    is always given, since rows need not reach the last column.
    """

    rows: tuple[dict[int, int], ...]
    modulus: int
    ncols: int

    def __post_init__(self) -> None:
        p, ncols = self.modulus, self.ncols
        _check_modulus(p)
        reduced = []
        for row in self.rows:
            if row and not (0 <= min(row) and max(row) < ncols):
                raise ValueError(f"column outside [0, {ncols})")
            reduced.append({j: w for j, v in row.items() if (w := v % p)})
        object.__setattr__(self, "rows", tuple(reduced))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense view: every row as a tuple of ncols entries."""
        return tuple(tuple(row.get(j, 0) for j in range(self.ncols)) for row in self.rows)


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Exact matrix product over the common modulus, row by sparse row."""
    if a.modulus != b.modulus:
        raise ValueError("mixed moduli")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} vs {b.nrows}")
    product = []
    for row in a.rows:
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in b.rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        product.append(acc)
    return FpMatrix(product, a.modulus, b.ncols)


def eliminate(rows: Iterable[dict], p: int, width: int | None = None,
              start: dict | None = None) -> dict:
    """Gaussian elimination over sparse rows mod p: the one F_p kernel.

    Rows map comparable column labels (matrix indices, tensor words) to
    ints, taken mod p; the input rows are not modified.  Returns the pivot
    rows keyed by their leading (smallest) column, reduced mod p and scaled
    to lead with 1; their number is the rank of the rows.  Arithmetic is on
    Python ints.  ``width``, the number of column labels the rows can use,
    stops the elimination once that many pivots exist: no further row can
    add one, so the rest of ``rows`` is not read.

    ``start``, pivot rows an earlier call returned, extends that span: the
    result then spans ``start`` and ``rows``.  Neither the dict nor its rows
    are modified; the result shares the rows.

    ``p`` is not tested for primality: a modulus below 2 is refused, and so
    is a leading entry with no inverse mod p, so every pivot leads with 1.
    """
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    pivots: dict = {} if start is None else dict(start)
    if len(pivots) == width:
        return pivots
    for original in rows:
        row = dict(original)
        while row:
            key = min(row)
            piv = pivots.get(key)
            if piv is None:
                lead = row[key] % p
                if not lead:  # a multiple of p leads no pivot
                    del row[key]
                    continue
                inv = pow(lead, -1, p)  # ValueError when lead is not a unit
                pivots[key] = {c: w for c, v in row.items() if (w := v * inv % p)}
                break
            _subtract(row, row[key], piv, p)
        if len(pivots) == width:
            break
    return pivots


def _subtract(row: dict, factor: int, piv: dict, p: int) -> None:
    """row -= factor * piv in place, dropping the entries that cancel."""
    for c, v in piv.items():
        nv = (row.get(c, 0) - factor * v) % p
        if nv:
            row[c] = nv
        elif c in row:
            del row[c]


def rank(m: FpMatrix) -> int:
    return len(eliminate(m.rows, m.modulus, m.ncols))


def row_reduce(m: FpMatrix) -> tuple[FpMatrix, int]:
    """Reduced row-echelon form and rank; the row space is preserved.  The
    pivot rows come by leading column, then empty rows up to ``m.nrows``."""
    p = m.modulus
    pivots = eliminate(m.rows, p, m.ncols)
    # Clear every pivot column from the other pivot rows.  A pivot row only
    # has entries right of its lead, so clearing from the rightmost pivot
    # leftwards subtracts rows that are already reduced.
    for key in sorted(pivots, reverse=True):
        row = pivots[key]
        for c in [c for c in row if c != key and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
    rows = [pivots[key] for key in sorted(pivots)] + [{}] * (m.nrows - len(pivots))
    return FpMatrix(rows, p, m.ncols), len(pivots)
