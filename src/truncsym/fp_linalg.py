"""Exact linear algebra over prime fields F_p.

Matrices are immutable and act on row vectors: rows span the subspace a
matrix carries, so ``rank`` and ``row_reduce`` speak about row spaces.
Entries are stored as int64 numpy arrays reduced mod p; a modulus with
(p-1)^2 >= 2^63 is rejected, and so is a product whose dot products could
reach 2^63.  Every rank and echelon form comes from one elimination,
``eliminate``, over sparse rows of Python ints, which also ranks the
tensor-word rows of the truncated powers.  Scalars outside matrices are
plain ints reduced into [0, p).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


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


class FpMatrix:
    """Immutable dense matrix over F_p.

    ``cols`` must be supplied when constructing a matrix with no rows, since
    the width cannot be inferred from an empty row list.
    """

    __slots__ = ("_data", "modulus")

    def __init__(self, rows: Sequence[Sequence[int]], modulus: int, cols: int | None = None):
        _check_modulus(modulus)
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have mismatched lengths")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} disagrees with row width {width}")
        else:
            if cols is None:
                raise ValueError("cols is required for a matrix with no rows")
            width = cols
        data = np.array(rows, dtype=np.int64).reshape(len(rows), width) % modulus
        data.setflags(write=False)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def _from_array(cls, data: np.ndarray, modulus: int) -> "FpMatrix":
        m = object.__new__(cls)
        data = (data % modulus).astype(np.int64)
        data.setflags(write=False)
        object.__setattr__(m, "_data", data)
        object.__setattr__(m, "modulus", modulus)
        return m

    @classmethod
    def identity(cls, n: int, modulus: int) -> "FpMatrix":
        return cls._from_array(np.eye(n, dtype=np.int64), modulus)

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "FpMatrix":
        return cls._from_array(np.zeros((rows, cols), dtype=np.int64), modulus)

    @property
    def nrows(self) -> int:
        return int(self._data.shape[0])

    @property
    def ncols(self) -> int:
        return int(self._data.shape[1])

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(x) for x in row) for row in self._data)

    def entry(self, i: int, j: int) -> int:
        return int(self._data[i, j])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._data[i])

    def transpose(self) -> "FpMatrix":
        return FpMatrix._from_array(self._data.T.copy(), self.modulus)

    def is_zero(self) -> bool:
        return not self._data.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self._data.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix({self._data.tolist()!r}, modulus={self.modulus})"

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        return mat_mul(self, other)


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Exact matrix product over the common modulus."""
    if a.modulus != b.modulus:
        raise ValueError("mixed moduli")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} vs {b.nrows}")
    if a.ncols * (a.modulus - 1) ** 2 >= _INT64_BOUND:
        raise ValueError(f"inner dimension {a.ncols} too large for exact products mod {a.modulus}")
    return FpMatrix._from_array(a._data @ b._data, a.modulus)


def eliminate(rows: Iterable[dict], p: int, width: int | None = None) -> dict:
    """Gaussian elimination over sparse rows mod p: the one F_p kernel.

    Rows map comparable column labels (matrix indices, tensor words) to
    ints, taken mod p; the input rows are not modified.  Returns the pivot
    rows keyed by their leading (smallest) column, reduced mod p and scaled
    to lead with 1; their number is the rank of the rows.  Arithmetic is on
    Python ints.  ``width``, the number of column labels the rows can use,
    stops the elimination once that many pivots exist: no further row can
    add one, so the rest of ``rows`` is not read.
    """
    pivots: dict = {}
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
                inv = pow(lead, p - 2, p)
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


def _sparse_rows(m: FpMatrix) -> Iterator[dict[int, int]]:
    return ({j: v for j, v in enumerate(row) if v} for row in m._data.tolist())


def rank(m: FpMatrix) -> int:
    return len(eliminate(_sparse_rows(m), m.modulus, m.ncols))


def row_reduce(m: FpMatrix) -> tuple[FpMatrix, int]:
    """Reduced row-echelon form and rank; the row space is preserved."""
    p = m.modulus
    pivots = eliminate(_sparse_rows(m), p, m.ncols)
    # Clear every pivot column from the other pivot rows.  A pivot row only
    # has entries right of its lead, so clearing from the rightmost pivot
    # leftwards subtracts rows that are already reduced.
    for key in sorted(pivots, reverse=True):
        row = pivots[key]
        for c in [c for c in row if c != key and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
    data = np.zeros(m._data.shape, dtype=np.int64)
    for i, key in enumerate(sorted(pivots)):
        for j, v in pivots[key].items():
            data[i, j] = v
    return FpMatrix._from_array(data, p), len(pivots)


def stack(blocks: Sequence[FpMatrix], modulus: int, cols: int) -> FpMatrix:
    """The rows of the blocks, in order, as one matrix; no blocks give 0 x cols."""
    _check_modulus(modulus)
    for b in blocks:
        if b.modulus != modulus:
            raise ValueError("mixed moduli")
        if b.ncols != cols:
            raise ValueError(f"block width {b.ncols} != cols={cols}")
    data = np.concatenate([np.zeros((0, cols), dtype=np.int64), *(b._data for b in blocks)])
    return FpMatrix._from_array(data, modulus)
