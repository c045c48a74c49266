"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable and act on row vectors: rows span the subspace a
matrix carries, so ``rank`` and ``row_reduce`` speak about row spaces.
Entries are stored as int64 numpy arrays reduced mod p; all arithmetic is
exact (p is small enough that products never overflow 63 bits).  Scalars
outside matrices are plain ints reduced into [0, p).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_modulus(p: int) -> None:
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
    return FpMatrix._from_array(a._data @ b._data, a.modulus)


def row_reduce(m: FpMatrix) -> tuple[FpMatrix, int]:
    """Reduced row-echelon form and rank; the row space is preserved."""
    p = m.modulus
    a = m._data.copy()
    nrows, ncols = a.shape
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if a[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[r])) % p
        r += 1
    return FpMatrix._from_array(a, p), r


def rank(m: FpMatrix) -> int:
    return row_reduce(m)[1]


def span_dim(vectors: Iterable[Sequence[int]], p: int, width: int | None = None) -> int:
    """Dimension of the span of the given coordinate rows over F_p.

    An empty collection spans the zero space. Mismatched row lengths raise.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    if width is None:
        width = len(rows[0])
    return rank(FpMatrix(rows, p, cols=width))
