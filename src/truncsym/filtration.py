"""Local model of the connection filtration on a Frobenius pullback.

Locally the filtration ideals are free on the difference monomials
d_1^{k_1}..d_n^{k_n} (d_i the i-th coordinate difference, d_i^p = 0): the
degree-l ideal is spanned by the monomials of total degree >= l.  The
connection sends a monomial to minus the sum of its single-step derivatives
tensored with the matching 1-form slot, so composing it l times lands the
degree-l layer inside the l-fold tensor power of 1-forms, where it matches
the symmetrized tensors up to the sign (-1)^l.

``graded_nabla_matrix`` is one step, from the degree-l layer to the
degree-(l-1) layer in each direction, written straight into sparse rows;
``nabla_power_rows`` is the l-step composite as packed words, the first
derivative leftmost, in the layout of ``trunc_power._word_rows``;
``composite_mismatch`` checks it against the symmetrized rows in one pass
over both streams.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .fp_linalg import FpMatrix, _check_modulus
from .monomial_box import MultiIndex, grade_basis
from .trunc_power import (Piece, _check_rows, _one_letter_rows, _word_rows, symmetrized_rows,
                          word_count)


def filtration_basis(n: int, p: int, ell: int) -> list[MultiIndex]:
    """Monomial basis of the degree-ell filtration ideal.

    All capped monomials of total degree >= ell (and <= n(p-1)); empty once
    ell exceeds the top degree.  Ordered by degree, lexicographic within.
    """
    if ell < 0:
        raise ValueError("degree must be non-negative")
    out: list[MultiIndex] = []
    for d in range(ell, n * (p - 1) + 1):
        out.extend(grade_basis(n, p, d))
    return out


def graded_nabla_matrix(n: int, p: int, ell: int) -> FpMatrix:
    """Induced map on graded layers, degree ell to degree ell-1.

    Rows are the degree-ell monomials; columns are the n direction blocks of
    degree-(ell-1) monomial coordinates (direction-major).  The map is
    injective for every 1 <= ell <= n(p-1), i.e. the matrix has full row
    rank in the row-as-domain convention.  Row m holds -m_i mod p (nonzero,
    as 0 < m_i < p) at m - e_i in direction block i, for each m_i > 0.
    """
    if not 1 <= ell <= n * (p - 1):
        raise ValueError(f"degree {ell} outside [1, {n * (p - 1)}]")
    source = grade_basis(n, p, ell)
    target = grade_basis(n, p, ell - 1)
    index = {m: j for j, m in enumerate(target)}
    block = len(target)
    rows = [{i * block + index[mono[:i] + (k - 1,) + mono[i + 1:]]: -k % p
             for i, k in enumerate(mono) if k}
            for mono in source]
    return FpMatrix(rows, p, n * block)


def _derivative_walk(places: np.ndarray, left: np.ndarray, factor: np.ndarray, p: int,
                     start: int, stop: int):
    """Walk each exponent row of ``left`` down one derivative at a time, the
    direction of each written at positions start..stop-1, left to right (the
    first derivative leftmost): every step extends each state, in order, by
    each direction i with m_i > 0, in order, and multiplies its coefficient by
    factor[m_i] = -m_i mod p; a path whose coefficient reaches 0 is dropped,
    so a row with an exponent of p or more leaves no word.  Returns the words,
    coefficients, the row each came from and the exponents left; the words of
    each row stay consecutive and sorted."""
    words = np.zeros(len(left), dtype=np.int64)
    coeffs = np.ones(len(left), dtype=np.int64)
    origin = np.arange(len(left))
    for j in range(start, stop):
        src, letter = np.nonzero(left)
        words = words[src]
        words += letter * places[j]
        origin, left = origin[src], left[src]
        steps = np.arange(len(src))
        coeffs = coeffs[src] * factor[left[steps, letter]] % p
        left[steps, letter] -= 1
        live = coeffs != 0
        if not live.all():
            words, coeffs, origin, left = words[live], coeffs[live], origin[live], left[live]
    return words, coeffs, origin, left


def nabla_power_rows(n: int, p: int,
                     monomials: Sequence[MultiIndex]) -> Iterator[Piece]:
    """Full connection composite on monomials of one degree l as packed word
    rows, streamed in pieces ``(i, words, coeffs)``, i the monomial's index,
    in the layout of ``trunc_power._word_rows``.

    Each monomial is walked down to degree zero one derivative at a time by
    ``_derivative_walk``; the direction chosen at each step is a word letter,
    the first derivative leftmost, and the step multiplies the coefficient by
    -m_i mod p.  Every path from k to 0 multiplies the same factors,
    (-1)^l prod(k_i!), so the slot of the first derivative changes no row.  A
    path's coefficient is the product of its halves', since each factor
    depends only on the exponent still left; a row with an exponent of p or
    more leaves no word.  Bad input raises ``ValueError`` at the first piece.
    """
    places = _check_rows(n, p, monomials)
    ell = len(places)
    # One path, with the factors -l, ..., -1; the walk below is 3-10x slower on it.
    if n == 1:
        scale = 1
        for m in range(ell, 0, -1):
            scale = scale * (-m % p) % p
        yield from _one_letter_rows([scale] * len(monomials))
        return
    factor = np.array([-m % p for m in range(ell + 1)], dtype=np.int64)
    start = np.array(monomials, dtype=np.min_scalar_type(ell)).reshape(-1, n)
    yield from _word_rows(lambda left, j0, j1: _derivative_walk(places, left, factor, p, j0, j1),
                          start, np.arange(len(monomials)), len(monomials), ell, p)


def composite_mismatch(n: int, p: int, monomials: Sequence[MultiIndex]) -> MultiIndex | None:
    """The first monomial of one degree l whose composite row is not (-1)^l
    times its symmetrized row mod p, or None when every row agrees.

    Both streams are cut alike (``trunc_power._word_rows``), so they are read
    in one pass, a piece from each at a time, and no row is joined.  Each row
    must also hold all word_count(k) words, or none when an exponent reaches
    p, which a fault shared by both streams cannot hide."""
    sign = (-1) ** len(_check_rows(n, p, monomials)) % p
    counts = [word_count(k) if max(k, default=0) < p else 0 for k in monomials]
    row = words = 0  # the row being read, and its words read so far
    pieces = itertools.zip_longest(nabla_power_rows(n, p, monomials),
                                   symmetrized_rows(n, p, monomials))
    for got, want in pieces:
        if got is None or want is None or got[0] != want[0]:
            break
        if got[0] != row:
            if got[0] != row + 1 or words != counts[row]:
                break
            row, words = row + 1, 0
        if not (np.array_equal(got[1], want[1]) and np.array_equal(got[2], sign * want[2] % p)):
            break
        words += len(got[2])
    else:
        if not monomials or row == len(monomials) - 1 and words == counts[row]:
            return None
    return monomials[row]


def curve_report(p: int) -> str | None:
    """One-variable check: every graded map is the nonzero 1x1 scalar -l mod p
    and the ideal dimensions step down from p to zero, so the filtration has
    length p.  Returns the entries and dimensions, worded, when that fails,
    or None when it holds.  A modulus that is not prime is refused."""
    _check_modulus(p)
    entries = []
    for ell in range(1, p):
        m = graded_nabla_matrix(1, p, ell)
        entries.append(m.rows[0].get(0, 0) if m.nrows == m.ncols == 1 else 0)
    dims = tuple(len(filtration_basis(1, p, ell)) for ell in range(p + 1))
    if entries == [-ell % p for ell in range(1, p)] and dims == tuple(range(p, -1, -1)):
        return None
    return f"entries {tuple(entries)} dims {dims}"
