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
``nabla_power_rows`` is the l-step composite as packed words.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .fp_linalg import FpMatrix
from .monomial_box import MultiIndex, grade_basis
from .trunc_power import (WordLayout, _check_rows, _distinct_rows, _expand, _one_letter_rows,
                          _row_batches)


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


def _derivative_walk(layout: WordLayout, left: np.ndarray, factor: np.ndarray, p: int,
                     start: int, stop: int):
    """Walk each exponent row of ``left`` down one derivative at a time, the
    direction of each written at positions stop-1 down to start (newest letter
    leftmost): every step extends each state by each direction i with m_i > 0
    and multiplies its coefficient by factor[m_i] = -m_i mod p.  Taking the
    directions in order, each over all states in order, keeps the words
    sorted.  Returns the words, coefficients, the row each came from and the
    exponents left, ordered by that row and then by word."""
    words = layout.empty(len(left))
    coeffs = np.ones(len(left), dtype=np.int64)
    origin = np.arange(len(left))
    for j in reversed(range(start, stop)):
        # Direction-major: every state that can step in direction 0, then 1, ...
        letter, src = np.nonzero(left.T)
        words = words[src]
        layout.write(words, j, letter)
        origin, left = origin[src], left[src]
        steps = np.arange(len(src))
        coeffs = coeffs[src] * factor[left[steps, letter]] % p
        left[steps, letter] -= 1
    order = np.argsort(origin, kind="stable")
    return words[order], coeffs[order], origin[order], left[order]


def nabla_power_rows(n: int, p: int,
                     monomials: Sequence[MultiIndex]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Full connection composite on monomials of one degree l, one packed word
    row ``(words, coeffs)`` each, in order.

    Each monomial is walked down to degree zero one derivative at a time; the
    direction chosen at each step is a word letter, the newest leftmost (the
    first derivative taken sits rightmost), and the step multiplies the
    coefficient by -m_i mod p.  Each word is split at h = l // 2.  The first
    l - h derivatives of every row (the suffix) are walked at once; the last h
    (the prefix) once per exponent vector a suffix leaves, and that block is
    shared by every suffix, of any row, that leaves the same exponents.  A
    path's coefficient is the product of its halves' coefficients, since each
    factor depends only on the exponent still left.  A row is its prefixes,
    sorted, each followed by the suffixes that leave its exponents, in order.
    Bad input raises ``ValueError`` at the first row.
    """
    ell = _check_rows(n, p, monomials)
    layout = WordLayout(n, ell)
    if n == 1:  # one path, with the factors -l, ..., -1
        scale = 1
        for m in range(ell, 0, -1):
            scale = scale * (-m % p) % p
        yield from _one_letter_rows(layout, [scale] * len(monomials))
        return
    h = ell // 2
    factor = np.array([-m % p for m in range(ell + 1)], dtype=np.int64)
    suffixes, scoeffs, origin, rest = _derivative_walk(
        layout, np.array(monomials, dtype=np.min_scalar_type(ell)).reshape(-1, n),
        factor, p, h, ell)
    exponents, group = _distinct_rows(rest)
    prefixes, pcoeffs, block, _ = _derivative_walk(layout, exponents, factor, p, 0, h)
    # Suffixes grouped by (row, exponents left), each group in word order.
    key = origin * len(exponents) + group
    order = np.argsort(key, kind="stable")
    suffixes, scoeffs = suffixes[order], scoeffs[order]
    pairs, pair_starts, pair_sizes = np.unique(key[order], return_index=True, return_counts=True)
    block_sizes = np.bincount(block, minlength=len(exponents))
    # Every prefix of every pair's exponents, sorted by (row, prefix word).
    pair_group = pairs % len(exponents)
    pair, prefix = _expand((np.cumsum(block_sizes) - block_sizes)[pair_group],
                           block_sizes[pair_group])
    row = pairs[pair] // len(exponents)
    order = np.lexsort([prefixes[prefix, c] for c in reversed(range(prefixes.shape[1]))] + [row])
    pair, prefix = pair[order], prefix[order]
    entry_starts, entry_sizes = pair_starts[pair], pair_sizes[pair]

    def assemble(e0, e1, counts):
        entry, inner = _expand(entry_starts[e0:e1], entry_sizes[e0:e1])
        pre = prefix[e0:e1][entry]
        del entry  # as long as the batch
        words = prefixes[pre]
        words += suffixes[inner]
        coeffs = pcoeffs[pre]
        coeffs *= scoeffs[inner]
        coeffs %= p
        keep = coeffs != 0
        if not keep.all():
            kept = np.concatenate(([0], np.cumsum(keep)))[np.cumsum([0] + counts)]
            words, coeffs, counts = words[keep], coeffs[keep], np.diff(kept).tolist()
        return words, coeffs, counts

    yield from _row_batches(row[order], entry_sizes, len(monomials), assemble)


def curve_report(p: int) -> str | None:
    """One-variable check: every graded map is the nonzero 1x1 scalar -l mod p
    and the ideal dimensions step down from p to zero, so the filtration has
    length p.  Returns the entries and dimensions, worded, when that fails,
    or None when it holds."""
    entries = []
    ok = True
    for ell in range(1, p):
        m = graded_nabla_matrix(1, p, ell)
        if m.nrows != 1 or m.ncols != 1:
            ok = False
            entries.append(0)
            continue
        e = m.rows[0].get(0, 0)
        entries.append(e)
        ok = ok and e != 0 and e == (-ell) % p
    dims = tuple(len(filtration_basis(1, p, ell)) for ell in range(p + 1))
    ok = ok and dims == tuple(p - ell for ell in range(p)) + (0,)
    return None if ok else f"entries {tuple(entries)} dims {dims}"
