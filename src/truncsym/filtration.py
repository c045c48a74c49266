"""Local model of the connection filtration on a Frobenius pullback.

Locally the filtration ideals are free on the difference monomials
d_1^{k_1}..d_n^{k_n} (d_i the i-th coordinate difference, d_i^p = 0): the
degree-l ideal is spanned by the monomials of total degree >= l.  The
connection sends a monomial to minus the sum of its single-step derivatives
tensored with the matching 1-form slot, so composing it l times lands the
degree-l layer inside the l-fold tensor power of 1-forms, where it matches
the symmetrized tensors up to the sign (-1)^l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp_linalg import FpMatrix
from .monomial_box import MultiIndex, grade_basis
from .trunc_power import WordLayout, WordRow


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


@dataclass(frozen=True)
class NablaTerm:
    coeff: int  # in [1, p)
    mono: MultiIndex
    direction: int  # 0-based 1-form slot


def nabla(mono: MultiIndex, p: int) -> list[NablaTerm]:
    """Connection action on a difference monomial: -k_i times the monomial
    with the i-th exponent lowered, in the i-th direction slot.

    Terms with k_i = 0 are omitted; the coefficient -k_i is never zero mod p
    for 0 < k_i <= p-1, so stored terms are all nonzero.
    """
    terms = []
    for i, k in enumerate(mono):
        if k:
            lowered = mono[:i] + (k - 1,) + mono[i + 1:]
            terms.append(NablaTerm(-k % p, lowered, i))
    return terms


def graded_nabla_matrix(n: int, p: int, ell: int) -> FpMatrix:
    """Induced map on graded layers, degree ell to degree ell-1.

    Rows are the degree-ell monomials; columns are the n direction blocks of
    degree-(ell-1) monomial coordinates (direction-major).  The map is
    injective for every 1 <= ell <= n(p-1), i.e. the matrix has full row
    rank in the row-as-domain convention.
    """
    if not 1 <= ell <= n * (p - 1):
        raise ValueError(f"degree {ell} outside [1, {n * (p - 1)}]")
    source = grade_basis(n, p, ell)
    target = grade_basis(n, p, ell - 1)
    index = {m: j for j, m in enumerate(target)}
    block = len(target)
    data = []
    for mono in source:
        vec = [0] * (n * block)
        for term in nabla(mono, p):
            vec[term.direction * block + index[term.mono]] = term.coeff
        data.append(vec)
    return FpMatrix(data, p, cols=n * block)


def nabla_power_row(n: int, p: int, k: MultiIndex) -> WordRow:
    """Full connection composite applied to one degree-sum(k) monomial.

    Walks the monomial down to degree zero one derivative at a time; the
    direction chosen at each step is recorded as a word letter, the newest
    letter leftmost (so the first derivative taken sits rightmost).  Every
    path is one word, so the walk runs level by level on arrays: each step
    extends every state by every direction i whose exponent m_i is still
    positive, writes the letter i in front and multiplies the coefficient by
    -m_i mod p.  Taking the directions in order, each over all states in
    order, keeps the words sorted.
    """
    if len(k) != n:
        raise ValueError(f"monomial {k} does not have {n} exponents")
    if (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus {p} too large: coefficient products overflow int64")
    ell = sum(k)
    layout = WordLayout(n, ell)
    words = layout.empty(1)
    coeffs = np.ones(1, dtype=np.int64)
    variables = [i for i, e in enumerate(k) if e]
    if len(variables) == 1:
        # One variable: a single path, with the factors -ell, ..., -1.
        layout.write_run(words, variables[0], 0, ell)
        scale = 1
        for m in range(ell, 0, -1):
            scale = scale * (-m % p) % p
        coeffs[0] = scale
    else:
        # The remaining exponents per state, in the narrowest dtype that holds them.
        left = np.array([k], dtype=np.min_scalar_type(max(k, default=0)))
        factor = np.array([-m % p for m in range(max(k, default=0) + 1)], dtype=np.int64)
        for j in reversed(range(ell)):
            parts = []
            for i in range(n):
                src = np.flatnonzero(left[:, i])
                if len(src):
                    extended = words[src]
                    layout.write(extended, j, i)
                    rest = left[src]
                    parts.append((extended, rest, coeffs[src] * factor[rest[:, i]] % p))
                    rest[:, i] -= 1
            words, left, coeffs = (np.concatenate(a) for a in zip(*parts))
    keep = coeffs != 0
    return WordRow(layout, words[keep], coeffs[keep])


@dataclass(frozen=True)
class CurveReport:
    p: int
    ok: bool
    graded_entries: tuple[int, ...]
    ideal_dims: tuple[int, ...]
    filtration_length: int


def curve_report(p: int) -> CurveReport:
    """One-variable summary: every graded map is a nonzero 1x1 scalar and the
    ideal dimensions step down from p to zero, so the filtration has length p."""
    entries = []
    ok = True
    for ell in range(1, p):
        m = graded_nabla_matrix(1, p, ell)
        if m.nrows != 1 or m.ncols != 1:
            ok = False
            entries.append(0)
            continue
        e = m.entry(0, 0)
        entries.append(e)
        ok = ok and e != 0 and e == (-ell) % p
    dims = tuple(len(filtration_basis(1, p, ell)) for ell in range(p + 1))
    ok = ok and dims == tuple(p - ell for ell in range(p)) + (0,)
    return CurveReport(p, ok, tuple(entries), dims, p)
