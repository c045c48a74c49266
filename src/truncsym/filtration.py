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

from .fp_linalg import FpMatrix
from .monomial_box import MultiIndex, grade_basis
from .trunc_power import Word


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


def nabla_power_row(n: int, p: int, k: MultiIndex) -> dict[Word, int]:
    """Full connection composite applied to one degree-sum(k) monomial.

    Walks the monomial down to degree zero one derivative at a time; the
    direction chosen at each step is recorded as a word letter, the newest
    letter leftmost (so the first derivative taken sits rightmost).
    """
    ell = sum(k)
    states: dict[tuple[MultiIndex, Word], int] = {(k, ()): 1}
    for _ in range(ell):
        nxt: dict[tuple[MultiIndex, Word], int] = {}
        for (m, w), c in states.items():
            for i in range(n):
                mi = m[i]
                if mi:
                    key = (m[:i] + (mi - 1,) + m[i + 1:], (i,) + w)
                    nxt[key] = (nxt.get(key, 0) - c * mi) % p
        states = nxt
    return {w: c for (_, w), c in states.items() if c}


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
