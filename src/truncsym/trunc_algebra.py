"""The truncated polynomial algebra with its derivation action.

R = K[y_1..y_n]/(y_i^p) carries an action of the truncated operator algebra
D = K[t_1..t_n]/(t_i^p) through partial derivations; both are graded with
grade basis the capped monomial box.  Multiplying operators against the top
monomial omega = prod y_i^{p-1} pairs the grade-l operators with the
complementary grade of R, and the subspace-growth inequality compares a
subspace of a high grade with the span of its derivative images.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fp_linalg import FpMatrix, row_reduce, span_dim
from .monomial_box import MultiIndex, grade_basis


def _falling(k: int, e: int, p: int) -> int:
    """k(k-1)...(k-e+1) mod p."""
    out = 1
    for i in range(e):
        out = out * (k - i) % p
    return out


def apply_diff(op: MultiIndex, mono: MultiIndex, p: int) -> tuple[int, MultiIndex | None]:
    """Apply the operator monomial t^op to the algebra monomial y^mono.

    The coefficient is the product of falling factorials k_i(k_i-1)..(k_i-e_i+1)
    mod p and the surviving monomial is mono - op; the result is (0, None)
    when some order exceeds the matching exponent.
    """
    if len(op) != len(mono):
        raise ValueError("operator and monomial have different variable counts")
    if any(not 0 <= e <= p - 1 for e in op):
        raise ValueError("operator orders must lie in [0, p-1]")
    if any(not 0 <= k <= p - 1 for k in mono):
        raise ValueError("monomial exponents must lie in [0, p-1]")
    if any(e > k for e, k in zip(op, mono)):
        return 0, None
    coeff = 1
    for e, k in zip(op, mono):
        coeff = coeff * _falling(k, e, p) % p
    return coeff, tuple(k - e for e, k in zip(op, mono))


def diff_action_matrix(n: int, p: int, op: MultiIndex, ell: int) -> FpMatrix:
    """Matrix of t^op on grade ell of R (rows = source monomials)."""
    source = grade_basis(n, p, ell)
    target = grade_basis(n, p, ell - sum(op))
    index = {m: j for j, m in enumerate(target)}
    data = []
    for mono in source:
        vec = [0] * len(target)
        coeff, res = apply_diff(op, mono, p)
        if res is not None and coeff:
            vec[index[res]] = coeff
        data.append(vec)
    return FpMatrix(data, p, cols=len(target))


def omega_pairing_matrix(n: int, p: int, ell: int) -> FpMatrix:
    """Multiplication against omega = prod y_i^{p-1}: grade-ell operators
    land in the complementary grade of R.

    Square in the canonical monomial bases, and invertible for every grade.
    """
    top = n * (p - 1)
    if not 0 <= ell <= top:
        raise ValueError(f"grade {ell} outside [0, {top}]")
    omega = (p - 1,) * n
    ops = grade_basis(n, p, ell)
    target = grade_basis(n, p, top - ell)
    index = {m: j for j, m in enumerate(target)}
    data = []
    for op in ops:
        vec = [0] * len(target)
        coeff, res = apply_diff(op, omega, p)
        vec[index[res]] = coeff
        data.append(vec)
    return FpMatrix(data, p, cols=len(target))


@dataclass(frozen=True)
class GradedSubspace:
    """A subspace of grade ``grade`` of R, stored as a reduced row basis."""

    n: int
    p: int
    grade: int
    basis: FpMatrix

    @classmethod
    def from_vectors(cls, n: int, p: int, grade: int, vectors) -> "GradedSubspace":
        width = len(grade_basis(n, p, grade))
        rows = [list(v) for v in vectors]
        for r in rows:
            if len(r) != width:
                raise ValueError(f"vector length {len(r)} != grade dimension {width}")
        rref, rk = row_reduce(FpMatrix(rows, p, cols=width))
        reduced = FpMatrix([rref.row(i) for i in range(rk)], p, cols=width)
        return cls(n, p, grade, reduced)

    @classmethod
    def coordinate(cls, n: int, p: int, grade: int, monomial_indices) -> "GradedSubspace":
        """Span of a subset of the grade's monomial basis."""
        width = len(grade_basis(n, p, grade))
        rows = []
        for i in monomial_indices:
            vec = [0] * width
            vec[i] = 1
            rows.append(vec)
        return cls.from_vectors(n, p, grade, rows)

    @classmethod
    def random(cls, n: int, p: int, grade: int, dim: int, rng: random.Random) -> "GradedSubspace":
        """Uniform random subspace of the requested dimension (retries until full rank)."""
        width = len(grade_basis(n, p, grade))
        if dim > width:
            raise ValueError(f"dimension {dim} exceeds grade dimension {width}")
        while True:
            rows = [[rng.randrange(p) for _ in range(width)] for _ in range(dim)]
            sub = cls.from_vectors(n, p, grade, rows)
            if sub.dim == dim:
                return sub

    @property
    def dim(self) -> int:
        return self.basis.nrows


def spanned_image_dim(v: GradedSubspace) -> int:
    """Dimension of the span of all degree-(2l - n(p-1)) operator images of V.

    Requires the grade to sit in the upper half of the grading; every
    operator monomial of the bridging degree is applied to every basis
    vector and the stacked images are row-reduced once.
    """
    n, p, ell = v.n, v.p, v.grade
    top = n * (p - 1)
    d = 2 * ell - top
    if d < 0:
        raise ValueError(f"grade {ell} below half the top grade {top}")
    source = grade_basis(n, p, ell)
    target = grade_basis(n, p, top - ell)
    index = {m: j for j, m in enumerate(target)}
    ops = grade_basis(n, p, d)
    images = []
    for op in ops:
        # Precompute the action on each source monomial once per operator.
        action = [apply_diff(op, mono, p) for mono in source]
        for i in range(v.basis.nrows):
            row = v.basis.row(i)
            vec = [0] * len(target)
            for c, (coeff, res) in zip(row, action):
                if c and res is not None and coeff:
                    j = index[res]
                    vec[j] = (vec[j] + c * coeff) % p
            images.append(vec)
    return span_dim(images, p, width=len(target))


@dataclass(frozen=True)
class GrowthVerdict:
    ok: bool
    dim_v: int
    image_dim: int
    n: int
    p: int
    grade: int
    witness: FpMatrix | None = None


def check_upper_half_growth(v: GradedSubspace) -> GrowthVerdict:
    """Verify dim(V) <= dim of the span of its bridging-operator images.

    This always holds; a failing verdict carries the witness subspace and
    signals an implementation bug rather than a mathematical possibility.
    """
    if v.dim == 0:
        spanned_image_dim(v)  # still enforce the grade precondition
        return GrowthVerdict(True, 0, 0, v.n, v.p, v.grade)
    image = spanned_image_dim(v)
    ok = v.dim <= image
    return GrowthVerdict(ok, v.dim, image, v.n, v.p, v.grade, None if ok else v.basis)
