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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator

from .fp_linalg import FpMatrix, _check_modulus, eliminate, row_reduce
from .monomial_box import MultiIndex, grade_basis
from .seeded import _randint


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


def _action_map(n: int, p: int, op: MultiIndex, ell: int) -> dict[int, tuple[int, int]]:
    """t^op on grade ell of R as {source index: (target index, coeff)} over the
    monomials it does not kill; distinct sources have distinct targets."""
    index = {m: j for j, m in enumerate(grade_basis(n, p, ell - sum(op)))}
    images = (apply_diff(op, mono, p) for mono in grade_basis(n, p, ell))
    return {i: (index[res], coeff) for i, (coeff, res) in enumerate(images) if coeff}


def diff_action_matrix(n: int, p: int, op: MultiIndex, ell: int) -> FpMatrix:
    """Matrix of t^op on grade ell of R (rows = source monomials)."""
    action = _action_map(n, p, op, ell)
    rows = [{hit[0]: hit[1]} if (hit := action.get(i)) else {}
            for i in range(len(grade_basis(n, p, ell)))]
    return FpMatrix(rows, p, len(grade_basis(n, p, ell - sum(op))))


def omega_pairing_matrix(n: int, p: int, ell: int) -> FpMatrix:
    """Multiplication against omega = prod y_i^{p-1}: grade-ell operators
    land in the complementary grade of R.

    Square in the canonical monomial bases, and invertible for every grade.
    """
    top = n * (p - 1)
    if not 0 <= ell <= top:
        raise ValueError(f"grade {ell} outside [0, {top}]")
    rows = [row for op in grade_basis(n, p, ell) for row in diff_action_matrix(n, p, op, top).rows]
    return FpMatrix(rows, p, len(grade_basis(n, p, top - ell)))


@dataclass(frozen=True, eq=False)
class GradedSubspace:
    """A subspace of grade ``grade`` of R, stored as the pivot rows
    {leading column: {column: entry}} that ``eliminate`` returns for its
    spanning vectors.  Two spans are equal when their ``basis`` is.

    ``parent_images``, when given, are pivot rows spanning the
    bridging-operator images of the span of all pivot rows but the last
    (see ``coordinate_subspaces``); the image span then eliminates only the
    last row's images on top of them.  They are trusted, not checked."""

    n: int
    p: int
    grade: int
    pivots: dict[int, dict[int, int]]
    parent_images: dict[int, dict[int, int]] | None = field(default=None, repr=False)

    @classmethod
    def from_vectors(cls, n: int, p: int, grade: int, vectors) -> "GradedSubspace":
        """Span of the vectors: each a sequence of the grade's dimension, or
        a dict {index: entry} of its nonzero entries, indices in [0, width)."""
        _check_modulus(p)
        width = len(grade_basis(n, p, grade))
        rows = []
        for v in vectors:
            if isinstance(v, dict):
                if v and not (0 <= min(v) and max(v) < width):
                    raise ValueError(f"vector indices outside [0, {width})")
                rows.append(v)
            else:
                v = list(v)
                if len(v) != width:
                    raise ValueError(f"vector length {len(v)} != grade dimension {width}")
                rows.append({j: x for j, x in enumerate(v) if x})
        return cls(n, p, grade, eliminate(rows, p, width))

    @classmethod
    def coordinate(cls, n: int, p: int, grade: int, monomial_indices,
                   parent_images: dict | None = None) -> "GradedSubspace":
        """Span of a subset of the grade's monomial basis, given by indices
        in [0, width); any other index is refused.  The pivot rows follow the
        indices' order, so ``parent_images`` are those of all but the last."""
        _check_modulus(p)
        width = len(grade_basis(n, p, grade))
        pivots = {}
        for i in monomial_indices:
            if not 0 <= i < width:
                raise ValueError(f"monomial index {i} outside [0, {width})")
            pivots[i] = {i: 1}
        # Unit rows are already reduced: each is its own pivot row.
        return cls(n, p, grade, pivots, parent_images)

    @classmethod
    def random(cls, n: int, p: int, grade: int, dim: int, rng: random.Random) -> "GradedSubspace":
        """Uniform random subspace of the requested dimension (retries until
        full rank).  The entries are ``rng.randrange(p)``, row by row, drawn
        straight into sparse rows."""
        width = len(grade_basis(n, p, grade))
        if not 0 <= dim <= width:
            raise ValueError(f"dimension {dim} outside [0, {width}]")
        while True:
            rows = [{j: x for j in range(width) if (x := _randint(rng, 0, p - 1))}
                    for _ in range(dim)]
            sub = cls.from_vectors(n, p, grade, rows)
            if sub.dim == dim:
                return sub

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def _image_pivots(self) -> dict[int, dict[int, int]]:
        """Pivot rows spanning the bridging-operator images of the subspace
        (see ``spanned_image_dim``), eliminated on first use and kept."""
        n, p, ell = self.n, self.p, self.grade
        top = n * (p - 1)
        if 2 * ell < top:
            raise ValueError(f"grade {ell} below half the top grade {top}")
        rows = list(self.pivots.values())
        if self.parent_images is not None:
            rows = rows[-1:]
        images = ({hit[0]: x * hit[1] for i, x in row.items() if (hit := action.get(i))}
                  for action in _bridging_actions(n, p, ell) for row in rows)
        return eliminate(images, p, len(grade_basis(n, p, top - ell)), self.parent_images)

    @property
    def basis(self) -> FpMatrix:
        """The reduced row-echelon basis, built on demand from the pivot rows."""
        width = len(grade_basis(self.n, self.p, self.grade))
        return row_reduce(FpMatrix(self.pivots.values(), self.p, width))[0]


@lru_cache(maxsize=1)
def _bridging_actions(n: int, p: int, ell: int) -> tuple[dict[int, tuple[int, int]], ...]:
    # One entry suffices: the growth claim visits the grades one at a time.
    d = 2 * ell - n * (p - 1)
    return tuple(_action_map(n, p, op, ell) for op in grade_basis(n, p, d))


def spanned_image_dim(v: GradedSubspace) -> int:
    """Dimension of the span of all degree-(2l - n(p-1)) operator images of V.

    Requires the grade to sit in the upper half of the grading.  The images
    of the pivot rows of V under every operator monomial of the bridging
    degree (their actions built once per grade) go to ``eliminate`` as
    sparse rows, which stops once they span the whole target grade.  With
    ``parent_images`` only the last pivot row's images are added to them.
    The subspace keeps the resulting pivot rows.
    """
    return len(v._image_pivots)


def coordinate_subspaces(n: int, p: int,
                         ell: int) -> Iterator[tuple[list[int], GradedSubspace]]:
    """Every coordinate subspace of the upper-half grade ell, as (indices,
    subspace) in the order of the index sets' bit masks, 0 to 2^width - 1.

    Each subspace but the zero one carries the image pivots of its parent,
    the mask without its highest bit, so ``spanned_image_dim`` adds the
    images of one unit vector.  The spans of the parents, the masks below
    2^(width-1), are kept while the grade is swept; each is eliminated once,
    by whichever comes first of the consumer's check and the sweep.
    """
    width = len(grade_basis(n, p, ell))
    parents = (1 << width) >> 1
    spans: list[dict] = []  # image pivots by mask, for the parents
    for mask in range(1 << width):
        idxs = [i for i in range(width) if mask >> i & 1]
        start = spans[mask ^ (1 << (mask.bit_length() - 1))] if mask else None
        sub = GradedSubspace.coordinate(n, p, ell, idxs, start)
        yield idxs, sub
        if mask < parents:
            spans.append(sub._image_pivots)

