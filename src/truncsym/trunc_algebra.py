"""The truncated polynomial algebra with its derivation action.

R = K[y_1..y_n]/(y_i^p) carries an action of the truncated operator algebra
D = K[t_1..t_n]/(t_i^p) through partial derivations; both are graded with
grade basis the capped monomial box.  Multiplying operators against the top
monomial omega = prod y_i^{p-1} pairs the grade-l operators with the
complementary grade of R, and the subspace-growth inequality compares a
subspace of a high grade with the span of its derivative images.  The sweep
over the coordinate subspaces of a grade grows each image span from its
parent's, so it eliminates the images of one unit vector per subspace.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .fp_linalg import FpMatrix, _check_modulus, eliminate, row_reduce
from .monomial_box import MultiIndex, grade_basis


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
        coeff = coeff * math.perm(k, e) % p
    return coeff, tuple(k - e for e, k in zip(op, mono))


def omega_pairing_matrix(n: int, p: int, ell: int) -> FpMatrix:
    """Multiplication against omega = prod y_i^{p-1}: grade-ell operators
    land in the complementary grade of R.

    Square in the canonical monomial bases, and invertible for every grade.
    """
    top = n * (p - 1)
    if not 0 <= ell <= top:
        raise ValueError(f"grade {ell} outside [0, {top}]")
    index = {m: j for j, m in enumerate(grade_basis(n, p, top - ell))}
    omega = (p - 1,) * n
    rows = [{index[res]: coeff} for coeff, res in
            (apply_diff(op, omega, p) for op in grade_basis(n, p, ell))]
    return FpMatrix(rows, p, len(index))


@dataclass(frozen=True, eq=False)
class GradedSubspace:
    """A subspace of grade ``grade`` of R, stored as the pivot rows
    {leading column: {column: entry}} that ``eliminate`` returns for its
    spanning vectors.  Two spans are equal when their ``basis`` is."""

    n: int
    p: int
    grade: int
    pivots: dict[int, dict[int, int]]

    @classmethod
    def from_vectors(cls, n: int, p: int, grade: int, vectors) -> "GradedSubspace":
        """Span of the vectors, each a sparse row {index: entry} with its
        indices in [0, width), width the grade's dimension."""
        _check_modulus(p)
        width = len(grade_basis(n, p, grade))
        rows = list(vectors)
        for v in rows:
            if v and not (0 <= min(v) and max(v) < width):
                raise ValueError(f"vector indices outside [0, {width})")
        return cls(n, p, grade, eliminate(rows, p, width))

    @classmethod
    def random(cls, n: int, p: int, grade: int, dim: int, rng: random.Random) -> "GradedSubspace":
        """Uniform random subspace of the requested dimension (retries until
        full rank).  The entries are ``rng.randrange(p)``, row by row, drawn
        straight into sparse rows."""
        width = len(grade_basis(n, p, grade))
        if not 0 <= dim <= width:
            raise ValueError(f"dimension {dim} outside [0, {width}]")
        getrandbits, k = rng.getrandbits, p.bit_length()
        while True:
            # _randint(rng, 0, p - 1) per entry, its rule written out (see ``seeded``).
            rows = []
            for _ in range(dim):
                row = {}
                for j in range(width):
                    x = getrandbits(k)
                    while x >= p:
                        x = getrandbits(k)
                    if x:
                        row[j] = x
                rows.append(row)
            sub = cls.from_vectors(n, p, grade, rows)
            if sub.dim == dim:
                return sub

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> FpMatrix:
        """The reduced row-echelon basis, built on demand from the pivot rows."""
        width = len(grade_basis(self.n, self.p, self.grade))
        return row_reduce(FpMatrix(self.pivots.values(), self.p, width))[0]


@lru_cache(maxsize=1)
def _bridging_actions(n: int, p: int, ell: int) -> tuple[dict[int, tuple[int, int]], ...]:
    """The actions on grade ell of the operator monomials t^op of the
    bridging degree 2l - n(p-1), which carry grade ell onto its complementary
    grade, each as {source index: (target index, coeff)} over the monomials
    it does not kill; distinct sources have distinct targets.  A grade below
    half the top one is refused."""
    # One entry suffices: the growth claim visits the grades one at a time.
    top = n * (p - 1)
    if 2 * ell < top:
        raise ValueError(f"grade {ell} below half the top grade {top}")
    source = grade_basis(n, p, ell)
    index = {m: j for j, m in enumerate(grade_basis(n, p, top - ell))}
    return tuple({i: (index[res], coeff) for i, (coeff, res) in
                  enumerate(apply_diff(op, mono, p) for mono in source) if coeff}
                 for op in grade_basis(n, p, 2 * ell - top))


def _image_span(n: int, p: int, ell: int, rows, start: dict | None = None) -> dict:
    """Pivot rows spanning the images of the sparse rows of grade ell under
    every bridging operator, extending the span ``start``.  ``eliminate``
    stops once they span the whole target grade."""
    images = ({hit[0]: x * hit[1] for i, x in row.items() if (hit := action.get(i))}
              for action in _bridging_actions(n, p, ell) for row in rows)
    return eliminate(images, p, len(grade_basis(n, p, n * (p - 1) - ell)), start)


def spanned_image_dim(v: GradedSubspace) -> int:
    """Dimension of the span of all degree-(2l - n(p-1)) operator images of V.

    Requires the grade to sit in the upper half of the grading.  The images
    of the pivot rows of V under every operator monomial of the bridging
    degree (their actions built once per grade) go to ``eliminate`` as
    sparse rows.
    """
    return len(_image_span(v.n, v.p, v.grade, v.pivots.values()))


def coordinate_subspaces(n: int, p: int, ell: int) -> Iterator[tuple[list[int], int]]:
    """Every coordinate subspace of the upper-half grade ell, as (indices,
    image dimension) in the order of the index sets' bit masks, 0 to
    2^width - 1.  The modulus and the grade are checked before the first.

    The image span of a nonzero mask is its parent's, the mask without its
    highest bit, extended by the images of that bit's unit vector.  The
    spans of the parents, the masks below 2^(width-1), are kept while the
    grade is swept.
    """
    _check_modulus(p)
    _bridging_actions(n, p, ell)  # refuses a lower-half grade
    width = len(grade_basis(n, p, ell))
    parents = (1 << width) >> 1
    spans: list[dict] = [{}]  # image pivots by mask, for the parents
    yield [], 0
    for mask in range(1, 1 << width):
        idxs = [i for i in range(width) if mask >> i & 1]
        span = _image_span(n, p, ell, ({idxs[-1]: 1},), spans[mask ^ (1 << idxs[-1])])
        yield idxs, len(span)
        if mask < parents:
            spans.append(span)
