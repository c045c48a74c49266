"""Capped multi-index boxes, the dominance order, and injective matchings.

A box M^l(a_1..a_n) is the set of integer vectors v with 0 <= v_i <= a_i
and sum(v) = l.  For l <= sigma/2 (sigma = sum of caps) there is an
injective map phi from M^l into M^{sigma-l} with v <= phi(v) componentwise;
``dominance_matching`` builds it by the recursive split-and-shift construction,
and ``hall_matching_exists`` is an independent bipartite-matching oracle
for the same statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def _box_elements(caps: tuple[int, ...], degree: int) -> tuple[MultiIndex, ...]:
    out: list[MultiIndex] = []
    if degree < 0 or degree > sum(caps):
        return ()

    def rec(prefix: tuple[int, ...], rest: tuple[int, ...], remaining: int) -> None:
        if not rest:
            if remaining == 0:
                out.append(prefix)
            return
        if remaining > sum(rest):
            return
        hi = min(rest[0], remaining)
        for v in range(hi + 1):
            rec(prefix + (v,), rest[1:], remaining - v)

    rec((), caps, degree)
    return tuple(out)


def enumerate_box(caps: tuple[int, ...] | list[int], degree: int) -> list[MultiIndex]:
    """All elements of the box in lexicographic order; empty when out of range."""
    caps = tuple(caps)
    if any(a < 0 for a in caps):
        raise ValueError("caps must be non-negative")
    return list(_box_elements(caps, degree))


def grade_basis(n: int, p: int, ell: int) -> list[MultiIndex]:
    """Monomial basis of grade ell in n variables with exponents capped at p-1.

    The one basis shared by the truncated power, the truncated algebra and
    its operators, and the layers of the connection filtration.
    """
    return enumerate_box((p - 1,) * n, ell)


def box_size(caps: tuple[int, ...] | list[int], degree: int) -> int:
    """Cardinality of the box by inclusion-exclusion over violated caps."""
    caps = tuple(caps)
    n = len(caps)
    if degree < 0:
        return 0
    total = 0
    for mask in range(1 << n):
        shift = degree
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                shift -= caps[i] + 1
                bits += 1
        if shift < 0:
            continue
        total += (-1) ** bits * math.comb(shift + n - 1, n - 1)
    return total


def dominates(v: MultiIndex, w: MultiIndex) -> bool:
    """True iff v <= w componentwise."""
    return all(a <= b for a, b in zip(v, w))


@dataclass(frozen=True)
class Box:
    caps: tuple[int, ...]
    degree: int

    def elements(self) -> list[MultiIndex]:
        return enumerate_box(self.caps, self.degree)

    def __contains__(self, v: MultiIndex) -> bool:
        return (
            len(v) == len(self.caps)
            and sum(v) == self.degree
            and all(0 <= x <= a for x, a in zip(v, self.caps))
        )

    @property
    def total(self) -> int:
        return sum(self.caps)


@dataclass(frozen=True)
class Matching:
    """An assignment v -> phi(v) from a source box into a target box."""

    source: Box
    target: Box
    assignment: dict[MultiIndex, MultiIndex] = field(compare=False)

    def pairs(self) -> list[tuple[MultiIndex, MultiIndex]]:
        return sorted(self.assignment.items())


@dataclass(frozen=True)
class MatchingVerdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None


def _split_last(w: tuple[int, ...], cap: int) -> tuple[int, ...]:
    # Inverse of the merge (v_1,..,v_{n-2}, v_{n-1}+v_n): the merged value goes
    # into slot n-1 up to its cap, the overflow into slot n.
    if w[-1] <= cap:
        return w[:-1] + (w[-1], 0)
    return w[:-1] + (cap, w[-1] - cap)


@lru_cache(maxsize=None)
def _matching_pairs(caps: tuple[int, ...], ell: int) -> tuple[tuple[MultiIndex, MultiIndex], ...]:
    """Dominance matching pairs for 2*ell <= sum(caps), as a sorted tuple.

    Zero caps force a zero coordinate in both boxes; they are stripped before
    recursing and the positions restored afterwards, so the recursion proper
    only ever sees strictly positive caps.  Memoized because the shifted
    branch re-enters with lowered caps (lru_cache is thread-safe, and the
    result is deterministic, so concurrent misses are benign).
    """
    if ell < 0:
        return ()
    positive = [i for i, a in enumerate(caps) if a > 0]
    if len(positive) < len(caps):
        inner = _matching_pairs(tuple(caps[i] for i in positive), ell)
        n = len(caps)
        pairs = []
        for v, w in inner:
            fv, fw = [0] * n, [0] * n
            for slot, i in enumerate(positive):
                fv[i] = v[slot]
                fw[i] = w[slot]
            pairs.append((tuple(fv), tuple(fw)))
        return tuple(sorted(pairs))

    n = len(caps)
    sigma = sum(caps)
    if n == 0:
        return (((), ()),) if ell == 0 else ()
    if n == 1:
        a = caps[0]
        return (((ell,), (a - ell,)),) if 0 <= ell <= a else ()

    # n >= 2, every cap positive.  Split the box at the last two coordinates:
    # S = {v_{n-1} = a_{n-1} or v_n = 0} maps bijectively onto the merged
    # (n-1)-variable box via (.., v_{n-1}+v_n); its complement C shifts into
    # the box with both last caps (and the degree) lowered by one.
    merged = caps[:-2] + (caps[-2] + caps[-1],)
    out: list[tuple[MultiIndex, MultiIndex]] = []
    for v, w in _matching_pairs(merged, ell):
        out.append((_split_last(v, caps[-2]), _split_last(w, caps[-2])))
    reduced = caps[:-2] + (caps[-2] - 1, caps[-1] - 1)
    if ell >= 1:
        for v, w in _matching_pairs(reduced, ell - 1):
            out.append((v[:-1] + (v[-1] + 1,), w[:-1] + (w[-1] + 1,)))
    return tuple(sorted(out))


def dominance_matching(caps: tuple[int, ...] | list[int], ell: int) -> Matching:
    """The recursive injective dominance matching M^l -> M^{sigma-l}.

    Requires 2*ell <= sigma; outside that range no dominance matching can
    exist on a non-empty box, so the hypothesis violation is an error.
    """
    caps = tuple(caps)
    if any(a < 0 for a in caps):
        raise ValueError("caps must be non-negative")
    sigma = sum(caps)
    if 2 * ell > sigma:
        raise ValueError(f"degree {ell} exceeds half the cap total {sigma}")
    assignment = dict(_matching_pairs(caps, ell))
    return Matching(Box(caps, ell), Box(caps, sigma - ell), assignment)


def verify_matching(m: Matching) -> MatchingVerdict:
    """Check totality, injectivity, target membership and dominance.

    Returns the first violation found, scanning the source box in
    lexicographic order.
    """
    source = m.source.elements()
    for v in source:
        if v not in m.assignment:
            return MatchingVerdict(False, "not total", (v,))
    seen: dict[MultiIndex, MultiIndex] = {}
    for v in source:
        w = m.assignment[v]
        if w not in m.target:
            return MatchingVerdict(False, "image outside target box", (v, w))
        if not dominates(v, w):
            return MatchingVerdict(False, "dominance fails", (v, w))
        if w in seen:
            return MatchingVerdict(False, "not injective", (seen[w], v, w))
        seen[w] = v
    return MatchingVerdict(True)


def hall_matching_exists(caps: tuple[int, ...] | list[int], ell: int) -> bool:
    """Independent oracle: does M^l inject into M^{sigma-l} along dominance?

    Augmenting-path bipartite matching; vacuously true on an empty source box.
    """
    caps = tuple(caps)
    source = enumerate_box(caps, ell)
    if not source:
        return True
    target = enumerate_box(caps, sum(caps) - ell)
    if not target:
        return False
    # Dominance adjacency, vectorized: edge (i, j) iff source[i] <= target[j].
    s = np.array(source, dtype=np.int64)
    t = np.array(target, dtype=np.int64)
    dominated = (s[:, None, :] <= t[None, :, :]).all(axis=2)
    adj = [np.nonzero(row)[0].tolist() for row in dominated]
    matched: list[int | None] = [None] * len(target)

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if matched[j] is None or augment(matched[j], seen):
                    matched[j] = i
                    return True
        return False

    for i in range(len(source)):
        if not augment(i, [False] * len(target)):
            return False
    return True


def iter_caps_vectors(n_max: int, sigma_max: int) -> Iterator[tuple[int, ...]]:
    """All caps vectors with 1 <= n <= n_max and sum(caps) <= sigma_max."""
    def rec(prefix: tuple[int, ...], length: int, budget: int) -> Iterator[tuple[int, ...]]:
        if length == 0:
            yield prefix
            return
        for a in range(budget + 1):
            yield from rec(prefix + (a,), length - 1, budget - a)

    for n in range(1, n_max + 1):
        yield from rec((), n, sigma_max)
