"""Capped multi-index boxes, the dominance order, and injective matchings.

A box M^l(a_1..a_n) is the set of integer vectors v with 0 <= v_i <= a_i
and sum(v) = l.  For l <= sigma/2 (sigma = sum of caps) there is an
injective map phi from M^l into M^{sigma-l} with v <= phi(v) componentwise;
``dominance_matching`` builds it by the split-and-shift construction, and
``hall_matching_exists`` is an independent bipartite-matching oracle for
the same statement.  One pass enumerates a degree range of many boxes as
numpy rows: one degree of a single box, the matched half of a batch for
the map, one box per (shape, degree) for the oracle.  The map is one fold
over the columns of all source elements, and ``matching_sweep`` checks
many caps vectors per batch.  Nothing here recurses or caches without bound.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import sub
from typing import Iterable, Iterator

import numpy as np

MultiIndex = tuple[int, ...]

# The most source-box elements ``dominance_matching`` accepts; larger boxes
# are refused from their size.
MATCHING_BOX_LIMIT = 10_000
# The most source-box elements ``hall_matching_exists`` accepts.  Its graph
# has up to size^2 dominance edges, held as a list of Python ints; at this
# limit with every pair an edge the process peaks at about 210 MB.
HALL_BOX_LIMIT = 2_048

# Caps totals above this could wrap the int64 arithmetic on box rows.
CAPS_TOTAL_LIMIT = np.iinfo(np.int64).max

# ``matching_sweep`` enumerates boxes of at most about this many rows at once.
_SWEEP_CHUNK_ROWS = 1 << 15
# The Hall oracle compares about this many (source, target) pairs at once.
_HALL_PAIR_BLOCK = 1 << 20


def _row_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer type holding 0..bound."""
    for t in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def _check_caps(caps: tuple[int, ...]) -> int:
    # Not min(caps, default=0): the keyword doubles the cost of this check,
    # which every boundary refusal of the matching suite pays.
    if caps and min(caps) < 0:
        raise ValueError("caps must be non-negative")
    sigma = sum(caps)
    if sigma > CAPS_TOTAL_LIMIT:
        raise ValueError(f"cap total {sigma} exceeds the int64 range")
    return sigma


def _enumerate(caps: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Box rows of every caps vector q (a row of ``caps``) with total in
    [lo[q], hi[q]] (an int bound holds for all), prefix-major.

    Returns the rows and, for each, the index of its caps vector; the rows of
    one caps vector are contiguous and in lexicographic order.  Each
    coordinate extends every prefix by the values that keep both bounds in
    reach of the caps left, so every prefix that reaches the last coordinate
    is a row; the rows are read back along the parent links at the end.

    The rows are column-major: one contiguous array per coordinate, seen as
    the usual (rows, n) array.  Rows have a handful of narrow columns, and
    numpy's row-wise sums over such C-ordered rows cost several times more,
    and its row-wise tests tens of times more, than over contiguous columns.
    """
    m, n = caps.shape
    caps = caps.astype(np.int64)
    # tails[:, k]: the caps total of coordinates k.. of each caps vector.
    tails = np.zeros((m, n + 1), np.int64)
    tails[:, :n] = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1]
    owner = np.arange(m)
    # left[:, j]: the least and the most prefix j's remaining coordinates add.
    left = np.array([np.broadcast_to(lo, m), np.broadcast_to(hi, m)], np.int64)
    links = []
    for k in range(n):
        low = np.maximum(left[0] - tails[owner, k + 1], 0)
        high = np.minimum(left[1], caps[owner, k])
        counts = np.maximum(high - low + 1, 0)
        parent = np.repeat(np.arange(len(owner)), counts)
        first = np.cumsum(counts) - counts
        values = low[parent] + np.arange(len(parent)) - first[parent]
        links.append((parent, values))
        owner = owner[parent]
        left = left[:, parent] - values
    rows = np.empty((n, len(owner)), _row_dtype(int(caps.max(initial=0)))).T
    at = np.arange(len(owner))
    for k in range(n - 1, -1, -1):
        parent, values = links[k]
        rows[:, k] = values[at]
        at = parent[at]
    return rows, owner


def _as_tuples(rows: np.ndarray) -> list[MultiIndex]:
    return list(map(tuple, rows.tolist()))


def enumerate_box(caps: tuple[int, ...] | list[int], degree: int) -> list[MultiIndex]:
    """All elements of the box in lexicographic order; empty when out of range."""
    caps = tuple(caps)
    if not 0 <= degree <= _check_caps(caps):
        return []
    return _as_tuples(_enumerate(np.array([caps], np.int64), degree, degree)[0])


@lru_cache(maxsize=256)
def grade_basis(n: int, p: int, ell: int) -> tuple[MultiIndex, ...]:
    """Monomial basis of grade ell in n variables with exponents capped at p-1.

    The one basis shared by the truncated power, the truncated algebra and
    its operators, and the layers of the connection filtration.  The most
    recent grades are cached, and a repeated lookup returns the cached tuple.
    """
    return tuple(enumerate_box((p - 1,) * n, ell))


def box_size(caps: tuple[int, ...] | list[int], degree: int) -> int:
    """Cardinality of the box by inclusion-exclusion over violated caps.

    Zero caps are dropped and caps of at least the degree never bind, so the
    signed sets of violated caps, tallied by how far they lower the degree,
    take at most min(2^binding, degree + 1) entries.
    """
    caps = tuple(a for a in caps if a)
    if any(a < 0 for a in caps):
        raise ValueError("caps must be non-negative")
    n = len(caps)
    if degree < 0 or not n:
        return int(degree == 0)
    # signed[s]: sum of (-1)^|S| over the cap sets S with sum(a_i + 1) = s.
    signed = {0: 1}
    for a in caps:
        if a < degree:
            for s, c in list(signed.items()):
                if s + a + 1 <= degree:
                    signed[s + a + 1] = signed.get(s + a + 1, 0) - c
    return sum(c * math.comb(degree - s + n - 1, n - 1) for s, c in signed.items() if c)


def _bounded_box_size(caps: tuple[int, ...], degree: int, limit: int) -> int:
    """The box size, or ValueError when it is above the limit.

    The box M^l is as large as M^{sigma-l}, and the ranks of a product of
    chains rise up to half the total, so for 1 <= k <= min(l, sigma-l) the
    C(n, k) 0/1 vectors of weight k over the n positive caps bound the box
    from below; a box that bound already puts above the limit is refused
    before the exact count, whose cost grows with the number of caps.
    """
    low = min(degree, sum(caps) - degree)
    positive = sum(1 for a in caps if a)
    bound = 1
    for i in range(min(low, positive // 2)):
        bound = bound * (positive - i) // (i + 1)
        if bound > limit:
            raise ValueError(
                f"the degree-{degree} box has at least {bound} elements, above the limit {limit}")
    size = box_size(caps, degree)
    if size > limit:
        raise ValueError(f"the degree-{degree} box has {size} elements, above the limit {limit}")
    return size


def _split_shift_images(v: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The dominance matching of each row of v inside the box of its caps row.

    One fold over the columns, right to left, carries each row's merged
    suffix: its slot s, value x and cap a.  A column k of positive cap c
    meets it with t = min(c - v_k, x) shifts at once (c, x and a all drop by
    t); after them v_k = c - t or x = t, so while both caps stay positive the
    two merge into slot k with value v_k + x - t and cap c + a - 2t.  A spent
    cap leaves the other coordinate as the suffix, two leave none.  The
    suffix maps to a - x in its slot, every other slot to 0, and one pass
    left to right undoes the columns: slot k keeps at most c - t, which
    binds only after a merge, and the rest and the t shifts go to slot s.
    So each row takes two passes over its columns, whatever its degree.
    """
    rows, n = v.shape
    v, caps = np.ascontiguousarray(v.T), np.ascontiguousarray(caps.T)
    r = np.arange(rows)
    # The suffix's slot as a flat index into the (n, rows) images; a row
    # without a suffix has x = a = 0, so its steps change nothing.
    s = r.copy()
    x = np.zeros(rows, v.dtype)
    a = np.zeros(rows, v.dtype)
    log = []
    for k in range(n - 1, -1, -1):
        c, vk = caps[k], v[k]
        if not c.any():
            continue
        t = np.minimum(c - vk, x)
        c = c - t
        a = a - t
        log.append((k, s, t, c))
        x = vk + (x - t)
        a = c + a
        s = np.where(c > 0, k * rows + r, s)
    w = np.zeros((n, rows), v.dtype)
    flat = w.ravel()
    flat[s] = a - x
    for k, s, t, cap in reversed(log):
        wk = w[k].copy()
        w[k] = np.minimum(wk, cap)
        flat[s] += t + (wk - w[k])
    return w.T


def dominance_matching(caps: tuple[int, ...] | list[int],
                       ell: int) -> dict[MultiIndex, MultiIndex]:
    """The split-and-shift injective dominance matching M^l -> M^{sigma-l},
    as the assignment {v: phi(v)} in lexicographic order of v.

    The map runs on every source element at once, two passes over the
    columns whatever the degree (``_split_shift_images``).

    Requires 2*ell <= sigma; outside that range no dominance matching can
    exist on a non-empty box, so the hypothesis violation is an error, and
    so are empty caps, a negative degree, a cap total beyond int64 and a
    source box above MATCHING_BOX_LIMIT elements.
    """
    caps = tuple(caps)
    if not caps:
        raise ValueError("caps must be non-empty")
    sigma = _check_caps(caps)
    if ell < 0:
        raise ValueError(f"degree {ell} is negative")
    if 2 * ell > sigma:
        raise ValueError(f"degree {ell} exceeds half the cap total {sigma}")
    _bounded_box_size(caps, ell, MATCHING_BOX_LIMIT)
    dtype = _row_dtype(sigma)
    source = _enumerate(np.array([caps], np.int64), ell, ell)[0].astype(dtype)
    images = _split_shift_images(source, np.tile(np.array(caps, dtype), (len(source), 1)))
    return dict(zip(_as_tuples(source), _as_tuples(images)))


def _violations(v: np.ndarray, w: np.ndarray, caps: np.ndarray, target_degree: np.ndarray,
                slot: np.ndarray) -> np.ndarray:
    """Per row: whether its image lies outside the target box, fails
    dominance, or equals the image of another row of the same case.

    Injectivity is one count of one int64 key per row, the row's slot (where
    its caps vector's full box starts among the chunk's full boxes) plus the
    image's mixed-radix index in that box.  ``_sweep_chunks`` keeps the full
    boxes within _SWEEP_CHUNK_ROWS, and the images of one caps vector at two
    degrees differ, so two rows share a key exactly when they repeat an image
    within a case; an image outside the box already fails and is not counted.

    The sweep hands every array here column-major (see ``_enumerate``), so
    the row-wise sums and tests below run over contiguous columns, several
    to tens of times faster than over C-ordered rows; there they also beat
    an explicit loop over the coordinates.  Any layout gives the same answer,
    and the degree sum accumulates in int64, so an image at the int8
    extremes cannot wrap.
    """
    outside = (w.sum(axis=1) != target_degree) | ((w < 0) | (w > caps)).any(axis=1)
    index = np.zeros(len(w), np.int64)
    for k in range(w.shape[1]):
        index *= caps[:, k] + 1
        index += w[:, k]
    key = np.where(outside, 0, slot + index)
    repeats = np.bincount(key[~outside], minlength=_SWEEP_CHUNK_ROWS)[key] > 1
    return outside | repeats | (v > w).any(axis=1)


def verify_matching(caps: tuple[int, ...] | list[int], ell: int,
                    assignment: dict[MultiIndex, MultiIndex]) -> str | None:
    """Check that ``assignment`` maps M^l into M^{sigma-l} totally,
    injectively and along dominance.

    Returns None when it does, else the first violation found, scanning the
    source box in lexicographic order: a missing image first, then per
    element an image outside the target, dominance, and an image met before.
    The violation is worded as its reason and witness, e.g.
    "not injective at ((0, 1), (1, 0), (2, 1))".  Plain Python over the
    assignment, sharing no code with the sweep's array check.  A source box
    above MATCHING_BOX_LIMIT elements, the limit of the constructor it
    checks, is refused from its size before any element is listed.
    """
    caps = tuple(caps)
    target = _check_caps(caps) - ell
    _bounded_box_size(caps, ell, MATCHING_BOX_LIMIT)
    source = enumerate_box(caps, ell)
    for v in source:
        if assignment.get(v) is None:
            return f"not total at {(v,)}"
    first: dict[MultiIndex, MultiIndex] = {}
    for v in source:
        w = assignment[v]
        if (len(w) != len(caps) or sum(w) != target
                or not all(0 <= x <= a for x, a in zip(w, caps))):
            return f"image outside target box at {(v, w)}"
        if any(x > y for x, y in zip(v, w)):
            return f"dominance fails at {(v, w)}"
        earlier = first.setdefault(tuple(w), v)
        if earlier != v:
            return f"not injective at {(earlier, v, w)}"
    return None


def _augmenting_matching_exists(adjacency: list[int], bounds: list[int], targets: int) -> bool:
    """Whether every source gets its own target: a greedy seed, then an
    iterative augmenting-path search from each source the seed left free.

    Source i's targets are adjacency[bounds[i]:bounds[i + 1]].
    """
    owner = [-1] * targets
    free = []
    for i in range(len(bounds) - 1):
        for j in adjacency[bounds[i]:bounds[i + 1]]:
            if owner[j] < 0:
                owner[j] = i
                break
        else:
            free.append(i)
    for root in free:
        seen = bytearray(targets)
        path = [root]  # sources along the search path
        via = []  # via[d]: the target taken from path[d] to path[d + 1]
        cursor = [bounds[root]]
        while True:
            i = path[-1]
            c, end = cursor[-1], bounds[i + 1]
            while c < end and seen[adjacency[c]]:
                c += 1
            if c == end:
                path.pop()
                cursor.pop()
                if not path:
                    return False
                via.pop()
                continue
            j = adjacency[c]
            cursor[-1] = c + 1
            seen[j] = 1
            via.append(j)
            if owner[j] < 0:
                for s, t in zip(path, via):
                    owner[t] = s
                break
            path.append(owner[j])
            cursor.append(bounds[owner[j]])
    return True


def _dominance_test(rows: np.ndarray):
    """A function of index arrays (src, tgt): whether rows[src] <= rows[tgt]
    componentwise, pair by pair.

    Both the packing and the unpacked comparison loop over the coordinates,
    one column at a time: over the column-major rows of ``_enumerate`` each
    column is contiguous, and whole-row gathers and reductions over narrow
    rows cost several times more.
    """
    n = rows.shape[1]
    width = int(rows.max(initial=0)).bit_length() + 1
    if n * width > 63:
        def dominated(src, tgt):
            out = np.ones(len(src), bool)
            for k in range(n):
                column = rows[:, k]
                out &= column[src] <= column[tgt]
            return out
        return dominated
    # One int64 per row, coordinate k in the field at bit k * width, with a
    # guard bit on top: subtracting v from w with the guard bits set borrows a
    # field's guard bit exactly when v_k > w_k, and never reaches the next field.
    packed = np.zeros(len(rows), np.int64)
    guard = 0
    for k in range(n - 1, -1, -1):
        packed <<= width
        packed |= rows[:, k]
        guard = guard << width | 1 << (width - 1)
    return lambda src, tgt: ((packed[tgt] | guard) - packed[src]) & guard == guard


def _edges(dominated, source: np.ndarray, t_lo: np.ndarray, t_len: np.ndarray):
    """Dominance edges from each source row to the t_len rows from t_lo.

    Returns the edges' target offsets, source by source, and the number of
    edges of each source; about _HALL_PAIR_BLOCK pairs are compared at once.
    """
    offsets = []
    degree = np.zeros(len(source), np.int64)
    ends = np.cumsum(t_len)
    a = 0
    while a < len(source):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - t_len[a] + _HALL_PAIR_BLOCK, "right")))
        w = t_len[a:b]
        start = np.cumsum(w) - w
        src = np.repeat(source[a:b], w)
        hit = dominated(src, np.arange(len(src)) + np.repeat(t_lo[a:b] - start, w))
        count = np.concatenate([[0], np.cumsum(hit)])
        degree[a:b] = count[start + w] - count[start]
        offsets.append(np.flatnonzero(hit) - np.repeat(start, degree[a:b]))
        a = b
    return np.concatenate(offsets) if offsets else np.zeros(0, np.int64), degree


def _hall_many(rows: np.ndarray, cases: np.ndarray) -> list[bool]:
    """The Hall oracle for many cases over one array of box rows.

    Case c asks whether rows cases[c, 0]:cases[c, 1] inject into rows
    cases[c, 2]:cases[c, 3] along dominance.  A case fails Hall's condition
    outright when it has more sources than targets or its first source lies
    below no target; the others get their dominance graphs built together
    and run the augmenting-path search.
    """
    s_lo, s_hi, t_lo, t_hi = cases.T
    s_len, t_len = s_hi - s_lo, t_hi - t_lo
    dominated = _dominance_test(rows)
    todo = np.flatnonzero((s_len > 0) & (s_len <= t_len))
    todo = todo[_edges(dominated, s_lo[todo], t_lo[todo], t_len[todo])[1] > 0]
    sizes = s_len[todo]
    first = np.cumsum(sizes) - sizes
    case = np.repeat(np.arange(len(todo)), sizes)
    source = np.repeat(s_lo[todo] - first, sizes) + np.arange(len(case))
    adjacency, degree = _edges(dominated, source, t_lo[todo][case], t_len[todo][case])
    adjacency = adjacency.tolist()
    bounds = [0, *np.cumsum(degree).tolist()]
    out = (s_len == 0).tolist()
    for c, lo, size, targets in zip(todo.tolist(), first.tolist(), sizes.tolist(),
                                    t_len[todo].tolist()):
        out[c] = _augmenting_matching_exists(adjacency, bounds[lo:lo + size + 1], targets)
    return out


def hall_matching_exists(caps: tuple[int, ...] | list[int], ell: int) -> bool:
    """Independent oracle: does M^l inject into M^{sigma-l} along dominance?

    Augmenting-path bipartite matching on the dominance graph of the two
    boxes; vacuously true on an empty source box.  Boxes above
    HALL_BOX_LIMIT elements are refused.
    """
    caps = tuple(caps)
    sigma = _check_caps(caps)
    if not 0 <= ell <= sigma:
        return True
    size = _bounded_box_size(caps, ell, HALL_BOX_LIMIT)
    degrees = np.array([ell, sigma - ell])
    rows = _enumerate(np.array([caps, caps], np.int64), degrees, degrees)[0]
    return _hall_many(rows, np.array([[0, size, size, len(rows)]]))[0]


def _sweep_chunks(caps_vectors: Iterable[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
    # Consecutive caps vectors of one length, about _SWEEP_CHUNK_ROWS box rows at a time.
    chunk: list[tuple[int, ...]] = []
    rows = 0
    for caps in caps_vectors:
        caps = tuple(caps)
        if not caps:
            raise ValueError("caps must be non-empty")
        _check_caps(caps)
        size = math.prod(a + 1 for a in caps)
        if size > _SWEEP_CHUNK_ROWS:
            raise ValueError(f"the full box of caps {caps} has {size} elements, "
                             f"above the sweep's limit {_SWEEP_CHUNK_ROWS}")
        if chunk and (len(caps) != len(chunk[0]) or rows + size > _SWEEP_CHUNK_ROWS):
            yield chunk
            chunk, rows = [], 0
        chunk.append(caps)
        rows += size
    if chunk:
        yield chunk


def _shape(caps: tuple[int, ...]) -> tuple[int, ...]:
    # The sorted positive caps: all the Hall oracle depends on (see matching_sweep).
    return tuple(sorted(a for a in caps if a)) or (0,)


def _shape_oracle(shapes: list[tuple[int, ...]]) -> list[list[bool]]:
    """The Hall oracle's answers at every l <= sigma for shapes of one length, from one
    enumeration: box first[q] + l is degree l of shape q; case first[q] + l maps it
    into degree sigma_q - l.  A box above HALL_BOX_LIMIT elements is refused first,
    naming its shape."""
    caps = np.array(shapes, np.int64)
    sigma = caps.sum(axis=1)
    owner = np.repeat(np.arange(len(shapes)), sigma + 1)
    first = np.cumsum(sigma + 1) - (sigma + 1)
    degree = np.arange(len(owner)) - first[owner]
    # ``_enumerate`` keeps each caps row's rows contiguous and in row order, so box ids ascend.
    rows, box = _enumerate(caps[owner], degree, degree)
    bounds = np.searchsorted(box, np.arange(len(owner) + 1))
    sizes = np.diff(bounds)
    if sizes.max() > HALL_BOX_LIMIT:
        b = sizes.argmax()
        raise ValueError(f"shape {shapes[owner[b]]}: the degree-{degree[b]} box has "
                         f"{sizes[b]} elements, above the limit {HALL_BOX_LIMIT}")
    target = first[owner] + sigma[owner] - degree
    oracle = _hall_many(rows, np.stack(
        [bounds[:-1], bounds[1:], bounds[target], bounds[target + 1]], axis=1))
    return [oracle[f:f + s + 1] for f, s in zip(first.tolist(), sigma.tolist())]


def matching_sweep(
    caps_vectors: Iterable[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], list[str | None], list[bool]]]:
    """For each caps vector, the failures of the dominance matching at every
    degree l <= sigma/2 (None where it passes) and the Hall oracle's answers
    at every l <= sigma.

    The same map and oracle as ``dominance_matching`` and
    ``hall_matching_exists``, run on a batch of caps vectors of one length
    at once.  The map's rows are the matched half, each caps vector's
    degrees l <= sigma/2, in enumeration order: the rows of one caps vector
    contiguous and lexicographic, so a case's rows are those of its caps
    vector and degree, in order.  The map and an array check of it
    (``_violations``) run on all rows together, and a caps vector with no
    flagged row passes at every degree with no further work.  The box rows,
    their caps rows and the images are column-major, one contiguous array
    per coordinate as ``_enumerate`` gives them, since per-row sums and
    tests over C-ordered rows of a few narrow columns cost several to tens
    of times more.  Only a case the array check flags goes to
    ``verify_matching``, which words its failure; the two checks share no
    code, so a flagged case that ``verify_matching`` accepts fails too, with
    a detail saying so.  The oracle takes one box per (shape, degree) from
    one enumeration, so each case's two boxes are row ranges known before
    any pair is compared.  It is solved once per shape, the sorted positive
    caps: permuting coordinates and dropping a zero cap map a box onto the
    shape's box, degree by degree, and keep dominance both ways, so a
    dominance matching exists for the caps exactly when it does for the
    shape.  The answers live for one call.  Meant for many small boxes: a
    full box above _SWEEP_CHUNK_ROWS elements is refused.
    """
    answers: dict[tuple[int, ...], list[bool]] = {}
    for chunk in _sweep_chunks(caps_vectors):
        caps = np.array(chunk, np.int64)
        sigma = caps.sum(axis=1)
        dtype = _row_dtype(int(sigma.max()) + 1)
        v, owner = _enumerate(caps, 0, sigma // 2)
        v = v.astype(dtype, copy=False)
        degree = v.sum(axis=1)
        row_caps = np.ascontiguousarray(caps.T, dtype).take(owner, axis=1).T
        w = _split_shift_images(v, row_caps)
        sizes = np.prod(caps + 1, axis=1)
        slot = (np.cumsum(sizes) - sizes)[owner]
        fails = _violations(v, w, row_caps, sigma[owner] - degree, slot)
        failures: list[list[str | None]] = [[None] * (s // 2 + 1) for s in sigma.tolist()]
        for q, ell in sorted(set(zip(owner[fails].tolist(), degree[fails].tolist()))):
            rows = (owner == q) & (degree == ell)
            failures[q][ell] = verify_matching(
                chunk[q], ell, dict(zip(_as_tuples(v[rows]), _as_tuples(w[rows])))
            ) or "the sweep's array check flags a map that verify_matching accepts"
        shapes = [_shape(c) for c in chunk]
        unsolved = sorted(set(shapes).difference(answers), key=lambda s: (len(s), s))
        for _, group in itertools.groupby(unsolved, len):
            group = list(group)
            answers.update(zip(group, _shape_oracle(group)))
        for caps_q, failures_q, shape in zip(chunk, failures, shapes):
            yield caps_q, failures_q, list(answers[shape])


def iter_caps_vectors(n_max: int, sigma_max: int) -> Iterator[tuple[int, ...]]:
    """All caps vectors with 1 <= n <= n_max and sum(caps) <= sigma_max,
    by length, then in lexicographic order; none when sigma_max < 0.

    Stars and bars: a vector is the steps of its running totals, a
    non-decreasing sequence in [0, sigma_max], in the same order.  The next
    sequence raises its last entry below sigma_max by one and copies it
    rightward; after sigma_max everywhere it raises the first, ending the walk.
    """
    for n in range(1, n_max + 1):
        ends = [0] * n
        while ends[-1] <= sigma_max:
            yield tuple(map(sub, ends, (0, *ends)))
            i = max(n - 1 - ends.count(sigma_max), 0)
            ends[i:] = [ends[i] + 1] * (n - i)
