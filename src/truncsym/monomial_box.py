"""Capped multi-index boxes, the dominance order, and injective matchings.

A box M^l(a_1..a_n) is the set of integer vectors v with 0 <= v_i <= a_i
and sum(v) = l.  For l <= sigma/2 (sigma = sum of caps) there is an
injective map phi from M^l into M^{sigma-l} with v <= phi(v) componentwise;
``dominance_matching`` builds it by the split-and-shift construction, and
``hall_matching_exists`` is an independent bipartite-matching oracle for
the same statement.  Boxes are enumerated as numpy rows; the map is one
fold over the columns of all source elements at once, and
``matching_sweep`` checks many caps vectors per batch.  Nothing here
recurses or caches without bound.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
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
    if min(caps, default=0) < 0:
        raise ValueError("caps must be non-negative")
    sigma = sum(caps)
    if sigma > CAPS_TOTAL_LIMIT:
        raise ValueError(f"cap total {sigma} exceeds the int64 range")
    return sigma


def _enumerate(caps: np.ndarray, degree: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Box rows of every caps vector (a row of ``caps``), prefix-major.

    Returns the rows and, for each, the index of its caps vector; the rows of
    one caps vector are contiguous and in lexicographic order.  With a degree
    only the rows of that degree are built, else the full products of chains.
    Each coordinate extends every prefix by its feasible values; the rows are
    read back along the parent links at the end.
    """
    m, n = caps.shape
    caps = caps.astype(np.int64)
    # tails[:, k]: the caps total of coordinates k.. of each caps vector.
    tails = np.zeros((m, n + 1), np.int64)
    tails[:, :n] = np.cumsum(caps[:, ::-1], axis=1)[:, ::-1]
    owner = np.arange(m)
    left = np.full(m, 0 if degree is None else degree, np.int64)
    links = []
    for k in range(n):
        cap = caps[owner, k]
        if degree is None:
            lo = np.zeros_like(cap)
            hi = cap
        else:
            lo = np.maximum(left - tails[owner, k + 1], 0)
            hi = np.minimum(left, cap)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(owner)), counts)
        first = np.cumsum(counts) - counts
        values = lo[parent] + np.arange(len(parent)) - first[parent]
        links.append((parent, values))
        owner = owner[parent]
        left = left[parent] - values
    keep = np.arange(len(owner)) if degree is None else np.flatnonzero(left == 0)
    rows = np.empty((len(keep), n), _row_dtype(int(caps.max(initial=0))))
    at = keep
    for k in range(n - 1, -1, -1):
        parent, values = links[k]
        rows[:, k] = values[at]
        at = parent[at]
    return rows, owner[keep]


def _box_rows(caps: tuple[int, ...], degree: int) -> np.ndarray:
    if degree < 0 or degree > sum(caps):
        return np.zeros((0, len(caps)), _row_dtype(max(caps, default=0)))
    return _enumerate(np.array([caps], np.int64), degree)[0]


def _as_tuples(rows: np.ndarray) -> list[MultiIndex]:
    return list(map(tuple, rows.tolist()))


def enumerate_box(caps: tuple[int, ...] | list[int], degree: int) -> list[MultiIndex]:
    """All elements of the box in lexicographic order; empty when out of range."""
    caps = tuple(caps)
    _check_caps(caps)
    return _as_tuples(_box_rows(caps, degree))


@lru_cache(maxsize=256)
def _grade_basis(n: int, p: int, ell: int) -> tuple[MultiIndex, ...]:
    return tuple(enumerate_box((p - 1,) * n, ell))


def grade_basis(n: int, p: int, ell: int) -> list[MultiIndex]:
    """Monomial basis of grade ell in n variables with exponents capped at p-1.

    The one basis shared by the truncated power, the truncated algebra and
    its operators, and the layers of the connection filtration.  The most
    recent grades are cached, so their repeated lookups do not re-enumerate.
    """
    return list(_grade_basis(n, p, ell))


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
    if degree < 0:
        return 0
    if not n:
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
    source = _box_rows(caps, ell).astype(dtype)
    images = _split_shift_images(source, np.tile(np.array(caps, dtype), (len(source), 1)))
    return dict(zip(_as_tuples(source), _as_tuples(images)))


def _earlier_equal(keys: list[np.ndarray]) -> np.ndarray:
    """For each row, the first earlier row with the same keys, or -1."""
    count = len(keys[0])
    if not count:
        return np.zeros(0, np.int64)
    lows = [int(key.min()) for key in keys]
    spans = [int(key.max()) - low + 1 for key, low in zip(keys, lows)]
    if math.prod(spans) <= 1 << 62:
        # One int64 per row, the keys as mixed-radix digits, the first most
        # significant: a stable sort of it is the lexsort below.
        packed = np.zeros(count, np.int64)
        for key, low, span in zip(keys, lows, spans):
            packed *= span
            packed += key
            packed -= low
        order = np.argsort(packed, kind="stable")
        ordered = packed[order]
        same = ordered[1:] == ordered[:-1]
    else:
        order = np.lexsort([np.arange(count), *reversed(keys)])
        same = np.ones(count - 1, bool)
        for key in keys:
            ordered = key[order]
            same &= ordered[1:] == ordered[:-1]
    starts = np.concatenate([[True], ~same])
    leader = order[starts][np.cumsum(starts) - 1]
    first = np.empty(count, np.int64)
    first[order] = leader
    first[first == np.arange(count)] = -1
    return first


def _violations(v: np.ndarray, w: np.ndarray, caps: np.ndarray, target_degree: np.ndarray,
                case: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: image outside the target box, dominance failing, and the
    first earlier row of the same case with the same image (or -1)."""
    outside = (w.sum(axis=1) != target_degree) | ((w < 0) | (w > caps)).any(axis=1)
    undominated = (v > w).any(axis=1)
    repeat = _earlier_equal([case, *w.T])
    return outside, undominated, repeat


def _verdict(source: list[MultiIndex], images: list, outside, undominated,
             repeat) -> str | None:
    """The first violation in source order, from the flags of ``_violations``,
    worded as "<reason> at <witness>"; None when there is none."""
    bad = outside | undominated | (repeat >= 0)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    v, w = source[k], images[k]
    if outside[k]:
        return f"image outside target box at {(v, w)}"
    if undominated[k]:
        return f"dominance fails at {(v, w)}"
    return f"not injective at {(source[repeat[k]], v, w)}"


def verify_matching(caps: tuple[int, ...] | list[int], ell: int,
                    assignment: dict[MultiIndex, MultiIndex]) -> str | None:
    """Check that ``assignment`` maps M^l into M^{sigma-l} totally,
    injectively and along dominance.

    Returns None when it does, else the first violation found, scanning the
    source box in lexicographic order: a missing image first, then per
    element an image outside the target, dominance, and an image met before.
    The violation is worded as its reason and witness, e.g.
    "not injective at ((0, 1), (1, 0), (2, 1))".
    """
    caps = tuple(caps)
    source = enumerate_box(caps, ell)
    images = [assignment.get(v) for v in source]
    for v, w in zip(source, images):
        if w is None:
            return f"not total at {(v,)}"
    n, sigma = len(caps), sum(caps)
    # Rows of the wrong length or beyond the caps total lie outside the
    # target; -1 marks them as such and keeps the array exact.
    rows = [w if len(w) == n and all(0 <= x <= sigma for x in w) else (-1,) * n
            for w in images]
    dtype = _row_dtype(sigma)
    w = np.array(rows, dtype).reshape(len(rows), n)
    v = np.array(source, dtype).reshape(len(source), n)
    zeros = np.zeros(len(source), np.int64)
    flags = _violations(v, w, np.array(caps, dtype), sigma - ell, zeros)
    return _verdict(source, images, *flags)


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
    componentwise, pair by pair."""
    n = rows.shape[1]
    width = int(rows.max(initial=0)).bit_length() + 1
    if n * width > 62:
        return lambda src, tgt: (rows[src] <= rows[tgt]).all(axis=1)
    # One int64 per row, each coordinate in a field with a guard bit on top:
    # subtracting v from w with the guard bits set borrows a field's guard bit
    # exactly when v_k > w_k, and never reaches the next field.
    shifts = np.arange(n, dtype=np.int64) * width
    packed = (rows.astype(np.int64) << shifts).sum(axis=1)
    guard = int(sum(1 << (int(s) + width - 1) for s in shifts))
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
    rows = np.concatenate([_box_rows(caps, ell), _box_rows(caps, sigma - ell)])
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


def _graded_rows(caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The full box of every shape (a row of ``caps``) for the Hall oracle,
    which needs the target degrees above sigma/2 as well.

    Returns the rows ordered by (shape q, degree l), lexicographic within
    each, and their keys q * stride + l with stride = max sigma + 1.
    """
    stride = int(caps.sum(axis=1).max()) + 1
    rows, owner = _enumerate(caps)
    rows = rows.astype(_row_dtype(stride))
    key = owner * stride + rows.sum(axis=1)
    order = np.argsort(key, kind="stable")
    return rows[order], key[order], stride


def _shape(caps: tuple[int, ...]) -> tuple[int, ...]:
    # The sorted positive caps: all the Hall oracle depends on (see matching_sweep).
    return tuple(sorted(a for a in caps if a)) or (0,)


def _shape_oracle(shapes: list[tuple[int, ...]]) -> list[list[bool]]:
    """The Hall oracle's answers at every l <= sigma for shapes of one length."""
    caps = np.array(shapes, np.int64)
    sigma = caps.sum(axis=1)
    rows, key, stride = _graded_rows(caps)
    bounds = np.searchsorted(key, np.arange(len(shapes) * stride + 1))
    # Hall case q * stride + l: degree l into degree sigma_q - l of shape q
    # (an empty source when l > sigma_q).
    owners, degrees = np.divmod(np.arange(len(shapes) * stride), stride)
    mirror = owners * stride + np.maximum(sigma[owners] - degrees, 0)
    oracle = _hall_many(rows, np.stack(
        [bounds[:-1], bounds[1:], bounds[mirror], bounds[mirror + 1]], axis=1))
    return [oracle[q * stride:q * stride + s + 1] for q, s in enumerate(sigma.tolist())]


def matching_sweep(
    caps_vectors: Iterable[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], list[str | None], list[bool]]]:
    """For each caps vector, the failures of the dominance matching at every
    degree l <= sigma/2 (``verify_matching``'s message, or None where it
    passes) and the Hall oracle's answers at every l <= sigma.

    The same map, checks and oracle as ``dominance_matching``,
    ``verify_matching`` and ``hall_matching_exists``, run on a batch of caps
    vectors of one length at once.  Only the matched half is enumerated,
    degree-major: for each l the boxes of degree l of every caps vector with
    2l <= sigma, so case l * count + q (caps vector q of the batch's count)
    rises along the rows and each case's rows stay in lexicographic order.
    The map and its checks run on all rows together.
    The oracle is solved once per shape, the sorted positive caps: permuting
    coordinates and dropping a zero cap map a box onto the shape's box,
    degree by degree, and keep dominance both ways, so a dominance matching
    exists for the caps exactly when it does for the shape.  The answers
    live for one call.  Meant for many small boxes: a full box above
    _SWEEP_CHUNK_ROWS elements is refused.
    """
    answers: dict[tuple[int, ...], list[bool]] = {}
    for chunk in _sweep_chunks(caps_vectors):
        caps = np.array(chunk, np.int64)
        sigma = caps.sum(axis=1)
        top, count = int(sigma.max()), len(chunk)
        parts, cases = [], []
        for ell in range(top // 2 + 1):
            owners = np.flatnonzero(2 * ell <= sigma)
            rows, owner = _enumerate(caps[owners], ell)
            parts.append(rows)
            cases.append(ell * count + owners[owner])
        dtype = _row_dtype(top + 1)
        v = np.concatenate(parts).astype(dtype, copy=False)
        case = np.concatenate(cases)
        degree, owner = np.divmod(case, count)
        row_caps = caps.astype(dtype)[owner]
        w = _split_shift_images(v, row_caps)
        outside, undominated, repeat = _violations(v, w, row_caps, sigma[owner] - degree, case)
        failing = set(case[outside | undominated | (repeat >= 0)].tolist())
        shapes = [_shape(c) for c in chunk]
        unsolved = sorted(set(shapes).difference(answers), key=lambda s: (len(s), s))
        for _, group in itertools.groupby(unsolved, len):
            group = list(group)
            answers.update(zip(group, _shape_oracle(group)))
        starts = np.searchsorted(case, np.arange((top // 2 + 1) * count + 1)).tolist()
        for q, caps_q in enumerate(chunk):
            failures = []
            for ell in range(int(sigma[q]) // 2 + 1):
                c = ell * count + q
                if c not in failing:
                    failures.append(None)
                    continue
                lo, hi = starts[c], starts[c + 1]
                earlier = repeat[lo:hi]
                failures.append(_verdict(
                    _as_tuples(v[lo:hi]), _as_tuples(w[lo:hi]), outside[lo:hi],
                    undominated[lo:hi], np.where(earlier >= 0, earlier - lo, -1)))
            yield caps_q, failures, list(answers[shapes[q]])


def iter_caps_vectors(n_max: int, sigma_max: int) -> Iterator[tuple[int, ...]]:
    """All caps vectors with 1 <= n <= n_max and sum(caps) <= sigma_max,
    by length, then in lexicographic order."""
    for n in range(1, n_max + 1):
        caps = [0] * n
        total = 0
        while True:
            yield tuple(caps)
            if total < sigma_max:
                caps[-1] += 1
                total += 1
                continue
            # The total is spent: zero the last positive entry and carry.
            k = max((i for i in range(n) if caps[i]), default=0)
            if k == 0:
                break
            total -= caps[k] - 1
            caps[k] = 0
            caps[k - 1] += 1
