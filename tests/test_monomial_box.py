import itertools
import math
import random
import re
import time
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import truncsym.monomial_box as boxes
from truncsym.monomial_box import (
    HALL_BOX_LIMIT,
    MATCHING_BOX_LIMIT,
    box_size,
    dominance_matching,
    enumerate_box,
    grade_basis,
    hall_matching_exists,
    iter_caps_vectors,
    matching_sweep,
    verify_matching,
)
from truncsym.suites import _matching_cases


def _split_last(w, cap):
    # Inverse of the merge (v_1,..,v_{n-2}, v_{n-1}+v_n).
    if w[-1] <= cap:
        return w[:-1] + (w[-1], 0)
    return w[:-1] + (cap, w[-1] - cap)


@cache
def reference_pairs(caps, ell):
    """The paper's recursion, memoized: sorted (v, phi(v)) pairs.

    Zero caps are stripped and restored; with n >= 2 positive caps the set
    {v_{n-1} = a_{n-1} or v_n = 0} goes through the box with the last two
    caps merged, and its complement through the box with both lowered by
    one (and the degree by one), shifted back by e_n.
    """
    if ell < 0:
        return ()
    positive = [i for i, a in enumerate(caps) if a > 0]
    if len(positive) < len(caps):
        pairs = []
        for v, w in reference_pairs(tuple(caps[i] for i in positive), ell):
            fv, fw = [0] * len(caps), [0] * len(caps)
            for slot, i in enumerate(positive):
                fv[i], fw[i] = v[slot], w[slot]
            pairs.append((tuple(fv), tuple(fw)))
        return tuple(sorted(pairs))
    if not caps:
        return (((), ()),) if ell == 0 else ()
    if len(caps) == 1:
        return (((ell,), (caps[0] - ell,)),) if ell <= caps[0] else ()
    merged = caps[:-2] + (caps[-2] + caps[-1],)
    out = [(_split_last(v, caps[-2]), _split_last(w, caps[-2]))
           for v, w in reference_pairs(merged, ell)]
    reduced = caps[:-2] + (caps[-2] - 1, caps[-1] - 1)
    out += [(v[:-1] + (v[-1] + 1,), w[:-1] + (w[-1] + 1,))
            for v, w in reference_pairs(reduced, ell - 1)]
    return tuple(sorted(out))


def test_enumerate_examples():
    assert enumerate_box((1, 1), 1) == [(0, 1), (1, 0)]
    assert enumerate_box((2, 2), 3) == [(1, 2), (2, 1)]
    assert enumerate_box((1, 1, 1), 3) == [(1, 1, 1)]
    assert enumerate_box((2, 2), 9) == []
    assert enumerate_box((2, 2), -1) == []


def test_enumerate_rejects_negative_caps():
    with pytest.raises(ValueError):
        enumerate_box((-1, 2), 1)


def test_enumerate_gives_each_row_its_own_box_in_row_order():
    # The sweep's Hall oracle reads each (shape, degree) box as a row range
    # of one call with lo = hi = the degree.
    for _, group in itertools.groupby(iter_caps_vectors(4, 6), len):
        group = list(group)
        wanted = [(caps, ell) for caps in group for ell in range(-1, sum(caps) + 2)]
        wanted[1:1] = [(group[-1], sum(group[-1]) // 2)] * 2
        caps = np.array([c for c, _ in wanted], np.int64)
        degree = np.array([ell for _, ell in wanted])
        rows, box = boxes._enumerate(caps, degree, degree)
        assert (np.diff(box) >= 0).all()
        bounds = np.searchsorted(box, np.arange(len(wanted) + 1))
        assert bounds[-1] == len(rows)
        for b, (c, ell) in enumerate(wanted):
            assert boxes._as_tuples(rows[bounds[b]:bounds[b + 1]]) == enumerate_box(c, ell), (c, ell)


def test_enumerate_rows_are_column_major():
    # The sweep's per-row sums and tests run over one contiguous array per
    # coordinate; C-ordered rows would give the same answers, only slower.
    caps = [(2, 3, 1), (1, 1, 4)]
    rows, _ = boxes._enumerate(np.array(caps, np.int64), 0, 3)
    assert rows.shape == (sum(box_size(c, ell) for c in caps for ell in range(4)), 3)
    assert rows.T.flags.c_contiguous


def test_lexicographic_order():
    for caps in [(2, 3), (1, 2, 1), (3, 0, 2)]:
        for ell in range(sum(caps) + 1):
            elems = enumerate_box(caps, ell)
            assert elems == sorted(elems)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple),
    st.integers(-1, 17),
)
def test_box_size_matches_enumeration(caps, ell):
    assert box_size(caps, ell) == len(enumerate_box(caps, ell))


def test_complement_bijection():
    for caps in [(2, 2), (1, 3, 2), (4, 4, 4)]:
        sigma = sum(caps)
        for ell in range(sigma + 1):
            assert len(enumerate_box(caps, ell)) == len(enumerate_box(caps, sigma - ell))


def test_matching_single_variable_base_case():
    for a in range(5):
        for ell in range(a // 2 + 1):
            assert dominance_matching((a,), ell) == {(ell,): (a - ell,)}


def test_matching_unit_caps_fixes_points():
    assert dominance_matching((1, 1), 1) == {(1, 0): (1, 0), (0, 1): (0, 1)}


def test_matching_traced_values_caps22():
    # One branch rides the merged-coordinate identification, the other the
    # shift into lowered caps; both land on the traced images.
    assert dominance_matching((2, 2), 1) == {(1, 0): (2, 1), (0, 1): (1, 2)}


def test_matching_rejects_degree_above_half():
    with pytest.raises(ValueError):
        dominance_matching((2, 2), 3)


def test_matching_zero_caps_positions():
    m = dominance_matching((0, 3, 0), 1)
    assert m == {(0, 1, 0): (0, 2, 0)}
    assert verify_matching((0, 3, 0), 1, m) is None


def test_matching_all_zero_caps():
    assert dominance_matching((0, 0), 0) == {(0, 0): (0, 0)}


def test_verify_matching_detects_violations():
    # M^1 of caps (1, 1) maps into M^1; M^1 of caps (2, 2) into M^3.
    assert verify_matching((1, 1), 1, {(0, 1): (0, 1), (1, 0): (1, 0)}) is None

    assert verify_matching((2, 2), 1, {(0, 1): (2, 1), (1, 0): (2, 1)}) == \
        "not injective at ((0, 1), (1, 0), (2, 1))"
    assert verify_matching((2, 2), 1, {(0, 1): (1, 2), (1, 0): (0, 3)}) == \
        "image outside target box at ((1, 0), (0, 3))"
    assert verify_matching((2, 2), 1, {(0, 1): (1, 2)}) == "not total at ((1, 0),)"
    # Over no caps the one source () has only () for an image.
    assert verify_matching((), 0, {(): (1,)}) == "image outside target box at ((), (1,))"
    assert verify_matching((1, 1), 1, {(0, 1): (1, 0), (1, 0): (0, 1)}) == \
        "dominance fails at ((0, 1), (1, 0))"

    # The first violation in source order wins, whatever its kind; images of
    # the wrong length or beyond the caps lie outside the target M^4.
    caps = (2, 2, 2)
    mixed = {
        (0, 0, 2): (0, 2, 2), (0, 1, 1): (0, 2, 2), (0, 2, 0): (0, 2, 1),
        (1, 0, 1): (1, 1, 2), (1, 1, 0): (1, 2), (2, 0, 0): (2, 1, 1)}
    assert verify_matching(caps, 2, mixed) == \
        "not injective at ((0, 0, 2), (0, 1, 1), (0, 2, 2))"
    del mixed[(0, 1, 1)]
    assert verify_matching(caps, 2, mixed) == "not total at ((0, 1, 1),)"
    mixed[(0, 1, 1)] = (0, 1, 3)
    assert verify_matching(caps, 2, mixed) == \
        "image outside target box at ((0, 1, 1), (0, 1, 3))"
    mixed[(0, 1, 1)] = (1, 1, 2)
    assert verify_matching(caps, 2, mixed) == \
        "image outside target box at ((0, 2, 0), (0, 2, 1))"
    mixed[(0, 2, 0)] = (2, 2, 0)
    assert verify_matching(caps, 2, mixed) == \
        "not injective at ((0, 1, 1), (1, 0, 1), (1, 1, 2))"
    mixed[(1, 0, 1)] = (2, 0, 2)
    assert verify_matching(caps, 2, mixed) == "image outside target box at ((1, 1, 0), (1, 2))"
    mixed[(1, 1, 0)] = (10 ** 30, 1, 1)
    assert verify_matching(caps, 2, mixed) == \
        f"image outside target box at ((1, 1, 0), ({10 ** 30}, 1, 1))"
    mixed[(1, 1, 0)] = (1, 2, 1)
    assert verify_matching(caps, 2, mixed) is None
    # Dominance is checked before a repeated image.
    mixed[(2, 0, 0)] = (1, 2, 1)
    assert verify_matching(caps, 2, mixed) == "dominance fails at ((2, 0, 0), (1, 2, 1))"


def test_verify_matching_refuses_a_source_box_above_the_limit():
    # The checker lists its source box; above the limit of the constructor
    # it checks, it refuses from the box size before listing an element.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(
            f"the degree-8 box has at least 11440 elements, above the limit {MATCHING_BOX_LIMIT}")):
        verify_matching((1,) * 16, 8, {})
    with pytest.raises(ValueError, match=re.escape(
            f"the degree-90 box has 15753487 elements, above the limit {MATCHING_BOX_LIMIT}")):
        verify_matching((30,) * 6, 90, {})
    with pytest.raises(ValueError, match="above the limit"):
        verify_matching((100,) * 10, 500, {})
    assert time.perf_counter() - t0 < 1.0
    # Below the limit it still checks: C(14, 7) = 3,432 sources.
    assert verify_matching((1,) * 14, 7, {}) == f"not total at {((0,) * 7 + (1,) * 7,)}"
    assert verify_matching((1,) * 14, 7, dominance_matching((1,) * 14, 7)) is None
    # A negative cap is named first, even when the total is out of range too.
    with pytest.raises(ValueError, match="non-negative"):
        verify_matching((-1, 2 ** 64), 1, {})


def _reference_violations(v, w, caps, target_degree, slot):
    """_violations row by row in plain Python: an image outside its caps
    row's box or off its target degree, one below its source, or an in-box
    image met twice within a slot."""
    v, w, caps = v.tolist(), w.tolist(), caps.tolist()
    outside = [sum(image) != target or not all(0 <= x <= c for x, c in zip(image, row_caps))
               for image, row_caps, target in zip(w, caps, target_degree.tolist())]
    keys = [(s, tuple(image)) for s, image in zip(slot.tolist(), w)]
    inside = Counter(key for key, out in zip(keys, outside) if not out)
    return [out or inside[key] > 1 or any(x > y for x, y in zip(source, image))
            for out, key, source, image in zip(outside, keys, v, w)]


def test_violations_match_a_per_row_reference():
    # Every matched case of iter_caps_vectors(3, 6), one call per length as
    # in a sweep chunk, with images drawn to hit every check: entries around
    # the caps, int8 extremes, wrong degrees, images below their sources,
    # repeats within a case and across the degrees of a caps vector, and
    # images with a negative entry whose mixed-radix index is that of an
    # image at another degree (one borrow between neighbouring coordinates).
    rng = random.Random(30)
    reasons = Counter()
    for n, group in itertools.groupby(iter_caps_vectors(3, 6), len):
        rows = []  # (source, image, caps, target degree, slot)
        slot = 0
        for caps in group:
            sigma = sum(caps)
            images_of_caps = []
            for ell in range(sigma // 2 + 1):
                targets = enumerate_box(caps, sigma - ell)
                case = []
                for v, honest in dominance_matching(caps, ell).items():
                    kind = rng.randrange(9)
                    borrows = [h[:k - 1] + (h[k - 1] + 1, h[k] - caps[k] - 1) + h[k + 1:]
                               for h in images_of_caps for k in range(1, n)
                               if sum(h) - caps[k] == sigma - ell and h[k - 1] < caps[k - 1]]
                    if kind == 1:
                        w = tuple(rng.randint(-2, a + 2) for a in caps)
                    elif kind == 2:
                        w = tuple(rng.choice((127, -128, x)) for x in honest)
                    elif kind == 3:
                        k = rng.randrange(n)
                        w = honest[:k] + (honest[k] + rng.choice((-1, 1)),) + honest[k + 1:]
                    elif kind == 4:
                        w = rng.choice(targets)
                    elif kind == 5 and case:
                        w = rng.choice(case)
                    elif kind == 6 and images_of_caps:
                        w = rng.choice(images_of_caps)
                    elif kind == 7 and borrows:
                        w = rng.choice(borrows)
                    else:
                        w = honest
                    case.append(w)
                    rows.append((v, w, caps, sigma - ell, slot))
                images_of_caps += case
            slot += math.prod(a + 1 for a in caps)
        v, w, caps, target, slots = zip(*rows)
        v, w, caps = (np.array(x, np.int8) for x in (v, w, caps))
        target, slots = np.array(target, np.int64), np.array(slots, np.int64)
        expected = _reference_violations(v, w, caps, target, slots)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            got = boxes._violations(layout(v), layout(w), layout(caps), target, slots)
            assert got.tolist() == expected, (n, layout)
        # Tally why rows fail, so that every check is seen to matter.
        for source, image, row_caps, t, flagged in zip(v.tolist(), w.tolist(), caps.tolist(),
                                                        target.tolist(), expected):
            if not flagged:
                reasons["passes"] += 1
            elif any(x < 0 or x > c for x, c in zip(image, row_caps)):
                reasons["box"] += 1
            elif sum(image) != t:
                reasons["degree"] += 1
            elif any(x > y for x, y in zip(source, image)):
                reasons["dominance"] += 1
            else:
                reasons["repeat"] += 1
    assert min(reasons.values()) > 20 and len(reasons) == 5, reasons


def _packing_case(shape):
    # Rows of n coordinates below 2^bits, values at the ends of the range often.
    n, bits = shape
    top = (1 << bits) - 1
    value = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    return st.tuples(st.just(shape), st.lists(st.lists(value, min_size=n, max_size=n),
                                              min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    # (n, bits): fields of bits + 1, so n * (bits + 1) = 63 is the widest
    # packed layout (its top guard is bit 62) and 64 the narrowest unpacked one.
    st.sampled_from([(31, 1), (2, 30), (62, 0), (21, 2), (9, 6), (3, 20), (63, 0),
                     (32, 1), (2, 31), (16, 3), (8, 7), (4, 15), (64, 0)]),
    st.tuples(st.integers(1, 8), st.integers(0, 9))).flatmap(_packing_case), st.booleans())
@example(((31, 1), [[1] * 31, [0, 1] * 15 + [0]]), True)
@example(((21, 2), [[3] * 21, [k % 4 for k in range(21)]]), False)
@example(((9, 6), [[63] * 9, [63, 0] * 4 + [63]]), True)
@example(((32, 1), [[1] * 32, [0, 1] * 16]), False)
def test_dominance_test_matches_rowwise_comparison(case, column_major):
    (n, bits), base = case
    top = (1 << bits) - 1
    base[0][0] = top  # the widest value fixes the field width
    # Joins dominate both rows they come from, so both answers occur.
    joins = [[max(x, y) for x, y in zip(a, b)] for a, b in zip(base, base[1:])]
    rows = np.array(base + joins, boxes._row_dtype(top))
    if column_major:
        rows = np.asfortranarray(rows)
    src, tgt = (x.ravel() for x in np.indices((len(rows), len(rows))))
    assert np.array_equal(boxes._dominance_test(rows)(src, tgt),
                          (rows[src] <= rows[tgt]).all(axis=1))


def test_hall_examples():
    assert hall_matching_exists((1, 1), 1)
    assert not hall_matching_exists((2, 2), 3)
    assert hall_matching_exists((4, 4, 4), 6)
    # Empty source box: vacuous.
    assert hall_matching_exists((2, 2), 7)
    # Rows too wide to pack into one int64 compare coordinate by coordinate.
    assert hall_matching_exists((1,) * 32, 1)
    assert not hall_matching_exists((1,) * 32, 31)
    assert hall_matching_exists((1,) * 6 + (60,), 33)


def test_construction_and_oracle_agree_small_sweep():
    for caps in iter_caps_vectors(3, 9):
        sigma = sum(caps)
        for ell in range(sigma // 2 + 1):
            assert verify_matching(caps, ell, dominance_matching(caps, ell)) is None, (caps, ell)
            assert hall_matching_exists(caps, ell), (caps, ell)
        for ell in range(sigma // 2 + 1, sigma + 1):
            assert not hall_matching_exists(caps, ell), (caps, ell)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).map(tuple), st.data())
def test_construction_verifies_on_random_caps(caps, data):
    ell = data.draw(st.integers(0, sum(caps) // 2))
    m = dominance_matching(caps, ell)
    failure = verify_matching(caps, ell, m)
    assert failure is None, (caps, ell, failure)
    assert set(m) == set(enumerate_box(caps, ell))


def test_capped_specialization_has_matching():
    # Caps (p-1, .., p-1) is the grade pairing situation.
    for n, p in [(2, 3), (3, 2), (2, 5), (3, 3)]:
        caps = (p - 1,) * n
        for ell in range(sum(caps) // 2 + 1):
            m = dominance_matching(caps, ell)
            assert verify_matching(caps, ell, m) is None
            assert len(m) == len(enumerate_box(caps, ell))


def test_iter_caps_vectors_count():
    # Ordered tuples of length <= 2 with sum <= 3: 4 + 10.
    assert sum(1 for _ in iter_caps_vectors(2, 3)) == 14


def test_iter_caps_vectors_negative_total_is_empty():
    # No caps vector has a negative sum; the zero vectors were yielded anyway.
    assert list(iter_caps_vectors(2, -1)) == []
    assert list(iter_caps_vectors(3, 0)) == [(0,), (0, 0), (0, 0, 0)]


def test_array_map_equals_reference_on_sweep():
    # Every matched case of the widest verify sweep, one batch per length.
    by_length = {}
    cases = 0
    for caps in iter_caps_vectors(5, 12):
        for ell in range(sum(caps) // 2 + 1):
            cases += 1
            for v, w in reference_pairs(caps, ell):
                by_length.setdefault(len(caps), []).append((v, caps, w))
    assert cases == 48_888
    for rows in by_length.values():
        v, caps, w = (np.array(col, np.int8) for col in zip(*rows))
        assert np.array_equal(boxes._split_shift_images(v, caps), w)
    reference_pairs.cache_clear()


def test_array_map_equals_reference_on_edge_cases():
    # Long caps vectors at small sigma, then one batch of edge cases: both
    # caps spent by one shift, zero caps between active ones, all caps zero,
    # and a cap of 10^9 alone and among small ones.
    t0 = time.perf_counter()
    long_caps = [c for c in iter_caps_vectors(7, 4) if len(c) >= 6]
    edge_caps = [(2, 2), (2, 0, 3), (1, 0, 0, 2), (0, 3, 0, 0, 1, 0), (0, 0, 0), (0,),
                 (10 ** 9,), (3, 10 ** 9, 2), (2, 0, 10 ** 9)]
    edge_degrees = {(10 ** 9,): [0, 10 ** 8], (3, 10 ** 9, 2): [0, 1, 4],
                    (2, 0, 10 ** 9): [1, 3]}
    batches = [[(caps, ell) for caps in long_caps for ell in range(sum(caps) // 2 + 1)],
               [(caps, ell) for caps in edge_caps
                for ell in edge_degrees.get(caps, range(sum(caps) // 2 + 1))]]
    for batch in batches:
        rows = [(v, caps, w) for caps, ell in batch for v, w in reference_pairs(caps, ell)]
        dtype = boxes._row_dtype(max(sum(caps) for caps, _ in batch))
        by_length = {}
        for row in rows:
            by_length.setdefault(len(row[0]), []).append(row)
        for group in by_length.values():
            v, caps, w = (np.array(col, dtype) for col in zip(*group))
            assert np.array_equal(boxes._split_shift_images(v, caps), w)
    reference_pairs.cache_clear()
    assert reference_pairs((2, 2), 2)[0] == ((0, 2), (0, 2))
    v = np.array([[0, 2]], np.int8)
    assert boxes._split_shift_images(v, np.array([[2, 2]], np.int8)).tolist() == [[0, 2]]
    assert time.perf_counter() - t0 < 2.0


def test_dominance_matching_equals_reference_small_sweep():
    for caps in iter_caps_vectors(3, 8):
        for ell in range(sum(caps) // 2 + 1):
            assert list(dominance_matching(caps, ell).items()) == list(reference_pairs(caps, ell))
    reference_pairs.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=3).map(tuple), st.data())
def test_long_shift_runs_match_reference(caps, data):
    ell = data.draw(st.integers(0, sum(caps) // 2))
    m = dominance_matching(caps, ell)
    assert list(m.items()) == list(reference_pairs(caps, ell))
    assert verify_matching(caps, ell, m) is None
    reference_pairs.cache_clear()


def test_no_recursion_error_on_large_inputs():
    assert len(grade_basis(1200, 2, 1)) == 1200
    assert hall_matching_exists((3000, 3000), 1500)
    assert len(dominance_matching((3000, 3000), 1500)) == 1501


def test_library_refuses_by_box_size_at_once():
    t0 = time.perf_counter()
    assert dominance_matching((10 ** 9,), 10 ** 8) == {(10 ** 8,): (9 * 10 ** 8,)}
    for caps, ell in [((10 ** 9, 10 ** 9), 10 ** 8), ((100,) * 10, 240), ((1,) * 60, 30)]:
        with pytest.raises(ValueError, match="limit"):
            dominance_matching(caps, ell)
        with pytest.raises(ValueError, match="limit"):
            hall_matching_exists(caps, ell)
    # The C(60, 3) weight-3 0/1 vectors already exceed the limit.
    with pytest.raises(ValueError, match="at least 34220 elements"):
        dominance_matching((1,) * 60, 30)
    with pytest.raises(ValueError, match="int64"):
        dominance_matching((2 ** 62, 2 ** 62), 1)
    # Every pair of these boxes is a dominance edge: the oracle takes at most
    # HALL_BOX_LIMIT sources, the construction more.
    with pytest.raises(ValueError, match=f"2049 elements, above the limit {HALL_BOX_LIMIT}"):
        hall_matching_exists((20_000, 20_000), 2048)
    assert len(dominance_matching((20_000, 20_000), 9999)) == 10_000
    assert time.perf_counter() - t0 < 1.0
    assert box_size((100,) * 10, 240) == 8027667243448424 > MATCHING_BOX_LIMIT


def _brute_force_matching_exists(adjacency, targets):
    return any(all(j in nbrs for j, nbrs in zip(pick, adjacency))
               for pick in itertools.permutations(range(targets), len(adjacency)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda t: st.tuples(
    st.just(t), st.lists(st.frozensets(st.integers(0, max(t - 1, 0)), max_size=t),
                         max_size=t))))
def test_augmenting_search_matches_brute_force(graph):
    targets, adjacency = graph
    adjacency = [sorted(nbrs) for nbrs in adjacency]
    flat = [j for nbrs in adjacency for j in nbrs]
    bounds = list(itertools.accumulate((len(nbrs) for nbrs in adjacency), initial=0))
    assert (boxes._augmenting_matching_exists(flat, bounds, targets)
            == _brute_force_matching_exists(adjacency, targets))


def _break_the_map(monkeypatch):
    """Patch the sweep's map to repeat and misplace images; returns the dict
    {(caps, v): image} it fills as the sweep runs."""
    honest = boxes._split_shift_images
    seen = {}

    def broken(v, caps):
        w = honest(v, caps)
        w[1::7] = w[::7][:len(w[1::7])]  # repeats and misplaced images
        w[2::11] = v[2::11]  # images inside the source degree
        seen.update(zip(zip(map(tuple, caps.tolist()), map(tuple, v.tolist())),
                        map(tuple, w.tolist())))
        return w

    monkeypatch.setattr(boxes, "_split_shift_images", broken)
    return seen


def _count_verify_calls(monkeypatch):
    """Patch the sweep's verify_matching to log the (caps, l) of each call."""
    honest = boxes.verify_matching
    calls = []

    def counting(caps, ell, assignment):
        calls.append((caps, ell))
        return honest(caps, ell, assignment)

    monkeypatch.setattr(boxes, "verify_matching", counting)
    return calls


def test_sweep_reports_a_broken_map_like_verify_matching(monkeypatch):
    seen = _break_the_map(monkeypatch)
    messages = {}
    for caps, failures, oracle in matching_sweep(iter_caps_vectors(3, 6)):
        for ell, failure in enumerate(failures):
            m = {v: seen[caps, v] for v in enumerate_box(caps, ell)}
            assert failure == verify_matching(caps, ell, m), (caps, ell)
            if failure is not None:
                messages[f"caps={','.join(map(str, caps))} l={ell}"] = failure
        assert oracle == [hall_matching_exists(caps, ell) for ell in range(sum(caps) + 1)]
    assert len(messages) > 100
    # The suite words each failing case with the same message.
    details = {key: detail for key, ok, detail in _matching_cases(iter_caps_vectors(3, 6))
               if not ok}
    assert details.keys() == messages.keys()
    assert all(details[key].startswith(message) for key, message in messages.items())


def test_sweep_calls_verify_matching_exactly_for_failing_cases(monkeypatch):
    # The oracle refuses the (2,)*9 shape, whose middle box is above
    # HALL_BOX_LIMIT, and is not under test.
    monkeypatch.setattr(boxes, "_shape_oracle",
                        lambda shapes: [[True] * (sum(s) + 1) for s in shapes])
    calls = _count_verify_calls(monkeypatch)
    # One chunk mixes the full box of (2,)*9, 19,683 rows, with small boxes of
    # its length: a key that is not exact across the caps vectors of a chunk
    # flags honest cases, which no verdict shows.
    mixed = [(1,) * 9, (2,) * 9, (0,) * 8 + (5,), (3,) + (0,) * 7 + (3,),
             (1, 2, 0, 0, 0, 0, 0, 2, 1), (0, 1) * 4 + (0,)]
    assert len(list(boxes._sweep_chunks(mixed))) == 1
    for _, failures, _ in matching_sweep([*iter_caps_vectors(4, 10), *mixed]):
        assert failures == [None] * len(failures)
    assert calls == []
    # Under a broken map, one call per failing case.
    _break_the_map(monkeypatch)
    failing = [(caps, ell) for caps, failures, _ in matching_sweep(iter_caps_vectors(3, 6))
               for ell, failure in enumerate(failures) if failure is not None]
    assert len(failing) > 100
    assert calls == failing


def test_sweep_fails_a_case_its_two_checks_disagree_on(monkeypatch):
    # The array check flags every row of an honest map; verify_matching
    # accepts each case, and the disagreement is a failure, not a pass.
    monkeypatch.setattr(boxes, "_violations", lambda v, *_: np.ones(len(v), bool))
    detail = "the sweep's array check flags a map that verify_matching accepts"
    matched = [(ok, d) for key, ok, d in _matching_cases(iter_caps_vectors(3, 6))
               if not key.endswith("(boundary)")]
    assert len(matched) > 100
    assert matched == [(False, detail)] * len(matched)


def test_sweep_counts_a_repeat_within_a_case_only(monkeypatch):
    # One chunk holds (2, 2) twice among other caps vectors of length 2; each
    # copy has its own slot, so neither sees the other's images.
    chunk = [(1, 1), (2, 2), (0, 3), (2, 2), (3, 1), (2, 0)]
    assert len(list(boxes._sweep_chunks(chunk))) == 1
    calls = _count_verify_calls(monkeypatch)
    honest = list(matching_sweep(chunk))
    assert [caps for caps, _, _ in honest] == chunk
    assert honest[1][1:] == honest[3][1:]
    assert all(failures == [None] * len(failures) for _, failures, _ in honest)
    assert calls == []
    # Both degree-1 sources of (2, 2) map to (1, 2): inside the target box and
    # above each source, so only the count sees the repeat.
    split_shift = boxes._split_shift_images

    def repeat(v, caps):
        w = split_shift(v, caps)
        w[(caps == 2).all(axis=1) & (v.sum(axis=1) == 1)] = (1, 2)
        return w

    monkeypatch.setattr(boxes, "_split_shift_images", repeat)
    expected = [[None] * (sum(caps) // 2 + 1) for caps in chunk]
    for q in (1, 3):
        expected[q][1] = "not injective at ((0, 1), (1, 0), (1, 2))"
    assert [failures for _, failures, _ in matching_sweep(chunk)] == expected
    assert calls == [((2, 2), 1)] * 2


def test_sweep_equals_per_case_calls():
    caps_list = list(iter_caps_vectors(3, 7)) + [(0, 4, 0, 1), (12,), (2, 0, 2, 0, 2)]
    swept = list(matching_sweep(caps_list))
    assert [caps for caps, _, _ in swept] == caps_list
    for caps, failures, oracle in swept:
        sigma = sum(caps)
        assert failures == [None] * (sigma // 2 + 1)
        assert oracle == [2 * ell <= sigma for ell in range(sigma + 1)]
    with pytest.raises(ValueError, match="non-empty"):
        list(matching_sweep([(1,), ()]))
    with pytest.raises(ValueError, match="sweep"):
        list(matching_sweep([(10 ** 9,)]))


def test_sweep_oracle_per_shape_equals_direct_oracle():
    # The sweep answers each caps vector from its shape's box; the direct
    # oracle solves the caps vector's own box.
    caps_list = list(iter_caps_vectors(4, 8)) + [
        (1, 2, 3), (3, 2, 1), (0, 3, 0, 2, 1), (2, 0, 2, 0, 2), (0, 0, 0)]
    swept = list(matching_sweep(caps_list))
    assert [caps for caps, _, _ in swept] == caps_list
    for caps, _, oracle in swept:
        assert oracle == [hall_matching_exists(caps, ell) for ell in range(sum(caps) + 1)], caps


def test_sweep_solves_each_shape_once_per_call(monkeypatch):
    honest = boxes._hall_many
    solved = []

    def counting(rows, cases):
        for s_lo, s_hi, t_lo, t_hi in cases.tolist():
            if s_hi > s_lo:
                solved.append((boxes._as_tuples(rows[s_lo:s_hi]),
                               boxes._as_tuples(rows[t_lo:t_hi])))
        return honest(rows, cases)

    monkeypatch.setattr(boxes, "_hall_many", counting)
    # Lengths 1..4, so most shapes recur in later chunks.
    caps_list = list(iter_caps_vectors(4, 6))
    shapes = {tuple(sorted(a for a in caps if a)) or (0,) for caps in caps_list}
    once = [(enumerate_box(shape, ell), enumerate_box(shape, sum(shape) - ell))
            for shape in shapes for ell in range(sum(shape) + 1)]
    list(matching_sweep(caps_list))
    assert sorted(solved) == sorted(once)
    # The answers live for one call.
    list(matching_sweep(caps_list))
    assert sorted(solved) == sorted(once * 2)


def test_sweep_refuses_a_hall_box_above_the_limit(monkeypatch):
    # (2,)*9 has a degree-9 box of 3,139 elements, which hall_matching_exists
    # refuses; the sweep refuses it too, before the oracle compares a pair
    # for any shape of its length.
    with pytest.raises(ValueError, match="above the limit"):
        hall_matching_exists((2,) * 9, 9)
    compared = []
    honest = boxes._hall_many
    monkeypatch.setattr(boxes, "_hall_many", lambda *a: compared.append(1) or honest(*a))
    # The refusal names the shape (the sorted positive caps) the box belongs to.
    with pytest.raises(ValueError, match=re.escape(
            f"shape {(2,) * 9}: the degree-9 box has 3139 elements, "
            f"above the limit {HALL_BOX_LIMIT}")):
        list(matching_sweep([(1,) * 9, (2,) * 9]))
    assert compared == []
    # The largest box the suites reach, (1,)*12 at degree 6 with 924
    # elements, still gets the oracle's answers.
    (caps, _, oracle), = matching_sweep([(1,) * 12])
    assert oracle == [hall_matching_exists(caps, ell) for ell in range(13)]
    assert oracle == [True] * 7 + [False] * 6


def test_iter_caps_vectors_order():
    assert list(iter_caps_vectors(2, 2)) == [
        (0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert list(iter_caps_vectors(3, 0)) == [(0,), (0, 0), (0, 0, 0)]
    for n_max, sigma_max in [(3, 5), (4, 3)]:
        expected = [c for n in range(1, n_max + 1)
                    for c in itertools.product(range(sigma_max + 1), repeat=n)
                    if sum(c) <= sigma_max]
        assert list(iter_caps_vectors(n_max, sigma_max)) == expected
