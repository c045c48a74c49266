import random
from itertools import chain, zip_longest

import pytest

from truncsym.fp_linalg import rank
from truncsym.monomial_box import box_size, grade_basis
from truncsym.trunc_algebra import (
    GradedSubspace,
    apply_diff,
    coordinate_subspaces,
    omega_pairing_matrix,
    spanned_image_dim,
)
from truncsym.trunc_power import trunc_rank

from reference import reference_rref


def test_apply_diff_examples():
    assert apply_diff((1, 0), (2, 1), 3) == (2, (1, 1))
    assert apply_diff((2,), (2,), 3) == (2, (0,))
    assert apply_diff((0, 1), (1, 0), 3) == (0, None)


def test_apply_diff_validation():
    with pytest.raises(ValueError):
        apply_diff((1,), (1, 0), 3)
    with pytest.raises(ValueError):
        apply_diff((3,), (2,), 3)
    with pytest.raises(ValueError):
        apply_diff((1,), (5,), 3)


def test_apply_diff_matches_single_steps():
    # Applying one derivative at a time reproduces the closed-form product.
    for n, p in [(1, 5), (2, 3), (3, 2)]:
        for ell in range(n * (p - 1) + 1):
            for mono in grade_basis(n, p, ell):
                for d in range(ell + 1):
                    for op in grade_basis(n, p, d):
                        coeff, res = apply_diff(op, mono, p)
                        c, m = 1, mono
                        for i, e in enumerate(op):
                            for _ in range(e):
                                if m is None or m[i] == 0:
                                    c, m = 0, None
                                    break
                                step = tuple(1 if j == i else 0 for j in range(n))
                                sc, m = apply_diff(step, m, p)
                                c = c * sc % p
                            if m is None:
                                break
                        assert coeff == c
                        assert res == m


def test_derivations_commute():
    # t^{e_i} t^{e_j} = t^{e_j} t^{e_i} on every monomial of every grade.
    def compose(first, second, mono, p):
        c1, m = apply_diff(first, mono, p)
        c2, m = apply_diff(second, m, p) if m else (0, None)
        return c1 * c2 % p, m

    for n, p in [(2, 3), (3, 2), (2, 5)]:
        for ell in range(2, n * (p - 1) + 1):
            for i in range(n):
                for j in range(i + 1, n):
                    ei = tuple(1 if k == i else 0 for k in range(n))
                    ej = tuple(1 if k == j else 0 for k in range(n))
                    for mono in grade_basis(n, p, ell):
                        assert compose(ej, ei, mono, p) == compose(ei, ej, mono, p), mono


def test_grade_dimension_formula():
    for n in (1, 2, 3, 4):
        for p in (2, 3, 5):
            for ell in range(n * (p - 1) + 1):
                dim = len(grade_basis(n, p, ell))
                assert dim == trunc_rank(n, p, ell)
                assert dim == box_size((p - 1,) * n, ell)


def test_omega_pairing_examples():
    assert omega_pairing_matrix(1, 3, 1).entries == ((2,),)
    assert omega_pairing_matrix(2, 2, 2).entries == ((1,),)
    # Top single-variable pairing is the full factorial.
    assert omega_pairing_matrix(1, 5, 4).entries == ((4,),)


def test_omega_pairing_invertible_small_grid():
    for n, p in [(1, 3), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]:
        top = n * (p - 1)
        for ell in range(top + 1):
            m = omega_pairing_matrix(n, p, ell)
            assert m.nrows == m.ncols
            assert rank(m) == m.nrows, (n, p, ell)


def test_omega_pairing_wilson_entries():
    # Single-variable top grade: the entry is (p-1)! = p - 1 mod p.
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        m = omega_pairing_matrix(1, p, p - 1)
        assert m.entries == ((p - 1,),)


def test_omega_pairing_range_check():
    with pytest.raises(ValueError):
        omega_pairing_matrix(2, 3, 5)


def test_subspace_construction_reduces():
    sub = GradedSubspace.from_vectors(2, 3, 2, [[0, 0, 2], [2, 1, 1], [1, 2, 2]])
    assert sub.dim == 2
    # The reduced basis: rows by leading column, each leading with 1, and the
    # later pivot column cleared from the first row.
    assert sub.basis.entries == ((1, 2, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        GradedSubspace.from_vectors(2, 3, 2, [[1, 0]])


def test_subspaces_compare_by_span():
    sub = GradedSubspace.from_vectors(2, 3, 2, [[0, 0, 2], [2, 1, 1]])
    same = GradedSubspace.from_vectors(2, 3, 2, [[1, 2, 0], [0, 0, 1], [2, 1, 0]])
    assert sub.basis == same.basis
    # Another span of the grade, and the same vectors over F_5, differ.
    assert sub.basis != GradedSubspace.from_vectors(2, 3, 2, [{0: 1}, {2: 1}]).basis
    assert sub.basis != GradedSubspace.from_vectors(2, 5, 2, [[1, 2, 0], [0, 0, 1]]).basis
    # Grades 1 and 3 of (2, 3) are both two-dimensional: the same basis.
    assert GradedSubspace.from_vectors(2, 3, 1, [[1, 0], [0, 1]]).basis == \
        GradedSubspace.from_vectors(2, 3, 3, [[0, 1], [1, 0]]).basis


def test_subspace_refuses_bad_modulus():
    # A composite modulus, and primes whose (p-1)^2 reaches 2^63 (the size is
    # refused before any primality test).
    with pytest.raises(ValueError, match="prime"):
        GradedSubspace.from_vectors(1, 4, 1, [[1]])
    for p in (4294967311, 10 ** 18 + 3):
        with pytest.raises(ValueError, match="too large"):
            GradedSubspace.from_vectors(1, p, 1, [[1]])


def test_subspace_from_sparse_rows_equals_dense():
    # A dict row names the nonzero entries of a vector; mixed with dense rows
    # it spans what the dense vectors span.
    dense = [[0, 0, 2], [2, 1, 1], [1, 2, 2]]
    sparse = [{2: 2}, {0: 2, 1: 1, 2: 1}, [1, 2, 2]]
    a = GradedSubspace.from_vectors(2, 3, 2, dense)
    b = GradedSubspace.from_vectors(2, 3, 2, sparse)
    assert a.pivots == b.pivots and a.basis == b.basis
    assert GradedSubspace.from_vectors(2, 3, 2, [{}]).dim == 0
    for row in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
        with pytest.raises(ValueError, match="outside"):
            GradedSubspace.from_vectors(2, 3, 2, [row])


def test_random_subspace_draws_randrange_entries_row_by_row():
    # The draws of random.Random.randrange(p), width entries per row, dim
    # rows per try, until a try has full rank: the same subspace, and the
    # same bits consumed.
    for n, p, ell in [(2, 3, 2), (3, 2, 2), (2, 5, 5), (1, 2, 1), (3, 3, 4)]:
        width = len(grade_basis(n, p, ell))
        for seed in range(40):
            dim = random.Random(seed).randint(0, width)
            ours, theirs = random.Random(seed), random.Random(seed)
            sub = GradedSubspace.random(n, p, ell, dim, ours)
            while True:
                rows = [[theirs.randrange(p) for _ in range(width)] for _ in range(dim)]
                expected = GradedSubspace.from_vectors(n, p, ell, rows)
                if expected.dim == dim:
                    break
            assert sub.pivots == expected.pivots
            assert ours.getstate() == theirs.getstate()


def test_spanned_image_examples():
    # Top grade of the single-variable algebra: degree-two operators hit 1.
    full = GradedSubspace.from_vectors(1, 3, 2, [[1]])
    assert spanned_image_dim(full) == 1

    # Degree-zero operators leave the subspace in place.
    mid = GradedSubspace.from_vectors(2, 3, 2, [[1, 1, 0], [0, 1, 2]])
    assert mid.grade * 2 == 2 * (3 - 1)
    assert spanned_image_dim(mid) == mid.dim

    # Both second derivatives kill the square-free monomial; the cross one
    # survives and lands on the constant.
    prod = GradedSubspace.from_vectors(2, 2, 2, [[1]])
    assert spanned_image_dim(prod) == 1


def test_spanned_image_grade_precondition():
    low = GradedSubspace.from_vectors(2, 3, 1, [[1, 0]])
    with pytest.raises(ValueError, match="^grade 1 below half the top grade 4$"):
        spanned_image_dim(low)


def test_coordinate_subspaces_refuse_before_the_first_subset():
    # The zero subspace of a lower-half grade has no image to ask for, so the
    # sweep must refuse the grade, and a composite modulus, up front.
    with pytest.raises(ValueError, match="^grade 1 below half the top grade 4$"):
        next(coordinate_subspaces(2, 3, 1))
    with pytest.raises(ValueError, match="^modulus must be prime, got 4$"):
        next(coordinate_subspaces(2, 4, 3))


def test_growth_zero_subspace():
    zero = GradedSubspace.from_vectors(2, 3, 3, [])
    assert zero.dim == 0 and spanned_image_dim(zero) == 0


def test_growth_top_grade_lines():
    for n, p in [(2, 3), (3, 2), (2, 2)]:
        top = n * (p - 1)
        dim = len(grade_basis(n, p, top))
        assert dim == 1
        assert spanned_image_dim(GradedSubspace.from_vectors(n, p, top, [{0: 1}])) >= 1


def test_growth_example_n2_p3():
    basis = grade_basis(2, 3, 3)
    idx = basis.index((2, 1))
    assert spanned_image_dim(GradedSubspace.from_vectors(2, 3, 3, [{idx: 1}])) >= 1


def test_growth_coordinate_sweep_small():
    for n, p in [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            for mask in range(1 << dim):
                idxs = [i for i in range(dim) if mask >> i & 1]
                units = [{i: 1} for i in idxs]
                image = spanned_image_dim(GradedSubspace.from_vectors(n, p, ell, units))
                assert len(idxs) <= image, (n, p, ell, idxs, image)


def test_growth_random_subspaces_seeded():
    rng = random.Random(20240811)
    for n, p in [(2, 3), (3, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            for _ in range(100):
                sub = GradedSubspace.random(n, p, ell, rng.randint(1, dim), rng)
                assert sub.dim <= spanned_image_dim(sub), (n, p, ell, sub.basis.entries)


def test_random_subspace_refuses_a_dimension_outside_the_grade(monkeypatch):
    # Refused before any span is drawn: no span has a negative dimension, so
    # a retry loop would never end.
    def no_span(*args):
        raise AssertionError("drew a span for a dimension no span has")

    monkeypatch.setattr(GradedSubspace, "from_vectors", no_span)
    for dim in (-1, -7, 3):  # grade 3 of (2, 3) has dimension 2
        with pytest.raises(ValueError, match=rf"dimension {dim} outside \[0, 2\]"):
            GradedSubspace.random(2, 3, 3, dim, random.Random(0))


def _reference_image_dim(v):
    # The bridging-operator images of each basis vector, accumulated in plain
    # ints straight from apply_diff, then ranked once by the textbook
    # elimination rather than the kernel under test.
    n, p, ell = v.n, v.p, v.grade
    top = n * (p - 1)
    source = grade_basis(n, p, ell)
    target = grade_basis(n, p, top - ell)
    index = {m: j for j, m in enumerate(target)}
    images = []
    for op in grade_basis(n, p, 2 * ell - top):
        for row in v.basis.entries:
            vec = [0] * len(target)
            for c, mono in zip(row, source):
                coeff, res = apply_diff(op, mono, p)
                if res is not None:
                    vec[index[res]] += c * coeff
            images.append(vec)
    return reference_rref(images, p)[1]


def test_spanned_image_dim_matches_apply_diff_oracle():
    rng = random.Random(20261018)
    per_grade = []
    for n, p in [(1, 5), (2, 3), (3, 2), (2, 5), (3, 3), (2, 7), (4, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            units = [[{i: 1} for i in range(dim) if mask >> i & 1] for mask in range(1 << dim)]
            subs = [GradedSubspace.from_vectors(n, p, ell, rows) for rows in units]
            subs += [GradedSubspace.random(n, p, ell, rng.randint(0, dim), rng) for _ in range(5)]
            per_grade.append(subs)
    # Round-robin over the grades: consecutive calls never share (n, p, l), so
    # operators cached for one grade cannot stand in for another's.
    cases = [v for v in chain.from_iterable(zip_longest(*per_grade)) if v is not None]
    assert len(cases) == sum(map(len, per_grade))
    filled = proper = 0
    for v in cases:
        image = spanned_image_dim(v)
        assert image == _reference_image_dim(v), (v.n, v.p, v.grade, v.basis)
        # Images that fill the target grade stop the elimination early: every
        # whole grade, and some proper subspaces.
        if image == len(grade_basis(v.n, v.p, v.n * (v.p - 1) - v.grade)):
            filled += 1
            proper += v.dim < len(grade_basis(v.n, v.p, v.grade))
    assert filled > proper > 0



def test_coordinate_subspaces_through_parent_spans_match_oracle():
    # Each subset's image span is its parent's (the mask without its highest
    # bit) plus one unit vector's images: the same dimension as from scratch
    # and as the apply_diff oracle, on every subset of the oracle test's grid.
    checked = 0
    for n, p in [(1, 5), (2, 3), (3, 2), (2, 5), (3, 3), (2, 7), (4, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            masks = []
            for idxs, image in coordinate_subspaces(n, p, ell):
                masks.append(sum(1 << i for i in idxs))
                scratch = GradedSubspace.from_vectors(n, p, ell, [{i: 1} for i in idxs])
                assert image == spanned_image_dim(scratch) == _reference_image_dim(scratch), (
                    n, p, ell, idxs)
                checked += 1
            assert masks == list(range(1 << dim))
    assert checked == 630
