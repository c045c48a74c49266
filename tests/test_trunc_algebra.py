import random

import pytest

from truncsym.fp_linalg import mat_mul, rank
from truncsym.monomial_box import box_size, grade_basis
from truncsym.trunc_algebra import (
    GradedSubspace,
    apply_diff,
    check_upper_half_growth,
    diff_action_matrix,
    omega_pairing_matrix,
    spanned_image_dim,
)
from truncsym.trunc_power import trunc_rank


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


def test_derivations_commute_as_matrices():
    for n, p in [(2, 3), (3, 2), (2, 5)]:
        for ell in range(2, n * (p - 1) + 1):
            for i in range(n):
                for j in range(i + 1, n):
                    ei = tuple(1 if k == i else 0 for k in range(n))
                    ej = tuple(1 if k == j else 0 for k in range(n))
                    ij = mat_mul(diff_action_matrix(n, p, ei, ell),
                                 diff_action_matrix(n, p, ej, ell - 1))
                    ji = mat_mul(diff_action_matrix(n, p, ej, ell),
                                 diff_action_matrix(n, p, ei, ell - 1))
                    assert ij == ji


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
    sub = GradedSubspace.from_vectors(2, 3, 2, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    assert sub.dim == 2
    with pytest.raises(ValueError):
        GradedSubspace.from_vectors(2, 3, 2, [[1, 0]])


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
    with pytest.raises(ValueError):
        spanned_image_dim(low)


def test_growth_zero_subspace():
    zero = GradedSubspace.from_vectors(2, 3, 3, [])
    verdict = check_upper_half_growth(zero)
    assert verdict.ok and verdict.dim_v == 0 and verdict.image_dim == 0


def test_growth_top_grade_lines():
    for n, p in [(2, 3), (3, 2), (2, 2)]:
        top = n * (p - 1)
        dim = len(grade_basis(n, p, top))
        assert dim == 1
        verdict = check_upper_half_growth(GradedSubspace.coordinate(n, p, top, [0]))
        assert verdict.ok and verdict.image_dim >= 1


def test_growth_example_n2_p3():
    basis = grade_basis(2, 3, 3)
    idx = basis.index((2, 1))
    verdict = check_upper_half_growth(GradedSubspace.coordinate(2, 3, 3, [idx]))
    assert verdict.ok and verdict.image_dim >= 1


def test_growth_coordinate_sweep_small():
    for n, p in [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            for mask in range(1 << dim):
                idxs = [i for i in range(dim) if mask >> i & 1]
                verdict = check_upper_half_growth(GradedSubspace.coordinate(n, p, ell, idxs))
                assert verdict.ok, (n, p, ell, idxs, verdict)


def test_growth_random_subspaces_seeded():
    rng = random.Random(20240811)
    for n, p in [(2, 3), (3, 2)]:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(grade_basis(n, p, ell))
            for _ in range(100):
                sub = GradedSubspace.random(n, p, ell, rng.randint(1, dim), rng)
                verdict = check_upper_half_growth(sub)
                assert verdict.ok, (n, p, ell, sub.basis.entries)
