import math

import pytest

from truncsym.fp_linalg import mat_mul, rank
from truncsym.monomial_box import grade_basis
from truncsym.trunc_power import (
    degree_weight_check,
    gl2_dim,
    koszul_complex,
    multiset_words,
    symmetrization_matrix,
    symmetrized_tensor,
    trunc_rank,
    verify_koszul_exact,
    word_count,
)

SMALL_GRID = [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)]


def test_basis_examples():
    assert grade_basis(2, 3, 3) == [(1, 2), (2, 1)]
    assert grade_basis(3, 2, 3) == [(1, 1, 1)]
    assert grade_basis(2, 3, 2 * 2 + 1) == []


def test_rank_examples():
    assert trunc_rank(2, 2, 2) == 1
    assert trunc_rank(3, 2, 3) == 1
    assert trunc_rank(2, 3, 3) == 2
    assert trunc_rank(1, 5, 0) == 1
    assert trunc_rank(2, 3, 5) == 0


def test_rank_agrees_with_enumeration():
    for n, p in SMALL_GRID + [(4, 3), (4, 5)]:
        for ell in range(n * (p - 1) + 2):
            assert trunc_rank(n, p, ell) == len(grade_basis(n, p, ell)), (n, p, ell)


def test_rank_palindrome_and_total():
    for n, p in SMALL_GRID:
        top = n * (p - 1)
        assert sum(trunc_rank(n, p, ell) for ell in range(top + 1)) == p ** n
        for ell in range(top + 1):
            assert trunc_rank(n, p, ell) == trunc_rank(n, p, top - ell)


def test_gl2_examples_and_sweep():
    assert gl2_dim(3, 3) == 2
    assert gl2_dim(5, 2) == 3
    assert gl2_dim(2, 2) == 1
    for p in (2, 3, 5, 7):
        for ell in range(2 * (p - 1) + 1):
            assert gl2_dim(p, ell) == trunc_rank(2, p, ell)
    with pytest.raises(ValueError):
        gl2_dim(3, 5)
    with pytest.raises(ValueError):
        gl2_dim(3, -1)


def test_multiset_words():
    assert sorted(multiset_words((2, 1))) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert word_count((2, 1)) == 3
    assert word_count((4, 4, 4)) == math.factorial(12) // math.factorial(4) ** 3


def test_symmetrized_tensor_examples():
    assert symmetrized_tensor((1, 1), 2) == {(0, 1): 1, (1, 0): 1}
    assert symmetrized_tensor((2, 0), 2) == {}
    assert symmetrized_tensor((2, 1), 5) == {
        (0, 0, 1): 2,
        (0, 1, 0): 2,
        (1, 0, 0): 2,
    }


def test_symmetrization_matrix_small():
    wm = symmetrization_matrix(2, 2, 2)
    assert wm.row_index == ((0, 2), (1, 1), (2, 0))
    assert wm.rows[0] == {} and wm.rows[2] == {}
    assert wm.rows[1] == {(0, 1): 1, (1, 0): 1}
    assert wm.rank() == 1


def test_symmetrization_rank_below_p_is_full():
    for n, p in [(2, 5), (3, 5), (2, 7)]:
        for ell in range(p):
            expected = math.comb(n + ell - 1, ell)
            assert symmetrization_matrix(n, p, ell).rank() == expected


def test_symmetrization_degree_zero():
    wm = symmetrization_matrix(3, 2, 0)
    assert wm.to_dense().entries == ((1,),)


def test_sparse_rank_matches_dense():
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        for ell in range(n * (p - 1) + 1):
            wm = symmetrization_matrix(n, p, ell)
            assert wm.rank() == rank(wm.to_dense())


def test_degree_weight_examples():
    assert degree_weight_check(2, 3, 3)
    assert degree_weight_check(1, 3, 0)
    assert degree_weight_check(3, 2, 3)
    for n, p in SMALL_GRID:
        for ell in range(n * (p - 1) + 1):
            assert degree_weight_check(n, p, ell), (n, p, ell)


def test_koszul_first_differential_squares_variables():
    diffs = koszul_complex(2, 2, 2)
    assert len(diffs) == 1
    # Domain is 1 (x) e_i for i = 0, 1; images are the squared variables
    # (codomain monomials in lexicographic order: (0,2), (1,1), (2,0)).
    assert diffs[0].entries == ((0, 0, 1), (1, 0, 0))
    assert rank(diffs[0]) == 2


def test_koszul_composition_is_zero():
    for n, p, ell in [(3, 2, 4), (3, 2, 5), (2, 3, 6), (3, 3, 7)]:
        diffs = koszul_complex(n, p, ell)
        for q in range(1, len(diffs)):
            assert mat_mul(diffs[q], diffs[q - 1]).is_zero()


def test_koszul_truncates_when_degree_low():
    assert koszul_complex(2, 5, 3) == []
    v = verify_koszul_exact(2, 5, 3)
    assert v.ok and v.cokernel_dim == trunc_rank(2, 5, 3)


def test_koszul_exact_required_pairs():
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        for ell in range(n * (p - 1) + 2):
            v = verify_koszul_exact(n, p, ell)
            assert v.ok, (n, p, ell, v.failure)


def test_koszul_verdict_values():
    v = verify_koszul_exact(2, 2, 2)
    assert v.dims == (3, 2) and v.ranks == (2,) and v.cokernel_dim == 1
    v = verify_koszul_exact(2, 2, 3)
    assert v.cokernel_dim == 0 == trunc_rank(2, 2, 3)
    v = verify_koszul_exact(2, 3, 4)
    assert v.dims[0] == 5 and v.ranks[0] == 4 and v.cokernel_dim == 1
