import math

import numpy as np
import pytest

from truncsym import trunc_power as tp
from truncsym.fp_linalg import eliminate, mat_mul, rank
from truncsym.monomial_box import grade_basis
from truncsym.trunc_power import (
    degree_weight_check,
    gl2_dim,
    WordLayout,
    _find_words,
    _sorted_words,
    koszul_complex,
    sym_basis,
    symmetrization_matrix,
    symmetrization_rank,
    symmetrized_rows,
    trunc_rank,
    verify_koszul_exact,
    word_count,
)

from reference import join_row, joined_rows, word_dict

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


def words_of(n, length, row):
    """The words of a packed row as tuples, decoded from their base-n codes."""
    return [tuple(code // n ** (length - 1 - j) % n for j in range(length))
            for code in word_dict(n, length, row)]


def test_multiset_words():
    row = join_row(symmetrized_rows(2, 5, [(2, 1)]))
    assert words_of(2, 3, row) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert word_count((2, 1)) == 3
    assert word_count((4, 4, 4)) == math.factorial(12) // math.factorial(4) ** 3
    words, coeffs = join_row(symmetrized_rows(3, 5, [(4, 4, 4)]))
    assert len(words) == len(coeffs) == word_count((4, 4, 4))


def test_symmetrized_tensor_examples():
    # Keys are the words read in base n: (0, 1) -> 1, (1, 0) -> 2, (1, 0, 0) -> 4.
    live, dead = joined_rows(symmetrized_rows(2, 2, [(1, 1), (2, 0)]))
    assert word_dict(2, 2, live) == {1: 1, 2: 1}
    assert len(dead[0]) == len(dead[1]) == 0
    assert word_dict(2, 3, join_row(symmetrized_rows(2, 5, [(2, 1)]))) == {1: 2, 2: 2, 4: 2}


def test_symmetrization_matrix_small():
    # One row per monomial, in sym_basis order.
    assert sym_basis(2, 2) == [(0, 2), (1, 1), (2, 0)]
    rows = symmetrization_matrix(2, 2, 2)
    assert rows == [{}, {1: 1, 2: 1}, {}]
    assert len(eliminate(rows, 2)) == 1


def test_word_layout_packs_long_words_exactly():
    # 63 binary letters fill one int64 column; the 64th starts a second one.
    assert WordLayout(2, 63).ends == [63]
    assert WordLayout(2, 64).ends == [63, 64]
    assert WordLayout(3, 40).ends == [39, 40]
    assert WordLayout(1, 500).ends == [500]
    assert WordLayout(4, 0).ends == [0]
    # The top word of length 67 over two letters: every column at its maximum.
    layout = WordLayout(2, 67)
    words = layout.empty(1)
    for j in range(67):
        layout.write(words, j, 1)
    assert words.tolist() == [[2 ** 63 - 1, 2 ** 4 - 1]]
    assert layout.codes(words) == [2 ** 67 - 1]
    row = join_row(symmetrized_rows(2, 67, [(66, 1)]))
    assert words_of(2, 67, row) == [(0,) * (66 - j) + (1,) + (0,) * j for j in range(67)]
    assert np.all(np.diff(list(word_dict(2, 67, row))) > 0)


def test_symmetrization_rank_below_p_is_full():
    for n, p in [(2, 5), (3, 5), (2, 7)]:
        for ell in range(p):
            expected = math.comb(n + ell - 1, ell)
            assert len(eliminate(symmetrization_matrix(n, p, ell), p)) == expected


def test_symmetrization_degree_zero():
    # The empty word has code 0.
    assert symmetrization_matrix(3, 2, 0) == [{0: 1}]


def test_sorted_word_lookup_spans_columns():
    # Words of 64 binary letters take two columns, so a word can agree with a
    # sorted word in its first column and differ in its second.
    layout = WordLayout(2, 64)
    assert len(layout.ends) == 2
    # Every sorted word but the top one 1^64, so that a word can lie beyond them all.
    columns = _sorted_words(layout, [(64 - k, k) for k in range(64)])
    queries = [(0,) * (64 - k) + (1,) * k for k in range(64)]
    queries += [(0,) * 62 + (1, 0), (1,) + (0,) * 63, (1,) * 63 + (0,), (1,) * 64]
    words = layout.empty(len(queries))
    for j in range(64):
        layout.write(words, j, np.array([word[j] for word in queries]))
    at, hit = _find_words(columns, words)
    assert hit.tolist() == [True] * 64 + [False] * 4
    # 0^(64-k) 1^k has code 2^k - 1: the k-th in order.
    assert at[:64].tolist() == list(range(64))


def test_symmetrization_rank_refuses_bad_input_before_array_work(monkeypatch):
    def no_arrays(*args):
        raise AssertionError("array work before the input was checked")

    monkeypatch.setattr(tp, "sym_basis", no_arrays)
    monkeypatch.setattr(tp, "WordLayout", no_arrays)
    for n, p, ell in [(2, 4, 1), (2, 1, 1), (2, 2 ** 40, 1), (2, 5, -1), (0, 5, 2)]:
        with pytest.raises(ValueError):
            symmetrization_rank(n, p, ell)


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
            assert not any(mat_mul(diffs[q], diffs[q - 1]).rows)


def test_koszul_truncates_when_degree_low():
    assert koszul_complex(2, 5, 3) == []
    # With no differential the cokernel is all of Sym^3.
    assert verify_koszul_exact(2, 5, 3) is None
    assert len(sym_basis(2, 3)) == trunc_rank(2, 5, 3)


def test_koszul_exact_required_pairs():
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        for ell in range(n * (p - 1) + 2):
            failure = verify_koszul_exact(n, p, ell)
            assert failure is None, (n, p, ell, failure)


def _koszul_numbers(n, p, ell):
    # The level dimensions, the differentials' ranks and the cokernel
    # dimension that verify_koszul_exact checks.
    diffs = koszul_complex(n, p, ell)
    dims = (diffs[0].ncols, *(d.nrows for d in diffs))
    ranks = tuple(rank(d) for d in diffs)
    return dims, ranks, dims[0] - ranks[0]


def test_koszul_verdict_values():
    assert _koszul_numbers(2, 2, 2) == ((3, 2), (2,), 1)
    assert _koszul_numbers(2, 2, 3)[2] == 0 == trunc_rank(2, 2, 3)
    dims, ranks, coker = _koszul_numbers(2, 3, 4)
    assert dims[0] == 5 and ranks[0] == 4 and coker == 1
    for args in [(2, 2, 2), (2, 2, 3), (2, 3, 4)]:
        assert verify_koszul_exact(*args) is None
