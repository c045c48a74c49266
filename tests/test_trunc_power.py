import math
import signal

import numpy as np
import pytest

from truncsym import trunc_power as tp
from truncsym.fp_linalg import eliminate, mat_mul, rank
from truncsym.monomial_box import grade_basis
from truncsym.trunc_power import (
    degree_weight_check,
    gl2_dim,
    _find_words,
    _letter_walk,
    _sorted_words,
    koszul_complex,
    sym_basis,
    symmetrization_rank,
    symmetrized_rows,
    trunc_rank,
    verify_koszul_exact,
    word_count,
    word_places,
)
from truncsym.filtration import composite_mismatch, nabla_power_rows

from reference import join_row, joined_rows, symmetrization_matrix, word_dict

SMALL_GRID = [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)]


def test_basis_examples():
    assert grade_basis(2, 3, 3) == ((1, 2), (2, 1))
    assert grade_basis(3, 2, 3) == ((1, 1, 1),)
    assert grade_basis(2, 3, 2 * 2 + 1) == ()


def test_grade_basis_returns_its_cached_tuple():
    # A repeated lookup is the cached tuple itself, not a copy of it.
    assert grade_basis(2, 3, 2) is grade_basis(2, 3, 2)
    assert isinstance(grade_basis(2, 3, 2), tuple)


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


def test_rank_sums_at_most_n_plus_one_terms(monkeypatch):
    # C(n, q) = 0 for q > n, so a high degree costs no more terms than a low
    # one; the count fails fast rather than running through ell // p terms.
    calls = []
    comb = math.comb

    def counted(a, b):
        calls.append((a, b))
        assert len(calls) <= 100, "trunc_rank sums past q = n"
        return comb(a, b)

    monkeypatch.setattr(math, "comb", counted)
    assert trunc_rank(2, 2, 10**6) == 0
    assert len(calls) == 2 * 3  # q = 0, 1, 2, two binomials each


def test_rank_and_koszul_refuse_bad_moduli():
    # A negative degree still has rank 0; a modulus below 2 has no truncated
    # power, and the resolution is built over F_p alone.
    assert trunc_rank(3, 2, -1) == 0
    for p in (-3, 0, 1):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            trunc_rank(4, p, 2)
    for p in (-3, 0, 1, 4):
        for build in (koszul_complex, verify_koszul_exact):
            with pytest.raises(ValueError, match="modulus"):
                build(2, p, 1)


def test_rank_refuses_fewer_than_one_variable():
    # Unrefused, n = -1 sums nothing and gives rank 0, and the Koszul check
    # then words a failure of a resolution that does not exist.
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n={n}"):
            trunc_rank(n, 2, 0)
    with pytest.raises(ValueError):
        verify_koszul_exact(-1, 2, 0)


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


def test_words_pack_into_one_int64_up_to_the_bound():
    # n^length <= 2^63 fits one int64 code: 63 binary or 39 ternary letters.
    assert word_places(2, 63).tolist() == [2 ** (62 - j) for j in range(63)]
    assert word_places(3, 39)[0] == 3 ** 38
    assert word_places(4, 0).tolist() == []
    for n, length in [(2, 64), (3, 40), (4, 32), (2, 10 ** 9)]:
        with pytest.raises(ValueError, match=f"{length} letters over n={n}"):
            word_places(n, length)
    row = join_row(symmetrized_rows(2, 67, [(62, 1)]))
    assert words_of(2, 63, row) == [(0,) * (62 - j) + (1,) + (0,) * j for j in range(63)]
    assert np.all(np.diff(list(word_dict(2, 63, row))) > 0)
    assert word_dict(2, 63, join_row(nabla_power_rows(2, 67, [(62, 1)]))).keys() == \
        word_dict(2, 63, row).keys()
    # The top word 1^63 takes the top int64 code.
    top = join_row(symmetrized_rows(2, 67, [(0, 63)]))
    assert word_dict(2, 63, top) == {2 ** 63 - 1: math.factorial(63) % 67}
    # A 64th letter is refused by both builders and the rank.
    for build in (symmetrized_rows, nabla_power_rows):
        with pytest.raises(ValueError, match="64 letters over n=2"):
            next(build(2, 67, [(63, 1)]))
    with pytest.raises(ValueError, match="64 letters over n=2"):
        symmetrization_rank(2, 67, 64)
    # Over one letter every word is code 0, at any length.
    for build, scale in [(symmetrized_rows, math.factorial(500)),
                         (nabla_power_rows, (-1) ** 500 * math.factorial(500))]:
        assert word_dict(1, 500, join_row(build(1, 509, [(500,)]))) == {0: scale % 509}


def test_symmetrization_rank_below_p_is_full():
    for n, p in [(2, 5), (3, 5), (2, 7)]:
        for ell in range(p):
            expected = math.comb(n + ell - 1, ell)
            assert len(eliminate(symmetrization_matrix(n, p, ell), p)) == expected


def test_symmetrization_degree_zero():
    # The empty word has code 0.
    assert symmetrization_matrix(3, 2, 0) == [{0: 1}]


def test_sorted_word_lookup_on_the_longest_binary_words():
    # Every sorted word of 63 binary letters but the top one 1^63, so that a
    # word can lie beyond them all.
    places = word_places(2, 63)
    columns = _sorted_words(2, places, [(63 - k, k) for k in range(63)])
    queries = [(0,) * (63 - k) + (1,) * k for k in range(63)]
    queries += [(0,) * 61 + (1, 0), (1,) + (0,) * 62, (1,) * 62 + (0,), (1,) * 63]
    at, hit = _find_words(columns, np.array(queries, dtype=np.int64) @ places)
    assert hit.tolist() == [True] * 63 + [False] * 4
    # 0^(63-k) 1^k has code 2^k - 1: the k-th in order.
    assert at[:63].tolist() == list(range(63))


def test_symmetrization_rank_refuses_bad_input_before_array_work(monkeypatch):
    def no_arrays(*args):
        raise AssertionError("array work before the input was checked")

    class NoNumpy:
        def __getattr__(self, name):
            no_arrays()

    monkeypatch.setattr(tp, "sym_basis", no_arrays)
    monkeypatch.setattr(tp, "np", NoNumpy())
    for n, p, ell in [(2, 4, 1), (2, 1, 1), (2, 2 ** 40, 1), (2, 5, -1), (0, 5, 2),
                      (2, 67, 64)]:
        with pytest.raises(ValueError):
            symmetrization_rank(n, p, ell)


def test_word_builders_refuse_fewer_than_one_letter():
    # Refused before any array work, where an empty array of no exponents
    # cannot be reshaped to n columns.
    for n in (0, -1):
        for call in (lambda: next(symmetrized_rows(n, 2, [()])),
                     lambda: next(nabla_power_rows(n, 2, [])),
                     lambda: composite_mismatch(n, 2, [()])):
            with pytest.raises(ValueError, match=f"need n >= 1 letters, got n={n}"):
                call()


def test_symmetrized_rows_skip_the_factorials_of_a_vanishing_row():
    # An exponent of p or more makes prod(k_i!) vanish mod p; the full
    # factorial of 10**6 alone takes seconds.  The alarm turns a slow
    # build into a failure.
    def hung(signum, frame):
        raise AssertionError("symmetrized_rows did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(2)
    try:
        (i, words, coeffs), = symmetrized_rows(1, 3, [(10**6,)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert i == 0 and len(words) == len(coeffs) == 0


def test_word_rows_drop_prefixes_whose_block_is_empty(monkeypatch):
    # A walk whose suffix block of (1, 1) is empty: the prefixes 01 and 10 of
    # (2, 2) and 00 of (3, 1) lead there.  They lead no entry, so in batches
    # of one word no piece is empty; an empty entry after a full one would
    # start a batch of its own and cut an empty piece out of its row.
    monkeypatch.setattr(tp, "BATCH_WORDS", 1)
    places = word_places(2, 4)
    start = np.array([[2, 2], [3, 1]], dtype=np.int8)

    def walk(left, j0, j1):
        words, origin, rest = _letter_walk(places, left, j0, j1)
        if left is start:
            return words, np.ones(len(words), dtype=np.int64), origin, rest
        keep = (left[origin] != (1, 1)).any(axis=1)
        return words[keep], None, origin[keep], rest[keep]

    pieces = list(tp._word_rows(walk, start, np.arange(2), 2, 4, 5))
    assert all(len(words) for _, words, _ in pieces)
    assert [w.tolist() for w, _ in joined_rows(pieces)] == [[0b0011, 0b1100], [0b0100, 0b1000]]


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
