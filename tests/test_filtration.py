import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from truncsym import filtration
from truncsym.filtration import (
    composite_mismatch,
    curve_report,
    filtration_basis,
    graded_nabla_matrix,
    nabla_power_rows,
)
from truncsym.fp_linalg import FpMatrix, eliminate, rank
from truncsym.monomial_box import enumerate_box, grade_basis
from truncsym.suites import pair_grid
from truncsym import trunc_power
from truncsym.trunc_power import (
    sym_basis,
    symmetrized_rows,
    trunc_rank,
    word_count,
)

from reference import join_row, joined_rows, word_dict

PAIRS = [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3)]
# The widest rows whose words fit one int64 code: 2^63 and 3^39 are <= 2^63 < 3^40.
WIDE_ROWS = [(2, 67, (62, 1)), (2, 67, (1, 62)), (3, 41, (37, 1, 1)), (3, 41, (1, 37, 1))]


def test_filtration_basis_examples():
    assert filtration_basis(1, 3, 1) == [(1,), (2,)]
    assert filtration_basis(2, 2, 2) == [(1, 1)]
    assert filtration_basis(2, 2, 3) == []
    assert len(filtration_basis(2, 3, 0)) == 9
    with pytest.raises(ValueError):
        filtration_basis(2, 3, -1)


def test_layer_dimensions_match_trunc_rank():
    for n, p in PAIRS:
        top = n * (p - 1)
        for ell in range(top + 1):
            drop = len(filtration_basis(n, p, ell)) - len(filtration_basis(n, p, ell + 1))
            assert drop == trunc_rank(n, p, ell)


def test_graded_matrix_examples():
    assert graded_nabla_matrix(1, 3, 2).entries == ((1,),)
    assert graded_nabla_matrix(2, 2, 2).entries == ((1, 0, 0, 1),)
    m = graded_nabla_matrix(2, 3, 1)
    assert rank(m) == 2
    with pytest.raises(ValueError):
        graded_nabla_matrix(2, 3, 5)
    with pytest.raises(ValueError):
        graded_nabla_matrix(2, 3, 0)


def test_graded_matrices_injective():
    for n, p in PAIRS:
        for ell in range(1, n * (p - 1) + 1):
            m = graded_nabla_matrix(n, p, ell)
            assert rank(m) == m.nrows, (n, p, ell)


def reference_nabla_power_row(n, p, k, newest_left=True):
    """The composite by a pure-Python dict walk over (monomial, word) states,
    the newest letter leftmost (the first derivative rightmost) or, with
    ``newest_left`` false, rightmost: {word tuple: coefficient}."""
    states = {(k, ()): 1}
    for _ in range(sum(k)):
        nxt = {}
        for (m, w), c in states.items():
            for i in range(n):
                mi = m[i]
                if mi:
                    key = (m[:i] + (mi - 1,) + m[i + 1:], (i,) + w if newest_left else w + (i,))
                    nxt[key] = (nxt.get(key, 0) - c * mi) % p
        states = nxt
    return {w: c for (_, w), c in states.items() if c}


def code(word, n):
    """A word read in base n, the key ``word_dict`` gives it."""
    return sum(letter * n ** (len(word) - 1 - j) for j, letter in enumerate(word))


def layer_rows(n, p, ell):
    """The composite on the degree-ell layer: one {word code: coefficient} row
    per grade-basis monomial."""
    basis = grade_basis(n, p, ell)
    rows = joined_rows(nabla_power_rows(n, p, basis))
    return {k: word_dict(n, ell, row) for k, row in zip(basis, rows)}


def test_nabla_power_small_values():
    # Word codes in base n: (0, 1) -> 1, (1, 0) -> 2; the empty word is 0.
    assert layer_rows(2, 2, 2) == {(1, 1): {1: 1, 2: 1}}
    assert layer_rows(1, 3, 2) == {(2,): {0: 2}}
    assert layer_rows(2, 3, 0) == {(0, 0): {0: 1}}


def test_nabla_power_matches_signed_symmetrization():
    for n, p in PAIRS:
        top = n * (p - 1)
        for ell in range(top + 1):
            sign = (-1) ** ell % p
            basis = grade_basis(n, p, ell)
            composite = layer_rows(n, p, ell)
            for k, sym in zip(basis, joined_rows(symmetrized_rows(n, p, basis))):
                expected = {w: sign * c % p for w, c in word_dict(n, ell, sym).items()}
                assert composite[k] == expected, (n, p, ell, k)


def test_composite_mismatch_passes_clean_grades():
    for n, p in [(2, 5), (3, 3)]:
        for ell in range(n * (p - 1) + 1):
            assert composite_mismatch(n, p, grade_basis(n, p, ell)) is None, (n, p, ell)
    assert composite_mismatch(2, 5, []) is None


def test_composite_mismatch_passes_vanishing_rows(monkeypatch):
    # A row with an exponent of p or more holds no word in either stream.
    assert composite_mismatch(2, 2, sym_basis(2, 3)) is None  # every row vanishes
    assert composite_mismatch(3, 3, sym_basis(3, 4)) is None  # vanishing and live rows
    assert composite_mismatch(2, 5, [(5, 0)]) is None
    # Both streams faulted to give the vanishing row (0, 0, 4) one word, as
    # many as word_count((0, 0, 4)): only expecting no word names the row.
    grade = sym_basis(3, 4)
    assert grade[0] == (0, 0, 4) and word_count(grade[0]) == 1

    def one_word(build):
        def faulted(n, p, monomials):
            for i, words, coeffs in build(n, p, monomials):
                if i == 0:
                    words, coeffs = np.zeros(1, np.int64), np.ones(1, np.int64)
                yield i, words, coeffs
        return faulted

    for name, build in (("nabla_power_rows", nabla_power_rows),
                        ("symmetrized_rows", symmetrized_rows)):
        monkeypatch.setattr(filtration, name, one_word(build))
    assert composite_mismatch(3, 3, grade) == (0, 0, 4)


def test_composite_leads_no_empty_entry(monkeypatch):
    # A composite prefix can outlive its row: at p = 2 the step (3, 0) -> (2, 0)
    # has the factor -3 = 1, and only the block below it vanishes.  Such a
    # prefix leads no entry, so in batches of one word no piece is empty
    # unless its row vanishes.
    monkeypatch.setattr(trunc_power, "BATCH_WORDS", 1)
    for n, p, ell in [(2, 2, 3), (3, 3, 4), (2, 5, 7), (3, 2, 5)]:
        basis = sym_basis(n, ell)
        pieces = list(nabla_power_rows(n, p, basis))
        rows = joined_rows(pieces)
        assert [len(w) for w, _ in rows] == [
            len(w) for w, _ in joined_rows(symmetrized_rows(n, p, basis))], (n, p, ell)
        assert all(len(words) or not len(rows[i][0]) for i, words, _ in pieces), (n, p, ell)


# The grade (2, 5) l = 6, whose middle row (3, 3) holds C(6, 3) = 20 words: in
# pieces of about 4 words it spans several.
GRADE = grade_basis(2, 5, 6)
MIDDLE = GRADE[len(GRADE) // 2]


def _last_piece_changed(build, change):
    """``build`` with ``change`` applied to the last piece of the middle row."""
    def faulted(n, p, monomials):
        pieces = list(build(n, p, monomials))
        last = max(j for j, (i, _, _) in enumerate(pieces) if monomials[i] == MIDDLE)
        pieces[last] = change(*pieces[last], p)
        yield from pieces
    return faulted


def _coefficient_off(i, words, coeffs, p):
    coeffs = coeffs.copy()
    coeffs[-1] = (coeffs[-1] + 1) % p
    return i, words, coeffs


def _word_dropped(i, words, coeffs, p):
    return i, words[:-1], coeffs[:-1]


def test_composite_mismatch_names_a_row_with_one_coefficient_off(monkeypatch):
    monkeypatch.setattr(trunc_power, "BATCH_WORDS", 4)
    middle = GRADE.index(MIDDLE)
    assert len([i for i, _, _ in nabla_power_rows(2, 5, GRADE) if i == middle]) > 1
    assert composite_mismatch(2, 5, GRADE) is None
    monkeypatch.setattr(filtration, "nabla_power_rows",
                        _last_piece_changed(nabla_power_rows, _coefficient_off))
    assert composite_mismatch(2, 5, GRADE) == MIDDLE


def test_composite_mismatch_counts_the_words_of_each_row(monkeypatch):
    # The same word dropped from both streams leaves every pair of pieces
    # equal; only the count against word_count(k) sees the short row.
    monkeypatch.setattr(trunc_power, "BATCH_WORDS", 4)
    for name, build in (("nabla_power_rows", nabla_power_rows),
                        ("symmetrized_rows", symmetrized_rows)):
        monkeypatch.setattr(filtration, name, _last_piece_changed(build, _word_dropped))
    pairs = zip(filtration.nabla_power_rows(2, 5, GRADE), filtration.symmetrized_rows(2, 5, GRADE))
    assert all(got[0] == want[0] and np.array_equal(got[1], want[1]) for got, want in pairs)
    assert composite_mismatch(2, 5, GRADE) == MIDDLE


def test_packed_rows_match_reference_walk():
    rows = [(n, p, k) for n, p in PAIRS for ell in range(n * (p - 1) + 1)
            for k in grade_basis(n, p, ell)]
    # Each path multiplies the same factors, so the walk that puts the first
    # derivative leftmost and the one that puts it rightmost give one row.
    inputs = [(n, p, k, newest_left) for n, p, k in rows + WIDE_ROWS
              for newest_left in (True, False)]
    for n, p, k, newest_left in inputs:
        reference = {code(w, n): c for w, c
                     in sorted(reference_nabla_power_row(n, p, k, newest_left).items())}
        sign = (-1) ** sum(k) % p
        got_row = join_row(nabla_power_rows(n, p, [k]))
        sym_row = join_row(symmetrized_rows(n, p, [k]))
        got, expected = word_dict(n, sum(k), got_row), word_dict(n, sum(k), sym_row)
        assert got == reference, (n, p, k, newest_left)
        assert list(got) == list(reference), (n, p, k)  # sorted words
        assert {w: sign * c % p for w, c in expected.items()} == reference, (n, p, k)
        assert list(expected) == list(reference), (n, p, k)
        assert len(got_row[1]) == len(sym_row[1]) == word_count(k), (n, p, k)


def test_nabla_power_rejects_bad_input():
    with pytest.raises(ValueError, match="exponents"):
        next(nabla_power_rows(3, 5, [(1, 2)]))
    with pytest.raises(ValueError, match="too large"):
        next(nabla_power_rows(1, 2 ** 62, [(1,)]))


def test_word_builders_reject_bad_input():
    # Each used to give a wrong row or leak another exception.
    for build in (symmetrized_rows, nabla_power_rows):
        for p in (-3, 0):
            with pytest.raises(ValueError, match="prime"):
                next(build(2, p, [(1, 1)]))
        with pytest.raises(ValueError, match="too large"):
            next(build(1, 2 ** 70, [(25,)]))
        with pytest.raises(ValueError, match="negative"):
            next(build(2, 5, [(-1, 2)]))
    # The grade builders refuse at the first row.
    with pytest.raises(ValueError, match="share a degree"):
        next(symmetrized_rows(2, 5, [(1, 1), (2, 1)]))
    with pytest.raises(ValueError, match="exponents"):
        next(nabla_power_rows(2, 5, [(1, 1), (1, 1, 0)]))


def test_nabla_power_full_row_rank():
    for n, p in [(2, 3), (3, 2), (2, 5)]:
        for ell in range(n * (p - 1) + 1):
            rows = list(layer_rows(n, p, ell).values())
            assert len(eliminate(rows, p)) == len(rows)


def test_nabla_power_is_stepwise_composition():
    # Each row is rebuilt from the layer below: the first derivative, in
    # direction i with factor -k_i, is put in the rightmost slot, so the code
    # of the word w + (i,) is code(w) * n + i.  nabla_power_rows puts it in
    # the leftmost slot; every path multiplies the same factors, so the row
    # is the same.
    for n, p in [(2, 3), (3, 2)]:
        for ell in range(1, n * (p - 1) + 1):
            previous = layer_rows(n, p, ell - 1)
            for k, row in layer_rows(n, p, ell).items():
                rebuilt: dict = {}
                for i, ki in enumerate(k):
                    if ki == 0:
                        continue
                    lowered = k[:i] + (ki - 1,) + k[i + 1:]
                    for w, c in previous[lowered].items():
                        word = w * n + i
                        rebuilt[word] = (rebuilt.get(word, 0) - ki * c) % p
                rebuilt = {w: c for w, c in rebuilt.items() if c}
                assert rebuilt == row, (n, p, ell, k)


def test_curve_reports():
    for p in (2, 3, 5, 7):
        assert curve_report(p) is None
        # The entries and dimensions the report checks.
        assert [graded_nabla_matrix(1, p, ell).entries for ell in range(1, p)] == [
            ((-ell % p,),) for ell in range(1, p)]
        dims = [len(filtration_basis(1, p, ell)) for ell in range(p + 1)]
        assert dims == [p - ell for ell in range(p)] + [0]


def test_curve_report_refuses_a_modulus_that_is_not_prime():
    for p in (1, 0, 4):
        with pytest.raises(ValueError, match="prime"):
            curve_report(p)


def test_curve_report_words_a_failure():
    with mock.patch("truncsym.filtration.graded_nabla_matrix",
                    lambda n, p, ell: FpMatrix([{0: 1}], p, 1)):
        assert curve_report(3) == "entries (1, 1) dims (3, 2, 1, 0)"
        assert curve_report(2) is None  # -1 = 1 mod 2
        assert curve_report(5) == "entries (1, 1, 1, 1) dims (5, 4, 3, 2, 1, 0)"
    with mock.patch("truncsym.filtration.filtration_basis", lambda n, p, ell: []):
        assert curve_report(3) == "entries (2, 1) dims (0, 0, 0, 0)"


# sha256 over (k, words bytes, coeffs bytes) of the composite row and then the
# symmetrized row of every grade-basis monomial on the filtration-wide grid
# (``verify --suites filtration --n-max 5 --primes 2,3,5,7,11``): 768 rows a
# side, each joined from its pieces.  It pins every packed word and
# coefficient, not only the verdicts.
FILTRATION_WIDE_ROWS_SHA256 = "c745547e37e288e39ee13e3bde871d470af162a786f140c67ed160f0859d537d"


def test_filtration_wide_rows_digest():
    digest = hashlib.sha256()
    rows = 0
    for n, p in pair_grid((2, 3, 5, 7, 11), 243, 5):
        for ell in range(n * (p - 1) + 1):
            basis = grade_basis(n, p, ell)
            for k, *pair in zip(basis, joined_rows(nabla_power_rows(n, p, basis)),
                                joined_rows(symmetrized_rows(n, p, basis))):
                for words, coeffs in pair:
                    digest.update(repr(k).encode())
                    digest.update(words.tobytes())
                    digest.update(coeffs.tobytes())
                rows += 1
    assert rows == 768
    assert digest.hexdigest() == FILTRATION_WIDE_ROWS_SHA256


def reference_words(k):
    """Every word of content k, sorted: the distinct arrangements of the
    multiset, built by choosing the first letter and recursing."""
    if not any(k):
        return [()]
    words = []
    for i, e in enumerate(k):
        if e:
            words.extend((i,) + w for w in reference_words(k[:i] + (e - 1,) + k[i + 1:]))
    return sorted(set(words))


PRIMES = [2, 3, 5, 7, 11, 13, 41, 67]


@st.composite
def word_rows(draw):
    """(n, p, k) with at most 2,000 words; one exponent may be long enough
    that a word does not fit one int64 code."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        k[draw(st.integers(0, n - 1))] = draw(st.integers(28, 70))
    assume(word_count(k) <= 2_000)
    return n, p, tuple(k)


@settings(max_examples=250, deadline=None)
@given(word_rows())
@example((2, 67, (66, 1)))  # 67 binary letters: 2^67 > 2^63
@example((3, 41, (1, 38, 1)))  # 40 ternary letters: 3^40 > 2^63
@example((4, 13, (0, 30, 1, 1)))  # 32 letters of base 4: 4^32 = 2^64
def test_rows_match_pure_python_references(row):
    n, p, k = row
    if n > 1 and n ** sum(k) > 2 ** 63:  # too long for one int64 code
        for build in (symmetrized_rows, nabla_power_rows):
            with pytest.raises(ValueError, match=f"{sum(k)} letters over n={n}"):
                next(build(n, p, [k]))
        return
    words = reference_words(k)
    scale = math.prod(math.factorial(e) for e in k) % p
    sym = word_dict(n, sum(k), join_row(symmetrized_rows(n, p, [k])))
    assert sym == ({code(w, n): scale for w in words} if scale else {})
    assert list(sym) == sorted(sym)
    composite = word_dict(n, sum(k), join_row(nabla_power_rows(n, p, [k])))
    reference = reference_nabla_power_row(n, p, k)
    assert list(composite.items()) == [(code(w, n), reference[w]) for w in sorted(reference)]


@st.composite
def grades(draw):
    """A grade of monomials (capped or not) with at most 4,000 words in all,
    and a batch size small enough to split it."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES))
    ell = draw(st.integers(0, 9))
    monomials = sym_basis(n, ell) if draw(st.booleans()) else grade_basis(n, p, ell)
    assume(sum(word_count(k) for k in monomials) <= 4_000)
    return n, p, monomials, draw(st.integers(1, 300))


def largest_entry(k):
    """The most words a row of content k holds behind one prefix of l // 2
    letters: the arrangements of the content that prefix leaves."""
    return max(word_count(tuple(a - b for a, b in zip(k, c)))
               for c in enumerate_box(k, sum(k) // 2))


@settings(max_examples=150, deadline=None)
@given(grades())
@example((2, 2, sym_basis(2, 3), 5))  # every row vanishes
@example((3, 3, sym_basis(3, 4), 2))  # vanishing and live rows in one batch
@example((2, 5, grade_basis(2, 5, 8), 7))  # the row (4, 4): 70 words, entries of at most 6
def test_grade_batches_equal_single_rows(grade):
    n, p, monomials, batch = grade
    with mock.patch.object(trunc_power, "BATCH_WORDS", batch):
        sym = list(symmetrized_rows(n, p, monomials))
        composite = list(nabla_power_rows(n, p, monomials))
    # Both streams cut every row into the same pieces, vanishing rows included.
    assert [(i, len(w)) for i, w, _ in sym] == [(i, len(w)) for i, w, _ in composite]
    largest = max((largest_entry(k) for k in monomials), default=0)
    for build, pieces in ((symmetrized_rows, sym), (nabla_power_rows, composite)):
        for _, words, coeffs in pieces:
            # A piece is a view into its batch, which holds at most `batch`
            # words unless one entry alone is larger.
            batch_words = words if words.base is None else words.base
            assert len(batch_words) <= max(batch, largest)
        # The pieces of each row join to the row built alone; a row with no
        # word is one empty piece, and no other piece is empty.
        rows = joined_rows(pieces)
        assert len(rows) == len(monomials)
        for k, (words, coeffs) in zip(monomials, rows):
            one_words, one_coeffs = join_row(build(n, p, [k]))
            assert np.array_equal(words, one_words) and np.array_equal(coeffs, one_coeffs)
        empty = [i for i, _, coeffs in pieces if not len(coeffs)]
        assert empty == [i for i, (_, coeffs) in enumerate(rows) if not len(coeffs)]
    for k, row in zip(monomials, joined_rows(composite)):
        reference = reference_nabla_power_row(n, p, k)
        assert list(word_dict(n, sum(k), row).items()) == [(code(w, n), reference[w])
                                                           for w in sorted(reference)]
