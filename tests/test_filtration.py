import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from truncsym.filtration import (
    curve_report,
    filtration_basis,
    graded_nabla_matrix,
    nabla_power_rows,
)
from truncsym.fp_linalg import FpMatrix, eliminate, rank
from truncsym.monomial_box import grade_basis
from truncsym.suites import pair_grid
from truncsym import trunc_power
from truncsym.trunc_power import (
    sym_basis,
    symmetrized_rows,
    trunc_rank,
    word_count,
)

from reference import word_dict

PAIRS = [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3)]
# Rows whose words overflow one int64 code: 2^67 and 3^40 are >= 2^63.
WIDE_ROWS = [(2, 67, (66, 1)), (2, 67, (1, 66)), (3, 41, (38, 1, 1)), (3, 41, (1, 38, 1))]


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


def reference_nabla_power_row(n, p, k):
    """The composite by a pure-Python dict walk over (monomial, word) states,
    the newest letter leftmost: {word tuple: coefficient}."""
    states = {(k, ()): 1}
    for _ in range(sum(k)):
        nxt = {}
        for (m, w), c in states.items():
            for i in range(n):
                mi = m[i]
                if mi:
                    key = (m[:i] + (mi - 1,) + m[i + 1:], (i,) + w)
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
    return {k: word_dict(n, ell, row) for k, row in zip(basis, nabla_power_rows(n, p, basis))}


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
            for k, sym in zip(basis, symmetrized_rows(n, p, basis)):
                expected = {w: sign * c % p for w, c in word_dict(n, ell, sym).items()}
                assert composite[k] == expected, (n, p, ell, k)


def test_packed_rows_match_reference_walk():
    rows = [(n, p, k) for n, p in PAIRS for ell in range(n * (p - 1) + 1)
            for k in grade_basis(n, p, ell)]
    for n, p, k in rows + WIDE_ROWS:
        reference = {code(w, n): c for w, c in sorted(reference_nabla_power_row(n, p, k).items())}
        sign = (-1) ** sum(k) % p
        got_row = next(nabla_power_rows(n, p, [k]))
        sym_row = next(symmetrized_rows(n, p, [k]))
        got, expected = word_dict(n, sum(k), got_row), word_dict(n, sum(k), sym_row)
        assert got == reference, (n, p, k)
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
    # One more application of the connection extends the word on the right:
    # the first derivative taken sits in the rightmost slot, so the code of
    # the word w + (i,) is code(w) * n + i.
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
# side.  It pins every packed word and coefficient, not only the verdicts.
FILTRATION_WIDE_ROWS_SHA256 = "c745547e37e288e39ee13e3bde871d470af162a786f140c67ed160f0859d537d"


def test_filtration_wide_rows_digest():
    digest = hashlib.sha256()
    rows = 0
    for n, p in pair_grid((2, 3, 5, 7, 11), 243, 5):
        for ell in range(n * (p - 1) + 1):
            basis = grade_basis(n, p, ell)
            for k, *pair in zip(basis, nabla_power_rows(n, p, basis),
                                symmetrized_rows(n, p, basis)):
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
    that a word takes two int64 columns."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        k[draw(st.integers(0, n - 1))] = draw(st.integers(28, 70))
    assume(word_count(k) <= 2_000)
    return n, p, tuple(k)


@settings(max_examples=250, deadline=None)
@given(word_rows())
@example((2, 67, (66, 1)))  # two columns: 63 + 4 binary letters
@example((3, 41, (1, 38, 1)))  # 39 + 1 ternary letters
@example((4, 13, (0, 30, 1, 1)))  # 31 + 1 letters of base 4
def test_rows_match_pure_python_references(row):
    n, p, k = row
    words = reference_words(k)
    scale = math.prod(math.factorial(e) for e in k) % p
    sym = word_dict(n, sum(k), next(symmetrized_rows(n, p, [k])))
    assert sym == ({code(w, n): scale for w in words} if scale else {})
    assert list(sym) == sorted(sym)
    composite = word_dict(n, sum(k), next(nabla_power_rows(n, p, [k])))
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


@settings(max_examples=150, deadline=None)
@given(grades())
@example((2, 2, sym_basis(2, 3), 5))  # every row vanishes
@example((3, 3, sym_basis(3, 4), 2))  # vanishing and live rows in one batch
def test_grade_batches_equal_single_rows(grade):
    n, p, monomials, batch = grade
    with mock.patch.object(trunc_power, "BATCH_WORDS", batch):
        sym = list(symmetrized_rows(n, p, monomials))
        composite = list(nabla_power_rows(n, p, monomials))
    singles = [next(build(n, p, [k])) for build in (symmetrized_rows, nabla_power_rows)
               for k in monomials]
    assert len(sym + composite) == len(singles)
    for (words, coeffs), (one_words, one_coeffs) in zip(sym + composite, singles):
        assert np.array_equal(words, one_words) and np.array_equal(coeffs, one_coeffs)
        # A row is a view into its batch, which holds at most `batch` words
        # unless the row alone is larger.
        batch_words = words if words.base is None else words.base
        assert len(batch_words) <= max(batch, len(coeffs))
    for k, row in zip(monomials, composite):
        reference = reference_nabla_power_row(n, p, k)
        assert list(word_dict(n, sum(k), row).items()) == [(code(w, n), reference[w])
                                                           for w in sorted(reference)]
