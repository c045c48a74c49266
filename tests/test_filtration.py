import pytest

from truncsym.filtration import (
    curve_report,
    filtration_basis,
    graded_nabla_matrix,
    nabla,
    nabla_power_row,
)
from truncsym.fp_linalg import eliminate, rank
from truncsym.monomial_box import grade_basis
from truncsym.trunc_power import symmetrized_tensor, trunc_rank, word_count

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


def test_nabla_terms():
    terms = nabla((1, 1), 3)
    assert [(t.coeff, t.mono, t.direction) for t in terms] == [
        (2, (0, 1), 0),
        (2, (1, 0), 1),
    ]
    terms = nabla((3,), 5)
    assert [(t.coeff, t.mono, t.direction) for t in terms] == [(2, (2,), 0)]
    assert nabla((0, 0), 3) == []


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
    """A word read in base n, the key ``WordRow.to_dict`` gives it."""
    return sum(letter * n ** (len(word) - 1 - j) for j, letter in enumerate(word))


def layer_rows(n, p, ell):
    """The composite on the degree-ell layer: one {word code: coefficient} row
    per grade-basis monomial."""
    return {k: nabla_power_row(n, p, k).to_dict() for k in grade_basis(n, p, ell)}


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
            for k, row in layer_rows(n, p, ell).items():
                expected = {w: sign * c % p for w, c in symmetrized_tensor(k, p).to_dict().items()}
                assert row == expected, (n, p, ell, k)


def test_packed_rows_match_reference_walk():
    rows = [(n, p, k) for n, p in PAIRS for ell in range(n * (p - 1) + 1)
            for k in grade_basis(n, p, ell)]
    for n, p, k in rows + WIDE_ROWS:
        reference = {code(w, n): c for w, c in sorted(reference_nabla_power_row(n, p, k).items())}
        sign = (-1) ** sum(k) % p
        got = nabla_power_row(n, p, k)
        expected = symmetrized_tensor(k, p)
        assert got.to_dict() == reference, (n, p, k)
        assert list(got.to_dict()) == list(reference), (n, p, k)  # sorted words
        assert {w: sign * c % p for w, c in expected.to_dict().items()} == reference, (n, p, k)
        assert list(expected.to_dict()) == list(reference), (n, p, k)
        assert len(got) == len(expected) == word_count(k), (n, p, k)


def test_nabla_power_rejects_bad_input():
    with pytest.raises(ValueError, match="exponents"):
        nabla_power_row(3, 5, (1, 2))
    with pytest.raises(ValueError, match="too large"):
        nabla_power_row(1, 2 ** 62, (1,))


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


def test_direction_pairs_commute():
    # Applying the connection in direction i then j reaches each monomial
    # with the same coefficient as j then i (zero-curvature bookkeeping).
    p = 5
    for mono in [(2, 3), (4, 1), (1, 1, 2)]:
        order_coeffs = {}
        for t1 in nabla(mono, p):
            for t2 in nabla(t1.mono, p):
                key = (t1.direction, t2.direction, t2.mono)
                order_coeffs[key] = t1.coeff * t2.coeff % p
        for (i, j, m), c in order_coeffs.items():
            assert order_coeffs.get((j, i, m)) == c


def test_curve_reports():
    for p in (2, 3, 5, 7):
        report = curve_report(p)
        assert report.ok
        assert report.graded_entries == tuple((-ell) % p for ell in range(1, p))
        assert report.ideal_dims == tuple(p - ell for ell in range(p)) + (0,)
        assert report.filtration_length == p
