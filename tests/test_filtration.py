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
from truncsym.trunc_power import symmetrized_tensor, trunc_rank

PAIRS = [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3)]


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


def layer_rows(n, p, ell):
    """The composite on the degree-ell layer: one word row per grade-basis monomial."""
    return {k: nabla_power_row(n, p, k) for k in grade_basis(n, p, ell)}


def test_nabla_power_small_values():
    assert layer_rows(2, 2, 2) == {(1, 1): {(0, 1): 1, (1, 0): 1}}
    assert layer_rows(1, 3, 2) == {(2,): {(0, 0): 2}}
    assert layer_rows(2, 3, 0) == {(0, 0): {(): 1}}


def test_nabla_power_matches_signed_symmetrization():
    for n, p in PAIRS:
        top = n * (p - 1)
        for ell in range(top + 1):
            sign = (-1) ** ell % p
            for k, row in layer_rows(n, p, ell).items():
                expected = {w: sign * c % p for w, c in symmetrized_tensor(k, p).items()}
                assert row == expected, (n, p, ell, k)


def test_nabla_power_full_row_rank():
    for n, p in [(2, 3), (3, 2), (2, 5)]:
        for ell in range(n * (p - 1) + 1):
            rows = list(layer_rows(n, p, ell).values())
            assert len(eliminate(rows, p)) == len(rows)


def test_nabla_power_is_stepwise_composition():
    # One more application of the connection extends the word on the right:
    # the first derivative taken sits in the rightmost slot.
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
                        word = w + (i,)
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
