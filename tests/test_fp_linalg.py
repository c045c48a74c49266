import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncsym.fp_linalg import (
    FpMatrix,
    is_prime,
    mat_mul,
    rank,
    row_reduce,
    span_dim,
)


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix([[1]], 4)
    with pytest.raises(ValueError):
        FpMatrix([[1]], 6)
    with pytest.raises(ValueError):
        FpMatrix([[1]], 1)


def test_rank_proportional_rows():
    _, r = row_reduce(FpMatrix([[1, 2], [2, 4]], 5))
    assert r == 1


def test_rank_identity_mod3():
    assert rank(FpMatrix.identity(3, 3)) == 3


def test_rank_unit_determinant_mod2():
    # det = 1*2 - 1*1 = 1, nonzero mod 2
    assert rank(FpMatrix([[1, 1], [1, 2]], 2)) == 2


def test_rref_shape_and_pivots():
    rref, r = row_reduce(FpMatrix([[0, 2, 4], [1, 1, 1]], 5))
    assert r == 2
    # Leading entries normalized to 1, pivot columns cleared.
    assert rref.entries == ((1, 0, 4), (0, 1, 2))


def test_span_dim_examples():
    assert span_dim([], 5) == 0
    assert span_dim([(1, 0), (0, 1), (1, 1)], 2) == 2
    assert span_dim([(1, 2, 0), (2, 4, 0)], 5) == 1
    with pytest.raises(ValueError):
        span_dim([(1, 0), (1,)], 5)


def test_mat_mul_and_zero_matrix():
    a = FpMatrix([[1, 2], [0, 1]], 3)
    b = FpMatrix([[1, 0], [1, 1]], 3)
    assert mat_mul(a, b).entries == ((0, 2), (1, 1))
    assert FpMatrix.zeros(2, 3, 5).is_zero()
    with pytest.raises(ValueError):
        mat_mul(a, FpMatrix([[1]], 3))
    with pytest.raises(ValueError):
        mat_mul(a, FpMatrix([[1, 0], [0, 1]], 5))


def test_empty_matrix_needs_cols():
    m = FpMatrix([], 3, cols=4)
    assert (m.nrows, m.ncols) == (0, 4)
    assert rank(m) == 0
    with pytest.raises(ValueError):
        FpMatrix([], 3)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return FpMatrix(rows, p)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_row_reduce_idempotent(m):
    rref, r = row_reduce(m)
    again, r2 = row_reduce(rref)
    assert r == r2
    assert again == rref


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=200, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rnd):
    rows = [list(r) for r in m.entries]
    rnd.shuffle(rows)
    scaled = []
    for row in rows:
        c = rnd.randrange(1, m.modulus)
        scaled.append([c * x % m.modulus for x in row])
    assert rank(FpMatrix(scaled, m.modulus)) == rank(m)
