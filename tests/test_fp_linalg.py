import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncsym.fp_linalg import (
    FpMatrix,
    is_prime,
    mat_mul,
    rank,
    row_reduce,
    stack,
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


def test_stack_examples():
    empty = stack([], 5, cols=3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    assert rank(empty) == 0
    m = stack([FpMatrix([(1, 0), (0, 1)], 2), FpMatrix([(1, 1)], 2)], 2, cols=2)
    assert m.entries == ((1, 0), (0, 1), (1, 1))
    assert rank(m) == 2
    assert rank(stack([FpMatrix([(1, 2, 0)], 5), FpMatrix([(2, 4, 0)], 5)], 5, cols=3)) == 1
    with pytest.raises(ValueError):
        stack([FpMatrix([(1, 0)], 5), FpMatrix([(1,)], 5)], 5, cols=2)
    with pytest.raises(ValueError):
        stack([FpMatrix([(1, 0)], 5)], 3, cols=2)
    with pytest.raises(ValueError):
        FpMatrix([(1, 0), (1,)], 5)


def test_modulus_beyond_int64_products_refused():
    # (p-1)^2 >= 2^63: row reduction and products would wrap around in int64.
    p = 4294967311
    assert is_prime(p)
    with pytest.raises(ValueError):
        rank(FpMatrix([[p - 1, p - 1], [1, 1]], p))
    with pytest.raises(ValueError):
        FpMatrix([[p - 1]], p) @ FpMatrix([[p - 1]], p)


def test_mat_mul_exact_or_refused_by_inner_dimension():
    p = 2 ** 31 - 1
    # k * (p-1)^2 < 2^63 for k <= 2: exact, (p-1)^2 = 1 mod p.
    for k in (1, 2):
        a = FpMatrix([[p - 1] * k], p)
        assert mat_mul(a, a.transpose()).entries == ((k,),)
    a = FpMatrix([[p - 1] * 3], p)
    with pytest.raises(ValueError):
        mat_mul(a, a.transpose())


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
