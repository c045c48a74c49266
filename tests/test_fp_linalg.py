import copy
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncsym.fp_linalg import (
    MILLER_RABIN_LIMIT,
    FpMatrix,
    eliminate,
    is_prime,
    mat_mul,
    rank,
    row_reduce,
)
from truncsym.trunc_power import symmetrization_matrix, trunc_rank

from reference import dense_matrix, reference_rref

# 3037000493 is the largest prime p with (p-1)^2 < 2^63, the largest modulus
# the word rows' int64 coefficients allow and so the largest FpMatrix accepts.
ORACLE_PRIMES = [2, 3, 5, 7, 2 ** 31 - 1, 3037000493]


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_sieve_below_1e5():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for f in range(2, int(limit ** 0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytearray(len(range(f * f, limit, f)))
    assert [n for n in range(-3, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_on_pseudoprimes_and_large_primes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    # Strong pseudoprimes to the first 4 and the first 9 prime bases.
    strong = [3215031751, 3825123056546413051]
    assert not any(is_prime(n) for n in carmichael + strong)
    primes = [2 ** 31 - 1, 3037000493, 304250263527209, 10 ** 18 + 3, 2 ** 61 - 1,
              2 ** 63 - 25, 2 ** 64 - 59]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(p * q) for p, q in [(2 ** 31 - 1, 3037000493), (2 ** 61 - 1, 65537),
                                                 (2 ** 31 - 1, 2 ** 31 - 1)])
    t0 = time.perf_counter()
    for n in (MILLER_RABIN_LIMIT, 10 ** 30 + 57, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="primality bound"):
            is_prime(n)
    assert time.perf_counter() - t0 < 1.0
    assert not is_prime(MILLER_RABIN_LIMIT - 1)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FpMatrix([{0: 1}], 4, 1)
    with pytest.raises(ValueError):
        FpMatrix([{0: 1}], 6, 1)
    with pytest.raises(ValueError):
        FpMatrix([{0: 1}], 1, 1)


def test_huge_prime_modulus_refused_at_once():
    # 10^18 + 3 is prime, but (p-1)^2 overflows int64: the size test
    # refuses it before any primality test.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        FpMatrix([{0: 1}], 10 ** 18 + 3, 1)
    assert time.perf_counter() - t0 < 1.0


def test_rank_proportional_rows():
    _, r = row_reduce(dense_matrix([[1, 2], [2, 4]], 5))
    assert r == 1 == rank(dense_matrix([[1, 2], [2, 4]], 5))
    assert eliminate([{0: 1, 1: 2}, {0: 2, 1: 4}], 5) == {0: {0: 1, 1: 2}}


def test_eliminate_takes_entries_mod_p():
    # Labels only need to compare; entries that vanish mod p lead no pivot.
    pivots = eliminate([{(1, 0): 5, (0, 1): 7}, {(0, 1): 2}, {(1, 1): 10}, {}], 5)
    assert pivots == {(0, 1): {(0, 1): 1}}
    assert len(eliminate([{0: 2, 1: 1}, {0: 1}, {0: 4, 1: 2}], 2)) == 2


def test_rank_identity_mod3():
    assert rank(dense_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)) == 3


def test_rank_unit_determinant_mod2():
    # det = 1*2 - 1*1 = 1, nonzero mod 2
    assert rank(dense_matrix([[1, 1], [1, 2]], 2)) == 2


def test_rref_shape_and_pivots():
    rref, r = row_reduce(dense_matrix([[0, 2, 4], [1, 1, 1]], 5))
    assert r == 2 == rank(dense_matrix([[0, 2, 4], [1, 1, 1]], 5))
    # Leading entries normalized to 1, pivot columns cleared.
    assert rref.entries == ((1, 0, 4), (0, 1, 2))
    # Pivot rows keyed by their leading column and normalized to lead with 1;
    # the later pivot columns are not cleared from earlier rows.
    assert eliminate([{1: 2, 2: 4}, {0: 1, 1: 1, 2: 1}], 5) == {1: {1: 1, 2: 2},
                                                                0: {0: 1, 1: 1, 2: 1}}
    # With the width given, elimination stops at full rank: the third row,
    # which would raise at its first read, is never reached.
    def rows():
        yield {0: 1}
        yield {1: 3}
        raise AssertionError("read past full rank")
    assert eliminate(rows(), 5, width=2) == {0: {0: 1}, 1: {1: 1}}


def test_sparse_rows_reduced_and_columns_in_range():
    # Entries are taken mod p and the zeros dropped; the dense view pads them.
    m = FpMatrix([{2: 7, 0: 5}, {}, {1: 10}], 5, 3)
    assert m.rows == ({2: 2}, {}, {}) and (m.nrows, m.ncols) == (3, 3)
    assert m.entries == ((0, 0, 2), (0, 0, 0), (0, 0, 0))
    assert m == dense_matrix([[5, 0, 7], [0, 0, 0], [0, 10, 0]], 5)
    assert m == FpMatrix([{2: 2}, {}, {}], 5, 3)
    assert m != FpMatrix([{2: 2}, {}, {}], 5, 4) and m != FpMatrix([{2: 2}, {}, {}], 7, 3)
    for row in ({3: 1}, {-1: 1}, {0: 1, 2: 1}):
        with pytest.raises(ValueError, match="column outside"):
            FpMatrix([{0: 1}, row], 5, 2)
    with pytest.raises(ValueError, match="column outside"):
        dense_matrix([(1, 0), (1, 0, 1)], 5)


def test_modulus_beyond_int64_products_refused():
    # (p-1)^2 >= 2^63: the word rows' int64 coefficient products would wrap
    # around, and a matrix refuses the same moduli.
    p = 4294967311
    assert is_prime(p)
    with pytest.raises(ValueError, match="too large"):
        dense_matrix([[p - 1, p - 1], [1, 1]], p)


def test_mat_mul_exact_at_any_inner_dimension():
    # (p-1)^2 = 1 mod p, so a row of k entries p-1 times its column gives k.
    # The products are Python ints: exact also where k (p-1)^2 >= 2^63.
    for p in (2 ** 31 - 1, 3037000493):
        for k in (1, 2, 3, 50):
            a = dense_matrix([[p - 1] * k], p)
            column = dense_matrix([[p - 1]] * k, p)
            assert mat_mul(a, column).entries == ((k % p,),)


def test_mat_mul_and_zero_matrix():
    a = dense_matrix([[1, 2], [0, 1]], 3)
    b = dense_matrix([[1, 0], [1, 1]], 3)
    assert mat_mul(a, b).entries == ((0, 2), (1, 1))
    # Entries that cancel mod p leave no nonzero row.
    assert not any(mat_mul(dense_matrix([[1, 2]], 3), dense_matrix([[1], [1]], 3)).rows)
    with pytest.raises(ValueError):
        mat_mul(a, dense_matrix([[1]], 3))
    with pytest.raises(ValueError):
        mat_mul(a, dense_matrix([[1, 0], [0, 1]], 5))


def test_empty_matrix_needs_cols():
    m = FpMatrix([], 3, cols=4)
    assert (m.nrows, m.ncols) == (0, 4)
    assert rank(m) == 0 and m.entries == ()
    assert row_reduce(m) == (m, 0)
    assert m != FpMatrix([], 3, cols=5)


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
    return dense_matrix(rows, p)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_row_reduce_idempotent(m):
    rref, r = row_reduce(m)
    again, r2 = row_reduce(rref)
    assert r == r2
    assert again == rref


@settings(max_examples=200, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rnd):
    rows = [list(r) for r in m.entries]
    rnd.shuffle(rows)
    scaled = []
    for row in rows:
        c = rnd.randrange(1, m.modulus)
        scaled.append([c * x % m.modulus for x in row])
    assert rank(dense_matrix(scaled, m.modulus)) == rank(m)


@st.composite
def oracle_rows(draw):
    """Rows over a prime up to the largest accepted modulus; entries lean to
    0, 1 and p-1, and some rows are combinations of earlier ones, so ranks
    below full occur at every modulus."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(0, 2), st.integers(p - 2, p - 1), st.integers(0, p - 1))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, p


@settings(max_examples=300, deadline=None)
@given(oracle_rows())
def test_rank_and_rref_match_reference_elimination(case):
    rows, p = case
    expected_rref, expected_rank = reference_rref(rows, p)
    ncols = len(rows[0])
    m = dense_matrix(rows, p)
    rref, r = row_reduce(m)
    assert r == expected_rank == rank(m)
    assert rref.entries == tuple(tuple(row) for row in expected_rref)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    for pivots in (eliminate(sparse, p), eliminate(sparse, p, width=ncols)):
        assert len(pivots) == expected_rank
        dense = [[row.get(j, 0) for j in range(ncols)] for row in pivots.values()]
        # Each pivot row leads with 1 at its key, and the pivot rows span the
        # row space of the input: they have its reduced echelon form.
        assert all(row[key] == 1 and min(row) == key for key, row in pivots.items())
        assert reference_rref(dense, p)[0] == expected_rref[:expected_rank]


@settings(max_examples=300, deadline=None)
@given(oracle_rows(), st.integers(0, 6))
def test_eliminate_extends_a_starting_span(case, k):
    # Pivots of the first k rows, extended by the rest, span all the rows;
    # the starting pivots are left as they were.
    rows, p = case
    ncols = len(rows[0])
    expected_rref, expected_rank = reference_rref(rows, p)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    start = eliminate(sparse[:k], p, ncols)
    before = copy.deepcopy(start)
    pivots = eliminate(sparse[k:], p, ncols, start)
    assert start == before
    assert len(pivots) == expected_rank
    dense = [[row.get(j, 0) for j in range(ncols)] for row in pivots.values()]
    assert reference_rref(dense, p)[0] == expected_rref[:expected_rank]


def test_eliminate_from_a_full_start_reads_no_rows():
    def unread():
        raise AssertionError("a row was read")
        yield {}

    full = eliminate([{0: 1, 1: 2}, {1: 1}], 3, 2)
    assert eliminate(unread(), 3, 2, full) == full
    assert eliminate(unread(), 3, 0) == {}


def test_symmetrization_rank_matches_reference_elimination():
    for n, p in [(1, 5), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3)]:
        for ell in range(n * (p - 1) + 2):
            rows = symmetrization_matrix(n, p, ell)
            words = sorted(set().union(*rows))
            dense = [[row.get(w, 0) for w in words] for row in rows]
            expected = reference_rref(dense, p)[1] if words else 0
            assert len(eliminate(rows, p)) == expected == trunc_rank(n, p, ell), (n, p, ell)
