import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncsym.scenario import format_rational
from truncsym.slopes import (
    SlopeData,
    curve_gap,
    equality_diagnosis,
    gap_lower_bound,
    graded_slope,
    instability_bound,
    layer_slopes,
    make_slope_data,
    pushforward_c1,
    pushforward_rank,
    pushforward_slope,
    weight_sum_check,
)
from truncsym.trunc_power import trunc_rank


def test_slope_data_validation():
    with pytest.raises(ValueError):
        make_slope_data(1, 4, 1, kh=0, mu_w=0)  # composite characteristic
    with pytest.raises(ValueError):
        make_slope_data(0, 2, 1, kh=0, mu_w=0)
    with pytest.raises(ValueError):
        make_slope_data(1, 2, 0, kh=0, mu_w=0)
    with pytest.raises(ValueError):
        make_slope_data(1, 2, 1, mu_w=0)  # no kh or g
    with pytest.raises(ValueError):
        make_slope_data(1, 2, 1, kh=2, g=2, mu_w=0)
    with pytest.raises(ValueError):
        make_slope_data(2, 2, 1, g=2, mu_w=0)  # genus only for curves
    with pytest.raises(ValueError):
        make_slope_data(1, 2, 1, kh=0)  # no mu or c1
    with pytest.raises(ValueError):
        make_slope_data(1, 2, 2, kh=0, mu_w=1, c1_wh=3)  # inconsistent pair
    with pytest.raises(ValueError, match="mutually exclusive"):
        make_slope_data(1, 3, 2, kh=2, mu_w=Fraction(1, 2), c1_wh=1)  # even a consistent one
    with pytest.raises(ValueError, match="must equal"):
        SlopeData(1, 2, 2, Fraction(0), Fraction(1), Fraction(3))  # built directly


def test_pushforward_examples():
    sd = make_slope_data(1, 2, 1, g=2, mu_w=0)
    assert pushforward_slope(sd) == Fraction(1, 2)
    assert pushforward_c1(sd) == 1
    assert pushforward_rank(sd) == 2

    sd = make_slope_data(2, 3, 1, kh=5, mu_w=1)
    assert pushforward_slope(sd) == 2

    sd = make_slope_data(3, 7, 2, kh=0, mu_w=Fraction(3, 4))
    assert pushforward_slope(sd) == Fraction(3, 28)

    sd = make_slope_data(2, 3, 1, kh=0, c1_wh=7)
    assert pushforward_c1(sd) == 21

    sd = make_slope_data(1, 3, 2, kh=2, c1_wh=0)
    assert pushforward_c1(sd) == 4


def test_pushforward_consistency_random():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5, 7])
        rk = rng.randint(1, 5)
        kh = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        sd = make_slope_data(n, p, rk, kh=kh, c1_wh=c1)
        mu = pushforward_slope(sd)
        assert p * mu == Fraction(p - 1, 2) * kh + sd.mu_w
        assert pushforward_c1(sd) == mu * pushforward_rank(sd)


def test_graded_slope():
    assert graded_slope(2, 3, 0, 4) == 0
    assert graded_slope(2, 3, 3, 4) == 6
    assert graded_slope(1, 3, 2, 2) == 4
    with pytest.raises(ValueError):
        graded_slope(2, 3, 5, 4)


def test_gap_examples():
    sd = make_slope_data(1, 3, 1, g=2, mu_w=0)
    assert gap_lower_bound(sd, (1, 1)) == Fraction(1, 3)
    # Full layer profile of the pushforward itself: palindromic, zero gap.
    full = tuple(trunc_rank(2, 3, ell) for ell in range(5))
    sd = make_slope_data(2, 3, 1, kh=7, mu_w=0)
    assert gap_lower_bound(sd, full) == 0
    # Profile supported below half degree with zero instabilities: non-negative.
    sd = make_slope_data(2, 2, 1, kh=3, mu_w=0)
    assert gap_lower_bound(sd, (2, 1)) >= 0


def test_gap_with_instabilities():
    sd = make_slope_data(1, 3, 1, g=2, mu_w=0)
    plain = gap_lower_bound(sd, (1, 1))
    damped = gap_lower_bound(sd, (1, 1), instabilities=(Fraction(1, 2), Fraction(1, 2)))
    # Instability term: (1/p) * (r_0 I_0 + r_1 I_1) / rk = (1/3) * 1 / 2.
    assert damped == plain - Fraction(1, 6)
    with pytest.raises(ValueError):
        gap_lower_bound(sd, (1, 1), instabilities=(Fraction(-1), 0))


def test_gap_validation():
    sd = make_slope_data(1, 3, 1, g=2, mu_w=0)
    with pytest.raises(ValueError):
        gap_lower_bound(sd, ())
    with pytest.raises(ValueError):
        gap_lower_bound(sd, (1, -1))
    with pytest.raises(ValueError):
        gap_lower_bound(sd, (1, 1, 1, 1))  # more entries than layers


def test_curve_gap_examples():
    assert curve_gap(2, 3, (1, 1)) == Fraction(1, 3)
    assert curve_gap(2, 3, (2, 2, 2)) == 0
    assert curve_gap(1, 5, (3, 1, 1)) == 0  # genus one kills the factor
    assert curve_gap(3, 2, (1,)) == 1


def test_curve_gap_matches_general_form():
    rng = random.Random(23)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        g = rng.randint(0, 6)
        profile = [rng.randint(1, 9)]
        for _ in range(rng.randint(0, p - 1)):
            profile.append(rng.randint(0, profile[-1]))
        sd = make_slope_data(1, p, 1, g=g, mu_w=0)
        assert curve_gap(g, p, profile) == gap_lower_bound(sd, profile)


def test_weight_sum_examples():
    assert weight_sum_check(1, 3, (1, 1, 1)) == ((), True, 0, 0)
    assert weight_sum_check(1, 3, (1, 1)) == ((), True, 2, 2)
    # Profile entirely below half degree: every weight is non-negative.
    _, _, direct2, rearranged2 = weight_sum_check(2, 3, (5, 3))
    assert direct2 == rearranged2 >= 0


def test_weight_sum_rearranged_equals_direct_always():
    # The reflected form is an algebraic identity, hypothesis or not.
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        top = n * (p - 1)
        profile = [rng.randint(0, 9) for _ in range(rng.randint(1, top + 1))]
        _, _, direct2, rearranged2 = weight_sum_check(n, p, profile)
        assert direct2 == rearranged2, (n, p, profile)


def test_weight_sum_flags_hypothesis_violation():
    # Top layer bigger than its mirror: sum can go negative, but is computed.
    _, hypothesis_ok, direct2, rearranged2 = weight_sum_check(1, 3, (0, 0, 5))
    assert not hypothesis_ok
    assert direct2 == rearranged2 == -10


def test_weight_sum_violation_modes():
    def violations(n, p, profile, mode="symmetric", rk_w=None):
        return weight_sum_check(n, p, profile, mode=mode, rk_w=rk_w)[0]

    assert violations(1, 3, (2, 1, 1), mode="monotone") == ()
    assert violations(1, 3, (1, 2), mode="monotone") != ()
    assert violations(2, 2, (1, 0, 1)) == ()
    assert violations(2, 2, (0, 0, 1)) != ()
    assert violations(1, 3, (1, 1, 1, 1)) != ()  # too long
    assert violations(1, 3, (-1,)) != ()
    with pytest.raises(ValueError):
        violations(1, 3, (1,), mode="bogus")
    # Layer-rank cap bound when the ambient rank is known.
    assert violations(2, 2, (1, 3, 1), rk_w=1) != ()
    assert violations(2, 2, (1, 2, 1), rk_w=1) == ()


def test_weight_sum_check_names_layer_ranks_outside_the_hypothesis():
    # With rk_w, violations name layer ranks too; the hypothesis verdict is
    # the one without rk_w.
    violations, hypothesis_ok, _, _ = weight_sum_check(2, 2, (1, 3, 1), rk_w=1)
    assert violations == ("r_1 = 3 exceeds layer rank 2",) and hypothesis_ok
    violations, hypothesis_ok, _, _ = weight_sum_check(2, 2, (1, 3, 2), rk_w=1)
    assert violations[-1] == "r_2 = 2 exceeds mirror r_0 = 1" and not hypothesis_ok
    rng = random.Random(12)
    for _ in range(3000):
        n, p, rk_w = rng.randint(1, 3), rng.choice([2, 3, 5]), rng.randint(1, 4)
        mode = rng.choice(["symmetric", "monotone"])
        profile = [rng.randint(0, 9) for _ in range(rng.randint(0, n * (p - 1) + 2))]
        violations, hypothesis_ok, *sums = weight_sum_check(n, p, profile, mode=mode, rk_w=rk_w)
        plain, plain_ok, *plain_sums = weight_sum_check(n, p, profile, mode=mode)
        assert set(plain) <= set(violations)
        assert all("layer rank" in issue for issue in set(violations) - set(plain))
        assert hypothesis_ok == plain_ok == (not plain)
        assert sums == plain_sums


def _reference_weight_sum_check(n, p, profile, mode, rk_w):
    """``weight_sum_check`` from its definition, layer by layer: whether the
    hypothesis holds, both doubled sums, and whether anything is worded."""
    top = n * (p - 1)
    r = [profile[ell] if ell < len(profile) else 0 for ell in range(top + 1)]
    hypothesis_ok = len(profile) <= top + 1 and all(x >= 0 for x in profile)
    if mode == "monotone":
        hypothesis_ok &= all(a >= b for a, b in zip(profile, profile[1:]))
    else:
        hypothesis_ok &= all(r[ell] <= r[top - ell] for ell in range(top + 1) if 2 * ell > top)
    direct2 = sum((top - 2 * ell) * x for ell, x in enumerate(profile))
    rearranged2 = sum((2 * ell - top) * (r[top - ell] - r[ell])
                      for ell in range(top + 1) if 2 * ell > top)
    over_rank = rk_w is not None and any(
        x > rk_w * trunc_rank(n, p, ell) for ell, x in enumerate(profile[:top + 1]))
    return hypothesis_ok, direct2, rearranged2, not hypothesis_ok or over_rank


def test_weight_sum_check_matches_its_definition():
    # Every profile of entries -1..2 and lengths 0..top+2 at n <= 2, p <= 3,
    # both modes, with and without layer ranks.
    for n, p, mode, rk_w in itertools.product((1, 2), (2, 3), ("symmetric", "monotone"),
                                              (None, 1, 2)):
        for length in range(n * (p - 1) + 3):
            for profile in itertools.product(range(-1, 3), repeat=length):
                violations, *verdict = weight_sum_check(n, p, profile, mode=mode, rk_w=rk_w)
                expected = _reference_weight_sum_check(n, p, profile, mode, rk_w)
                assert (*verdict, bool(violations)) == expected, (n, p, profile, mode, rk_w)


def test_weight_sum_check_orders_mixed_violations():
    # Where violations of different kinds meet: length and sign first (a
    # negative entry ends the checks), then layer ranks, then the mirror or
    # monotone rule.  The sums past the top layer are the direct form's alone.
    assert weight_sum_check(2, 2, (1, 3, 2, 0), rk_w=1) == (
        ("profile has 4 entries, more than 3 layers", "r_1 = 3 exceeds layer rank 2",
         "r_2 = 2 exceeds layer rank 1", "r_2 = 2 exceeds mirror r_0 = 1"), False, -2, -2)
    assert weight_sum_check(2, 2, (1, 3, -2, 0), rk_w=1) == (
        ("profile has 4 entries, more than 3 layers",
         "profile entries must be non-negative"), False, 6, 6)
    assert weight_sum_check(1, 3, (1, 3, 2, 1), mode="monotone", rk_w=1) == (
        ("profile has 4 entries, more than 3 layers", "r_1 = 3 exceeds layer rank 1",
         "r_2 = 2 exceeds layer rank 1", "profile not non-increasing at 1"), False, -6, -2)
    assert weight_sum_check(1, 3, (0, 0, 5), mode="monotone", rk_w=1) == (
        ("r_2 = 5 exceeds layer rank 1", "profile not non-increasing at 2"), False, -10, -10)
    mirrors = ("r_3 = 2 exceeds mirror r_1 = 1", "r_4 = 3 exceeds mirror r_0 = 0")
    assert weight_sum_check(2, 3, (0, 1, 4, 2, 3)) == (mirrors, False, -14, -14)
    assert weight_sum_check(2, 3, (0, 1, 4, 2, 3), rk_w=2) == (
        ("r_4 = 3 exceeds layer rank 2", *mirrors), False, -14, -14)


def test_instability_bound_examples():
    sd = make_slope_data(2, 3, 2, kh=1, mu_w=0)
    assert instability_bound(sd, Fraction(1, 2)) == 3
    sd = make_slope_data(1, 2, 1, kh=2, mu_w=0)
    assert instability_bound(sd, 1) == 1
    assert instability_bound(sd, 0) == 0
    with pytest.raises(ValueError):
        instability_bound(sd, -1)


def test_instability_bound_negative_kh_omitted():
    sd = make_slope_data(2, 3, 1, kh=-2, mu_w=0)
    assert instability_bound(sd, 1) is None


def test_equality_diagnosis():
    full = tuple(trunc_rank(2, 3, ell) for ell in range(5))
    # (full length, layers above the half degree that differ from their mirror)
    assert equality_diagnosis(2, 3, full) == (True, ())
    assert equality_diagnosis(2, 3, (1, 2, 3)) == (False, (3, 4))
    assert equality_diagnosis(2, 3, (1, 2, 3, 2, 2)) == (True, (4,))


def test_equality_diagnosis_matches_the_padded_profile():
    # Layer by layer against the profile padded with zeros to n(p-1)+1
    # entries (and cut there), every profile of entries 0..2 up to top+2.
    for n, p in ((1, 2), (1, 3), (2, 2), (1, 5), (2, 3)):
        top = n * (p - 1)
        for length in range(top + 3):
            for profile in itertools.product(range(3), repeat=length):
                full = [*profile[:top + 1], *[0] * (top + 1 - length)]
                expected = tuple(ell for ell in range(top + 1)
                                 if 2 * ell > top and full[ell] != full[top - ell])
                assert equality_diagnosis(n, p, profile) == (
                    length == top + 1 and full[-1] > 0, expected), (n, p, profile)


def test_equality_diagnosis_reads_only_the_profile():
    # A short profile at a large top degree builds nothing of the top degree's
    # size: the layers past the profile are zeros that are never written.
    tracemalloc.start()
    try:
        assert equality_diagnosis(1, 1_000_003, (1,)) == (False, (1_000_002,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_symmetric_profile_gap_nonnegative():
    rng = random.Random(99)
    for _ in range(1500):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        top = n * (p - 1)
        full = [0] * (top + 1)
        for ell in range(top + 1):
            full[ell] = rng.randint(0, 9) if 2 * ell <= top else rng.randint(0, full[top - ell])
        m = rng.randint(0, top)
        profile = full[: m + 1]
        if sum(profile) == 0:
            profile[0] = 1
        sd = make_slope_data(n, p, 3, kh=Fraction(rng.randint(0, 8), rng.randint(1, 3)),
                             mu_w=rng.randint(-3, 3))
        assert gap_lower_bound(sd, profile) >= 0, (n, p, profile)


# Rationals with denominators up to 6, negative values and zero included.
rationals = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6))


@st.composite
def slope_inputs(draw):
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    sd = make_slope_data(n, p, draw(st.integers(1, 4)), kh=draw(rationals), mu_w=draw(rationals))
    top = n * (p - 1)
    profile = draw(st.lists(st.integers(0, 9), min_size=1, max_size=top + 1))
    profile[0] += 1
    instabilities = draw(st.none() | st.lists(
        st.builds(Fraction, st.integers(0, 24), st.integers(1, 6)), max_size=top + 2))
    return sd, profile, instabilities


def _reference_weight_sums(n, p, profile):
    """Direct and reflected weighted sums, term by term in Fractions."""
    top = n * (p - 1)
    half = Fraction(top, 2)
    full = {ell: (profile[ell] if ell < len(profile) else 0) for ell in range(top + 1)}
    m = len(profile) - 1
    direct = sum(((half - ell) * r for ell, r in enumerate(profile)), Fraction(0))
    tail = sum(((ell - half) * full[top - ell] for ell in range(m + 1, top + 1)), Fraction(0))
    fold = sum(((ell - half) * (full[top - ell] - full[ell])
                for ell in range(top + 1) if ell > half and ell <= m), Fraction(0))
    return direct, tail + fold


@settings(max_examples=300, deadline=None)
@given(slope_inputs())
def test_slope_arithmetic_matches_fraction_reference(data):
    sd, profile, instabilities = data
    n, p, kh, mu = sd.n, sd.p, sd.kh, sd.mu_w
    row = [f"{a}/{b}" if b != 1 else str(a) for a, b in layer_slopes(sd)]
    assert row == [format_rational(mu + Fraction(ell) * kh / n) for ell in range(n * (p - 1) + 1)]
    assert all(graded_slope(n, p, ell, kh) == Fraction(ell) * kh / n
               for ell in range(n * (p - 1) + 1))
    assert pushforward_slope(sd) == (Fraction(p - 1, 2) * kh + mu) / p
    assert pushforward_c1(sd) == (Fraction(sd.rk_w * (p ** n - p ** (n - 1)), 2) * kh
                                  + p ** (n - 1) * sd.c1_wh)

    for prof in (profile, profile + [1, 2]):  # entries past the top still compute
        direct, rearranged = _reference_weight_sums(n, p, prof)
        _, _, direct2, rearranged2 = weight_sum_check(n, p, prof)
        assert (Fraction(direct2, 2), Fraction(rearranged2, 2)) == (direct, rearranged)

    rk = sum(profile)
    direct, _ = _reference_weight_sums(n, p, profile)
    inst = sum((r * i for r, i in zip(profile, instabilities or ())), Fraction(0))
    assert gap_lower_bound(sd, profile, instabilities) == kh / (n * p * rk) * direct - inst / (p * rk)
