"""Exact rational arithmetic for pushforward slopes and stability bounds.

Everything here is plain algebra on exact rationals: the pushforward slope
and first Chern number of a bundle under the p-power map, the slopes of the
graded layers, and the lower bound on the slope gap of a subsheaf in terms
of its rank profile and the layer instabilities.  Geometric inputs (ranks,
slopes, canonical degree, per-layer instabilities) are supplied by the
caller; no floating point is used anywhere.  Sums are taken on integer
numerators over one common denominator, and a ``Fraction`` is built only for
a value that leaves a function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import gt, mul
from typing import Sequence

from .fp_linalg import is_prime
from .trunc_power import trunc_rank

Rational = Fraction | int

# Largest top degree n(p-1) accepted from a configuration or a scenario:
# slope sums materialize all n(p-1)+1 layers.  Checked before primality, so
# a p at or above fp_linalg.MILLER_RABIN_LIMIT is refused here: ``is_prime``
# raises ValueError for it, which would escape as a traceback.
TOP_DEGREE_LIMIT = 1000


@dataclass(frozen=True)
class SlopeData:
    """Numeric invariants of a rank-rk_w bundle on an n-fold in char p.

    kh is the canonical degree K.H^{n-1}; mu_w = c1_wh / rk_w is the slope.
    For curves (n = 1) kh equals 2g - 2.
    """

    n: int
    p: int
    rk_w: int
    kh: Fraction
    mu_w: Fraction
    c1_wh: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.rk_w < 1:
            raise ValueError("rank must be positive")
        mu, c1 = self.mu_w, self.c1_wh
        if mu.numerator * self.rk_w * c1.denominator != c1.numerator * mu.denominator:
            raise ValueError("mu_w must equal c1_wh / rk_w")


def make_slope_data(
    n: int,
    p: int,
    rk_w: int,
    kh: Rational | None = None,
    g: Rational | None = None,
    mu_w: Rational | None = None,
    c1_wh: Rational | None = None,
) -> SlopeData:
    """Build SlopeData from exactly one of kh / g and exactly one of mu_w / c1_wh."""
    if kh is None and g is None:
        raise ValueError("one of kh or g is required")
    if kh is not None and g is not None:
        raise ValueError("kh and g are mutually exclusive")
    if g is not None:
        if n != 1:
            raise ValueError("genus input requires n = 1")
        g = _fraction(g)
        kh = Fraction(2 * (g.numerator - g.denominator), g.denominator)
    kh = _fraction(kh)
    if rk_w < 1:  # before c1_wh / rk_w below
        raise ValueError("rank must be positive")
    if mu_w is None and c1_wh is None:
        raise ValueError("one of mu_w or c1_wh is required")
    if mu_w is not None and c1_wh is not None:
        raise ValueError("mu_w and c1_wh are mutually exclusive")
    if mu_w is not None:
        mu = _fraction(mu_w)
        return SlopeData(n, p, rk_w, kh, mu, Fraction(mu.numerator * rk_w, mu.denominator))
    c1 = _fraction(c1_wh)
    return SlopeData(n, p, rk_w, kh, Fraction(c1.numerator, c1.denominator * rk_w), c1)


def _fraction(x: Rational) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def pushforward_rank(sd: SlopeData) -> int:
    """rk of the pushforward: p^n times the rank."""
    return sd.p ** sd.n * sd.rk_w


def pushforward_slope(sd: SlopeData) -> Fraction:
    """mu of the pushforward: ((p-1)/2 * K.H^{n-1} + mu(W)) / p."""
    kh, mu = sd.kh, sd.mu_w
    return Fraction((sd.p - 1) * kh.numerator * mu.denominator + 2 * mu.numerator * kh.denominator,
                    2 * sd.p * kh.denominator * mu.denominator)


def pushforward_c1(sd: SlopeData) -> Fraction:
    """c1 of the pushforward against H^{n-1}:
    rk(W) (p^n - p^{n-1})/2 * K.H^{n-1} + p^{n-1} c1(W).H^{n-1}."""
    kh, c1 = sd.kh, sd.c1_wh
    q = sd.p ** (sd.n - 1)
    return Fraction(sd.rk_w * (sd.p - 1) * q * kh.numerator * c1.denominator
                    + 2 * q * c1.numerator * kh.denominator,
                    2 * kh.denominator * c1.denominator)


def graded_slope(n: int, p: int, ell: int, kh: Rational) -> Fraction:
    """Slope of the degree-ell graded layer bundle: ell * K.H^{n-1} / n."""
    if not 0 <= ell <= n * (p - 1):
        raise ValueError(f"degree {ell} outside [0, {n * (p - 1)}]")
    return Fraction(ell * kh.numerator, n * kh.denominator)


def layer_slopes(sd: SlopeData) -> list[tuple[int, int]]:
    """Slopes mu(W) + ell * K.H^{n-1} / n of the layers W (x) T^ell, for
    ell = 0..n(p-1), each as a (numerator, denominator) pair in lowest terms.

    The row is affine in ell: over one common denominator its numerator
    steps by the degree-1 layer slope, so each entry costs one addition and
    one gcd, and no Fraction is built per layer.
    """
    step = graded_slope(sd.n, sd.p, 1, sd.kh)
    mu = sd.mu_w
    den = mu.denominator * step.denominator
    num = mu.numerator * step.denominator
    inc = step.numerator * mu.denominator
    row = []
    for _ in range(sd.n * (sd.p - 1) + 1):
        g = gcd(num, den)
        row.append((num // g, den // g))
        num += inc
    return row


def _weighted_sum_twice(n: int, p: int, profile: Sequence[int]) -> int:
    """2 * sum over layers of (n(p-1)/2 - l) r_l, exactly in integers."""
    top = n * (p - 1)
    return sum(map(mul, range(top, top - 2 * len(profile), -2), profile))


def _subsheaf_rank(profile: Sequence[int], layers: int) -> int:
    """The subsheaf rank, the profile's total; refused unless it is positive,
    the entries are non-negative and there are at most ``layers`` of them."""
    rk = sum(profile)
    if rk <= 0:
        raise ValueError("subsheaf rank must be positive")
    if min(profile) < 0:  # not empty: rk > 0
        raise ValueError("profile entries must be non-negative")
    if len(profile) > layers:
        raise ValueError(f"profile has {len(profile)} entries, more than {layers} layers")
    return rk


def gap_lower_bound(
    sd: SlopeData,
    profile: Sequence[int],
    instabilities: Sequence[Rational] | None = None,
) -> Fraction:
    """Lower bound for mu(pushforward) - mu(subsheaf) from a rank profile.

    K.H^{n-1}/(n p rk) times the weighted sum of (n(p-1)/2 - l) r_l, minus
    1/(p rk) times the instability-weighted sum of the profile.  The profile
    entries total the subsheaf rank rk; instabilities are ints or Fractions.
    """
    rk = _subsheaf_rank(profile, sd.n * (sd.p - 1) + 1)
    # gap = KH W2 / (2 n p rk) - S / (p rk), where W2 is the doubled weighted
    # sum and S = sum r_l I_l = s / d over the instabilities' common d.
    kh_num, kh_den = sd.kh.numerator, sd.kh.denominator
    s, d = 0, 1
    if instabilities is not None:
        if any(i.numerator < 0 for i in instabilities):
            raise ValueError("instabilities must be non-negative")
        d = lcm(*(i.denominator for i in instabilities))
        s = sum(r * i.numerator * (d // i.denominator) for r, i in zip(profile, instabilities))
    return Fraction(kh_num * _weighted_sum_twice(sd.n, sd.p, profile) * d - 2 * sd.n * kh_den * s,
                    2 * sd.n * kh_den * d * sd.p * rk)


def curve_gap(g: Rational, p: int, profile: Sequence[int]) -> Fraction:
    """Curve specialization: (2g-2)/(p rk) times the sum of ((p-1)/2 - l) r_l,
    that is (g-1) times the sum of (p-1-2l) r_l over p rk.  Evaluated from
    the genus on its own, so it checks ``gap_lower_bound`` at n = 1."""
    g = _fraction(g)
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    rk = _subsheaf_rank(profile, p)
    weighted = sum((p - 1 - 2 * ell) * r for ell, r in enumerate(profile))
    return Fraction((g.numerator - g.denominator) * weighted, g.denominator * p * rk)


def weight_sum_check(
    n: int, p: int, profile: Sequence[int], mode: str = "symmetric", rk_w: int | None = None
) -> tuple[tuple[str, ...], bool, int, int]:
    """Evaluate the weighted sum both directly and in the reflected form.

    Returns ``(violations, hypothesis_ok, direct2, rearranged2)``.  The
    reflected form folds layers above the half degree onto their mirror
    images; under the symmetric (or monotone) profile hypothesis each of its
    terms is non-negative, which forces the direct sum to be non-negative.
    The two forms must agree identically for every profile.  Both are
    returned doubled, so that they are integers.

    ``violations`` are the profile's hypothesis checks, worded.  ``monotone``
    demands non-increasing ranks (the curve situation); ``symmetric`` demands
    r_l <= r_{N-l} for l above the half degree N/2.  Either way entries must
    be non-negative and at most n(p-1)+1 in number, and with rk_w they must
    fit under the layer ranks; an entry above its layer rank is named but is
    no part of the hypothesis that ``hypothesis_ok`` reports.  They come in
    that order: length and sign (a negative entry ends the checks), layer
    ranks, then the mirror or monotone rule.  One loop over the upper half
    gives the reflected form and words each layer above its mirror.
    """
    if mode not in ("symmetric", "monotone"):
        raise ValueError(f"unknown profile mode {mode!r}")
    top = n * (p - 1)
    m = len(profile)
    # The reflected form: (2l - top)(r_{top-l} - r_l) summed over the layers
    # l above the half degree, whose weights 2l - top run from 1 or 2 up to
    # top.  The mirrors' terms are one sum, top - 2j against r_j, which the
    # profile's end cuts short; a layer past the profile weighs in through
    # its mirror alone, and exceeds nothing.  The loop over the layers
    # present subtracts theirs and words any layer above its mirror.
    rearranged2 = sum(map(mul, range(top, 0, -2), profile))
    above: tuple[str, ...] = ()
    for ell in range(top // 2 + 1, min(m, top + 1)):
        r = profile[ell]
        if r > profile[top - ell]:
            above += (f"r_{ell} = {r} exceeds mirror r_{top - ell} = {profile[top - ell]}",)
        rearranged2 -= (2 * ell - top) * r
    direct2 = _weighted_sum_twice(n, p, profile)
    issues: tuple[str, ...] = ()
    if m > top + 1:
        issues = (f"profile has {m} entries, more than {top + 1} layers",)
    if profile and min(profile) < 0:
        return (*issues, "profile entries must be non-negative"), False, direct2, rearranged2
    if rk_w is not None and profile and max(profile) > rk_w:
        # Every layer has rank at least 1, so only an entry above rk_w needs
        # its layer's rank.
        for ell, r in enumerate(profile[:top + 1]):
            if r > rk_w and r > (cap := rk_w * trunc_rank(n, p, ell)):
                issues += (f"r_{ell} = {r} exceeds layer rank {cap}",)
    # A non-increasing profile has no layer above its mirror; a monotone
    # profile that increases is worded by its own rule alone.
    if mode == "monotone" and any(map(gt, profile[1:], profile)):
        ell = next(ell for ell in range(1, m) if profile[ell] > profile[ell - 1])
        above = (f"profile not non-increasing at {ell}",)
    return issues + above, m <= top + 1 and not above, direct2, rearranged2


def instability_bound(sd: SlopeData, iwx: Rational) -> Fraction | None:
    """p^{n-1} rk(W) times the maximal layer instability, or None when the
    canonical-degree hypothesis K.H^{n-1} >= 0 fails and no bound is asserted."""
    iwx = _fraction(iwx)
    if iwx.numerator < 0:
        raise ValueError("instability must be non-negative")
    if sd.kh.numerator < 0:
        return None
    return sd.p ** (sd.n - 1) * sd.rk_w * iwx


def equality_diagnosis(n: int, p: int, profile: Sequence[int]) -> tuple[bool, tuple[int, ...]]:
    """Necessary conditions for a zero gap with positive canonical degree:
    the profile must reach the top layer and have mirror-symmetric ranks.
    Returns whether it reaches the top layer, and the layers above the half
    degree whose rank differs from their mirror's (none when symmetric)."""
    top = n * (p - 1)
    m = len(profile)
    full_length = m == top + 1 and profile[-1] > 0
    # Each layer above top/2 against its mirror j, for the mirrors that the
    # profile holds: a layer past the profile is 0, and so is a pair past it.
    return full_length, tuple(top - j for j in reversed(range(min(m, (top + 1) // 2)))
                              if (profile[top - j] if top - j < m else 0) != profile[j])
