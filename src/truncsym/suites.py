"""Parameterized verification suites with deterministic machine-readable reports.

Each claim is checked by one generator of ``(key, ok, detail)`` cases over
a grid it is given; a suite feeds one or more claims the grid derived from
the configuration, collects failures with witnesses, and reports counts.  Given the same configuration and seed
the report is byte-identical apart from the ``timings`` subtree; case
ordering is canonical (sorted grids, sequential seeded draws), so the
contract holds regardless of how the suites are scheduled.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb
from typing import Generator

import numpy as np

from . import __version__
from . import filtration as filt
from . import monomial_box as boxes
from . import slopes as slp
from . import trunc_algebra as alg
from . import trunc_power as tp
from .fp_linalg import eliminate, is_prime, rank, row_reduce
from .seeded import _randint

ALL_SUITES = ("filtration", "growth", "koszul", "matching", "ranks", "slopes")

# Hard ceiling on the matching sweep (box counts grow fast past this).
SIGMA_LIMIT = 12
# The matching sweep visits every caps vector of length 1..n with total at
# most sigma: sum_k C(k + sigma, sigma) = C(n + sigma + 1, sigma + 1) - 1 of
# them.  At sigma = 12 that is 8,567 for n = 5, 77,519 for n = 7 and 203,489
# for n = 8; a configuration above this limit is refused.
MATCHING_CAPS_LIMIT = 120_000
# Koszul ranks involve the full symmetric algebra; keep those grids smaller.
KOSZUL_VOLUME_LIMIT = 64
# The composite check skips a row with more words than this.  Every row of the
# pairs with p^n <= 243 is within it: the largest is the (12, 12) row of
# (2, 13), C(24,12) = 2,704,156 words.
ROW_WORD_LIMIT = 3_000_000
# Coordinate-subspace sweeps are exhaustive over subsets; bound the exponent.
COORD_DIM_LIMIT = 10

_FAILURE_RECORD_LIMIT = 25


class ConfigError(ValueError):
    """Invalid suite configuration (reported before any computation)."""


@dataclass(frozen=True)
class SuiteConfig:
    n_max: int = 3
    primes: tuple[int, ...] = (2, 3, 5)
    max_sigma: int = 12
    matching_n_max: int = 4
    random_subspaces_per_grade: int = 100
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES
    volume_limit: int = 243

    def validate(self) -> None:
        problems = []
        if self.n_max < 1:
            problems.append(f"n_max must be >= 1, got {self.n_max}")
        if not self.primes:
            problems.append("primes must be non-empty")
        elif (top := max(self.n_max, 1) * (max(self.primes) - 1)) > slp.TOP_DEGREE_LIMIT:
            problems.append(
                f"top degree n_max*(max(primes)-1) = {top} exceeds {slp.TOP_DEGREE_LIMIT}")
        else:
            problems.extend(f"{p} is not prime" for p in self.primes if not is_prime(p))
        if not 0 <= self.max_sigma <= SIGMA_LIMIT:
            problems.append(f"max_sigma must be in [0, {SIGMA_LIMIT}], got {self.max_sigma}")
        if self.matching_n_max < 1:
            problems.append(f"matching_n_max must be >= 1, got {self.matching_n_max}")
        elif "matching" in self.suites and 0 <= self.max_sigma <= SIGMA_LIMIT:
            caps = comb(self.matching_n_max + self.max_sigma + 1, self.max_sigma + 1) - 1
            if caps > MATCHING_CAPS_LIMIT:
                problems.append(f"the matching sweep would visit {caps} caps vectors, "
                                f"above the limit {MATCHING_CAPS_LIMIT}")
        if self.random_subspaces_per_grade < 0:
            problems.append("random_subspaces_per_grade must be >= 0")
        if self.volume_limit < 2:
            problems.append("volume_limit must be >= 2")
        unknown = sorted(set(self.suites) - set(ALL_SUITES))
        if not self.suites:
            problems.append("suites must be non-empty")
        elif unknown:
            problems.append(f"unknown suites: {', '.join(unknown)}")
        if problems:
            raise ConfigError("; ".join(problems))


Case = tuple[str, bool, str]
Cases = Generator[Case, None, dict | None]


def collect(cases: Cases) -> dict:
    """Drain a case generator into a suite's report entry: its verdict, case
    count, first failures by case key, failure count, and stats (the
    generator's return value)."""
    count = 0
    failures = []
    while True:
        try:
            key, ok, detail = next(cases)
        except StopIteration as stop:
            stats = stop.value or {}
            break
        count += 1
        if not ok:
            failures.append({"case": key, "detail": detail})
    return {
        "passed": not failures,
        "cases": count,
        "failures": sorted(failures, key=lambda f: f["case"])[:_FAILURE_RECORD_LIMIT],
        "failure_count": len(failures),
        "stats": stats,
    }


def pair_grid(primes, volume_limit: int, n_max: int | None = None) -> list[tuple[int, int]]:
    """The (n, p) pairs with p^n <= volume_limit (and n <= n_max), by p then n."""
    pairs = []
    for p in sorted(set(primes)):
        n = 1
        while p ** n <= volume_limit and (n_max is None or n <= n_max):
            pairs.append((n, p))
            n += 1
    return pairs


# Each claim is one generator of (key, ok, detail) cases over the grid it is
# given; it returns its stats (or None).  The suites below and the acceptance
# tests feed these same generators their own grids.  They are module-private
# because perfbench's tracer wraps public generator functions in a way that
# drops their return values.

def _rank_cases(pairs) -> Cases:
    """Closed-form rank = enumeration = inclusion-exclusion = symmetrization
    rank, mirror symmetry, weight sums, the two-variable form, total p^n."""
    table = {}
    for n, p in pairs:
        top = n * (p - 1)
        total = 0
        for ell in range(top + 1):
            basis = boxes.grade_basis(n, p, ell)
            formula = tp.trunc_rank(n, p, ell)
            counted = boxes.box_size((p - 1,) * n, ell)
            mrank = len(eliminate(tp.symmetrization_matrix(n, p, ell), p))
            problems = []
            if formula != len(basis):
                problems.append(f"formula {formula} != enumeration {len(basis)}")
            if counted != len(basis):
                problems.append(f"inclusion-exclusion {counted} != enumeration {len(basis)}")
            if mrank != len(basis):
                problems.append(f"matrix rank {mrank} != enumeration {len(basis)}")
            if formula != tp.trunc_rank(n, p, top - ell):
                problems.append("mirror symmetry fails")
            if not tp.degree_weight_check(n, p, ell):
                problems.append("degree weight sums off")
            if n == 2 and tp.gl2_dim(p, ell) != formula:
                problems.append("two-variable closed form disagrees")
            yield f"n={n} p={p} l={ell}", not problems, "; ".join(problems)
            total += len(basis)
        yield (f"n={n} p={p} total", total == p ** n,
               f"dimensions total {total}, expected {p ** n}")
        table[f"n={n} p={p}"] = [tp.trunc_rank(n, p, ell) for ell in range(top + 1)]
    return {"rank_table": table}


def _koszul_cases(pairs) -> Cases:
    """Exactness of the resolution and its cokernel dimension."""
    for n, p in pairs:
        # One degree beyond the top exercises the vanishing cokernel.
        for ell in range(n * (p - 1) + 2):
            failure = tp.verify_koszul_exact(n, p, ell)
            yield f"n={n} p={p} l={ell}", failure is None, failure or ""
    return {"pairs": [f"n={n} p={p}" for n, p in pairs]}


def _matching_cases(caps_vectors) -> Cases:
    """The dominance matching up to half degree, checked and cross-checked by
    the Hall oracle; above half degree both must refuse."""
    caps_count = matched = boundary = 0
    for caps, failures, oracle in boxes.matching_sweep(caps_vectors):
        caps_count += 1
        sigma = sum(caps)
        name = ",".join(map(str, caps))
        for ell, failure in enumerate(failures):
            matched += 1
            if failure is None and oracle[ell]:
                yield f"caps={name} l={ell}", True, ""
                continue
            detail = [] if failure is None else [failure]
            if not oracle[ell]:
                detail.append("oracle denies a matching the construction produced")
            yield f"caps={name} l={ell}", False, "; ".join(detail)
        # Above half the cap total no dominance matching can exist on the
        # (non-empty) box, and the constructor must refuse the degree.
        for ell in range(sigma // 2 + 1, sigma + 1):
            boundary += 1
            problems = []
            if oracle[ell]:
                problems.append("oracle found a matching above half degree")
            try:
                boxes.dominance_matching(caps, ell)
                problems.append("construction accepted a degree above half")
            except ValueError:
                pass
            yield f"caps={name} l={ell} (boundary)", not problems, "; ".join(problems)
    return {"caps_vectors": caps_count, "boundary_cases": boundary, "matched_cases": matched}


def _pairing_cases(pairs) -> Cases:
    """Multiplication against the top monomial is invertible on every grade:
    the pairing matrix is square of full rank, so it row-reduces to the
    identity."""
    for n, p in pairs:
        for ell in range(n * (p - 1) + 1):
            m = alg.omega_pairing_matrix(n, p, ell)
            _, r = row_reduce(m)
            yield (f"pairing n={n} p={p} l={ell}", r == m.nrows == m.ncols,
                   f"pairing matrix {m.nrows}x{m.ncols} rank {r}")


def _growth_cases(pairs, rng: random.Random, per_grade: int) -> Cases:
    """Upper-half subspace growth on every coordinate subspace of grades of
    dimension <= COORD_DIM_LIMIT, then on per_grade seeded random subspaces."""
    coordinate_cases = 0
    random_cases = 0
    for n, p in pairs:
        top = n * (p - 1)
        for ell in range((top + 1) // 2, top + 1):
            dim = len(boxes.grade_basis(n, p, ell))
            if dim <= COORD_DIM_LIMIT:
                for idxs, sub in alg.coordinate_subspaces(n, p, ell):
                    image = alg.spanned_image_dim(sub)
                    ok = sub.dim <= image
                    coordinate_cases += 1
                    yield (f"coord n={n} p={p} l={ell} set={idxs}", ok,
                           "" if ok else f"dim {sub.dim} > image {image}")
            for j in range(per_grade):
                target_dim = _randint(rng, 1, dim) if dim else 0
                sub = alg.GradedSubspace.random(n, p, ell, target_dim, rng)
                image = alg.spanned_image_dim(sub)
                ok = sub.dim <= image
                random_cases += 1
                yield (f"random n={n} p={p} l={ell} i={j}", ok,
                       "" if ok else f"dim {sub.dim} > image {image}; "
                                     f"basis {sub.basis.entries}")
    return {"coordinate_subspaces": coordinate_cases, "random_subspaces": random_cases}


def _filtration_cases(pairs) -> Cases:
    """Layer dimensions, graded-map injectivity, the composite = signed
    symmetrization identity row by row, and the single-variable reports.

    A composite row with more than ROW_WORD_LIMIT words is skipped and named
    in the ``skipped_word_checks`` stat; a layer with no row left gets no case.
    """
    skipped = []
    for n, p in pairs:
        top = n * (p - 1)
        # dims[ell] = len(filtration_basis(n, p, ell)): the grade sizes from
        # ell up, summed from the top down.
        dims = [0] * (top + 2)
        for ell in range(top, -1, -1):
            dims[ell] = dims[ell + 1] + len(boxes.grade_basis(n, p, ell))
        for ell in range(top + 1):
            yield (f"layer-dim n={n} p={p} l={ell}",
                   dims[ell] - dims[ell + 1] == tp.trunc_rank(n, p, ell),
                   f"{dims[ell]} - {dims[ell + 1]} != rank {tp.trunc_rank(n, p, ell)}")
        for ell in range(1, top + 1):
            m = filt.graded_nabla_matrix(n, p, ell)
            r = rank(m)
            yield f"graded-injective n={n} p={p} l={ell}", r == m.nrows, f"rank {r} < {m.nrows}"
        for ell in range(top + 1):
            rows, counts = [], []
            for k in boxes.grade_basis(n, p, ell):
                words = tp.word_count(k)
                if words > ROW_WORD_LIMIT:
                    skipped.append(f"n={n} p={p} k={k} ({words} words)")
                else:
                    rows.append(k)
                    counts.append(words)
            if not rows:
                continue
            sign = (-1) ** ell % p
            bad = None
            composite = filt.nabla_power_rows(n, p, rows)
            for k, words, (sym_words, sym_coeffs) in zip(rows, counts,
                                                         tp.symmetrized_rows(n, p, rows)):
                # The same sorted words, all word_count(k) of them, each with
                # (-1)^l prod(k_i!) mod p.  The composite row is dropped at
                # once, so that its batch is freed before the next is built.
                if len(sym_coeffs) != words or not all(map(
                        np.array_equal, next(composite), (sym_words, sign * sym_coeffs % p))):
                    bad = k
                    break
            yield (f"composite n={n} p={p} l={ell}", bad is None,
                   f"composite row differs from signed symmetrization at {bad}")
        if n == 1:
            failure = filt.curve_report(p)
            yield f"curve p={p}", failure is None, failure or ""
    return {"skipped_word_checks": skipped}


def _random_symmetric_profile(rng: random.Random, n: int, p: int) -> list[int]:
    top = n * (p - 1)
    # Each layer above the half degree at most its mirror, drawn before it.
    profile = []
    for ell in range(top + 1):
        profile.append(_randint(rng, 0, 9 if 2 * ell <= top else profile[top - ell]))
    del profile[_randint(rng, 0, top) + 1:]
    if not any(profile):
        profile[0] = 1
    return profile


def _slope_anchor_cases() -> Cases:
    """Fixed closed-form values of the curve slope and gap."""
    mu = slp.pushforward_slope(slp.make_slope_data(1, 2, 1, g=2, mu_w=0))
    yield "anchor curve-slope", mu == Fraction(1, 2), f"got {mu}"
    gap = slp.curve_gap(2, 3, (1, 1))
    yield "anchor curve-gap", gap == Fraction(1, 3), f"got {gap}"
    full = slp.curve_gap(2, 3, (1, 1, 1))
    yield "anchor full-profile", full == 0, f"got {full}"


def _pushforward_cases(rng: random.Random, count: int, n_max: int, primes) -> Cases:
    """p mu(F_*W) = (p-1)/2 KH + mu(W), and c1 = mu rk, on random data."""
    for i in range(count):
        n = _randint(rng, 1, n_max)
        p = primes[_randint(rng, 0, len(primes) - 1)]
        rk_w = _randint(rng, 1, 4)
        kh = Fraction(_randint(rng, -6, 12), _randint(rng, 1, 4))
        c1 = Fraction(_randint(rng, -12, 12), _randint(rng, 1, 4))
        sd = slp.make_slope_data(n, p, rk_w, kh=kh, c1_wh=c1)
        mu_fw = slp.pushforward_slope(sd)
        ok = (
            p * mu_fw == Fraction(p - 1, 2) * kh + sd.mu_w
            and slp.pushforward_c1(sd) == mu_fw * slp.pushforward_rank(sd)
        )
        yield (f"pushforward-consistency i={i}", ok,
               "" if ok else f"n={n} p={p} rk={rk_w} kh={kh} c1={c1}")


def _curve_agreement_cases(rng: random.Random, count: int, primes) -> Cases:
    """The curve gap formula agrees with the general gap bound at n = 1."""
    for i in range(count):
        p = primes[_randint(rng, 0, len(primes) - 1)]
        g = _randint(rng, 0, 5)
        length = _randint(rng, 1, p)
        profile = [_randint(rng, 1, 9)]
        for _ in range(length - 1):
            profile.append(_randint(rng, 0, profile[-1]))
        sd = slp.make_slope_data(1, p, 1, g=g, mu_w=0)
        ok = slp.curve_gap(g, p, profile) == slp.gap_lower_bound(sd, profile)
        yield f"curve-agreement i={i}", ok, "" if ok else f"p={p} g={g} profile={profile}"


def _weight_sum_cases(rng: random.Random, count: int, n_max: int, primes) -> Cases:
    """Direct and reflected weight sums agree and are non-negative on random
    symmetric profiles."""
    for i in range(count):
        n = _randint(rng, 1, n_max)
        p = primes[_randint(rng, 0, len(primes) - 1)]
        profile = _random_symmetric_profile(rng, n, p)
        _, hypothesis_ok, direct2, rearranged2 = slp.weight_sum_check(n, p, profile)
        ok = hypothesis_ok and direct2 == rearranged2 >= 0
        yield (f"weight-sum i={i}", ok,
               "" if ok else f"n={n} p={p} profile={profile} direct={Fraction(direct2, 2)} "
                             f"rearranged={Fraction(rearranged2, 2)}")
    return {"weight_checks": count}


def _gap_cases(rng: random.Random, count: int, n_max: int, primes) -> Cases:
    """The gap lower bound is non-negative for symmetric profiles and KH >= 0."""
    for i in range(count):
        n = _randint(rng, 1, n_max)
        p = primes[_randint(rng, 0, len(primes) - 1)]
        rk_w = _randint(rng, 1, 3)
        kh = Fraction(_randint(rng, 0, 10), _randint(rng, 1, 3))
        sd = slp.make_slope_data(n, p, rk_w, kh=kh, mu_w=_randint(rng, -3, 3))
        profile = _random_symmetric_profile(rng, n, p)
        gap = slp.gap_lower_bound(sd, profile)
        ok = gap >= 0
        yield (f"gap-nonnegative i={i}", ok,
               "" if ok else f"n={n} p={p} kh={kh} profile={profile} gap={gap}")


def _full_profile_cases(rng: random.Random, count: int, n_max: int, primes) -> Cases:
    """The full profile rk(W) * rank_l has zero gap and a full, symmetric diagnosis."""
    for i in range(count):
        n = _randint(rng, 1, n_max)
        p = primes[_randint(rng, 0, len(primes) - 1)]
        rk_w = _randint(rng, 1, 3)
        top = n * (p - 1)
        profile = [rk_w * tp.trunc_rank(n, p, ell) for ell in range(top + 1)]
        sd = slp.make_slope_data(n, p, rk_w, kh=_randint(rng, 0, 8), mu_w=_randint(rng, -3, 3))
        gap = slp.gap_lower_bound(sd, profile)
        full_length, asymmetric = slp.equality_diagnosis(n, p, profile)
        ok = gap == 0 and full_length and not asymmetric
        yield f"full-profile i={i}", ok, "" if ok else f"n={n} p={p} gap={gap}"


def _chain(*claims: Cases) -> Cases:
    """Run several claims as one suite, merging their stats."""
    stats: dict = {}
    for cases in claims:
        stats.update((yield from cases) or {})
    return stats


def _suite_pairs(cfg: SuiteConfig, volume_limit: int | None = None) -> list[tuple[int, int]]:
    limit = cfg.volume_limit if volume_limit is None else min(cfg.volume_limit, volume_limit)
    return pair_grid(cfg.primes, limit, cfg.n_max)


def _slopes_suite(cfg: SuiteConfig) -> Cases:
    # One seeded stream, drawn by the claims in this order.
    rng = random.Random(f"{cfg.seed}:slopes")
    primes = sorted(set(cfg.primes))
    return _chain(
        _slope_anchor_cases(),
        _pushforward_cases(rng, 1000, cfg.n_max, primes),
        _curve_agreement_cases(rng, 1000, primes),
        _weight_sum_cases(rng, 20_000, cfg.n_max, primes),
        _gap_cases(rng, 2000, cfg.n_max, primes),
        _full_profile_cases(rng, 200, cfg.n_max, primes),
    )


# Suite name -> the claim cases it runs on the grid its config gives.
_SUITES = {
    "filtration": lambda cfg: _filtration_cases(_suite_pairs(cfg)),
    "growth": lambda cfg: _chain(
        _pairing_cases(_suite_pairs(cfg)),
        _growth_cases(_suite_pairs(cfg), random.Random(f"{cfg.seed}:growth"),
                      cfg.random_subspaces_per_grade),
    ),
    "koszul": lambda cfg: _koszul_cases(_suite_pairs(cfg, KOSZUL_VOLUME_LIMIT)),
    "matching": lambda cfg: _matching_cases(
        boxes.iter_caps_vectors(cfg.matching_n_max, cfg.max_sigma)),
    "ranks": lambda cfg: _rank_cases(_suite_pairs(cfg)),
    "slopes": _slopes_suite,
}


def run_suite(config: SuiteConfig) -> dict:
    """Execute the selected suites and assemble the deterministic report."""
    config.validate()
    suites: dict = {}
    timings: dict = {}
    start = time.perf_counter()
    for name in sorted(set(config.suites)):
        t0 = time.perf_counter()
        suites[name] = collect(_SUITES[name](config))
        timings[name] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - start
    return {
        "version": __version__,
        "config": asdict(config),
        "passed": all(s["passed"] for s in suites.values()),
        "suites": suites,
        "timings": timings,
    }


def strip_timings(report_dict: dict) -> dict:
    """Report with the timing subtree removed (for determinism comparisons)."""
    out = dict(report_dict)
    out.pop("timings", None)
    return out
