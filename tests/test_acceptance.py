"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).  Every criterion runs the same claim
generators as the ``verify`` suites, on its own grid, seed, thresholds and
wall-clock budget; this module adds only spot values.
"""

import json
import random
import time

from truncsym.fp_linalg import is_prime
from truncsym.monomial_box import iter_caps_vectors
from truncsym.suites import (
    SuiteConfig,
    _filtration_cases,
    _growth_cases,
    _koszul_cases,
    _matching_cases,
    _pairing_cases,
    _rank_cases,
    _slope_anchor_cases,
    _weight_sum_cases,
    collect,
    pair_grid,
    run_suite,
    strip_timings,
)
from truncsym.trunc_algebra import omega_pairing_matrix
from truncsym.trunc_power import gl2_dim

# Every (n, p) with p^n <= 243.
PAIRS_243 = pair_grid([p for p in range(2, 244) if is_prime(p)], 243)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def _failures(result) -> list:
    return result.failures[:3]


def test_criterion_01_rank_agreement():
    t0 = time.perf_counter()
    result = collect(_rank_cases([(n, p) for n in (1, 2, 3) for p in (2, 3, 5)]))
    elapsed = time.perf_counter() - t0
    _report(1, "rank agreement", result.passed and elapsed < 5.0,
            f"{result.cases} cases, {elapsed:.2f}s, failures: {_failures(result)}")


def test_criterion_02_gl2_closed_form():
    result = collect(_rank_cases([(2, p) for p in (2, 3, 5, 7)]))
    spot = gl2_dim(3, 3)
    _report(2, "two-variable closed form", result.passed and spot == 2,
            f"gl2_dim(3,3)={spot}, failures: {_failures(result)}")


def test_criterion_03_koszul_exactness():
    bad = []
    slow = []
    t0 = time.perf_counter()
    for key, ok, detail in _koszul_cases([(2, 2), (2, 3), (3, 2)]):
        dt = time.perf_counter() - t0
        if not ok:
            bad.append((key, detail))
        if dt >= 1.0:
            slow.append((key, dt))
        t0 = time.perf_counter()
    _report(3, "resolution exactness", not bad and not slow,
            f"failures: {bad}, over-budget: {slow}")


def test_criterion_04_dominance_matching_sweep():
    t0 = time.perf_counter()
    result = collect(_matching_cases(iter_caps_vectors(4, 12)))
    elapsed = time.perf_counter() - t0
    matched = result.stats["matched_cases"]
    ok = result.passed and matched >= 10_000 and elapsed < 30.0
    _report(4, "dominance matching", ok,
            f"{matched} matched + {result.stats['boundary_cases']} boundary cases, "
            f"{elapsed:.2f}s, failures: {_failures(result)}")


def test_criterion_05_subspace_growth():
    pairs = [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)]
    result = collect(_growth_cases(pairs, random.Random(5_2024), 100))
    coordinate = result.stats["coordinate_subspaces"]
    randomized = result.stats["random_subspaces"]
    # Every coordinate subspace of the 12 upper-half grades, 100 random each.
    _report(5, "subspace growth", result.passed and coordinate == 40 and randomized == 1200,
            f"{coordinate} coordinate + {randomized} random subspaces, "
            f"failures: {_failures(result)}")


def test_criterion_06_pairing_isomorphism():
    result = collect(_pairing_cases(PAIRS_243))
    wilson = omega_pairing_matrix(1, 5, 4).entries
    _report(6, "pairing isomorphism", result.passed and wilson == ((4,),),
            f"{len(PAIRS_243)} pairs, wilson entry {wilson}, failures: {_failures(result)}")


def test_criterion_07_filtration_structure():
    result = collect(_filtration_cases(PAIRS_243))
    skipped = result.stats["skipped_word_checks"]
    # Only the ten (2, 13) rows of degree >= 21 are beyond the per-row word limit.
    _report(7, "filtration structure",
            result.passed and len(skipped) <= 10
            and all(s.startswith("n=2 p=13 ") for s in skipped),
            f"{len(PAIRS_243)} pairs, rows skipped for size: {len(skipped)}, "
            f"failures: {_failures(result)}")


def test_criterion_08_curve_slopes():
    result = collect(_slope_anchor_cases())
    _report(8, "curve slopes", result.passed and result.cases == 3,
            f"failures: {result.failures}")


def test_criterion_09_weight_sum_inequality():
    result = collect(_weight_sum_cases(random.Random(9_2024), 100_000, 4, (2, 3, 5, 7)))
    _report(9, "weight-sum inequality", result.passed and result.cases == 100_000,
            f"{result.cases} profiles, {len(result.failures)} failures")


def test_criterion_10_report_determinism():
    config = SuiteConfig(n_max=2, primes=(2, 3), max_sigma=8,
                         random_subspaces_per_grade=20, seed=31)
    first = run_suite(config)
    second = run_suite(config)
    a = json.dumps(strip_timings(first.to_dict()), sort_keys=True)
    b = json.dumps(strip_timings(second.to_dict()), sort_keys=True)
    _report(10, "report determinism", a == b and first.passed,
            f"identical={a == b}, passed={first.passed}")
