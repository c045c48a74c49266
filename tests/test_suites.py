import dataclasses
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from truncsym import filtration as filt
from truncsym import monomial_box as boxes
from truncsym import slopes as slp
from truncsym import trunc_algebra as alg
from truncsym import trunc_power as tp
from truncsym.jsonout import dumps
from truncsym.slopes import TOP_DEGREE_LIMIT
from truncsym.suites import (
    MATCHING_CAPS_LIMIT,
    ConfigError,
    SuiteConfig,
    _curve_agreement_cases,
    _filtration_cases,
    _full_profile_cases,
    _gap_cases,
    _growth_cases,
    _matching_cases,
    _pairing_cases,
    _pushforward_cases,
    _suite_pairs,
    _weight_sum_cases,
    collect,
    pair_grid,
    run_suite,
    strip_timings,
)

from reference import dense_matrix

# sha256 of the default-config report (seed 0) without its timings, dumped as
# the CLI prints it.  A change here is a change of the report contract.
DEFAULT_REPORT_SHA256 = "fcd32bc48abe502e8db96810ffad75597924220d0680a98e81b3c73ddf8439f7"


def test_default_report_digest():
    full = run_suite(SuiteConfig())
    # The report writer gives json.dumps's bytes, the float timings included.
    assert dumps(full) == json.dumps(full, indent=2, sort_keys=True)
    report = strip_timings(full)
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


# The same digest for the matching-wide report: the matching suite alone over
# caps vectors of length at most 5 (92,820 cases).
MATCHING_WIDE_REPORT_SHA256 = "ff8eaa02505303d24177d7f78b0cef27e1198aaa05d04c5789984faee861fcfb"


def test_matching_wide_report_digest():
    config = SuiteConfig(suites=("matching",), matching_n_max=5)
    report = strip_timings(run_suite(config))
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == MATCHING_WIDE_REPORT_SHA256


# The same digest for the filtration-wide report: the filtration suite alone
# over n <= 5 and the primes up to 11.
FILTRATION_WIDE_REPORT_SHA256 = "d73eb3b426a1a7e75971a2cf059a1627779fdabfd9f67535133a4ed1c89556ed"


def test_filtration_wide_report_digest():
    config = SuiteConfig(suites=("filtration",), n_max=5, primes=(2, 3, 5, 7, 11))
    report = strip_timings(run_suite(config))
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FILTRATION_WIDE_REPORT_SHA256


# The same digest for the Koszul suite over its whole volume limit: n <= 6 and
# the primes up to 7 (89 cases), the grid CI runs.
KOSZUL_WIDE_REPORT_SHA256 = "be6d398cdfdbb875a4e986d9fe9ca848ce152d7b2cb6576d1c91f8c3dabdd354"


def test_koszul_wide_report_digest():
    config = SuiteConfig(suites=("koszul",), n_max=6, primes=(2, 3, 5, 7))
    report = strip_timings(run_suite(config))
    assert report["suites"]["koszul"]["cases"] == 89
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == KOSZUL_WIDE_REPORT_SHA256


# sha256 of the JSON list of [builder, n, p, l, shape, entries] over the pairing
# matrices, the graded connection matrices and the Koszul differentials of the
# default grid, every grade: the matrices every F_p claim of the suites ranks.
DEFAULT_BUILDERS_SHA256 = "5d38b0179e07dff4035a0c4d5498c80f055c4dcb6d023a5f61bdbffe58bca828"


def test_default_builders_digest():
    rows = []
    for n, p in pair_grid((2, 3, 5), 243, 3):
        top = n * (p - 1)
        for ell in range(top + 1):
            m = alg.omega_pairing_matrix(n, p, ell)
            rows.append(["pairing", n, p, ell, [m.nrows, m.ncols], m.entries])
        for ell in range(1, top + 1):
            m = filt.graded_nabla_matrix(n, p, ell)
            rows.append(["nabla", n, p, ell, [m.nrows, m.ncols], m.entries])
        for ell in range(top + 2):
            for q, m in enumerate(tp.koszul_complex(n, p, ell), 1):
                rows.append([f"koszul {q}", n, p, ell, [m.nrows, m.ncols], m.entries])
    assert len(rows) == 130
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEFAULT_BUILDERS_SHA256


# sha256 of the JSON list of [case key, dim V, image dim] over the growth cases
# of the default config (seed 0).  The report keeps only verdicts; this pins
# which subspaces are drawn and every image dimension.
DEFAULT_GROWTH_CASES_SHA256 = "9a4190bd4b72237395187a41052d23b01da8b736d93262bba835c7566263b2c5"


def test_default_growth_cases_digest(monkeypatch):
    dims = []

    def recording(v):
        image = image_dim(v)
        dims.append([v.dim, image])
        return image

    image_dim = alg.spanned_image_dim
    monkeypatch.setattr(alg, "spanned_image_dim", recording)
    cfg = SuiteConfig()
    cases = _growth_cases(_suite_pairs(cfg), random.Random(f"{cfg.seed}:growth"),
                          cfg.random_subspaces_per_grade)
    rows = [[key, *dims[-1]] for key, _, _ in cases]
    assert len(rows) == len(dims) == 4304
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == DEFAULT_GROWTH_CASES_SHA256


# sha256 of the calls the default config's slope claims make to the slope
# functions, one repr((name, args, sorted kwargs)) per line, SlopeData as the
# tuple of its fields.  The report keeps only counts and verdicts; this pins
# every seeded draw behind them.
DEFAULT_SLOPES_DRAWS_SHA256 = "39bbdc0912601b1817ebdba9c081450e0111817bdd51f63229d010530068dff0"


def test_default_slopes_draws_digest(monkeypatch):
    calls = []
    depth = [0]  # calls the slope functions make among themselves are not the claims'

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                plain = tuple(dataclasses.astuple(a) if isinstance(a, slp.SlopeData) else a
                              for a in args)
                calls.append(repr((name, plain, sorted(kwargs.items()))))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("make_slope_data", "curve_gap", "weight_sum_check", "gap_lower_bound"):
        monkeypatch.setattr(slp, name, recording(name, getattr(slp, name)))
    assert run_suite(SuiteConfig(suites=("slopes",)))["passed"]
    assert len(calls) == 28403
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert digest == DEFAULT_SLOPES_DRAWS_SHA256


def test_pairing_cases_fail_unless_the_matrix_reduces_to_identity(monkeypatch):
    # A singular square matrix, and full-rank matrices that are not square.
    bad = [([[1, 2], [2, 4]], "2x2 rank 1"), ([[1, 0, 0], [0, 1, 0]], "2x3 rank 2"),
           ([[1, 0], [0, 1], [1, 1]], "3x2 rank 2")]
    for rows, shape in bad:
        monkeypatch.setattr(alg, "omega_pairing_matrix", lambda n, p, ell: dense_matrix(rows, p))
        result = collect(_pairing_cases([(1, 5)]))
        assert result["cases"] == 5 and result["failure_count"] == len(result["failures"]) == 5
        assert result["failures"][0]["detail"] == f"pairing matrix {shape}"
    monkeypatch.undo()
    assert collect(_pairing_cases([(1, 5), (2, 3)]))["passed"]


def test_composite_cases_count_the_words(monkeypatch):
    # Both sides assemble their rows with the same batching; if it dropped a
    # word from every row, the two would still agree, so the case also counts
    # the words against the multinomial word_count(k).
    batches = tp._row_batches

    def short_rows(*args):
        for words, coeffs in batches(*args):
            yield words[1:], coeffs[1:]

    assert collect(_filtration_cases([(2, 3)]))["passed"]
    monkeypatch.setattr(tp, "_row_batches", short_rows)
    monkeypatch.setattr(filt, "_row_batches", short_rows)
    failures = collect(_filtration_cases([(2, 3)]))["failures"]
    assert [f["case"] for f in failures] == [f"composite n=2 p=3 l={ell}" for ell in range(5)]


def test_matching_cases_fail_wherever_the_oracle_denies(monkeypatch):
    # The sweep hands each caps vector its shape's answers; with an oracle
    # that denies every matching, every matched case of every permutation
    # of a shape must fail, and no boundary case.
    monkeypatch.setattr(boxes, "_augmenting_matching_exists", lambda *args: False)
    caps_list = list(boxes.iter_caps_vectors(3, 6))
    failures = [(key, detail) for key, ok, detail in _matching_cases(caps_list) if not ok]
    assert {key for key, _ in failures} == {
        f"caps={','.join(map(str, caps))} l={ell}"
        for caps in caps_list for ell in range(sum(caps) // 2 + 1)}
    assert all(detail == "oracle denies a matching the construction produced"
               for _, detail in failures)


def test_validate_bounds_top_degree_before_primality():
    # n_max * (max(primes) - 1) == TOP_DEGREE_LIMIT is accepted.
    assert TOP_DEGREE_LIMIT == 1000
    SuiteConfig(n_max=4, primes=(2, 251)).validate()
    SuiteConfig(n_max=10, primes=(101,)).validate()
    SuiteConfig(n_max=1, primes=(997,)).validate()
    # Above it the config is refused before any primality test.
    for n_max, primes in [(5, (251,)), (4, (257,)), (1, (1009,)), (0, (1009,)),
                          (1, (1000003,)), (1, (10 ** 18 + 3,))]:
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="top degree"):
            SuiteConfig(n_max=n_max, primes=primes).validate()
        assert time.perf_counter() - t0 < 1.0


def test_validate_bounds_matching_sweep():
    # C(n + 13, 13) - 1 caps vectors at max_sigma 12: n = 7 is accepted,
    # n = 8 and beyond are refused from the count, before any work.
    SuiteConfig(matching_n_max=7).validate()
    SuiteConfig(matching_n_max=60, max_sigma=0).validate()
    for n_max in (8, 60, 10 ** 18):
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=f"above the limit {MATCHING_CAPS_LIMIT}"):
            SuiteConfig(matching_n_max=n_max).validate()
        assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ConfigError, match="203489 caps vectors"):
        SuiteConfig(matching_n_max=8).validate()
    # The bound is on the sweep, so it holds only when the sweep is selected.
    SuiteConfig(matching_n_max=10 ** 18, suites=("growth",)).validate()


def test_validate_refuses_an_empty_suite_list():
    # A run that selects no suite would check nothing and pass.
    with pytest.raises(ConfigError, match="^suites must be non-empty$"):
        SuiteConfig(suites=()).validate()
    with pytest.raises(ConfigError, match="suites must be non-empty"):
        run_suite(SuiteConfig(suites=()))


@pytest.mark.parametrize("claim, target, fake, expected", [
    (lambda rng: _pushforward_cases(rng, 20, 2, (2, 3)), "pushforward_c1",
     lambda sd: Fraction(10 ** 9), " c1="),
    (lambda rng: _curve_agreement_cases(rng, 20, (2, 3)), "curve_gap",
     lambda g, p, profile: Fraction(-1), " profile=["),
    (lambda rng: _weight_sum_cases(rng, 20, 2, (2, 3)), "weight_sum_check",
     lambda n, p, profile: ((), True, 3, 1), " direct=3/2 rearranged=1/2"),
    (lambda rng: _gap_cases(rng, 20, 2, (2, 3)), "gap_lower_bound",
     lambda sd, profile: Fraction(-1, 2), " gap=-1/2"),
    (lambda rng: _full_profile_cases(rng, 20, 2, (2, 3)), "gap_lower_bound",
     lambda sd, profile: Fraction(1), " gap=1"),
])
def test_slope_claims_detail_only_failures(monkeypatch, claim, target, fake, expected):
    passing = list(claim(random.Random(3)))
    assert passing and all(ok and detail == "" for _, ok, detail in passing)
    monkeypatch.setattr(slp, target, fake)
    failing = list(claim(random.Random(3)))
    assert [key for key, _, _ in failing] == [key for key, _, _ in passing]
    assert all(not ok and detail.startswith(("n=", "p=")) and expected in detail
               for _, ok, detail in failing)


def test_growth_claims_detail_only_failures(monkeypatch):
    # Coordinate and random cases word their detail only when they fail.
    def claim():
        return _growth_cases([(2, 3), (3, 2)], random.Random(3), 5)

    passing = list(claim())
    assert {key.split()[0] for key, _, _ in passing} == {"coord", "random"}
    assert all(ok and detail == "" for _, ok, detail in passing)
    monkeypatch.setattr(alg, "spanned_image_dim", lambda v: v.dim - 1)
    failing = list(claim())
    assert [key for key, _, _ in failing] == [key for key, _, _ in passing]
    assert all(not ok and detail.startswith("dim ") and " > image " in detail
               for _, ok, detail in failing)
    # A random case names the subspace's basis.
    assert all(detail.endswith(")") and "; basis ((" in detail
               for key, _, detail in failing if key.startswith("random"))
