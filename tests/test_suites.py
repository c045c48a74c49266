import hashlib
import json
import time

import pytest

from truncsym.slopes import TOP_DEGREE_LIMIT
from truncsym.suites import ConfigError, SuiteConfig, run_suite, strip_timings

# sha256 of the default-config report (seed 0) without its timings, dumped as
# the CLI prints it.  A change here is a change of the report contract.
DEFAULT_REPORT_SHA256 = "fcd32bc48abe502e8db96810ffad75597924220d0680a98e81b3c73ddf8439f7"


def test_default_report_digest():
    report = strip_timings(run_suite(SuiteConfig()).to_dict())
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


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
