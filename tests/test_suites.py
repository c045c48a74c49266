import hashlib
import json

from truncsym.suites import SuiteConfig, run_suite, strip_timings

# sha256 of the default-config report (seed 0) without its timings, dumped as
# the CLI prints it.  A change here is a change of the report contract.
DEFAULT_REPORT_SHA256 = "fcd32bc48abe502e8db96810ffad75597924220d0680a98e81b3c73ddf8439f7"


def test_default_report_digest():
    report = strip_timings(run_suite(SuiteConfig()).to_dict())
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256
