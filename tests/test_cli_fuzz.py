"""The exit-code contract under generated input: every call of ``verify``,
``matching`` and ``slopes`` exits 0 or 2, raises nothing but ``SystemExit``,
prints no traceback and finishes within its deadline.

The strategies mix tiny valid values with huge, negative, zero, composite,
empty and malformed ones.  Every value a validator accepts is tiny (n <= 2,
primes from {2, 3, 5}, sigma <= 6, caps vectors of length <= 3, <= 5 random
subspaces), and every out-of-range value comes from a set the validators
refuse, so no call launches heavy work.
"""

import json
import time

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from truncsym.cli import main

DEADLINE_S = 2.0
HUGE = 10 ** 30
# Too many digits for a scenario integer; the literal "1" * 5000 is past
# Python's int <-> str limit, so it is spliced into the JSON text.
OVERSIZED = 10 ** 1001
HUGE_LITERAL = "__huge_literal__"
MALFORMED = ["x", "2,,", ",", "", " ", "2,x", "1e3", "0x10", "--1"]


def _ints(valid, refused):
    """An option value: a valid tiny int, a refused int, or malformed text."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(refused),
                     st.sampled_from(MALFORMED)).map(str)


primes = st.one_of(
    st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3).map(
        lambda ps: ",".join(map(str, ps))),
    st.sampled_from(["2,,", "3", "4", "9", "1", "0", "-3", "2,4", "1000003", str(HUGE),
                     ",", "", "x", "2,x"]),
)
# The slopes suite always makes 24,200 draws (about 0.2 s), so it is drawn
# once in ten.
suites = st.integers(0, 9).flatmap(lambda k: st.sampled_from(["slopes", "ranks,slopes"]) if k == 9
                                   else st.one_of(
    st.lists(st.sampled_from(["filtration", "growth", "koszul", "matching", "ranks"]),
             min_size=1, max_size=5).map(",".join),
    st.sampled_from(["", ",", "bogus", "ranks,,koszul", "ranks,bogus"])))

verify_args = st.fixed_dictionaries({
    "--n-max": _ints([1, 2], [0, -1, -HUGE, HUGE]),
    "--primes": primes,
    "--suites": suites,
    "--max-sigma": _ints(list(range(7)), [-1, 13, HUGE]),
    "--matching-n-max": _ints([1, 2, 3], [0, -1, 60, HUGE]),
    "--random-subspaces": _ints([0, 1, 5], [-1, 10_001, HUGE]),
}, optional={
    "--seed": _ints([0, 1, 7], [-1, -HUGE, HUGE]),
    "--out": st.sampled_from(["report.json", "missing/report.json"]),
})

caps = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(lambda cs: ",".join(map(str, cs))),
    st.lists(st.sampled_from([0, 1, 2, -1, HUGE]), min_size=1, max_size=3).map(
        lambda cs: ",".join(map(str, cs))),
    st.sampled_from(MALFORMED),
)
matching_args = st.fixed_dictionaries({}, optional={
    "--caps": caps,
    "--ell": _ints([0, 1, 2, 3], [-1, -HUGE, HUGE]),
})

# Scenario fields: valid tiny values, then wrong types, refused values and
# malformed rationals.
rationals = st.one_of(
    st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", "0", " 5 ", "2/6"]),
    st.sampled_from(["x/y", "1/0", "1/", "/2", "1/2/3", "1e999999999", "nan", "",
                     HUGE_LITERAL, OVERSIZED, f"1/{OVERSIZED}"]),
    st.sampled_from([True, None, 1.5, float("nan"), float("inf"), [], {}]),
)
integers = st.one_of(
    st.sampled_from([1, 2]),
    st.sampled_from([0, -1, HUGE, -HUGE, OVERSIZED, HUGE_LITERAL, True, 1.5, "2", None, []]),
)
ranks_list = st.lists(st.one_of(st.integers(0, 3), st.sampled_from([-1, True, 1.5, OVERSIZED])),
                      max_size=12)
rational_list = st.lists(rationals, max_size=12)
records = st.fixed_dictionaries({}, optional={
    "n": integers,
    "p": st.one_of(st.sampled_from([2, 3, 5]), st.sampled_from([4, 1, 0, -5, HUGE]), integers),
    "rkW": integers,
    "muW": rationals,
    "c1WH": rationals,
    "KH": rationals,
    "g": rationals,
    "profile": st.one_of(ranks_list, st.sampled_from([[0, 0], "1,1", 3])),
    "instabilities": st.one_of(rational_list, st.sampled_from(["0", 0])),
    "name": st.sampled_from(["curve", "", 3, None]),
})
scenario_texts = st.one_of(
    st.lists(records, max_size=3).map(json.dumps),
    records.map(json.dumps),
    st.lists(records, max_size=3).map(lambda rs: json.dumps({"scenarios": rs})),
    st.sampled_from(["", "[", "{}", "[]", "null", "3", '{"scenarios": 3}', "[1]", "NaN"]),
).map(lambda text: text.replace(json.dumps(HUGE_LITERAL), "1" * 5000))


def _run(args):
    """Invoke the CLI in process and check the contract on the outcome."""
    t0 = time.perf_counter()
    result = CliRunner().invoke(main, args)
    elapsed = time.perf_counter() - t0
    assert result.exit_code in (0, 2), (args, result.exit_code, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (args, repr(result.exception))
    assert "Traceback" not in result.output, (args, result.output)
    assert elapsed < DEADLINE_S, (args, elapsed)


def _flatten(options):
    return [part for option, value in options.items() for part in (option, value)]


fuzz_settings = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz_settings
@given(options=verify_args)
def test_verify_answers_or_refuses(tmp_path, options):
    if "--out" in options:
        options = {**options, "--out": str(tmp_path / options["--out"])}
    _run(["verify", *_flatten(options)])


@fuzz_settings
@given(options=matching_args)
def test_matching_answers_or_refuses(tmp_path, options):
    _run(["matching", *_flatten(options)])


@settings(fuzz_settings, max_examples=200)
@given(text=scenario_texts, out=st.sampled_from([None, "out.json", "missing/out.json"]))
def test_slopes_answers_or_refuses(tmp_path, text, out):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    args = ["slopes", "--scenario", str(scenario)]
    if out is not None:
        args += ["--out", str(tmp_path / out)]
    _run(args)
