import json
import time
from fractions import Fraction

import pytest

from truncsym import slopes as slp
from truncsym.scenario import (
    DIGIT_LIMIT,
    ScenarioError,
    evaluate_scenario,
    load_scenarios,
    parse_rational,
)

WHERE = "scenario 0: field 'KH'"


@pytest.mark.parametrize("text", [
    " -3/4 ", "+5", "007", "-0", "1_000", "3/0", "1.5", "1e3", "٣", "3 /4", "/4", "3/",
    "--3", "", "-3/0", "+12/-4", "4/6", " 7 ", "\t-8/12\n", "²", "3/٤", "0/5", "-0/0",
])
def test_parse_rational_agrees_with_fraction(text):
    # The ASCII "a" and "a/b" shortcut reads what Fraction(str) reads and
    # refuses what it refuses, with the same message.
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ScenarioError) as refused:
            parse_rational(text, WHERE)
        assert str(refused.value) == f"{WHERE}: cannot parse rational {text!r}: {exc}"
    else:
        got = parse_rational(text, WHERE)
        assert type(got) is Fraction and got == expected


def test_parse_rational_refuses_non_rationals():
    for value, word in ((True, "boolean"), (1.5, "float"), (None, "NoneType"), ([1], "list")):
        with pytest.raises(ScenarioError, match=word):
            parse_rational(value, WHERE)


def test_parse_rational_digit_limit():
    big = 10 ** DIGIT_LIMIT - 1  # DIGIT_LIMIT digits: accepted
    assert parse_rational(big, WHERE) == big
    assert parse_rational(f"-1/{big}", WHERE) == Fraction(-1, big)
    assert parse_rational("0" * 2000 + "1", WHERE) == 1  # the value counts, not the text
    # Numerator or denominator in lowest terms past the limit, however written.
    for value in (big + 1, -big - 1, str(big + 1), f"1/{big + 1}", f"-{big + 1}/7",
                  f"1e{DIGIT_LIMIT}"):
        with pytest.raises(ScenarioError, match=f"{WHERE} has more than {DIGIT_LIMIT} digits"):
            parse_rational(value, WHERE)
    assert parse_rational(f"{big + 1}/10", WHERE) == (big + 1) // 10


def test_parse_rational_refuses_huge_exponents_without_building_them():
    # Fraction(str) would build the power of ten first: 10^(10^7) alone
    # takes seconds.  Any nonzero mantissa would exceed the digit limit.
    t0 = time.perf_counter()
    for text in ("1e10000000", "-2.5E-99999999999", "3e+1_000_000_000", "7e" + "9" * 5000,
                 "0e10000000"):
        with pytest.raises(ScenarioError, match=f"{WHERE} has more than {DIGIT_LIMIT} digits"):
            parse_rational(text, WHERE)
    assert time.perf_counter() - t0 < 1.0
    # Exponents within DIGIT_LIMIT + len(text) still go to Fraction.
    tiny = "0." + "0" * 1500 + "1"
    assert parse_rational(tiny + "e1502", WHERE) == 10
    assert parse_rational("1e000000000003", WHERE) == 1000
    assert parse_rational("25e-1", WHERE) == Fraction(5, 2)


def _load(tmp_path, text: str):
    path = tmp_path / "s.json"
    path.write_text(text, encoding="utf-8")
    return load_scenarios(str(path))


def _record(**fields) -> dict:
    return {"n": 1, "p": 2, "rkW": 1, "muW": 0, "g": 2, **fields}


def test_integer_literals_past_the_conversion_limit_name_their_record(tmp_path):
    # json.load itself refuses a literal of more than 4,300 digits; the loader
    # reads it again, so the record check names the record and the field.
    huge = "9" * 5000
    for field, value in (("rkW", huge), ("n", "-" + huge), ("muW", huge),
                         ("profile", f"[1, {huge}]"), ("instabilities", f"[{huge}]")):
        text = json.dumps([_record(), _record(**{field: "HUGE"})]).replace('"HUGE"', value)
        with pytest.raises(ScenarioError, match=f"scenario 1: field '{field}.*{DIGIT_LIMIT} digits"):
            _load(tmp_path, text)
    # A huge literal in a field no record reads is ignored, as any such field is.
    text = json.dumps({"scenarios": [_record(x="HUGE")], "y": "HUGE"}).replace('"HUGE"', huge)
    assert len(_load(tmp_path, text)) == 1


def test_instabilities_common_denominator_is_bounded(tmp_path):
    # Each denominator is within the limit, their lcm is not: the gap bound
    # would print a numerator past the int <-> str conversion limit.
    inst = [f"1/{10 ** 999 + k}" for k in range(1, 7)]
    with pytest.raises(ScenarioError, match="common denominator has more than"):
        _load(tmp_path, json.dumps([_record(profile=[1] * 2, instabilities=inst)]))
    assert _load(tmp_path, json.dumps([_record(profile=[1, 1], instabilities=inst[:1])]))


def test_instabilities_past_the_top_layer_are_refused(tmp_path):
    # n = 1, p = 2 has two layers; an entry for a third would set the maximal
    # instability and its bound.
    with pytest.raises(ScenarioError, match="^scenario 0: field 'instabilities' has 4 entries, "
                                            "more than 2 layers$"):
        _load(tmp_path, json.dumps([_record(profile=[1], instabilities=[0, 0, 0, "7/2"])]))
    sc, = _load(tmp_path, json.dumps([_record(profile=[1], instabilities=[0, "7/2"])]))
    assert sc.instabilities == (0, Fraction(7, 2))


def test_unreadable_files_are_refused(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"name": "\xff"}]')
    with pytest.raises(ScenarioError, match="utf-8"):
        load_scenarios(str(path))
    with pytest.raises(ScenarioError, match="nested too deeply"):
        _load(tmp_path, "[" * 100_000 + "]" * 100_000)


def test_each_profile_is_validated_once(tmp_path, monkeypatch):
    # The warnings (layer ranks included) and hypothesis_ok come from one
    # validation of the profile.
    records = [_record(profile=[1, 1]), _record(profile=[1, 3], rkW=1),
               _record(n=2, p=2, KH=1, g=None, profile=[1, 3, 2], rkW=1)]
    scenarios = _load(tmp_path, json.dumps(records))
    calls = []
    issues = slp._profile_issues
    monkeypatch.setattr(slp, "_profile_issues", lambda *args: calls.append(args) or issues(*args))
    out = [evaluate_scenario(sc) for sc in scenarios]
    assert len(calls) == len(records)
    assert [o["weight_sum"]["hypothesis_ok"] for o in out] == [True, False, False]
    assert out[1]["warnings"] == ["profile: r_1 = 3 exceeds layer rank 1",
                                  "profile: profile not non-increasing at 1"]
    assert out[2]["warnings"] == ["profile: r_1 = 3 exceeds layer rank 2",
                                  "profile: r_2 = 2 exceeds layer rank 1",
                                  "profile: r_2 = 2 exceeds mirror r_0 = 1"]
