import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import truncsym
import truncsym.cli as cli_mod
import truncsym.filtration as filt
import truncsym.monomial_box as boxes
import truncsym.slopes as slp
import truncsym.trunc_algebra as alg
import truncsym.trunc_power as tp
from truncsym.cli import main
from truncsym.monomial_box import MATCHING_BOX_LIMIT
from truncsym.suites import SuiteConfig, strip_timings
from truncsym.trunc_power import trunc_rank

FAST_ARGS = [
    "--n-max", "2",
    "--primes", "2,3",
    "--max-sigma", "5",
    "--matching-n-max", "3",
    "--random-subspaces", "5",
    "--suites", "ranks,koszul,matching,growth,filtration",
]


def test_verify_passes_and_emits_report():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", *FAST_ARGS])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["passed"] is True
    assert set(report["suites"]) == {"ranks", "koszul", "matching", "growth", "filtration"}
    for suite in report["suites"].values():
        assert suite["failure_count"] == 0
    assert report["config"]["seed"] == 0
    assert "total" in report["timings"]


def test_verify_report_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(main, ["verify", *FAST_ARGS, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    report = json.loads(out.read_text())
    assert report["passed"] is True


def test_verify_reports_are_deterministic_modulo_timings(tmp_path):
    runner = CliRunner()
    args = ["verify", *FAST_ARGS, "--suites", "ranks,matching,slopes", "--seed", "7"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    a = strip_timings(json.loads(first.output))
    b = strip_timings(json.loads(second.output))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_verify_seed_changes_random_draws_but_not_verdict():
    runner = CliRunner()
    base = ["verify", "--n-max", "1", "--primes", "3", "--suites", "slopes"]
    r1 = runner.invoke(main, [*base, "--seed", "1"])
    r2 = runner.invoke(main, [*base, "--seed", "2"])
    assert r1.exit_code == 0 and r2.exit_code == 0


def test_verify_exit_code_on_failure(monkeypatch):
    import truncsym.suites as suites_mod

    def failing(cfg):
        yield "forced", False, "injected failure"

    monkeypatch.setitem(suites_mod._SUITES, "ranks", failing)
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suites", "ranks", "--n-max", "1", "--primes", "2"])
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["passed"] is False
    assert report["suites"]["ranks"]["failures"][0]["case"] == "forced"


@pytest.mark.parametrize("suite, module, name, fault, first", [
    ("ranks", tp, "degree_weight_check", lambda *args: False, "n=1 p=2 l=0"),
    ("koszul", tp, "verify_koszul_exact", lambda *args: "injected", "n=1 p=2 l=0"),
    ("filtration", filt, "composite_mismatch", lambda n, p, rows: rows[0],
     "composite n=1 p=2 l=0"),
    ("growth", alg, "spanned_image_dim", lambda sub: -1, "random n=1 p=2 l=1 i=0"),
    ("matching", boxes, "_hall_many", lambda rows, cases: [True] * len(cases),
     "caps=0,1 l=1 (boundary)"),
    ("slopes", slp, "curve_gap", lambda *args: -1, "anchor curve-gap"),
])
def test_verify_exits_1_on_a_library_fault_in_each_suite(monkeypatch, suite, module, name,
                                                          fault, first):
    monkeypatch.setattr(module, name, fault)
    result = CliRunner().invoke(main, [
        "verify", "--suites", suite, "--n-max", "2", "--primes", "2,3", "--max-sigma", "4",
        "--matching-n-max", "2", "--random-subspaces", "2"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    report = json.loads(result.output)
    assert report["passed"] is False
    assert report["suites"][suite]["failures"][0]["case"] == first


def test_bare_verify_builds_the_default_config(monkeypatch):
    configs = []

    def record(config):
        configs.append(config)
        return {"passed": True}

    monkeypatch.setattr(cli_mod, "run_suite", record)
    result = CliRunner().invoke(main, ["verify"])
    assert result.exit_code == 0, result.output
    assert configs == [SuiteConfig()]


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, truncsym; "
            "print(sorted(m for m in sys.modules if m.startswith('truncsym.') or m == 'numpy'))")
    src = os.path.dirname(os.path.dirname(truncsym.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_verify_rejects_bad_prime():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--primes", "2,9"])
    assert result.exit_code == 2
    assert "not prime" in result.output


def test_verify_rejects_top_degree_beyond_limit():
    # Refused before any prime is tested: 10^18 + 3 is prime, and trial
    # division on it would not finish.
    for args in (["--suites", "slopes", "--primes", "1000003", "--n-max", "1"],
                 ["--primes", str(10 ** 18 + 3)],
                 ["--n-max", "5", "--primes", "251"]):
        result = CliRunner().invoke(main, ["verify", *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "top degree" in result.output


def test_verify_rejects_a_prime_with_no_fp_pair(monkeypatch):
    # No pair has p^n <= 243 for p > 243: the F_p suites ran 0 cases and passed.
    runs = []
    monkeypatch.setattr(cli_mod, "run_suite", runs.append)
    for primes in ("251", "2,251"):
        result = CliRunner().invoke(main, ["verify", "--primes", primes, "--n-max", "1",
                                           "--suites", "filtration,growth,koszul,ranks"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert result.output.count("\n") == 1
        assert "prime 251 gives the F_p suites no pair" in result.output
    assert runs == []


def test_verify_rejects_unknown_suite():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suites", "ranks,nonsense"])
    assert result.exit_code == 2
    assert "unknown suites" in result.output


def test_verify_rejects_an_empty_suite_list(tmp_path):
    out = tmp_path / "report.json"
    for suites in (",", " , ", ""):
        result = CliRunner().invoke(main, ["verify", "--suites", suites, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "suites must be non-empty" in result.output
        assert "{" not in result.output and not out.exists()


def test_verify_refuses_an_out_path_in_a_missing_directory(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(cli_mod, "run_suite", runs.append)
    out = tmp_path / "missing" / "report.json"
    result = CliRunner().invoke(main, ["verify", "--suites", "koszul", "--n-max", "1",
                                       "--primes", "2", "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # refused, not a traceback
    assert result.output == f"output error: no directory for {out}\n"
    assert runs == [] and not out.parent.exists()


def test_verify_rejects_oversized_sigma():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--max-sigma", "40"])
    assert result.exit_code == 2


def test_verify_rejects_too_many_random_subspaces(monkeypatch):
    # A one-pair grid with 99999999999999999999999 subspaces per grade ran on
    # until it was stopped; above the limit it is refused before any suite.
    runs = []
    monkeypatch.setattr(cli_mod, "run_suite", runs.append)
    t0 = time.perf_counter()
    result = CliRunner().invoke(main, ["verify", "--suites", "growth", "--n-max", "1",
                                       "--primes", "2", "--random-subspaces", "10001"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # refused, not a traceback
    assert "random_subspaces_per_grade must be in [0, 10000]" in result.output
    assert runs == []


def test_verify_rejects_oversized_matching_sweep():
    # About 8.6e13 caps vectors at --matching-n-max 60: counted, not visited.
    for n_max in ("60", "1000000000000000000"):
        t0 = time.perf_counter()
        result = CliRunner().invoke(main, ["verify", "--suites", "matching",
                                           "--matching-n-max", n_max])
        assert time.perf_counter() - t0 < 1.0
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "caps vectors" in result.output and "Traceback" not in result.output
    result = CliRunner().invoke(main, ["verify", "--suites", "matching", "--matching-n-max", "5"])
    assert result.exit_code == 0, result.output


def test_matching_command_prints_pairs():
    runner = CliRunner()
    result = runner.invoke(main, ["matching", "--caps", "2,2,3", "--ell", "3"])
    assert result.exit_code == 0
    lines = [line for line in result.output.splitlines() if line]
    # Source box of degree 3 under caps (2,2,3) has 8 elements.
    assert len(lines) == 8
    assert all("->" in line for line in lines)
    # Each line is v -> w with v componentwise below w.
    for line in lines:
        left, right = line.split(" -> ")
        v = tuple(int(x) for x in left.split(","))
        w = tuple(int(x) for x in right.split(","))
        assert sum(v) == 3 and sum(w) == 4
        assert all(a <= b for a, b in zip(v, w))


def test_matching_command_rejects_high_degree():
    runner = CliRunner()
    result = runner.invoke(main, ["matching", "--caps", "2,2", "--ell", "3"])
    assert result.exit_code == 2
    assert "half" in result.output


def _refused(args):
    result = CliRunner().invoke(main, ["matching", *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:")
    return result.output


def test_matching_command_rejects_negative_degree():
    assert "negative" in _refused(["--caps", "2,2", "--ell", "-1"])


def test_matching_command_rejects_empty_caps():
    assert "non-empty" in _refused(["--caps", "", "--ell", "0"])


def test_matching_command_answers_deep_inputs():
    # The map takes at most 2 * len(caps) steps per element, whatever the
    # degree, so long shift runs and many caps need no deep call stack.
    for caps, ell, pairs in [("3000,3000", 1500, 1501), (",".join(["1"] * 500), 1, 500)]:
        result = CliRunner().invoke(main, ["matching", "--caps", caps, "--ell", str(ell)])
        assert result.exit_code == 0, result.exception
        assert len(result.output.splitlines()) == pairs
    result = CliRunner().invoke(main, ["matching", "--caps", "3000,3000", "--ell", "1500"])
    lines = result.output.splitlines()
    assert lines[0] == "0,1500 -> 1500,3000" and lines[-1] == "1500,0 -> 3000,1500"


def test_matching_command_answers_small_box_of_huge_caps():
    t0 = time.perf_counter()
    result = CliRunner().invoke(main, ["matching", "--caps", "1000000000", "--ell", "100000000"])
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 0, result.exception
    assert result.output == "100000000 -> 900000000\n"


def test_matching_command_rejects_oversized_box():
    # Ten caps of 100 at degree 240: the box has about 8e15 elements; it is
    # refused from its size, before any enumeration.
    t0 = time.perf_counter()
    output = _refused(["--caps", ",".join(["100"] * 10), "--ell", "240"])
    assert time.perf_counter() - t0 < 1.0
    assert "8027667243448424 elements" in output and str(MATCHING_BOX_LIMIT) in output
    assert "Traceback" not in output
    # Many caps are counted without a 2^len(caps) sum, and a huge degree
    # without a degree-long table.
    for caps, ell in [(",".join(["1"] * 60), 30), ("1000000000,1000000000", 100000000),
                      (",".join(["1"] * 100000), 2), (",".join(map(str, range(1, 40))), 390)]:
        t0 = time.perf_counter()
        assert "limit" in _refused(["--caps", caps, "--ell", str(ell)])
        assert time.perf_counter() - t0 < 1.0
    assert "100000001 elements" in _refused(
        ["--caps", "1000000000,1000000000", "--ell", "100000000"])
    assert "non-negative" in _refused(["--caps", "2,-3", "--ell", "1"])
    assert "int64" in _refused(["--caps", f"{2 ** 62},{2 ** 62}", "--ell", "1"])


def test_slopes_command_curve_scenario(tmp_path):
    scenario = tmp_path / "curve.json"
    scenario.write_text(json.dumps([
        {"name": "curve", "n": 1, "p": 2, "rkW": 1, "muW": 0, "g": 2},
    ]))
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    rec = out["scenarios"][0]
    assert rec["mu_pushforward"] == "1/2"
    assert rec["rk_pushforward"] == 2
    assert rec["warnings"] == []


def test_slopes_command_negative_kh_warns_and_omits_bound(tmp_path):
    scenario = tmp_path / "neg.json"
    scenario.write_text(json.dumps({
        "n": 2, "p": 3, "rkW": 1, "muW": "1/2", "KH": "-2",
        "instabilities": ["1/2", 0],
    }))
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 0, result.output
    rec = json.loads(result.output)["scenarios"][0]
    assert "instability_bound" not in rec
    assert any("omitted" in w for w in rec["warnings"])


def test_slopes_command_full_profile_diagnosis(tmp_path):
    scenario = tmp_path / "full.json"
    scenario.write_text(json.dumps({
        "n": 1, "p": 3, "rkW": 1, "muW": 0, "g": 2,
        "profile": [1, 1, 1],
        "instabilities": [0, 0, 0],
    }))
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 0, result.output
    rec = json.loads(result.output)["scenarios"][0]
    assert rec["gap_lower_bound"] == "0"
    assert rec["curve_gap"] == "0"
    assert rec["equality_diagnosis"] == {
        "full_length": True, "symmetric": True, "asymmetric_layers": [],
    }
    assert rec["instability_bound"] == "0"


def test_slopes_command_parse_error(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps([{"n": 1, "p": 2, "rkW": 1, "muW": "x/y", "g": 2}]))
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2
    assert "scenario 0" in result.output and "muW" in result.output
    assert result.output.count("scenario 0") == 1, result.output


def test_slopes_command_rejects_zero_total_profile(tmp_path):
    runner = CliRunner()
    for profile in ([0], []):
        scenario = tmp_path / "zero.json"
        scenario.write_text(json.dumps(
            [{"n": 1, "p": 3, "rkW": 1, "muW": 0, "g": 2, "profile": profile}]))
        result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "scenario 0" in result.output and "profile" in result.output


def test_slopes_command_rejects_instabilities_past_the_top_layer(tmp_path):
    scenario = tmp_path / "long.json"
    scenario.write_text(json.dumps([{"n": 1, "p": 2, "rkW": 1, "muW": 0, "g": 2, "profile": [1],
                                     "instabilities": [0, 0, 0, "7/2"]}]))
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # refused, not a traceback
    assert "scenario 0: field 'instabilities' has 4 entries, more than 2 layers" in result.output


def test_slopes_command_rejects_top_degree_beyond_limit(tmp_path):
    runner = CliRunner()
    for n, p in [(1, 1000000007), (1001, 2), (5, 251)]:
        scenario = tmp_path / "big.json"
        scenario.write_text(json.dumps([{"n": n, "p": p, "rkW": 1, "muW": 0, "KH": 1}]))
        result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "scenario 0" in result.output and "top degree" in result.output


def test_slopes_command_malformed_json(tmp_path):
    scenario = tmp_path / "broken.json"
    scenario.write_text("{not json")
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2
    assert "line" in result.output


def test_slopes_command_refuses_an_out_path_in_a_missing_directory(tmp_path, monkeypatch):
    evaluated = []
    monkeypatch.setattr(cli_mod, "evaluate_scenarios", evaluated.append)
    scenario = tmp_path / "curve.json"
    scenario.write_text(json.dumps([{"n": 1, "p": 2, "rkW": 1, "muW": 0, "g": 2}]))
    out = tmp_path / "missing" / "out.json"
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario), "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # refused, not a traceback
    assert result.output == f"output error: no directory for {out}\n"
    assert evaluated == [] and not out.parent.exists()


def _pinned_scenarios() -> list[dict]:
    """Seeded records mixing every input form the scenario loader accepts."""
    rng = random.Random("slopes-output-pin")
    records = []
    for i in range(150):
        n = rng.randint(1, 4)
        p = rng.choice((2, 3, 5, 7))
        top = n * (p - 1)
        rec = {"name": f"rec-{i}", "n": n, "p": p, "rkW": rng.randint(1, 4)}
        if n == 1 and i % 2:
            rec["g"] = rng.randint(0, 5)
        else:
            rec["KH"] = f"{rng.randint(-6, 12)}/{rng.randint(1, 6)}"
        if i % 3:
            rec["muW"] = f"{rng.randint(-6, 6)}/{rng.randint(1, 6)}"
        else:
            rec["c1WH"] = rng.randint(-9, 9)
        if i % 4:
            profile = [rng.randint(0, 5) for _ in range(rng.randint(1, top + 1))]
            profile[0] += 1
            rec["profile"] = profile
        if i % 5 < 2:
            rec["instabilities"] = [f"{rng.randint(0, 4)}/{rng.randint(1, 3)}"
                                    for _ in range(rng.randint(0, top + 1))]
        records.append(rec)
    # A zero gap: the full layer profile of the pushforward itself.
    records.append({"name": "full", "n": 2, "p": 3, "rkW": 2, "KH": 3, "muW": "1/2",
                    "profile": [2 * trunc_rank(2, 3, ell) for ell in range(5)]})
    return records


def test_slopes_command_output_is_pinned(tmp_path):
    records = _pinned_scenarios()
    assert any("g" in r for r in records) and any("KH" in r for r in records)
    assert any("muW" in r for r in records) and any("c1WH" in r for r in records)
    assert any("profile" in r and "instabilities" in r for r in records)
    assert any("profile" in r and "instabilities" not in r for r in records)
    assert any(str(r.get("KH", "")).startswith("-") for r in records)
    assert max(r["n"] for r in records) == 4
    scenario = tmp_path / "pin.json"
    scenario.write_text(json.dumps(records))
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario), "--out", str(out)])
    assert result.exit_code == 0, result.output
    evaluated = json.loads(out.read_text())["scenarios"]
    assert evaluated[-1]["gap_lower_bound"] == "0" and "equality_diagnosis" in evaluated[-1]
    assert any("KH is negative" in w for rec in evaluated for w in rec["warnings"])
    # Recorded before the layer slopes moved onto one common denominator.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "140a224ccb3283b245b1da27a4aefe3f1157e0143debe5b3f33a96d0a7fce54c"


def _huge_integer_scenarios() -> list[tuple[str, str]]:
    """Records that once ended in a ValueError traceback from Python's
    4,300-digit int <-> str limit, with the field each is refused for."""
    return [
        # json.load refuses the literal itself.
        ('[{"n": 1, "p": 2, "rkW": ' + "1" * 5000 + ', "muW": 0, "g": 2}]', "rkW"),
        # rk_pushforward = rkW * 2^1000 could not be printed.
        (json.dumps([{"n": 1000, "p": 2, "rkW": int("1" * 4201), "muW": 0, "KH": 1}]), "rkW"),
        # Nor could the pushforward slope.
        (json.dumps([{"n": 1, "p": 2, "rkW": 1, "KH": "9" * 4000, "muW": "1/" + "7" * 4000}]),
         "KH"),
    ]


def test_slopes_command_refuses_huge_integers(tmp_path):
    scenario = tmp_path / "huge.json"
    for text, field in _huge_integer_scenarios():
        scenario.write_text(text)
        result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # refused, not a traceback
        assert "Traceback" not in result.output
        assert f"scenario 0: field '{field}' has more than 1000 digits" in result.output


def test_slopes_command_refuses_zero_rank_with_c1(tmp_path):
    # c1WH / rkW is taken only after the rank is checked.
    scenario = tmp_path / "rank0.json"
    scenario.write_text(json.dumps([{"n": 1, "p": 2, "rkW": 0, "c1WH": 1, "g": 2}]))
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "scenario 0: rank must be positive" in result.output


def test_slopes_command_refuses_mu_with_c1(tmp_path):
    # A consistent pair (muW = c1WH / rkW) used to be accepted.
    scenario = tmp_path / "both.json"
    scenario.write_text(json.dumps([{"n": 1, "p": 3, "rkW": 2, "muW": "1/2", "c1WH": 1, "g": 2}]))
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "scenario 0: mu_w and c1_wh are mutually exclusive" in result.output


def test_slopes_output_is_json_dumps(tmp_path):
    # The package's writer gives exactly json.dumps(indent=2, sort_keys=True).
    scenario = tmp_path / "pin.json"
    scenario.write_text(json.dumps(_pinned_scenarios()))
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, ["slopes", "--scenario", str(scenario), "--out", str(out)])
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
