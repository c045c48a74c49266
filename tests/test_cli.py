import json

from click.testing import CliRunner

from truncsym.cli import main
from truncsym.suites import strip_timings

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


def test_verify_rejects_bad_prime():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--primes", "2,9"])
    assert result.exit_code == 2
    assert "not prime" in result.output


def test_verify_rejects_unknown_suite():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suites", "ranks,nonsense"])
    assert result.exit_code == 2
    assert "unknown suites" in result.output


def test_verify_rejects_oversized_sigma():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--max-sigma", "40"])
    assert result.exit_code == 2


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


def test_slopes_command_malformed_json(tmp_path):
    scenario = tmp_path / "broken.json"
    scenario.write_text("{not json")
    runner = CliRunner()
    result = runner.invoke(main, ["slopes", "--scenario", str(scenario)])
    assert result.exit_code == 2
    assert "line" in result.output
