"""Smoke tests for the benchmark: every workload at a tiny size, the traced
run, the output checks and the refusal to run without a program.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads as wl

ROOT = run.ROOT


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_tiny(name):
    result, detail = run.run_benchmark(name, seed=3, seconds=0, trace=False, tiny=True)
    assert detail["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert [m for m in metrics] == [m for m, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
    samples = detail["samples"]
    assert samples["slowdown"] > 0 and samples["reference_s"]
    assert metrics["run_s"]["value"] == pytest.approx(
        statistics.fmean(samples["run_s"]) / samples["slowdown"])
    prov = detail["provenance"]
    assert prov["workload"] == name and prov["seed"] == 3 and prov["argv"][0] == "truncsym"
    assert {"commit", "python", "numpy", "nproc", "source_sha256"} <= set(prov)


@pytest.mark.parametrize("name", ["verify-default", "slopes-batch"])
def test_traced_run_reports_every_layer(name):
    result, detail = run.run_benchmark(name, seed=5, seconds=0, trace=True, tiny=True)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [m for m, _, _ in run.PER_LAYER]
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["trace.spans"] > 0
    if name == "verify-default":
        assert values["trunc_algebra.apply_diff.calls"] > 0
        assert values["fp_linalg.row_reduce.entries"] > 0
        assert 0 < values["trunc_algebra.random_subspace.accept_ratio"] <= 1
        assert values["suites.growth.cases"] > 0 and values["suites.growth.s"] > 0
        assert values["scenario.evaluate_scenario.p50_ms"] == 0
    else:
        assert values["scenario.evaluate_scenario.p99_ms"] >= \
            values["scenario.evaluate_scenario.p50_ms"] > 0
        assert values["scenario.output_s"] > 0
        assert values["slopes.graded_slope.calls"] > 0
        assert values["suites.growth.cases"] == 0


def test_slowdown_is_mean_reference_time_over_nominal():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.slowdown([nominal, 3 * nominal, 2 * nominal]) == pytest.approx(2.0)


def _evaluate(records, tmp_path):
    scenario = tmp_path / "in.json"
    out = tmp_path / "out.json"
    scenario.write_text(json.dumps(records))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "truncsym.cli", "slopes", "--scenario", str(scenario),
         "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_corrupted_slopes_output_counts_as_failed(tmp_path):
    records = wl.make_scenarios(seed=11, count=40)
    out = _evaluate(records, tmp_path)
    assert wl.check_slopes(records, str(out), 0).failed == 0

    doc = json.loads(out.read_text())
    doc["scenarios"][3]["mu_pushforward"] += "1"
    slopes = doc["scenarios"][7]["graded_slopes"]
    slopes[-1] = slopes[-1] + "1"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    outcome = wl.check_slopes(records, str(out), 0)
    assert outcome.failed == 2
    assert any("rec-3" in p for p in outcome.problems)
    assert any("rec-7" in p for p in outcome.problems)
    assert wl.check_slopes(records, str(out), 1).failed == len(records)


def test_scenarios_are_seeded_and_profiles_positive():
    a, b = wl.make_scenarios(7, 300), wl.make_scenarios(7, 300)
    assert a == b and a != wl.make_scenarios(8, 300)
    profiles = [r["profile"] for r in a if "profile" in r]
    assert profiles and all(sum(p) > 0 for p in profiles)
    assert any("g" in r for r in a) and any("KH" in r for r in a)
    assert any("muW" in r for r in a) and any("c1WH" in r for r in a)
    assert any("instabilities" in r for r in a)


def test_verify_check_rejects_failed_report(tmp_path):
    report = {"passed": False, "suites": {"ranks": {"cases": 5, "passed": False}},
              "timings": {}}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    outcome = wl.check_verify(str(path), 1)
    assert outcome.items == 5 and outcome.failed == 5


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in wl.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_children_and_generator_consumers(tmp_path):
    def spin(seconds):
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            pass

    def leaf():
        spin(0.002)

    def gen():
        for _ in range(3):
            leaf_w()
            yield

    def consumer():
        for _ in gen_w():
            leaf_w()

    t = tracer.Tracer()
    leaf_w = t.wrap("m.leaf", leaf)
    gen_w = t.wrap("m.gen", gen)
    consumer_w = t.wrap("m.consumer", consumer)
    consumer_w()
    path = tmp_path / "spans.npz"
    t.save(str(path))
    spans = tracer.SpanTable(str(path))

    assert spans.calls("m.leaf") == 6 and spans.calls("m.gen") == 1
    assert spans.calls_under("m.leaf", "m.gen") == 3
    assert spans.calls_under("m.leaf", "m.consumer") == 3
    # Self times partition the root span's time.
    total = sum(spans.self_s(n) for n in ("m.leaf", "m.gen", "m.consumer"))
    assert total == pytest.approx(float(spans.durations("m.consumer")[0]), rel=1e-9)
    # The generator's own frames do almost nothing; the leaves do the work.
    assert spans.self_s("m.gen") < spans.self_s("m.leaf") / 4
    assert spans.self_s("m.leaf") >= 6 * 0.002
