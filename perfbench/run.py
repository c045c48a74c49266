"""Benchmark for the truncsym CLI: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program under test is
``src/truncsym`` of that checkout, imported in a fresh process per command
(``child.py``), so every command pays for cold ``lru_cache``s as a user's
invocation does.  Processes run one at a time, each single-threaded.

``--trace 0`` first times interpreter start plus ``import truncsym.cli``
several times (``setup_s``), then runs the workload's command repeatedly
while another run of typical length fits in ``--seconds`` (at least once),
and reports mean times scaled to a nominal machine speed, measured by a
fixed reference kernel timed between the commands (``slowdown``).
Successive commands run on successive allowed CPUs.  ``--trace 1`` runs
the command once untraced and once with every public function of the
package wrapped (``tracer.py``), and reports per-module self times and work
counts, plus the tracing overhead.

Every run's output is checked (``workloads.py``); the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it gives provenance and the raw samples.  Outside a checkout
(no ``src/truncsym``) the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_SAMPLES = 6  # setup-only processes before the first command, after a warm-up
TINY_SLOPES_RECORDS = 200
# Every REFERENCE_PERIOD_S of a pinned command, the command is stopped and the
# reference kernel runs on its CPU for REFERENCE_BURST_S; it also runs for
# that long after each command.
REFERENCE_PERIOD_S = 1.0
REFERENCE_BURST_S = 0.1
# The reference kernel's time on the nominal machine that reported times are
# scaled to; an uncontended vCPU of a current Xeon server takes about 9 ms.
REFERENCE_NOMINAL_S = 0.010
DEADLINE_S = 170  # a run must end within 180 s; leave room to report

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

SUITES = ("filtration", "growth", "koszul", "matching", "ranks", "slopes")

# (name, unit, better).  "<module>.<function>.calls" and ".self_s" come from
# the spans directly; the other names are computed in _layer_values.
PER_LAYER = [
    ("fp_linalg.row_reduce.calls", "count", "lower"),
    ("fp_linalg.row_reduce.self_s", "s", "lower"),
    ("fp_linalg.row_reduce.entries", "count", "lower"),
    ("fp_linalg.is_prime.calls", "count", "lower"),
    ("fp_linalg.is_prime.self_s", "s", "lower"),
    ("monomial_box.enumerate_box.calls", "count", "lower"),
    ("monomial_box.enumerate_box.self_s", "s", "lower"),
    ("monomial_box.enumerate_box.repeat_ratio", "ratio", "lower"),
    ("monomial_box.dominance_matching.self_s", "s", "lower"),
    ("monomial_box.verify_matching.self_s", "s", "lower"),
    ("monomial_box.hall_matching_exists.calls", "count", "lower"),
    ("monomial_box.hall_matching_exists.self_s", "s", "lower"),
    ("trunc_power.symmetrized_tensor.calls", "count", "lower"),
    ("trunc_power.symmetrized_tensor.self_s", "s", "lower"),
    ("trunc_power.symmetrized_tensor.words", "count", "lower"),
    ("trunc_power.sparse_rank.self_s", "s", "lower"),
    ("trunc_power.verify_koszul_exact.self_s", "s", "lower"),
    ("trunc_algebra.apply_diff.calls", "count", "lower"),
    ("trunc_algebra.apply_diff.self_s", "s", "lower"),
    ("trunc_algebra.spanned_image_dim.calls", "count", "lower"),
    ("trunc_algebra.spanned_image_dim.self_s", "s", "lower"),
    ("trunc_algebra.omega_pairing_matrix.self_s", "s", "lower"),
    ("trunc_algebra.random_subspace.accept_ratio", "ratio", "higher"),
    ("filtration.nabla_power_row.calls", "count", "lower"),
    ("filtration.nabla_power_row.self_s", "s", "lower"),
    ("filtration.nabla_power_row.word_entries", "count", "lower"),
    ("filtration.graded_nabla_matrix.self_s", "s", "lower"),
    ("filtration.filtration_basis.self_s", "s", "lower"),
    ("slopes.graded_slope.calls", "count", "lower"),
    ("slopes.graded_slope.self_s", "s", "lower"),
    ("slopes.gap_lower_bound.self_s", "s", "lower"),
    ("slopes.weight_sum_check.calls", "count", "lower"),
    ("slopes.weight_sum_check.self_s", "s", "lower"),
    ("scenario.load_scenarios.self_s", "s", "lower"),
    ("scenario.evaluate_scenario.self_s", "s", "lower"),
    ("scenario.evaluate_scenario.p50_ms", "ms", "lower"),
    ("scenario.evaluate_scenario.p99_ms", "ms", "lower"),
    ("scenario.output_s", "s", "lower"),
    *[(f"suites.{s}.{stat}", unit, better) for s in SUITES
      for stat, unit, better in (("s", "s", "lower"), ("cases", "count", "higher"))],
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (as opposed to the program failing)."""


@dataclass
class Iteration:
    """One workload command in one fresh process."""

    wall_s: float
    setup_s: float | None = None
    run_s: float | None = None
    rss_mb: float | None = None
    t_done: float | None = None
    counters: dict = field(default_factory=dict)
    outcome: wl.Outcome | None = None


class Runner:
    def __init__(self, workload: wl.Workload, seed: int, workdir: Path, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.input_path = workdir / "scenarios.json"
        self.records: list[dict] = []
        if workload.command == "slopes":
            count = TINY_SLOPES_RECORDS if tiny else wl.SLOPES_RECORDS
            self.records = wl.make_scenarios(seed, count)
            self.input_path.write_text(json.dumps(self.records), encoding="utf-8")
        self.argv = workload.argv(seed, self._rel(self.input_path),
                                  self._rel(workdir / "out.json"), tiny)
        self.iterations: list[Iteration] = []
        self.problems: list[str] = []
        self._slopes_checked: dict[str, wl.Outcome] = {}
        self._cpus = sorted(os.sched_getaffinity(0))
        self.reference_s: list[float] = []

    def cpu(self, k: int) -> int:
        """The allowed CPU for the k-th sample of a kind, in turn.

        On a shared virtual machine each vCPU's speed drifts on its own over
        tens of seconds; giving successive samples successive CPUs makes a
        median over them sample every CPU.
        """
        return self._cpus[k % len(self._cpus)]

    @staticmethod
    def _rel(path: Path) -> str:
        return os.path.relpath(path, ROOT)

    def _spawn(self, args: list[str], cpu: int | None) -> tuple[float, dict | None, str]:
        """Run child.py, on ``cpu`` alone if given; return its wall time, its
        result (None if it wrote none) and the tail of its stderr.

        A pinned child is stopped every ``REFERENCE_PERIOD_S`` while the
        reference kernel runs on its CPU; the result's ``t_ready``, ``t_start``
        and ``t_done`` are shifted back by the stopped time before each, so
        that differences between them count only the time the child ran.
        """
        result_path = self.workdir / "child.json"
        result_path.unlink(missing_ok=True)
        stderr_path = self.workdir / "child.stderr"
        if self.deadline - time.monotonic() <= 0:
            raise BenchmarkError(f"out of time after {DEADLINE_S} s")
        pauses: list[tuple[float, float]] = []
        t_spawn = time.monotonic()
        with open(stderr_path, "wb") as stderr_file:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(result_path), *args],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr_file,
                preexec_fn=lambda: _child_setup(cpu),
            )
            try:
                while True:
                    remaining = self.deadline - time.monotonic()
                    if remaining <= 0:
                        raise BenchmarkError(f"command did not finish within {DEADLINE_S} s")
                    try:
                        proc.wait(timeout=min(remaining, REFERENCE_PERIOD_S))
                        break
                    except subprocess.TimeoutExpired:
                        if cpu is not None:
                            self._pause_for_reference(proc, cpu, pauses)
            finally:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGCONT)
                    proc.kill()
                    proc.wait()
        wall = time.monotonic() - t_spawn
        stderr = stderr_path.read_bytes().decode(errors="replace")[-2000:]
        if not result_path.exists():
            return wall, None, stderr
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["t_spawn"] = t_spawn
        for key in ("t_ready", "t_start", "t_done"):
            if key in result:
                result[key] -= sum(min(t1, result[key]) - t0 for t0, t1 in pauses
                                   if t0 < result[key])
        loaded = Path(result["truncsym_file"]).resolve()
        if SRC.resolve() not in loaded.parents:
            raise BenchmarkError(f"child imported truncsym from {loaded}, not from {SRC}")
        return wall, result, stderr

    def _pause_for_reference(self, proc: subprocess.Popen, cpu: int,
                             pauses: list[tuple[float, float]]) -> None:
        """Stop ``proc``, time the reference kernel on its CPU, resume it, and
        record the stopped interval; do nothing if it has already exited."""
        t0 = time.monotonic()
        proc.send_signal(signal.SIGSTOP)  # a no-op once proc has been reaped
        if proc.returncode is not None:
            return
        try:
            # Wait until it has stopped (or exited) without reaping it.
            state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if state.si_code == os.CLD_STOPPED:
                self.reference(cpu, REFERENCE_BURST_S)
        finally:
            proc.send_signal(signal.SIGCONT)
            pauses.append((t0, time.monotonic()))

    def reference(self, cpu: int, seconds: float) -> None:
        """Time the reference kernel on ``cpu`` alone, repeatedly, for ``seconds``."""
        os.sched_setaffinity(0, {cpu})
        try:
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                self.reference_s.append(reference_kernel())
        finally:
            os.sched_setaffinity(0, self._cpus)

    def setup_sample(self, cpu: int | None = None) -> float:
        wall, result, stderr = self._spawn(["setup"], cpu)
        if result is None:
            raise BenchmarkError(f"import truncsym.cli failed: {stderr}")
        return result["t_ready"] - result["t_spawn"]

    def iterate(self, traced: bool = False, cpu: int | None = None) -> Iteration:
        out_path = self.workdir / "out.json"
        out_path.unlink(missing_ok=True)
        spans_path = self.workdir / "spans.npz"
        mode = ["trace", str(spans_path)] if traced else ["run"]
        wall, result, stderr = self._spawn([*mode, "--", *self.argv], cpu)
        it = Iteration(wall)
        exit_code = None
        if result is None:
            self.problems.append(f"command crashed: {stderr.strip()[-500:]}")
        else:
            exit_code = result["exit_code"]
            it.setup_s = result["t_ready"] - result["t_spawn"]
            it.run_s = result["t_done"] - result["t_start"]
            it.rss_mb = result["maxrss_kb"] / 1024
            it.t_done = result["t_done"]
            it.counters = result.get("counters", {})
        it.outcome = self._check(out_path, exit_code)
        self.problems.extend(p for p in it.outcome.problems if p not in self.problems)
        self.iterations.append(it)
        return it

    def _check(self, out_path: Path, exit_code: int | None) -> wl.Outcome:
        if self.workload.command == "slopes":
            return wl.check_slopes(self.records, str(out_path), exit_code,
                                   self._slopes_checked)
        outcome = wl.check_verify(str(out_path), exit_code)
        if outcome.digest is not None:
            reference = self._reference_digest(outcome.digest)
            if outcome.digest != reference:
                outcome.problems.append(
                    "report without timings differs from an earlier run of this "
                    f"source tree and seed ({outcome.digest[:12]} != {reference[:12]})")
                outcome.failed = outcome.items
        return outcome

    def _reference_digest(self, digest: str) -> str:
        """The first report digest seen for this source tree, workload and seed
        (persisted across runs), recording ``digest`` if there is none yet."""
        store = WORK_ROOT / "report_digests.json"
        known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
        key = f"{source_digest()}:{self.workload.name}:{self.seed}:{' '.join(self.argv[:-2])}"
        if key not in known:
            known[key] = digest
            staged = self.workdir / "report_digests.json"
            staged.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(staged, store)
        return known[key]

    def tally(self) -> tuple[int, int]:
        """(attempted, failed) items over all iterations.  An iteration whose
        output could not be read counts as many failed items as a readable
        one had, or one if none was readable."""
        known = [it.outcome.items for it in self.iterations if it.outcome.items]
        fallback = max(known, default=1)
        attempted = failed = 0
        for it in self.iterations:
            if it.outcome.items is None:
                attempted += fallback
                failed += fallback
            else:
                attempted += it.outcome.items
                failed += it.outcome.failed
        return attempted, failed


def _child_setup(cpu: int | None) -> None:
    """Runs in the child before exec: pin it to ``cpu`` if given, and have it
    killed if the runner dies, so that no child is left behind, stopped or
    running."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work: rational and
    dictionary arithmetic, as in the program."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    table: dict[int, int] = {}
    for i in range(30000):
        table[i % 977] = table.get(i % 977, 0) + i
    return time.perf_counter() - t0


def slowdown(reference_s: list[float]) -> float:
    """How much slower than the nominal machine this one ran during the run:
    the reference kernel's mean time over ``REFERENCE_NOMINAL_S``.

    Other tenants of a shared host slow each vCPU by up to about 1.8x, in
    phases that last from under a second to minutes, so raw timings move by
    tens of percent between runs of the same code.  The reference kernel,
    timed between the commands on the same CPUs, meets the same phases, so
    a mean time over the run divided by this factor moves far less.  Means,
    not medians: a command of a few seconds averages over the phases, while
    a median of short kernel times would pick one of them.
    """
    return statistics.fmean(reference_s) / REFERENCE_NOMINAL_S


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(runner: Runner, seconds: float, trace: bool) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": runner.workload.name,
        "seed": runner.seed,
        "argv": ["truncsym", *runner.argv],
        "seconds": seconds,
        "trace": int(trace),
    }


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.setup_sample()  # warm-up: bytecode compilation and file cache
    # The machine's speed drifts over tens of seconds, so setup samples are
    # spread over the run: some before the first command, one after each.
    setups = [runner.setup_sample(runner.cpu(k)) for k in range(SETUP_SAMPLES)]
    start = time.monotonic()
    while True:
        cpu = runner.cpu(len(runner.iterations))
        runner.iterate(cpu=cpu)
        runner.reference(cpu, REFERENCE_BURST_S)
        setups.append(runner.setup_sample(runner.cpu(len(setups))))
        walls = [it.wall_s for it in runner.iterations]
        # Run again if a typical command fits in the budget.
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    done = [it for it in runner.iterations if it.run_s is not None]
    if not done:
        raise BenchmarkError("no run of the command completed: " + "; ".join(runner.problems))
    setups += [it.setup_s for it in done]
    attempted, failed = runner.tally()
    factor = slowdown(runner.reference_s)
    run_s = statistics.fmean(it.run_s for it in done) / factor
    values = {
        "setup_s": statistics.fmean(setups) / factor,
        "run_s": run_s,
        "items_per_s": statistics.median(it.outcome.items or 0 for it in done) / run_s,
        "peak_rss_mb": statistics.median(it.rss_mb for it in done),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {
        "slowdown": factor,
        "reference_s": runner.reference_s,
        "setup_s": setups,
        "run_s": [it.run_s for it in done],
        "wall_s": [it.wall_s for it in runner.iterations],
        "peak_rss_mb": [it.rss_mb for it in done],
        "items": [it.outcome.items for it in runner.iterations],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(spans, counters: dict, report: dict | None, untraced: Iteration,
                  traced: Iteration) -> dict:
    import numpy as np

    values: dict = {}
    for name, _, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = spans.calls(fn)
        elif stat == "self_s":
            values[name] = spans.self_s(fn)
    durations_ms = spans.durations("scenario.evaluate_scenario") * 1000
    evaluated = spans.calls("scenario.evaluate_scenarios")
    report = report or {"timings": {}, "suites": {}}
    values.update({
        "fp_linalg.row_reduce.entries": counters.get("fp_linalg.row_reduce.entries", 0),
        "monomial_box.enumerate_box.repeat_ratio": _ratio(
            counters.get("monomial_box.enumerate_box.repeats", 0),
            spans.calls("monomial_box.enumerate_box")),
        "trunc_power.symmetrized_tensor.words":
            counters.get("trunc_power.symmetrized_tensor.words", 0),
        "trunc_algebra.random_subspace.accept_ratio": _ratio(
            spans.calls("trunc_algebra.GradedSubspace.random"),
            spans.calls_under("trunc_algebra.GradedSubspace.from_vectors",
                              "trunc_algebra.GradedSubspace.random")),
        "filtration.nabla_power_row.word_entries":
            counters.get("filtration.nabla_power_row.word_entries", 0),
        "scenario.evaluate_scenario.p50_ms":
            float(np.percentile(durations_ms, 50)) if durations_ms.size else 0.0,
        "scenario.evaluate_scenario.p99_ms":
            float(np.percentile(durations_ms, 99)) if durations_ms.size else 0.0,
        "scenario.output_s":
            traced.t_done - spans.last_end("scenario.evaluate_scenarios") if evaluated else 0.0,
        "trace.overhead_s": traced.run_s - untraced.run_s,
        "trace.spans": len(spans),
    })
    for s in SUITES:
        values[f"suites.{s}.s"] = report["timings"].get(s, 0.0)
        values[f"suites.{s}.cases"] = report["suites"].get(s, {}).get("cases", 0)
    return values


def measure_layers(runner: Runner) -> tuple[dict, dict]:
    import tracer

    runner.setup_sample()  # warm-up, as for the untraced measurement
    untraced = runner.iterate()
    traced = runner.iterate(traced=True)
    if untraced.run_s is None or traced.run_s is None:
        raise BenchmarkError("the command did not complete: " + "; ".join(runner.problems))
    spans = tracer.SpanTable(str(runner.workdir / "spans.npz"))
    values = _layer_values(spans, traced.counters, untraced.outcome.report, untraced, traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    samples = {
        "run_s": {"untraced": untraced.run_s, "traced": traced.run_s},
        "functions": spans.summary(),
        "counters": traced.counters,
    }
    return metrics, samples


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the detail record."""
    if not (SRC / "truncsym" / "cli.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'truncsym'} is missing")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        runner = Runner(wl.WORKLOADS[name], seed, workdir, tiny)
        if trace:
            metrics, samples = measure_layers(runner)
        else:
            metrics, samples = measure_end_to_end(runner, seconds)
        attempted, failed = runner.tally()
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        detail = {"provenance": provenance(runner, seconds, trace), "samples": samples,
                  "problems": runner.problems[:20]}
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally clauses that resume and reap the
    # running command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
