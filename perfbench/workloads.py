"""Benchmark workloads: CLI argv, seeded inputs and independent output checks.

Each workload is one ``truncsym`` command run in a fresh process.  The
verify workloads are checked by exit code, the report's ``passed`` flag
and the digest of the report without its ``timings`` subtree, which must
not change between runs of one source tree and seed.  The slopes workload
is checked record by record against identities recomputed here with
``Fraction``, never with the program's own functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Records per slopes command: about 0.3 s of evaluation, so that a run of a
# few tens of seconds averages over dozens of fresh processes.
SLOPES_RECORDS = 1_000
SLOPES_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "slopes"
    args: tuple[str, ...]
    tiny_args: tuple[str, ...]  # the same command at smoke-test size
    seeded: bool
    why: str

    def argv(self, seed: int, input_path: str, out_path: str, tiny: bool = False) -> list[str]:
        argv = [self.command, *(self.tiny_args if tiny else self.args)]
        if self.command == "slopes":
            argv += ["--scenario", input_path]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--out", out_path]


def _index(*workloads: Workload) -> dict[str, Workload]:
    return {w.name: w for w in workloads}


VERIFY_DEFAULT = Workload(
    "verify-default", "verify", (),
    ("--n-max", "2", "--primes", "2,3", "--max-sigma", "4",
     "--matching-n-max", "2", "--random-subspaces", "2"),
    True,
    "truncsym verify --seed S: the run users make; growth (apply_diff, is_prime) "
    "and matching dominate, fp_linalg sees many tiny matrices",
)
SLOPES_BATCH = Workload(
    "slopes-batch", "slopes", (), (), False,
    "truncsym slopes --scenario F --out O on 1k seeded records: exact Fraction "
    "work in slopes and scenario, no F_p code",
)
FILTRATION_WIDE = Workload(
    "filtration-wide", "verify",
    ("--suites", "filtration", "--n-max", "5", "--primes", "2,3,5,7,11"),
    ("--suites", "filtration", "--n-max", "2", "--primes", "2,3"),
    False,
    "truncsym verify --suites filtration --n-max 5 --primes 2,3,5,7,11: word-level "
    "symmetrized_tensor and nabla_power_row; skips growth and matching",
)
MATCHING_WIDE = Workload(
    "matching-wide", "verify",
    ("--suites", "matching", "--matching-n-max", "5"),
    ("--suites", "matching", "--matching-n-max", "2", "--max-sigma", "6"),
    False,
    "truncsym verify --suites matching --matching-n-max 5: 92,820 cases; box "
    "enumeration, matching and Hall oracle dominate, box cache grows large",
)

# The workloads BENCHMARK.json lists.  verify-default is the run users make;
# filtration-wide and matching-wide each drive one layer that verify-default
# spends little time in (word kernels; box enumeration, matching and the
# Hall oracle); slopes-batch runs only the exact slope code.
WORKLOADS = _index(VERIFY_DEFAULT, FILTRATION_WIDE, MATCHING_WIDE, SLOPES_BATCH)


@dataclass
class Outcome:
    """What one run of a workload produced, as judged by its check."""

    items: int | None  # None when the output could not be read
    failed: int
    digest: str | None
    problems: list[str] = field(default_factory=list)
    report: dict | None = None


def _digest(doc) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(report_path: str, exit_code: int) -> Outcome:
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        items = sum(s["cases"] for s in report["suites"].values())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(None, 0, None, [f"report unreadable: {exc}"])
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("passed") is not True:
        bad = sorted(k for k, s in report["suites"].items() if not s.get("passed"))
        problems.append(f"report not passed (suites {', '.join(bad)})")
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return Outcome(items, items if problems else 0, _digest(stripped), problems, report)


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------

def _rational(rng: random.Random, lo: int, hi: int, max_den: int) -> str:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return f"{num}/{den}" if den > 1 else str(num)


def make_scenarios(seed: int, count: int = SLOPES_RECORDS) -> list[dict]:
    """Seeded scenario records mixing every input form the loader accepts.

    Half the curve records give the genus instead of KH, half of all records
    give c1WH instead of muW; about 60% carry a rank profile (with a positive
    total, as the gap bound requires) and about 40% carry instabilities.
    """
    rng = random.Random(f"perfbench-slopes:{seed}")
    records = []
    for i in range(count):
        n = rng.randint(1, 4)
        p = rng.choice(SLOPES_PRIMES)
        top = n * (p - 1)
        rec: dict = {"name": f"rec-{i}", "n": n, "p": p, "rkW": rng.randint(1, 5)}
        if n == 1 and rng.random() < 0.5:
            rec["g"] = rng.randint(0, 6)
        else:
            rec["KH"] = _rational(rng, -3, 12, 4)
        if rng.random() < 0.5:
            rec["muW"] = _rational(rng, -4, 4, 5)
        else:
            rec["c1WH"] = _rational(rng, -12, 12, 3)
        length = 0
        if rng.random() < 0.6:
            length = rng.randint(1, top + 1)
            profile = [rng.randint(0, 6) for _ in range(length)]
            profile[0] = rng.randint(1, 6)
            rec["profile"] = profile
        if rng.random() < 0.4:
            rec["instabilities"] = [
                _rational(rng, 0, 3, 4) for _ in range(rng.randint(0, max(length, 1)))
            ]
        records.append(rec)
    return records


def _graded_slopes(mu_w: Fraction, kh: Fraction, n: int, count: int) -> list[str]:
    """mu_w + ell*kh/n for ell < count, in lowest terms as "a" or "a/b".

    Integer arithmetic over one common denominator: Fraction per layer
    would make this check cost more than the evaluation it checks.
    """
    den = mu_w.denominator * kh.denominator * n
    base = mu_w.numerator * kh.denominator * n
    step = kh.numerator * mu_w.denominator
    out = []
    for ell in range(count):
        num = base + ell * step
        g = math.gcd(num, den)
        out.append(str(num // g) if g == den else f"{num // g}/{den // g}")
    return out


def _check_record(rec: dict, out: dict) -> list[str]:
    """Identities every evaluated record must satisfy, recomputed here."""
    n, p, rk_w = rec["n"], rec["p"], rec["rkW"]
    top = n * (p - 1)
    kh = 2 * Fraction(rec["g"]) - 2 if "g" in rec else Fraction(rec["KH"])
    mu_w = Fraction(rec["muW"]) if "muW" in rec else Fraction(rec["c1WH"]) / rk_w
    problems = []

    def expect(label: str, got, want) -> None:
        if got != want:
            problems.append(f"{label}: got {got}, expected {want}")

    inputs = out["inputs"]
    expect("name", out["name"], rec["name"])
    expect("inputs", (inputs["n"], inputs["p"], inputs["rkW"]), (n, p, rk_w))
    expect("KH", Fraction(inputs["KH"]), kh)
    expect("muW", Fraction(inputs["muW"]), mu_w)
    expect("c1WH", Fraction(inputs["c1WH"]), mu_w * rk_w)
    rk = out["rk_pushforward"]
    expect("rk = rkW p^n", rk, rk_w * p ** n)
    mu = Fraction(out["mu_pushforward"])
    expect("p mu = (p-1)/2 KH + muW", p * mu, Fraction(p - 1, 2) * kh + mu_w)
    expect("c1 = mu rk", Fraction(out["c1_pushforward"]), mu * rk)
    expected = _graded_slopes(mu_w, kh, n, top + 1)
    if out["graded_slopes"] != expected:
        expect("graded slopes", [Fraction(s) for s in out["graded_slopes"]],
               [Fraction(s) for s in expected])

    profile = rec.get("profile")
    inst = [Fraction(x) for x in rec["instabilities"]] if "instabilities" in rec else None
    if profile is not None:
        rk_e = sum(profile)
        direct = Fraction(sum((top - 2 * ell) * r for ell, r in enumerate(profile)), 2)
        ws = out["weight_sum"]
        expect("weight-sum direct", Fraction(ws["direct"]), direct)
        expect("weight-sum rearranged", Fraction(ws["rearranged"]), direct)
        inst_term = sum((r * i for r, i in zip(profile, inst or ())), Fraction(0))
        gap = kh / (n * p * rk_e) * direct - inst_term / (p * rk_e)
        expect("gap lower bound", Fraction(out["gap_lower_bound"]), gap)
        if "g" in rec:
            expect("curve gap", Fraction(out["curve_gap"]), kh / (p * rk_e) * direct)
    if inst is not None:
        iwx = max(inst, default=Fraction(0))
        expect("max instability", Fraction(out["max_instability"]), iwx)
        bound = out.get("instability_bound")
        expect("instability bound",
               None if bound is None else Fraction(bound),
               p ** (n - 1) * rk_w * iwx if kh >= 0 else None)
    return problems


def check_slopes(records: list[dict], out_path: str, exit_code: int | None,
                 checked: dict[str, Outcome] | None = None) -> Outcome:
    """Check every evaluated record; ``checked`` maps output digests to
    earlier outcomes, so a byte-identical output is not checked twice."""
    items = len(records)
    try:
        with open(out_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return Outcome(items, items, None, [f"output unreadable: {exc}"])
    digest = hashlib.sha256(raw).hexdigest()
    if exit_code != 0:
        return Outcome(items, items, digest, [f"exit code {exit_code}"])
    if checked is not None and digest in checked:
        return checked[digest]
    outcome = Outcome(items, 0, digest)
    try:
        evaluated = json.loads(raw)["scenarios"]
    except (ValueError, KeyError, TypeError) as exc:
        evaluated = []
        outcome.problems.append(f"output unreadable: {exc!r}")
    if len(evaluated) != items:
        outcome.problems.append(f"{len(evaluated)} records evaluated, {items} given")
        outcome.failed = items
    else:
        for rec, out in zip(records, evaluated):
            try:
                bad = _check_record(rec, out)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                bad = [f"malformed output record: {exc!r}"]
            if bad:
                outcome.failed += 1
                if len(outcome.problems) < 10:
                    outcome.problems.append(f"{rec['name']}: {'; '.join(bad)}")
    if checked is not None:
        checked[digest] = outcome
    return outcome
