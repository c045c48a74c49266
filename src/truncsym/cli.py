"""Command-line entry points: verification sweeps, matchings, slope scenarios.

Exit codes: 0 when everything passes, 1 on a verification failure,
2 on a configuration or input error.
"""

from __future__ import annotations

import os
import sys

import click

from .jsonout import dumps
from .monomial_box import dominance_matching
from .scenario import ScenarioError, evaluate_scenarios, load_scenarios
from .suites import ALL_SUITES, ConfigError, SuiteConfig, run_suite


@click.group()
def main() -> None:
    """Exact verification for truncated power algebra and slope bounds."""


def _check_out(out_path: str | None) -> None:
    """Exit 2 before any work when the output file's directory is missing."""
    if out_path and not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        click.echo(f"output error: no directory for {out_path}", err=True)
        sys.exit(2)


def _emit(text: str, out_path: str | None, written: str) -> None:
    """Write ``text`` to the output file and echo ``written``, or print it."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        click.echo(f"{written} written to {out_path}")
    else:
        click.echo(text)


def _parse_csv_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        # UsageError exits with code 2, matching the config-error contract.
        raise click.UsageError(f"cannot parse {label} list {text!r}")


@main.command()
@click.option("--n-max", default=SuiteConfig.n_max, show_default=True,
              help="Largest ambient dimension.")
@click.option("--primes", default=",".join(map(str, SuiteConfig.primes)), show_default=True,
              help="Comma-separated primes.")
@click.option(
    "--suites",
    "suite_list",
    default=",".join(SuiteConfig.suites),
    show_default=True,
    help="Comma-separated subset of: " + ", ".join(ALL_SUITES),
)
@click.option("--seed", default=SuiteConfig.seed, show_default=True,
              help="Seed for the randomized sweeps.")
@click.option("--max-sigma", default=SuiteConfig.max_sigma, show_default=True,
              help="Cap total for the matching sweep.")
@click.option("--matching-n-max", default=SuiteConfig.matching_n_max, show_default=True,
              help="Max length of caps vectors.")
@click.option("--random-subspaces", default=SuiteConfig.random_subspaces_per_grade,
              show_default=True, help="Random subspaces per grade in the growth suite.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True),
              help="Write the report here instead of stdout.")
def verify(n_max, primes, suite_list, seed, max_sigma, matching_n_max, random_subspaces, out_path):
    """Run verification suites over an (n, p) grid and emit a JSON report."""
    try:
        config = SuiteConfig(
            n_max=n_max,
            primes=_parse_csv_ints(primes, "primes"),
            max_sigma=max_sigma,
            matching_n_max=matching_n_max,
            random_subspaces_per_grade=random_subspaces,
            seed=seed,
            suites=tuple(s.strip() for s in suite_list.split(",") if s.strip()),
        )
        config.validate()
    except (ConfigError, click.ClickException) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    _check_out(out_path)
    report = run_suite(config)
    _emit(dumps(report), out_path, ("PASS" if report["passed"] else "FAIL") + ": report")
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.option("--caps", required=True, help="Comma-separated caps, e.g. 2,2,3.")
@click.option("--ell", required=True, type=int, help="Degree of the source box.")
def matching(caps, ell):
    """Print the constructed dominance matching as explicit pairs."""
    caps_vec = _parse_csv_ints(caps, "caps")
    try:
        assignment = dominance_matching(caps_vec, ell)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for v, w in assignment.items():
        click.echo(f"{','.join(map(str, v))} -> {','.join(map(str, w))}")


@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON scenario file.")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, writable=True),
              help="Write the evaluation here instead of stdout.")
def slopes(scenario_path, out_path):
    """Evaluate slope formulas and bounds for each scenario record."""
    try:
        scenarios = load_scenarios(scenario_path)
    except ScenarioError as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(2)
    _check_out(out_path)
    _emit(dumps(evaluate_scenarios(scenarios)), out_path, "evaluation")


if __name__ == "__main__":
    main()
