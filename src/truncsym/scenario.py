"""Scenario files: batch slope evaluation from structured records.

A scenario file is JSON, either a list of records or an object with a
``scenarios`` list (a single record object also works).  Record fields:

    n, p, rkW            required integers
    muW or c1WH          slope or first Chern number (exactly one)
    KH or g              canonical degree, or genus when n = 1 (exactly one)
    profile              optional list of layer ranks r_0..r_m
    instabilities        optional list of per-layer instabilities
    name                 optional label

Exact rationals are written as "a/b" strings (plain integers also parse).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import slopes as slp


class ScenarioError(ValueError):
    """Malformed scenario file; the message carries record index and field."""


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: cannot parse rational {value!r}: {exc}") from None
    raise ScenarioError(f"{where}: expected an integer or 'a/b' string, got {type(value).__name__}")


def format_rational(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _require_int(record: dict, key: str, where: str) -> int:
    if key not in record:
        raise ScenarioError(f"{where}: missing field '{key}'")
    v = record[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}: field '{key}' must be an integer")
    return v


@dataclass(frozen=True)
class Scenario:
    name: str
    sd: slp.SlopeData
    g: Fraction | None
    profile: tuple[int, ...] | None
    instabilities: tuple[Fraction, ...] | None


def _parse_record(record, idx: int) -> Scenario:
    where = f"scenario {idx}"
    if not isinstance(record, dict):
        raise ScenarioError(f"{where}: expected an object")
    name = record.get("name", f"scenario-{idx}")
    if not isinstance(name, str):
        raise ScenarioError(f"{where}: field 'name' must be a string")
    n = _require_int(record, "n", where)
    p = _require_int(record, "p", where)
    rk_w = _require_int(record, "rkW", where)

    kh = record.get("KH")
    g = record.get("g")
    mu_w = record.get("muW")
    c1_wh = record.get("c1WH")
    try:
        sd = slp.make_slope_data(
            n,
            p,
            rk_w,
            kh=parse_rational(kh, f"{where}: field 'KH'") if kh is not None else None,
            g=parse_rational(g, f"{where}: field 'g'") if g is not None else None,
            mu_w=parse_rational(mu_w, f"{where}: field 'muW'") if mu_w is not None else None,
            c1_wh=parse_rational(c1_wh, f"{where}: field 'c1WH'") if c1_wh is not None else None,
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None

    profile = record.get("profile")
    if profile is not None:
        if not isinstance(profile, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) and r >= 0 for r in profile
        ):
            raise ScenarioError(f"{where}: field 'profile' must be a list of non-negative integers")
        if sum(profile) == 0:
            raise ScenarioError(f"{where}: field 'profile' must have a positive total (subsheaf rank)")
        top = n * (p - 1)
        if len(profile) > top + 1:
            raise ScenarioError(
                f"{where}: field 'profile' has {len(profile)} entries, more than {top + 1} layers"
            )
        profile = tuple(profile)

    inst = record.get("instabilities")
    if inst is not None:
        if not isinstance(inst, list):
            raise ScenarioError(f"{where}: field 'instabilities' must be a list")
        parsed = tuple(
            parse_rational(x, f"{where}: field 'instabilities[{j}]'") for j, x in enumerate(inst)
        )
        if any(x < 0 for x in parsed):
            raise ScenarioError(f"{where}: field 'instabilities' must be non-negative")
        inst = parsed

    g_val = parse_rational(g, f"{where}: field 'g'") if g is not None else None
    return Scenario(name, sd, g_val, profile, inst)


def load_scenarios(path: str) -> list[Scenario]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if isinstance(doc, dict) and "scenarios" in doc:
        records = doc["scenarios"]
    elif isinstance(doc, dict):
        records = [doc]
    else:
        records = doc
    if not isinstance(records, list):
        raise ScenarioError(f"{path}: expected a list of scenario records")
    return [_parse_record(rec, idx) for idx, rec in enumerate(records)]


def evaluate_scenario(sc: Scenario) -> dict:
    """Compute slopes, bounds and verdicts for one record.

    Hypothesis violations (negative canonical degree, profile shape) are
    reported as warnings in the output rather than raised.
    """
    sd = sc.sd
    warnings: list[str] = []
    out: dict = {
        "name": sc.name,
        "inputs": {
            "n": sd.n,
            "p": sd.p,
            "rkW": sd.rk_w,
            "KH": format_rational(sd.kh),
            "muW": format_rational(sd.mu_w),
            "c1WH": format_rational(sd.c1_wh),
        },
        "rk_pushforward": slp.pushforward_rank(sd),
        "mu_pushforward": format_rational(slp.pushforward_slope(sd)),
        "c1_pushforward": format_rational(slp.pushforward_c1(sd)),
        "graded_slopes": [
            format_rational(sd.mu_w + slp.graded_slope(sd.n, sd.p, ell, sd.kh))
            for ell in range(sd.n * (sd.p - 1) + 1)
        ],
    }
    if sd.kh < 0:
        warnings.append("KH is negative: the instability bound hypothesis fails")

    if sc.profile is not None:
        mode = "monotone" if sd.n == 1 else "symmetric"
        for issue in slp.validate_profile(sd.n, sd.p, sc.profile, rk_w=sd.rk_w, mode=mode):
            warnings.append(f"profile: {issue}")
        gap = slp.gap_lower_bound(sd, sc.profile, sc.instabilities)
        out["gap_lower_bound"] = format_rational(gap)
        if sd.n == 1 and sc.g is not None:
            out["curve_gap"] = format_rational(
                slp.curve_gap(sc.g, sd.p, sc.profile)
            )
        ws = slp.weight_sum_check(sd.n, sd.p, sc.profile, mode=mode)
        out["weight_sum"] = {
            "direct": format_rational(ws.direct),
            "rearranged": format_rational(ws.rearranged),
            "hypothesis_ok": ws.hypothesis_ok,
        }
        if gap == 0:
            diag = slp.equality_diagnosis(sd.n, sd.p, sc.profile)
            out["equality_diagnosis"] = {
                "full_length": diag.full_length,
                "symmetric": diag.symmetric,
                "asymmetric_layers": list(diag.asymmetric_layers),
            }

    if sc.instabilities is not None:
        iwx = max(sc.instabilities, default=Fraction(0))
        out["max_instability"] = format_rational(iwx)
        bound = slp.instability_bound(sd, iwx)
        if bound.value is None:
            warnings.append("instability bound omitted (KH < 0)")
        else:
            out["instability_bound"] = format_rational(bound.value)

    out["warnings"] = warnings
    return out


def evaluate_scenarios(scenarios: list[Scenario]) -> dict:
    return {"scenarios": [evaluate_scenario(sc) for sc in scenarios]}
