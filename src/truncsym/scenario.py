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
No integer of a record may have more than DIGIT_LIMIT digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import slopes as slp


class ScenarioError(ValueError):
    """Malformed scenario file; the message carries record index and field."""


# Largest number of decimal digits of an integer in a record: of n, p, rkW
# and the profile entries, of each rational's numerator and denominator in
# lowest terms, and of the instabilities' common denominator.  The largest
# value a record's evaluation prints then has about 4 * DIGIT_LIMIT digits,
# inside Python's 4,300-digit limit on int <-> str conversion.
DIGIT_LIMIT = 1000
_DIGIT_BOUND = 10 ** DIGIT_LIMIT
_ZERO = Fraction(0)


def _too_many_digits(where: str) -> ScenarioError:
    return ScenarioError(f"{where} has more than {DIGIT_LIMIT} digits")


def _check_digits(value: int, where: str) -> None:
    if not -_DIGIT_BOUND < value < _DIGIT_BOUND:
        raise _too_many_digits(where)


def _huge_exponent(text: str) -> bool:
    """Whether ``text`` has an exponent above DIGIT_LIMIT + len(text) in
    absolute value.  ``Fraction(text)`` would build that power of ten first
    (10^(10^7) takes seconds), and with any nonzero mantissa the value has
    more than DIGIT_LIMIT digits in its numerator or denominator anyway."""
    _, e, exp = text.lower().partition("e")
    exp = (exp[1:] if exp[:1] in ("+", "-") else exp).replace("_", "")
    exp = exp.lstrip("0") or "0"
    return bool(e) and exp.isdecimal() and (
        len(exp) > 9 or int(exp) > DIGIT_LIMIT + len(text))


def parse_rational(value, where: str) -> Fraction:
    """An integer, or a string that ``Fraction`` reads; "a" and "a/b" with
    ASCII digits are read with ``int``, without ``Fraction``'s regex."""
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        plain = text.isascii() and digits.isdigit() and (not slash or den.isdigit())
        if not plain and _huge_exponent(text):
            raise _too_many_digits(where)
        try:
            if plain:
                out = Fraction(int(num), int(den)) if slash else Fraction(int(num))
            else:
                out = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: cannot parse rational {value!r}: {exc}") from None
    elif isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a rational, got a boolean")
    elif isinstance(value, int):
        out = Fraction(value)
    else:
        raise ScenarioError(
            f"{where}: expected an integer or 'a/b' string, got {type(value).__name__}")
    if -_DIGIT_BOUND < out.numerator < _DIGIT_BOUND and out.denominator < _DIGIT_BOUND:
        return out
    raise _too_many_digits(where)


def format_rational(f: Fraction) -> str:
    return _format_terms(f.numerator, f.denominator)


def _format_terms(num: int, den: int) -> str:
    """A rational given in lowest terms, as "a" or "a/b"."""
    return str(num) if den == 1 else f"{num}/{den}"


def _format_half(twice: int) -> str:
    """format_rational(Fraction(twice, 2)), without the Fraction."""
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _require_int(record: dict, key: str, where: str) -> int:
    if key not in record:
        raise ScenarioError(f"{where}: missing field '{key}'")
    v = record[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{where}: field '{key}' must be an integer")
    _check_digits(v, f"{where}: field '{key}'")
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
    if (top := max(n, 1) * (p - 1)) > slp.TOP_DEGREE_LIMIT:
        raise ScenarioError(f"{where}: top degree n*(p-1) = {top} exceeds {slp.TOP_DEGREE_LIMIT}")

    # Parsed before the try below, whose ValueError handler would prefix a
    # ScenarioError's message with the record a second time.
    kh, g, mu_w, c1_wh = (
        None if record.get(key) is None
        else parse_rational(record[key], f"{where}: field '{key}'")
        for key in ("KH", "g", "muW", "c1WH")
    )
    try:
        sd = slp.make_slope_data(n, p, rk_w, kh=kh, g=g, mu_w=mu_w, c1_wh=c1_wh)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None

    profile = record.get("profile")
    if profile is not None:
        if not isinstance(profile, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) and r >= 0 for r in profile
        ):
            raise ScenarioError(f"{where}: field 'profile' must be a list of non-negative integers")
        _check_digits(max(profile, default=0), f"{where}: field 'profile'")
        if sum(profile) == 0:
            raise ScenarioError(f"{where}: field 'profile' must have a positive total (subsheaf rank)")
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
        if any(x.numerator < 0 for x in parsed):
            raise ScenarioError(f"{where}: field 'instabilities' must be non-negative")
        # The gap bound sums them over this common denominator.
        _check_digits(lcm(*(x.denominator for x in parsed)),
                      f"{where}: field 'instabilities': the common denominator")
        if len(inst) > top + 1:
            raise ScenarioError(
                f"{where}: field 'instabilities' has {len(inst)} entries, more than {top + 1} layers"
            )
        inst = parsed

    return Scenario(name, sd, g, profile, inst)


def _clamped_int(literal: str) -> int:
    """An integer literal, or for one that ``int`` refuses (beyond Python's
    int <-> str digit limit) a value just past DIGIT_LIMIT, which the
    record checks refuse by record and field."""
    try:
        return int(literal)
    except ValueError:
        return -_DIGIT_BOUND if literal.startswith("-") else _DIGIT_BOUND


def _decode(text: str):
    """``json.loads``, with the integer literals ``int`` refuses clamped."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_int=_clamped_int)


def load_scenarios(path: str) -> list[Scenario]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        doc = _decode(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: nested too deeply") from None
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
        "graded_slopes": [_format_terms(num, den) for num, den in slp.layer_slopes(sd)],
    }
    if sd.kh.numerator < 0:
        warnings.append("KH is negative: the instability bound hypothesis fails")

    if sc.profile is not None:
        mode = "monotone" if sd.n == 1 else "symmetric"
        # One validation: the warnings name every violation, layer ranks
        # included; hypothesis_ok leaves the layer ranks out.
        violations, hypothesis_ok, direct2, rearranged2 = slp.weight_sum_check(
            sd.n, sd.p, sc.profile, mode=mode, rk_w=sd.rk_w)
        warnings.extend(f"profile: {issue}" for issue in violations)
        gap = slp.gap_lower_bound(sd, sc.profile, sc.instabilities)
        out["gap_lower_bound"] = format_rational(gap)
        if sd.n == 1 and sc.g is not None:
            out["curve_gap"] = format_rational(
                slp.curve_gap(sc.g, sd.p, sc.profile)
            )
        out["weight_sum"] = {
            "direct": _format_half(direct2),
            "rearranged": _format_half(rearranged2),
            "hypothesis_ok": hypothesis_ok,
        }
        if gap == 0:
            full_length, asymmetric = slp.equality_diagnosis(sd.n, sd.p, sc.profile)
            out["equality_diagnosis"] = {
                "full_length": full_length,
                "symmetric": not asymmetric,
                "asymmetric_layers": list(asymmetric),
            }

    if sc.instabilities is not None:
        iwx = max(sc.instabilities, default=_ZERO)
        out["max_instability"] = format_rational(iwx)
        bound = slp.instability_bound(sd, iwx)
        if bound is None:
            warnings.append("instability bound omitted (KH < 0)")
        else:
            out["instability_bound"] = format_rational(bound)

    out["warnings"] = warnings
    return out


def evaluate_scenarios(scenarios: list[Scenario]) -> dict:
    return {"scenarios": [evaluate_scenario(sc) for sc in scenarios]}
