"""Every claim can fail: a fault in one side of a claim must fail some case.

A claim that compares a function with itself passes whatever the code does.
Each row names a claim generator of ``suites``, a small grid for it, a fault
put into one side of the claim with ``monkeypatch``, and the case kinds (the
first word of the case key, such as ``composite``, or ``n=3`` where keys
start with the dimension; ``matched`` or ``boundary`` for a matching case)
that must then fail; ``None`` asks every case to fail.  Unfaulted, the same
cases all pass.
"""

import itertools
import random
from operator import itemgetter
from unittest import mock

import pytest

from truncsym import filtration as filt
from truncsym import monomial_box as boxes
from truncsym import slopes as slp
from truncsym import suites
from truncsym import trunc_algebra as alg
from truncsym import trunc_power as tp
from truncsym.fp_linalg import FpMatrix, eliminate
from truncsym.suites import (_curve_agreement_cases, _filtration_cases, _full_profile_cases,
                             _gap_cases, _growth_cases, _koszul_cases, _matching_cases,
                             _pairing_cases, _pushforward_cases, _rank_cases,
                             _slope_anchor_cases, _weight_sum_cases)

from reference import join_row


def _drop_first_bridging_operator(monkeypatch):
    actions = alg._bridging_actions
    monkeypatch.setattr(alg, "_bridging_actions", lambda n, p, ell: actions(n, p, ell)[1:])


def _rank_one_short(monkeypatch):
    reduce = suites.row_reduce

    def short(m):
        rref, r = reduce(m)
        return rref, r - 1

    monkeypatch.setattr(suites, "row_reduce", short)


def _in_small_pieces(cases):
    """The cases with word rows cut into pieces of at most 16 words, so that
    the longer rows of the grid span several pieces."""
    with mock.patch.object(tp, "BATCH_WORDS", 16):
        yield from cases


def _fault_last_pieces(change):
    """A fault in the composite side: ``change(piece, p)`` replaces the last
    piece of every row that spans several pieces, and only there."""
    def fault(monkeypatch):
        build = filt.nabla_power_rows

        def faulted(n, p, monomials):
            for _, pieces in itertools.groupby(build(n, p, monomials), itemgetter(0)):
                *head, last = pieces
                yield from head
                yield change(last, p) if head else last

        monkeypatch.setattr(filt, "nabla_power_rows", faulted)
    return fault


def _last_coefficient_off(piece, p):
    i, words, coeffs = piece
    coeffs = coeffs.copy()
    coeffs[-1] = (coeffs[-1] + 1) % p
    return i, words, coeffs


def _last_word_dropped(piece, p):
    i, words, coeffs = piece
    return i, words[:-1], coeffs[:-1]


def _rank_one_high_on_one_grade(monkeypatch):
    formula = tp.trunc_rank
    monkeypatch.setattr(tp, "trunc_rank", lambda n, p, ell: formula(n, p, ell)
                        + ((n, p, ell) == (3, 2, 1)))


def _one_row_repeated_reversed(monkeypatch):
    """A fault in the symmetrization side: the first live row with several
    words is re-emitted, its words in reverse order, as the next live row.
    The rank drops by one, yet every row keeps a word and the first words
    streamed stay distinct."""
    build = tp.symmetrized_rows

    def faulted(n, p, monomials):
        held, spent = None, False
        for i, pieces in itertools.groupby(build(n, p, monomials), itemgetter(0)):
            words, coeffs = join_row(pieces)
            if held is not None and len(words) and not spent:
                words, coeffs = held[0][::-1], held[1][::-1]
                spent = True
            elif held is None and len(words) > 1:
                held = words, coeffs
            yield i, words, coeffs

    monkeypatch.setattr(tp, "symmetrized_rows", faulted)


def _first_word_bounds(n, p, ell):
    """The bounds of a shortcut that keys each row by its first streamed word
    alone: sound only when the stream is sorted, which is what is under test."""
    firsts = {}
    for i, words, coeffs in tp.symmetrized_rows(n, p, tp.sym_basis(n, ell)):
        if len(words) and i not in firsts:
            firsts[i] = {int(words[0]): int(coeffs[0])}
    return len(eliminate(firsts.values(), p)), len(firsts)


def _deepest_entry_zeroed(monkeypatch):
    complex_ = tp.koszul_complex

    def zeroed(n, p, ell):
        diffs = complex_(n, p, ell)
        if diffs:
            deepest = diffs[-1]
            rows = [dict(row) for row in deepest.rows]
            first = next(row for row in rows if row)
            del first[next(iter(first))]
            diffs[-1] = FpMatrix(rows, deepest.modulus, deepest.ncols)
        return diffs

    monkeypatch.setattr(tp, "koszul_complex", zeroed)


def _one_image_off(monkeypatch):
    images = boxes._split_shift_images

    def off(v, caps):
        w = images(v, caps).copy()
        w[-1, 0] += 1  # the last row's image leaves its target degree
        return w

    monkeypatch.setattr(boxes, "_split_shift_images", off)


def _oracle_always_matches(monkeypatch):
    monkeypatch.setattr(boxes, "_hall_many", lambda rows, cases: [True] * len(cases))


def _accept_above_half(monkeypatch):
    construct = boxes.dominance_matching
    monkeypatch.setattr(boxes, "dominance_matching", lambda caps, ell: (
        {} if 2 * ell > sum(caps) else construct(caps, ell)))


def _curve_gap_negated(monkeypatch):
    curve = slp.curve_gap
    monkeypatch.setattr(slp, "curve_gap", lambda g, p, profile: -curve(g, p, profile))


def _pushforward_c1_plus_one(monkeypatch):
    c1 = slp.pushforward_c1
    monkeypatch.setattr(slp, "pushforward_c1", lambda sd: c1(sd) + 1)


def _rearranged_sum_plus_one(monkeypatch):
    check = slp.weight_sum_check

    def off(n, p, profile):
        issues, hypothesis_ok, direct2, rearranged2 = check(n, p, profile)
        return issues, hypothesis_ok, direct2, rearranged2 + 1

    monkeypatch.setattr(slp, "weight_sum_check", off)


def _gap_negated(monkeypatch):
    gap = slp.gap_lower_bound
    monkeypatch.setattr(slp, "gap_lower_bound", lambda sd, profile: -gap(sd, profile))


def _weights_centred_one_low(monkeypatch):
    # Layer l weighted by n(p-1) - 1 - 2l, as if the top grade were one lower.
    # The full profile's gap is exactly 0, so a negated gap would pass it.
    weighted = slp._weighted_sum_twice
    monkeypatch.setattr(slp, "_weighted_sum_twice",
                        lambda n, p, profile: weighted(n, p, profile) - sum(profile))


FILTRATION_PAIRS = [(2, 3), (3, 2), (2, 5)]
SLOPE_PRIMES = [2, 3, 5]

CLAIMS = [
    ("growth", lambda: _growth_cases([(2, 3), (3, 2), (2, 5)], random.Random(3), 5),
     _drop_first_bridging_operator, {"coord", "random"}),
    ("pairing", lambda: _pairing_cases([(2, 3), (3, 2), (2, 5)]),
     _rank_one_short, None),
    ("filtration-coefficient", lambda: _in_small_pieces(_filtration_cases(FILTRATION_PAIRS)),
     _fault_last_pieces(_last_coefficient_off), {"composite"}),
    ("filtration-word", lambda: _in_small_pieces(_filtration_cases(FILTRATION_PAIRS)),
     _fault_last_pieces(_last_word_dropped), {"composite"}),
    ("ranks", lambda: _rank_cases([(2, 3), (3, 2)]), _rank_one_high_on_one_grade, {"n=3"}),
    ("ranks-symmetrization", lambda: _rank_cases([(2, 3), (3, 2)]), _one_row_repeated_reversed,
     {"n=2", "n=3"}),
    ("koszul", lambda: _koszul_cases([(2, 3), (3, 2), (2, 5)]), _deepest_entry_zeroed,
     {"n=2", "n=3"}),
    ("matching-map", lambda: _matching_cases(boxes.iter_caps_vectors(3, 6)), _one_image_off,
     {"matched"}),
    ("matching-oracle", lambda: _matching_cases(boxes.iter_caps_vectors(3, 6)),
     _oracle_always_matches, {"boundary"}),
    ("matching-construction", lambda: _matching_cases(boxes.iter_caps_vectors(3, 6)),
     _accept_above_half, {"boundary"}),
    ("slope-anchor", _slope_anchor_cases, _curve_gap_negated, {"anchor"}),
    ("pushforward", lambda: _pushforward_cases(random.Random(3), 200, 3, SLOPE_PRIMES),
     _pushforward_c1_plus_one, {"pushforward-consistency"}),
    ("curve-agreement", lambda: _curve_agreement_cases(random.Random(3), 200, SLOPE_PRIMES),
     _curve_gap_negated, {"curve-agreement"}),
    ("weight-sum", lambda: _weight_sum_cases(random.Random(3), 200, 3, SLOPE_PRIMES),
     _rearranged_sum_plus_one, None),
    ("gap-nonnegative", lambda: _gap_cases(random.Random(3), 200, 3, SLOPE_PRIMES),
     _gap_negated, {"gap-nonnegative"}),
    ("full-profile", lambda: _full_profile_cases(random.Random(3), 200, 3, SLOPE_PRIMES),
     _weights_centred_one_low, {"full-profile"}),
]


def _kind(key):
    if key.startswith("caps="):
        return "boundary" if key.endswith("(boundary)") else "matched"
    return key.split()[0]


@pytest.mark.parametrize("claim, cases, fault, failing_kinds", CLAIMS,
                         ids=[row[0] for row in CLAIMS])
def test_a_fault_fails_the_claim(monkeypatch, claim, cases, fault, failing_kinds):
    assert all(ok for _, ok, _ in cases())
    fault(monkeypatch)
    verdicts = [(_kind(key), ok) for key, ok, _ in cases()]
    if failing_kinds is None:
        assert verdicts and not any(ok for _, ok in verdicts)
    else:
        assert {kind for kind, ok in verdicts if not ok} >= failing_kinds


def test_the_symmetrization_fault_passes_a_first_word_shortcut(monkeypatch):
    # The ranks-symmetrization fault must fail the streamed bounds, yet it
    # passes bounds that key each row by its first streamed word.
    _one_row_repeated_reversed(monkeypatch)
    monkeypatch.setattr(tp, "symmetrization_rank", _first_word_bounds)
    assert all(ok for _, ok, _ in _rank_cases([(2, 3), (3, 2)]))
