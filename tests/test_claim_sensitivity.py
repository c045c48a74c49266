"""Every claim can fail: a fault in one side of a claim must fail some case.

A claim that compares a function with itself passes whatever the code does.
Each row names a claim generator of ``suites``, a small grid for it, a fault
put into one side of the claim with ``monkeypatch``, and the case kinds (the
first word of the case key) that must then fail; ``None`` asks every case
to fail.  Unfaulted, the same cases all pass.
"""

import random

import pytest

from truncsym import suites
from truncsym import trunc_algebra as alg
from truncsym.suites import _growth_cases, _pairing_cases


def _drop_first_bridging_operator(monkeypatch):
    actions = alg._bridging_actions
    monkeypatch.setattr(alg, "_bridging_actions", lambda n, p, ell: actions(n, p, ell)[1:])


def _rank_one_short(monkeypatch):
    reduce = suites.row_reduce

    def short(m):
        rref, r = reduce(m)
        return rref, r - 1

    monkeypatch.setattr(suites, "row_reduce", short)


CLAIMS = [
    ("growth", lambda: _growth_cases([(2, 3), (3, 2), (2, 5)], random.Random(3), 5),
     _drop_first_bridging_operator, {"coord", "random"}),
    ("pairing", lambda: _pairing_cases([(2, 3), (3, 2), (2, 5)]),
     _rank_one_short, None),
]


@pytest.mark.parametrize("claim, cases, fault, failing_kinds", CLAIMS,
                         ids=[row[0] for row in CLAIMS])
def test_a_fault_fails_the_claim(monkeypatch, claim, cases, fault, failing_kinds):
    assert all(ok for _, ok, _ in cases())
    fault(monkeypatch)
    verdicts = [(key.split()[0], ok) for key, ok, _ in cases()]
    if failing_kinds is None:
        assert verdicts and not any(ok for _, ok in verdicts)
    else:
        assert {kind for kind, ok in verdicts if not ok} >= failing_kinds
