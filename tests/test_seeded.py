import random

import pytest

from truncsym.seeded import _randint

# Range widths around the rejection rule's edges: 1 (still one bit per draw),
# powers of two (no rejection), one past a power of two (rejection just under
# half the time), and the suites' primes.
WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65, 997, 1024, 1025,
          2 ** 31, 2 ** 31 + 1, 2 ** 64 + 1]
PRIMES = [2, 3, 5, 997]


def test_randint_equals_random_randint_choice_and_randrange():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        picker = random.Random(-seed)  # decides the interleaving, not a draw
        for _ in range(60):
            kind = picker.randrange(4)
            if kind == 0:
                width = picker.choice(WIDTHS)
                lo = picker.randint(-40, 40)
                assert _randint(ours, lo, lo + width - 1) == theirs.randint(lo, lo + width - 1)
            elif kind == 1:
                seq = PRIMES[:picker.randint(1, len(PRIMES))]
                assert seq[_randint(ours, 0, len(seq) - 1)] == theirs.choice(seq)
            else:
                p = picker.choice(PRIMES + WIDTHS)
                assert _randint(ours, 0, p - 1) == theirs.randrange(p)
        # The same bits were consumed: the streams go on alike.
        assert ours.getstate() == theirs.getstate()


class _FewDraws(random.Random):
    """A generator that raises once it has handed out a few draws, so that a
    draw loop that never ends fails instead of hanging."""

    def __init__(self, seed, budget=5):
        super().__init__(seed)
        self.budget = budget

    def getrandbits(self, k):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("getrandbits called past its budget")
        return super().getrandbits(k)


def test_randint_refuses_an_empty_range():
    # getrandbits(0) is 0, which the rejection rule's "0 >= n" would draw
    # again forever for n = 0 values; the range is refused before any draw.
    for lo, hi in [(1, 0), (0, -1), (5, 2), (-3, -10)]:
        rng = _FewDraws(0)
        with pytest.raises(ValueError, match="empty range"):
            _randint(rng, lo, hi)
        with pytest.raises(ValueError, match="empty range"):
            random.Random(0).randint(lo, hi)
        assert rng.budget == 5
    # A one-value range still draws, as randint does.
    ours, theirs = _FewDraws(0), random.Random(0)
    assert _randint(ours, 4, 4) == theirs.randint(4, 4) == 4
    assert ours.getstate() == theirs.getstate()
