import random

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
