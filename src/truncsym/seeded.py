"""Seeded draws equal to ``random.Random.randint``'s, at the cost of one call.

``randint`` reaches ``getrandbits`` through ``randrange`` and ``_randbelow``,
three Python frames per draw, and the suites draw a few hundred thousand
small integers per run.  The rule ``randint`` applies is: for the n values
of the range, draw ``getrandbits(n.bit_length())``, and draw again while the
result is n or more.  ``_randint`` applies it to the same ``getrandbits``
calls, so a seeded stream gives the same values and leaves the generator in
the same state.  ``randrange(n)`` and ``choice(seq)`` are
``_randint(rng, 0, n - 1)`` and ``seq[_randint(rng, 0, len(seq) - 1)]``.

A scalar draw calls ``_randint``.  The two per-layer loops that draw most of
a run's values, ``suites._random_symmetric_profile`` (one bound per layer)
and ``trunc_algebra.GradedSubspace.random`` (one entry mod p per column),
write the rule out inside their loops instead, which saves a call per value.

The helper is private so that the benchmark's tracer, which wraps every
public function of the package, does not record one span per draw.
"""

from __future__ import annotations

import random


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: getrandbits(n.bit_length()) for the n = hi - lo + 1
    values, drawn again while it is n or more.  An empty range (hi < lo) is
    refused with ValueError, as ``randint`` refuses it."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r
