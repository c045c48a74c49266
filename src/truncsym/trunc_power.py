"""Truncated symmetric powers: bases, rank formulas, and the Koszul resolution.

The degree-l truncated power of an n-dimensional space in characteristic p
is the image of the symmetrization map from Sym^l into the l-fold tensor
power; its monomial basis is the capped box {k : k_i <= p-1, sum k = l}.
Tensor coordinates are words over the letters 0..n-1 (length l), kept as
sparse mappings because the ambient tensor space grows as n^l.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .fp_linalg import FpMatrix, rank
from .monomial_box import MultiIndex, enumerate_box, grade_basis

Word = tuple[int, ...]


def trunc_rank(n: int, p: int, ell: int) -> int:
    """Closed-form dimension via inclusion-exclusion over the cap relations.

    Sum over q of (-1)^q C(n,q) C(n+ell-qp-1, n-1), q up to floor(ell/p).
    """
    if ell < 0:
        return 0
    total = 0
    for q in range(ell // p + 1):
        m = n + ell - q * p - 1
        if m < n - 1:
            continue
        total += (-1) ** q * math.comb(n, q) * math.comb(m, n - 1)
    return total


def gl2_dim(p: int, ell: int) -> int:
    """Two-variable closed form: ell+1 below p, reflecting to 2p-1-ell above."""
    if not 0 <= ell <= 2 * (p - 1):
        raise ValueError(f"degree {ell} outside [0, {2 * (p - 1)}]")
    return ell + 1 if ell < p else 2 * p - 1 - ell


def sym_basis(n: int, degree: int) -> list[MultiIndex]:
    """Monomials of Sym^degree in n variables (exponents unbounded)."""
    if degree < 0:
        return []
    return enumerate_box((degree,) * n, degree)


def multiset_words(content: MultiIndex) -> Iterator[Word]:
    """All distinct words whose letter counts equal the given content."""
    length = sum(content)
    counts = list(content)

    def rec(prefix: list[int], remaining: int) -> Iterator[Word]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for letter, c in enumerate(counts):
            if c:
                counts[letter] -= 1
                prefix.append(letter)
                yield from rec(prefix, remaining - 1)
                prefix.pop()
                counts[letter] += 1

    yield from rec([], length)


def word_count(content: MultiIndex) -> int:
    """Number of distinct words with the given content (multinomial)."""
    total = sum(content)
    out = 1
    for c in content:
        out *= math.comb(total, c)
        total -= c
    return out


def symmetrized_tensor(k: MultiIndex, p: int) -> dict[Word, int]:
    """Symmetrized tensor of the monomial k as a sparse word row.

    Every word of content k receives the coefficient prod(k_i!) mod p, so the
    row vanishes exactly when some exponent reaches p.
    """
    coeff = 1
    for e in k:
        coeff = coeff * math.factorial(e) % p
    if coeff == 0:
        return {}
    return {w: coeff for w in multiset_words(k)}


def symmetrization_matrix(n: int, p: int, ell: int) -> list[dict[Word, int]]:
    """The symmetrization map Sym^ell -> tensor words as sparse word rows,
    one per monomial in ``sym_basis`` order.

    Rank (``fp_linalg.eliminate``) equals the truncated-power dimension;
    monomials with an exponent >= p span the kernel (their rows vanish).
    """
    return [symmetrized_tensor(k, p) for k in sym_basis(n, ell)]


def degree_weight_check(n: int, p: int, ell: int) -> bool:
    """Per-variable exponent sums over the basis must each equal ell*rank/n.

    Checked in integers after clearing the denominator n.
    """
    basis = grade_basis(n, p, ell)
    expected = ell * len(basis)
    return all(n * sum(m[i] for m in basis) == expected for i in range(n))


# ---------------------------------------------------------------------------
# Koszul resolution of the truncated power by symmetric and exterior pieces.
# ---------------------------------------------------------------------------

def _koszul_space(n: int, p: int, ell: int, q: int) -> list[tuple[MultiIndex, tuple[int, ...]]]:
    """Basis of Sym^{ell-qp} tensor the q-th exterior power, as (monomial, subset)."""
    m = ell - q * p
    if m < 0 or q > n:
        return []
    return [
        (mono, subset)
        for mono in sym_basis(n, m)
        for subset in itertools.combinations(range(n), q)
    ]


def koszul_complex(n: int, p: int, ell: int) -> list[FpMatrix]:
    """Differentials of the resolution, indexed so result[q-1] maps level q to q-1.

    Level q is Sym^{ell-qp} tensor the q-th exterior power; the map sends
    f (x) e_{k_1}^..^e_{k_q} to the alternating sum of e_{k_i}^p f with the
    i-th wedge factor dropped.  Matrices use the row-as-domain convention.
    """
    q_max = min(n, ell // p)
    diffs: list[FpMatrix] = []
    for q in range(1, q_max + 1):
        domain = _koszul_space(n, p, ell, q)
        codomain = _koszul_space(n, p, ell, q - 1)
        index = {elt: j for j, elt in enumerate(codomain)}
        data = []
        for mono, subset in domain:
            vec = [0] * len(codomain)
            for pos, i in enumerate(subset):
                target = tuple(
                    e + (p if v == i else 0) for v, e in enumerate(mono)
                )
                dropped = subset[:pos] + subset[pos + 1:]
                sign = 1 if pos % 2 == 0 else p - 1
                vec[index[(target, dropped)]] = (vec[index[(target, dropped)]] + sign) % p
            data.append(vec)
        diffs.append(FpMatrix(data, p, cols=len(codomain)))
    return diffs


@dataclass(frozen=True)
class KoszulVerdict:
    ok: bool
    n: int
    p: int
    ell: int
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    cokernel_dim: int
    expected_dim: int
    failure: str | None = None


def verify_koszul_exact(n: int, p: int, ell: int) -> KoszulVerdict:
    """Check the resolution is exact and its cokernel has the truncated rank.

    Conditions: consecutive differentials compose to zero, interior ranks
    pair up to the full dimension, the deepest map is injective, and
    dim Sym^ell - rank(first map) equals the closed-form rank.
    """
    diffs = koszul_complex(n, p, ell)
    q_max = len(diffs)
    dims = tuple(len(_koszul_space(n, p, ell, q)) for q in range(q_max + 1))
    ranks = tuple(rank(d) for d in diffs)
    expected = trunc_rank(n, p, ell)
    coker = dims[0] - (ranks[0] if diffs else 0)

    def fail(msg: str) -> KoszulVerdict:
        return KoszulVerdict(False, n, p, ell, dims, ranks, coker, expected, msg)

    for q in range(1, q_max):
        if not (diffs[q] @ diffs[q - 1]).is_zero():
            return fail(f"composition at level {q + 1} is nonzero")
    for q in range(1, q_max):
        if ranks[q - 1] + ranks[q] != dims[q]:
            return fail(
                f"not exact at level {q}: {ranks[q - 1]} + {ranks[q]} != {dims[q]}"
            )
    if diffs and ranks[q_max - 1] != dims[q_max]:
        return fail(f"leftmost map not injective: rank {ranks[q_max - 1]} < {dims[q_max]}")
    if coker != expected:
        return fail(f"cokernel {coker} != expected dimension {expected}")
    return KoszulVerdict(True, n, p, ell, dims, ranks, coker, expected)
