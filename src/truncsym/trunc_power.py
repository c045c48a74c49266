"""Truncated symmetric powers: bases, rank formulas, and the Koszul resolution.

The degree-l truncated power of an n-dimensional space in characteristic p
is the image of the symmetrization map from Sym^l into the l-fold tensor
power; its monomial basis is the capped box {k : k_i <= p-1, sum k = l}.
Tensor coordinates are words over the letters 0..n-1 (length l).  The
ambient tensor space grows as n^l, so a tensor is kept as a pair of arrays
``(words, coeffs)``: the words it touches, packed by a ``WordLayout`` into
int64 columns and sorted, and their coefficients, all nonzero.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .fp_linalg import FpMatrix, _check_modulus, mat_mul, rank
from .monomial_box import MultiIndex, enumerate_box, grade_basis


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


def word_count(content: MultiIndex) -> int:
    """Number of distinct words with the given content (multinomial)."""
    total = sum(content)
    out = 1
    for c in content:
        out *= math.comb(total, c)
        total -= c
    return out


_CODE_BOUND = 2 ** 63


class WordLayout:
    """How the words of one length over n letters pack into int64 columns.

    A word is cut into runs of consecutive positions, one int64 per run
    holding its letters as base-n digits, most significant first.  A run is
    as long as codes allow below 2^63, so a word takes ceil(length / run)
    columns (one for the empty word), and comparing the columns in order
    compares the words lexicographically.
    """

    __slots__ = ("n", "length", "ends", "column", "place")

    def __init__(self, n: int, length: int):
        run = max(length, 1)
        if n > 1:  # over one letter every word is 0...0
            run = 1
            while n ** (run + 1) <= _CODE_BOUND:
                run += 1
        self.n, self.length = n, length
        # The position (exclusive) where each column ends.
        self.ends = list(range(run, length, run)) + [length]
        self.column = np.arange(length) // run
        # The place value of position j: n to the number of positions after
        # it in its column (below n^run, so exact in int64).
        after = np.array(self.ends)[self.column] - 1 - np.arange(length)
        self.place = np.power(np.int64(n), after)

    def empty(self, count: int) -> np.ndarray:
        """``count`` words with every letter 0, to be written into."""
        return np.zeros((count, len(self.ends)), dtype=np.int64)

    def write(self, words: np.ndarray, j: int, letters) -> None:
        """Write ``letters`` (one per word, or one for all) at position j,
        which must still hold 0."""
        words[:, self.column[j]] += letters * self.place[j]

    def codes(self, words: np.ndarray) -> list[int]:
        """Each word read in base n as one exact int (codes order like words)."""
        out = words[:, 0].tolist()
        for c in range(1, len(self.ends)):
            scale = self.n ** (self.ends[c] - self.ends[c - 1])
            out = [high * scale + low for high, low in zip(out, words[:, c].tolist())]
        return out


def _check_rows(n: int, p: int, monomials: Sequence[MultiIndex]) -> int:
    """Refuse a bad modulus or monomial before any array work; return the
    degree the monomials share."""
    _check_modulus(p)
    degrees = set()
    for k in monomials:
        if len(k) != n:
            raise ValueError(f"monomial {k} does not have {n} exponents")
        if min(k, default=0) < 0:
            raise ValueError(f"monomial {k} has a negative exponent")
        degrees.add(sum(k))
    if len(degrees) > 1:
        raise ValueError(f"monomials of one grade must share a degree, got {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def _expand(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (outer, inner) running through blocks: entry i of the outer
    list repeats sizes[i] times, against starts[i], starts[i] + 1, ..."""
    outer = np.repeat(np.arange(len(sizes)), sizes)
    inner = (starts - np.cumsum(sizes) + sizes)[outer]
    inner += np.arange(len(outer))
    return outer, inner


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in lexicographic order, and the index
    of each input row among them."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


# A grade's rows are assembled in batches of consecutive rows holding at most
# this many words (a larger row is a batch alone): small rows share their array
# work, and no batch holds more than the largest row or this bound.
BATCH_WORDS = 1 << 16


def _row_batches(entry_row: np.ndarray, entry_sizes: np.ndarray, rows: int,
                 assemble) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows 0..rows-1 built from entries sorted by row, entry e standing for
    entry_sizes[e] words.  Rows are cut into batches, and
    ``assemble(e0, e1, counts)`` turns the entries e0..e1-1 of a batch, whose
    rows hold ``counts`` words, into its words, coefficients and per-row entry
    counts.  Each row is yielded as its (words, coeffs) views into its batch."""
    first = np.searchsorted(entry_row, np.arange(rows + 1))
    sizes = np.diff(np.concatenate(([0], np.cumsum(entry_sizes)))[first]).tolist()
    a = 0
    while a < rows:
        b, total = a + 1, sizes[a]
        while b < rows and total + sizes[b] <= BATCH_WORDS:
            total += sizes[b]
            b += 1
        words, coeffs, counts = assemble(first[a], first[b], sizes[a:b])
        start = 0
        for count in counts:
            yield words[start:start + count], coeffs[start:start + count]
            start += count
        a = b


def _one_letter_rows(layout: WordLayout,
                     coeffs: list[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows over one letter: each is the one word 0...0 with its coefficient,
    or no word where that is 0."""
    for c in coeffs:
        m = int(c != 0)
        yield layout.empty(m), np.full(m, c, dtype=np.int64)


def _letter_walk(layout: WordLayout, left: np.ndarray, start: int, stop: int):
    """Arrange each content row of ``left`` at positions start..stop-1, left to
    right: each level extends every word, in order, by each letter it has
    left, in order.  Returns the words, the row each came from and the content
    it has left; the words of each row stay consecutive and sorted."""
    words = layout.empty(len(left))
    origin = np.arange(len(left))
    for j in range(start, stop):
        src, letter = np.nonzero(left)
        words = words[src]
        layout.write(words, j, letter)
        origin, left = origin[src], left[src]
        left[np.arange(len(src)), letter] -= 1
    return words, origin, left


def symmetrized_rows(n: int, p: int,
                     monomials: Sequence[MultiIndex]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Symmetrized tensors of monomials of one degree l, one packed word row
    ``(words, coeffs)`` each, in order.

    Every word of content k receives the coefficient prod(k_i!) mod p, so a
    row vanishes exactly when some exponent reaches p.  Each word is split at
    h = l // 2.  The prefixes of every row are walked at once, left to right;
    the suffixes are walked once per content a prefix leaves, and that block
    is shared by every prefix, of any row, that leaves the same content.  A
    row is its prefixes in order, each followed by its block, which keeps the
    words sorted.  Bad input raises ``ValueError`` at the first row.
    """
    length = _check_rows(n, p, monomials)
    layout = WordLayout(n, length)
    coeffs = [math.prod(map(math.factorial, k)) % p for k in monomials]
    if n == 1:
        yield from _one_letter_rows(layout, coeffs)
        return
    live = [i for i, c in enumerate(coeffs) if c]
    h = length // 2
    start = np.array([monomials[i] for i in live], dtype=np.min_scalar_type(length))
    prefixes, origin, rest = _letter_walk(layout, start.reshape(-1, n), 0, h)
    contents, group = _distinct_rows(rest)
    suffixes, block, _ = _letter_walk(layout, contents, h, length)
    block_sizes = np.bincount(block, minlength=len(contents))
    entry_starts = (np.cumsum(block_sizes) - block_sizes)[group]
    entry_sizes = block_sizes[group]
    row = np.array(live, dtype=np.int64)[origin]
    prefix_coeffs = np.array(coeffs, dtype=np.int64)[row]

    def assemble(e0, e1, counts):
        entry, inner = _expand(entry_starts[e0:e1], entry_sizes[e0:e1])
        entry += e0
        words = prefixes[entry]
        words += suffixes[inner]
        return words, prefix_coeffs[entry], counts

    yield from _row_batches(row, entry_sizes, len(coeffs), assemble)


def symmetrization_matrix(n: int, p: int, ell: int) -> list[dict[int, int]]:
    """The symmetrization map Sym^ell -> tensor words as sparse rows keyed by
    the exact word codes of ``WordLayout.codes``, one per monomial in
    ``sym_basis`` order.

    Rank (``fp_linalg.eliminate``) equals the truncated-power dimension;
    monomials with an exponent >= p span the kernel (their rows vanish).
    """
    codes = WordLayout(n, ell).codes
    return [dict(zip(codes(words), coeffs.tolist()))
            for words, coeffs in symmetrized_rows(n, p, sym_basis(n, ell))]


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
        rows = []
        for mono, subset in domain:
            # Each dropped factor raises a different variable: distinct columns.
            row = {}
            for pos, i in enumerate(subset):
                target = tuple(
                    e + (p if v == i else 0) for v, e in enumerate(mono)
                )
                dropped = subset[:pos] + subset[pos + 1:]
                row[index[(target, dropped)]] = 1 if pos % 2 == 0 else p - 1
            rows.append(row)
        diffs.append(FpMatrix(rows, p, len(codomain)))
    return diffs


def verify_koszul_exact(n: int, p: int, ell: int) -> str | None:
    """Check the resolution is exact and its cokernel has the truncated rank;
    return the first failure, worded, or None when the claim holds.

    Conditions: consecutive differentials compose to zero, interior ranks
    pair up to the full dimension, the deepest map is injective, and
    dim Sym^ell - rank(first map) equals the closed-form rank.
    """
    diffs = koszul_complex(n, p, ell)
    q_max = len(diffs)
    dims = [len(_koszul_space(n, p, ell, q)) for q in range(q_max + 1)]
    ranks = [rank(d) for d in diffs]
    for q in range(1, q_max):
        if any(mat_mul(diffs[q], diffs[q - 1]).rows):
            return f"composition at level {q + 1} is nonzero"
    for q in range(1, q_max):
        if ranks[q - 1] + ranks[q] != dims[q]:
            return f"not exact at level {q}: {ranks[q - 1]} + {ranks[q]} != {dims[q]}"
    if diffs and ranks[q_max - 1] != dims[q_max]:
        return f"leftmost map not injective: rank {ranks[q_max - 1]} < {dims[q_max]}"
    coker = dims[0] - (ranks[0] if diffs else 0)
    expected = trunc_rank(n, p, ell)
    if coker != expected:
        return f"cokernel {coker} != expected dimension {expected}"
    return None
