"""Truncated symmetric powers: bases, rank formulas, and the Koszul resolution.

The degree-l truncated power of an n-dimensional space in characteristic p
is the image of the symmetrization map from Sym^l into the l-fold tensor
power; its monomial basis is the capped box {k : k_i <= p-1, sum k = l}.
Tensor coordinates are words over the letters 0..n-1 (length l).  The
ambient tensor space grows as n^l, so a tensor is kept as a pair of arrays
``(words, coeffs)``: the words it touches, each packed into one int64 code
(``word_places``) and sorted, and their coefficients, all nonzero; words too
long for one code (n^l > 2^63, n >= 2) are refused.  A single tensor can
hold millions of words, so the row builders stream each row in pieces of
bounded size, laid out by ``_word_rows``; a consumer compares or collects
them piece by piece.
``symmetrization_rank`` proves the rank of the symmetrization map that way:
a column restriction fixed before the stream is read bounds it below, the
count of nonzero rows above.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .fp_linalg import FpMatrix, _check_modulus, eliminate, mat_mul, rank
from .monomial_box import MultiIndex, enumerate_box, grade_basis


def trunc_rank(n: int, p: int, ell: int) -> int:
    """Closed-form dimension via inclusion-exclusion over the cap relations.

    Sum over q of (-1)^q C(n,q) C(n+ell-qp-1, n-1), q up to floor(ell/p) and
    n, past which C(n,q) = 0: an empty sum for a negative degree, and at most
    n + 1 terms for any degree.  A modulus below 2 is refused.
    """
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    total = 0
    for q in range(min(ell // p, n) + 1):
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


def word_places(n: int, length: int) -> np.ndarray:
    """The place value n^(length-1-j) of each position j of a word of
    ``length`` letters over n.  A word is packed as one int64 code, its letters
    read as base-n digits, most significant first, so codes order like words.
    Over n >= 2 letters a length with n^length > 2^63 cannot fit and raises
    ``ValueError`` before any array work; over one letter every word is 0."""
    if n > 1 and n ** min(length, 64) > 2 ** 63:  # n^64 > 2^63 for n >= 2
        raise ValueError(f"words of {length} letters over n={n} do not fit one int64 code")
    return n ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _check_rows(n: int, p: int, monomials: Sequence[MultiIndex]) -> np.ndarray:
    """Refuse bad input (modulus, letters, monomials, words too long to pack)
    before any array work; return the ``word_places`` of the grade's degree."""
    _check_modulus(p)
    if n < 1:
        raise ValueError(f"need n >= 1 letters, got n={n}")
    degrees = set()
    for k in monomials:
        if len(k) != n:
            raise ValueError(f"monomial {k} does not have {n} exponents")
        if min(k, default=0) < 0:
            raise ValueError(f"monomial {k} has a negative exponent")
        degrees.add(sum(k))
    if len(degrees) > 1:
        raise ValueError(f"monomials of one grade must share a degree, got {sorted(degrees)}")
    return word_places(n, degrees.pop() if degrees else 0)


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


# One piece of a word row: the row's index, and its words and coefficients.
Piece = tuple[int, np.ndarray, np.ndarray]

# The most words a batch of entries holds, unless one entry alone holds more
# (see ``_word_rows``): small rows share their array work, and a long row is
# built and handed on in pieces, so no array follows the largest row.
BATCH_WORDS = 1 << 15


def _word_rows(walk, start: np.ndarray, row_of: np.ndarray, rows: int, length: int,
               p: int) -> Iterator[Piece]:
    """Rows 0..rows-1 of words of ``length`` letters in pieces ``(i, words,
    coeffs)``, laid out alike for ``symmetrized_rows`` and ``nabla_power_rows``.

    ``walk(left, j0, j1)`` writes positions j0..j1-1 of the words each row of
    ``left`` leads to; it returns them, their coefficients mod p (None for all
    1), the row each came from and the exponents it leaves, each row's words
    consecutive and sorted.  A word splits at h = length // 2.  The prefixes
    of all rows of ``start`` (start row s in row row_of[s], increasing) are
    walked at once; the suffixes once per exponent vector a prefix leaves, a
    block shared by every prefix that leaves it.  A word's coefficient is the
    product of its halves'.  A row is its prefixes in order, each followed by
    its block (an entry), so its words are sorted; a prefix whose block is
    empty leads no entry.  The entries are assembled in batches of at most
    ``BATCH_WORDS`` words, or one larger entry, and each row's segment of a
    batch is one piece, views into the batch: a row's pieces are consecutive
    and in word order, and a row with no words is one empty piece.
    """
    h = length // 2
    prefixes, pcoeffs, origin, rest = walk(start, 0, h)
    ends, group = _distinct_rows(rest)
    suffixes, scoeffs, block, _ = walk(ends, h, length)
    block_sizes = np.bincount(block, minlength=len(ends))
    entry_sizes = block_sizes[group]
    live = entry_sizes > 0
    if not live.all():
        prefixes, pcoeffs, origin, group, entry_sizes = (
            x[live] for x in (prefixes, pcoeffs, origin, group, entry_sizes))
    first = np.searchsorted(row_of[origin], np.arange(rows + 1)).tolist()
    offsets = np.concatenate(([0], np.cumsum(entry_sizes)))
    # Word w of the grade, in entry e, is prefix e followed by suffix w + shift[e].
    shift = (np.cumsum(block_sizes) - block_sizes)[group] - offsets[:-1]
    entries = first[-1]
    e0 = i0 = 0
    while True:
        e1 = min(max(int(offsets.searchsorted(offsets[e0] + BATCH_WORDS, "right")) - 1, e0 + 1),
                 entries)
        # The rows reaching into the batch run from i0 to the last one starting
        # before e1; the last batch also takes the empty rows after it.
        stop = rows if e1 == entries else bisect.bisect_left(first, e1)
        # Each row's segment ends where the next row starts, the last at e1.
        counts = np.diff(offsets[[e0, *first[i0 + 1:stop], e1]]).tolist()
        entry = np.repeat(np.arange(e0, e1), entry_sizes[e0:e1])
        inner = shift[entry]
        inner += np.arange(offsets[e0], offsets[e1])
        words = prefixes[entry]
        words += suffixes[inner]
        coeffs = pcoeffs[entry]
        if scoeffs is not None:
            coeffs *= scoeffs[inner]
            coeffs %= p
        del entry, inner  # only the batch itself stays alive while its pieces are out
        at = 0
        for i, count in zip(range(i0, stop), counts):
            yield i, words[at:at + count], coeffs[at:at + count]
            at += count
        if e1 == entries:
            return
        split = first[stop] > e1  # the last row goes on in the next batch
        e0, i0 = e1, stop - split


def _one_letter_rows(coeffs: list[int]) -> Iterator[Piece]:
    """Rows over one letter, one piece each: the one word 0...0 with its
    coefficient, or no word where that is 0."""
    for i, c in enumerate(coeffs):
        m = int(c != 0)
        yield i, np.zeros(m, dtype=np.int64), np.full(m, c, dtype=np.int64)


def _letter_walk(places: np.ndarray, left: np.ndarray, start: int, stop: int):
    """Arrange each content row of ``left`` at positions start..stop-1, left to
    right: each level extends every word, in order, by each letter it has
    left, in order.  Returns the words, the row each came from and the content
    it has left; the words of each row stay consecutive and sorted."""
    words = np.zeros(len(left), dtype=np.int64)
    origin = np.arange(len(left))
    for j in range(start, stop):
        src, letter = np.nonzero(left)
        words = words[src]
        words += letter * places[j]
        origin, left = origin[src], left[src]
        left[np.arange(len(src)), letter] -= 1
    return words, origin, left


def symmetrized_rows(n: int, p: int,
                     monomials: Sequence[MultiIndex]) -> Iterator[Piece]:
    """Symmetrized tensors of monomials of one degree l as packed word rows,
    streamed in pieces ``(i, words, coeffs)``, i the monomial's index, in the
    layout of ``_word_rows``.

    Every word of content k receives the coefficient prod(k_i!) mod p, so a
    row vanishes exactly when some exponent reaches p; the other rows are
    walked by ``_letter_walk``, their prefixes carrying that coefficient and
    their suffixes none.  Bad input raises ``ValueError`` at the first piece.
    """
    places = _check_rows(n, p, monomials)
    length = len(places)
    coeffs = [math.prod(map(math.factorial, k)) % p for k in monomials]
    # One word per row; the walk below is 3-10x slower on it.
    if n == 1:
        yield from _one_letter_rows(coeffs)
        return
    live = [i for i, c in enumerate(coeffs) if c]
    start = np.array(monomials, dtype=np.min_scalar_type(length)).reshape(-1, n)[live]
    row_coeffs = np.array(coeffs, dtype=np.int64)[live]

    def walk(left, j0, j1):
        words, origin, rest = _letter_walk(places, left, j0, j1)
        return words, row_coeffs[origin] if left is start else None, origin, rest

    yield from _word_rows(walk, start, np.array(live, dtype=np.int64), len(coeffs), length, p)


def _sorted_words(n: int, places: np.ndarray,
                  monomials: Sequence[MultiIndex]) -> np.ndarray:
    """The sorted codes of the sorted word of each monomial (its letters in
    non-decreasing order, the least word of its content)."""
    exponents = np.array(monomials, dtype=np.int64).reshape(-1, n)
    letters = np.repeat(np.tile(np.arange(n), len(exponents)), exponents.ravel())
    return np.sort(letters.reshape(len(exponents), len(places)) @ places)


def _find_words(columns: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each word code sits in ``columns`` (sorted codes, not empty), and
    whether it is there."""
    at = np.searchsorted(columns, words).clip(max=len(columns) - 1)
    return at, columns[at] == words


def symmetrization_rank(n: int, p: int, ell: int) -> tuple[int, int]:
    """Bounds ``(lower, upper)`` on the rank of the symmetrization map
    Sym^ell -> tensor words, from one pass over ``symmetrized_rows``.

    The columns J, the sorted word of each monomial, are fixed before the
    stream is read.  ``lower`` is the rank (``fp_linalg.eliminate``) of the
    restriction of the rows to J, kept as {index in J: coefficient};
    ``upper`` counts the rows that yield a word.  When the two agree they
    are the rank, and no row was held whole.  Bad input, words too long to
    pack among it (``word_places``), raises ``ValueError`` before any array
    work.
    """
    _check_modulus(p)
    if n < 1 or ell < 0:
        raise ValueError(f"need n >= 1 letters and a degree >= 0, got n={n}, degree {ell}")
    places = word_places(n, ell)
    monomials = sym_basis(n, ell)
    columns = _sorted_words(n, places, monomials)
    restricted: dict[int, dict[int, int]] = {}
    nonzero = set()
    for i, words, coeffs in symmetrized_rows(n, p, monomials):
        if len(words):
            nonzero.add(i)
        at, hit = _find_words(columns, words)
        if hit.any():
            restricted.setdefault(i, {}).update(zip(at[hit].tolist(), coeffs[hit].tolist()))
    return len(eliminate(restricted.values(), p)), len(nonzero)


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

def koszul_complex(n: int, p: int, ell: int) -> list[FpMatrix]:
    """Differentials of the resolution, indexed so result[q-1] maps level q to q-1.

    Level q is Sym^{ell-qp} tensor the q-th exterior power, with basis the
    pairs (monomial, subset), built once and paired with its neighbours; the
    map sends f (x) e_{k_1}^..^e_{k_q} to the alternating sum of e_{k_i}^p f
    with the i-th wedge factor dropped.  Matrices use the row-as-domain
    convention.
    """
    _check_modulus(p)
    levels = [[(mono, subset) for mono in sym_basis(n, ell - q * p)
               for subset in itertools.combinations(range(n), q)]
              for q in range(min(n, ell // p) + 1)]
    diffs: list[FpMatrix] = []
    for codomain, domain in zip(levels, levels[1:]):
        index = {elt: j for j, elt in enumerate(codomain)}
        rows = []
        for mono, subset in domain:
            # Each dropped factor raises a different variable: distinct columns.
            row = {}
            for pos, i in enumerate(subset):
                target = mono[:i] + (mono[i] + p,) + mono[i + 1:]
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
    dims = [len(sym_basis(n, ell)), *(d.nrows for d in diffs)]
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
