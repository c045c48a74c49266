"""Shared test helpers: the textbook elimination that the F_p kernels are
checked against, dense rows into the sparse-row matrix, the whole
symmetrization matrix of a grade, packed word rows joined from their
pieces, and packed word rows into dicts."""

import itertools
from operator import itemgetter

import numpy as np

from truncsym.fp_linalg import FpMatrix
from truncsym.trunc_power import sym_basis, symmetrized_rows


def reference_rref(rows, p):
    """Textbook Gauss-Jordan elimination on lists of Python ints, column by
    column: the reduced row-echelon rows (zero rows last) and the rank."""
    a = [[x % p for x in row] for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return a, r


def dense_matrix(rows, p):
    """The FpMatrix of dense rows, as wide as the first row."""
    return FpMatrix([{j: x for j, x in enumerate(row) if x} for row in rows], p, len(rows[0]))


def symmetrization_matrix(n, p, ell):
    """The symmetrization map Sym^ell -> tensor words as sparse rows keyed by
    the words' int64 codes (see ``word_places``), one per monomial in
    ``sym_basis`` order, each filled from its pieces of ``symmetrized_rows``.

    Rank (``fp_linalg.eliminate``) equals the truncated-power dimension;
    monomials with an exponent >= p span the kernel (their rows vanish).
    The rows hold every word of the grade: the reference for
    ``symmetrization_rank``.
    """
    monomials = sym_basis(n, ell)
    rows = [{} for _ in monomials]
    for i, words, coeffs in symmetrized_rows(n, p, monomials):
        rows[i].update(zip(words.tolist(), coeffs.tolist()))
    return rows


def word_dict(n, length, row):
    """A packed word row ``(words, coeffs)`` of words of ``length`` letters
    over n as {word code: coefficient}, each code the word read in base n, so
    below n^length."""
    words, coeffs = row
    codes = words.tolist()
    assert all(0 <= code < n ** length for code in codes), (n, length)
    return dict(zip(codes, coeffs.tolist()))


def join_row(pieces):
    """One row's pieces ``(i, words, coeffs)`` joined into ``(words, coeffs)``."""
    pieces = list(pieces)
    assert pieces, "a row yields at least one piece"
    return np.concatenate([w for _, w, _ in pieces]), np.concatenate([c for _, _, c in pieces])


def joined_rows(pieces):
    """The rows of a stream of pieces, each joined, in order; the pieces of
    row i must be consecutive and come after those of rows 0..i-1."""
    rows = []
    for i, group in itertools.groupby(pieces, itemgetter(0)):
        assert i == len(rows), f"row {i} after {len(rows)} rows"
        rows.append(join_row(group))
    return rows
