"""Shared test helpers: the textbook elimination that the F_p kernels are
checked against, and dense rows into the sparse-row matrix."""

from truncsym.fp_linalg import FpMatrix


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
