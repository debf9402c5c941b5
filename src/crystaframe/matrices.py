"""Matrices over an arbitrary carrier ring object.

A carrier only needs add/sub/mul/neg/zero/one/is_unit/inv.  Matrices are
tuples of tuples (immutable, hashable when the entries are).  Inversion is
Gaussian elimination with unit pivots, which is complete over the local
carriers used here: a matrix is invertible iff every elimination step finds
a unit pivot.  Vectors are tuples of entries.
"""

from __future__ import annotations


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(C, r: int):
    return mat([[C.one if i == j else C.zero for j in range(r)] for i in range(r)])


def diag(C, entries):
    return mat([[x if i == j else C.zero for j in range(len(entries))] for i, x in enumerate(entries)])


def mult_matrix(C, a):
    """Coordinate matrix of b -> a*b on a carrier with coordinates: column j
    holds the coordinates of a times the j-th coordinate basis element."""
    n = C.coord_count()
    cols = [C.coords(C.mul(a, C.from_coords([int(i == j) for i in range(n)]))) for j in range(n)]
    return [list(row) for row in zip(*cols)]


def mat_add(C, A, B):
    return mat([[C.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def mat_sub(C, A, B):
    return mat([[C.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])


def mat_mul(C, A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = C.zero
            for t in range(k):
                acc = C.add(acc, C.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_map(fn, A):
    return mat([[fn(a) for a in row] for row in A])


def mat_col(A, j):
    return tuple(A[i][j] for i in range(len(A)))


def from_cols(cols):
    r = len(cols[0])
    return mat([[cols[j][i] for j in range(len(cols))] for i in range(r)])


def mat_vec(C, A, v):
    return tuple(
        _dot(C, A[i], v) for i in range(len(A))
    )


def vec_add(C, u, v):
    return tuple(C.add(a, b) for a, b in zip(u, v))


def vec_sub(C, u, v):
    return tuple(C.sub(a, b) for a, b in zip(u, v))


def vec_scale(C, c, u):
    return tuple(C.mul(c, a) for a in u)


def _dot(C, row, v):
    acc = C.zero
    for a, b in zip(row, v):
        acc = C.add(acc, C.mul(a, b))
    return acc


def mat_inverse(C, A):
    """Inverse over a local carrier, or None when A is not invertible."""
    n = len(A)
    work = [list(row) for row in A]
    inv = [list(row) for row in identity(C, n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if C.is_unit(work[i][k])), None)
        if piv is None:
            return None
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            inv[k], inv[piv] = inv[piv], inv[k]
        w = C.inv(work[k][k])
        work[k] = [C.mul(w, a) for a in work[k]]
        inv[k] = [C.mul(w, a) for a in inv[k]]
        for i in range(n):
            if i != k:
                f = work[i][k]
                if f != C.zero:
                    work[i] = [C.add(a, C.neg(C.mul(f, b))) for a, b in zip(work[i], work[k])]
                    inv[i] = [C.add(a, C.neg(C.mul(f, b))) for a, b in zip(inv[i], inv[k])]
    return mat(inv)


def is_invertible(C, A) -> bool:
    return mat_inverse(C, A) is not None
