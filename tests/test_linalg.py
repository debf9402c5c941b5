import random
from itertools import product

import numpy as np
import pytest

from crystaframe.linalg import (
    GradedSpan,
    SpanNF,
    _smith_forms,
    _val,
    batch_kernel,
    diagonalize,
    extend_stacked,
    kernel_basis,
    reduce_stacked,
    solve,
    solve_affine,
    work_dtype,
)
from oracles import artifact_span, p_torsion_kernel, same_span_modulo


# -- the scalar oracle ---------------------------------------------------------
# The pure-Python elimination that `linalg` used before its numpy core.  The
# library must reproduce its (U, D, V, evals), kernels and solutions exactly.


def scalar_diagonalize(mat, p: int, m: int):
    """Return (U, D, V, evals) with U*mat*V = D diagonal, D[k][k] = p^evals[k].

    U and V are invertible over Z/p^m.  evals[k] = m encodes a zero pivot.
    `mat` is a list of lists of ints; inputs are reduced mod p^m.
    """
    mod = p ** m
    A = [[x % mod for x in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    V = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    steps = min(r, c)
    evals = []
    for k in range(steps):
        # minimal-valuation pivot in the trailing submatrix
        best = (m + 1, k, k)
        for i in range(k, r):
            Ai = A[i]
            for j in range(k, c):
                v = _val(Ai[j], p, m)
                if v < best[0]:
                    best = (v, i, j)
            if best[0] == 0:
                break
        e, pi, pj = best
        if e >= m:
            evals.append(m)
            continue
        if pi != k:
            A[k], A[pi] = A[pi], A[k]
            U[k], U[pi] = U[pi], U[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
            for row in V:
                row[k], row[pj] = row[pj], row[k]
        pe = p ** e
        unit = A[k][k] // pe
        w = pow(unit, -1, mod)
        A[k] = [(w * x) % mod for x in A[k]]
        U[k] = [(w * x) % mod for x in U[k]]
        for i in range(r):
            if i == k:
                continue
            f = A[i][k] // pe
            if f:
                Ak, Ai, Uk, Ui = A[k], A[i], U[k], U[i]
                for j in range(c):
                    Ai[j] = (Ai[j] - f * Ak[j]) % mod
                for j in range(r):
                    Ui[j] = (Ui[j] - f * Uk[j]) % mod
        for j in range(k + 1, c):
            g = A[k][j] // pe
            if g:
                for i in range(r):
                    A[i][j] = (A[i][j] - g * A[i][k]) % mod
                for i in range(c):
                    V[i][j] = (V[i][j] - g * V[i][k]) % mod
        evals.append(e)
    return U, A, V, evals


def scalar_kernel_basis(mat, p: int, m: int):
    """Generators of {x : mat*x = 0 mod p^m} as a list of int tuples."""
    r = len(mat)
    c = len(mat[0]) if r else 0
    if c == 0:
        return []
    if r == 0:
        return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]
    mod = p ** m
    _, _, V, evals = scalar_diagonalize(mat, p, m)
    gens = []
    for j in range(c):
        e = evals[j] if j < len(evals) else m
        scale = p ** (m - e) if e > 0 else None
        if scale is None:
            continue
        col = tuple((V[i][j] * scale) % mod for i in range(c))
        if any(col):
            gens.append(col)
    return gens


def scalar_solve(mat, rhs, p: int, m: int):
    """One solution of mat*x = rhs mod p^m, or None; pair with kernel_basis."""
    mod = p ** m
    r = len(mat)
    c = len(mat[0]) if r else 0
    U, _, V, evals = scalar_diagonalize(mat, p, m)
    y = [sum(U[i][k] * rhs[k] for k in range(r)) % mod for i in range(r)]
    z = [0] * c
    for i in range(r):
        e = evals[i] if i < len(evals) else m
        if e >= m:
            if y[i] % mod:
                return None
            continue
        pe = p ** e
        if y[i] % pe:
            return None
        z[i] = y[i] // pe
    x = [sum(V[i][j] * z[j] for j in range(c)) % mod for i in range(c)]
    return tuple(x)


def matmul(A, B, mod):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) % mod for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def is_invertible(M, p, mod):
    # over the local ring Z/p^m a matrix is invertible iff it is mod p
    n = len(M)
    A = [[x % p for x in row] for row in M]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] % p), None)
        if piv is None:
            return False
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det = det * A[k][k] % p
        inv = pow(A[k][k], -1, p)
        for i in range(k + 1, n):
            f = A[i][k] * inv % p
            A[i] = [(a - f * b) % p for a, b in zip(A[i], A[k])]
    return det % p != 0


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_diagonalize_random(p, m):
    rng = random.Random(7)
    mod = p ** m
    for _ in range(60):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        M = [[rng.randrange(mod) for _ in range(c)] for _ in range(r)]
        U, D, V, evals = diagonalize(M, p, m)
        assert is_invertible(U, p, mod)
        assert is_invertible(V, p, mod)
        UMV = matmul(matmul(U, M, mod), V, mod)
        assert UMV == D
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert D[i][j] == 0
                elif i < len(evals):
                    e = evals[i]
                    assert D[i][i] == (pow(p, e, mod) if e < m else 0)


def brute_kernel(M, p, m):
    mod = p ** m
    c = len(M[0])
    out = set()
    for x in product(range(mod), repeat=c):
        if all(sum(M[i][j] * x[j] for j in range(c)) % mod == 0 for i in range(len(M))):
            out.add(x)
    return out


def span_of(gens, mod, c=None):
    from itertools import product as iproduct

    if not gens:
        return set() if c is None else {(0,) * c}
    c = len(gens[0])
    out = set()
    for coeffs in iproduct(range(mod), repeat=len(gens)):
        v = tuple(sum(a * g[j] for a, g in zip(coeffs, gens)) % mod for j in range(c))
        out.add(v)
    return out


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_kernel_matches_bruteforce(p, m):
    rng = random.Random(5)
    mod = p ** m
    for _ in range(25):
        r = rng.randrange(1, 3)
        c = rng.randrange(1, 3)
        M = [[rng.randrange(mod) for _ in range(c)] for _ in range(r)]
        gens = kernel_basis(M, p, m)
        assert span_of(gens, mod) | {tuple([0] * c)} == brute_kernel(M, p, m) | {tuple([0] * c)}


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_solve_random(p, m):
    rng = random.Random(11)
    mod = p ** m
    for _ in range(80):
        r = rng.randrange(1, 4)
        c = rng.randrange(1, 4)
        M = [[rng.randrange(mod) for _ in range(c)] for _ in range(r)]
        x0 = [rng.randrange(mod) for _ in range(c)]
        b = [sum(M[i][j] * x0[j] for j in range(c)) % mod for i in range(r)]
        x = solve(M, b, p, m)
        assert x is not None
        assert all(sum(M[i][j] * x[j] for j in range(c)) % mod == b[i] for i in range(r))


def test_solve_detects_no_solution():
    # 2x = 1 has no solution mod 4
    assert solve([[2]], [1], 2, 2) is None


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_spannf_membership_exhaustive(p, m):
    rng = random.Random(3)
    mod = p ** m
    for _ in range(20):
        n = 2
        gens = [[rng.randrange(mod) for _ in range(n)] for _ in range(rng.randrange(1, 3))]
        nf = SpanNF(n, p, m)
        for g in gens:
            nf.insert(g)
        true_span = span_of([tuple(g) for g in gens], mod)
        assert_membership_rows(nf, product(range(mod), repeat=n))
        for v in product(range(mod), repeat=n):
            assert nf.contains(v) == (v in true_span)
            red = nf.reduce(v)
            # normal form is idempotent and constant on cosets
            assert nf.reduce(red) == red
            shifted = tuple(
                (v[j] + list(true_span)[0][j]) % mod for j in range(n)
            )
            # shifting by a span element does not change the normal form
            for s in list(true_span)[:4]:
                w = tuple((v[j] + s[j]) % mod for j in range(n))
                assert nf.reduce(w) == red


def test_p_torsion_of_quotient():
    # Z/4 / <2> is Z/2: one generator, 1, with 2*1 in the span
    nf = SpanNF(1, 2, 2)
    nf.insert([2])
    assert nf.p_torsion() == [(1,)]
    # free Z/4: its p-torsion is the p^(m-1) artifact 2*Z/4, so none
    assert SpanNF(1, 2, 2).p_torsion() == []
    # Z/27 / <9>, Z/27 / <3> and a unit pivot: one generator per factor Z/p^e, 0 < e < m
    nf = SpanNF(3, 3, 3)
    for row in ([9, 0, 0], [0, 3, 0], [0, 0, 1]):
        nf.insert(row)
    assert nf.p_torsion() == [(0, 1, 0), (3, 0, 0)]
    assert nf.smith()[3] == [0, 1, 2]


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (2, 31), (3, 21), (2, 64)])
def test_p_torsion_matches_kernel_oracle(p, m):
    # random spans with non-unit Smith exponents; past int64 the products are
    # Python ints (at 2^31 the work dtype is int64 but a product sum is not)
    rng = random.Random(31)
    mod = p ** m
    factors = 0
    for _ in range(40):
        n = rng.randrange(1, 6)
        gens = [
            [rng.randrange(mod) * p ** rng.randrange(m) % mod for _ in range(n)]
            for _ in range(rng.randrange(1, 4))
        ]
        nf = SpanNF(n, p, m)
        for g in gens:
            nf.insert(g)
        artifact = artifact_span(gens, n, p, m)
        tors = nf.p_torsion()
        assert len(tors) == sum(0 < e < m for e in nf.smith()[3])
        assert all(nf.contains([p * c for c in t]) and not artifact.contains(t) for t in tors)
        assert same_span_modulo(artifact, tors, p_torsion_kernel(gens, n, p, m))
        factors += len(tors)
    assert factors > 10


def test_spannf_reduced_basis_is_canonical():
    # the same span from shuffled, redundant generators gives one reduced basis
    rng = random.Random(17)
    for p, m in [(2, 3), (3, 3)]:
        mod = p ** m
        for _ in range(200):
            n = rng.randrange(1, 6)
            gens = [
                [rng.randrange(mod) * p ** rng.randrange(2) % mod for _ in range(n)]
                for _ in range(rng.randrange(1, 4))
            ]
            gens.append([(a + 2 * b) % mod for a, b in zip(gens[0], gens[-1])])
            seen = set()
            for _ in range(4):
                rng.shuffle(gens)
                nf = SpanNF(n, p, m)
                for g in gens:
                    nf.insert(g)
                assert all(nf.contains(row) for row in nf.reduced_basis())
                seen.add((tuple(nf.reduced_basis()), nf.membership_rows()))
            assert len(seen) == 1


def assert_membership_rows(nf, vecs):
    """x lies in the span exactly when every membership row kills it."""
    T = nf.membership_rows()
    assert all(len(t) == nf.ncols and any(t) for t in T)
    for x in vecs:
        killed = all(sum(a * b for a, b in zip(t, x)) % nf.mod == 0 for t in T)
        assert killed == nf.contains(x), (nf.p, nf.m, nf.reduced_basis(), x)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (3, 21)])
def test_membership_rows_match_contains(p, m):
    # spans with non-unit Smith exponents; vectors in them, next to them and at random
    rng = random.Random(29)
    mod = p ** m
    members = 0
    for _ in range(40):
        n = rng.randrange(1, 7)
        nf = SpanNF(n, p, m)
        assert nf.membership_rows() == tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
        gens = []
        for _ in range(rng.randrange(1, 4)):
            gens.append([rng.randrange(mod) * p ** rng.randrange(m) % mod for _ in range(n)])
            nf.insert(gens[-1])  # each insert drops the cached rows
            vecs = [[rng.randrange(mod) for _ in range(n)] for _ in range(8)]
            for _ in range(8):
                c = [rng.randrange(mod) for _ in gens]
                x = [sum(a * g[i] for a, g in zip(c, gens)) % mod for i in range(n)]
                vecs.append(x)
                y = list(x)
                y[rng.randrange(n)] += p ** rng.randrange(m)
                vecs.append(y)
            assert_membership_rows(nf, vecs)
            members += sum(map(nf.contains, vecs))
    assert members > 500


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 21), (3, 40), (2, 64)])
def test_spannf_reduce_rows_matches_reduce(p, m):
    rng = random.Random(23)
    mod = p ** m
    for _ in range(20):
        n = rng.randrange(1, 9)
        nf = SpanNF(n, p, m)
        for _ in range(rng.randrange(0, 5)):
            nf.insert([rng.randrange(mod) * p ** rng.randrange(2) for _ in range(n)])
        vecs = [[rng.randrange(-mod, 2 * mod) for _ in range(n)] for _ in range(12)]
        vecs += [list(row) for row in nf.basis()]
        assert nf.reduce_rows(vecs).tolist() == [list(nf.reduce(v)) for v in vecs]
        # small entries make an int64 array even when p^m is past int64
        small = [[rng.randrange(-9, 10) * p ** rng.randrange(2) for _ in range(n)] for _ in range(6)]
        assert nf.reduce_rows(small).tolist() == [list(nf.reduce(v)) for v in small]


def random_graded_rows(rng, grades, p, m, count):
    """Homogeneous rows over the graded columns, with non-unit pivots."""
    mod = p ** m
    rows = []
    for _ in range(count):
        g = rng.choice(grades)
        rows.append([rng.randrange(mod) * p ** rng.randrange(m) % mod if h == g else 0 for h in grades])
    return rows


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (2, 64)])
def test_graded_span_matches_flat_spannf(p, m):
    # the same homogeneous rows, in the same order, into one SpanNF over all
    # columns and into one per grade: the same rows, normal forms, pivots,
    # Smith exponents, membership and p-torsion
    rng = random.Random(37)
    mod = p ** m
    factors = 0
    for _ in range(30):
        n = rng.randrange(1, 9)
        grades = [rng.randrange(3) for _ in range(n)]
        rows = random_graded_rows(rng, grades, p, m, rng.randrange(0, 7))
        graded, flat = GradedSpan(grades, p, m), SpanNF(n, p, m)
        for row in rows:
            graded.insert(row)
            flat.insert(row)
        assert graded.basis() == flat.basis()
        assert graded.reduced_basis() == flat.reduced_basis()
        assert graded.pivots() == flat.pivots()
        assert graded.smith_exponents() == flat.smith()[3]
        vecs = [[rng.randrange(-mod, 2 * mod) for _ in range(n)] for _ in range(8)]
        for _ in range(8):
            x = [sum(rng.randrange(mod) * r[i] for r in rows) % mod for i in range(n)]
            vecs.append(x)
            y = list(x)
            y[rng.randrange(n)] += p ** rng.randrange(m)
            vecs.append(y)
        assert [graded.reduce(v) for v in vecs] == [flat.reduce(v) for v in vecs]
        assert_membership_rows(graded, vecs)
        tors = graded.p_torsion()
        assert len(tors) == len(flat.p_torsion()) == sum(0 < e < m for e in flat.smith()[3])
        assert same_span_modulo(artifact_span(rows, n, p, m), tors, flat.p_torsion())
        factors += len(tors)
        # the stacked reduction of block coordinates is each block's `reduce`
        local = []
        for v in vecs:
            g = graded.gid[rng.randrange(n)]
            local.append((g, [v[c] % mod for c in graded.columns[g]]))
        X = np.array([row + [0] * (graded.width - len(row)) for _, row in local], dtype=object)
        got = reduce_stacked(graded.blocks, np.array([g for g, _ in local]), X).tolist()
        assert [r[: len(row)] for r, (_, row) in zip(got, local)] == [
            list(graded.blocks[g].reduce(row)) for g, row in local
        ]
    assert factors > 5


def test_graded_span_refuses_a_row_across_grades():
    # negative control: a row with entries of two grades is not split
    span = GradedSpan(["a", "b", "a"], 2, 3)
    span.insert([2, 0, 4])
    span.insert([0, 0, 0])
    with pytest.raises(ValueError, match="grades"):
        span.insert([1, 1, 0])
    assert span.basis() == [(2, 0, 4)]


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 21)])
def test_stacked_smith_forms_match_diagonalize(p, m):
    # spans of different shapes, one of them empty, diagonalized in one
    # padded stack: each gets the U, V and exponents of its own diagonalize
    rng = random.Random(41)
    mod = p ** m
    for _ in range(10):
        spans = [SpanNF(rng.randrange(1, 7), p, m) for _ in range(rng.randrange(1, 6))]
        for s in spans[1:]:
            for _ in range(rng.randrange(1, 6)):
                s.insert([rng.randrange(mod) * p ** rng.randrange(m) for _ in range(s.ncols)])
        _smith_forms(spans)
        for s in spans:
            R = s.reduced_basis() or [(0,) * s.ncols]
            U, _, V, evals = diagonalize(R, p, m)
            assert s.smith() == (U, R, V, evals + [m] * (s.ncols - len(evals)))


def assert_same_span(loaded, built, vecs):
    """A span loaded by `extend_stacked` against one built by `insert`."""
    assert loaded.basis() == loaded.reduced_basis() == built.reduced_basis()
    assert loaded.pivots() == built.pivots()
    assert [loaded.reduce(v) for v in vecs] == [built.reduce(v) for v in vecs]
    assert loaded.membership_rows() == built.membership_rows()
    assert loaded.p_torsion() == built.p_torsion()


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (2, 64), (3, 40)])
def test_extend_stacked_matches_incremental_insert(p, m):
    # random spans of widths 1..6 loaded in one padded stack, then extended
    # in a second one; span 0 has width 1 and the last span stays empty
    rng = random.Random(47)
    mod = p ** m

    def rows(n, count):  # entries of every valuation, so pivots are often not units
        return [[rng.randrange(mod) * p ** rng.randrange(m) % mod for _ in range(n)] for _ in range(count)]

    for _ in range(15):
        loaded = [SpanNF(1, p, m)] + [SpanNF(rng.randrange(1, 7), p, m) for _ in range(rng.randrange(1, 5))]
        built = [SpanNF(s.ncols, p, m) for s in loaded]
        width = max(s.ncols for s in loaded)
        for _ in range(2):
            which = [rng.randrange(len(loaded) - 1) for _ in range(rng.randrange(0, 12))]
            X = [row + [0] * (width - len(row)) for g in which for row in rows(loaded[g].ncols, 1)]
            for g, row in zip(which, X):
                built[g].insert(row[: built[g].ncols])
            extend_stacked(loaded, np.array(which, dtype=np.intp), np.array(X, dtype=object).reshape(-1, width))
            for s, t in zip(loaded, built):
                assert_same_span(s, t, rows(s.ncols, 6))
        assert loaded[-1].rows == {}
        for s, t in zip(loaded, built):  # a later insert into a loaded span
            for v in rows(s.ncols, 2):
                s.insert(v)
                t.insert(v)
            assert s.reduced_basis() == t.reduced_basis() and s.pivots() == t.pivots()
            vecs = rows(s.ncols, 6)
            assert [s.reduce(v) for v in vecs] == [t.reduce(v) for v in vecs]


def test_extend_stacked_keeps_the_p_multiples():
    # negative control for the append of p^(m-e) * pivot row: over Z/8 the
    # row (2, 1) spans 4 * (2, 1) = (0, 4), so the Howell form has a row
    # with lead at column 1 although no input row starts there
    span = SpanNF(2, 2, 3)
    extend_stacked([span], np.array([0]), np.array([[2, 1]]))
    assert span.basis() == [(2, 1), (0, 4)]
    assert span.contains([0, 4]) and not span.contains([0, 2])


# every system shape of the window-hom sweep, plus two non-square shapes
SWEEP_SHAPES = [(n, n) for n in (1, 2, 3, 4, 5, 6, 8)] + [(3, 5), (5, 3)]


def oracle_mats(rng, r, c, p, m, count):
    """Seeded r x c matrices over Z/p^m that exercise every pivot path.

    Uniform entries; entries times p or p^2 (no unit pivot at all); entries
    times p at random positions (non-unit diagonal, pivot found elsewhere);
    a zero row; and one all-zero matrix.
    """
    mod = p ** m
    mats = []
    for t in range(count):
        M = [[rng.randrange(mod) for _ in range(c)] for _ in range(r)]
        kind = t % 4
        if kind == 1:
            s = p ** rng.randrange(1, min(m, 3))
            M = [[x * s % mod for x in row] for row in M]
        elif kind == 2:
            M = [[x * p % mod if rng.randrange(2) else x for x in row] for row in M]
        elif kind == 3:
            M[rng.randrange(r)] = [0] * c
        mats.append(M)
    mats.append([[0] * c for _ in range(r)])
    return mats


# Z/8, Z/9, Z/27 (the sweep's moduli), Z/25, and one modulus on each side
# of every work-dtype switch: 169 | 243 (int16 | int32), 2^15 | 2^16
# (int32 | int64)
@pytest.mark.parametrize(
    "p,m", [(2, 3), (3, 2), (5, 2), (3, 3), (13, 2), (3, 5), (2, 15), (2, 16)]
)
def test_batch_kernel_matches_scalar(p, m):
    rng = random.Random(13)
    mod = p ** m
    for r, c in SWEEP_SHAPES:
        mats = oracle_mats(rng, r, c, p, m, 16)
        gens, evals = batch_kernel(np.array(mats, dtype=np.int64), p, m)
        assert gens.shape == (len(mats), c, c) and evals.shape == (len(mats), c)
        assert gens.dtype == work_dtype(mod) and evals.dtype == np.int64
        for n, M in enumerate(mats):
            ev = scalar_diagonalize(M, p, m)[3]
            assert evals[n].tolist() == ev + [m] * (c - len(ev))
            got = gens[n].T.tolist()
            for g in got:
                assert all(sum(a * b for a, b in zip(row, g)) % mod == 0 for row in M)
            # the nonzero generators of non-unit pivots are the oracle's, in order
            nonzero = [tuple(g) for g, e in zip(got, evals[n]) if e and any(g)]
            assert nonzero == scalar_kernel_basis(M, p, m)


def test_batch_kernel_reduces_its_input():
    rng = np.random.default_rng(3)
    mats = rng.integers(0, 27, size=(50, 4, 4))
    shift = 27 * rng.integers(-3, 3, size=mats.shape)
    for got, want in zip(batch_kernel(mats + shift, 3, 3), batch_kernel(mats, 3, 3)):
        assert np.array_equal(got, want)
    # past int64 the reduction runs on Python ints; the input is still int64
    mod = 3 ** 40
    small = rng.integers(-30, 30, size=(20, 4, 4))
    got, evals = batch_kernel(small, 3, 40)
    for M, G, ev in zip(small.tolist(), got, evals):
        M = [[x % mod for x in row] for row in M]
        assert ev.tolist()[:4] == scalar_diagonalize(M, 3, 40)[3]
        nonzero = [tuple(g) for g, e in zip(G.T.tolist(), ev) if e and any(g)]
        assert nonzero == scalar_kernel_basis(M, 3, 40)


def test_batch_kernel_work_dtype():
    # the narrowest dtype holding (mod - 1)^2 + mod; Python ints past int64
    assert work_dtype(8) == np.int16
    assert work_dtype(181) == np.int16 and work_dtype(182) == np.int32
    assert work_dtype(46341) == np.int32 and work_dtype(46342) == np.int64
    assert work_dtype(3037000500) == np.int64 and work_dtype(3037000501) is object


# Moduli on both sides of every work-dtype switch (169 | 243 int16 | int32,
# 2^15 | 2^16 int32 | int64), past the lookup tables (3^11, computed
# valuations and inverses in int64) and past int64 (3^21, Python ints): PD
# frames have no carrier budget, so a high-precision scenario reaches them.
ORACLE_MODULI = [
    (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (13, 2), (3, 5), (2, 15), (2, 16), (3, 11), (3, 21)
]
ORACLE_SHAPES = [(1, 3), (3, 1), (3, 3), (5, 8), (8, 5)]


def with_zero_column(rng, M):
    j = rng.randrange(len(M[0]))
    return [row[:j] + [0] + row[j + 1 :] for row in M]


@pytest.mark.parametrize("p,m", ORACLE_MODULI)
def test_single_system_matches_scalar_oracle(p, m):
    rng = random.Random(31 * p + m)
    mod = p ** m
    cases = [M for r, c in ORACLE_SHAPES for M in oracle_mats(rng, r, c, p, m, 4)]
    cases += [with_zero_column(rng, M) for M in cases[::3]]
    cases += oracle_mats(rng, 40, 70, p, m, 2)[1:2] + oracle_mats(rng, 70, 40, p, m, 1)[:1]
    for M in cases:
        r, c = len(M), len(M[0])
        want = scalar_diagonalize(M, p, m)
        assert diagonalize(M, p, m) == want
        assert kernel_basis(M, p, m) == scalar_kernel_basis(M, p, m)
        # inputs are reduced first, also past int64
        shifted = [[x - mod * rng.choice((1, 3, 2 ** 50)) for x in row] for row in M]
        assert diagonalize(shifted, p, m) == want
        x0 = [rng.randrange(mod) for _ in range(c)]
        solvable = [sum(a * b for a, b in zip(row, x0)) % mod for row in M]
        unsolvable = [rng.randrange(mod) for _ in range(r)]
        for b in (solvable, unsolvable):
            assert solve(M, b, p, m) == scalar_solve(M, b, p, m)
        assert solve(M, solvable, p, m) is not None


def test_empty_systems_match_scalar_oracle():
    for M in ([], [[], []]):
        assert diagonalize(M, 2, 3) == scalar_diagonalize(M, 2, 3)
        assert kernel_basis(M, 2, 3) == scalar_kernel_basis(M, 2, 3)
    assert solve([], [], 2, 3) == scalar_solve([], [], 2, 3)
    assert kernel_basis([[0, 0]], 2, 3) == scalar_kernel_basis([[0, 0]], 2, 3)


@pytest.mark.parametrize("p,m", ORACLE_MODULI)
def test_solve_affine_is_solve_and_kernel_basis(p, m):
    # one elimination gives what the two separate calls give, bit for bit
    rng = random.Random(37 * p + m)
    mod = p ** m
    cases = [M for r, c in ORACLE_SHAPES for M in oracle_mats(rng, r, c, p, m, 4)]
    cases += [with_zero_column(rng, M) for M in cases[::3]]
    cases += oracle_mats(rng, 40, 70, p, m, 2)[1:2]
    for M in cases:
        x0 = [rng.randrange(mod) for _ in M[0]]
        solvable = [sum(a * b for a, b in zip(row, x0)) % mod for row in M]
        for b in (solvable, [rng.randrange(mod) for _ in M]):
            assert solve_affine(M, b, p, m) == (solve(M, b, p, m), kernel_basis(M, p, m))
    assert solve_affine([], [], p, m) == (solve([], [], p, m), kernel_basis([], p, m))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (3, 21)])
def test_batch_kernel_layout(p, m):
    # a C-contiguous stack and the same stack stored system-last, as the
    # lemma sweep builds it, give the same gens and evals
    rng = random.Random(41 + m)
    for r, c in SWEEP_SHAPES:
        dense = np.array(oracle_mats(rng, r, c, p, m, 12), dtype=np.int64)
        last = np.ascontiguousarray(dense.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.array_equal(last, dense)
        assert r * c == 1 or not last.flags.c_contiguous
        want, got = batch_kernel(dense, p, m), batch_kernel(last, p, m)
        for a, b, shape in zip(got, want, [dense.shape[:1] + (c, c), dense.shape[:1] + (c,)]):
            assert a.shape == b.shape == shape
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert want[0].dtype == work_dtype(p ** m)
        assert want[1].dtype == np.int64
