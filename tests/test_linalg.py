import random
from itertools import product

import numpy as np
import pytest

from crystaframe.linalg import (
    SpanNF,
    _work_dtype,
    batch_kernel,
    diagonalize,
    kernel_basis,
    p_torsion_of_quotient,
    quotient_factor_orders,
    solve,
)


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


def test_quotient_factor_orders():
    # Z/8^2 / <(2,0)> = Z/2 + Z/8
    orders = quotient_factor_orders([[2, 0]], 2, 2, 3)
    assert sorted(orders) == [2, 8]
    assert quotient_factor_orders([], 2, 2, 3) == [8, 8]


def test_p_torsion_of_quotient():
    # Z/4^1 / <2> has p-torsion generated by 1 (2*1 = 2 in span)
    tors, nf = p_torsion_of_quotient([[2]], 1, 2, 2)
    assert tors and all(t != (0,) and nf.contains([2 * t[0]]) for t in tors)
    # free module: p-torsion only p^{m-1} * basis
    tors, nf = p_torsion_of_quotient([], 1, 2, 2)
    assert tors == [(2,)]


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
                seen.add(tuple(nf.reduced_basis()))
            assert len(seen) == 1


def span_key(gens, ncols, p, m):
    nf = SpanNF(ncols, p, m)
    for g in gens:
        nf.insert(g)
    return nf.reduced_basis()


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
        assert gens.dtype == evals.dtype == np.int64
        for n, M in enumerate(mats):
            ev = diagonalize(M, p, m)[3]
            assert evals[n].tolist() == ev + [m] * (c - len(ev))
            got = gens[n].T.tolist()
            for g in got:
                assert all(sum(a * b for a, b in zip(row, g)) % mod == 0 for row in M)
            assert span_key(got, c, p, m) == span_key(kernel_basis(M, p, m), c, p, m)


def test_batch_kernel_reduces_its_input():
    rng = np.random.default_rng(3)
    mats = rng.integers(0, 27, size=(50, 4, 4))
    shift = 27 * rng.integers(-3, 3, size=mats.shape)
    for got, want in zip(batch_kernel(mats + shift, 3, 3), batch_kernel(mats, 3, 3)):
        assert np.array_equal(got, want)


def test_batch_kernel_work_dtype():
    # the narrowest dtype holding (mod - 1)^2 + mod
    assert _work_dtype(8) == np.int16
    assert _work_dtype(181) == np.int16 and _work_dtype(182) == np.int32
    assert _work_dtype(46341) == np.int32 and _work_dtype(46342) == np.int64
