import random
import time
from pathlib import Path

import pytest

from crystaframe.intpoly import IntPolyRing
from crystaframe.monomial import MonomialAlgebra
from crystaframe.residues import GaloisField, Residues
from crystaframe.scenario import parse_scenario, validate_scenario
from crystaframe.witt import WittRing, witt_arith, witt_cache, witt_structure

ROOT = Path(__file__).resolve().parents[1]


def F2():
    return MonomialAlgebra(Residues(2, 1), [])


def F2x(cap):
    return MonomialAlgebra(Residues(2, 1), [("x", 0, cap)])


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_cache_builds_and_verifies(p, n):
    witt_cache(p, n).verify_ghost_identities()


def test_known_small_polynomials():
    c = witt_cache(2, 2)
    R = c.ring
    x0, x1 = R.gen("x0"), R.gen("x1")
    y0, y1 = R.gen("y0"), R.gen("y1")
    assert c.S[0] == R.add(x0, y0)
    # S_1 = x_1 + y_1 - x_0 y_0
    assert c.S[1] == R.sub(R.add(x1, y1), R.mul(x0, y0))
    # P_1 = x_0^2 y_1 + y_0^2 x_1 + 2 x_1 y_1
    expected = R.add(
        R.add(R.mul(R.mul(x0, x0), y1), R.mul(R.mul(y0, y0), x1)),
        R.scale(2, R.mul(x1, y1)),
    )
    assert c.P[1] == expected


def test_ghost_random_evaluations():
    # 200 numeric spot checks of the ghost homomorphism over Z
    rng = random.Random(2)
    for p, n in [(2, 3), (3, 3)]:
        ring = IntPolyRing(())  # Z itself: constants only
        W = WittRing(ring, n, p)
        for _ in range(100):
            x = tuple(ring.const(rng.randrange(-9, 10)) for _ in range(n))
            y = tuple(ring.const(rng.randrange(-9, 10)) for _ in range(n))
            gx, gy = W.ghost(x), W.ghost(y)
            gs = W.ghost(W.add(x, y))
            gp = W.ghost(W.mul(x, y))
            for i in range(n):
                assert gs[i] == ring.add(gx[i], gy[i])
                assert gp[i] == ring.mul(gx[i], gy[i])


def test_addition_over_f2():
    W = WittRing(F2(), 2)
    one = W.teichmuller(W.base.one)
    # (1,0) + (1,0) = (0,1): frozen from the ghost oracle, S_1 = x1+y1-x0y0
    assert W.add(one, one) == (W.base.zero, W.base.one)
    assert W.add(one, W.zero) == one


def test_multiplication_char2_formula():
    # (a0,a1)*(b0,b1) = (a0 b0, a0^2 b1 + b0^2 a1) over a char-2 base
    R = F2x(3)
    W = WittRing(R, 2)
    rng = random.Random(8)
    basis = R.basis()
    for _ in range(50):
        a = tuple(R.monomial(basis[rng.randrange(len(basis))], rng.randrange(2)) for _ in range(2))
        b = tuple(R.monomial(basis[rng.randrange(len(basis))], rng.randrange(2)) for _ in range(2))
        prod = W.mul(a, b)
        expected = (
            R.mul(a[0], b[0]),
            R.add(R.mul(R.mul(a[0], a[0]), b[1]), R.mul(R.mul(b[0], b[0]), a[1])),
        )
        assert prod == expected


def test_teichmuller_multiplicative():
    R = F2x(3)
    W = WittRing(R, 3)
    x = R.gen("x")
    a, b = R.add(R.one, x), R.mul(x, x)
    assert W.mul(W.teichmuller(a), W.teichmuller(b)) == W.teichmuller(R.mul(a, b))
    assert W.teichmuller(R.zero) == W.zero
    assert W.teichmuller(R.one) == W.one


def test_fv_identity():
    # F(V(x)) = p*x at length n-1, over char-p and over Z
    for base in [F2x(2), IntPolyRing(("a",))]:
        p = getattr(base, "p", 2)
        W = WittRing(base, 3, p)
        W2 = W.shorter(2)
        if isinstance(base, IntPolyRing):
            x = (base.gen("a"), base.const(3))
        else:
            x = (base.gen("x"), base.one)
        fv = W.frobenius(W.verschiebung(x))
        assert fv == W2.int_mul(p, x)


def test_vf_is_p_over_charp():
    # v(F(x)) = p*x over a char-p base (full length)
    R = F2x(2)
    W = WittRing(R, 2)
    for x in W.elements():
        assert W.verschiebung(W.frobenius(x)) == W.int_mul(2, x)


def test_frobenius_charp_componentwise():
    R = F2x(3)
    W = WittRing(R, 3)
    rng = random.Random(4)
    basis = R.basis()
    for _ in range(30):
        x = tuple(R.monomial(basis[rng.randrange(len(basis))], rng.randrange(2)) for _ in range(3))
        # the universal truncated F agrees with componentwise phi
        assert W.frobenius(x) == W.frobenius_charp(x)[:2]
        y = tuple(R.monomial(basis[rng.randrange(len(basis))], rng.randrange(2)) for _ in range(3))
        # and componentwise phi is a ring endomorphism
        assert W.frobenius_charp(W.add(x, y)) == W.add(W.frobenius_charp(x), W.frobenius_charp(y))
        assert W.frobenius_charp(W.mul(x, y)) == W.mul(W.frobenius_charp(x), W.frobenius_charp(y))


def test_frobenius_length_underflow():
    W = WittRing(F2(), 1)
    with pytest.raises(ValueError):
        W.frobenius(W.one)


def test_v_twisted_projection():
    # v(x)*y = v(x*F(y)) -- checked at length n over char-p bases
    R = F2x(2)
    W = WittRing(R, 2)
    W1 = W.shorter(1)
    for x in W1.elements():
        for y in W.elements():
            lhs = W.mul(W.verschiebung(x), y)
            rhs = W.verschiebung(W1.mul(x, W.frobenius(y)))
            assert lhs == rhs


def test_carrier_mismatch_rejected():
    W = WittRing(F2(), 2)
    with pytest.raises(ValueError):
        W.add(W.one, (W.base.one,))


def test_witt_w2_f2_is_z4():
    # W_2(F_2) is cyclic of order 4: 1+1 = (0,1), 1+1+1 = (1,1), 4 = 0
    W = WittRing(F2(), 2)
    two = W.add(W.one, W.one)
    three = W.add(two, W.one)
    four = W.add(three, W.one)
    assert len(set([W.zero, W.one, two, three])) == 4
    assert four == W.zero


def test_inverse():
    W = WittRing(F2x(2), 2)
    units = [x for x in W.elements() if W.is_unit(x)]
    for x in units:
        assert W.mul(x, W.inv(x)) == W.one


def test_wrappers():
    W = WittRing(F2(), 2)
    assert witt_arith(W, W.one, W.one, "add") == W.add(W.one, W.one)
    assert witt_structure(W, W.base.one, "teichmuller") == W.one
    with pytest.raises(ValueError):
        witt_arith(W, W.one, W.one, "sub")


def test_gamma_p_of_v_identity_symbolic():
    """v(a)^p = v(p^{p-1} a^p) over the torsion-free cover Z[a], exactly."""
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        ring = IntPolyRing(("a",))
        W = WittRing(ring, n, p)
        Wm1 = W.shorter(n - 1)
        a_comps = tuple(ring.gen("a") if i == 0 else ring.zero for i in range(n - 1))
        va = W.verschiebung(a_comps)
        lhs = va
        for _ in range(p - 1):
            lhs = W.mul(lhs, va)
        ap = a_comps
        for _ in range(p - 1):
            ap = Wm1.mul(ap, a_comps)
        rhs = W.verschiebung(Wm1.int_mul(p ** (p - 1), ap))
        assert lhs == rhs


def test_cache_build_time_budget():
    t0 = time.time()
    for p in (2, 3):
        for n in range(2, 5):
            witt_cache(p, n)
    assert time.time() - t0 < 10.0


# -- the per-ring memo of finite bases ------------------------------------------


def direct_ops(W, x, y):
    """add, mul, neg and frobenius_charp of W by direct evaluation, no memo."""
    c = W.cache
    return (
        W._eval(c.S, x, y),
        W._eval(c.P, x, y),
        W._eval(c.N, x, x),
        tuple(W.base.frobenius(a) for a in x),
    )


def memo_sizes(W):
    return {op: len(table) for op, table in W._memo.items()}


@pytest.mark.parametrize(
    "base,n",
    [
        (MonomialAlgebra(GaloisField(2, 2), []), 2),
        (MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 2),
        (F2(), 3),
    ],
    ids=["W2(F4)", "W2(F2[e])", "W3(F2)"],
)
def test_memoised_arithmetic_matches_direct_evaluation(base, n):
    W = WittRing(base, n)
    assert memo_sizes(W) == {"add": 0, "mul": 0, "neg": 0, "frob": 0}
    pool = list(W.elements())
    for warm in (False, True):
        for x in pool:
            for y in pool:
                add, mul, neg, frob = direct_ops(W, x, y)
                assert W.add(x, y) == add, (warm, x, y)
                assert W.mul(x, y) == mul, (warm, x, y)
                assert W.neg(x) == neg, (warm, x)
                assert W.frobenius_charp(x) == frob, (warm, x)
                # componentwise phi restricts to the universal truncated F
                assert frob[: n - 1] == W.frobenius(x)
        k = len(pool)
        assert memo_sizes(W) == {"add": k * k, "mul": k * k, "neg": k, "frob": k}


def test_memoised_quotient_carrier_matches_direct_evaluation():
    text = (ROOT / "scenarios" / "witt_frame_f2.scn").read_text()
    Q = validate_scenario(parse_scenario(text))["frames"]["Q"].A
    W = Q.W
    assert W._memo is not None
    # |Q| = 4096: every ordered pair of a seeded 16-element sample
    rng = random.Random(11)
    pool = rng.sample(list(Q.elements()), 16)
    for warm in (False, True):
        for x in pool:
            for y in pool:
                add, mul, neg, frob = direct_ops(W, x, y)
                assert Q.add(x, y) == Q.reduce(add), (warm, x, y)
                assert Q.mul(x, y) == Q.reduce(mul), (warm, x, y)
                assert Q.neg(x) == Q.reduce(neg), (warm, x)
                assert W.frobenius_charp(x) == frob, (warm, x)


def test_infinite_bases_evaluate_directly():
    ring = IntPolyRing(("a",))
    W = WittRing(ring, 2, 2)
    assert W._memo is None
    x = (ring.gen("a"), ring.const(1))
    assert W.add(x, x) == W._eval(W.cache.S, x, x)
