import math
import random
from itertools import product

import numpy as np
import pytest

from crystaframe.linalg import GradedSpan, SpanNF, extend_stacked, reduce_stacked
from crystaframe.pdenv import (
    PDDifferential,
    PDError,
    PDPresentation,
    build_pd_envelope,
    pd_frame,
    pd_torsion_probe,
)
from crystaframe.residues import Residues, divided_power_constant, gamma_of_p
from oracles import (
    artifact_span,
    incremental_relations,
    p_torsion_kernel,
    same_span_modulo,
    scalar_closure,
    stratum_members,
)


def free_env(p=2, m=3, cap=6):
    """Z/p^m[x] with generators (p, x): the free PD algebra on one variable."""
    pres = PDPresentation(p, m, ("x",), ((1,),), cap)
    return build_pd_envelope(pres)


def xy2_env(p=2, m=2, cap=4):
    """The F_p[x,y]/(x,y)^2 presentation: generators (p, x^2, xy, y^2)."""
    pres = PDPresentation(p, m, ("x", "y"), ((2, 0), (1, 1), (0, 2)), cap)
    return build_pd_envelope(pres)


def test_free_envelope_basis_and_no_relations():
    env = free_env(2, 3, 4)
    assert env.n == 4  # x^[0..3]
    assert env.relations.basis() == []
    rep = pd_torsion_probe(env)
    assert rep.torsion_generators == []
    assert rep.free_rank == 4


def test_pd_axiom_products():
    env = free_env(2, 3, 8)
    x1 = env.divided_generator(0, 1)
    for n in range(1, 6):
        lhs = env.mul(x1, env.divided_generator(0, n))
        rhs = env.int_mul(n + 1, env.divided_generator(0, n + 1))
        assert lhs == rhs
    # a^[2] a^[3] = C(5,2) a^[5] = 10 a^[5]
    assert env.mul(env.divided_generator(0, 2), env.divided_generator(0, 3)) == env.int_mul(
        10, env.divided_generator(0, 5)
    )


def test_products_cross_cap_vanish():
    env = free_env(2, 3, 4)
    assert env.mul(env.divided_generator(0, 2), env.divided_generator(0, 2)) == env.zero


def test_gamma_scalars():
    env = free_env(2, 3, 4)
    # p^[2] p^[1] = 3 p^[3] = 3 gamma_3(2) = 3*4 = 4 mod 8
    val = 3 * env.gamma_p(3) % env.mod
    assert env.gamma_p(2) * env.gamma_p(1) % env.mod == val
    assert val == 4


def test_x_power_absorbs():
    env = free_env(2, 3, 6)
    x = env.variable("x")
    # x^n = n! x^[n]
    for n in range(1, 5):
        xn = env.one
        for _ in range(n):
            xn = env.mul(xn, x)
        assert xn == env.int_mul(math.factorial(n), env.divided_generator(0, n))


def test_normal_form_idempotent_random():
    env = xy2_env(2, 2, 4)
    rng = random.Random(1)
    for _ in range(100):
        v = [rng.randrange(env.mod) for _ in range(env.n)]
        r = env.reduce(v)
        assert env.reduce(list(r)) == r


def test_degree_one_rewrites():
    env = xy2_env(2, 2, 4)
    g1 = env.divided_generator(0, 1)  # x^2
    g2 = env.divided_generator(1, 1)  # xy
    g3 = env.divided_generator(2, 1)  # y^2
    x = env.variable("x")
    y = env.variable("y")
    # x * (xy) = y * (x^2) (base-ring identity is derivable)
    assert env.mul(x, g2) == env.mul(y, g1)
    # (x^2)(y^2) = (xy)^2 = 2 (xy)^[2]
    assert env.mul(g1, g3) == env.int_mul(2, env.divided_generator(1, 2))


def test_berthelot_torsion_appears():
    # gamma_p(x^2) gamma_p(y^2) - C(2p,p) gamma_{2p}(xy) is p-power torsion
    # but nonzero: shadow coincidence without a rewrite chain at full weight.
    env = xy2_env(2, 3, 5)
    b1 = env.mul(env.divided_generator(0, 2), env.divided_generator(2, 2))
    b2 = env.divided_generator(1, 4)
    diff = env.sub(b1, env.int_mul(math.comb(4, 2), b2))
    assert diff != env.zero
    # (p!)^2 * diff = 0: the identification only holds after scaling
    assert env.int_mul(4, diff) == env.zero


def test_torsion_probe_selfconsistent():
    for m in (2, 3):
        env = xy2_env(2, m, 5)
        rep = pd_torsion_probe(env)
        fresh = env._build_relations()
        for t in rep.torsion_generators:
            assert t != env.zero
            assert fresh.contains([env.p * c for c in t])
        assert rep.torsion_generators, "the (x,y)^2 envelope should show torsion here"
        assert rep.factor_orders == [2, 2, 2]


def test_xy2_cap4_quotient_is_free():
    # every Smith exponent of the cap-4 relation span is 0 or m
    for p in (2, 3):
        for m in (2, 3):
            env = xy2_env(p, m, 4)
            rep = pd_torsion_probe(env)
            assert (env.n, rep.free_rank) == (60, 36)
            assert rep.factor_orders == [] and rep.torsion_generators == []


def test_regular_probe_empty_grid():
    for p in (2, 3):
        for k in (1, 2):
            for cap in (3, 5):
                for m in (2, 3):
                    gens = tuple(
                        tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
                    )
                    env = build_pd_envelope(PDPresentation(p, m, tuple("xy"[:k]), gens, cap))
                    rep = pd_torsion_probe(env)
                    assert rep.torsion_generators == []
                    assert rep.free_rank == env.n
                    check_probe_against_kernel_oracle(env)


def check_probe_against_kernel_oracle(env):
    """The probe's generators and the kernel oracle's span the same p-torsion
    modulo S + p^(m-1) D, and no probe generator lies in S + p^(m-1) D."""
    rep = pd_torsion_probe(env)
    rel = env.relations.basis()
    oracle = p_torsion_kernel(rel, env.n, env.p, env.m)
    artifact = artifact_span(rel, env.n, env.p, env.m)
    assert len(rep.torsion_generators) == len(rep.factor_orders)
    assert not any(artifact.contains(t) for t in rep.torsion_generators)
    assert same_span_modulo(artifact, rep.torsion_generators, oracle)
    return oracle, artifact


@pytest.mark.parametrize(
    "p,m,cap",
    [
        pytest.param(p, m, cap, marks=[pytest.mark.slow] if cap == 7 else [])
        for p in (2, 3)
        for m in (2, 3)
        for cap in (4, 5, 6, 7)
    ],
)
def test_xy2_probe_matches_kernel_oracle(p, m, cap):
    check_probe_against_kernel_oracle(xy2_env(p, m, cap))


@pytest.mark.parametrize("p,m,cap,old_count", [(2, 2, 4, 6), (3, 2, 5, 17)])
def test_coordinate_filter_reported_artifacts(p, m, cap, old_count):
    # Negative control: the filter the probe used before kept a kernel
    # generator unless every normal-form coordinate was divisible by
    # p^(m-1).  That is no test of membership in S + p^(m-1) D: on these
    # free quotients it kept generators (e_45 among them on the DT frame of
    # scenarios/pd_desk.scn), and all of them lie in S + p^(m-1) D.
    env = xy2_env(p, m, cap)
    oracle, artifact = check_probe_against_kernel_oracle(env)
    old = [t for t in oracle if any(c % p ** (m - 1) for c in t)]
    assert len(old) == old_count
    assert all(artifact.contains(t) for t in old)
    if (p, m, cap) == (2, 2, 4):
        assert tuple(int(i == 45) for i in range(env.n)) in old


def check_graded_relations_against_flat(env):
    """The relation span, one block per shadow, against one SpanNF of its rows.

    Reduced basis, pivots, normal forms, membership rows, free rank, factor
    orders and torsion (modulo S + p^(m-1) D) must agree with the flat span.
    """
    p, m, n, mod = env.p, env.m, env.n, env.mod
    rel = env.relations
    flat = SpanNF(n, p, m)
    for row in rel.basis():
        flat.insert(row)
    R = flat.reduced_basis()
    assert rel.reduced_basis() == R
    assert rel.pivots() == flat.pivots()
    rng = random.Random(43)
    vecs = [[rng.randrange(mod) for _ in range(n)] for _ in range(10)]
    for _ in range(10):
        x = [0] * n
        for r in rng.sample(R, min(len(R), 6)):
            c = rng.randrange(mod)
            x = [(a + c * b) % mod for a, b in zip(x, r)]
        y = list(x)
        y[rng.randrange(n)] += p ** rng.randrange(m)
        vecs += [x, y]
    assert [rel.reduce(v) for v in vecs] == [flat.reduce(v) for v in vecs]
    T = rel.membership_rows()
    for x in vecs:
        assert all(sum(a * b for a, b in zip(t, x)) % mod == 0 for t in T) == flat.contains(x)
    assert sum(map(flat.contains, vecs)) >= 10
    rep = pd_torsion_probe(env)
    evals = flat.smith()[3]
    assert rep.free_rank == n - sum(e < m for e in evals)
    assert rep.factor_orders == [p ** e for e in evals if 0 < e < m]
    assert same_span_modulo(artifact_span(R, n, p, m), rep.torsion_generators, flat.p_torsion())


@pytest.mark.parametrize(
    "p,m,cap",
    [
        pytest.param(p, m, cap, marks=[pytest.mark.slow] if cap == 7 else [])
        for p in (2, 3)
        for m in (2, 3)
        for cap in (4, 5, 6, 7)
    ]
    + [(2, 40, 5)],  # past int64: the arrays hold Python ints
)
def test_graded_relations_match_flat_span(p, m, cap):
    check_graded_relations_against_flat(xy2_env(p, m, cap))


def test_relation_span_refuses_a_row_across_shadows():
    # negative control: the span keeps one block per shadow and never splits
    # a row; e_i + e_j with b_i, b_j of different shadows is refused
    env = xy2_env(2, 2, 4)
    span = env._build_relations()
    i, j = span.columns[0][0], span.columns[1][0]
    assert env._shadows[i] != env._shadows[j]
    with pytest.raises(ValueError, match="grades"):
        span.insert([int(k in (i, j)) for k in range(env.n)])
    assert span.basis() == env.relations.basis()


def test_probe_certificate_rejects_coordinate_filter(monkeypatch):
    # Negative control: the coordinate filter the probe once used (kernel
    # generators with a coordinate not divisible by p^(m-1)) reports six
    # elements of S + p^(m-1) D on this free quotient; the certificate,
    # built from a fresh S and the rows p^(m-1) e_i, must refuse them
    env = xy2_env(2, 2, 4)

    def coordinate_filter(span):
        p, m = span.p, span.m
        kernel = p_torsion_kernel(span.basis(), span.ncols, p, m)
        return [t for t in kernel if any(c % p ** (m - 1) for c in t)]

    monkeypatch.setattr(type(env.relations), "p_torsion", coordinate_filter)
    with pytest.raises(AssertionError, match="lies in S"):
        pd_torsion_probe(env)


def test_sigma_is_ring_hom_on_samples():
    env = free_env(2, 3, 6)
    rng = random.Random(3)
    for _ in range(40):
        a = env.reduce([rng.randrange(env.mod) for _ in range(env.n)])
        b = env.reduce([rng.randrange(env.mod) for _ in range(env.n)])
        assert env.sigma(env.mul(a, b)) == env.mul(env.sigma(a), env.sigma(b))
        assert env.sigma(env.add(a, b)) == env.add(env.sigma(a), env.sigma(b))
    assert env.sigma(env.one) == env.one


def test_sigma1_formula_cn():
    # sigma1(x^[n]) = c_n x^[pn], exact, for tau = 0
    for p, m, cap in [(2, 3, 17), (3, 2, 25), (5, 2, 41)]:
        env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap))
        ring = Residues(p, m)
        frame = pd_frame(env)
        for n in range(1, 8):
            if p * n >= cap:
                continue
            got = frame.sigma1(env.divided_generator(0, n))
            want = env.int_mul(divided_power_constant(n, ring), env.divided_generator(0, p * n))
            assert got == want


def test_sigma1_of_p_is_one():
    env = free_env(2, 3, 6)
    frame = pd_frame(env)
    assert frame.sigma1(frame.p_elt) == env.one


def test_p_sigma1_equals_sigma_on_spanning_set():
    for p, m in [(2, 3), (3, 2)]:
        env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), 8))
        frame = pd_frame(env)
        for g in frame.ideal_spanning():
            assert frame.frame_axiom_p_sigma1(g)


def test_sigma1_well_definedness_certificate():
    env = xy2_env(2, 3, 4)
    frame = pd_frame(env)
    assert frame.sigma1_certified_precision >= env.m - 1


def test_sigma1_sigma_linearity_at_ledger_precision():
    env = free_env(2, 3, 8)
    frame = pd_frame(env)
    rng = random.Random(5)
    pm1 = env.p ** (env.m - 1)
    for _ in range(30):
        a = env.reduce([rng.randrange(env.mod) for _ in range(env.n)])
        i = frame.ideal_spanning()[rng.randrange(len(frame.ideal_spanning()))]
        defect = frame.sigma_linear_defect(a, i)
        assert all(c % pm1 == 0 for c in defect)


def test_cap_too_small_rejected():
    with pytest.raises(PDError):
        PDPresentation(2, 3, ("x",), ((1,),), 1)


def test_trivial_generator_rejected():
    with pytest.raises(PDError):
        PDPresentation(2, 3, ("x",), ((0,),), 4)


def test_derivation_divided_powers():
    env = free_env(2, 3, 6)
    diff = PDDifferential(env)
    for n in range(1, 5):
        d = diff.d(env.divided_generator(0, n))
        want = diff.env1.divided_generator(0, n - 1) if n > 1 else diff.env1.one
        assert d == (want,)


def test_derivation_leibniz_random():
    env = xy2_env(2, 2, 4)
    diff = PDDifferential(env)
    rng = random.Random(7)
    for _ in range(40):
        u = env.reduce([rng.randrange(env.mod) for _ in range(env.n)])
        v = env.reduce([rng.randrange(env.mod) for _ in range(env.n)])
        duv = diff.d(env.mul(u, v))
        rhs = diff.add(diff.smul(u, diff.d(v)), diff.smul(v, diff.d(u)))
        assert duv == rhs


def test_dsigma1_basis_and_p_relation():
    env = free_env(2, 3, 6)
    diff = PDDifferential(env)
    # (dsigma)1(dx) = x^{p-1} dx for tau = 0
    dx = (diff.env1.one,)
    got = diff.dsigma1(dx)
    assert got == (diff.env1.variable("x"),)
    # p (dsigma)1 = dsigma on a spanning set of Omega
    for w in [dx, (diff.env1.divided_generator(0, 2),)]:
        assert diff.dsigma(w) == tuple(diff.env1.int_mul(env.p, c) for c in diff.dsigma1(w))


def test_d_sigma_compatibility():
    # d(sigma(a)) = dsigma(da) for a in the basis: chain rule at monomials
    env = free_env(2, 3, 6)
    diff = PDDifferential(env)
    for n in range(1, 4):
        a = env.divided_generator(0, n)
        lhs = diff.d(env.sigma(a))
        rhs = diff.dsigma(diff.d(a))
        assert lhs == rhs


CLOSURE_PRESENTATIONS = [
    (("x",), ((1,),)),
    (("x", "y"), ((1, 0), (0, 1))),
    (("x", "y"), ((2, 0), (1, 1), (0, 2))),
]


def check_closure_against_scalar(pres):
    # the stacked build against the incremental oracle (seed rows inserted
    # one at a time, then the one-product-at-a-time closure): a stacked span
    # holds its reduced Howell form, so its basis() is the oracle's reduced_basis()
    env = build_pd_envelope(pres)
    report = pd_torsion_probe(env)
    ref = build_pd_envelope(pres)
    ref.relations = incremental_relations(ref)
    assert env.relations.basis() == ref.relations.reduced_basis()
    assert report == pd_torsion_probe(ref)


@pytest.mark.parametrize("variables,gens", CLOSURE_PRESENTATIONS, ids=["x", "x,y", "(x,y)^2"])
@pytest.mark.parametrize("p", [2, 3])
def test_batched_closure_matches_scalar(variables, gens, p):
    for m in (2, 3):
        for cap in (4, 5, 6):
            check_closure_against_scalar(PDPresentation(p, m, variables, gens, cap))


@pytest.mark.parametrize("p,m", [(2, 40), (3, 40), (2, 64)])
def test_batched_closure_matches_scalar_past_int64(p, m):
    # products of two coefficients pass int64, so the arrays hold Python ints;
    # at 3^40 and 2^64 the modulus itself does too
    variables, gens = CLOSURE_PRESENTATIONS[2]
    check_closure_against_scalar(PDPresentation(p, m, variables, gens, 4))


def check_stacked_against_incremental(env):
    """Every canonical output of the stacked relation span equals the incremental oracle's."""
    p, m, n = env.p, env.m, env.n
    rel, ref = env.relations, incremental_relations(env)
    for got, want in zip(rel.blocks, ref.blocks):
        assert got.basis() == got.reduced_basis() == want.reduced_basis()
        assert got.pivots() == want.pivots()
        assert got.smith()[3] == want.smith()[3]
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [rel.reduce(e) for e in units] == [ref.reduce(e) for e in units]
    X = np.zeros((n, rel.width), dtype=object)
    X[np.arange(n), rel.local] = 1
    stacked = reduce_stacked(rel.blocks, np.array(rel.gid), X).tolist()
    got = [rel._embed(g, r[: len(rel.columns[g])]) for g, r in zip(rel.gid, stacked)]
    assert got == [ref.reduce(e) for e in units]
    evals = ref.smith_exponents()
    assert rel.smith_exponents() == evals
    rep = pd_torsion_probe(env)
    assert rep.free_rank == n - sum(e < m for e in evals)
    assert rep.factor_orders == [p ** e for e in evals if 0 < e < m]
    assert rep.torsion_generators == rel.p_torsion() == ref.p_torsion()


def slow_at_cap_7(grid):
    return [pytest.param(*case, marks=[pytest.mark.slow] if case[-1] == 7 else []) for case in grid]


@pytest.mark.parametrize(
    "p,m,cap",
    slow_at_cap_7([(p, m, cap) for p in (2, 3) for m in (2, 3) for cap in (4, 5, 6, 7)] + [(2, 40, 5)]),
)
def test_stacked_relations_match_incremental_build(p, m, cap):
    check_stacked_against_incremental(xy2_env(p, m, cap))


# (x^3, xy, y^3) has phantom members: x^3 * y^3 and (xy)^[3] share a shadow
# with divided degrees 2 and 3, so at cap 3 the second is a phantom
OTHER_PRESENTATIONS = {
    "x^3,xy,y^3": (("x", "y"), ((3, 0), (1, 1), (0, 3))),
    "x^2,y^3": (("x", "y"), ((2, 0), (0, 3))),
    "x,yz,y^2,z^2": (("x", "y", "z"), ((1, 0, 0), (0, 1, 1), (0, 2, 0), (0, 0, 2))),
}


@pytest.mark.parametrize("name", OTHER_PRESENTATIONS)
@pytest.mark.parametrize("p,m,cap", slow_at_cap_7([(2, 2, 3), (3, 2, 4), (2, 3, 5), (3, 3, 6), (2, 2, 7)]))
def test_stacked_relations_match_incremental_build_elsewhere(name, p, m, cap):
    variables, gens = OTHER_PRESENTATIONS[name]
    check_stacked_against_incremental(build_pd_envelope(PDPresentation(p, m, variables, gens, cap)))


def test_stacked_relations_match_incremental_build_on_regular_presentations():
    for (variables, gens), p, m, cap in product(CLOSURE_PRESENTATIONS[:2], (2, 3), (2, 3), (3, 5, 8)):
        env = build_pd_envelope(PDPresentation(p, m, variables, gens, cap))
        assert env.relations.basis() == []
        check_stacked_against_incremental(env)


@pytest.mark.parametrize("name", OTHER_PRESENTATIONS)
@pytest.mark.parametrize("p,cap", [(2, 3), (3, 5)])
def test_stratum_buckets_match_the_recursion(name, p, cap):
    # every stratum's members, phantoms included and in the recursion's
    # order, with the block column of each live one
    variables, gens = OTHER_PRESENTATIONS[name]
    env = build_pd_envelope(PDPresentation(p, 2, variables, gens, cap))
    rel = env.relations
    block, nv, col = (x.tolist() for x in env._strata)
    got = [[] for _ in rel.grades]
    for g, n, c in zip(block, nv, col):
        got[g].append((tuple(n), c))
    want = [
        [(n, rel.local[env.index[(mu, n)]] if sum(n) < cap else -1) for mu, n in stratum_members(env, shadow)]
        for shadow in rel.grades
    ]
    assert got == want
    phantoms = sum(c < 0 for c in col)
    assert phantoms > 0 if name == "x^3,xy,y^3" else phantoms == 0
    if (name, cap) == ("x^3,xy,y^3", 3):
        # x^3 * y^3 = T_(x^3) T_(y^3), live, and (xy)^[3], a phantom at cap 3
        assert got[rel.gid[env.index[((0, 0), (1, 0, 1))]]] == [((0, 3, 0), -1), ((1, 0, 1), 0)]


@pytest.mark.parametrize(
    "gens", [((2, 0), (1, 1), (0, 2)), ((3, 0), (1, 1), (0, 3))], ids=["(x,y)^2", "x^3,xy,y^3"]
)
@pytest.mark.parametrize("p,m,cap", [(2, 2, 4), (2, 3, 5), (3, 2, 5)])
def test_closure_of_any_span_matches_scalar_closure(gens, p, m, cap):
    # the closure in rounds against the one-product-at-a-time oracle, from
    # spans of two random rows: unlike the seed span these need several rounds
    env = build_pd_envelope(PDPresentation(p, m, ("x", "y"), gens, cap))
    rng = random.Random(cap)
    for _ in range(5):
        span, ref = GradedSpan(env._shadows, p, m), GradedSpan(env._shadows, p, m)
        for _ in range(2):
            g = rng.randrange(len(span.blocks))
            row = [rng.randrange(env.mod) for _ in span.columns[g]]
            ref.blocks[g].insert(row)
            extend_stacked(span.blocks, np.array([g]), np.array([row + [0] * (span.width - len(row))]))
        env._close_under_multiplication(span)
        scalar_closure(env, ref)
        assert span.basis() == span.reduced_basis() == ref.reduced_basis()


def per_pair_multiplication_table(env):
    """The multiplication table with one absorption per pair of basis elements."""
    n = env.n
    coef = np.zeros_like(env._coef)
    target = np.zeros_like(env._target)
    for i, (mu1, n1) in enumerate(env.basis):
        for j in range(i, n):
            mu2, n2 = env.basis[j]
            if sum(n1) + sum(n2) >= env.cap:
                continue
            c = 1
            for a, b in zip(n1, n2):
                c *= math.comb(a + b, a)
            exps = [x + y for x, y in zip(mu1, mu2)]
            c, mu, nv = env._absorb(c, exps, [a + b for a, b in zip(n1, n2)])
            if c is not None and c % env.mod:
                coef[i, j] = coef[j, i] = c % env.mod
                target[i, j] = target[j, i] = env.index[(mu, tuple(nv))]
    return coef, target


@pytest.mark.parametrize("variables,gens", CLOSURE_PRESENTATIONS, ids=["x", "x,y", "(x,y)^2"])
@pytest.mark.parametrize("p", [2, 3])
def test_multiplication_table_matches_per_pair_build(variables, gens, p):
    for m in (2, 3):
        for cap in (4, 5, 6):
            env = build_pd_envelope(PDPresentation(p, m, variables, gens, cap))
            coef, target = per_pair_multiplication_table(env)
            assert env._coef.dtype == coef.dtype and env._target.dtype == target.dtype
            assert np.array_equal(env._coef, coef) and np.array_equal(env._target, target)
