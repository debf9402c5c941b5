import random
import time

import pytest

from crystaframe.frames import validate_frame_hom
from crystaframe.linalg import SpanNF, solve_affine
from crystaframe.matrices import mat
from crystaframe.nabla import (
    Connection,
    NablaContext,
    _horizontality_residuals,
    connection_to_stratification,
    horizontality_check,
    integrability_and_qnilpotence,
    pbar0,
    pbar1,
    produced_connections,
    solve_connection,
    square_zero_frame,
    stratification_to_connection,
    zero_connection,
)
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.batteries import desk_connection_cases
from crystaframe.windows import WindowBudgetError, WindowError, window_from_psi


def ctx_one_var(p=2, m=3, cap=6):
    env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap))
    return NablaContext(pd_frame(env))


def ctx_two_var(p=2, m=2, cap=4):
    env = build_pd_envelope(PDPresentation(p, m, ("x", "y"), ((1, 0), (0, 1)), cap))
    return NablaContext(pd_frame(env))


def unit_window(ctx):
    return window_from_psi(ctx.frame, 0, 1, [[ctx.env.one]])


def mult_window(ctx):
    return window_from_psi(ctx.frame, 1, 0, [[ctx.env.one]])


def ss_window(ctx):
    one, zero = ctx.env.one, ctx.env.zero
    return window_from_psi(ctx.frame, 1, 1, [[zero, one], [one, zero]])


def test_zero_connection_horizontal_on_unit():
    ctx = ctx_one_var()
    w = unit_window(ctx)
    rep = horizontality_check(ctx, w, zero_connection(ctx, w))
    assert rep.passed


def test_nonzero_omega_fails_on_unit():
    # any nabla = e (x) omega with omega != 0 mod p fails: dsigma = 0 mod p forces it
    ctx = ctx_one_var()
    w = unit_window(ctx)
    bad = Connection(w, (mat([[ctx.env1.one]]),))
    rep = horizontality_check(ctx, w, bad)
    assert not rep.passed and rep.witnesses


def test_solver_unit_window_unique_zero():
    ctx = ctx_one_var()
    w = unit_window(ctx)
    sol = solve_connection(ctx, w)
    assert sol is not None
    part, gens = sol
    assert all(x == ctx.env1.zero for M in part.matrices for row in M for x in row)
    assert gens == []


def test_solver_multiplicative_window_unique_zero():
    ctx = ctx_one_var()
    w = mult_window(ctx)
    sol = solve_connection(ctx, w)
    assert sol is not None
    part, gens = sol
    assert all(x == ctx.env1.zero for M in part.matrices for row in M for x in row)
    assert gens == []


def test_solver_outputs_pass_horizontality():
    ctx = ctx_one_var()
    w = ss_window(ctx)
    sol = solve_connection(ctx, w)
    assert sol is not None
    conns = produced_connections(ctx, w, sol)
    assert conns
    for conn in conns:
        assert horizontality_check(ctx, w, conn).passed


def test_perturbed_solution_fails():
    ctx = ctx_one_var()
    w = ss_window(ctx)
    sol = solve_connection(ctx, w)
    part = sol[0]
    M = [list(map(list, Mi)) for Mi in part.matrices]
    M[0][0][1] = ctx.env1.add(M[0][0][1], ctx.env1.one)
    bad = Connection(w, tuple(mat(Mi) for Mi in M))
    assert not horizontality_check(ctx, w, bad).passed


def test_integrability_and_qnilpotence_desk():
    for make_ctx in (ctx_one_var, ctx_two_var):
        ctx = make_ctx()
        for make_w in (unit_window, mult_window, ss_window):
            w = make_w(ctx)
            sol = solve_connection(ctx, w)
            if sol is None:
                continue
            for conn in produced_connections(ctx, w, sol, bound=4):
                rep = integrability_and_qnilpotence(ctx, w, conn)
                assert rep.curvature_zero
                assert all(i is not None for i in rep.nilpotence_indices)


def test_square_zero_frame_selftest_and_homs():
    ctx = ctx_one_var()
    sz = square_zero_frame(ctx.frame, ctx.diff)
    for hom in (pbar0(sz), pbar1(sz)):
        cert = validate_frame_hom(hom, n_samples=10, seed=4)
        assert cert.passed, (hom.name, cert.failures)


def test_stratification_round_trip():
    ctx = ctx_one_var()
    for make_w in (unit_window, mult_window, ss_window):
        w = make_w(ctx)
        sol = solve_connection(ctx, w)
        if sol is None:
            continue
        conn = sol[0]
        E, _ = connection_to_stratification(ctx, w, conn)
        back = stratification_to_connection(ctx, w, E)
        assert back.matrices == conn.matrices


def test_stratification_round_trip_other_direction():
    # eps -> nabla -> eps is the identity on the stratification side
    ctx = ctx_one_var()
    for make_w in (unit_window, ss_window):
        w = make_w(ctx)
        sol = solve_connection(ctx, w)
        conn = sol[0] if sol else zero_connection(ctx, w)
        E, _ = connection_to_stratification(ctx, w, conn)
        back = stratification_to_connection(ctx, w, E)
        E2, _ = connection_to_stratification(ctx, w, back)
        assert E2 == E


def test_zero_connection_gives_canonical_eps():
    ctx = ctx_one_var()
    w = unit_window(ctx)
    E, _ = connection_to_stratification(ctx, w, zero_connection(ctx, w))
    assert E[0][0][0] == ctx.env.one
    assert all(u == ctx.env1.zero for u in E[0][0][1])


def test_bi_implication_sampled():
    # eps is a window isomorphism iff horizontality holds, on random pairs
    ctx = ctx_one_var()
    rng = random.Random(9)
    checked_pass = checked_fail = 0
    for make_w in (unit_window, mult_window, ss_window):
        w = make_w(ctx)
        sol = solve_connection(ctx, w)
        base = sol[0] if sol else zero_connection(ctx, w)
        for _ in range(9):
            M = [list(map(list, Mi)) for Mi in base.matrices]
            if rng.random() < 0.5:
                a = rng.randrange(w.rank)
                b = rng.randrange(w.rank)
                bump = ctx.env1.embed_int(rng.randrange(1, ctx.env1.mod))
                M[0][a][b] = ctx.env1.add(M[0][a][b], bump)
            cand = Connection(w, tuple(mat(Mi) for Mi in M))
            horizontal = horizontality_check(ctx, w, cand).passed
            try:
                connection_to_stratification(ctx, w, cand)
                eps_ok = True
            except WindowError:
                eps_ok = False
            assert eps_ok == horizontal
            if horizontal:
                checked_pass += 1
            else:
                checked_fail += 1
    assert checked_pass and checked_fail


# -- the residual-per-unknown solver, kept as the oracle ------------------------


def _solve_connection_reference(ctx, w):
    """Every residual of `_horizontality_residuals` is linear in the env1
    coordinates of the N_i entries, with constant part the zero connection:
    evaluate it once per unknown, add one slack per env1 relation per
    residual block and solve."""
    env1 = ctx.env1
    k = ctx.diff.k
    r = w.rank
    nc = env1.coord_count()
    nvars = k * r * r * nc
    mod = env1.mod
    rel_rows = [list(rw) for rw in env1.relations.basis()]

    def flat(conn):
        res = _horizontality_residuals(ctx, w, conn)
        return [c for _, _, M in res for row in M for x in row for c in env1.coords(x)]

    zero_res = flat(zero_connection(ctx, w))
    basis_res = []
    for v in range(nvars):
        Nc = [[[env1.zero] * r for _ in range(r)] for _ in range(k)]
        i, a, b, c = v // (r * r * nc), v // (r * nc) % r, v // nc % r, v % nc
        Nc[i][a][b] = env1._unit_vec(c)
        res = flat(Connection(w, tuple(mat(M) for M in Nc)))
        basis_res.append([(x - z) % mod for x, z in zip(res, zero_res)])
    n_eq = len(zero_res)
    n_slack = len(rel_rows) * (n_eq // nc)
    rows = []
    for e in range(n_eq):
        row = [basis_res[v][e] for v in range(nvars)] + [0] * n_slack
        for s_idx, rel in enumerate(rel_rows):
            row[nvars + e // nc * len(rel_rows) + s_idx] = rel[e % nc] % mod
        rows.append(row)
    part, hom_gens = solve_affine(rows, [(-z) % mod for z in zero_res], env1.p, env1.m)
    if part is None:
        return None

    def decode(vec):
        it = (env1.reduce(list(vec[s : s + nc])) for s in range(0, nvars, nc))
        return Connection(w, tuple(
            mat([[next(it) for _ in range(r)] for _ in range(r)]) for _ in range(k)
        ))

    return decode(part), [decode(g) for g in hom_gens]


def _homogeneous_span(ctx, w, gens):
    """SpanNF of the generators' coordinates plus the env1 relations of every
    entry: the homogeneous solutions as a span in coordinates."""
    env1 = ctx.env1
    n = ctx.diff.k * w.rank * w.rank * env1.n
    nf = SpanNF(n, env1.p, env1.m)
    for s in range(0, n, env1.n):
        for rel in env1.relations.basis():
            nf.insert([0] * s + list(rel) + [0] * (n - s - env1.n))
    for g in gens:
        nf.insert(_coords(ctx, g))
    return nf


def _coords(ctx, conn):
    return [c for M in conn.matrices for row in M for x in row for c in ctx.env1.coords(x)]


def _assert_same_solution_sets(ctx, w, got, want):
    """Both empty, or equal homogeneous spans and particulars that differ by
    an element of them: the same affine set, checked in both directions."""
    assert (got is None) == (want is None), (ctx.frame.name, w.d, w.t, w.psi)
    if got is None:
        return
    span_got = _homogeneous_span(ctx, w, got[1])
    span_want = _homogeneous_span(ctx, w, want[1])
    assert span_got.reduced_basis() == span_want.reduced_basis(), (ctx.frame.name, w.psi)
    diff = [(a - b) for a, b in zip(_coords(ctx, got[0]), _coords(ctx, want[0]))]
    assert span_got.contains(diff), (ctx.frame.name, w.psi)


def seeded_connection_cases(n_per_context=8, seed=11):
    """Windows with Psi = C + c x over Z/p^m<x> (C invertible mod p, c not
    all 0) of rank <= 2 and every (d, t), p = 2, 3 and (m, cap) = (2, 5),
    (3, 6)."""
    rng = random.Random(seed)
    kinds = [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    cases = []
    for p in (2, 3):
        for m, cap in ((2, 5), (3, 6)):
            ctx = ctx_one_var(p, m, cap)
            x1 = ctx.env.divided_generator(0, 1)
            windows = []
            while len(windows) < n_per_context:
                d, t = kinds[len(windows) % len(kinds)]
                r = d + t
                C = [[rng.randrange(p ** m) for _ in range(r)] for _ in range(r)]
                c = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
                if not any(map(any, c)):
                    continue
                psi = [
                    [ctx.env.add(ctx.env.embed_int(C[a][b]), ctx.env.int_mul(c[a][b], x1)) for b in range(r)]
                    for a in range(r)
                ]
                try:
                    windows.append(window_from_psi(ctx.frame, d, t, psi))
                except WindowError:  # C not invertible mod p
                    continue
            cases.append((ctx, windows))
    return cases


def test_solver_matches_reference_on_desk_grid():
    count = 0
    for ctx, windows in desk_connection_cases():
        for w in windows:
            _assert_same_solution_sets(ctx, w, solve_connection(ctx, w), _solve_connection_reference(ctx, w))
            count += 1
    assert count == 52


def test_solver_matches_reference_on_seeded_windows():
    count = 0
    for ctx, windows in seeded_connection_cases():
        for w in windows:
            _assert_same_solution_sets(ctx, w, solve_connection(ctx, w), _solve_connection_reference(ctx, w))
            count += 1
    assert count >= 32


def ctx_xy2(p=2, m=2, cap=4):
    # F_2[x, y]/(x, y)^2: the envelope and its cap-1 companion carry relations
    env = build_pd_envelope(PDPresentation(p, m, ("x", "y"), ((2, 0), (1, 1), (0, 2)), cap))
    return NablaContext(pd_frame(env))


def xy2_rank1_windows(ctx):
    # constant Psi, and Psi = 1 + g_0 + g_1 over the first two envelope
    # generators, whose connections are not zero
    env = ctx.env
    g = env.add(env.add(env.one, env.divided_generator(0, 1)), env.divided_generator(1, 1))
    psis = (env.one, env.embed_int(1 + env.p), g)
    return [window_from_psi(ctx.frame, d, 1 - d, [[c]]) for d in (0, 1) for c in psis]


def test_xy2_unit_window_solves():
    ctx = ctx_xy2()
    assert ctx.env1.relations.basis()
    t0 = time.time()
    sol = solve_connection(ctx, unit_window(ctx))
    elapsed = time.time() - t0
    assert sol is not None and sol[1] == []
    assert all(x == ctx.env1.zero for M in sol[0].matrices for row in M for x in row)
    assert elapsed < 10.0, elapsed


@pytest.mark.slow
def test_solver_matches_reference_on_xy2_envelope():
    # the reference takes 20 to 40 s per window here
    ctx = ctx_xy2()
    for w in xy2_rank1_windows(ctx):
        _assert_same_solution_sets(ctx, w, solve_connection(ctx, w), _solve_connection_reference(ctx, w))


def test_solver_respects_the_budget():
    ctx = ctx_one_var()
    w = ss_window(ctx)
    n = ctx.diff.k * w.rank * w.rank * ctx.env1.n  # the K-coordinates of eps
    with pytest.raises(WindowBudgetError):
        solve_connection(ctx, w, budget=n * n - 1)
    assert solve_connection(ctx, w, budget=n * n) is not None
