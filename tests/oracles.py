"""Reference implementations that the tests check the fast paths against."""

import copy
from collections import defaultdict
from functools import lru_cache
import math
from itertools import product as iproduct

from crystaframe.linalg import GradedSpan, SpanNF, kernel_basis
from crystaframe.matrices import is_invertible, mat, mat_add, mat_col, mat_map, mat_vec
from crystaframe.windows import (
    ClassTable,
    Window,
    WindowBudgetError,
    WindowClass,
    WindowError,
    are_isomorphic,
    is_phi_hom,
    is_window_hom,
)


def hom_space_bruteforce(v, w, mode, budget=1 << 16):
    """Hom generators by exhausting every r_w x r_v matrix over the carrier.

    Each matrix is tested with `is_window_hom` (mode "window") or
    `is_phi_hom` (mode "phi_module"), and the solutions are reduced to
    additive generators by greedy span growth.
    """
    A = v.frame.A
    r_w, r_v = w.rank, v.rank
    pool = list(A.elements())
    total = len(pool) ** (r_w * r_v)
    if total > budget:
        raise WindowBudgetError(f"carrier too large for exhaustive hom search ({total} candidates)")
    check = is_window_hom if mode == "window" else is_phi_hom
    gens: list = []
    span = {mat([[A.zero] * r_v for _ in range(r_w)])}
    for combo in iproduct(pool, repeat=r_w * r_v):
        s = mat([combo[i * r_v : (i + 1) * r_v] for i in range(r_w)])
        if s in span or not check(v, w, s):
            continue
        gens.append(s)
        new = set(span)
        cur = s
        while cur not in span:
            new |= {mat_add(A, x, cur) for x in span}
            cur = mat_add(A, cur, s)
        span = new
    return gens


def classify_pairwise(frame, rank, budget=1 << 21):
    """Isomorphism classes by pairwise scan: each invertible Psi, in element
    order, is tested with `are_isomorphic` against the representatives found
    so far, so each class is represented by its first member and counted."""
    if rank < 0:
        raise WindowError(f"rank must be non-negative, got {rank}")
    if rank > 2:
        raise WindowError("classification is desk-scale: rank <= 2")
    table = ClassTable(frame.name, rank)
    if rank == 0:
        table.classes.append(WindowClass(0, 0, mat([]), 1))
        return table
    A = frame.A
    if A.size() ** (rank * rank) > budget:
        raise WindowBudgetError("budget exceeded: carrier too large for classification")
    pool = list(A.elements())
    for d in range(rank, -1, -1):
        t = rank - d
        reps = []
        orbit_counts = []
        for combo in iproduct(pool, repeat=rank * rank):
            psi = mat([combo[i * rank : (i + 1) * rank] for i in range(rank)])
            if not is_invertible(A, psi):
                continue
            cand = Window(frame, d, t, psi)
            placed = False
            for k, rep in enumerate(reps):
                if are_isomorphic(rep, cand):
                    orbit_counts[k] += 1
                    placed = True
                    break
            if not placed:
                reps.append(cand)
                orbit_counts.append(1)
        for rep, cnt in zip(reps, orbit_counts):
            table.classes.append(WindowClass(d, t, rep.psi, cnt))
    table.classes.sort(key=lambda c: (-c.d, c.psi))
    return table


def p_torsion_kernel(rel_rows, ncols, p, m):
    """Generators of the p-torsion of (Z/p^m)^ncols / span(rel_rows), by a kernel.

    Solves p*t - lambda*rel = 0 with one lambda unknown per relation row,
    the ncols x (ncols + k) system [p*I | -rel^T], and returns the t parts
    of its kernel generators in span normal form, nonzero and without
    repeats.  With the span they generate the whole kernel of p, the
    p^(m-1) multiples of the module included.
    """
    k = len(rel_rows)
    system = [
        [p * (i == j) for j in range(ncols)] + [-rel_rows[r][i] for r in range(k)]
        for i in range(ncols)
    ]
    nf = SpanNF(ncols, p, m)
    for row in rel_rows:
        nf.insert(row)
    out = []
    for g in kernel_basis(system, p, m):
        t = nf.reduce(g[:ncols])
        if any(t) and t not in out:
            out.append(t)
    return out


def artifact_span(rel_rows, ncols, p, m):
    """S + p^(m-1)(Z/p^m)^ncols, S the span of rel_rows: what p-torsion is read modulo."""
    nf = SpanNF(ncols, p, m)
    for i in range(ncols):
        nf.insert([p ** (m - 1) * (i == j) for j in range(ncols)])
    for row in rel_rows:
        nf.insert(row)
    return nf


def same_span_modulo(base, a, b):
    """Whether the vectors a and b span the same subgroup modulo the SpanNF base."""
    for gens, others in ((a, b), (b, a)):
        span = copy.deepcopy(base)
        for t in gens:
            span.insert(t)
        if not all(span.contains(t) for t in others):
            return False
    return True


def stratum_members(env, shadow):
    """All decompositions shadow = mu * prod g_j^{n_j} with mu residual, by
    recursion over the generators, n_j ascending; members at or beyond the
    divided-degree cap are phantoms."""
    out = []

    def rec(j, rest, nv):
        if j == env.s:
            if rest in env._residual_set:
                out.append((rest, tuple(nv)))
            return
        g = env.gens[j]
        for n in range(min(rest[i] // g[i] for i in range(env.nvars) if g[i]) + 1):
            rec(j + 1, tuple(rest[i] - n * g[i] for i in range(env.nvars)), nv + [n])

    rec(0, shadow, [])
    return out


def incremental_relations(env):
    """The envelope's relation span built one row at a time: the seed rows of
    each stratum (from `stratum_members`) inserted through `SpanNF.insert` in
    sorted order, then `scalar_closure`.  The oracle for the stacked build."""
    mod = env.mod
    shadows = [
        tuple(mu[i] + sum(n * g[i] for n, g in zip(nv, env.gens)) for i in range(env.nvars))
        for mu, nv in env.basis
    ]
    nf = GradedSpan(shadows, env.p, env.m)
    rows = [set() for _ in nf.grades]

    def ancestor(nv, n0):
        return math.prod(math.factorial(a) // math.factorial(b) for a, b in zip(nv, n0))

    for g, shadow in enumerate(nf.grades):
        members = stratum_members(env, shadow)
        for a, (mu_a, nv_a) in enumerate(members):
            if sum(nv_a) >= env.cap:
                continue
            for b, (mu_b, nv_b) in enumerate(members):
                b_live = sum(nv_b) < env.cap
                if b == a or (b_live and b < a):
                    continue
                n0 = tuple(min(x, y) for x, y in zip(nv_a, nv_b))
                vec = [0] * len(nf.columns[g])
                vec[nf.local[env.index[(mu_a, nv_a)]]] = ancestor(nv_a, n0) % mod
                if b_live:
                    ib = nf.local[env.index[(mu_b, nv_b)]]
                    vec[ib] = (vec[ib] - ancestor(nv_b, n0)) % mod
                if any(vec):
                    rows[g].add(tuple(vec))
    for i in range(env.s):
        for j in range(i + 1, env.s):
            gi, gj = env.gens[i], env.gens[j]
            lcm = tuple(max(a, b) for a, b in zip(gi, gj))
            for n in range(1, env.cap):
                vec = [0] * env.n
                for g, jj, sign in ((gi, i, 1), (gj, j, -1)):
                    nv0 = [0] * env.s
                    nv0[jj] = n
                    coeff, mu, nv = env._absorb(1, tuple(n * (l - a) for l, a in zip(lcm, g)), nv0)
                    if coeff is not None:
                        idx = env.index[(mu, tuple(nv))]
                        vec[idx] = (vec[idx] + sign * coeff) % mod
                if any(vec):
                    g, row = nf.split(vec)
                    rows[g].add(row)
    for g, block_rows in enumerate(rows):
        for vec in sorted(block_rows):
            nf.blocks[g].insert(vec)
    scalar_closure(env, nf)
    return nf


def scalar_closure(env, nf):
    """Close the span nf under basis products one product at a time: each
    pass inserts every product row * b_j that the span does not contain."""
    for _ in range(64):
        changed = False
        for row in list(nf.basis()):
            support = [(i, c) for i, c in enumerate(row) if c]
            for j in range(env.n):
                prod = [0] * env.n
                for i, c in support:
                    hit = env._basis_product_raw(i, j)
                    if hit is not None:
                        coeff, idx = hit
                        prod[idx] = (prod[idx] + c * coeff) % env.mod
                if any(prod) and not nf.contains(prod):
                    nf.insert(prod)
                    changed = True
        if not changed:
            return
    raise AssertionError("relation closure failed to stabilize")


def lift_hom_exhaustive(alpha, v_src, w_src, G_target, budget=1 << 14):
    """Every lift of G_target along alpha, by exhausting the corrections.

    A lift is section(G_target) + H with the entries of H in the kernel N
    of alpha; each of the |N|^(r_w r_v) candidates is tested with
    `is_window_hom`, which checks the filtration too.
    """
    A, zero = alpha.source.A, alpha.target.A.zero
    r_w, r_v = w_src.rank, v_src.rank
    N = [x for x in A.elements() if alpha.fn(x) == zero]
    if len(N) ** (r_w * r_v) > budget:
        raise WindowBudgetError(f"kernel too large for the exhaustive correction search ({len(N)} elements)")
    G0 = mat_map(alpha.section, G_target)
    out = []
    for combo in iproduct(N, repeat=r_w * r_v):
        cand = mat_add(A, G0, mat([combo[i * r_v : (i + 1) * r_v] for i in range(r_w)]))
        if is_window_hom(v_src, w_src, cand):
            out.append(cand)
    return out


@lru_cache(maxsize=None)
def witness_sets(fr):
    """{g: every value of sigma1(g) at full length}, by exhausting the witnesses.

    A witness is the choice of a lift of g one level up.  On a lift frame g =
    p*h with sigma1(g) = sigma(h), for every h in A.  On a Witt frame g =
    V(h|W_{n-1}) with sigma1(g) = h.  On a quotient frame A(K_*) the same
    holds for every Witt vector h' of W_n(S), read in A(K_*): h' is a
    representative h of A(K_*) plus some k in W_n(K_*), and V(k|W_{n-1})
    runs over the V(y), y in W_{n-1}(K_0..K_{n-2}), which are enumerated.
    """
    A = fr.A
    by_wit = defaultdict(list)
    zero_wits = [A.zero]
    if fr.kind == "lift":
        for h in A.elements():
            by_wit[A.int_mul(fr.p, h)].append(fr.sigma(h))
    elif fr.kind == "witt":
        for h in A.elements():
            by_wit[A.verschiebung(A.restrict(h, fr.n - 1))].append(h)
    else:
        S, W, seq = fr.seq.S, A.W, fr.seq
        for h in A.elements():
            by_wit[A.reduce(W.verschiebung(W.restrict(h, fr.n - 1)))].append(h)
        ideals = [
            [x for x in S.elements() if all(seq.monomial_in_ideal(e, i) for e, _ in x)] for i in range(fr.n - 1)
        ]
        zero_wits = {A.reduce(W.verschiebung(y)) for y in iproduct(*ideals)}
    out = defaultdict(set)
    for g, values in by_wit.items():
        for z in zero_wits:
            out[A.add(g, z)].update(values)
    return out


def window_hom_exhaustive(v, w, G):
    """Whether G is a window hom, with every witness of its entries tried.

    G must map M_1 into M_1 (bottom-left entries in I), commute with Phi on
    the T-columns, and satisfy G Psi_v = Psi_w (sigma(G_kj) for k < d_w,
    sigma1(G_kj) for k >= d_w) on each L-column j at full length, for some
    choice of the sigma1 values among those `witness_sets` lists.
    """
    fr = v.frame
    A = fr.A
    if any(not fr.ideal_contains(G[i][j]) for i in range(w.d, w.rank) for j in range(v.d)):
        return False
    sG = mat_map(fr.sigma, G)
    phi_w = w.phi_matrix()
    for j in range(v.d, v.rank):
        if mat_vec(A, G, mat_col(v.psi, j)) != mat_vec(A, phi_w, mat_col(sG, j)):
            return False
    wits = witness_sets(fr)
    for j in range(v.d):
        # every value of the right-hand side, one row of Psi_w at a time
        sums = {(A.zero,) * w.rank}
        for k in range(w.rank):
            values = [sG[k][j]] if k < w.d else wits.get(G[k][j], ())
            terms = {tuple(_mul(A, w.psi[i][k], s) for i in range(w.rank)) for s in values}
            sums = {tuple(_add(A, x, y) for x, y in zip(a, b)) for a in sums for b in terms}
        if mat_vec(A, G, mat_col(v.psi, j)) not in sums:
            return False
    return True


@lru_cache(maxsize=None)
def _mul(A, a, b):
    return A.mul(a, b)


@lru_cache(maxsize=None)
def _add(A, a, b):
    return A.add(a, b)
