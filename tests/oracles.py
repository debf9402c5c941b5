"""Reference implementations that the tests check the fast paths against."""

import copy
from itertools import product as iproduct

from crystaframe.linalg import SpanNF, kernel_basis
from crystaframe.matrices import mat, mat_add, mat_map
from crystaframe.windows import WindowBudgetError, is_phi_hom, is_window_hom


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
