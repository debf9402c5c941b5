"""Reference implementations that the tests check the fast paths against."""

from itertools import product as iproduct

from crystaframe.matrices import mat, mat_add
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
