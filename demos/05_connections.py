"""Connections on windows over a divided-power frame, and the eps dictionary.

Run:  python3 demos/05_connections.py
"""

from crystaframe import (
    NablaContext,
    PDPresentation,
    build_pd_envelope,
    connection_to_stratification,
    horizontality_check,
    integrability_and_qnilpotence,
    pd_frame,
    produced_connections,
    solve_connection,
    stratification_to_connection,
    window_from_psi,
)

env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 6))
ctx = NablaContext(pd_frame(env))
one, zero = env.one, env.zero

print("== Solving the horizontality equations ==")
windows = {
    "unit": window_from_psi(ctx.frame, 0, 1, [[one]]),
    "multiplicative": window_from_psi(ctx.frame, 1, 0, [[one]]),
    "supersingular": window_from_psi(ctx.frame, 1, 1, [[zero, one], [one, zero]]),
}
solutions = {}
for name, w in windows.items():
    sol = solve_connection(ctx, w)
    if sol is None:
        print(f"{name}: empty solution set (a finding, not an error)")
        continue
    particular, gens = sol
    solutions[name] = (w, sol)
    flat = [x for M in particular.matrices for row in M for x in row]
    print(f"{name}: particular solution {'= 0' if all(v == env.truncate_to(ctx.env1, env.zero) or not any(v) for v in flat) else 'nonzero'},"
          f" homogeneous rank {len(gens)}")
print()

print("== The divided-power lemma, verified on every produced connection ==")
for name, (w, sol) in solutions.items():
    for conn in produced_connections(ctx, w, sol):
        assert horizontality_check(ctx, w, conn).passed
        rep = integrability_and_qnilpotence(ctx, w, conn)
        print(f"{name}: curvature = 0: {rep.curvature_zero};"
              f" N_i nilpotent mod p with indices {rep.nilpotence_indices}")
print()

print("== The square-zero dictionary over D(1)_2 = D + Omega ==")
w, sol = solutions["supersingular"]
conn = sol[0]
E, _ = connection_to_stratification(ctx, w, conn)
print("eps(x) = x + nabla(x) is a window isomorphism pbar0^* -> pbar1^*")
back = stratification_to_connection(ctx, w, E)
print("round trip nabla -> eps -> nabla is the identity:", back.matrices == conn.matrices)
