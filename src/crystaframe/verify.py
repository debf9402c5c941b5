"""Named property batteries behind `crystaframe verify <tag>`.

Each battery runs an exact check grid and returns a VerifyResult with pass
counts and counterexample witnesses.  The acceptance suite calls these same
functions with the pinned parameters, so the CLI and the tests cannot
drift apart.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field

from .frames import FrameHom, lift_frame, witt_frame
from .intpoly import IntPolyRing
from .matrices import mat
from .monomial import MonomialAlgebra, adjoin_p_roots, frobenius_kernel_nilpotency
from .nabla import (
    NablaContext,
    horizontality_check,
    integrability_and_qnilpotence,
    produced_connections,
    solve_connection,
)
from .pdenv import PDPresentation, build_pd_envelope, pd_frame
from .residues import GaloisField, Residues, divided_power_constant
from .scenario import VERIFY_TAGS
from .windows import (
    Window,
    are_isomorphic,
    base_change,
    classify_windows,
    hom_space,
    is_window_hom,
    lift_hom_along,
    lift_window_along,
    window_from_psi,
)
from .witt import WittRing


@dataclass
class VerifyResult:
    tag: str
    passed: bool
    checks: int
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def record(self, ok: bool, witness=None):
        self.checks += 1
        if not ok:
            self.passed = False
            if witness is not None and len(self.counterexamples) < 16:
                self.counterexamples.append(witness)


def battery_parameters(tag: str) -> dict:
    """The keyword parameters the battery behind `tag` accepts, with defaults."""
    return {k: v.default for k, v in inspect.signature(_DISPATCH[tag]).parameters.items()}


def verify(tag: str, **params) -> VerifyResult:
    try:
        fn = _DISPATCH[tag]
    except KeyError:
        raise ValueError(f"unknown tag {tag!r}; known: {', '.join(VERIFY_TAGS)}")
    for key in ("primes", "p_list"):
        if key in params and isinstance(params[key], int):
            params[key] = (params[key],)
    return fn(**params)


def verify_sigma1_formula(primes=(2, 3, 5), nmax=8, precision=3) -> VerifyResult:
    """sigma1(x^[n]) = c_n x^[pn], c_n = (np)!/(n! p); v_p(c_n) >= 1 for n >= p."""
    out = VerifyResult("sigma1-formula", True, 0)
    for p in primes:
        m = precision if p == 2 else max(2, precision - 1)
        cap = p * nmax + 1
        env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap))
        ring = Residues(p, m)
        frame = pd_frame(env)
        for n in range(1, nmax + 1):
            got = frame.sigma1(env.divided_generator(0, n))
            cn = divided_power_constant(n, ring)
            want = env.int_mul(cn, env.divided_generator(0, p * n))
            out.record(got == want, ("sigma1", p, n))
            if n >= p:
                big = Residues(p, m + 6)
                v, _ = big.valuation_and_unit(divided_power_constant(n, big))
                out.record(v >= 1, ("v_p(c_n)", p, n))
    return out


def verify_gamma_vp(primes=(2, 3), nmax=3) -> VerifyResult:
    """gamma_p(v(a)) = (p^{p-1}/p!) v(a^p) in W_n over torsion-free covers.

    Checked as the exact symbolic identity v(a)^p = v(p^{p-1} a^p) over
    Z[a], plus the scalar identity p! * (p^{p-1}/p!) = p^{p-1} mod p^m.
    """
    out = VerifyResult("gamma-vp", True, 0)
    for p in primes:
        for n in range(2, nmax + 1):
            ring = IntPolyRing(("a",))
            W = WittRing(ring, n, p)
            Wm1 = W.shorter(n - 1)
            a = tuple(ring.gen("a") if i == 0 else ring.zero for i in range(n - 1))
            va = W.verschiebung(a)
            lhs = va
            for _ in range(p - 1):
                lhs = W.mul(lhs, va)
            ap = a
            for _ in range(p - 1):
                ap = Wm1.mul(ap, a)
            rhs = W.verschiebung(Wm1.int_mul(p ** (p - 1), ap))
            out.record(lhs == rhs, ("symbolic", p, n))
        for m in (2, 3):
            ring = Residues(p, m)
            import math

            v, u = ring.factorial_parts(p)
            scalar = pow(p, p - 1 - v, ring.modulus) * pow(u, -1, ring.modulus) % ring.modulus
            lhs = math.factorial(p) % ring.modulus * scalar % ring.modulus
            out.record(lhs == pow(p, p - 1, ring.modulus), ("scalar", p, m))
    return out


def verify_pd_axioms(p=2, precision=3, cap=6) -> VerifyResult:
    """All PD axioms exhaustively within the cap for the bundled envelopes."""
    import math

    out = VerifyResult("pd-axioms", True, 0)
    presentations = [
        PDPresentation(p, precision, ("x",), ((1,),), cap),
        PDPresentation(p, precision, ("x", "y"), ((1, 0), (0, 1)), max(3, cap - 2)),
        PDPresentation(p, min(precision, 2), ("x", "y"), ((2, 0), (1, 1), (0, 2)), 4),
    ]
    for pres in presentations:
        env = build_pd_envelope(pres)
        for j in range(env.s):
            one = env.divided_generator(j, 0)
            out.record(one == env.one, ("g^[0]=1", pres.generators, j))
            # product rule within the cap
            for a in range(1, env.cap):
                for b in range(1, env.cap - a):
                    lhs = env.mul(env.divided_generator(j, a), env.divided_generator(j, b))
                    rhs = env.int_mul(math.comb(a + b, a), env.divided_generator(j, a + b))
                    out.record(lhs == rhs, ("product", pres.generators, j, a, b))
        # scalar family, division-free: (c g)^n = n! c^n g^[n]
        for j in range(env.s):
            for c in (2, 3):
                for n in range(1, env.cap):
                    cg = env.int_mul(c, env.divided_generator(j, 1))
                    acc = env.one
                    for _ in range(n):
                        acc = env.mul(acc, cg)
                    want = env.int_mul(
                        math.factorial(n) * pow(c, n, env.mod),
                        env.divided_generator(j, n),
                    )
                    out.record(acc == want, ("scalar-family", pres.generators, j, c, n))
        # normal-form idempotence on random coordinates
        rng = random.Random(11)
        for _ in range(50):
            v = [rng.randrange(env.mod) for _ in range(env.n)]
            r = env.reduce(v)
            out.record(env.reduce(list(r)) == r, ("idempotence", pres.generators))
        # gamma scalars: p^[n] p^[k] = C(n+k, n) p^[n+k]
        import math as _math

        for n in range(1, 4):
            for k in range(1, 4):
                lhs = env.gamma_p(n) * env.gamma_p(k) % env.mod
                rhs = _math.comb(n + k, n) * env.gamma_p(n + k) % env.mod
                out.record(lhs == rhs, ("gamma", n, k))
    return out


def verify_win_phi_mod(p=2, precision=3, rank=2, chunk=120_000) -> VerifyResult:
    """The window-hom vs Phi-hom lemma over every ordered pair of classes."""
    from .homsweep import sweep_win_phi_mod

    out = VerifyResult("win-phi-mod", True, 0)
    frame = lift_frame(Residues(p, precision))
    tables = [classify_windows(frame, r, budget=1 << 22) for r in range(rank + 1)]
    rep = sweep_win_phi_mod(frame, tables, chunk=chunk)
    out.checks = rep.pairs_checked
    out.details = {
        "classes": sum(len(t.classes) for t in tables),
        "pairs": rep.pairs_checked,
        "trivial_pairs": rep.pairs_trivial,
    }
    for f in rep.injectivity_failures[:8]:
        out.record(False, ("injectivity", f))
    for f in rep.cokernel_failures[:8]:
        out.record(False, ("cokernel", f))
    return out


def _eps_deformation(k, n):
    """The W_n(k[eps]) -> W_n(k) Witt-frame surjection eps -> 0, with its section."""
    src = witt_frame(MonomialAlgebra(k, [("e", 0, 2)]), n)
    tgt = witt_frame(MonomialAlgebra(k, []), n)

    def proj_comp(c):
        return tuple(((), v) for exps, v in c if not any(exps))

    def proj(x):
        return tuple(proj_comp(c) for c in x)

    def sect(x):
        return tuple(tuple(((0,), v) for _, v in c) for c in x)

    hom = FrameHom(src, tgt, fn=proj, cod_fn=proj, name=f"W_{n}(eps->0)", section=sect)
    return src, tgt, hom


def verify_deform_win() -> VerifyResult:
    """Deformation desk check on the eps -> 0 Witt-frame surjections.

    Over W_2(F_2[eps]), W_3(F_2[eps]) and W_2(F_4[eps]): rank-1 class tables
    over source and target are in bijection under base change, and every
    hom between lifted windows lifts uniquely.
    """
    out = VerifyResult("deform-win", True, 0)
    for k, n in ((Residues(2, 1), 2), (Residues(2, 1), 3), (GaloisField(2, 2), 2)):
        _deform_win_rank1(out, *_eps_deformation(k, n))
    return out


def _deform_win_rank1(out: VerifyResult, src, tgt, hom) -> None:
    t_src = classify_windows(src, 1, budget=1 << 16)
    t_tgt = classify_windows(tgt, 1, budget=1 << 12)
    for d in (0, 1):
        n_src = sum(1 for c in t_src.classes if c.d == d)
        n_tgt = sum(1 for c in t_tgt.classes if c.d == d)
        out.record(n_src == n_tgt, ("counts", hom.name, d, n_src, n_tgt))
        reps_t = [c.psi for c in t_tgt.classes if c.d == d]
        matched = set()
        for c in t_src.classes:
            if c.d != d:
                continue
            img = base_change(hom, Window(src, c.d, c.t, c.psi))
            hits = [
                k
                for k, psi in enumerate(reps_t)
                if are_isomorphic(img, Window(tgt, d, 1 - d, psi))
            ]
            out.record(len(hits) == 1, ("image-class", hom.name, d, c.psi))
            if hits:
                matched.add(hits[0])
        out.record(matched == set(range(len(reps_t))), ("surjectivity", hom.name, d))
    # unique hom lifting across all ordered pairs of target classes
    for cv in t_tgt.classes:
        for cw in t_tgt.classes:
            v_t = Window(tgt, cv.d, cv.t, cv.psi)
            w_t = Window(tgt, cw.d, cw.t, cw.psi)
            v_s = lift_window_along(hom, v_t)
            w_s = lift_window_along(hom, w_t)
            for G in hom_space(v_t, w_t, "window", budget=1 << 12).elements():
                rep = lift_hom_along(hom, v_s, w_s, G)
                out.record(rep.unique, ("unique-lift", hom.name, cv.psi, cw.psi))
                out.record(
                    is_window_hom(v_s, w_s, rep.lifted), ("lift-is-hom", hom.name, cv.psi, cw.psi)
                )
    # lift then base change is the identity on source iso classes
    for c in t_src.classes:
        w_src = Window(src, c.d, c.t, c.psi)
        down = base_change(hom, w_src)
        up = lift_window_along(hom, down)
        out.record(are_isomorphic(up, w_src, budget=1 << 12), ("round-trip-class", hom.name, c.psi))


def desk_connection_cases(p_list=(2, 3)):
    """The bundled (context, window) grid for connection batteries."""
    cases = []
    for p in p_list:
        for m, cap in ((2, 5), (3, 6)):
            env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap))
            ctx = NablaContext(pd_frame(env))
            one, zero = ctx.env.one, ctx.env.zero
            x1 = env.divided_generator(0, 1)
            u = env.embed_int(1 + p)
            windows = [
                window_from_psi(ctx.frame, 0, 1, [[one]]),
                window_from_psi(ctx.frame, 0, 1, [[u]]),
                window_from_psi(ctx.frame, 1, 0, [[one]]),
                window_from_psi(ctx.frame, 1, 0, [[u]]),
                window_from_psi(ctx.frame, 1, 1, [[zero, one], [one, zero]]),
                window_from_psi(ctx.frame, 1, 1, [[zero, u], [one, zero]]),
                window_from_psi(ctx.frame, 1, 1, [[one, x1], [zero, one]]),
                window_from_psi(ctx.frame, 2, 0, [[one, zero], [zero, u]]),
                window_from_psi(ctx.frame, 0, 2, [[one, zero], [u, one]]),
                window_from_psi(ctx.frame, 0, 2, [[zero, one], [one, zero]]),
            ]
            cases.append((ctx, windows))
        env2 = build_pd_envelope(
            PDPresentation(p, 2, ("x", "y"), ((1, 0), (0, 1)), 4)
        )
        ctx2 = NablaContext(pd_frame(env2))
        one, zero = ctx2.env.one, ctx2.env.zero
        u2 = ctx2.env.embed_int(1 + p)
        windows2 = [
            window_from_psi(ctx2.frame, 0, 1, [[one]]),
            window_from_psi(ctx2.frame, 1, 0, [[one]]),
            window_from_psi(ctx2.frame, 1, 1, [[zero, one], [one, zero]]),
            window_from_psi(ctx2.frame, 1, 1, [[zero, u2], [one, zero]]),
            window_from_psi(ctx2.frame, 2, 0, [[zero, one], [one, zero]]),
            window_from_psi(ctx2.frame, 0, 2, [[u2, zero], [zero, one]]),
        ]
        cases.append((ctx2, windows2))
    return cases


def verify_integrability(p_list=(2, 3), min_instances=50) -> VerifyResult:
    """Every produced connection is integrable with N_i nilpotent mod p."""
    out = VerifyResult("integrability", True, 0)
    produced = 0
    for ctx, windows in desk_connection_cases(p_list):
        for w in windows:
            sol = solve_connection(ctx, w)
            if sol is None:
                out.details.setdefault("empty_solution_sets", 0)
                out.details["empty_solution_sets"] += 1
                continue
            for conn in produced_connections(ctx, w, sol, bound=6):
                produced += 1
                hrep = horizontality_check(ctx, w, conn)
                out.record(hrep.passed, ("horizontality", ctx.frame.name, w.d, w.t))
                rep = integrability_and_qnilpotence(ctx, w, conn)
                out.record(rep.curvature_zero, ("curvature", ctx.frame.name, w.d, w.t))
                out.record(
                    all(i is not None for i in rep.nilpotence_indices),
                    ("nilpotence", ctx.frame.name, w.d, w.t),
                )
    out.details["instances"] = produced
    out.record(produced >= min_instances, ("instance-count", produced))
    return out


def verify_f_nilpotent_sequence(p_list=(2, 3)) -> VerifyResult:
    """Adjoining p-power roots preserves F-nilpotence (property battery).

    The grid keeps ranks desk-scale: depth-2 adjoins only on one-variable
    algebras (two-variable ones at depth 2 over p = 3 already exceed a
    thousand F_p dimensions without adding coverage).
    """
    out = VerifyResult("f-nilpotent-sequence", True, 0)
    for p in p_list:
        algebras = [
            (MonomialAlgebra(Residues(p, 1), [("x", 0, 3)]), (1, 2)),
            (MonomialAlgebra(Residues(p, 1), [("x", 0, 2), ("y", 0, 2)]), (1,)),
            (MonomialAlgebra(Residues(p, 1), [("x", 1, 2)]), (1, 2)),
            (MonomialAlgebra(Residues(p, 1), [("x", 0, 2), ("y", 1, 1)]), (1,)),
        ]
        for R, depths in algebras:
            nil, _ = frobenius_kernel_nilpotency(R)
            out.record(nil, ("input", repr(R)))
            for depth in depths:
                targets_grid = [[R.names[0]]]
                if len(R.names) > 1:
                    targets_grid.append(list(R.names))
                for targets in targets_grid:
                    S = adjoin_p_roots(R, targets, depth)
                    if S.fp_dim() > 256:
                        continue
                    nil2, idx = frobenius_kernel_nilpotency(S)
                    out.record(nil2, ("adjoined", repr(S)))
    return out


_DISPATCH = {
    "sigma1-formula": verify_sigma1_formula,
    "win-phi-mod": verify_win_phi_mod,
    "deform-win": verify_deform_win,
    "integrability": verify_integrability,
    "pd-axioms": verify_pd_axioms,
    "gamma-vp": verify_gamma_vp,
    "f-nilpotent-sequence": verify_f_nilpotent_sequence,
}
