"""Execute a validated scenario's command list and build the report."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .frames import BudgetError, FrameError, frame_axiom_failures
from .report import Report
from .scenario import BudgetExceeded, Scenario, parse_verify_value
from .windows import (
    WindowError,
    base_change,
    classify_windows,
    hom_space,
    lift_window_along,
    window_from_psi,
)

if TYPE_CHECKING:
    from .pdenv import PDAlgebra


def run_scenario(sc: Scenario, objects: dict, internal_precision: int | None = None, threads: int = 1) -> Report:
    report = Report(
        scenario_text=sc.source_text,
        parameters={
            "prime": sc.prime,
            "precision": sc.precision,
            "depth": sc.depth,
            "budgets": dict(sorted(sc.budgets.items())),
            "internal_precision": internal_precision or sc.precision,
            "threads": threads,
        },
    )
    frames = objects["frames"]
    homs = objects["homs"]
    windows = objects["windows"]
    for cmd in sc.commands:
        op = cmd[0]
        try:
            handler = _HANDLERS[op]
        except KeyError:
            report.add(cmd, "fail", {"summary": f"no handler for {op!r}"})
            continue
        try:
            status, data = handler(cmd, sc, frames, homs, windows, report, internal_precision)
        except BudgetExceeded:
            raise
        except BudgetError as exc:
            raise BudgetExceeded(str(exc))
        except (WindowError, FrameError) as exc:
            status, data = "fail", {"summary": str(exc)}
        report.add(cmd, status, data)
    return report


def _cmd_validate(cmd, sc, frames, homs, windows, report, m_int):
    frame = frames[cmd[1]]
    budget = min(sc.budgets["max_enum"], 4096)
    before = dict(frame.ledger.consumed)
    failures, gens, samples = frame_axiom_failures(frame, budget, n_samples=16, seed=0)
    report.ledger.append([f"validate {cmd[1]}: sigma1 codomain depth {frame.depth}", 0])
    # the frame's ledger outlives the command: charge this command its own digits
    for note, count in frame.ledger.trace():
        used = count - before.get(note, 0)
        if used:
            report.ledger.append([f"validate {cmd[1]}: {note} x{used}", used])
    if failures:
        return "fail", {"summary": f"{len(failures)} axiom failures", "witnesses": failures[:8]}
    return "pass", {
        "summary": f"frame axioms hold on {len(gens)} ideal generators and {len(samples)} samples"
    }


def _cmd_classify(cmd, sc, frames, homs, windows, report, m_int):
    frame = frames[cmd[1]]
    rank = int(cmd[3])
    table = classify_windows(frame, rank, budget=sc.budgets["max_enum"])
    classes = [
        {"d": c.d, "t": c.t, "psi": _psi_plain(c.psi), "orbit_size": c.orbit_size}
        for c in table.classes
    ]
    return "pass", {
        "summary": f"{len(classes)} isomorphism classes at rank {rank}",
        "classes": classes,
    }


def _psi_plain(psi):
    return [[x if isinstance(x, int) else repr(x) for x in row] for row in psi]


def _cmd_base_change(cmd, sc, frames, homs, windows, report, m_int):
    w = windows[cmd[1]]
    hom = homs[cmd[3]]
    if w.frame is not hom.source:
        return "fail", {"summary": "window is not over the hom's source frame"}
    image = base_change(hom, w)
    return "pass", {
        "summary": f"base change valid; (d, t) = ({image.d}, {image.t}) preserved",
        "psi": _psi_plain(image.psi),
    }


def _cmd_hom(cmd, sc, frames, homs, windows, report, m_int):
    v, w = windows[cmd[1]], windows[cmd[2]]
    mode = cmd[4] if len(cmd) >= 5 else "window"
    hs = hom_space(v, w, mode, budget=sc.budgets["max_enum"])
    return "pass", {
        "summary": f"{len(hs.generators)} hom-group generators ({mode})",
        "generators": [_psi_plain(g) for g in hs.generators],
    }


def _cmd_lift(cmd, sc, frames, homs, windows, report, m_int):
    w = windows[cmd[1]]
    hom = homs[cmd[3]]
    if w.frame is not hom.target:
        return "fail", {"summary": "window is not over the hom's target frame"}
    lifted = lift_window_along(hom, w)
    return "pass", {
        "summary": "window lifted; base change returns the input",
        "psi": _psi_plain(lifted.psi),
    }


def _cmd_solve_connection(cmd, sc, frames, homs, windows, report, m_int):
    from .nabla import NablaContext, integrability_and_qnilpotence, produced_connections, solve_connection

    frame = frames[cmd[1]]
    w = windows[cmd[2]]
    if w.frame is not frame:
        return "fail", {"summary": "window is not over the named pd frame"}
    ctx = NablaContext(frame)
    sol = solve_connection(ctx, w, budget=sc.budgets["max_enum"])
    if sol is None:
        return "finding", {"summary": "empty solution set (recorded, not an error)"}
    particular, gens = sol
    conns = produced_connections(ctx, w, sol)  # solve_connection certified them horizontal
    for conn in conns:
        rep = integrability_and_qnilpotence(ctx, w, conn)
        if not (rep.curvature_zero and all(i is not None for i in rep.nilpotence_indices)):
            return "fail", {"summary": "solver output failed the integrability lemma"}
    data = {
        "summary": f"solution lattice: particular + {len(gens)} homogeneous generators; "
        f"{len(conns)} produced connections all certified",
        "homogeneous_rank": len(gens),
    }
    if m_int and m_int > frame.env.m:
        stable = _ledger_stability(ctx, w, m_int, sc.budgets["max_enum"])
        data["ledger_stability"] = stable
        report.ledger.append([f"solve-connection {cmd[2]}: re-solved at precision {m_int}", m_int - frame.env.m])
        if not stable:
            return "finding", {**data, "summary": data["summary"] + "; UNSTABLE under +1 digit"}
    return "pass", data


def _ledger_stability(ctx, w, m_int, budget) -> bool:
    """Re-solve a solvable window at higher internal precision: the solution
    set must stay non-empty and its particular reduce to a solution."""
    from .nabla import Connection, NablaContext, horizontality_check, solve_connection
    from .pdenv import PDPresentation, build_pd_envelope, pd_frame

    frame = ctx.frame
    pres = frame.env.pres
    env2 = build_pd_envelope(
        PDPresentation(pres.p, m_int, pres.variables, pres.generators, pres.cap, pres.tau)
    )
    fr2 = pd_frame(env2)
    psi2 = [
        [_lift_coords(frame.env, env2, x) for x in row]
        for row in w.psi
    ]
    w2 = window_from_psi(fr2, w.d, w.t, psi2)
    sol2 = solve_connection(NablaContext(fr2), w2, budget)
    if sol2 is None:
        return False
    # the higher-precision particular must reduce to a valid solution
    reduced = tuple(
        tuple(tuple(_reduce_coords(env2, frame.env, x) for x in row) for row in M)
        for M in sol2[0].matrices
    )
    return horizontality_check(ctx, w, Connection(w, reduced)).passed


def _lift_coords(env_small: PDAlgebra, env_big: PDAlgebra, x):
    out = [0] * env_big.n
    for i, c in enumerate(x):
        out[env_big.index[env_small.basis[i]]] = c
    return env_big.reduce(out)


def _reduce_coords(env_big: PDAlgebra, env_small: PDAlgebra, x):
    out = [0] * env_small.n
    for i, c in enumerate(x):
        b = env_big.basis[i]
        if b in env_small.index:
            out[env_small.index[b]] = c % env_small.mod
    return env_small.reduce(out)


def _cmd_torsion_probe(cmd, sc, frames, homs, windows, report, m_int):
    from .pdenv import pd_torsion_probe

    frame = frames[cmd[1]]
    rep = pd_torsion_probe(frame.env)
    data = {
        "summary": f"{len(rep.torsion_generators)} torsion generators at level (cap, m) = {rep.level}; "
        f"free rank {rep.free_rank}",
        "level": list(rep.level),
        "free_rank": rep.free_rank,
        "factor_orders": rep.factor_orders,
        "torsion_generators": [list(t) for t in rep.torsion_generators],
        "note": rep.note,
    }
    return ("finding" if rep.torsion_generators else "pass"), data


def _cmd_verify(cmd, sc, frames, homs, windows, report, m_int):
    from .batteries import verify

    tag = cmd[1]
    params = {}
    for tok in cmd[2:]:
        key, val = tok.split("=", 1)
        params[key] = parse_verify_value(val)
    result = verify(tag, **params)
    data = {
        "summary": f"{result.checks} checks"
        + ("" if result.passed else f"; {len(result.counterexamples)} counterexamples"),
        "checks": result.checks,
        "details": result.details,
        "counterexamples": result.counterexamples,
    }
    return ("pass" if result.passed else "fail"), data


_HANDLERS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "base-change": _cmd_base_change,
    "hom": _cmd_hom,
    "lift": _cmd_lift,
    "solve-connection": _cmd_solve_connection,
    "torsion-probe": _cmd_torsion_probe,
    "verify": _cmd_verify,
}
