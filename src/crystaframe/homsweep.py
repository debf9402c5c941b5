"""Batched verification of the window-hom vs Phi-hom lemma over Z/p^m frames.

For every ordered pair of classification representatives the lemma says the
natural map {window homs} -> {Phi-module homs} is injective with cokernel
annihilated by p.  Concretely, per pair (v, w):

  * every window hom commutes with Phi           (injectivity side), and
  * for every Phi-hom g, p*g is a window hom with witness h = g on the
    bottom-left block                            (cokernel side).

Both hom groups are kernels of small linear systems over Z/p^m.  Their one
encoding is `windows._hom_equations`, which `windows._hom_space_linear`
solves one pair at a time; `_build_systems` is its batched backend, which
stacks the systems per (rank, d) bucket for the batched diagonalization in
`linalg`, so millions of ordered pairs stay inside the acceptance budget.
The residual checks below evaluate the hom identities directly, not through
that encoding.  tests/test_homsweep.py checks the batched systems against
exhaustive hom search (`windows._hom_space_bruteforce`) over Z/4 and Z/9,
and tests/test_windows.py against the scalar backend over Z/8 and Z/27.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import batch_kernel
from .windows import _hom_equations, _op_matrix


@dataclass
class SweepReport:
    pairs_checked: int = 0
    pairs_trivial: int = 0
    injectivity_failures: list = field(default_factory=list)
    cokernel_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.injectivity_failures and not self.cokernel_failures


def _phi_scaled(psis: np.ndarray, d: int, p: int, mod: int) -> np.ndarray:
    out = psis.copy()
    if d:
        out[:, :, :d] = (out[:, :, :d] * p) % mod
    return out


def _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, mode):
    """Batched backend of `windows._hom_equations` on a one-coordinate carrier.

    Every operator is a scalar there, read off the frame's coordinate
    matrices, so a term adds sign * op times one column of Fv/Fw/Pv/Pw into
    M[:, row, var].  The equation of entry (i, j) goes to row i*rv + j, so its
    coefficient on G[i, j] sits on the diagonal, where batch_kernel looks for
    a unit pivot first; the last rows g = p*h parametrise the bottom-left
    entries.  Returns (M, bl); the unknowns are G[i, j] at i*rv + j, then the
    witnesses of the bottom-left entries bl.
    """
    p = frame.p
    mod = p ** frame.A.coord_precision()
    N, rw, _ = Pw.shape
    rv = Pv.shape[1]
    nG = rw * rv
    equations, bl = _hom_equations(rv, d_v, rw, d_w, mode)
    src = {"phi_v": Fv, "phi_w": Fw, "psi_v": Pv, "psi_w": Pw}
    scalar = dict(_op_scalars(frame))
    n_eq = len(equations)
    M = np.zeros((N, n_eq + len(bl), nG + len(bl)), dtype=np.int64)
    for eq in equations:
        row = eq[0][5] // rv * rv + eq[0][3]  # first term: src[0][j] * G[i][0]
        for sign, s, i, j, op, var in eq:
            c = sign * scalar[op] % mod
            col = src[s][:, i, j]
            if c == 1:
                M[:, row, var] += col
            elif c == mod - 1:
                M[:, row, var] -= col
            elif c:
                M[:, row, var] += c * col
    for k, (i, j) in enumerate(bl):
        M[:, n_eq + k, i * rv + j] = 1
        M[:, n_eq + k, nG + k] = -p
    return np.remainder(M, mod, out=M), bl


@lru_cache(maxsize=8)
def _op_scalars(frame):
    """The operators of `_hom_equations` on a one-coordinate carrier, as scalars."""
    return tuple((op, _op_matrix(frame, op)[0][0]) for op in ("id", "sigma", "sigma1_T", "sigma_mu"))


def _window_residuals(G, H, Pv, Pw, Fv, Fw, d_v, d_w, mod):
    """Residuals of the window-hom identities for explicit (G, witness H).

    H supplies sigma1 values of the bottom-left entries.  Returns the max
    absolute residual per pair (0 means hom).
    """
    N, rw, rv = G.shape
    res = np.zeros(N, dtype=np.int64)
    GP = (G @ Pv) % mod
    if d_v:
        # twisted vector: top rows sigma(G) = G, bottom rows H
        T = G[:, :, :d_v].copy()
        if d_w < rw:
            T[:, d_w:, :] = H[:, :, :]
        RHS = (Pw @ T) % mod
        diff = (GP[:, :, :d_v] - RHS) % mod
        res = np.maximum(res, np.abs(diff).reshape(N, -1).max(axis=1))
    if d_v < rv:
        FG = (Fw @ G) % mod
        diff = (GP[:, :, d_v:] - FG[:, :, d_v:]) % mod
        res = np.maximum(res, np.abs(diff).reshape(N, -1).max(axis=1))
    return res


def _phi_residuals(G, Fv, Fw, mod):
    N = G.shape[0]
    lhs = (G @ Fv) % mod
    rhs = (Fw @ G) % mod
    return np.abs((lhs - rhs) % mod).reshape(N, -1).max(axis=1)


def sweep_win_phi_mod(frame, tables, chunk: int = 120_000) -> SweepReport:
    """Run the lemma over every ordered pair of classification entries.

    Rank-0 windows pair trivially (the zero module); every other ordered
    pair is dispatched to a (rank_v, d_v, rank_w, d_w) bucket and verified
    in numpy chunks.
    """
    p = frame.p
    mod = frame.A.modulus
    entries = []
    n_zero = 0
    for table in tables:
        for c in table.classes:
            if c.d + c.t == 0:
                n_zero += 1
                continue
            flat = tuple(int(x) for row in c.psi for x in row)
            entries.append((c.d, c.t, flat))
    report = SweepReport()
    total = len(entries) + n_zero
    report.pairs_trivial = total * total - len(entries) ** 2

    buckets: dict = {}
    for a, (d_v, t_v, fv) in enumerate(entries):
        buckets.setdefault((d_v + t_v, d_v), []).append((a, fv))
    keys = sorted(buckets)
    for kv in keys:
        rv, d_v = kv
        lhs_list = buckets[kv]
        Pv_all = np.array([f for _, f in lhs_list], dtype=np.int64).reshape(-1, rv, rv)
        for kw in keys:
            rw, d_w = kw
            rhs_list = buckets[kw]
            Pw_all = np.array([f for _, f in rhs_list], dtype=np.int64).reshape(-1, rw, rw)
            nl, nr = len(lhs_list), len(rhs_list)
            for start in range(0, nl * nr, chunk):
                idx = np.arange(start, min(start + chunk, nl * nr))
                li = idx // nr
                ri = idx % nr
                Pv = Pv_all[li]
                Pw = Pw_all[ri]
                Fv = _phi_scaled(Pv, d_v, p, mod)
                Fw = _phi_scaled(Pw, d_w, p, mod)
                _check_chunk(report, frame, lhs_list, rhs_list, li, ri, Pv, Pw, Fv, Fw, d_v, d_w)
    report.pairs_checked = len(entries) ** 2
    return report


def _check_chunk(report, frame, lhs_list, rhs_list, li, ri, Pv, Pw, Fv, Fw, d_v, d_w):
    p, m, mod = frame.p, frame.A.m, frame.A.modulus
    N, rw = Pw.shape[0], Pw.shape[1]
    rv = Pv.shape[1]
    nG = rw * rv
    # Phi-hom kernels
    Mphi, _ = _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, "phi_module")
    gens_phi, _ = batch_kernel(Mphi, p, m)
    live_cols = gens_phi.any(axis=1)
    # cokernel side: p*g must be a window hom with witness g|bottom-left
    for cidx in range(nG):
        live = live_cols[:, cidx]
        if not live.any():
            continue
        G = gens_phi[:, :, cidx].reshape(N, rw, rv)
        pG = (p * G) % mod
        H = G[:, d_w:, :d_v] if (d_w < rw and d_v) else np.zeros((N, rw - d_w, d_v), dtype=np.int64)
        res = _window_residuals(pG, H, Pv, Pw, Fv, Fw, d_v, d_w, mod)
        bad = np.nonzero(live & (res != 0))[0]
        for b in bad:
            report.cokernel_failures.append(
                (lhs_list[int(li[b])][0], rhs_list[int(ri[b])][0], cidx)
            )
    # injectivity side: window homs commute with Phi
    if d_v == 0:
        # no filtration or sigma1 constraints: window homs == Phi homs
        return
    Mwin, _ = _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, "window")
    gens_win, _ = batch_kernel(Mwin, p, m)
    live_cols = gens_win[:, :nG].any(axis=1)
    for cidx in range(gens_win.shape[2]):
        live = live_cols[:, cidx]
        if not live.any():
            continue
        G = gens_win[:, :nG, cidx].reshape(N, rw, rv)
        res = _phi_residuals(G, Fv, Fw, mod)
        bad = np.nonzero(live & (res != 0))[0]
        for b in bad:
            report.injectivity_failures.append(
                (lhs_list[int(li[b])][0], rhs_list[int(ri[b])][0], cidx)
            )
