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
exhaustive hom search (the brute-force reference in tests/oracles.py)
over Z/4 and Z/9, the residual checks against the same search over Z/4,
and a corrupted kernel against the scalar Phi defect; tests/test_windows.py
checks the systems against the scalar backend over Z/8 and Z/27.

Layout and dtype.  The sweep keeps the systems on the last axis, the layout
`linalg._eliminate` works in, from start to finish:

  * Psi and Phi of a bucket are (r, r, N) arrays in the work dtype of p^m;
  * `_build_systems` writes each coefficient as one contiguous vector
    M[row, var, :] of a (rows, cols, N) array, in the narrowest dtype that
    holds an equation's unreduced sum, reduces it with `linalg.mod_reducer`
    and hands `batch_kernel` its (N, rows, cols) transposed view, which the
    kernel uses in place;
  * the residual checks take the generators as entries over a (column, N)
    grid, in the narrowest dtype holding r (p^m - 1)^2, and evaluate each
    entry of a matrix identity with in-place products and sums: no batched
    int64 matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import batch_kernel, int_dtype, mod_reducer, work_dtype
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
    """Phi = Psi diag(p 1_d, 1_t) of an (r, r, N) stack of Psi."""
    out = psis.copy()
    if d:
        out[:, :d] = out[:, :d] * p % mod
    return out


def _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, mode):
    """Batched backend of `windows._hom_equations` on a one-coordinate carrier.

    Pv, Pw, Fv, Fw are (r, r, N) stacks with entries in [0, p^m).  Every
    operator is a scalar on this carrier, read off the frame's coordinate
    matrices, so a term adds sign * op times the vector src[i, j] into
    M[row, var].  The equation of entry (i, j) goes to row i*rv + j, so its
    coefficient on G[i, j] sits on the diagonal, where batch_kernel looks for
    a unit pivot first; the last rows g = p*h parametrise the bottom-left
    entries.  Returns (M, bl): M is the (N, rows, cols) transposed view of
    the system-last array; the unknowns are G[i, j] at i*rv + j, then the
    witnesses of the bottom-left entries bl.
    """
    rw, _, N = Pw.shape
    rv = Pv.shape[0]
    terms, bl, shape, dt, mod = _system_plan(frame, rv, d_v, rw, d_w, mode)
    src = {"phi_v": Fv, "phi_w": Fw, "psi_v": Pv, "psi_w": Pw}
    M = np.zeros(shape + (N,), dtype=dt)
    for row, var, s, i, j, c in terms:
        col = src[s][i, j]
        if c == 1:
            M[row, var] += col
        elif c == -1:
            M[row, var] -= col
        else:
            M[row, var] += c * col
    n_eq = shape[0] - len(bl)
    reduce = mod_reducer(mod, np.empty(shape[1:] + (N,), dtype=dt))
    for row in M[:n_eq]:
        reduce(row)
    p, nG = frame.p, rw * rv
    for k, (i, j) in enumerate(bl):
        M[n_eq + k, i * rv + j] = 1
        M[n_eq + k, nG + k] = mod - p
    return M.transpose(2, 0, 1), bl


@lru_cache(maxsize=256)
def _system_plan(frame, rv, d_v, rw, d_w, mode):
    """The terms of `_build_systems` as (row, var, src, i, j, coefficient).

    A coefficient is 1, -1 or a residue in [2, p^m - 2]; zero terms are
    dropped.  Also returns bl, the system shape (rows, cols), the narrowest
    dtype holding every unreduced row sum, and p^m.
    """
    mod = frame.p ** frame.A.coord_precision()
    # every operator is a 1 x 1 coordinate matrix on this carrier
    scalar = {op: _op_matrix(frame, op)[0, 0] for op in ("id", "sigma", "sigma1_T", "sigma_mu")}
    equations, bl = _hom_equations(rv, d_v, rw, d_w, mode)
    terms = []
    bound = mod
    for eq in equations:
        row = eq[0][5] // rv * rv + eq[0][3]  # first term: src[0][j] * G[i][0]
        weight = 0
        for sign, s, i, j, op, var in eq:
            c = sign * scalar[op] % mod
            if c:
                c = -1 if c == mod - 1 else c
                terms.append((row, var, s, i, j, c))
                weight += abs(c)
        bound = max(bound, weight * (mod - 1))
    shape = (len(equations) + len(bl), rw * rv + len(bl))
    return tuple(terms), bl, shape, int_dtype(bound), mod


def _defects(X, Y, Z, W, cols, mod, bad):
    """bad |= [(X Y - Z W)[i, j] != 0 mod `mod`], for every row i and j in cols.

    Matrix entries are integer arrays in [0, mod) that broadcast to bad's
    shape; X's entries are in the dtype the sums run in, which must hold
    max(len(Y), len(W)) (mod - 1)^2: the partial sums stay within that.
    """
    if not cols:
        return bad
    dt = X[0][0].dtype
    acc, term, scratch = (np.empty(bad.shape, dtype=dt) for _ in range(3))
    hit = np.empty(bad.shape, dtype=bool)
    reduce = mod_reducer(mod, scratch)
    for i in range(len(X)):
        for j in cols:
            np.multiply(X[i][0], Y[0][j], out=acc)
            for k in range(1, len(Y)):
                acc += np.multiply(X[i][k], Y[k][j], out=term)
            for k in range(len(W)):
                acc -= np.multiply(Z[i][k], W[k][j], out=term)
            reduce(acc)
            np.logical_or(bad, np.not_equal(acc, 0, out=hit), out=bad)
    return bad


def _window_residuals(G, H, Pv, Pw, Fw, d_v, d_w, mod):
    """Where the window-hom identities fail for G with sigma1 witnesses H.

    G: (rw, rv, ...) entries, H: (rw - d_w, d_v, ...) the witnesses of the
    bottom-left entries, Pv, Pw, Fw: (r, r, ...) stacks broadcasting with
    them.  L-columns: G Psi_v = Psi_w T with T = G on top, H at the bottom;
    T-columns: G Psi_v = Phi_w G.  Returns a bool array over the trailing
    axes of G, True where some entry is nonzero mod `mod`.
    """
    rw, rv = G.shape[:2]
    T = [[G[k][j] if k < d_w else H[k - d_w][j] for j in range(d_v)] for k in range(rw)]
    bad = np.zeros(G.shape[2:], dtype=bool)
    _defects(G, Pv, Pw, T, range(d_v), mod, bad)
    return _defects(G, Pv, Fw, G, range(d_v, rv), mod, bad)


def _phi_residuals(G, Fv, Fw, mod):
    """Where G Phi_v != Phi_w G, as `_window_residuals` reports it."""
    bad = np.zeros(G.shape[2:], dtype=bool)
    return _defects(G, Fv, Fw, G, range(G.shape[1]), mod, bad)


def sweep_win_phi_mod(frame, tables, chunk: int = 120_000) -> SweepReport:
    """Run the lemma over every ordered pair of classification entries.

    Rank-0 windows pair trivially (the zero module); every other ordered
    pair is dispatched to a (rank_v, d_v, rank_w, d_w) bucket and verified
    in numpy chunks of at most `chunk` systems.
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
    stacks = {}
    for (r, d), members in buckets.items():
        P = np.array([f for _, f in members], dtype=work_dtype(mod)).reshape(-1, r, r)
        P = np.ascontiguousarray(P.transpose(1, 2, 0))
        stacks[r, d] = np.array([a for a, _ in members]), P, _phi_scaled(P, d, p, mod)
    keys = sorted(buckets)
    for kv in keys:
        for kw in keys:
            nl, nr = len(buckets[kv]), len(buckets[kw])
            for start in range(0, nl * nr, chunk):
                li, ri = np.divmod(np.arange(start, min(start + chunk, nl * nr)), nr)
                v = [X.take(li, axis=-1) for X in stacks[kv]]
                w = [X.take(ri, axis=-1) for X in stacks[kw]]
                _check_chunk(report, frame, v, w, kv[1], kw[1])
    report.pairs_checked = len(entries) ** 2
    return report


def _hom_part(gens, rw, rv, mod):
    """The G-part of batch_kernel generators as (rw, rv, column, N) entries.

    `gens` is (N, c, c) in the work dtype; its system-last memory is read in
    place, and the first rw*rv rows are cast to the dtype `_defects` sums
    in, which copies only where the two differ.
    """
    G = gens.transpose(1, 2, 0)[: rw * rv]
    G = G.astype(int_dtype(max(rw, rv) * (mod - 1) ** 2), copy=False)
    return G.reshape((rw, rv) + G.shape[1:])


def _check_chunk(report, frame, v, w, d_v, d_w):
    """Check the lemma on one chunk of pairs, given as (entry ids, Psi, Phi) per side."""
    p, m, mod = frame.p, frame.A.m, frame.A.modulus
    (lhs_ids, Pv, Fv), (rhs_ids, Pw, Fw) = v, w
    rv, rw = Pv.shape[0], Pw.shape[0]

    def record(failures, bad):
        cols, systems = np.nonzero(bad)
        failures.extend(zip(lhs_ids[systems].tolist(), rhs_ids[systems].tolist(), cols.tolist()))

    # cokernel side: for each Phi-hom g, p*g must be a window hom with witness g|bottom-left
    M, _ = _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, "phi_module")
    G = _hom_part(batch_kernel(M, p, m)[0], rw, rv, mod)
    pG = G * p
    mod_reducer(mod, np.empty_like(pG))(pG)
    bad = _window_residuals(pG, G[d_w:, :d_v], Pv, Pw, Fw, d_v, d_w, mod)
    record(report.cokernel_failures, bad & G.any(axis=(0, 1)))
    # injectivity side: window homs commute with Phi
    if d_v == 0:
        # no filtration or sigma1 constraints: window homs == Phi homs
        return
    M, _ = _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, "window")
    G = _hom_part(batch_kernel(M, p, m)[0], rw, rv, mod)
    record(report.injectivity_failures, _phi_residuals(G, Fv, Fw, mod) & G.any(axis=(0, 1)))
