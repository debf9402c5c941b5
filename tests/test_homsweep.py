"""The batched window-hom sweep against exhaustive hom search.

`homsweep` encodes both hom groups as kernels of its own linear systems.
On a seeded sample of ordered pairs of classification representatives
(rank <= 2, every (rank, d) bucket pair, endomorphisms included) those
systems, solved by `batch_kernel`, must span the same group as the
generators found by exhausting every matrix
(`oracles.hom_space_bruteforce`): the Phi-module homs in mode
"phi_module", and the G-part of (G, witness) solutions in mode "window".  `hom_space` itself solves every frame
linearly, so it is not an independent oracle here.

The sweep's residual checks get negative controls: over Z/4 they must
vanish exactly on the exhaustive hom groups, and a sweep whose kernel is
corrupted must report exactly the failures the scalar Phi defect predicts.
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from crystaframe import homsweep
from crystaframe.frames import lift_frame
from crystaframe.homsweep import (
    _build_systems,
    _phi_residuals,
    _phi_scaled,
    _window_residuals,
    sweep_win_phi_mod,
)
from crystaframe.linalg import SpanNF, batch_kernel
from crystaframe.residues import Residues
from crystaframe.windows import ClassTable, classify_windows, hom_defect_phi, window_from_psi
from oracles import hom_space_bruteforce


def span_key(gens, ncols, p, m):
    nf = SpanNF(ncols, p, m)
    for g in gens:
        nf.insert(g)
    return nf.reduced_basis()


def sampled_pairs(frame, per_bucket, seed):
    """Ordered class pairs, `per_bucket` per (rank, d) bucket pair."""
    rng = random.Random(seed)
    buckets = {}
    for rank in (1, 2):
        for c in classify_windows(frame, rank).classes:
            buckets.setdefault((c.d + c.t, c.d), []).append(c)
    pairs = []
    for kv, lhs in sorted(buckets.items()):
        for kw, rhs in sorted(buckets.items()):
            chosen = [(rng.choice(lhs), rng.choice(rhs)) for _ in range(per_bucket)]
            if kv == kw:
                c = rng.choice(lhs)
                chosen[0] = (c, c)
            pairs.append((kv, kw, chosen))
    return pairs


@pytest.mark.parametrize("mode", ["phi_module", "window"])
@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_sweep_systems_match_scalar_hom_space(p, m, mode):
    frame = lift_frame(Residues(p, m))
    mod = p ** m
    checked = nontrivial = 0
    mismatches = []
    for (rv, d_v), (rw, d_w), chosen in sampled_pairs(frame, 2, seed=29):
        Pv = np.array([c.psi for c, _ in chosen], dtype=np.int64).transpose(1, 2, 0)
        Pw = np.array([c.psi for _, c in chosen], dtype=np.int64).transpose(1, 2, 0)
        Fv = _phi_scaled(Pv, d_v, p, mod)
        Fw = _phi_scaled(Pw, d_w, p, mod)
        nG = rw * rv
        M, _ = _build_systems(frame, Pv, Pw, Fv, Fw, d_v, d_w, mode)
        gens, _ = batch_kernel(M, p, m)
        for n, (cv, cw) in enumerate(chosen):
            v = window_from_psi(frame, cv.d, cv.t, cv.psi)
            w = window_from_psi(frame, cw.d, cw.t, cw.psi)
            exhaustive = [
                tuple(int(x) for row in G for x in row)
                for G in hom_space_bruteforce(v, w, mode)
            ]
            want = span_key(exhaustive, nG, p, m)
            got = span_key(gens[n, :nG].T.tolist(), nG, p, m)
            checked += 1
            nontrivial += bool(want)
            if got != want:
                mismatches.append((cv.d, cv.psi, cw.d, cw.psi, got, want))
    assert not mismatches, f"{len(mismatches)} of {checked} pairs differ: {mismatches}"
    # the sample must reach non-zero hom groups
    assert nontrivial >= 10, nontrivial


def hom_group(gens, n, mod):
    """Every Z-combination of the flattened generator matrices `gens`."""
    group = {(0,) * n}
    for G in gens:
        g = [int(x) for row in G for x in row]
        multiples = [[k * x for x in g] for k in range(mod)]
        group = {tuple((a + b) % mod for a, b in zip(h, kg)) for h in group for kg in multiples}
    return group


def residual_zero_set(v, w, mode, p, mod):
    """The matrices G (flattened) on which the sweep's residuals vanish.

    Mode "phi_module" tries every G.  Mode "window" tries, for every
    witness block H, every G with bottom-left block p*H (any other G fails
    the filtration), and G counts when some H makes the residuals vanish:
    the existential witness semantics of `is_window_hom`.
    """
    rv, rw, d_v, d_w = v.rank, w.rank, v.d, w.d
    X = np.array(list(iproduct(range(mod), repeat=rw * rv)), dtype=np.int64).T.reshape(rw, rv, -1)
    Pv, Pw = (np.array(x.psi, dtype=np.int64)[:, :, None] for x in (v, w))
    Fv, Fw = _phi_scaled(Pv, d_v, p, mod), _phi_scaled(Pw, d_w, p, mod)
    if mode == "phi_module":
        G, bad = X, _phi_residuals(X, Fv, Fw, mod)
    else:
        H = X[d_w:, :d_v]
        G = X.copy()
        G[d_w:, :d_v] = p * H % mod
        bad = _window_residuals(G, H, Pv, Pw, Fw, d_v, d_w, mod)
    assert bad.shape == (mod ** (rw * rv),)
    return {tuple(G[:, :, n].ravel().tolist()) for n in np.flatnonzero(~bad)}


def check_residuals_against_bruteforce(pairs, p, m):
    mod = p ** m
    proper = 0
    for v, w in pairs:
        for mode in ("phi_module", "window"):
            exhaustive = hom_space_bruteforce(v, w, mode)
            want = hom_group(exhaustive, w.rank * v.rank, mod)
            assert residual_zero_set(v, w, mode, p, mod) == want, (mode, v.d, v.psi, w.d, w.psi)
            proper += 1 < len(want) < mod ** (w.rank * v.rank)
    return proper


def z4_windows(frame, chosen):
    return [
        (window_from_psi(frame, cv.d, cv.t, cv.psi), window_from_psi(frame, cw.d, cw.t, cw.psi))
        for cv, cw in chosen
    ]


def test_residuals_vanish_exactly_on_hom_groups_z4():
    # every G over Z/4 (every witness too in mode "window"), for four pairs
    # per (rank, d) bucket pair at rank <= 2, endomorphisms included
    frame = lift_frame(Residues(2, 2))
    pairs = [vw for _, _, chosen in sampled_pairs(frame, 4, seed=83) for vw in z4_windows(frame, chosen)]
    # the sample must reach hom groups that are neither 0 nor everything
    assert check_residuals_against_bruteforce(pairs, 2, 2) >= 20


@pytest.mark.slow
def test_residuals_vanish_exactly_on_hom_groups_all_z4_pairs():
    frame = lift_frame(Residues(2, 2))
    classes = [c for rank in (1, 2) for c in classify_windows(frame, rank).classes]
    check_residuals_against_bruteforce(z4_windows(frame, iproduct(classes, repeat=2)), 2, 2)


@pytest.mark.parametrize("p,m,step", [(2, 2, 1), (3, 2, 7)])
def test_corrupted_kernel_is_caught(p, m, step, monkeypatch):
    """A unit added to one generator must surface as sweep failures.

    The corrupted generator is g' = g + E with g a hom and E the matrix unit
    at (0, 0).  The identities are linear, so the sweep fails exactly where
    E fails them, which the scalar defect D = E Phi_v - Phi_w E decides:
    p*E with witness E|bottom-left is a window hom iff D vanishes on the
    L-columns and p*D on the T-columns (cokernel side), and E is a Phi-hom
    iff D = 0 (injectivity side, checked when d_v > 0).
    """
    frame = lift_frame(Residues(p, m))
    mod = p ** m
    tables = [classify_windows(frame, r) for r in (0, 1, 2)]
    tables[2] = ClassTable(tables[2].frame_name, 2, tables[2].classes[::step])
    real = homsweep.batch_kernel

    def corrupted(mats, p, m):
        gens, evals = real(mats, p, m)
        gens = gens.copy()
        gens[:, 0, 0] = (gens[:, 0, 0] + 1) % mod
        return gens, evals

    monkeypatch.setattr(homsweep, "batch_kernel", corrupted)
    report = sweep_win_phi_mod(frame, tables)
    windows = [window_from_psi(frame, c.d, c.t, c.psi) for t in tables[1:] for c in t.classes]
    want_coker, want_inj = [], []
    for (a, v), (b, w) in iproduct(enumerate(windows), repeat=2):
        E = [[int(i == j == 0) for j in range(v.rank)] for i in range(w.rank)]
        D = hom_defect_phi(v, w, E)
        if any(row[j] if j < v.d else p * row[j] % mod for row in D for j in range(v.rank)):
            want_coker.append((a, b, 0))
        if v.d and any(x for row in D for x in row):
            want_inj.append((a, b, 0))
    assert report.pairs_checked == len(windows) ** 2
    assert sorted(report.cokernel_failures) == want_coker
    assert sorted(report.injectivity_failures) == want_inj
    # a control that flags every pair, or none, shows nothing
    assert 0 < len(want_coker) < len(windows) ** 2
    assert 0 < len(want_inj) < len(windows) ** 2
