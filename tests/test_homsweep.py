"""The batched window-hom sweep against exhaustive hom search.

`homsweep` encodes both hom groups as kernels of its own linear systems.
On a seeded sample of ordered pairs of classification representatives
(rank <= 2, every (rank, d) bucket pair, endomorphisms included) those
systems, solved by `batch_kernel`, must span the same group as the
generators found by exhausting every matrix (`_hom_space_bruteforce`): the
Phi-module homs in mode "phi_module", and the G-part of (G, witness)
solutions in mode "window".  `hom_space` itself solves Z/p^m linearly, so
it is not an independent oracle here.
"""

import random

import numpy as np
import pytest

from crystaframe.frames import lift_frame
from crystaframe.homsweep import _build_systems, _phi_scaled
from crystaframe.linalg import SpanNF, batch_kernel
from crystaframe.residues import Residues
from crystaframe.windows import _hom_space_bruteforce, classify_windows, window_from_psi


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
        Pv = np.array([c.psi for c, _ in chosen], dtype=np.int64).reshape(-1, rv, rv)
        Pw = np.array([c.psi for _, c in chosen], dtype=np.int64).reshape(-1, rw, rw)
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
                for G in _hom_space_bruteforce(v, w, mode, 1 << 16)
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
