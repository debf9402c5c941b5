import random
from itertools import product as iproduct

import numpy as np
import pytest

from crystaframe import windows
from crystaframe.frames import BudgetError, FrameHom, lift_frame, witt_frame
from crystaframe.homsweep import _build_systems, _phi_scaled
from crystaframe.linalg import SpanNF, batch_kernel
from crystaframe.matrices import identity, is_invertible, mat, mat_map, mat_mul
from crystaframe.monomial import MonomialAlgebra
from crystaframe.nabla import NablaContext, square_zero_frame
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.residues import Residues
from crystaframe.windows import (
    ClassTable,
    Window,
    WindowBudgetError,
    WindowError,
    are_isomorphic,
    base_change,
    classify_windows,
    f_nilpotence,
    fv_operators,
    hom_space,
    is_phi_hom,
    is_window_hom,
    lift_hom_along,
    lift_idempotent,
    lift_window_along,
    normal_decomposition,
    window_from_psi,
)


def zframe(p=2, m=3):
    return lift_frame(Residues(p, m))


def etale(fr):
    return window_from_psi(fr, 0, 1, [[1]])


def multiplicative(fr):
    return window_from_psi(fr, 1, 0, [[1]])


def supersingular(fr):
    return window_from_psi(fr, 1, 1, [[0, 1], [1, 0]])


def test_window_from_psi_shapes():
    fr = zframe()
    w = etale(fr)
    assert w.phi_matrix() == mat([[1]])
    wm = multiplicative(fr)
    assert wm.phi_matrix() == mat([[2]])
    ws = supersingular(fr)
    assert ws.phi_matrix() == mat([[0, 1], [2, 0]])


def test_non_invertible_psi_rejected():
    fr = zframe()
    with pytest.raises(WindowError):
        window_from_psi(fr, 1, 1, [[2, 0], [0, 1]])


def test_idempotent_lift_spec_example():
    fr = zframe(2, 2)  # Z/4
    E, iters = lift_idempotent(fr, [[3]])
    assert E == mat([[1]])
    assert iters == 1  # 3*9 - 2*27 = -27 = 1 mod 4


def test_normal_decomposition_extremes():
    fr = zframe()
    # M_1 = I*M: d = 0
    nd = normal_decomposition(fr, 2, [(2, 0), (0, 2)])
    assert (nd.d, nd.t) == (0, 2)
    # M_1 = M: d = rank
    nd = normal_decomposition(fr, 2, [(1, 0), (0, 1)])
    assert (nd.d, nd.t) == (2, 0)
    # mixed: M_1 = <e_1> + I e_2
    nd = normal_decomposition(fr, 2, [(1, 0), (0, 2)])
    assert (nd.d, nd.t) == (1, 1)
    assert is_invertible(fr.A, nd.basis_change)


def test_fv_certificates():
    fr = zframe()
    e = fv_operators(etale(fr))
    assert e.F == mat([[1]]) and e.V == mat([[2]])
    m = fv_operators(multiplicative(fr))
    assert m.F == mat([[2]]) and m.V == mat([[1]])
    s = fv_operators(supersingular(fr))
    p_id = mat([[2, 0], [0, 2]])
    assert mat_mul(fr.A, s.V, s.F) == p_id
    assert mat_mul(fr.A, s.F, s.V) == p_id


def test_hom_space_end_etale():
    # over (Z/p^2, pZ/p^2, F_p, id): End in both modes is all of Z/p^2
    fr = zframe(2, 2)
    w = etale(fr)
    for mode in ("window", "phi_module"):
        hs = hom_space(w, w, mode)
        vals = {g[0][0] for g in hs.generators}
        # generators span Z/4 additively
        assert any(v % 2 == 1 for v in vals)


def test_hom_space_mult_to_etale_zero():
    fr = zframe(2, 2)
    v, w = multiplicative(fr), etale(fr)
    for mode in ("window", "phi_module"):
        hs = hom_space(v, w, mode)
        assert hs.contains_zero_only()


def test_p_times_phi_hom_is_window_hom():
    fr = zframe()
    pairs = [
        (etale(fr), etale(fr)),
        (multiplicative(fr), multiplicative(fr)),
        (supersingular(fr), supersingular(fr)),
        (etale(fr), multiplicative(fr)),
        (multiplicative(fr), etale(fr)),
        (supersingular(fr), etale(fr)),
    ]
    A = fr.A
    for v, w in pairs:
        hs = hom_space(v, w, "phi_module")
        for g in hs.generators:
            pg = mat([[A.int_mul(fr.p, x) for x in row] for row in g])
            assert is_window_hom(v, w, pg)
        # and window homs commute with Phi
        for g in hom_space(v, w, "window").generators:
            assert is_phi_hom(v, w, g)


def test_window_hom_accepts_non_minimal_witness_over_zpm():
    # Over Z/9, G = (3, 0)^T satisfies the L-column identity only with the
    # witness h = 6 for its zero bottom entry, not with the minimal h = 0.
    fr = zframe(3, 2)
    v = window_from_psi(fr, 1, 0, [[5]])
    w = window_from_psi(fr, 1, 1, [[0, 1], [4, 1]])
    G = mat([[3], [0]])
    assert is_window_hom(v, w, G)
    assert not hom_space(v, w, "window").contains_zero_only()
    # the witness h = 5 that would fit G = (1, 0)^T has p*h != 0
    assert not is_window_hom(v, w, mat([[1], [0]]))


def test_f_nilpotence():
    fr = zframe()
    assert f_nilpotence(multiplicative(fr)) == (True, 1)
    nil, _ = f_nilpotence(etale(fr))
    assert not nil
    assert f_nilpotence(supersingular(fr)) == (True, 2)


def test_base_change_identity_and_composition():
    fr = zframe()
    ident = FrameHom(fr, fr, fn=lambda x: x, name="id")
    w = supersingular(fr)
    assert base_change(ident, w).psi == w.psi
    comp = base_change(ident, base_change(ident, w))
    assert comp.psi == w.psi


def test_classification_rank1_z4_golden():
    fr = zframe(2, 2)
    table = classify_windows(fr, 1)
    assert len(table.classes) == 4
    reps = {(c.d, c.psi[0][0]) for c in table.classes}
    assert reps == {(0, 1), (0, 3), (1, 1), (1, 3)}
    # orbit sizes cover the whole unit group per (d, t)
    for c in table.classes:
        assert c.orbit_size == 1  # conjugation is trivial for sigma = id, rank 1


def test_classification_rank0():
    fr = zframe()
    table = classify_windows(fr, 0)
    assert len(table.classes) == 1


def test_classification_counts_invariant_under_relabeling():
    # permuting the basis (relabeling) maps classes to classes
    fr = zframe(2, 2)
    table = classify_windows(fr, 2)
    swap = mat([[0, 1], [1, 0]])
    A = fr.A
    for c in table.classes:
        if (c.d, c.t) in ((0, 2), (2, 0)):
            psi2 = mat_mul(A, mat_mul(A, swap, c.psi), swap)
            w1 = Window(fr, c.d, c.t, c.psi)
            w2 = Window(fr, c.d, c.t, psi2)
            assert are_isomorphic(w1, w2)


def test_isomorphism_distinguishes_units():
    fr = zframe(2, 2)
    w1 = window_from_psi(fr, 1, 0, [[1]])
    w3 = window_from_psi(fr, 1, 0, [[3]])
    assert not are_isomorphic(w1, w3)
    assert are_isomorphic(w1, w1)


def test_witt_frame_rank1_classification():
    R = MonomialAlgebra(Residues(2, 1), [])
    fr = witt_frame(R, 2)
    table = classify_windows(fr, 1, budget=1 << 12)
    # W_2(F_2) = Z/4 with sigma = id on it: same 4 classes as the lift frame
    assert len(table.classes) == 4


def witt_prime_frame(p, n):
    return witt_frame(MonomialAlgebra(Residues(p, 1), []), n)


def class_shape(table, d=None):
    """The sorted (d, orbit_size) pairs of a class table, optionally of one d."""
    return sorted((c.d, c.orbit_size) for c in table.classes if d is None or c.d == d)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 3)])
def test_witt_rank1_tables_match_lift_frame(p, n):
    # W_n(F_p) is Z/p^n with sigma = id: a cross-frame oracle at rank 1
    witt = classify_windows(witt_prime_frame(p, n), 1)
    lift = classify_windows(zframe(p, n), 1)
    assert class_shape(witt) == class_shape(lift)


@pytest.mark.slow
def test_witt_rank2_table_against_lift_frame_z4():
    """W_2(F_2) against Z/4 at rank 2 (about 35 s).

    d = 0 and d = 2 agree.  d = 1 does not: the Witt frame compares
    L-columns exactly one level down, in W_1, while Z/p^m admits existential
    sigma1 witnesses at full length.  Each Witt class of d = 1 holds two lift
    classes (the FOUND line on d = 1 rank-2 tables in CHANGES.md).
    """
    wf = witt_prime_frame(2, 2)
    witt = classify_windows(wf, 2, budget=1 << 22)
    lift = classify_windows(zframe(2, 2), 2)
    for d in (0, 2):
        assert class_shape(witt, d) == class_shape(lift, d)
        assert len(class_shape(witt, d)) == 14
    assert class_shape(witt, 1) == [(1, 16), (1, 16), (1, 32), (1, 32)]
    assert class_shape(lift, 1) == [(1, 8)] * 4 + [(1, 16)] * 4
    # carry each lift class along the ring isomorphism Z/4 -> W_2(F_2)
    witt1 = [c for c in witt.classes if c.d == 1]
    merged = [[] for _ in witt1]
    for c in lift.classes:
        if c.d != 1:
            continue
        img = Window(wf, c.d, c.t, mat_map(wf.A.embed_int, c.psi))
        hits = [k for k, r in enumerate(witt1) if are_isomorphic(img, Window(wf, r.d, r.t, r.psi))]
        assert len(hits) == 1
        merged[hits[0]].append(c.orbit_size)
    for c, sizes in zip(witt1, merged):
        assert len(sizes) == 2 and sum(sizes) == c.orbit_size


def eps_frames():
    Re = MonomialAlgebra(Residues(2, 1), [("e", 0, 2)])
    R0 = MonomialAlgebra(Residues(2, 1), [])
    src = witt_frame(Re, 2)
    tgt = witt_frame(R0, 2)

    def proj_comp(c):
        return tuple(((), v) for exps, v in c if not any(exps))

    def proj(x):
        return tuple(proj_comp(c) for c in x)

    def sect(x):
        return tuple(tuple(((0,), v) for _, v in c) for c in x)

    hom = FrameHom(src, tgt, fn=proj, cod_fn=lambda y: tuple(proj_comp(c) for c in y), name="eps->0")
    hom.section = sect
    return src, tgt, hom


def test_lift_window_along_eps():
    src, tgt, hom = eps_frames()
    w = window_from_psi(tgt, 1, 0, [[tgt.A.one]])
    lifted = lift_window_along(hom, w)
    assert lifted.frame is src
    assert base_change(hom, lifted).psi == w.psi


def test_lift_hom_along_eps_identity():
    src, tgt, hom = eps_frames()
    w_t = window_from_psi(tgt, 1, 0, [[tgt.A.one]])
    v_s = lift_window_along(hom, w_t)
    G = mat([[tgt.A.one]])
    rep = lift_hom_along(hom, v_s, v_s, G)
    assert rep.unique
    assert is_window_hom(v_s, v_s, rep.lifted)


def test_orbit_bfs_matches_bruteforce_iso_on_z4_rank2():
    # dual-route check of the classification: the orbit enumeration must
    # agree with pairwise hom-solving on every d-sector, orbit sizes included
    from itertools import product as iproduct

    fr = zframe(2, 2)
    gl = [
        mat([[a, b], [c, d]])
        for a, b, c, d in iproduct(range(4), repeat=4)
        if (a * d - b * c) % 2
    ]
    table = classify_windows(fr, 2, budget=1 << 22)
    for dd in (0, 1, 2):
        reps, counts = [], []
        for psi in gl:
            w = Window(fr, dd, 2 - dd, psi)
            for k, rep in enumerate(reps):
                if are_isomorphic(rep, w):
                    counts[k] += 1
                    break
            else:
                reps.append(w)
                counts.append(1)
        bfs = [c for c in table.classes if c.d == dd]
        assert len(reps) == len(bfs)
        assert sorted(counts) == sorted(c.orbit_size for c in bfs)


def test_window_from_raw_normalizes():
    from crystaframe.windows import window_from_raw

    fr = zframe()
    # raw data of the supersingular window: M_1 = <e_1> + I e_2,
    # Phi = [[0, 1], [2, 0]] (columns Phi(e_1) = 2 e_2, Phi(e_2) = e_1)
    w = window_from_raw(fr, [(1, 0), (0, 2)], [[0, 1], [2, 0]])
    assert (w.d, w.t) == (1, 1)
    assert w.phi_matrix() == mat([[0, 1], [2, 0]])
    # and it is isomorphic to the Psi-form supersingular window
    assert are_isomorphic(w, supersingular(fr))


def test_window_from_raw_rejects_indivisible_phi():
    from crystaframe.windows import window_from_raw, WindowError

    fr = zframe()
    # Phi(e_1) = e_1 is not divisible by p although e_1 lies in L
    with pytest.raises(WindowError):
        window_from_raw(fr, [(1, 0), (0, 2)], [[1, 0], [0, 1]])


def test_rank1_class_counts_match_across_eps():
    src, tgt, hom = eps_frames()
    t_src = classify_windows(src, 1, budget=1 << 16)
    t_tgt = classify_windows(tgt, 1, budget=1 << 12)
    # per (d, t), class counts agree under base change (rank-1 rigidity)
    def count(table, d):
        return sum(1 for c in table.classes if c.d == d)

    for d in (0, 1):
        assert count(t_src, d) == count(t_tgt, d)
    # and base change maps representatives onto representatives bijectively
    for d in (0, 1):
        reps_t = [c.psi for c in t_tgt.classes if c.d == d]
        images = []
        for c in t_src.classes:
            if c.d == d:
                w = base_change(hom, Window(src, c.d, c.t, c.psi))
                images.append(w)
        matched = set()
        for img in images:
            hits = [
                k
                for k, psi in enumerate(reps_t)
                if are_isomorphic(img, Window(tgt, d, 1 - d, psi))
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == set(range(len(reps_t)))


def _orbits_bfs_reference(frame, d, rank):
    """Pure-Python orbit BFS over integer tuples: the oracle for `_orbits_zpm`.

    Same steps, same output: (least matrix of the orbit, orbit size) in
    increasing order of the representative.
    """
    A = frame.A
    p, mod = A.p, A.modulus
    flat_steps = [
        (tuple(x for row in G for x in row), tuple(x for row in W for x in row))
        for G, W in windows._orbit_steps(frame, d, rank)
    ]
    candidates = [
        c
        for c in iproduct(range(mod), repeat=rank * rank)
        if (c[0] if rank == 1 else c[0] * c[3] - c[1] * c[2]) % p
    ]
    candidate_set = set(candidates)
    if rank == 1:
        def push(cur, g, wi):
            return ((g[0] * cur[0] % mod) * wi[0]) % mod,
    else:
        def push(cur, g, wi):
            a, b, c, d2 = cur
            g0, g1, g2, g3 = g
            # G * cur
            xa = g0 * a + g1 * c
            xb = g0 * b + g1 * d2
            xc = g2 * a + g3 * c
            xd = g2 * b + g3 * d2
            w0, w1, w2, w3 = wi
            return (
                (xa * w0 + xb * w2) % mod,
                (xa * w1 + xb * w3) % mod,
                (xc * w0 + xd * w2) % mod,
                (xc * w1 + xd * w3) % mod,
            )

    visited = set()
    orbits = []
    for start in candidates:
        if start in visited:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for g, wi in flat_steps:
                nxt = push(cur, g, wi)
                if nxt not in orbit:
                    if nxt not in candidate_set:
                        raise AssertionError("orbit left the invertible set")
                    orbit.add(nxt)
                    frontier.append(nxt)
        visited |= orbit
        rep = min(orbit)
        orbits.append((mat([rep[i * rank : (i + 1) * rank] for i in range(rank)]), len(orbit)))
    orbits.sort(key=lambda x: x[0])
    return orbits


def _order_gl(r, p, m):
    """|GL_r(Z/p^m)| = p^((m-1) r^2) |GL_r(F_p)|."""
    order = p ** ((m - 1) * r * r)
    for i in range(r):
        order *= p ** r - p ** i
    return order


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_orbit_enumeration_matches_bfs_reference(p, m):
    fr = zframe(p, m)
    for rank in (1, 2):
        total = 0
        for d in range(rank + 1):
            got = windows._orbits_zpm(fr, d, rank - d, rank, 1 << 22)
            assert got == _orbits_bfs_reference(fr, d, rank)
            total += sum(size for _, size in got)
        assert total == (rank + 1) * _order_gl(rank, p, m)


def test_orbit_enumeration_checks_every_image(monkeypatch):
    # a step that leaves the invertible set must be caught, not absorbed
    fr = zframe(2, 2)
    singular = (mat([[2, 0], [0, 1]]), identity(fr.A, 2))
    steps = windows._orbit_steps(fr, 1, 2)
    monkeypatch.setattr(windows, "_orbit_steps", lambda *args: steps + [singular])
    with pytest.raises(AssertionError, match="left the invertible set"):
        windows._orbits_zpm(fr, 1, 1, 2, 1 << 22)


def test_classification_budget_and_rank_errors():
    fr = zframe(2, 2)
    with pytest.raises(WindowBudgetError) as exc:
        classify_windows(fr, 2, budget=16)
    assert isinstance(exc.value, BudgetError) and isinstance(exc.value, WindowError)
    with pytest.raises(WindowError):
        classify_windows(fr, -1)
    with pytest.raises(WindowError):
        classify_windows(fr, 3)


# -- the linear hom solver against exhaustion, and the coordinate protocol ----


def hom_span_key(A, p, m, gens, shape):
    """Canonical form of the subgroup of r_w x r_v matrices that `gens` span,
    in carrier coordinates, with the carrier relations added per entry."""
    nc = A.coord_count()
    ncols = shape[0] * shape[1] * nc
    nf = SpanNF(ncols, p, m)
    for entry in range(shape[0] * shape[1]):
        for rel in A.relations.basis():
            row = [0] * ncols
            row[entry * nc : (entry + 1) * nc] = rel
            nf.insert(row)
    for G in gens:
        nf.insert([c for row in G for x in row for c in A.coords(x)])
    return nf.reduced_basis()


def assert_linear_matches_bruteforce(v, w, mode, p, m):
    A = v.frame.A
    shape = (w.rank, v.rank)
    linear = windows.hom_space(v, w, mode).generators
    exhaustive = windows._hom_space_bruteforce(v, w, mode, 1 << 16)
    assert hom_span_key(A, p, m, linear, shape) == hom_span_key(A, p, m, exhaustive, shape), (
        mode, v.d, v.psi, w.d, w.psi,
    )


def class_windows(fr, rank):
    return [Window(fr, c.d, c.t, c.psi) for c in classify_windows(fr, rank).classes]


def test_hom_space_over_zpm_is_solved_linearly(monkeypatch):
    def exhaust(*args):
        raise AssertionError("Z/p^m homs must not be exhausted")

    monkeypatch.setattr(windows, "_hom_space_bruteforce", exhaust)
    fr = zframe(3, 2)
    hs = hom_space(supersingular(fr), supersingular(fr), "window")
    assert not hs.contains_zero_only()


def test_linear_hom_space_matches_bruteforce():
    # every ordered pair of rank-1 classes, both modes
    for p, m in ((2, 2), (2, 3), (3, 2)):
        fr = zframe(p, m)
        rank1 = class_windows(fr, 1)
        for v, w in iproduct(rank1, repeat=2):
            for mode in ("window", "phi_module"):
                assert_linear_matches_bruteforce(v, w, mode, p, m)
    # seeded rank-2 pairs from every (rank, d) bucket pair that has rank 2;
    # exhausting 2 x 2 matrices over Z/9 is slow, so there one pair per
    # bucket pair in one seeded mode
    rng = random.Random(41)
    for (p, m), per_bucket, modes in (((2, 2), 2, 2), ((3, 2), 1, 1)):
        fr = zframe(p, m)
        buckets = {}
        for rank in (1, 2):
            for w in class_windows(fr, rank):
                buckets.setdefault((rank, w.d), []).append(w)
        for kv, kw in iproduct(sorted(buckets), repeat=2):
            if kv[0] == kw[0] == 1:
                continue
            for _ in range(per_bucket):
                v, w = rng.choice(buckets[kv]), rng.choice(buckets[kw])
                for mode in rng.sample(["window", "phi_module"], modes):
                    assert_linear_matches_bruteforce(v, w, mode, p, m)


@pytest.mark.slow
def test_linear_hom_space_matches_bruteforce_all_z4_pairs():
    # every ordered pair of rank <= 2 classes over Z/4, both modes (about 30 s)
    fr = zframe(2, 2)
    reps = class_windows(fr, 1) + class_windows(fr, 2)
    for v, w in iproduct(reps, repeat=2):
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, 2, 2)


def random_windows(fr, rng, rank, d, n):
    """`n` seeded windows with random invertible Psi of the given shape."""
    out = []
    while len(out) < n:
        psi = mat([[rng.randrange(fr.A.modulus) for _ in range(rank)] for _ in range(rank)])
        if is_invertible(fr.A, psi):
            out.append(window_from_psi(fr, d, rank - d, psi))
    return out


@pytest.mark.parametrize("p, m", [(2, 3), (3, 3)])
def test_batched_and_scalar_hom_backends_agree(p, m):
    # the two backends of `_hom_equations` at the lemma sweep's moduli: the
    # G-part of the batched kernel spans the scalar generators' group, for
    # two random pairs per (rank, d) bucket pair in both modes
    fr = zframe(p, m)
    mod = p ** m
    rng = random.Random(67)
    shapes = [(rank, d) for rank in (1, 2) for d in range(rank + 1)]
    nontrivial = 0
    for (rv, d_v), (rw, d_w) in iproduct(shapes, repeat=2):
        vs = random_windows(fr, rng, rv, d_v, 2)
        ws = random_windows(fr, rng, rw, d_w, 2)
        Pv = np.array([v.psi for v in vs], dtype=np.int64)
        Pw = np.array([w.psi for w in ws], dtype=np.int64)
        Fv, Fw = _phi_scaled(Pv, d_v, p, mod), _phi_scaled(Pw, d_w, p, mod)
        for mode in ("window", "phi_module"):
            M, _ = _build_systems(fr, Pv, Pw, Fv, Fw, d_v, d_w, mode)
            gens, _ = batch_kernel(M, p, m)
            for n, (v, w) in enumerate(zip(vs, ws)):
                batched = [c.reshape(rw, rv).tolist() for c in gens[n, : rw * rv].T]
                scalar = windows._hom_space_linear(v, w, mode)
                want = hom_span_key(fr.A, p, m, scalar, (rw, rv))
                assert hom_span_key(fr.A, p, m, batched, (rw, rv)) == want, (mode, v, w)
                nontrivial += bool(want)
    assert nontrivial >= 30, nontrivial


def pd_x_frame(p, m, cap):
    return pd_frame(build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap)))


def unit_windows(fr):
    A = fr.A
    return [window_from_psi(fr, d, 1 - d, [[u]]) for d in (0, 1) for u in A.elements() if A.is_unit(u)]


@pytest.mark.parametrize("p, m, cap", [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_linear_hom_space_matches_bruteforce_on_pd_frames(p, m, cap):
    rank1 = unit_windows(pd_x_frame(p, m, cap))
    for v, w in iproduct(rank1, repeat=2):
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, p, m)


def test_linear_hom_space_pd_sigma1_on_divided_powers():
    # Over F_2<x> with cap 3, sigma1(x) = x^[2] is a T-type coordinate: homs
    # between rank 1 and this rank-2 window need the sigma1 rows of T-type
    # coordinates, which the rank-1 pairs above never reach.
    fr = pd_x_frame(2, 1, 3)
    A = fr.A
    one_x2, x_x2, x = A.from_coords([1, 0, 1]), A.from_coords([0, 1, 1]), A.from_coords([0, 1, 0])
    w2 = window_from_psi(fr, 1, 1, [[one_x2, x_x2], [x, A.one]])
    rank1 = unit_windows(fr)
    for v, w in [(v, w2) for v in rank1] + [(w2, w) for w in rank1]:
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, 2, 1)


def protocol_carriers():
    yield Residues(2, 3), range(8)
    yield Residues(3, 2), range(9)
    for pres in (
        PDPresentation(2, 3, ("x",), ((1,),), 6),
        PDPresentation(2, 2, ("x", "y"), ((2, 0), (1, 1), (0, 2)), 4),
    ):
        fr = pd_frame(build_pd_envelope(pres))
        yield fr.A, fr.sample_elements(6, seed=3)
        sz = square_zero_frame(fr, NablaContext(fr).diff)
        yield sz.A, sz.sample_elements(6, seed=3)


def test_coordinate_protocol_conformance():
    """The contract `windows` relies on instead of probing attributes."""
    for A, samples in protocol_carriers():
        n = A.coord_count()
        p, m = A.p, A.coord_precision()
        mod = p ** m
        assert sorted(A.mu_indices() + A.t_indices()) == list(range(n)), A
        rels = SpanNF(n, p, m)
        for r in A.relations.basis():
            rels.insert(r)
        for a in samples:
            assert len(A.coords(a)) == n
            assert A.from_coords(A.coords(a)) == a, (A, a)
            M = A.mult_matrix(a)
            for b in samples:
                got = [sum(M[i][j] * c for j, c in enumerate(A.coords(b))) for i in range(n)]
                want = A.coords(A.mul(a, b))
                assert rels.contains([(x - y) % mod for x, y in zip(got, want)]), (A, a, b)
