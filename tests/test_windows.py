import random
from itertools import product as iproduct

import numpy as np
import pytest

from crystaframe import frames, windows
from crystaframe.frames import (
    AdmissibleSequence,
    BudgetError,
    FrameHom,
    admissible_quotient_frame,
    lift_frame,
    witt_frame,
)
from crystaframe.homsweep import _build_systems, _phi_scaled
from crystaframe.linalg import SpanNF, batch_kernel, diagonalize, kernel_basis
from crystaframe.matrices import identity, is_invertible, mat, mat_add, mat_inverse, mat_map, mat_mul, mult_matrix
from crystaframe.monomial import MonomialAlgebra
from crystaframe.nabla import NablaContext, square_zero_frame
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.residues import GaloisField, Residues
from crystaframe.scenario import parse_scenario, validate_scenario
from crystaframe.batteries import _eps_deformation
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
    window_from_raw,
)
from crystaframe.witt import WittRing
from oracles import classify_pairwise, hom_space_bruteforce, lift_hom_exhaustive, window_hom_exhaustive


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


def test_normal_decomposition_needs_a_lift_frame():
    # only lift frames carry the residue map that splits M/M_1
    S = MonomialAlgebra(Residues(2, 1), [("Y", 2, 2)])
    others = [
        pd_frame(build_pd_envelope(PDPresentation(2, 2, ("x",), ((1,),), 4))),
        witt_frame(MonomialAlgebra(Residues(2, 1), []), 2),
        admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2),
    ]
    for fr in others:
        one, zero = fr.A.one, fr.A.zero
        with pytest.raises(WindowError, match="lift frame"):
            normal_decomposition(fr, 2, [(one, zero), (zero, one)])
        with pytest.raises(WindowError, match="lift frame"):
            window_from_raw(fr, [(one, zero), (zero, one)], [[one, zero], [zero, one]])


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


def assert_tables_carried(fr_a, table_a, fr_b, table_b, fn):
    """The ring isomorphism fn: A -> B carries the classes of table_a onto
    those of table_b bijectively, each onto one of equal orbit size."""
    assert len(table_a.classes) == len(table_b.classes)
    hit = set()
    for c in table_a.classes:
        img = Window(fr_b, c.d, c.t, mat_map(fn, c.psi))
        hits = [
            k
            for k, r in enumerate(table_b.classes)
            if (r.d, r.t) == (c.d, c.t) and are_isomorphic(img, Window(fr_b, r.d, r.t, r.psi))
        ]
        assert len(hits) == 1, (c.d, c.psi)
        assert table_b.classes[hits[0]].orbit_size == c.orbit_size
        hit.add(hits[0])
    assert hit == set(range(len(table_b.classes)))


def assert_witt_tables_match_lift_frame(p, n, rank):
    """W_n(F_p) and Z/p^n give one class table, carried both ways along k -> k*1."""
    wf, lf = witt_prime_frame(p, n), zframe(p, n)
    witt = classify_windows(wf, rank, budget=1 << 22)
    lift = classify_windows(lf, rank)
    to_witt = {k: wf.A.embed_int(k) for k in range(p ** n)}
    to_int = {x: k for k, x in to_witt.items()}
    assert len(to_int) == p ** n
    assert_tables_carried(lf, lift, wf, witt, to_witt.__getitem__)
    assert_tables_carried(wf, witt, lf, lift, to_int.__getitem__)
    return witt


def test_witt_rank2_table_against_lift_frame_z4():
    """W_2(F_2) against Z/4 at rank <= 2 (about 3 s, on linear homs).

    With sigma1 taken at full length through witnesses on both frames, the
    identity W_2(F_2) = Z/4 is a frame isomorphism, and the tables agree on
    every d.  At d = 1 there are 8 classes, where comparing the L-columns in
    W_1 used to merge them in pairs into 4.
    """
    assert_witt_tables_match_lift_frame(2, 2, 1)
    witt = assert_witt_tables_match_lift_frame(2, 2, 2)
    assert class_shape(witt, 1) == [(1, 8)] * 4 + [(1, 16)] * 4
    assert [len(class_shape(witt, d)) for d in (0, 2)] == [14, 14]


def test_witt_rank1_table_against_lift_frame_z8():
    assert_witt_tables_match_lift_frame(2, 3, 1)


@pytest.mark.slow
def test_witt_rank2_table_against_lift_frame_z8():
    assert_witt_tables_match_lift_frame(2, 3, 2)


def test_lift_frame_over_w2_f4_classifies_as_the_witt_frame():
    # over a perfect field p = VF, so the identity of W_2(F_4) carries the
    # full-length witnesses of the Witt frame onto those of the lift frame:
    # a frame isomorphism, with one class table at rank 1 and one hom group
    # per seeded rank-2 pair
    wf, lf = witt_frames()["W_2(F_4)"], witt_frames()["lift W_2(F_4)"]
    witt, lift = classify_windows(wf, 1), classify_windows(lf, 1)
    assert_tables_carried(lf, lift, wf, witt, lambda x: x)
    assert_tables_carried(wf, witt, lf, lift, lambda x: x)
    rng = random.Random(29)
    pairs = 0
    for v, w in iproduct(seeded_witt_windows(wf, rng, 1), repeat=2):
        if v.rank + w.rank == 4 or rng.random() < 0.3:
            v_l, w_l = Window(lf, v.d, v.t, v.psi), Window(lf, w.d, w.t, w.psi)
            assert len(hom_space(v, w).elements()) == len(hom_space(v_l, w_l).elements())
            pairs += 1
    assert pairs == 13  # the 9 rank-2 pairs among them


def test_lift_window_along_eps():
    src, tgt, hom = _eps_deformation(Residues(2, 1), 2)
    w = window_from_psi(tgt, 1, 0, [[tgt.A.one]])
    lifted = lift_window_along(hom, w)
    assert lifted.frame is src
    assert base_change(hom, lifted).psi == w.psi


def test_lift_hom_along_eps_identity():
    src, tgt, hom = _eps_deformation(Residues(2, 1), 2)
    w_t = window_from_psi(tgt, 1, 0, [[tgt.A.one]])
    v_s = lift_window_along(hom, w_t)
    G = mat([[tgt.A.one]])
    rep = lift_hom_along(hom, v_s, v_s, G)
    assert rep.unique
    assert is_window_hom(v_s, v_s, rep.lifted)


def test_lift_hom_rejects_a_target_that_is_no_hom():
    # negative control: over W_2(F_2) = Z/4 the etale windows Psi = 1 and
    # Psi = -1 have the homs G = -G, so G = 1 is none and cannot lift; nor
    # can G = 1 from the multiplicative to the etale window, which leaves
    # the filtration
    src, tgt, hom = _eps_deformation(Residues(2, 1), 2)
    B = tgt.A
    one, minus_one = mat([[B.one]]), mat([[B.neg(B.one)]])
    cases = [(window_from_psi(tgt, 0, 1, one), window_from_psi(tgt, 0, 1, minus_one))]
    cases.append((window_from_psi(tgt, 1, 0, one), window_from_psi(tgt, 0, 1, one)))
    for v_t, w_t in cases:
        assert not is_window_hom(v_t, w_t, one)
        v_s, w_s = lift_window_along(hom, v_t), lift_window_along(hom, w_t)
        with pytest.raises(WindowError, match="no lift found"):
            lift_hom_along(hom, v_s, w_s, one)


def lift_solution_sets(hom, v_t, w_t):
    """(linear, exhaustive, unique) per hom G of v_t -> w_t: the solution
    set of `lift_hom_along` (its lift plus the span of its homogeneous
    generators), the oracle's, and the linear uniqueness verdict."""
    v_s, w_s = lift_window_along(hom, v_t), lift_window_along(hom, w_t)
    out = []
    for G in hom_space(v_t, w_t, budget=1 << 12).elements():
        rep = lift_hom_along(hom, v_s, w_s, G)
        span = windows.HomSpace(v_s, w_s, "window", rep.kernel).elements()
        linear = {mat_add(v_s.frame.A, rep.lifted, H) for H in span}
        out.append((linear, lift_hom_exhaustive(hom, v_s, w_s, G), rep.unique))
    return out


@pytest.mark.parametrize(
    "k, n, count",
    [(Residues(2, 1), 2, 32), (Residues(2, 1), 3, 160), (GaloisField(2, 2), 2, 32)],
    ids=["W_2(F_2[e])", "W_3(F_2[e])", "W_2(F_4[e])"],
)
def test_linear_lift_matches_exhaustive_at_rank1(k, n, count):
    # every hom between every ordered pair of rank-1 target classes: the
    # same solution set, and the unique lift `deform-win` counts on
    src, tgt, hom = _eps_deformation(k, n)
    classes = classify_windows(tgt, 1, budget=1 << 12).classes
    lifts = 0
    for cv, cw in iproduct(classes, repeat=2):
        v_t, w_t = Window(tgt, cv.d, cv.t, cv.psi), Window(tgt, cw.d, cw.t, cw.psi)
        for linear, exhaustive, unique in lift_solution_sets(hom, v_t, w_t):
            assert linear == set(exhaustive) and unique and len(exhaustive) == 1
            lifts += 1
    assert lifts == count


def seeded_rank2_pairs(tgt, seed, per_sector):
    """`per_sector` random pairs of rank-2 target windows for each (d_v, d_w)."""
    rng = random.Random(seed)
    pool = list(tgt.A.elements())

    def window(d):
        while True:
            psi = mat([rng.choices(pool, k=2), rng.choices(pool, k=2)])
            if is_invertible(tgt.A, psi):
                return Window(tgt, d, 2 - d, psi)

    return [(window(dv), window(dw)) for dv, dw in iproduct(range(3), repeat=2) for _ in range(per_sector)]


def test_rank2_lifts_over_w2_f2_eps_are_not_unique():
    # over W_2(F_2[eps]) at rank 2 the linear lifter and the exhaustive
    # oracle agree, and both find lifts that are not unique, where v has
    # L-columns and w has T-columns.  The extra homs are genuine at full
    # length: a zero bottom-left entry has the witness h = V(eps) = (0, eps),
    # since wit(h) = V(h|W_1) = 0, and sigma1(0) = s1(h) = V(eps) then feeds
    # the L-column identity, which a unit of Psi_w carries into a top entry.
    src, tgt, hom = _eps_deformation(Residues(2, 1), 2)
    A = src.A
    v_eps = A.verschiebung((src.base.monomial((1,), 1),))
    assert src.wit(v_eps) == A.zero and src.s1(v_eps) == v_eps
    pairs = seeded_rank2_pairs(tgt, 0, 3)
    not_unique = set()
    for v_t, w_t in pairs:
        for linear, exhaustive, unique in lift_solution_sets(hom, v_t, w_t):
            assert linear == set(exhaustive) and unique == (len(exhaustive) == 1)
            if not unique:
                assert v_t.d > 0 and w_t.t > 0
                not_unique.add((v_t.d, w_t.d))
    assert not_unique == {(2, 1), (1, 1), (1, 0)}
    # the extra hom [[0, V(eps)], [0, 0]], from the (2, 1) sector
    v_t, w_t = next((v, w) for v, w in pairs if (v.d, w.d) == (2, 1))
    v_s, w_s = lift_window_along(hom, v_t), lift_window_along(hom, w_t)
    extra = mat([[A.zero, v_eps], [A.zero, A.zero]])
    assert is_window_hom(v_s, w_s, extra) and window_hom_exhaustive(v_s, w_s, extra)
    assert mat_map(hom.fn, extra) == mat([[tgt.A.zero] * 2] * 2)


@pytest.mark.slow
def test_linear_lift_matches_exhaustive_on_w3_f2_eps_rank2():
    # 8^4 = 4,096 candidates per lift for the oracle; one seeded pair per
    # (d_v, d_w), whose hom groups hold 15 homs in all (as many as
    # `window_hom_exhaustive` accepts)
    src, tgt, hom = _eps_deformation(Residues(2, 1), 3)
    lifts = 0
    for v_t, w_t in seeded_rank2_pairs(tgt, 1, 1):
        for linear, exhaustive, unique in lift_solution_sets(hom, v_t, w_t):
            assert linear == set(exhaustive) and unique == (len(exhaustive) == 1)
            lifts += 1
    assert lifts == 15


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
    src, tgt, hom = _eps_deformation(Residues(2, 1), 2)
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
    """Pure-Python orbit BFS over integer tuples: the oracle for `_orbits` on Z/p^m.

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
        sectors = windows._orbits(fr, rank, 1 << 22)
        assert len(sectors) == rank + 1
        for d, got in enumerate(sectors):
            assert got == _orbits_bfs_reference(fr, d, rank)
        total = sum(size for got in sectors for _, size in got)
        assert total == (rank + 1) * _order_gl(rank, p, m)


def test_orbit_enumeration_checks_every_image(monkeypatch):
    # a step that leaves the invertible set must be caught, not absorbed
    fr = zframe(2, 2)
    singular = (mat([[2, 0], [0, 1]]), identity(fr.A, 2))
    steps = windows._orbit_steps(fr, 1, 2)
    monkeypatch.setattr(windows, "_orbit_steps", lambda *args: steps + [singular])
    with pytest.raises(AssertionError, match="left the invertible set"):
        windows._orbits(fr, 2, 1 << 22)


def _w_of(frame, d, G):
    """W(G) of the twisted action: sigma on the entries of G, divided by p in
    its bottom-left block and multiplied by p in its top-right block."""
    p, mod = frame.A.p, frame.A.modulus

    def entry(x, i, j):
        if (i < d) == (j < d):
            return frame.sigma(x)
        return frame.sigma(x // p) if j < d else p * frame.sigma(x) % mod

    return mat([[entry(x, i, j) for j, x in enumerate(row)] for i, row in enumerate(G)])


@pytest.mark.parametrize("p, m", [(2, 3), (3, 2)])
def test_orbits_do_not_depend_on_the_generating_set(monkeypatch, p, m):
    # the step list with each generator's inverse step (G^-1, W(G^-1)^-1)
    # appended spans the same orbits
    fr = zframe(p, m)
    A = fr.A
    generators = windows._orbit_steps

    def with_inverses(frame, d, rank):
        steps = generators(frame, d, rank)
        eye = identity(A, rank)
        inverses = []
        for G, Winv in steps:
            assert G != eye  # no witness twist: the bottom-left steps generate them
            Ginv = mat_inverse(A, G)
            inverses.append((Ginv, mat_inverse(A, _w_of(frame, d, Ginv))))
        return steps + inverses

    want = windows._orbits(fr, 2, 1 << 22)
    monkeypatch.setattr(windows, "_orbit_steps", with_inverses)
    assert len(with_inverses(fr, 1, 2)) == 2 * len(generators(fr, 1, 2))
    assert windows._orbits(fr, 2, 1 << 22) == want


def _twisted_group_order(fr, d, rank):
    """|G_d| = |P_d(A)| * |K|^(d*t) over a finite local carrier A, in closed form.

    P_d(A) holds the invertible G with bottom-left block in I, and K the
    witnesses of zero (wit(h) = 0, h on the mu-coordinates), with |A^x|,
    |I| and |K| counted on the elements.  At rank 1 or d in {0, r} this is
    |GL_r(A)| = |m|^(r^2) |GL_r(k)|, m the maximal ideal and k = A/m; at
    rank 2 and d = 1 it is |A^x|^2 |A| |I| |K|.
    """
    A = fr.A
    elements = list(A.elements())
    units = sum(1 for x in elements if A.is_unit(x))
    if rank == 1 or d in (0, rank):
        maximal = len(elements) - units
        k = len(elements) // maximal
        order = maximal ** (rank * rank)
        for i in range(rank):
            order *= k ** rank - k ** i
        return order
    ideal = sum(1 for x in elements if fr.ideal_contains(x))
    kernel = sum(1 for h in elements if fr.wit(h) == A.zero and not any(A.coords(h)[i] for i in A.t_indices()))
    return units ** 2 * len(elements) * ideal * kernel


def assert_orbit_stabilizer(fr, rank):
    """orbit_size * |Aut(v)| = |G_d| for every class of the table.

    The stabilizer of Psi under the twisted action is Aut(v), counted here
    as the invertible elements of the solved End(v), and |G_d| is taken in
    closed form: the check shares nothing with the orbit steps.
    """
    table = classify_windows(fr, rank, budget=1 << 22)
    for c in table.classes:
        v = Window(fr, c.d, c.t, c.psi)
        aut = sum(1 for g in hom_space(v, v).elements() if is_invertible(fr.A, g))
        assert c.orbit_size * aut == _twisted_group_order(fr, c.d, rank), (c.d, c.psi)


@pytest.mark.parametrize("p, m, rank", [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 3, 1)])
def test_class_tables_satisfy_orbit_stabilizer(p, m, rank):
    assert_orbit_stabilizer(zframe(p, m), rank)


@pytest.mark.slow
def test_z8_rank2_table_satisfies_orbit_stabilizer():
    # 152 classes, one End(v) of up to 8^4 elements each (about 12 s)
    assert_orbit_stabilizer(zframe(2, 3), 2)


def test_finite_class_tables_satisfy_orbit_stabilizer():
    # the closed form counts |A^x|, |I| and |K| on the carrier: W_2(F_2) and
    # the 8-element quotient frame at rank <= 2, three more Witt frames at
    # rank 1
    fr, quotient = witt_frames()["W_2(F_2)"], quotient_frame(("Y", 0, 2))
    assert [_twisted_group_order(fr, d, 2) for d in (0, 1, 2)] == [96, 64, 96]
    assert [_twisted_group_order(quotient, d, 2) for d in (0, 1, 2)] == [1536, 2048, 1536]
    for rank in (1, 2):
        assert_orbit_stabilizer(fr, rank)
        assert_orbit_stabilizer(quotient, rank)
    for name in ("W_2(F_2[e])", "W_2(F_4)", "W_3(F_2)"):
        assert_orbit_stabilizer(witt_frames()[name], 1)


def test_pd_rank2_table_satisfies_orbit_stabilizer():
    # Z/4<x> at cap 2 has a T-coordinate: the steps (1 + tE, 1 + sigma1(t)E)
    # are needed at d = 1
    fr = pd_frame(build_pd_envelope(PDPresentation(2, 2, ("x",), ((1,),), 2)))
    assert [_twisted_group_order(fr, d, 2) for d in (0, 1, 2)] == [24576, 16384, 24576]
    assert_orbit_stabilizer(fr, 2)


def quotient_frame(decl):
    """The quotient frame of AdmissibleSequence.minimal(F_2[Y], [Y], 2), Y
    declared as `decl`: ("Y", 0, 2) gives 8 elements, ("Y", 1, 2) 64."""
    S = MonomialAlgebra(Residues(2, 1), [decl])
    return admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2)


def oracle_class_frames():
    """The frames whose rank-1 tables the pairwise scan checks, by name."""
    F4e = MonomialAlgebra(GaloisField(2, 2), [("e", 0, 2)])
    return {
        **witt_frames(),
        "W_2(F_4[e])": witt_frame(F4e, 2),
        "W_3(F_2[e])": witt_frame(MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 3),
        "Q_8": quotient_frame(("Y", 0, 2)),
        "Q_64": quotient_frame(("Y", 1, 2)),
        "PD Z/4<x>": pd_frame(build_pd_envelope(PDPresentation(2, 2, ("x",), ((1,),), 3))),
    }


def table_rows(table):
    return [(c.d, c.t, c.psi, c.orbit_size) for c in table.classes]


@pytest.mark.parametrize(
    "name",
    ["W_2(F_2)", "W_2(F_3)", "W_3(F_2)", "W_2(F_4)", "W_2(F_2[e])", "lift W_2(F_4)", "W_2(F_4[e])", "W_3(F_2[e])",
     "Q_8", "Q_64", "PD Z/4<x>"],
)
def test_orbit_tables_match_the_pairwise_scan(name):
    # representatives, order and orbit sizes, against `are_isomorphic` on
    # every candidate (W_2(F_4[e]), 256 elements, takes about 1 s)
    fr = oracle_class_frames()[name]
    assert table_rows(classify_windows(fr, 1)) == table_rows(classify_pairwise(fr, 1))


def test_w2f2_rank2_table_matches_the_pairwise_scan():
    fr = witt_frames()["W_2(F_2)"]
    assert table_rows(classify_windows(fr, 2)) == table_rows(classify_pairwise(fr, 2))


def test_quotient_frame_rank2_table():
    # 8 elements: the slack steps (1 + sE, 1) are what merges the d = 1
    # classes in pairs (without them, 40 classes)
    table = classify_windows(quotient_frame(("Y", 0, 2)), 2)
    assert len(table.classes) == 36
    assert class_shape(table, 1) == [(1, 128)] * 4 + [(1, 256)] * 4


@pytest.mark.slow
def test_quotient_frame_rank2_table_matches_the_pairwise_scan():
    # 4,096 candidates per sector against the representatives (about 55 s)
    fr = quotient_frame(("Y", 0, 2))
    assert table_rows(classify_windows(fr, 2)) == table_rows(classify_pairwise(fr, 2))


def test_classification_has_one_path(monkeypatch):
    # Witt carriers run the orbit search too: no isomorphism test is made
    def refuse(*args):
        raise AssertionError("classification called are_isomorphic")

    monkeypatch.setattr(windows, "are_isomorphic", refuse)
    table = classify_windows(witt_frames()["W_2(F_3)"], 1)
    assert sum(c.orbit_size for c in table.classes) == 2 * 6
    for name in ("_unit_group_generators", "_primitive_root", "_orbits_zpm"):
        assert not hasattr(windows, name)


def test_classification_budget_and_rank_errors():
    fr = zframe(2, 2)
    for frame in (fr, witt_frames()["W_2(F_2)"]):
        with pytest.raises(WindowBudgetError) as exc:
            classify_windows(frame, 2, budget=16)
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
    exhaustive = hom_space_bruteforce(v, w, mode)
    assert hom_span_key(A, p, m, linear, shape) == hom_span_key(A, p, m, exhaustive, shape), (
        mode, v.d, v.psi, w.d, w.psi,
    )


def class_windows(fr, rank):
    return [Window(fr, c.d, c.t, c.psi) for c in classify_windows(fr, rank).classes]


def test_hom_space_has_one_linear_path():
    # the exhaustive search is a test oracle only (tests/oracles.py), and no
    # carrier is probed for coordinates
    assert not hasattr(windows, "_hom_space_bruteforce")
    assert not hasattr(frames, "has_coords")
    # one window-hom notion: no second set of coordinates for the ideal or
    # the sigma1 codomain
    assert not hasattr(frames, "TableCarrier")
    assert not any(hasattr(frames.Frame, a) for a in ("ideal_table", "codomain_table"))
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


def witt_frames():
    """The Witt frames of the linear-vs-exhaustive oracle, by name."""
    F2, F4 = MonomialAlgebra(Residues(2, 1), []), MonomialAlgebra(GaloisField(2, 2), [])
    return {
        "W_2(F_2)": witt_frame(F2, 2),
        "W_2(F_3)": witt_frame(MonomialAlgebra(Residues(3, 1), []), 2),
        "W_3(F_2)": witt_frame(F2, 3),
        "W_2(F_4)": witt_frame(F4, 2),
        "W_2(F_2[e])": witt_frame(MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 2),
        "lift W_2(F_4)": lift_frame(WittRing(F4, 2)),
    }


@pytest.mark.parametrize("name", list(witt_frames()))
def test_linear_hom_space_matches_bruteforce_on_witt_frames(name):
    # every ordered pair of rank-1 classes, both modes, on table coordinates
    fr = witt_frames()[name]
    rank1 = class_windows(fr, 1)
    for v, w in iproduct(rank1, repeat=2):
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, fr.p, fr.A.coord_precision())


def seeded_witt_windows(fr, rng, n):
    """`n` seeded windows of each (rank, d) with rank <= 2 over a finite carrier."""
    pool = list(fr.A.elements())
    out = []
    for rank in (1, 2):
        for d in range(rank + 1):
            found = 0
            while found < n:
                psi = mat([[rng.choice(pool) for _ in range(rank)] for _ in range(rank)])
                if is_invertible(fr.A, psi):
                    out.append(window_from_psi(fr, d, rank - d, psi))
                    found += 1
    return out


def test_linear_hom_space_matches_bruteforce_on_w2f2_rank2():
    # seeded rank <= 2 pairs over W_2(F_2), every rank-2 class with d = 1
    # among them: there L-columns take full-length witnesses
    fr = witt_frames()["W_2(F_2)"]
    reps = [w for w in class_windows(fr, 2) if w.d == 1] + seeded_witt_windows(fr, random.Random(3), 1)
    for v, w in iproduct(reps, repeat=2):
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, 2, 2)


def quotient_frame_q():
    """The quotient frame Q of the bundled witt_frame_f2.scn (4,096 elements)."""
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "scenarios" / "witt_frame_f2.scn").read_text()
    return validate_scenario(parse_scenario(text))["frames"]["Q"]


def seeded_unit_windows(fr, rng, n):
    """`n` rank-1 windows with seeded unit Psi, d alternating 1, 0, 1, ..."""
    pool = [u for u in fr.A.elements() if fr.A.is_unit(u)]
    return [window_from_psi(fr, 1 - k % 2, k % 2, [[rng.choice(pool)]]) for k in range(n)]


def test_linear_hom_space_matches_bruteforce_on_quotient_frame():
    # window mode from d = 1 to d = 0 over Q, where the witness rows hold
    # modulo `wit_slack` (exhausting the 4,096 candidates takes about 1 s)
    fr = quotient_frame_q()
    v, w = seeded_unit_windows(fr, random.Random(11), 2)
    assert_linear_matches_bruteforce(v, w, "window", 2, 2)


@pytest.mark.slow
def test_linear_hom_space_matches_bruteforce_on_quotient_frame_seeded():
    # every ordered pair of 6 seeded rank-1 windows over Q, both modes (about 50 s)
    fr = quotient_frame_q()
    for v, w in iproduct(seeded_unit_windows(fr, random.Random(13), 6), repeat=2):
        for mode in ("window", "phi_module"):
            assert_linear_matches_bruteforce(v, w, mode, 2, 2)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["W_2(F_4)", "lift W_2(F_4)"])
def test_linear_hom_space_matches_bruteforce_on_w2f4_rank2(name):
    # seeded rank <= 2 pairs over W_2(F_4), one mode each (about 1.5 s per
    # exhausted rank-2 pair)
    fr = witt_frames()[name]
    rng = random.Random(17)
    reps = seeded_witt_windows(fr, rng, 1)
    for v, w in iproduct(reps, repeat=2):
        assert_linear_matches_bruteforce(v, w, rng.choice(["window", "phi_module"]), 2, 2)


def oracle_frames():
    """The frames of the full-length witness oracle, by name."""
    S = MonomialAlgebra(Residues(2, 1), [("Y", 2, 2)])
    return {
        "Z/4": zframe(2, 2),
        "W_2(F_2)": witt_frames()["W_2(F_2)"],
        "W_2(F_2[e])": witt_frames()["W_2(F_2[e])"],
        "lift W_2(F_4)": witt_frames()["lift W_2(F_4)"],
        "Q": admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2),
    }


def assert_oracle_matches_linear_homs(v, w):
    """Over every candidate G, `is_window_hom` agrees with the exhaustive
    witness oracle, and the homs it accepts are the group `hom_space` spans."""
    A = v.frame.A
    homs = set()
    for combo in iproduct(list(A.elements()), repeat=w.rank * v.rank):
        G = mat([combo[i * v.rank : (i + 1) * v.rank] for i in range(w.rank)])
        verdict = window_hom_exhaustive(v, w, G)
        assert is_window_hom(v, w, G) == verdict, (v.d, v.psi, w.d, w.psi, G)
        if verdict:
            homs.add(G)
    assert set(hom_space(v, w).elements()) == homs, (v.d, v.psi, w.d, w.psi)
    return len(homs)


def oracle_pairs(fr, rng, big):
    """Seeded pairs of rank <= 2 windows: all of them over a 4-element
    carrier; over a larger one (16 elements), those with a rank-1 side, or
    (big) both sides of rank 2."""
    ws = seeded_witt_windows(fr, rng, 1)
    if fr.A.size() <= 4:
        return list(iproduct(ws, repeat=2))
    return [(v, w) for v, w in iproduct(ws, repeat=2) if (v.rank + w.rank == 4) == big and v.rank + w.rank > 2]


@pytest.mark.parametrize("name", ["Z/4", "W_2(F_2)", "W_2(F_2[e])", "lift W_2(F_4)"])
def test_window_hom_oracle_matches_linear_homs(name):
    # the one full-length notion, exhausted: seeded rank <= 2 pairs
    fr = oracle_frames()[name]
    homs = 0
    for v, w in oracle_pairs(fr, random.Random(31), big=False):
        homs += assert_oracle_matches_linear_homs(v, w)
    assert homs > 0


def test_window_hom_oracle_matches_linear_homs_on_quotient_frame():
    # d = 1 to d = 0 over Q: the one rank-1 shape with a bottom-left entry,
    # whose witnesses run over W_2(S), not only over A(K_*) (about 4 s)
    fr = oracle_frames()["Q"]
    v, w = seeded_unit_windows(fr, random.Random(11), 2)
    assert assert_oracle_matches_linear_homs(v, w) > 1


@pytest.mark.slow
@pytest.mark.parametrize("name", ["W_2(F_2[e])", "lift W_2(F_4)", "Q"])
def test_window_hom_oracle_matches_linear_homs_slow(name):
    # rank-2 pairs over the 16-element carriers (65,536 candidates each) and
    # every ordered pair of 4 seeded rank-1 windows over Q
    fr = oracle_frames()[name]
    if name == "Q":
        pairs = iproduct(seeded_unit_windows(fr, random.Random(13), 4), repeat=2)
    else:
        pairs = oracle_pairs(fr, random.Random(37), big=True)[:4]
    for v, w in pairs:
        assert_oracle_matches_linear_homs(v, w)


def test_table_carrier_over_the_budget_raises_before_enumerating():
    # Q has 4,096 elements: a smaller budget stops hom_space before the
    # table is built
    fr = quotient_frame_q()
    v, w = seeded_unit_windows(fr, random.Random(11), 2)
    with pytest.raises(WindowBudgetError, match="4096 elements"):
        hom_space(v, w, "window", budget=4095)
    assert "_table" not in vars(fr.A)


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
        Pv = np.array([v.psi for v in vs], dtype=np.int64).transpose(1, 2, 0)
        Pw = np.array([w.psi for w in ws], dtype=np.int64).transpose(1, 2, 0)
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


# -- hom systems modulo the carrier relation spans ----------------------------


def _hom_rows_slack(v, w, mode):
    """The hom system with one slack unknown per carrier relation per
    equation block, the formulation that `membership_rows` replaced: the
    oracle for `windows._hom_rows`.  Columns: G, the witnesses, the slacks."""
    A = v.frame.A
    p = v.frame.p
    nc = A.coord_count()
    r_v, r_w = v.rank, w.rank
    nG = r_w * r_v * nc
    equations, bl = windows._hom_equations(r_v, v.d, r_w, w.d, mode)
    src = {"phi_v": v.phi_matrix(), "phi_w": w.phi_matrix(), "psi_v": v.psi, "psi_w": w.psi}
    rel_rows = A.relations.basis()
    nz_cols = nG + len(bl) * nc
    total = nz_cols + len(rel_rows) * len(equations)
    rows = []
    for e, eq in enumerate(equations):
        block = [[0] * total for _ in range(nc)]
        for sign, s, i, j, op, var in eq:
            M = (np.array(mult_matrix(A, src[s][i][j]), dtype=object) @ windows._op_matrix(v.frame, op)).tolist()
            for rr in range(nc):
                for cc in range(nc):
                    block[rr][var * nc + cc] += sign * M[rr][cc]
        for s_idx, rel in enumerate(rel_rows):
            for rr in range(nc):
                block[rr][nz_cols + e * len(rel_rows) + s_idx] = -rel[rr]
        rows += block
    for kk, (i, j) in enumerate(bl):
        for c in A.mu_indices():
            row = [0] * total
            row[(i * r_v + j) * nc + c] = 1
            row[nG + kk * nc + c] = -p
            rows.append(row)
    return rows


def hom_generators_slack(v, w, mode):
    A = v.frame.A
    nc = A.coord_count()
    nG = w.rank * v.rank * nc
    gens = kernel_basis(_hom_rows_slack(v, w, mode), A.p, A.coord_precision())
    return [windows._decode_G(A, g[:nG], w.rank, v.rank, nc) for g in gens]


def xy2_frame(p, m, cap):
    return pd_frame(build_pd_envelope(PDPresentation(p, m, ("x", "y"), ((2, 0), (1, 1), (0, 2)), cap)))


def seeded_rank1_windows(fr, count, seed):
    """Rank-1 windows of both kinds with Psi = 1 + a random sparse element."""
    rng = random.Random(seed)
    A = fr.A
    out = []
    while len(out) < count:
        x = A.reduce([rng.randrange(A.mod) if rng.random() < 0.2 else 0 for _ in range(A.n)])
        u = A.add(A.one, x)
        if A.is_unit(u):
            d = len(out) % 2
            out.append(window_from_psi(fr, d, 1 - d, [[u]]))
    return out


@pytest.mark.parametrize("cap", [4, 5])
def test_hom_space_modulo_relations_matches_slack_reference(cap):
    # (x, y)^2 over Z/8: at cap 4 the relation span is a direct summand
    # (Smith exponents 0 or m), at cap 5 it has exponents 0 < e < m; on both,
    # solving without the relations changes some of these hom groups
    fr = xy2_frame(2, 3, cap)
    rank1 = seeded_rank1_windows(fr, 3, seed=cap)
    shape = (1, 1)
    nonzero = 0
    for v, w in iproduct(rank1, repeat=2):
        for mode in ("window", "phi_module"):
            got = hom_space(v, w, mode).generators
            want = hom_generators_slack(v, w, mode)
            assert hom_span_key(fr.A, 2, 3, got, shape) == hom_span_key(fr.A, 2, 3, want, shape), (
                cap, mode, v.d, v.psi, w.d, w.psi,
            )
            nonzero += bool(got)
    assert nonzero


def test_membership_rows_of_carrier_relation_spans():
    # the PD and D(1)_2 relation spans of (x, y)^2 over Z/8 at cap 5: x lies
    # in the span exactly when the membership rows kill it
    rng = random.Random(31)
    fr = xy2_frame(2, 3, 5)
    for A in (fr.A, square_zero_frame(fr, NablaContext(fr).diff).A):
        nf = A.relations
        R = nf.reduced_basis()
        assert any(0 < e < 3 for e in diagonalize(R, 2, 3)[3])  # not a direct summand
        T = nf.membership_rows()
        n = A.coord_count()
        vecs = [[rng.randrange(8) for _ in range(n)] for _ in range(10)]
        for _ in range(20):
            coeffs = rng.choices(range(8), k=len(R))
            x = [sum(c * r[i] for c, r in zip(coeffs, R)) % 8 for i in range(n)]
            y = list(x)
            y[rng.randrange(n)] += rng.choice((1, 2, 4))
            vecs += [x, y]
        for x in vecs:
            killed = all(sum(a * b for a, b in zip(t, x)) % 8 == 0 for t in T)
            assert killed == nf.contains(x)
        assert sum(map(nf.contains, vecs)) >= 20


def test_hom_affine_pins_coordinates():
    # `hom_affine` with coordinate-selection side rows solves the system of
    # `hom_space` with those coordinates pinned: pinned nowhere it spans the
    # hom group; pinned to a hom's coordinates at entry (0, 0) its particular
    # is a hom taking them and its kernel the homs vanishing there; pinned to
    # a unit where the group is zero it has no solution
    pairs = list(iproduct(unit_windows(pd_x_frame(2, 2, 2)), repeat=2))
    z8 = zframe(2, 3)
    pairs.append((supersingular(z8), supersingular(z8)))
    pinned_homs = empty = 0
    for v, w in pairs:
        A = v.frame.A
        p, m, nc = A.p, A.coord_precision(), A.coord_count()
        shape = (w.rank, v.rank)

        def as_G(vec):
            return windows._decode_G(A, vec, w.rank, v.rank, nc)

        def key(gens):
            return hom_span_key(A, p, m, gens, shape)

        def pinned(values):
            select = np.eye(w.rank * v.rank * nc, dtype=np.int64)[list(values)]
            return windows.hom_affine(v, w, select, list(values.values()))

        gens = hom_space(v, w).generators
        part, kernel = pinned({})
        assert key([as_G(g) for g in kernel] + [as_G(part)]) == key(gens)
        for G in gens:
            flat = [c for row in G for x in row for c in A.coords(x)]
            part, kernel = pinned({c: flat[c] for c in range(nc)})
            P = as_G(part)
            assert part[:nc] == flat[:nc] and is_window_hom(v, w, P)
            assert all(not any(g[:nc]) for g in kernel)
            vanishing = [as_G(g) for g in kernel]
            assert key(vanishing + [mat_add(A, P, mat_map(A.neg, G))]) == key(vanishing)
            pinned_homs += 1
        if not gens:
            assert pinned({0: 1}) is None
            empty += 1
    assert pinned_homs >= 100 and empty >= 100, (pinned_homs, empty)


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
    # table coordinates: a Witt ring with relations and a quotient carrier
    eps = witt_frame(MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 2)
    yield eps.A, eps.sample_elements(8, seed=3)
    S = MonomialAlgebra(Residues(2, 1), [("Y", 2, 2)])
    quot = admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2)
    yield quot.A, quot.sample_elements(8, seed=3)


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
        # size() counts the elements: p^e for each cyclic factor Z/p^e
        assert A.size() == np.prod([p ** e for e in rels.smith()[3]], dtype=object), A
        for a in samples:
            assert len(A.coords(a)) == n
            assert A.from_coords(A.coords(a)) == a, (A, a)
            M = mult_matrix(A, a)
            for b in samples:
                got = [sum(M[i][j] * c for j, c in enumerate(A.coords(b))) for i in range(n)]
                want = A.coords(A.mul(a, b))
                assert rels.contains([(x - y) % mod for x, y in zip(got, want)]), (A, a, b)
