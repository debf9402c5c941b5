import random

import pytest

from crystaframe.frames import (
    AdmissibleSequence,
    FrameError,
    FrameHom,
    LiftFrame,
    QuotientFrame,
    WittFrame,
    admissible_quotient_frame,
    frame_axiom_failures,
    lift_frame,
    sigma1_nilpotence_index,
    validate_frame_hom,
    witt_frame,
)
from crystaframe.linalg import SpanNF
from crystaframe.monomial import MonomialAlgebra
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.residues import GaloisField, Residues
from crystaframe.witt import WittRing


def F2():
    return MonomialAlgebra(Residues(2, 1), [])


def F4():
    return MonomialAlgebra(GaloisField(2, 2), [])


def F2x3():
    return MonomialAlgebra(Residues(2, 1), [("x", 0, 3)])


def truncated_semiperfect():
    """S = F_2[Y^{1/4}]/(Y^2), the bundled truncated perfection."""
    return MonomialAlgebra(Residues(2, 1), [("Y", 2, 2)])


def check_frame_axioms(frame, budget=512):
    """The library battery on 12 samples (seed 1): no axiom may fail."""
    failures, _, _ = frame_axiom_failures(frame, budget, n_samples=12, seed=1)
    assert not failures, failures


def test_witt_frame_f2_is_z4():
    fr = witt_frame(F2(), 2)
    W = fr.A
    # carrier has 4 elements, I = {0, v(1)}
    assert W.size() == 4
    two = W.int_mul(2, W.one)
    assert fr.ideal_contains(two)
    # sigma1(2) = 1 in W_1 = F_2
    assert fr.sigma1(two) == (W.base.one,)
    check_frame_axioms(fr)


def test_witt_frame_exhaustive_p_sigma1():
    for R in (F2(), F4(), F2x3()):
        fr = witt_frame(R, 2)
        for g in fr.ideal_spanning(1 << 12):
            assert fr.frame_axiom_p_sigma1(g)


def test_witt_frame_rejects_bad_input():
    with pytest.raises(FrameError):
        witt_frame(F2(), 1)
    with pytest.raises(FrameError):
        witt_frame(MonomialAlgebra(Residues(2, 2), [("x", 0, 2)]), 2)


def test_lift_frame_z8():
    fr = lift_frame(Residues(2, 3))
    # sigma = id: sigma1(p*a) = a on certified decompositions
    for a in range(8):
        assert fr.sigma1_witnessed(a) == a
    # p*sigma1 = sigma on pA, exhaustively
    for i in (0, 2, 4, 6):
        assert fr.frame_axiom_p_sigma1(i)
    check_frame_axioms(fr)


def test_lift_frame_witt_of_f4():
    W = WittRing(F4(), 2)
    fr = lift_frame(W)
    # sigma1(p*a) = F(a)
    for a in list(W.elements())[:32]:
        pa = W.int_mul(2, a)
        assert fr.sigma1_witnessed(a) == W.frobenius_charp(a)
        assert fr.frame_axiom_p_sigma1(pa)


def test_lift_frame_rejects_torsion():
    W = WittRing(F2x3(), 2)  # non-perfect base: p-torsion beyond p^{n-1}
    with pytest.raises(FrameError):
        lift_frame(W)


def test_admissible_sequence_validation():
    S = truncated_semiperfect()
    J = [S.gen("Y")]
    seq = AdmissibleSequence.minimal(S, J, 2)
    assert len(seq.ideals) == 2
    # K_i = S is rejected
    with pytest.raises(FrameError):
        AdmissibleSequence.from_generators(S, [[S.one], [S.one]])
    # non-admissible: K_1 too big for K_0^p ... K_0 = (Y^{1/4}), K_1 = (Y^2)=0 fine;
    # K_0 = (Y^{1/4}) has K_0^2 = (Y^{1/2}) which is not inside (Y)
    with pytest.raises(FrameError):
        AdmissibleSequence.from_generators(
            S, [[S.gen("Y", power=__import__("fractions").Fraction(1, 4))], [S.gen("Y")]]
        )


def test_quotient_frame_axioms():
    S = truncated_semiperfect()
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    fr = admissible_quotient_frame(seq, 2)
    # carrier is a finite ring
    assert fr.A.size() == 4096
    gens = fr.ideal_spanning(64)
    for g in gens:
        assert fr.frame_axiom_p_sigma1(g)
    # sigma1 sigma-linearity at the dropped level
    samples = fr.sample_elements(6, seed=3)
    for k, a in enumerate(samples):
        defect = fr.sigma_linear_defect(a, gens[k % len(gens)])
        assert defect == fr.sigma1_codomain.zero


def test_quotient_frame_zero_sequence_is_witt():
    # K_i = 0: the quotient frame is the Witt frame of S
    S = MonomialAlgebra(Residues(2, 1), [("Y", 0, 2)])
    zero_seq = AdmissibleSequence(S, ((), ()))
    fr = admissible_quotient_frame(zero_seq, 2)
    wf = witt_frame(S, 2)
    assert fr.A.size() == wf.A.size()
    for x in list(wf.A.elements())[:64]:
        assert fr.A.reduce(x) == x  # no reduction happens
        assert fr.sigma(x) == wf.sigma(x)


def test_quotient_frame_degenerate_rejected():
    S = truncated_semiperfect()
    with pytest.raises(FrameError):
        AdmissibleSequence.from_generators(S, [[S.one], [S.one]])
    # over Z/4 coefficients the componentwise Frobenius is not a ring map
    S = MonomialAlgebra(Residues(2, 2), [("Y", 2, 2)])
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    with pytest.raises(FrameError, match="characteristic-p"):
        admissible_quotient_frame(seq, 2)


def test_kernel_of_projection_is_sigma1_stable():
    # kernel of W_n(S) -> A(J_*) is sigma1-stable (v^{-1} shifts the sequence)
    S = truncated_semiperfect()
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    fr = admissible_quotient_frame(seq, 2)
    W = fr.A.W
    # kernel elements: Witt vectors with components in K_i
    Y = S.gen("Y")
    for a0 in (Y, S.mul(Y, S.gen("Y", power=__import__("fractions").Fraction(1, 4)))):
        x = (a0, S.zero)
        assert fr.A.reduce(x) == fr.A.zero  # in the kernel
        v_img = W.verschiebung((a0,))
        # v(a0) has component in K_0 not K_1, so it is NOT in the kernel;
        # but v of a K_1 element is
    k1 = S.zero  # J^2 = 0 here
    assert fr.A.reduce(W.verschiebung((k1,))) == fr.A.zero


def test_witness_pair_divides_sigma_by_p():
    # p*s1(h) = sigma(wit(h)) at full length, on every kind with witnesses
    S = truncated_semiperfect()
    pd = pd_frame(build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 6)))
    for fr in (
        lift_frame(Residues(2, 3)),
        lift_frame(WittRing(F4(), 2)),
        witt_frame(MonomialAlgebra(Residues(2, 1), [("e", 0, 2)]), 2),
        witt_frame(F2(), 3),
        admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2),
        pd,
    ):
        A = fr.A
        for h in fr.sample_elements(12, seed=5):
            assert fr.ideal_contains(fr.wit(h)), (fr.name, h)
            assert A.int_mul(fr.p, fr.s1(h)) == fr.sigma(fr.wit(h)), (fr.name, h)


def test_quotient_wit_is_defined_modulo_its_slack():
    # v does not descend to A(K_*): some Witt vectors k of W_2(K_*), which
    # represent zero, have wit(k) = v(k_0) != 0, as K_0 = (Y) is not inside
    # K_1 = (Y^2) = 0.  Every such value lies in the span of `wit_slack`.
    S = truncated_semiperfect()
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    fr = admissible_quotient_frame(seq, 2)
    A = fr.A
    span = SpanNF(A.coord_count(), fr.p, A.coord_precision())
    for r in list(A.relations.basis()) + [A.coords(x) for x in fr.wit_slack]:
        span.insert(r)
    ideal = [[x for x in S.elements() if all(seq.monomial_in_ideal(e, i) for e, _ in x)] for i in range(2)]
    values = [fr.wit((k0, k1)) for k0 in ideal[0] for k1 in ideal[1]]
    assert len(values) == 16 and sum(x != A.zero for x in values) == 15
    assert all(span.contains(A.coords(x)) for x in values)


def test_frame_hom_projection_witt_to_quotient():
    S = truncated_semiperfect()
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    qf = admissible_quotient_frame(seq, 2)
    wf = witt_frame(S, 2)
    hom = FrameHom(wf, qf, fn=lambda x: qf.A.reduce(x), cod_fn=lambda y: qf.sigma1_codomain.reduce(y), name="proj")
    cert = validate_frame_hom(hom, n_samples=16, seed=2)
    assert cert.passed, cert.failures


def test_frame_hom_identity_passes():
    fr = lift_frame(Residues(2, 3))
    hom = FrameHom(fr, fr, fn=lambda x: x, name="id")
    cert = validate_frame_hom(hom)
    assert cert.passed


def test_frame_hom_negative_control():
    fr = lift_frame(Residues(2, 3))
    bad = FrameHom(fr, fr, fn=lambda x: (3 * x) % 8, name="times3")
    cert = validate_frame_hom(bad)
    assert not cert.passed
    kinds = {k for k, _ in cert.failures}
    assert kinds  # witnesses reported


def test_sigma1_nilpotence_pd_divided_powers():
    # N = (divided powers of x): sigma1^2 = 0 mod p on N
    env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 8))
    fr = pd_frame(env)
    N_gens = [env.divided_generator(0, n) for n in range(1, env.cap)]
    rep = sigma1_nilpotence_index(fr, N_gens)
    assert rep.nilpotent
    assert rep.index == 2


def test_sigma1_nilpotence_zero_ideal():
    fr = lift_frame(Residues(2, 3))
    rep = sigma1_nilpotence_index(fr, [])
    assert rep.nilpotent and rep.index == 0


def test_sigma1_not_nilpotent_on_whole_ideal():
    # N = pA in the lift frame over F_p with sigma = id: sigma1 fixes units
    fr = lift_frame(Residues(2, 3))
    rep = sigma1_nilpotence_index(fr, [fr.p_elt])
    assert not rep.nilpotent


def test_nilpotence_monotone_under_inclusion():
    env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 8))
    fr = pd_frame(env)
    small = [env.divided_generator(0, n) for n in range(2, env.cap)]
    big = [env.divided_generator(0, n) for n in range(1, env.cap)]
    r_small = sigma1_nilpotence_index(fr, small)
    r_big = sigma1_nilpotence_index(fr, big)
    assert r_small.nilpotent and r_big.nilpotent
    assert r_small.index <= r_big.index


def test_pd_frame_axioms():
    for p, m in [(2, 3), (3, 3)]:
        env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), 8))
        fr = pd_frame(env)
        for g in fr.ideal_spanning():
            assert fr.frame_axiom_p_sigma1(g)
        check_frame_axioms(fr, budget=64)


def test_pd_sigma1_linearity_loses_one_digit():
    # why the battery allows PD frames a sigma1-linearity defect divisible by
    # p^(m-1): on Z/8<x> at cap 8 the defect is really nonzero
    env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 8))
    fr = pd_frame(env)
    a = (6, 6, 0, 1, 4, 6, 1, 1)
    assert fr.p_elt == (2, 0, 0, 0, 0, 0, 0, 0)
    assert fr.sigma_linear_defect(a, fr.p_elt) == (4, 0, 0, 0, 0, 0, 0, 0)
    # uniform elements against uniform ideal generators: 12 of 200 defects
    # are nonzero, and each is divisible by 4 = p^(m-1)
    rng = random.Random(5)
    gens = fr.ideal_spanning()
    defects = []
    for _ in range(200):
        x = tuple(rng.randrange(env.mod) for _ in range(env.n))
        defects.append(fr.sigma_linear_defect(x, gens[rng.randrange(len(gens))]))
    nonzero = [d for d in defects if d != env.zero]
    assert len(nonzero) == 12
    assert all(c % 4 == 0 for d in nonzero for c in d)


@pytest.mark.parametrize("kind", ["witt", "quotient", "lift-witt"])
def test_sigma1_nilpotence_scope(kind):
    # sigma1 drops a level (Witt, quotient) or the carrier has only table
    # coordinates (lift over W(k)): rejected at entry
    if kind == "witt":
        fr = witt_frame(F2(), 2)
    elif kind == "quotient":
        S = truncated_semiperfect()
        fr = admissible_quotient_frame(AdmissibleSequence.minimal(S, [S.gen("Y")], 2), 2)
    else:
        fr = lift_frame(WittRing(F4(), 2))
    with pytest.raises(FrameError):
        sigma1_nilpotence_index(fr, [fr.p_elt])



def test_quotient_p_image_is_shifted_frobenius():
    # p*x = V(F(x)) over the characteristic-2 ring of witt_frame_f2.scn's Q,
    # against multiplication by p on every element of the carrier
    from pathlib import Path

    from crystaframe.scenario import parse_scenario, validate_scenario

    text = (Path(__file__).resolve().parents[1] / "scenarios" / "witt_frame_f2.scn").read_text()
    fr = validate_scenario(parse_scenario(text))["frames"]["Q"]
    assert isinstance(fr, QuotientFrame)
    image = fr.p_image_set()
    assert image == {fr.A.int_mul(fr.p, x) for x in fr.A.elements()}
    assert fr.A.zero in image and len(image) < fr.A.size()
    # the set lives on the frame: a second frame builds its own
    assert fr.p_image_set() is image
    twin = admissible_quotient_frame(fr.seq, fr.n)
    assert twin.p_image_set() is not image and twin.p_image_set() == image
