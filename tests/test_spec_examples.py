"""Remaining operation examples pinned straight from their contracts."""

import pytest

from crystaframe.frames import (
    AdmissibleSequence,
    FrameHom,
    admissible_quotient_frame,
    witt_frame,
)
from crystaframe.matrices import mat
from crystaframe.monomial import MonomialAlgebra
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.residues import GaloisField, Residues
from crystaframe.windows import (
    Window,
    base_change,
    lift_hom_along,
    lift_window_along,
    validate_window,
    window_from_psi,
)


def test_witt_frame_perfect_base_sigma_bijective():
    F4 = MonomialAlgebra(GaloisField(2, 2), [])
    fr = witt_frame(F4, 2)
    images = {fr.sigma(x) for x in fr.A.elements()}
    assert len(images) == fr.A.size()


def test_pd_sum_axiom_two_variables():
    # (x+y)^2 = 2 (x^[2] + x y + y^[2]): the sum family, division-free
    env = build_pd_envelope(PDPresentation(2, 3, ("x", "y"), ((1, 0), (0, 1)), 4))
    x = env.divided_generator(0, 1)
    y = env.divided_generator(1, 1)
    s = env.add(x, y)
    lhs = env.mul(s, s)
    rhs = env.int_mul(
        2,
        env.add(
            env.add(env.divided_generator(0, 2), env.mul(x, y)),
            env.divided_generator(1, 2),
        ),
    )
    assert lhs == rhs


def test_pd_frame_safe_subbasis():
    env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 6))
    fr = pd_frame(env)
    # x^[n] is safe iff 2n < cap: n in {1, 2} here (n = 0 has no T part)
    safe_n = sorted(env.basis[i][1][0] for i in fr.safe_subbasis)
    assert safe_n == [1, 2]


def test_quotient_kernel_sigma1_stable():
    # v(y) lies in the kernel of W_n(S) -> A(J_*) iff y's components sit in
    # the shifted sequence, so sigma1 = v^{-1} keeps the kernel stable
    S = MonomialAlgebra(Residues(2, 1), [("Y", 2, 2)])
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    fr = admissible_quotient_frame(seq, 2)
    W = fr.A.W
    count = 0
    for y in W.shorter(1).elements():
        vy = W.verschiebung(y)
        if fr.A.reduce(vy) == fr.A.zero:  # v(y) in the kernel
            val = fr.sigma1(fr.A.reduce(vy)) if fr.ideal_contains(fr.A.reduce(vy)) else None
            # the sigma1 value must be zero in the codomain quotient
            assert val == fr.sigma1_codomain.zero
            count += 1
    assert count > 0


def test_base_change_witt_to_quotient_revalidates():
    S = MonomialAlgebra(Residues(2, 1), [("Y", 0, 2)])
    seq = AdmissibleSequence.minimal(S, [S.gen("Y")], 2)
    qf = admissible_quotient_frame(seq, 2)
    wf = witt_frame(S, 2)
    hom = FrameHom(wf, qf, fn=qf.A.reduce, cod_fn=qf.sigma1_codomain.reduce, name="proj")
    for d, t in ((0, 1), (1, 0)):
        w = window_from_psi(wf, d, t, [[wf.A.one]])
        img = base_change(hom, w)
        assert (img.d, img.t) == (d, t)
        assert validate_window(img)


def test_lift_along_identity_returns_input():
    S = MonomialAlgebra(Residues(2, 1), [])
    fr = witt_frame(S, 2)
    ident = FrameHom(fr, fr, fn=lambda x: x, name="id", section=lambda x: x)
    w = window_from_psi(fr, 1, 0, [[fr.A.one]])
    lifted = lift_window_along(ident, w)
    assert lifted.psi == w.psi
    rep = lift_hom_along(ident, w, w, mat([[fr.A.one]]))
    assert rep.unique and rep.lifted == mat([[fr.A.one]])


def test_pd_envelope_rejects_cap_insufficiency():
    from crystaframe.pdenv import PDError

    with pytest.raises(PDError):
        build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 1))
