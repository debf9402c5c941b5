"""The projection to the Witt frame at ring level, desk scale.

Over a presentation of F_p the divided-power frame surjects onto the lift
frame of Z/p^m (the length-m Witt frame of F_p at ring level) by killing
the divided powers of the kernel generators; the kernel is exactly the
divided-power part and the map commutes with sigma and sigma1.
"""

from crystaframe.frames import FrameHom, lift_frame, validate_frame_hom
from crystaframe.pdenv import PDPresentation, build_pd_envelope, pd_frame
from crystaframe.residues import Residues
from crystaframe.windows import base_change, f_nilpotence, window_from_psi


def pi_to_witt_level(p=2, m=3, cap=6):
    env = build_pd_envelope(PDPresentation(p, m, ("x",), ((1,),), cap))
    src = pd_frame(env)
    tgt = lift_frame(Residues(p, m))
    zero_exp = (0,) * env.nvars
    unit_idx = env.index[(zero_exp, (0,) * env.s)]

    def fn(x):
        return x[unit_idx] % tgt.A.modulus

    hom = FrameHom(src, tgt, fn=fn, name="pi", section=env.embed_int)
    return src, tgt, hom, env


def test_pi_is_a_frame_homomorphism():
    src, tgt, hom, env = pi_to_witt_level()
    cert = validate_frame_hom(hom, n_samples=20, seed=6)
    assert cert.passed, cert.failures


def test_pi_kills_divided_powers_with_sigma1_compatibility():
    src, tgt, hom, env = pi_to_witt_level()
    for n in range(1, env.cap):
        xn = env.divided_generator(0, n)
        assert hom(xn) == 0
        # sigma1 of a kernel element maps to sigma1 of zero-witnessed p-part
        assert hom(src.sigma1(xn)) == 0


def test_f_nilpotence_transfers_through_pi():
    # F-nilpotent windows stay F-nilpotent under base change along pi
    src, tgt, hom, env = pi_to_witt_level()
    one, zero = env.one, env.zero
    mult = window_from_psi(src, 1, 0, [[one]])
    ss = window_from_psi(src, 1, 1, [[zero, one], [one, zero]])
    for w, idx in ((mult, 1), (ss, 2)):
        nil_src, i_src = f_nilpotence(w)
        img = base_change(hom, w)
        nil_tgt, i_tgt = f_nilpotence(img)
        assert nil_src and nil_tgt
        assert i_src == i_tgt == idx
    etale = window_from_psi(src, 0, 1, [[one]])
    assert not f_nilpotence(etale)[0]
    assert not f_nilpotence(base_change(hom, etale))[0]
