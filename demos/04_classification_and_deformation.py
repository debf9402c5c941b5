"""Exhaustive window classification and deformation along a nilpotent kernel.

Run:  python3 demos/04_classification_and_deformation.py
"""

from collections import Counter

from crystaframe import (
    FrameHom,
    MonomialAlgebra,
    Residues,
    Window,
    base_change,
    classify_windows,
    hom_space,
    lift_frame,
    lift_hom_along,
    lift_window_along,
    witt_frame,
)

print("== The frozen golden: rank-1 windows over (Z/4, 2Z/4, F_2, id) ==")
fr = lift_frame(Residues(2, 2))
table = classify_windows(fr, 1)
for c in table.classes:
    print(f"  d={c.d} t={c.t} Psi={c.psi[0][0]}  (orbit size {c.orbit_size})")
print("exactly 4 classes:", len(table.classes) == 4, "\n")

print("== Rank 2 over Z/8: orbit enumeration of all invertible Psi ==")
fr8 = lift_frame(Residues(2, 3))
t2 = classify_windows(fr8, 2, budget=1 << 22)
print("classes by (d, t):", dict(Counter((c.d, c.t) for c in t2.classes)))
print("orbit sizes sum to |GL_2(Z/8)| per sector:",
      sum(c.orbit_size for c in t2.classes if c.d == 0), "\n")

print("== Deformation: W_2(F_2[eps]/(eps^2)) -> W_2(F_2) ==")
Re = MonomialAlgebra(Residues(2, 1), [("e", 0, 2)])
R0 = MonomialAlgebra(Residues(2, 1), [])
src, tgt = witt_frame(Re, 2), witt_frame(R0, 2)

def proj(x):
    return tuple(tuple(((), v) for exps, v in comp if not any(exps)) for comp in x)

hom = FrameHom(src, tgt, fn=proj,
               cod_fn=lambda y: tuple(tuple(((), v) for e, v in c if not any(e)) for c in y),
               name="eps->0",
               section=lambda x: tuple(tuple(((0,), v) for _, v in c) for c in x))

t_src = classify_windows(src, 1, budget=1 << 16)
t_tgt = classify_windows(tgt, 1, budget=1 << 12)
print("rank-1 classes: source", len(t_src.classes), " target", len(t_tgt.classes),
      " (in bijection under base change)")

w_t = Window(tgt, 1, 0, ((tgt.A.one,),))
v_s = lift_window_along(hom, w_t)
print("window lifted; reduces back:", base_change(hom, v_s).psi == w_t.psi)
for G in hom_space(w_t, w_t, "window", budget=1 << 12).elements():
    rep = lift_hom_along(hom, v_s, v_s, G)
    print(f"hom {G[0][0]} lifts uniquely:", rep.unique)
