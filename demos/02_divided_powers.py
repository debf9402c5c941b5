"""Divided-power envelopes: normal forms, the divided Frobenius, torsion.

Run:  python3 demos/02_divided_powers.py
"""

import math

from crystaframe import (
    PDPresentation,
    Residues,
    build_pd_envelope,
    divided_power_constant,
    pd_frame,
    pd_torsion_probe,
)

print("== The free envelope: Z/8[x] with kernel (2, x), cap 6 ==")
env = build_pd_envelope(PDPresentation(2, 3, ("x",), ((1,),), 6))
x1 = env.divided_generator(0, 1)
x2 = env.divided_generator(0, 2)
x3 = env.divided_generator(0, 3)
print("basis size:", env.n, " relation rows:", len(env.relations.basis()))
print("x^[2] * x^[3] = C(5,2) x^[5] = 10 x^[5]:",
      env.mul(x2, x3) == env.int_mul(10, env.divided_generator(0, 5)))
print("x^2 = 2! x^[2]:",
      env.mul(env.variable('x'), env.variable('x')) == env.int_mul(2, x2))
print("p^[2] p^[1] = 3 gamma_3(2) = 4 mod 8:",
      env.gamma_p(2) * env.gamma_p(1) % env.mod == 4, "\n")

print("== The divided Frobenius: sigma1(x^[n]) = c_n x^[pn] ==")
frame = pd_frame(env)
ring = Residues(2, 3)
for n in (1, 2):
    cn = divided_power_constant(n, ring)
    got = frame.sigma1(env.divided_generator(0, n))
    print(f"n={n}: c_n = (2n)!/(n! 2) = {math.factorial(2*n)//(math.factorial(n)*2)}"
          f" = {cn} mod 8; formula holds:",
          got == env.int_mul(cn, env.divided_generator(0, 2 * n)))
print("sigma1(p) = 1:", frame.sigma1(frame.p_elt) == env.one, "\n")

print("== Torsion: regular kernels are free, (x,y)^2 is not ==")
reg = pd_torsion_probe(env)
print("regular probe: torsion generators =", len(reg.torsion_generators),
      " free rank =", reg.free_rank)
envT = build_pd_envelope(PDPresentation(2, 2, ("x", "y"), ((2, 0), (1, 1), (0, 2)), 4))
rep = pd_torsion_probe(envT)
print("F_2[x,y]/(x,y)^2 presentation at cap 4: torsion generators =", len(rep.torsion_generators),
      " factor orders =", rep.factor_orders, " free rank =", rep.free_rank, "of", envT.n)
print("(free at this truncation: the torsion element below has divided degree 4,"
      " so cap 5 is the first to keep it; at degree one x^2 * y^2 = (xy)^2 is derivable)")
b1 = envT.mul(envT.divided_generator(0, 1), envT.divided_generator(2, 1))
print("  g1 g3 = 2 g2^[2]:", b1 == envT.int_mul(2, envT.divided_generator(1, 2)))
envT5 = build_pd_envelope(PDPresentation(2, 3, ("x", "y"), ((2, 0), (1, 1), (0, 2)), 5))
g2 = envT5.mul(envT5.divided_generator(0, 2), envT5.divided_generator(2, 2))
g4 = envT5.divided_generator(1, 4)
diff = envT5.sub(g2, envT5.int_mul(6, g4))
print("but gamma_2(x^2) gamma_2(y^2) - C(4,2) gamma_4(xy) is honest 2-torsion:",
      diff != envT5.zero and envT5.int_mul(2, diff) == envT5.zero)
rep5 = pd_torsion_probe(envT5)
print("cap 5, Z/8: torsion generators =", len(rep5.torsion_generators),
      " factor orders =", rep5.factor_orders, " free rank =", rep5.free_rank, "of", envT5.n)
print("each reported t satisfies p*t = 0 with t outside the span of the relations"
      " and of the p^(m-1) multiples --", rep5.note)
