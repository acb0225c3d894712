"""Closed-form model heat kernels and their limits.

Evaluates the diagonal density, the two-point Mehler kernel, the group
twisted Gaussian, and the large-time collapse onto the signature regions.
"""

import math

import numpy as np

from orbmorse import (ModelPoint, heat_diagonal_limit, model_heat_kernel,
                      signature_limit_density, twisted_gaussian)

print("== diagonal density (2 pi)^{-n} prod a_j/(1 - e^{-u a_j}) tr_q ==")
for a, q in [((1.0,), 0), ((1.0, 2.0), 0), ((-1.0, 2.0), 1)]:
    for u in (0.5, 1.0, 5.0):
        val = heat_diagonal_limit(ModelPoint(a, u), q).trace
        print(f"  a={a} q={q} u={u}: {val:.8f}")

print("\n== zero curvature keeps the 1/(2 pi u) free density ==")
for u in (0.5, 1.0, 2.0):
    print(f"  u={u}: {heat_diagonal_limit(ModelPoint((0.0,), u), 0).trace:.8f}"
          f"  vs 1/(2 pi u) = {1/(2*math.pi*u):.8f}")

print("\n== large-time limit picks out the signature region ==")
for a in [(1.0, 2.0), (-1.0, 2.0)]:
    for q in (0, 1):
        at50 = heat_diagonal_limit(ModelPoint(a, 50.0), q).trace
        lim = signature_limit_density(a, q)
        print(f"  a={a} q={q}: integrand(50) = {at50:.8f}, limit = {lim:.8f}")

print("\n== twisted Gaussian for the half turn ==")
pt = ModelPoint((1.0,), 1.0, group_phases=(math.pi,))
for r in (0.0, 0.5, 1.0, 2.0):
    val = twisted_gaussian(pt, np.array([r + 0.0j]))
    print(f"  |Z| = {r}: E = {val.real:.3e}")

print("\n== the twisted kernel factorizes as prefactor times E ==")
z = np.array([0.8 + 0.3j])
twisted = model_heat_kernel(pt, z, z)
pref = heat_diagonal_limit(ModelPoint((1.0,), 1.0), 0).trace
print(f"  K(-Z, Z) = {twisted.real:.10f}")
print(f"  prefactor * E = {(pref * twisted_gaussian(pt, z)).real:.10f}")

print("\n== a third-root twist is complex; conjugate elements pair up ==")
pt3 = ModelPoint((1.0,), 1.0, group_phases=(2 * math.pi / 3,))
pt3c = ModelPoint((1.0,), 1.0, group_phases=(-2 * math.pi / 3,))
v = twisted_gaussian(pt3, z)
vc = twisted_gaussian(pt3c, z)
print(f"  E(g) = {v:.6f};  E(g^2) = {vc:.6f};  sum imag = {(v+vc).imag:.2e}")
