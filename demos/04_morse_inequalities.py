"""Both sides of the Morse inequalities on the catalog.

First the exact finite-p trace chain on the torus quotient, then the
asymptotic strong inequalities against curvature integrals on weighted
projective lines.
"""

from orbmorse import (build_catalog_orbifold, cohomology_table, morse_integral,
                      signature_integrals)
from orbmorse.verify import exact_chain_residuals, verify_strong_morse

print("== exact trace chain on the half-turn torus quotient ==")
orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
for p in (4, 8, 16):
    for u in (0.5, 1.0, 5.0):
        r = exact_chain_residuals(orb, bundle, p, u)
        print(f"  p={p:3d} u={u}: r_0 = {r[0]:+.3e} (>= 0), r_1 = {r[1]:+.1e} (= 0)")

print("\n== strong Morse series: Morse sums against curvature integrals ==")
for weights, chern in [((1, 1), "1"), ((1, 2), "1/2")]:
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    powers = [64, 256, 1024, 4096]
    series = verify_strong_morse(orb, 1, powers,
                                 signature_integrals(orb, bundle, resolution=192),
                                 cohomology_table(orb, powers))
    print(f"  P{weights}: curvature integral over M(<=1) = "
          f"{series.integral:.6f} (= {chern})")
    # the gate bounds max(rho_p, 0) by 2/p: p * rho_p is at most 2 at every power
    for p, rho in zip(series.p_list, series.residuals):
        print(f"    p={p:5d}: residual {rho:+.6e}, p * rho_p = {p * rho:+.4f}")

print("\n== the signature-region integrals telescope ==")
orb, bundle = build_catalog_orbifold("wps", weights=(1, 1),
                                     dent={"amplitude": 1.2, "center": 0.45,
                                           "width": 0.12})
i0 = morse_integral(orb, bundle, {0}, resolution=192)
i1 = morse_integral(orb, bundle, {1}, resolution=192)
i01 = morse_integral(orb, bundle, {0, 1}, resolution=192)
print(f"  dented P(1,1): I(0) = {i0:.6f}, I(1) = {i1:.6f}, "
      f"I(0)+I(1) - I(<=1) = {i0 + i1 - i01:.2e}")
