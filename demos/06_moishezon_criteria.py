"""Moishezon criteria, bigness, and Kodaira map ranks on the catalog."""

import numpy as np

from orbmorse import (OrbmorseError, bigness_check, build_catalog_orbifold,
                      cohomology_table, kodaira_rank, moishezon_check,
                      siegel_bound, signature_integrals)

powers = sorted({int(round(x)) for x in np.geomspace(2, 4096, 40)})

entries = [
    ("P(1,2) with its degree-1 bundle", "wps", dict(weights=(1, 2))),
    ("P(1,1) with a signature dent", "wps",
     dict(weights=(1, 1), dent={"amplitude": 1.2, "center": 0.45, "width": 0.12})),
    ("torus with the trivial flat bundle", "torus", dict(d=0, k=1)),
    ("torus with a degree-1 bundle", "torus", dict(d=1, k=1)),
]

for label, cid, params in entries:
    orb, bundle = build_catalog_orbifold(cid, **params)
    v = moishezon_check(signature_integrals(orb, bundle, resolution=192))
    print(f"== {label} ==")
    print(f"  semi-positive: {v.semipositive}, positive somewhere: "
          f"{v.positive_at_point}, integral over M(<=1): {v.integral_leq1:.4f}")
    print(f"  verdict: {v.verdict}")
    try:
        table = cohomology_table(orb, list(range(1, 9)) + powers)
        est = bigness_check(table, orb.dimension)
        ranks = {p: kodaira_rank(orb, bundle, p) for p in range(1, 6)
                 if table.h(p, 0) >= 1}
        print(f"  bigness estimate {est.limsup_estimate:.4f} "
              f"(noise floor {est.noise_floor:.4f}) -> big = {est.big}")
        print(f"  Kodaira map ranks: {ranks}")
    except OrbmorseError as exc:
        print(f"  section counting unavailable: {exc}")
    print()

print("Jet-interpolation bound: dim H^0 <= m binom(n + k, k)")
for m, n, k in [(1, 1, 0), (3, 2, 2), (5, 1, 12)]:
    print(f"  m={m}, n={n}, k={k}: bound {siegel_bound(m, n, k)}")
