"""Tour of the built-in orbifold catalog.

Builds the three model families, inspects isotropy groups and volume
densities, and integrates a few scalar fields with the group-corrected
quadrature.  Each integrand is one field per chart; built as a RadialField,
a field of |z|^2 alone, it lets the quadrature integrate every chart in
|z|^2: P(a, b) over its bump's support, and the square charts of the local
models and the torus as their inscribed disc plus the corners.  The C / Z_3
unit ball is that disc, so its volume lands on pi/3.
"""

import math

import numpy as np

from orbmorse import build_catalog_orbifold, orbifold_integrate, volume_density
from orbmorse.geometry import RadialField, constant_field

print("== cyclic quotient C / Z_3, flat metric, unit curvature ==")
orb, bundle = build_catalog_orbifold("local-model", k=3, a=(1.0,))
chart = orb.charts[0]
print(f"group order {chart.order}, curvature {bundle.curvature_scalars[0](0j)}")
unit_ball = RadialField(lambda r2: (r2 <= 1.0).astype(float))
ball = orbifold_integrate((unit_ball,), orb, resolution=400)
print(f"volume of the unit ball downstairs: {ball:.5f}  "
      f"(pi/3 = {math.pi/3:.5f}; off by {abs(ball - math.pi / 3):.1e})")

print("\n== weighted projective line P(1,2) ==")
orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
print("isotropy orders per chart:", [c.order for c in orb.charts])
print("distance from 0.3 in the singular chart to the singular set:",
      f"{orb.singular_distance(1, np.array([0.3+0j])):.3f}")
kappa = volume_density(orb.charts[0], np.array([1.0 + 0.0j]))
print(f"volume density at |z| = 1 in the regular chart: {kappa:.6f}")

print("\n== P(1,1) with the unit-volume profile ==")
orb, bundle = build_catalog_orbifold("wps", weights=(1, 1))
vol = orbifold_integrate((constant_field(1.0),) * len(orb.charts), orb, resolution=160)
print(f"total volume: {vol:.9f}  (normalized to 1; off by {abs(vol - 1.0):.1e})")

print("\n== square torus modulo the half turn ==")
orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
vol = orbifold_integrate((constant_field(1.0),), orb, resolution=64)
print(f"orbifold volume: {vol:.9f}  (cell volume 1 over |G| = 2; off by {abs(vol - 0.5):.1e})")
print("singular points are the four half-lattice points; distance from the",
      f"cell center: {orb.singular_distance(0, np.array([0.25+0.25j])):.4f}")
