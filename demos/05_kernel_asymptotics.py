"""Heat-kernel asymptotics at regular and singular points.

The image-sum oracle is exact on the flat quotients, so the checks isolate
precisely the group contributions: exponentially small at regular points,
an |G_x| factor on the singular diagonal, and an order-one twisted Gaussian
correction in the sqrt(p)-neighborhood of the singular set.
"""

import math

import numpy as np

from orbmorse import build_catalog_orbifold
from orbmorse.verify import (oracle_consistency, singular_diagonal_factor,
                             verify_kernel_asymptotics_regular,
                             verify_kernel_asymptotics_singular)

print("== regular point of C/Z_2 at |x| = 1 ==")
orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
fit = verify_kernel_asymptotics_regular(orb, bundle, np.array([1.0 + 0j]), 1.0,
                                        [64, 128, 256, 512, 1024, 2048, 4096])
print("  log error of the limit density per power p:")
for p, le in zip(fit.p_window, fit.log_errors):
    print(f"    p={p:5d}: log err = {le:10.1f}")
print(f"  fitted log-log slope {fit.slope:.1f} << -1/2 (exponential decay)")

print("\n== singular diagonal factor: the kernel sees |G_x| ==")
for k in (2, 3):
    orb_k, bun_k = build_catalog_orbifold("local-model", k=k, a=(1.0,))
    for p in (64, 256, 1024):
        r = singular_diagonal_factor(orb_k, bun_k, np.array([0.0j]), 1.0, p)
        print(f"  k={k}, p={p:5d}: kernel / limit = {r:.12f}")

print("\n== twisted Gaussian correction at sqrt(p)|Z| = 1 ==")
orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
for p in (256, 1024):
    Z = np.array([1.0 / math.sqrt(p) + 0j])
    rec = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [p])[0]
    print(f"  p={p:5d}: residual without twist {rec.residual_without_twist:.3e}, "
          f"with twist {rec.residual_with_twist:.3e}")

print("\n== two independent oracles for the torus quotient diagonal ==")
orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
for p, u in [(4, 1.0), (8, 0.5), (8, 1.0)]:
    gap = oracle_consistency(orb, bundle, 0.21 + 0.33j, u, p)
    print(f"  p={p}, u={u}: |spectral - image sum| / identity term = {gap:.2e}")
