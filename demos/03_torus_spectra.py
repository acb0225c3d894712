"""Exact spectra of the Kodaira Laplacian on torus quotients.

Shows the Landau-level structure, the invariant multiplicities under the
half turn, heat traces, and the exact trace chain: dbar pairs degree-0 level
L with degree-1 level L - 1, so r_0 >= 0 and r_1 = 0.
"""

from orbmorse import assemble_kodaira_laplacian, build_catalog_orbifold, heat_trace
from orbmorse.verify import exact_chain_residuals

d, p = 1, 8
for k in (1, 2):
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    op0 = assemble_kodaira_laplacian(orb, bundle, p, 0, 16)
    op1 = assemble_kodaira_laplacian(orb, bundle, p, 1, 16)
    print(f"== torus, degree d={d}, power p={p}, quotient order k={k} ==")
    print("  degree 0 levels (lambda, mult):", op0.spectral_table()[:4])
    print("  degree 1 levels (lambda, mult):", op1.spectral_table()[:3])
    print(f"  kernel dimensions: h0 = {op0.zero_dim}, h1 = {op1.zero_dim}")
    for u in (0.5, 1.0, 5.0):
        print(f"  heat traces at u={u}: deg0 {heat_trace(op0, u):.6f}, "
              f"deg1 {heat_trace(op1, u):.6f}")
    residuals = exact_chain_residuals(orb, bundle, p, 1.0, 16)
    print(f"  exact chain residuals at u=1.0: r0 = {residuals[0]:.6f}, "
          f"r1 = {residuals[1]:.1e}\n")

print("The k = 2 kernel dimensions reproduce the invariant theta count")
orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
for p in range(1, 9):
    op = assemble_kodaira_laplacian(orb, bundle, p, 0, 8)
    print(f"  p={p}: h0 = {op.zero_dim}  (floor(p/2) + 1 = {p // 2 + 1})")
