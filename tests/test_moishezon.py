"""Geometric criteria, bigness estimates, Kodaira map ranks, Siegel bound."""

import math

import numpy as np
import pytest

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table, weighted_proj_h0
from orbmorse.curvature import curvature_spectrum, morse_integral, signature_integrals
from orbmorse.errors import ConfigurationError
from orbmorse.geometry import gauss_legendre_nodes
from orbmorse.moishezon import (_section_values_torus, bigness_check, kodaira_rank,
                                moishezon_check, section_growth_exponent,
                                siegel_bound)
from orbmorse.spectral import assemble_kodaira_laplacian, torus_eigenfunction_values
from swap_basis import invariant_basis

DENT = {"amplitude": 1.2, "center": 0.45 + 0.0j, "width": 0.12}


def bigness_powers(top=4096):
    return sorted({int(round(x)) for x in np.geomspace(2, top, 40)})


# ---------------------------------------------------------------------------
# criterion verdicts


def test_semipositive_weighted_line_is_moishezon_by_i():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    v = moishezon_check(signature_integrals(orb, bundle, resolution=128))
    assert v.verdict == "Moishezon-by-(i)"
    assert v.semipositive and v.positive_at_point
    assert v.integral_leq1 == pytest.approx(0.5, abs=1e-3)
    # (i) implies (ii): the integral witness is positive
    assert v.integral_leq1 > -v.quadrature_tolerance


def test_flat_trivial_bundle_is_inconclusive():
    orb, bundle = build_catalog_orbifold("torus", d=0, k=1)
    v = moishezon_check(signature_integrals(orb, bundle, resolution=64))
    assert v.verdict == "inconclusive"
    assert v.integral_leq1 == 0.0
    assert not v.positive_at_point


def test_mixed_signature_dent_is_moishezon_by_ii():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1), dent=DENT)
    v = moishezon_check(signature_integrals(orb, bundle, resolution=160))
    assert not v.semipositive
    assert v.min_eigenvalue_seen < -1.0
    assert v.verdict == "Moishezon-by-(ii)"
    assert v.integral_leq1 == pytest.approx(1.0, abs=1e-3)


def per_node_criteria(orb, bundle, resolution, tol):
    """Reference: every quadrature node in the support, one eigensolve each.

    Returns (verdict, semipositive, positive_at_point, min_eigenvalue_seen).
    """
    integral = morse_integral(orb, bundle, {0, 1}, resolution=resolution)
    min_eig = math.inf
    positive_at_point = False
    for k, chart in enumerate(orb.charts):
        nodes, _ = gauss_legendre_nodes(resolution, chart.box_radius)
        bumpw = np.asarray(chart.bump(nodes), dtype=float)
        for z, w in zip(nodes, bumpw):
            if w <= 1e-12:
                continue
            spec = curvature_spectrum(bundle, orb, np.atleast_1d(z), k, tol)
            low = float(spec.eigenvalues.min())
            min_eig = min(min_eig, low)
            if spec.signature == 0 and low > tol:
                positive_at_point = True
    semipositive = min_eig >= -tol
    if semipositive and positive_at_point:
        verdict = "Moishezon-by-(i)"
    elif integral > 1e-3:
        verdict = "Moishezon-by-(ii)"
    else:
        verdict = "inconclusive"
    return verdict, semipositive, positive_at_point, min_eig


@pytest.mark.parametrize("catalog_id,params", [
    ("wps", {"weights": (1, 2)}),
    ("wps", {"weights": (2, 3)}),
    ("wps", {"weights": (1, 1), "dent": DENT}),
    # a dent where the first chart's bump vanishes: only the bump mask keeps
    # its unweighted points out of the minimum
    ("wps", {"weights": (1, 1), "dent": {**DENT, "center": 1.3 + 0.0j}}),
    ("torus", {"d": 0, "k": 1}),
    ("torus", {"d": 1, "k": 2}),
], ids=["wps12", "wps23", "wps11-dent", "wps11-dent-off-bump", "torus-d0", "torus-d1"])
def test_array_criteria_match_per_point_spectra(catalog_id, params):
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    v = moishezon_check(signature_integrals(orb, bundle, resolution=32))
    verdict, semi, positive, min_eig = per_node_criteria(orb, bundle, 32, 1e-8)
    assert (v.verdict, v.semipositive, v.positive_at_point) == (verdict, semi, positive)
    assert v.min_eigenvalue_seen == pytest.approx(min_eig, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# bigness


def test_bigness_examples():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    est = bigness_check(cohomology_table(orb, bigness_powers()), 1)
    assert est.big and est.limsup_estimate == pytest.approx(1.0, abs=5e-3)
    orb2, _ = build_catalog_orbifold("wps", weights=(1, 2))
    est2 = bigness_check(cohomology_table(orb2, bigness_powers()), 1)
    assert est2.big and est2.limsup_estimate == pytest.approx(0.5, abs=5e-3)
    orb3, _ = build_catalog_orbifold("torus", d=0, k=1)
    est3 = bigness_check(cohomology_table(orb3, bigness_powers()), 1)
    assert not est3.big
    assert est3.limsup_estimate < 0.01


def test_bigness_needs_a_tail():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    with pytest.raises(ConfigurationError):
        bigness_check(cohomology_table(orb, [2, 4, 8]), 1)


# ---------------------------------------------------------------------------
# Siegel-type bound


def test_siegel_values_and_monotonicity():
    assert siegel_bound(1, 1, 0) == 1
    assert siegel_bound(3, 2, 2) == 18
    for m, n, k in [(1, 1, 1), (2, 3, 4), (5, 2, 7)]:
        assert siegel_bound(m + 1, n, k) >= siegel_bound(m, n, k)
        assert siegel_bound(m, n + 1, k) >= siegel_bound(m, n, k)
        assert siegel_bound(m, n, k + 1) >= siegel_bound(m, n, k)
    with pytest.raises(ValueError):
        siegel_bound(-1, 1, 1)


def test_section_counts_respect_jet_bound():
    """With covering data (m, k_p = p (floor(log C) + 1)), h^0 <= bound."""
    m, logC = 5, 2.0
    for weights in [(1, 1), (1, 2)]:
        for p in range(1, 200):
            k_p = p * (math.floor(logC) + 1)
            assert weighted_proj_h0(weights, p) <= siegel_bound(m, 1, k_p)


# ---------------------------------------------------------------------------
# Kodaira map


def test_kodaira_rank_projective_line():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1))
    assert kodaira_rank(orb, bundle, 1) == 1


def test_kodaira_rank_weighted_line_power_steps():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    assert kodaira_rank(orb, bundle, 1) == 0      # only the section x
    assert kodaira_rank(orb, bundle, 2) == 1      # x^2 and y


def test_kodaira_rank_trivial_bundle():
    orb, bundle = build_catalog_orbifold("torus", d=0, k=1)
    assert kodaira_rank(orb, bundle, 3) == 0


def test_big_iff_full_rank_across_catalog():
    entries = [("wps", dict(weights=(1, 1))), ("wps", dict(weights=(1, 2))),
               ("wps", dict(weights=(2, 3))), ("torus", dict(d=1, k=1)),
               ("torus", dict(d=1, k=2)), ("torus", dict(d=0, k=1))]
    for cid, params in entries:
        orb, bundle = build_catalog_orbifold(cid, **params)
        table = cohomology_table(orb, list(range(1, 9)) + bigness_powers())
        est = bigness_check(table, 1)
        ranks = [kodaira_rank(orb, bundle, p) for p in range(1, 9)
                 if table.h(p, 0) >= 1]
        assert est.big == (max(ranks) == 1), (cid, params, est, ranks)


@pytest.mark.parametrize("D", [5, 8])
def test_paired_torus_sections_match_dense_invariant_basis(D):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    zs = np.array([0.21 + 0.33j, 0.58 + 0.12j, 0.4 + 0.9j])
    op0 = assemble_kodaira_laplacian(orb, bundle, D, 0, 1)
    full = np.array([torus_eigenfunction_values(op0, z, 1)[0] for z in zs]).T
    dense = invariant_basis(D, 1) @ full
    paired = _section_values_torus(orb, bundle, D, zs)
    assert paired.shape == dense.shape
    assert np.allclose(paired, dense, rtol=1e-14, atol=1e-14 * np.abs(full).max())


def test_kodaira_rank_requires_sections():
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    with pytest.raises(ConfigurationError):
        kodaira_rank(orb, bundle, 1)
    orb, bundle = build_catalog_orbifold("torus", d=-1, k=1)
    with pytest.raises(ConfigurationError, match="no sections"):
        kodaira_rank(orb, bundle, 4)


def test_growth_exponent_bounded_by_rank():
    """Tail slope of log h^0 / log p stays within 0.1 of the map rank."""
    for cid, params in [("wps", dict(weights=(1, 2))), ("torus", dict(d=1, k=1)),
                        ("torus", dict(d=0, k=1))]:
        orb, bundle = build_catalog_orbifold(cid, **params)
        table = cohomology_table(orb, bigness_powers())
        growth = section_growth_exponent(table)
        rank = max(kodaira_rank(orb, bundle, p) for p in range(1, 9))
        assert growth <= rank + 0.1


def test_semipositivity_implies_integral_witness():
    """(i) => (ii): flags set forces a nonnegative integral and an essentially
    empty one-negative region (bounded by the degenerate node fraction)."""
    for weights in [(1, 2), (2, 3)]:
        orb, bundle = build_catalog_orbifold("wps", weights=weights)
        v = moishezon_check(signature_integrals(orb, bundle, resolution=128))
        assert v.semipositive and v.positive_at_point
        assert v.integral_leq1 >= -v.quadrature_tolerance
        one_neg = signature_integrals(orb, bundle, resolution=128)
        assert abs(one_neg.by_signature[1]) <= 1e-12
        assert one_neg.degenerate_fraction < 0.05
