"""Geometric criteria, bigness estimates, Kodaira map ranks, Siegel bound."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbmorse import moishezon
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table, weighted_proj_h0
from orbmorse.curvature import curvature_spectrum, morse_integral, signature_integrals
from orbmorse.errors import ConfigurationError
from orbmorse.geometry import tensor_blocks
from orbmorse.moishezon import (KODAIRA_RANK_TOL, _section_values_torus, _torus_columns,
                                _wps_exponents, bigness_check, kodaira_rank,
                                moishezon_check, section_growth_exponent, siegel_bound)
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
        for nodes, _ in tensor_blocks(resolution, chart.box_radius):
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


RANK_ENTRIES = [("wps", dict(weights=(1, 1))), ("wps", dict(weights=(1, 2))),
                ("wps", dict(weights=(2, 3))), ("torus", dict(d=1, k=1)),
                ("torus", dict(d=1, k=2)), ("torus", dict(d=0, k=1))]


def test_big_iff_full_rank_across_catalog():
    for cid, params in RANK_ENTRIES:
        orb, bundle = build_catalog_orbifold(cid, **params)
        table = cohomology_table(orb, list(range(1, 9)) + bigness_powers())
        est = bigness_check(table, 1)
        ranks = [kodaira_rank(orb, bundle, p) for p in range(1, 9)
                 if table.h(p, 0) >= 1]
        assert est.big == (max(ranks) == 1), (cid, params, est, ranks)


def kodaira_rank_per_sample(orb, bundle, p, rng):
    """Reference: every section at every sample, and one SVD of the Jacobian
    per sample.  Torus sections come from the dense Landau basis and the
    explicit invariant basis of the half turn."""
    samples, step = 6, 1e-5
    if orb.catalog_id == "wps":
        a, b = orb.params["weights"]
        exps = [m for m in range(p // b + 1) if (p - b * m) % a == 0]
        reals = [0.35 + 0.5 * rng.random() for _ in range(samples)]
        imags = [0.1 + 0.4 * rng.random() for _ in range(samples)]

        def values(pts):
            return np.array([pts ** m for m in exps])
    else:
        if orb.params["d"] == 0:
            return 0
        reals = [0.13 + 0.5 * rng.random() for _ in range(samples)]
        imags = [0.17 + 0.5 * rng.random() for _ in range(samples)]
        op0 = assemble_kodaira_laplacian(orb, bundle, p, 0, 1)
        basis = invariant_basis(op0.D, 1) if orb.params["k"] == 2 else None

        def values(pts):
            dense = np.array([torus_eigenfunction_values(op0, z, 1)[0] for z in pts]).T
            return dense if basis is None else basis @ dense
    best = -1
    for z in map(complex, reals, imags):
        sec = values(np.array([z, z + step, z - step, z + 1j * step, z - 1j * step]))
        if sec.shape[0] == 1:
            best = max(best, 0)
            continue
        anchor = np.argmax(np.abs(sec[:, 0]))
        if abs(sec[anchor, 0]) < 1e-13:
            continue
        ratios = sec / sec[anchor]
        dzx = (ratios[:, 1] - ratios[:, 2]) / (2 * step)
        dzy = (ratios[:, 3] - ratios[:, 4]) / (2 * step)
        jac = np.delete(0.5 * (dzx - 1j * dzy), anchor)
        sv = np.linalg.svd(jac.reshape(-1, 1), compute_uv=False)
        scale = max(np.max(np.abs(ratios[:, 0])), 1.0)
        best = max(best, int(np.sum(sv > KODAIRA_RANK_TOL * max(sv.max(), scale))))
    return best


@pytest.mark.parametrize("cid,params", RANK_ENTRIES)
def test_kodaira_rank_matches_per_sample_svd(cid, params):
    """The default generator is the stdlib's, seeded with 77."""
    orb, bundle = build_catalog_orbifold(cid, **params)
    table = cohomology_table(orb, list(range(1, 9)))
    for p in range(1, 9):
        if table.h(p, 0) >= 1:
            assert kodaira_rank(orb, bundle, p) == kodaira_rank_per_sample(
                orb, bundle, p, random.Random(77)), p


@pytest.mark.parametrize("cid,params,powers", [
    ("torus", dict(d=1, k=2), [64, 256, 1024, 2048]),
    ("wps", dict(weights=(2, 3)), [64, 256, 1024, 4096])])
def test_kodaira_rank_matches_per_sample_svd_at_bench_powers(cid, params, powers):
    """The powers of the benchmark's CLI runs, drawn from one running generator,
    of either kind."""
    orb, bundle = build_catalog_orbifold(cid, **params)
    for rng, reference_rng in [(random.Random(7), random.Random(7)),
                               (np.random.default_rng(7), np.random.default_rng(7))]:
        for p in powers:
            assert kodaira_rank(orb, bundle, p, rng=rng) == kodaira_rank_per_sample(
                orb, bundle, p, reference_rng), p
        assert rng.random() == reference_rng.random()     # the same draws


def test_numpy_generator_draws_the_array_points():
    """Scalar draws from a numpy Generator repeat its array draws, so a
    Generator passed as ``rng`` samples the points of an array draw."""
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    assert [rng.random() for _ in range(12)] == list(reference.random(12))


@settings(max_examples=120, deadline=None)
@given(d=st.integers(0, 4), k=st.sampled_from([1, 2]), p=st.integers(1, 64),
       seed=st.integers(0, 2 ** 32))
@example(d=0, k=1, p=5, seed=1).via("trivial bundle: rank 0")
@example(d=1, k=1, p=1, seed=0).via("one section: rank 0")
@example(d=1, k=2, p=2, seed=0).via("two fixed translates")
@example(d=1, k=2, p=3, seed=0).via("a window that wraps the circle")
@example(d=4, k=2, p=1, seed=5).via("a window that wraps the circle")
def test_torus_kodaira_rank_matches_dense_reference(d, k, p, seed):
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    assert kodaira_rank(orb, bundle, p, random.Random(seed)) == kodaira_rank_per_sample(
        orb, bundle, p, random.Random(seed))


def coprime_weights():
    return (st.tuples(st.integers(1, 7), st.integers(1, 7))
            .filter(lambda w: math.gcd(*w) == 1))


@settings(max_examples=150, deadline=None)
@given(weights=coprime_weights(), p=st.integers(1, 200), seed=st.integers(0, 2 ** 32))
@example(weights=(1, 2), p=1, seed=0).via("one section: rank 0")
@example(weights=(2, 3), p=1, seed=0).via("no sections")
def test_wps_kodaira_rank_matches_dense_reference(weights, p, seed):
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    if weighted_proj_h0(weights, p) == 0:
        with pytest.raises(ConfigurationError, match="no sections"):
            kodaira_rank(orb, bundle, p, random.Random(seed))
        return
    assert kodaira_rank(orb, bundle, p, random.Random(seed)) == kodaira_rank_per_sample(
        orb, bundle, p, random.Random(seed))


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 7), b=st.integers(1, 7), p=st.integers(0, 300))
def test_wps_exponents_are_the_monomial_degrees(a, b, p):
    exps = _wps_exponents((a, b), p)
    assert list(exps) == [m for m in range(p // b + 1) if (p - b * m) % a == 0]
    if math.gcd(a, b) == 1:
        assert len(exps) == weighted_proj_h0((a, b), p)


@settings(max_examples=200, deadline=None)
@given(D=st.integers(1, 300), k=st.sampled_from([1, 2]), x=st.floats(0.0, 1.0))
def test_torus_columns_in_order_of_nearest_translate(D, k, x):
    """Each column once, nearest translate first: the distances never decrease."""
    columns = list(_torus_columns(x, D, k))
    expected = range(D) if k == 1 else range(D // 2 + 1)
    assert sorted(columns) == list(expected)

    def distance(j):
        residues = {j} if k == 1 else {j, -j % D}
        return min(abs(x * D - m) for m in range(math.floor(x * D) - D, math.ceil(x * D) + D + 1)
                   if m % D in residues)
    dist = [distance(j) for j in columns]
    assert all(u <= v + 1e-9 for u, v in zip(dist, dist[1:]))


@pytest.mark.parametrize("cid,params", [
    ("torus", dict(d=1, k=1)), ("torus", dict(d=1, k=2)), ("wps", dict(weights=(2, 3)))],
    ids=["torus-k1", "torus-k2", "wps23"])
def test_kodaira_rank_section_values_are_flat_in_p(monkeypatch, cid, params):
    """A rank evaluates as many section values at p = 2^16 as at p = 2^6."""
    sizes = []
    for name in ("_section_values_torus", "_section_values_wps"):
        original = getattr(moishezon, name)

        def counted(*args, original=original):
            out = original(*args)
            sizes.append(out.size)
            return out
        monkeypatch.setattr(moishezon, name, counted)
    orb, bundle = build_catalog_orbifold(cid, **params)
    evaluated = []
    for p in (2 ** 6, 2 ** 16):
        sizes.clear()
        assert kodaira_rank(orb, bundle, p, random.Random(7)) == 1
        evaluated.append(sum(sizes))
    assert evaluated[0] == evaluated[1] <= 5 * 4


@pytest.mark.parametrize("d", [1, 2])
def test_torus_rank_is_refused_beyond_the_stencil(monkeypatch, d):
    """D = d p = 2^36 resolves; one power more is refused with p and its cause
    before any section is evaluated, also where D leaves int64."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=2)
    p = moishezon.KODAIRA_TORUS_MAX_D // d
    assert moishezon.kodaira_rank(orb, bundle, p, rng=random.Random(0)) == 1

    def no_arrays(*args):
        raise AssertionError("sections evaluated")

    monkeypatch.setattr(moishezon, "torus_basis_columns", no_arrays)
    for p in (p + 1, 10 ** 20):
        with pytest.raises(ConfigurationError, match=f"p={p} .*stencil step"):
            moishezon.kodaira_rank(orb, bundle, p, rng=random.Random(0))


@pytest.mark.parametrize("D", [1, 2, 3, 7, 64, 2048])
def test_ground_state_columns_match_dense_values(D):
    """The level-0 sections repeat the dense basis value for value, wrapped windows included."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=1)
    op0 = assemble_kodaira_laplacian(orb, bundle, D, 0, 1)
    zs = np.array([0.21 + 0.33j, 0.58 + 0.12j, 0.4 + 0.9j, -0.3 + 1.7j])
    dense = np.array([torus_eigenfunction_values(op0, z, 1)[0] for z in zs]).T
    columns = [D - 1, 0, D // 2] if D > 2 else list(range(D))
    assert np.array_equal(_section_values_torus(D, 1, columns, zs), dense[columns])


@pytest.mark.parametrize("D", [5, 8])
def test_paired_torus_sections_match_dense_invariant_basis(D):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    zs = np.array([0.21 + 0.33j, 0.58 + 0.12j, 0.4 + 0.9j])
    op0 = assemble_kodaira_laplacian(orb, bundle, D, 0, 1)
    full = np.array([torus_eigenfunction_values(op0, z, 1)[0] for z in zs]).T
    dense = invariant_basis(D, 1) @ full
    paired = _section_values_torus(D, 2, list(range(D // 2 + 1)), zs)
    assert paired.shape == dense.shape
    assert np.allclose(paired, dense, rtol=1e-14, atol=1e-14 * np.abs(full).max())


def test_kodaira_rank_requires_sections():
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    with pytest.raises(ConfigurationError):
        kodaira_rank(orb, bundle, 1)
    orb, bundle = build_catalog_orbifold("torus", d=-1, k=1)
    with pytest.raises(ConfigurationError, match="no sections"):
        kodaira_rank(orb, bundle, 4)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    with pytest.raises(ConfigurationError, match="no sections"):
        kodaira_rank(orb, bundle, -2)
    assert kodaira_rank(orb, bundle, 0) == 0          # L^0 is trivial


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
