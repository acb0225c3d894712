"""Curvature endomorphism, signature classification, Morse integrals."""

import itertools
import math

import numpy as np
import pytest

from orbmorse import cli, curvature
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import (DEGENERACY_TOL, DEGENERATE, _scalar_curvature,
                                classify_point, curvature_spectrum, morse_integral,
                                signature_integrals)
from orbmorse.errors import UnsupportedModelError
from orbmorse.geometry import gauss_legendre_nodes


def test_endomorphism_identity_metric_cases():
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(-2.5,))
    spec = curvature_spectrum(bundle, orb, np.array([0.2 + 0.1j]))
    assert spec.eigenvalues == pytest.approx([-2.5])
    assert spec.signature == 1


def test_spectrum_of_flat_two_dimensional_model_is_unsupported():
    """The n = 2 local model carries its curvature in params, not in a density."""
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(2.0, -3.0))
    assert orb.params["a"] == (2.0, -3.0)
    with pytest.raises(UnsupportedModelError):
        curvature_spectrum(bundle, orb, np.zeros(2))


def test_endomorphism_projective_center_is_one():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1))
    spec = curvature_spectrum(bundle, orb, np.array([0.0j]), 0)
    assert spec.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("eigs,expected", [
    ((1.0, 2.0), 0),
    ((-1.0, 2.0), 1),
    ((0.0, 2.0), DEGENERATE),
])
def test_classify_examples(eigs, expected):
    assert classify_point(eigs, tol=1e-8) == expected


def test_classify_requires_positive_tolerance():
    with pytest.raises(ValueError):
        classify_point((1.0,), tol=0.0)


@pytest.mark.parametrize("weights,expected", [
    ((1, 1), 1.0),
    ((1, 2), 0.5),
    ((2, 3), 1.0 / 6.0),
])
def test_chern_mass_of_projective_models(weights, expected):
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    val = morse_integral(orb, bundle, {0}, resolution=256)
    assert val == pytest.approx(expected, abs=1e-3)


def test_negative_model_has_empty_plus_region():
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(-1.0,))
    assert morse_integral(orb, bundle, {0}, resolution=64) == 0.0


def test_additivity_over_signature_regions():
    dent = {"amplitude": 1.2, "center": 0.45 + 0.0j, "width": 0.12}
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1), dent=dent)
    res = 192
    total = morse_integral(orb, bundle, {0, 1}, resolution=res)
    parts = (morse_integral(orb, bundle, {0}, resolution=res)
             + morse_integral(orb, bundle, {1}, resolution=res))
    assert total == pytest.approx(parts, abs=1e-12)
    # both regions genuinely contribute for the dented bundle
    assert morse_integral(orb, bundle, {1}, resolution=res) < -1e-3


def test_signed_density_nonnegative_on_samples():
    """(-1)^q det(Rdot / 2 pi) is nonnegative where the signature is q."""
    dent = {"amplitude": 1.2, "center": 0.45 + 0.0j, "width": 0.12}
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1), dent=dent)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.9, 0.9, (200, 2))
    for x, y in pts:
        z = np.array([complex(x, y)])
        spec = curvature_spectrum(bundle, orb, z, 0)
        if spec.signature == DEGENERATE:
            continue
        q = spec.signature
        det = float(np.prod(spec.eigenvalues)) / (2 * math.pi)
        assert (-1.0) ** q * det >= -1e-12


def test_integral_invariant_under_group_motion():
    """Evaluating the integrand at moved points leaves the integral unchanged."""
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    val = morse_integral(orb, bundle, {0}, resolution=128)
    # rotate the singular chart by the group generator: radial fields are
    # untouched, so the integral agrees to rounding
    g = orb.charts[1].group[1].rotation[0]
    moved_scalars = (bundle.curvature_scalars[0],
                     lambda Z: bundle.curvature_scalars[1](g * np.asarray(Z)))
    from dataclasses import replace
    bundle2 = replace(bundle, curvature_scalars=moved_scalars)
    val2 = morse_integral(orb, bundle2, {0}, resolution=128)
    assert val2 == pytest.approx(val, abs=1e-9)


def test_degenerate_fraction_reported():
    orb, bundle = build_catalog_orbifold("torus", d=0, k=1)
    res = signature_integrals(orb, bundle, resolution=32)
    assert res.by_signature[0] == 0.0
    assert res.degenerate_fraction == pytest.approx(1.0)


def one_mask_morse_integral(orb, bundle, q_set, resolution, tol=DEGENERACY_TOL):
    """The Morse integral as one chart pass per q-set under a union mask.

    This is the route the signature split replaced; it stays here as the
    reference that the split partitions the nodes.
    """
    total = 0.0
    for k, chart in enumerate(orb.charts):
        nodes, weights = gauss_legendre_nodes(resolution, chart.box_radius)
        bumpw = np.asarray(chart.bump(nodes), dtype=float)
        c, ratio = _scalar_curvature(orb, bundle, k, nodes)
        degen = np.abs(ratio) <= tol
        sig = (ratio < -tol).astype(int)
        density = c / (2.0 * math.pi)
        mask = np.isin(sig, list(q_set)) & ~degen
        total += float(np.dot(weights, bumpw * density * mask) / chart.order)
    return total


SPLIT_MODELS = [
    ("wps", dict(weights=(1, 1), dent={"amplitude": 1.2, "center": 0.45, "width": 0.12})),
    ("wps", dict(weights=(1, 1), dent={"amplitude": 1.5, "center": 0.45, "width": 0.12})),
    ("wps", dict(weights=(1, 2))),
    ("wps", dict(weights=(2, 3))),
    ("torus", dict(d=0, k=1)),
]


@pytest.mark.parametrize("resolution", [32, 64, 192])
@pytest.mark.parametrize("catalog_id,params", SPLIT_MODELS,
                         ids=["dent-1.2", "dent-1.5", "P(1,2)", "P(2,3)", "torus-d0"])
def test_signature_split_matches_one_mask_reference(catalog_id, params, resolution):
    """Each class is bit-identical to its one-mask pass; unions agree to 1e-15."""
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    split = signature_integrals(orb, bundle, resolution=resolution)
    n = orb.dimension
    assert len(split.by_signature) == n + 1
    for q in range(n + 1):
        reference = one_mask_morse_integral(orb, bundle, {q}, resolution)
        assert split.by_signature[q] == reference
        assert morse_integral(orb, bundle, {q}, resolution=resolution) == reference
    for size in range(2, n + 2):
        for q_set in itertools.combinations(range(n + 1), size):
            union = morse_integral(orb, bundle, q_set, resolution=resolution)
            assert abs(union - one_mask_morse_integral(orb, bundle, q_set, resolution)) \
                <= 1e-15


def test_stages_make_one_chart_pass(monkeypatch, tmp_path):
    """Every stage of one run reads one split: the curvature is evaluated once per chart."""
    calls = []

    def counting(orb, bundle, chart_index, points):
        calls.append(chart_index)
        return _scalar_curvature(orb, bundle, chart_index, points)

    monkeypatch.setattr(curvature, "_scalar_curvature", counting)
    cfg = cli.RunConfig(catalog_id="wps", catalog_params={"weights": [1, 2]},
                        q_list=[0, 1], resolution_quadrature=32)
    assert cli.run("all", cfg, tmp_path) == 0
    assert calls == [0, 1]


def custom_model():
    """A one-chart custom model whose metric density turns negative at |z|^2 = 1/2."""
    from orbmorse.geometry import OrbifoldChart, ChartedOrbifold, cyclic_group
    from orbmorse.geometry import EquivariantLineBundle

    def metric(z):
        return 1.0 - 2.0 * np.abs(np.asarray(z)) ** 2

    chart = OrbifoldChart(dimension=1, group=cyclic_group(1, (1,)),
                          metric_scalar=metric)
    orb = ChartedOrbifold(charts=(chart,), singular_locus_fn=lambda ci, Z: 10.0,
                          catalog_id="custom")
    bundle = EquivariantLineBundle(curvature_scalars=(lambda z: np.ones(np.shape(z)),))
    return orb, bundle


def test_spectrum_of_indefinite_metric_raises_geometry_error():
    """Where the metric density is not positive there is no eigenvalue c / h."""
    from orbmorse.errors import GeometryError
    orb, bundle = custom_model()
    assert curvature_spectrum(bundle, orb, np.array([0.5 + 0.0j])).eigenvalues == \
        pytest.approx([2.0])
    with pytest.raises(GeometryError):
        curvature_spectrum(bundle, orb, np.array([1.0 + 0.0j]))
