"""Curvature endomorphism, signature classification, Morse integrals."""

import math

import numpy as np
import pytest

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import (DEGENERATE, classify_point, curvature_spectrum,
                                morse_integral)
from orbmorse.errors import UnsupportedModelError


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
    res = morse_integral(orb, bundle, {0}, resolution=32, with_diagnostics=True)
    assert res.value == 0.0
    assert res.degenerate_fraction == pytest.approx(1.0)


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
