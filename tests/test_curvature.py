"""Curvature endomorphism, signature classification, Morse integrals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbmorse import cli, curvature
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.curvature import (DEGENERACY_TOL, DEGENERATE, _scalar_curvature,
                                classify_point, curvature_spectrum, morse_integral,
                                signature_integrals)
from orbmorse.errors import UnsupportedModelError
from orbmorse.geometry import RadialField, chart_blocks, orbifold_integrate, tensor_blocks


def test_endomorphism_identity_metric_cases():
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(-2.5,))
    spec = curvature_spectrum(bundle, orb, np.array([0.2 + 0.1j]))
    assert spec.eigenvalues == pytest.approx([-2.5])
    assert spec.signature == 1


def test_spectrum_of_flat_two_dimensional_model_is_unsupported():
    """The n = 2 local model carries its curvature in its exact data, not in a density."""
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(2.0, -3.0))
    assert orb.exact.group[1] == (2.0, -3.0)
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
    # rotate the singular chart by the group generator: radial fields are
    # untouched, so the integral agrees to rounding.  A point function takes
    # the tensor rule, so the unmoved reference is one too.
    g = orb.charts[1].group[1].rotation[0]
    curvature_x, curvature_y = bundle.curvature_scalars
    val, val2 = (morse_integral(orb, bundle._replace(curvature_scalars=(
        curvature_x, lambda Z, m=m: curvature_y(m * np.asarray(Z)))), {0}, resolution=128)
        for m in (1.0, g))
    assert val2 == pytest.approx(val, abs=1e-9)


def test_degenerate_fraction_reported():
    orb, bundle = build_catalog_orbifold("torus", d=0, k=1)
    res = signature_integrals(orb, bundle, resolution=32)
    assert res.by_signature[0] == 0.0
    assert res.degenerate_fraction == pytest.approx(1.0)


def one_mask_morse_integral(orb, bundle, q_set, resolution, tol=DEGENERACY_TOL,
                            blocks=chart_blocks):
    """The Morse integral as one chart pass per q-set under a union mask.

    This is the route the signature split replaced; it stays here as the
    reference that the split partitions the nodes.  It iterates the blocks
    the split iterates, each chart's own (radial or full), unless
    ``blocks`` says otherwise.
    """
    total = 0.0
    for k, chart in enumerate(orb.charts):
        chart_sum = 0.0
        for nodes, weights in blocks(chart, (bundle.curvature_scalars[k],), resolution):
            bumpw = np.asarray(chart.bump(nodes), dtype=float)
            c, ratio = _scalar_curvature(orb, bundle, k, nodes)
            degen = np.abs(ratio) <= tol
            sig = (ratio < -tol).astype(int)
            density = c / (2.0 * math.pi)
            mask = np.isin(sig, list(q_set)) & ~degen
            chart_sum += np.add.reduce(weights * (bumpw * density * mask))
        total += float(chart_sum / chart.order)
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


def full_grid(chart, fields, resolution):
    return tensor_blocks(resolution, chart.box_radius)


RADIAL_MODELS = [
    ("wps", dict(weights=(1, 1))),
    ("wps", dict(weights=(1, 2))),
    ("wps", dict(weights=(2, 3))),
    ("wps", dict(weights=(3, 5))),
    ("torus", dict(d=1, k=1)),
    ("torus", dict(d=1, k=2)),
    ("local-model", dict(k=2, a=[1.0])),
]


def exact_degree(orb):
    """The exact integral of c / 2 pi: the catalog's degree, or on C/Z_k the
    constant curvature a over the box (2r)^2, divided by 2 pi k."""
    if orb.exact.degree is not None:
        return orb.exact.degree
    chart = orb.charts[0]
    return orb.exact.group[1][0] * (2 * chart.box_radius) ** 2 / (2 * math.pi * chart.order)


@pytest.mark.parametrize("resolution", [24, 101, 128, 1024])
@pytest.mark.parametrize("catalog_id,params", RADIAL_MODELS,
                         ids=["P(1,1)", "P(1,2)", "P(2,3)", "P(3,5)", "torus-k1", "torus-k2",
                              "C/Z2"])
def test_folded_split_matches_the_full_grid(monkeypatch, catalog_id, params, resolution):
    """Every chart takes the rule in |z|^2, on other nodes than the full grid:
    both read the exact degree to a few ulp, or, on P(2, 3) and P(3, 5), where
    the degenerate mask near the orbifold points of order >= 3 holds back mass
    far above rounding, the split holds back no more than the grid; and each
    class differs from the grid's by no more than the two distances e_Q to the
    degree.  P(a, b) is compared at resolution 1024, where the grid resolves
    the bump's edge.  On the square charts the degenerate fraction agrees
    within 1e-15 and the eigenvalue bounds bit for bit."""
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    square = catalog_id != "wps"
    if not square:
        resolution = 1024
    assert all(chart_blocks(chart, (c,), resolution).__name__ == "radial_blocks"
               for chart, c in zip(orb.charts, bundle.curvature_scalars))
    split = signature_integrals(orb, bundle, resolution=resolution)
    monkeypatch.setattr(curvature, "chart_blocks", full_grid)
    full = signature_integrals(orb, bundle, resolution=resolution)
    degree = exact_degree(orb)
    e_split = abs(sum(split.by_signature) - degree)
    e_full = abs(sum(full.by_signature) - degree)
    if max(params.get("weights", (1,))) >= 3:
        assert e_split <= e_full
    else:
        assert max(e_split, e_full) <= 8 * np.spacing(degree)
    for a, b in zip(split.by_signature, full.by_signature):
        assert abs(a - b) <= e_full + e_split
    if square:
        assert abs(split.degenerate_fraction - full.degenerate_fraction) <= 1e-15
        assert split.min_eigenvalue == full.min_eigenvalue
        assert split.max_eigenvalue == full.max_eigenvalue


@pytest.mark.parametrize("catalog_id,params", [
    ("torus", dict(d=1, k=2)), ("torus", dict(d=3, k=1)),
    *[("local-model", dict(k=k, a=[1.0])) for k in (1, 2, 3, 4)],
], ids=["torus-d1-k2", "torus-d3-k1", "C/Z1", "C/Z2", "C/Z3", "C/Z4"])
def test_square_charts_reach_the_degree_at_every_resolution(catalog_id, params):
    """The curvature is constant on a square chart, and the rule in |z|^2
    integrates a constant exactly at every resolution, so e_Q <= 1e-15."""
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    for resolution in (1, 2, 5, 32, 64, 128, 256, 512, 1024):
        total = sum(signature_integrals(orb, bundle, resolution=resolution).by_signature)
        assert abs(total - exact_degree(orb)) <= 1e-15, resolution


def integrate_curvature(orb, bundle, resolution):
    """orbifold_integrate with the curvature densities as the chart integrands."""
    return orbifold_integrate(bundle.curvature_scalars, orb, resolution=resolution)


def count_field_evaluations(orb, bundle, resolution, keep_support=True,
                            integrate=signature_integrals):
    """Points at which ``integrate`` evaluates each field, by (chart, field).

    Every field is rewrapped in a counting RadialField, with the bump's
    support and edge kept or dropped."""
    counts = {}

    def counted(field, key):
        def profile(r2):
            counts[key] = counts.get(key, 0) + np.size(r2)
            return field.profile(r2)
        if keep_support:
            return RadialField(profile, field.support, field.edge)
        return RadialField(profile)

    charts = tuple(chart._replace(bump=counted(chart.bump, (k, "bump")),
                                  metric_scalar=counted(chart.metric_scalar, (k, "metric")))
                   for k, chart in enumerate(orb.charts))
    orb = orb._replace(charts=charts)
    bundle = bundle._replace(curvature_scalars=tuple(
        counted(c, (k, "curvature")) for k, c in enumerate(bundle.curvature_scalars)))
    counts.clear()                     # the charts check h(0) = 1 when they are built
    integrate(orb, bundle, resolution=resolution)
    return counts


def test_radial_charts_evaluate_one_node_per_orbit():
    """P(2,3) at resolution 1024: each field of each chart is evaluated once per
    node of the rule in |z|^2, 1024 on each of its two pieces, [0, edge] and
    [edge, support]; without the support the chart takes its square box,
    again 1024 nodes on each piece, the inscribed disc and the corners, where
    the full grid takes 1024^2.  The torus and C/Z_2 square charts take the
    same 2 * 1024.  orbifold_integrate takes the same split: each chart's
    bump and metric 2 * 1024 times, and its integrand that often plus the
    invariance spot check's 8 nodes and their 8 images under each group
    element."""
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    assert all(0.0 < chart.bump.edge < chart.bump.support for chart in orb.charts)
    for keep_support in (True, False):
        assert count_field_evaluations(orb, bundle, 1024, keep_support=keep_support) == {
            (k, f): 2 * 1024 for k in (0, 1) for f in ("bump", "metric", "curvature")}
    for square in (build_catalog_orbifold("torus", d=1, k=2),
                   build_catalog_orbifold("local-model", k=2, a=[1.0])):
        assert count_field_evaluations(*square, 1024) == {
            (0, f): 2 * 1024 for f in ("bump", "metric", "curvature")}
    spot = [8 * (chart.order + 1) for chart in orb.charts]
    assert count_field_evaluations(orb, bundle, 1024, integrate=integrate_curvature) == {
        (k, f): 2 * 1024 + spot[k] * (f == "curvature")
        for k in (0, 1) for f in ("bump", "metric", "curvature")}


@pytest.mark.parametrize("edge", ["infinite", "zero", "at-support"])
def test_a_bump_without_an_inner_edge_takes_one_piece(edge):
    """A support with no edge inside it gives one piece of ``resolution``
    nodes, no empty or unbounded one; the integral keeps the degree."""
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    chart = orb.charts[0]
    support = chart.bump.support
    edge = {"infinite": math.inf, "zero": 0.0, "at-support": support}[edge]
    bump = RadialField(chart.bump.profile, support, edge)
    orb = orb._replace(charts=(chart._replace(bump=bump),) + orb.charts[1:])
    (nodes, weights), = chart_blocks(orb.charts[0], (bundle.curvature_scalars[0],), 128)
    assert nodes.size == weights.size == 128
    total = sum(signature_integrals(orb, bundle, resolution=128, tol=1e-300).by_signature)
    assert abs(total - 0.5) <= 1e-9


COPRIME_WEIGHTS = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
    lambda w: math.gcd(*w) == 1)


def chern_sum(weights, resolution):
    """The sum of the signature integrals of P(a, b), no node counted degenerate."""
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    return sum(signature_integrals(orb, bundle, resolution=resolution,
                                   tol=1e-300).by_signature)


def chern_volume(weights, resolution):
    """orbifold_integrate of c / (2 pi h) over P(a, b), a RadialField on each chart."""
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    fields = tuple(RadialField(lambda r2, c=c.profile, h=chart.metric_scalar.profile:
                               c(r2) / (2.0 * math.pi * h(r2)))
                   for chart, c in zip(orb.charts, bundle.curvature_scalars))
    return orbifold_integrate(fields, orb, resolution=resolution)


@settings(max_examples=40, deadline=None)
@given(COPRIME_WEIGHTS, st.integers(128, 2048))
def test_radial_rule_reaches_the_degree(weights, resolution):
    """The rule in |z|^2 integrates the curvature of P(a, b) to its degree
    1/(ab) within 1e-15, through signature_integrals and through
    orbifold_integrate (the folded rule read 2.6e-9 on P(1,2) at 256)."""
    a, b = weights
    assert abs(chern_sum(weights, resolution) - 1.0 / (a * b)) <= 1e-15
    assert abs(chern_volume(weights, resolution) - 1.0 / (a * b)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(COPRIME_WEIGHTS, st.integers(128, 2048))
def test_swapped_weights_give_the_same_integral(weights, resolution):
    """P(a, b) and P(b, a) are one orbifold: their sums agree within 1e-15,
    whichever weight sits in the x-chart."""
    assert abs(chern_sum(weights, resolution) - chern_sum(weights[::-1], resolution)) <= 1e-15


def test_signature_split_peak_memory_on_the_wps_bench_model():
    """P(2,3) at resolution 1024 stays under 4.0 MiB of traced allocations
    (3.9 MiB before the split integrated only over the bumps' support)."""
    import tracemalloc
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    tracemalloc.start()
    try:
        signature_integrals(orb, bundle, resolution=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 2 ** 20


@pytest.mark.parametrize("resolution", [32, 101])
@pytest.mark.parametrize("amplitude", [1.2, 1.5])
def test_dented_and_custom_models_take_the_full_grid(amplitude, resolution):
    """A point-function curvature keeps every chart on the tensor rule, bit for bit."""
    dent = {"amplitude": amplitude, "center": 0.45, "width": 0.12}
    for orb, bundle in (build_catalog_orbifold("wps", weights=(1, 1), dent=dent),
                        custom_model()):
        split = signature_integrals(orb, bundle, resolution=resolution)
        for q in range(orb.dimension + 1):
            assert split.by_signature[q] == one_mask_morse_integral(
                orb, bundle, {q}, resolution, blocks=full_grid)


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


def test_signature_split_memory_is_a_few_row_blocks(monkeypatch):
    """P(2,3) at resolution 1024, rule included; the full grid held 16 MB of nodes alone."""
    import tracemalloc
    from orbmorse import geometry
    monkeypatch.setattr(geometry, "_GL_RULES", {})
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    tracemalloc.start()
    try:
        signature_integrals(orb, bundle, resolution=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


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
