"""Chart/orbifold construction, volume densities, and group-aware quadrature."""

import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.errors import (ConfigurationError, GeometryError, IntegrandError,
                             UnsupportedModelError)
from orbmorse.geometry import (OrbifoldChart, cyclic_group, orbifold_integrate,
                               volume_density)


def ones(Z):
    return np.ones(np.shape(Z))


# ---------------------------------------------------------------------------
# construction and invariants


def test_local_model_group_and_flat_metric():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    chart = orb.charts[0]
    assert chart.order == 2
    assert np.allclose(chart.group[1].rotation, [-1.0])
    assert not chart.group[1].fixed[0] and not chart.group[1].is_identity
    assert bundle.curvature_scalars[0](np.array([0.3 + 0.1j]))[0] == 1.0
    assert volume_density(chart, np.array([0.4 - 0.2j])) == 1.0


def test_one_dimensional_chart_needs_its_metric_density():
    with pytest.raises(GeometryError, match="metric_scalar"):
        OrbifoldChart(dimension=1, group=cyclic_group(1, (1,)))


def test_flat_two_dimensional_chart_has_no_metric_density():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0, 1.0))
    chart = orb.charts[0]
    assert chart.metric_scalar is None
    with pytest.raises(UnsupportedModelError):
        volume_density(chart, np.zeros(2))
    with pytest.raises(UnsupportedModelError):
        chart.check_invariance(np.random.default_rng(0))


def test_wps_isotropy_orders():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    assert [c.order for c in orb.charts] == [1, 1]
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    assert [c.order for c in orb.charts] == [1, 2]
    orb, _ = build_catalog_orbifold("wps", weights=(2, 3))
    assert [c.order for c in orb.charts] == [2, 3]


def test_wps_rejects_bad_weights():
    with pytest.raises(ConfigurationError):
        build_catalog_orbifold("wps", weights=(2, 4))
    with pytest.raises(ConfigurationError):
        build_catalog_orbifold("wps", weights=(0, 1))
    with pytest.raises(ConfigurationError):
        build_catalog_orbifold("nonsense")


def test_ineffective_action_rejected():
    # weights that share a factor with the group order collapse the action
    with pytest.raises(ConfigurationError, match="not effective"):
        build_catalog_orbifold("local-model", k=4, a=(1.0, 1.0), weights=(2, 2))
    with pytest.raises(ConfigurationError, match="not effective"):
        cyclic_group(4, (2, 6))
    with pytest.raises(ConfigurationError, match="order"):
        cyclic_group(0, (1,))


def test_duplicated_identity_rejected():
    # weight 0 makes both elements of Z_2 act as the identity
    with pytest.raises(ConfigurationError, match="not effective"):
        cyclic_group(2, (0,))


# ---------------------------------------------------------------------------
# cyclic groups against a dense-matrix reference

MATCH_TOL = 1e-10       # products of rounded rotations drift by a few ulps
IDENTITY_TOL = 1e-12


def assert_dense_group(group):
    """Reference: a unique identity, inverses and closure under products.

    Every element is expanded to its dense n x n matrix and each inverse and
    product is matched numerically against all elements.
    """
    mats = np.array([np.diag(g.rotation) for g in group])
    eye = np.eye(mats.shape[1])

    def found(targets):
        dist = np.max(np.abs(targets[:, None] - mats[None]), axis=(2, 3))
        return bool(np.all(np.min(dist, axis=1) <= MATCH_TOL))

    identities = np.max(np.abs(mats - eye), axis=(1, 2)) <= IDENTITY_TOL
    assert identities.sum() == 1
    assert [g.is_identity for g in group] == list(identities)
    assert found(np.conj(np.transpose(mats, (0, 2, 1))))
    for g in mats:
        assert found(g @ mats)


def weight_tuples(k, rng):
    """Every weight tuple of length 1-3 with entries in 0..k-1, sampled at large k."""
    for length in (1, 2, 3):
        if k ** length <= 16:
            yield from itertools.product(range(k), repeat=length)
        else:
            yield from (tuple(int(w) for w in rng.integers(0, k, length))
                        for _ in range(3))


def test_cyclic_group_closed_with_one_identity():
    rng = np.random.default_rng(8)
    checked = 0
    for k in range(1, 65):
        for weights in weight_tuples(k, rng):
            if math.gcd(k, *weights) != 1:
                with pytest.raises(ConfigurationError, match="not effective"):
                    cyclic_group(k, weights)
                continue
            group = cyclic_group(k, weights, theta_unit=0.7)
            assert len(group) == k
            assert_dense_group(group)
            # the fixed mask is the exact form of the rotation test
            for g in group:
                assert np.array_equal(g.fixed, np.abs(g.rotation - 1.0) <= IDENTITY_TOL)
            assert [g.line_phase for g in group] == [(0.7 * m) % (2 * math.pi)
                                                     for m in range(k)]
            checked += 1
    assert checked > 400


def test_large_local_model_builds_fast():
    # the group is built in closed form: no k^2 products to match
    start = time.perf_counter()
    orb, _ = build_catalog_orbifold("local-model", k=256, a=(1.0,))
    assert time.perf_counter() - start < 1.0
    assert orb.charts[0].order == 256


def test_metric_invariance_sampled():
    rng = np.random.default_rng(2)
    for args in [("wps", dict(weights=(1, 2))), ("wps", dict(weights=(2, 3))),
                 ("local-model", dict(k=3, a=(1.0,)))]:
        orb, _ = build_catalog_orbifold(args[0], **args[1])
        for chart in orb.charts:
            chart.check_invariance(rng)


def test_singular_distance_lipschitz_sampled():
    rng = np.random.default_rng(3)
    for args in [("wps", dict(weights=(1, 2))), ("torus", dict(d=1, k=2)),
                 ("local-model", dict(k=2, a=(1.0,)))]:
        orb, _ = build_catalog_orbifold(args[0], **args[1])
        for ci, chart in enumerate(orb.charts):
            r = min(chart.box_radius, 1.0)
            pts = rng.uniform(-r, r, (30, 2))
            for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
                z1, z2 = complex(x1, y1), complex(x2, y2)
                d1 = orb.singular_distance(ci, np.array([z1]))
                d2 = orb.singular_distance(ci, np.array([z2]))
                assert abs(d1 - d2) <= abs(z1 - z2) + 1e-9


# ---------------------------------------------------------------------------
# volume density


def test_volume_density_normalization_and_fs_value():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    chart = orb.charts[0]
    assert volume_density(chart, np.array([0.0j])) == 1.0
    # determinant-ratio oracle for the shipped P(1,1) profile at |z| = 1
    expected = (1.0 + math.pi) ** -2
    assert volume_density(chart, np.array([1.0 + 0.0j])) == pytest.approx(expected, rel=1e-12)


def test_kappa_is_lipschitz_on_samples():
    rng = np.random.default_rng(4)
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    for chart in orb.charts:
        # slope bound from the sampled derivative of the radial profile
        rr = np.linspace(0, chart.box_radius, 200)
        dens = np.real(chart.metric_scalar(rr.astype(complex)))
        slope = np.max(np.abs(np.diff(dens) / np.diff(rr))) * 1.5 + 1e-6
        pts = rng.uniform(-0.7, 0.7, (40, 2)) * chart.box_radius
        for (x1, y1), (x2, y2) in zip(pts[:-1], pts[1:]):
            z1, z2 = complex(x1, y1), complex(x2, y2)
            k1 = volume_density(chart, np.array([z1]))
            k2 = volume_density(chart, np.array([z2]))
            assert abs(k1 - k2) <= slope * abs(z1 - z2) + 1e-9


# ---------------------------------------------------------------------------
# integration


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unit_ball_volume_over_group(k):
    orb, _ = build_catalog_orbifold("local-model", k=k, a=(1.0,))
    val = orbifold_integrate(lambda ci, Z: (np.abs(Z) <= 1.0).astype(float), orb,
                             resolution=400)
    assert val == pytest.approx(math.pi / k, rel=5e-3)


def test_unit_volume_of_projective_line():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    val = orbifold_integrate(lambda ci, Z: ones(Z), orb, resolution=160)
    assert val == pytest.approx(1.0, abs=1e-7)


def test_zero_integrand_is_zero():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    assert orbifold_integrate(lambda ci, Z: np.zeros(Z.shape), orb, resolution=64) == 0.0


def test_integral_linearity_and_positivity():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))

    def f(ci, Z):
        return np.abs(Z) ** 2

    def g(ci, Z):
        return np.exp(-np.abs(Z) ** 2)

    int_f = orbifold_integrate(f, orb, resolution=96)
    int_g = orbifold_integrate(g, orb, resolution=96)
    both = orbifold_integrate(lambda ci, Z: 2.0 * f(ci, Z) - 3.0 * g(ci, Z), orb,
                              resolution=96)
    assert both == pytest.approx(2 * int_f - 3 * int_g, rel=1e-12)
    assert int_f >= -1e-12 and int_g >= -1e-12


def test_integral_invariant_under_group_composition():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    g1 = orb.charts[1].group[1].rotation[0]

    def f(ci, Z):
        return np.exp(-np.abs(Z) ** 2)

    def f_moved(ci, Z):
        return f(ci, g1 * Z) if ci == 1 else f(ci, Z)

    a = orbifold_integrate(f, orb, resolution=96)
    b = orbifold_integrate(f_moved, orb, resolution=96)
    assert b == pytest.approx(a, abs=1e-9)


def test_quadrature_refuses_higher_dimensional_models():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0, 1.0))
    with pytest.raises(UnsupportedModelError, match="dimension 2"):
        orbifold_integrate(lambda ci, Z: ones(Z), orb, resolution=8)


def test_gauss_legendre_rule_computed_once_per_resolution(monkeypatch):
    """Radii share the rule on [-1, 1]; each call returns it scaled to the radius."""
    from orbmorse import geometry
    monkeypatch.setattr(geometry, "_GL_RULES", {})
    legendre_rule = geometry._legendre_rule
    calls = []

    def counting(n):
        calls.append(n)
        return legendre_rule(n)

    monkeypatch.setattr(geometry, "_legendre_rule", counting)
    x0, w0 = legendre_rule(24)
    for radius in (0.75, 1.3, 2):
        x, w = geometry.gauss_legendre_nodes(24, radius)
        assert np.array_equal(x, x0 * radius)
        assert np.array_equal(w, w0 * radius)
    assert calls == [24]


def meshgrid_rule(resolution, radius):
    """The full tensor grid, as built before the rule was streamed in blocks."""
    from orbmorse.geometry import gauss_legendre_nodes
    x, w = gauss_legendre_nodes(resolution, radius)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return X.ravel() + 1j * Y.ravel(), np.outer(w, w).ravel()


def mp_legendre_root(n, x0):
    """The root of P_n next to x0 and its Gauss weight, by Newton's method at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for step in range(4):
            pm1, p = mpmath.mpf(1), x
            for k in range(1, n):
                pm1, p = p, ((2 * k + 1) * x * p - k * pm1) / (k + 1)
            if step < 3:
                x -= p * (1 - x * x) / (n * (pm1 - x * p))
        return x, 2 * (1 - x * x) / (n * pm1) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 24, 101, 128, 1024, 2048])
def test_gauss_legendre_rule_matches_40_digit_roots(n):
    """Nodes to 4e-16; weights to 5e-14 relative, and within 4x of leggauss's error.

    leggauss's own end weights are 1.2e-9 off at n = 1024 and 6.3e-8 at
    n = 2048, so the fixed pin is one leggauss fails; where leggauss happens
    to round a weight correctly, 4 ulp are allowed.
    """
    from orbmorse.geometry import gauss_legendre_nodes
    x, w = gauss_legendre_nodes(n, 1.0)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    sample = sorted({0, 1, 2, 3, 4, n // 3, n // 2, n - 5, n - 4, n - 3, n - 2, n - 1}
                    & set(range(n)))
    for i in sample:
        root, weight = mp_legendre_root(n, x_ref[i])
        assert abs(float(x[i] - root)) <= 4e-16
        err = abs(float((w[i] - weight) / weight))
        ref_err = abs(float((w_ref[i] - weight) / weight))
        assert err <= 5e-14
        assert err <= max(4 * ref_err, 4 * np.finfo(float).eps)


@pytest.mark.parametrize("n, most", [(1, 3), (2, 3), (3, 3), (24, 3), (101, 3),
                                     (128, 1), (1024, 1), (2048, 1)])
def test_legendre_rule_takes_one_recurrence_pass_from_olver_and_tricomi(monkeypatch, n, most):
    """From Olver's guesses near the ends and Tricomi's inside, one pass of the
    O(n) recurrence converges at n >= 128, and the weights take no extra pass."""
    from orbmorse import geometry
    legendre_slope = geometry._legendre_slope
    calls = []

    def counting(n, theta):
        calls.append(n)
        return legendre_slope(n, theta)

    monkeypatch.setattr(geometry, "_legendre_slope", counting)
    geometry._legendre_rule(n)
    assert 1 <= len(calls) <= most


def test_bessel_j0_zeros_match_mpmath():
    """The ten tabulated zeros to 1 ulp, and McMahon's expansion beyond them
    to 1 ulp up to k = 200."""
    from orbmorse.geometry import BESSEL_J0_ZEROS, _bessel_j0_zeros
    zeros = _bessel_j0_zeros(200)
    assert zeros.size == 200
    assert np.array_equal(zeros[:BESSEL_J0_ZEROS.size], BESSEL_J0_ZEROS)
    for k, z in enumerate(zeros, start=1):
        ref = float(mpmath.besseljzero(0, k))
        assert abs(z - ref) <= math.ulp(ref)
    assert _bessel_j0_zeros(0).size == 0 and _bessel_j0_zeros(3).size == 3


def test_gauss_legendre_rule_memory_is_linear(monkeypatch):
    """n = 2048 from an empty cache peaks under 1 MB; leggauss held a 32 MB matrix."""
    from orbmorse import geometry
    monkeypatch.setattr(geometry, "_GL_RULES", {})
    tracemalloc.start()
    try:
        geometry.gauss_legendre_nodes(2048, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("resolution", [24, 100, 1024])
def test_tensor_blocks_concatenate_to_the_full_grid(resolution):
    """The row blocks, in order, are the meshgrid rule bit for bit."""
    from orbmorse.geometry import BLOCK_ROWS, tensor_blocks
    blocks = list(tensor_blocks(resolution, 1.3))
    assert len(blocks) == -(-resolution // BLOCK_ROWS)
    assert all(nodes.size <= BLOCK_ROWS * resolution for nodes, _ in blocks)
    nodes, weights = meshgrid_rule(resolution, 1.3)
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), nodes)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), weights)


def test_radial_field_takes_the_same_bits_on_the_rule_symmetry():
    """z, -z, conj z and i conj z give the same r^2, hence the same value."""
    from orbmorse.geometry import RadialField
    field = RadialField(lambda r2: np.exp(-r2) / (1.0 + math.pi * r2) ** 1.7)
    x = np.random.default_rng(3).uniform(-1.3, 1.3, (2, 200))
    z = x[0] + 1j * x[1]
    value = field(z)
    assert np.array_equal(value, field.profile(x[0] * x[0] + x[1] * x[1]))
    for moved in (-z, np.conj(z), 1j * np.conj(z)):
        assert np.array_equal(field(moved), value)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 101, 128])
def test_legendre_rule_is_a_bitwise_mirror(n):
    """The fold rests on x_{n-1-i} = -x_i and w_{n-1-i} = w_i, bit for bit."""
    from orbmorse.geometry import gauss_legendre_nodes
    x, w = gauss_legendre_nodes(n, 1.3)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("resolution", [1, 2, 3, 24, 101, 128, 1024])
def test_folded_blocks_hold_one_node_per_orbit(resolution):
    """ceil(n/2)(ceil(n/2)+1)/2 nodes in blocks of BLOCK_ROWS * ceil(n/2) at most,
    and the weights sum to the tensor rule's total within 1e-15."""
    from orbmorse.geometry import BLOCK_ROWS, folded_blocks, tensor_blocks
    half = -(-resolution // 2)
    blocks = list(folded_blocks(resolution, 1.3))
    assert all(nodes.size == weights.size <= BLOCK_ROWS * half for nodes, weights in blocks)
    nodes = np.concatenate([b[0] for b in blocks])
    assert nodes.size == half * (half + 1) // 2
    assert np.all((0.0 <= nodes.real) & (nodes.real <= nodes.imag))
    folded = math.fsum(np.concatenate([b[1] for b in blocks]))
    full = math.fsum(np.concatenate([b[1] for b in tensor_blocks(resolution, 1.3)]))
    assert abs(folded - full) <= 1e-15 * full


@pytest.mark.parametrize("support", [0.0, 0.3, 1.69, 2.5, 3.38, 4.0])
@pytest.mark.parametrize("resolution", [1, 2, 25, 128, 1024])
def test_folded_blocks_clip_to_the_support(resolution, support):
    """With a support the folded rule is the unclipped one less its nodes with
    r^2 >= support, in the same order, each block at most BLOCK_ROWS rows."""
    from orbmorse.geometry import BLOCK_ROWS, folded_blocks
    half = -(-resolution // 2)
    blocks = list(folded_blocks(resolution, 1.3, support))
    assert all(nodes.size == weights.size <= BLOCK_ROWS * half for nodes, weights in blocks)
    nodes, weights = (np.concatenate([b[k] for b in blocks] or [np.empty(0)]) for k in (0, 1))
    full_nodes, full_weights = (np.concatenate([b[k] for b in folded_blocks(resolution, 1.3)])
                                for k in (0, 1))
    inside = full_nodes.real * full_nodes.real + full_nodes.imag * full_nodes.imag < support
    assert np.array_equal(nodes, full_nodes[inside])
    assert np.array_equal(weights, full_weights[inside])


def catalog_bumps():
    """(label, bump) of every chart of P(a, b), a, b <= 7 coprime, and of the dented P(1,1)."""
    models = [((a, b), None) for a in range(1, 8) for b in range(1, 8) if math.gcd(a, b) == 1]
    models.append(((1, 1), {"amplitude": 1.2, "center": 0.45, "width": 0.12}))
    return [(f"P{weights} dent={dent is not None} chart {k}", chart.bump)
            for weights, dent in models
            for k, chart in enumerate(build_catalog_orbifold("wps", weights=weights,
                                                             dent=dent)[0].charts)]


CATALOG_BUMPS = catalog_bumps()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CATALOG_BUMPS), st.floats(1.0, 1e6),
       st.integers(0, 64))
def test_catalog_bumps_vanish_exactly_on_and_beyond_their_support(labelled, scale, ulps):
    """The quadrature leaves out the nodes at r^2 >= support: the bump is
    exactly 0.0 there, from the support itself and the floats just above it."""
    label, bump = labelled
    assert math.isfinite(bump.support), label
    r2 = np.array([bump.support * scale, bump.support])
    for _ in range(ulps):
        r2[1] = np.nextafter(r2[1], np.inf)
    assert np.all(bump.profile(r2) == 0.0), label
    z = np.sqrt(r2) + 0j
    assert np.all(bump(z[z.real * z.real >= bump.support]) == 0.0), label


def test_only_the_catalog_bumps_declare_a_support():
    """Metrics, curvatures and the torus and local-model fields keep the whole box."""
    for catalog_id, params in [("wps", dict(weights=(2, 3))), ("torus", dict(d=1, k=2)),
                               ("local-model", dict(k=2, a=[1.0]))]:
        orb, bundle = build_catalog_orbifold(catalog_id, **params)
        fields = [chart.metric_scalar for chart in orb.charts] + list(bundle.curvature_scalars)
        if catalog_id != "wps":
            fields += [chart.bump for chart in orb.charts]
        assert all(f.support == math.inf for f in fields)


@pytest.mark.parametrize("resolution", [24, 25])
def test_folded_weights_are_the_orbit_sums_of_the_tensor_rule(resolution):
    """Each folded weight is the exact sum of the tensor weights on its orbit:
    8, 4 on the diagonal and the odd rule's axis, 1 at the origin."""
    from orbmorse.geometry import folded_blocks
    nodes, weights = meshgrid_rule(resolution, 1.3)
    orbits = {}
    for z, w in zip(nodes, weights):
        key = tuple(sorted((abs(z.real), abs(z.imag))))
        orbits.setdefault(key, []).append(w)
    folded = {(z.real, z.imag): w for block in folded_blocks(resolution, 1.3)
              for z, w in zip(*block)}
    assert folded.keys() == orbits.keys()
    sizes = {len(ws) for ws in orbits.values()}
    assert sizes == ({1, 4, 8} if resolution % 2 else {4, 8})
    for key, ws in orbits.items():
        assert len(set(ws)) == 1
        assert folded[key] == ws[0] * len(ws)


def test_invariance_spot_check_draws_the_grid_nodes():
    """The spot check samples the nodes the full grid holds at the drawn flat indices."""
    orb, _ = build_catalog_orbifold("local-model", k=3, a=(1.0,))
    seen = []

    def field(ci, Z):
        seen.append(np.array(Z))
        return ones(Z)

    orbifold_integrate(field, orb, resolution=40, rng=np.random.default_rng(5))
    nodes, _ = meshgrid_rule(40, orb.charts[0].box_radius)
    idx = np.random.default_rng(5).integers(0, nodes.size, size=8)
    assert np.array_equal(next(z for z in seen if z.size == 8), nodes[idx])


def test_non_invariant_integrand_rejected():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(IntegrandError):
        orbifold_integrate(lambda ci, Z: np.real(Z), orb, resolution=32)


def test_torus_cell_volume():
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    val = orbifold_integrate(lambda ci, Z: ones(Z), orb, resolution=64)
    assert val == pytest.approx(0.5, rel=1e-12)


def test_torus_rejects_unsupported_symmetry():
    with pytest.raises(ConfigurationError):
        build_catalog_orbifold("torus", d=1, k=3)


def test_bumps_form_partition_of_unity_on_overlap():
    """Every downstairs point is covered: the chart bumps sum to one."""
    for weights in [(1, 1), (1, 2), (2, 3)]:
        orb, _ = build_catalog_orbifold("wps", weights=weights)
        to_y = orb.transitions["x_abs_to_y_abs"]
        for zabs in np.linspace(0.05, 2.5, 40):
            chi_x = float(orb.charts[0].bump(np.array([zabs + 0j]))[0])
            chi_y = float(orb.charts[1].bump(np.array([to_y(zabs) + 0j]))[0])
            assert chi_x + chi_y == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3)])
def test_metric_and_curvature_transport_across_charts(weights):
    """Chart fields represent one global metric and one global curvature form.

    At a matched overlap point, densities transport with the squared
    transition Jacobian |dw'/dz|^2 = gamma^2 (a/b)^2 |z|^(-2a/b - 2).
    """
    from orbmorse.catalog import build_catalog_orbifold
    a, b = weights
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    gamma = orb.params["gamma"]
    for zabs in (0.8, 1.0, 1.3):
        wabs = orb.transitions["x_abs_to_y_abs"](zabs)
        jac2 = (gamma * (a / b)) ** 2 * zabs ** (-2.0 * a / b - 2.0)
        h_x = float(np.real(orb.charts[0].metric_scalar(np.array([zabs + 0j]))[0]))
        h_y = float(np.real(orb.charts[1].metric_scalar(np.array([wabs + 0j]))[0]))
        assert h_y * jac2 == pytest.approx(h_x, rel=1e-11)
        c_x = float(np.real(bundle.curvature_scalars[0](np.array([zabs + 0j]))[0]))
        c_y = float(np.real(bundle.curvature_scalars[1](np.array([wabs + 0j]))[0]))
        assert c_y * jac2 == pytest.approx(c_x, rel=1e-11)
