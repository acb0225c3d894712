"""Chart/orbifold construction, volume densities, and group-aware quadrature."""

import itertools
import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbmorse.catalog import WPS_BETA, _wps_metric_profiles, build_catalog_orbifold
from orbmorse.curvature import signature_integrals
from orbmorse.errors import (ConfigurationError, GeometryError, IntegrandError,
                             UnsupportedModelError)
from orbmorse.geometry import (OrbifoldChart, RadialField, constant_field, cyclic_group,
                               fibre_angles, orbifold_integrate, volume_density)

from fibre_fraction import fraction_angle


def ones(Z):
    return np.ones(np.shape(Z))


def on_every_chart(field, orb):
    """The integrand fields of ``orbifold_integrate``: ``field`` on each chart."""
    return (field,) * len(orb.charts)


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


def test_a_copied_chart_is_checked_again():
    """``_replace`` and ``_make`` build through the chart's checks: a metric
    with h(0) != 1 is refused, and a dropped bump becomes the constant one."""
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    chart = orb.charts[0]
    with pytest.raises(GeometryError, match="metric_scalar"):
        chart._replace(metric_scalar=constant_field(2.0))
    with pytest.raises(GeometryError, match="metric_scalar"):
        OrbifoldChart._make((1, chart.group, chart.bump, chart.box_radius, None))
    flat = chart._replace(bump=None)
    assert type(flat) is OrbifoldChart and isinstance(flat.bump, RadialField)
    assert flat.bump(np.array([0.0j, 5.0 + 5.0j])).tolist() == [1.0, 1.0]
    assert flat.metric_scalar is chart.metric_scalar


def test_flat_two_dimensional_chart_has_no_metric_density():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0, 1.0))
    chart = orb.charts[0]
    assert chart.metric_scalar is None
    with pytest.raises(UnsupportedModelError):
        volume_density(chart, np.zeros(2))


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
            group = cyclic_group(k, weights, character=2 ** 70 + 7)
            assert len(group) == k
            assert_dense_group(group)
            # the fixed mask is the exact form of the rotation test
            for g in group:
                assert np.array_equal(g.fixed, np.abs(g.rotation - 1.0) <= IDENTITY_TOL)
            assert [g.character for g in group] == [(2 ** 70 + 7) * m % k for m in range(k)]
            assert all(type(g.character) is int for g in group)
            checked += 1
    assert checked > 400


@settings(max_examples=300, deadline=None)
@given(characters=st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=6),
       k=st.integers(1, 64), p=st.one_of(st.integers(0, 4096), st.integers(0, 2 ** 200)))
@example(characters=[13], k=26, p=1).via("2 pi 13 / 26 rounds above pi")
@example(characters=[1, -1], k=52, p=26).via("2 pi 26 / 52 rounds above pi")
def test_fibre_angles_reduce_in_integers(characters, k, p):
    """Each angle is that of the Fraction c p / k mod 1, bit for bit, in
    (-pi, pi]; it is exactly 0.0 where k divides c p, at any p."""
    angles = fibre_angles(characters, k, p)
    assert angles.tolist() == [fraction_angle(c, k, p) for c in characters]
    assert all(-math.pi < t <= math.pi for t in angles.tolist())
    assert [t == 0.0 for t in angles.tolist()] == [c * p % k == 0 for c in characters]


def test_large_local_model_builds_fast():
    # the group is built in closed form: no k^2 products to match
    start = time.perf_counter()
    orb, _ = build_catalog_orbifold("local-model", k=256, a=(1.0,))
    assert time.perf_counter() - start < 1.0
    assert orb.charts[0].order == 256


def test_metric_invariance_sampled():
    """h(g z) == h(z) at 12 sampled points of each chart, for every g."""
    rng = np.random.default_rng(2)
    for args in [("wps", dict(weights=(1, 2))), ("wps", dict(weights=(2, 3))),
                 ("local-model", dict(k=3, a=(1.0,)))]:
        orb, _ = build_catalog_orbifold(args[0], **args[1])
        for chart in orb.charts:
            r = chart.box_radius
            z = (rng.uniform(-r, r, 12) + 1j * rng.uniform(-r, r, 12)) * 0.5
            h = np.real(chart.metric_scalar(z))
            for g in chart.group:
                hg = np.real(chart.metric_scalar(g.rotation[0] * z))
                assert np.max(np.abs(hg - h)) <= 1e-10


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


HALF_LATTICE = [complex(i / 2, j / 2) for i in range(-22, 23) for j in range(-22, 23)]


@settings(max_examples=200, deadline=None)
@given(z=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_half_turn_distance_is_the_nearest_half_lattice_point(z):
    """The closed form reads the distance to every half-turn fixed point of
    the plane, (1/2) Z[i], not only to those next to the unit cell."""
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    assert orb.singular_distance(0, z) == min(abs(z - c) for c in HALF_LATTICE)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), weights=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       point=st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                         allow_infinity=False), min_size=3, max_size=3))
# 2 ulps apart, with the exact distance between them
@example(k=2, weights=[1, 1], point=[-0.361 - 0.53j, -0.386 + 0.536j, 0j])
def test_local_model_distance_is_the_least_per_generator_norm(k, weights, point):
    """The local model's one array pass over its moved-coordinate mask reads
    the least norm of the coordinates a non-identity element moves: bit for
    bit at n = 1, and within 2 ulps above.  np.linalg.norm sums the squares
    by a BLAS dot, which fuses its multiply-adds; so at n = 2 and 3 its sum
    of squares rounds apart from the array pass's: 1 ulp apart on about a
    fifth of random draws, 2 ulps on 2 to 11 in 10^4, and never 3 in 1.4
    million."""
    assume(math.gcd(k, *weights) == 1)
    n = len(weights)
    orb, _ = build_catalog_orbifold("local-model", k=k, a=(1.0,) * n, weights=weights)
    Z = np.array(point[:n])
    distance = orb.singular_distance(0, Z)
    if k == 1:
        assert distance == 10.0
        return
    norm = min(float(np.linalg.norm(Z[~g.fixed])) for g in orb.charts[0].group[1:])
    assert distance == norm if n == 1 else abs(distance - norm) <= 2 * math.ulp(norm)


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
    val = orbifold_integrate(on_every_chart(lambda Z: (np.abs(Z) <= 1.0).astype(float), orb),
                             orb, resolution=400)
    assert val == pytest.approx(math.pi / k, rel=5e-3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_radial_unit_ball_volume_is_exact(k):
    """As a RadialField the unit ball is the square chart's inscribed disc,
    whose edge is the break r^2 = 1 of the rule in |z|^2; the fold of the
    tensor rule read 1.3e-3 off pi/3 at 400."""
    orb, _ = build_catalog_orbifold("local-model", k=k, a=(1.0,))
    ball = RadialField(lambda r2: (r2 <= 1.0).astype(float))
    assert abs(orbifold_integrate((ball,), orb, resolution=400) - math.pi / k) <= 1e-15


def test_unit_volume_of_projective_line():
    """Radial integrands take the rule in |z|^2, split at the bump's edge; the
    tensor rule read 1.1e-7 off at 64 and 2.4e-9 at 160."""
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    for resolution in (64, 160, 256, 512):
        val = orbifold_integrate(on_every_chart(constant_field(1.0), orb), orb,
                                 resolution=resolution)
        assert val == pytest.approx(1.0, abs=1e-15)


def test_zero_integrand_is_zero():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    assert orbifold_integrate(on_every_chart(lambda Z: np.zeros(Z.shape), orb), orb,
                              resolution=64) == 0.0


def test_integral_linearity_and_positivity():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))

    def f(Z):
        return np.abs(Z) ** 2

    def g(Z):
        return np.exp(-np.abs(Z) ** 2)

    int_f = orbifold_integrate(on_every_chart(f, orb), orb, resolution=96)
    int_g = orbifold_integrate(on_every_chart(g, orb), orb, resolution=96)
    both = orbifold_integrate(on_every_chart(lambda Z: 2.0 * f(Z) - 3.0 * g(Z), orb), orb,
                              resolution=96)
    assert both == pytest.approx(2 * int_f - 3 * int_g, rel=1e-12)
    assert int_f >= -1e-12 and int_g >= -1e-12


def test_integral_invariant_under_group_composition():
    """Moving the singular chart's integrand by the group generator leaves the
    integral unchanged.  The moved integrand is a point function, so it takes
    the tensor rule, and the unmoved reference is the same point function."""
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    g1 = orb.charts[1].group[1].rotation[0]

    def f(Z):
        return np.exp(-np.abs(Z) ** 2)

    a, b = (orbifold_integrate((f, lambda Z, m=m: f(m * Z)), orb, resolution=96)
            for m in (1.0, g1))
    assert b == pytest.approx(a, abs=1e-9)


def test_quadrature_refuses_higher_dimensional_models():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0, 1.0))
    with pytest.raises(UnsupportedModelError, match="dimension 2"):
        orbifold_integrate(on_every_chart(ones, orb), orb, resolution=8)


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


@pytest.mark.parametrize("catalog_id,params", [("wps", dict(weights=(2, 3))),
                                               ("torus", dict(d=1, k=2)),
                                               ("local-model", dict(k=3, a=(1.0,)))])
def test_point_function_integrand_keeps_the_full_grid(catalog_id, params):
    """A plain point function takes the full tensor rule on every chart: the
    value is the meshgrid rule's, summed row block by row block, bit for bit."""
    from orbmorse.geometry import BLOCK_ROWS
    orb, _ = build_catalog_orbifold(catalog_id, **params)
    resolution = 100
    block = BLOCK_ROWS * resolution

    def f(Z):
        return np.exp(-np.abs(Z) ** 2)

    expected = 0.0
    for chart in orb.charts:
        nodes, weights = meshgrid_rule(resolution, chart.box_radius)
        chart_sum = 0.0
        for i in range(0, nodes.size, block):
            z = nodes[i:i + block]
            chart_sum += np.add.reduce(weights[i:i + block] * (
                chart.bump(z) * np.real(chart.metric_scalar(z)) * f(z)))
        expected += float(chart_sum / chart.order)
    assert orbifold_integrate(on_every_chart(f, orb), orb, resolution=resolution) == expected


def test_orbifold_integrate_needs_one_field_per_chart():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 2))
    with pytest.raises(ValueError, match="1 integrand fields for 2 charts"):
        orbifold_integrate((constant_field(1.0),), orb, resolution=8)


@pytest.mark.parametrize("resolution", [0, -3, 2.5, True])
@pytest.mark.parametrize("integrate", [
    lambda orb, bundle, resolution: orbifold_integrate(
        on_every_chart(constant_field(1.0), orb), orb, resolution=resolution),
    lambda orb, bundle, resolution: signature_integrals(orb, bundle, resolution=resolution),
], ids=["orbifold_integrate", "signature_integrals"])
def test_a_bad_resolution_is_refused_by_either_integrator(integrate, resolution):
    """0 used to raise ZeroDivisionError, -3 numpy's zero-size ValueError, and
    2.5 ran the 2-node rule; the rule's node reader refuses each by value."""
    orb, bundle = build_catalog_orbifold("wps", weights=(2, 3))
    with pytest.raises(ConfigurationError, match=f"got {resolution!r}$"):
        integrate(orb, bundle, resolution)


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


def laplace_nodes_per_end(x):
    """How many nodes from each end of the rule ``x`` Laplace's integral takes:
    those with n sin(theta) below ``geometry.STIELTJES_MIN``."""
    from orbmorse.geometry import STIELTJES_MIN
    half = x[: (x.size + 1) // 2]
    return int(np.count_nonzero(x.size * np.sqrt(1.0 - half * half) < STIELTJES_MIN))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 24, 64, 101, 127, 128, 129, 1023, 1024, 2048,
                               4096])
def test_gauss_legendre_rule_matches_40_digit_roots(n):
    """Nodes to 4e-16; weights to 5e-14 relative, and within 4x of leggauss's error.

    leggauss's own end weights are 1.2e-9 off at n = 1024 and 6.3e-8 at
    n = 2048, so the fixed pin is one leggauss fails; where leggauss happens
    to round a weight correctly, 4 ulp are allowed.  At n = 4096 leggauss
    would hold a 134 MB companion matrix, so the 40-digit Newton starts from
    the rule's own nodes and only the fixed pins apply.  The sample holds, at
    each end, the last node Laplace's integral takes and the first node of
    Stieltjes' series, where the two evaluators meet on one scale.
    """
    from orbmorse.geometry import gauss_legendre_nodes
    x, w = gauss_legendre_nodes(n, 1.0)
    if n <= 2048:
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    else:
        x_ref, w_ref = x, None
    ends = laplace_nodes_per_end(x)
    sample = sorted({0, 1, 2, 3, 4, n // 3, n // 2, n - 5, n - 4, n - 3, n - 2, n - 1,
                     ends - 1, ends, n - 1 - ends, n - ends} & set(range(n)))
    for i in sample:
        root, weight = mp_legendre_root(n, x_ref[i])
        assert abs(float(x[i] - root)) <= 4e-16
        err = abs(float((w[i] - weight) / weight))
        assert err <= 5e-14
        if w_ref is not None:
            ref_err = abs(float((w_ref[i] - weight) / weight))
            assert err <= max(4 * ref_err, 4 * np.finfo(float).eps)


@pytest.mark.parametrize("n, most", [(1, 3), (2, 3), (3, 3), (24, 3), (101, 3),
                                     (128, 1), (1024, 1), (2048, 1)])
def test_legendre_rule_takes_one_recurrence_pass_from_olver_and_tricomi(monkeypatch, n, most):
    """From Olver's guesses near the ends and Tricomi's inside, one Newton pass
    converges at n >= 128, and the weights take no extra pass.  Each pass runs
    Laplace's integral once, and Stieltjes' series once when some node has
    n sin(theta) >= STIELTJES_MIN = 20, as the middle nodes of a rule above 20 do."""
    from orbmorse import geometry
    calls = {"_legendre_laplace": 0, "_legendre_stieltjes": 0}
    for name in calls:
        def counting(n, theta, name=name, evaluate=getattr(geometry, name)):
            calls[name] += 1
            return evaluate(n, theta)
        monkeypatch.setattr(geometry, name, counting)
    geometry._legendre_rule(n)
    passes = calls["_legendre_laplace"]
    assert 1 <= passes <= most
    assert calls["_legendre_stieltjes"] == (passes if n > geometry.STIELTJES_MIN else 0)


def test_laplace_takes_the_same_few_nodes_at_every_size(monkeypatch):
    """Laplace's integral costs O(n) per node, so the rule is O(n) only while
    it takes a fixed few: near the ends theta_k is about j_{0,k} / n, and
    j_{0,6} < STIELTJES_MIN < j_{0,7}, so six nodes and the first series node,
    where the two share their scale, at every n from 128 to 2^16."""
    from orbmorse import geometry
    sizes = []
    laplace = geometry._legendre_laplace

    def recording(n, theta):
        sizes.append(theta.size)
        return laplace(n, theta)

    monkeypatch.setattr(geometry, "_legendre_laplace", recording)
    expected = np.count_nonzero(geometry.BESSEL_J0_ZEROS < geometry.STIELTJES_MIN) + 1
    for n in (128, 129, 255, 1000, 1023, 4096, 4097, 2 ** 14 + 1, 2 ** 16):
        sizes.clear()
        x, _ = geometry._legendre_rule(n)
        assert sizes == [expected], n
        assert laplace_nodes_per_end(x) == expected - 1, n


@pytest.mark.parametrize("n", [1024, 4096, 2 ** 16])
def test_stieltjes_blocks_leave_the_rule_unchanged(monkeypatch, n):
    """The series takes STIELTJES_BLOCK nodes at a time; one block of all the
    series nodes gives the same nodes and weights bit for bit."""
    from orbmorse import geometry
    blocked = geometry._legendre_rule(n)
    monkeypatch.setattr(geometry, "STIELTJES_BLOCK", n)
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in geometry._legendre_rule(n)]


def test_stieltjes_series_memory_is_linear_in_the_nodes():
    """At n = 2^16 the series' peak is its O(n) arrays, about 4 MB: one matrix
    of the 24 powers of all 2^15 nodes would take 12.6 MB more."""
    from orbmorse import geometry
    n = 2 ** 16
    theta = np.linspace(0.01, np.pi / 2, n // 2)
    tracemalloc.start()
    try:
        geometry._legendre_stieltjes(n, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("n", [4096, 2 ** 16])
def test_laplace_blocks_leave_the_rule_unchanged(monkeypatch, n):
    """Laplace's integral takes whole nodes, at most LAPLACE_BLOCK node-angle
    pairs at a time; one block of every Laplace node gives the same nodes and
    weights bit for bit."""
    from orbmorse import geometry
    blocked = geometry._legendre_rule(n)
    monkeypatch.setattr(geometry, "LAPLACE_BLOCK", n * n)
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in geometry._legendre_rule(n)]


@pytest.mark.parametrize("n,blocks", [(1024, 1), (2 ** 14, 1), (2 ** 14 + 1, 1), (2 ** 16, 7)])
def test_laplace_is_one_block_to_n_16384(monkeypatch, n, blocks):
    """The seven Laplace nodes of a rule to n = 16384 are one block, so those
    rules keep their timing; at n = 2^16 each node is its own block."""
    from orbmorse import geometry
    sums, calls = geometry._laplace_sums, []

    def counting(n, theta, phi):
        calls.append(theta.size)
        return sums(n, theta, phi)

    monkeypatch.setattr(geometry, "_laplace_sums", counting)
    geometry._legendre_laplace(n, np.linspace(1e-4, 2e-3, 7))
    assert len(calls) == blocks and sum(calls) == 7


def test_laplace_memory_is_one_block():
    """At n = 2^16 the peak of Laplace's integral on its seven nodes is one
    node's arrays, about 3 MB, where all seven at once took 18.9 MB."""
    from orbmorse import geometry
    theta = np.linspace(1e-4, 2e-3, 7)
    tracemalloc.start()
    try:
        geometry._legendre_laplace(2 ** 16, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


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
    field = RadialField(lambda r2: np.exp(-r2) / (1.0 + math.pi * r2) ** 1.7)
    x = np.random.default_rng(3).uniform(-1.3, 1.3, (2, 200))
    z = x[0] + 1j * x[1]
    value = field(z)
    assert np.array_equal(value, field.profile(x[0] * x[0] + x[1] * x[1]))
    for moved in (-z, np.conj(z), 1j * np.conj(z)):
        assert np.array_equal(field(moved), value)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 101, 128])
def test_legendre_rule_is_a_bitwise_mirror(n):
    """The rule is built from its nodes with x >= 0 by symmetry, so
    x_{n-1-i} = -x_i and w_{n-1-i} = w_i, bit for bit."""
    from orbmorse.geometry import gauss_legendre_nodes
    x, w = gauss_legendre_nodes(n, 1.3)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("support", [0.0, 0.3, 1.69, 2.5, 3.38, 4.0])
@pytest.mark.parametrize("resolution", [1, 2, 25, 128, 1024])
def test_folded_blocks_clip_to_the_support(resolution, support):
    """A bump's support is read by the rule in |z|^2: over the breaks
    (0, support / 2, support) it holds ``resolution`` nodes on each piece,
    inside it, and integrates pi s^m ds exactly for m < 2 * resolution."""
    from orbmorse.geometry import radial_blocks
    breaks = (0.0, 0.5 * support, support)
    (nodes, weights), = radial_blocks(resolution, breaks)
    assert nodes.shape == weights.shape == (2 * resolution,)
    assert np.all(nodes.imag == 0.0)
    s = (nodes.real * nodes.real).reshape(2, resolution)
    assert np.all((breaks[0] <= s[0]) & (s[0] <= breaks[1] * (1 + 1e-15)))
    assert np.all((breaks[1] * (1 - 1e-15) <= s[1]) & (s[1] <= breaks[2] * (1 + 1e-15)))
    for m in range(min(2 * resolution, 6)):
        exact = math.pi * support ** (m + 1) / (m + 1)
        assert abs(math.fsum(weights * s.ravel() ** m) - exact) <= 1e-14 * exact


RESOLUTIONS_FROM_16 = [*range(16, 129), 255, 256, 400, 512, 1000, 1024, 2048]


def square_chart_rule(radius, resolution):
    """(s = |z|^2, weights) of the rule a square chart of half-side ``radius``
    takes for a radial integrand."""
    from orbmorse.geometry import chart_blocks
    chart = OrbifoldChart(dimension=1, group=cyclic_group(1, (1,)), box_radius=radius,
                          metric_scalar=constant_field(1.0))
    (nodes, weights), = chart_blocks(chart, (constant_field(1.0),), resolution)
    return nodes.real * nodes.real, weights


def square_moment(m, radius):
    """The integral of (x^2 + y^2)^m over [-r, r]^2, by the binomial theorem."""
    return radius ** (2 * m + 2) * math.fsum(
        math.comb(m, j) * 4 / ((2 * j + 1) * (2 * m - 2 * j + 1)) for j in range(m + 1))


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.3])
def test_square_rule_integrates_radial_monomials_in_closed_form(radius):
    """A square chart takes the rule in |z|^2 on two pieces of ``resolution``
    nodes, the inscribed disc and the corners r^2 <= s <= 2 r^2; it integrates
    (x^2 + y^2)^m, m <= 3, to 1e-15 relative from resolution 16 on."""
    for resolution in RESOLUTIONS_FROM_16:
        s, weights = square_chart_rule(radius, resolution)
        assert s.shape == weights.shape == (2 * resolution,)
        disc, corners = s.reshape(2, resolution)
        assert np.all((0.0 <= disc) & (disc <= radius ** 2 * (1 + 1e-15)))
        assert np.all((radius ** 2 * (1 - 1e-15) <= corners)
                      & (corners <= 2 * radius ** 2 * (1 + 1e-15)))
        for m in range(4):
            exact = square_moment(m, radius)
            assert abs(math.fsum(weights * s ** m) - exact) <= 1e-15 * exact, (resolution, m)


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.3])
def test_square_rule_holds_the_area_at_every_resolution(radius):
    """The corner weights are scaled to the corner area (4 - pi) r^2, so a
    constant integrates to 4 r^2 within 1e-15 relative from resolution 1 on."""
    for resolution in [*range(1, 16), *RESOLUTIONS_FROM_16]:
        _, weights = square_chart_rule(radius, resolution)
        assert abs(math.fsum(weights) - 4 * radius ** 2) <= 1e-15 * 4 * radius ** 2


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


def test_invariance_spot_check_draws_the_grid_nodes():
    """The spot check samples the nodes the full grid holds at the flat indices
    drawn from seed 0."""
    orb, _ = build_catalog_orbifold("local-model", k=3, a=(1.0,))
    seen = []

    def field(Z):
        seen.append(np.array(Z))
        return ones(Z)

    orbifold_integrate((field,), orb, resolution=40)
    nodes, _ = meshgrid_rule(40, orb.charts[0].box_radius)
    idx = np.random.default_rng(0).integers(0, nodes.size, size=8)
    assert np.array_equal(next(z for z in seen if z.size == 8), nodes[idx])


def test_non_invariant_integrand_rejected():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(IntegrandError):
        orbifold_integrate((np.real,), orb, resolution=32)


def test_torus_cell_volume():
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    val = orbifold_integrate(on_every_chart(ones, orb), orb, resolution=64)
    assert val == pytest.approx(0.5, rel=1e-12)


def test_torus_rejects_unsupported_symmetry():
    with pytest.raises(ConfigurationError):
        build_catalog_orbifold("torus", d=1, k=3)


def test_bumps_form_partition_of_unity_on_overlap():
    """Every downstairs point is covered: the chart bumps sum to one."""
    for weights in [(1, 1), (1, 2), (2, 3)]:
        a, b = weights
        orb, _ = build_catalog_orbifold("wps", weights=weights)
        gamma = _wps_metric_profiles(a, b, WPS_BETA)[2]
        for zabs in np.linspace(0.05, 2.5, 40):
            wabs = gamma * zabs ** (-a / b)    # |w'| of the same point
            chi_x = float(orb.charts[0].bump(np.array([zabs + 0j]))[0])
            chi_y = float(orb.charts[1].bump(np.array([wabs + 0j]))[0])
            assert chi_x + chi_y == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3)])
def test_metric_and_curvature_transport_across_charts(weights):
    """Chart fields represent one global metric and one global curvature form.

    At a matched overlap point, densities transport with the squared
    transition Jacobian |dw'/dz|^2 = gamma^2 (a/b)^2 |z|^(-2a/b - 2).
    """
    from orbmorse.catalog import WPS_BETA, _wps_metric_profiles, build_catalog_orbifold
    a, b = weights
    orb, bundle = build_catalog_orbifold("wps", weights=weights)
    gamma = _wps_metric_profiles(a, b, WPS_BETA)[2]
    for zabs in (0.8, 1.0, 1.3):
        wabs = gamma * zabs ** (-a / b)
        jac2 = (gamma * (a / b)) ** 2 * zabs ** (-2.0 * a / b - 2.0)
        h_x = float(np.real(orb.charts[0].metric_scalar(np.array([zabs + 0j]))[0]))
        h_y = float(np.real(orb.charts[1].metric_scalar(np.array([wabs + 0j]))[0]))
        assert h_y * jac2 == pytest.approx(h_x, rel=1e-11)
        c_x = float(np.real(bundle.curvature_scalars[0](np.array([zabs + 0j]))[0]))
        c_y = float(np.real(bundle.curvature_scalars[1](np.array([wabs + 0j]))[0]))
        assert c_y * jac2 == pytest.approx(c_x, rel=1e-11)
