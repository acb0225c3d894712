"""Kernel asymptotics records, inequality series, oracle cross-checks."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbmorse import spectral, verify
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table
from orbmorse.curvature import signature_integrals
from orbmorse.errors import GeometryError
from orbmorse.kernels import (ModelPoint, heat_diagonal_limit, log_sum_exp, mehler_log_form,
                              twisted_gaussian)
from orbmorse.spectral import assemble_kodaira_laplacian, torus_diagonal_kernel_spectral
from orbmorse.verify import (exact_chain_residuals, fit_rate,
                             local_model_diagonal_kernel, local_model_image_log_terms,
                             local_model_image_terms,
                             oracle_consistency, singular_diagonal_factor,
                             telescoping_identity_gap, torus_diagonal_kernel_image,
                             torus_image_terms,
                             verify_kernel_asymptotics_regular,
                             verify_kernel_asymptotics_singular,
                             verify_strong_morse)

from conftest import clear_caches
from dents import DENTS
from scaled_fold import fold


# ---------------------------------------------------------------------------
# oracle agreement (independent spectral and image-sum routes)


def dense_image_log_terms(orb, Z, u, p, include_identity):
    """The image terms at one power p, with every group element as a dense
    n x n matrix."""
    k, theta = orb.params["k"], orb.params["theta"]
    a = np.asarray(orb.params["a"], dtype=float)
    weights = np.array(orb.params["weights"])
    n = a.size
    keep = [m for m in range(k) if include_identity or m != 0]
    inverses = np.array([np.conj(np.diag(np.exp(2j * np.pi * weights * m / k)).T)
                         for m in keep]).reshape(-1, n, n)
    X = np.einsum("gij,...j->...gi", inverses, Z)
    log_abs, phase = mehler_log_form([p * a], [u / p], X, Z[..., None, :])
    fibers = [np.exp(1j * p * ((theta * m) % (2 * math.pi))) * p ** float(-n) for m in keep]
    log_abs = log_abs[0] + np.array([math.log(abs(f)) for f in fibers])
    return log_abs, phase[0] + np.angle(fibers)


@pytest.mark.parametrize("include_identity", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_diagonal_image_terms_match_dense_matrices(k, n, include_identity):
    """The diagonal rotations reproduce the dense-matrix route bit for bit."""
    a = (1.0, 0.7, 1.6)[:n]
    orb, _ = build_catalog_orbifold("local-model", k=k, a=a, theta=0.9)
    rng = np.random.default_rng(10 * k + n)
    Z = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    labels, log_abs, phase = local_model_image_log_terms(orb, Z, 1.0, [16],
                                                         include_identity=include_identity)
    ref_abs, ref_phase = dense_image_log_terms(orb, Z, 1.0, 16, include_identity)
    assert len(labels) == k - (not include_identity)
    assert np.array_equal(log_abs, ref_abs[None]) and np.array_equal(phase, ref_phase[None])


@pytest.mark.parametrize("p,u", [(4, 1.0), (8, 0.5)])
def test_image_sum_matches_spectral_kernel_on_torus(p, u):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    gap = oracle_consistency(orb, bundle, 0.21 + 0.33j, u, p)
    assert gap < 1e-4


@pytest.mark.parametrize("p", [4, 8, 128, 2048])
@pytest.mark.parametrize("degree", [0, 1])
def test_oracle_gap_is_scaled_by_the_identity_term(degree, p):
    """At the four half-turn fixed points the degree-one kernel cancels to
    rounding, so a gap relative to it read 1.0-2.06 where both routes agree.
    A lattice translate is the same point: with the deck images cut around
    3.21 - 1.67i, not its cell point, the gap read 0.029 at p = 8."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for z in (0j, 0.5 + 0j, 0.5j, 0.5 + 0.5j, 0.21 + 0.33j, 0.21 + 0.33j + (3 - 2j)):
        assert oracle_consistency(orb, bundle, z, 1.0, p, degree=degree) <= 1e-12, z


@pytest.mark.parametrize("route", ["oracle", "trace"])
def test_spectral_routes_refuse_a_time_their_levels_cannot_resolve(route):
    """At u = 0.01 the 32 kept Landau levels drop a tail of relative weight
    0.13, which the gaps would report as a disagreement; u = 0.5 is resolved."""
    from orbmorse.errors import ConfigurationError
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)

    def gap(u):
        if route == "oracle":
            return oracle_consistency(orb, bundle, 0.21 + 0.33j, u, 4)
        return verify.trace_equals_diagonal_integral(orb, bundle, u, 4)

    with pytest.raises(ConfigurationError, match=r"u=0\.01 .* 32 Landau levels"):
        gap(0.01)
    assert gap(0.5) < 1e-9


@pytest.mark.parametrize("degree", [0, 1])
def test_oracle_consistency_assembles_and_evaluates_once(monkeypatch, degree):
    """The half turn is the signed swap of one evaluation, which both degrees
    at one (z, p) share, whichever comes first; a new z or p evaluates again."""
    assemble = mock.Mock(wraps=verify.assemble_kodaira_laplacian)
    evaluate = mock.Mock(wraps=spectral.torus_eigenfunction_values)
    monkeypatch.setattr(verify, "assemble_kodaira_laplacian", assemble)
    monkeypatch.setattr(spectral, "torus_eigenfunction_values", evaluate)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for q in (degree, 1 - degree):
        assert oracle_consistency(orb, bundle, 0.21 + 0.33j, 1.0, 8, degree=q) < 1e-4
    assert [call.args[3] for call in assemble.call_args_list] == [degree, 1 - degree]
    assert evaluate.call_count == 1
    oracle_consistency(orb, bundle, 0.21 + 0.34j, 1.0, 8, degree=degree)
    assert evaluate.call_count == 2
    oracle_consistency(orb, bundle, 0.21 + 0.34j, 1.0, 16, degree=degree)
    assert evaluate.call_count == 3
    norms, swaps = spectral._level_sums(1, 16, 32, 0.21 + 0.34j)
    assert evaluate.call_count == 3
    assert not norms.flags.writeable and not swaps.flags.writeable


@pytest.mark.parametrize("point", [np.array([0.21 + 0.33j]), np.complex128(0.21 + 0.33j),
                                   np.array(0.21 + 0.33j)], ids=["array", "scalar", "0-d"])
def test_oracle_consistency_takes_the_points_of_the_image_route(point):
    """A one-element array is one point, on both routes, as on the image route
    and the regular-point check."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for degree in (0, 1):
        assert (oracle_consistency(orb, bundle, point, 1.0, 8, degree=degree)
                == oracle_consistency(orb, bundle, 0.21 + 0.33j, 1.0, 8, degree=degree))


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


TORUS_POINTS = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.builds(lambda x, y: complex(x / 64, y / 64), st.integers(-64, 128), st.integers(-64, 128)),
    st.sampled_from([0j, 0.5 + 0j, 0.5j, 0.5 + 0.5j, complex(-0.0, 0.0), complex(0.5, -0.0)]))


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(TORUS_POINTS, st.integers(4, 256), st.sampled_from([0, 1])),
                      min_size=1, max_size=6))
def test_a_warm_basis_cache_gives_the_cold_values(calls):
    """Interleaved calls that share and miss cached bases read, bit for bit,
    what each call reads from cleared caches."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)

    def values(z, p, q):
        op = verify.assemble_kodaira_laplacian(orb, bundle, p, q)
        return (oracle_consistency(orb, bundle, z, 1.0, p, degree=q),
                torus_diagonal_kernel_spectral(op, z, 1.0))

    clear_caches()
    warm = [values(*call) for call in calls]
    for call, value in zip(calls, warm):
        clear_caches()
        assert bits(values(*call)) == bits(value), call


def test_plain_torus_diagonal_approaches_limit():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=1)
    u, p = 1.0, 32
    val = torus_diagonal_kernel_image(orb, bundle, 0.31 + 0.41j, u, p)
    lim = heat_diagonal_limit(ModelPoint((2 * math.pi,), u), 0).trace
    assert val.real == pytest.approx(lim, rel=1e-10)


# ---------------------------------------------------------------------------
# regular-point rate


def test_flat_cover_error_vanishes_identically():
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(1.0,))
    labels, log_abs, phase = local_model_image_log_terms(
        orb, np.array([0.8 + 0.1j]), 1.0, [16], include_identity=False)
    assert labels == [] and log_abs.shape == phase.shape == (1, 0)
    kernel = local_model_diagonal_kernel(orb, bundle, np.array([0.8 + 0.1j]), 1.0, 16)
    lim = heat_diagonal_limit(ModelPoint((16.0,), 1.0 / 16), 0).trace / 16
    assert kernel.real == pytest.approx(lim, rel=1e-14)


def test_regular_rate_half_turn_quotient():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    fit = verify_kernel_asymptotics_regular(orb, bundle, np.array([1.0 + 0.0j]), 1.0,
                                            [64, 128, 256, 512, 1024, 2048, 4096])
    assert fit.slope <= -0.4
    # image terms decay exponentially, so the power-law fit is extremely steep
    assert fit.slope < -50


def test_regular_rate_rejects_near_singular_points():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(GeometryError):
        verify_kernel_asymptotics_regular(orb, bundle, np.array([0.05 + 0.0j]), 1.0,
                                          [64, 128])


LOCAL_MODELS = st.one_of(
    st.tuples(st.integers(1, 4), st.just((1.0,)), st.just((1,))),
    st.tuples(st.integers(1, 4), st.just((0.7, 1.3)), st.sampled_from([(1, 1), (1, 0)])))
POWERS = st.lists(st.integers(4, 2 ** 14), min_size=1, max_size=7, unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(model=LOCAL_MODELS, u=st.sampled_from([0.5, 1.0, 5.0]), p_list=POWERS,
       point=st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False), min_size=2, max_size=2))
def test_batched_regular_fit_equals_the_per_power_kernels(model, u, p_list, point):
    """The one-pass fit reads each power's own error bit for bit; C/Z_1 has no
    non-identity image, and its empty batch still gives -inf."""
    k, a, weights = model
    orb, bundle = build_catalog_orbifold("local-model", k=k, a=a, weights=weights)
    Z = np.array(point[:len(a)])
    assume(orb.singular_distance(0, Z) >= verify.REGULAR_MIN_DISTANCE)
    per_power = [log_sum_exp(*local_model_image_log_terms(
        orb, Z, u, [p], include_identity=False)[1:])[0][0] for p in p_list]
    _, log_abs, phase = local_model_image_log_terms(orb, Z, u, p_list, include_identity=False)
    assert bits(log_sum_exp(log_abs, phase)[0]) == bits(per_power)
    fit = verify_kernel_asymptotics_regular(orb, bundle, Z, u, p_list)
    assert bits(fit.log_errors) == bits([e for e in per_power if np.isfinite(e)])
    assert fit == fit_rate(p_list, per_power)
    if k == 1:
        assert per_power == [-math.inf] * len(p_list) and fit.log_errors == ()


@pytest.mark.parametrize("degree", [0, 1])
def test_batched_torus_image_terms_equal_each_power(degree):
    """Each power's slice of a batch is that power's own one-power batch, bit
    for bit."""
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    points = np.array([[0.26 + 0.17j, 0.5 + 0.5j], [0j, 0.91 + 0.05j]])
    powers = [4, 17, 256, 2 ** 40]
    labels, log_abs, phase = verify.torus_image_log_terms(orb, points, 1.0, powers,
                                                          degree=degree)
    assert log_abs.shape == phase.shape == (len(powers),) + points.shape + (len(labels),)
    for i, p in enumerate(powers):
        one = verify.torus_image_log_terms(orb, points, 1.0, [p], degree=degree)
        assert one[0] == labels
        assert bits(one[1][0]) == bits(log_abs[i]) and bits(one[2][0]) == bits(phase[i])


def test_regular_rate_on_torus_point():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    fit = verify_kernel_asymptotics_regular(orb, bundle, 0.26 + 0.17j, 1.0,
                                            [16, 32, 64, 128])
    assert fit.slope <= -0.4


TORUS_NAN = ("torus", {"d": 1, "k": 2}, complex(math.nan, 0.3))
C_Z2 = ("local-model", {"k": 2, "a": (1.0,)})


@pytest.mark.parametrize("model,check,args", [
    (TORUS_NAN, oracle_consistency, (1.0, 8)),
    (TORUS_NAN, singular_diagonal_factor, (1.0, 64)),
    (TORUS_NAN, verify_kernel_asymptotics_regular, (1.0, [16, 32])),
    ((*C_Z2, np.array([complex(math.nan, 0.3)])), verify_kernel_asymptotics_regular,
     (1.0, [64, 128])),
    ((*C_Z2, np.array([complex(math.nan, 0.3)])), singular_diagonal_factor, (1.0, 1024)),
    ((*C_Z2, np.array([complex(math.inf, 0.0)])), verify_kernel_asymptotics_singular,
     (1.0, [256])),
], ids=["torus-oracle", "torus-factor", "torus-regular", "local-regular", "local-factor",
        "local-singular-inf"])
def test_a_non_finite_flat_model_point_is_refused(model, check, args):
    """Such a point raised a bare ValueError from math.floor on the torus; on
    C/Z_2 it read as an exactly zero rate error, a NaN factor or NaN residuals."""
    catalog_id, params, point = model
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    with pytest.raises(GeometryError, match=r"(nan|inf).* is not finite"):
        check(orb, bundle, point, *args)


def test_regular_check_reads_a_torus_point_in_its_cell():
    """3.05 lies 0.05 from the half-turn fixed point 3; read outside the cell,
    its distance was 1.55 and the check took it for a regular point."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    with pytest.raises(GeometryError, match="distance 0.050 "):
        verify_kernel_asymptotics_regular(orb, bundle, 3.05 + 0j, 1.0, [16, 32])


# ---------------------------------------------------------------------------
# singular diagonal factor


@pytest.mark.parametrize("k", [2, 3])
def test_singular_factor_is_group_order(k):
    orb, bundle = build_catalog_orbifold("local-model", k=k, a=(1.0,))
    ratio = singular_diagonal_factor(orb, bundle, np.array([0.0j]), 1.0, 1024)
    assert abs(ratio - k) <= 0.05


def test_singular_factor_trivial_group_exact():
    orb, bundle = build_catalog_orbifold("local-model", k=1, a=(1.0,))
    ratio = singular_diagonal_factor(orb, bundle, np.array([0.0j]), 1.0, 64)
    assert ratio == pytest.approx(1.0, rel=1e-14)


def test_singular_factor_on_torus_half_turn_point():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    ratio = singular_diagonal_factor(orb, bundle, 0.0j, 1.0, 64)
    assert ratio == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# near-singularity expansion


def test_expansion_at_center_reduces_to_group_order_times_limit():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    rec = verify_kernel_asymptotics_singular(orb, bundle, np.array([0.0j]), 1.0,
                                             [256])[0]
    # at the fixed point the twist equals 1, so the corrected expansion is
    # exactly |G| * limit and the kernel matches it to rounding
    assert rec.residual_with_twist < 1e-13
    lim = heat_diagonal_limit(ModelPoint((1.0,), 1.0), 0).trace
    assert rec.residual_without_twist == pytest.approx(lim, rel=1e-12)


@pytest.mark.parametrize("p", [256, 1024])
def test_twist_correction_shrinks_residual(p):
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    Z = np.array([1.0 / math.sqrt(p) + 0.0j])
    rec = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [p])[0]
    assert rec.residual_without_twist >= 10.0 * rec.residual_with_twist
    assert rec.residual_without_twist > 1e-3


def per_element_residuals(orb, bundle, Z, u, p):
    """The residuals with each element's term read as the fixed-block limit
    times the normal-block limit times the twist."""
    a = np.asarray(orb.params["a"], dtype=float)
    kernel = local_model_diagonal_kernel(orb, bundle, Z, u, p)
    limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0).trace
    corr = 0.0j
    for g in orb.charts[0].group:
        if g.is_identity:
            continue
        normal = ~g.fixed
        pt = ModelPoint(tuple(a[normal]), u,
                        group_phases=tuple(np.angle(g.rotation)[normal]))
        fixed_part = heat_diagonal_limit(ModelPoint(tuple(a[~normal]), u), 0).trace
        pref_normal = heat_diagonal_limit(ModelPoint(tuple(a[normal]), u), 0).trace
        twist = twisted_gaussian(pt, math.sqrt(p) * Z[normal])
        corr += np.exp(1j * p * g.line_phase) * fixed_part * pref_normal * twist
    return abs(kernel - limit), abs(kernel - limit - corr)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4),
       weights=st.lists(st.integers(0, 2), max_size=2).flatmap(lambda w: st.permutations([1, *w])),
       a=st.lists(st.sampled_from([0.7, 1.0, 1.3, 1.6]), min_size=3, max_size=3),
       theta=st.sampled_from([0.0, 0.4]), u=st.sampled_from([0.5, 1.0, 5.0]),
       p_list=st.lists(st.integers(4, 4096), min_size=1, max_size=4),
       point=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                         allow_infinity=False), min_size=3, max_size=3))
def test_one_limit_equals_the_per_element_block_product(k, weights, a, theta, u, p_list, point):
    """The degree-0 limit is a product over the coordinates, so one limit
    stands for each element's fixed-block times normal-block limits: bit for
    bit at n = 1, and within rounding of the limit (about 1e-16) above."""
    n = len(weights)
    orb, bundle = build_catalog_orbifold("local-model", k=k, a=a[:n], weights=weights,
                                         theta=theta)
    Z = np.array(point[:n])
    records = verify_kernel_asymptotics_singular(orb, bundle, Z, u, p_list)
    for p, rec in zip(p_list, records, strict=True):
        without, with_twist = per_element_residuals(orb, bundle, Z, u, p)
        assert rec.residual_without_twist == without
        if n == 1:
            assert rec.residual_with_twist == with_twist
        else:
            assert rec.residual_with_twist == pytest.approx(with_twist, rel=0, abs=1e-15)


def test_singular_expansion_builds_one_limit_per_call(monkeypatch):
    """The limit density does not depend on p, nor on the group element."""
    limit = mock.Mock(wraps=verify.heat_diagonal_limit)
    monkeypatch.setattr(verify, "heat_diagonal_limit", limit)
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(0.7, 1.3), weights=(1, 2))
    Z = np.array([0.1 + 0.05j, 0.02j])
    records = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [64, 256, 1024])
    assert len(records) == 3 and limit.call_count == 1


def test_expansion_correction_negligible_far_from_singularity():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    p = 400
    Z = np.array([10.0 / math.sqrt(p) + 0.0j])     # sqrt(p) d(Z) = 10
    pt = ModelPoint((1.0,), 1.0, group_phases=(math.pi,))
    correction = abs(twisted_gaussian(pt, math.sqrt(p) * Z))
    assert correction <= math.exp(-100.0)
    # the uncorrected limit already matches the kernel to rounding out here
    rec = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [p])[0]
    lim = heat_diagonal_limit(ModelPoint((1.0,), 1.0), 0).trace
    assert rec.residual_without_twist <= 1e-12 * lim


# ---------------------------------------------------------------------------
# strong Morse series


def test_strong_morse_projective_line():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1))
    split = signature_integrals(orb, bundle, resolution=160)
    powers = [32, 64, 128, 256]
    series = verify_strong_morse(orb, 1, powers, split, cohomology_table(orb, powers))
    for p, rho in zip(series.p_list, series.residuals):
        assert rho == pytest.approx(1.0 / p, abs=2e-4)
    pos = [max(r, 0) for r in series.residuals]
    assert all(b <= a for a, b in zip(pos, pos[1:]))


def test_strong_morse_weighted_line():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    split = signature_integrals(orb, bundle, resolution=160)
    powers = [64, 128, 256, 512]
    series = verify_strong_morse(orb, 1, powers, split, cohomology_table(orb, powers))
    for p, rho in zip(series.p_list, series.residuals):
        expected = (p // 2 + 1) / p - 0.5
        assert rho == pytest.approx(expected, abs=2e-4)


def test_strong_morse_semi_negative_model():
    orb, bundle = build_catalog_orbifold("torus", d=-1, k=1)
    split = signature_integrals(orb, bundle, resolution=64)
    powers = [4, 8, 16]
    table = cohomology_table(orb, powers)
    s0 = verify_strong_morse(orb, 0, powers, split, table)
    assert all(abs(r) <= 1e-9 for r in s0.residuals)   # h^0 = 0 and empty region
    s1 = verify_strong_morse(orb, 1, powers, split, table)
    assert all(abs(r) <= 1e-9 for r in s1.residuals)   # equality at q = n


@settings(max_examples=40, deadline=None)
@given(dent=DENTS)
def test_strong_morse_on_a_dent_is_strict_by_the_negative_mass(dent):
    """h^0 = p + 1 and the dent integrates to zero, so at q = 0
    rho_p - I(1) = h^0 / p - I(0) - I(1) = 1/p, up to the quadrature."""
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 1), dent=dent)
    split = signature_integrals(orb, bundle, resolution=512)
    powers = [256, 1024, 4096]
    series = verify_strong_morse(orb, 0, powers, split, cohomology_table(orb, powers))
    assert 0.0 <= series.residuals[-1] - split.by_signature[1] <= 2.0 / powers[-1]


def test_telescoping_identity():
    dent = {"amplitude": 1.2, "center": 0.45 + 0.0j, "width": 0.12}
    for kwargs in [dict(weights=(1, 1)), dict(weights=(1, 1), dent=dent)]:
        orb, bundle = build_catalog_orbifold("wps", **kwargs)
        assert telescoping_identity_gap(orb, bundle, 1, resolution=128) <= 1e-10


# ---------------------------------------------------------------------------
# chain-first discipline and fits


def test_chain_holds_before_asymptotics():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    residuals = exact_chain_residuals(orb, bundle, 8, 1.0)
    assert residuals[0] >= -1e-9 and abs(residuals[1]) <= 1e-9
    assert assemble_kodaira_laplacian(orb, bundle, 8, 0, 32).zero_dim == 5
    with pytest.raises(ValueError, match="must be positive"):
        exact_chain_residuals(orb, bundle, 8, 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_chain_pairs_the_truncated_levels(k):
    """dbar maps degree-0 level L onto degree-1 level L - 1, so the top retained
    degree-1 level has no partner; at u = 0.01 its weight is far above 1e-9."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=k)
    residuals = exact_chain_residuals(orb, bundle, 4, 0.01, 64)
    assert residuals[0] >= -1e-9 and abs(residuals[1]) <= 1e-9
    # the top degree-1 level is retained by the operator, and left out of r_1
    table = assemble_kodaira_laplacian(orb, bundle, 4, 1, 64).spectral_table()
    assert table[-1][0] == table[0][0] * 64


def test_fit_rate_window_and_reliability():
    ps = [16, 32, 64, 128]
    clean = [math.log(1.0 / p) for p in ps]
    fit = fit_rate(ps, clean)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.reliable and fit.r_squared > 0.999
    # an exactly zero error (log err = -inf) drops out of the window
    zeroed = clean[:2] + [-math.inf] * 2
    fit2 = fit_rate(ps, zeroed)
    assert fit2.p_window == (16, 32)
    assert fit2.slope == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# degree-1 route, trace identity, and two-dimensional models


def test_degree_one_image_sum_matches_spectral():
    from orbmorse.verify import oracle_consistency as oc
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    assert oc(orb, bundle, 0.21 + 0.33j, 1.0, 4, degree=1) < 1e-4
    assert oc(orb, bundle, 0.37 + 0.11j, 0.5, 8, degree=1) < 1e-4


def test_trace_equals_integral_of_diagonal():
    from orbmorse.verify import trace_equals_diagonal_integral
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for q in (0, 1):
        assert trace_equals_diagonal_integral(orb, bundle, 1.0, 4, degree=q,
                                              grid=20) < 1e-9


def test_singular_factor_along_fixed_axis():
    """A two-coordinate model whose half turn fixes a complex line."""
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(0.7, 1.3),
                                         weights=(1, 0))
    x = np.array([0.0j, 0.5 + 0.0j])        # on the fixed axis, off the origin
    ratio = singular_diagonal_factor(orb, bundle, x, 1.0, 512)
    assert ratio == pytest.approx(2.0, abs=1e-10)


def test_twist_correction_with_fixed_directions():
    """The expansion splits Z into fixed and normal parts per element."""
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(0.7, 1.3),
                                         weights=(1, 0))
    p = 400
    Z = np.array([1.0 / math.sqrt(p) + 0.0j, 0.3 + 0.2j])
    rec = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [p])[0]
    assert rec.residual_without_twist >= 10.0 * rec.residual_with_twist
    assert rec.residual_with_twist < 1e-12


def test_regular_rate_two_dimensional():
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(0.7, 1.3),
                                         weights=(1, 0))
    x = np.array([1.0 + 0.0j, 0.4 + 0.0j])
    fit = verify_kernel_asymptotics_regular(orb, bundle, x, 1.0,
                                            [64, 256, 1024])
    assert fit.slope <= -0.4


# ---------------------------------------------------------------------------
# array image sums against the term-by-term fold


def _degree_one(terms, d, u):
    """Weight each (m, n, j) term by (-1)^j e^{-2 pi d u}, as degree one does."""
    return [((m, n_, j), log_abs - 2.0 * math.pi * d * u, phase + math.pi * j)
            for (m, n_, j), log_abs, phase in terms]


def _assert_same(kernel, folded):
    """A plain complex kernel against a folded (log|sum|, phase) pair."""
    log_abs, phase = folded
    assert math.log(abs(kernel)) == pytest.approx(log_abs, abs=1e-12)
    assert abs(cmath.phase(kernel * cmath.exp(-1j * phase))) <= 1e-9


@pytest.mark.parametrize("p", [4, 128, 4096])
def test_array_image_sum_matches_term_fold(p):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    u = 0.7
    for z in (0.31 + 0.12j, 0.5 + 0.5j, 0.07 + 0.83j, 0.0j):
        terms = torus_image_terms(orb, bundle, z, u, p)
        assert len(terms) == 2 * 9 * 9
        _assert_same(torus_diagonal_kernel_image(orb, bundle, z, u, p), fold(terms))
        tiny = [log_abs for label, log_abs, _ in terms
                if label != (0, 0, 0) and log_abs < -745.0]
        if p == 4096:
            # far below the underflow threshold: exp reads 0, the logs do not
            assert tiny and all(math.exp(log_abs) == 0 for log_abs in tiny)
        if z in (0.5 + 0.5j, 0.0j):
            # half-turn fixed points: degree one cancels to rounding there
            continue
        _assert_same(torus_diagonal_kernel_image(orb, bundle, z, u, p, degree=1),
                     fold(_degree_one(terms, 1, u)))
    # the non-identity images alone, as the regular-point rate sums them
    rest = [term for term in torus_image_terms(orb, bundle, 0.26 + 0.17j, u, p)
            if term[0] != (0, 0, 0)]
    fit = verify_kernel_asymptotics_regular(orb, bundle, 0.26 + 0.17j, u, [p])
    assert fit.log_errors[0] == pytest.approx(fold(rest)[0], abs=1e-12)
    if p == 4096:
        assert fit.log_errors[0] < -745.0


def test_local_model_image_sum_matches_term_fold():
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(1.0,), theta=0.4)
    for Z, p in [(np.array([0.8 + 0.1j]), 16), (np.array([1.0 + 0.3j]), 4096)]:
        terms = local_model_image_terms(orb, bundle, Z, 1.0, p)
        assert len(terms) == 3
        _assert_same(local_model_diagonal_kernel(orb, bundle, Z, 1.0, p), fold(terms))


# (log|term|, phase) printed by the term-by-term implementation the array
# sums replace, at z = 0.31 + 0.12i, u = 0.7, p = 4096 on the d = 1 half-turn
# quotient; every non-identity term lies far below the underflow threshold
TORUS_TERMS_4096 = {
    (0, 0, 0): (0.012375353323021088, 0.0),
    (1, 0, 0): (-6594.204411756812, -3.0159289474462763),
    (0, -1, 0): (-6594.204411756812, -1.5079644737230478),
    (1, 1, 0): (-13188.42119886695, -1.5079644737221383),
    (0, 0, 1): (-2914.6314445493567, 0.0),
    (-1, 2, 1): (-37732.096080490875, 2.8222008063849565e-12),
    (4, -4, 1): (-193883.14959925888, -1.0164036279292077e-11),
}
# the same for the C/Z_3 model (a = 1, theta = 0.4) at Z = 1 + 0.3i, u = 1
LOCAL_TERMS_4096 = [(-1.379201921022263, 0.0),
                    (-7247.333928756625, 0.46388006136236454),
                    (-7247.333928756629, 1.285209724200374)]


def _assert_term(term, log_abs, phase):
    assert term[1] == pytest.approx(log_abs, rel=1e-14, abs=1e-12)
    assert abs(np.angle(np.exp(1j * (term[2] - phase)))) <= 1e-9


def test_image_terms_match_reference_values():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    terms = {term[0]: term for term in torus_image_terms(orb, bundle, 0.31 + 0.12j, 0.7, 4096)}
    for label, (log_abs, phase) in TORUS_TERMS_4096.items():
        _assert_term(terms[label], log_abs, phase)
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(1.0,), theta=0.4)
    terms = local_model_image_terms(orb, bundle, np.array([1.0 + 0.3j]), 1.0, 4096)
    for term, (log_abs, phase) in zip(terms, LOCAL_TERMS_4096, strict=True):
        _assert_term(term, log_abs, phase)


# gaps of the 24 x 24 grid quadrature the closed form replaced (u = 1).  At
# these p the grid resolved the half-turn Gaussians, so its gaps were rounding
# noise, and the closed form's (about 1e-16) stay within 1e-12 of them; the
# terms themselves are pinned by test_image_terms_match_reference_values.
TRACE_GAPS = {(4, 0): 1.6894420513852405e-13, (4, 1): 5.045992826545126e-13,
              (8, 0): 5.323087597161276e-16, (8, 1): 3.395496432062085e-15,
              (16, 0): 2.1679463867705446e-15, (16, 1): 1.3238595682800288e-16}


@pytest.mark.parametrize("p,q", sorted(TRACE_GAPS))
def test_trace_identity_gap_unchanged(p, q):
    from orbmorse.verify import trace_equals_diagonal_integral
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    gap = trace_equals_diagonal_integral(orb, bundle, 1.0, p, degree=q)
    assert gap < 1e-9
    assert gap == pytest.approx(TRACE_GAPS[(p, q)], abs=1e-12)


# ---------------------------------------------------------------------------
# the trace identity in closed form


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 16, 64, 256, 1024, 4096])
@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_trace_identity_holds_at_every_p(d, k, p):
    """Odd d p has two half-turn fixed-point classes that count, even d p four;
    the 24 x 24 grid this replaces missed by 8.9e-4 at d = 1, k = 2, p = 256."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    for q in (0, 1):
        for u in (0.5, 1.0, 5.0):
            assert verify.trace_equals_diagonal_integral(orb, bundle, u, p,
                                                         degree=q) <= 1e-9


def test_trace_identity_sums_no_image_terms(monkeypatch):
    """The closed form evaluates no image term, so its cost does not grow with p."""
    terms = mock.Mock(wraps=verify.torus_image_log_terms)
    monkeypatch.setattr(verify, "torus_image_log_terms", terms)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for p in (4, 4096):
        assert verify.trace_equals_diagonal_integral(orb, bundle, 1.0, p) <= 1e-9
    assert terms.call_count == 0


def midpoint_half_turns(orb, u, p, degree, grid):
    """1/k times the half-turn terms of the image sum on a grid x grid midpoint rule."""
    xs = (np.arange(grid) + 0.5) / grid
    total = 0.0
    for x in xs:
        labels, log_abs, phase = verify.torus_image_log_terms(
            orb, x + 1j * xs, u, [p], degree=degree)
        half = np.array([j == 1 for _, _, j in labels])
        total += np.sum(np.exp(log_abs[0][:, half] + 1j * phase[0][:, half])).real
    return p * total / grid ** 2 / orb.params["k"]


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("u", [0.5, 1.0, 5.0])
def test_half_turn_part_matches_a_fine_midpoint_grid(u, q):
    """About 6 sqrt(p) points a side resolve the Gaussians, about 1/sqrt(p) wide,
    at the fixed points; the k = 1 closed form is the identity term alone."""
    p = 256
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    half_turns = verify._image_trace(1, 2, u, p, q) - verify._image_trace(1, 1, u, p, q) / 2
    assert half_turns == pytest.approx(
        midpoint_half_turns(orb, u, p, q, grid=6 * 16), rel=0, abs=1e-12)
