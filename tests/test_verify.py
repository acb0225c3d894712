"""Kernel asymptotics records, inequality series, oracle cross-checks."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbmorse import kernels, spectral, verify
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table
from orbmorse.curvature import signature_integrals
from orbmorse.errors import (ConfigurationError, GeometryError, UnresolvedTimeError,
                             UnsupportedModelError)
from orbmorse.geometry import cyclic_group
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

from conftest import CACHES, clear_caches
from dents import DENTS
from fibre_fraction import fraction_angle
from reference_group import reference_group
from scaled_fold import fold
from test_golden import SESSIONS, session_outputs


# ---------------------------------------------------------------------------
# oracle agreement (independent spectral and image-sum routes)


def dense_image_log_terms(orb, Z, u, p, with_identity):
    """The image terms K(Z, g Z) e^{2 pi i c m p / k} p^{-n} at one power p, with
    every group element g^m as a dense n x n matrix and its fibre angle by
    Fraction arithmetic."""
    k, a, weights, c = orb.exact.group
    a, weights = np.asarray(a, dtype=float), np.array(weights)
    n = a.size
    keep = [m for m in range(k) if with_identity or m != 0]
    rotations = np.array([np.diag(np.exp(2j * np.pi * weights * m / k))
                          for m in keep]).reshape(-1, n, n)
    # the matrix-vector product as a sum of products; einsum's rounding differs
    gZ = (rotations * Z[..., None, None, :]).sum(-1)
    log_abs, phase = mehler_log_form([p * a], [u / p], Z[..., None, :], gZ)
    turns = np.array([fraction_angle(c * m, k, p) for m in keep])
    return log_abs[0] - n * math.log(p), phase[0] + turns


def without_identity(images, log_abs, phase):
    """The terms with the identity image's column dropped."""
    return (np.delete(log_abs, images.identity, -1), np.delete(phase, images.identity, -1))


@pytest.mark.parametrize("with_identity", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_diagonal_image_terms_match_dense_matrices(k, n, with_identity):
    """The diagonal rotations reproduce the dense-matrix route bit for bit,
    with or without the identity column."""
    a = (1.0, 0.7, 1.6)[:n]
    orb, _ = build_catalog_orbifold("local-model", k=k, a=a, character=2)
    rng = np.random.default_rng(10 * k + n)
    Z = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    labels, log_abs, phase = local_model_image_log_terms(orb, Z, 1.0, [16])
    images = verify._images(orb)
    assert labels == range(k) and orb.charts[0].group.fixed[images.identity].all()
    if not with_identity:
        log_abs, phase = without_identity(images, log_abs, phase)
    ref_abs, ref_phase = dense_image_log_terms(orb, Z, 1.0, 16, with_identity)
    assert np.array_equal(log_abs, ref_abs[None]) and np.array_equal(phase, ref_phase[None])


def inverse_orientation_sum(k, a, weights, c, Z, u, p):
    """The full image sum in the inverse orientation, K(g^{-1} Z, Z)
    e^{2 pi i c m p / k} p^{-n}, each g = g^m a dense n x n matrix and each
    fibre angle by Fraction arithmetic; with the sum of the terms' moduli, the
    scale of its rounding."""
    n = len(a)
    log_abs, phase = [], []
    for m in range(k):
        g = np.diag(np.exp(2j * np.pi * (np.array(weights) * m % k) / k))
        term_abs, term_phase = mehler_log_form([[p * aj for aj in a]], [u / p], np.conj(g.T) @ Z, Z)
        log_abs.append(term_abs[0] - n * math.log(p))
        phase.append(term_phase[0] + fraction_angle(c * m, k, p))
    log_scale, mantissa = log_sum_exp(np.array(log_abs), np.array(phase))
    return complex(mantissa) * math.exp(log_scale), float(np.exp(log_abs).sum())


@st.composite
def local_cases(draw):
    """(k, weights, a, c, Z, p, u) of a local model C^n/Z_k of fibre character
    c, a point with |Z_j| <= 2 and a power up to 4096."""
    k, n = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(-7, 7), min_size=n, max_size=n).filter(
        lambda w: math.gcd(k, *w) == 1))
    a = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    Z = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False), min_size=n, max_size=n))
    return (k, weights, a, draw(st.integers(-20, 20)), np.array(Z),
            draw(st.integers(1, 4096)), draw(st.sampled_from([0.5, 1.0, 5.0])))


@settings(max_examples=100, deadline=None)
@given(case=local_cases())
@example(case=(5, [1], [1.0], 1, np.array([0j]), 2 ** 53 + 3, 1.0)).via(
    "5 divides 2^53 + 3: the five terms at the fixed point add to 5 limits, where "
    "fibre angles from a float p theta at theta = 2 pi / 5 add to -0.45 + 1.10i")
def test_the_image_sum_is_that_of_the_inverse_orientation(case):
    """K(Z, g Z) = K(g^{-1} Z, Z) by the U(n)-invariance of the plane kernel, so
    the kernel's full image sum, identity included, is the inverse
    orientation's within 1e-13 of the terms' scale: the sum itself may cancel,
    as 1 + e^{i pi c p} does at the fixed point of C/Z_2."""
    k, weights, a, c, Z, p, u = case
    orb, bundle = build_catalog_orbifold("local-model", k=k, a=a, weights=weights, character=c)
    kernel = local_model_diagonal_kernel(orb, bundle, Z, u, p)
    reference, scale = inverse_orientation_sum(k, a, weights, c, Z, u, p)
    assert abs(kernel - reference) <= 1e-13 * scale


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


# (u, what the parent did in degree one on {torus, d 1, k 2} at p = 8)
BEYOND_THE_FLOAT_RANGE = [
    (120.0, "a bare ZeroDivisionError: e^{-2 pi u} reads 0"),
    (115.0, "the gap 3.2e-10, from a subnormal heat weight"),
]


@pytest.mark.parametrize("u,parent", BEYOND_THE_FLOAT_RANGE,
                         ids=[f"u{u:g}-q1" for u, _ in BEYOND_THE_FLOAT_RANGE])
def test_oracle_consistency_refuses_a_time_beyond_the_float_range(u, parent):
    """The lowest degree-one heat weight, e^{-2 pi u}, below the normal floats:
    refused with the reason time-unresolved, as the trace identity refuses a
    trace below the float range; u = 110, inside it, still reads a
    rounding-level gap."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    with pytest.raises(UnresolvedTimeError, match=rf"u={u}\b") as refusal:
        oracle_consistency(orb, bundle, 0.21 + 0.33j, u, 8, degree=1)
    assert refusal.value.reason == "time-unresolved", parent
    assert oracle_consistency(orb, bundle, 0.21 + 0.33j, 110.0, 8, degree=1) < 1e-12


@pytest.mark.parametrize("u", [226.0, 300.0, 1e4])
def test_oracle_consistency_in_degree_zero_resolves_a_large_time(u):
    """Degree zero's lowest heat weight is 1, and the Mehler prefactor is taken
    in logs: at u = 300 the parent raised an OverflowError from math.sinh,
    which the oracle refused; every such time now reads a rounding-level gap."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    assert oracle_consistency(orb, bundle, 0.21 + 0.33j, u, 8, degree=0) < 1e-12


@pytest.mark.parametrize("degree", [0, 1])
def test_oracle_consistency_assembles_and_evaluates_once(monkeypatch, degree):
    """The half turn is the signed swap of one evaluation, which both degrees
    at one (z, p, u) share, whichever comes first; a new z or p evaluates again."""
    assemble = mock.Mock(wraps=verify.assemble_kodaira_laplacian)
    evaluate = mock.Mock(wraps=spectral.torus_basis_columns)
    monkeypatch.setattr(verify, "assemble_kodaira_laplacian", assemble)
    monkeypatch.setattr(spectral, "torus_basis_columns", evaluate)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for q in (degree, 1 - degree):
        assert oracle_consistency(orb, bundle, 0.21 + 0.33j, 1.0, 8, degree=q) < 1e-4
    assert [call.args[3] for call in assemble.call_args_list] == [degree, 1 - degree]
    assert evaluate.call_count == 1
    oracle_consistency(orb, bundle, 0.21 + 0.34j, 1.0, 8, degree=degree)
    assert evaluate.call_count == 2
    oracle_consistency(orb, bundle, 0.21 + 0.34j, 1.0, 16, degree=degree)
    assert evaluate.call_count == 3
    # D = 16, and the 8 levels that u = 1 keeps on d = 1
    norms, swaps = spectral._level_sums(16, 8, 0.21 + 0.34j)
    assert evaluate.call_count == 3
    assert not norms.flags.writeable and not swaps.flags.writeable


@pytest.mark.parametrize("degree", [0, 1])
def test_both_degrees_share_one_image_evaluation(monkeypatch, degree):
    """Degree one is the degree-0 deck terms weighted by (-1)^j e^{-2 pi d u}, so
    both degrees at one (z, p) read one degree-0 evaluation, whichever comes
    first and on either image route; a new z, p or u evaluates again."""
    terms = mock.Mock(wraps=verify.torus_image_log_terms)
    monkeypatch.setattr(verify, "torus_image_log_terms", terms)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    Z = 0.25 + 0.375j       # dyadic, so its lattice translates reduce to it exactly
    for q in (degree, 1 - degree):
        assert oracle_consistency(orb, bundle, Z, 1.0, 8, degree=q) < 1e-4
        torus_diagonal_kernel_image(orb, bundle, Z, 1.0, 8, degree=q)
    # another model object of the same (d, k), at a lattice translate of the point
    same, _ = build_catalog_orbifold("torus", d=1, k=2)
    torus_diagonal_kernel_image(same, bundle, Z + (3 - 2j), 1.0, 8, degree=degree)
    assert terms.call_count == 1
    oracle_consistency(orb, bundle, Z + 0.125j, 1.0, 8, degree=degree)
    assert terms.call_count == 2
    oracle_consistency(orb, bundle, Z + 0.125j, 1.0, 16, degree=degree)
    assert terms.call_count == 3
    torus_diagonal_kernel_image(orb, bundle, Z + 0.125j, 0.5, 16, degree=degree)
    assert terms.call_count == 4
    # every evaluation is the degree-0 one of (d, k) = (1, 2), at one power
    assert [(call.args[:2], call.args[3:], call.kwargs) for call in terms.call_args_list] == [
        ((1, 2), (1.0, [8]), {}), ((1, 2), (1.0, [8]), {}), ((1, 2), (1.0, [16]), {}),
        ((1, 2), (0.5, [16]), {})]
    # and the k = 1 cover of the same d is another model
    cover, cover_bundle = build_catalog_orbifold("torus", d=1, k=1)
    torus_diagonal_kernel_image(cover, cover_bundle, Z, 1.0, 8, degree=degree)
    assert terms.call_count == 5


def torus_only_route(route, orb, bundle, degree=0):
    """One of the routes that run on the torus quotients alone, at 0.21 + 0.33i,
    u = 1 and p = 8; ``degree`` reaches the routes that take one."""
    z = 0.21 + 0.33j
    if route == "assemble":
        return assemble_kodaira_laplacian(orb, bundle, 8, degree)
    if route == "terms":
        return torus_image_terms(orb, bundle, z, 1.0, 8)
    if route == "image":
        return torus_diagonal_kernel_image(orb, bundle, z, 1.0, 8, degree=degree)
    if route == "oracle":
        return oracle_consistency(orb, bundle, z, 1.0, 8, degree=degree)
    if route == "trace":
        return verify.trace_equals_diagonal_integral(orb, bundle, 1.0, 8, degree=degree)
    return exact_chain_residuals(orb, bundle, 8, 1.0)


TORUS_ONLY_ROUTES = ["assemble", "terms", "image", "oracle", "trace", "chain"]


@pytest.mark.parametrize("route", TORUS_ONLY_ROUTES)
@pytest.mark.parametrize("catalog,params", [("wps", {"weights": (2, 3)}),
                                            ("local-model", {"k": 2, "a": (1.0,)})],
                         ids=["P(2,3)", "C/Z2"])
def test_torus_only_routes_refuse_other_models(route, catalog, params):
    """Each route names the catalog id it refuses, through the one torus guard."""
    orb, bundle = build_catalog_orbifold(catalog, **params)
    with pytest.raises(UnsupportedModelError, match=rf"catalog id '{catalog}'"):
        torus_only_route(route, orb, bundle)


@pytest.mark.parametrize("route", ["assemble", "image", "oracle", "trace"])
def test_torus_routes_refuse_a_third_degree(route):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    with pytest.raises(ConfigurationError, match="form degree q must be in 0..1, got 2$"):
        torus_only_route(route, orb, bundle, degree=2)


def test_every_module_cache_is_bounded():
    """Each functools cache of the package holds a bounded number of entries."""
    assert CACHES
    for cache in CACHES:
        assert cache.cache_info().maxsize is not None, cache.__qualname__
    assert verify._torus_image_sums in CACHES
    assert verify._torus_image_sums.cache_info().maxsize == spectral.CACHE_SIZE


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False),
       y=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-1e-17, y=0.3).via("a coordinate just below 0 once reduced to 1.0")
@example(x=-5e-324, y=-0.0).via("the smallest negative coordinate and -0.0")
@example(x=1.0, y=-1.0).via("the cell's far edges")
def test_torus_points_reduce_into_the_cell(x, y):
    """Every finite point lands in [0, 1)^2, and a point of the cell comes back
    bit for bit."""
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    z = verify._point(orb, complex(x, y))
    assert 0.0 <= z.real < 1.0 and 0.0 <= z.imag < 1.0
    if 0.0 <= x < 1.0 and 0.0 <= y < 1.0:
        assert bits(z) == bits(complex(x, y))


def test_a_point_just_below_the_cell_reads_the_cell_edge():
    """Reduced to 1 + 0.3i, the point -1e-17 + 0.3i read a gap of 3.6e-16
    against 4.7e-53 at 0.3i, its lattice neighbour 1e-17 away."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for degree in (0, 1):
        assert (oracle_consistency(orb, bundle, complex(-1e-17, 0.3), 1.0, 8, degree=degree)
                == oracle_consistency(orb, bundle, 0.3j, 1.0, 8, degree=degree))


# (p, u, the value the refusal names): at the parent p = 8.5 returned gaps
# 0.071 and 0.050, p = 0 raised ZeroDivisionError, p = -4 a math-domain
# ValueError or UnresolvedTimeError, u = nan a nan gap, and the image kernel
# at u = -1 read 0j
BAD_POWERS_AND_TIMES = [(8.5, 1.0, "8.5"), (0, 1.0, "0"), (-4, 1.0, "-4"), (True, 1.0, "True"),
                        (np.float64(8.0), 1.0, "np.float64(8.0)"), (8, math.nan, "nan"),
                        (8, -1.0, "-1.0"), (8, 0.0, "0.0"), (8, math.inf, "inf"),
                        (8, "1.0", "'1.0'")]


def torus_route(route, u, p):
    """One of the three torus routes that take a power and a time, at 0.21 + 0.33i."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    if route == "oracle":
        return oracle_consistency(orb, bundle, 0.21 + 0.33j, u, p)
    if route == "image":
        return torus_diagonal_kernel_image(orb, bundle, 0.21 + 0.33j, u, p)
    return verify.trace_equals_diagonal_integral(orb, bundle, u, p)


@pytest.mark.parametrize("route", ["oracle", "image", "trace"])
@pytest.mark.parametrize("p,u,named", BAD_POWERS_AND_TIMES)
def test_torus_routes_refuse_a_bad_power_or_time(route, p, u, named):
    """A ConfigurationError that names the value, not its UnresolvedTimeError subclass."""
    with pytest.raises(ConfigurationError, match=rf"got {re.escape(named)}$") as refusal:
        torus_route(route, u, p)
    assert type(refusal.value) is ConfigurationError


@pytest.mark.parametrize("route", ["oracle", "image", "trace"])
def test_torus_routes_take_numpy_powers_and_times(route):
    """A numpy integer power and a numpy float time read as the Python ones, bit for bit."""
    value = torus_route(route, np.float64(1.0), np.int64(8))
    clear_caches()
    assert bits(value) == bits(torus_route(route, 1.0, 8))


def power_time_route(route, u, p):
    """One of the routes outside ``torus_route`` that take a power and a time;
    a route over a ``p_list`` reads p as the second of two powers."""
    if route == "chain":
        orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
        return exact_chain_residuals(orb, bundle, p, u)
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    if route == "local-kernel":
        return verify.local_model_diagonal_kernel(orb, bundle, np.array([0.3j]), u, p)
    if route == "regular":
        return verify.verify_kernel_asymptotics_regular(orb, bundle, np.array([1.0 + 0j]),
                                                        u, [64, p])
    if route == "singular":
        return verify.verify_kernel_asymptotics_singular(orb, bundle, np.array([0.1 + 0j]),
                                                         u, [64, p])
    return verify.singular_diagonal_factor(orb, bundle, np.zeros(1, dtype=complex), u, p)


POWER_TIME_ROUTES = ["chain", "local-kernel", "regular", "singular", "factor"]


@pytest.mark.parametrize("route", POWER_TIME_ROUTES)
@pytest.mark.parametrize("p,u,named", BAD_POWERS_AND_TIMES)
def test_chain_and_local_routes_refuse_a_bad_power_or_time(route, p, u, named):
    """At the parent the chain ran p = True as p = 1 and read [0.0056, 0.0] at
    p = 8.5; the local routes raised ZeroDivisionError at p = 0, and at u = nan
    or -1 the regular-point slope read -inf, a perfect rate."""
    with pytest.raises(ConfigurationError, match=rf"got {re.escape(named)}$") as refusal:
        power_time_route(route, u, p)
    assert type(refusal.value) is ConfigurationError


@pytest.mark.parametrize("route", ["regular", "singular"])
def test_local_routes_refuse_an_empty_power_list(route):
    """With no power the regular-point slope read -inf, a perfect rate."""
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    check = (verify.verify_kernel_asymptotics_regular if route == "regular"
             else verify.verify_kernel_asymptotics_singular)
    with pytest.raises(ConfigurationError, match=r"got \[\]$"):
        check(orb, bundle, np.array([1.0 + 0j]), 1.0, [])


@pytest.mark.parametrize("route", POWER_TIME_ROUTES)
def test_chain_and_local_routes_take_numpy_powers_and_times(route):
    value = power_time_route(route, np.float64(1.0), np.int64(8))
    clear_caches()
    assert repr(value) == repr(power_time_route(route, 1.0, 8))


@pytest.mark.parametrize("point", [np.array([0.21 + 0.33j]), np.complex128(0.21 + 0.33j),
                                   np.array(0.21 + 0.33j)], ids=["array", "scalar", "0-d"])
def test_oracle_consistency_takes_the_points_of_the_image_route(point):
    """A one-element array is one point, on both routes, as on the image route
    and the regular-point check."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for degree in (0, 1):
        assert (oracle_consistency(orb, bundle, point, 1.0, 8, degree=degree)
                == oracle_consistency(orb, bundle, 0.21 + 0.33j, 1.0, 8, degree=degree))


@pytest.mark.parametrize("z", [0.21 + 0.33j, 0.21 + 0.33j + (3 - 2j), complex(-0.0, 0.5)])
def test_oracle_consistency_reduces_its_point_once(monkeypatch, z):
    """The image route reads the point reduced by the spectral route: one
    reduction per gap, and the image sum of torus_diagonal_kernel_image bit for bit."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    for degree in (0, 1):
        op = verify._truncated_operator(orb, bundle, 1.0, 8, degree)
        scale = verify._image_trace(op.d, 1, 1.0, 8, degree) / 8
        spec = spectral.torus_diagonal_kernel_spectral(op, verify._point(orb, z), 1.0) / 8
        image = verify.torus_diagonal_kernel_image(orb, bundle, z, 1.0, 8, degree=degree)
        reduce = mock.Mock(wraps=verify._point)
        monkeypatch.setattr(verify, "_point", reduce)
        gap = oracle_consistency(orb, bundle, z, 1.0, 8, degree=degree)
        monkeypatch.undo()
        assert reduce.call_count == 1
        assert gap == abs(spec - image) / scale


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
    """Interleaved calls that share and miss cached bases and image sums read,
    bit for bit, what each call reads from cleared caches; the image sum is
    also its degree's own deck terms summed alone."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)

    def values(z, p, q):
        op = verify.assemble_kodaira_laplacian(orb, bundle, p, q)
        return (oracle_consistency(orb, bundle, z, 1.0, p, degree=q),
                torus_diagonal_kernel_spectral(op, z, 1.0),
                torus_diagonal_kernel_image(orb, bundle, z, 1.0, p, degree=q))

    def image_per_degree(z, p, q):
        """The image sum of one degree's own deck terms, without the shared cache."""
        terms = verify.torus_image_log_terms(1, 2, verify._point(orb, z), 1.0, [p])
        return verify._image_sums(*degree_terms(terms, q, 1, 1.0))[0]

    clear_caches()
    warm = [values(*call) for call in calls]
    for call, value in zip(calls, warm):
        clear_caches()
        assert bits(values(*call)) == bits(value), call
        assert bits(image_per_degree(*call)) == bits(value[2]), call


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
    images = verify._images(orb)
    labels, log_abs, phase = local_model_image_log_terms(orb, np.array([0.8 + 0.1j]), 1.0, [16])
    log_abs, phase = without_identity(images, log_abs, phase)
    assert len(labels) == 1 and log_abs.shape == phase.shape == (1, 0)
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
    images = verify._images(orb)
    per_power = [log_sum_exp(*without_identity(images, *local_model_image_log_terms(
        orb, Z, u, [p])[1:]))[0][0] for p in p_list]
    _, log_abs, phase = local_model_image_log_terms(orb, Z, u, p_list)
    assert bits(log_sum_exp(*without_identity(images, log_abs, phase))[0]) == bits(per_power)
    fit = verify_kernel_asymptotics_regular(orb, bundle, Z, u, p_list)
    assert bits(fit.log_errors) == bits([e for e in per_power if np.isfinite(e)])
    assert fit == fit_rate(p_list, per_power)
    if k == 1:
        assert per_power == [-math.inf] * len(p_list) and fit.log_errors == ()


def test_batched_torus_image_terms_equal_each_power():
    """Each power's slice of a batch is that power's own one-power batch, bit
    for bit."""
    points = np.array([[0.26 + 0.17j, 0.5 + 0.5j], [0j, 0.91 + 0.05j]])
    powers = [4, 17, 256, 2 ** 40]
    labels, log_abs, phase = verify.torus_image_log_terms(1, 2, points, 1.0, powers)
    assert log_abs.shape == phase.shape == (len(powers),) + points.shape + (len(labels),)
    for i, p in enumerate(powers):
        one = verify.torus_image_log_terms(1, 2, points, 1.0, [p])
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


TORUS = ("torus", {"d": 1, "k": 2})
C_Z2_2D = ("local-model", {"k": 2, "a": (1.0, 1.0)})


@pytest.mark.parametrize("model,point,check,args,expected", [
    (C_Z2, np.zeros(2), singular_diagonal_factor, (1.0, 64), 1),
    (C_Z2, np.zeros(0), verify_kernel_asymptotics_regular, (1.0, [64, 128]), 1),
    (TORUS, np.array([0.3, 0.4]), oracle_consistency, (1.0, 8), 1),
    (TORUS, np.zeros(0), singular_diagonal_factor, (1.0, 64), 1),
    (C_Z2_2D, np.zeros(3), verify_kernel_asymptotics_singular, (1.0, [64]), 2),
], ids=["local-factor-2", "local-regular-0", "torus-oracle-2", "torus-factor-0",
        "local-singular-3"])
def test_a_flat_model_point_of_the_wrong_size_is_refused(model, point, check, args,
                                                         expected):
    """Such a point raised numpy's reshape ValueError; the refusal names the
    expected number of coordinates."""
    catalog_id, params = model
    orb, bundle = build_catalog_orbifold(catalog_id, **params)
    with pytest.raises(GeometryError, match=f"has {point.size} coordinates, "
                                            f"expected {expected}$"):
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
    k, a, weights, c = orb.exact.group
    a = np.asarray(a, dtype=float)
    kernel = local_model_diagonal_kernel(orb, bundle, Z, u, p)
    limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0).trace
    corr = 0.0j
    for g in reference_group(k, weights, c):
        if g.is_identity:
            continue
        normal = ~g.fixed
        pt = ModelPoint(tuple(a[normal]), u,
                        group_phases=tuple(np.angle(g.rotation)[normal]))
        fixed_part = heat_diagonal_limit(ModelPoint(tuple(a[~normal]), u), 0).trace
        pref_normal = heat_diagonal_limit(ModelPoint(tuple(a[normal]), u), 0).trace
        twist = twisted_gaussian(pt, math.sqrt(p) * Z[normal])
        fibre = np.exp(1j * fraction_angle(g.character, k, p))
        corr += fibre * fixed_part * pref_normal * twist
    return abs(kernel - limit), abs(kernel - limit - corr)


@settings(max_examples=60, deadline=None)
@example(k=64, weights=[1], a=[1.0, 1.0, 1.0], c=3, u=1.0, p_list=[64, 4096],
         point=[0.05 + 0.02j, 0j, 0j])
@example(k=1024, weights=[3], a=[0.7, 1.0, 1.0], c=1, u=0.5, p_list=[1000, 4096],
         point=[0.01 - 0.03j, 0j, 0j])
@example(k=4096, weights=[5], a=[1.6, 1.0, 1.0], c=2, u=5.0, p_list=[256, 2 ** 20],
         point=[-0.002 + 0.001j, 0j, 0j])
@given(k=st.integers(1, 4),
       weights=st.lists(st.integers(0, 2), max_size=2).flatmap(lambda w: st.permutations([1, *w])),
       a=st.lists(st.sampled_from([0.7, 1.0, 1.3, 1.6]), min_size=3, max_size=3),
       c=st.integers(0, 3), u=st.sampled_from([0.5, 1.0, 5.0]),
       p_list=st.lists(st.integers(4, 4096), min_size=1, max_size=4),
       point=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                         allow_infinity=False), min_size=3, max_size=3))
def test_one_limit_equals_the_per_element_block_product(k, weights, a, c, u, p_list, point):
    """The degree-0 limit is a product over the coordinates, so one limit
    stands for each element's fixed-block times normal-block limits: bit for
    bit at n = 1, and within rounding of the limit (about 1e-16) above.  The
    examples are n = 1 groups of order 64, 1024 and 4096."""
    n = len(weights)
    orb, bundle = build_catalog_orbifold("local-model", k=k, a=a[:n], weights=weights,
                                         character=c)
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


@pytest.mark.parametrize("k", [3, 4096])
def test_a_singular_call_builds_the_limit_alone_and_one_twist_batch_per_power(monkeypatch, k):
    """The limit is one ModelPoint per (a, u), which models of other weights or
    another character share, and each model's group is the one its catalog
    build made: verify builds none.  No element builds a normal block: the
    twist of every non-identity element is one batch-kernel call per power,
    over the group's phase table, and no element calls twisted_gaussian."""
    clear_caches()
    spies = {name: mock.Mock(wraps=getattr(verify, name))
             for name in ("ModelPoint", "twisted_exponents")}
    for name, spy in spies.items():
        monkeypatch.setattr(verify, name, spy)
    spies["cyclic_group"] = mock.Mock(wraps=cyclic_group)
    monkeypatch.setattr("orbmorse.catalog.cyclic_group", spies["cyclic_group"])
    assert not hasattr(verify, "cyclic_group")
    gaussian = mock.Mock(wraps=kernels.twisted_gaussian)
    monkeypatch.setattr(kernels, "twisted_gaussian", gaussian)
    Z = np.array([0.1 + 0.05j, 0.02j])
    for params in (dict(weights=(1, 2)), dict(weights=(1, 1)), dict(weights=(1, 2), character=1)):
        orb, bundle = build_catalog_orbifold("local-model", k=k, a=(0.7, 1.3), **params)
        for u in (1.0, 0.5, 1.0):
            verify_kernel_asymptotics_singular(orb, bundle, Z, u, [256, 1024, 4096])
    assert [call.args for call in spies["ModelPoint"].call_args_list] == [((0.7, 1.3), 1.0),
                                                                         ((0.7, 1.3), 0.5)]
    assert spies["cyclic_group"].call_count == 3 and gaussian.call_count == 0
    batches = spies["twisted_exponents"].call_args_list
    assert len(batches) == 27 and {np.shape(call.args[2]) for call in batches} == {(k - 1, 2)}


def test_a_lone_singular_factor_builds_no_normal_block(monkeypatch):
    """The singular factor of a local model reads the limit alone, so it builds
    the limit's ModelPoint and no group element's normal block."""
    points = mock.Mock(wraps=verify.ModelPoint)
    monkeypatch.setattr(verify, "ModelPoint", points)
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(0.7, 1.3), weights=(1, 2))
    verify.singular_diagonal_factor(orb, bundle, np.zeros(2, dtype=complex), 1.0, 256)
    # one ModelPoint, of (eigenvalues, u) with no group phases
    assert [len(call.args) for call in points.call_args_list] == [2]
    assert points.call_args.args == ((0.7, 1.3), 1.0)


def test_the_benchmark_session_evaluates_each_torus_kernel_once(monkeypatch, tmp_path):
    """The session's 48 oracle gaps, 8 points x 3 powers x 2 degrees, evaluate
    the torus basis and the image sums once per (point, power): 24 times each."""
    basis = mock.Mock(wraps=spectral.torus_basis_columns)
    images = mock.Mock(wraps=verify.torus_image_log_terms)
    monkeypatch.setattr(spectral, "torus_basis_columns", basis)
    monkeypatch.setattr(verify, "torus_image_log_terms", images)
    (config,) = SESSIONS.values()
    session_outputs(config, tmp_path)
    assert basis.call_count == images.call_count == 24


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
    with pytest.raises(ConfigurationError, match="must be positive"):
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


def test_fit_rate_window():
    ps = [16, 32, 64, 128]
    clean = [math.log(1.0 / p) for p in ps]
    fit = fit_rate(ps, clean)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared > 0.999
    # an exactly zero error (log err = -inf) drops out of the window
    zeroed = clean[:2] + [-math.inf] * 2
    fit2 = fit_rate(ps, zeroed)
    assert fit2.p_window == (16, 32)
    assert fit2.slope == pytest.approx(-1.0, abs=1e-12)


def _lstsq_fit(p_values, log_errors):
    """Reference: slope, intercept and R^2 of the two-parameter fit by LAPACK's
    least squares on the design matrix [log p, 1], the route ``fit_rate``
    took before its closed form."""
    lx, le = np.log(np.asarray(p_values, dtype=float)), np.asarray(log_errors, dtype=float)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, le, rcond=None)
    ss_res = float(((le - A @ coef) ** 2).sum())
    ss_tot = float(((le - le.mean()) ** 2).sum())
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@settings(max_examples=200, deadline=None)
@given(base=st.integers(1, 64), exponents=st.sets(st.integers(0, 24), min_size=2, max_size=12),
       slope=st.floats(-60.0, 2.0), intercept=st.floats(-60.0, 60.0),
       noise=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
# two log errors a rounding apart: the closed form's R^2 reads exactly 1 (a line
# through two points), and the reference's 2.1e-8 below it
@example(base=1, exponents={0, 1}, slope=0.0, intercept=1.0, noise=[3.07e-12] + [0.0] * 11)
def test_fit_rate_closed_form_matches_lstsq(base, exponents, slope, intercept, noise):
    """Slope, intercept and R^2 within 1e-12 relative of LAPACK's least squares,
    each against the size of the terms it is formed from, on doubling lists
    of powers with noisy log errors.  R^2 divides by ss_tot, the spread of the
    log errors, so where that spread is at rounding level the reference
    resolves R^2 only to about eps * sum(le^2) / ss_tot: the bound is that
    where it exceeds 1e-12."""
    ps = [base * 2 ** e for e in sorted(exponents)]
    le = [slope * math.log(p) + intercept + eps for p, eps in zip(ps, noise)]
    fit = fit_rate(ps, le)
    ref_slope, ref_intercept, ref_r2 = _lstsq_fit(ps, le)
    mean_lx = sum(map(math.log, ps)) / len(ps)
    assert fit.slope == pytest.approx(ref_slope, rel=1e-12, abs=1e-12)
    assert fit.intercept == pytest.approx(
        ref_intercept, rel=0.0, abs=1e-12 * (abs(ref_intercept) + abs(ref_slope) * mean_lx + 1.0))
    errors = np.asarray(le)
    ss_tot = float(((errors - errors.mean()) ** 2).sum())
    resolved = np.finfo(float).eps * float((errors * errors).sum()) / ss_tot if ss_tot else 0.0
    assert fit.r_squared == pytest.approx(ref_r2, rel=1e-12, abs=max(1e-12, resolved))


def test_fit_rate_runs_no_lapack(monkeypatch):
    """The closed form calls nothing in numpy.linalg."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in ("lstsq", "solve", "pinv", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    fit = fit_rate([16, 32, 64, 128], [math.log(1.0 / p) for p in (16, 32, 64, 128)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_needs_two_distinct_powers():
    """One power twice has no slope: the fit is the record of a window too
    short to fit, not a minimum-norm solution."""
    fit = fit_rate([64, 64], [-1.0, -1.5])
    assert fit.slope == -math.inf and fit.p_window == (64, 64)


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


def degree_terms(terms, q, d, u):
    """(log_abs, phase) of degree q from the degree-0 (labels, log_abs, phase)
    arrays: degree one weights them as ``_degree_one`` weights each term."""
    labels, log_abs, phase = terms
    if q == 0:
        return log_abs, phase
    j = np.array([j for _, _, j in labels], dtype=float)
    return log_abs - 2.0 * math.pi * d * u, phase + math.pi * j


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
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(1.0,), character=1)
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
# the same for the C/Z_3 model (a = 1) at Z = 1 + 0.3i, u = 1, each phase that
# of the plane kernel alone: the test adds the fibre angle of character 1
LOCAL_TERMS_4096 = [(-1.379201921022263, 0.0),
                    (-7247.333928756625, 1.9752452352343441),
                    (-7247.333928756629, 4.3079400719443335)]


def _assert_term(term, log_abs, phase):
    assert term[1] == pytest.approx(log_abs, rel=1e-14, abs=1e-12)
    assert abs(np.angle(np.exp(1j * (term[2] - phase)))) <= 1e-9


def test_image_terms_match_reference_values():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    terms = {term[0]: term for term in torus_image_terms(orb, bundle, 0.31 + 0.12j, 0.7, 4096)}
    for label, (log_abs, phase) in TORUS_TERMS_4096.items():
        _assert_term(terms[label], log_abs, phase)
    orb, bundle = build_catalog_orbifold("local-model", k=3, a=(1.0,), character=1)
    terms = local_model_image_terms(orb, bundle, np.array([1.0 + 0.3j]), 1.0, 4096)
    for m, (term, (log_abs, phase)) in enumerate(zip(terms, LOCAL_TERMS_4096, strict=True)):
        _assert_term(term, log_abs, phase + fraction_angle(m, 3, 4096))


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
    d, k = orb.exact.torus
    for x in xs:
        terms = verify.torus_image_log_terms(d, k, x + 1j * xs, u, [p])
        log_abs, phase = degree_terms(terms, degree, d, u)
        half = np.array([j == 1 for _, _, j in terms[0]])
        total += np.sum(np.exp(log_abs[0][:, half] + 1j * phase[0][:, half])).real
    return p * total / grid ** 2 / k


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
