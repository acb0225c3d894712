"""Every public route types its power, time, degree, resolution and tolerance
with the guards of ``orbmorse.errors``.  A refusal is a ConfigurationError,
also a ValueError, whose message ends with the value it refuses."""

import functools
import math

import numpy as np
import pytest

from orbmorse import cohomology, curvature, geometry, kernels, moishezon, spectral, verify
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.errors import ConfigurationError

BAD = [True, 2.5, math.nan, math.inf, 0, -1]

# the values of BAD that each kind of input refuses
REFUSED = {
    "power": BAD,                                       # an integer >= 1
    "integer": [True, 2.5, math.nan, math.inf],         # any integer
    "count": [True, 2.5, math.nan, math.inf, -1],       # an integer >= 0
    "time": [True, math.nan, math.inf, 0, -1],          # a finite real > 0
    "tolerance": [True, math.nan, math.inf, 0, -1],
    "degree": [True, 2.5, math.nan, math.inf, -1],      # an integer in 0..1
    "degree-from-1": BAD,                               # an integer in 1..1
    "resolution": BAD,                                  # an integer >= 1
    "order": BAD,
}

Z = 0.21 + 0.33j


@functools.cache
def models():
    """The torus {d 1, k 2}, C/Z_2 and P(2, 3), with P(2, 3)'s split and table."""
    torus, local, wps = (build_catalog_orbifold("torus", d=1, k=2),
                         build_catalog_orbifold("local-model", k=2, a=(1.0,)),
                         build_catalog_orbifold("wps", weights=(2, 3)))
    split = curvature.signature_integrals(*wps, resolution=16)
    return torus, local, wps, split, cohomology.cohomology_table(wps[0], [4, 8])


def op():
    torus = models()[0]
    return spectral.assemble_kodaira_laplacian(*torus, 8, 0, 4)


def torus(route, *args, **kwargs):
    return route(*models()[0], *args, **kwargs)


def local(route, *args):
    return route(*models()[1], *args)


def wps(route, *args, **kwargs):
    return route(*models()[2], *args, **kwargs)


# (kind, route name, the call of the route with the value v in place)
ROUTES = [
    ("power", "assemble_kodaira_laplacian",
     lambda v: torus(spectral.assemble_kodaira_laplacian, v, 0)),
    ("power", "torus_diagonal_kernel_image",
     lambda v: torus(verify.torus_diagonal_kernel_image, Z, 1.0, v)),
    ("power", "torus_image_terms", lambda v: torus(verify.torus_image_terms, Z, 1.0, v)),
    ("power", "oracle_consistency", lambda v: torus(verify.oracle_consistency, Z, 1.0, v)),
    ("power", "trace_equals_diagonal_integral",
     lambda v: torus(verify.trace_equals_diagonal_integral, 1.0, v)),
    ("power", "exact_chain_residuals", lambda v: torus(verify.exact_chain_residuals, v, 1.0)),
    ("power", "local_model_diagonal_kernel",
     lambda v: local(verify.local_model_diagonal_kernel, np.array([0.3j]), 1.0, v)),
    ("power", "local_model_image_terms",
     lambda v: local(verify.local_model_image_terms, np.array([0.3j]), 1.0, v)),
    ("power", "singular_diagonal_factor",
     lambda v: local(verify.singular_diagonal_factor, np.zeros(1, dtype=complex), 1.0, v)),
    ("power", "verify_kernel_asymptotics_regular",
     lambda v: local(verify.verify_kernel_asymptotics_regular, np.array([1.0 + 0j]), 1.0,
                     [64, v])),
    ("power", "verify_kernel_asymptotics_singular",
     lambda v: local(verify.verify_kernel_asymptotics_singular, np.array([0.1 + 0j]), 1.0,
                     [64, v])),
    # the batch kernels took any p and u: p = 0 raised a bare ZeroDivisionError,
    # p = 2.5 returned a kernel, u = NaN summed to NaN and u = -1 on C/Z_2 to -inf
    ("power", "torus_image_log_terms",
     lambda v: verify.torus_image_log_terms(1, 2, Z, 1.0, [8, v])),
    ("power", "local_model_image_log_terms",
     lambda v: verify.local_model_image_log_terms(models()[1][0], np.array([0.3j]), 1.0,
                                                  [8, v])),
    ("power", "verify_strong_morse",
     lambda v: verify.verify_strong_morse(models()[2][0], 0, [4, v], *models()[3:])),
    ("integer", "cohomology_table",
     lambda v: cohomology.cohomology_table(models()[2][0], [4, v])),
    ("integer", "weighted_proj_h0", lambda v: cohomology.weighted_proj_h0((2, 3), v)),
    ("integer", "kodaira_rank", lambda v: wps(moishezon.kodaira_rank, v)),
    ("integer", "torus_kernel_dimension", lambda v: spectral.torus_kernel_dimension(1, 2, v, 0)),
    ("integer", "cyclic_group character", lambda v: geometry.cyclic_group(3, (1,), v)),
    # weights 1.5 and "1" raised a bare TypeError, and True built Z_3 of weight 1
    ("integer", "cyclic_group weights", lambda v: geometry.cyclic_group(3, (v,))),
    ("count", "siegel_bound m", lambda v: moishezon.siegel_bound(v, 1, 1)),
    ("count", "siegel_bound n", lambda v: moishezon.siegel_bound(1, v, 1)),
    ("count", "siegel_bound k", lambda v: moishezon.siegel_bound(1, 1, v)),
    ("time", "heat_trace", lambda v: spectral.heat_trace(op(), v)),
    ("time", "torus_diagonal_kernel_spectral",
     lambda v: spectral.torus_diagonal_kernel_spectral(op(), Z, v)),
    ("time", "ModelPoint", lambda v: kernels.ModelPoint((1.0,), v)),
    ("time", "torus_diagonal_kernel_image",
     lambda v: torus(verify.torus_diagonal_kernel_image, Z, v, 8)),
    ("time", "torus_image_terms", lambda v: torus(verify.torus_image_terms, Z, v, 8)),
    ("time", "oracle_consistency", lambda v: torus(verify.oracle_consistency, Z, v, 8)),
    ("time", "trace_equals_diagonal_integral",
     lambda v: torus(verify.trace_equals_diagonal_integral, v, 8)),
    ("time", "exact_chain_residuals", lambda v: torus(verify.exact_chain_residuals, 8, v)),
    ("time", "local_model_diagonal_kernel",
     lambda v: local(verify.local_model_diagonal_kernel, np.array([0.3j]), v, 8)),
    ("time", "local_model_image_terms",
     lambda v: local(verify.local_model_image_terms, np.array([0.3j]), v, 8)),
    ("time", "singular_diagonal_factor",
     lambda v: local(verify.singular_diagonal_factor, np.zeros(1, dtype=complex), v, 8)),
    ("time", "verify_kernel_asymptotics_regular",
     lambda v: local(verify.verify_kernel_asymptotics_regular, np.array([1.0 + 0j]), v,
                     [8, 16])),
    ("time", "verify_kernel_asymptotics_singular",
     lambda v: local(verify.verify_kernel_asymptotics_singular, np.array([0.1 + 0j]), v,
                     [8, 16])),
    ("time", "torus_image_log_terms", lambda v: verify.torus_image_log_terms(1, 2, Z, v, [8])),
    ("time", "local_model_image_log_terms",
     lambda v: verify.local_model_image_log_terms(models()[1][0], np.array([0.3j]), v, [8])),
    ("degree", "assemble_kodaira_laplacian",
     lambda v: torus(spectral.assemble_kodaira_laplacian, 8, v)),
    ("degree", "torus_diagonal_kernel_image",
     lambda v: torus(verify.torus_diagonal_kernel_image, Z, 1.0, 8, degree=v)),
    ("degree", "oracle_consistency",
     lambda v: torus(verify.oracle_consistency, Z, 1.0, 8, degree=v)),
    ("degree", "trace_equals_diagonal_integral",
     lambda v: torus(verify.trace_equals_diagonal_integral, 1.0, 8, degree=v)),
    ("degree", "torus_kernel_dimension", lambda v: spectral.torus_kernel_dimension(1, 2, 8, v)),
    ("degree", "verify_strong_morse",
     lambda v: verify.verify_strong_morse(models()[2][0], v, [4, 8], *models()[3:])),
    ("degree", "heat_diagonal_limit",
     lambda v: kernels.heat_diagonal_limit(kernels.ModelPoint((1.0,), 1.0), v)),
    ("degree", "signature_limit_density", lambda v: kernels.signature_limit_density((1.0,), v)),
    ("degree", "morse_integral", lambda v: wps(curvature.morse_integral, {v}, resolution=16)),
    ("degree-from-1", "telescoping_identity_gap",
     lambda v: wps(verify.telescoping_identity_gap, v, resolution=16)),
    ("resolution", "assemble_kodaira_laplacian",
     lambda v: torus(spectral.assemble_kodaira_laplacian, 8, 0, v)),
    ("resolution", "exact_chain_residuals",
     lambda v: torus(verify.exact_chain_residuals, 8, 1.0, v)),
    ("resolution", "trace_equals_diagonal_integral",
     lambda v: torus(verify.trace_equals_diagonal_integral, 1.0, 8, resolution=v)),
    ("resolution", "gauss_legendre_nodes", lambda v: geometry.gauss_legendre_nodes(v, 1.0)),
    ("resolution", "orbifold_integrate",
     lambda v: geometry.orbifold_integrate([geometry.constant_field(1.0)] * 2,
                                           models()[2][0], v)),
    ("resolution", "signature_integrals", lambda v: wps(curvature.signature_integrals, v)),
    ("resolution", "morse_integral", lambda v: wps(curvature.morse_integral, {0}, v)),
    ("resolution", "telescoping_identity_gap",
     lambda v: wps(verify.telescoping_identity_gap, 1, resolution=v)),
    ("tolerance", "classify_point", lambda v: curvature.classify_point([-1.0], v)),
    ("tolerance", "signature_integrals",
     lambda v: wps(curvature.signature_integrals, 16, v)),
    ("tolerance", "curvature_spectrum",
     lambda v: curvature.curvature_spectrum(models()[2][1], models()[2][0], 0.3 + 0j, 0, v)),
    ("tolerance", "moishezon_check", lambda v: moishezon.moishezon_check(models()[3], v)),
    ("order", "cyclic_group", lambda v: geometry.cyclic_group(v, (1,))),
]

CASES = [pytest.param(call, value, id=f"{kind}-{name}-{value!r}")
         for kind, name, call in ROUTES for value in REFUSED[kind]]


@pytest.mark.parametrize("call,value", CASES)
def test_every_route_refuses_a_bad_input_by_name(call, value):
    with pytest.raises(ConfigurationError) as refusal:
        call(value)
    assert isinstance(refusal.value, ValueError)
    assert str(refusal.value).endswith(f"got {value!r}")


# a value that each kind of input accepts
VALID = {"power": 8, "integer": 8, "count": 0, "time": 1.0, "tolerance": 1e-3, "degree": 0,
         "degree-from-1": 1, "resolution": 16, "order": 2}


@pytest.mark.parametrize("kind,call", [pytest.param(kind, call, id=f"{kind}-{name}")
                                       for kind, name, call in ROUTES])
def test_every_route_runs_at_a_valid_input(kind, call):
    """The table's calls are sound: each runs at a value its kind accepts."""
    call(VALID[kind])


# ---------------------------------------------------------------------------
# the values that reached a route unrefused


@pytest.mark.parametrize("u", [math.nan, math.inf])
def test_heat_trace_refuses_a_time_that_is_not_finite(u):
    """Both returned NaN: level 0 read 0 * inf."""
    with pytest.raises(ConfigurationError, match=f"heat-trace time u .* got {u!r}$"):
        spectral.heat_trace(op(), u)


def test_cyclic_group_refuses_a_string_weight():
    """A weight "1" raised a TypeError from %-formatting; the route table
    holds the real, bool and non-finite weights."""
    with pytest.raises(ConfigurationError, match="action weights .* got '1'$"):
        geometry.cyclic_group(3, ("1",))


@pytest.mark.parametrize("resolution", [True, 2.0, 32.0])
def test_assembly_types_its_resolution(resolution):
    """True assembled a one-level operator whose resolution read True, and
    2.0 and 32.0 raised a bare TypeError from ``&``."""
    with pytest.raises(ConfigurationError,
                       match=f"spectral resolution must be an integer, got {resolution!r}$"):
        torus(spectral.assemble_kodaira_laplacian, 8, 0, resolution)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_a_degeneracy_tolerance_that_is_not_finite_and_positive_is_refused(tol):
    """On the dented P(1,1) at resolution 128 a NaN tolerance read
    I_0 = 0.99999999 and I_1 = 0.0, against 1.21444 and -0.21444: the
    negative mass moved into I_0 without a word."""
    dented = build_catalog_orbifold("wps", weights=(1, 1), dent={})
    with pytest.raises(ConfigurationError, match=f"tolerance tol .* got {tol!r}$"):
        curvature.signature_integrals(*dented, resolution=128, tol=tol)


def test_classification_and_verdict_refuse_a_nan_tolerance():
    """``classify_point([-1.0], nan)`` read signature 0, and the verdict took
    a NaN quadrature tolerance."""
    with pytest.raises(ConfigurationError, match="got nan$"):
        curvature.classify_point([-1.0], math.nan)
    with pytest.raises(ConfigurationError, match="quadrature tolerance .* got nan$"):
        moishezon.moishezon_check(models()[3], math.nan)


@pytest.mark.parametrize("route", [verify.torus_diagonal_kernel_image,
                                   verify.oracle_consistency])
def test_the_image_cache_does_not_answer_an_equal_value_of_another_type(route):
    """The torus routes leave p and u to the kernel under their cache, so a
    cached p = 1 or u = 1.0 must not answer True, which equals both."""
    torus(route, Z, 1.0, 1)
    with pytest.raises(ConfigurationError, match="got True$"):
        torus(route, Z, 1.0, True)
    with pytest.raises(ConfigurationError, match="got True$"):
        torus(route, Z, True, 1)


@pytest.mark.parametrize("u", [math.nan, math.inf, True])
def test_a_model_point_time_must_be_finite_and_positive(u):
    """Each built a point whose u read NaN, inf or True."""
    with pytest.raises(ConfigurationError, match=f"time parameter u .* got {u!r}$"):
        kernels.ModelPoint((1.0,), u)
    with pytest.raises(ConfigurationError, match=f"got {u!r}$"):
        kernels.ModelPoint((1.0,), 1.0)._replace(u=u)
