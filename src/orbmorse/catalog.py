"""Built-in orbifold models with equivariant line bundles.

Three families are constructed, selected by string id:

``local-model``
    C^n / Z_k with the flat metric and a constant-curvature bundle
    diag(a_1, ..., a_n); the cyclic group acts by coordinate rotations
    z_j -> exp(2 pi i w_j / k) z_j, and its generator on the bundle fiber by
    exp(2 pi i c / k) for the integer ``character`` c.

``wps``
    The weighted projective line P(a, b) for coprime positive weights, with
    two charts around the coordinate points.  The metric is a global
    conformal profile positive in both uniformizing charts; the bundle is the
    degree-1 tautological dual with a weighted Fubini-Study potential,
    normalized so that the curvature endomorphism equals 1 at the center of a
    regular chart and the curvature integral over P(1, 1) equals 1.  Volume
    for P(1, 1) is exactly 1 with the shipped profile.

``torus``
    The square torus C / (Z + iZ) with a constant-curvature bundle of degree
    d, optionally quotiented by the half-turn z -> -z (k = 2).

All charts are one-dimensional except the local models, which support n <= 3.
The singular distance is measured in the coordinates of the chart asked
about: a P(a, b) chart sees only its own center, the other orbifold point
lying at infinity in it.
Each builder binds its model's exact oracles (``geometry.ExactData``): a
compact model's degree, the integral of c_1(L), 1/(ab) for P(a, b), whose dent
integrates to zero, and d/k on a torus, its counts and sections; a flat one's deck data.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .cohomology import torus_table, wps_table
from .errors import (_REALS, ConfigurationError, _check_weights, _finite, _integer, _list_of,
                     _positive, _real)
from .geometry import (ChartedOrbifold, EquivariantLineBundle, ExactData, OrbifoldChart,
                       RadialField, constant_field, cyclic_group)
from .moishezon import torus_sections, wps_sections

CATALOG_IDS = ("local-model", "wps", "torus")

# partition-of-unity radii in the x-chart of a weighted projective line
WPS_BUMP_INNER = 1.0
WPS_BUMP_OUTER = 1.3
WPS_BETA = math.pi          # metric profile scale; gives vol(P(1,1)) = 1


def _smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def radial_bump(r, inner, outer):
    """Smooth cutoff: 1 for r <= inner, 0 for r >= outer."""
    return 1.0 - _smoothstep((np.asarray(r) - inner) / (outer - inner))


def build_catalog_orbifold(catalog_id, **params):
    """Construct a catalog model.

    Returns the pair (ChartedOrbifold, EquivariantLineBundle).  Unknown ids
    and invalid parameters raise ConfigurationError with a description.
    """
    if catalog_id not in CATALOG_IDS:
        raise ConfigurationError(
            f"unknown catalog id {catalog_id!r}; available: {', '.join(CATALOG_IDS)}")
    builder = _BUILDERS[catalog_id]
    # parameter names are checked here, their values by the builder
    accepted = inspect.signature(builder).parameters
    unknown = sorted(str(key) for key in params if key not in accepted)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {', '.join(unknown)} for catalog id "
            f"{catalog_id!r}; accepted: {', '.join(accepted)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# local model C^n / Z_k


def _build_local_model(k=2, a=(1.0,), weights=None, character=0):
    a = _list_of("catalog parameter a", a, _real)
    n = len(a)
    if not 1 <= n <= 3:
        raise ConfigurationError("local models need 1 <= n <= 3 curvature values a")
    k = _integer("catalog parameter k", k)
    character = _integer("catalog parameter character", character)
    weights = (_list_of("catalog parameter weights", weights, _integer)
               if weights is not None else (1,) * n)
    if len(weights) != n:
        raise ConfigurationError("one action weight per coordinate is required")
    group = cyclic_group(k, weights, character)
    chart = OrbifoldChart(dimension=n, group=group, box_radius=1.0,
                          metric_scalar=constant_field(1.0) if n == 1 else None)

    moved = ~np.array([g.fixed for g in group[1:]], dtype=bool).reshape(-1, n)

    def singular_distance(chart_index, Z):
        if k == 1:
            return 10.0
        Z = np.asarray(Z, dtype=complex).reshape(n)
        return math.sqrt(np.where(moved, Z.real ** 2 + Z.imag ** 2, 0.0).sum(1).min())

    orb = ChartedOrbifold(charts=(chart,), singular_locus_fn=singular_distance,
                          catalog_id="local-model",
                          exact=ExactData(group=(k, a, weights, character % k)))
    bundle = EquivariantLineBundle(
        curvature_scalars=(constant_field(a[0]),) if n == 1 else None)
    return orb, bundle


# ---------------------------------------------------------------------------
# weighted projective line P(a, b)


def _wps_metric_profiles(a, b, beta):
    """Metric densities in the two normalized charts and the chart scales.

    x-chart density:  h_x(r) = (1 + beta r^2)^(-(1 + a/b)),   h_x(0) = 1.
    y-chart (raw w):  h_y(s) = (b/a)^2 (s^(2b/a) + beta)^(-(1 + a/b)),
    then w is rescaled by gamma = sqrt(h_y(0)) so the density is 1 at 0.
    """
    expo = 1.0 + a / b

    def h_x(r2):
        return (1.0 + beta * r2) ** (-expo)

    gamma2 = (b / a) ** 2 * beta ** (-expo)
    gamma = math.sqrt(gamma2)

    def h_y(r2_normalized):
        s2 = r2_normalized / gamma2            # |w|^2 from |w'|^2
        return (b / a) ** 2 * (s2 ** (b / a) + beta) ** (-expo) / gamma2

    return h_x, h_y, gamma


DENT_KEYS = ("amplitude", "width", "center")


def _dent(value):
    """The dent mapping: real amplitude, positive real width, real or complex center."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"catalog parameter dent must be a mapping, got {value!r}")
    unknown = sorted(str(key) for key in value if key not in DENT_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {', '.join(unknown)} in catalog parameter dent; "
            f"accepted: {', '.join(DENT_KEYS)}")
    center = _finite("catalog parameter dent.center", value.get("center", 0.45 + 0.0j),
                     _REALS + (complex, np.complexfloating), "real or complex")
    amplitude = _real("catalog parameter dent.amplitude", value.get("amplitude", 0.6))
    width = _positive("catalog parameter dent.width", value.get("width", 0.12))
    return amplitude, width, complex(center)


def _build_weighted_projective(weights=(1, 1), dent=None):
    weights = _check_weights(_list_of("catalog parameter weights", weights, _integer))
    if len(weights) != 2:
        raise ConfigurationError(
            "geometric weighted projective models take exactly two weights; "
            "cohomology counting accepts any number of weights separately")
    a, b = weights
    if dent is not None and (a, b) != (1, 1):
        raise ConfigurationError(
            "the tunable-signature dent requires trivial isotropy: weights (1, 1)")

    beta = WPS_BETA
    h_x, h_y, gamma = _wps_metric_profiles(a, b, beta)

    # bundle potential weights: curvature endomorphism 1 at the x-center when
    # that center is regular for the curvature (a = 1), see module docstring
    c_x = 1.0
    c_y = a * b / 2.0 if a == 1 else 1.0

    def curv_x(r2):
        # 2 * del delbar of (1/(ab)) log(c_x + c_y r^(2a)), scalar density
        num = (2.0 / (a * b)) * c_x * c_y * a * a * r2 ** (a - 1)
        return num / (c_x + c_y * r2 ** a) ** 2

    def curv_y(r2):
        s2 = r2 / gamma**2                        # raw |w|^2 from |w'|^2
        num = (2.0 / (a * b)) * c_x * c_y * b * b * s2 ** (b - 1)
        return num / (c_y + c_x * s2 ** b) ** 2 / gamma**2

    curvature = (RadialField(curv_x), RadialField(curv_y))
    if dent is not None:
        # the dent is not radial: its charts take the full quadrature grid
        amp, sig, z0 = _dent(dent)
        radial_x, radial_y = curvature

        def dent_density(z):
            """2A e^{-v^2/sigma^2} (v^2 - sigma^2) / sigma^4 at v = |z - z0|."""
            v2 = np.abs(z - z0) ** 2
            return 2.0 * amp * np.exp(-v2 / sig**2) * (v2 - sig**2) / sig**4

        def curvature_scalar_x(nodes):
            nodes = np.asarray(nodes, dtype=complex)
            return radial_x(nodes) + dent_density(nodes)

        def curvature_scalar_y(nodes):
            nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
            val = radial_y(nodes)
            # exact transport for (1, 1): z = gamma / w', |dz/dw'|^2 = gamma^2/|w'|^4
            extra = np.zeros_like(val)
            safe = np.abs(nodes) > 1e-9           # the dent vanishes at z = inf
            jac2 = gamma**2 / np.abs(nodes[safe]) ** 4
            extra[safe] = dent_density(gamma / nodes[safe]) * jac2
            return val + extra

        curvature = (curvature_scalar_x, curvature_scalar_y)

    # isotropy Z_a at [1:0] acts on z by a primitive root; the bundle fiber
    # character -1 matches invariant-section counting (z^m survives iff
    # b m = p mod a for degree p)
    group_x = cyclic_group(a, (b,), -1)
    group_y = cyclic_group(b, (a,), -1)

    def z_abs_from_y(wp_abs):
        """|z| of the downstairs point seen from the normalized y-coordinate."""
        w_abs = np.asarray(wp_abs, dtype=float) / gamma
        with np.errstate(divide="ignore"):
            return np.where(w_abs > 0, w_abs ** (-b / a), np.inf)

    def bump_x(r2):
        return radial_bump(np.sqrt(r2), WPS_BUMP_INNER, WPS_BUMP_OUTER)

    def bump_y(r2):
        return 1.0 - radial_bump(z_abs_from_y(np.sqrt(r2)), WPS_BUMP_INNER, WPS_BUMP_OUTER)

    # each bump is exactly 1.0 up to the radius where it starts to fall and
    # exactly 0.0 from the radius where it ends: |z| = inner and outer in the
    # x-chart, |z| = outer and inner seen from the y-chart
    edge_x, end_x = WPS_BUMP_INNER, WPS_BUMP_OUTER
    edge_y = gamma * WPS_BUMP_OUTER ** (-a / b)
    end_y = gamma * WPS_BUMP_INNER ** (-a / b)

    chart_x = OrbifoldChart(dimension=1, group=group_x,
                            bump=RadialField(bump_x, support=end_x ** 2, edge=edge_x ** 2),
                            box_radius=end_x * 1.02, metric_scalar=RadialField(h_x))
    chart_y = OrbifoldChart(dimension=1, group=group_y,
                            bump=RadialField(bump_y, support=end_y ** 2, edge=edge_y ** 2),
                            box_radius=end_y * 1.05, metric_scalar=RadialField(h_y))

    singular_orders = (a, b)

    def singular_distance(chart_index, Z):
        z = np.asarray(Z, dtype=complex).reshape(1)[0]
        return abs(z) if singular_orders[chart_index] > 1 else 10.0

    orb = ChartedOrbifold(
        charts=(chart_x, chart_y), singular_locus_fn=singular_distance,
        catalog_id="wps",
        exact=ExactData(degree=1.0 / (a * b), table=functools.partial(wps_table, (a, b)),
                        sections=functools.partial(wps_sections, (a, b))))

    return orb, EquivariantLineBundle(curvature_scalars=curvature)


# ---------------------------------------------------------------------------
# square torus quotient


def _build_torus(d=1, k=1):
    # d = 0 is the trivial flat bundle (the inconclusive reference for the
    # Moishezon criteria); negative degrees give the semi-negative reference
    # model and are supported for the unquotiented torus only
    # d / k is the degree: an integer beyond the float range is refused here
    d = int(_finite("catalog parameter d", d, (int, np.integer), "integer"))
    k = _integer("catalog parameter k", k)
    if k not in (1, 2):
        raise ConfigurationError(
            f"torus quotient order k={k} not in the catalog: the square lattice "
            "carries the half-turn (k = 2); other symmetries are not shipped")
    if d < 0 and k != 1:
        raise ConfigurationError("negative degrees ship without the half-turn quotient")

    chart = OrbifoldChart(dimension=1, group=cyclic_group(k, (1,)), box_radius=0.5,
                          metric_scalar=constant_field(1.0))

    def singular_distance(chart_index, Z):
        if k == 1:
            return 10.0
        # the half-turn fixed points are (1/2) Z[i]: round each coordinate to it
        z = complex(np.asarray(Z, dtype=complex).reshape(1)[0])
        return abs(z - complex(round(2.0 * z.real) / 2.0, round(2.0 * z.imag) / 2.0))

    exact = ExactData(degree=d / k, table=functools.partial(torus_table, d, k),
                      sections=functools.partial(torus_sections, d, k), torus=(d, k))
    orb = ChartedOrbifold(charts=(chart,), singular_locus_fn=singular_distance,
                          catalog_id="torus", exact=exact)
    bundle = EquivariantLineBundle(curvature_scalars=(constant_field(2.0 * math.pi * d),))
    return orb, bundle


_BUILDERS = {"local-model": _build_local_model, "wps": _build_weighted_projective,
             "torus": _build_torus}
