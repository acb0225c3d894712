"""Charted orbifolds with linear finite group actions.

A chart is a domain in C^n on which a finite group acts by unitary
matrices; the metric and every bundle datum are fields on the chart, and all
global quantities are assembled chart by chart with the 1/|G| weight of
orbifold integration.  Only catalog models are constructed (see catalog.py),
so the attachment data between charts stays minimal: each chart carries its
own smooth bump function and quadrature box, fixed by the catalog so that the
bumps form a partition of unity downstairs.

Metric convention: on a one-dimensional chart the metric is one vectorized
density, ``metric_scalar(z)`` = h(z) > 0, normalized so h(0) = 1; it is the
volume-density ratio kappa(z) = h(z) against Lebesgue measure.  A bundle's
curvature is likewise one density c(z) per chart, and the curvature
endomorphism is the scalar c / h.  The flat higher-dimensional local models
carry neither density: their kernels read the constant curvature from the
model parameters.

All types are immutable after construction and all operations are pure;
quadrature accumulates in a fixed chart/node order, so results are
schedule-independent under concurrent evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, GeometryError, IntegrandError,
                     UnsupportedModelError)

UNITARY_TOL = 1e-12
INVARIANCE_TOL = 1e-10
INTEGRAND_INVARIANCE_TOL = 1e-8


@dataclass(frozen=True)
class GroupElement:
    """One element of a chart group: linear action plus line-bundle phase.

    matrix : unitary action on the chart coordinates.
    line_phase : angle theta_g; the element acts on the line bundle fiber
        (along its fixed set) by e^{i theta_g}, so on the p-th power by
        e^{i p theta_g}.
    """

    matrix: np.ndarray
    line_phase: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        err = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if err > UNITARY_TOL:
            raise ConfigurationError(
                f"group element matrix is not unitary (defect {err:.2e})")

    @property
    def is_identity(self):
        n = self.matrix.shape[0]
        return np.max(np.abs(self.matrix - np.eye(n))) <= UNITARY_TOL


# products of tolerance-unitary matrices drift by a few ulps; match loosely
_MATCH_TOL = 1e-10


def _find_element(group, matrix):
    for k, g in enumerate(group):
        if np.max(np.abs(g.matrix - matrix)) <= _MATCH_TOL:
            return k
    return None


def check_group(group):
    """Validate closure, inverses and effectiveness of a chart group.

    Effectiveness: the identity matrix appears exactly once.  Closure and
    inverses are matched numerically to the unitary tolerance.
    """
    if not group:
        raise ConfigurationError("chart group must contain at least the identity")
    ids = [g for g in group if g.is_identity]
    if len(ids) == 0:
        raise ConfigurationError("chart group has no identity element")
    if len(ids) > 1:
        raise ConfigurationError(
            "chart group action is not effective: several elements act as the identity")
    for g in group:
        if _find_element(group, g.matrix.conj().T) is None:
            raise ConfigurationError("chart group is not closed under inverses")
        for h in group:
            if _find_element(group, g.matrix @ h.matrix) is None:
                raise ConfigurationError("chart group is not closed under products")


@dataclass(frozen=True)
class OrbifoldChart:
    """One uniformizing chart: a domain in C^n with a finite unitary group.

    metric_scalar(z) -> the metric density h at an array of points of a
        one-dimensional chart (vectorized, group-invariant, 1 at the center).
        Required when n = 1; None for the flat higher-dimensional local models.
    bump(Z) -> weight of this chart in the partition of unity (invariant).
    box_radius : half-side of the real quadrature box covering supp(bump).
    """

    dimension: int
    group: tuple
    bump: object = None
    box_radius: float = 1.0
    metric_scalar: object = None

    def __post_init__(self):
        check_group(tuple(self.group))
        if self.dimension == 1:
            if self.metric_scalar is None:
                raise GeometryError("a one-dimensional chart needs its metric_scalar density")
            h0 = np.real(np.asarray(self.metric_scalar(np.zeros(1, dtype=complex))))
            if abs(h0[0] - 1.0) > 1e-9:
                raise GeometryError("metric_scalar(0) must be 1 (normalized frame)")
        if self.bump is None:
            object.__setattr__(self, "bump", lambda Z: np.ones(np.shape(Z)))

    @property
    def order(self):
        return len(self.group)

    def check_invariance(self, rng, samples=12):
        """Sampled metric invariance h(gz) == h(z), vectorized over the samples."""
        _require_one_dimensional(self)
        r = self.box_radius
        z = (rng.uniform(-r, r, samples) + 1j * rng.uniform(-r, r, samples)) * 0.5
        h = np.real(np.asarray(self.metric_scalar(z)))
        for g in self.group:
            hg = np.real(np.asarray(self.metric_scalar(g.matrix[0, 0] * z)))
            err = np.max(np.abs(hg - h))
            if err > INVARIANCE_TOL:
                raise GeometryError(
                    f"metric density is not group invariant (defect {err:.2e})")


def _require_one_dimensional(chart):
    if chart.dimension != 1:
        raise UnsupportedModelError(
            "the metric is a scalar density on one-dimensional charts only; "
            f"this chart has dimension {chart.dimension}")


def volume_density(chart: OrbifoldChart, Z):
    """Volume-density ratio kappa(z) = h(z) of a one-dimensional chart.

    Exactly 1 at the chart center by the normalization h(0) = 1.  Charts of
    dimension n != 1 raise UnsupportedModelError, and h <= 0 GeometryError.
    """
    _require_one_dimensional(chart)
    z = np.asarray(Z, dtype=complex).reshape(1)
    h = float(np.real(np.asarray(chart.metric_scalar(z)))[0])
    if h <= 0:
        raise GeometryError("metric is not positive definite at the requested point")
    return h


@dataclass(frozen=True)
class ChartedOrbifold:
    """A compact complex orbifold presented by catalog charts.

    singular_locus_fn(chart_index, Z) -> distance from the image of Z to the
    singular set, in the chart coordinates.
    """

    charts: tuple
    singular_locus_fn: object
    catalog_id: str
    params: dict = field(default_factory=dict)
    # catalog-supplied maps between charts; only the tests read them
    transitions: dict = field(default_factory=dict)

    @property
    def dimension(self):
        return self.charts[0].dimension

    def singular_distance(self, chart_index, Z):
        return float(self.singular_locus_fn(chart_index, np.asarray(Z, dtype=complex)))


@dataclass(frozen=True)
class EquivariantLineBundle:
    """Hermitian line bundle data on each chart.

    curvature_scalars[k](z) -> the Chern curvature density c at an array of
    points of chart k (vectorized, in the frame of the metric density), so
    that the curvature endomorphism is c / h.  None for the flat
    higher-dimensional local models, whose curvature is params["a"].  The
    fiber phases of the chart group live on its elements.
    """

    curvature_scalars: tuple


# ---------------------------------------------------------------------------
# quadrature

_GL_CACHE = {}


def gauss_legendre_nodes(resolution, radius):
    """Tensor Gauss-Legendre nodes/weights on the square [-radius, radius]^2."""
    key = (int(resolution), float(radius))
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(int(resolution))
        x = x * radius
        w = w * radius
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(w, w)
        _GL_CACHE[key] = (X.ravel() + 1j * Y.ravel(), W.ravel())
    return _GL_CACHE[key]


def _chart_nodes(chart, resolution):
    if chart.dimension != 1:
        raise GeometryError(
            "quadrature is implemented for one-dimensional charts; "
            "higher-dimensional catalog models are flat and need no quadrature")
    return gauss_legendre_nodes(resolution, chart.box_radius)


def orbifold_integrate(field, orb: ChartedOrbifold, resolution=128, rng=None):
    """Group-corrected integral of a scalar field against the orbifold volume.

    Parameters
    ----------
    field : callable
        Chart-level representatives of the integrand: field(chart_index, Z)
        takes a complex array of chart points (vectorized, shape (m,)) and
        returns real or complex values of shape (m,).
    orb : ChartedOrbifold
    resolution : nodes per real axis of the tensor Gauss-Legendre rule.
    rng : numpy Generator for the invariance spot check (seeded by caller).

    The value is sum over charts of 1/|G| * integral of bump * f * kappa,
    evaluated in a fixed chart/node order so reruns are bit-identical.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    total = 0.0
    for k, chart in enumerate(orb.charts):
        nodes, weights = _chart_nodes(chart, resolution)
        vals = np.asarray(field(k, nodes))
        if chart.order > 1:
            idx = rng.integers(0, nodes.size, size=min(8, nodes.size))
            pts = nodes[idx]
            ref = np.asarray(field(k, pts))
            for g in chart.group:
                moved = np.asarray(field(k, g.matrix[0, 0] * pts))
                mismatch = np.max(np.abs(moved - ref))
                if mismatch > INTEGRAND_INVARIANCE_TOL:
                    raise IntegrandError(
                        f"integrand not invariant on chart {k} (mismatch {mismatch:.2e})")
        bump = np.asarray(chart.bump(nodes), dtype=float)
        kappa = np.real(np.asarray(chart.metric_scalar(nodes)))
        contrib = np.dot(weights, bump * kappa * np.real(vals)) / chart.order
        total += float(contrib)
    return total

