"""Curvature eigenvalues, signature classification, and Morse integrals.

On a one-dimensional chart the curvature endomorphism is the scalar c / h of
the bundle's curvature density and the chart's metric density.

All operations are pure; quadrature nodes may be evaluated in parallel with
an ordered reduction, which the vectorized implementation performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ChartedOrbifold, EquivariantLineBundle, _require_one_dimensional,
                       gauss_legendre_nodes, volume_density)

DEGENERACY_TOL = 1e-8
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Eigenvalues of the curvature endomorphism at a point, with signature.

    ``signature`` is the number of negative eigenvalues, or the string
    "degenerate" when some eigenvalue sits within the tolerance of zero.
    """

    eigenvalues: np.ndarray
    signature: object


def curvature_spectrum(bundle, orb, x, chart_index=0, tol=DEGENERACY_TOL):
    """Eigenvalue c / h of the curvature endomorphism at x, with signature.

    One-dimensional charts only: other dimensions raise UnsupportedModelError,
    and a point where the metric density h is not positive GeometryError.
    """
    volume_density(orb.charts[chart_index], x)      # refuses n != 1 and h <= 0
    _, vals = _scalar_curvature(orb, bundle, chart_index,
                                np.asarray(x, dtype=complex).reshape(1))
    return CurvatureSpectrum(eigenvalues=vals, signature=classify_point(vals, tol))


def _scalar_curvature(orb, bundle, chart_index, points):
    """Curvature density c and eigenvalue c / h on a one-dimensional chart.

    c and h are the vectorized curvature and metric densities at an array of
    points.
    """
    chart = orb.charts[chart_index]
    c = np.real(np.asarray(bundle.curvature_scalars[chart_index](points)))
    h = np.real(np.asarray(chart.metric_scalar(points)))
    return c, c / h


def classify_point(eigenvalues, tol=DEGENERACY_TOL):
    """Signature q = number of negative eigenvalues; "degenerate" near zero.

    Accepts either a CurvatureSpectrum or a plain eigenvalue sequence.
    """
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    if isinstance(eigenvalues, CurvatureSpectrum):
        eigenvalues = eigenvalues.eigenvalues
    a = np.asarray(eigenvalues, dtype=float)
    if np.any(np.abs(a) <= tol):
        return DEGENERATE
    return int(np.sum(a < -tol))


@dataclass(frozen=True)
class MorseIntegralResult:
    value: float
    degenerate_fraction: float
    resolution: int


def morse_integral(orb: ChartedOrbifold, bundle: EquivariantLineBundle, q_set,
                   resolution=256, tol=DEGENERACY_TOL, with_diagnostics=False):
    """Integral of det(curvature endomorphism / 2 pi) over the signature region.

    q_set is the set of admissible signatures (e.g. {0}, or range(0, q + 1)
    for the strong-inequality region).  Quadrature nodes whose spectrum is
    degenerate at tolerance ``tol`` contribute zero; their weight fraction is
    returned as a diagnostic.  For one-dimensional charts the density
    det(Rdot) * kappa reduces to the curvature density c itself, and the
    signature of a node is the sign of c / h.
    """
    q_set = set(int(q) for q in q_set)
    if not q_set:
        raise ValueError("q_set must be non-empty")
    n = orb.dimension
    if any(q < 0 or q > n for q in q_set):
        raise ValueError(f"q_set {sorted(q_set)} outside 0..{n}")
    _require_one_dimensional(orb)
    total = 0.0
    degen_weight = 0.0
    all_weight = 0.0
    for k, chart in enumerate(orb.charts):
        nodes, weights = gauss_legendre_nodes(resolution, chart.box_radius)
        bumpw = np.asarray(chart.bump(nodes), dtype=float)
        c, ratio = _scalar_curvature(orb, bundle, k, nodes)
        degen = np.abs(ratio) <= tol
        sig = (ratio < -tol).astype(int)
        density = c / (2.0 * math.pi)      # det(Rdot/2pi) * kappa for n = 1
        mask = np.isin(sig, list(q_set)) & ~degen
        total += float(np.dot(weights, bumpw * density * mask) / chart.order)
        degen_weight += float(np.dot(weights, bumpw * degen) / chart.order)
        all_weight += float(np.dot(weights, bumpw) / chart.order)
    result = MorseIntegralResult(value=total,
                                 degenerate_fraction=degen_weight / max(all_weight, 1e-300),
                                 resolution=resolution)
    return result if with_diagnostics else result.value
