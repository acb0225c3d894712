"""Curvature eigenvalues, signature classification, and Morse integrals.

On a one-dimensional chart the curvature endomorphism is the scalar c / h of
the bundle's curvature density and the chart's metric density.  A Morse
integral over a region M(<= q) is the sum of those over its signature sets.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import (ChartedOrbifold, EquivariantLineBundle, RadialField,
                       _require_one_dimensional, folded_blocks, tensor_blocks,
                       volume_density)

DEGENERACY_TOL = 1e-8
DEGENERATE = "degenerate"

SignatureIntegrals = namedtuple("SignatureIntegrals", "by_signature degenerate_fraction "
                                "min_eigenvalue max_eigenvalue tol")


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
    """Signature q = number of negative eigenvalues; "degenerate" near zero."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    a = np.asarray(eigenvalues, dtype=float)
    if np.any(np.abs(a) <= tol):
        return DEGENERATE
    return int(np.sum(a < -tol))


def _quadrature_blocks(chart, curvature_scalar, resolution):
    """The chart's quadrature blocks: folded, over the bump's support, when
    every field the pass reads is a RadialField, the full tensor rule otherwise."""
    if all(isinstance(f, RadialField) for f in (chart.bump, chart.metric_scalar,
                                                 curvature_scalar)):
        return folded_blocks(resolution, chart.box_radius, chart.bump.support)
    return tensor_blocks(resolution, chart.box_radius)


def signature_integrals(orb: ChartedOrbifold, bundle: EquivariantLineBundle,
                        resolution=256, tol=DEGENERACY_TOL):
    """Integral of det(curvature endomorphism / 2 pi) over every signature set.

    One pass over each chart's quadrature nodes gives ``by_signature``, the
    integral over M(q) for q = 0..n.  Nodes whose spectrum is degenerate at
    tolerance ``tol`` contribute zero; their weight fraction is returned as
    ``degenerate_fraction``; the split keeps its ``tol``.  ``min_eigenvalue``
    and ``max_eigenvalue`` bound c / h over the nodes where the bump exceeds
    1e-12.  For one-dimensional charts the density det(Rdot) * kappa reduces
    to the curvature density c itself, and the signature of a node is the
    sign of c / h.  A chart whose bump, metric and curvature are all
    RadialFields is summed over the folded rule, one node per orbit of the
    rule's symmetry, and only where its bump is not exactly 0.0; the nodes,
    weights and values are those of the full rule, less terms that are
    exactly zero, in another summation order.
    """
    _require_one_dimensional(orb)
    classes = range(orb.dimension + 1)
    # the integral over each signature set, then the degenerate and the total weight
    totals = [0.0] * (len(classes) + 2)
    # np.minimum and np.maximum carry a NaN through, where min and max drop it
    min_eig, max_eig = np.inf, -np.inf
    for k, chart in enumerate(orb.charts):
        sums = np.zeros(len(totals))       # the chart's running block sums
        for nodes, weights in _quadrature_blocks(chart, bundle.curvature_scalars[k],
                                                 resolution):
            bumpw = np.asarray(chart.bump(nodes), dtype=float)
            c, ratio = _scalar_curvature(orb, bundle, k, nodes)
            support = bumpw > 1e-12
            min_eig = np.minimum(min_eig, np.min(ratio, where=support, initial=np.inf))
            max_eig = np.maximum(max_eig, np.max(ratio, where=support, initial=-np.inf))
            degen = np.abs(ratio) <= tol
            sig = (ratio < -tol).astype(int)
            density = c / (2.0 * math.pi)      # det(Rdot/2pi) * kappa for n = 1
            parts = [bumpw * density * ((sig == q) & ~degen) for q in classes]
            sums += [np.add.reduce(weights * f) for f in parts + [bumpw * degen, bumpw]]
        totals = [t + float(s / chart.order) for t, s in zip(totals, sums)]
    *by_signature, degen_weight, all_weight = totals
    return SignatureIntegrals(tuple(by_signature), degen_weight / max(all_weight, 1e-300),
                              float(min_eig), float(max_eig), tol)


def morse_integral(orb: ChartedOrbifold, bundle: EquivariantLineBundle, q_set,
                   resolution=256):
    """Integral of det(curvature endomorphism / 2 pi) over the signature region.

    q_set is the set of admissible signatures (e.g. {0}, or range(0, q + 1)
    for the strong-inequality region); the value is the sum of the
    ``signature_integrals`` of its classes at ``DEGENERACY_TOL``, in increasing q.
    """
    q_set = set(int(q) for q in q_set)
    if not q_set:
        raise ValueError("q_set must be non-empty")
    n = orb.dimension
    if any(q < 0 or q > n for q in q_set):
        raise ValueError(f"q_set {sorted(q_set)} outside 0..{n}")
    by_signature = signature_integrals(orb, bundle, resolution).by_signature
    return sum(by_signature[q] for q in sorted(q_set))
