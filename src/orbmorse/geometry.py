"""Charted orbifolds with linear finite group actions.

A chart is a domain in C^n on which one ``cyclic_group`` record, (k, n) arrays,
acts by diagonal rotations; the metric and every bundle datum are fields
on the chart, and all global quantities are assembled chart by chart with the
1/|G| weight of orbifold integration.  Only catalog models are constructed
(see catalog.py), so the attachment data between charts stays minimal: each
chart carries its own smooth bump function and quadrature box, fixed by the
catalog so that the bumps form a partition of unity downstairs.

Metric convention: on a one-dimensional chart the metric is one vectorized
density, ``metric_scalar(z)`` = h(z) > 0, normalized so h(0) = 1; it is the
volume-density ratio kappa(z) = h(z) against Lebesgue measure.  A bundle's
curvature is likewise one density c(z) per chart, and the curvature
endomorphism is the scalar c / h.  The flat higher-dimensional local models
carry neither density: their kernels read the constant curvature from the
model's exact data, the oracles its catalog builder binds (``ExactData``).

Both integrators, ``orbifold_integrate`` and ``curvature.signature_integrals``,
run chart by chart over the blocks of ``chart_blocks``, the one place that
picks a chart's rule, of two.  A chart whose bump, metric and integrand fields
are all RadialFields is integrated in s = |z|^2 alone (``radial_blocks``),
with ``resolution`` Gauss-Legendre nodes on each piece: [0, edge] and
[edge, support] under a bump with a finite support (P(a, b) without a dent),
and on the square box of any other chart (the torus and the local models)
the inscribed disc and the corners beyond it.  Every other chart (the dented
P(1, 1), a point function) takes the tensor rule on its square box,
``resolution`` nodes per axis; ``gauss_legendre_nodes`` types it in 1..2^16.

All types are immutable NamedTuples; quadrature accumulates in a fixed
chart/node order, so reruns are bit-identical.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, GeometryError, IntegrandError,
                     UnsupportedModelError, _bounded, _integer, _list_of)

INTEGRAND_INVARIANCE_TOL = 1e-8
# the largest chart group order: on C^3 / Z_k the (k, n) group record and both kernel
# checks at p_list [4, 8, 16] peak at 1.4 MB (tracemalloc) at 2^12 and 20 MB at 2^16,
# where an order near 10^8 would take gigabytes before any other check
GROUP_ORDER_MAX = 2 ** 12
# the largest quadrature resolution, the sweeps' top: at 2^16 signature_integrals on
# P(2, 3) takes 0.05 s and a 21 MB tracemalloc peak, and the dented P(1, 1)'s tensor
# rule 0.45 s and 270 MB per block of BLOCK_ROWS x 2^16 nodes; 2^40 asked for 4 TiB
QUADRATURE_RESOLUTION_MAX = 2 ** 16


class CyclicGroup(NamedTuple):
    """A cyclic chart group Z_k, one read-only record whose row m is g^m (row 0
    the identity); ``order`` counts the elements, as its len counts its 3 fields.

    rotation : (k, n), the diagonal e^{2 pi i w_j m / k} of g^m on the chart.
    fixed : (k, n), whether g^m fixes coordinate j, (w_j m) mod k == 0 in integers.
    characters : the k ints c_m = (c m) mod k; g^m acts on the fiber of L^p
        by e^{2 pi i c_m p / k}, at the angle ``fibre_angles`` takes.
    """

    rotation: np.ndarray
    fixed: np.ndarray
    characters: tuple

    @property
    def order(self):
        return self.rotation.shape[0]


def cyclic_group(order, weights, character=0):
    """The cyclic group Z_k generated by diag(e^{2 pi i w_j / k}), as one
    ``CyclicGroup`` of the elements g^m, m = 0..k-1, g^m acting on the fiber by
    the character (c m) mod k of the integer ``character`` c.  An order not in
    1..GROUP_ORDER_MAX, a character or weight that is not an integer and
    weights that act ineffectively, gcd(k, w mod k) != 1, raise
    ConfigurationError before any element is built."""
    order = _bounded("chart group order k", order, 1, GROUP_ORDER_MAX)
    character = _integer("fibre character", character)
    weights = _list_of("action weights", weights, _integer)
    residues = [w % order for w in weights]
    if math.gcd(order, *residues) != 1:
        raise ConfigurationError(
            f"action weights {tuple(weights)} mod k={order} generate a proper subgroup; "
            "the action is not effective")
    # exponents (w_j m) mod k per element and coordinate, in exact integers
    m = np.arange(order)
    exponents = np.outer(m, np.array(residues, dtype=np.int64)) % order
    rotation, fixed = np.exp(2j * np.pi * exponents / order), exponents == 0
    rotation.flags.writeable = fixed.flags.writeable = False
    return CyclicGroup(rotation, fixed, tuple((m * (character % order) % order).tolist()))


def fibre_angles(characters, order, p):
    """The angles in (-pi, pi] by which elements of characters ``characters``
    of a group of order k act on the fiber of L^p: 2 pi r / k for the residue
    r = (c p) mod k, taken in integers, and r - k in place of r above k / 2.
    No float sees p or c p, so the angle is exact to rounding at any p."""
    p %= order
    residues = [c * p % order for c in characters]
    # r = k / 2 is the angle pi, which 2 pi r / k rounds above at k = 26 and 52
    return np.array([math.pi if 2 * r == order else
                     2.0 * math.pi * (r - order if 2 * r > order else r) / order
                     for r in residues])


class RadialField(NamedTuple):
    """A chart field of |z|^2 alone: called on complex points z, it returns
    ``profile(r2)`` at r2 = z.real * z.real + z.imag * z.imag.  The rule in
    r^2 evaluates it at one point per node, sqrt(r2) + 0j, which on a square
    box lies outside the box for the corners' r2.

    ``support`` is the r^2 at and beyond which the profile is exactly 0.0,
    and ``edge`` the r^2 where it starts to fall there.  When the field is a
    chart's bump, the one-dimensional rule in r^2 (``radial_blocks``) reads
    both: it integrates over [0, support] only, in pieces that end at the
    edge, where the bump is smooth but not analytic.  Only the catalog's
    partition-of-unity bumps set them; every other field keeps the default,
    infinity, and a chart without a finite support is integrated over its
    square box.
    """

    profile: object
    support: float = math.inf
    edge: float = math.inf

    def __call__(self, z):
        z = np.asarray(z)
        return self.profile(z.real * z.real + z.imag * z.imag)


def constant_field(value):
    """The RadialField equal to the real ``value`` at every point."""
    value = float(value)
    return RadialField(lambda r2: np.full(np.shape(r2), value))


class OrbifoldChart(namedtuple("OrbifoldChart", "dimension group bump box_radius metric_scalar")):
    """One uniformizing chart: a domain in C^n with a cyclic rotation group.

    metric_scalar(z) -> the metric density h at an array of points of a
        one-dimensional chart (vectorized, group-invariant, 1 at the center).
        Required when n = 1; None for the flat higher-dimensional local models.
    bump(Z) -> weight of this chart in the partition of unity (invariant).
    box_radius : half-side of the square [-r, r]^2 on which the chart's
        integrals run.  On P(a, b) it holds supp(bump) with a margin; on the
        torus it is the fundamental cell and on a local model the unit box,
        where the bump is identically 1.
    """

    __slots__ = ()

    def __new__(cls, dimension, group, bump=None, box_radius=1.0, metric_scalar=None):
        return cls._make((dimension, group, bump, box_radius, metric_scalar))

    @classmethod
    def _make(cls, values):
        """The checked chart; ``_replace`` builds through here too."""
        dimension, group, bump, box_radius, metric_scalar = values
        if dimension == 1:
            if metric_scalar is None:
                raise GeometryError("a one-dimensional chart needs its metric_scalar density")
            h0 = np.real(np.asarray(metric_scalar(np.zeros(1, dtype=complex))))
            if abs(h0[0] - 1.0) > 1e-9:
                raise GeometryError("metric_scalar(0) must be 1 (normalized frame)")
        bump = constant_field(1.0) if bump is None else bump
        return tuple.__new__(cls, (dimension, group, bump, box_radius, metric_scalar))

    @property
    def order(self):
        return self.group.order


def _require_one_dimensional(chart):
    """Refuse a chart, or a model, of dimension n != 1.

    The metric and curvature densities and the quadrature exist on
    one-dimensional charts only; the higher-dimensional local models are flat
    and read their constant curvature from their exact data.
    """
    if chart.dimension != 1:
        raise UnsupportedModelError(
            "the metric is a scalar density on one-dimensional charts only; "
            f"got dimension {chart.dimension}")


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


class ExactData(NamedTuple):
    """A model's exact oracles, each None where it has none, as on a hand-built model."""

    degree: float = None      # the exact integral of c_1(L)
    table: object = None      # p_values -> {(p, q): h^q(M, L^p)}, in exact integers
    sections: object = None   # p -> (box, values, order) of the Kodaira map; None: constants
    torus: tuple = None       # (d, k) of a torus quotient
    group: tuple = None       # (k, a, weights, c mod k) of a local model C^n / Z_k


class ChartedOrbifold(NamedTuple):
    """A compact complex orbifold presented by catalog charts.

    singular_locus_fn(chart_index, Z) -> distance from Z to the singular
    points that the chart shows, measured in the chart coordinates: a
    singular point at infinity in the chart is not measured, and a chart
    that shows none reads 10.0.
    """

    charts: tuple
    singular_locus_fn: object
    catalog_id: str
    exact: ExactData = ExactData()

    @property
    def dimension(self):
        return self.charts[0].dimension

    def oracle(self, name, refusal):
        """The exact datum ``name``; UnsupportedModelError(refusal) where there is none."""
        if (value := getattr(self.exact, name)) is None:
            raise UnsupportedModelError(refusal)
        return value

    def singular_distance(self, chart_index, Z):
        return float(self.singular_locus_fn(chart_index, np.asarray(Z, dtype=complex)))


class EquivariantLineBundle(NamedTuple):
    """Hermitian line bundle data on each chart.

    curvature_scalars[k](z) -> the Chern curvature density c at an array of
    points of chart k (vectorized, in the frame of the metric density), so
    that the curvature endomorphism is c / h.  None for the flat
    higher-dimensional local models, whose curvature is the a of exact.group.  The
    fiber characters of the chart group are its ``characters``.
    """

    curvature_scalars: tuple


# ---------------------------------------------------------------------------
# quadrature

_GL_RULES = {}       # the rule on [-1, 1], by resolution
BLOCK_ROWS = 64      # rows of the tensor rule per block
NEWTON_PASSES = 4    # cap on the Newton passes; one is taken at n >= 128
# Stieltjes' series takes the nodes with n sin(theta) >= STIELTJES_MIN, where
# its term ratio, about m / (2 n sin theta), is at most m / 40.  Laplace's
# integral takes the rest: the nodes near j_{0,k} / n with j_{0,k} < 20, the
# first six from each end at every n >= 40, and every node of a rule to n = 20.
STIELTJES_MIN = 20.0
# terms of Stieltjes' series: at n sin(theta) = 20 the first one left out is
# under 3e-17 of the first one kept
STIELTJES_TERMS = 24
STIELTJES_BLOCK = 512   # series nodes per block: every rule to n = 1024 is one block
# nodes x angles per block of Laplace's integral: its seven nodes of every rule
# to n = 16384 are one block
LAPLACE_BLOCK = 2 ** 16
# the first ten zeros j_{0,k} of the Bessel function J_0, correctly rounded;
# McMahon's expansion is exact to double precision beyond them
BESSEL_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976])


def _bessel_j0_zeros(count):
    """The first ``count`` positive zeros of J_0: the table, then McMahon's
    expansion in 1 / (8 beta) at beta = (k - 1/4) pi."""
    beta = (np.arange(BESSEL_J0_ZEROS.size + 1, count + 1) - 0.25) * np.pi
    t = 1.0 / (8.0 * beta)
    t2 = t * t
    mcmahon = beta + t * (1.0 - t2 * (124 / 3 - t2 * (120928 / 15 - t2 * (
        401743168 / 105 - t2 * (1071187749376 / 315)))))
    return np.concatenate((BESSEL_J0_ZEROS, mcmahon))[:count]


def _legendre_laplace(n, theta):
    """P_n(cos theta) and its slope -d/dtheta P_n(cos theta) by Laplace's
    first integral, P_n(cos theta) = (1/pi) int_0^pi z^n dphi with
    z = cos theta + i sin theta cos phi.

    The integrand is a trigonometric polynomial of degree n in phi, so the
    trapezoid rule on n // 2 + 1 intervals is exact (Trefethen & Weideman,
    SIAM Review 56, 2014).  z^(n-1) is |z|^(n-1) e^{i (n-1) arg z}, with
    log |z|^2 = log1p(-sin^2 theta sin^2 phi), which keeps its digits where
    |z| is close to 1; the slope is the mean of
    n Re z^(n-1) (sin theta - i cos theta cos phi).  O(n) per node, in
    blocks of whole nodes of at most LAPLACE_BLOCK node-angle pairs each.
    """
    intervals = n // 2 + 1
    phi = np.linspace(0.0, np.pi, intervals + 1)
    # each node's sum over phi is its own, so the blocks change no bit
    step = max(1, LAPLACE_BLOCK // phi.size)
    return np.concatenate([_laplace_sums(n, part, phi)
                           for part in np.split(theta, range(step, theta.size, step))], axis=1)


def _laplace_sums(n, theta, phi):
    """``_legendre_laplace`` on the nodes ``theta``, one array pass."""
    intervals = phi.size - 1
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    cos_phi = np.cos(phi)
    a = (s * np.sin(phi)) ** 2
    # z = 0 where a = 1, at theta = phi = pi/2: the middle node of an odd rule
    log_z2 = np.full(a.shape, -np.inf)
    np.log1p(-a, out=log_z2, where=a < 1.0)
    modulus = np.exp((0.5 * (n - 1)) * log_z2)
    angle = (n - 1) * np.arctan2(s * cos_phi, c)
    re, im = modulus * np.cos(angle), modulus * np.sin(angle)
    values = np.stack((c * re - (s * cos_phi) * im, n * (s * re + (c * cos_phi) * im)))
    # the trapezoid rule: the mean over phi with both end points halved
    sums = np.add.reduce(values, axis=2) - 0.5 * (values[..., 0] + values[..., -1])
    return sums / intervals


def _legendre_stieltjes(n, theta):
    """P_n(cos theta) and its slope -d/dtheta P_n(cos theta), both divided by
    one constant C_n, by Stieltjes' series (Hale & Townsend, eq. 3.1),

        P_n(cos theta) = C_n sum_{m < M} h_m cos(alpha_m) / (2 sin theta)^(m + 1/2),

    with alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2, h_0 = 1 and
    h_{m+1} = h_m (m + 1/2)^2 / ((m + 1) (n + m + 3/2)), M = STIELTJES_TERMS.
    As e^{i alpha_m} = e^{i alpha_0} (-i e^{i theta})^m, the sum is the real
    part of e^{i alpha_0} (2 sin theta)^(-1/2) sum_m h_m w^m, a polynomial in
    w = -i e^{i theta} / (2 sin theta) = (1 - i cot theta) / 2.  Term by term,
    d/dtheta multiplies the m-th term by i (n + m + 1/2) - (m + 1/2) cot theta.
    O(M) per node, STIELTJES_BLOCK nodes at a time.
    """
    m = np.arange(STIELTJES_TERMS)
    h = np.cumprod(np.concatenate((
        [1.0], (m[:-1] + 0.5) ** 2 / ((m[:-1] + 1.0) * (n + m[:-1] + 1.5)))))
    cot = np.cos(theta) / np.sin(theta)
    w, hm = 0.5 - 0.5j * cot, np.stack((h, m * h))
    # einsum, not a BLAS product, so the sums do not depend on the BLAS build
    series, moment = np.concatenate([
        np.einsum("km,jm->jk", np.vander(part, STIELTJES_TERMS, increasing=True), hm)
        for part in np.split(w, range(STIELTJES_BLOCK, w.size, STIELTJES_BLOCK))], axis=1)
    lead = np.exp(1j * ((n + 0.5) * theta - 0.25 * np.pi)) / np.sqrt(2.0 * np.sin(theta))
    slope = (0.5 * cot - 1j * (n + 0.5)) * series + (cot - 1j) * moment
    return (lead * series).real, (lead * slope).real


def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method in theta (x = cos theta) on the ceil(n/2) nodes with
    x >= 0; the rest follow by symmetry.  The guesses are Tricomi's in the
    interior and, for theta below 1 rad, Olver's in the Bessel zeros j_{0,k}
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013),
        theta = psi + (psi cot psi - 1) / (8 psi rho^2),  psi = j_{0,k} / rho,
    with rho = n + 1/2.  Each pass evaluates P_n(cos theta) and its slope
    -dP/dtheta at every node, by Stieltjes' series where
    n sin theta >= STIELTJES_MIN and by Laplace's integral nearer the ends.
    The two share one scale: the series leaves out its constant C_n, and
    both evaluators run at the first series node, where the ratio of their
    slopes puts the few Laplace nodes on the series' scale (a C_n from lgamma
    would leave the end weights 2e-12 off at n = 1024).  Passes stop once
    every step is below 1e-8 / n: one pass at n >= 128, at most three below.
    Each pass moves its slope s along Legendre's equation,
    ds/dtheta = n(n+1) P - s cot theta, to the corrected node, so the weights
    2 / s^2 take no further pass; scaling them to sum to 2 removes the
    common factor.  O(1) work per series node and O(n) per Laplace node, of
    which there are a fixed few, so O(n) time and memory, no eigenproblem.
    """
    m = (n + 1) // 2
    k = np.arange(1, m + 1)
    theta = np.arccos((1.0 - 1.0 / (8 * n ** 2) + 1.0 / (8 * n ** 3))
                      * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    ends = np.count_nonzero(theta < 1.0)    # theta ascends, so a prefix
    rho = n + 0.5
    psi = _bessel_j0_zeros(ends) / rho
    # cot as cos / sin: numpy's tan kernel alone maps a quarter MB of code
    theta[:ends] = psi + (psi * np.cos(psi) / np.sin(psi) - 1.0) / (8.0 * psi * rho ** 2)
    for _ in range(NEWTON_PASSES):
        # theta ascends in (0, pi/2], so the Laplace nodes are a prefix
        first = np.count_nonzero(n * np.sin(theta) < STIELTJES_MIN)
        p, slope = _legendre_laplace(n, theta[:first + 1])
        if first < m:
            series, series_slope = _legendre_stieltjes(n, theta[first:])
            scale = series_slope[0] / slope[first]
            p = np.concatenate((scale * p[:first], series))
            slope = np.concatenate((scale * slope[:first], series_slope))
        step = p / slope
        slope += step * (n * (n + 1) * p - slope * np.cos(theta) / np.sin(theta))
        theta += step
        if np.max(np.abs(step)) < 1e-8 / n:
            break
    x = np.cos(theta)
    w = 2.0 / slope ** 2
    odd = n % 2
    if odd:
        x[-1] = 0.0        # the middle node of an odd rule
    x = np.concatenate((-x[:m - odd], x[::-1]))
    w = np.concatenate((w[:m - odd], w[::-1]))
    return x, w * (2.0 / w.sum())


def gauss_legendre_nodes(resolution, radius):
    """Gauss-Legendre nodes and weights on [-radius, radius]; every rule reads
    them here, so here ``resolution`` is typed, in 1..QUADRATURE_RESOLUTION_MAX."""
    n = _bounded("quadrature resolution", resolution, 1, QUADRATURE_RESOLUTION_MAX)
    if n not in _GL_RULES:
        _GL_RULES[n] = _legendre_rule(n)
    x, w = _GL_RULES[n]
    return x * radius, w * radius


def tensor_blocks(resolution, radius):
    """The tensor rule on [-radius, radius]^2 as (nodes x_i + 1j x_j, weights
    w_i w_j), flat index i * resolution + j, BLOCK_ROWS rows at a time."""
    x, w = gauss_legendre_nodes(resolution, radius)
    for i in range(0, x.size, BLOCK_ROWS):
        yield ((x[i:i + BLOCK_ROWS, None] + 1j * x[None, :]).ravel(),
               (w[i:i + BLOCK_ROWS, None] * w[None, :]).ravel())


def radial_blocks(resolution, breaks, corners=False):
    """The Gauss-Legendre rule in s = |z|^2, for integrands of |z|^2 alone.

    Over the disc |z|^2 <= S, the integral of f(|z|^2) dA is pi times the
    integral of f(s) ds on [0, S].  ``breaks`` ascend from 0 to S; each piece
    between two neighbours takes the ``resolution``-node rule mapped onto it,
    with weight pi ds, so a break where the integrand is not analytic sits at
    the end of a piece, never inside one.  With ``corners`` the domain is the
    square [-r, r]^2, r^2 = S, and one more piece covers its corners: the
    circle |z|^2 = S (1 + t^2), t in [0, 1], keeps the angle 2 pi - 8 arctan t
    inside the square, so they add the integral of
    f(S (1 + t^2)) (pi - 4 arctan t) 2 S t dt, smooth in t.  Those weights
    are scaled to sum to the corner area (4 - pi) S, so a constant integrates
    exactly.  Yields one block (nodes sqrt(s) + 0j, weights) of
    ``resolution`` nodes per piece, piece by piece.
    """
    x, w = gauss_legendre_nodes(resolution, 1.0)
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[1:] + breaks[:-1])[:, None]
    half = 0.5 * (breaks[1:] - breaks[:-1])[:, None]
    s = (mid + half * x).ravel()
    weights = (math.pi * half * w).ravel()
    if corners:
        t = 0.5 + 0.5 * x
        corner = (math.pi - 4.0 * np.arctan(t)) * t * w
        corner *= (4.0 - math.pi) * breaks[-1] / corner.sum()
        s = np.concatenate((s, breaks[-1] * (1.0 + t * t)))
        weights = np.concatenate((weights, corner))
    yield np.sqrt(s) + 0j, weights


def chart_blocks(chart, fields, resolution):
    """The blocks of the rule, of the two in the module docstring, that one
    chart takes for an integrand read from ``fields`` besides its bump and metric."""
    bump = chart.bump
    if all(isinstance(f, RadialField) for f in (bump, chart.metric_scalar, *fields)):
        if math.isfinite(bump.support):
            # an edge outside (0, support) leaves one piece
            breaks = sorted({0.0, min(bump.edge, bump.support), bump.support})
            return radial_blocks(resolution, breaks)
        return radial_blocks(resolution, (0.0, chart.box_radius ** 2), corners=True)
    return tensor_blocks(resolution, chart.box_radius)


def orbifold_integrate(fields, orb: ChartedOrbifold, resolution=128):
    """Group-corrected integral of a scalar field against the orbifold volume.

    Parameters
    ----------
    fields : sequence of callables, one per chart
        Chart-level representatives of the integrand, in the form of
        ``EquivariantLineBundle.curvature_scalars``: fields[k](Z) takes a
        complex array of points of chart k (vectorized, shape (m,)) and
        returns real or complex values of shape (m,).
    orb : ChartedOrbifold
    resolution : what it counts depends on each chart's rule (module docstring).

    The value is sum over charts of 1/|G| * integral of bump * f * kappa over
    the blocks of ``chart_blocks``, evaluated in a fixed chart/node order so
    reruns are bit-identical.  An integrand that moves by more than
    INTEGRAND_INVARIANCE_TOL under the group at 8 tensor-grid nodes, drawn
    from ``np.random.default_rng(0)``, raises IntegrandError.
    """
    if len(fields) != len(orb.charts):
        raise ValueError(f"{len(fields)} integrand fields for {len(orb.charts)} charts")
    rng = np.random.default_rng(0)
    total = 0.0
    for k, (chart, field) in enumerate(zip(orb.charts, fields)):
        _require_one_dimensional(chart)
        if chart.order > 1:
            # flat index i of the tensor rule is the node x[i // n] + 1j x[i % n]
            x, _ = gauss_legendre_nodes(resolution, chart.box_radius)
            n = x.size
            idx = rng.integers(0, n * n, size=min(8, n * n))
            pts = x[idx // n] + 1j * x[idx % n]
            ref = np.asarray(field(pts))
            moved = np.asarray(field((chart.group.rotation[:, :1] * pts).ravel()))
            mismatch = np.max(np.abs(moved.reshape(-1, pts.size) - ref))
            if mismatch > INTEGRAND_INVARIANCE_TOL:
                raise IntegrandError(
                    f"integrand not invariant on chart {k} (mismatch {mismatch:.2e})")
        contrib = 0.0
        for nodes, weights in chart_blocks(chart, (field,), resolution):
            vals = np.asarray(field(nodes))
            bump = np.asarray(chart.bump(nodes), dtype=float)
            kappa = np.real(np.asarray(chart.metric_scalar(nodes)))
            contrib += np.add.reduce(weights * (bump * kappa * np.real(vals)))
        total += float(contrib / chart.order)
    return total
