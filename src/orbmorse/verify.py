"""Two-sided verification of the Morse inequalities and kernel asymptotics.

The flat catalog models admit an exact method-of-images evaluation of the
diagonal heat kernel: the kernel on the quotient is the sum over deck
transformations of the closed-form plane kernel, so

    p^{-n} exp(-u Lap_p / p)(x, x) = limit density + group/lattice images,

with every non-identity image exponentially small in p.  The verification
routines below compute those images in log-scaled arithmetic (they fall far
below the float underflow threshold at large p), compare them against the
closed-form predictions, and fit empirical convergence orders.

Each flat model's images are one ``ImageTable``: a torus's deck images, per
(d, k) in a bounded cache, or a local model's chart group, read in place.
One kernel, ``image_log_terms``, evaluates every degree-0 image term of a
table at a batch of points and powers as arrays of log|term| and phase, and
``log_sum_exp`` sums them in one max-shifted pass per point and power; a
kernel is that sum as a plain complex number.  Degree one on a torus is
derived in one place, the bounded cache ``_torus_image_sums`` on plain
(d, k, z, u, p), from one degree-0 evaluation.  A local model's limit is
cached per (a, u), and its twist correction is one batch kernel per power,
``kernels.twisted_exponents``, over the rotation rows of its non-identity
elements.  The trace identity integrates the image sum in closed form.

Every torus route reads (d, k) through ``spectral._torus``, the one torus
guard.  Every torus and local-model route types its power p and time u with
``errors._at_least`` and ``errors._positive`` (``_require_powers_and_time``),
at each power of a ``p_list``, and a degree q with ``errors._degree``.  The
kernel types p and u itself, so a route that reaches it, directly or through
the typed cache ``_torus_image_sums``, leaves them to it.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .curvature import signature_integrals
from .errors import (ConfigurationError, GeometryError, UnresolvedTimeError, _at_least,
                     _degree, _positive)
from .geometry import fibre_angles
from .kernels import (ModelPoint, factor_plus, heat_diagonal_limit, log_sum_exp,
                      mehler_log_form, twisted_exponents)
from .spectral import (CACHE_SIZE, _level_weights, _torus, assemble_kodaira_laplacian,
                       heat_trace, torus_diagonal_kernel_spectral)

# the regular-point check keeps this far from the singular set
REGULAR_MIN_DISTANCE = 0.25
# most relative heat weight e^{-2 pi d u L} of the first Landau level L left out
# of a spectral kernel, three decades under the 1e-9 trace-identity gate
LANDAU_TAIL_TOL = 1e-12
# the torus image sums keep the deck images with |m|, |n| <= LATTICE_CUT
LATTICE_CUT = 4


def _point(orb, x):
    """One point of a flat model: on a torus a complex number reduced into the
    unit cell [0, 1)^2, where the image cut is centred (the kernels are
    lattice periodic); on a local model the array of its n coordinates."""
    x = np.asarray(x, dtype=complex)
    if not all(map(cmath.isfinite, x.ravel().tolist())):
        raise GeometryError(f"flat-model point {x} is not finite")
    size = orb.dimension
    if x.size != size:
        raise GeometryError(f"flat-model point {x} has {x.size} coordinates, expected {size}")
    if orb.exact.torus is not None:
        z = x.item()
        return complex(_cell(z.real), _cell(z.imag))
    return x.reshape(size)


def _cell(t):
    """t reduced into [0, 1).  Just below an integer t - floor(t) rounds up to
    1.0, which is 0 in the cell."""
    r = t - math.floor(t)
    return r if r < 1.0 else 0.0


def _require_powers_and_time(p_list, u):
    """Refuse, naming the value, an empty ``p_list`` (its regular-point fit read
    -inf), a power that is not an integer >= 1 and a time not finite and > 0."""
    if len(p_list) == 0:
        raise ConfigurationError("p_list must hold at least one power, got []")
    for p in p_list:
        _at_least("power p", p, 1)
        _positive("kernel time u", u)


def _per_power(values, ndim):
    """``values``, one entry per power, as an array over the powers with
    ``ndim`` unit axes after the first."""
    values = np.asarray(values)
    return values.reshape(values.shape[:1] + (1,) * ndim + values.shape[1:])


# ---------------------------------------------------------------------------
# image sums


class ImageTable(NamedTuple):
    """The images of a flat model, each the coordinatewise map Z -> rot Z + shift
    with an integer fibre character mod the group order: ``rot`` and ``shift``
    of shape (images, n), ``characters`` one per image, and None for the shift
    of a local model and the characters of a torus or of a group that fixes
    the fibre.  ``labels`` name the images, (m, n, j) on a torus and m for g^m
    on a local model, ``a`` is the curvature at p = 1, and ``identity`` the
    index of the identity image."""

    labels: object
    a: tuple
    rot: np.ndarray
    shift: object
    characters: object
    identity: int


def _images(orb):
    """The image table of a flat model, read from its exact record; a local
    model's holds its chart group's elements g^m, labelled m, read in place."""
    if orb.exact.torus is not None:
        return _torus_images(*_torus(orb))
    k, a, _, character = orb.oracle(
        "group", "kernel asymptotics require a flat model with an exact image-sum oracle")
    group = orb.charts[0].group
    return ImageTable(range(k), a, group.rotation, None,
                      group.characters if character else None, 0)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _torus_images(d, k):
    """The deck images of the torus quotient of bundle degree d and group order
    k, labelled (m, n, j): the magnetic translation by lam = m + i n, cut at
    |m|, |n| <= LATTICE_CUT, after the half turn to the power j."""
    cut = range(-LATTICE_CUT, LATTICE_CUT + 1)
    labels = tuple((m, n_, j) for j in range(k) for m in cut for n_ in cut)
    m, n_, j = np.array(labels, dtype=float).reshape(-1, 3, 1).transpose(1, 0, 2)
    rot, shift = (1.0 - 2.0 * j).astype(complex), m + 1j * n_
    rot.flags.writeable = shift.flags.writeable = False     # every call shares them
    return ImageTable(labels, (2.0 * math.pi * d,), rot, shift, None, labels.index((0, 0, 0)))


def image_log_terms(images, points, u, p):
    """log|term| and phase of every degree-0 image term of a flat model.

    At points of shape (..., n), the term of g: Z -> rot Z + lam, lam = m + i n
    per coordinate, is K_plane(Z, g Z) e^{2 pi i c_g p / k} exp(i (p a / 2)(m n +
    lam wedge g Z)) p^{-n}, the plane kernel at curvature p a and time u / p;
    only the phases a table has are added, the fibre's as ``fibre_angles``
    reduces them.  ``p`` is a sequence of powers, typed with u by
    ``_require_powers_and_time``.  Returns the table's labels and log_abs and
    phase of shape (len(p),) + points.shape[:-1] + (len(labels),), each slice
    computed from its own power and image alone.
    """
    _require_powers_and_time(p, u)
    Z = np.asarray(points, dtype=complex)[..., None, :]
    target = images.rot * Z
    if images.shift is not None:
        target = target + images.shift
    curvatures = [[pp * aj for aj in images.a] for pp in p]
    log_abs, phase = mehler_log_form(curvatures, [u / pp for pp in p], Z, target)
    if images.shift is not None:
        # lam wedge (g Z + lam) = lam wedge g Z
        m, n_ = images.shift.real, images.shift.imag
        half = _per_power(curvatures, Z.ndim - 1) / 2
        wedge = m * target.imag - n_ * target.real
        phase = phase + (half * m * n_ + half * wedge).sum(-1)
    if images.characters is not None:
        turns = [fibre_angles(images.characters, len(images.labels), pp) for pp in p]
        phase = phase + _per_power(turns, Z.ndim - 2)
    log_abs = log_abs - _per_power([len(images.a) * math.log(pp) for pp in p], Z.ndim - 1)
    return images.labels, log_abs, phase


def torus_image_log_terms(d, k, points, u, p):
    """``image_log_terms`` of the torus quotient of bundle degree d and group
    order k, at complex points of any shape, each in the unit cell [0, 1)^2."""
    return image_log_terms(_torus_images(d, k), np.asarray(points, dtype=complex)[..., None], u, p)


def local_model_image_log_terms(orb, points, u, p):
    """``image_log_terms`` of a local model, at points of shape (..., n)."""
    orb.oracle("group", "group-element sums run on the local models")
    return image_log_terms(_images(orb), points, u, p)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _limit(a, u):
    """The degree-0 limit density at time u of the flat model of curvatures ``a``."""
    return heat_diagonal_limit(ModelPoint(a, u), 0).trace


def _image_sums(log_abs, phase):
    """The image sum of each power's terms, batched along the first axis, as
    a list of complex numbers."""
    log_scale, mantissa = log_sum_exp(log_abs, phase)
    return [m * math.exp(s) for s, m in zip(log_scale.tolist(), mantissa.tolist())]


def local_model_image_terms(orb, bundle, Z, u, p):
    """Per-group-element terms of p^{-n} exp(-u Lap_p / p)(Z, Z), degree 0, as
    (m, log|term|, phase) triples, one per element g^m."""
    labels, log_abs, phase = local_model_image_log_terms(orb, _point(orb, Z), u, [p])
    return list(zip(labels, log_abs[0], phase[0]))


def local_model_diagonal_kernel(orb, bundle, Z, u, p):
    """p^{-n} exp(-u Lap_p / p)(Z, Z) on the local model, degree-0 trace."""
    _, log_abs, phase = local_model_image_log_terms(orb, _point(orb, Z), u, [p])
    return _image_sums(log_abs, phase)[0]


def torus_image_terms(orb, bundle, z, u, p):
    """Deck-transformation terms of the diagonal kernel on the torus quotient,
    as ((m, n, j), log|term|, phase) triples."""
    labels, log_abs, phase = torus_image_log_terms(*_torus(orb), _point(orb, z), u, [p])
    return list(zip(labels, log_abs[0], phase[0]))


def torus_diagonal_kernel_image(orb, bundle, z, u, p, degree=0):
    """Degree-q diagonal kernel trace on the torus quotient by image sums."""
    d, k = _torus(orb, degree)
    return _torus_image_sums(d, k, _point(orb, z), u, p)[degree]


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _torus_image_sums(d, k, z, u, p):
    """(degree-0, degree-1) image sums at a point z of the cell, in one log-sum
    over one degree-0 evaluation broadcast to both degrees: degree one adds
    -2 pi d u to each log (the full field strength) and pi to the phase of
    each half turn (its -1 on the coframe ebar), degree zero -0.0 to both,
    which leaves every bit.

    Only a (u, p) that ``image_log_terms`` typed enters the cache, and a typed
    cache takes a hit only at equal values of equal types, so a hit needs no
    guard: True misses where 1 hits."""
    _, log_abs, phase = torus_image_log_terms(d, k, z, u, [p])
    half_turns = 1.0 - _torus_images(d, k).rot[:, 0].real     # 2 or 0
    return tuple(_image_sums(log_abs + np.array([[-0.0], [-2.0 * math.pi * d * u]]),
                             phase + np.multiply.outer([-0.0, math.pi / 2], half_turns)))


# ---------------------------------------------------------------------------
# rate fits


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    p_window: tuple
    log_errors: tuple


def fit_rate(p_values, log_errors):
    """Least-squares slope of log err against log p.

    Points whose log err is not finite (an exactly zero error) are dropped
    from the window.  The two-parameter fit is taken in closed form from the
    sums centred on the window's means: slope S_xy / S_xx, and the intercept
    through the means.  A window of fewer than two distinct powers has no
    slope.
    """
    ps = np.asarray(p_values, dtype=float)
    le = np.asarray(log_errors, dtype=float)
    keep = np.isfinite(le)
    ps, le = ps[keep], le[keep]
    if ps.size < 2 or ps.min() == ps.max():
        return RateFit(slope=-math.inf, intercept=0.0, r_squared=1.0,
                       p_window=tuple(int(p) for p in ps),
                       log_errors=tuple(le))
    lx = np.log(ps)
    dx, dy = lx - lx.mean(), le - le.mean()
    slope = float((dx * dy).sum() / (dx * dx).sum())
    ss_res = float(((dy - slope * dx) ** 2).sum())
    ss_tot = float((dy * dy).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=slope, intercept=float(le.mean() - slope * lx.mean()), r_squared=r2,
                   p_window=tuple(int(p) for p in ps), log_errors=tuple(le))


# ---------------------------------------------------------------------------
# kernel asymptotics


def verify_kernel_asymptotics_regular(orb, bundle, x, u, p_list):
    """Error of the limit density at a regular point, with a fitted rate.

    err(p) = |p^{-n} K_p(x, x) - limit|, evaluated through the image-sum
    oracle; for flat models the identity image cancels the limit exactly, so
    the error is the modulus of the non-identity images, computed in
    log-scaled arithmetic, for every power of ``p_list`` in one batch.  The
    fitted log-log slope must come out far below the -1/2 guarantee.
    """
    images = _images(orb)
    x = _point(orb, x)
    dist = orb.singular_distance(0, x)
    if dist < REGULAR_MIN_DISTANCE:
        raise GeometryError(
            f"point at distance {dist:.3f} from the singular set; the regular-point "
            f"check requires distance >= {REGULAR_MIN_DISTANCE}")
    _, log_abs, phase = image_log_terms(images, np.reshape(x, -1), u, p_list)
    others = np.arange(len(images.labels)) != images.identity
    log_errs, _ = log_sum_exp(log_abs[..., others], phase[..., others])
    return fit_rate(p_list, log_errs)


def singular_diagonal_factor(orb, bundle, x, u, p):
    """Ratio p^{-n} K_p(x, x) / limit density at a singular point.

    Converges to the order of the isotropy group; exactly that order for the
    flat local models with trivial bundle character.  The kernel it reads
    refuses a power or time that ``_require_powers_and_time`` refuses.
    """
    images = _images(orb)
    _, log_abs, phase = image_log_terms(images, np.reshape(_point(orb, x), -1), u, [p])
    return float(np.real(_image_sums(log_abs, phase)[0]) / _limit(images.a, u))


class SingularExpansionRecord(NamedTuple):
    p: int
    u: float
    residual_without_twist: float
    residual_with_twist: float


def verify_kernel_asymptotics_singular(orb, bundle, Z, u, p_list):
    """Residuals of the near-singularity expansion, with and without the
    group-twisted Gaussian correction.

    The corrected expansion is limit + sum over non-trivial elements g of
    e^{2 pi i c_g p / k} limit * twisted_gaussian(g, sqrt(p) Z), the one limit for
    every fixed- times normal-block limit; for flat local models it reproduces the
    kernel to rounding, while the uncorrected limit misses the order-one twist.
    """
    k, a, _, _ = orb.oracle("group", "the corrected expansion ships for local models")
    Z = _point(orb, Z)
    group = orb.charts[0].group
    limit = _limit(a, u)
    phases = np.angle(group.rotation[1:])     # rows 1.., the non-identity elements
    _, log_abs, phase = local_model_image_log_terms(orb, Z, u, p_list)
    records = []
    for p, kernel in zip(p_list, _image_sums(log_abs, phase)):
        fibres = np.exp(1j * fibre_angles(group.characters[1:], k, p)) * limit
        twists = np.exp(twisted_exponents(a, u, phases, math.sqrt(p) * Z))
        # as Python complex numbers: numpy's product fuses multiply-adds, its sum regroups
        corr = sum((f * t for f, t in zip(fibres.tolist(), twists.tolist())), 0.0j)
        records.append(SingularExpansionRecord(
            p=int(p), u=float(u), residual_without_twist=float(abs(kernel - limit)),
            residual_with_twist=float(abs(kernel - limit - corr))))
    return records


# ---------------------------------------------------------------------------
# strong Morse inequalities


class StrongMorseSeries(NamedTuple):
    q: int
    p_list: tuple
    residuals: tuple
    morse_sums: tuple
    integral: float

    def as_record(self):
        return {"q": self.q, "p_list": list(self.p_list),
                "residuals": [float(r) for r in self.residuals],
                "morse_sums": [float(m) for m in self.morse_sums],
                "integral": float(self.integral)}


def verify_strong_morse(orb, q, p_list, split, table):
    """Residual series of the strong Morse inequality at degree q.

    rho_p = p^{-n} sum_{j <= q} (-1)^j h^j  -  integral over the
    signature region {<= q} of det(curvature endomorphism / 2 pi), the sum
    of the signature split ``split`` over q' <= q; the h^j are read from
    ``table``, a cohomology table holding every power of ``p_list``.  The
    series must satisfy max(rho_p, 0) <= 2/p at every power, with
    |rho_p| -> 0 at q = n.
    """
    n = orb.dimension
    _degree(q, n)
    p_list = tuple(_at_least("power p", p, 1) for p in p_list)
    integral = sum(split.by_signature[: q + 1])
    sums = []
    residuals = []
    for p in p_list:
        ms = table.morse_sum(p, q)
        sums.append(ms)
        residuals.append(ms / p ** n - integral)
    return StrongMorseSeries(q=q, p_list=p_list, residuals=tuple(residuals),
                             morse_sums=tuple(sums), integral=integral)


def telescoping_identity_gap(orb, bundle, q, resolution=256):
    """|I(<= q) - I(<= q-1) - I({q})| on the sums of one signature split."""
    _degree(q, orb.dimension, 1)
    by_signature = signature_integrals(orb, bundle, resolution=resolution).by_signature
    return abs(sum(by_signature[: q + 1]) - sum(by_signature[:q]) - by_signature[q])


def exact_chain_residuals(orb, bundle, p, u, resolution=32):
    """Residuals [r_0, r_1] of the exact trace inequality chain on a torus quotient.

    dbar maps degree-0 level L onto degree-1 level L - 1, of the same
    eigenvalue, so with w_L = e^{-u lambda_0(L) / p}, read from the weight
    table of the degree-0 operator (``spectral._level_weights``), the chain
    reads r_0 = sum_{L >= 1} m_0(L) w_L, the degree-0 heat trace's tail, and
    r_1 = sum_{L >= 1} (m_1(L - 1) - m_0(L)) w_L, each difference taken in
    integers: two float heat traces of about d p / k states would round it.
    The top degree-1 level, whose partner lies beyond the truncation, is left out.
    """
    _torus(orb)
    _require_powers_and_time([p], u)
    ops = [assemble_kodaira_laplacian(orb, bundle, p, q, resolution) for q in (0, 1)]
    m0, m1 = (op.multiplicities for op in ops)
    weights, _ = _level_weights(ops[0], u)
    return [heat_trace(ops[0], u)[1],
            float(sum((b - a) * w for a, b, w in zip(m0[1:], m1, weights[1:].tolist())))]


def _truncated_operator(orb, bundle, u, p, degree, resolution=32):
    """The torus operator of the spectral routes, refusing a time u at which
    the levels it leaves out weigh more than LANDAU_TAIL_TOL."""
    op = assemble_kodaira_laplacian(orb, bundle, p, degree, resolution)
    L = op.resolution
    tail = math.exp(-u * (op.level_eigenvalue(L) - op.level_eigenvalue(0)) / p)
    if tail > LANDAU_TAIL_TOL:
        raise UnresolvedTimeError(
            f"kernel time u={u} is too small for {L} Landau levels: the first "
            f"level left out weighs {tail:.1e} of the lowest, above {LANDAU_TAIL_TOL:.0e}")
    return op


def oracle_consistency(orb, bundle, z, u, p, degree=0):
    """Gap between the spectral and image-sum diagonal kernels, relative to
    the identity term: at the half-turn fixed points the degree-one kernel
    cancels to rounding, so its own size is no scale.

    Refuses, with ``UnresolvedTimeError``, a time u at which the float range
    cannot resolve the kernels: where the lowest level's heat weight,
    e^{-2 pi d u} in degree one, and with it the identity term fall below
    the normal floats.
    """
    d, k = _torus(orb, degree)
    z = _point(orb, z)
    _require_powers_and_time([p], u)
    op = _truncated_operator(orb, bundle, u, p, degree)
    weights, _ = _level_weights(op, u)
    if weights[0] < sys.float_info.min:
        raise UnresolvedTimeError(
            f"the lowest degree-{degree} heat weight at u={u} falls below the float range")
    spec = torus_diagonal_kernel_spectral(op, z, u) / p
    image = _torus_image_sums(d, k, z, u, p)[degree]
    return abs(spec - image) / (_image_trace(d, 1, u, p, degree) / p)


def _image_trace(d, k, u, p, degree):
    """1/k times the cell integral of the image-sum diagonal, in closed form.

    At the scale of the heat trace (without the p^{-1} of the image terms),
    for d >= 1; the cost does not depend on p.  Every deck term's phase is
    constant on the cell.  A translation by lam = m + i n carries
    pi D m n + 2 pi D (m y - n x), which integrates to zero unless m = n = 0,
    so it leaves the identity term c = g1(x) / (2 pi t), with t = u / p and
    x = 2 pi d u.  A half turn carries pi D m n, the sign (-1)^{D a b} on the
    parity class (a, b) of lam, and w = 2 z - lam maps the cell times one
    class onto the plane with dA_z = dA_w / 4: each class gives
    c pi / (4 alpha), alpha = (x/2) coth(x/2) / (2 t) the Gaussian's rate,
    and the four sum to c pi / (4 alpha) (3 + (-1)^D).  Degree one weights
    every term by e^{-x} and each half turn by -1.

    As x = 2 pi D t, pi / (4 alpha) = tanh(x/2) / (2 D), and the sum is
    (c / k)(2 D + s - s (1 - tanh(x/2))) / (2 D) with s = +-(3 + (-1)^D).
    The integer 2 D + s stands apart because in degree one at D <= 2 it is
    0: the half turns then cancel the identity term up to e^{-x}, and this
    form keeps the digits of what is left.
    """
    t = u / p
    e = math.exp(-2.0 * math.pi * d * u)
    D = d * p
    c = factor_plus(2.0 * math.pi * d, u) / (2.0 * math.pi * t)
    if degree == 1:
        c *= e
    if k == 1:
        return c
    s = (-1) ** degree * (3 + (-1) ** D)
    one_minus_tanh = 2.0 * e / (1.0 + e)
    return c / k * ((2 * D + s) - s * one_minus_tanh) / (2 * D)


def trace_equals_diagonal_integral(orb, bundle, u, p, degree=0, grid=24, resolution=32):
    """Gap between the spectral trace and the cell integral of the diagonal.

    The trace of the quotient heat operator equals 1/k times the cell
    integral of the image-sum diagonal.  The spectral side is the heat
    trace's exact kernel plus its tail over the retained Landau levels; the
    integral is taken in closed form (``_image_trace``), exact at every p.  Returns the relative difference.  ``grid`` no longer
    changes the value; it stays for callers that still pass it.
    """
    _torus(orb, degree)
    _require_powers_and_time([p], u)
    op = _truncated_operator(orb, bundle, u, p, degree, resolution)
    kernel, tail = heat_trace(op, u)
    spectral = kernel + tail
    if spectral < sys.float_info.min:
        raise UnresolvedTimeError(
            f"the degree-{degree} heat trace at u={u} falls below the float range")
    integral = _image_trace(op.d, op.k, u, p, degree)
    return abs(integral - spectral) / spectral
