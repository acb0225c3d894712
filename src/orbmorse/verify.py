"""Two-sided verification of the Morse inequalities and kernel asymptotics.

The flat catalog models admit an exact method-of-images evaluation of the
diagonal heat kernel: the kernel on the quotient is the sum over deck
transformations of the closed-form plane kernel, so

    p^{-n} exp(-u Lap_p / p)(x, x) = limit density + group/lattice images,

with every non-identity image exponentially small in p.  The verification
routines below compute those images in log-scaled arithmetic (they fall far
below the float underflow threshold at large p), compare them against the
closed-form predictions, and fit empirical convergence orders.

``torus_image_log_terms`` and ``local_model_image_log_terms`` evaluate
every image term of a batch of points, at a batch of powers, as arrays of
log|term| and phase, and ``log_sum_exp`` sums them in one max-shifted pass
per point and power; a kernel is that sum as a plain complex number.  On a
torus the two form degrees share their deck terms: degree one is the
degree-0 terms weighted by (-1)^j e^{-2 pi d u}, so one degree-0 evaluation
gives both degrees' sums at a (point, power), and a bounded cache keeps the
pair for the other degree (``_torus_image_sums``).  The trace identity needs
no such sum: it integrates the image sum over the cell in closed form
(``_image_trace``).

Every torus and local-model route refuses a power p that is not an integer
>= 1 and a time u that is not finite and positive
(``_require_power_and_time``), at each power of a ``p_list``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .catalog import _finite, _integer
from .curvature import signature_integrals
from .errors import (ConfigurationError, GeometryError, UnresolvedTimeError,
                     UnsupportedModelError)
from .kernels import (ModelPoint, factor_plus, heat_diagonal_limit, log_sum_exp,
                      mehler_log_form, twisted_gaussian)
from .spectral import (CACHE_SIZE, assemble_kodaira_laplacian, heat_trace,
                       torus_diagonal_kernel_spectral)

RELIABLE_R2 = 0.9
# the regular-point check keeps this far from the singular set
REGULAR_MIN_DISTANCE = 0.25
# most relative heat weight e^{-2 pi d u L} of the first Landau level L left out
# of a spectral kernel, three decades under the 1e-9 trace-identity gate
LANDAU_TAIL_TOL = 1e-12
# the torus image sums keep the deck images with |m|, |n| <= LATTICE_CUT
LATTICE_CUT = 4


def _require_flat(orb):
    if orb.catalog_id not in ("local-model", "torus"):
        raise UnsupportedModelError(
            "kernel asymptotics require a flat model with an exact image-sum oracle")


def _local_group(orb):
    return orb.charts[0].group


def _point(orb, x):
    """One point of a flat model: on a torus a complex number reduced into the
    unit cell [0, 1)^2, where the image cut is centred (the kernels are
    lattice periodic); on a local model the array of its n coordinates."""
    x = np.asarray(x, dtype=complex)
    if not all(map(cmath.isfinite, x.ravel().tolist())):
        raise GeometryError(f"flat-model point {x} is not finite")
    size = 1 if orb.catalog_id == "torus" else len(orb.params["a"])
    if x.size != size:
        raise GeometryError(f"flat-model point {x} has {x.size} coordinates, expected {size}")
    if orb.catalog_id != "torus":
        return x.reshape(size)
    z = x.item()
    return complex(_cell(z.real), _cell(z.imag))


def _cell(t):
    """t reduced into [0, 1).  Just below an integer t - floor(t) rounds up to
    1.0, which is 0 in the cell."""
    r = t - math.floor(t)
    return r if r < 1.0 else 0.0


def _require_power_and_time(p, u):
    """Refuse, naming the value, a power that is not an integer >= 1 (a bool
    too) and a time that is not finite and positive, with the catalog's
    typing of its parameters."""
    if _integer("power p", p) < 1:
        raise ConfigurationError(f"power p must be >= 1, got {p!r}")
    if _finite("kernel time u", u) <= 0:
        raise ConfigurationError(f"kernel time u must be positive, got {u!r}")


def _require_powers_and_time(p_list, u):
    """``_require_power_and_time`` at each power of a ``p_list``, which must
    not be empty: with no power the regular-point fit read a slope of -inf."""
    if len(p_list) == 0:
        raise ConfigurationError("p_list must hold at least one power, got []")
    for p in p_list:
        _require_power_and_time(p, u)


def _per_power(values, ndim):
    """``values``, one entry per power, as an array over the powers with
    ``ndim`` unit axes after the first."""
    values = np.asarray(values)
    return values.reshape(values.shape[:1] + (1,) * ndim + values.shape[1:])


# ---------------------------------------------------------------------------
# image sums


def torus_image_log_terms(orb, points, u, p, include_identity=True, degree=0):
    """log|term| and phase of every deck-transformation term on a torus quotient.

    ``points`` are complex numbers of any shape, each in the unit cell
    [0, 1)^2: the images, cut at |m|, |n| <= LATTICE_CUT, are the deck
    transformations gamma = (magnetic translation by lam = m + i n) o
    (half turn)^j.  The term K_plane(z, gamma z) exp(i pi D m n)
    exp(i (B/2) lam wedge r^j z) takes the degree-0 plane kernel at curvature
    B = 2 pi d p and time u / p; degree one weights it by (-1)^j e^{-2 pi d u}
    (the two scalar operators differ by the full field strength, and the
    half turn acts on the antiholomorphic coframe by -1).

    Every term carries the p^{-1} rescaling.  ``p`` is a sequence of powers.
    Returns (labels, log_abs, phase): one (m, n, j) label per image and two
    arrays of shape (len(p),) + points.shape + (len(labels),).  Each power's
    scalars are computed from that power alone, so its slice does not depend
    on the other powers.
    """
    d, k = _torus_params(orb, degree)
    D = [d * pp for pp in p]
    labels, m, n_, j = _deck_images(k, include_identity)
    z = np.asarray(points, dtype=complex)[..., None]
    target = np.where(j == 0, z, -z) + (m + 1j * n_)
    log_abs, phase = mehler_log_form([(2.0 * math.pi * Dp,) for Dp in D], [u / pp for pp in p],
                                     z[..., None], target[..., None])
    # lam wedge (r^j z + lam) = lam wedge r^j z, weighted by B / 2 = pi D
    wedge = m * target.imag - n_ * target.real
    pi_D = _per_power([math.pi * Dp for Dp in D], z.ndim)
    phase = phase + (pi_D * m * n_ + pi_D * wedge)
    log_abs = log_abs - _per_power([math.log(pp) for pp in p], z.ndim)
    if degree == 1:
        log_abs, phase = _degree_one(d, u, j, log_abs, phase)
    return labels, log_abs, phase


def _torus_params(orb, degree):
    """(d, k) of a torus quotient, refusing other models and degrees."""
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("deck-transformation sums run on the torus quotients")
    if degree not in (0, 1):
        raise ConfigurationError("torus models carry form degrees 0 and 1")
    return orb.params["d"], orb.params["k"]


def _degree_one(d, u, j, log_abs, phase):
    """Degree-0 deck terms weighted by (-1)^j e^{-2 pi d u}, the degree-one terms."""
    return log_abs - 2.0 * math.pi * d * u, phase + math.pi * j


@functools.lru_cache(maxsize=16)
def _deck_images(k, include_identity):
    """The (m, n, j) labels of the deck images in the cut and their float
    columns, shared by every call, so a tuple and read-only arrays."""
    cut = range(-LATTICE_CUT, LATTICE_CUT + 1)
    labels = tuple((m, n_, j) for j in range(k) for m in cut for n_ in cut
                   if include_identity or (m, n_, j) != (0, 0, 0))
    columns = np.array(labels, dtype=float).reshape(-1, 3).T
    columns.flags.writeable = False
    return (labels, *columns)


def local_model_image_log_terms(orb, points, u, p, include_identity=True):
    """log|term| and phase of every group-element term on a local model.

    ``points`` has shape (..., n) and the images are the group elements g,
    with degree-0 terms e^{i p theta_g} K_plane(g^{-1} Z, Z) at
    curvature p * a and time u / p, each carrying the p^{-n} rescaling.
    ``p`` is a sequence of powers.  Returns (labels, log_abs, phase): the
    group elements and two arrays of shape (len(p),) + points.shape[:-1] +
    (len(labels),), each power's slice computed from that power alone.
    """
    if orb.catalog_id != "local-model":
        raise UnsupportedModelError("group-element sums run on the local models")
    a = np.asarray(orb.params["a"], dtype=float)
    n = a.size
    labels = [g for g in _local_group(orb) if include_identity or not g.is_identity]
    Z = np.asarray(points, dtype=complex)
    # g^{-1} is the conjugate rotation, applied coordinate by coordinate
    rotations = np.array([g.rotation for g in labels]).reshape(-1, n)
    X = np.einsum("gi,...i->...gi", np.conj(rotations), Z)
    log_abs, phase = mehler_log_form([pp * a for pp in p], [u / pp for pp in p],
                                     X, Z[..., None, :])
    fibers = [[np.exp(1j * pp * g.line_phase) * pp ** float(-n) for g in labels]
              for pp in p]
    log_abs = log_abs + _per_power([[math.log(abs(f)) for f in row] for row in fibers],
                                   Z.ndim - 1)
    phase = phase + _per_power(np.angle(fibers), Z.ndim - 1)
    return labels, log_abs, phase


def _image_sums(log_abs, phase):
    """The image sum of each power's terms, batched along the first axis, as
    a list of complex numbers."""
    log_scale, mantissa = log_sum_exp(log_abs, phase)
    return [complex(m) * math.exp(s) for s, m in zip(log_scale, mantissa)]


def local_model_image_terms(orb, bundle, Z, u, p):
    """Per-group-element terms of p^{-n} exp(-u Lap_p / p)(Z, Z), degree 0, as
    (group element, log|term|, phase) triples."""
    labels, log_abs, phase = local_model_image_log_terms(orb, _point(orb, Z), u, [p])
    return list(zip(labels, log_abs[0], phase[0]))


def local_model_diagonal_kernel(orb, bundle, Z, u, p):
    """p^{-n} exp(-u Lap_p / p)(Z, Z) on the local model, degree-0 trace."""
    _require_power_and_time(p, u)
    _, log_abs, phase = local_model_image_log_terms(orb, _point(orb, Z), u, [p])
    return _image_sums(log_abs, phase)[0]


def torus_image_terms(orb, bundle, z, u, p):
    """Deck-transformation terms of the diagonal kernel on the torus quotient,
    as ((m, n, j), log|term|, phase) triples."""
    labels, log_abs, phase = torus_image_log_terms(orb, _point(orb, z), u, [p])
    return list(zip(labels, log_abs[0], phase[0]))


def torus_diagonal_kernel_image(orb, bundle, z, u, p, degree=0):
    """Degree-q diagonal kernel trace on the torus quotient by image sums."""
    _require_power_and_time(p, u)
    return _torus_image_sum(orb, _point(orb, z), u, p, degree)


def _torus_image_sum(orb, z, u, p, degree):
    """The degree-q image sum at a point z of the cell, read from the cache
    that both degrees share."""
    d, k = _torus_params(orb, degree)
    return _torus_image_sums(_TorusKey(orb, d, k), z, u, p)[degree]


class _TorusKey(tuple):
    """A torus quotient's (d, k) as a cache key; the model rides along outside
    the key's equality and hash, for the evaluation on a miss."""

    def __new__(cls, orb, d, k):
        key = super().__new__(cls, (d, k))
        key.orb = orb
        return key


@functools.lru_cache(maxsize=CACHE_SIZE)
def _torus_image_sums(torus, z, u, p):
    """(degree-0, degree-1) image sums at a point z of the cell, from one
    degree-0 evaluation of the deck terms; one log-sum runs over both."""
    d, k = torus
    _, log_abs, phase = torus_image_log_terms(torus.orb, z, u, [p])
    log_abs_1, phase_1 = _degree_one(d, u, _deck_images(k, True)[3], log_abs, phase)
    return tuple(_image_sums(np.concatenate((log_abs, log_abs_1)),
                             np.concatenate((phase, phase_1))))


# ---------------------------------------------------------------------------
# rate fits


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    p_window: tuple
    log_errors: tuple
    reliable: bool


def fit_rate(p_values, log_errors):
    """Least-squares slope of log err against log p.

    Points whose log err is not finite (an exactly zero error) are dropped
    from the window.
    """
    ps = np.asarray(p_values, dtype=float)
    le = np.asarray(log_errors, dtype=float)
    keep = np.isfinite(le)
    ps, le = ps[keep], le[keep]
    if ps.size < 2:
        return RateFit(slope=-math.inf, intercept=0.0, r_squared=1.0,
                       p_window=tuple(int(p) for p in ps),
                       log_errors=tuple(le), reliable=False)
    lx = np.log(ps)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, le, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]), r_squared=r2,
                   p_window=tuple(int(p) for p in ps), log_errors=tuple(le),
                   reliable=r2 >= RELIABLE_R2)


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
    _require_flat(orb)
    _require_powers_and_time(p_list, u)
    x = _point(orb, x)
    dist = orb.singular_distance(0, x)
    if dist < REGULAR_MIN_DISTANCE:
        raise GeometryError(
            f"point at distance {dist:.3f} from the singular set; the regular-point "
            f"check requires distance >= {REGULAR_MIN_DISTANCE}")
    image_log_terms = (torus_image_log_terms if orb.catalog_id == "torus"
                       else local_model_image_log_terms)
    _, log_abs, phase = image_log_terms(orb, x, u, p_list, include_identity=False)
    log_errs, _ = log_sum_exp(log_abs, phase)
    return fit_rate(p_list, log_errs)


def singular_diagonal_factor(orb, bundle, x, u, p):
    """Ratio p^{-n} K_p(x, x) / limit density at a singular point.

    Converges to the order of the isotropy group; exactly that order for the
    flat local models with trivial bundle character.  The kernel it reads
    refuses a power or time that ``_require_power_and_time`` refuses.
    """
    _require_flat(orb)
    if orb.catalog_id == "local-model":
        kernel = local_model_diagonal_kernel(orb, bundle, x, u, p)
        a = orb.params["a"]
    else:
        kernel = torus_diagonal_kernel_image(orb, bundle, x, u, p)
        a = (2.0 * math.pi * orb.params["d"],)
    limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0)
    return float(np.real(kernel) / limit.trace)


class SingularExpansionRecord(NamedTuple):
    p: int
    u: float
    residual_without_twist: float
    residual_with_twist: float


def verify_kernel_asymptotics_singular(orb, bundle, Z, u, p_list):
    """Residuals of the near-singularity expansion, with and without the
    group-twisted Gaussian correction.

    The corrected expansion is limit + sum over non-trivial elements of
    e^{i p theta} kappa^{-1} limit(Z_1) * twisted_gaussian(sqrt(p) Z_2);
    for flat local models it reproduces the kernel to rounding, while the
    uncorrected limit misses the order-one twist at sqrt(p) |Z| = O(1).
    """
    if orb.catalog_id != "local-model":
        raise UnsupportedModelError("the corrected expansion ships for local models")
    _require_powers_and_time(p_list, u)
    a = np.asarray(orb.params["a"], dtype=float)
    Z = _point(orb, Z)
    # kappa = 1 on flat models, and the degree-0 limit is a product over the
    # coordinates, so limit(Z_1) times the normal block's limit is the limit
    limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0).trace
    normal_blocks = []
    for g in _local_group(orb):
        if not g.is_identity:
            normal = ~g.fixed
            pt = ModelPoint(tuple(a[normal]), u, group_phases=tuple(np.angle(g.rotation)[normal]))
            normal_blocks.append((g.line_phase, normal, pt))
    _, log_abs, phase = local_model_image_log_terms(orb, Z, u, p_list)
    records = []
    for p, kernel in zip(p_list, _image_sums(log_abs, phase)):
        corr = 0.0j
        for line_phase, normal, pt in normal_blocks:
            corr += (np.exp(1j * p * line_phase) * limit
                     * twisted_gaussian(pt, math.sqrt(p) * Z[normal]))
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
    fit: RateFit

    def as_record(self):
        return {"q": self.q, "p_list": list(self.p_list),
                "residuals": [float(r) for r in self.residuals],
                "morse_sums": [float(m) for m in self.morse_sums],
                "integral": float(self.integral),
                "fit": self.fit}


def verify_strong_morse(orb, q, p_list, split, table):
    """Residual series of the strong Morse inequality at degree q.

    rho_p = p^{-n} sum_{j <= q} (-1)^j h^j  -  integral over the
    signature region {<= q} of det(curvature endomorphism / 2 pi), the sum
    of the signature split ``split`` over q' <= q; the h^j are read from
    ``table``, a cohomology table holding every power of ``p_list``.  The
    series must satisfy max(rho_p, 0) decreasing along the tail, with
    |rho_p| -> 0 at q = n.
    """
    n = orb.dimension
    if not 0 <= q <= n:
        raise ConfigurationError(f"degree q={q} outside 0..{n}")
    p_list = tuple(int(p) for p in p_list)
    integral = sum(split.by_signature[: q + 1])
    sums = []
    residuals = []
    for p in p_list:
        ms = table.morse_sum(p, q)
        sums.append(ms)
        residuals.append(ms / p ** n - integral)
    fit = fit_rate(p_list, [math.log(max(abs(r), 1e-300)) for r in residuals])
    return StrongMorseSeries(q=q, p_list=p_list, residuals=tuple(residuals),
                             morse_sums=tuple(sums), integral=integral, fit=fit)


def telescoping_identity_gap(orb, bundle, q, resolution=256):
    """|I(<= q) - I(<= q-1) - I({q})| on the sums of one signature split."""
    if not 1 <= q <= orb.dimension:
        raise ConfigurationError(f"telescoping runs at q = 1..{orb.dimension}, not {q}")
    by_signature = signature_integrals(orb, bundle, resolution=resolution).by_signature
    return abs(sum(by_signature[: q + 1]) - sum(by_signature[:q]) - by_signature[q])


def exact_chain_residuals(orb, bundle, p, u, resolution=32):
    """Residuals [r_0, r_1] of the exact trace inequality chain on a torus quotient.

    dbar maps degree-0 level L onto degree-1 level L - 1, of the same
    eigenvalue, so with w_L = e^{-u lambda_0(L) / p} the chain reads
    r_0 = sum_{L >= 1} m_0(L) w_L and r_1 = sum_{L >= 1} (m_1(L - 1) - m_0(L)) w_L,
    each difference taken in integers: two float heat traces of about d p / k
    states would round it.  The top degree-1 level, whose partner lies beyond
    the truncation, is left out.
    """
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("the exact chain runs on the torus quotients")
    _require_power_and_time(p, u)
    ops = [assemble_kodaira_laplacian(orb, bundle, p, q, resolution) for q in (0, 1)]
    m0, m1 = (op.multiplicities for op in ops)
    weights = [math.exp(-u * ops[0].level_eigenvalue(level) / ops[0].p)
               for level in range(1, resolution)]
    return [float(sum(m * w for m, w in zip(m0[1:], weights))),
            float(sum((b - a) * w for a, b, w in zip(m0[1:], m1, weights)))]


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
    cancels to rounding, so its own size is no scale."""
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("oracle consistency compares the torus routes")
    _require_power_and_time(p, u)
    z = _point(orb, z)
    op = _truncated_operator(orb, bundle, u, p, degree)
    spec = torus_diagonal_kernel_spectral(op, z, u) / p
    image = _torus_image_sum(orb, z, u, p, degree)
    return abs(spec - image) / (_image_trace(op.d, 1, u, p, degree) / p)


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
    integral of the image-sum diagonal.  The spectral side sums the retained
    Landau levels; the integral is taken in closed form (``_image_trace``),
    exact at every p.  Returns the relative difference.  ``grid`` no longer
    changes the value; it stays for callers that still pass it.
    """
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("the trace identity check runs on torus models")
    _require_power_and_time(p, u)
    op = _truncated_operator(orb, bundle, u, p, degree, resolution)
    spectral = heat_trace(op, u)
    if spectral < sys.float_info.min:
        raise UnresolvedTimeError(
            f"the degree-{degree} heat trace at u={u} falls below the float range")
    integral = _image_trace(op.d, op.k, u, p, degree)
    return abs(integral - spectral) / spectral
