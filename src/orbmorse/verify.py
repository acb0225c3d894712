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
every image term of a batch of points, and of a batch of powers, as arrays
of log|term| and phase, and ``log_sum_exp`` sums them in one max-shifted
pass per point and power.  The trace
identity needs no such sum: it integrates the image sum over the cell in
closed form (``_image_trace``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .curvature import signature_integrals
from .errors import (ConfigurationError, GeometryError, UnresolvedTimeError,
                     UnsupportedModelError)
from .kernels import (ModelPoint, ScaledComplex, factor_plus, heat_diagonal_limit,
                      log_sum_exp, mehler_log_form, twisted_gaussian)
from .spectral import (assemble_kodaira_laplacian, heat_trace,
                       torus_diagonal_kernel_spectral)

RELIABLE_R2 = 0.9
# the regular-point check keeps this far from the singular set
REGULAR_MIN_DISTANCE = 0.25
# most relative heat weight e^{-2 pi d u L} of the first Landau level L left out
# of a spectral kernel, three decades under the 1e-9 trace-identity gate
LANDAU_TAIL_TOL = 1e-12


def _require_flat(orb):
    if orb.catalog_id not in ("local-model", "torus"):
        raise UnsupportedModelError(
            "kernel asymptotics require a flat model with an exact image-sum oracle")


def _local_group(orb):
    return orb.charts[0].group


def _powers(p):
    """The powers of ``p``, one power or a sequence of them, and whether it was one."""
    single = np.ndim(p) == 0
    return ((p,) if single else tuple(p)), single


def _per_power(single, values, ndim):
    """``values``, one entry per power: the only one for a single power, else
    an array over the powers with ``ndim`` unit axes after the first."""
    if single:
        return values[0]
    shape = np.shape(values)
    return np.reshape(values, shape[:1] + (1,) * ndim + shape[1:])


# ---------------------------------------------------------------------------
# image sums


def torus_image_log_terms(orb, points, u, p, lattice_cut=4, include_identity=True,
                          degree=0):
    """log|term| and phase of every deck-transformation term on a torus quotient.

    ``points`` are complex numbers of any shape and the images are the deck
    transformations gamma = (magnetic translation by lam = m + i n) o
    (half turn)^j.  The term K_plane(z, gamma z) exp(i pi D m n)
    exp(i (B/2) lam wedge r^j z) takes the degree-0 plane kernel at curvature
    B = 2 pi d p and time u / p; degree one weights it by (-1)^j e^{-2 pi d u}
    (the two scalar operators differ by the full field strength, and the
    half turn acts on the antiholomorphic coframe by -1).

    Every term carries the p^{-1} rescaling.  Returns (labels, log_abs,
    phase): one (m, n, j) label per image and two arrays of shape
    points.shape + (len(labels),).  A sequence of powers ``p`` puts an axis
    over the powers in front; each power's scalars are computed as for that
    power alone, so its slice is the same bit for bit.
    """
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("deck-transformation sums run on the torus quotients")
    if degree not in (0, 1):
        raise ConfigurationError("torus models carry form degrees 0 and 1")
    d, k = orb.params["d"], orb.params["k"]
    powers, single = _powers(p)
    D = [d * pp for pp in powers]
    B = [2.0 * math.pi * Dp for Dp in D]
    labels, m, n_, j = _deck_images(k, lattice_cut, include_identity)
    z = np.asarray(points, dtype=complex)[..., None]
    target = np.where(j == 0, z, -z) + (m + 1j * n_)
    log_abs, phase = mehler_log_form(_per_power(single, [(b,) for b in B], 0),
                                     _per_power(single, [u / pp for pp in powers], 0),
                                     z[..., None], target[..., None])
    # lam wedge (r^j z + lam) = lam wedge r^j z
    wedge = m * target.imag - n_ * target.real
    phase = phase + (_per_power(single, [math.pi * Dp for Dp in D], z.ndim) * m * n_
                     + _per_power(single, [0.5 * b for b in B], z.ndim) * wedge)
    log_abs = log_abs - _per_power(single, [math.log(pp) for pp in powers], z.ndim)
    if degree == 1:
        log_abs = log_abs - 2.0 * math.pi * d * u
        phase = phase + math.pi * j
    return labels, log_abs, phase


@functools.lru_cache(maxsize=16)
def _deck_images(k, lattice_cut, include_identity):
    """The (m, n, j) labels of the deck images in the cut and their float
    columns, shared by every call, so a tuple and read-only arrays."""
    cut = range(-lattice_cut, lattice_cut + 1)
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
    Returns (labels, log_abs, phase): the group elements and two arrays of
    shape points.shape[:-1] + (len(labels),).  A sequence of powers ``p``
    puts an axis over the powers in front, as in ``torus_image_log_terms``.
    """
    if orb.catalog_id != "local-model":
        raise UnsupportedModelError("group-element sums run on the local models")
    a = np.asarray(orb.params["a"], dtype=float)
    n = a.size
    powers, single = _powers(p)
    labels = [g for g in _local_group(orb) if include_identity or not g.is_identity]
    Z = np.asarray(points, dtype=complex)
    # g^{-1} is the conjugate rotation, applied coordinate by coordinate
    rotations = np.array([g.rotation for g in labels]).reshape(-1, n)
    X = np.einsum("gi,...i->...gi", np.conj(rotations), Z)
    log_abs, phase = mehler_log_form(_per_power(single, [pp * a for pp in powers], 0),
                                     _per_power(single, [u / pp for pp in powers], 0),
                                     X, Z[..., None, :])
    fibers = [[np.exp(1j * pp * g.line_phase) * pp ** float(-n) for g in labels]
              for pp in powers]
    log_abs = log_abs + _per_power(single, [[math.log(abs(f)) for f in row] for row in fibers],
                                   Z.ndim - 1)
    phase = phase + _per_power(single, np.angle(fibers), Z.ndim - 1)
    return labels, log_abs, phase


def _torus_point(z):
    return complex(np.asarray(z, dtype=complex).reshape(1)[0])


def _local_point(orb, Z):
    return np.asarray(Z, dtype=complex).reshape(len(orb.params["a"]))


def _term_list(labels, log_abs, phase):
    return [(label, ScaledComplex.from_log(la, ph))
            for label, la, ph in zip(labels, log_abs, phase)]


def local_model_image_terms(orb, bundle, Z, u, p, include_identity=True):
    """Per-group-element terms of p^{-n} exp(-u Lap_p / p)(Z, Z), degree 0.

    A list of (group element, ScaledComplex) read off
    ``local_model_image_log_terms``.
    """
    return _term_list(*local_model_image_log_terms(
        orb, _local_point(orb, Z), u, p, include_identity=include_identity))


def local_model_diagonal_kernel(orb, bundle, Z, u, p, include_identity=True):
    """p^{-n} exp(-u Lap_p / p)(Z, Z) on the local model, degree-0 trace."""
    _, log_abs, phase = local_model_image_log_terms(
        orb, _local_point(orb, Z), u, p, include_identity=include_identity)
    return ScaledComplex.from_log_terms(log_abs, phase)


def torus_image_terms(orb, bundle, z, u, p, include_identity=True):
    """Deck-transformation terms of the diagonal kernel on the torus quotient.

    A list of ((m, n, j), ScaledComplex) read off ``torus_image_log_terms``.
    """
    return _term_list(*torus_image_log_terms(
        orb, _torus_point(z), u, p, include_identity=include_identity))


def torus_diagonal_kernel_image(orb, bundle, z, u, p, degree=0, include_identity=True):
    """Degree-q diagonal kernel trace on the torus quotient by image sums."""
    _, log_abs, phase = torus_image_log_terms(
        orb, _torus_point(z), u, p, include_identity=include_identity, degree=degree)
    return ScaledComplex.from_log_terms(log_abs, phase)


# ---------------------------------------------------------------------------
# rate fits


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    p_window: tuple
    log_errors: tuple
    reliable: bool

    def as_record(self):
        rec = asdict(self)
        rec["p_window"] = list(self.p_window)
        rec["log_errors"] = [float(x) for x in self.log_errors]
        return rec


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
    dist = orb.singular_distance(0, np.atleast_1d(x))
    if dist < REGULAR_MIN_DISTANCE:
        raise GeometryError(
            f"point at distance {dist:.3f} from the singular set; the regular-point "
            f"check requires distance >= {REGULAR_MIN_DISTANCE}")
    if orb.catalog_id == "torus":
        _, log_abs, phase = torus_image_log_terms(orb, _torus_point(x), u, p_list,
                                                  include_identity=False)
    else:
        _, log_abs, phase = local_model_image_log_terms(orb, _local_point(orb, x), u, p_list,
                                                        include_identity=False)
    log_errs, _ = log_sum_exp(log_abs, phase)
    return fit_rate(p_list, log_errs)


def singular_diagonal_factor(orb, bundle, x, u, p):
    """Ratio p^{-n} K_p(x, x) / limit density at a singular point.

    Converges to the order of the isotropy group; exactly that order for the
    flat local models with trivial bundle character.
    """
    _require_flat(orb)
    if orb.catalog_id == "local-model":
        kernel = local_model_diagonal_kernel(orb, bundle, np.atleast_1d(x), u, p)
        a = orb.params["a"]
    else:
        kernel = torus_diagonal_kernel_image(orb, bundle, x, u, p)
        a = (2.0 * math.pi * orb.params["d"],)
    limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0)
    val = kernel.to_complex()
    return float(np.real(val) / limit.trace)


@dataclass
class SingularExpansionRecord:
    p: int
    u: float
    point: complex
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
    a = np.asarray(orb.params["a"], dtype=float)
    n = a.size
    Z = np.asarray(Z, dtype=complex).reshape(n)
    records = []
    for p in p_list:
        kernel = local_model_diagonal_kernel(orb, bundle, Z, u, p).to_complex()
        limit = heat_diagonal_limit(ModelPoint(tuple(a), u), 0)
        corr = 0.0j
        for g in _local_group(orb):
            if g.is_identity:
                continue
            phases = np.angle(g.rotation)
            normal = ~g.fixed
            pt = ModelPoint(tuple(a[normal]), u, group_phases=tuple(phases[normal]))
            # kappa = 1 on flat models; the limit factorizes over the fixed and
            # normal blocks, so limit(Z_1) splits off the fixed-direction part
            fixed_part = heat_diagonal_limit(ModelPoint(tuple(a[~normal]), u), 0).trace
            pref_normal = heat_diagonal_limit(ModelPoint(tuple(a[normal]), u), 0).trace
            twist = twisted_gaussian(pt, math.sqrt(p) * Z[normal])
            fiber = np.exp(1j * p * g.line_phase)
            corr += fiber * fixed_part * pref_normal * twist
        with_twist = abs(kernel - limit.trace - corr)
        without = abs(kernel - limit.trace)
        records.append(SingularExpansionRecord(
            p=int(p), u=float(u), point=complex(Z[0]) if n == 1 else complex(0),
            residual_without_twist=float(without),
            residual_with_twist=float(with_twist)))
    return records


# ---------------------------------------------------------------------------
# strong Morse inequalities


@dataclass
class StrongMorseSeries:
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
                "fit": self.fit.as_record()}


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
    the truncation, is left out; the tables are returned as assembled.
    """
    if orb.catalog_id != "torus":
        raise UnsupportedModelError("the exact chain runs on the torus quotients")
    if u <= 0:
        raise ValueError("heat-trace time u must be positive")
    ops = [assemble_kodaira_laplacian(orb, bundle, p, q, resolution) for q in (0, 1)]
    m0, m1 = (op.multiplicities for op in ops)
    weights = [math.exp(-u * ops[0].level_eigenvalue(level) / ops[0].p)
               for level in range(1, resolution)]
    residuals = [float(sum(m * w for m, w in zip(m0[1:], weights))),
                 float(sum((b - a) * w for a, b, w in zip(m0[1:], m1, weights)))]
    return residuals, [op.spectral_table() for op in ops]


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
    z = _torus_point(z)
    op = _truncated_operator(orb, bundle, u, p, degree)
    spec = torus_diagonal_kernel_spectral(op, z, u) / p
    image = torus_diagonal_kernel_image(orb, bundle, z, u, p,
                                        degree=degree).to_complex()
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
    op = _truncated_operator(orb, bundle, u, p, degree, resolution)
    spectral = heat_trace(op.spectral_table(), u)
    if spectral < sys.float_info.min:
        raise UnresolvedTimeError(
            f"the degree-{degree} heat trace at u={u} falls below the float range")
    integral = _image_trace(op.d, op.k, u, p, degree)
    return abs(integral - spectral) / spectral
