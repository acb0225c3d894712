"""Closed-form model heat kernels for constant-curvature flat models.

Everything in this module lives on C^n with the flat metric, a line bundle
of constant curvature with eigenvalues ``a = (a_1, ..., a_n)`` in a unitary
frame, and an optional finite-group element acting by a unitary matrix that
commutes with ``diag(a)``.  The three central objects are

* the diagonal density ``heat_diagonal_limit`` (the large-``p`` limit of the
  rescaled diagonal heat kernel at a regular point),
* the group-twisted Gaussian ``twisted_gaussian`` controlling the extra
  terms near a quotient singularity, and
* the full two-point Mehler kernel ``model_heat_kernel``.

Numerical conventions.  All kernels are densities with respect to Lebesgue
measure on C^n ~ R^{2n}.  The scalar one-variable building block is

    K_a(u; z, z') = g1(ua) / (2 pi u)
                    * exp( -c(ua)/(2u) |z - z'|^2 + i (a/2) Im(z conj(z')) )

with g1(x) = x / (1 - e^{-x}) and c(x) = (x/2) / tanh(x/2); both are smooth
and equal to 1 at x = 0, so the zero-curvature convention
K_0 = (2 pi u)^{-1} exp(-|z-z'|^2 / (2u)) is the continuous limit.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError

# Eigenvalues with |a| <= ZERO_EIGENVALUE_TOL take the exact zero-mode branch;
# between that and SERIES_SWITCH_TOL the factor functions use a short Taylor
# series so the 1 - e^{-ua} cancellation never degrades accuracy.
ZERO_EIGENVALUE_TOL = 1e-7
SERIES_SWITCH_TOL = 1e-4

TWO_PI = 2.0 * math.pi


def _factor_series(x):
    """4-term Taylor series of x / (1 - e^{-x})."""
    return 1.0 + x / 2.0 + x * x / 12.0 - x**4 / 720.0


def factor_plus(a, u):
    """u * a / (1 - e^{-ua}), the per-eigenvalue prefactor outside a degree subset.

    Returns the dimensionless factor g1(ua); divide by u to recover
    a / (1 - e^{-ua}).  Zero modes contribute exactly 1 (the 1/u convention).
    """
    if abs(a) <= ZERO_EIGENVALUE_TOL:
        return 1.0
    x = u * a
    if abs(a) <= SERIES_SWITCH_TOL:
        return _factor_series(x)
    return x / -math.expm1(-x)


def factor_minus(a, u):
    """u * a / (e^{ua} - 1) = factor_plus(-a, u), the inside-subset prefactor."""
    return factor_plus(-a, u)


def _stretch_even(x):
    """(x/2) / sinh(x/2); even, 1 at 0."""
    if abs(x) <= 1e-4:
        return 1.0 - x * x / 24.0 + 7.0 * x**4 / 5760.0
    return (x / 2.0) / math.sinh(x / 2.0)


def _coth_even(x):
    """(x/2) / tanh(x/2); even, 1 at 0."""
    if abs(x) <= 1e-4:
        return 1.0 + x * x / 12.0 - x**4 / 720.0
    return (x / 2.0) / math.tanh(x / 2.0)


@dataclass(frozen=True)
class ModelPoint:
    """Pointwise data of a flat constant-curvature model.

    Attributes
    ----------
    eigenvalues : tuple of float
        Spectrum of the curvature endomorphism at the point (unitary frame).
    u : float
        Positive time parameter.
    group_phases : tuple of float or None
        Eigenphases (radians) of the group element on the normal coordinates,
        i.e. the element acts by diag(e^{i phi_j}).  None when no element is
        attached.  The element must commute with diag(eigenvalues); supplying
        the phases in the eigenvalue order encodes exactly that.
    """

    eigenvalues: tuple
    u: float
    group_phases: tuple = None

    def __post_init__(self):
        if self.u <= 0:
            raise ValueError("time parameter u must be positive")
        object.__setattr__(self, "eigenvalues", tuple(float(x) for x in self.eigenvalues))
        if self.group_phases is not None:
            phases = tuple(float(x) for x in self.group_phases)
            if len(phases) != len(self.eigenvalues):
                raise ValueError("one group phase per eigenvalue is required")
            object.__setattr__(self, "group_phases", phases)

    @property
    def dim(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class LimitDensity:
    """Diagonal heat-density limit at a point, per degree-q subspace.

    ``trace`` is the scalar trace over (0,q)-forms; ``subsets``/``diagonal``
    give the endomorphism, which is diagonal in the eigenframe basis indexed
    by q-element subsets.
    """

    trace: float
    subsets: tuple
    diagonal: np.ndarray


def heat_diagonal_limit(point: ModelPoint, q):
    """Limit of the rescaled diagonal heat kernel on (0, q)-forms.

    Returns a LimitDensity whose trace equals

        (2 pi)^{-n} * sum over q-subsets J of
            prod_{j in J} a_j/(e^{u a_j}-1) * prod_{j not in J} a_j/(1-e^{-u a_j})

    with the 1/u convention for zero eigenvalues.  The subset expansion keeps
    every factor bounded, so large negative eigenvalues never overflow.
    """
    a = point.eigenvalues
    u = point.u
    n = len(a)
    if not 0 <= q <= n:
        raise ValueError(f"degree q={q} out of range 0..{n}")
    plus = [factor_plus(aj, u) / u for aj in a]
    minus = [factor_minus(aj, u) / u for aj in a]
    subsets = tuple(itertools.combinations(range(n), q))
    diag = np.empty(len(subsets))
    for i, J in enumerate(subsets):
        val = TWO_PI ** (-n)
        inJ = set(J)
        for j in range(n):
            val *= minus[j] if j in inJ else plus[j]
        diag[i] = val
    return LimitDensity(trace=float(diag.sum()), subsets=subsets, diagonal=diag)


def twisted_gaussian(point: ModelPoint, Z):
    """Group-twisted Gaussian factor at a normal-direction displacement Z.

    For a group element acting by diag(e^{i phi_j}) on the directions normal
    to its fixed set, the factor is

        exp( sum_j |Z_j|^2 / (2u) * [ g1(u a_j)(e^{-i phi_j} - 1)
                                      + g2(u a_j)(e^{i phi_j} - 1) ] )

    with g1(x) = x/(1-e^{-x}), g2(x) = x/(e^x-1).  Zero eigenvalues reduce to
    exp(-|g^{-1}Z - Z|^2 / (2u)).  The value is complex in general; it is real
    whenever every phase is 0 or pi, and its modulus is at most 1 for
    non-negative curvature, with equality only at Z = 0.
    """
    if point.group_phases is None:
        raise ValueError("ModelPoint carries no group element")
    Z = np.asarray(Z, dtype=complex).reshape(point.dim)
    u = point.u
    expo = 0.0 + 0.0j
    for aj, phij, zj in zip(point.eigenvalues, point.group_phases, Z):
        g1 = factor_plus(aj, u)
        g2 = factor_minus(aj, u)
        w = np.exp(-1j * phij) - 1.0
        expo += (abs(zj) ** 2 / (2.0 * u)) * (g1 * w + g2 * np.conj(w))
    return complex(np.exp(expo))


def model_heat_kernel(point: ModelPoint, Z, Zprime):
    """Model heat kernel e^{-u L0}(g^{-1} Z, Z') for the flat model.

    Z and Z' are points of C^n in the eigenframe of the curvature.  The group
    element g acts by the point's ``group_phases``, or is the identity when
    the point carries none.  Returns the degree-0 complex value, including
    the e^{u tau / 2} twist; on the diagonal with g = Id and Z = Z' = 0 it
    equals the degree-0 prefactor of heat_diagonal_limit.
    """
    Z = np.asarray(Z, dtype=complex).reshape(point.dim)
    Zp = np.asarray(Zprime, dtype=complex).reshape(point.dim)
    if point.group_phases is not None:
        X = np.exp(-1j * np.asarray(point.group_phases)) * Z
    else:
        X = Z
    log_abs, phase = mehler_log_form(point.eigenvalues, point.u, X, Zp)
    return complex(np.exp(log_abs + 1j * phase))


def _mehler_coefficients(a, u):
    """Scalars of K_a at time u: log prefactor with the twist, Gaussian rate, phase rate."""
    x = u * a
    pref = _stretch_even(x) / (TWO_PI * u)
    log_pref = math.log(pref) if pref > 0 else -math.inf
    return log_pref + 0.5 * x, -_coth_even(x) / (2.0 * u), 0.5 * a


def mehler_log_form(eigenvalues, u, X, Zprime):
    """log|K| and arg K of the degree-0 Mehler kernel K(X, Z'), batched.

    X and Z' hold points of C^n along their last axis and broadcast against
    each other; both results have the broadcast shape without that axis.
    Per coordinate, K_a = g1(ua) / (2 pi u) * exp(-c(ua)/(2u) |x - z'|^2
    + i (a/2) Im(x conj(z'))), with g1(x) = stretch(x) e^{x/2} carrying the
    e^{u tau / 2} twist.  Kept in logs, the value survives far below the
    float underflow threshold.

    A batch of m models, ``eigenvalues`` of shape (m, n) with one time per
    model in ``u``, puts an axis of length m in front of both results.  Each
    model's prefactors are scalars computed from its own curvature and time,
    so its slice equals the unbatched result bit for bit.
    """
    X = np.asarray(X, dtype=complex)
    Zp = np.asarray(Zprime, dtype=complex)
    batched = np.ndim(eigenvalues) == 2
    models = zip(eigenvalues, u) if batched else [(eigenvalues, u)]
    coeffs = [[_mehler_coefficients(aj, t) for aj in a] for a, t in models]
    if batched:
        # per coordinate, (shift, rate, twist) arrays over the models, ahead
        # of the broadcast axes of the points
        lead = (3, len(coeffs)) + (1,) * (np.broadcast(X, Zp).ndim - 1)
        columns = [np.array(col).T.reshape(lead) for col in zip(*coeffs)]
    else:
        columns = coeffs[0]
    log_abs = 0.0
    phase = 0.0
    for j, (shift, rate, twist) in enumerate(columns):
        xj, zj = X[..., j], Zp[..., j]
        log_abs = log_abs + shift
        log_abs = log_abs + rate * abs(xj - zj) ** 2
        phase = phase + twist * (xj * zj.conj()).imag
    return log_abs, phase


def signature_limit_density(a, q):
    """Large-time limit of the degree-q diagonal density.

    Equals (-1)^q * prod_j (a_j / 2 pi) when exactly q eigenvalues are
    negative, and 0 otherwise.  Degenerate spectra have no defined limit.
    """
    a = np.asarray(a, dtype=float)
    if np.any(np.abs(a) <= ZERO_EIGENVALUE_TOL):
        raise DegenerateSpectrumError(
            "large-time limit undefined for (near-)zero curvature eigenvalues")
    if not 0 <= q <= a.size:
        raise ValueError(f"degree q={q} out of range 0..{a.size}")
    negatives = int(np.sum(a < 0))
    if negatives != q:
        return 0.0
    return float((-1.0) ** q * np.prod(a / TWO_PI))


# ---------------------------------------------------------------------------
# log-scaled complex accumulation, for image sums whose terms underflow


@dataclass
class ScaledComplex:
    """Complex number stored as mantissa * exp(log_scale).

    Supports magnitudes far below the float underflow threshold; used by the
    method-of-images sums whose non-identity terms decay like exp(-c p).
    """

    mantissa: complex
    log_scale: float

    @classmethod
    def from_log(cls, log_abs, phase):
        return cls(mantissa=np.exp(1j * phase), log_scale=float(log_abs))

    @classmethod
    def from_log_terms(cls, log_abs, phase):
        """Sum of the terms exp(log_abs + i phase) of a 1-d batch."""
        log_scale, mantissa = log_sum_exp(log_abs, phase)
        return cls(complex(mantissa), float(log_scale))

    def to_complex(self):
        if self.log_scale == -math.inf:
            return 0.0j
        return self.mantissa * math.exp(self.log_scale)


def log_sum_exp(log_abs, phase):
    """Sum of exp(log_abs + i phase) over the last axis, as (log_scale, mantissa).

    The terms are shifted by the largest log_abs before exponentiating, so
    the sum keeps every term that matters next to the largest one however
    far below the float underflow threshold they all lie.  The mantissa has
    modulus one; an empty or all-zero sum gives log_scale -inf, mantissa 0.
    """
    log_abs = np.asarray(log_abs, dtype=float)
    top = np.max(log_abs, axis=-1, keepdims=True, initial=-math.inf)
    top = np.where(np.isfinite(top), top, 0.0)
    total = np.sum(np.exp(1j * phase) * np.exp(log_abs - top), axis=-1)
    mag = np.abs(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = top[..., 0] + np.log(mag)
        mantissa = np.where(mag > 0.0, total / mag, 0.0j)
    return log_scale, mantissa
