"""Closed-form model heat kernels for constant-curvature flat models.

Everything in this module lives on C^n with the flat metric, a line bundle
of constant curvature with eigenvalues ``a = (a_1, ..., a_n)`` in a unitary
frame, and an optional finite-group element acting by a unitary matrix that
commutes with ``diag(a)``.  The three central objects are

* the diagonal density ``heat_diagonal_limit`` (the large-``p`` limit of the
  rescaled diagonal heat kernel at a regular point),
* the group-twisted Gaussian ``twisted_gaussian`` controlling the extra
  terms near a quotient singularity, a batch of one of ``twisted_exponents``, and
* the full two-point Mehler kernel ``model_heat_kernel``.

Numerical conventions.  All kernels are densities with respect to Lebesgue
measure on C^n ~ R^{2n}.  The scalar one-variable building block is

    K_a(u; z, z') = g1(ua) / (2 pi u)
                    * exp( -c(ua)/(2u) |z - z'|^2 + i (a/2) Im(z conj(z')) )

with g1(x) = x / (1 - e^{-x}) and c(x) = (x/2) / tanh(x/2); both are smooth
and equal to 1 at x = 0, so the zero-curvature convention
K_0 = (2 pi u)^{-1} exp(-|z-z'|^2 / (2u)) is the continuous limit.
``mehler_log_form`` gives log|K| and arg K for a batch of models (a single
kernel is a batch of one), each model's scalars read from a bounded cache, and
``log_sum_exp`` adds such terms far below the float underflow threshold.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, _degree, _positive

# Eigenvalues with |a| <= ZERO_EIGENVALUE_TOL take the exact zero-mode branch.
# Above it the factor functions are evaluated directly: expm1 and tanh of x/2
# do not cancel, so they stay at rounding error at small x.
ZERO_EIGENVALUE_TOL = 1e-7

TWO_PI = 2.0 * math.pi


def factor_plus(a, u):
    """u * a / (1 - e^{-ua}), the per-eigenvalue prefactor outside a degree subset.

    Returns the dimensionless factor g1(ua); divide by u to recover
    a / (1 - e^{-ua}).  Zero modes contribute exactly 1 (the 1/u convention).
    """
    if abs(a) <= ZERO_EIGENVALUE_TOL:
        return 1.0
    x = u * a
    if x >= 0.0:
        return x / -math.expm1(-x)
    # x e^x / expm1(x), with e^x as (e^{x/2})^2 so the product keeps its digits
    # where it is subnormal; no exponential of |x| is formed
    half = math.exp(0.5 * x)
    return x * half * half / math.expm1(x)


def factor_minus(a, u):
    """u * a / (e^{ua} - 1) = factor_plus(-a, u), the inside-subset prefactor."""
    return factor_plus(-a, u)


def _coth_even(x):
    """(x/2) / tanh(x/2); even, 1 at 0."""
    h = x / 2.0
    return h / math.tanh(h) if h else 1.0


class ModelPoint(namedtuple("ModelPoint", "eigenvalues u group_phases")):
    """Pointwise data of a flat constant-curvature model.

    Attributes
    ----------
    eigenvalues : tuple of float
        Spectrum of the curvature endomorphism at the point (unitary frame).
    u : float
        Time parameter, a finite real > 0 (``errors._positive``).
    group_phases : tuple of float or None
        Eigenphases (radians) of the group element on the normal coordinates,
        i.e. the element acts by diag(e^{i phi_j}).  None when no element is
        attached.  The element must commute with diag(eigenvalues); supplying
        the phases in the eigenvalue order encodes exactly that.
    """

    __slots__ = ()

    def __new__(cls, eigenvalues, u, group_phases=None):
        return cls._make((eigenvalues, u, group_phases))

    @classmethod
    def _make(cls, values):
        """The checked point; ``_replace`` builds through here too."""
        eigenvalues, u, phases = values
        _positive("time parameter u", u)
        eigenvalues = tuple(map(float, eigenvalues))
        if phases is not None:
            phases = tuple(map(float, phases))
            if len(phases) != len(eigenvalues):
                raise ValueError("one group phase per eigenvalue is required")
        return tuple.__new__(cls, (eigenvalues, u, phases))

    @property
    def dim(self):
        return len(self.eigenvalues)


class LimitDensity(NamedTuple):
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
    _degree(q, n)
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

    The exponential of ``twisted_exponents`` at a batch of one element.  Zero
    eigenvalues reduce it to exp(-|g^{-1}Z - Z|^2 / (2u)).  It is complex; real
    whenever every phase is 0 or pi, and its modulus is at most 1 for
    non-negative curvature, with equality only at Z = 0.
    """
    if point.group_phases is None:
        raise ValueError("ModelPoint carries no group element")
    expo = twisted_exponents(point.eigenvalues, point.u, [point.group_phases], Z)
    return complex(np.exp(expo[0]))


def twisted_exponents(eigenvalues, u, phases, Z):
    """Exponents of the group-twisted Gaussian at Z, one per row of the
    (elements, n) table ``phases``: for an element acting by diag(e^{i phi_j}),

        sum_j |Z_j|^2 / (2u) * [ g1(u a_j)(e^{-i phi_j} - 1)
                                 + g2(u a_j)(e^{i phi_j} - 1) ]

    with g1(x) = x/(1-e^{-x}), g2(x) = x/(e^x-1).  A coordinate the element
    fixes has phase 0 and adds exactly 0, so no row needs a normal block.
    """
    Z = np.asarray(Z, dtype=complex).reshape(len(eigenvalues))
    w = np.exp(-1j * np.asarray(phases, dtype=float).reshape(-1, len(eigenvalues))) - 1.0
    expo = np.zeros(len(w), dtype=complex)
    for aj, wj, zj in zip(eigenvalues, w.T, Z):
        g1, g2 = factor_plus(aj, u), factor_minus(aj, u)
        expo = expo + (abs(zj) ** 2 / (2.0 * u)) * (g1 * wj + g2 * wj.conj())
    return expo


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
    log_abs, phase = mehler_log_form([point.eigenvalues], [point.u], X, Zp)
    return complex(np.exp(log_abs[0] + 1j * phase[0]))


@functools.lru_cache(maxsize=1024)
def _mehler_coefficients(a, u):
    """Scalars of K_a at time u: log prefactor with the twist, Gaussian rate, phase rate.

    The log prefactor is log g1(x) - log(2 pi u), x = ua, with g1(x) =
    |x| / (1 - e^{-|x|}) e^{min(x, 0)} taken in logs, so it is finite at every
    time whose x is finite.  -0.0 and 0.0 share an entry; either phase rate adds
    nothing to a phase sum."""
    x = u * a
    # the rate first: a time that underflowed to 0 is a ZeroDivisionError, not log(0)
    rate = -_coth_even(x) / (2.0 * u)
    log_g1 = math.log(abs(x) / -math.expm1(-abs(x))) + min(x, 0.0) if x else 0.0
    return log_g1 - math.log(TWO_PI * u), rate, 0.5 * a


def mehler_log_form(eigenvalues, u, X, Zprime):
    """log|K| and arg K of the degree-0 Mehler kernel K(X, Z') of a batch of models.

    ``eigenvalues`` holds m curvature spectra of length n, and ``u`` one time
    per model.  X and Z' hold points of C^n along their last axis and
    broadcast against each other; both results have an axis of length m in
    front of the broadcast shape without that axis.  Per coordinate, K_a =
    g1(ua) / (2 pi u) * exp(-c(ua)/(2u) |x - z'|^2 + i (a/2) Im(x conj(z'))),
    with g1(x) = x / (1 - e^{-x}) carrying the e^{u tau / 2} twist.  Each
    model's prefactors are scalars computed from its own curvature and time,
    so its slice does not depend on the rest of the batch.  Kept in logs, the
    value survives far below the float underflow threshold.
    """
    X = np.asarray(X, dtype=complex)
    Zp = np.asarray(Zprime, dtype=complex)
    coeffs = [[_mehler_coefficients(aj, t) for aj in a] for a, t in zip(eigenvalues, u)]
    # per coordinate, (shift, rate, twist) arrays over the models, ahead of the
    # broadcast axes of the points
    lead = (3, len(coeffs)) + (1,) * (max(X.ndim, Zp.ndim) - 1)
    log_abs = 0.0
    phase = 0.0
    for j, column in enumerate(zip(*coeffs)):
        shift, rate, twist = np.array(column).T.reshape(lead)
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
    _degree(q, a.size)
    negatives = int(np.sum(a < 0))
    if negatives != q:
        return 0.0
    return float((-1.0) ** q * np.prod(a / TWO_PI))


# ---------------------------------------------------------------------------
# log-scaled sums, for image sums whose terms underflow


def log_sum_exp(log_abs, phase):
    """Sum of exp(log_abs + i phase) over the last axis, as (log_scale, mantissa).

    The terms are shifted by the largest log_abs before exponentiating, so
    the sum keeps every term that matters next to the largest one however
    far below the float underflow threshold they all lie.  The mantissa has
    modulus one; an empty or all-zero sum gives log_scale -inf, mantissa 0.
    """
    log_abs = np.asarray(log_abs, dtype=float)
    top = np.maximum.reduce(log_abs, axis=-1, keepdims=True, initial=-math.inf)
    top = np.where(np.isfinite(top), top, 0.0)
    total = np.add.reduce(np.exp(1j * phase) * np.exp(log_abs - top), axis=-1)
    mag = np.abs(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = top[..., 0] + np.log(mag)
        mantissa = np.where(mag > 0.0, total / mag, 0.0j)
    return log_scale, mantissa
