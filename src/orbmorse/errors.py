"""Exception types shared across the package, and the guards that type its inputs.

Every library route and the run configuration type a power, time, degree,
resolution or tolerance with the guards below, which refuse a value with a
ConfigurationError that names it.  Integers are ints or numpy integers but not
bools, and reals are finite non-bool numbers.  ``_at_least`` types an integer
>= low (a power p, a resolution, a group order, a seed), ``_positive`` a finite
real > 0 (a time u, a tolerance) and ``_degree`` a form degree q in low..top;
``_list_of`` types a list or tuple, from YAML or Python, entry by entry, and
``_check_weights`` the weights of a weighted projective space.
``name`` is the value's label in messages, e.g. "power p" or "run.p_list".

A check, or a part of one, that a run does not judge is a ``Skip``; where an
error kept it from running, its code is that error class's ``reason``.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

# the closed vocabulary of skip codes, each one a run emits
REASONS = ("model-not-applicable", "no-sections", "time-unresolved", "too-few-powers",
           "twist-below-rounding")


class Skip(NamedTuple):
    """Why a check, or a part of one, was not judged: a code from REASONS and a message."""

    reason: str
    message: str


class OrbmorseError(Exception):
    """Base class for all package errors."""


class ConfigurationError(OrbmorseError, ValueError):
    """Bad catalog id, invalid parameters, or malformed run configuration; a ValueError too."""


class UnresolvedTimeError(ConfigurationError):
    """A kernel time that the retained Landau levels or the float range cannot resolve."""
    reason = "time-unresolved"


class NoSectionsError(ConfigurationError):
    """A power at which the line bundle has no holomorphic sections to sample."""
    reason = "no-sections"


class GeometryError(OrbmorseError):
    """Geometric data violates a precondition (e.g. metric not positive definite)."""


class IntegrandError(OrbmorseError):
    """Integrand fails the group-invariance check on sampled orbits."""


class UnsupportedModelError(OrbmorseError):
    """Operation is only available for a subset of catalog models."""
    reason = "model-not-applicable"


class DegenerateSpectrumError(OrbmorseError):
    """A limit or classification is undefined because eigenvalues are too close to zero."""


def _integer(name, value):
    # a plain int, the common case, takes one test
    if type(value) is not int and (isinstance(value, bool)
                                    or not isinstance(value, (int, np.integer))):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


_REALS = (int, float, np.integer, np.floating)


def _finite(name, value, kinds=_REALS, kind="real"):
    try:
        ok = (not isinstance(value, bool) and isinstance(value, kinds)
              and cmath.isfinite(value))
    except OverflowError:           # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a finite {kind} number, got {value!r}")
    return value


def _real(name, value):
    return float(_finite(name, value))


def _list_of(name, value, item):
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return tuple(item(name, v) for v in value)


def _check_weights(weights):
    """At least two positive coprime integer weights of a weighted projective space."""
    ws = _list_of("weights", weights, _integer)
    if len(ws) < 2 or any(w <= 0 for w in ws):
        raise ConfigurationError(f"weights must be >= 2 positive integers, got {weights}")
    if math.gcd(*ws) != 1:
        raise ConfigurationError(f"weights {ws} are not coprime")
    return ws


def _at_least(name, value, low):
    """``value`` as an int, refused unless it is an integer >= ``low``."""
    if _integer(name, value) < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _positive(name, value):
    """``value`` as a float, refused unless it is a finite real > 0."""
    if _finite(name, value) <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return float(value)


def _degree(q, top, low=0):
    """The form degree ``q`` as an int, refused unless it is an integer in low..top."""
    if not low <= _integer("form degree q", q) <= top:
        raise ConfigurationError(f"form degree q must be in {low}..{top}, got {q!r}")
    return int(q)
