"""Bigness and Moishezon criteria on the catalog models.

Two sufficient criteria are evaluated: semi-positivity plus positivity at one
point, and positivity of the curvature integral over the signature region
{<= 1}.  Bigness is estimated from the growth of section counts and
cross-checked against the rank of the Kodaira map, on a curve rank
[s(z); ds(z)] - 1 over an explicit section basis s and its exact holomorphic
derivatives (the Wronskian of the Plucker formulas).

Kodaira ranks draw their sample points from a generator the caller seeds
(the CLI passes the stdlib's ``random.Random(seed)``), so runs are
reproducible, and evaluate once per sample the few sections that decide it,
from the ``exact.sections`` the catalog binds (``wps_sections``, ``torus_sections``).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from .cohomology import CohomologyTable, _wps_exponents
from .errors import ConfigurationError, NoSectionsError, _at_least, _integer, _positive
from .spectral import torus_basis_columns
from .verify import fit_rate

BIGNESS_NOISE_MARGIN = 10.0
KODAIRA_RANK_TOL = 1e-8
KODAIRA_SAMPLES = 6         # sample points per Kodaira rank
GROWTH_TAIL = 8             # table powers in the section growth fit


class CriterionVerdict(NamedTuple):
    """Outcome of the geometric criteria for one catalog entry."""

    integral_leq1: float
    semipositive: bool
    positive_at_point: bool
    verdict: str          # "Moishezon-by-(i)", "Moishezon-by-(ii)", "inconclusive"
    min_eigenvalue_seen: float
    quadrature_tolerance: float


def moishezon_check(split, quadrature_tolerance=1e-3):
    """Evaluate both geometric criteria from a signature split.

    Semi-positivity is judged on every quadrature node in the support of the
    split, at the split's tolerance; criterion (i) needs it together with
    positivity somewhere, and implies (ii), whose witness is the curvature
    integral over the region with at most one negative eigenvalue.
    """
    _positive("quadrature tolerance", quadrature_tolerance)
    n = len(split.by_signature) - 1
    integral = sum(split.by_signature[: min(1, n) + 1])
    semipositive = split.min_eigenvalue >= -split.tol
    positive_at_point = split.max_eigenvalue > split.tol
    if semipositive and positive_at_point:
        verdict = "Moishezon-by-(i)"
    elif integral > quadrature_tolerance:
        verdict = "Moishezon-by-(ii)"
    else:
        verdict = "inconclusive"
    return CriterionVerdict(integral_leq1=float(integral),
                            semipositive=bool(semipositive),
                            positive_at_point=bool(positive_at_point),
                            verdict=verdict,
                            min_eigenvalue_seen=split.min_eigenvalue,
                            quadrature_tolerance=quadrature_tolerance)


class BignessEstimate(NamedTuple):
    limsup_estimate: float
    noise_floor: float
    big: bool


def bigness_check(table: CohomologyTable, n):
    """Limsup estimate of p^{-n} h^0 over the top decade of the table.

    The verdict is "big" when the running maximum clears ten times the 1/p
    noise at the power where it is attained.
    """
    ps = sorted({p for (p, q) in table.entries if q == 0})
    if len(ps) < 10:
        raise ConfigurationError(
            f"bigness estimate needs at least 10 tail powers, got {len(ps)}")
    p_max = ps[-1]
    tail = [p for p in ps if p >= p_max / 10.0]
    if len(tail) < 2:
        tail = ps[-10:]
    values = [(table.h(p, 0) / p ** n, p) for p in tail]
    est, p_at = max(values)
    noise = BIGNESS_NOISE_MARGIN / p_at
    return BignessEstimate(limsup_estimate=float(est), noise_floor=float(noise),
                           big=bool(est > noise))


def siegel_bound(m, n, k):
    """Jet-interpolation bound m * binom(n + k, k) on dim H^0.

    Exact integer arithmetic; arguments must be integers >= 0, small enough
    that the binomial stays within practical range.
    """
    m, n, k = (_at_least(f"siegel_bound {name}", v, 0) for name, v in zip("mnk", (m, n, k)))
    if n + k > 10_000_000:
        raise OverflowError("jet order out of supported range")
    return m * math.comb(n + k, k)


# ---------------------------------------------------------------------------
# Kodaira map rank


def _torus_columns(x, D, k):
    """Columns j mod D, or on the half turn the orbits {j, -j} named by their
    smaller member, in order of the distance of their nearest translate m/D to
    x = X / F, compared exactly in units of 1 / F."""
    X, F = x.as_integer_ratio()
    t, seen = X * D, set()
    left = t // F
    right = left + 1
    while len(seen) < (D if k == 1 else D // 2 + 1):
        if t - left * F <= right * F - t:
            m, left = left, left - 1
        else:
            m, right = right, right + 1
        j = m % D if k == 1 else min(m % D, -m % D)
        if j not in seen:
            seen.add(j)
            yield j


def _section_values_torus(D, k, columns, z):
    """Level-0 sections v_j of the columns at z, (v_j + v_{-j}) / sqrt(2) on the
    half turn where j != -j mod D, over their derivatives: shape (2, N).  The
    derivative of e^{2 pi i m y} phi_0(x - m/D) is pi (2m - D x) times it, and
    (m - x D) phi_0 = -(D / sqrt(2B)) phi_1: -sqrt(pi D) level 1, up to level 0."""
    js = np.asarray(columns, dtype=object)         # Python ints: any D, past int64 too
    mirror = (-js) % D
    wanted = js if k == 1 else np.concatenate([js, mirror])
    sec = torus_basis_columns(D, 2, wanted, z)
    sec[1] *= -math.sqrt(math.pi * D)
    if k == 1:
        return sec
    own, other = np.split(sec, 2, axis=1)
    return np.where(js == mirror, own, (own + other) / math.sqrt(2.0))


def _section_values_wps(exponents, z):
    ms = np.asarray(exponents)
    return np.array([z ** ms, ms * z ** (ms - 1)])


def wps_sections(weights, p):
    """Sample box, section values and order at power p: monomials, lowest first."""
    exponents = _wps_exponents(weights, p)
    if not exponents:
        raise NoSectionsError(f"no sections at power p={p}")
    return (0.35, 0.5, 0.1, 0.4), _section_values_wps, lambda z: iter(exponents)


def torus_sections(d, k, p):
    """Sample box, section values and order at power p: nearest translates first."""
    if d == 0 or p == 0:
        return None                            # the trivial bundle: constants only
    if d < 0 or p < 0:
        raise NoSectionsError(f"no sections at power p={p}")
    D = d * p
    return ((0.13, 0.5, 0.17, 0.5), functools.partial(_section_values_torus, D, k),
            lambda z: _torus_columns(z.real, D, k))


def _rank(sec):
    """Rank of the derivative (ds_i - r_i ds_a) / s_a of the ratios r_i to the
    largest section s_a, from the rows [s; ds] of ``sec``; -1 at a base point."""
    values, derivatives = sec
    anchor = np.argmax(np.abs(values))
    if abs(values[anchor]) < 1e-13:
        return -1
    ratios = values / values[anchor]
    jac = (derivatives - ratios * derivatives[anchor]) / values[anchor]
    norm = np.linalg.norm(np.delete(jac, anchor))
    return int(norm > KODAIRA_RANK_TOL * max(norm, 1.0))      # |r_i| <= 1


def kodaira_rank(orb, bundle, p, rng=None):
    """Maximal numeric rank of the Kodaira map of the p-th power.

    A sub-map's rank never exceeds the full map's, so each sample point takes
    the sections in a fixed order, in batches of n + 1 that then double, and
    the search stops once the rank reaches n or the sections run out.  The
    order puts the largest sections at the sample first: the lowest monomial
    degrees on P(a, b) (|z| < 1), the nearest translates on the torus.
    ``rng`` has a scalar ``random()``: six draws give the real parts of the
    samples, six more the imaginary parts.  A single section has rank 0; -1
    means every sample lies in the base locus.
    """
    p = _integer("power p", p)
    rng = rng if rng is not None else random.Random(77)
    sections = orb.oracle(
        "sections", "the Kodaira map needs a compact catalog entry with explicit sections")(p)
    if sections is None:
        return 0                               # constants only
    (x0, wx, y0, wy), values, order = sections
    reals = [x0 + wx * rng.random() for _ in range(KODAIRA_SAMPLES)]
    imags = [y0 + wy * rng.random() for _ in range(KODAIRA_SAMPLES)]
    n, best = orb.dimension, -1
    for z in map(complex, reals, imags):
        columns, sec, rank = order(z), np.empty((2, 0), dtype=complex), -1
        while rank < n:
            batch = list(itertools.islice(columns, max(sec.shape[1], n + 1)))
            if not batch:
                break                          # every section is in: the full map
            sec = np.concatenate([sec, values(batch, z)], axis=1)
            rank = _rank(sec)
        if rank == n:
            return n
        best = max(best, rank)
    return best


def section_growth_exponent(table: CohomologyTable):
    """``fit_rate``'s slope of log h^0 against log p over the table tail, 0.0
    below two powers p > 1 with sections."""
    ps = sorted({p for (p, q) in table.entries if q == 0})[-GROWTH_TAIL:]
    kept = [(p, math.log(h)) for p in ps if p > 1 and (h := table.h(p, 0)) > 0]
    if len(kept) < 2:
        return 0.0
    return fit_rate(*zip(*kept)).slope
