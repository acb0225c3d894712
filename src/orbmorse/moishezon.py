"""Bigness and Moishezon criteria on the catalog models.

Two sufficient criteria are evaluated: semi-positivity plus positivity at one
point, and positivity of the curvature integral over the signature region
{<= 1}.  Bigness is estimated from the growth of section counts and
cross-checked against the numeric rank of the Kodaira map built from an
explicit section basis.

Kodaira ranks draw their sample points from a generator the caller seeds
(the CLI passes the stdlib's ``random.Random(seed)``), so runs are
reproducible, and evaluate only the few sections that decide the rank.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from .cohomology import CohomologyTable, _wps_exponents
from .errors import ConfigurationError, UnsupportedModelError
from .spectral import torus_basis_columns

BIGNESS_NOISE_MARGIN = 10.0
KODAIRA_RANK_TOL = 1e-8
KODAIRA_SAMPLES = 6         # sample points per Kodaira rank
KODAIRA_STEP = 1e-5         # central-difference step
# Largest D = d p whose torus sections the stencil resolves.  A level-0
# section is summed over the translate window (sqrt(3) + 9) / sqrt(2 pi D)
# wide around the point; the stencil's anchor must stay inside it at
# KODAIRA_STEP away, or the ratios divide 0/0.  At 2^36 the window is 1.6
# steps wide; it holds one step up to D of about 1.8e11.
KODAIRA_TORUS_MAX_D = 2 ** 36
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

    Exact integer arithmetic; arguments must be non-negative and small enough
    that the binomial stays within practical range.
    """
    if min(m, n, k) < 0:
        raise ValueError("siegel_bound arguments must be non-negative")
    if n + k > 10_000_000:
        raise OverflowError("jet order out of supported range")
    return m * math.comb(n + k, k)


# ---------------------------------------------------------------------------
# Kodaira map rank


def _torus_columns(x, D, k):
    """Columns j mod D, or on the half turn the orbits {j, -j} named by their
    smaller member, in order of the distance of their nearest translate m/D to x."""
    t, seen = x * D, set()
    left = math.floor(t)
    right = left + 1
    while len(seen) < (D if k == 1 else D // 2 + 1):
        if t - left <= right - t:
            m, left = left, left - 1
        else:
            m, right = right, right + 1
        j = m % D if k == 1 else min(m % D, -m % D)
        if j not in seen:
            seen.add(j)
            yield j


def _section_values_torus(D, k, columns, pts):
    """Level-0 sections of the columns at pts: v_j, or on the half turn
    (v_j + v_{-j}) / sqrt(2), and v_j itself where j = -j mod D."""
    js = np.asarray(columns)
    mirror = (-js) % D
    wanted = js if k == 1 else np.concatenate([js, mirror])
    sec = np.array([torus_basis_columns(D, 1, wanted, z)[0] for z in pts]).T
    if k == 1:
        return sec
    own, other = np.split(sec, 2)
    return np.where((js == mirror)[:, None], own, (own + other) / math.sqrt(2.0))


def _section_values_wps(exponents, pts):
    return np.array([pts ** m for m in exponents])


def _stencil_rank(sec, step):
    """Rank of the one-column Jacobian of the section ratios against the
    largest section, from five-point stencils; -1 at a base point."""
    anchor = np.argmax(np.abs(sec[:, 0]))
    if abs(sec[anchor, 0]) < 1e-13:
        return -1
    ratios = sec / sec[anchor]
    dzx = (ratios[:, 1] - ratios[:, 2]) / (2 * step)
    dzy = (ratios[:, 3] - ratios[:, 4]) / (2 * step)
    jac = 0.5 * (dzx - 1j * dzy)               # holomorphic derivative
    norm = np.linalg.norm(np.delete(jac, anchor))
    scale = max(np.max(np.abs(ratios[:, 0])), 1.0)
    return int(norm > KODAIRA_RANK_TOL * max(norm, scale))


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
    rng = rng if rng is not None else random.Random(77)
    if orb.catalog_id == "wps":
        exponents = _wps_exponents(orb.params["weights"], p)
        if not exponents:
            raise ConfigurationError(f"no sections at power p={p}")
        box, values = (0.35, 0.5, 0.1, 0.4), _section_values_wps

        def order(z):
            return iter(exponents)
    elif orb.catalog_id == "torus":
        d, k = orb.params["d"], orb.params["k"]
        if d == 0 or p == 0:
            return 0                           # the trivial bundle: constants only
        if d < 0 or p < 0:
            raise ConfigurationError(f"no sections at power p={p}")
        D = d * p
        if D > KODAIRA_TORUS_MAX_D:
            raise ConfigurationError(
                f"the torus sections of p={p} live on D = d p = {D} columns, too narrow "
                f"for the stencil step {KODAIRA_STEP}, which resolves D up to "
                f"{KODAIRA_TORUS_MAX_D}")
        box = (0.13, 0.5, 0.17, 0.5)
        values = functools.partial(_section_values_torus, D, k)

        def order(z):
            return _torus_columns(z.real, D, k)
    else:
        raise UnsupportedModelError(
            "the Kodaira map needs a compact catalog entry with explicit sections")
    x0, wx, y0, wy = box
    reals = [x0 + wx * rng.random() for _ in range(KODAIRA_SAMPLES)]
    imags = [y0 + wy * rng.random() for _ in range(KODAIRA_SAMPLES)]
    n, step, best = orb.dimension, KODAIRA_STEP, -1
    for z in map(complex, reals, imags):
        pts = np.array([z, z + step, z - step, z + 1j * step, z - 1j * step])
        columns, sec, rank = order(z), np.empty((0, 5), dtype=complex), -1
        while rank < n:
            batch = list(itertools.islice(columns, max(len(sec), n + 1)))
            if not batch:
                break                          # every section is in: the full map
            sec = np.concatenate([sec, values(batch, pts)])
            rank = _stencil_rank(sec, step)
        if rank == n:
            return n
        best = max(best, rank)
    return best


def section_growth_exponent(table: CohomologyTable):
    """Least-squares slope of log h^0 against log p over the table tail."""
    ps = sorted({p for (p, q) in table.entries if q == 0})[-GROWTH_TAIL:]
    xs, ys = [], []
    for p in ps:
        h = table.h(p, 0)
        if h > 0 and p > 1:
            xs.append(math.log(p))
            ys.append(math.log(h))
    if len(xs) < 2:
        return 0.0
    A = np.vstack([xs, np.ones(len(xs))]).T
    coef, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    return float(coef[0])
