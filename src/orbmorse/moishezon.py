"""Bigness and Moishezon criteria on the catalog models.

Two sufficient criteria are evaluated: semi-positivity plus positivity at one
point, and positivity of the curvature integral over the signature region
{<= 1}.  Bigness is estimated from the growth of section counts and
cross-checked against the numeric rank of the Kodaira map built from an
explicit section basis.

Kodaira ranks sample points from caller-seeded generators, so runs are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cohomology import CohomologyTable, weighted_proj_h0
from .errors import ConfigurationError, SizeLimitError, UnsupportedModelError
from .spectral import assemble_kodaira_laplacian, torus_eigenfunction_values

BIGNESS_NOISE_MARGIN = 10.0
KODAIRA_RANK_TOL = 1e-8
KODAIRA_SAMPLES = 6         # sample points per Kodaira rank
KODAIRA_STEP = 1e-5         # central-difference step
GROWTH_TAIL = 8             # table powers in the section growth fit
# Most sections D = d*p of a torus Kodaira rank.  The stencils hold
# 5 * KODAIRA_SAMPLES = 30 points x D complex values, 30 * 16 B * 2^16 = 31 MB,
# and the section values and the half-turn pairing about two copies more
# (tracemalloc peak 80 MB at D = 2^16); the benchmarks and tests reach D = 4096.
KODAIRA_MAX_SECTIONS = 2 ** 16


@dataclass(frozen=True)
class CriterionVerdict:
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


@dataclass(frozen=True)
class BignessEstimate:
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


def _section_values_wps(weights, p, zs):
    """Values of the monomial section basis on the first chart of P(a, b).

    Sections of degree p restrict to z^m on the chart, for each m >= 0 with
    (p - b m) / a a non-negative integer.
    """
    a, b = weights
    return np.array([zs ** m for m in range(p // b + 1) if (p - b * m) % a == 0])


def _section_values_torus(orb, bundle, p, zs):
    """Values of the section basis of the p-th power at the points zs.

    Rows are the level-0 states v_j; on the half-turn quotient they are the
    invariant combinations (v_j + v_{-j}) / sqrt(2), and v_j itself at the
    translates with j = -j mod D, for j = 0..D // 2 in order.
    """
    op0 = assemble_kodaira_laplacian(orb, bundle, p, 0, 1)
    vals = np.array([torus_eigenfunction_values(op0, z, 1)[0] for z in zs]).T
    if orb.params["k"] == 1:
        return vals
    D = op0.D
    js = np.arange(D // 2 + 1)
    mirror = (-js) % D
    paired = (vals[js] + vals[mirror]) / math.sqrt(2.0)
    return np.where((js == mirror)[:, None], vals[js], paired)


def kodaira_rank(orb, bundle, p, rng=None):
    """Maximal numeric rank of the Kodaira map of the p-th power.

    Samples regular points, forms the section ratios against the largest
    section, differentiates them in the complex sense by central differences,
    and takes the rank of the one-column Jacobian by its 2-norm.  The
    five-point stencils of all samples go through one section call.  Returns
    -1 when every sample lies in the base locus.
    """
    rng = rng if rng is not None else np.random.default_rng(77)
    samples = KODAIRA_SAMPLES
    if orb.catalog_id == "wps":
        weights = orb.params["weights"]
        h0 = weighted_proj_h0(weights, p)
        if h0 == 0:
            raise ConfigurationError(f"no sections at power p={p}")
        zs = 0.35 + 0.5 * rng.random(samples) + 1j * (0.1 + 0.4 * rng.random(samples))
        values = functools.partial(_section_values_wps, weights, p)
    elif orb.catalog_id == "torus":
        d = orb.params["d"]
        if d == 0:
            return 0
        if d < 0:
            raise ConfigurationError(f"no sections at power p={p}")
        if d * p > KODAIRA_MAX_SECTIONS:
            raise SizeLimitError(
                f"the torus Kodaira rank at p={p} needs d*p = {d * p} sections, "
                f"more than the {KODAIRA_MAX_SECTIONS} that fit in memory")
        zs = (0.13 + 0.5 * rng.random(samples)
              + 1j * (0.17 + 0.5 * rng.random(samples)))
        values = functools.partial(_section_values_torus, orb, bundle, p)
    else:
        raise UnsupportedModelError(
            "the Kodaira map needs a compact catalog entry with explicit sections")
    step = KODAIRA_STEP
    pts = np.stack([zs, zs + step, zs - step, zs + 1j * step, zs - 1j * step], axis=1)
    stencils = values(pts.ravel()).reshape(-1, samples, 5)   # (sections, samples, 5)
    if stencils.shape[0] == 1:
        return 0
    best = -1
    for sec in stencils.transpose(1, 0, 2):
        anchor = np.argmax(np.abs(sec[:, 0]))
        if abs(sec[anchor, 0]) < 1e-13:
            continue                           # base point
        ratios = sec / sec[anchor]
        dzx = (ratios[:, 1] - ratios[:, 2]) / (2 * step)
        dzy = (ratios[:, 3] - ratios[:, 4]) / (2 * step)
        jac = 0.5 * (dzx - 1j * dzy)           # holomorphic derivative
        norm = np.linalg.norm(np.delete(jac, anchor))
        scale = max(np.max(np.abs(ratios[:, 0])), 1.0)
        best = max(best, int(norm > KODAIRA_RANK_TOL * max(norm, scale)))
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
