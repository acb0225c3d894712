"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings inline.
"""

import math
import time

import mpmath
import numpy as np

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table, weighted_proj_h0
from orbmorse.curvature import morse_integral, signature_integrals
from orbmorse.kernels import (ModelPoint, factor_minus, factor_plus,
                              heat_diagonal_limit, model_heat_kernel,
                              signature_limit_density)
from orbmorse.moishezon import bigness_check, kodaira_rank, moishezon_check
from orbmorse.verify import (exact_chain_residuals, singular_diagonal_factor,
                             verify_kernel_asymptotics_regular,
                             verify_kernel_asymptotics_singular)

from lattice_count import weighted_proj_h0_bruteforce


def report_line(name, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {name} ({time.time() - t0:.2f}s): {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_exact_inequality_chain():
    t0 = time.time()
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    worst_r0, worst_rn = 0.0, 0.0
    ok = True
    for p in (4, 8, 16):
        for u in (0.5, 1.0, 5.0):
            residuals = exact_chain_residuals(orb, bundle, p, u, resolution=32)
            ok &= all(r >= -1e-9 for r in residuals) and abs(residuals[-1]) <= 1e-9
            worst_r0 = min(worst_r0, min(residuals))
            worst_rn = max(worst_rn, abs(residuals[-1]))
    report_line("criterion-1 exact trace chain",
                ok and time.time() - t0 <= 60.0,
                f"min r_q = {worst_r0:.2e} >= -1e-9, max |r_n| = {worst_rn:.2e} <= 1e-9",
                t0)


def test_criterion_2_strong_morse_equality_at_top_degree():
    t0 = time.time()
    worst_p11 = 0.0
    for p in range(1, 4097):
        h0 = p + 1
        h1 = 0
        rho = abs((h0 - h1) / p - 1.0)
        worst_p11 = max(worst_p11, rho * p / 2.0)
        assert rho <= 2.0 / p
    worst_p12 = 0.0
    for p in range(1, 4097):
        h0 = weighted_proj_h0((1, 2), p)
        rho = abs(h0 / p - 0.5)
        worst_p12 = max(worst_p12, rho * p / 2.0)
        assert rho <= 2.0 / p
    # the closed form h0 = floor(p/2) + 1 is itself verified against the
    # lattice count inside the loop above
    report_line("criterion-2 strong Morse equality",
                worst_p11 <= 1.0 and worst_p12 <= 1.0,
                f"sup_p (p/2)|rho_p|: P(1,1) {worst_p11:.3f}, P(1,2) {worst_p12:.3f}",
                t0)


def test_criterion_3_orbifold_chern_numbers():
    t0 = time.time()
    details = []
    ok = True
    for (a, b) in [(1, 1), (1, 2), (2, 3)]:
        orb, bundle = build_catalog_orbifold("wps", weights=(a, b))
        val = morse_integral(orb, bundle, {0}, resolution=256)
        err = abs(val - 1.0 / (a * b))
        ok &= err <= 1e-3
        details.append(f"P({a},{b}): |{val:.6f} - 1/{a*b}| = {err:.1e}")
    report_line("criterion-3 orbifold Chern numbers",
                ok and time.time() - t0 <= 60.0, "; ".join(details), t0)


def test_criterion_4_regular_point_rate():
    t0 = time.time()
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    fit = verify_kernel_asymptotics_regular(
        orb, bundle, np.array([1.0 + 0.0j]), 1.0,
        [64, 128, 256, 512, 1024, 2048, 4096])
    report_line("criterion-4 regular-point kernel rate",
                fit.slope <= -0.4 and time.time() - t0 <= 60.0,
                f"log-log slope {fit.slope:.1f} <= -0.4 "
                f"(image terms decay exponentially)", t0)


def test_criterion_5_singular_diagonal_factor():
    t0 = time.time()
    details = []
    ok = True
    for k in (2, 3):
        orb, bundle = build_catalog_orbifold("local-model", k=k, a=(1.0,))
        ratio = singular_diagonal_factor(orb, bundle, np.array([0.0j]), 1.0, 1024)
        ok &= abs(ratio - k) <= 0.05
        details.append(f"k={k}: ratio {ratio:.12f}")
    report_line("criterion-5 singular diagonal factor", ok, "; ".join(details), t0)


def test_criterion_6_near_singular_correction():
    t0 = time.time()
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    details = []
    ok = True
    for p in (256, 1024):
        Z = np.array([1.0 / math.sqrt(p) + 0.0j])
        rec = verify_kernel_asymptotics_singular(orb, bundle, Z, 1.0, [p])[0]
        shrink = rec.residual_without_twist / max(rec.residual_with_twist, 1e-300)
        ok &= shrink >= 10.0
        details.append(f"p={p}: shrink {shrink:.1e}")
    report_line("criterion-6 near-singular twist correction",
                ok and time.time() - t0 <= 60.0, "; ".join(details), t0)


def test_criterion_7_large_time_limit():
    t0 = time.time()
    worst = 0.0
    for a in [(1.0, 2.0), (-1.0, 2.0)]:
        for q in (0, 1):
            integrand = heat_diagonal_limit(ModelPoint(a, 50.0), q).trace
            limit = signature_limit_density(a, q)
            worst = max(worst, abs(integrand - limit))
    report_line("criterion-7 large-time limit", worst <= 1e-6,
                f"max |integrand(u=50) - limit| = {worst:.2e}", t0)


def test_criterion_8_property_suites():
    t0 = time.time()
    # (a) index-density identity sum_q (-1)^q tr_q = prod_j a_j / 2 pi, 1000 random spectra
    rng = np.random.default_rng(99)
    worst_sym = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, n)
        u = rng.uniform(0.1, 1.5)
        lhs = sum((-1.0) ** q * heat_diagonal_limit(ModelPoint(a, u), q).trace
                  for q in range(n + 1))
        scale = np.prod([(factor_plus(aj, u) + factor_minus(aj, u)) / (2 * math.pi * u)
                         for aj in a])
        worst_sym = max(worst_sym, abs(lhs - np.prod(a / (2 * math.pi))) / scale)
    ok_a = worst_sym <= 1e-12

    # (b) eigenvalue factors just above the zero-mode branch against 40 digits
    worst_factor = 0.0
    with mpmath.workdps(40):
        for mag in np.geomspace(1.2e-7, 9.9e-5, 120):
            for a in (mag, -mag):
                for u in (0.3, 1.0, 10.0):
                    x = mpmath.mpf(u * a)
                    plus, minus = x / -mpmath.expm1(-x), x / mpmath.expm1(x)
                    worst_factor = max(worst_factor,
                                       float(abs(factor_plus(a, u) - plus) / plus),
                                       float(abs(factor_minus(a, u) - minus) / minus))
    ok_b = worst_factor <= 1e-15

    # (c) Mehler semigroup composition by quadrature
    a_val, s, tt = 0.9, 0.45, 0.75
    z0, z1 = 0.4 + 0.3j, -0.5 + 0.2j
    R, N = 9.0, 241
    g = np.linspace(-R, R, N)
    h = g[1] - g[0]
    W = (g[None, :] + 1j * g[:, None]).ravel()
    left = np.array([model_heat_kernel(ModelPoint((a_val,), s),
                                       np.array([z0]), np.array([w]))
                     for w in W])
    right = np.array([model_heat_kernel(ModelPoint((a_val,), tt),
                                        np.array([w]), np.array([z1]))
                      for w in W])
    conv = np.sum(left * right) * h * h
    target = model_heat_kernel(ModelPoint((a_val,), s + tt),
                               np.array([z0]), np.array([z1]))
    semigroup_err = abs(conv - target) / abs(target)
    ok_c = semigroup_err <= 1e-4

    # (d) lattice counts against brute force for all p <= 500
    ok_d = True
    for weights in [(1, 1), (1, 2), (2, 3)]:
        for p in range(0, 501):
            if weighted_proj_h0(weights, p) != weighted_proj_h0_bruteforce(weights, p):
                ok_d = False
                break
    report_line("criterion-8 property suites",
                ok_a and ok_b and ok_c and ok_d,
                f"symmetric {worst_sym:.1e}<=1e-12, factors {worst_factor:.1e}<=1e-15, "
                f"semigroup {semigroup_err:.1e}<=1e-4, lattice oracle "
                f"{'exact' if ok_d else 'mismatch'}", t0)


def test_criterion_9_moishezon_verdicts():
    t0 = time.time()
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    v1 = moishezon_check(signature_integrals(orb, bundle, resolution=256))
    ok = v1.verdict == "Moishezon-by-(i)"

    orb0, bundle0 = build_catalog_orbifold("torus", d=0, k=1)
    v0 = moishezon_check(signature_integrals(orb0, bundle0, resolution=64))
    ok &= v0.verdict == "inconclusive"

    agreements = []
    powers = sorted({int(round(x)) for x in np.geomspace(2, 4096, 40)})
    for cid, params in [("wps", dict(weights=(1, 1))), ("wps", dict(weights=(1, 2))),
                        ("wps", dict(weights=(2, 3))), ("torus", dict(d=1, k=1)),
                        ("torus", dict(d=1, k=2)), ("torus", dict(d=0, k=1))]:
        o, b = build_catalog_orbifold(cid, **params)
        table = cohomology_table(o, list(range(1, 9)) + powers)
        est = bigness_check(table, 1)
        rank = max((kodaira_rank(o, b, p) for p in range(1, 9)
                    if table.h(p, 0) >= 1), default=0)
        agree = est.big == (rank == 1)
        agreements.append(agree)
        ok &= agree
    report_line("criterion-9 Moishezon verdicts", ok,
                f"P(1,2) {v1.verdict}; trivial {v0.verdict}; "
                f"bigness/rank agreement on {sum(agreements)}/6 entries", t0)
