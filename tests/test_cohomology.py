"""Lattice-count cohomology: oracles, closed forms, asymptotics."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbmorse import cli
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cli import RunConfig
from orbmorse.cohomology import _wps_exponents, cohomology_table, weighted_proj_h0
from orbmorse.errors import ConfigurationError, UnsupportedModelError

from dents import DENTS
from lattice_count import weighted_proj_h0_bruteforce, weighted_proj_hq


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3), (1, 2, 3)])
@pytest.mark.slow
def test_counts_match_bruteforce_up_to_500(weights):
    for d in range(0, 501):
        assert weighted_proj_h0(weights, d) == weighted_proj_h0_bruteforce(weights, d)


def test_closed_forms():
    for p in range(0, 300):
        assert weighted_proj_h0((1, 1), p) == p + 1
        assert weighted_proj_h0((1, 2), p) == p // 2 + 1


def test_spot_values():
    assert weighted_proj_h0((1, 2), 2) == 2        # {x^2, y}
    assert weighted_proj_h0((2, 3), 1) == 0
    assert weighted_proj_h0((1, 1), -3) == 0


def test_weights_validation():
    with pytest.raises(ConfigurationError):
        weighted_proj_h0((2, 4), 5)
    with pytest.raises(ConfigurationError):
        weighted_proj_h0((3,), 5)


@pytest.mark.parametrize("weights", [(1.5, 1), (True, 2), (1, "2")],
                         ids=["real", "bool", "string"])
def test_weights_must_be_integers(weights):
    # a real or a bool used to be truncated and count a different space
    with pytest.raises(ConfigurationError, match="integer"):
        weighted_proj_h0(weights, 3)


def test_serre_duality_on_curves():
    # h^1(O(d)) = h^0(O(-d - a - b))
    for weights in [(1, 1), (1, 2), (2, 3)]:
        s = sum(weights)
        for d in range(-8, 8):
            assert weighted_proj_hq(weights, d, 1) == weighted_proj_h0(weights, -d - s)
    assert weighted_proj_hq((1, 1), 10, 1) == 0
    assert weighted_proj_hq((1, 1), -3, 1) == 2    # dual to h^0(O(1))


def test_middle_cohomology_vanishes():
    assert weighted_proj_hq((1, 2, 3), 7, 1) == 0


def test_table_examples():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    table = cohomology_table(orb, [10])
    assert table.h(10, 0) == 11 and table.h(10, 1) == 0
    orb2, _ = build_catalog_orbifold("wps", weights=(1, 2))
    table2 = cohomology_table(orb2, range(1, 30))
    for p in range(1, 30):
        assert table2.h(p, 0) == p // 2 + 1


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3)])
def test_table_runs_one_lattice_dp(monkeypatch, weights):
    """The table runs no coin DP: each h^0 and Serre-dual entry is the length
    of its own monomial progression; negative powers included.  (Until the
    per-power count, one DP ran up to the table's largest degree.)"""
    from orbmorse import cohomology
    powers = list(range(-12, 16)) + [97, 1000]
    expected = {(p, q): weighted_proj_hq(weights, p, q)
                for p in powers for q in range(len(weights))}
    # the coin DP is the module's only numpy code: without numpy it cannot run
    monkeypatch.setattr(cohomology, "np", None)
    orb, _ = build_catalog_orbifold("wps", weights=weights)
    table = cohomology_table(orb, powers)
    assert table.entries == expected


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 9), b=st.integers(1, 9), p=st.integers(-60, 2000))
def test_table_entries_match_the_dp_and_the_enumeration(a, b, p):
    assume(math.gcd(a, b) == 1)
    table = cohomology_table(build_catalog_orbifold("wps", weights=(a, b))[0], [p])
    for q, d in ((0, p), (1, -p - a - b)):
        assert table.h(p, q) == weighted_proj_h0((a, b), d)
        assert table.h(p, q) == weighted_proj_h0_bruteforce((a, b), d)


def popoviciu(a, b, p):
    """Popoviciu's count of the (x, y) >= 0 with a x + b y = p, for coprime a, b:
    p / (a b) - {b' p / a} - {a' p / b} + 1, with b b' = 1 mod a and
    a a' = 1 mod b (Beck & Robins, Computing the Continuous Discretely, ch. 1)."""
    a_inv, b_inv = pow(a, -1, b), pow(b, -1, a)
    return (Fraction(p, a * b) - Fraction(b_inv * p % a, a)
            - Fraction(a_inv * p % b, b) + 1)


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3), (3, 5), (4, 7), (9, 8)])
def test_count_matches_popoviciu_at_large_degrees(weights):
    """The table up to LATTICE_DP_MAX, and the progression it reads beyond it."""
    from orbmorse.cohomology import LATTICE_DP_MAX, _wps_exponents
    powers = [LATTICE_DP_MAX - 1, LATTICE_DP_MAX]
    table = cohomology_table(build_catalog_orbifold("wps", weights=weights)[0], powers)
    for p in powers:
        assert table.h(p, 0) == popoviciu(*weights, p)
    assert len(_wps_exponents(weights, 2 ** 40)) == popoviciu(*weights, 2 ** 40)


def test_table_at_the_dp_bound_allocates_no_array():
    """The coin DP's array was 128 MiB here; the per-power count peaks under 2 KB."""
    from orbmorse.cohomology import LATTICE_DP_MAX
    orb, _ = build_catalog_orbifold("wps", weights=(2, 3))
    tracemalloc.start()
    try:
        table = cohomology_table(orb, [64, LATTICE_DP_MAX])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.h(LATTICE_DP_MAX, 0) == LATTICE_DP_MAX // 6 + 1
    assert peak < 2 ** 20


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 8) for b in range(1, 8)
                                 if math.gcd(a, b) == 1])
def test_chart_characters_select_the_invariant_monomials(a, b):
    """P(a, b)'s x chart is C/Z_a, its generator turning z by e^{2 pi i b / a}
    and the fibre of L^p by its character c: z^m of degree m <= p // b is a
    section exactly when b m + c p = 0 mod a, in integers, and the progression
    of ``_wps_exponents`` lists exactly those m.  The y chart likewise, with
    the weights swapped."""
    orb, _ = build_catalog_orbifold("wps", weights=(a, b))
    for chart, (order, weight) in zip(orb.charts, [(a, b), (b, a)], strict=True):
        generator = chart.group[1 % order]
        assert np.isclose(generator.rotation[0], np.exp(2j * np.pi * weight / order))
        for p in range(60):
            invariant = [m for m in range(p // weight + 1)
                         if (weight * m + generator.character * p) % order == 0]
            assert invariant == list(_wps_exponents((order, weight), p))


def test_torus_table_cross_filled_from_kernel_counts():
    orb, _ = build_catalog_orbifold("torus", d=2, k=1)
    table = cohomology_table(orb, [1, 2, 5])
    assert [table.h(p, 0) for p in (1, 2, 5)] == [2, 4, 10]
    assert all(table.h(p, 1) == 0 for p in (1, 2, 5))


@settings(max_examples=25, deadline=None)
@given(dent=DENTS)
def test_dented_bundle_has_the_round_table(dent):
    """The dent changes only the metric: the holomorphic bundle, and so every
    lattice count, is that of the round P(1,1)."""
    powers = [1, 2, 64, 4096]
    round_table = cohomology_table(build_catalog_orbifold("wps", weights=(1, 1))[0], powers)
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1), dent=dent)
    assert cohomology_table(orb, powers).entries == round_table.entries


@pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3)])
def test_asymptotic_density(weights):
    """p^{-n} h^0 approaches 1 / (n! prod weights) at the Ehrhart rate.

    The sub-leading Ehrhart coefficient is sum(weights) / (2 (n-1)! prod w),
    so the relative error decays like n (sum w) / (2 p); the envelope below
    also absorbs the bounded lower-order terms.
    """
    n = len(weights) - 1
    target = 1.0 / (math.factorial(n) * np.prod(weights))
    for p in (10**3, 10**4):
        val = weighted_proj_h0(weights, p) / p**n
        assert abs(val - target) / target <= n * (sum(weights) + 1.0) / p


def test_euler_characteristic_is_quasi_polynomial():
    """chi(p) restricted to each residue class mod lcm(weights) is degree-n."""
    for weights in [(1, 2), (2, 3)]:
        n = len(weights) - 1
        period = math.lcm(*weights)
        ps = np.arange(4, 4 + 12 * period)
        chi = np.array([sum((-1) ** q * weighted_proj_hq(weights, p, q)
                            for q in range(n + 1)) for p in ps])
        for r in range(period):
            sel = ps % period == r
            coeffs = np.polyfit(ps[sel], chi[sel], n)
            fit = np.polyval(coeffs, ps[sel])
            assert np.max(np.abs(fit - chi[sel])) < 1e-6


def test_csv_columns(tmp_path):
    """The cohomology artifact of the CLI stage: one row per entry at p_list."""
    cfg = RunConfig.from_mapping({"catalog": {"id": "wps", "params": {"weights": [1, 1]}},
                                  "run": {"p_list": [3]}})
    cli.run("cohomology", cfg, tmp_path)
    lines = (tmp_path / "cohomology.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "p,q,h"
    assert lines[1] == "3,0,4"
    assert lines[2] == "3,1,0"


def test_local_model_has_no_cohomology_table():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(UnsupportedModelError):
        cohomology_table(orb, [1, 2])


@pytest.mark.parametrize("catalog,params", [("torus", {"d": 1, "k": 2}),
                                            ("wps", {"weights": (2, 3)})])
@pytest.mark.parametrize("p,named", [(2.5, "2.5"), (True, "True"), (math.nan, "nan"),
                                     (np.float64(8.0), "np.float64(8.0)")])
def test_table_refuses_a_power_that_is_not_an_integer(catalog, params, p, named):
    """At the parent p = 2.5 read the entries of p = 2, True those of p = 1,
    and NaN raised a bare ValueError."""
    orb, _ = build_catalog_orbifold(catalog, **params)
    with pytest.raises(ConfigurationError, match=rf"got {re.escape(named)}$"):
        cohomology_table(orb, [4, p])


def test_table_takes_numpy_integer_powers():
    orb, _ = build_catalog_orbifold("torus", d=1, k=2)
    table = cohomology_table(orb, np.array([4, 8]))
    assert table.entries == cohomology_table(orb, [4, 8]).entries
    assert all(type(p) is int for p, _ in table.entries)


# ---------------------------------------------------------------------------
# exact counts beyond int64


def test_count_exact_where_int64_would_wrap():
    # both counts wrapped around in int64 before the exact path existed
    assert weighted_proj_h0((1,) * 6, 10**5) == 83345834041685416895001
    assert weighted_proj_h0((1,) * 8, 3000) == math.comb(3007, 7)
    assert weighted_proj_h0((1,) * 8, 3000) > 0


@settings(max_examples=60, deadline=None)
@given(n_weights=st.integers(2, 9), d=st.integers(0, 3000))
def test_unit_weights_count_binomially(n_weights, d):
    assert weighted_proj_h0((1,) * n_weights, d) == math.comb(d + n_weights - 1,
                                                            n_weights - 1)


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.integers(1, 7), min_size=2, max_size=4),
       d=st.integers(0, 60))
def test_count_matches_bruteforce_for_coprime_weights(weights, d):
    assume(math.gcd(*weights) == 1)
    assert weighted_proj_h0(weights, d) == weighted_proj_h0_bruteforce(weights, d)
