"""Lattice-count cohomology: oracles, closed forms, asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.cohomology import cohomology_table, weighted_proj_h0, weighted_proj_hq
from orbmorse.errors import ConfigurationError, UnsupportedModelError

from dents import DENTS
from lattice_count import weighted_proj_h0_bruteforce


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
    with pytest.raises(ConfigurationError, match="integer"):
        weighted_proj_hq(weights, 3, 1)


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
    """One coin DP per table, up to its largest degree, with h^0 and the
    Serre-dual entries read off that one array; negative powers included."""
    from orbmorse import cohomology
    powers = list(range(-12, 16)) + [97, 1000]
    expected = {(p, q): weighted_proj_hq(weights, p, q)
                for p in powers for q in range(len(weights))}
    lattice_counts = cohomology._lattice_counts
    tops = []

    def counting(ws, top):
        tops.append(top)
        return lattice_counts(ws, top)

    monkeypatch.setattr(cohomology, "_lattice_counts", counting)
    orb, _ = build_catalog_orbifold("wps", weights=weights)
    table = cohomology_table(orb, powers)
    assert tops == [max(1000, 12 - sum(weights))]
    assert table.entries == expected


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


def test_csv_columns():
    orb, _ = build_catalog_orbifold("wps", weights=(1, 1))
    text = cohomology_table(orb, [3]).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "p,q,h"
    assert lines[1] == "3,0,4"
    assert lines[2] == "3,1,0"


def test_local_model_has_no_cohomology_table():
    orb, _ = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(UnsupportedModelError):
        cohomology_table(orb, [1, 2])


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
