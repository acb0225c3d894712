"""Metamorphic relations: two runs whose answers must agree, where no single
oracle gives either answer.

A local model C^n/Z_k of action weights w and fibre character c is the group
generated by g = (diag(e^{2 pi i w_j / k}), c).  For r coprime to k, g^r
generates the same group, with weights w r mod k and character c r mod k: the
same elements, reindexed m -> r m mod k.  So every image sum, the kernel
checks' singular ratio and their exact reference agree between the two.

On a torus of bundle degree d, the power p and the time u enter the Landau
spectrum only through D = d p, which fixes every multiplicity, and through
d u, which fixes every heat weight e^{-u lambda / p} = e^{-2 pi d u L}.  So
(d, p, u) and (d 2^j, p / 2^j, u / 2^j) have the same heat traces and trace
chain, bit for bit: every float between differs by a power of two.  And the
half turn splits the D states of each level between its two swap
eigenspaces, so two adjacent levels of the quotient hold D states together.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbmorse import cli
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.spectral import assemble_kodaira_laplacian, heat_trace
from orbmorse.verify import (exact_chain_residuals, local_model_diagonal_kernel,
                             local_model_image_log_terms)


@st.composite
def reindexed_groups(draw):
    """(k, weights, character, r, a, Z, p, u): a local model of an effective
    action, an r coprime to k, a point with |Z_j| <= 2 and a power, some
    beyond 2^53."""
    k, n = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(
        lambda w: math.gcd(k, *w) == 1))
    r = draw(st.integers(1, 40).filter(lambda r: math.gcd(r, k) == 1))
    a = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    Z = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                         allow_infinity=False), min_size=n, max_size=n))
    p = draw(st.one_of(st.integers(1, 4096), st.integers(1, 2 ** 64)))
    return (k, weights, draw(st.integers(-50, 50)), r, a, np.array(Z), p,
            draw(st.sampled_from([0.5, 1.0, 5.0])))


def reindexed(k, weights, character, r, a):
    """The model of generator g and that of g^r."""
    return [build_catalog_orbifold("local-model", k=k, a=a, weights=[w * s % k for w in weights],
                                   character=character * s % k) for s in (1, r)]


@settings(max_examples=80, deadline=None)
@given(case=reindexed_groups())
def test_a_reindexed_group_gives_the_same_image_sum(case):
    """Within 1e-13 of the terms' scale: the sum runs over the same terms in
    another order."""
    k, weights, character, r, a, Z, p, u = case
    models = reindexed(k, weights, character, r, a)
    sums = [local_model_diagonal_kernel(orb, bundle, Z, u, p) for orb, bundle in models]
    _, log_abs, _ = local_model_image_log_terms(models[0][0], Z, u, [p])
    assert abs(sums[0] - sums[1]) <= 1e-13 * float(np.exp(log_abs).sum())


@settings(max_examples=40, deadline=None)
@given(case=reindexed_groups())
def test_a_reindexed_group_gives_the_same_kernel_references(case):
    """The CLI's singular ratio within 1e-13 of its k terms, and its exact
    reference, k or 0, equal."""
    k, weights, character, r, a, _, p, u = case
    cfg = cli.RunConfig(catalog_id="local-model", catalog_params={}, p_list=[4, 16, 64 + p],
                        u_list=[u])
    records = [dict(cli.RUNNERS["kernel-asymptotics"](cfg, orb, bundle, None, None)[0])
               for orb, bundle in reindexed(k, weights, character, r, a)]
    first, second = (rec[f"kernel-asymptotics-u{u!r}"] for rec in records)
    assert first["expected_ratio"] == second["expected_ratio"]
    assert first["expected_ratio"] == (float(k) if character * (64 + p) % k == 0 else 0.0)
    assert abs(first["singular_ratio"] - second["singular_ratio"]) <= 1e-13 * k


@st.composite
def rescaled_tori(draw):
    """(d, p, u, j, k, resolution) with 2^j dividing p, p up to 2^64."""
    j = draw(st.integers(1, 8))
    p = draw(st.one_of(st.integers(1, 512), st.integers(1, 2 ** 64 >> j))) << j
    return (draw(st.integers(1, 8)), p, draw(st.floats(0.01, 10.0)), j,
            draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2, 8, 32])))


def torus_traces(d, k, p, u, resolution):
    """The heat traces of both degrees and the trace chain of one torus."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    traces = [heat_trace(assemble_kodaira_laplacian(orb, bundle, p, q, resolution), u)
              for q in (0, 1)]
    return traces, exact_chain_residuals(orb, bundle, p, u, resolution)


@settings(max_examples=100, deadline=None)
@given(case=rescaled_tori())
def test_the_torus_traces_depend_on_d_p_and_d_u_alone(case):
    """Kernels, tails and [r_0, r_1] equal bit for bit under (d, p, u) ->
    (d 2^j, p / 2^j, u / 2^j)."""
    d, p, u, j, k, resolution = case
    first = torus_traces(d, k, p, u, resolution)
    second = torus_traces(d << j, k, p >> j, u / 2 ** j, resolution)
    assert first == second
    assert all(type(kernel) is int for kernel, _ in first[0])


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 8), p=st.one_of(st.integers(1, 64), st.integers(1, 2 ** 67)),
       q=st.sampled_from([0, 1]))
def test_two_adjacent_half_turn_levels_hold_d_p_states(d, p, q):
    """m(L) + m(L + 1) on the half turn is D = d p, the k = 1 multiplicity of
    every level, in both degrees, for D up to 2^70."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=2)
    half = assemble_kodaira_laplacian(orb, bundle, p, q, 8).multiplicities
    orb, bundle = build_catalog_orbifold("torus", d=d, k=1)
    full = assemble_kodaira_laplacian(orb, bundle, p, q, 8).multiplicities
    assert full == (d * p,) * 8
    assert [a + b for a, b in zip(half, half[1:])] == [d * p] * 7
