"""Metamorphic relations: two runs whose answers must agree, where no single
oracle gives either answer.

A local model C^n/Z_k of action weights w and fibre character c is the group
generated by g = (diag(e^{2 pi i w_j / k}), c).  For r coprime to k, g^r
generates the same group, with weights w r mod k and character c r mod k: the
same elements, reindexed m -> r m mod k.  So every image sum, the kernel
checks' singular ratio and their exact reference agree between the two.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbmorse import cli
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.verify import local_model_diagonal_kernel, local_model_image_log_terms


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
