"""Exact torus spectra, heat traces, residual chains, the Landau basis."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orbmorse.catalog import build_catalog_orbifold
from orbmorse.errors import ConfigurationError, UnsupportedModelError
from orbmorse.report import csv_text
from orbmorse.spectral import (assemble_kodaira_laplacian, heat_trace, oscillator_functions,
                               torus_basis_columns, torus_diagonal_kernel_spectral,
                               torus_eigenfunction_values, torus_kernel_dimension)
from orbmorse.verify import exact_chain_residuals
from swap_basis import invariant_basis


def ops_for(d, k, p, resolution=32):
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    return [assemble_kodaira_laplacian(orb, bundle, p, q, resolution) for q in (0, 1)]


# ---------------------------------------------------------------------------
# assembly


def test_smallest_eigenvalue_and_kernel_multiplicity():
    op0, op1 = ops_for(d=1, k=1, p=1)
    assert op0.spectral_table()[0] == (0.0, 1)          # multiplicity d p = 1
    assert op0.zero_dim == 1
    lam_min = op1.spectral_table()[0][0]
    assert lam_min == pytest.approx(2 * math.pi * 1 * 1)   # p tau scale
    assert op1.zero_dim == 0


def test_resolution_must_be_power_of_two():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=1)
    with pytest.raises(ConfigurationError):
        assemble_kodaira_laplacian(orb, bundle, 2, 0, resolution=12)


def test_weighted_projective_has_no_discretization():
    orb, bundle = build_catalog_orbifold("wps", weights=(1, 2))
    with pytest.raises(UnsupportedModelError):
        assemble_kodaira_laplacian(orb, bundle, 2, 0, 8)


def test_local_model_has_no_discretization():
    """The grid oracle is a test reference, not an assembly route."""
    orb, bundle = build_catalog_orbifold("local-model", k=2, a=(1.0,))
    with pytest.raises(UnsupportedModelError):
        assemble_kodaira_laplacian(orb, bundle, 2, 0, 8)


@pytest.mark.parametrize("d", [0, -1])
def test_nonpositive_degree_has_no_discretization(d):
    """d <= 0 has no magnetic Fourier basis: the stage does not apply."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=1)
    with pytest.raises(UnsupportedModelError):
        assemble_kodaira_laplacian(orb, bundle, 4, 0, 8)


def test_projected_spectrum_is_submultiset():
    full = ops_for(d=1, k=1, p=4)[0].spectral_table()
    inv = ops_for(d=1, k=2, p=4)[0].spectral_table()
    full_map = dict(full)
    for lam, mult in inv:
        assert full_map.get(lam, 0) >= mult


def test_resolution_doubling_leaves_low_spectrum_fixed():
    small = ops_for(d=1, k=2, p=4, resolution=16)[0].spectral_table()
    big = ops_for(d=1, k=2, p=4, resolution=32)[0].spectral_table()
    assert small == big[: len(small)]


def test_kernel_count_is_the_zero_eigenvalue_multiplicity():
    """zero_dim counts exactly the eigenvalue 0.0 (degree 0, level 0)."""
    for d, k, p in itertools.product((1, 2), (1, 2), (1, 2, 3, 8, 4096)):
        op0, op1 = ops_for(d, k, p, resolution=4)
        t0, t1 = op0.spectral_table(), op1.spectral_table()
        assert t0[0][0] == 0.0 and all(lam > 0.0 for lam, _ in t0[1:] + t1)
        assert op0.zero_dim == t0[0][1] == torus_kernel_dimension(d, k, p, 0)
        assert op1.zero_dim == 0 == torus_kernel_dimension(d, k, p, 1)


def test_closed_form_multiplicity_matches_swap_basis():
    """Every case d in 1..3, p in 1..64, k in {1, 2}, q in {0, 1}, level < 8."""
    swap_rows = {}
    for d, p, k in itertools.product(range(1, 4), range(1, 65), (1, 2)):
        D = d * p
        for q, op in enumerate(ops_for(d, k, p, resolution=8)):
            for level in range(8):
                sign = (-1) ** level * (-1 if q == 1 else 1)
                if (D, sign) not in swap_rows:
                    swap_rows[D, sign] = invariant_basis(D, sign).shape[0]
                expected = D if k == 1 else swap_rows[D, sign]
                assert op.multiplicities[level] == expected, (d, p, k, q, level)


def test_exact_chain_memory_is_independent_of_power():
    """The chain at p = 4096 keeps O(resolution) memory (a dense level block
    would be 128 MB)."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    exact_chain_residuals(orb, bundle, 8, 1.0, 32)          # warm imports
    tracemalloc.start()
    try:
        residuals = exact_chain_residuals(orb, bundle, 4096, 1.0, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    op = assemble_kodaira_laplacian(orb, bundle, 4096, 0, 32)
    assert op.zero_dim == torus_kernel_dimension(1, 2, 4096, 0)
    assert abs(residuals[-1]) <= 1e-9


def test_kernel_dimensions_formula():
    assert torus_kernel_dimension(1, 1, 5, 0) == 5
    assert torus_kernel_dimension(1, 2, 8, 0) == 5        # floor(8/2) + 1
    assert torus_kernel_dimension(1, 2, 7, 0) == 4
    assert torus_kernel_dimension(2, 1, 3, 1) == 0
    assert torus_kernel_dimension(0, 1, 3, 0) == 1
    assert torus_kernel_dimension(-1, 1, 3, 1) == 3


# ---------------------------------------------------------------------------
# heat traces and residuals


def test_heat_trace_arithmetic_examples():
    # one level: the kernel alone, whatever the time
    kernel_only = ops_for(d=1, k=1, p=4, resolution=1)[0]
    assert kernel_only.multiplicities == (4,)
    for u in (0.1, 1.0, 7.0):
        assert heat_trace(kernel_only, u) == 4.0
    # levels 0 and 1 of one state each, lambda = 0 and 2 pi: at u = log 2 / 2 pi
    # the second weighs e^{-log 2} = 1/2
    two_levels = ops_for(d=1, k=1, p=1, resolution=2)[0]
    assert two_levels.spectral_table() == ((0.0, 1), (2 * math.pi, 1))
    assert heat_trace(two_levels, math.log(2.0) / (2 * math.pi)) == pytest.approx(
        1.5, rel=1e-14)


def test_heat_trace_refuses_a_level_beyond_float_counts():
    """2^53 states per level still sum exactly in a float; 2^53 + 2 do not."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=1)
    exact = assemble_kodaira_laplacian(orb, bundle, 2 ** 53, 0, 1)
    assert heat_trace(exact, 1.0) == 2 ** 53
    orb, bundle = build_catalog_orbifold("torus", d=2, k=1)
    beyond = assemble_kodaira_laplacian(orb, bundle, 2 ** 52 + 1, 0, 1)
    with pytest.raises(ConfigurationError, match=f"p={2 ** 52 + 1} .* 2\\^53"):
        heat_trace(beyond, 1.0)


def test_heat_trace_rejects_nonpositive_time():
    op = ops_for(d=1, k=1, p=1, resolution=2)[0]
    with pytest.raises(ValueError):
        heat_trace(op, 0.0)


def test_torus_chain_residuals_and_monotonicity():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    op = assemble_kodaira_laplacian(orb, bundle, 8, 0, 32)
    prev = None
    for u in [0.25, 0.5, 1.0, 2.0, 4.0]:
        r = exact_chain_residuals(orb, bundle, 8, u)
        # r_0 is the trace above the kernel; r_1 pairs integer multiplicities
        assert r[0] == pytest.approx(heat_trace(op, u) - op.zero_dim, abs=1e-12)
        assert r[1] == 0.0
        if prev is not None:
            assert r[0] < prev                  # decreasing in u
        prev = r[0]


# ---------------------------------------------------------------------------
# supersymmetry pairing and the eigenvalue complex


@pytest.mark.parametrize("d,k,p", [(1, 1, 3), (1, 2, 4), (1, 2, 7), (2, 2, 3)])
def test_supersymmetric_multiplicities(d, k, p):
    op0, op1 = ops_for(d, k, p)
    for level in range(1, op0.resolution):
        assert op0.multiplicities[level] == op1.multiplicities[level - 1]


def _level_basis(op, level):
    """Rows: the orthonormal invariant states of one level in the full basis."""
    if op.k == 1:
        return np.eye(op.D)
    return invariant_basis(op.D, (-1) ** level * (-1 if op.q == 1 else 1))


def _dense_dbar_block(op0, op1, level):
    """dbar from degree-0 level L to degree-1 level L - 1, in the invariant bases.

    dbar maps (L, j) to sqrt(B L) (L - 1, j) in the full basis; expressed in
    the invariant bases of both degrees it is the overlap b1 b0^T of the two
    level blocks times sqrt(B L).
    """
    b0, b1 = _level_basis(op0, level), _level_basis(op1, level - 1)
    return math.sqrt(op0.field_strength * level) * (b1 @ b0.T)


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_dbar_pairs_matched_levels_at_full_rank(d, k):
    """The pairing the exact chain relies on: the assembled dbar from degree-0
    level L onto degree-1 level L - 1 has rank m0(L) = m1(L - 1)."""
    for p in range(1, 13):
        op0, op1 = ops_for(d, k, p, resolution=8)
        for level in range(1, op0.resolution):
            block = _dense_dbar_block(op0, op1, level)
            rank = int(np.linalg.matrix_rank(block, tol=1e-9)) if block.size else 0
            assert rank == op0.multiplicities[level] == op1.multiplicities[level - 1], \
                (p, level)


# ---------------------------------------------------------------------------
# eigenfunctions and serialization


def test_eigenfunctions_are_orthonormal_by_quadrature():
    op0 = ops_for(1, 1, 2, resolution=4)[0]
    N = 64
    xs = (np.arange(N) + 0.5) / N
    G = np.zeros((4 * op0.D, 4 * op0.D), dtype=complex)
    vals = np.zeros((4, op0.D, N, N), dtype=complex)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            vals[:, :, i, j] = torus_eigenfunction_values(op0, complex(x, y))
    flat = vals.reshape(4 * op0.D, N * N)
    G = flat @ flat.conj().T / (N * N)
    assert np.max(np.abs(G - np.eye(4 * op0.D))) < 1e-10


def _oscillator_recurrence(kmax, t, freq):
    """Reference: the normalized recurrence, one level at a time from scalars."""
    s = math.sqrt(freq) * t
    out = np.empty((kmax + 1, t.size))
    out[0] = freq ** 0.25 * math.pi ** -0.25 * np.exp(-0.5 * s * s)
    if kmax >= 1:
        out[1] = math.sqrt(2.0) * s * out[0]
    for k in range(1, kmax):
        out[k + 1] = (math.sqrt(2.0 / (k + 1.0)) * s * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


@pytest.mark.parametrize("freq", [0.37, 1.0, 2 * math.pi * 8, 2 * math.pi * 2048])
def test_oscillator_functions_match_the_recurrence(freq):
    """Bit for bit, signed zeros and underflow included, for kmax 0 to 40."""
    rng = np.random.default_rng(11)
    t = np.concatenate((rng.normal(size=40) * 3.0, [0.0, -0.0, 40.0, -40.0])) / math.sqrt(freq)
    for kmax in range(41):
        assert (oscillator_functions(kmax, t, freq).tobytes()
                == _oscillator_recurrence(kmax, t, freq).tobytes()), kmax


def _eigenfunction_values_loop(op, z, levels):
    """Reference: the column-by-column scatter over lattice translates."""
    B, D = op.field_strength, op.D
    x, y = float(np.real(z)), float(np.imag(z))
    spread = (math.sqrt(2.0 * levels + 1.0) + 9.0) / math.sqrt(B)
    ms = np.arange(int(math.floor((x - spread) * D)), int(math.ceil((x + spread) * D)) + 1)
    phis = oscillator_functions(levels - 1, x - ms / D, B)
    phases = np.exp(2j * np.pi * ms * y)
    vals = np.zeros((levels, D), dtype=complex)
    for col, m in enumerate(ms):
        vals[:, m % D] += phases[col] * phis[:, col]
    return vals


@pytest.mark.parametrize("D", [1, 2, 3, 7, 64, 2048])
@pytest.mark.parametrize("levels", [1, 32])
def test_basis_columns_match_the_translate_loop(D, levels):
    """Column by column, unsorted and repeated, bit for bit (the sign of a zero
    too), in windows that wrap (D small) and that do not."""
    op = ops_for(1, 1, D)[0]
    columns = [D - 1, 0, D // 2, D - 1, 0]
    for z in (0.21 + 0.33j, 0.58 + 0.12j, 0.4 + 0.9j, -0.3 + 1.7j, 0.5 + 0j, 0.0j):
        assert (torus_basis_columns(D, levels, columns, z).tobytes()
                == _eigenfunction_values_loop(op, z, levels)[:, columns].tobytes())


@pytest.mark.parametrize("p", [8, 128, 2048])
@pytest.mark.parametrize("levels", [1, 32])
def test_eigenfunction_scatter_matches_loop(p, levels):
    op = ops_for(1, 2, p, resolution=levels)[0]
    for z in (0.3 + 0.7j, 0.91 + 0.05j):
        assert np.array_equal(torus_eigenfunction_values(op, z),
                              _eigenfunction_values_loop(op, z, levels))


HALF_TURN_POINTS = (0.21 + 0.33j, 0.58 + 0.12j, 0.03 + 0.91j, 0.5 + 0.5j, 0j)


@pytest.mark.parametrize("p", [4, 8, 32, 128, 2048])
def test_half_turn_is_the_signed_swap(p):
    """psi_{kappa, j}(-z) = (-1)^kappa psi_{kappa, -j}(z), the form the kernel applies."""
    op = ops_for(1, 2, p)[0]
    sign = (-1.0) ** np.arange(op.resolution)[:, None]
    for z in HALF_TURN_POINTS:
        psi = torus_eigenfunction_values(op, z)
        swapped = sign * psi[:, -np.arange(op.D) % op.D]
        gap = np.max(np.abs(torus_eigenfunction_values(op, -z) - swapped))
        assert gap <= 1e-15 * np.abs(psi).max()


def _diagonal_kernel_two_evaluations(op0, op1, z, u, q):
    """Reference: the rotation loop that evaluates the basis a second time at -z."""
    op = op0 if q == 0 else op1
    psi = torus_eigenfunction_values(op, z)
    total = 0.0j
    for rot in range(op.k):
        form_factor = 1.0 if q == 0 else (-1.0) ** rot
        rotated = psi if rot == 0 else torus_eigenfunction_values(op, -z)
        for level in range(op.resolution):
            w = math.exp(-u * op.level_eigenvalue(level) / op.p)
            total += w * form_factor * np.vdot(psi[level], rotated[level])
    return complex(total)


@pytest.mark.parametrize("p", [4, 8, 128, 2048])
@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_diagonal_kernel_matches_two_evaluations(d, k, p):
    """Relative to the identity term: at the half-turn fixed points the degree-one
    kernel cancels to rounding, so its own size is no scale."""
    ops = ops_for(d, k, p)
    for z in HALF_TURN_POINTS:
        for u in (0.1, 1.0):
            for q, op in enumerate(ops):
                reference = _diagonal_kernel_two_evaluations(*ops, z, u, q)
                identity = abs(_diagonal_kernel_two_evaluations(
                    *(o._replace(k=1) for o in ops), z, u, q))
                value = torus_diagonal_kernel_spectral(op, z, u)
                assert abs(value - reference) <= 1e-13 * identity, (z, u, q)


def test_spectral_csv_golden():
    """The rows of a spectrum artifact, as the heat-trace stage writes them: on
    the half-turn quotient at D = 2, degree-0 levels 1 and 3 have no states
    and no row."""
    op = ops_for(d=1, k=2, p=2, resolution=4)[0]
    assert op.multiplicities == (2, 0, 2, 0)
    text = csv_text(["p", "q", "lambda", "multiplicity"],
                    ([op.p, op.q, lam, mult] for lam, mult in op.spectral_table()))
    assert text.splitlines() == ["p,q,lambda,multiplicity",
                                 "2,0,0.0,2",
                                 "2,0,25.132741228718345,2"]


def test_heat_trace_torus_frozen_value():
    """Geometric-series oracle: trace = D / (1 - e^{-2 pi d u}) at degree 0."""
    orb, bundle = build_catalog_orbifold("torus", d=1, k=1)
    op = assemble_kodaira_laplacian(orb, bundle, 8, 0, 32)
    assert heat_trace(op, 1.0) == pytest.approx(8.014967492789285, rel=1e-13)
