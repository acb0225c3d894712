"""Exact torus spectra, heat traces, residual chains, the Landau basis."""

import cmath
import itertools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbmorse import spectral
from orbmorse.catalog import build_catalog_orbifold
from orbmorse.errors import ConfigurationError, UnresolvedTimeError, UnsupportedModelError
from orbmorse.report import csv_text
from orbmorse.spectral import (_kept_levels, assemble_kodaira_laplacian, heat_trace,
                               oscillator_functions, torus_basis_columns,
                               torus_diagonal_kernel_spectral,
                               torus_eigenfunction_values, torus_kernel_dimension)
from orbmorse.verify import (_image_trace, _truncated_operator, exact_chain_residuals,
                             oracle_consistency)
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
    """Every case d in 1..3, p in 1..64, k in {1, 2}, q in {0, 1}, level < 8;
    the kernel dimension, which reads the fixed points and not the
    multiplicities, is the invariant count of degree-0 level 0."""
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
        assert torus_kernel_dimension(d, k, p, 0) == (D if k == 1 else swap_rows[D, 1])


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

    # the counts read the bundle degree D = d p: L^0 is trivial whatever d
    # (d = 1, p = 0 read h^0 = 0), and d = 1, p = -3 is d = -1, p = 3 (it read
    # a count of -3)
    def h(d, k, p):
        return [torus_kernel_dimension(d, k, p, q) for q in (0, 1)]
    assert h(1, 1, 0) == h(0, 1, 5) == [1, 1]
    assert h(1, 2, 0) == h(0, 2, 5) == [1, 0]
    assert h(1, 1, -3) == h(-1, 1, 3) == [0, 3]
    assert h(-1, 1, -3) == h(1, 1, 3) == [3, 0]
    assert h(-1, 2, -8) == h(1, 2, 8) == [5, 0]
    with pytest.raises(UnsupportedModelError):
        torus_kernel_dimension(1, 2, -3, 0)


# (p, the value the refusal names): at the parent p = 2.5 assembled p = 2,
# True p = 1, p = 0 a multiplicity of -1 whose heat trace divided by zero,
# and p = -3 a heat trace of -1.004
BAD_POWERS = [(2.5, "2.5"), (True, "True"), (0, "0"), (-3, "-3"), (math.nan, "nan"),
              (np.float64(8.0), "np.float64(8.0)")]


@pytest.mark.parametrize("p,named", BAD_POWERS)
def test_assembly_refuses_a_power_that_is_not_an_integer_at_least_1(p, named):
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    with pytest.raises(ConfigurationError, match=rf"got {re.escape(named)}$"):
        assemble_kodaira_laplacian(orb, bundle, p, 0)


def test_assembly_takes_a_numpy_integer_power():
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    op = assemble_kodaira_laplacian(orb, bundle, np.int64(8), 0)
    assert op == assemble_kodaira_laplacian(orb, bundle, 8, 0) and type(op.p) is int


# ---------------------------------------------------------------------------
# heat traces and residuals


def test_heat_trace_arithmetic_examples():
    # one level: the kernel alone and an empty tail, whatever the time
    kernel_only = ops_for(d=1, k=1, p=4, resolution=1)[0]
    assert kernel_only.multiplicities == (4,)
    for u in (0.1, 1.0, 7.0):
        assert heat_trace(kernel_only, u) == (4, 0.0)
    # levels 0 and 1 of one state each, lambda = 0 and 2 pi: at u = log 2 / 2 pi
    # the second weighs e^{-log 2} = 1/2
    two_levels = ops_for(d=1, k=1, p=1, resolution=2)[0]
    assert two_levels.spectral_table() == ((0.0, 1), (2 * math.pi, 1))
    kernel, tail = heat_trace(two_levels, math.log(2.0) / (2 * math.pi))
    assert kernel == 1 and tail == pytest.approx(0.5, rel=1e-14)
    # degree one has no kernel: its levels, lambda = 2 pi and 4 pi, weigh 1/2 and 1/4
    degree_one = ops_for(d=1, k=1, p=1, resolution=2)[1]
    assert heat_trace(degree_one, math.log(2.0) / (2 * math.pi)) == (
        0, pytest.approx(0.75, rel=1e-14))


def test_heat_trace_counts_the_kernel_in_integers_beyond_2_53():
    """A level of 2^60 + 2 states: the kernel is the exact int, where a float
    trace rounded it, and the tail is the float sum of the levels above it."""
    orb, bundle = build_catalog_orbifold("torus", d=2, k=1)
    op = assemble_kodaira_laplacian(orb, bundle, 2 ** 59 + 1, 0, 2)
    kernel, tail = heat_trace(op, 1.0)
    assert type(kernel) is int and kernel == 2 ** 60 + 2
    assert tail == pytest.approx(2.0 ** 60 * math.exp(-4 * math.pi), rel=1e-14)


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
        assert r[0] == heat_trace(op, u)[1]
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
    """Reference: the column-by-column scatter over lattice translates, each
    translate's phase m y mod 1 and argument x - m/D formed on its own in
    Python integers: y = Y 2^-64 + rest and x = X / F."""
    B, D = op.field_strength, op.D
    x, y = float(np.real(z)), float(np.imag(z))
    X, F = x.as_integer_ratio()
    c = X * D // F
    half = math.ceil((math.sqrt(2.0 * levels + 1.0) + 9.0) / math.sqrt(B) * D)
    ms = range(c - half, c + half + 2)
    Y = math.floor(math.ldexp(y, 64))
    rest = math.ldexp(math.ldexp(y, 64) - Y, -64)
    phases = np.exp(2j * np.pi * np.array(
        [float(m * Y % 2 ** 64) * 2.0 ** -64 + (m - c + float(c)) * rest for m in ms]))
    t = [(X * D - c * F) / (F * D) - (m - c) / D for m in ms]
    phis = oscillator_functions(levels - 1, t, B)
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


def _basis_reference(D, levels, j, z):
    """psi_{level, j}(z) in 60 digits: the translates m = j mod D within
    14 + sqrt(2 levels + 1) oscillator lengths of x, each with the exact
    rational phase m y mod 1 and argument x - m / D."""
    (X, F), (Yn, Yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    reach = math.ceil((14.0 + math.sqrt(2.0 * levels + 1.0)) * math.sqrt(D / (2.0 * math.pi)))
    c = X * D // F
    out = [mpmath.mpc(0)] * levels
    with mpmath.workdps(60):
        B = 2 * mpmath.pi * D
        for m in range(c - reach + (j - c + reach) % D, c + reach + 1, D):
            s = mpmath.sqrt(B) * mpmath.mpf(X * D - m * F) / (F * D)
            phase = mpmath.expjpi(mpmath.mpf(2 * (m * Yn % Yd)) / Yd)
            low, phi = mpmath.mpf(0), (B / mpmath.pi) ** 0.25 * mpmath.exp(-s * s / 2)
            for k in range(levels):
                out[k] += phase * phi
                low, phi = phi, (mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * s * phi
                                 - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * low)
        return np.array([complex(v) for v in out])


@pytest.mark.parametrize("D", [8, 64, 2 ** 20, 2 ** 36, 2 ** 50, 2 ** 60, 2 ** 63, 2 ** 133],
                         ids=lambda D: f"2^{D.bit_length() - 1}")
def test_basis_columns_match_a_60_digit_reference(D):
    """The two columns nearest x D, within 1e-14 of the column's largest
    value: levels 0-1 at every D, all 32 levels up to 2^20, and past int64
    with the columns as Python ints.  Float phases m y read 2e-10 off at 2^20."""
    levels = 32 if D <= 2 ** 20 else 2
    for z in (0.21 + 0.33j, 0.17 + 0.61j, 0.4 + 0.9j):
        j = math.floor(z.real * D) % D
        columns = np.array([j, (j + 1) % D], dtype=object if D >= 2 ** 63 else np.int64)
        got = torus_basis_columns(D, levels, columns, z)
        for value, j in zip(got.T, columns):
            ref = _basis_reference(D, levels, int(j), z)
            assert np.abs(value - ref).max() <= 1e-14 * np.abs(ref).max(), (z, j)


@settings(max_examples=140, deadline=None)
@given(s=st.integers(3, 50), x=st.integers(2 ** 47, 2 ** 49 - 1),
       y=st.integers(1, 2 ** 50 - 1), n=st.integers(1, 4))
def test_the_landau_basis_is_quasi_periodic(s, x, y, n):
    """At D = 2^s and dyadic x in [1/8, 1/2), y in (0, 1): psi at x + i(y + n)
    is psi at x + iy bit for bit, and psi_{j+1}(x + 1/D, y) is
    e^{2 pi i y} psi_j(x, y) within 1e-13 of the column's scale."""
    D, x, y = 2 ** s, x / 2 ** 50, y / 2 ** 50
    j = math.floor(x * D) % D
    columns = [(j - 1) % D, j, (j + 1) % D]
    psi = torus_basis_columns(D, 4, columns, complex(x, y))
    assert torus_basis_columns(D, 4, columns, complex(x, y + n)).tobytes() == psi.tobytes()
    shifted = torus_basis_columns(D, 4, [(c + 1) % D for c in columns], complex(x + 1 / D, y))
    assert (np.abs(shifted - cmath.exp(2j * math.pi * y) * psi).max(axis=0)
            <= 1e-13 * np.abs(psi).max(axis=0)).all()


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


def _full_kernel(op, z, u):
    """Reference: the diagonal kernel from the basis at all D columns and all
    the operator's levels (``torus_eigenfunction_values``), with each column
    sum and the level sum taken exactly (``math.fsum``)."""
    psi = torus_eigenfunction_values(op, z)
    swaps = psi.conj() * psi[:, -np.arange(op.D) % op.D]
    norms = [math.fsum(row) for row in abs(psi) ** 2]
    weights = [math.exp(-u * op.level_eigenvalue(level) / op.p) for level in range(op.resolution)]
    terms = [w * (n + (-1) ** (level + op.q) * complex(math.fsum(s.real), math.fsum(s.imag))
                  if op.k == 2 else n)
             for level, (w, n, s) in enumerate(zip(weights, norms, swaps))]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


HALF_TURN_FIXED = (0j, 0.5 + 0j, 0.5j, 0.5 + 0.5j)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), k=st.integers(1, 2), p=st.integers(1, 2 ** 12),
       q=st.integers(0, 1), u=st.floats(0.01, 1000.0),
       z=st.one_of(st.sampled_from(HALF_TURN_FIXED),
                   st.builds(complex, st.floats(0.0, 1.0, exclude_max=True),
                             st.floats(0.0, 1.0, exclude_max=True))))
def test_the_cut_kernel_matches_the_full_basis(d, k, p, q, u, z):
    """Evaluating only the kept levels and the window's columns reads the
    kernel of every level and every column, within 4 ulps per group element
    of the identity term ``_image_trace(d, 1, u, p, q)``: at the half-turn
    fixed points the half turn's term is as large as the identity's, and the
    quotient kernel twice it.  Every u that ``_truncated_operator`` accepts."""
    orb, bundle = build_catalog_orbifold("torus", d=d, k=k)
    try:
        op = _truncated_operator(orb, bundle, u, p, q)
    except UnresolvedTimeError:
        assume(False)
    scale = _image_trace(d, 1, u, p, q)
    gap = abs(torus_diagonal_kernel_spectral(op, z, u) - _full_kernel(op, z, u))
    assert gap <= 4 * k * math.ulp(scale), (gap / math.ulp(scale), _kept_levels(op, u))


def _level_sums_by_sorting(D, levels, z):
    """Reference: the two per-level sums of ``spectral._level_sums`` with the
    window's columns sorted and deduplicated and each mirror found by binary
    search, as the kernel built them before the closed form."""
    _, _, c, half = spectral._window(D, levels, z)
    hit = np.arange(c - half, c + half + 2) % D
    columns = np.sort(np.concatenate((hit, -hit % D)))
    columns = columns[np.concatenate(([True], columns[1:] != columns[:-1]))]
    psi = torus_basis_columns(D, levels, columns, z)
    swapped = psi[:, np.searchsorted(columns, -columns % D)]
    return (np.add.reduce(abs(psi) ** 2, axis=1), np.add.reduce(psi.conj() * swapped, axis=1))


# x just below 1 puts the window's nearest translate at D - 1, where it wraps past D
WINDOW_POINTS = HALF_TURN_FIXED + (complex(math.nextafter(1.0, 0.0), 0.37),
                                   complex(math.nextafter(1.0, 0.0), 0.5))


@settings(max_examples=300, deadline=None)
@given(D=st.integers(1, 2 ** 12), levels=st.sampled_from([1, 8, 32]),
       z=st.one_of(st.sampled_from(WINDOW_POINTS),
                   st.builds(complex, st.floats(0.0, 1.0, exclude_max=True),
                             st.floats(0.0, 1.0, exclude_max=True))))
def test_the_window_columns_and_mirrors_by_index_arithmetic(D, levels, z):
    """The window's columns are the sorted set of its translates' residues and
    their negatives, each mirror index sends a column j to -j mod D, and both
    per-level sums are those of the sort-and-search construction, bit for bit:
    at the four half-turn fixed points, x just below 1, and windows that wrap
    past D or cover it."""
    _, _, c, half = spectral._window(D, levels, z)
    columns = spectral._window_columns(D, c, half)
    hit = {(c + r) % D for r in range(-half, half + 2)}
    assert columns.tolist() == sorted(hit | {-j % D for j in hit})
    assert columns[spectral._mirrors(columns)].tolist() == (-columns % D).tolist()
    got = spectral._level_sums.__wrapped__(D, levels, z)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in _level_sums_by_sorting(D, levels, z)]


def test_the_kernel_at_2_16_evaluates_a_window_of_levels_and_columns(monkeypatch):
    """At p = 2^16, both degrees at one point evaluate the basis once, at the 8
    levels u = 1 keeps on d = 1 and O(sqrt D) columns, and the oracle gaps
    peak under 8 MB in tracemalloc (the full basis, D x 32, peaked at 99 MB)."""
    calls = []

    def counted(D, levels, columns, z):
        calls.append((D, levels, len(columns)))
        return torus_basis_columns(D, levels, columns, z)

    monkeypatch.setattr(spectral, "torus_basis_columns", counted)
    orb, bundle = build_catalog_orbifold("torus", d=1, k=2)
    D, z = 2 ** 16, 0.21 + 0.33j
    tracemalloc.start()
    try:
        gaps = [oracle_consistency(orb, bundle, z, 1.0, D, degree=q) for q in (0, 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(gaps) < 1e-12 and peak < 8e6, (gaps, peak)
    ((_, levels, columns),) = calls
    # two windows of 2 half + 2 columns, the translates' and their mirrors'
    half = math.ceil((math.sqrt(2 * levels + 1) + 9) / math.sqrt(2 * math.pi * D) * D)
    assert levels == 8 and columns <= 2 * (2 * half + 2) <= 22 * math.sqrt(D)


@pytest.mark.parametrize("u", [0.14, 0.5, 1.0, 7.0, 50.0, 200.0])
@pytest.mark.parametrize("d", [1, 3])
def test_the_kept_levels_are_those_above_2_to_the_minus_64(d, u):
    """Level K is the first whose weight e^{-2 pi d u K} relative to the lowest
    is below 2^-64, unless all 32 are kept; read from the level spacing, so at
    u = 200, where every weight above the lowest reads 0, one level is kept."""
    op0, op1 = ops_for(d, 2, 8)
    K = _kept_levels(op0, u)
    assert K == _kept_levels(op1, u)
    x = 2 * math.pi * d * u
    assert K == 32 or x * K > 64 * math.log(2) >= x * (K - 1)
    assert _kept_levels(op0, 200.0) == 1


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
    kernel, tail = heat_trace(op, 1.0)
    assert kernel == 8 and kernel + tail == pytest.approx(8.014967492789285, rel=1e-13)
