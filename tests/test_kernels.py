"""Closed-form kernel machinery against independent numerical oracles."""

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbmorse import kernels
from orbmorse.errors import DegenerateSpectrumError
from orbmorse.geometry import cyclic_group
from orbmorse.kernels import (ModelPoint, factor_minus, factor_plus, heat_diagonal_limit,
                              log_sum_exp, model_heat_kernel, signature_limit_density,
                              twisted_gaussian)

from scaled_fold import ZERO, add, fold, from_complex

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the index-density identity


def test_alternating_sum_identity_bulk():
    """sum_q (-1)^q tr_q = prod_j a_j / 2 pi for the limit density, 1000 random spectra.

    Per eigenvalue the degree-q subsets take a_j / (e^{u a_j} - 1) or
    a_j / (1 - e^{-u a_j}), whose difference is a_j and whose sum sets the scale.
    """
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, n)
        u = rng.uniform(0.1, 1.5)
        lhs = sum((-1.0) ** q * heat_diagonal_limit(ModelPoint(a, u), q).trace
                  for q in range(n + 1))
        rhs = np.prod(a / TWO_PI)
        scale = np.prod([(factor_plus(aj, u) + factor_minus(aj, u)) / (TWO_PI * u)
                         for aj in a])
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# stable eigenvalue factors


@pytest.mark.parametrize("u", [0.3, 1.0, 50.0])
def test_factor_series_matches_direct_in_switch_window(u):
    """Small nonzero |a| in [1e-7, 1e-4], where a series branch once took over,
    stays on the direct forms x / (1 - e^{-x}) and x / (e^x - 1) at every scale u."""
    rng = np.random.default_rng(7)
    mags = np.concatenate([rng.uniform(1e-7, 1e-4, 200),
                           [1.0000001e-7, 9.999999e-5]])
    for mag in mags:
        for a in (mag, -mag):
            x = u * a
            direct_plus = x / -np.expm1(-x)
            direct_minus = x / np.expm1(x)
            assert factor_plus(a, u) == pytest.approx(direct_plus, rel=1e-10)
            assert factor_minus(a, u) == pytest.approx(direct_minus, rel=1e-10)


def test_factor_functions_match_mpmath_at_small_x():
    """The direct forms stay at rounding error down to |x| = 1e-12, and are 1 at 0.

    Each x is reached as u * a with |a| = 1e-6, above the zero-mode branch;
    the reference takes the float product x itself, at 40 digits.
    """
    mags = np.geomspace(1e-12, 1e-4, 1001)
    xs = np.concatenate([mags, -mags])
    references = {
        "factor_plus": lambda x: x / -mpmath.expm1(-x),
        "factor_minus": lambda x: x / mpmath.expm1(x),
        "coth": lambda x: (x / 2) / mpmath.tanh(x / 2),
    }
    worst = dict.fromkeys(references, 0.0)
    with mpmath.workdps(40):
        for x in xs:
            u = abs(x) * 1e6
            a = x / u
            x_factor = u * a
            values = {"factor_plus": (factor_plus(a, u), x_factor),
                      "factor_minus": (factor_minus(a, u), x_factor),
                      "coth": (kernels._coth_even(x), x)}
            for name, (value, at) in values.items():
                exact = references[name](mpmath.mpf(float(at)))
                worst[name] = max(worst[name], float(abs(value - exact) / exact))
    assert all(w <= 1e-15 for w in worst.values()), worst
    assert factor_plus(0.0, 1.0) == factor_minus(0.0, 1.0) == 1.0
    assert kernels._coth_even(0.0) == 1.0


def _g1(x):
    """x / (1 - e^{-x}) in mpmath, 1 at 0."""
    return mpmath.mpf(1) if x == 0 else x / -mpmath.expm1(-x)


def _ulps(value, exact, scale=None):
    """|value - exact| in units of the last place of ``scale``, by default of
    ``exact`` as a float (the smallest subnormal where it rounds to 0)."""
    scale = float(exact) if scale is None else scale
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(scale)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-4.0, 4.0), u=st.floats(1e-6, 1e6))
@example(a=1.0, u=720.0)            # factor_minus subnormal, and overflowed at ua > 709
@example(a=-1.0, u=1e6)             # sinh of 5e5 overflowed the Mehler prefactor
@example(a=4.0, u=1e6)
@example(a=0.0, u=1.0)
@example(a=-3.3e-6, u=0.16)         # log(2 pi u) near 0
def test_flat_model_prefactors_match_mpmath_everywhere(a, u):
    """The Mehler coefficients and both factor functions are finite and within
    4 ulps of a 50-digit reference, for every a in [-4, 4] and u in [1e-6, 1e6].

    The reference takes x = u * a as the float product, as the functions do:
    the rounding of that product is an input error, amplified by the
    condition number |x| of e^{-|x|}, which no evaluation of the prefactor
    removes.  The Mehler shift log g1(x) - log(2 pi u) is a log, so an
    absolute error in it is a relative error of the prefactor: it is judged
    in ulps of 1, or of the sum of its two terms' sizes where that is larger.
    A zero mode, |a| <= ZERO_EIGENVALUE_TOL, has the factors 1 by convention.
    """
    x = u * a
    with mpmath.workdps(50):
        X, U = mpmath.mpf(x), mpmath.mpf(u)
        log_g1, log_2pi_u = mpmath.log(_g1(X)), mpmath.log(2 * mpmath.pi * U)
        rate = -((X / 2) / mpmath.tanh(X / 2) if x else 1) / (2 * U)
        zero_mode = abs(a) <= kernels.ZERO_EIGENVALUE_TOL
        expected = {"plus": 1 if zero_mode else _g1(X), "minus": 1 if zero_mode else _g1(-X)}
        shift, got_rate, twist = kernels._mehler_coefficients(a, u)
        values = [shift, got_rate, twist, factor_plus(a, u), factor_minus(a, u)]
        assert all(map(math.isfinite, values)), values
        scale = max(1.0, float(abs(log_g1) + abs(log_2pi_u)))
        errors = {"shift": _ulps(shift, log_g1 - log_2pi_u, scale),
                  "rate": _ulps(got_rate, rate), "twist": _ulps(twist, mpmath.mpf(a) / 2),
                  "plus": _ulps(values[3], expected["plus"]),
                  "minus": _ulps(values[4], expected["minus"])}
    assert max(errors.values()) <= 4.0, errors


def test_zero_mode_branch_is_exact_one():
    assert factor_plus(0.0, 2.0) == 1.0
    assert factor_minus(0.0, 2.0) == 1.0
    assert factor_plus(5e-8, 1.0) == 1.0


# ---------------------------------------------------------------------------
# diagonal limit density


def test_limit_density_zero_mode_convention():
    for u in (0.5, 1.0, 4.0):
        val = heat_diagonal_limit(ModelPoint((0.0,), u), 0).trace
        assert val == pytest.approx(1.0 / (TWO_PI * u), rel=1e-14)


def test_limit_density_unit_curvature_value():
    # 1 / (2 pi (1 - e^{-1})), frozen from the closed form
    val = heat_diagonal_limit(ModelPoint((1.0,), 1.0), 0).trace
    assert val == pytest.approx(0.25177941275449167, rel=1e-13)


def test_limit_density_positive_at_matching_signature():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
        q = int(np.sum(a < 0))
        assert heat_diagonal_limit(ModelPoint(tuple(a), 1.0), q).trace > 0


@pytest.mark.parametrize("a,q,expected", [
    ((1.0, 2.0), 0, 2.0 / TWO_PI**2),
    ((-1.0, 2.0), 0, 0.0),
    ((-1.0, 2.0), 1, 2.0 / TWO_PI**2),
])
def test_signature_limit_examples(a, q, expected):
    assert signature_limit_density(a, q) == pytest.approx(expected, abs=1e-15)


def test_signature_limit_rejects_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        signature_limit_density((0.0, 1.0), 0)


def test_limit_density_converges_monotonically_to_signature_limit():
    """|trace(u) - limit| decreases once u passes 10 / min |a_j|."""
    for a, q in [((1.0, 2.0), 0), ((-1.0, 2.0), 1), ((0.7,), 0)]:
        lim = signature_limit_density(a, q)
        u_star = 10.0 / min(abs(x) for x in a)
        us = np.linspace(u_star, u_star + 40.0, 12)
        diffs = [abs(heat_diagonal_limit(ModelPoint(a, u), q).trace - lim)
                 for u in us]
        assert all(b <= d + 1e-15 for d, b in zip(diffs, diffs[1:]))


# ---------------------------------------------------------------------------
# twisted Gaussian


def test_twist_is_one_at_origin():
    pt = ModelPoint((1.3,), 0.8, group_phases=(2.0,))
    assert twisted_gaussian(pt, np.array([0.0j])) == pytest.approx(1.0, abs=1e-15)


def test_twist_half_turn_flat_convention():
    # zero curvature, half turn: exp(-|g^{-1}Z - Z|^2 / (2u)) = exp(-2|z|^2 / u)
    for u, z in [(1.0, 0.7 + 0.2j), (0.5, 1.0 + 0.0j)]:
        pt = ModelPoint((0.0,), u, group_phases=(math.pi,))
        val = twisted_gaussian(pt, np.array([z]))
        assert val == pytest.approx(math.exp(-2.0 * abs(z) ** 2 / u), rel=1e-13)


def test_twist_matches_twisted_kernel_ratio():
    """E equals the twisted kernel over the diagonal prefactor, all sign cases."""
    rng = np.random.default_rng(3)
    for a in (-0.6, 0.0, 0.9):
        for phi in (math.pi, 2 * math.pi / 3, 0.4):
            u = float(rng.uniform(0.4, 1.6))
            z = complex(rng.normal(), rng.normal()) * 0.7
            pt = ModelPoint((a,), u, group_phases=(phi,))
            twisted = model_heat_kernel(pt, np.array([z]), np.array([z]))
            pref = heat_diagonal_limit(ModelPoint((a,), u), 0).trace
            assert twisted / pref == pytest.approx(twisted_gaussian(pt, np.array([z])),
                                                   rel=1e-12)


def test_twist_modulus_bound_and_decay():
    rng = np.random.default_rng(5)
    for _ in range(60):
        a = rng.uniform(0.0, 2.0)
        u = rng.uniform(0.2, 2.0)
        phi = rng.uniform(0.3, math.pi)
        z = complex(rng.normal(), rng.normal())
        pt = ModelPoint((a,), u, group_phases=(phi,))
        val = abs(twisted_gaussian(pt, np.array([z])))
        assert 0.0 < val <= 1.0
        if abs(z) > 1e-3:
            assert val < 1.0
        # x coth(x/2) >= 2, so the flat-model Gaussian envelope is an upper bound
        envelope = math.exp(-(1.0 - math.cos(phi)) * abs(z) ** 2 / u)
        assert val <= envelope + 1e-12


def test_a_copied_model_point_is_checked_again():
    """``_replace`` and ``_make`` build through the point's checks: u > 0, one
    phase per eigenvalue, and the eigenvalues and phases as floats."""
    pt = ModelPoint((1, 2), 1.0, group_phases=(0, 1))
    assert pt.eigenvalues == (1.0, 2.0) and pt.group_phases == (0.0, 1.0)
    assert all(type(x) is float for x in pt.eigenvalues + pt.group_phases)
    with pytest.raises(ValueError, match="positive"):
        pt._replace(u=0.0)
    with pytest.raises(ValueError, match="one group phase"):
        ModelPoint._make(((1.0, 2.0), 1.0, (0.5,)))
    with pytest.raises(ValueError, match="one group phase"):
        pt._replace(eigenvalues=(1.0,))
    copied = pt._replace(eigenvalues=[3, 4])
    assert type(copied) is ModelPoint and copied.eigenvalues == (3.0, 4.0)


def test_twist_requires_group_element():
    with pytest.raises(ValueError):
        twisted_gaussian(ModelPoint((1.0,), 1.0), np.array([0.1j]))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 12), weights=st.lists(st.integers(0, 11), min_size=1, max_size=3),
       a=st.lists(st.sampled_from([-2.5, -0.4, 0.0, 0.7, 1.0, 3.0]), min_size=3, max_size=3),
       u=st.floats(0.1, 10.0),
       point=st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                         allow_infinity=False), min_size=3, max_size=3))
def test_each_row_of_the_batch_twist_is_its_normal_block_twist(k, weights, a, u, point):
    """A coordinate an element fixes has phase 0 and adds exactly 0 to its row,
    so each row's exponential is twisted_gaussian on the element's normal block
    alone, bit for bit, and each exponent is the scalar sum over the moved
    coordinates, taken with cmath, within rounding of its terms."""
    assume(math.gcd(k, *weights) == 1)
    n = len(weights)
    group = cyclic_group(k, weights)[1:]
    phases = np.angle([g.rotation for g in group])
    Z, a = np.array(point[:n]), np.array(a[:n])
    exponents = kernels.twisted_exponents(a.tolist(), u, phases, Z)
    for g, expo, phase in zip(group, exponents.tolist(), phases):
        normal = ~g.fixed
        pt = ModelPoint(tuple(a[normal]), u, tuple(phase[normal]))
        assert complex(np.exp(expo)) == twisted_gaussian(pt, Z[normal])
        terms = [abs(z) ** 2 / (2.0 * u) * (factor_plus(aj, u) * (cmath.exp(-1j * phi) - 1)
                                            + factor_minus(aj, u) * (cmath.exp(1j * phi) - 1))
                 for aj, phi, z in zip(a[normal].tolist(), phase[normal].tolist(),
                                       Z[normal].tolist())]
        assert abs(expo - sum(terms)) <= 1e-14 * sum(map(abs, terms))


# ---------------------------------------------------------------------------
# Mehler kernel


def test_kernel_diagonal_origin_equals_limit_prefactor():
    for a, u, q in [((1.0,), 1.0, 0), ((0.5, -1.2), 0.6, 0)]:
        pt = ModelPoint(a, u)
        ker = model_heat_kernel(pt, np.zeros(len(a)), np.zeros(len(a)))
        lim = heat_diagonal_limit(pt, 0)
        assert ker == pytest.approx(lim.diagonal[0], rel=1e-14)
        assert abs(ker.imag) < 1e-16


def test_kernel_flat_reduces_to_gaussian():
    u = 0.8
    pt = ModelPoint((0.0,), u)
    z, zp = 0.3 + 0.1j, -0.2 + 0.5j
    ker = model_heat_kernel(pt, np.array([z]), np.array([zp]))
    expected = math.exp(-abs(z - zp) ** 2 / (2 * u)) / (TWO_PI * u)
    assert ker == pytest.approx(expected, rel=1e-14)


def test_kernel_semigroup_by_convolution():
    """Composition exp(-sL) exp(-tL) = exp(-(s+t)L) by 2-d quadrature."""
    for a in (0.9, -0.7, 0.0):
        s, t = 0.45, 0.75
        z0, z1 = 0.4 + 0.3j, -0.5 + 0.2j
        R, N = 9.0, 241
        g = np.linspace(-R, R, N)
        h = g[1] - g[0]
        W = (g[None, :] + 1j * g[:, None]).ravel()
        pt_s = ModelPoint((a,), s)
        pt_t = ModelPoint((a,), t)
        pt_st = ModelPoint((a,), s + t)
        left = np.array([model_heat_kernel(pt_s, np.array([z0]), np.array([w]))
                         for w in W])
        right = np.array([model_heat_kernel(pt_t, np.array([w]), np.array([z1]))
                          for w in W])
        conv = np.sum(left * right) * h * h
        target = model_heat_kernel(pt_st, np.array([z0]), np.array([z1]))
        assert abs(conv - target) / abs(target) < 1e-4


# ---------------------------------------------------------------------------
# grid oracle for the local model

GRID_WEIGHT_CUTOFF = 1e-14


@dataclass
class LocalModelGridOperator:
    """Magnetic finite-difference Laplacian on a truncated grid (oracle).

    Discretizes H = (1/2)(-i grad - A)^2 in the symmetric gauge with Peierls
    link phases; the model operator on degree q is H - tau/2 + q * a.  The
    grid is truncated where the ground Gaussian weight drops below 1e-14,
    with reflecting (natural) boundary.
    """

    a: float
    q: int
    p: int
    spacing: float
    points: np.ndarray
    hamiltonian: scipy.sparse.spmatrix

    @classmethod
    def build(cls, a, resolution=256, q=0, p=1, radius=None):
        n_side = int(resolution)
        if radius is None:
            radius = math.sqrt(4.0 * -math.log(GRID_WEIGHT_CUTOFF) / max(abs(a), 1e-2))
        h = 2.0 * radius / (n_side - 1)
        axis = -radius + h * np.arange(n_side)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        pts = (X + 1j * Y).ravel()
        N = n_side * n_side

        def idx(i, j):
            return i * n_side + j

        diag = np.full(N, 2.0 / h**2)
        rows, cols, vals = [], [], []
        B = a
        for i in range(n_side):
            for j in range(n_side):
                here = idx(i, j)
                if i + 1 < n_side:
                    mid_y = Y[i, j]
                    theta = (-0.5 * B * mid_y) * h      # A_x = -B y / 2
                    rows += [here, idx(i + 1, j)]
                    cols += [idx(i + 1, j), here]
                    t = -np.exp(1j * theta) / (2.0 * h**2)
                    vals += [t, np.conj(t)]
                if j + 1 < n_side:
                    mid_x = X[i, j]
                    theta = (0.5 * B * mid_x) * h       # A_y = B x / 2
                    rows += [here, idx(i, j + 1)]
                    cols += [idx(i, j + 1), here]
                    t = -np.exp(1j * theta) / (2.0 * h**2)
                    vals += [t, np.conj(t)]
        Hmat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()
        Hmat = Hmat + scipy.sparse.diags(diag)
        shift = -0.5 * a + q * a
        Hmat = Hmat + scipy.sparse.identity(N) * shift
        return cls(a=a, q=q, p=p, spacing=h, points=pts, hamiltonian=Hmat)

    def nearest_index(self, z):
        return int(np.argmin(np.abs(self.points - complex(z))))

    def heat_kernel_column(self, u, source):
        """Column K(., source) of exp(-u L) as a density (1/spacing^2 scaled)."""
        j = self.nearest_index(source)
        e = np.zeros(self.points.size)
        e[j] = 1.0 / self.spacing**2
        col = scipy.sparse.linalg.expm_multiply(-u * self.hamiltonian.tocsc(),
                                                e.astype(complex))
        return col

    def heat_kernel_value(self, u, z, source):
        col = self.heat_kernel_column(u, source)
        return complex(col[self.nearest_index(z)])


@pytest.mark.slow
def test_kernel_against_grid_semigroup_oracle():
    """Finite-difference magnetic operator reproduces the closed forms."""
    a, u = 1.0, 1.0
    op = LocalModelGridOperator.build(a, resolution=192, q=0)
    src = 1.0 + 0.0j
    col = op.heat_kernel_column(u, src)
    zs = op.points[op.nearest_index(src)]
    pt = ModelPoint((a,), u)
    diag = col[op.nearest_index(src)]
    diag_exact = model_heat_kernel(pt, np.array([zs]), np.array([zs]))
    assert abs(diag - diag_exact) / abs(diag_exact) < 2e-2
    twist_grid = col[op.nearest_index(-zs)]
    twist_exact = model_heat_kernel(
        ModelPoint((a,), u, group_phases=(math.pi,)),
        np.array([zs]), np.array([zs]))
    assert abs(twist_grid - twist_exact) / abs(twist_exact) < 5e-3


# ---------------------------------------------------------------------------
# log-scaled accumulation


def test_log_sum_exp_matches_the_pairwise_fold():
    x = from_complex(3.0 - 4.0j)
    assert cmath.rect(math.exp(x[0]), x[1]) == pytest.approx(3.0 - 4.0j)
    tiny = (-5000.0, 0.3)
    combined = add(tiny, (-5001.0, 0.3))
    assert combined[0] == pytest.approx(-5000.0 + math.log(1 + math.exp(-1)), rel=1e-12)
    log_scale, mantissa = log_sum_exp(np.array([-5000.0, -5001.0]), np.array([0.3, 0.3]))
    assert log_scale == pytest.approx(combined[0], rel=1e-15)
    assert cmath.phase(mantissa) == pytest.approx(combined[1], abs=1e-15)
    assert add(from_complex(0.0), x) == x and from_complex(0.0) == ZERO


def test_log_sum_exp_batches_and_empty_sums():
    log_abs = np.array([[-5000.0, -5001.0, -np.inf], [0.0, np.log(2.0), -1e4]])
    phase = np.array([[0.3, 0.3, 1.0], [0.0, np.pi, 0.5]])
    log_scale, mantissa = log_sum_exp(log_abs, phase)
    for row in range(2):
        one_scale, one_mantissa = log_sum_exp(log_abs[row], phase[row])
        assert one_scale == log_scale[row] and one_mantissa == mantissa[row]
        folded = fold(zip(range(3), log_abs[row], phase[row]))
        assert log_scale[row] == pytest.approx(folded[0], rel=0, abs=1e-12)
        assert abs(np.angle(mantissa[row] * np.exp(-1j * folded[1]))) <= 1e-9
    assert log_scale[0] == pytest.approx(-5000.0 + math.log(1 + math.exp(-1)), rel=1e-12)
    assert np.angle(mantissa[0]) == pytest.approx(0.3, abs=1e-12)
    assert log_scale[1] == pytest.approx(0.0, abs=1e-12)      # 1 - 2 = -1
    assert abs(mantissa[1] + 1.0) < 1e-12
    for empty in (np.zeros(0), np.array([-np.inf, -np.inf])):
        zero_scale, zero_mantissa = log_sum_exp(empty, np.zeros_like(empty))
        assert zero_scale == -math.inf and zero_mantissa == 0
        # the kernels read a sum as mantissa * exp(log_scale)
        assert complex(zero_mantissa) * math.exp(zero_scale) == 0
