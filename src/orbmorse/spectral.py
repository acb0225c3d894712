"""Discretized Kodaira Laplacians on the flat torus quotients.

Torus models are assembled in the magnetic Fourier basis: for bundle degree
d and power p, the plane Landau levels descend to the square torus with
exactly D = d p states per level,

    psi_{kappa, j}(x, y) = sum_{m = j mod D} e^{2 pi i m y} phi_kappa(x - m/D),

where phi_kappa are oscillator eigenfunctions of frequency B = 2 pi D.  In
this basis the Laplacian on functions is exactly diagonal with eigenvalues
B kappa, the dbar operator is the explicit lowering map
dbar psi_{kappa, j} = sqrt(B kappa) psi_{kappa-1, j} ebar (with ebar the unit
antiholomorphic coframe), and the half-turn z -> -z acts by

    R psi_{kappa, j} = (-1)^kappa psi_{kappa, -j},

picking up an extra sign on ebar in degree one.  The quotient operator is the
restriction to the invariant subspace; "resolution" counts retained levels.
The invariant states of a level are the +1 eigenvectors of the signed swap
v_j -> s v_{-j}, s = (-1)^kappa (times -1 in degree one): pairs
(v_j + s v_{-j}) / sqrt(2) for j != -j mod D, plus v_j itself at the
f in {1, 2} fixed translates when s = +1.  The multiplicity of a level is
therefore D for k = 1 and (D + s f) / 2 for k = 2, and it is all this module
keeps: dbar lowers degree-0 level kappa onto degree-1 level kappa - 1, which
carries the same swap sign, as sqrt(B kappa) times the identity on the
invariant states, so its rank between matched levels is the multiplicity.

Only the torus quotients are assembled: weighted projective models take
their cohomology from exact lattice counts, and the local models C/Z_k
from their closed-form heat kernels (the magnetic grid operator that checks
those kernels by brute force lives with the kernel tests).

Assembled operators are immutable, so they are shared: each
(d, k, p, q, resolution) assembles one operator, at O(resolution) time and
memory independent of the power p, and the operator is the spectrum: heat
traces and the spectrum CSV read its multiplicities level by level.  A heat
trace is the exact int kernel dimension plus the float tail of the levels
above it.  The Landau heat weights e^{-u lambda / p} are built in one table
per operator and time, ``_level_weights``, which the heat trace, the exact
trace chain and the diagonal kernel read.  The Landau basis does not depend on
the degree, which enters the diagonal kernel only through the swap sign and the
eigenvalues, so the basis is evaluated once per point, bundle degree D = d p
and kept-level count K, and kept as two per-level sums.  K counts the levels
whose heat weight is within 2^-64 of the lowest (``_kept_levels``), and only
the O(sqrt(D)) columns that the window's translates hit are evaluated.  Every
cache is bounded: an operator or weight-table entry holds O(resolution)
numbers, a basis-sum entry O(K).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, UnsupportedModelError, _at_least, _bounded, _degree,
                     _integer, _positive)

# entries per cache: a run holds a few dozen (p, q) pairs or (point, power)
# keys, and each entry is O(resolution) numbers at most
CACHE_SIZE = 128
# the largest spectral resolution, Landau levels enough for u >= 7e-5 / d: ``orbmorse
# all`` on the torus {d 1, k 2} at p_list [4, 8] takes 1.2 s, 59 MB RSS and 6.4 MB of
# spectrum files at 2^16, and 13 s, 380 MB and 102 MB at 2^20; 2^40 fills the memory
SPECTRAL_RESOLUTION_MAX = 2 ** 16
# log of the margin 2^64: the diagonal kernel leaves out every Landau level
# whose heat weight is below 2^-64 of the lowest level's
KEPT_WEIGHT_LOG = 64.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# exact torus assembly


def _level_multiplicity(D, k, level, q):
    """Number of invariant states of one Landau level in degree q.

    All D states for k = 1; on the half-turn quotient the +1 eigenspace of
    the signed swap v_j -> s v_{-j} on C^D, of dimension (D + s f) / 2.
    """
    if k == 1:
        return D
    sign = (-1) ** level * (-1 if q == 1 else 1)
    fixed = 2 if D % 2 == 0 else 1      # translates with j = -j mod D
    return (D + sign * fixed) // 2


def torus_kernel_dimension(d, k, p, q):
    """Exact kernel dimension of the degree-q Laplacian on the torus quotient,
    from the bundle degree D = d p alone, without the Landau multiplicities it
    checks: the half turn keeps (2 D + 3 + (-1)^D) // 4 of D > 0 sections, the
    count of its four fixed points (Kawasaki 1979)."""
    _degree(q, 1)
    D = d * _integer("power p", p)
    if D > 0:
        return 0 if q == 1 else (D if k == 1 else (2 * D + 3 + (-1) ** D) // 4)
    if D == 0:
        # trivial bundle: constants in degree 0; the antiholomorphic coframe
        # is anti-invariant under the half turn, so h^1 drops on the quotient
        return 1 if q == 0 else (1 if k == 1 else 0)
    # negative bundle: no sections, h^1 by duality (unquotiented torus)
    if k != 1:
        raise UnsupportedModelError("negative degrees ship without the quotient")
    return 0 if q == 0 else -D


class TorusKodairaOperator(NamedTuple):
    """Kodaira Laplacian of a torus quotient in the exact Landau basis.

    The operator is diagonal in the invariant states, level by level.
    ``multiplicities[level]`` is the number of invariant states of that
    level: D for k = 1, (D +- f) / 2 for the half-turn quotient.
    """

    d: int
    k: int
    p: int
    q: int
    resolution: int
    multiplicities: tuple

    @property
    def field_strength(self):
        return 2.0 * math.pi * self.d * self.p

    @property
    def D(self):
        return self.d * self.p

    @property
    def zero_dim(self):
        """Kernel dimension: degree-0 level 0 holds the only eigenvalue 0."""
        return self.multiplicities[0] if self.q == 0 else 0

    def level_eigenvalue(self, level):
        B = self.field_strength
        return B * (level + 1) if self.q == 1 else B * level

    def spectral_table(self):
        """(lambda, multiplicity) of the levels with states, in increasing lambda."""
        return tuple((self.level_eigenvalue(level), mult)
                     for level, mult in enumerate(self.multiplicities) if mult)


def heat_trace(op: TorusKodairaOperator, u):
    """Trace of exp(-u Laplacian / p) on the operator's degree-q forms, split
    exactly as the pair (kernel, tail).

    ``kernel`` is the int ``op.zero_dim``, the states of eigenvalue 0, whose
    weight is 1 at every u.  ``tail`` is the float sum of m e^{-u lambda / p}
    over the levels of positive eigenvalue, in increasing lambda, read from
    the weight table ``_level_weights``.  It decays in u, and no level count
    rounds into the kernel, however many states a level holds.
    """
    _positive("heat-trace time u", u)
    weights, _ = _level_weights(op, u)
    above = 1 - op.q        # degree-0 level 0 is the kernel; every degree-1 level is above it
    return op.zero_dim, float(sum(m * w for m, w in zip(op.multiplicities[above:],
                                                        weights[above:].tolist())))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _torus_operator(d, k, p, q, resolution):
    mults = tuple(_level_multiplicity(d * p, k, level, q) for level in range(resolution))
    return TorusKodairaOperator(d=d, k=k, p=p, q=q, resolution=resolution,
                                multiplicities=mults)


def _torus(orb, q=0):
    """(d, k) of a torus quotient in form degree q; refuses other models and degrees."""
    torus = orb.oracle("torus", (
        f"catalog id {orb.catalog_id!r} has no spectral discretization or deck "
        "transformations; weighted projective models use the exact cohomology "
        "tables and local models the closed-form kernels instead"))
    _degree(q, 1)
    return torus


def assemble_kodaira_laplacian(orb, bundle, p, q, resolution=32):
    """Discretized self-adjoint Kodaira Laplacian of a torus quotient.

    Returns the exact diagonal operator on the invariant subspace, the same
    object for the same (d, k, p, q, resolution); every other catalog entry
    and a resolution not a power of two in 1..SPECTRAL_RESOLUTION_MAX are rejected.
    """
    resolution = _bounded("spectral resolution", resolution, 1, SPECTRAL_RESOLUTION_MAX)
    if resolution & (resolution - 1):
        raise ConfigurationError(f"resolution {resolution} is not a power of two")
    d, k = _torus(orb, q)
    p = _at_least("power p", p, 1)
    if d <= 0:
        raise UnsupportedModelError(
            f"bundle degree d={d} has no magnetic Fourier basis; spectra require d >= 1")
    return _torus_operator(d, k, p, q, resolution)


# ---------------------------------------------------------------------------
# eigenfunction values (diagonal-kernel cross checks, Kodaira map sections)


def oscillator_functions(kmax, t, freq):
    """Normalized oscillator eigenfunctions phi_0..phi_kmax at points t.

    Frequency-``freq`` oscillator: phi_k solves (1/2)(-phi'' + freq^2 t^2 phi)
    = freq (k + 1/2) phi, orthonormal on the line.  Stable normalized
    recurrence; returns an array of shape (kmax + 1, len(t)).
    """
    t = np.asarray(t, dtype=float)
    s = math.sqrt(freq) * t
    # rows phi_{-1} = 0, phi_0, ..., phi_kmax: each level one pair product, one difference
    out = np.zeros((kmax + 2, t.size))
    np.multiply(freq ** 0.25 * math.pi ** -0.25, np.exp(-0.5 * s * s), out=out[1])
    k = np.arange(kmax, dtype=float)[:, None]
    factors = np.empty((kmax, 2, t.size))
    factors[:, 0] = np.sqrt(k / (k + 1.0))
    np.multiply(np.sqrt(2.0 / (k + 1.0)), s, out=factors[:, 1])
    pair = np.empty((2, t.size))
    low, high = pair
    for k, (factor, row) in enumerate(zip(factors, out[2:])):
        np.multiply(factor, out[k:k + 2], pair)
        np.subtract(high, low, row)
    return out[1:]


def _window(D, levels, z):
    """(X, F, c, half) of the translate window at z: x = X / F exactly, the
    nearest translate c = floor(x D), and the half-width ``half`` in translates
    beyond which the oscillator functions of ``levels`` levels are below
    working precision.  The window is m = c + r, -half <= r <= half + 1."""
    X, F = complex(z).real.as_integer_ratio()
    B = 2.0 * math.pi * D
    return X, F, X * D // F, math.ceil((math.sqrt(2.0 * levels + 1.0) + 9.0) / math.sqrt(B) * D)


def torus_basis_columns(D, levels, columns, z):
    """Values psi_{level, j}(z) of the Landau-gauge torus basis, j in ``columns``.

    Returns an array of shape (levels, len(columns)).  Each column sums its
    own translates m = j mod D in the window where the oscillator functions
    are above working precision (``_window``), in increasing m, so a few
    columns cost the same at every D.  Row r of a zero-padded (rows, columns,
    levels) grid holds each column's r-th translate, zero past the window's
    end, and the rows are added one at a time into the first: the same sums,
    in the same order, as a loop over the translates.

    The window, each translate's phase m y mod 1 and its argument x - m / D
    are exact in integers, each rounded once, at every D: m = c + r about
    c = floor(x D), with r an int64 offset.  ``columns`` are ints in 0..D-1,
    Python ints in an object array where D leaves int64.
    """
    B = 2.0 * math.pi * D
    y = complex(z).imag
    X, F, c, half = _window(D, levels, z)
    first = (np.asarray(columns) - (c - half) % D) % D - half
    rs = first + D * np.arange((2 * half + 1) // D + 1, dtype=first.dtype)[:, None]
    inside = rs <= half + 1
    r = rs[inside].astype(np.int64)
    # y = Y 2^-64 + rest with 0 <= rest < 2^-64: m Y mod 2^64 wraps in uint64
    Y = math.floor(math.ldexp(y, 64))
    rest = math.ldexp(math.ldexp(y, 64) - Y, -64)
    turns = r.astype(np.uint64) * (Y % 2 ** 64) + (c * Y) % 2 ** 64
    phase = turns * 2.0 ** -64 + (r + float(c)) * rest
    t = (X * D - c * F) / (F * D) - r / float(D)
    values = np.exp(2j * np.pi * phase) * oscillator_functions(levels - 1, t, B)
    terms = np.zeros(rs.shape + (levels,), dtype=complex)
    terms[inside] = values.T
    # 0 + term, as a sum from zero starts: a -0.0 in the first row reads +0.0,
    # and later rows add to sums that are not -0.0, which no later sum tells apart
    vals = terms[0] + 0.0
    for row in terms[1:]:
        vals += row
    return vals.T.copy()


def torus_eigenfunction_values(op: TorusKodairaOperator, z):
    """Values psi_{level, j}(z) at one point for every level and j, shape
    (op.resolution, D)."""
    return torus_basis_columns(op.D, op.resolution, np.arange(op.D), z)


def torus_diagonal_kernel_spectral(op: TorusKodairaOperator, z, u):
    """Degree-``op.q`` diagonal heat kernel of exp(-u Lap / p) on the quotient.

    Spectral route: sums e^{-u lambda / p} over the torus basis of
    psi(z)^* times the group average of psi at z.  The half turn enters by
    its closed form psi_{kappa, j}(-z) = (-1)^kappa psi_{kappa, -j}(z), with
    the extra sign on ebar in degree one, so both degrees read the two
    per-level sums of one basis evaluation (``_level_sums``).

    Only the levels 0..K-1 that ``_kept_levels`` keeps are evaluated, and
    of each only the columns the window's translates hit, with their
    mirrors: O(K sqrt(D)) time and memory, not O(resolution D).  A level's
    sums are at most D in modulus (its projector's diagonal is D, and the
    swap sum is bounded by the norm sum), so the left-out levels add less
    than 2 D w_0 2^-64 / (1 - e^{-2 pi d u}) to the kernel, w_0 the lowest
    level's weight: under 2^-63 of the identity term D w_0 / (1 - e^{-2 pi d u}).
    Exact up to that bound, the retained levels and floating-point rounding.
    """
    _positive("kernel time u", u)
    kept = _kept_levels(op, u)
    # the left-out levels read 0, so the sum over the operator's levels keeps its grouping
    norms, swaps = np.zeros(op.resolution), np.zeros(op.resolution, dtype=complex)
    norms[:kept], swaps[:kept] = _level_sums(op.D, kept, complex(z))
    weights, sign = _level_weights(op, u)
    return complex((weights * (norms + sign * swaps if op.k == 2 else norms)).sum())


def _kept_levels(op, u):
    """K <= op.resolution: level K is the first whose heat weight, like every
    weight above it, is below 2^-64 of the lowest level's, e^{-x K} < 2^-64
    with x = 2 pi d u the level spacing of u lambda / p.  Read from x, not
    from the weight table, whose entries underflow to zero at large u."""
    reach = KEPT_WEIGHT_LOG / (2.0 * math.pi * op.d * u)
    return op.resolution if reach >= op.resolution else math.floor(reach) + 1


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _level_weights(op, u):
    """The heat weights e^{-u lambda / p} and half-turn signs (-1)^(level + q)
    of the levels of ``op``, shared by every call at (op, u), which only reads
    them: the one table of Landau heat weights that the heat trace, the
    exact trace chain and the diagonal kernel read."""
    levels = np.arange(op.resolution)
    return np.exp(-u * op.level_eigenvalue(levels) / op.p), (-1.0) ** (levels + op.q)


def _window_columns(D, c, half):
    """The columns j = c + r mod D of the window about the translate c,
    -half <= r <= half + 1, and their negatives -j mod D, in increasing j.

    Both are cyclic runs of 2 half + 2 residues, so the set is at most four
    integer intervals, merged and emitted in order; where 2 half + 2 >= D it
    is every column.
    """
    width = 2 * half + 2
    if width >= D:
        return np.arange(D)
    runs = []
    for start in ((c - half) % D, (-c - half - 1) % D):
        end = start + width
        runs.append((start, min(end, D)))
        if end > D:     # a run that wraps past D is two intervals
            runs.append((0, end - D))
    merged = []
    for low, high in sorted(runs):
        if merged and low <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], high)
        else:
            merged.append([low, high])
    return np.concatenate([np.arange(low, high) for low, high in merged])


def _mirrors(columns):
    """The index of each column's mirror -j mod D in ``columns``, a set of
    ``_window_columns``.  The set is closed under j -> -j mod D, which fixes 0
    and reverses the rest in order, so of n columns index i mirrors to n - i
    when 0 is among them (0 to itself), and to n - 1 - i when it is not."""
    n = columns.size
    return (-np.arange(n) - (columns[0] != 0)) % n


@functools.lru_cache(maxsize=CACHE_SIZE)
def _level_sums(D, levels, z):
    """Per-level sum_j |psi_{kappa, j}(z)|^2 and sum_j conj(psi_{kappa, j}(z)) psi_{kappa, -j}(z).

    The basis is that of the covering torus, the same for every quotient and
    degree of bundle degree D = d p.  Only the columns j = c + r mod D of the
    window (``_window``) hold a non-zero value, and the swap sum pairs each
    with its mirror -j mod D, so the basis is evaluated at those columns and
    their mirrors alone, in increasing j; where D <= 2 half + 2 that is every
    column in order.  ``_window_columns`` builds them and ``_mirrors`` pairs
    each with its mirror, by index arithmetic alone: no sort and no search.
    Only these 2 x ``levels`` numbers are kept.  The arrays are read-only,
    since every caller shares them.
    """
    _, _, c, half = _window(D, levels, z)
    columns = _window_columns(D, c, half)
    psi = torus_basis_columns(D, levels, columns, z)
    # psi is conjugated in place once the norms have read it: one large buffer
    # fewer for the allocator to hand back and fault in again at the next call
    swapped = psi[:, _mirrors(columns)]
    sums = (np.add.reduce(abs(psi) ** 2, axis=1),
            np.add.reduce(np.conjugate(psi, out=psi) * swapped, axis=1))
    for vec in sums:
        vec.flags.writeable = False
    return sums
