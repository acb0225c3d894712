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

Assembled operators and tables are immutable, so they are shared: each
(d, k, p, q, resolution) assembles one operator, at O(resolution) time and
memory independent of the power p, and each operator builds one table.  The
Landau basis does not depend on the degree, which enters the diagonal kernel
only through the swap sign and the eigenvalues, so the basis is evaluated once
per point, power and level count and kept as two per-level sums.  Every cache
is bounded and holds O(resolution) numbers per entry.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UnsupportedModelError

# entries per cache: a run holds a few dozen (p, q) pairs or (point, power)
# keys, and each entry is O(resolution) numbers
CACHE_SIZE = 128


@dataclass(frozen=True)
class SpectralTable:
    """Eigenvalues with multiplicities of the Kodaira Laplacian at power p."""

    p: int
    q: int
    eigenvalues: tuple          # sorted tuple of (lambda, multiplicity)
    resolution: int
    zero_dim: int

    def __post_init__(self):
        for lam, mult in self.eigenvalues:
            if lam < -1e-9:
                raise ValueError(f"negative eigenvalue {lam} in a positive operator")
            if not (isinstance(mult, (int, np.integer)) and mult > 0):
                raise ValueError(f"multiplicity {mult} must be a positive integer")

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "q", "lambda", "multiplicity"])
        for lam, mult in self.eigenvalues:
            writer.writerow([self.p, self.q, repr(float(lam)), mult])
        return buf.getvalue()


def heat_trace(table: SpectralTable, u):
    """Trace of exp(-u Laplacian / p) on degree-q forms from a spectral table.

    A level of more than 2^53 states is refused: the float sum could not hold
    its count, nor be told from the exact kernel dimension.
    """
    if u <= 0:
        raise ValueError("heat-trace time u must be positive")
    states = max((mult for _, mult in table.eigenvalues), default=0)
    if states > 2 ** 53:
        raise ConfigurationError(
            f"the heat trace at p={table.p} sums a level of {states} states, beyond "
            "2^53, the largest count a float holds exactly")
    return float(sum(mult * math.exp(-u * max(lam, 0.0) / table.p)
                     for lam, mult in table.eigenvalues))


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
    """Exact kernel dimension of the degree-q Laplacian on the torus quotient."""
    if q not in (0, 1):
        raise ValueError("torus models have degrees 0 and 1")
    D = d * p
    if d == 0:
        # trivial bundle: constants in degree 0; the antiholomorphic coframe
        # is anti-invariant under the half turn, so h^1 drops on the quotient
        return 1 if q == 0 else (1 if k == 1 else 0)
    if d < 0:
        # negative bundle: no sections, h^1 by duality (unquotiented torus)
        if k != 1:
            raise UnsupportedModelError("negative degrees ship without the quotient")
        return 0 if q == 0 else -D
    return 0 if q == 1 else _level_multiplicity(D, k, 0, 0)


@dataclass(frozen=True)
class TorusKodairaOperator:
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

    def level_eigenvalue(self, level):
        B = self.field_strength
        return B * (level + 1) if self.q == 1 else B * level

    def spectral_table(self):
        return _spectral_table(self)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _spectral_table(op):
    # level eigenvalues increase with the level, so the table is sorted
    eigs = tuple((op.level_eigenvalue(level), mult)
                 for level, mult in enumerate(op.multiplicities) if mult)
    # the kernel is exactly degree-0 level 0, the only eigenvalue 0.0
    zero_dim = sum(m for lam, m in eigs if lam == 0.0)
    return SpectralTable(p=op.p, q=op.q, eigenvalues=eigs,
                         resolution=op.resolution, zero_dim=zero_dim)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _torus_operator(d, k, p, q, resolution):
    mults = tuple(_level_multiplicity(d * p, k, level, q) for level in range(resolution))
    return TorusKodairaOperator(d=d, k=k, p=p, q=q, resolution=resolution,
                                multiplicities=mults)


def assemble_kodaira_laplacian(orb, bundle, p, q, resolution=32):
    """Discretized self-adjoint Kodaira Laplacian of a torus quotient.

    Returns the exact diagonal operator on the invariant subspace, the same
    object for the same (d, k, p, q, resolution); every other catalog entry
    is rejected.
    """
    if resolution < 1 or (resolution & (resolution - 1)) != 0:
        raise ConfigurationError(f"resolution {resolution} is not a power of two")
    if orb.catalog_id == "torus":
        d, k = orb.params["d"], orb.params["k"]
        if q not in (0, 1):
            raise ConfigurationError("torus models carry form degrees 0 and 1")
        if d <= 0:
            raise UnsupportedModelError(
                f"bundle degree d={d} has no magnetic Fourier basis; spectra require d >= 1")
        return _torus_operator(d, k, int(p), q, resolution)
    raise UnsupportedModelError(
        f"catalog id {orb.catalog_id!r} has no spectral discretization; weighted "
        "projective models use the exact cohomology tables and local models "
        "the closed-form kernels instead")


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
    out = np.empty((kmax + 1, t.size))
    out[0] = freq ** 0.25 * math.pi ** -0.25 * np.exp(-0.5 * s * s)
    if kmax >= 1:
        out[1] = math.sqrt(2.0) * s * out[0]
    for k in range(1, kmax):
        out[k + 1] = (math.sqrt(2.0 / (k + 1.0)) * s * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def _translate_window(x, D, B, levels):
    """First and last translate m whose levels < ``levels`` are above working precision at x."""
    spread = (math.sqrt(2.0 * levels + 1.0) + 9.0) / math.sqrt(B)
    return int(math.floor((x - spread) * D)), int(math.ceil((x + spread) * D))


def torus_basis_columns(D, levels, columns, z):
    """Values psi_{level, j}(z) of the Landau-gauge torus basis, j in ``columns``.

    Returns an array of shape (levels, len(columns)).  Each column sums its
    own translates m = j mod D in the window where the oscillator functions
    are above working precision, in increasing m, so a few columns cost the
    same at every D.
    """
    B = 2.0 * math.pi * D
    x, y = float(np.real(z)), float(np.imag(z))
    m_lo, m_hi = _translate_window(x, D, B, levels)
    js = np.asarray(columns, dtype=np.int64)
    ms = m_lo + (js - m_lo) % D + D * np.arange((m_hi - m_lo) // D + 1)[:, None]
    rows, cols = np.nonzero(ms <= m_hi)     # row-major: each column's m in increasing order
    m = ms[rows, cols]
    vals = np.zeros((levels, js.size), dtype=complex)
    # unbuffered, in that order: the same sums as a loop over the translates
    np.add.at(vals, (slice(None), cols),
              np.exp(2j * np.pi * m * y) * oscillator_functions(levels - 1, x - m / D, B))
    return vals


def torus_eigenfunction_values(op: TorusKodairaOperator, z, levels=None):
    """Values psi_{level, j}(z) at one point for every j, shape (levels, D)."""
    levels = levels if levels is not None else op.resolution
    return torus_basis_columns(op.D, levels, np.arange(op.D), z)


def torus_diagonal_kernel_spectral(op: TorusKodairaOperator, z, u):
    """Degree-``op.q`` diagonal heat kernel of exp(-u Lap / p) on the quotient.

    Spectral route: sums e^{-u lambda / p} over the torus basis of
    psi(z)^* times the group average of psi at z.  The half turn enters by
    its closed form psi_{kappa, j}(-z) = (-1)^kappa psi_{kappa, -j}(z), with
    the extra sign on ebar in degree one, so both degrees read the two
    per-level sums of one basis evaluation (``_level_sums``).  Exact up to
    the retained levels and floating-point rounding.
    """
    norms, swaps = _level_sums(op.d, op.p, op.resolution, complex(z))
    levels = np.arange(op.resolution)
    per_level = norms
    if op.k == 2:
        sign = (-1.0) ** (levels + op.q)
        per_level = per_level + sign * swaps
    return complex(np.sum(np.exp(-u * op.level_eigenvalue(levels) / op.p) * per_level))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _level_sums(d, p, levels, z):
    """Per-level sum_j |psi_{kappa, j}(z)|^2 and sum_j conj(psi_{kappa, j}(z)) psi_{kappa, -j}(z).

    The basis is that of the covering torus, the same for every quotient and
    degree; only these 2 x ``levels`` numbers are kept, never the basis of
    D = d p columns.  The arrays are read-only, since every caller shares them.
    """
    cover = _torus_operator(d, 1, p, 0, levels)
    psi = torus_eigenfunction_values(cover, z)
    swapped = psi[:, -np.arange(cover.D) % cover.D]
    sums = (np.sum(np.abs(psi) ** 2, axis=1), np.sum(np.conj(psi) * swapped, axis=1))
    for vec in sums:
        vec.flags.writeable = False
    return sums
