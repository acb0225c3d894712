"""Discretized Kodaira Laplacians on flat catalog models.

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
therefore D for k = 1 and (D + s f) / 2 for k = 2, which is all the spectral
tables need; the explicit swap bases are built only by ``dbar_matrix`` (and
so ``eigencomplex_check``), level by level, when it is called.

Local models C/Z_k are discretized on a truncated grid with magnetic link
phases; that operator is only used as a brute-force oracle for the
closed-form kernels.

Assembled operators and tables are immutable and torus assembly costs
O(resolution) time and memory, independent of the power p.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConfigurationError, UnsupportedModelError

SPECTRAL_GAP_FLOOR = 1e-8
SPECTRAL_GAP_MEDIAN_FACTOR = 1e-6
CLUSTER_RELATIVE_GAP = 1e-6
GRID_WEIGHT_CUTOFF = 1e-14


def spectral_gap_threshold(positive_eigs):
    """Threshold separating numerical kernel from genuine positive modes."""
    pos = np.asarray([x for x in positive_eigs if x > 0.0], dtype=float)
    if pos.size == 0:
        return SPECTRAL_GAP_FLOOR
    return max(SPECTRAL_GAP_FLOOR, SPECTRAL_GAP_MEDIAN_FACTOR * float(np.median(pos)))


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
    """Trace of exp(-u Laplacian / p) on degree-q forms from a spectral table."""
    if u <= 0:
        raise ValueError("heat-trace time u must be positive")
    return float(sum(mult * math.exp(-u * max(lam, 0.0) / table.p)
                     for lam, mult in table.eigenvalues))


def morse_sum_vs_trace(tables, u, h_dims):
    """Residuals r_q = sum_{j<=q} (-1)^(q-j) (trace_j - h^j) for q = 0..n.

    The exact inequality chain demands r_q >= 0 for every q and r_n = 0.
    """
    ps = {t.p for t in tables}
    if len(ps) != 1:
        raise ConfigurationError(f"tables mix tensor powers {sorted(ps)}")
    traces = [heat_trace(t, u) for t in tables]
    if len(h_dims) != len(tables):
        raise ConfigurationError("one cohomology dimension per degree is required")
    residuals = []
    for q in range(len(tables)):
        r = sum((-1) ** (q - j) * (traces[j] - h_dims[j]) for j in range(q + 1))
        residuals.append(float(r))
    return residuals


# ---------------------------------------------------------------------------
# exact torus assembly


def _swap_sign(level, q):
    """Sign s of the half-turn v_j -> s v_{-j} on the level-``level`` states."""
    return (-1) ** level * (-1 if q == 1 else 1)


def _swap_multiplicity(D, sign):
    """Dimension of the +1 eigenspace of v_j -> sign * v_{-j} on C^D."""
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
    if q == 1:
        return 0
    if k == 1:
        return D
    return _swap_multiplicity(D, 1)


def _invariant_basis(D, sign):
    """Orthonormal basis of the +1 eigenspace of v_j -> sign * v_{-j} on C^D.

    Returns an array of shape (m, D) whose rows are the invariant vectors.
    """
    rows = []
    seen = set()
    for j in range(D):
        jj = (-j) % D
        if j in seen:
            continue
        seen.add(j)
        seen.add(jj)
        e = np.zeros(D)
        if j == jj:
            if sign > 0:
                e[j] = 1.0
                rows.append(e)
        else:
            if sign > 0:
                e[j] = e[jj] = 1.0 / math.sqrt(2.0)
            else:
                e[j] = 1.0 / math.sqrt(2.0)
                e[jj] = -1.0 / math.sqrt(2.0)
            rows.append(e)
    if not rows:
        return np.zeros((0, D))
    return np.vstack(rows)


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

    def matrix(self):
        """Dense Hermitian matrix on the invariant subspace (diagonal)."""
        diag = []
        for level, mult in enumerate(self.multiplicities):
            diag.extend([self.level_eigenvalue(level)] * mult)
        return np.diag(np.array(diag))

    def invariant_multiplicity(self, level):
        return self.multiplicities[level]

    def spectral_table(self):
        eigs = []
        for level in range(self.resolution):
            mult = self.invariant_multiplicity(level)
            if mult:
                eigs.append((self.level_eigenvalue(level), mult))
        eigs.sort()
        thr = spectral_gap_threshold([lam for lam, _ in eigs])
        zero_dim = sum(m for lam, m in eigs if lam <= thr)
        return SpectralTable(p=self.p, q=self.q, eigenvalues=tuple(eigs),
                             resolution=self.resolution, zero_dim=zero_dim)


def assemble_kodaira_laplacian(orb, bundle, p, q, resolution=32):
    """Discretized self-adjoint Kodaira Laplacian of a flat catalog model.

    Torus quotients return the exact diagonal operator on the invariant
    subspace; local models return the magnetic grid operator.  Non-flat
    models are rejected.
    """
    if resolution < 1 or (resolution & (resolution - 1)) != 0:
        raise ConfigurationError(f"resolution {resolution} is not a power of two")
    if orb.catalog_id == "torus":
        d, k = orb.params["d"], orb.params["k"]
        if q not in (0, 1):
            raise ConfigurationError("torus models carry form degrees 0 and 1")
        if d == 0:
            raise ConfigurationError(
                "the trivial bundle has no magnetic Fourier basis; spectra require d >= 1")
        D = d * int(p)
        mults = tuple(D if k == 1 else _swap_multiplicity(D, _swap_sign(level, q))
                      for level in range(resolution))
        return TorusKodairaOperator(d=d, k=k, p=int(p), q=q,
                                    resolution=resolution, multiplicities=mults)
    if orb.catalog_id == "local-model":
        if orb.dimension != 1:
            raise UnsupportedModelError("grid oracle is one-dimensional")
        a = orb.params["a"][0]
        return LocalModelGridOperator.build(a * p, resolution=resolution, q=q, p=int(p))
    raise UnsupportedModelError(
        f"catalog id {orb.catalog_id!r} has no flat discretization; weighted "
        "projective models use the exact cohomology tables instead")


def _level_basis(op: TorusKodairaOperator, level):
    """Rows: the orthonormal invariant states of one level in the full basis."""
    if op.k == 1:
        return np.eye(op.D)
    return _invariant_basis(op.D, _swap_sign(level, op.q))


def dbar_matrix(op0: TorusKodairaOperator, op1: TorusKodairaOperator):
    """Matrix of dbar from invariant degree-0 to invariant degree-1 states.

    In the full basis dbar maps (level, j) to sqrt(B level) (level - 1, j);
    the returned matrix is expressed in the invariant orthonormal blocks.
    """
    if (op0.q, op1.q) != (0, 1) or op0.p != op1.p or op0.d != op1.d or op0.k != op1.k:
        raise ConfigurationError("dbar expects matching degree-0/degree-1 operators")
    B = op0.field_strength
    # start of each level's states in the invariant basis, plus the total
    row_off = (0, *itertools.accumulate(op1.multiplicities))
    col_off = (0, *itertools.accumulate(op0.multiplicities))
    out = np.zeros((row_off[-1], col_off[-1]))
    for level in range(1, op0.resolution):
        tgt = level - 1
        if tgt >= op1.resolution:
            continue
        if op0.multiplicities[level] == 0 or op1.multiplicities[tgt] == 0:
            continue
        b0 = _level_basis(op0, level)
        b1 = _level_basis(op1, tgt)
        # both blocks are invariant under the same signed swap, so the overlap
        # matrix b1 b0^T carries the full sqrt(B level) lowering map
        out[row_off[tgt]:row_off[tgt + 1], col_off[level]:col_off[level + 1]] = \
            math.sqrt(B * level) * (b1 @ b0.T)
    return out


@dataclass
class EigencomplexDiagnostics:
    lam: float
    dims: tuple
    rank_dbar: tuple
    alternating_residuals: tuple
    skipped: bool = False
    reason: str = ""


def eigencomplex_check(op0: TorusKodairaOperator, op1: TorusKodairaOperator, lam):
    """Exactness diagnostics of the eigenvalue complex at an isolated lam > 0.

    Verifies sum_{j <= q} (-1)^(q-j) dim F_j = rank(dbar restricted to F_q),
    which vanishes at the top degree.  Clusters tighter than the relative gap
    tolerance are skipped with a warning, and lam = 0 is the kernel (Hodge),
    not an exact complex, so it is skipped as well.
    """
    if lam <= SPECTRAL_GAP_FLOOR:
        return EigencomplexDiagnostics(lam=lam, dims=(), rank_dbar=(),
                                       alternating_residuals=(), skipped=True,
                                       reason="kernel eigenvalue: Hodge space, not exact")
    spectra = []
    for op in (op0, op1):
        vals = sorted({op.level_eigenvalue(level) for level in range(op.resolution)
                       if op.invariant_multiplicity(level)})
        spectra.extend(vals)
    near = sorted(set(v for v in spectra if 0 < abs(v - lam) < CLUSTER_RELATIVE_GAP * lam))
    if near:
        warnings.warn(f"eigencluster around {lam} too tight to separate; check skipped")
        return EigencomplexDiagnostics(lam=lam, dims=(), rank_dbar=(),
                                       alternating_residuals=(), skipped=True,
                                       reason="cluster too tight")
    dims = []
    masks = []
    for op in (op0, op1):
        sel = np.zeros(sum(op.multiplicities), dtype=bool)
        off = 0
        for level, m in enumerate(op.multiplicities):
            if m and abs(op.level_eigenvalue(level) - lam) <= 1e-9 * max(lam, 1.0):
                sel[off:off + m] = True
            off += m
        masks.append(sel)
        dims.append(int(sel.sum()))
    Db = dbar_matrix(op0, op1)
    sub = Db[np.ix_(masks[1], masks[0])]
    rank0 = int(np.linalg.matrix_rank(sub, tol=1e-9)) if sub.size else 0
    # degree-1 is the top degree here: dbar out of it is zero
    residual_q0 = dims[0] - rank0
    residual_q1 = dims[1] - dims[0]
    return EigencomplexDiagnostics(lam=lam, dims=tuple(dims),
                                   rank_dbar=(rank0, 0),
                                   alternating_residuals=(residual_q0, residual_q1))


# ---------------------------------------------------------------------------
# eigenfunction values (for diagonal-kernel cross checks)


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


def torus_eigenfunction_values(op: TorusKodairaOperator, z, levels=None):
    """Values psi_{level, j}(z) of the Landau-gauge torus basis at one point.

    Returns an array of shape (levels, D).  The lattice sum over translates is
    truncated where the oscillator functions are below working precision.
    """
    levels = levels if levels is not None else op.resolution
    B = op.field_strength
    D = op.D
    x, y = float(np.real(z)), float(np.imag(z))
    spread = (math.sqrt(2.0 * levels + 1.0) + 9.0) / math.sqrt(B)
    m_lo = int(math.floor((x - spread) * D))
    m_hi = int(math.ceil((x + spread) * D))
    ms = np.arange(m_lo, m_hi + 1)
    phis = oscillator_functions(levels - 1, x - ms / D, B)   # (levels, M)
    phases = np.exp(2j * np.pi * ms * y)
    vals = np.zeros((levels, D), dtype=complex)
    # unbuffered, in the order of ms: the same sums as a loop over the columns
    np.add.at(vals, (slice(None), ms % D), phases * phis)
    return vals


def torus_diagonal_kernel_spectral(op0, op1, z, u, q):
    """Degree-q diagonal heat kernel of exp(-u Lap / p) on the quotient.

    Spectral route: sums e^{-u lambda / p} |psi(z)|^2 over the torus basis
    with the group-average inserted, i.e. the image of the basis under each
    rotation weighted by its action on the frame.  Exact up to the retained
    levels and floating-point rounding.
    """
    op = op0 if q == 0 else op1
    k = op.k
    p = op.p
    levels = op.resolution
    psi = torus_eigenfunction_values(op, z, levels)
    total = 0.0j
    for rot in range(k):
        form_factor = 1.0 if q == 0 else (-1.0) ** rot
        if rot == 0:
            rotated = psi
        else:
            # half turn: psi_{kappa, j}(-z) = (-1)^kappa psi_{kappa, -j}(z)
            rotated = torus_eigenfunction_values(op, -z, levels)
        for level in range(levels):
            lam = op.level_eigenvalue(level)
            w = math.exp(-u * lam / p)
            total += w * form_factor * np.vdot(psi[level], rotated[level])
    return complex(total)


# ---------------------------------------------------------------------------
# grid oracle for the local model


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
