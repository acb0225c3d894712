"""Numerical laboratory for holomorphic Morse inequalities on orbifolds.

The package computes both sides of the asymptotic Morse inequalities on
explicit model orbifolds (cyclic quotients of C^n, weighted projective
lines, square-torus quotients), evaluates the closed-form model heat kernels
with their finite-isotropy corrections near singular points, and checks the
geometric criteria for an orbifold to be Moishezon.
"""

from .catalog import build_catalog_orbifold
from .cohomology import CohomologyTable, cohomology_table, weighted_proj_h0
from .curvature import (CurvatureSpectrum, classify_point, curvature_spectrum,
                        morse_integral, signature_integrals)
from .errors import (ConfigurationError, DegenerateSpectrumError, GeometryError,
                     IntegrandError, OrbmorseError, UnsupportedModelError)
from .geometry import (ChartedOrbifold, CyclicGroup, EquivariantLineBundle,
                       OrbifoldChart, cyclic_group, orbifold_integrate, volume_density)
from .kernels import (LimitDensity, ModelPoint, heat_diagonal_limit,
                      model_heat_kernel, signature_limit_density, twisted_gaussian)
from .moishezon import (BignessEstimate, CriterionVerdict, bigness_check,
                        kodaira_rank, moishezon_check, siegel_bound)
from .spectral import assemble_kodaira_laplacian, heat_trace
from .verify import (fit_rate, singular_diagonal_factor,
                     verify_kernel_asymptotics_regular,
                     verify_kernel_asymptotics_singular, verify_strong_morse)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
