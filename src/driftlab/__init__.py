"""driftlab: a numerical laboratory for drift-Laplacian spectral geometry.

Computes first non-zero eigenvalues of Bakry-Emery (drift) Laplacians on
weighted model manifolds, verifies gradient/barrier estimates on computed
eigenfunctions, certifies closed-form eigenvalue and diameter bounds in exact
rational arithmetic, and checks the gradient shrinking soliton equation with
all of its derived identities.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, DiameterBoundDerivation, LingCase,
                     build_bound_report, derive_diameter_bound, lichnerowicz_be,
                     ling_be_bound, ling_case, myers_upper, soliton_diameter_lower)
from .estimates import (BarrierFamily, LevelSetMaxima,
                        NormalizedEigenfunction, barrier, barrier_dominance_check,
                        case_b2b2_barrier, compute_Z, eta, gradient_estimate_margin,
                        length_integral_check, normalize, xi)
from .geometry import (CIRCLE, INTERVAL_SPHERE, CurvatureProfile, Grid,
                       RadialProfile, WarpedManifold, be_ricci_lower_bound,
                       circle, cosine_density, curvature, diameter, integrate,
                       interval_sphere, poly_cos_density, sphere, sphere_warp,
                       stretched_sphere_warp, unit_fiber_area, weighted_measure,
                       zero_density)
from .solitons import (NormalizedPotential, SolitonCandidate, SolitonLedger,
                       normalize_f, soliton_ledger)
from .spectral import (EigenMode, FirstEigenvalue, MembershipVerdict,
                       SpectralProblem, assemble, first_nonzero_eigenvalue,
                       solve_eigen, spectrum_contains)

__all__ = [name for name in dir() if not name.startswith("_")]
