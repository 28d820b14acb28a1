"""driftlab: a numerical laboratory for drift-Laplacian spectral geometry.

Computes first non-zero eigenvalues of Bakry-Emery (drift) Laplacians on
weighted model manifolds, verifies gradient/barrier estimates on computed
eigenfunctions, certifies closed-form eigenvalue and diameter bounds in exact
rational arithmetic, and checks the gradient shrinking soliton equation with
all of its derived identities.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, LingCase, build_bound_report, derive_diameter_bound,
                     lichnerowicz_be, ling_be_bound, ling_case, myers_upper,
                     soliton_diameter_lower)
from .estimates import (BarrierFamily, LevelSetMaxima,
                        NormalizedEigenfunction, barrier, barrier_dominance_check,
                        case_b2b2_barrier, compute_Z, eta, gradient_estimate_margin,
                        length_integral_check, normalize, xi)
from .geometry import (CIRCLE, INTERVAL_SPHERE, CosPolynomial, Grid, RoundWarp,
                       WarpedManifold, be_ricci_lower_bound, circle, cosine_density,
                       diameter, einstein_constant, hess_phi, interval_sphere, sphere,
                       unit_fiber_area)
from .solitons import SolitonCandidate, SolitonLedger, normalize_f, soliton_ledger
from .spectral import EigenMode, SpectralProblem, assemble, first_nonzero_eigenvalue

__all__ = [name for name in dir() if not name.startswith("_")]
