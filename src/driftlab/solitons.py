"""Verification of the gradient shrinking soliton equation and its identities.

A candidate (M, g, f) with constant gamma is a gradient shrinking soliton when

    Ric - gamma g + Hess f = 0,   gamma > 0.

On a rotationally symmetric model with radial potential f this reduces to two
residual components,

    radial:      Ric_rr  - gamma + f''
    tangential:  Ric_tan - gamma + f' w'/w.

Differentiating the soliton equation yields three identities that
any exact soliton satisfies:

    grad R = 2 Ric(grad f, .)           (contracted Bianchi)
    R - 2 gamma f + |grad f|^2 = const
    R - n gamma + Delta f = 0           (trace)

and, once f is shifted so that the weighted mean int f e^{-f} dV vanishes, the
potential is an eigenfunction of its own drift Laplacian:

    Delta_f f = Delta f - |grad f|^2 = -2 gamma f.

A candidate is a grid and gamma: the grid's model is the weighted manifold
(M, g, e^{-f}), whose density is the potential f, a polynomial in the model's
own c = cos(r/rho); so f' vanishes at both poles and grad f is smooth there
by construction.  It lives on the round warp of length L, whose curvature is
closed-form (``geometry.einstein_constant``):
Ric = (n-1)/rho^2 g with rho = L/pi, in every direction and at the poles,
R = n Ric and dR/dr = 0.  With f = p(c), ``geometry.hess_phi`` gives
rho^2 Hess f as two quadratics in c, and |grad f|^2 = (1 - c^2) p'(c)^2/rho^2.
``soliton_ledger`` evaluates these at the grid's nodes and at both poles,
c = +-1, and returns one ``SolitonLedger`` with every residual:
``radial`` and ``tangential`` (the equation), ``bianchi_sup``,
``constancy_std`` and ``trace_sup`` (the identities), ``eigen_residual`` (the
eigen-relation), the normalization ``shift``, the spectral ``membership`` of
-2 gamma and the ``vacuous`` flag; ``worst`` is the largest residual, NaN if
any is NaN.  In the rotationally symmetric class, compact shrinkers are
round, so positive tests use Einstein data (f = 0, gamma = (n-1)/rho^2 on a
sphere of warp radius rho, whose residuals are then exactly 0) and negative
tests use controlled perturbations, whose identity residuals must scale
linearly with the perturbation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import INTERVAL_SPHERE, Grid, einstein_constant, hess_phi
from .spectral import MembershipVerdict, spectrum_contains


@dataclass(frozen=True)
class SolitonCandidate:
    """A proposed gradient shrinking soliton: the grid's model, whose density
    is the potential f, and gamma."""

    grid: Grid
    gamma: float

    def __post_init__(self):
        model = self.grid.model
        if model.topology != INTERVAL_SPHERE:
            raise ValueError("soliton candidates are supported on interval-sphere models")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("shrinking solitons need gamma > 0")


def normalize_f(cand: SolitonCandidate) -> float:
    """The shift s = -(int f e^{-f} dV)/(int e^{-f} dV) that makes
    int (f + s) e^{-(f + s)} dV vanish; the normalized potential has the
    coefficients (c0 + s, c1, c2).

    The shifted constraint factors as e^{-s} (int f e^{-f} + s int e^{-f}) = 0,
    so one shift lands exactly on the normalization; re-running on the
    shifted potential returns a shift of zero up to rounding.
    """
    grid = cand.grid
    fv = np.asarray(grid.model.phi.value(grid.nodes), dtype=float)
    # the grid's weights are the quadrature of e^{-f} dV
    return -float(np.sum(grid.weights * fv)) / float(np.sum(grid.weights))


@dataclass(frozen=True)
class SolitonLedger:
    """Every residual of one candidate; the module docstring names the fields.

    All residuals are sup-norms but ``constancy_std``, the standard deviation
    of R - 2 gamma f + |grad f|^2 (a robust constancy measure).  The residual
    is the binding eigen test: ``membership`` of -2 gamma in the drift
    spectrum can hold coincidentally (on round spheres 2 gamma can be the
    first eigenvalue).
    """

    radial: float
    tangential: float
    bianchi_sup: float
    constancy_std: float
    trace_sup: float
    eigen_residual: float
    membership: MembershipVerdict
    vacuous: bool
    shift: float

    @property
    def worst(self) -> float:
        """The largest of the six residuals; NaN when any residual is NaN."""
        return float(np.max([self.radial, self.tangential, self.bianchi_sup,
                             self.constancy_std, self.trace_sup, self.eigen_residual]))


def soliton_ledger(cand: SolitonCandidate, tol: float = 1e-3) -> SolitonLedger:
    """All residuals of the candidate from the closed-form curvature and
    Hessian, read at the grid's nodes and at both poles.

    Ric is ``einstein_constant``, which is also the config's Einstein gamma,
    so an Einstein candidate's residuals are exactly 0.  ``tol`` is the
    spectral membership tolerance for -2 gamma.
    """
    grid, gamma = cand.grid, cand.gamma
    model, n = grid.model, grid.model.n
    rho2 = (model.L / math.pi) ** 2
    ric = einstein_constant(model)  # in every direction, at the poles too
    c0, c1, c2 = model.coeffs + (0.0,) * (3 - len(model.coeffs))
    c = np.append(np.cos(math.pi / model.L * grid.nodes), (1.0, -1.0))
    h_rr, h_tan = ((a + b * c + q * c * c) / rho2 for a, b, q in hess_phi(model))
    fv = c0 + c1 * c + c2 * c * c
    grad2 = (1.0 - c * c) * (c1 + 2.0 * c2 * c) ** 2 / rho2  # |grad f|^2
    lap_f = h_rr + (n - 1) * h_tan

    # grad R = 0, so only 2 Ric(grad f, .) is left of the Bianchi identity, and
    # R is constant, so R - 2 gamma f + |grad f|^2 spreads as its other terms do
    bianchi = 2.0 * ric * np.sqrt(grad2)
    conserved = grad2 - 2.0 * gamma * fv

    # the shift changes neither grad f nor Delta f, only the values
    shift = normalize_f(cand)
    f_norm = fv + shift
    membership = spectrum_contains(grid, -2.0 * gamma, tol)
    return SolitonLedger(
        radial=float(np.max(np.abs((ric - gamma) + h_rr))),
        tangential=float(np.max(np.abs((ric - gamma) + h_tan))),
        bianchi_sup=float(np.max(bianchi)),
        constancy_std=float(np.std(conserved)),
        trace_sup=float(np.max(np.abs(n * ric - n * gamma + lap_f))),
        eigen_residual=float(np.max(np.abs(lap_f - grad2 + 2.0 * gamma * f_norm))),
        membership=membership,
        vacuous=float(np.max(np.abs(f_norm))) <= 1e-12,
        shift=shift,
    )
