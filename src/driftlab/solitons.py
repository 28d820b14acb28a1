"""Verification of the gradient shrinking soliton equation and its identities.

A candidate triple (model, f, gamma) is a gradient shrinking soliton when

    Ric - gamma g + Hess f = 0,   gamma > 0.

On a rotationally symmetric model with radial potential f this reduces to two
residual components,

    radial:      Ric_rr  - gamma + f''
    tangential:  Ric_tan - gamma + f' w'/w,

whose pole values follow by L'Hopital (Hess f is isotropic at the poles with
value f'').  Differentiating the soliton equation yields three identities that
any exact soliton satisfies:

    grad R = 2 Ric(grad f, .)           (contracted Bianchi)
    R - 2 gamma f + |grad f|^2 = const
    R - n gamma + Delta f = 0           (trace)

and, once f is shifted so that the weighted mean int f e^{-f} dV vanishes, the
potential is an eigenfunction of its own drift Laplacian:

    Delta_f f = Delta f - |grad f|^2 = -2 gamma f.

``soliton_ledger`` evaluates the curvature and the derivatives of f once and
returns one ``SolitonLedger`` with every residual: ``radial`` and
``tangential`` (the equation), ``bianchi_sup``, ``constancy_std`` and
``trace_sup`` (the identities), ``eigen_residual`` (the eigen-relation), the
normalization ``shift``, the spectral ``membership`` of -2 gamma and the
``vacuous`` flag; ``worst`` is the largest residual, NaN if any is NaN.  In the
rotationally symmetric class, compact shrinkers are round, so positive tests
use Einstein data (f = 0, gamma = (n-1)/rho^2 on a sphere of warp radius rho)
and negative tests use controlled perturbations, whose identity residuals must
scale linearly with the perturbation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleRegularityError
from .geometry import (INTERVAL_SPHERE, Grid, RadialProfile, WarpedManifold,
                       curvature, pole_curvature, scalar_curvature_derivative,
                       unit_fiber_area)
from .spectral import MembershipVerdict, spectrum_contains

_POLE_TOL = 1e-8


@dataclass(frozen=True)
class SolitonCandidate:
    """A proposed gradient shrinking soliton (model, potential f, gamma)."""

    model: WarpedManifold
    f: RadialProfile
    gamma: float

    def __post_init__(self):
        if self.model.topology != INTERVAL_SPHERE:
            raise ValueError("soliton candidates are supported on interval-sphere models")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("shrinking solitons need gamma > 0")
        ends = np.array([0.0, self.model.L])
        slopes = np.asarray(self.f.d1(ends), dtype=float)
        if np.max(np.abs(slopes)) > _POLE_TOL:
            raise PoleRegularityError(
                f"potential slope must vanish at the poles for grad f to be smooth; "
                f"got f'(0)={slopes[0]:.3e}, f'(L)={slopes[1]:.3e}")

    def drift_model(self) -> WarpedManifold:
        """The weighted manifold whose density is the soliton potential itself."""
        return WarpedManifold(topology=self.model.topology, n=self.model.n,
                              L=self.model.L, w=self.model.w, phi=self.f,
                              name=f"{self.model.label}+potential")


@dataclass(frozen=True)
class NormalizedPotential:
    """Potential shifted so that int f e^{-f} dV = 0, with the shift used."""

    f: RadialProfile
    shift: float


def normalize_f(cand: SolitonCandidate, grid: Grid) -> NormalizedPotential:
    """Shift f by s = -(int f e^{-f} dV)/(int e^{-f} dV), the closed-form root.

    The shifted constraint factors as e^{-s} (int f e^{-f} + s int e^{-f}) = 0,
    so one shift lands exactly on the normalization; re-running returns a
    shift of zero up to rounding.
    """
    r = grid.nodes
    fv = np.asarray(cand.f.value(r), dtype=float)
    # plain metric volume element, density handled explicitly
    vol = unit_fiber_area(cand.model.n) \
        * np.asarray(cand.model.w.value(r), dtype=float) ** (cand.model.n - 1) \
        * grid.spacing
    ef = np.exp(-fv)
    shift = -float(np.sum(vol * fv * ef)) / float(np.sum(vol * ef))
    return NormalizedPotential(f=cand.f.shifted(shift), shift=shift)


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


def soliton_ledger(cand: SolitonCandidate, grid: Grid, tol: float = 1e-3) -> SolitonLedger:
    """All residuals of the candidate from one evaluation of curvature and f.

    ``tol`` is the spectral membership tolerance for -2 gamma.
    """
    model, f, gamma = cand.model, cand.f, cand.gamma
    n = model.n
    r = grid.nodes
    prof = curvature(model, grid)
    fv = np.asarray(f.value(r), dtype=float)
    f1 = np.asarray(f.d1(r), dtype=float)
    f2 = np.asarray(f.d2(r), dtype=float)
    wv = np.asarray(model.w.value(r), dtype=float)
    wd1 = np.asarray(model.w.d1(r), dtype=float)
    lap_f = f2 + (n - 1) * wd1 / wv * f1

    # exact pole limits: curvature is isotropic, Hess f -> f'' g, grad f
    # vanishes and Delta f -> n f''
    poles = np.array([0.0, model.L])
    ric_poles = np.array(pole_curvature(model))
    scalar_poles = n * ric_poles
    f_poles = np.asarray(f.value(poles), dtype=float)
    f2_poles = np.asarray(f.d2(poles), dtype=float)
    pole_vals = ric_poles - gamma + f2_poles

    radial = np.concatenate([prof.ric_rr - gamma + f2, pole_vals])
    tangential = np.concatenate([prof.ric_tan - gamma + f1 * wd1 / wv, pole_vals])
    bianchi = scalar_curvature_derivative(model, r) - 2.0 * prof.ric_rr * f1
    conserved = np.concatenate([prof.scalar - 2.0 * gamma * fv + f1**2,
                                scalar_poles - 2.0 * gamma * f_poles])
    trace = np.concatenate([prof.scalar - n * gamma + lap_f,
                            scalar_poles - n * gamma + n * f2_poles])

    # the shift changes neither f' nor Delta f, only the values
    norm = normalize_f(cand, grid)
    f_norm = fv + norm.shift
    drift_model = cand.drift_model()
    membership = spectrum_contains(drift_model, Grid.uniform(drift_model, grid.size),
                                   -2.0 * gamma, tol)
    return SolitonLedger(
        radial=float(np.max(np.abs(radial))),
        tangential=float(np.max(np.abs(tangential))),
        bianchi_sup=float(np.max(np.abs(bianchi))),
        constancy_std=float(np.std(conserved)),
        trace_sup=float(np.max(np.abs(trace))),
        eigen_residual=float(np.max(np.abs(lap_f - f1**2 + 2.0 * gamma * f_norm))),
        membership=membership,
        vacuous=float(np.max(np.abs(f_norm))) <= 1e-12,
        shift=norm.shift,
    )
