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

The checker evaluates all of these numerically.  In the rotationally symmetric
class, compact shrinkers are round, so positive tests use Einstein data
(f = 0, gamma = (n-1)/radius^2) and negative tests use controlled
perturbations, whose identity residuals must scale linearly with the
perturbation size.
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
class SolitonResidual:
    """Sup-norms of the two components of Ric - gamma g + Hess f (poles included)."""

    radial: float
    tangential: float


def soliton_residual(cand: SolitonCandidate, grid: Grid) -> SolitonResidual:
    model, f = cand.model, cand.f
    r = grid.nodes
    prof = curvature(model, grid)
    f2 = np.asarray(f.d2(r), dtype=float)
    hess_tan = np.asarray(f.d1(r), dtype=float) * np.asarray(model.w.d1(r), dtype=float) \
        / np.asarray(model.w.value(r), dtype=float)
    res_rr = prof.ric_rr - cand.gamma + f2
    res_tan = prof.ric_tan - cand.gamma + hess_tan
    # pole values: curvature is isotropic, Hess f -> f'' g
    ric0, ricL = pole_curvature(model)
    fpp = np.asarray(f.d2(np.array([0.0, model.L])), dtype=float)
    pole_vals = np.array([ric0 - cand.gamma + fpp[0], ricL - cand.gamma + fpp[1]])
    sup_rr = max(float(np.max(np.abs(res_rr))), float(np.max(np.abs(pole_vals))))
    sup_tan = max(float(np.max(np.abs(res_tan))), float(np.max(np.abs(pole_vals))))
    return SolitonResidual(radial=sup_rr, tangential=sup_tan)


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


def _radial_laplacian(model: WarpedManifold, f: RadialProfile,
                      r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f' and Delta f = f'' + (n-1) w'/w f' of a radial function at interior nodes."""
    f1 = np.asarray(f.d1(r), dtype=float)
    f2 = np.asarray(f.d2(r), dtype=float)
    wv = np.asarray(model.w.value(r), dtype=float)
    wd1 = np.asarray(model.w.d1(r), dtype=float)
    return f1, f2 + (model.n - 1) * wd1 / wv * f1


@dataclass(frozen=True)
class HamiltonIdentityLedger:
    """Residuals of the three derived soliton identities.

    ``constancy_std`` is the standard deviation of R - 2 gamma f + |grad f|^2
    across the grid (a robust constancy measure); the other two are sup-norms.
    """

    bianchi_sup: float
    constancy_std: float
    trace_sup: float


def hamilton_identities(cand: SolitonCandidate, grid: Grid) -> HamiltonIdentityLedger:
    model, f = cand.model, cand.f
    n = model.n
    r = grid.nodes
    prof = curvature(model, grid)
    f1, lap_f = _radial_laplacian(model, f, r)
    fv = np.asarray(f.value(r), dtype=float)

    # exact pole limits: curvature is isotropic, grad f vanishes, Delta f -> n f''
    poles = np.array([0.0, model.L])
    ric_poles = np.array(pole_curvature(model))
    scalar_poles = n * ric_poles
    f_poles = np.asarray(f.value(poles), dtype=float)
    f2_poles = np.asarray(f.d2(poles), dtype=float)

    dR = scalar_curvature_derivative(model, r)
    bianchi = dR - 2.0 * prof.ric_rr * f1  # both factors vanish at the poles

    conserved = np.concatenate([
        prof.scalar - 2.0 * cand.gamma * fv + f1**2,
        scalar_poles - 2.0 * cand.gamma * f_poles,
    ])

    trace = np.concatenate([
        prof.scalar - n * cand.gamma + lap_f,
        scalar_poles - n * cand.gamma + n * f2_poles,
    ])

    return HamiltonIdentityLedger(
        bianchi_sup=float(np.max(np.abs(bianchi))),
        constancy_std=float(np.std(conserved)),
        trace_sup=float(np.max(np.abs(trace))),
    )


@dataclass(frozen=True)
class EigenIdentityReport:
    """Residual of Delta_f f = -2 gamma f and the spectral membership of -2 gamma.

    The residual test is the binding one; membership of -2 gamma in the drift
    spectrum is reported alongside (it can hold coincidentally, e.g. on round
    spheres where 2 gamma matches the first eigenvalue).  For f identically
    zero the eigen-relation is vacuous and flagged as such.
    """

    residual: float
    membership: MembershipVerdict
    vacuous: bool
    shift: float


def eigenfunction_identity(cand: SolitonCandidate, grid: Grid,
                           tol: float = 1e-3) -> EigenIdentityReport:
    """Check the potential's drift eigen-relation after normalizing f."""
    norm = normalize_f(cand, grid)
    f = norm.f
    r = grid.nodes
    fv = np.asarray(f.value(r), dtype=float)
    f1, lap_f = _radial_laplacian(cand.model, f, r)
    drift_lap = lap_f - f1**2
    residual = float(np.max(np.abs(drift_lap + 2.0 * cand.gamma * fv)))

    drift_model = cand.drift_model()
    drift_grid = Grid.uniform(drift_model, grid.size)
    membership = spectrum_contains(drift_model, drift_grid, -2.0 * cand.gamma, tol)

    vacuous = float(np.max(np.abs(fv))) <= 1e-12
    return EigenIdentityReport(residual=residual, membership=membership,
                               vacuous=vacuous, shift=norm.shift)
