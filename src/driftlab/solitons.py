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

So a non-constant f with a zero eigen residual makes -2 gamma an eigenvalue
of the continuum drift Laplacian, and lambda_1 <= 2 gamma: the fact the
paper's diameter bound rests on.

A candidate is a model and gamma: the model is the weighted manifold
(M, g, e^{-f}), whose density is the potential f = p(c), a polynomial in the
model's own c = cos(r/rho), so grad f is smooth at both poles by
construction.  Its round warp of length L has the closed-form curvature
Ric = (n-1)/rho^2 g, rho = L/pi (``geometry.einstein_constant``), R = n Ric
and dR/dr = 0; ``geometry.hess_phi`` gives rho^2 Hess f as two quadratics in
c, and |grad f|^2 = (1 - c^2) p'(c)^2/rho^2.  So every residual is a
``numpy.polynomial`` in c of degree <= 4, and ``soliton_ledger`` takes its
sup over the whole manifold, c in [-1, 1], exactly: at c = +-1 and at the
critical points inside; no grid enters.  Its ``SolitonLedger`` holds
``radial`` and ``tangential`` (the equation), ``bianchi_sup``,
``constancy_std`` and ``trace_sup`` (the identities), ``eigen_residual`` (the
eigen-relation), the normalization ``shift`` and the ``vacuous`` flag;
``worst`` is the largest residual, NaN if any is NaN.  The shift's integral
over e^{-f} dV and the constancy spread over arc length are Gauss-Jacobi
rules in c (``_gauss_jacobi``).  In the rotationally symmetric class,
compact shrinkers are round, so positive tests use Einstein data (f = 0,
gamma = (n-1)/rho^2 on a sphere of warp radius rho, whose residuals are then
exactly 0) and negative tests use controlled perturbations, whose identity
residuals must scale linearly with the perturbation size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial, polynomial as P

from .geometry import INTERVAL_SPHERE, WarpedManifold, einstein_constant, hess_phi

SHIFT_NODES = (64, 1024)  # the first and the largest Gauss-Jacobi rule of normalize_f
NEWTON_STEPS = 4  # on each critical point of an ill-scaled companion matrix in _sup


@dataclass(frozen=True)
class SolitonCandidate:
    """A proposed gradient shrinking soliton: the model, whose density is the
    potential f, and gamma."""

    model: WarpedManifold
    gamma: float

    def __post_init__(self):
        if self.model.topology != INTERVAL_SPHERE:
            raise ValueError("soliton candidates are supported on interval-sphere models")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("shrinking solitons need gamma > 0")


@lru_cache(maxsize=None)
def _gauss_jacobi(size: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``size``-point Gauss rule of the weight (1 - c^2)^a on [-1, 1],
    a > -1, as read-only (nodes, weights), the weights scaled to sum to 1.

    Golub and Welsch (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the weight's orthonormal polynomials, here the
    Gegenbauer ones, with a zero diagonal and the off-diagonal
    b_k^2 = k (k + 2a) / ((2k + 2a)^2 - 1), b_1^2 = 1/(3 + 2a); the weights
    are the squared first components of its unit eigenvectors.  Every
    integral the ledger takes is a ratio or a moment of a probability
    measure, so the weight's total mass cancels and is never formed."""
    k = np.arange(2.0, size)
    b = np.sqrt(np.append(1.0 / (3.0 + 2.0 * a), k * (k + 2.0 * a) / ((2.0 * (k + a)) ** 2 - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    weights = vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def normalize_f(cand: SolitonCandidate) -> float:
    """The shift s = -(int f e^{-f} dV)/(int e^{-f} dV) that makes
    int (f + s) e^{-(f + s)} dV vanish; the normalized potential has the
    coefficients (c0 + s, c1, c2).

    In c the volume is (1 - c^2)^((n-2)/2) dc, up to a constant factor, so s
    is a ratio of two Gauss-Jacobi sums of that weight, and the factor
    cancels.  With x = p - min p at the nodes, s = -(min p + sum x e^{-x} /
    sum e^{-x}) over the weighted nodes: no exponential overflows, and a
    constant potential c0 has the shift -c0 exactly.  The rule starts at
    ``SHIFT_NODES[0]`` nodes and doubles until two successive shifts agree
    to 16 eps max(1, |s|), returning the larger rule's; a density that needs
    more than ``SHIFT_NODES[1]`` nodes is a ValueError.

    The shifted constraint factors as e^{-s} (int f e^{-f} + s int e^{-f}) = 0,
    so one shift lands exactly on the normalization; re-running on the
    shifted potential returns a shift of zero up to rounding.
    """
    model = cand.model
    p = Polynomial(model.coeffs)
    size, last = SHIFT_NODES[0], math.nan
    while size <= SHIFT_NODES[1]:
        nodes, weights = _gauss_jacobi(size, (model.n - 2) / 2.0)
        x = p(nodes)
        low = float(np.min(x))
        x -= low
        mass = weights * np.exp(-x)
        shift = -(low + float(np.sum(mass * x)) / float(np.sum(mass)))
        if abs(shift - last) <= 16.0 * np.finfo(float).eps * max(1.0, abs(shift)):
            return shift
        size, last = 2 * size, shift
    raise ValueError(f"the potential shift of the density {model.coeffs} (n = {model.n}) "
                     f"does not settle within {SHIFT_NODES[1]} Gauss-Jacobi nodes")


def _sup(poly: Polynomial) -> float:
    """max |poly(c)| over c in [-1, 1], at c = +-1 and at the derivative's real
    roots clipped into [-1, 1]; NaN if a coefficient is.  The roots come from a
    companion matrix scaled by 1/(leading coefficient), trimmed of coefficients
    below eps times the largest (a subnormal one would overflow it).  A root is
    off by about eps/(leading/largest), which costs the sup its square unless
    that ratio is below sqrt(eps) (c2 = 1e-16 in |grad f|^2): then each root
    is polished by ``NEWTON_STEPS`` Newton steps on the whole derivative."""
    if not np.all(np.isfinite(poly.coef)):
        return math.nan
    slope = P.polyder(poly.coef)  # on coefficient arrays: the Polynomial class costs more here
    largest = np.max(np.abs(slope))
    trimmed = P.polytrim(slope, np.finfo(float).eps * largest)
    c = np.clip(P.polyroots(trimmed).real, -1.0, 1.0)
    if abs(trimmed[-1]) < math.sqrt(np.finfo(float).eps) * largest:
        polished, curve = c, P.polyder(slope)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a flat slope: NaN
            for _ in range(NEWTON_STEPS):
                step = P.polyval(polished, slope) / P.polyval(polished, curve)
                polished = np.clip(polished - step, -1.0, 1.0)
        c = np.concatenate((c, polished[np.isfinite(polished)]))
    return float(np.max(np.abs(P.polyval(np.append(c, (1.0, -1.0)), poly.coef))))


def _arc_length_std(poly: Polynomial) -> float:
    """The standard deviation of poly(c) over arc length, dr = rho dc / sqrt(1 - c^2):
    exact for degree <= 4 by the 5-point Gauss-Chebyshev rule, which
    integrates (poly - mean)^2, of degree <= 8, to rounding."""
    nodes, weights = _gauss_jacobi(5, -0.5)
    values = poly(nodes)
    mean = float(np.sum(weights * values))
    return math.sqrt(float(np.sum(weights * (values - mean) ** 2)))


@dataclass(frozen=True)
class SolitonLedger:
    """Every residual of one candidate, as the module docstring names them:
    sups over the manifold but ``constancy_std``, the standard deviation of
    R - 2 gamma f + |grad f|^2 over arc length.  ``vacuous`` is c1 = c2 = 0:
    a constant potential normalizes to f = 0, whose eigen-relation says nothing."""

    radial: float
    tangential: float
    bianchi_sup: float
    constancy_std: float
    trace_sup: float
    eigen_residual: float
    vacuous: bool
    shift: float

    @property
    def worst(self) -> float:
        """The largest of the six residuals; NaN when any residual is NaN."""
        return float(np.max([self.radial, self.tangential, self.bianchi_sup,
                             self.constancy_std, self.trace_sup, self.eigen_residual]))


def soliton_ledger(cand: SolitonCandidate) -> SolitonLedger:
    """All residuals of the candidate from the closed-form curvature and
    Hessian, as polynomials in c whose sups over [-1, 1] are exact.  Ric is
    ``einstein_constant``, also the config's Einstein gamma, so an Einstein
    candidate's residuals are exactly 0."""
    model, gamma, n = cand.model, cand.gamma, cand.model.n
    rho2 = (model.L / math.pi) ** 2
    ric = einstein_constant(model)  # in every direction, at the poles too
    p = Polynomial(model.coeffs)
    h_rr, h_tan = (Polynomial(h) / rho2 for h in hess_phi(model))
    grad2 = Polynomial((1.0, 0.0, -1.0)) * p.deriv() ** 2 / rho2  # |grad f|^2
    lap_f = h_rr + (n - 1) * h_tan

    # grad R = 0, so only 2 Ric(grad f, .) is left of the Bianchi identity, and
    # R and c0 are constant, so R - 2 gamma f + |grad f|^2 spreads as the rest does
    conserved = grad2 - 2.0 * gamma * (p - model.coeffs[0])

    # the shift changes neither grad f nor Delta f, only the values
    shift = normalize_f(cand)
    return SolitonLedger(
        radial=_sup((ric - gamma) + h_rr),
        tangential=_sup((ric - gamma) + h_tan),
        bianchi_sup=2.0 * ric * math.sqrt(_sup(grad2)),
        constancy_std=_arc_length_std(conserved),
        trace_sup=_sup((n * ric - n * gamma) + lap_f),
        eigen_residual=_sup(lap_f - grad2 + 2.0 * gamma * (p + shift)),
        vacuous=not any(model.coeffs[1:]),
        shift=shift,
    )
