"""Weighted model manifolds: round warped products over an interval, and weighted circles.

A rotationally symmetric metric on a closed manifold is written as

    g = dr^2 + w(r)^2 g_{S^{n-1}},   r in [0, L].

Every interval sphere carries the round warp of its length, ``RoundWarp(L)``:
w = rho sin(r/rho) with rho = L/pi, which vanishes at both ends with unit
slope, so the two ends close up into smooth poles by construction.  A
weighted (Bakry-Emery) structure adds a radial density phi, turning the
volume form into e^{-phi} dV_g; every config builds a ``CosPolynomial(coeffs,
L)``, phi = p(cos(pi r/L)) with deg p <= 2, which generates its value and
analytic derivatives from its fields.  The second supported topology is a
weighted circle of circumference L, where the fiber is trivial and only the
density matters.

On the round warp the curvature has a closed form: Ric = (n-1)/rho^2 g in
every direction, R = n (n-1)/rho^2 and dR/dr = 0.  The Hessian of a radial
function phi has radial component phi'' and tangential component phi' w'/w,
and the Bakry-Emery Ricci tensor is Ric_phi = Ric + Hess(phi), whose least
eigenvalue ``be_ricci_lower_bound`` finds in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InapplicableBoundError

INTERVAL_SPHERE = "interval-sphere"
CIRCLE = "circle"

# A circle density's periodicity and evenness are checked to this absolute tolerance.
_REGULARITY_TOL = 1e-8


@dataclass(frozen=True)
class RoundWarp:
    """The round warp of arc length L: w(r) = rho sin(r / rho), rho = L / pi."""

    length: float

    @property
    def rho(self) -> float:
        return self.length / math.pi

    def _angle(self, r):
        return np.asarray(r, dtype=float) / self.rho

    def value(self, r):
        return self.rho * np.sin(self._angle(r))

    def d1(self, r):
        return np.cos(self._angle(r))


def _horner(c, x):
    """c[0] + c[1] x (+ c[2] x^2) in numpy polyval's operation order, in place."""
    y = c[-1] * x
    y += c[-2]
    if len(c) == 3:
        y *= x
        y += c[0]
    return y


@dataclass(frozen=True)
class CosPolynomial:
    """The density phi(r) = p(x), x = cos(k r), k = pi / L, p(x) = c0 + c1 x + c2 x^2.

    ``coeffs`` holds 1 to 3 coefficients in increasing-degree order: degree 2
    is what ``be_ricci_lower_bound`` solves in closed form.  Radial smoothness
    at the poles is automatic, as d/dr cos(k r) vanishes there.  The chain
    rule gives phi' = -k p'(x) sin(k r) and phi'' = k^2 (p''(x) (1 - x^2) -
    p'(x) x) = k^2 (2 c2 - c1 x - 4 c2 x^2).
    """

    coeffs: tuple[float, ...]
    length: float = math.pi

    def __post_init__(self):
        c, length = tuple(float(v) for v in self.coeffs), float(self.length)
        if not (1 <= len(c) <= 3 and all(map(math.isfinite, c)) and 0.0 < length < math.inf):
            raise ValueError(f"CosPolynomial takes 1 to 3 finite coefficients (degree <= 2) "
                             f"and a positive and finite length; got {c}, {length}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "length", length)

    def shifted(self, offset: float) -> "CosPolynomial":
        """The density phi + offset: c0 moves, nothing else."""
        return replace(self, coeffs=(self.coeffs[0] + offset,) + self.coeffs[1:])

    def value(self, r):
        c = self.coeffs
        if len(c) == 1:
            return np.full(np.shape(r), c[0])
        return _horner(c, np.cos(math.pi / self.length * np.asarray(r, dtype=float)))

    def d1(self, r):
        k, (c1, c2) = math.pi / self.length, (self.coeffs + (0.0, 0.0))[1:3]
        kr = k * np.asarray(r, dtype=float)
        return _horner((-k * c1, -2.0 * k * c2), np.cos(kr)) * np.sin(kr)

    def d2(self, r):
        k, (c1, c2) = math.pi / self.length, (self.coeffs + (0.0, 0.0))[1:3]
        k2 = k**2
        return _horner((2.0 * k2 * c2, -k2 * c1, -4.0 * k2 * c2),
                       np.cos(k * np.asarray(r, dtype=float)))


def zero_density() -> CosPolynomial:
    return CosPolynomial((0.0,))


def cosine_density(amplitude: float, length: float = math.pi) -> CosPolynomial:
    """phi(r) = amplitude * cos(pi r / L); on the unit sphere this is eps*cos(r)."""
    return CosPolynomial((0.0, amplitude), length)


@dataclass(frozen=True)
class WarpedManifold:
    """A compact rotationally symmetric weighted manifold.

    topology "interval-sphere": warped product over [0, L] with fiber S^{n-1}
    and the round warp ``RoundWarp(L)``; topology "circle": weighted circle of
    circumference L (n = 1, no warp).
    """

    topology: str
    n: int
    L: float
    phi: CosPolynomial
    name: str = ""

    def __post_init__(self):
        if self.topology not in (INTERVAL_SPHERE, CIRCLE):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if self.topology == INTERVAL_SPHERE:
            if self.n < 2:
                raise ValueError("interval-sphere models need dimension n >= 2")
        else:
            if self.n != 1:
                raise ValueError("circle models are one-dimensional (n = 1)")
            self._check_periodicity()

    @property
    def w(self) -> RoundWarp | None:
        """The warp: the round warp of length L on an interval sphere, none on a circle."""
        return RoundWarp(self.L) if self.topology == INTERVAL_SPHERE else None

    def _check_periodicity(self):
        # periodic, and even (phi(theta) = phi(L - theta)) for the mirror sectors
        v = np.asarray(self.phi.value(np.linspace(0.0, self.L, 129)), dtype=float)
        d = np.asarray(self.phi.d1(np.array([0.0, self.L])), dtype=float)
        tol = _REGULARITY_TOL * (1.0 + max(abs(v[0]), abs(v[-1])))
        if abs(v[0] - v[-1]) > tol or abs(d[0] - d[1]) > tol:
            raise ValueError("circle density must be periodic with period L")
        if not np.max(np.abs(v - v[::-1])) <= tol:
            raise ValueError("circle density must be even about theta = 0")

    @property
    def label(self) -> str:
        return self.name or f"{self.topology}(n={self.n},L={self.L:g})"


def interval_sphere(n: int, length: float, density: CosPolynomial | None = None,
                    name: str = "") -> WarpedManifold:
    """The round warped product over an interval of arc length ``length``."""
    return WarpedManifold(topology=INTERVAL_SPHERE, n=n, L=float(length),
                          phi=density or zero_density(), name=name)


def sphere(n: int, radius: float = 1.0, density: CosPolynomial | None = None,
           name: str = "") -> WarpedManifold:
    """Round n-sphere of the given radius, optionally with a radial density."""
    return interval_sphere(n, math.pi * radius, density, name or f"S^{n}(r={radius:g})")


def circle(circumference: float, density: CosPolynomial | None = None,
           name: str = "") -> WarpedManifold:
    """Weighted circle of the given circumference."""
    return WarpedManifold(
        topology=CIRCLE, n=1, L=float(circumference),
        phi=density or zero_density(), name=name or f"circle(L={circumference:g})",
    )


def einstein_constant(model: WarpedManifold) -> float:
    """Ric = (n-1)/rho^2, rho = L/pi: the round warp's Ricci curvature in
    every direction, and so the gamma of its Einstein soliton."""
    return (model.n - 1) / (model.L / math.pi) ** 2


def unit_fiber_area(n: int) -> float:
    """Area of the unit fiber: Vol(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2); 1 for circles."""
    if n == 1:
        return 1.0
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on ``model``, whose weighted measure it integrates.

    Cell centers sit at (i + 1/2) h for the interval topology, so no node ever
    touches a pole; the circle uses nodes at i h with periodic wrap.  The
    weights integrate u against  w^{n-1} e^{-phi} dr * Vol(S^{n-1})  (interval)
    or  e^{-phi} dtheta  (circle) by the composite midpoint rule; ``density``
    holds rho = w^{n-1} e^{-phi} (or e^{-phi}) at the nodes, which they and
    the operator assembly share.
    """

    model: WarpedManifold
    nodes: np.ndarray
    spacing: float
    weights: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.nodes.size < 4:
            raise ValueError("grid needs at least 4 nodes")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if not (np.all(self.weights > 0.0) and np.all(np.isfinite(self.weights))):
            raise ValueError("quadrature weights must be positive and finite")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @staticmethod
    def uniform(model: WarpedManifold, count: int) -> "Grid":
        h = model.L / count
        if model.topology == INTERVAL_SPHERE:
            nodes = (np.arange(count) + 0.5) * h
        else:
            nodes = np.arange(count) * h
        rho = measure_density(model, nodes)
        return Grid(model=model, nodes=nodes, spacing=h,
                    weights=unit_fiber_area(model.n) * rho * h, density=rho)


def measure_density(model: WarpedManifold, r: np.ndarray) -> np.ndarray:
    """rho(r) = w^{n-1} e^{-phi} (interval) or e^{-phi} (circle)."""
    r = np.asarray(r, dtype=float)
    if model.topology == INTERVAL_SPHERE:
        return np.asarray(model.w.value(r)) ** (model.n - 1) * np.exp(-np.asarray(model.phi.value(r)))
    return np.exp(-np.asarray(model.phi.value(r)))


def integrate(grid: Grid, samples: np.ndarray) -> float:
    """Integral of a radial function against the weighted measure."""
    return float(np.sum(grid.weights * samples))


@dataclass(frozen=True)
class RicciLowerBound:
    """Largest K with Ric_phi >= (n-1) K g on the model, and where it is attained."""

    K: float
    radius: float
    positive: bool


def be_ricci_lower_bound(model: WarpedManifold) -> RicciLowerBound:
    """K_eff = min over the model of the smaller Ric_phi eigenvalue, over (n-1).

    The minimum is the model's own, in closed form, on the round
    cos-polynomial family that every config builds: the round warp
    w = rho sin(r/rho), L = pi rho, of every interval sphere, and a
    ``CosPolynomial`` density phi = c0 + c1 c + c2 c^2 in c = cos(r/rho) of
    length L (of any length if constant).  There Ric = (n-1)/rho^2 in every
    direction, and phi'' and phi' w'/w give

        rho^2 Ric_phi,rr  = (n-1) + 2 c2 - c1 c - 4 c2 c^2
        rho^2 Ric_phi,tan = (n-1)        - c1 c - 2 c2 c^2,

    so each eigenvalue is least at c = +-1 (a pole) or at its vertex inside
    (-1, 1).  ``radius`` = rho acos(c) is where the minimum is attained; a
    tie (Ric_phi constant, as on a unit round sphere) goes to the largest c,
    the smallest radius.  A density outside the family raises
    ``InapplicableBoundError``, since no minimum is proved for it.  A
    non-positive result is flagged: the Lichnerowicz- and Ling-type bounds
    need K > 0.
    """
    if model.topology == CIRCLE:
        raise ValueError("the (n-1) K normalization degenerates on 1-dimensional circles")
    phi = model.phi
    if not isinstance(phi, CosPolynomial) or (phi.length != model.L and any(phi.coeffs[1:])):
        raise InapplicableBoundError(
            f"K_eff has a closed form only for a cos-polynomial density of the model's "
            f"length L; {model.label} is not one")
    n1 = model.n - 1
    c1, c2 = (phi.coeffs + (0.0, 0.0))[1:3]
    candidates = []  # (rho^2 Ric_phi, -c): the least value, then the largest c
    for a, q in ((n1 + 2.0 * c2, -4.0 * c2), (n1, -2.0 * c2)):
        vertex = (c1 / (2.0 * q),) if abs(c1) < 2.0 * q else ()
        candidates += [(a - c1 * c + q * c * c, -c) for c in (1.0, -1.0) + vertex]
    value, neg_c = min(candidates)
    rho = model.L / math.pi
    k_eff = value / (n1 * rho**2)
    return RicciLowerBound(K=k_eff, radius=rho * math.acos(-neg_c), positive=k_eff > 0.0)


def diameter(model: WarpedManifold) -> float:
    """Diameter in closed form.

    Interval-sphere: the two poles realize the diameter, d = L; any two points
    at radii r1, r2 are joined through a pole by a path of length
    min(r1 + r2, 2L - r1 - r2) <= L.  Circle: d = L/2.
    """
    return model.L if model.topology == INTERVAL_SPHERE else model.L / 2.0
