"""Weighted model manifolds: round warped products over an interval, and weighted circles.

A rotationally symmetric metric on a closed manifold is written as

    g = dr^2 + w(r)^2 g_{S^{n-1}},   r in [0, L].

Every interval sphere carries the round warp of its length, ``RoundWarp(L)``:
w = rho sin(r/rho) with rho = L/pi, which vanishes at both ends with unit
slope, so the two ends close up into smooth poles by construction.  A
weighted (Bakry-Emery) structure adds a radial density phi, turning the
volume form into e^{-phi} dV_g.  A model stores the density as its
coefficients (c0, c1, c2) and reads them in its own coordinate c =
cos(pi r/l) on its own interval [0, l]: l = L on an interval sphere and the
mirror half l = L/2 on a weighted circle of circumference L, where w = 1
and the fiber S^0 is the pair of mirror points (``Grid``).  ``model.phi``
is then ``CosPolynomial(coeffs, l)``, phi = p(c) with deg p <= 2, which
generates its values.  So a density on a circle is
even about both mirror points theta = 0 and L/2, and one on a sphere has
zero slope at both poles, by construction.

On the round warp the curvature has a closed form: Ric = (n-1)/rho^2 g in
every direction, R = n (n-1)/rho^2 and dR/dr = 0.  The Hessian of a radial
function phi has radial component phi'' and tangential component phi' w'/w;
for phi = p(c) both are quadratics in c, whose coefficients ``hess_phi``
holds, poles included.  The Bakry-Emery Ricci tensor is Ric_phi = Ric +
Hess(phi), whose least eigenvalue ``be_ricci_lower_bound`` finds from them in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INTERVAL_SPHERE = "interval-sphere"
CIRCLE = "circle"


@dataclass(frozen=True)
class RoundWarp:
    """The round warp of arc length L: w(r) = rho sin(r / rho), rho = L / pi."""

    length: float

    @property
    def rho(self) -> float:
        return self.length / math.pi

    def value(self, r):
        return self.rho * np.sin(np.asarray(r, dtype=float) / self.rho)


@dataclass(frozen=True)
class CosPolynomial:
    """The density phi(r) = p(x), x = cos(k r), k = pi / length, p(x) = c0 + c1 x + c2 x^2.

    ``WarpedManifold.phi`` builds it on the model's own interval.  ``coeffs``
    holds 1 to 3 coefficients in increasing-degree order: degree 2 is what
    ``hess_phi`` takes in closed form.  Radial smoothness at the poles is
    automatic, as d/dr cos(k r) vanishes there.
    """

    coeffs: tuple[float, ...]
    length: float

    def __post_init__(self):
        c, length = tuple(float(v) for v in self.coeffs), float(self.length)
        if not (1 <= len(c) <= 3 and all(map(math.isfinite, c)) and 0.0 < length < math.inf):
            raise ValueError(f"CosPolynomial takes 1 to 3 finite coefficients (degree <= 2) "
                             f"and a positive and finite length; got {c}, {length}")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "length", length)

    def value(self, r):
        c = self.coeffs
        if len(c) == 1:
            return np.full(np.shape(r), c[0])
        # c0 + c1 x (+ c2 x^2) in numpy polyval's operation order, in place
        x = np.cos(math.pi / self.length * np.asarray(r, dtype=float))
        y = c[-1] * x
        y += c[-2]
        if len(c) == 3:
            y *= x
            y += c[0]
        return y


def cosine_density(amplitude: float) -> tuple[float, float]:
    """The coefficients of phi = amplitude * c: amplitude * cos(r) on the unit
    sphere, amplitude * cos(2 pi theta / L) on a circle of circumference L."""
    return (0.0, amplitude)


@dataclass(frozen=True)
class WarpedManifold:
    """A compact rotationally symmetric weighted manifold.

    topology "interval-sphere": warped product over [0, L] with fiber S^{n-1}
    and the round warp ``RoundWarp(L)``; topology "circle": weighted circle of
    circumference L (n = 1, no warp).  ``coeffs`` are the density's 1 to 3
    coefficients in the model's own coordinate (module docstring); bad ones
    raise ``ValueError`` here.
    """

    topology: str
    n: int
    L: float
    coeffs: tuple[float, ...]

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
        object.__setattr__(self, "coeffs", self.phi.coeffs)

    @property
    def w(self) -> RoundWarp | None:
        """The warp: the round warp of length L on an interval sphere, none on a circle."""
        return RoundWarp(self.L) if self.topology == INTERVAL_SPHERE else None

    @property
    def phi(self) -> CosPolynomial:
        """The density: p(cos(pi r/L)) on an interval sphere, p(cos(2 pi theta/L)) on a circle."""
        return CosPolynomial(self.coeffs, self.L if self.topology == INTERVAL_SPHERE
                             else self.L / 2.0)


def interval_sphere(n: int, length: float, density: tuple[float, ...] = (0.0,)) -> WarpedManifold:
    """The round warped product over an interval of arc length ``length``,
    with the density of coefficients ``density`` in c = cos(pi r/length)."""
    return WarpedManifold(topology=INTERVAL_SPHERE, n=n, L=float(length), coeffs=density)


def sphere(n: int, radius: float = 1.0, density: tuple[float, ...] = (0.0,)) -> WarpedManifold:
    """Round n-sphere of the given radius, with the density of coefficients
    ``density`` in c = cos(r/radius)."""
    return interval_sphere(n, math.pi * radius, density)


def circle(circumference: float, density: tuple[float, ...] = (0.0,)) -> WarpedManifold:
    """Weighted circle of the given circumference L, with the density of
    coefficients ``density`` in c = cos(2 pi theta/L)."""
    return WarpedManifold(topology=CIRCLE, n=1, L=float(circumference), coeffs=density)


def einstein_constant(model: WarpedManifold) -> float:
    """Ric = (n-1)/rho^2, rho = L/pi: the round warp's Ricci curvature in
    every direction, and so the gamma of its Einstein soliton."""
    return (model.n - 1) / (model.L / math.pi) ** 2


def unit_fiber_area(n: int) -> float:
    """Area of the unit fiber: Vol(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2); for
    n = 1 the fiber S^0 is the two mirror points of a circle, of count 2."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid of N cells of width h = L / N on ``model``,
    whose weighted measure it integrates.

    Cell centers sit at (i + 1/2) h on the model's own interval [0, l]
    (``model.phi.length``), whose two ends fall on faces: an interval sphere
    holds all N cells, on [0, L] between its poles, and a circle its mirror
    half, the N/2 cells on [0, L/2] between its mirror points theta = 0 and
    L/2, so N must be even there.  The reflection theta -> -theta fixes both
    mirror points, so every eigenfunction of a circle is even or odd about
    them, and its half holds it.  The weights integrate u against
    w^{n-1} e^{-phi} dr * Vol(S^{n-1}) by the composite midpoint rule; on a
    circle w = 1 and the fiber S^0 is the pair of mirror points, so the
    weights 2 e^{-phi} h integrate an even u^2 over the whole circle.
    ``density`` holds rho = w^{n-1} e^{-phi} at the nodes, which they and
    the operator assembly share.
    """

    model: WarpedManifold
    nodes: np.ndarray
    spacing: float
    weights: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.count < 4:
            raise ValueError("grid needs at least 4 cells")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if not (np.all(self.weights > 0.0) and np.all(np.isfinite(self.weights))):
            raise ValueError("quadrature weights must be positive and finite")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def count(self) -> int:
        """N, the cells around the model: twice ``size`` on a circle's mirror half."""
        return 2 * self.size if self.model.topology == CIRCLE else self.size

    @staticmethod
    def uniform(model: WarpedManifold, count: int) -> "Grid":
        half = model.topology == CIRCLE
        if half and count % 2:
            raise ValueError(f"a circle grid must be even: its mirror half holds N/2 cells, "
                             f"got N = {count}")
        h = model.L / count
        nodes = (np.arange(count // 2 if half else count) + 0.5) * h
        with np.errstate(over="ignore"):  # an overflow is refused as a weight that is not finite
            rho = measure_density(model, nodes)
            weights = unit_fiber_area(model.n) * rho * h
        return Grid(model=model, nodes=nodes, spacing=h, weights=weights, density=rho)

    def halved(self) -> "Grid":
        """The grid of half the cells, size // 2, on the same model (nested
        for an even size): the Richardson partner's."""
        return Grid.uniform(self.model, self.count // self.size * (self.size // 2))


def measure_density(model: WarpedManifold, r: np.ndarray) -> np.ndarray:
    """rho(r) = w^{n-1} e^{-phi} (interval) or e^{-phi} (circle)."""
    r = np.asarray(r, dtype=float)
    if model.topology == INTERVAL_SPHERE:
        return np.asarray(model.w.value(r)) ** (model.n - 1) * np.exp(-np.asarray(model.phi.value(r)))
    return np.exp(-np.asarray(model.phi.value(r)))


def hess_phi(model: WarpedManifold) -> tuple[tuple[float, float, float],
                                             tuple[float, float, float]]:
    """rho^2 Hess(phi) on an interval sphere, rho = L/pi: the coefficients
    (a, b, q) of its radial and tangential eigenvalues a + b c + q c^2 in the
    model's c = cos(r/rho).

    With phi = p(c), p(c) = c0 + c1 c + c2 c^2, the chain rule gives
    rho^2 phi'' = (1 - c^2) p''(c) - c p'(c), and w'/w = cot(r/rho)/rho gives
    rho^2 phi' w'/w = -c p'(c):

        radial       2 c2 - c1 c - 4 c2 c^2
        tangential        - c1 c - 2 c2 c^2.

    Both are polynomials in c, so they hold at the poles c = +-1 as well,
    where they agree: Hess(phi) is isotropic there, with the value phi''.
    """
    c1, c2 = (model.coeffs + (0.0, 0.0))[1:3]
    return (2.0 * c2, -c1, -4.0 * c2), (0.0, -c1, -2.0 * c2)


@dataclass(frozen=True)
class RicciLowerBound:
    """Largest K with Ric_phi >= (n-1) K g on the model, and where it is attained."""

    K: float
    radius: float


def be_ricci_lower_bound(model: WarpedManifold) -> RicciLowerBound:
    """K_eff = min over the model of the smaller Ric_phi eigenvalue, over (n-1).

    The minimum is the model's own, in closed form: every interval sphere
    has the round warp w = rho sin(r/rho), L = pi rho, and the density
    phi = c0 + c1 c + c2 c^2 in its own c = cos(r/rho).  There
    Ric = (n-1)/rho^2 in every direction, so each eigenvalue of
    rho^2 Ric_phi is (n-1) plus a quadratic of ``hess_phi`` in c, least at
    c = +-1 (a pole) or at its vertex inside (-1, 1).  ``radius`` = rho acos(c) is where the minimum is attained; a
    tie (Ric_phi constant, as on a unit round sphere) goes to the largest c,
    the smallest radius.  The Lichnerowicz- and Ling-type bounds need K > 0.
    """
    if model.topology == CIRCLE:
        raise ValueError("the (n-1) K normalization degenerates on 1-dimensional circles")
    n1 = model.n - 1
    candidates = []  # (rho^2 Ric_phi, -c): the least value, then the largest c
    for a, b, q in hess_phi(model):
        vertex = (-b / (2.0 * q),) if abs(b) < 2.0 * q else ()
        candidates += [((n1 + a) + b * c + q * c * c, -c) for c in (1.0, -1.0) + vertex]
    value, neg_c = min(candidates)
    rho = model.L / math.pi
    k_eff = value / (n1 * rho**2)
    return RicciLowerBound(K=k_eff, radius=rho * math.acos(-neg_c))


def diameter(model: WarpedManifold) -> float:
    """Diameter in closed form.

    Interval-sphere: the two poles realize the diameter, d = L; any two points
    at radii r1, r2 are joined through a pole by a path of length
    min(r1 + r2, 2L - r1 - r2) <= L.  Circle: d = L/2.
    """
    return model.L if model.topology == INTERVAL_SPHERE else model.L / 2.0
