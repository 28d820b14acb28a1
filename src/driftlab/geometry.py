"""Weighted model manifolds: warped products over an interval, and weighted circles.

A rotationally symmetric metric on a closed manifold is written as

    g = dr^2 + w(r)^2 g_{S^{n-1}},   r in [0, L],

where the warp profile w vanishes at both endpoints with unit slope
(w(0) = w(L) = 0, w'(0) = 1, w'(L) = -1), which is exactly the condition for
the two ends to close up into smooth poles.  A weighted (Bakry-Emery)
structure adds a radial density phi, turning the volume form into
e^{-phi} dV_g.  The second supported topology is a weighted circle of
circumference L, where the fiber is trivial and only the density matters.

Curvature of the warped product, in an orthonormal frame:

    Ric_rr  = -(n-1) w''/w
    Ric_tan = -w''/w + (n-2) (1 - w'^2) / w^2
    R       = Ric_rr + (n-1) Ric_tan

and the Hessian of a radial function phi has radial component phi'' and
tangential component phi' w'/w.  The Bakry-Emery Ricci tensor is
Ric_phi = Ric + Hess(phi).

All profiles are supplied with analytic derivatives up to third order so that
curvature, its radial derivative, and pole limits can be evaluated without
differencing noise.  The quantity (1 - w'^2) is cancellation-prone near the
poles, so profiles may carry a stable closed form for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InapplicableBoundError, PoleRegularityError

INTERVAL_SPHERE = "interval-sphere"
CIRCLE = "circle"

# Pole closure, periodicity and evenness are checked to this absolute tolerance.
_REGULARITY_TOL = 1e-8


@dataclass(frozen=True)
class RadialProfile:
    """A scalar profile on [0, L] with analytic derivatives up to order three.

    ``one_minus_d1_sq`` optionally evaluates 1 - (f')^2 in a cancellation-free
    form; warp profiles want this because (1 - w'^2)/w^2 is a 0/0 limit at the
    poles.

    ``cos_family`` records what a constructor of the round cos-polynomial
    family built, for ``be_ricci_lower_bound``'s closed form: ``(L,)`` for
    the round warp of length L, ``(L, coeffs)`` for the density
    p(cos(pi r / L)) with p's coefficients in increasing-degree order (L is
    None for ``zero_density``, which fits every length).  Only those
    constructors set it; any other profile has None.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    one_minus_d1_sq: Callable[[np.ndarray], np.ndarray] | None = None
    cos_family: tuple | None = field(default=None, init=False)

    def __call__(self, r):
        return self.value(r)

    def shifted(self, offset: float) -> "RadialProfile":
        """The profile f + offset (derivatives unchanged); a density's record
        moves its constant term, a warp's is dropped."""
        base = self.value
        out = replace(
            self,
            value=lambda r, _b=base, _o=float(offset): _b(r) + _o,
            name=f"{self.name}+{offset:g}" if self.name else f"shift({offset:g})",
        )
        if self.cos_family is not None and len(self.cos_family) == 2:
            length, coeffs = self.cos_family
            _record(out, (length, (coeffs[0] + offset,) + coeffs[1:]))
        return out

    def stable_one_minus_d1_sq(self, r):
        if self.one_minus_d1_sq is not None:
            return self.one_minus_d1_sq(r)
        d = self.d1(r)
        return (1.0 - d) * (1.0 + d)


def _record(profile: RadialProfile, cos_family: tuple) -> RadialProfile:
    object.__setattr__(profile, "cos_family", cos_family)
    return profile


def sphere_warp(radius: float = 1.0) -> RadialProfile:
    """w(r) = radius * sin(r / radius) on [0, pi * radius]."""
    rho = float(radius)
    return _record(RadialProfile(
        value=lambda r: rho * np.sin(np.asarray(r, dtype=float) / rho),
        d1=lambda r: np.cos(np.asarray(r, dtype=float) / rho),
        d2=lambda r: -np.sin(np.asarray(r, dtype=float) / rho) / rho,
        d3=lambda r: -np.cos(np.asarray(r, dtype=float) / rho) / rho**2,
        name=f"sphere-warp(radius={rho:g})",
        one_minus_d1_sq=lambda r: np.sin(np.asarray(r, dtype=float) / rho) ** 2,
    ), (math.pi * rho,))


def stretched_sphere_warp(length: float) -> RadialProfile:
    """Pole-regular warp of total arc length L: w(r) = (L/pi) sin(pi r / L)."""
    return _record(sphere_warp(length / math.pi), (float(length),))


def zero_density() -> RadialProfile:
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return _record(RadialProfile(value=zero, d1=zero, d2=zero, d3=zero, name="zero"),
                   (None, (0.0,)))


def cosine_density(amplitude: float, length: float = math.pi) -> RadialProfile:
    """phi(r) = amplitude * cos(pi r / L); on the unit sphere this is eps*cos(r)."""
    a = float(amplitude)
    k = math.pi / float(length)
    return _record(RadialProfile(
        value=lambda r: a * np.cos(k * np.asarray(r, dtype=float)),
        d1=lambda r: -a * k * np.sin(k * np.asarray(r, dtype=float)),
        d2=lambda r: -a * k**2 * np.cos(k * np.asarray(r, dtype=float)),
        d3=lambda r: a * k**3 * np.sin(k * np.asarray(r, dtype=float)),
        name=f"cosine(eps={a:g})",
    ), (float(length), (0.0, a)))


def poly_cos_density(coeffs, length: float = math.pi) -> RadialProfile:
    """phi(r) = p(cos(pi r / L)) for a polynomial p given by ``coeffs``.

    ``coeffs`` are in increasing-degree order, p(x) = c0 + c1 x + c2 x^2 + ...
    Radial smoothness at the poles is automatic because d/dr cos(pi r/L)
    vanishes there.  The degree is at most 2, the degree that
    ``be_ricci_lower_bound`` solves in closed form: on the round warp each
    Ric_phi eigenvalue is then a quadratic in cos(pi r/L).
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("poly_cos_density expects a non-empty 1-d coefficient list")
    if c.size > 3:
        raise ValueError(f"poly_cos_density takes at most 3 coefficients (degree 2); got {c.size}")
    k = math.pi / float(length)
    p = np.polynomial.Polynomial(c)
    p1, p2, p3 = p.deriv(1), p.deriv(2), p.deriv(3)

    def _x(r):
        return np.cos(k * np.asarray(r, dtype=float))

    def _value(r):
        return p(_x(r))

    def _d1(r):
        r = np.asarray(r, dtype=float)
        return p1(_x(r)) * (-k * np.sin(k * r))

    def _d2(r):
        r = np.asarray(r, dtype=float)
        x1 = -k * np.sin(k * r)
        x2 = -k**2 * np.cos(k * r)
        return p2(_x(r)) * x1**2 + p1(_x(r)) * x2

    def _d3(r):
        r = np.asarray(r, dtype=float)
        x1 = -k * np.sin(k * r)
        x2 = -k**2 * np.cos(k * r)
        x3 = k**3 * np.sin(k * r)
        return p3(_x(r)) * x1**3 + 3.0 * p2(_x(r)) * x1 * x2 + p1(_x(r)) * x3

    return _record(RadialProfile(value=_value, d1=_d1, d2=_d2, d3=_d3,
                                 name=f"poly-cos({','.join('%g' % v for v in c)})"),
                   (float(length), tuple(c.tolist())))


@dataclass(frozen=True)
class WarpedManifold:
    """A compact rotationally symmetric weighted manifold.

    topology "interval-sphere": warped product over [0, L] with fiber S^{n-1};
    topology "circle": weighted circle of circumference L (n = 1, no warp).
    """

    topology: str
    n: int
    L: float
    w: RadialProfile | None
    phi: RadialProfile
    name: str = ""

    def __post_init__(self):
        if self.topology not in (INTERVAL_SPHERE, CIRCLE):
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if self.topology == INTERVAL_SPHERE:
            if self.n < 2:
                raise ValueError("interval-sphere models need dimension n >= 2")
            if self.w is None:
                raise ValueError("interval-sphere models need a warp profile")
            self._check_pole_regularity()
        else:
            if self.n != 1:
                raise ValueError("circle models are one-dimensional (n = 1)")
            if self.w is not None:
                raise ValueError("circle models carry no warp profile")
            self._check_periodicity()

    def _check_pole_regularity(self):
        w = self.w
        ends = np.array([0.0, self.L])
        vals = np.asarray(w.value(ends), dtype=float)
        slopes = np.asarray(w.d1(ends), dtype=float)
        if abs(vals[0]) > _REGULARITY_TOL * self.L or abs(vals[1]) > _REGULARITY_TOL * self.L:
            raise PoleRegularityError(
                f"warp must vanish at the poles; got w(0)={vals[0]:.3e}, w(L)={vals[1]:.3e}")
        if abs(slopes[0] - 1.0) > _REGULARITY_TOL or abs(slopes[1] + 1.0) > _REGULARITY_TOL:
            raise PoleRegularityError(
                f"pole slopes must be +1/-1; got w'(0)={slopes[0]:.10f}, w'(L)={slopes[1]:.10f}")
        interior = np.linspace(0.0, self.L, 513)[1:-1]
        if np.any(np.asarray(w.value(interior)) <= 0.0):
            raise PoleRegularityError("warp must be strictly positive on (0, L)")

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


def sphere(n: int, radius: float = 1.0, density: RadialProfile | None = None,
           name: str = "") -> WarpedManifold:
    """Round n-sphere of the given radius, optionally with a radial density."""
    return WarpedManifold(
        topology=INTERVAL_SPHERE, n=n, L=math.pi * radius,
        w=sphere_warp(radius), phi=density or zero_density(),
        name=name or f"S^{n}(r={radius:g})",
    )


def interval_sphere(n: int, length: float, warp: RadialProfile | None = None,
                    density: RadialProfile | None = None, name: str = "") -> WarpedManifold:
    """Warped product over an interval of arc length ``length``."""
    return WarpedManifold(
        topology=INTERVAL_SPHERE, n=n, L=float(length),
        w=warp or stretched_sphere_warp(length), phi=density or zero_density(),
        name=name,
    )


def circle(circumference: float, density: RadialProfile | None = None,
           name: str = "") -> WarpedManifold:
    """Weighted circle of the given circumference."""
    return WarpedManifold(
        topology=CIRCLE, n=1, L=float(circumference), w=None,
        phi=density or zero_density(), name=name or f"circle(L={circumference:g})",
    )


def unit_fiber_area(n: int) -> float:
    """Area of the unit fiber: Vol(S^{n-1}) = 2 pi^{n/2} / Gamma(n/2); 1 for circles."""
    if n == 1:
        return 1.0
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid with quadrature weights for the weighted measure.

    Cell centers sit at (i + 1/2) h for the interval topology, so no node ever
    touches a pole; the circle uses nodes at i h with periodic wrap.  The
    weights integrate u against  w^{n-1} e^{-phi} dr * Vol(S^{n-1})  (interval)
    or  e^{-phi} dtheta  (circle) by the composite midpoint rule; ``density``
    holds rho = w^{n-1} e^{-phi} (or e^{-phi}) at the nodes, which they and
    the operator assembly share.
    """

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
        return Grid(nodes=nodes, spacing=h, weights=weighted_measure(model, rho, h),
                    density=rho)


def measure_density(model: WarpedManifold, r: np.ndarray) -> np.ndarray:
    """rho(r) = w^{n-1} e^{-phi} (interval) or e^{-phi} (circle)."""
    r = np.asarray(r, dtype=float)
    if model.topology == INTERVAL_SPHERE:
        return np.asarray(model.w.value(r)) ** (model.n - 1) * np.exp(-np.asarray(model.phi.value(r)))
    return np.exp(-np.asarray(model.phi.value(r)))


def weighted_measure(model: WarpedManifold, density: np.ndarray, spacing: float) -> np.ndarray:
    """Quadrature weights for integrating against the weighted volume measure,
    from the measure density at the nodes and the node spacing."""
    return unit_fiber_area(model.n) * density * spacing


def integrate(grid: Grid, samples: np.ndarray) -> float:
    """Integral of a radial function against the weighted measure."""
    return float(np.sum(grid.weights * samples))


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature of the model sampled on a grid (orthonormal-frame components)."""

    ric_rr: np.ndarray
    ric_tan: np.ndarray
    ricphi_rr: np.ndarray
    ricphi_tan: np.ndarray
    scalar: np.ndarray


def curvature(model: WarpedManifold, grid: Grid) -> CurvatureProfile:
    """Ricci, Bakry-Emery Ricci, and scalar curvature at the grid nodes.

    Cell centers stay a half-spacing away from the poles, so the removable
    singularities of w''/w and (1 - w'^2)/w^2 are evaluated directly; the
    cancellation-prone 1 - w'^2 uses the profile's stable form when present.
    Exact pole values are available from :func:`pole_curvature`.
    """
    r, phi = grid.nodes, model.phi
    if model.topology == CIRCLE:
        zero = np.zeros_like(r)
        hess = np.asarray(phi.d2(r), dtype=float)
        return CurvatureProfile(ric_rr=zero, ric_tan=zero.copy(),
                                ricphi_rr=hess, ricphi_tan=hess.copy(),
                                scalar=zero.copy())
    w = model.w
    wv = np.asarray(w.value(r), dtype=float)
    if np.any(wv <= 0.0) or not np.all(np.isfinite(wv)):
        raise PoleRegularityError("warp is not positive on the grid; check pole regularity")
    wd1 = np.asarray(w.d1(r), dtype=float)
    wd2 = np.asarray(w.d2(r), dtype=float)
    a = wd2 / wv
    btan = np.asarray(w.stable_one_minus_d1_sq(r), dtype=float) / wv**2
    n = model.n
    ric_rr = -(n - 1) * a
    ric_tan = -a + (n - 2) * btan
    scalar = -2.0 * (n - 1) * a + (n - 1) * (n - 2) * btan
    pd1 = np.asarray(phi.d1(r), dtype=float)
    pd2 = np.asarray(phi.d2(r), dtype=float)
    hess_rr = pd2
    hess_tan = pd1 * wd1 / wv
    return CurvatureProfile(
        ric_rr=ric_rr, ric_tan=ric_tan,
        ricphi_rr=ric_rr + hess_rr, ricphi_tan=ric_tan + hess_tan,
        scalar=scalar,
    )


def pole_curvature(model: WarpedManifold) -> tuple[float, float]:
    """Limit value of every Ricci component at each pole (curvature is isotropic there).

    L'Hopital against w gives  Ric(0) = -(n-1) w'''(0)  and
    Ric(L) = +(n-1) w'''(L); the tangential component has the same limits.
    """
    if model.topology != INTERVAL_SPHERE:
        raise ValueError("pole curvature is defined for interval-sphere models only")
    n = model.n
    w3 = np.asarray(model.w.d3(np.array([0.0, model.L])), dtype=float)
    return (-(n - 1) * float(w3[0]), (n - 1) * float(w3[1]))


def scalar_curvature_derivative(model: WarpedManifold, r: np.ndarray) -> np.ndarray:
    """dR/dr at interior points, from analytic profile derivatives.

    Written as a combination of (w''' - w'' w'/w) and (w''/w + (1-w'^2)/w^2),
    both of which vanish identically on round spheres, so the round case
    evaluates to zero up to rounding.
    """
    if model.topology == CIRCLE:
        return np.zeros_like(np.asarray(r, dtype=float))
    w = model.w
    r = np.asarray(r, dtype=float)
    wv = np.asarray(w.value(r), dtype=float)
    wd1 = np.asarray(w.d1(r), dtype=float)
    wd2 = np.asarray(w.d2(r), dtype=float)
    wd3 = np.asarray(w.d3(r), dtype=float)
    btan = np.asarray(w.stable_one_minus_d1_sq(r), dtype=float) / wv**2
    n = model.n
    term_a = (wd3 - wd2 * wd1 / wv) / wv
    term_b = wd1 * (wd2 / wv + btan) / wv
    return -2.0 * (n - 1) * term_a - 2.0 * (n - 1) * (n - 2) * term_b


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
    w = rho sin(r/rho) of the model's length L = pi rho, with a density
    phi = c0 + c1 c + c2 c^2 in c = cos(r/rho) (``poly_cos_density``,
    ``cosine_density``, ``zero_density``).  There Ric = (n-1)/rho^2 in every
    direction, and phi'' and phi' w'/w give

        rho^2 Ric_phi,rr  = (n-1) + 2 c2 - c1 c - 4 c2 c^2
        rho^2 Ric_phi,tan = (n-1)        - c1 c - 2 c2 c^2,

    so each eigenvalue is least at c = +-1 (a pole) or at its vertex inside
    (-1, 1).  ``radius`` = rho acos(c) is where the minimum is attained; a
    tie (Ric_phi constant, as on a unit round sphere) goes to the largest c,
    the smallest radius.  A model outside the family raises
    ``InapplicableBoundError``, since no minimum is proved for it.  A
    non-positive result is flagged: the Lichnerowicz- and Ling-type bounds
    need K > 0.
    """
    if model.topology == CIRCLE:
        raise ValueError("the (n-1) K normalization degenerates on 1-dimensional circles")
    dens = model.phi.cos_family
    if model.w.cos_family != (model.L,) or dens is None or len(dens) != 2 \
            or dens[0] not in (None, model.L):
        raise InapplicableBoundError(
            f"K_eff has a closed form only for the round warp with a cos-polynomial density "
            f"of the model's length L; {model.label} is not one")
    n1 = model.n - 1
    c1, c2 = (dens[1] + (0.0, 0.0))[1:3]
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
