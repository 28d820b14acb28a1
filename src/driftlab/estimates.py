"""Proof instruments for first-eigenfunction estimates on weighted models.

Given an eigenfunction u of the first non-zero eigenvalue, Delta_phi u = -lambda u,
the normalized form is

    max u = 1, min u = -k (0 < k <= 1),   v = (u - (1-k)/2) / ((1+k)/2),

so that max v = 1, min v = -1 and Delta_phi v = -lambda (v + a) with
a = (1-k)/(1+k) in [0, 1).  With a drift-Ricci lower bound Ric_phi >= (n-1) K g,
define alpha = (n-1)K/2 and delta = alpha/lambda; for any constant b > 1 the
gradient estimate |grad v|^2 / (b^2 - v^2) <= lambda (1 + a) holds, and the
level-set maximum function

    Z(t) = max { |grad v|^2 / (lambda (b^2 - v^2)) : arcsin(v(x)/b) = t }

is dominated by explicit barriers z(t) = 1 + c eta(t) + kappa xi(t), c = a/b.
A ``BarrierFamily`` holds only (a, b, kappa); ``barrier`` computes
kappa = mu delta and ``case_b2b2_barrier`` kappa = delta - sigma c^2.  The
barriers are built from the classical pair of test functions

    xi(t)  = (cos^2 t + 2 t sin t cos t + t^2 - pi^2/4) / cos^2 t,
    eta(t) = ((4/pi) t + (4/pi) cos t sin t - 2 sin t) / cos^2 t.

Both satisfy exact second-order identities,

    (1/2) xi''  cos^2 t - xi'  cos t sin t - xi  = 2 cos^2 t,
    (1/2) eta'' cos^2 t - eta' cos t sin t - eta = -sin t,

which make the touching-point inequality residuals of the barrier method
evaluate to closed forms.  The closed forms above cancel catastrophically near
t = +-pi/2, where their numerators vanish, so xi and eta are evaluated on all of
[-pi/2, pi/2] from one Taylor series in s = pi/2 - |t|, whose coefficients the
identities generate.  Useful exact values:
xi(0) = 1 - pi^2/4, xi(+-pi/2) = 0, eta(+-pi/2) = +-1, int xi dt = -pi,
int eta dt = 0 over [-pi/2, pi/2].

One evaluator, ``xi_eta(t, order)``, gives the values (order 0) or the first
or second derivatives of xi and eta together from one Horner pass over both
series; ``xi``, ``eta``, ``BarrierFamily.value`` and
``BarrierFamily.derivative`` all read it.  The points that recur are evaluated
once: the positivity sweep of [-pi/2, pi/2] and the Gauss-Legendre nodes in
tables built at import, and each b's comparison-domain sweep in a small per-b
cache, so every check reads the same bits that a fresh evaluation gives.

Derivatives of barriers are always analytic; the touching-point residual is
too sensitive for differenced derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (BarrierDomainError, BarrierHypothesisError,
                     DegenerateEigenfunctionError)
from .geometry import Grid
from .spectral import EigenMode, norm_bound

HALF_PI = math.pi / 2.0

_DOMAIN_SLACK = 1e-12
# Gauss-Legendre rule on [-pi/2, pi/2] for the smooth integrands of the barriers.
_GL_NODES, _GL_WEIGHTS = (HALF_PI * x for x in np.polynomial.legendre.leggauss(64))


def _taylor_series(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of xi and eta in s = pi/2 - |t| (increasing powers).

    In s the identities read (1/2) sin^2 s y'' + sin s cos s y' - y = r(s), with
    r = 2 sin^2 s for xi and r = -cos s for eta.  Their s^k coefficient is
    (k-1)(k+2)/2 c_k plus lower coefficients of the same parity, so c_0 and the
    free c_1 = -y'(pi/2) of the regular solution seed a recurrence for the rest.
    """
    k = np.arange(terms + 2)
    # over even k, w_k s^k sums to cos 2s and w_k (s/2)^k to cos s; over odd k to sin 2s
    w = np.array([(-1.0) ** (j // 2) * 2.0**j / math.factorial(j) for j in k])
    even = k % 2 == 0
    sin2 = np.where(even & (k > 0), -w / 2.0, 0.0)  # sin^2 s = (1 - cos 2s)/2
    sincos = np.where(even, 0.0, w / 2.0)  # sin s cos s = (sin 2s)/2
    series = []
    for c0, c1, rhs in ((0.0, -2.0 * math.pi / 3.0, 2.0 * sin2),
                        (1.0, -8.0 / (3.0 * math.pi), np.where(even, -w / 2.0**k, 0.0))):
        c = np.zeros(terms)
        c[:2] = c0, c1
        for m in range(2, terms):
            j = k[:m]
            lower = c[:m] @ (0.5 * j * (j - 1) * sin2[m + 2 - j] + j * sincos[m + 1 - j])
            c[m] = (rhs[m] - lower) / ((m - 1) * (m + 2) / 2.0)
        series.append(c)
    return tuple(series)


# The series converge for s < pi (the nearest singularity is t = +-3pi/2); 64
# terms reach t = 0 (s = pi/2) to 1e-14 in the values and two derivatives.
_SERIES = np.stack(_taylor_series(64))  # rows: xi, eta


def _series_eval(coeffs: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Evaluate d^order/dt^order of sum c_k s^k at s = pi/2 - t (t > 0 branch),
    for one series or, in one pass, for each row of a stack of them."""
    c = coeffs
    for _ in range(order):
        c = -(c * np.arange(c.shape[-1]))[..., 1:]  # d/dt = -d/ds
    out = np.empty(c.shape[:-1] + s.shape)
    out[...] = c[..., -1, None]
    for k in range(c.shape[-1] - 2, -1, -1):  # Horner's rule, in place
        out *= s
        out += c[..., k, None]
    return out


def xi_eta(t, order: int = 0):
    """The order-th derivatives (order 0, 1 or 2) of xi and eta at t, from one
    Horner pass over both series: a pair of floats for a scalar t, else a
    (2, t.size) array.  Raises ``BarrierDomainError`` outside [-pi/2, pi/2]."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(np.abs(t) > HALF_PI + _DOMAIN_SLACK) or not np.all(np.isfinite(t)):
        raise BarrierDomainError("test functions are defined on [-pi/2, pi/2]")
    out = _series_eval(_SERIES, HALF_PI - np.minimum(np.abs(t), HALF_PI), order)
    # xi is even and eta odd, so the odd one of their order-th derivatives is
    # eta's for even orders and xi's for odd ones; the series gives the t > 0 branch
    odd = out[(order + 1) % 2]
    odd[t < 0.0] *= -1.0
    odd[t == 0.0] = 0.0
    return (float(out[0, 0]), float(out[1, 0])) if scalar else out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# (xi, eta) at the points every length-integral check samples: its positivity
# sweep of [-pi/2, pi/2] and the Gauss-Legendre nodes of its transit integral
_SWEEP_XI_ETA = _read_only(xi_eta(np.linspace(-HALF_PI, HALF_PI, 2001)))
_GL_XI_ETA = _read_only(xi_eta(_GL_NODES))


def xi(t):
    """Even test function; xi(0) = 1 - pi^2/4, xi(+-pi/2) = 0, int xi = -pi."""
    return xi_eta(t)[0]


def eta(t):
    """Odd test function; eta(0) = 0, eta(+-pi/2) = +-1, int eta = 0."""
    return xi_eta(t)[1]


def gauss_legendre_integral(f) -> float:
    """int f dt over [-pi/2, pi/2] by the fixed 64-node Gauss-Legendre rule;
    ``f`` takes an array of nodes."""
    return float(_GL_WEIGHTS @ f(_GL_NODES))


def _sample_derivative(y: np.ndarray, h: float) -> np.ndarray:
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


@dataclass(frozen=True)
class NormalizedEigenfunction:
    """The normalized first eigenfunction v with its estimate constants.

    max v = 1 and min v = -1 over the manifold; lam > 0 is the eigenvalue, k
    and a the asymmetry constants, b > 1 the gradient-estimate parameter,
    c = a/b, alpha = (n-1)K/2 and delta = alpha/lam.  For a zonal mode v is
    the radial factor ``v_rad``; an l = 1 mode is
    v = R(r) x with R = ``v_rad`` and x = cos(psi) on the fiber, the degree-1
    zonal harmonic for every n.  ``residual_rel`` is the sup-norm of the
    eigen-relation residual on the grid over the bound on the operator's
    infinity norm, which rounding scales with.
    """

    grid: Grid
    l: int
    lam: float
    k: float
    a: float
    b: float
    K: float
    v_rad: np.ndarray
    dv_rad: np.ndarray
    residual_rel: float

    @property
    def c(self) -> float:
        return self.a / self.b

    @property
    def alpha(self) -> float:
        return 0.5 * (self.grid.model.n - 1) * self.K

    @property
    def delta(self) -> float:
        return self.alpha / self.lam

    @cached_property
    def equator_grad_sq(self) -> np.ndarray:
        """A = (R/w)^2: |grad v|^2 on the fiber equator x = 0 of an l = 1 mode."""
        w = self.grid.model.w.value(self.grid.nodes)
        return (self.v_rad / np.asarray(w, dtype=float)) ** 2

    def samples(self) -> tuple[np.ndarray, np.ndarray, float | None]:
        """(v, |grad v|^2) at the points of the manifold where, row by row,
        the estimate quantities take their extremes, as the N radial rows
        and one equator value.

        Zonal modes: the radial grid, and no equator (None).  On
        the row at r of an l = 1 mode, |grad v|^2 = R'^2 x^2 + A (1 - x^2)
        and b^2 - v^2 = b^2 - R^2 x^2, so |grad v|^2 / (b^2 - v^2) is a
        Moebius function of x^2 and monotone in it: its sup over the row is
        at a fiber pole x = +-1 or at the equator x = 0.  The points are the
        poles (R, R'^2), which the rows hold, then the antipodal poles
        (-R, R'^2), which mirror them, then one point (0, max A) for the
        equators, which all lie on the level v = 0 and whose |grad v|^2 is
        the third value: 2N + 1 points in all, each row evaluated once.
        """
        equator = None if self.l == 0 else float(self.equator_grad_sq.max())
        return self.v_rad, self.dv_rad ** 2, equator


def normalize(mode: EigenMode, K: float, b: float = 1.01) -> NormalizedEigenfunction:
    """Fix sign and scale of an eigenfunction, returning v with its constants.

    The sign is chosen so that max u >= -min u over the manifold, then u is
    rescaled to max u = 1, min u = -k, and mapped to
    v = (u - (1-k)/2) / ((1+k)/2).  An l = 1 mode R(r) cos(psi) takes both
    signs on every fiber, so it has k = 1, a = 0 and v = u / max |u|.  A mode
    of a higher sector is not a first eigenfunction (lambda_1 lies in l <= 1,
    see ``first_nonzero_eigenvalue``) and raises.  A circle's mode raises
    ValueError: a circle has no (n-1) K, so alpha = delta = 0 and no
    estimate applies.  The eigen-relation
    Delta_phi v = -lam (v + a) is re-checked on the grid through the assembled
    operator; its sup-norm is stored over the bound on the operator's norm
    (which grows like N^2), where rounding alone stays far below 1e-10 at
    every N.
    """
    if not 1.0 < b < math.inf:
        raise ValueError("the gradient-estimate constant b must exceed 1 and be finite")
    lam = mode.lam
    if lam <= 0.0:
        raise DegenerateEigenfunctionError(
            f"eigenvalue lam={lam:.3e} does not define a first non-zero mode")
    problem = mode.problem
    if problem.periodic:
        raise ValueError("the (n-1) K normalization degenerates on 1-dimensional circles")
    if mode.l > 1:
        raise DegenerateEigenfunctionError(
            f"an l = {mode.l} mode is not a first eigenfunction (lambda_1 lies in l <= 1)")
    grid = problem.grid
    u = np.array(mode.u, dtype=float)
    umax, umin = float(u.max()), float(u.min())
    if umax - umin <= 1e-12 * max(1.0, abs(umax)):
        raise DegenerateEigenfunctionError("eigenfunction is constant up to rounding")

    if mode.l == 1:
        # the extremes of R(r) cos(psi) are +-max|R|
        k, a, pmax = 1.0, 0.0, max(-umin, umax)
        v_rad = u * (2.0 / ((1.0 + k) * pmax))
    else:
        if -umin > umax:
            u = -u
        u = u / float(u.max())
        k = -float(u.min())
        a = (1.0 - k) / (1.0 + k)
        v_rad = (u - (1.0 - k) / 2.0) / ((1.0 + k) / 2.0)

    residual = float(np.max(np.abs(problem.apply(v_rad) + lam * (v_rad + a))))
    return NormalizedEigenfunction(
        grid=grid, l=mode.l, lam=lam, k=k, a=a, b=float(b), K=float(K),
        v_rad=v_rad, dv_rad=_sample_derivative(v_rad, grid.spacing),
        residual_rel=residual / norm_bound(problem),
    )


@dataclass(frozen=True)
class GradientMargin:
    """Slack in the gradient estimate sup |grad v|^2/(b^2 - v^2) <= lam (1 + a)."""

    margin: float
    sup_ratio: float
    bound: float


def gradient_estimate_margin(nef: NormalizedEigenfunction) -> GradientMargin:
    """The gradient estimate's sup over ``nef.samples()``: for an l = 1 mode,
    by monotonicity on each fiber, the exact sup over every radial row.  The
    antipodal poles have the rows' ratios, since (-v)^2 = v^2 bitwise."""
    v, grad_sq, equator = nef.samples()
    b2 = nef.b * nef.b
    sup = float((grad_sq / (b2 - v * v)).max())
    if equator is not None:
        sup = float(np.max([sup, equator / b2]))  # v = 0 on the equators
    bound = nef.lam * (1.0 + nef.a)
    return GradientMargin(margin=bound - sup, sup_ratio=sup, bound=bound)


@dataclass(frozen=True)
class LevelSetMaxima:
    """Binned maxima of |grad v|^2 / (lam (b^2 - v^2)) over level sets of
    t = arcsin(v/b); empty bins are marked NaN, never interpolated."""

    values: np.ndarray
    arg_t: np.ndarray
    counts: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0


# Rows per numpy call when _edge_level_maxima evaluates surviving groups, so
# that its memory stays bounded whatever the number of survivors.
_EDGE_BLOCK_ROWS = 1 << 12


def _group_maxima(c: np.ndarray, a: np.ndarray, r2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per group (row of c, a, r2, each a fresh copy) and level s (one per
    group), the largest fl(fl(c s) + a) over the rows that reach the level
    (r2 >= s); -inf if none do."""
    c *= s
    c += a
    c[r2 < s] = -np.inf
    return c.max(axis=1)


def _edge_level_maxima(nef: NormalizedEigenfunction, edges: np.ndarray) -> np.ndarray:
    """For an l = 1 mode, per bin edge t_e, the maximum of the fiber quantity
    (A + C v_e^2) / (lam (b^2 - v_e^2)) over the rows that reach the level
    v_e = b sin t_e; -inf where no row does.

    Symmetric edges share a level s = v_e^2.  On s = 0 every row reaches and
    the maximum is max A, which holds also where C overflowed to +-inf.  On
    s > 0 it is the largest fl(fl(C s) + A) over the rows with R^2 >= s.
    The rows are cut, in radial order, into groups of G = isqrt(N).  Rounding
    is monotone, so fl(fl(Cmax s) + Amax), from the group's largest C and
    A, bounds every row of the group.  Per level, the group with the best
    bound among those that reach it is evaluated exactly, every group whose
    bound lies below that value is pruned, and the rows of the survivors are
    evaluated with the same products and sums and masked where they do not
    reach the level.  The group holding the maximum always survives, so the
    result is bitwise the maximum over all reaching rows.
    """
    b, lam = nef.b, nef.lam
    r2 = nef.v_rad ** 2
    a_eq = nef.equator_grad_sq
    # a row with R = 0 lies on the level v = 0, where its poles are samples
    c = np.divide(nef.dv_rad ** 2 - a_eq, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    levels, at_edge = np.unique((b * np.sin(edges)) ** 2, return_inverse=True)
    top = np.full(levels.size, -np.inf)
    top[levels == 0.0] = a_eq.max()
    live = np.flatnonzero((levels > 0.0) & (levels <= r2.max()))  # reached by some row
    # the padding of the last group reaches no level
    g = math.isqrt(r2.size)
    pad = -r2.size % g
    r2, c, a_eq = (np.pad(x, (0, pad), constant_values=-np.inf).reshape(-1, g)
                   for x in (r2, c, a_eq))
    s = levels[live, None]
    bound = np.where(r2.max(axis=1) >= s, c.max(axis=1) * s + a_eq.max(axis=1), -np.inf)
    best = np.argmax(bound, axis=1)
    level, group = np.nonzero(bound >= _group_maxima(c[best], a_eq[best], r2[best], s)[:, None])
    step = max(1, _EDGE_BLOCK_ROWS // g)
    for k in range(0, level.size, step):
        lv, gr = level[k:k + step], group[k:k + step]
        np.maximum.at(top, live[lv], _group_maxima(c[gr], a_eq[gr], r2[gr], s[lv]))
    return (top / (lam * (b * b - levels)))[at_edge]


def compute_Z(nef: NormalizedEigenfunction, t_bins: int = 200) -> LevelSetMaxima:
    """Per-bin maxima of the normalized gradient quantity over t-level sets.

    ``nef.samples()`` are binned by t = arcsin(v/b) on uniform edges (the last
    bin closed); a bin's ``arg_t`` is the t of its first maximizing sample,
    in the order rows (the fiber poles), antipodal poles, equator point.
    t and the quantity are computed once per row: numpy's arcsin is odd and
    (-v)/b = -(v/b) bitwise, so the antipodal poles take -t and the row's
    value, and only their bin indices are found apart.  The fiber of an
    l = 1 mode's row is continuous: on a level v_e that the row reaches
    (R^2 >= v_e^2) it has x^2 = v_e^2/R^2, so the quantity is
    (A + C v_e^2) / (lam (b^2 - v_e^2)) with C = (R'^2 - A)/R^2.  Monotone in
    x^2, it peaks over a closed bin at a pole or equator inside it or at one
    of the bin's two edge levels, so every bin also takes the maximum over
    the rows at each of its edges (``_edge_level_maxima``; ``arg_t`` the edge
    when that is larger) and holds the exact maximum of the continuous fibers
    over the closed bin.  ``counts`` tallies the samples and the reached
    edges of each bin.
    """
    b, lam = nef.b, nef.lam
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, t_bins + 1)
    # first, so that its N-arrays are gone before the samples' are made
    edge_val = _edge_level_maxima(nef, edges) if nef.l == 1 else None
    v, grad_sq, equator = nef.samples()
    t = np.arcsin(v / b)
    val = grad_sq / (lam * (b * b - v * v))
    if equator is not None:  # the antipodal poles, then the equator point at v = 0
        t = np.concatenate([t, -t, [0.0]])
        val = np.concatenate([val, val, [equator / (lam * (b * b))]])
    inside = (t >= edges[0]) & (t <= edges[-1])
    if not inside.all():
        t, val = t[inside], val[inside]
    idx = np.minimum(np.searchsorted(edges, t, side="right") - 1, t_bins - 1)
    counts = np.bincount(idx, minlength=t_bins)
    values = np.full(t_bins, -np.inf)
    np.maximum.at(values, idx, val)
    first = np.full(t_bins, val.size)  # an empty bin points past the end
    hit = np.flatnonzero(val == values[idx])
    np.minimum.at(first, idx[hit], hit)
    arg_t = np.full(t_bins, np.nan)
    seen = first < val.size
    arg_t[seen] = t[first[seen]]
    if edge_val is not None:
        for side in (slice(None, -1), slice(1, None)):  # lower edges, then upper
            counts += edge_val[side] > -np.inf
            better = edge_val[side] > values
            values[better] = edge_val[side][better]
            arg_t[better] = edges[side][better]
    if not counts.any():
        raise ValueError("all level-set bins are empty; the bins do not cover the data")
    values[counts == 0] = np.nan
    return LevelSetMaxima(values=values, arg_t=arg_t, counts=counts)


@dataclass(frozen=True)
class BarrierFamily:
    """Comparison function z(t) = 1 + (a/b) eta(t) + kappa xi(t), kappa = ``xi_coeff``.

    ``barrier`` builds the standard family, kappa = mu delta, and
    ``case_b2b2_barrier`` the variant of the smallest-asymmetry case of the
    eigenvalue theorem, kappa = delta - sigma (a/b)^2.  The comparison domain
    is [-arcsin(1/b), arcsin(1/b)], but values extend smoothly to
    [-pi/2, pi/2] for the length integrals.
    """

    a: float
    b: float
    xi_coeff: float

    @property
    def c(self) -> float:
        return self.a / self.b

    def value(self, t):
        return self.combine(*xi_eta(t))

    def combine(self, xi_t, eta_t):
        """z from the values of xi and eta at the same points."""
        return 1.0 + self.c * eta_t + self.xi_coeff * xi_t

    def derivative(self, t, order: int):
        """d^order z / dt^order (order 1 or 2), analytic through ``xi_eta``."""
        xi_t, eta_t = xi_eta(t, order)
        return self.c * eta_t + self.xi_coeff * xi_t


@lru_cache(maxsize=8)
def _domain_xi_eta(b: float) -> np.ndarray:
    """(xi, eta) at the 1001 points of the comparison domain's positivity sweep."""
    tb = math.asin(1.0 / b)
    return _read_only(xi_eta(np.linspace(-tb, tb, 1001)))


def _validate_barrier(z: BarrierFamily, delta: float):
    # every comparison is written so that NaN fails it
    if not 0.0 <= z.a < math.inf:
        raise BarrierHypothesisError("barrier needs a >= 0, finite")
    if not 1.0 < z.b < math.inf:
        raise BarrierHypothesisError("barrier needs b > 1, finite")
    if not (0.0 < delta <= 0.5 + _DOMAIN_SLACK):
        raise BarrierHypothesisError("barrier needs delta in (0, 1/2]")
    sweep = z.combine(*_domain_xi_eta(z.b))
    if not np.all(sweep > 0.0):
        raise BarrierHypothesisError(
            f"barrier is not positive on its domain (min {float(np.min(sweep)):.3e})")


def barrier(a: float, b: float, delta: float, mu: float) -> BarrierFamily:
    """Standard barrier 1 + (a/b) eta + mu delta xi with mu in (0, 1]."""
    if not (0.0 < mu <= 1.0 + _DOMAIN_SLACK):
        raise BarrierHypothesisError("barrier needs mu in (0, 1]")
    z = BarrierFamily(a=float(a), b=float(b), xi_coeff=float(mu) * float(delta))
    _validate_barrier(z, float(delta))
    return z


def case_b2b2_barrier(a: float, b: float, delta: float, sigma: float) -> BarrierFamily:
    """Variant barrier 1 + (a/b) eta + (delta - sigma (a/b)^2) xi.

    sigma is an explicit input; the xi coefficient must stay positive for the
    barrier to make sense, which is checked here along with positivity of z.
    """
    a, b, delta, sigma = float(a), float(b), float(delta), float(sigma)
    try:
        kappa = delta - sigma * (a / b) ** 2
    except OverflowError:  # (a/b)^2 beyond the float range: no coefficient
        kappa = math.nan
    if not kappa > 0.0:
        raise BarrierHypothesisError(
            f"delta - sigma c^2 = {kappa:.3e} lost the sign required for validity")
    z = BarrierFamily(a=a, b=b, xi_coeff=kappa)
    _validate_barrier(z, delta)
    return z


@dataclass(frozen=True)
class DominanceReport:
    """The least margin z(t*) - Z(t*) over the occupied bins, each taken at
    its bin's maximizing t*, and the number of occupied bins."""

    min_margin: float
    occupied_bins: int


def barrier_dominance_check(levelset: LevelSetMaxima, z) -> DominanceReport:
    """Check Z(t) <= z(t) at grid resolution; nonnegative minimum certifies it.

    ``z`` may be a BarrierFamily or any callable; margins are computed at the
    maximizing t of each occupied bin, so no values are fabricated for empty
    bins.
    """
    zf = z.value if isinstance(z, BarrierFamily) else z
    occ = levelset.occupied
    margins = np.asarray(zf(levelset.arg_t[occ]), dtype=float) - levelset.values[occ]
    return DominanceReport(min_margin=float(margins.min()), occupied_bins=int(occ.sum()))


@dataclass(frozen=True)
class LengthIntegralLedger:
    """The margins of the two steps of the transit-length comparison

        sqrt(lam) * d  >=  int dt / sqrt(z)  >=  (pi^3 / int z dt)^{1/2};

    the second step is Holder's inequality and must hold up to quadrature
    error regardless of the geometry."""

    margin_transit: float
    margin_holder: float


def length_integral_check(nef: NormalizedEigenfunction, z: BarrierFamily,
                          d: float) -> LengthIntegralLedger:
    """Evaluate the transit-length chain for a normalized eigenfunction."""
    if not d > 0.0:
        raise ValueError("the diameter must be positive")
    if not np.all(z.combine(*_SWEEP_XI_ETA) > 0.0):
        raise BarrierHypothesisError("barrier is not positive on [-pi/2, pi/2]")
    transit = float(_GL_WEIGHTS @ (1.0 / np.sqrt(z.combine(*_GL_XI_ETA))))
    # int 1 = pi, int eta = 0 and int xi = -pi over [-pi/2, pi/2]
    holder = math.sqrt(math.pi**3 / (math.pi * (1.0 - z.xi_coeff)))
    return LengthIntegralLedger(margin_transit=math.sqrt(nef.lam) * d - transit,
                                margin_holder=transit - holder)
