"""Self-adjoint discretization and low spectrum of the drift Laplacian.

The Bakry-Emery (drift) Laplacian of a weighted manifold is
Delta_phi = Delta - grad(phi) . grad, self-adjoint in L^2(e^{-phi} dV).
On a rotationally symmetric model, separation into angular modes l >= 0
reduces it to the radial Sturm-Liouville operator

    u  ->  (1/rho) (rho u')' - l (l + n - 2) / w^2 * u,
    rho = w^{n-1} e^{-phi},

acting on [0, L]; the circle keeps the full periodic operator
(1/rho)(rho u')' with rho = e^{-phi}.

Discretization is a cell-centered finite-volume scheme with half-node
coefficients rho_{i+1/2}: flux differences make the matrix exactly symmetric
with respect to the weighted inner product <u, v> = sum q_i u_i v_i, constants
lie in the kernel of the l = 0 operator by construction, and the spectrum is
real and nonpositive up to rounding.  At the poles, rho vanishes, so the
boundary flux is zero; this encodes the regularity (Neumann-type) condition
for l = 0, while for l >= 1 the singular potential l(l+n-2)/w^2 enforces the
Dirichlet decay of the eigenfunctions.

Eigenpairs come from the symmetric tridiagonal similarity transform
S = D A D^{-1}, D = diag(sqrt(rho_i)), solved in two LAPACK steps (scipy's
``scipy.linalg.lapack`` wrappers, each linear in N): bisection (stebz), by
index or over a value window, for the eigenvalues, then inverse iteration
(stein) for an eigenvector, run on the first read of the mode's ``u`` and
on its eigenvalue alone.  A Sturm count, stebz over a value window with an
infinite tolerance, tells how many eigenvalues lie in the window without
computing any of them.

Only the l = 0 operator is assembled from the density; a sector l >= 1 is
derived from it by subtracting its angular potential from the diagonal.  A
circle's periodic matrix splits into two mirror sectors with no corner: the
even one, with the constant mode, takes the place of l = 0, the odd one that
of l = 1.  ``first_nonzero_eigenvalue`` bounds the l = 1 top from above by
the Rayleigh quotient of the density-free l = 1 mode, and Sturm counts pick
the winning sector before it is bisected: one count of l = 0 above that
bound, which finds the constant mode alone wherever l = 1 wins by a clear
gap, and, where it finds more, one count of l = 1 above the l = 0 top,
which is bisected in the counted window.  l = 1 is bisected, by index, only
where it can win.  The winner's eigenvector is formed when it is first
read, and the Richardson partner, the Rayleigh quotient of the eigenvector
on the half-resolution operator, when the error estimate is read, so a
lambda_1 costs at most one eigenvector, and none when only ``lam`` is read.
``spectrum_contains`` counts, sector by sector from l = 0, the eigenvalues
in the closed window around its target, until a sector has none above it;
it refuses a target that could need more than ``MAX_SECTORS`` sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import AssemblyError, SolverError
from .geometry import CIRCLE, INTERVAL_SPHERE, Grid, measure_density


@dataclass(frozen=True)
class SpectralProblem:
    """Assembled radial (or periodic) drift-Laplacian operator for one angular mode.

    ``diag``/``off_diag`` store the symmetrized tridiagonal form; ``corner``
    is the periodic wrap coupling (circles only).  ``sqrt_rho`` maps
    symmetrized eigenvectors back to eigenfunctions, u = y / sqrt(rho).
    The operator is that of ``grid.model``.
    """

    grid: Grid
    l: int
    diag: np.ndarray
    off_diag: np.ndarray
    corner: float
    sqrt_rho: np.ndarray

    @property
    def periodic(self) -> bool:
        return self.grid.model.topology == CIRCLE

    @property
    def size(self) -> int:
        return int(self.diag.size)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the (unsymmetrized) operator to radial samples."""
        y = self.sqrt_rho * np.asarray(u, dtype=float)
        out = self.diag * y
        out[:-1] += self.off_diag * y[1:]
        out[1:] += self.off_diag * y[:-1]
        if self.periodic and self.corner != 0.0:
            out[0] += self.corner * y[-1]
            out[-1] += self.corner * y[0]
        return out / self.sqrt_rho

    def sector(self, l: int) -> "SpectralProblem":
        """Angular mode l of this interval l = 0 operator: the diagonal less
        l(l+n-2)/w^2, computed in the potential's own buffer; the off-diagonal
        and sqrt_rho are shared."""
        if not l:
            return self
        if self.periodic:
            raise AssemblyError("a circle has no angular sectors l >= 1")
        model = self.grid.model
        potential = np.asarray(model.w.value(self.grid.nodes), dtype=float) ** 2
        np.divide(angular_eigenvalue(model.n, l), potential, out=potential)
        if not np.all(np.isfinite(potential)):
            raise AssemblyError(
                "angular potential overflows at the poles; grid nodes must stay interior")
        return replace(self, l=l, diag=np.subtract(self.diag, potential, out=potential))

    def unfold(self, z: np.ndarray) -> tuple["SpectralProblem", np.ndarray]:
        """The operator of this sector's eigenvectors z: an interval sector's own."""
        return self, z


def angular_eigenvalue(n: int, l: int) -> float:
    """Eigenvalue l (l + n - 2) of degree-l spherical harmonics on the fiber."""
    return float(l * (l + n - 2))


def assemble(grid: Grid, l: int) -> SpectralProblem:
    """Assemble the symmetric tridiagonal operator of the grid's model for
    angular mode l.

    An interval sector l >= 1 is the l = 0 operator less its angular
    potential (``SpectralProblem.sector``)."""
    model = grid.model
    if l < 0 or int(l) != l or (l and model.topology == CIRCLE):
        raise AssemblyError(f"angular mode must be a nonnegative integer, 0 on a circle, got {l!r}")
    l = int(l)
    h = grid.spacing
    nodes = grid.nodes
    rho_c = grid.density
    if np.any(rho_c <= 0.0) or not np.all(np.isfinite(rho_c)):
        raise AssemblyError("measure density is not positive and finite on the grid")

    if model.topology == INTERVAL_SPHERE:
        faces = nodes[:-1] + 0.5 * h
        rho_f = measure_density(model, faces)
        coupling = rho_f / (h * h)
        diag = np.zeros(grid.size)
        diag[:-1] -= coupling / rho_c[:-1]
        diag[1:] -= coupling / rho_c[1:]
        off = coupling / np.sqrt(rho_c[:-1] * rho_c[1:])
        corner = 0.0
    else:
        faces = nodes + 0.5 * h
        rho_f = measure_density(model, faces)
        coupling = rho_f / (h * h)
        diag = np.zeros(grid.size)
        nxt = np.roll(np.arange(grid.size), -1)
        diag -= coupling / rho_c
        diag[nxt] -= coupling / rho_c[nxt]
        off = coupling[:-1] / np.sqrt(rho_c[:-1] * rho_c[1:])
        corner = float(coupling[-1] / math.sqrt(rho_c[-1] * rho_c[0]))

    problem = SpectralProblem(grid=grid, l=0, diag=diag, off_diag=off,
                              corner=corner, sqrt_rho=np.sqrt(rho_c))
    return problem.sector(l)


@dataclass(frozen=True)
class EigenMode:
    """One computed eigenpair: Delta_phi u = -lam u with radial samples u;
    the Richardson error estimate of lam is formed on its first read.  The
    solver's modes form u on its first read too (``_BisectedMode``)."""

    lam: float
    l: int
    u: np.ndarray
    problem: SpectralProblem

    @cached_property
    def error_estimate(self) -> float:
        """|lam_N - lam_{N/2}| / 3, where lam_{N/2} is the Rayleigh quotient,
        on the mode's operator at N // 2, of the eigenvector linearly
        interpolated onto the coarse nodes (for even N: the cell-pair average
        on spheres, injection on circles); NaN below 8 nodes.  Its error is
        quadratic in the O(h^2) interpolation error, so it stands in for a
        half-resolution eigensolve."""
        grid = self.problem.grid
        if grid.size < 8:
            return math.nan
        coarse = assemble(Grid.uniform(grid.model, grid.size // 2), self.l)
        period = grid.model.L if self.problem.periodic else None
        u = np.interp(coarse.grid.nodes, grid.nodes, self.u, period=period)
        return abs(self.lam - _rayleigh_quotient(coarse, u)) / 3.0


def norm_bound(problem: SpectralProblem | _MirrorSector) -> float:
    """max|d| + 2 max|e|: a bound on the infinity norm of a symmetric
    tridiagonal sector, which rounding in its eigenvalues scales with."""
    return float(np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag)))


def _normalized(problem: SpectralProblem, y: np.ndarray) -> np.ndarray:
    """The eigenfunction u = y / sqrt(rho) of a symmetrized eigenvector y,
    of unit weighted norm and signed so that its largest |u_i| is positive."""
    u = y / problem.sqrt_rho
    u = u / math.sqrt(float(np.sum(problem.grid.weights * u * u)))
    i = int(np.argmax(np.abs(u)))
    return -u if u[i] < 0.0 else u


def _solver_error(problem: SpectralProblem | _MirrorSector, cause: str) -> SolverError:
    n = problem.diag.size
    return SolverError(
        f"eigensolver failed for l={problem.l}, N={n}: {cause}",
        report={"l": problem.l, "size": n,
                "diag_range": (float(problem.diag.min()), float(problem.diag.max())),
                "off_max": float(np.max(np.abs(problem.off_diag))) if n > 1 else 0.0})


@dataclass(frozen=True)
class _MirrorSector:
    """The even (l = 0) or odd (l = 1) sector of the circle operator ``full``."""

    full: SpectralProblem
    l: int
    diag: np.ndarray
    off_diag: np.ndarray

    def unfold(self, z: np.ndarray) -> tuple[SpectralProblem, np.ndarray]:
        rows = np.arange(self.l, self.l + self.diag.size)
        mirror = -rows % self.full.size
        z = z / np.where(rows == mirror, 1.0, math.sqrt(2.0))[:, None]
        y = np.zeros((self.full.size, z.shape[1]))
        y[mirror] = -z if self.l else z
        y[rows] = z
        return self.full, y


def _mirror_sectors(problem: SpectralProblem) -> tuple[_MirrorSector, _MirrorSector]:
    """The even and odd sectors of a circle's symmetrized periodic matrix,
    which an even density makes commute with the reflection i -> N - i.  It
    fixes node 0, and N/2 for even N, and swaps the pairs (i, N - i),
    i = 1..p = (N - 1) // 2, whose entries are (z_i, +-z_i) / sqrt(2): a
    coupling to a fixed node gains a factor sqrt(2), and for odd N the middle
    pair's coupling e_p is added to the even sector's last diagonal entry and
    subtracted from the odd one's.  The sectors' nodes are 0..N // 2 and 1..p."""
    d, e, n = problem.diag, problem.off_diag, problem.size
    p = (n - 1) // 2
    if n % 2:
        even = np.r_[d[:p], d[p] + e[p]], np.r_[math.sqrt(2.0) * e[0], e[1:p]]
        odd = np.r_[d[1:p], d[p] - e[p]], e[1:p]
    else:
        even = d[:p + 2], np.r_[math.sqrt(2.0) * e[0], e[1:p], math.sqrt(2.0) * e[p]]
        odd = d[1:p + 1], e[1:max(p, 2)]  # stebz and stein take one e for one row
    return _MirrorSector(problem, 0, *even), _MirrorSector(problem, 1, *odd)


# stebz: m, w, iblock, isplit, info = stebz(d, e, range, vl, vu, il, iu, abstol, order),
# range 1 the eigenvalues in (vl, vu], range 2 those of 1-based ascending index il..iu;
# stein: z, info = stein(d, e, w, iblock, isplit)
_LAPACK = {"stebz": lapack.dstebz, "stein": lapack.dstein}


class _BisectedMode(EigenMode):
    """An eigenvalue mu = -lam that bisection found in a sector of
    ``problem``, whose eigenvector u is formed on its first read, by inverse
    iteration (LAPACK stein) on this eigenvalue alone.  Until then the mode
    keeps the number of its eigenvalue's block, the last rows of the blocks
    up to it (the block data stebz returned) and, on a circle, which mirror
    sector holds it; the sector and the N-long arrays that scipy's stein
    wrapper takes are rebuilt from ``problem`` at the read, and the block
    data are dropped once u is formed.  stein draws its start vector from a
    fixed seed, so u is the same at every read, and that of running stein on
    the eigenvalue right after bisecting it.  ``repr`` leaves u unformed;
    ``==``, which compares the fields, forms it."""

    def __init__(self, sector: SpectralProblem | _MirrorSector, mu: float, block: int,
                 splits: np.ndarray):
        problem = sector.full if isinstance(sector, _MirrorSector) else sector
        # u stays out of the instance until its first read, as cached_property needs
        vars(self).update(lam=-float(mu), l=problem.l, problem=problem,
                          _blocks=(sector.l, int(block), splits))

    @cached_property
    def u(self) -> np.ndarray:
        mirror, block, splits = self._blocks
        sector = _mirror_sectors(self.problem)[mirror] if self.problem.periodic else self.problem
        iblock, isplit = np.zeros((2, sector.diag.size), dtype=np.int32)
        iblock[0], isplit[:block] = block, splits
        z, info = _LAPACK["stein"](sector.diag, sector.off_diag, np.array([-self.lam]),
                                   iblock, isplit)
        if info:
            raise _solver_error(sector, f"stein returned info={info}")
        del vars(self)["_blocks"]
        problem, y = sector.unfold(z)
        return _normalized(problem, y[:, 0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lam={self.lam!r}, l={self.l!r})"


def _stebz(problem: SpectralProblem | _MirrorSector, range_: int, vl: float, vu: float,
           il: int, iu: int, tol: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK stebz on a sector, in block order: (m, w, iblock, isplit)."""
    m, w, iblock, isplit, info = _LAPACK["stebz"](problem.diag, problem.off_diag, range_,
                                                  vl, vu, il, iu, tol, "B")
    if info:
        raise _solver_error(problem, f"stebz returned info={info}")
    return m, w, iblock, isplit


def _modes(problem: SpectralProblem | _MirrorSector, m: int, w: np.ndarray,
           iblock: np.ndarray, isplit: np.ndarray) -> tuple[_BisectedMode, ...]:
    """The m bisected eigenvalues of a sector as eigenmodes, sorted by |lam|."""
    modes = (_BisectedMode(problem, w[j], iblock[j], isplit[:iblock[j]].copy())
             for j in range(m))
    return tuple(sorted(modes, key=lambda mode: abs(mode.lam)))


def _bisect(problem: SpectralProblem | _MirrorSector, il: int,
            iu: int) -> tuple[_BisectedMode, ...]:
    """Bisection (LAPACK stebz, tolerance 0) for the eigenvalues of (1-based,
    ascending) index il..iu of a sector, as eigenmodes sorted by |lam|."""
    return _modes(problem, *_stebz(problem, 2, 0.0, 1.0, il, iu, 0.0))


def _bisect_window(problem: SpectralProblem | _MirrorSector, vl: float,
                   vu: float) -> tuple[_BisectedMode, ...]:
    """Bisection (LAPACK stebz, tolerance 0) for the eigenvalues of a sector
    in the value window (vl, vu], as eigenmodes sorted by |lam|.  The
    eigenvalues outside the window are not searched for."""
    return _modes(problem, *_stebz(problem, 1, vl, vu, 0, 0, 0.0))


def _count(problem: SpectralProblem | _MirrorSector, vl: float, vu: float) -> int:
    """Number of eigenvalues of a sector in (vl, vu]: the Sturm count at vu
    less that at vl, each the negative pivots of the LDL^T factorization
    shifted by that end (Sylvester's law of inertia).  This is LAPACK stebz
    over the window with tolerance +inf, whose bisection converges at once.
    stebz clips the window to the Gershgorin bounds, so vu may be +inf, and
    replaces a pivot smaller than its pivmin by -pivmin, so a pivot that
    rounds to zero counts once."""
    return _stebz(problem, 1, vl, vu, 0, 0, math.inf)[0]


def _rayleigh_quotient(problem: SpectralProblem, u: np.ndarray) -> float:
    """lambda = -<Au, u> / <u, u> of radial samples u, in energy form:

        (sum_f c_f (u_{i+1} - u_i)^2 + c_l sum_i rho_i u_i^2 / w_i^2) / sum_i rho_i u_i^2,

    c_f = off_i sqrt(rho_i rho_{i+1}), with the wrap-around face on circles.
    Every term is nonnegative, so nothing cancels against the O(N^2) diagonal."""
    s = problem.sqrt_rho
    rho_u2 = (s * u) ** 2
    energy = float(np.sum(problem.off_diag * s[:-1] * s[1:] * np.diff(u) ** 2))
    if problem.periodic:
        energy += float(problem.corner * s[-1] * s[0] * (u[0] - u[-1]) ** 2)
    if problem.l:
        model = problem.grid.model
        w = np.asarray(model.w.value(problem.grid.nodes), dtype=float)
        energy += angular_eigenvalue(model.n, problem.l) * float(np.sum(rho_u2 / w**2))
    return energy / float(np.sum(rho_u2))


def first_nonzero_eigenvalue(grid: Grid) -> EigenMode:
    """Smallest lambda > 0 with Delta_phi u = -lambda u on the grid's model,
    searched over l = 0, 1.

    No sector l >= 2 can hold lambda_1: in symmetrized form
    S_l = S_1 - (c_l - c_1) diag(1/w^2), c_l = l(l+n-2), e.g. S_2 = S_1 - (n+1) diag(1/w^2),
    so by Weyl's inequality every l >= 2 eigenvalue lies strictly below its
    l = 1 counterpart.  A circle's even and odd mirror sectors stand in for
    l = 0 and l = 1; its mode is unfolded onto the full operator, with l = 0.

    lambda_1 is the larger of the two sector tops: the top eigenvalue mu_1
    of l = 1, and the top mu_0 of l = 0 below its constant mode.  Sturm
    counts pick the winning sector before anything is bisected.  The
    Rayleigh quotient lambda_RQ of the trial u = sin(pi r/ell), ell =
    ``model.phi.length``, bounds -mu_1 from above (Rayleigh-Ritz): u is the
    density-free l = 1 top, w/rho on a sphere's l = 1 sector and the odd
    sin(2 pi theta/L) on a circle's full operator.  One Sturm count of l = 0
    over (vl, inf), vl = -lambda_RQ - tau, then certifies the l = 0 top: tau,
    16 eps (max|d| + 2 max|e|), exceeds the bisection tolerance (about
    eps ||T||) and the count's rounding, and vl <= mu_1 - tau, so a count
    of 1 (the constant mode alone) means that l = 1 wins.  Only mu_1 is then
    bisected, by its index, and the result is bitwise that of bisecting both
    tops.

    A larger count (a round sphere's l = 0 / l = 1 twin, the Ling cases, a
    circle's double eigenvalue, a nearly round density) bisects l = 0 over
    the value window (vl, vu], which leaves out the constant mode (0 up to
    rounding); the largest eigenvalue found is mu_0.  vu is
    -lambda_RQ + tau + lambda_RQ (pi/N)^2, the O(h^2) split of the round
    sphere's twins, capped at -tau, and is kept only when one more count
    finds the constant mode alone above it; else vu = -tau.  The window
    must hold count - 1 eigenvalues: any other number means that one lies
    within tau of the constant mode, where the two cannot be told apart,
    and is a ``SolverError``, as is a count of 0.  One Sturm count of l = 1
    over (mu_0, inf) then decides: 0 means that l = 0 wins (a tie goes to
    the lower sector), and l = 1 is never bisected; any other count bisects
    mu_1 by its index, and the larger top wins, the lower sector on a tie.
    The window bisection searches only the eigenvalues in (vl, vu], where an
    index bisection of mu_0 would first locate it among the whole spectrum;
    both keep the tolerance, but their bits may differ.

    The result is the winning ``EigenMode``.  Its eigenvector ``u`` is
    formed by inverse iteration on the winning eigenvalue alone when it is
    first read, and the Richardson error estimate of the second-order scheme
    (``EigenMode.error_estimate``) from ``problem`` when that is first read:
    a caller that reads only ``lam`` runs no inverse iteration, and one that
    reads ``lam`` and ``u`` assembles nothing at N // 2.
    """
    base = assemble(grid, 0)
    zonal, upper = _mirror_sectors(base) if base.periodic else (base, base.sector(1))
    trial = np.sin(math.pi / grid.model.phi.length * grid.nodes)
    bound = _rayleigh_quotient(base if base.periodic else upper, trial)
    margin = 16.0 * np.finfo(float).eps * norm_bound(zonal)
    vl = -bound - margin
    count = _count(zonal, vl, math.inf)
    if count < 1:
        raise _solver_error(zonal, f"stebz counts no eigenvalue above {vl!r}, "
                                   "not even the constant mode")
    if count > 1:
        vu = min(-bound + margin + bound * (math.pi / grid.size) ** 2, -margin)
        if vu < -margin and _count(zonal, vu, math.inf) != 1:
            vu = -margin
        window = _bisect_window(zonal, vl, vu)
        if len(window) != count - 1:
            raise _solver_error(zonal, f"stebz finds {len(window)} eigenvalues in "
                                       f"({vl!r}, {vu!r}], not the {count - 1} that the "
                                       "count leaves beside the constant mode: one lies "
                                       "within the margin of it")
        if not _count(upper, -window[0].lam, math.inf):
            return window[0]
    top, = _bisect(upper, upper.diag.size, upper.diag.size)
    if count > 1 and window[0].lam <= top.lam:  # a tie goes to the lower sector
        top = window[0]
    return top


MAX_SECTORS = 1000  # the most angular sectors spectrum_contains counts


@dataclass(frozen=True)
class MembershipVerdict:
    """Whether the low spectrum contains a target value within tolerance."""

    contained: bool
    count_used: int


def spectrum_contains(grid: Grid, target: float, tol: float) -> MembershipVerdict:
    """True iff some eigenvalue of the grid's model lies within
    tol * max(1, |target|) of target.

    Interval-sphere models only.  The sectors l = 0, 1, 2, ... each count
    their eigenvalues in the closed window [target - window, target + window]
    by one Sturm count, with no eigenvalue computed, so a negative verdict is
    meaningful.  A count takes the half-open window (vl, vu], so vl is the
    float just below target - window.  The search stops at the first sector
    whose count over (vl, inf) is 0: its eigenvalues all lie at or below vl,
    and by the Weyl argument of ``first_nonzero_eigenvalue`` those of every
    higher sector lie strictly below them.  ``count_used`` is the number of
    eigenvalues in the window, summed over the sectors.

    The l = 0 operator is negative semidefinite and sector l subtracts
    l (l + n - 2) diag(1/w^2) from it, so every eigenvalue of sector l lies
    at or below -l (l + n - 2) / max w^2 (max over the grid nodes).  A
    window whose vl lies below that bound for l = ``MAX_SECTORS`` is refused
    with ValueError, as it could need more sectors than that; otherwise the
    sectors from ``MAX_SECTORS`` on hold nothing above vl and at most
    ``MAX_SECTORS`` are counted.  The target must be finite, tol positive and
    finite and both window ends finite, else ValueError: a NaN would give a
    vacuous negative verdict, an infinite tol a vacuous positive one.
    """
    model = grid.model
    if model.topology == CIRCLE:
        raise ValueError("spectrum_contains needs an interval-sphere model")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    window = tol * max(1.0, abs(target))
    lower, upper = math.nextafter(target - window, -math.inf), target + window
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"the window ends must be finite, got ({lower!r}, {upper!r}]")
    w2 = float(np.max(np.asarray(model.w.value(grid.nodes), dtype=float) ** 2))
    if -angular_eigenvalue(model.n, MAX_SECTORS) / w2 > lower:
        raise ValueError(f"the window around {target!r} reaches below the top of sector "
                         f"l = {MAX_SECTORS}; at most {MAX_SECTORS} sectors are counted")
    base = assemble(grid, 0)
    count = 0
    for l in range(MAX_SECTORS):
        sector = base.sector(l)
        if not _count(sector, lower, math.inf):
            break
        count += _count(sector, lower, upper)
    return MembershipVerdict(contained=count > 0, count_used=count)
