"""Self-adjoint discretization and low spectrum of the drift Laplacian.

The Bakry-Emery (drift) Laplacian of a weighted manifold is
Delta_phi = Delta - grad(phi) . grad, self-adjoint in L^2(e^{-phi} dV).
On a rotationally symmetric model, separation into angular modes l >= 0
reduces it to the radial Sturm-Liouville operator

    u  ->  (1/rho) (rho u')' - l (l + n - 2) / w^2 * u,
    rho = w^{n-1} e^{-phi},

acting on the model's own interval [0, l]: [0, L] on an interval sphere,
and on a circle its mirror half [0, L/2], where w = 1, rho = e^{-phi} and
the reflection theta -> -theta splits the operator of the whole circle into
its even sector l = 0 and its odd sector l = 1 (``geometry.Grid``).

Discretization is a cell-centered finite-volume scheme with face
coefficients rho_{i+1/2}: flux differences make the matrix exactly symmetric
with respect to the weighted inner product <u, v> = sum q_i u_i v_i, constants
lie in the kernel of the l = 0 operator by construction, and the spectrum is
real and nonpositive up to rounding.  Both ends of the interval are faces,
and the l = 0 operator couples the cells through the interior faces alone:
at a sphere's poles rho vanishes, so the boundary flux is zero, which
encodes the regularity (Neumann-type) condition, and an even function has
no flux across a circle's mirror points.  Sector l >= 1 subtracts
``sector_potential`` from that diagonal: on a sphere the singular potential
l(l+n-2)/w^2, which enforces the Dirichlet decay of the eigenfunctions, and
in a circle's odd sector the flux 2 rho(face) u / h^2 across each mirror
face, where an odd function takes the value -u.

Eigenpairs come from the symmetric tridiagonal similarity transform
S = D A D^{-1}, D = diag(sqrt(rho_i)), solved in two LAPACK steps (scipy's
``scipy.linalg.lapack`` wrappers, each linear in N): bisection (stebz), by
index or over a value window, for the eigenvalues, then inverse iteration
(stein) for an eigenvector, run on the first read of the mode's ``u`` and
on its eigenvalue alone.  A Sturm count, stebz over a value window with an
infinite tolerance, tells how many eigenvalues lie in the window without
computing any of them.

``first_nonzero_eigenvalue`` bounds the l = 1 top from above by the
Rayleigh quotient of the density-free l = 1 mode, and Sturm counts pick
the winning sector before it is bisected: one count of l = 0 above that
bound, which finds the constant mode alone wherever l = 1 wins by a clear
gap, and, where it finds more, one count of l = 1 above the l = 0 top,
which is bisected in the counted window.  l = 1 is bisected, by index, only
where it can win.  The winner's eigenvector is formed when it is first
read, and the Richardson partner, the Rayleigh quotient of the eigenvector
on the grid of half the cells, when the error estimate is read, so a
lambda_1 costs at most one eigenvector, and none when only ``lam`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from .errors import AssemblyError, SolverError
from .geometry import CIRCLE, Grid, measure_density


@dataclass(frozen=True)
class SpectralProblem:
    """Assembled drift-Laplacian operator of one sector l on the grid's model.

    ``diag``/``off_diag`` store the symmetrized tridiagonal form;
    ``sqrt_rho`` maps symmetrized eigenvectors back to eigenfunctions,
    u = y / sqrt(rho).  The operator is that of ``grid.model``.
    """

    grid: Grid
    l: int
    diag: np.ndarray
    off_diag: np.ndarray
    sqrt_rho: np.ndarray

    @property
    def size(self) -> int:
        return int(self.diag.size)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the (unsymmetrized) operator to radial samples."""
        y = self.sqrt_rho * np.asarray(u, dtype=float)
        out = self.diag * y
        out[:-1] += self.off_diag * y[1:]
        out[1:] += self.off_diag * y[:-1]
        return out / self.sqrt_rho

    def sector(self, l: int) -> "SpectralProblem":
        """Sector l of this l = 0 operator: the diagonal less
        ``sector_potential(grid, l)``, computed in the potential's own
        buffer; the off-diagonal and sqrt_rho are shared."""
        if not l:
            return self
        potential = sector_potential(self.grid, l)
        return replace(self, l=l, diag=np.subtract(self.diag, potential, out=potential))


def angular_eigenvalue(n: int, l: int) -> float:
    """Eigenvalue l (l + n - 2) of degree-l spherical harmonics on the fiber."""
    return float(l * (l + n - 2))


def sector_potential(grid: Grid, l: int) -> np.ndarray:
    """What sector l >= 1 subtracts from the l = 0 diagonal, in a fresh array.

    On an interval sphere: the angular potential l(l+n-2)/w^2 at the nodes.
    On a circle, sector 1 is the odd one: an odd u takes the value -u across
    each mirror face, so the end cells lose the flux 2 rho(face) u / h^2,
    the potential 2 rho(face) / (h^2 rho) there and 0 elsewhere; a circle
    has no sector l >= 2."""
    model = grid.model
    if model.topology == CIRCLE:
        if l > 1:
            raise AssemblyError(f"a circle has only its even and odd sectors l = 0, 1, got {l}")
        h, ends = grid.spacing, [0, -1]
        mirror = measure_density(model, grid.nodes[ends] + np.array([-0.5, 0.5]) * h)
        potential = np.zeros(grid.size)
        potential[ends] = 2.0 * (mirror / (h * h)) / grid.density[ends]
        return potential
    potential = np.asarray(model.w.value(grid.nodes), dtype=float) ** 2
    np.divide(angular_eigenvalue(model.n, l), potential, out=potential)
    if not np.all(np.isfinite(potential)):
        raise AssemblyError(
            "angular potential overflows at the poles; grid nodes must stay interior")
    return potential


def assemble(grid: Grid, l: int) -> SpectralProblem:
    """Assemble the symmetric tridiagonal operator of the grid's model for
    sector l: the l = 0 operator, coupled through the interior faces, less
    ``sector_potential(grid, l)``."""
    if l < 0 or int(l) != l:
        raise AssemblyError(f"angular mode must be a nonnegative integer, got {l!r}")
    h = grid.spacing
    rho_c = grid.density
    if np.any(rho_c <= 0.0) or not np.all(np.isfinite(rho_c)):
        raise AssemblyError("measure density is not positive and finite on the grid")
    coupling = measure_density(grid.model, grid.nodes[:-1] + 0.5 * h) / (h * h)
    diag = np.zeros(grid.size)
    diag[:-1] -= coupling / rho_c[:-1]
    diag[1:] -= coupling / rho_c[1:]
    off = coupling / np.sqrt(rho_c[:-1] * rho_c[1:])
    problem = SpectralProblem(grid=grid, l=0, diag=diag, off_diag=off, sqrt_rho=np.sqrt(rho_c))
    return problem.sector(int(l))


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
        on the mode's operator on the grid of half the cells
        (``Grid.halved``), of the eigenvector linearly interpolated onto the
        coarse nodes (for an even number of cells: the cell-pair average);
        NaN below 8 cells around the model.  Its error is quadratic in the
        O(h^2) interpolation error, so it stands in for a half-resolution
        eigensolve."""
        grid = self.problem.grid
        if grid.count < 8:
            return math.nan
        coarse = assemble(grid.halved(), self.l)
        u = np.interp(coarse.grid.nodes, grid.nodes, self.u)
        return abs(self.lam - _rayleigh_quotient(coarse, u)) / 3.0


def norm_bound(problem: SpectralProblem) -> float:
    """max|d| + 2 max|e|: a bound on the infinity norm of a symmetric
    tridiagonal sector, which rounding in its eigenvalues scales with."""
    return float(np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag)))


def _normalized(problem: SpectralProblem, y: np.ndarray) -> np.ndarray:
    """The eigenfunction u = y / sqrt(rho) of a symmetrized eigenvector y,
    of unit weighted norm and signed so that u[0] > 0.  A first
    eigenfunction has u[0] != 0 on the cell-centred grid, so the sign never
    follows a near-tie, such as |u| at the two ends of a round sphere; where
    u[0] = 0, the first nonzero entry is positive."""
    u = y / problem.sqrt_rho
    u = u / math.sqrt(float(np.sum(problem.grid.weights * u * u)))
    return -u if u[np.argmax(u != 0.0)] < 0.0 else u


def _solver_error(problem: SpectralProblem, cause: str) -> SolverError:
    n = problem.size
    return SolverError(
        f"eigensolver failed for l={problem.l}, N={n}: {cause}",
        report={"l": problem.l, "size": n,
                "diag_range": (float(problem.diag.min()), float(problem.diag.max())),
                "off_max": float(np.max(np.abs(problem.off_diag))) if n > 1 else 0.0})


# stebz: m, w, iblock, isplit, info = stebz(d, e, range, vl, vu, il, iu, abstol, order),
# range 1 the eigenvalues in (vl, vu], range 2 those of 1-based ascending index il..iu;
# stein: z, info = stein(d, e, w, iblock, isplit)
_LAPACK = {"stebz": lapack.dstebz, "stein": lapack.dstein}


class _BisectedMode(EigenMode):
    """An eigenvalue mu = -lam that bisection found in the sector
    ``problem``, whose eigenvector u is formed on its first read, by inverse
    iteration (LAPACK stein) on this eigenvalue alone.  Until then the mode
    keeps the number of its eigenvalue's block and the last rows of the
    blocks up to it (the block data stebz returned); the N-long arrays that
    scipy's stein wrapper takes are rebuilt at the read, and the block data
    are dropped once u is formed.  stein draws its start vector from a fixed
    seed, so u is the same at every read, and that of running stein on the
    eigenvalue right after bisecting it.  ``repr`` leaves u unformed; ``==``,
    which compares the fields, forms it."""

    def __init__(self, problem: SpectralProblem, mu: float, block: int, splits: np.ndarray):
        # u stays out of the instance until its first read, as cached_property needs
        vars(self).update(lam=-float(mu), l=problem.l, problem=problem,
                          _blocks=(int(block), splits))

    @cached_property
    def u(self) -> np.ndarray:
        (block, splits), problem = self._blocks, self.problem
        iblock, isplit = np.zeros((2, problem.size), dtype=np.int32)
        iblock[0], isplit[:block] = block, splits
        z, info = _LAPACK["stein"](problem.diag, problem.off_diag, np.array([-self.lam]),
                                   iblock, isplit)
        if info:
            raise _solver_error(problem, f"stein returned info={info}")
        del vars(self)["_blocks"]
        return _normalized(problem, z[:, 0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lam={self.lam!r}, l={self.l!r})"


def _stebz(problem: SpectralProblem, range_: int, vl: float, vu: float,
           il: int, iu: int, tol: float) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK stebz on a sector, in block order: (m, w, iblock, isplit)."""
    m, w, iblock, isplit, info = _LAPACK["stebz"](problem.diag, problem.off_diag, range_,
                                                  vl, vu, il, iu, tol, "B")
    if info:
        raise _solver_error(problem, f"stebz returned info={info}")
    return m, w, iblock, isplit


def _modes(problem: SpectralProblem, m: int, w: np.ndarray,
           iblock: np.ndarray, isplit: np.ndarray) -> tuple[_BisectedMode, ...]:
    """The m bisected eigenvalues of a sector as eigenmodes, sorted by |lam|."""
    modes = (_BisectedMode(problem, w[j], iblock[j], isplit[:iblock[j]].copy())
             for j in range(m))
    return tuple(sorted(modes, key=lambda mode: abs(mode.lam)))


def _bisect(problem: SpectralProblem, il: int, iu: int) -> tuple[_BisectedMode, ...]:
    """Bisection (LAPACK stebz, tolerance 0) for the eigenvalues of (1-based,
    ascending) index il..iu of a sector, as eigenmodes sorted by |lam|."""
    return _modes(problem, *_stebz(problem, 2, 0.0, 1.0, il, iu, 0.0))


def _bisect_window(problem: SpectralProblem, vl: float, vu: float) -> tuple[_BisectedMode, ...]:
    """Bisection (LAPACK stebz, tolerance 0) for the eigenvalues of a sector
    in the value window (vl, vu], as eigenmodes sorted by |lam|.  The
    eigenvalues outside the window are not searched for."""
    return _modes(problem, *_stebz(problem, 1, vl, vu, 0, 0, 0.0))


def _count(problem: SpectralProblem, vl: float, vu: float) -> int:
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

        (sum_f c_f (u_{i+1} - u_i)^2 + sum_i V_i rho_i u_i^2) / sum_i rho_i u_i^2,

    c_f = off_i sqrt(rho_i rho_{i+1}) over the interior faces and
    V = ``sector_potential(grid, l)``.  Every term is nonnegative, so
    nothing cancels against the O(N^2) diagonal."""
    s = problem.sqrt_rho
    rho_u2 = (s * u) ** 2
    energy = float(np.sum(problem.off_diag * s[:-1] * s[1:] * np.diff(u) ** 2))
    if problem.l:
        energy += float(np.sum(sector_potential(problem.grid, problem.l) * rho_u2))
    return energy / float(np.sum(rho_u2))


def first_nonzero_eigenvalue(grid: Grid) -> EigenMode:
    """Smallest lambda > 0 with Delta_phi u = -lambda u on the grid's model,
    searched over l = 0, 1.

    No sector l >= 2 can hold lambda_1: in symmetrized form
    S_l = S_1 - (c_l - c_1) diag(1/w^2), c_l = l(l+n-2), e.g. S_2 = S_1 - (n+1) diag(1/w^2),
    so by Weyl's inequality every l >= 2 eigenvalue lies strictly below its
    l = 1 counterpart.  On a circle l = 0 and l = 1 are the even and odd
    sectors, and there is no other.

    lambda_1 is the larger of the two sector tops: the top eigenvalue mu_1
    of l = 1, and the top mu_0 of l = 0 below its constant mode.  Sturm
    counts pick the winning sector before anything is bisected.  The
    Rayleigh quotient lambda_RQ of the trial u = sin(pi r/ell), ell =
    ``model.phi.length``, bounds -mu_1 from above (Rayleigh-Ritz): u is the
    density-free l = 1 top: w/rho on a sphere's l = 1 sector and
    sin(2 pi theta/L) in a circle's odd sector.  One Sturm count of l = 0
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
    sphere's twins, with N = ``grid.size`` (pi/N = pi h/ell; N/2 on a
    circle's mirror half), capped at -tau, and is kept only when one more count
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
    reads ``lam`` and ``u`` assembles nothing on the grid of half the cells.
    """
    base = assemble(grid, 0)
    upper = base.sector(1)
    trial = np.sin(math.pi / grid.model.phi.length * grid.nodes)
    bound = _rayleigh_quotient(upper, trial)
    margin = 16.0 * np.finfo(float).eps * norm_bound(base)
    vl = -bound - margin
    count = _count(base, vl, math.inf)
    if count < 1:
        raise _solver_error(base, f"stebz counts no eigenvalue above {vl!r}, "
                                  "not even the constant mode")
    if count > 1:
        vu = min(-bound + margin + bound * (math.pi / grid.size) ** 2, -margin)
        if vu < -margin and _count(base, vu, math.inf) != 1:
            vu = -margin
        window = _bisect_window(base, vl, vu)
        if len(window) != count - 1:
            raise _solver_error(base, f"stebz finds {len(window)} eigenvalues in "
                                      f"({vl!r}, {vu!r}], not the {count - 1} that the "
                                      "count leaves beside the constant mode: one lies "
                                      "within the margin of it")
        if not _count(upper, -window[0].lam, math.inf):
            return window[0]
    top, = _bisect(upper, upper.size, upper.size)
    if count > 1 and window[0].lam <= top.lam:  # a tie goes to the lower sector
        top = window[0]
    return top
