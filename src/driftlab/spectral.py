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
S = D A D^{-1}, D = diag(sqrt(rho_i)), solved in two LAPACK steps: bisection
(stebz) for the eigenvalues, then inverse iteration (stein) for their
eigenvectors.  The periodic circle matrix has wrap-around corners and is
solved by sparse shift-invert Lanczos (ARPACK).  Both solves cost linear time
in N and are deterministic.

``solve_eigen`` returns one sector's eigenpairs as a tuple of ``EigenMode``.
``first_nonzero_eigenvalue`` bisects the sectors l = 0, 1 for their four
eigenvalues of smallest magnitude and runs inverse iteration only on the
winning sector (a circle: Lanczos on its one periodic sector); its Richardson
partner is the Rayleigh quotient of that eigenvector on the half-resolution
operator, so each lambda_1 costs one eigensolve.  ``spectrum_contains``
bisects the sectors l = 0, 1, 2 over a value window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import diags
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import AssemblyError, SolverError
from .geometry import CIRCLE, INTERVAL_SPHERE, Grid, WarpedManifold, measure_density


@dataclass(frozen=True)
class SpectralProblem:
    """Assembled radial (or periodic) drift-Laplacian operator for one angular mode.

    ``diag``/``off_diag`` store the symmetrized tridiagonal form; ``corner``
    is the periodic wrap coupling (circles only).  ``sqrt_rho`` maps
    symmetrized eigenvectors back to eigenfunctions, u = y / sqrt(rho).
    """

    model: WarpedManifold
    grid: Grid
    l: int
    diag: np.ndarray
    off_diag: np.ndarray
    corner: float
    sqrt_rho: np.ndarray

    @property
    def periodic(self) -> bool:
        return self.model.topology == CIRCLE

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


def angular_eigenvalue(n: int, l: int) -> float:
    """Eigenvalue l (l + n - 2) of degree-l spherical harmonics on the fiber."""
    return float(l * (l + n - 2))


def assemble(model: WarpedManifold, grid: Grid, l: int) -> SpectralProblem:
    """Assemble the symmetric tridiagonal operator for angular mode l."""
    if l < 0 or int(l) != l:
        raise AssemblyError(f"angular mode must be a nonnegative integer, got {l!r}")
    l = int(l)
    h = grid.spacing
    nodes = grid.nodes
    rho_c = measure_density(model, nodes)
    if np.any(rho_c <= 0.0) or not np.all(np.isfinite(rho_c)):
        raise AssemblyError("measure density is not positive and finite on the grid")

    if model.topology == INTERVAL_SPHERE:
        faces = nodes[:-1] + 0.5 * h
        rho_f = measure_density(model, faces)
        coupling = rho_f / (h * h)
        diag = np.zeros(grid.size)
        diag[:-1] -= coupling / rho_c[:-1]
        diag[1:] -= coupling / rho_c[1:]
        if l >= 1:
            wv = np.asarray(model.w.value(nodes), dtype=float)
            potential = angular_eigenvalue(model.n, l) / wv**2
            if not np.all(np.isfinite(potential)):
                raise AssemblyError(
                    "angular potential overflows at the poles; grid nodes must stay interior")
            diag -= potential
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

    return SpectralProblem(model=model, grid=grid, l=l, diag=diag, off_diag=off,
                           corner=corner, sqrt_rho=np.sqrt(rho_c))


@dataclass(frozen=True)
class EigenMode:
    """One computed eigenpair: Delta_phi u = mu u with radial samples u."""

    mu: float
    l: int
    u: np.ndarray
    problem: SpectralProblem

    @property
    def lam(self) -> float:
        """lambda = -mu, positive for non-constant modes."""
        return -self.mu


def _postprocess(problem: SpectralProblem, vals: np.ndarray,
                 vecs: np.ndarray) -> tuple[EigenMode, ...]:
    q = problem.grid.weights
    modes = []
    for j in range(vals.size):
        u = vecs[:, j] / problem.sqrt_rho
        u = u / math.sqrt(float(np.dot(q, u * u)))
        i = int(np.argmax(np.abs(u)))
        if u[i] < 0.0:
            u = -u
        modes.append(EigenMode(mu=float(vals[j]), l=problem.l, u=u, problem=problem))
    return tuple(sorted(modes, key=lambda m: abs(m.mu)))


def _solver_error(problem: SpectralProblem, cause: Exception | str) -> SolverError:
    n = problem.size
    return SolverError(
        f"eigensolver failed for l={problem.l}, N={n}: {cause}",
        report={"l": problem.l, "size": n,
                "diag_range": (float(problem.diag.min()), float(problem.diag.max())),
                "off_max": float(np.max(np.abs(problem.off_diag))) if n > 1 else 0.0})


@dataclass(frozen=True)
class _Bisection:
    """Bisected eigenvalues of an interval sector (LAPACK stebz, in block
    order) with the block data that inverse iteration needs."""

    problem: SpectralProblem
    w: np.ndarray
    iblock: np.ndarray
    isplit: np.ndarray

    @property
    def mus(self) -> list[float]:
        """The eigenvalues in the order of ``modes()``: by |mu|."""
        return sorted(np.sort(self.w).tolist(), key=abs)

    def modes(self) -> tuple[EigenMode, ...]:
        """Eigenpairs of all the bisected eigenvalues by inverse iteration
        (LAPACK stein).  It draws a start vector per eigenvalue and
        reorthogonalizes within clusters, so it always gets the whole set."""
        d, e = self.problem.diag, self.problem.off_diag
        stein, = get_lapack_funcs(("stein",), (d, e))
        vecs, info = stein(d, e, self.w, self.iblock, self.isplit)
        if info != 0:
            raise _solver_error(self.problem, f"stein returned info={info}")
        order = np.argsort(self.w)
        return _postprocess(self.problem, self.w[order], vecs[:, order])


def _stebz(problem: SpectralProblem, select: int, vl: float, vu: float, il: int, iu: int,
           order: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK stebz on the symmetrized matrix of an interval sector with
    ``eigh_tridiagonal``'s default tolerance: select 1 takes the eigenvalues
    in (vl, vu], select 2 those of (1-based, ascending) index il..iu.
    Returns the eigenvalues in ``order`` ("E": ascending, "B": by block) with
    the block data that inverse iteration needs."""
    d, e = problem.diag, problem.off_diag
    stebz, = get_lapack_funcs(("stebz",), (d, e))
    m, w, iblock, isplit, info = stebz(d, e, select, vl, vu, il, iu, 0.0, order)
    if info != 0:
        raise _solver_error(problem, f"stebz returned info={info}")
    # stebz returns w with room for N values; a view would keep all of it alive
    return w[:m].copy(), iblock, isplit


def _bisect(problem: SpectralProblem, count: int) -> _Bisection:
    """Bisection for the ``count`` eigenvalues of an interval sector nearest
    zero."""
    n = problem.size
    w, iblock, isplit = _stebz(problem, 2, 0.0, 1.0, n - count + 1, n, "B")
    return _Bisection(problem=problem, w=w, iblock=iblock, isplit=isplit)


def solve_eigen(problem: SpectralProblem, count: int) -> tuple[EigenMode, ...]:
    """The ``count`` eigenpairs of smallest magnitude, sorted by |mu|.

    The spectrum is nonpositive, so smallest magnitude means algebraically
    largest.  Interval models bisect the symmetrized tridiagonal matrix for
    the eigenvalues and get the eigenvectors by inverse iteration.  The
    circle uses shift-invert Lanczos with a small positive shift, whose
    nearest eigenvalues are then the largest, and a fixed start vector; it
    returns at most N - 1 eigenpairs.
    """
    n = problem.size
    if count < 1:
        raise ValueError("count must be >= 1")
    count = min(count, n - 1 if problem.periodic else n)
    if not problem.periodic:
        return _bisect(problem, count).modes()
    off, corner = problem.off_diag, [problem.corner]
    matrix = diags([corner, off, problem.diag, off, corner],
                   [1 - n, -1, 0, 1, n - 1], format="csc")
    sigma = 1e-6 * float(np.max(np.abs(problem.diag)))
    try:
        vals, vecs = eigsh(matrix, k=count, sigma=sigma, v0=np.ones(n))
    except ArpackError as exc:
        raise _solver_error(problem, exc) from exc
    return _postprocess(problem, vals, vecs)


@dataclass(frozen=True)
class FirstEigenvalue:
    """First non-zero eigenvalue lambda with its eigenmode, error estimate and
    the gap to the next distinct eigenvalue of the searched sectors."""

    lam: float
    mode: EigenMode
    error_estimate: float
    gap: float


def _rayleigh_quotient(problem: SpectralProblem, u: np.ndarray) -> float:
    """lambda = -<Au, u> / <u, u> of radial samples u, in energy form:

        (sum_f c_f (u_{i+1} - u_i)^2 + c_l sum_i rho_i u_i^2 / w_i^2) / sum_i rho_i u_i^2,

    c_f = off_i sqrt(rho_i rho_{i+1}), with the wrap-around face on circles.
    Every term is nonnegative, so nothing cancels against the O(N^2) diagonal."""
    s = problem.sqrt_rho
    rho_u2 = (s * u) ** 2
    energy = float(np.dot(problem.off_diag * s[:-1] * s[1:], np.diff(u) ** 2))
    if problem.periodic:
        energy += problem.corner * s[-1] * s[0] * (u[0] - u[-1]) ** 2
    if problem.l:
        w = np.asarray(problem.model.w.value(problem.grid.nodes), dtype=float)
        energy += angular_eigenvalue(problem.model.n, problem.l) * float(np.sum(rho_u2 / w**2))
    return energy / float(np.sum(rho_u2))


def first_nonzero_eigenvalue(model: WarpedManifold, grid: Grid,
                             richardson: bool = True) -> FirstEigenvalue:
    """Smallest lambda > 0 with Delta_phi u = -lambda u, searched over l = 0, 1.

    No sector l >= 2 can hold lambda_1: in symmetrized form
    S_l = S_1 - (c_l - c_1) diag(1/w^2), c_l = l(l+n-2), e.g. S_2 = S_1 - (n+1) diag(1/w^2),
    so by Weyl's inequality every l >= 2 eigenvalue lies strictly below its
    l = 1 counterpart.  A circle has the single periodic sector.  Each sector
    contributes its four eigenvalues of smallest magnitude, less the constant
    mode (top of the l = 0 or periodic sector).  Interval sectors are only
    bisected; inverse iteration runs once, for the winning sector's four
    eigenvalues, and the eigenmode is taken from it.

    The Richardson error estimate of the second-order scheme is
    |lam_N - lam_{N/2}| / 3, where lam_{N/2} is the Rayleigh quotient, on the
    winning sector's operator at N // 2, of the eigenvector linearly
    interpolated onto the coarse nodes (for even N: the cell-pair average on
    spheres, injection on circles).  Its error is quadratic in the O(h^2)
    interpolation error, so it stands in for a half-resolution eigensolve.
    ``gap`` is the distance to the next eigenvalue above lambda plus a
    cluster width of max(20 err, 1e-7 max(1, lambda)).
    """
    def _low(l: int):
        """Sector l's eigenvalues of smallest magnitude, by |mu|, and the
        function that returns their eigenpairs in that order."""
        problem = assemble(model, grid, l)
        if problem.periodic:
            modes = solve_eigen(problem, 4)
            return [m.mu for m in modes], lambda: modes
        bisection = _bisect(problem, 4)
        return bisection.mus, bisection.modes

    sectors = {l: _low(l) for l in ((0,) if model.topology == CIRCLE else (0, 1))}
    # (mu, l, index in the sector); index 0 of l = 0 is the constant mode
    cands = [(mu, l, k) for l, (mus, _) in sectors.items()
             for k, mu in enumerate(mus) if k or l]
    mu, l, k = min(cands, key=lambda c: (-c[0], c[1]))
    _, eigenpairs = sectors[l]
    mode = eigenpairs()[k]
    lam = -mu
    err = math.nan
    if richardson and grid.size >= 8:
        coarse = assemble(model, Grid.uniform(model, grid.size // 2), l)
        period = model.L if model.topology == CIRCLE else None
        u = np.interp(coarse.grid.nodes, grid.nodes, mode.u, period=period)
        err = abs(lam - _rayleigh_quotient(coarse, u)) / 3.0
    cluster = max(20.0 * (0.0 if math.isnan(err) else err), 1e-7 * max(1.0, lam))
    above = [-c[0] for c in cands if (-c[0]) > lam + cluster]
    gap = (min(above) - lam) if above else math.inf
    return FirstEigenvalue(lam=lam, mode=mode, error_estimate=err, gap=gap)


@dataclass(frozen=True)
class MembershipVerdict:
    """Whether the low spectrum contains a target value within tolerance."""

    contained: bool
    nearest: float
    gap: float
    tolerance: float
    count_used: int


def spectrum_contains(model: WarpedManifold, grid: Grid, target: float,
                      tol: float) -> MembershipVerdict:
    """True iff some eigenvalue lies within tol * max(1, |target|) of target.

    Interval-sphere models only.  Each sector l = 0, 1, 2 contributes every
    eigenvalue above target - window (Sturm bisection) and the next one below,
    so ``contained`` and ``nearest`` are exact and a negative verdict is
    meaningful.  ``count_used`` is the number of eigenvalues computed.
    """
    if model.topology == CIRCLE:
        raise ValueError("spectrum_contains needs an interval-sphere model")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    window = tol * max(1.0, abs(target))
    mus = []
    for l in (0, 1, 2):
        problem = assemble(model, grid, l)
        upper, _, _ = _stebz(problem, 1, target - window, math.inf, 1, 1, "E")
        below = problem.size - upper.size
        if below >= 1:
            mus.extend(_stebz(problem, 2, 0.0, 1.0, below, below, "E")[0])
        mus.extend(upper)
    mus = np.array(mus)
    nearest = float(mus[np.argmin(np.abs(mus - target))])
    gap = abs(nearest - target)
    return MembershipVerdict(contained=gap <= window, nearest=nearest, gap=gap,
                             tolerance=window, count_used=mus.size)
