"""Spectral engine checks against classical spectra and structural invariants."""

import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

import driftlab as dl
import driftlab.acceptance as acceptance
import driftlab.cli as cli
import driftlab.spectral as spectral
from driftlab.errors import AssemblyError, SolverError
from driftlab.spectral import assemble


@lru_cache(maxsize=None)
def _sphere_grid(n, N, eps=0.0):
    return dl.Grid.uniform(dl.sphere(n, density=dl.cosine_density(eps) if eps else (0.0,)), N)


@lru_cache(maxsize=None)
def _circle_grid(N, eps):
    return dl.Grid.uniform(dl.circle(2.0 * math.pi, density=dl.cosine_density(eps)), N)


_EPS = st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)
_POLY_COS = st.lists(_EPS, min_size=1, max_size=3)


@st.composite
def _weighted_models(draw):
    """A weighted n-sphere (n 2-5; cosine or short poly-cos density) or a
    weighted circle (cosine or short poly-cos density), on a grid of 8-400
    cells (an even number on a circle)."""
    kind = draw(st.sampled_from(("cosine", "poly-cos", "circle")))
    density = dl.cosine_density(draw(_EPS)) if kind == "cosine" else draw(_POLY_COS)
    if kind == "circle":
        model = dl.circle(2.0 * math.pi, density=density)
    else:
        model = dl.sphere(draw(st.integers(2, 5)), density=density)
    N = draw(st.integers(8, 400))
    return dl.Grid.uniform(model, N + N % 2 if kind == "circle" else N)


def _sectors(model):
    """The sectors l = 0, 1, 2, or a circle's even and odd sectors l = 0, 1."""
    return (0, 1) if model.topology == dl.CIRCLE else (0, 1, 2)


def _mus(modes):
    return np.array([-m.lam for m in modes])


def _top_modes(problem, count):
    """The ``count`` top eigenpairs of a sector, sorted by |lam|, through the
    solver's own bisection and inverse iteration."""
    n = problem.diag.size
    return spectral._bisect(problem, n - count + 1, n)


def _matrix(problem):
    """The operator on radial samples, column by column from ``apply``."""
    return np.column_stack([problem.apply(e) for e in np.eye(problem.size)])


def _symmetrized(problem):
    """The symmetrized operator S = D A D^{-1} of a sector as a dense matrix."""
    return np.diag(problem.diag) + np.diag(problem.off_diag, 1) + np.diag(problem.off_diag, -1)


def _whole_circle(model, N):
    """The symmetrized drift Laplacian of the whole circle on N cells
    centred at (i + 1/2) h, h = L / N, as a dense N x N matrix: the
    finite-volume flux differences with rho = e^{-phi} at the centres and
    faces, cell N - 1 coupled to cell 0 across the face at theta = L = 0.
    A reference built apart from ``assemble``, which holds only the mirror
    half."""
    h = model.L / N
    i = np.arange(N)
    nxt = (i + 1) % N
    rho = np.exp(-model.phi.value((i + 0.5) * h))
    coupling = np.exp(-model.phi.value((i + 1.0) * h)) / h**2  # face between i and i + 1
    s = np.zeros((N, N))
    np.add.at(s, (i, i), -coupling / rho)
    np.add.at(s, (nxt, nxt), -coupling / rho[nxt])
    s[i, nxt] = s[nxt, i] = coupling / np.sqrt(rho * rho[nxt])
    return s, np.sqrt(rho)


def _unfolded(mode):
    """A circle mode's u on the whole circle's cells: its mirror half, then
    the mirror image, even (l = 0) or odd (l = 1)."""
    return np.concatenate([mode.u, (-1.0 if mode.l else 1.0) * mode.u[::-1]])


def weighted_symmetry_defect(problem, vectors=6):
    """max |<Au, v> - <u, Av>| over a fixed family of smooth test vectors,
    relative to the Cauchy-Schwarz scale ||Au|| ||v|| + ||u|| ||Av|| in the
    weighted norm; zero up to rounding for this discretization."""
    q = problem.grid.weights
    r = problem.grid.nodes
    span = problem.grid.model.L

    def _norm(x):
        return math.sqrt(float(np.dot(q, x * x)))

    tests = [np.cos((k + 1) * math.pi * r / span) + 0.5 * np.sin((k + 2) * math.pi * r / span)
             for k in range(vectors)]
    worst = 0.0
    for i, u in enumerate(tests):
        au = problem.apply(u)
        for v in tests[i + 1:]:
            av = problem.apply(v)
            lhs = float(np.dot(q, au * v))
            rhs = float(np.dot(q, u * av))
            scale = _norm(au) * _norm(v) + _norm(u) * _norm(av) + 1e-300
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def test_s2_merged_spectrum_is_classical():
    # sector l of the unit S^2 holds -k(k+1) for k >= l, each once
    grid = _sphere_grid(2, 1500)
    for l in (0, 1, 2):
        mus = _mus(_top_modes(assemble(grid, l), 3))
        expected = np.array([-k * (k + 1.0) for k in range(l, l + 3)])
        assert np.max(np.abs(mus - expected)) < 2e-4


def test_circle_fourier_spectrum():
    # the flat circle holds -k^2, twice for k >= 1: cos(k theta) in the even
    # sector, with the constant mode, and sin(k theta) in the odd one; both
    # hold the mirror half's N/2 cells
    model = dl.circle(2.0 * math.pi)
    grid = dl.Grid.uniform(model, 800)
    even, odd = assemble(grid, 0), assemble(grid, 1)
    assert (even.size, odd.size) == (400, 400)
    even_mus, odd_mus = _mus(_top_modes(even, 3)), _mus(_top_modes(odd, 3))
    assert np.max(np.abs(even_mus - [0.0, -1.0, -4.0])) < 1e-3
    assert np.max(np.abs(odd_mus - [-1.0, -4.0, -9.0])) < 1e-3
    mus = np.sort(np.concatenate([even_mus, odd_mus]))[::-1]
    expected = np.array([0.0, -1.0, -1.0, -4.0, -4.0, -9.0])
    assert np.max(np.abs(mus - expected)) < 1e-3


def test_first_eigenvalue_round_spheres():
    for n, N, tol in ((2, 2000, 5e-6), (3, 2000, 5e-6), (4, 1500, 1e-5)):
        grid = _sphere_grid(n, N)
        fe = dl.first_nonzero_eigenvalue(grid)
        assert abs(fe.lam - n) < tol
        assert fe.error_estimate < 1e-4


def test_first_eigenvalue_refinement_consistency():
    # Richardson-extrapolating the two resolutions must land closer to the
    # classical value than either raw resolution
    model = _sphere_grid(3, 64).model
    lam_c = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 400)).lam
    lam_f = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 800)).lam
    extrap = lam_f + (lam_f - lam_c) / 3.0
    assert abs(extrap - 3.0) < abs(lam_f - 3.0) < abs(lam_c - 3.0)


def test_first_eigenvalue_perturbed_respects_lower_bound():
    grid = _sphere_grid(2, 1000, eps=0.5)
    model = grid.model
    fe = dl.first_nonzero_eigenvalue(grid)
    kb = dl.be_ricci_lower_bound(model)
    assert kb.K == 0.5
    assert fe.lam >= (model.n - 1) * kb.K


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models(), l=st.integers(0, 4), k=st.integers(1, 6),
       shift=st.floats(-1e-3, 1e-3), tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
def test_count_matches_eigh_tridiagonal(grid, l, k, shift, tol):
    # a Sturm count is the count over (vl, vu] that stebz takes before it
    # bisects, so it matches eigh_tridiagonal's value selection exactly, for
    # windows on, near and between eigenvalues of sectors l = 0..4 (a
    # circle's even and odd sectors), and for windows open above
    sectors = _sectors(grid.model) if grid.model.topology == dl.CIRCLE else range(5)
    problem = assemble(grid, sectors[l % len(sectors)])
    target = -_top_modes(problem, min(k, problem.size))[-1].lam * (1.0 + shift)
    window = tol * max(1.0, abs(target))
    for sector in _sectors(grid.model):
        problem = assemble(grid, sector)
        for vl, vu in ((target - window, target + window), (target - window, math.inf)):
            want = eigh_tridiagonal(problem.diag, problem.off_diag, eigvals_only=True,
                                    select="v", select_range=(vl, vu)).size
            assert spectral._count(problem, vl, vu) == want, (sector, vl, vu)


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models(), l=st.integers(0, 2), k=st.integers(0, 8),
       tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)),
       at=st.sampled_from(("lower end", "upper end", "between")))
def test_count_matches_dense_spectra(grid, l, k, tol, at):
    # oracle: every eigenvalue of the sector's dense matrix.  Windows put one
    # of them exactly at one end, or centre the window midway between two.
    # A count is exact for a matrix within a few eps ||T|| of the operator,
    # and so is dense eigh: where an eigenvalue lies closer than that to an
    # end, the count is free, so it must lie between the number of
    # eigenvalues inside the window narrowed by that slack and the number
    # inside the window widened by it
    sectors = _sectors(grid.model)
    problem = assemble(grid, sectors[l % len(sectors)])
    mus = eigh(_symmetrized(problem), eigvals_only=True)[::-1]
    slack = 8.0 * np.finfo(float).eps * spectral.norm_bound(problem)
    i = min(k, mus.size - 2)
    mu = mus[i] if at != "between" else 0.5 * (mus[i] + mus[i + 1])
    width = tol * max(1.0, abs(mu))
    vl, vu = {"lower end": (mu, mu + width), "upper end": (mu - width, mu),
              "between": (mu - width, mu + width)}[at]
    narrow = int(np.sum((mus > vl + slack) & (mus <= vu - slack)))
    wide = int(np.sum((mus > vl - slack) & (mus <= vu + slack)))
    assert narrow <= spectral._count(problem, vl, vu) <= wide


@pytest.mark.parametrize("node", [0, 3, 7], ids=["first", "middle", "last"])
def test_count_takes_both_window_ends(node):
    # a diagonal operator: every pivot of a Sturm count is d_i - x, whose sign
    # rounding keeps, so the counts are exact.  The window (vl, vu] holds an
    # eigenvalue at vu and one a float above vl, but not one at vl, whose
    # pivot there is zero, nor one a float above vu, at any node; (vl, inf)
    # holds every one above vl
    zonal = assemble(_sphere_grid(2, 8), 0)
    for vl, vu in ((-4.5, -3.5), (-0.625, -0.375)):
        for mu, count in ((vu, 1), (math.nextafter(vu, math.inf), 0),
                          (vl, 0), (math.nextafter(vl, math.inf), 1)):
            diag = np.full(8, -1e6)
            diag[node] = mu
            problem = spectral.replace(zonal, diag=diag, off_diag=np.zeros(7))
            assert spectral._count(problem, vl, vu) == count, (vl, vu, mu)
            assert spectral._count(problem, vl, math.inf) == (mu > vl)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_count_takes_a_zero_pivot_once(sign):
    # tridiag(-1, 2, -1) of size 3 has the eigenvalues 2 - sqrt(2), 2 and
    # 2 + sqrt(2).  Its LDL^T factorization shifted by 1 has the pivots 1, 0
    # and a division by zero: the zero pivot must count once, so (1, 10]
    # holds two eigenvalues, and so does (-10, -1] for the negated matrix.
    # A count reads only the two diagonals of the problem
    problem = spectral.replace(assemble(_sphere_grid(2, 8), 0), diag=np.full(3, 2.0 * sign),
                               off_diag=np.full(2, -sign))
    vl, vu = (1.0, 10.0) if sign > 0 else (-10.0, -1.0)
    assert spectral._count(problem, vl, vu) == 2
    assert spectral._count(problem, vl, math.inf) == (2 if sign > 0 else 3)


def test_zero_mode_is_constant():
    grid = _sphere_grid(2, 500)
    zero, first, _ = _top_modes(assemble(grid, 0), 3)
    scale = abs(first.lam)
    assert abs(zero.lam) < 1e-10 * max(1.0, scale)
    assert np.std(zero.u) < 1e-8 * np.abs(zero.u).max()


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models())
def test_constants_in_kernel_row_sums(grid):
    # the rows of the l = 0 operator sum to zero up to rounding
    problem = assemble(grid, 0)
    residual = np.max(np.abs(problem.apply(np.ones(grid.size))))
    assert residual <= 1e-12 * np.max(np.abs(problem.diag))


def test_l1_potential_and_tags():
    grid = _sphere_grid(2, 300)
    p0 = assemble(grid, 0)
    p1 = assemble(grid, 1)
    # the l >= 1 operator subtracts exactly l(l+n-2)/w^2 on the diagonal
    w = np.sin(grid.nodes)
    diff = _matrix(p1) - _matrix(p0)
    assert np.allclose(np.diag(diff), -1.0 / w**2, rtol=1e-12, atol=1e-9)
    assert np.max(np.abs(diff - np.diag(np.diag(diff)))) < 1e-9


def test_weighted_orthonormality():
    grid = _sphere_grid(2, 800, eps=0.3)
    modes = _top_modes(assemble(grid, 0), 5)
    q = grid.weights
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            inner = float(np.dot(q, mi.u * mj.u))
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models())
def test_operator_symmetry_all_topologies(grid):
    model = grid.model
    for l in _sectors(model):
        assert weighted_symmetry_defect(assemble(grid, l)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models())
def test_nonpositive_spectrum(grid):
    # each sector's top eigenvalue is at most rounding above zero, relative to
    # the larger magnitude of the sector's two eigenvalues nearest zero
    for sector in (assemble(grid, l) for l in _sectors(grid.model)):
        mus = _mus(_top_modes(sector, 2))
        assert mus[0] <= 1e-10 * max(1.0, float(np.abs(mus).max()))


def test_convergence_order_s2():
    errs = []
    ns = (250, 500, 1000, 2000)
    for N in ns:
        grid = _sphere_grid(2, N)
        fe = dl.first_nonzero_eigenvalue(grid)
        errs.append(abs(fe.lam - 2.0))
    slope = np.polyfit(np.log([math.pi / N for N in ns]), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_solver_determinism():
    for problem in (assemble(_sphere_grid(2, 700, eps=0.2), 1),
                    assemble(_circle_grid(400, 0.5), 0), assemble(_circle_grid(400, 0.5), 1)):
        a = _top_modes(problem, 4)
        b = _top_modes(problem, 4)
        assert _mus(a).tolist() == _mus(b).tolist()
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.u, mb.u)


def test_circle_solve_matches_dense_reference():
    # the four top even and three top odd eigenpairs hold the six top ones of
    # the whole circle's operator (a cosine density makes each non-zero
    # eigenvalue double), and their mirror images are its eigenfunctions,
    # of unit norm in its weights rho h
    grid = _circle_grid(300, 0.5)
    even, odd = assemble(grid, 0), assemble(grid, 1)
    modes = sorted(_top_modes(even, 4) + _top_modes(odd, 3), key=lambda m: m.lam)[:6]
    full, sqrt_rho = _whole_circle(grid.model, 300)
    reference = eigh(full, eigvals_only=True)[::-1][:6]
    assert np.max(np.abs(_mus(modes) - reference)) < 1e-10
    for mode in modes:
        assert mode.problem is (odd if mode.l else even)
        y = sqrt_rho * _unfolded(mode)
        assert np.linalg.norm(full @ y + mode.lam * y) < 1e-8 * np.linalg.norm(y)
        assert float(np.dot(grid.weights, mode.u**2)) == pytest.approx(1.0, rel=1e-12)
        assert float(np.dot(sqrt_rho**2 * grid.spacing, _unfolded(mode)**2)) == \
            pytest.approx(1.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeffs=_POLY_COS, half=st.integers(4, 200), length=st.sampled_from((2.0 * math.pi, 3.7)))
@example(coeffs=[0.0, 0.5], half=4, length=2.0 * math.pi)  # the smallest circle grid, N = 8
@example(coeffs=[0.2, -0.7, 0.6], half=5, length=3.7)
def test_mirror_sectors_hold_the_periodic_spectrum(coeffs, half, length):
    # a circle density p(cos(2 pi theta/L)) is even about theta = 0 and L/2
    # by construction, for every short poly-cos p, so the reflection splits
    # the whole circle's operator into an even and an odd sector, each on
    # the mirror half's N/2 cells.  Together their eigenvalues are those of
    # the dense N x N reference, which dense eigh matches to within its own
    # backward error, a few eps ||T||_F, plus the rounding of the density's
    # mirror symmetry; sector by sector, the mirror images of their
    # eigenvectors are the reference's
    model = dl.circle(length, density=coeffs)
    N = 2 * half
    grid = dl.Grid.uniform(model, N)
    even, odd = assemble(grid, 0), assemble(grid, 1)
    assert (grid.size, even.size, odd.size) == (half, half, half)
    full, sqrt_rho = _whole_circle(model, N)
    mus = np.sort(np.concatenate([eigh(_symmetrized(s), eigvals_only=True) for s in (even, odd)]))
    assert np.max(np.abs(mus - eigh(full, eigvals_only=True))) <= \
        16.0 * np.finfo(float).eps * np.linalg.norm(full)
    for sector in (even, odd):
        top = _top_modes(sector, 2)[-1]
        y = sqrt_rho * _unfolded(top)
        assert np.linalg.norm(full @ y + top.lam * y) <= \
            1e-9 * np.linalg.norm(full) * np.linalg.norm(y)
    # lambda_1 is the top eigenvalue below the constant mode, within the
    # bisection tolerance
    fe = dl.first_nonzero_eigenvalue(grid)
    norm = max(spectral.norm_bound(even), spectral.norm_bound(odd))
    assert fe.l in (0, 1) and fe.u.size == half
    assert fe.lam == pytest.approx(-eigh(full, eigvals_only=True)[-2], rel=1e-9,
                                   abs=4.0 * np.finfo(float).eps * norm)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), eps=st.floats(-0.9, 0.9), N=st.integers(8, 400))
def test_sector_two_lies_below_sector_one(n, eps, N):
    # S_2 = S_1 - (n+1) diag(1/w^2): by Weyl's inequality no l = 2 mode can be lambda_1
    model = dl.sphere(n, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, N)
    top = [_top_modes(assemble(grid, l), 1)[0].lam for l in (1, 2)]
    assert top[1] > top[0]


def _half_grid_estimate(model, N, lam, l):
    """The Richardson estimate from a half-resolution eigensolve:
    |lam + mu| / 3 with mu the top non-constant eigenvalue of sector l on
    the grid of half the cells (eigh_tridiagonal)."""
    problem = assemble(dl.Grid.uniform(model, N).halved(), l)
    n = problem.size
    mus = eigh_tridiagonal(problem.diag, problem.off_diag, eigvals_only=True,
                           select="i", select_range=(n - 2, n - 1))[::-1]
    return abs(lam + mus[1 if l == 0 else 0]) / 3.0


def _l1_bound(grid):
    """The Rayleigh quotient of the density-free l = 1 top sin(pi r/ell),
    ell = ``model.phi.length``, on the l = 1 sector (a circle's odd one): an
    upper bound on the l = 1 top's lambda."""
    problem = assemble(grid, 1)
    trial = np.sin(math.pi / grid.model.phi.length * grid.nodes)
    return spectral._rayleigh_quotient(problem, trial)


def _solve_both_tops(grid):
    """lambda_1's eigenmode as eigh_tridiagonal gives it when it bisects the
    l = 1 top by its index (0-based n-1) and the l = 0 top over the value
    window (vl, vu], and keeps the larger, the lower sector on a tie.  With
    tau = 16 eps (max|d| + 2 max|e|) of l = 0 and the l = 1 bound lambda_RQ
    (``_l1_bound``), vl = -lambda_RQ - tau and vu = -lambda_RQ + tau +
    lambda_RQ (pi/N)^2, capped at -tau, or -tau where the dense l = 0
    spectrum holds more than the constant mode above it; the window leaves
    out the constant mode.  Each eigenvector comes from one stein call on
    the sector's bisected eigenvalues."""
    zonal, upper = (assemble(grid, l) for l in (0, 1))
    n = upper.size
    vals, vecs = eigh_tridiagonal(upper.diag, upper.off_diag, select="i",
                                  select_range=(n - 1, n - 1))
    best = upper, vals[-1], vecs[:, -1]
    tau = 16.0 * np.finfo(float).eps * float(
        np.max(np.abs(zonal.diag)) + 2.0 * np.max(np.abs(zonal.off_diag)))
    bound = _l1_bound(grid)
    vu = min(-bound + tau + bound * (math.pi / n) ** 2, -tau)
    mus = eigh_tridiagonal(zonal.diag, zonal.off_diag, eigvals_only=True)
    if np.sum(mus > vu) != 1:
        vu = -tau
    vals, vecs = eigh_tridiagonal(zonal.diag, zonal.off_diag, select="v",
                                  select_range=(-bound - tau, vu))
    if vals.size and vals[-1] >= best[1]:
        best = zonal, vals[-1], vecs[:, -1]
    problem, mu, y = best
    return problem.l, -float(mu), spectral._normalized(problem, y)


@pytest.mark.parametrize("N", [400, 2000])
@pytest.mark.parametrize("density,n,sector", [
    (dl.cosine_density(0.5), 3, 1),
    ((0.0, -1.0, -0.25), 2, 0),  # configs/ling_cases.json, n = 2
], ids=["cosine-n3", "ling-poly-cos-n2"])
def test_first_eigenvalue_matches_eigenpair_solves_bitwise(density, n, sector, N):
    # certifying l = 0's top by a count and bisecting l = 1's (cosine), or
    # bisecting l = 0's in its counted window, where an l = 1 count finds
    # nothing above it (Ling), and inverse-iterating only the winning
    # eigenvalue reports the eigenvalue and eigenvector bits of one
    # eigenpair solve per sector top
    model = dl.sphere(n, density=density)
    grid = dl.Grid.uniform(model, N)
    l, lam, u = _solve_both_tops(grid)
    fe = dl.first_nonzero_eigenvalue(grid)
    assert l == fe.l == sector
    assert fe.lam == lam
    assert fe.u.tobytes() == u.tobytes()
    assert fe.error_estimate == pytest.approx(_half_grid_estimate(model, N, fe.lam, sector),
                                              rel=2e-3)


@st.composite
def _spheres(draw):
    """An n-sphere (n 2-5) without a density (round: lambda_1 = n in both
    l = 0 and l = 1), with a cosine or short poly-cos one, or with the Ling
    cases' poly-cos density, on 8-300 nodes."""
    kind = draw(st.sampled_from(("round", "cosine", "poly-cos", "ling")))
    density = {"round": lambda: (0.0,),
               "cosine": lambda: dl.cosine_density(draw(_EPS)),
               "poly-cos": lambda: draw(_POLY_COS),
               "ling": lambda: (0.0, -1.0, -0.25)}[kind]()
    return dl.Grid.uniform(dl.sphere(draw(st.integers(2, 5)), density=density),
                           draw(st.integers(8, 300)))


@settings(max_examples=80, deadline=None)
@given(grid=_spheres())
def test_first_eigenvalue_matches_bisecting_both_tops_bitwise(grid):
    # the counts skip a sector's bisection only where the other sector
    # would win it: lambda_1, its sector and the eigenvector's bytes are
    # those of bisecting both tops, l = 0's in its window, on the round
    # l = 0 / l = 1 twins too
    fe = dl.first_nonzero_eigenvalue(grid)
    l, lam, u = _solve_both_tops(grid)
    assert (fe.lam, fe.l) == (lam, l)
    assert fe.u.tobytes() == u.tobytes()


@settings(max_examples=60, deadline=None)
@given(grid=_spheres())
def test_first_eigenvalue_matches_dense_spectra(grid):
    # oracle: every eigenvalue of the dense l = 0 and l = 1 matrices, less the
    # constant mode.  The bisected value may differ from dense eigh's by the
    # bisection tolerance eps ||T||
    fe = dl.first_nonzero_eigenvalue(grid)
    lams, norm = [], 0.0
    for l in (0, 1):
        problem = assemble(grid, l)
        lams.append(-eigh(_symmetrized(problem), eigvals_only=True)[:-1 if l == 0 else None])
        norm = max(norm, np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag)))
    slack = 4.0 * np.finfo(float).eps * norm
    assert fe.lam == pytest.approx(np.min(np.concatenate(lams)), rel=1e-9, abs=slack)


@st.composite
def _circles(draw):
    """A circle (circumference 2 pi, 2.5 or 6) without a density, with a
    cosine or with a short poly-cos one, on 8-400 cells, an even number."""
    kind = draw(st.sampled_from(("flat", "cosine", "poly-cos")))
    density = {"flat": lambda: (0.0,),
               "cosine": lambda: dl.cosine_density(draw(_EPS)),
               "poly-cos": lambda: draw(_POLY_COS)}[kind]()
    model = dl.circle(draw(st.sampled_from((2.0 * math.pi, 2.5, 6.0))), density=density)
    return dl.Grid.uniform(model, 2 * draw(st.integers(4, 200)))


@settings(max_examples=80, deadline=None)
@given(grid=st.one_of(_spheres(), _circles()))
def test_l1_bound_picks_the_sector_that_bisection_would(grid):
    # the Rayleigh quotient of the density-free l = 1 top bounds the l = 1
    # top from above (to rounding); wherever the l = 0 count above it finds
    # the constant mode alone, or l = 1 wins, lambda_1 and its eigenvector
    # are those of l = 1's index bisection, bit for bit; and lambda_1 lies
    # within 4 eps ||T|| of dense eigh of the two sectors (a circle's even
    # and odd ones)
    base, upper = assemble(grid, 0), assemble(grid, 1)
    tau = 16.0 * np.finfo(float).eps * spectral.norm_bound(base)
    bound = _l1_bound(grid)
    top = _top_modes(upper, 1)[0]
    assert bound >= top.lam - tau
    fe = dl.first_nonzero_eigenvalue(grid)
    count = int(np.sum(eigh_tridiagonal(base.diag, base.off_diag, eigvals_only=True)
                       > -bound - tau))
    if count == 1 or fe.l == 1:
        assert fe.lam == top.lam
        assert fe.u.tobytes() == top.u.tobytes()
    lams, norm = [], 0.0
    for problem in (base, upper):
        lams.append(-eigh(_symmetrized(problem), eigvals_only=True)[:-1 if problem.l == 0 else None])
        norm = max(norm, spectral.norm_bound(problem))
    slack = 4.0 * np.finfo(float).eps * norm
    assert abs(fe.lam - np.min(np.concatenate(lams))) <= slack


def _oracle_assembly(grid, l):
    """The interval operator of sector l from scratch: rho evaluated at the
    nodes and faces, the angular potential subtracted in place."""
    model, h, nodes = grid.model, grid.spacing, grid.nodes
    rho_c = spectral.measure_density(model, nodes)
    coupling = spectral.measure_density(model, nodes[:-1] + 0.5 * h) / (h * h)
    diag = np.zeros(grid.size)
    diag[:-1] -= coupling / rho_c[:-1]
    diag[1:] -= coupling / rho_c[1:]
    if l >= 1:
        wv = np.asarray(model.w.value(nodes), dtype=float)
        diag -= spectral.angular_eigenvalue(model.n, l) / wv**2
    return diag, coupling / np.sqrt(rho_c[:-1] * rho_c[1:]), np.sqrt(rho_c)


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models().filter(lambda grid: grid.model.topology != dl.CIRCLE))
def test_sectors_from_the_zonal_assembly_match_a_fresh_assembly_bitwise(grid):
    # sectors l >= 1 subtract their potential from the l = 0 diagonal, and the
    # node density comes from the grid: every array keeps its bits
    for l in (0, 1, 2):
        problem = assemble(grid, l)
        diag, off, sqrt_rho = _oracle_assembly(grid, l)
        assert problem.l == l
        assert problem.diag.tobytes() == diag.tobytes()
        assert problem.off_diag.tobytes() == off.tobytes()
        assert problem.sqrt_rho.tobytes() == sqrt_rho.tobytes()


@pytest.mark.parametrize("model,sector,N", [
    pytest.param(model, sector, N, id=f"{name}-{N}")
    for name, model, sector, sizes in (
        ("cosine-n3", dl.sphere(3, density=dl.cosine_density(0.5)), 1, (400, 401, 2000)),
        ("ling-poly-cos-n2", dl.sphere(2, density=(0.0, -1.0, -0.25)), 0, (400, 401, 2000)),
        ("circle", dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), None,
         (400, 402, 2000)))
    for N in sizes])
def test_error_estimate_matches_half_grid_solve(model, sector, N):
    # the Rayleigh quotient of the interpolated eigenvector stands in for the
    # half-grid eigenvalue, on nested grids (an even number of cells) and on
    # non-nested ones: 401 cells on the sphere, and the 201 cells of the
    # circle's mirror half at N = 402.  The circle's lambda_1 is a double
    # eigenvalue up to rounding, with one copy in each sector, so either may win
    fe = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, N))
    assert fe.l == sector or sector is None
    expected = _half_grid_estimate(model, N, fe.lam, fe.l)
    assert fe.error_estimate == pytest.approx(expected, rel=2e-3)


def test_lam_and_mode_assemble_nothing_at_half_resolution(monkeypatch):
    # the Richardson partner is built on the first read of error_estimate,
    # once; reading lam and mode alone assembles and grids only at N
    grid = _sphere_grid(3, 400, eps=0.5)
    sizes = []
    real_assemble, real_uniform = spectral.assemble, dl.Grid.uniform
    monkeypatch.setattr(spectral, "assemble",
                        lambda g, l: sizes.append(("assemble", g.size)) or real_assemble(g, l))
    monkeypatch.setattr(dl.Grid, "uniform",
                        lambda m, N: sizes.append(("grid", N)) or real_uniform(m, N))
    fe = dl.first_nonzero_eigenvalue(grid)
    assert fe.l == 1 and fe.lam > 0.0 and fe.u.size == 400
    assert sizes == [("assemble", 400)]
    err = fe.error_estimate
    assert sizes[1:] == [("grid", 200), ("assemble", 200)]
    assert fe.error_estimate is err and len(sizes) == 3


def _non_first_mode(grid):
    """The top non-constant l = 0 mode, whose lam exceeds an l = 1 lambda_1."""
    mode = spectral._bisect(assemble(grid, 0), grid.size - 2, grid.size)[1]
    assert mode.lam > dl.first_nonzero_eigenvalue(grid).lam
    return mode


@pytest.mark.parametrize("model,N,sector,solve", [
    (dl.sphere(3, density=dl.cosine_density(0.5)), 400, 1, dl.first_nonzero_eigenvalue),
    (dl.sphere(2), 400, 0, dl.first_nonzero_eigenvalue),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), 400, 0,
     dl.first_nonzero_eigenvalue),
    (dl.sphere(3, density=dl.cosine_density(0.5)), 401, 1, dl.first_nonzero_eigenvalue),
    (dl.sphere(3, density=dl.cosine_density(0.5)), 400, 0, _non_first_mode),
], ids=["cosine-l1", "round-l0-twin", "circle", "odd-N", "non-first-l0"])
def test_error_estimate_is_the_eager_formula_bitwise(model, N, sector, solve):
    # the estimate formed from mode.problem on first read keeps every bit of
    # the one formed from the model and grid inside the solve, for any mode
    grid = dl.Grid.uniform(model, N)
    mode = solve(grid)
    assert mode.l == sector
    coarse = assemble(dl.Grid.uniform(model, N // 2), mode.l)
    u = np.interp(coarse.grid.nodes, grid.nodes, mode.u)
    eager = abs(mode.lam - spectral._rayleigh_quotient(coarse, u)) / 3.0
    assert mode.error_estimate == eager and math.isfinite(eager)


@pytest.mark.parametrize("model,l", [
    (dl.sphere(2, density=(0.0, -1.0, -0.25)), 0),
    (dl.sphere(3, density=dl.cosine_density(0.5)), 1),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), 0),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), 1),
], ids=["sphere-l0", "sphere-l1", "circle", "circle-odd"])
def test_rayleigh_quotient_of_an_eigenvector_is_its_eigenvalue(model, l):
    # the energy form of the quotient reproduces dense eigh's eigenvalues
    problem = assemble(dl.Grid.uniform(model, 200), l)
    vals, vecs = eigh(_symmetrized(problem))
    for j in range(-6, -1 if l == 0 else 0):  # the constant mode is the top of l = 0
        quotient = spectral._rayleigh_quotient(problem, vecs[:, j] / problem.sqrt_rho)
        assert quotient == pytest.approx(-vals[j], rel=1e-12)


def _counting_lapack(monkeypatch, calls, zonal_diags):
    """Record each stebz index bisection (range code 2) as
    ("stebz", N, l, (il, iu)), each stebz count (range code 1, tolerance
    +inf) as ("count", N, l), each stebz window bisection (range code 1,
    tolerance 0) as ("window", N, l) and each stein call as
    ("stein", N, l, number of eigenvalues); l is 0 when the routine sees one
    of the l = 0 diagonals ``zonal_diags``, else 1, and il..iu is stebz's
    1-based ascending index range."""
    def counted(name, routine):
        def call(d, e, *args):
            l = 0 if any(np.array_equal(d, z) for z in zonal_diags) else 1
            if name == "stein":
                calls.append(("stein", d.size, l, args[0].size))
            elif args[0] == 2:
                calls.append(("stebz", d.size, l, (args[3], args[4])))
            else:
                calls.append(("count" if args[5] == math.inf else "window", d.size, l))
            return routine(d, e, *args)
        return call

    for name, routine in list(spectral._LAPACK.items()):
        monkeypatch.setitem(spectral._LAPACK, name, counted(name, routine))


def test_first_eigenvalue_solve_count(monkeypatch):
    # one Sturm count of l = 0 above the l = 1 bound decides first: where it
    # finds the constant mode alone (the cosine sphere) only l = 1's top is
    # bisected, by its index.  Where it finds more (a round sphere), one more
    # count checks the narrow twin window, l = 0 is bisected in it, and a
    # Sturm count of l = 1 above the l = 0 top finds nothing, so l = 1 is
    # never bisected.  Inverse iteration runs on the winning eigenvalue
    # alone, once, at the first read of u.  A circle runs the same sequence
    # on its even (l = 0) and odd (l = 1) sectors, of N/2 rows each.  The
    # error estimate solves nothing at N/2
    calls = []
    cosine, round_ = _sphere_grid(3, 400, eps=0.4), _sphere_grid(3, 400)
    circle = _circle_grid(400, 0.5)
    _counting_lapack(monkeypatch, calls,
                     [assemble(mg, 0).diag for mg in (cosine, round_, circle)])
    fe = dl.first_nonzero_eigenvalue(cosine)
    assert calls == [("count", 400, 0), ("stebz", 400, 1, (400, 400))]
    u = fe.u
    assert calls[2:] == [("stein", 400, 1, 1)]
    assert fe.u is u and fe.error_estimate > 0.0 and len(calls) == 3
    calls.clear()
    fe = dl.first_nonzero_eigenvalue(round_)
    assert calls == [("count", 400, 0), ("count", 400, 0), ("window", 400, 0),
                     ("count", 400, 1)]
    assert fe.l == 0 and fe.u.size == 400
    assert calls[4:] == [("stein", 400, 0, 1)]
    calls.clear()
    fe = dl.first_nonzero_eigenvalue(circle)
    # the cosine density makes lambda_1 double, one copy in each sector, so
    # the count finds it above the odd bound and the even sector is bisected;
    # the odd count finds its copy above the even top, so the odd one is too
    assert calls == [("count", 200, 0), ("count", 200, 0), ("window", 200, 0),
                     ("count", 200, 1), ("stebz", 200, 1, (200, 200))]
    assert fe.u.size == 200
    assert calls[5:] == [("stein", 200, fe.l, 1)]


def test_lam_alone_runs_no_inverse_iteration(monkeypatch):
    # acceptance criterion 1 reads only lambda_1 of its 20 round-sphere solves
    # (twins: each counts l = 0 twice, bisects it in its window and counts
    # l = 1 once), so it runs no stein; a verify_paper() pass runs stein only
    # for the 15 cosine-family modes and the zonal mode of criterion 5, all
    # at N = 2000, in both its passes
    calls = []
    _counting_lapack(monkeypatch, calls, [])
    acceptance.criterion_spectral_accuracy()
    assert [c[0] for c in calls] == ["count", "count", "window", "count"] * 20
    calls.clear()
    assert acceptance.verify_paper().passed
    assert [c[:2] for c in calls if c[0] == "stein"] == [("stein", 2000)] * 32


def test_criterion_one_bisects_only_l0(monkeypatch):
    # on each of criterion 1's 20 round spheres the l = 0 twin wins, and the
    # Sturm counts find that out before l = 1 is bisected: l = 0 is bisected
    # in its window and l = 1 only counted, never bisected by index
    grids = [dl.Grid.uniform(dl.sphere(n), N) for n in (2, 3, 4, 5)
             for N in (acceptance.ACCURACY_N,) + acceptance.CONVERGENCE_NS]
    calls = []
    _counting_lapack(monkeypatch, calls, [assemble(grid, 0).diag for grid in grids])
    acceptance.criterion_spectral_accuracy()
    assert calls == [call for grid in grids for call in (
        ("count", grid.size, 0), ("count", grid.size, 0), ("window", grid.size, 0),
        ("count", grid.size, 1))]


def test_a_mode_forms_u_once_and_drops_its_block_data(monkeypatch):
    # a mode keeps its block data until u is read, and not after; repr
    # forms nothing
    calls = []
    _counting_lapack(monkeypatch, calls, [])
    fe = dl.first_nonzero_eigenvalue(_circle_grid(400, 0.5))
    before = len(calls)
    assert repr(fe) == f"_BisectedMode(lam={fe.lam!r}, l={fe.l})"
    assert set(vars(fe)) == {"lam", "l", "problem", "_blocks"}
    u = fe.u
    assert set(vars(fe)) == {"lam", "l", "problem", "u"} and fe.u is u
    assert [c[0] for c in calls[before:]] == ["stein"]


def _is_count(args):
    """Whether stebz's arguments ask for a count: range code 1, a value
    window, with an infinite tolerance."""
    return args[2] == 1 and args[7] == math.inf


def _force_info(monkeypatch, routine, when=lambda args: True):
    """Make the LAPACK ``routine`` return info = 1, its last value, after
    running, on the calls whose arguments satisfy ``when``."""
    call = spectral._LAPACK[routine]

    def with_info_1(*args):
        result = call(*args)
        return result[:-1] + (1,) if when(args) else result

    monkeypatch.setitem(spectral._LAPACK, routine, with_info_1)


@pytest.mark.parametrize("routine,l,step", [
    ("stebz", 0, "window"), ("stein", 1, "any"), ("stebz", 1, "index"), ("stebz", 1, "count"),
], ids=["stebz-0", "stein-1", "stebz-1", "count-1"])
def test_lapack_failure_is_a_solver_error(routine, l, step, monkeypatch, tmp_path, capsys):
    # a nonzero info from either LAPACK step names the sector and the size:
    # stein and the l = 1 index bisection on a cosine sphere, and the l = 0
    # window bisection and the l = 1 Sturm count, the steps a round sphere
    # alone takes; a sweep that meets it exits 3.  stein runs at the first
    # read of u
    twin = step in ("window", "count")
    grid = _sphere_grid(3, 400, eps=0.0 if twin else 0.5)
    zonal = assemble(grid, 0).diag
    when = {"any": lambda args: True,
            "index": lambda args: args[2] == 2,
            "window": lambda args: args[2] == 1 and args[7] == 0.0,
            "count": lambda args: _is_count(args) and not np.array_equal(args[0], zonal),
            }[step]
    _force_info(monkeypatch, routine, when)
    with pytest.raises(SolverError, match=f"l={l}, N=400: {routine} returned info=1") as info:
        dl.first_nonzero_eigenvalue(grid).u
    assert (info.value.report["l"], info.value.report["size"]) == (l, 400)
    if not twin:
        with pytest.raises(SolverError, match=f"{routine} returned info=1"):
            _top_modes(assemble(grid, 2), 4)[0].u

    config = tmp_path / "sphere.json"
    density = {"name": "zero"} if twin else {"name": "cosine", "eps": [0.5]}
    config.write_text(json.dumps({
        "schema_version": 1, "family": {"name": "sphere", "n": [3], "density": density},
        "grids": [400], "checks": ["spectrum"]}))
    assert cli.main(["sweep", "--config", str(config)]) == 3
    assert f"l={l}, N=400" in capsys.readouterr().out


@pytest.mark.parametrize("count", [0, 2, 5])
def test_certificate_count_decides_the_zonal_bisection(count, monkeypatch):
    # a count above 1 bisects l = 0 over the window the count certified,
    # which must then hold count - 1 eigenvalues: on the cosine sphere it
    # holds none, so a forged count of 2 or 5 is a SolverError, as are a
    # count of 0, which not even the constant mode gives, and a nonzero info
    # from the count; each names l = 0 and N.  The forged count above the
    # narrow twin window is not 1 either, so the window reaches up to -tau
    grid = _sphere_grid(3, 400, eps=0.5)
    calls = []
    _counting_lapack(monkeypatch, calls, [assemble(grid, 0).diag])
    stebz = spectral._LAPACK["stebz"]

    def stebz_counting(*args):
        result = stebz(*args)
        return (count,) + result[1:] if _is_count(args) else result

    monkeypatch.setitem(spectral._LAPACK, "stebz", stebz_counting)
    if count:
        with pytest.raises(SolverError, match=f"l=0, N=400: stebz finds 0 eigenvalues in "
                                              rf"\(.*\], not the {count - 1} that the count"):
            dl.first_nonzero_eigenvalue(grid)
        assert calls == [("count", 400, 0), ("count", 400, 0), ("window", 400, 0)]
        return
    with pytest.raises(SolverError, match="l=0, N=400: stebz counts no eigenvalue"):
        dl.first_nonzero_eigenvalue(grid)
    # on a circle the count runs on the even sector, of N/2 rows
    with pytest.raises(SolverError, match="l=0, N=200: stebz counts no eigenvalue"):
        dl.first_nonzero_eigenvalue(_circle_grid(400, 0.5))
    monkeypatch.undo()
    _force_info(monkeypatch, "stebz", _is_count)
    with pytest.raises(SolverError, match="l=0, N=400: stebz returned info=1"):
        dl.first_nonzero_eigenvalue(grid)


def test_angular_mode_search_matters():
    # on the cosine-density sphere the l = 1 branch lies strictly below the
    # zonal branch, so a zonal-only search would report the wrong eigenvalue
    grid = _sphere_grid(2, 800, eps=0.5)
    fe = dl.first_nonzero_eigenvalue(grid)
    zonal = _top_modes(assemble(grid, 0), 2)[1]
    assert fe.l == 1
    assert fe.lam < zonal.lam


def test_manifold_samples_shapes():
    grid = _sphere_grid(3, 400, eps=0.4)
    fe = dl.first_nonzero_eigenvalue(grid)
    assert fe.l == 1
    nef = dl.normalize(fe)
    v, grad_sq, equator = nef.samples()
    # the fiber poles of every row, which also stand for their antipodes,
    # and the |grad v|^2 of one point on the equator level v = 0
    assert v.shape == grad_sq.shape == (grid.size,)
    assert abs(max(v.max(), -v.min()) - 1.0) < 1e-12
    assert np.array_equal(v, nef.v_rad)
    assert equator == nef.equator_grad_sq.max()
    zonal = _top_modes(assemble(grid, 0), 2)[1]
    v, grad_sq, equator = dl.normalize(zonal).samples()
    assert v.shape == grad_sq.shape == (grid.size,) and equator is None


_BLAS_PROBE = """
import hashlib
import driftlab as dl
model = dl.sphere(3, density=dl.cosine_density(0.7))
fe = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 100000))
nef = dl.normalize(fe)
arrays = (fe.u, nef.v_rad, nef.dv_rad)
print(repr((fe.lam, fe.l, fe.error_estimate, nef.k, nef.a, nef.residual_rel,
            hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())))
"""


def test_first_eigenpair_does_not_depend_on_the_blas_thread_count():
    # the N-long reductions (eigenvector norm, Rayleigh quotient, integrals)
    # are numpy sums: OpenBLAS splits a dot product this long across its
    # threads, so its rounding would follow the thread count
    src = str(Path(dl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = [subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True,
                           check=True, timeout=300,
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path))
            for threads in ("1", "2")]
    assert runs[0].stdout == runs[1].stdout != ""


def test_assemble_rejects_bad_modes():
    grid = _sphere_grid(2, 100)
    with pytest.raises(AssemblyError):
        assemble(grid, -1)
    with pytest.raises(AssemblyError):
        assemble(grid, 1.5)
    # a circle has no warp: its sectors are the even l = 0 and the odd l = 1
    with pytest.raises(AssemblyError, match="only its even and odd sectors l = 0, 1, got 2"):
        assemble(_circle_grid(100, 0.5), 2)


def test_circle_operator_has_no_angular_sector():
    # a circle has no warp, so no angular potential: its sector l = 1 is the
    # odd one, the even operator less the flux 2 rho(face) u / h^2 that an
    # odd u loses across the mirror faces theta = 0 and L/2 of the two end
    # cells, and it refuses a sector l >= 2 as assemble does, instead of
    # reaching for the missing warp profile
    grid = _circle_grid(100, 0.5)
    base = assemble(grid, 0)
    assert base.sector(0) is base
    odd = base.sector(1)
    assert odd.l == 1 and odd.diag.tobytes() == assemble(grid, 1).diag.tobytes()
    assert odd.off_diag is base.off_diag and odd.sqrt_rho is base.sqrt_rho
    h, rho = grid.spacing, np.exp(-grid.model.phi.value(np.array([0.0, math.pi])))
    potential = np.zeros(grid.size)
    potential[[0, -1]] = 2.0 * rho / (h * h * grid.density[[0, -1]])
    assert np.allclose(base.diag - odd.diag, potential, rtol=1e-13, atol=0.0)
    with pytest.raises(AssemblyError, match="only its even and odd sectors"):
        base.sector(2)


@pytest.mark.parametrize("N", [64, 401, 2000])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eigenvector_sign_does_not_follow_the_solve_path(n, N):
    # the zonal lambda_1 mode of a round sphere is odd about the equator, so
    # |u| ties at its two ends up to rounding (exactly on S^2 at N = 64), and
    # a sign taken from the largest |u_i| followed the last bits of the
    # solve.  u[0] > 0 does not: the window bisection of
    # first_nonzero_eigenvalue and an index bisection of the same sector
    # give one eigenfunction with one sign
    grid = _sphere_grid(n, N)
    fe = dl.first_nonzero_eigenvalue(grid)
    problem = assemble(grid, fe.l)
    index = problem.size - (0 if fe.l else 1)
    mode, = spectral._bisect(problem, index, index)
    assert fe.u[0] > 0.0 and mode.u[0] > 0.0
    assert float(np.dot(grid.weights * fe.u, mode.u)) == pytest.approx(1.0, abs=1e-6)


def test_a_vanishing_first_entry_signs_the_first_nonzero_one():
    problem = assemble(_sphere_grid(2, 8), 0)
    y = problem.sqrt_rho * np.array([0.0, 0.0, -1.0, 2.0, 0.0, 1.0, 0.0, 0.0])
    u = spectral._normalized(problem, y)
    assert u[2] > 0.0 and u[3] < 0.0
    assert float(np.dot(problem.grid.weights, u * u)) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("N", [8, 10, 12, 14, 16])
@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_small_circle_grids_keep_a_finite_error_estimate(N, eps):
    # a circle of N >= 8 cells has a partner of at least 4 cells: its mirror
    # half of N/2 cells pairs with one of N/4 (rounded down), which the grid
    # accepts, as a sphere of 8 cells pairs with one of 4
    grid = _circle_grid(N, eps)
    fe = dl.first_nonzero_eigenvalue(grid)
    assert grid.size == N // 2 and grid.halved().count == 2 * (N // 4)
    assert math.isfinite(fe.error_estimate) and 0.0 < fe.error_estimate < 0.1


def test_an_odd_circle_grid_is_refused():
    # an odd N would put a cell centre on the mirror point theta = L/2
    with pytest.raises(ValueError, match="a circle grid must be even: its mirror half "
                                         "holds N/2 cells, got N = 2001"):
        dl.Grid.uniform(dl.circle(2.0 * math.pi), 2001)
