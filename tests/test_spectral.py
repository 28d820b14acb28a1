"""Spectral engine checks against classical spectra and structural invariants."""

import itertools
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
    nodes."""
    kind = draw(st.sampled_from(("cosine", "poly-cos", "circle")))
    density = dl.cosine_density(draw(_EPS)) if kind == "cosine" else draw(_POLY_COS)
    if kind == "circle":
        model = dl.circle(2.0 * math.pi, density=density)
    else:
        model = dl.sphere(draw(st.integers(2, 5)), density=density)
    return dl.Grid.uniform(model, draw(st.integers(8, 400)))


def _sectors(model):
    """The sectors l = 0, 1, 2, or the one periodic sector of a circle."""
    return (0,) if model.topology == dl.CIRCLE else (0, 1, 2)


def _mus(modes):
    return np.array([-m.lam for m in modes])


def _top_modes(problem, count):
    """The ``count`` top eigenpairs of a sphere sector or a circle's mirror
    sector, sorted by |lam|, through the solver's own bisection and inverse
    iteration."""
    n = problem.diag.size
    return spectral._bisect(problem, n - count + 1, n)


def _tridiagonal(sector):
    """A sector's symmetric tridiagonal matrix, dense (a one-row sector
    carries one unused off-diagonal entry for LAPACK)."""
    e = sector.off_diag[:sector.diag.size - 1]
    return np.diag(sector.diag) + np.diag(e, 1) + np.diag(e, -1)


def _matrix(problem):
    """The operator on radial samples, column by column from ``apply``."""
    return np.column_stack([problem.apply(e) for e in np.eye(problem.size)])


def _symmetrized(problem):
    """The symmetrized operator S = D A D^{-1} as a dense matrix, corners included."""
    s = np.diag(problem.diag) + np.diag(problem.off_diag, 1) + np.diag(problem.off_diag, -1)
    s[0, -1] += problem.corner
    s[-1, 0] += problem.corner
    return s


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
    # the periodic operator holds -k^2, twice for k >= 1: cos(k theta) in the
    # even mirror sector, with the constant mode, and sin(k theta) in the odd one
    model = dl.circle(2.0 * math.pi)
    grid = dl.Grid.uniform(model, 800)
    even, odd = spectral._mirror_sectors(assemble(grid, 0))
    assert (even.diag.size, odd.diag.size) == (401, 399)
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


def test_spectrum_contains_examples():
    grid = _sphere_grid(2, 1000)
    assert dl.spectrum_contains(grid, -2.0, 1e-3).contained
    assert not dl.spectrum_contains(grid, -3.0, 1e-3).contained
    # -2 is the closest level: a window of 1.02 around -3 reaches it
    assert dl.spectrum_contains(grid, -3.0, 0.34).contained
    assert dl.spectrum_contains(grid, 0.0, 1e-6).contained


def test_spectrum_contains_finds_deep_zonal_eigenvalues():
    # the 9th zonal eigenvalue is an eigenvalue of the assembled operator,
    # although the low l = 1 and l = 2 sectors reach below it much earlier
    grid = _sphere_grid(2, 400, eps=0.5)
    target = -_top_modes(assemble(grid, 0), 9)[8].lam
    assert abs(target + 72.00475) < 1e-4
    verdict = dl.spectrum_contains(grid, target, 1e-6)
    assert verdict.contained
    assert verdict.count_used == 1  # no other sector has an eigenvalue in the window
    with pytest.raises(ValueError):
        dl.spectrum_contains(_circle_grid(400, 0.5), -1.0, 1e-3)


def test_spectrum_contains_searches_every_sector():
    # the top eigenvalue of l = 3 is an eigenvalue of the operator, although
    # it lies below the tops of l = 0, 1, 2: the search goes on to the first
    # sector with no eigenvalue above the window, here l = 4
    grid = _sphere_grid(3, 2000, eps=0.5)
    target = -_top_modes(assemble(grid, 3), 1)[0].lam
    assert abs(target + 15.04998454) < 1e-8
    verdict = dl.spectrum_contains(grid, target, 1e-9)
    assert verdict.contained and verdict.count_used == 1
    assert _eigh_tridiagonal_contains(grid, target, 1e-9)


def _eigh_tridiagonal_contains(grid, target, tol):
    """spectrum_contains's verdict through eigh_tridiagonal: per sector
    l = 0, 1, 2, ... the eigenvalues above target - window and the one just
    below, up to the first sector with none above."""
    window = tol * max(1.0, abs(target))
    mus = []
    for l in itertools.count():
        problem = assemble(grid, l)
        d, e = problem.diag, problem.off_diag
        upper = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                 select_range=(target - window, math.inf))
        below = problem.size - 1 - upper.size
        if below >= 0:
            mus.extend(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                        select_range=(below, below)))
        mus.extend(upper)
        if not upper.size:
            break
    return bool(np.min(np.abs(np.array(mus) - target)) <= window)


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models().filter(lambda grid: grid.model.topology != dl.CIRCLE),
       l=st.integers(0, 4), k=st.integers(1, 6), shift=st.floats(-1e-3, 1e-3),
       tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
def test_spectrum_contains_matches_eigh_tridiagonal_bitwise(grid, l, k, shift, tol):
    # the Sturm counts give the verdicts of bisecting with eigh_tridiagonal,
    # for targets on, near and between eigenvalues of sectors l = 0..4
    target = -_top_modes(assemble(grid, l), k)[-1].lam * (1.0 + shift)
    verdict = dl.spectrum_contains(grid, target, tol)
    assert verdict.contained == _eigh_tridiagonal_contains(grid, target, tol)


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models().filter(lambda grid: grid.model.topology != dl.CIRCLE),
       l=st.integers(0, 2), k=st.integers(0, 8), tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)),
       at=st.sampled_from(("lower end", "upper end", "between")))
def test_spectrum_contains_matches_dense_spectra(grid, l, k, tol, at):
    # oracle: every eigenvalue of the dense matrices of sectors l = 0, 1, 2,
    # ..., up to the first whose top lies below the window widened by the
    # slack below.  Targets put an eigenvalue of sector l exactly at one end
    # of the closed window, or midway between two.  A count is exact for a
    # matrix within a few eps ||T|| of the operator, and so is dense eigh:
    # where an eigenvalue lies closer than that to an end, the verdict is
    # free, so the oracle requires a contained verdict only with an
    # eigenvalue inside the window narrowed by that slack, and a negative one
    # only with none inside the widened window
    spectra, slack = [], 0.0

    def add(sector):
        problem = assemble(grid, sector)
        spectra.append(eigh(_symmetrized(problem), eigvals_only=True)[::-1])
        return max(slack, 8.0 * np.finfo(float).eps * float(
            np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag))))

    for sector in (0, 1, 2):
        slack = add(sector)
    mus = spectra[l]
    mu = mus[min(k, mus.size - 2)]
    if at == "between":
        target = 0.5 * (mu + mus[min(k, mus.size - 2) + 1])
    else:
        # mu = target - window or target + window, up to rounding; window is
        # tol |target|, or tol where |target| < 1
        sign = 1.0 if at == "lower end" else -1.0
        target = mu / (1.0 + sign * tol)
        if abs(target) < 1.0:
            target = mu + sign * tol
    verdict = dl.spectrum_contains(grid, target, tol)
    window = tol * max(1.0, abs(target))
    for sector in itertools.count(3):
        if spectra[-1][0] < target - window - slack:
            break
        slack = add(sector)
    distance = np.min(np.abs(np.concatenate(spectra) - target))
    if distance <= window - slack:
        assert verdict.contained
    elif distance > window + slack:
        assert not verdict.contained


@pytest.mark.parametrize("node", [0, 3, 7], ids=["first", "middle", "last"])
def test_spectrum_contains_counts_both_window_ends(node, monkeypatch):
    # a diagonal operator: every pivot of a Sturm count is d_i - x, whose sign
    # rounding keeps, so the counts are exact.  The window is tol |target|
    # wide for |target| >= 1 and tol wide below: an eigenvalue at either end
    # of the closed window, [-4.5, -3.5] around -4 or [-0.625, -0.375]
    # around -0.5 (tol = 0.125), is contained, and one a float outside it is
    # not, at any node.  One float below the window the entry equals the
    # count's lower end, so its pivot there is zero.  The potentials of
    # l = 1, 2 move the entry down by more than the window's width
    # (1 / w^2 >= 1), so only l = 0 counts it
    grid = _sphere_grid(2, 8)
    zonal = assemble(grid, 0)
    for target, ends in ((-4.0, (-4.5, -3.5)), (-0.5, (-0.625, -0.375))):
        for end, outside in zip(ends, (-math.inf, 0.0)):
            for mu, count in ((end, 1), (math.nextafter(end, outside), 0)):
                diag = np.full(grid.size, -1e6)
                diag[node] = mu
                problem = spectral.replace(zonal, diag=diag, off_diag=np.zeros(grid.size - 1))
                monkeypatch.setattr(spectral, "assemble", lambda *args: problem)
                verdict = dl.spectrum_contains(grid, target, 0.125)
                assert (verdict.contained, verdict.count_used) == (count == 1, count), \
                    (target, mu)


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


@pytest.mark.parametrize("target,tol", [
    (math.nan, 1e-3), (math.inf, 1e-3), (-math.inf, 1e-3),
    (-2.0, math.nan), (-2.0, math.inf), (-2.0, 0.0), (-2.0, -1e-3),
])
def test_spectrum_contains_rejects_a_bad_target_or_tolerance(target, tol):
    # a NaN target or tolerance would give a vacuous negative verdict, and an
    # infinite tolerance a vacuous positive one
    with pytest.raises(ValueError, match="must be"):
        dl.spectrum_contains(_sphere_grid(2, 100), target, tol)


@pytest.mark.parametrize("target,tol", [(-1e300, 1e10), (-1.6e308, 1.0), (1e300, 1e10)])
def test_spectrum_contains_rejects_a_window_that_overflows(target, tol):
    # target - window overflows to -inf: every sector would count an
    # eigenvalue above it, so the sector search would never stop
    with pytest.raises(ValueError, match="window ends must be finite"):
        dl.spectrum_contains(_sphere_grid(3, 100), target, tol)


def test_spectrum_contains_counts_at_most_max_sectors(monkeypatch):
    # every eigenvalue of sector l lies at or below -l (l + n - 2) / max w^2
    # (here -l (l + 1) on the unit S^3): a window reaching below that bound
    # for l = MAX_SECTORS is refused before any count, one above it is searched
    grid = _sphere_grid(3, 400)
    with pytest.raises(ValueError, match="at most 1000 sectors"):
        dl.spectrum_contains(grid, -2e6, 1e-3)
    monkeypatch.setattr(spectral, "MAX_SECTORS", 4)
    top3 = -_top_modes(assemble(grid, 3), 1)[0].lam  # about -15 > -20
    verdict = dl.spectrum_contains(grid, top3, 1e-9)
    assert verdict.contained and verdict.count_used == 1
    with pytest.raises(ValueError, match="at most 4 sectors"):
        dl.spectrum_contains(grid, -24.0, 1e-3)


def test_zero_mode_is_constant():
    grid = _sphere_grid(2, 500)
    zero, first, _ = _top_modes(assemble(grid, 0), 3)
    scale = abs(first.lam)
    assert abs(zero.lam) < 1e-10 * max(1.0, scale)
    assert np.std(zero.u) < 1e-8 * np.abs(zero.u).max()


@settings(max_examples=60, deadline=None)
@given(grid=_weighted_models())
def test_constants_in_kernel_row_sums(grid):
    # the rows of the l = 0 (or periodic) operator sum to zero up to rounding
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
    # the larger magnitude of the sector's two eigenvalues nearest zero; a
    # circle's sectors are its two mirror sectors
    base = assemble(grid, 0)
    sectors = spectral._mirror_sectors(base) if base.periodic else \
        [base.sector(l) for l in (0, 1, 2)]
    for sector in sectors:
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
                    *spectral._mirror_sectors(assemble(_circle_grid(400, 0.5), 0))):
        a = _top_modes(problem, 4)
        b = _top_modes(problem, 4)
        assert _mus(a).tolist() == _mus(b).tolist()
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.u, mb.u)


def test_circle_solve_matches_dense_reference():
    # the four top even and three top odd eigenpairs hold the six top ones of
    # the periodic operator (a cosine density makes each non-zero eigenvalue
    # double), and unfold into its eigenfunctions with l = 0
    problem = assemble(_circle_grid(300, 0.5), 0)
    even, odd = spectral._mirror_sectors(problem)
    modes = sorted(_top_modes(even, 4) + _top_modes(odd, 3), key=lambda m: m.lam)[:6]
    reference = eigh(_matrix(problem) * problem.sqrt_rho[:, None] / problem.sqrt_rho[None, :],
                     eigvals_only=True)[::-1][:6]
    assert np.max(np.abs(_mus(modes) - reference)) < 1e-10
    q = problem.grid.weights
    for mode in modes:
        assert mode.problem is problem and mode.l == 0
        residual = problem.apply(mode.u) + mode.lam * mode.u
        assert math.sqrt(float(np.dot(q, residual**2))) < 1e-8
        assert float(np.dot(q, mode.u**2)) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeffs=_POLY_COS, N=st.integers(8, 400), length=st.sampled_from((2.0 * math.pi, 3.7)))
@example(coeffs=[0.0, 0.5], N=4, length=2.0 * math.pi)  # an odd sector of one row
@example(coeffs=[0.0, -0.3], N=5, length=3.7)
@example(coeffs=[0.2, -0.7, 0.6], N=9, length=3.7)
def test_mirror_sectors_hold_the_periodic_spectrum(coeffs, N, length):
    # a circle density p(cos(2 pi theta/L)) is even about theta = 0 by
    # construction, for every short poly-cos p, so the mirror sectors hold.
    # The unfolded unit vectors of both sectors are an orthonormal basis Q,
    # even or odd under the mirror i -> N - i, in which the full periodic
    # matrix T is block diagonal with the two sectors as its blocks, up to
    # the rounding that the mirror-symmetric assembly leaves.  So the two
    # sectors' eigenvalues together are T's: dense eigh matches them to
    # within its own backward error, a few eps ||T||_F (with the row-sum norm
    # it reached 15.6 eps ||T||_inf at N = 288 in 150 random draws)
    model = dl.circle(length, density=coeffs)
    grid = dl.Grid.uniform(model, N)
    problem = assemble(grid, 0)
    even, odd = spectral._mirror_sectors(problem)
    assert (even.diag.size, odd.diag.size) == (N // 2 + 1, (N - 1) // 2)
    full = _symmetrized(problem)
    norm = float(np.max(np.sum(np.abs(full), axis=1)))
    mirror = (-np.arange(N)) % N
    offset, columns, blocks = 0, [], np.zeros((N, N))
    for parity, sector in enumerate((even, odd)):
        k = sector.diag.size
        owner, y = sector.unfold(np.eye(k))
        assert owner is problem
        assert np.array_equal(y[mirror], -y if parity else y)
        blocks[offset:offset + k, offset:offset + k] = _tridiagonal(sector)
        offset += k
        columns.append(y)
    basis = np.hstack(columns)
    assert np.allclose(basis.T @ basis, np.eye(N), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(basis.T @ full @ basis - blocks)) <= 4.0 * np.finfo(float).eps * norm
    mus = np.sort(np.concatenate([eigh(_tridiagonal(s), eigvals_only=True) for s in (even, odd)]))
    assert np.max(np.abs(mus - eigh(full, eigvals_only=True))) <= \
        16.0 * np.finfo(float).eps * np.linalg.norm(full)
    # lambda_1 is the top eigenvalue below the constant mode, within the
    # bisection tolerance, and its eigenfunction lives on the full circle
    fe = dl.first_nonzero_eigenvalue(grid)
    assert fe.l == 0 and fe.problem.periodic and fe.u.size == N
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
    |lam + mu| / 3 with mu the top non-constant eigenvalue of sector l at
    N // 2 (eigh_tridiagonal on spheres, dense eigh on circles)."""
    problem = assemble(dl.Grid.uniform(model, N // 2), l)
    n = problem.size
    if problem.periodic:
        mus = eigh(_symmetrized(problem), eigvals_only=True)[::-1]
    else:
        mus = eigh_tridiagonal(problem.diag, problem.off_diag, eigvals_only=True,
                               select="i", select_range=(n - 2, n - 1))[::-1]
    return abs(lam + mus[1 if l == 0 else 0]) / 3.0


def _l1_bound(grid):
    """The Rayleigh quotient of the density-free l = 1 top sin(pi r/ell),
    ell = ``model.phi.length``, on the l = 1 sector of a sphere or on a
    circle's full operator: an upper bound on the l = 1 top's lambda."""
    problem = assemble(grid, 0 if grid.model.topology == dl.CIRCLE else 1)
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
    cosine or with a short poly-cos one, on 8-400 nodes."""
    kind = draw(st.sampled_from(("flat", "cosine", "poly-cos")))
    density = {"flat": lambda: (0.0,),
               "cosine": lambda: dl.cosine_density(draw(_EPS)),
               "poly-cos": lambda: draw(_POLY_COS)}[kind]()
    model = dl.circle(draw(st.sampled_from((2.0 * math.pi, 2.5, 6.0))), density=density)
    return dl.Grid.uniform(model, draw(st.integers(8, 400)))


@settings(max_examples=80, deadline=None)
@given(grid=st.one_of(_spheres(), _circles()))
def test_l1_bound_picks_the_sector_that_bisection_would(grid):
    # the Rayleigh quotient of the density-free l = 1 top bounds the l = 1
    # top from above (to rounding); wherever the l = 0 count above it finds
    # the constant mode alone, or l = 1 wins, lambda_1 and its eigenvector
    # are those of l = 1's index bisection, bit for bit; and lambda_1 lies
    # within 4 eps ||T|| of dense eigh on a sphere.  On a circle dense eigh
    # runs on the full periodic matrix, whose eigenvalues the rounded mirror
    # split (sqrt(2) e, d +- e) moves by up to about 7 eps ||T||, so there
    # the slack is 8 eps ||T||
    base = assemble(grid, 0)
    zonal, upper = spectral._mirror_sectors(base) if base.periodic else (base, assemble(grid, 1))
    tau = 16.0 * np.finfo(float).eps * spectral.norm_bound(zonal)
    bound = _l1_bound(grid)
    top = _top_modes(upper, 1)[0]
    assert bound >= top.lam - tau
    fe = dl.first_nonzero_eigenvalue(grid)
    # an odd circle mode vanishes at node 0, which the reflection fixes
    sector = int(fe.u[0] == 0.0) if base.periodic else fe.l
    count = int(np.sum(eigh_tridiagonal(zonal.diag, zonal.off_diag[:zonal.diag.size - 1],
                                        eigvals_only=True) > -bound - tau))
    if count == 1 or sector == 1:
        assert fe.lam == top.lam
        assert fe.u.tobytes() == top.u.tobytes()
    lams, norm = [], 0.0
    for problem in (base,) if base.periodic else (base, upper):
        lams.append(-eigh(_symmetrized(problem), eigvals_only=True)[:-1 if problem.l == 0 else None])
        norm = max(norm, spectral.norm_bound(problem))
    slack = (8.0 if base.periodic else 4.0) * np.finfo(float).eps * norm
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
        assert problem.l == l and problem.corner == 0.0
        assert problem.diag.tobytes() == diag.tobytes()
        assert problem.off_diag.tobytes() == off.tobytes()
        assert problem.sqrt_rho.tobytes() == sqrt_rho.tobytes()


@pytest.mark.parametrize("N", [400, 401, 2000])
@pytest.mark.parametrize("model,sector", [
    (dl.sphere(3, density=dl.cosine_density(0.5)), 1),
    (dl.sphere(2, density=(0.0, -1.0, -0.25)), 0),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), 0),
], ids=["cosine-n3", "ling-poly-cos-n2", "circle"])
def test_error_estimate_matches_half_grid_solve(model, sector, N):
    # the Rayleigh quotient of the interpolated eigenvector stands in for the
    # half-grid eigenvalue, on nested (even N) and non-nested (odd N) grids
    fe = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, N))
    assert fe.l == sector
    expected = _half_grid_estimate(model, N, fe.lam, sector)
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
    period = model.L if model.topology == dl.CIRCLE else None
    u = np.interp(coarse.grid.nodes, grid.nodes, mode.u, period=period)
    eager = abs(mode.lam - spectral._rayleigh_quotient(coarse, u)) / 3.0
    assert mode.error_estimate == eager and math.isfinite(eager)


@pytest.mark.parametrize("model,l", [
    (dl.sphere(2, density=(0.0, -1.0, -0.25)), 0),
    (dl.sphere(3, density=dl.cosine_density(0.5)), 1),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5)), 0),
], ids=["sphere-l0", "sphere-l1", "circle"])
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
    # on its mirror sectors: odd in place of l = 1, even in place of l = 0.
    # The error estimate solves nothing at N/2
    calls = []
    cosine, round_ = _sphere_grid(3, 400, eps=0.4), _sphere_grid(3, 400)
    circle = _circle_grid(400, 0.5)
    even = spectral._mirror_sectors(assemble(circle, 0))[0]
    _counting_lapack(monkeypatch, calls,
                     [assemble(mg, 0).diag for mg in (cosine, round_)] + [even.diag])
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
    assert calls == [("count", 201, 0), ("count", 201, 0), ("window", 201, 0),
                     ("count", 199, 1), ("stebz", 199, 1, (199, 199))]
    assert fe.l == 0 and fe.u.size == 400
    assert calls[5:] in ([("stein", 201, 0, 1)], [("stein", 199, 1, 1)])


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
    # a circle's mode keeps its block data, not its mirror sector, until u is
    # read, and not after; repr forms nothing
    calls = []
    _counting_lapack(monkeypatch, calls, [])
    fe = dl.first_nonzero_eigenvalue(_circle_grid(400, 0.5))
    before = len(calls)
    assert repr(fe) == f"_BisectedMode(lam={fe.lam!r}, l=0)"
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


def test_spectrum_contains_count_failure_is_a_solver_error(monkeypatch):
    _force_info(monkeypatch, "stebz", _is_count)
    with pytest.raises(SolverError, match="l=0, N=400: stebz returned info=1") as info:
        dl.spectrum_contains(_sphere_grid(3, 400, eps=0.5), -3.0, 1e-3)
    assert (info.value.report["l"], info.value.report["size"]) == (0, 400)


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
    # on a circle the count runs on the even mirror sector, of N/2 + 1 rows
    with pytest.raises(SolverError, match="l=0, N=201: stebz counts no eigenvalue"):
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
    # a circle has no fiber, so no angular mode but l = 0
    with pytest.raises(AssemblyError, match="0 on a circle"):
        assemble(_circle_grid(100, 0.5), 1)


def test_circle_operator_has_no_angular_sector():
    # a circle has no warp, so its operator refuses a sector l >= 1 as
    # assemble does, instead of reaching for the missing warp profile
    base = assemble(_circle_grid(100, 0.5), 0)
    assert base.sector(0) is base
    with pytest.raises(AssemblyError, match="no angular sectors"):
        base.sector(1)
