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
import driftlab.cli as cli
import driftlab.spectral as spectral
from driftlab.errors import AssemblyError, SolverError
from driftlab.spectral import assemble


@lru_cache(maxsize=None)
def _sphere_grid(n, N, eps=0.0):
    model = dl.sphere(n, density=dl.cosine_density(eps) if eps else None)
    return model, dl.Grid.uniform(model, N)


@lru_cache(maxsize=None)
def _circle_grid(N, eps):
    length = 2.0 * math.pi
    model = dl.circle(length, density=dl.cosine_density(eps, length / 2.0))
    return model, dl.Grid.uniform(model, N)


_EPS = st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)


@st.composite
def _weighted_models(draw):
    """A weighted n-sphere (n 2-5; cosine or short poly-cos density) or a
    weighted circle, on a grid of 8-400 nodes."""
    kind = draw(st.sampled_from(("cosine", "poly-cos", "circle")))
    if kind == "circle":
        length = 2.0 * math.pi
        model = dl.circle(length, density=dl.cosine_density(draw(_EPS), length / 2.0))
    else:
        density = dl.cosine_density(draw(_EPS)) if kind == "cosine" else \
            dl.poly_cos_density(draw(st.lists(_EPS, min_size=1, max_size=3)))
        model = dl.sphere(draw(st.integers(2, 5)), density=density)
    return model, dl.Grid.uniform(model, draw(st.integers(8, 400)))


def _sectors(model):
    """The sectors l = 0, 1, 2, or the one periodic sector of a circle."""
    return (0,) if model.topology == dl.CIRCLE else (0, 1, 2)


def _mus(modes):
    return np.array([m.mu for m in modes])


def _top_modes(problem, count):
    """The ``count`` top eigenpairs of a sphere sector or a circle's mirror
    sector, sorted by |mu|, through the solver's own bisection and inverse
    iteration."""
    n = problem.diag.size
    return spectral._bisect(problem, n - count + 1, n).modes()


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
    span = problem.model.L

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
    model, grid = _sphere_grid(2, 1500)
    for l in (0, 1, 2):
        mus = _mus(_top_modes(assemble(model, grid, l), 3))
        expected = np.array([-k * (k + 1.0) for k in range(l, l + 3)])
        assert np.max(np.abs(mus - expected)) < 2e-4


def test_circle_fourier_spectrum():
    # the periodic operator holds -k^2, twice for k >= 1: cos(k theta) in the
    # even mirror sector, with the constant mode, and sin(k theta) in the odd one
    model = dl.circle(2.0 * math.pi)
    grid = dl.Grid.uniform(model, 800)
    even, odd = spectral._mirror_sectors(assemble(model, grid, 0))
    assert (even.diag.size, odd.diag.size) == (401, 399)
    even_mus, odd_mus = _mus(_top_modes(even, 3)), _mus(_top_modes(odd, 3))
    assert np.max(np.abs(even_mus - [0.0, -1.0, -4.0])) < 1e-3
    assert np.max(np.abs(odd_mus - [-1.0, -4.0, -9.0])) < 1e-3
    mus = np.sort(np.concatenate([even_mus, odd_mus]))[::-1]
    expected = np.array([0.0, -1.0, -1.0, -4.0, -4.0, -9.0])
    assert np.max(np.abs(mus - expected)) < 1e-3


def test_first_eigenvalue_round_spheres():
    for n, N, tol in ((2, 2000, 5e-6), (3, 2000, 5e-6), (4, 1500, 1e-5)):
        model, grid = _sphere_grid(n, N)
        fe = dl.first_nonzero_eigenvalue(model, grid)
        assert abs(fe.lam - n) < tol
        assert fe.error_estimate < 1e-4


def test_first_eigenvalue_refinement_consistency():
    # Richardson-extrapolating the two resolutions must land closer to the
    # classical value than either raw resolution
    model, _ = _sphere_grid(3, 64)
    lam_c = dl.first_nonzero_eigenvalue(model, dl.Grid.uniform(model, 400),
                                        richardson=False).lam
    lam_f = dl.first_nonzero_eigenvalue(model, dl.Grid.uniform(model, 800),
                                        richardson=False).lam
    extrap = lam_f + (lam_f - lam_c) / 3.0
    assert abs(extrap - 3.0) < abs(lam_f - 3.0) < abs(lam_c - 3.0)


def test_first_eigenvalue_perturbed_respects_lower_bound():
    model, grid = _sphere_grid(2, 1000, eps=0.5)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    kb = dl.be_ricci_lower_bound(model)
    assert kb.K == 0.5
    assert fe.lam >= (model.n - 1) * kb.K


def test_spectrum_contains_examples():
    model, grid = _sphere_grid(2, 1000)
    assert dl.spectrum_contains(model, grid, -2.0, 1e-3).contained
    verdict = dl.spectrum_contains(model, grid, -3.0, 1e-3)
    assert not verdict.contained and verdict.tolerance == 3e-3
    # -2 is the closest level: a window of 1.02 around -3 reaches it
    assert dl.spectrum_contains(model, grid, -3.0, 0.34).contained
    assert dl.spectrum_contains(model, grid, 0.0, 1e-6).contained


def test_spectrum_contains_finds_deep_zonal_eigenvalues():
    # the 9th zonal eigenvalue is an eigenvalue of the assembled operator,
    # although the low l = 1 and l = 2 sectors reach below it much earlier
    model, grid = _sphere_grid(2, 400, eps=0.5)
    target = _top_modes(assemble(model, grid, 0), 9)[8].mu
    assert abs(target + 72.00475) < 1e-4
    verdict = dl.spectrum_contains(model, grid, target, 1e-6)
    assert verdict.contained and verdict.tolerance == 1e-6 * abs(target)
    assert verdict.count_used == 1  # no other sector has an eigenvalue in the window
    with pytest.raises(ValueError):
        dl.spectrum_contains(*_circle_grid(400, 0.5), -1.0, 1e-3)


def _eigh_tridiagonal_contains(model, grid, target, tol):
    """(contained, tolerance) of spectrum_contains through eigh_tridiagonal:
    per sector l = 0, 1, 2 the eigenvalues above target - window and the one
    just below."""
    window = tol * max(1.0, abs(target))
    mus = []
    for l in (0, 1, 2):
        problem = assemble(model, grid, l)
        d, e = problem.diag, problem.off_diag
        upper = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                 select_range=(target - window, math.inf))
        below = problem.size - 1 - upper.size
        if below >= 0:
            mus.extend(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                        select_range=(below, below)))
        mus.extend(upper)
    return bool(np.min(np.abs(np.array(mus) - target)) <= window), window


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models().filter(lambda mg: mg[0].topology != dl.CIRCLE),
       l=st.integers(0, 2), k=st.integers(1, 6), shift=st.floats(-1e-3, 1e-3),
       tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
def test_spectrum_contains_matches_eigh_tridiagonal_bitwise(model_grid, l, k, shift, tol):
    # the Sturm counts give the verdicts of bisecting with eigh_tridiagonal,
    # for targets on, near and between eigenvalues of every searched sector
    model, grid = model_grid
    target = _top_modes(assemble(model, grid, l), k)[-1].mu * (1.0 + shift)
    verdict = dl.spectrum_contains(model, grid, target, tol)
    assert (verdict.contained, verdict.tolerance) == \
        _eigh_tridiagonal_contains(model, grid, target, tol)


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models().filter(lambda mg: mg[0].topology != dl.CIRCLE),
       l=st.integers(0, 2), k=st.integers(0, 8), tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)),
       at=st.sampled_from(("lower end", "upper end", "between")))
def test_spectrum_contains_matches_dense_spectra(model_grid, l, k, tol, at):
    # oracle: every eigenvalue of the dense l = 0, 1, 2 matrices.  Targets put
    # an eigenvalue of sector l exactly at one end of the closed window, or
    # midway between two.  A count is exact for a matrix within a few
    # eps ||T|| of the operator, and so is dense eigh: where an eigenvalue
    # lies closer than that to an end, the verdict is free, so the oracle
    # requires a contained verdict only with an eigenvalue inside the window
    # narrowed by that slack, and a negative one only with none inside the
    # widened window
    model, grid = model_grid
    spectra, slack = [], 0.0
    for sector in (0, 1, 2):
        problem = assemble(model, grid, sector)
        spectra.append(eigh(_symmetrized(problem), eigvals_only=True)[::-1])
        slack = max(slack, 8.0 * np.finfo(float).eps * float(
            np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag))))
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
    verdict = dl.spectrum_contains(model, grid, target, tol)
    window = tol * max(1.0, abs(target))
    assert verdict.tolerance == window
    distance = np.min(np.abs(np.concatenate(spectra) - target))
    if distance <= window - slack:
        assert verdict.contained
    elif distance > window + slack:
        assert not verdict.contained


@pytest.mark.parametrize("node", [0, 3, 7], ids=["first", "middle", "last"])
def test_spectrum_contains_counts_both_window_ends(node, monkeypatch):
    # a diagonal operator: every pivot of a Sturm count is d_i - x, whose sign
    # rounding keeps, so the counts are exact.  An eigenvalue at either end of
    # the closed window [-4.5, -3.5] around -4 is contained, and one ulp
    # outside it is not, at any node.  One ulp below the window the entry
    # equals the count's lower end, so its pivot there is zero.  The
    # potentials of l = 1, 2 move the entry down by more than the window's
    # width (1 / w^2 >= 1), so only l = 0 counts it
    model, grid = _sphere_grid(2, 8)
    zonal = assemble(model, grid, 0)
    for end, outside in ((-4.5, -math.inf), (-3.5, 0.0)):
        for mu, count in ((end, 1), (math.nextafter(end, outside), 0)):
            diag = np.full(grid.size, -1e6)
            diag[node] = mu
            problem = spectral.replace(zonal, diag=diag, off_diag=np.zeros(grid.size - 1))
            monkeypatch.setattr(spectral, "assemble", lambda *args: problem)
            verdict = dl.spectrum_contains(model, grid, -4.0, 0.125)
            assert (verdict.contained, verdict.tolerance, verdict.count_used) == \
                (count == 1, 0.5, count)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_count_takes_a_zero_pivot_once(sign):
    # tridiag(-1, 2, -1) of size 3 has the eigenvalues 2 - sqrt(2), 2 and
    # 2 + sqrt(2).  Its LDL^T factorization shifted by 1 has the pivots 1, 0
    # and a division by zero: the zero pivot must count once, so (1, 10]
    # holds two eigenvalues, and so does (-10, -1] for the negated matrix.
    # A count reads only the two diagonals of the problem
    problem = spectral.replace(assemble(*_sphere_grid(2, 8), 0), diag=np.full(3, 2.0 * sign),
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
        dl.spectrum_contains(*_sphere_grid(2, 100), target, tol)


def test_zero_mode_is_constant():
    model, grid = _sphere_grid(2, 500)
    zero, first, _ = _top_modes(assemble(model, grid, 0), 3)
    scale = abs(first.mu)
    assert abs(zero.mu) < 1e-10 * max(1.0, scale)
    assert np.std(zero.u) < 1e-8 * np.abs(zero.u).max()


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models())
def test_constants_in_kernel_row_sums(model_grid):
    # the rows of the l = 0 (or periodic) operator sum to zero up to rounding
    model, grid = model_grid
    problem = assemble(model, grid, 0)
    residual = np.max(np.abs(problem.apply(np.ones(grid.size))))
    assert residual <= 1e-12 * np.max(np.abs(problem.diag))


def test_l1_potential_and_tags():
    model, grid = _sphere_grid(2, 300)
    p0 = assemble(model, grid, 0)
    p1 = assemble(model, grid, 1)
    # the l >= 1 operator subtracts exactly l(l+n-2)/w^2 on the diagonal
    w = np.sin(grid.nodes)
    diff = _matrix(p1) - _matrix(p0)
    assert np.allclose(np.diag(diff), -1.0 / w**2, rtol=1e-12, atol=1e-9)
    assert np.max(np.abs(diff - np.diag(np.diag(diff)))) < 1e-9


def test_weighted_orthonormality():
    model, grid = _sphere_grid(2, 800, eps=0.3)
    modes = _top_modes(assemble(model, grid, 0), 5)
    q = grid.weights
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            inner = float(np.dot(q, mi.u * mj.u))
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models())
def test_operator_symmetry_all_topologies(model_grid):
    model, grid = model_grid
    for l in _sectors(model):
        assert weighted_symmetry_defect(assemble(model, grid, l)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models())
def test_nonpositive_spectrum(model_grid):
    # each sector's top eigenvalue is at most rounding above zero, relative to
    # the larger magnitude of the sector's two eigenvalues nearest zero; a
    # circle's sectors are its two mirror sectors
    model, grid = model_grid
    base = assemble(model, grid, 0)
    sectors = spectral._mirror_sectors(base) if base.periodic else \
        [base.sector(l) for l in (0, 1, 2)]
    for sector in sectors:
        mus = _mus(_top_modes(sector, 2))
        assert mus[0] <= 1e-10 * max(1.0, float(np.abs(mus).max()))


def test_convergence_order_s2():
    errs = []
    ns = (250, 500, 1000, 2000)
    for N in ns:
        model, grid = _sphere_grid(2, N)
        fe = dl.first_nonzero_eigenvalue(model, grid, richardson=False)
        errs.append(abs(fe.lam - 2.0))
    slope = np.polyfit(np.log([math.pi / N for N in ns]), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_solver_determinism():
    for problem in (assemble(*_sphere_grid(2, 700, eps=0.2), 1),
                    *spectral._mirror_sectors(assemble(*_circle_grid(400, 0.5), 0))):
        a = _top_modes(problem, 4)
        b = _top_modes(problem, 4)
        assert _mus(a).tolist() == _mus(b).tolist()
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.u, mb.u)


def test_circle_solve_matches_dense_reference():
    # the four top even and three top odd eigenpairs hold the six top ones of
    # the periodic operator (a cosine density makes each non-zero eigenvalue
    # double), and unfold into its eigenfunctions with l = 0
    problem = assemble(*_circle_grid(300, 0.5), 0)
    even, odd = spectral._mirror_sectors(problem)
    modes = sorted(_top_modes(even, 4) + _top_modes(odd, 3), key=lambda m: -m.mu)[:6]
    reference = eigh(_matrix(problem) * problem.sqrt_rho[:, None] / problem.sqrt_rho[None, :],
                     eigvals_only=True)[::-1][:6]
    assert np.max(np.abs(_mus(modes) - reference)) < 1e-10
    q = problem.grid.weights
    for mode in modes:
        assert mode.problem is problem and mode.l == 0
        residual = problem.apply(mode.u) - mode.mu * mode.u
        assert math.sqrt(float(np.dot(q, residual**2))) < 1e-8
        assert float(np.dot(q, mode.u**2)) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(eps=_EPS, N=st.integers(8, 400), length=st.sampled_from((2.0 * math.pi, 3.7)))
@example(eps=0.5, N=4, length=2.0 * math.pi)  # an odd sector of one row
@example(eps=-0.3, N=5, length=3.7)
def test_mirror_sectors_hold_the_periodic_spectrum(eps, N, length):
    # the unfolded unit vectors of both sectors are an orthonormal basis Q,
    # even or odd under the mirror i -> N - i, in which the full periodic
    # matrix T is block diagonal with the two sectors as its blocks, up to
    # the rounding that the mirror-symmetric assembly leaves.  So the two
    # sectors' eigenvalues together are T's: dense eigh matches them to
    # within its own backward error, a few eps ||T||_F (with the row-sum norm
    # it reached 15.6 eps ||T||_inf at N = 288 in 150 random draws)
    model = dl.circle(length, density=dl.cosine_density(eps, length / 2.0))
    grid = dl.Grid.uniform(model, N)
    problem = assemble(model, grid, 0)
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
    fe = dl.first_nonzero_eigenvalue(model, grid)
    assert fe.mode.l == 0 and fe.mode.problem.periodic and fe.mode.u.size == N
    assert fe.lam == pytest.approx(-eigh(full, eigvals_only=True)[-2], rel=1e-9,
                                   abs=4.0 * np.finfo(float).eps * norm)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), eps=st.floats(-0.9, 0.9), N=st.integers(8, 400))
def test_sector_two_lies_below_sector_one(n, eps, N):
    # S_2 = S_1 - (n+1) diag(1/w^2): by Weyl's inequality no l = 2 mode can be lambda_1
    model = dl.sphere(n, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, N)
    top = [_top_modes(assemble(model, grid, l), 1)[0].mu for l in (1, 2)]
    assert top[1] < top[0]


def _half_grid_estimate(model, N, lam, l):
    """The Richardson estimate from a half-resolution eigensolve:
    |lam + mu| / 3 with mu the top non-constant eigenvalue of sector l at
    N // 2 (eigh_tridiagonal on spheres, dense eigh on circles)."""
    problem = assemble(model, dl.Grid.uniform(model, N // 2), l)
    n = problem.size
    if problem.periodic:
        mus = eigh(_symmetrized(problem), eigvals_only=True)[::-1]
    else:
        mus = eigh_tridiagonal(problem.diag, problem.off_diag, eigvals_only=True,
                               select="i", select_range=(n - 2, n - 1))[::-1]
    return abs(lam + mus[1 if l == 0 else 0]) / 3.0


def _bisect_both_tops(model, grid):
    """lambda_1's eigenmode as eigh_tridiagonal gives it when it bisects both
    sector tops, each alone (0-based index n-2, below l = 0's constant mode,
    and n-1 of l = 1), and keeps the larger, the lower sector on a tie."""
    best = None
    for l in (0, 1):
        problem = assemble(model, grid, l)
        k = problem.size - 2 + l
        vals, vecs = eigh_tridiagonal(problem.diag, problem.off_diag, select="i",
                                      select_range=(k, k))
        if best is None or vals[0] > best[1][0]:
            best = problem, vals, vecs
    return spectral._postprocess(*best)[0]


@pytest.mark.parametrize("N", [400, 2000])
@pytest.mark.parametrize("density,n,sector", [
    (dl.cosine_density(0.5), 3, 1),
    (dl.poly_cos_density([0.0, -1.0, -0.25]), 2, 0),  # configs/ling_cases.json, n = 2
], ids=["cosine-n3", "ling-poly-cos-n2"])
def test_first_eigenvalue_matches_eigenpair_solves_bitwise(density, n, sector, N):
    # bisecting l = 1's top, certifying l = 0's by a count (cosine) or
    # bisecting it too (Ling) and inverse-iterating only the winning
    # eigenvalue reports the eigenvalue and eigenvector bits of one
    # eigenpair solve per sector top
    model = dl.sphere(n, density=density)
    grid = dl.Grid.uniform(model, N)
    mode = _bisect_both_tops(model, grid)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    assert mode.l == fe.mode.l == sector
    assert fe.lam == mode.lam
    assert fe.mode.u.tobytes() == mode.u.tobytes()
    assert fe.error_estimate == pytest.approx(_half_grid_estimate(model, N, fe.lam, sector),
                                              rel=2e-3)


@st.composite
def _spheres(draw):
    """An n-sphere (n 2-5) without a density (round: lambda_1 = n in both
    l = 0 and l = 1), with a cosine or short poly-cos one, or with the Ling
    cases' poly-cos density, on 8-300 nodes."""
    kind = draw(st.sampled_from(("round", "cosine", "poly-cos", "ling")))
    density = {"round": lambda: None,
               "cosine": lambda: dl.cosine_density(draw(_EPS)),
               "poly-cos": lambda: dl.poly_cos_density(
                   draw(st.lists(_EPS, min_size=1, max_size=3))),
               "ling": lambda: dl.poly_cos_density([0.0, -1.0, -0.25])}[kind]()
    model = dl.sphere(draw(st.integers(2, 5)), density=density)
    return model, dl.Grid.uniform(model, draw(st.integers(8, 300)))


@settings(max_examples=80, deadline=None)
@given(model_grid=_spheres())
def test_first_eigenvalue_matches_bisecting_both_tops_bitwise(model_grid):
    # the count certificate skips the l = 0 bisection only where l = 1 would
    # win it: lambda_1, its sector and the eigenvector's bytes are those of
    # bisecting both tops, on the round l = 0 / l = 1 twins too
    model, grid = model_grid
    fe = dl.first_nonzero_eigenvalue(model, grid)
    mode = _bisect_both_tops(model, grid)
    assert (fe.lam, fe.mode.l) == (mode.lam, mode.l)
    assert fe.mode.u.tobytes() == mode.u.tobytes()


@settings(max_examples=60, deadline=None)
@given(model_grid=_spheres())
def test_first_eigenvalue_matches_dense_spectra(model_grid):
    # oracle: every eigenvalue of the dense l = 0 and l = 1 matrices, less the
    # constant mode.  The bisected value may differ from dense eigh's by the
    # bisection tolerance eps ||T||
    model, grid = model_grid
    fe = dl.first_nonzero_eigenvalue(model, grid)
    lams, norm = [], 0.0
    for l in (0, 1):
        problem = assemble(model, grid, l)
        lams.append(-eigh(_symmetrized(problem), eigvals_only=True)[:-1 if l == 0 else None])
        norm = max(norm, np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag)))
    slack = 4.0 * np.finfo(float).eps * norm
    assert fe.lam == pytest.approx(np.min(np.concatenate(lams)), rel=1e-9, abs=slack)


def _oracle_assembly(model, grid, l):
    """The interval operator of sector l from scratch: rho evaluated at the
    nodes and faces, the angular potential subtracted in place."""
    h, nodes = grid.spacing, grid.nodes
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
@given(model_grid=_weighted_models().filter(lambda mg: mg[0].topology != dl.CIRCLE))
def test_sectors_from_the_zonal_assembly_match_a_fresh_assembly_bitwise(model_grid):
    # sectors l >= 1 subtract their potential from the l = 0 diagonal, and the
    # node density comes from the grid: every array keeps its bits
    model, grid = model_grid
    for l in (0, 1, 2):
        problem = assemble(model, grid, l)
        diag, off, sqrt_rho = _oracle_assembly(model, grid, l)
        assert problem.l == l and problem.corner == 0.0
        assert problem.diag.tobytes() == diag.tobytes()
        assert problem.off_diag.tobytes() == off.tobytes()
        assert problem.sqrt_rho.tobytes() == sqrt_rho.tobytes()


@pytest.mark.parametrize("N", [400, 401, 2000])
@pytest.mark.parametrize("model,sector", [
    (dl.sphere(3, density=dl.cosine_density(0.5)), 1),
    (dl.sphere(2, density=dl.poly_cos_density([0.0, -1.0, -0.25])), 0),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5, math.pi)), 0),
], ids=["cosine-n3", "ling-poly-cos-n2", "circle"])
def test_error_estimate_matches_half_grid_solve(model, sector, N):
    # the Rayleigh quotient of the interpolated eigenvector stands in for the
    # half-grid eigenvalue, on nested (even N) and non-nested (odd N) grids
    fe = dl.first_nonzero_eigenvalue(model, dl.Grid.uniform(model, N))
    assert fe.mode.l == sector
    expected = _half_grid_estimate(model, N, fe.lam, sector)
    assert fe.error_estimate == pytest.approx(expected, rel=2e-3)


@pytest.mark.parametrize("model,l", [
    (dl.sphere(2, density=dl.poly_cos_density([0.0, -1.0, -0.25])), 0),
    (dl.sphere(3, density=dl.cosine_density(0.5)), 1),
    (dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5, math.pi)), 0),
], ids=["sphere-l0", "sphere-l1", "circle"])
def test_rayleigh_quotient_of_an_eigenvector_is_its_eigenvalue(model, l):
    # the energy form of the quotient reproduces dense eigh's eigenvalues
    problem = assemble(model, dl.Grid.uniform(model, 200), l)
    vals, vecs = eigh(_symmetrized(problem))
    for j in range(-6, -1 if l == 0 else 0):  # the constant mode is the top of l = 0
        quotient = spectral._rayleigh_quotient(problem, vecs[:, j] / problem.sqrt_rho)
        assert quotient == pytest.approx(-vals[j], rel=1e-12)


def _counting_lapack(monkeypatch, calls, zonal_diags):
    """Record each stebz bisection (range code 2) as ("stebz", N, l, (il, iu)),
    each stebz count (range code 1) as ("count", N, l) and each stein call as
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
                calls.append(("count", d.size, l))
            return routine(d, e, *args)
        return call

    for name, routine in list(spectral._LAPACK.items()):
        monkeypatch.setitem(spectral._LAPACK, name, counted(name, routine))


def test_first_eigenvalue_solve_count(monkeypatch):
    # l = 1's top bisected at N, one Sturm count of the l = 0 operator and
    # inverse iteration on the winning eigenvalue alone; the l = 0 top is
    # bisected only where the count finds more than the constant mode above
    # l = 1's top (a round sphere, where it wins).  A circle runs the same
    # sequence on its mirror sectors: odd in place of l = 1, even in place
    # of l = 0.  The error estimate solves nothing at N/2
    calls = []
    cosine, round_ = _sphere_grid(3, 400, eps=0.4), _sphere_grid(3, 400)
    circle = _circle_grid(400, 0.5)
    even = spectral._mirror_sectors(assemble(*circle, 0))[0]
    _counting_lapack(monkeypatch, calls,
                     [assemble(*mg, 0).diag for mg in (cosine, round_)] + [even.diag])
    dl.first_nonzero_eigenvalue(*cosine)
    assert calls == [("stebz", 400, 1, (400, 400)), ("count", 400, 0), ("stein", 400, 1, 1)]
    calls.clear()
    dl.first_nonzero_eigenvalue(*round_)
    assert calls == [("stebz", 400, 1, (400, 400)), ("count", 400, 0),
                     ("stebz", 400, 0, (399, 399)), ("stein", 400, 0, 1)]
    calls.clear()
    fe = dl.first_nonzero_eigenvalue(*circle)
    # the cosine density makes lambda_1 double, one copy in each sector, so the
    # count finds it above the odd top and the even top is bisected too
    assert calls[:3] == [("stebz", 199, 1, (199, 199)), ("count", 201, 0),
                         ("stebz", 201, 0, (200, 200))]
    assert calls[3:] in ([("stein", 201, 0, 1)], [("stein", 199, 1, 1)])
    assert fe.mode.l == 0 and fe.mode.u.size == 400


def _is_count(args):
    """Whether stebz's arguments ask for a count: range code 1, a value window."""
    return args[2] == 1


def _force_info(monkeypatch, routine, when=lambda args: True):
    """Make the LAPACK ``routine`` return info = 1, its last value, after
    running, on the calls whose arguments satisfy ``when``."""
    call = spectral._LAPACK[routine]

    def with_info_1(*args):
        result = call(*args)
        return result[:-1] + (1,) if when(args) else result

    monkeypatch.setitem(spectral._LAPACK, routine, with_info_1)


@pytest.mark.parametrize("routine,l", [("stebz", 0), ("stein", 1), ("stebz", 1)])
def test_lapack_failure_is_a_solver_error(routine, l, monkeypatch, tmp_path, capsys):
    # a nonzero info from either LAPACK step names the sector and the size,
    # also when only the l = 0 bisection of a round sphere fails, and a sweep
    # that meets it exits 3
    zonal_only = (routine, l) == ("stebz", 0)
    if zonal_only:  # l = 0's top has the 1-based index N - 1
        _force_info(monkeypatch, routine,
                    lambda args: args[2] == 2 and args[5] == args[0].size - 1)
    else:
        _force_info(monkeypatch, routine)
    model, grid = _sphere_grid(3, 400, eps=0.0 if zonal_only else 0.5)
    with pytest.raises(SolverError, match=f"l={l}, N=400: {routine} returned info=1") as info:
        dl.first_nonzero_eigenvalue(model, grid)
    assert (info.value.report["l"], info.value.report["size"]) == (l, 400)
    if not zonal_only:
        with pytest.raises(SolverError, match=f"{routine} returned info=1"):
            _top_modes(assemble(model, grid, 2), 4)

    config = tmp_path / "sphere.json"
    density = {"name": "zero"} if zonal_only else {"name": "cosine", "eps": [0.5]}
    config.write_text(json.dumps({
        "schema_version": 1, "family": {"name": "sphere", "n": [3], "density": density},
        "grids": [400], "checks": ["spectrum"]}))
    assert cli.main(["sweep", "--config", str(config)]) == 3
    assert f"l={l}, N=400" in capsys.readouterr().out


def test_spectrum_contains_count_failure_is_a_solver_error(monkeypatch):
    _force_info(monkeypatch, "stebz", _is_count)
    with pytest.raises(SolverError, match="l=0, N=400: stebz returned info=1") as info:
        dl.spectrum_contains(*_sphere_grid(3, 400, eps=0.5), -3.0, 1e-3)
    assert (info.value.report["l"], info.value.report["size"]) == (0, 400)


@pytest.mark.parametrize("count", [0, 2, 5])
def test_certificate_count_decides_the_zonal_bisection(count, monkeypatch):
    # a count above 1 bisects the l = 0 top as well, and the larger top still
    # wins (on the cosine sphere, l = 1's); a count of 0, which not even the
    # constant mode gives, and a nonzero info from the count are
    # SolverErrors that name l = 0 and N
    model, grid = _sphere_grid(3, 400, eps=0.5)
    expected = dl.first_nonzero_eigenvalue(model, grid)
    calls = []
    _counting_lapack(monkeypatch, calls, [assemble(model, grid, 0).diag])
    stebz = spectral._LAPACK["stebz"]

    def stebz_counting(*args):
        result = stebz(*args)
        return (count,) + result[1:] if _is_count(args) else result

    monkeypatch.setitem(spectral._LAPACK, "stebz", stebz_counting)
    if count:
        fe = dl.first_nonzero_eigenvalue(model, grid)
        assert ("stebz", 400, 0, (399, 399)) in calls
        assert (fe.lam, fe.mode.l, fe.error_estimate) == \
            (expected.lam, expected.mode.l, expected.error_estimate)
        assert fe.mode.u.tobytes() == expected.mode.u.tobytes()
        return
    with pytest.raises(SolverError, match="l=0, N=400: stebz counts no eigenvalue"):
        dl.first_nonzero_eigenvalue(model, grid)
    # on a circle the count runs on the even mirror sector, of N/2 + 1 rows
    with pytest.raises(SolverError, match="l=0, N=201: stebz counts no eigenvalue"):
        dl.first_nonzero_eigenvalue(*_circle_grid(400, 0.5))
    monkeypatch.undo()
    _force_info(monkeypatch, "stebz", _is_count)
    with pytest.raises(SolverError, match="l=0, N=400: stebz returned info=1"):
        dl.first_nonzero_eigenvalue(model, grid)


def test_angular_mode_search_matters():
    # on the cosine-density sphere the l = 1 branch lies strictly below the
    # zonal branch, so a zonal-only search would report the wrong eigenvalue
    model, grid = _sphere_grid(2, 800, eps=0.5)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    zonal = _top_modes(assemble(model, grid, 0), 2)[1]
    assert fe.mode.l == 1
    assert fe.lam < zonal.lam


def test_manifold_samples_shapes():
    model, grid = _sphere_grid(3, 400, eps=0.4)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    assert fe.mode.l == 1
    K = dl.be_ricci_lower_bound(model).K
    nef = dl.normalize(fe.mode, K=K)
    v, grad_sq, equator = nef.samples()
    # the fiber poles of every row, which also stand for their antipodes,
    # and the |grad v|^2 of one point on the equator level v = 0
    assert v.shape == grad_sq.shape == (grid.size,)
    assert abs(max(v.max(), -v.min()) - 1.0) < 1e-12
    assert np.array_equal(v, nef.v_rad)
    assert equator == nef.equator_grad_sq.max()
    zonal = _top_modes(assemble(model, grid, 0), 2)[1]
    v, grad_sq, equator = dl.normalize(zonal, K=K).samples()
    assert v.shape == grad_sq.shape == (grid.size,) and equator is None


_BLAS_PROBE = """
import hashlib
import driftlab as dl
model = dl.sphere(3, density=dl.cosine_density(0.7))
fe = dl.first_nonzero_eigenvalue(model, dl.Grid.uniform(model, 100000))
nef = dl.normalize(fe.mode, K=dl.be_ricci_lower_bound(model).K)
arrays = (fe.mode.u, nef.v_rad, nef.dv_rad)
print(repr((fe.lam, fe.mode.l, fe.error_estimate, nef.k, nef.a, nef.residual_inf,
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
    model, grid = _sphere_grid(2, 100)
    with pytest.raises(AssemblyError):
        assemble(model, grid, -1)
    with pytest.raises(AssemblyError):
        assemble(model, grid, 1.5)
    # a circle has no fiber, so no angular mode but l = 0
    with pytest.raises(AssemblyError, match="0 on a circle"):
        assemble(*_circle_grid(100, 0.5), 1)


def test_circle_operator_has_no_angular_sector():
    # a circle has no warp, so its operator refuses a sector l >= 1 as
    # assemble does, instead of reaching for the missing warp profile
    base = assemble(*_circle_grid(100, 0.5), 0)
    assert base.sector(0) is base
    with pytest.raises(AssemblyError, match="no angular sectors"):
        base.sector(1)
