"""Spectral engine checks against classical spectra and structural invariants."""

import ctypes
import json
import math
import multiprocessing
import sys
import threading
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cython_lapack, eigh, eigh_tridiagonal
from scipy.linalg.lapack import dstebz

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
        mus = _mus(dl.solve_eigen(assemble(model, grid, l), 3))
        expected = np.array([-k * (k + 1.0) for k in range(l, l + 3)])
        assert np.max(np.abs(mus - expected)) < 2e-4


def test_circle_fourier_spectrum():
    # the one periodic sector holds -k^2, twice for k >= 1
    model = dl.circle(2.0 * math.pi)
    grid = dl.Grid.uniform(model, 800)
    mus = _mus(dl.solve_eigen(assemble(model, grid, 0), 6))
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
    kb = dl.be_ricci_lower_bound(model, grid)
    assert kb.K == 0.5
    assert fe.lam >= (model.n - 1) * kb.K


def test_spectrum_contains_examples():
    model, grid = _sphere_grid(2, 1000)
    assert dl.spectrum_contains(model, grid, -2.0, 1e-3).contained
    verdict = dl.spectrum_contains(model, grid, -3.0, 1e-3)
    assert not verdict.contained
    assert abs(verdict.nearest - (-2.0)) < 1e-4  # -2 is the closest level
    assert dl.spectrum_contains(model, grid, 0.0, 1e-6).contained


def test_spectrum_contains_finds_deep_zonal_eigenvalues():
    # the 9th zonal eigenvalue is an eigenvalue of the assembled operator,
    # although the low l = 1 and l = 2 sectors reach below it much earlier
    model, grid = _sphere_grid(2, 400, eps=0.5)
    target = dl.solve_eigen(assemble(model, grid, 0), 9)[8].mu
    assert abs(target + 72.00475) < 1e-4
    verdict = dl.spectrum_contains(model, grid, target, 1e-6)
    assert verdict.contained
    assert verdict.gap < 1e-10
    with pytest.raises(ValueError):
        dl.spectrum_contains(*_circle_grid(400, 0.5), -1.0, 1e-3)


def _eigh_tridiagonal_contains(model, grid, target, tol):
    """spectrum_contains through eigh_tridiagonal: per sector l = 0, 1, 2 the
    eigenvalues above target - window and the one just below."""
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
    mus = np.array(mus)
    nearest = float(mus[np.argmin(np.abs(mus - target))])
    gap = abs(nearest - target)
    return spectral.MembershipVerdict(contained=gap <= window, nearest=nearest, gap=gap,
                                      tolerance=window, count_used=mus.size)


@settings(max_examples=60, deadline=None)
@given(model_grid=_weighted_models().filter(lambda mg: mg[0].topology != dl.CIRCLE),
       l=st.integers(0, 2), k=st.integers(1, 6), shift=st.floats(-1e-3, 1e-3),
       tol=st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
def test_spectrum_contains_matches_eigh_tridiagonal_bitwise(model_grid, l, k, shift, tol):
    # calling stebz directly gives the verdicts of eigh_tridiagonal bit for bit,
    # for targets on, near and between eigenvalues of every searched sector
    model, grid = model_grid
    target = dl.solve_eigen(assemble(model, grid, l), k)[-1].mu * (1.0 + shift)
    verdict = dl.spectrum_contains(model, grid, target, tol)
    assert verdict == _eigh_tridiagonal_contains(model, grid, target, tol)


def test_zero_mode_is_constant():
    model, grid = _sphere_grid(2, 500)
    zero, first, _ = dl.solve_eigen(assemble(model, grid, 0), 3)
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
    modes = dl.solve_eigen(assemble(model, grid, 0), 5)
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
    # the larger magnitude of the sector's two eigenvalues nearest zero
    model, grid = model_grid
    for l in _sectors(model):
        mus = _mus(dl.solve_eigen(assemble(model, grid, l), 2))
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
                    assemble(*_circle_grid(400, 0.5), 0)):
        a = dl.solve_eigen(problem, 4)
        b = dl.solve_eigen(problem, 4)
        assert _mus(a).tolist() == _mus(b).tolist()
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.u, mb.u)


def test_circle_solve_matches_dense_reference():
    problem = assemble(*_circle_grid(300, 0.5), 0)
    modes = dl.solve_eigen(problem, 6)
    reference = eigh(_matrix(problem) * problem.sqrt_rho[:, None] / problem.sqrt_rho[None, :],
                     eigvals_only=True)[::-1][:6]
    assert np.max(np.abs(_mus(modes) - reference)) < 1e-10
    q = problem.grid.weights
    for mode in modes:
        residual = problem.apply(mode.u) - mode.mu * mode.u
        assert math.sqrt(float(np.dot(q, residual**2))) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), eps=st.floats(-0.9, 0.9), N=st.integers(8, 400))
def test_sector_two_lies_below_sector_one(n, eps, N):
    # S_2 = S_1 - (n+1) diag(1/w^2): by Weyl's inequality no l = 2 mode can be lambda_1
    model = dl.sphere(n, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, N)
    top = [dl.solve_eigen(assemble(model, grid, l), 1)[0].mu for l in (1, 2)]
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


def _eigenpair_search(model, grid):
    """lambda1 as one eigh_tridiagonal eigenpair solve per sector l = 0, 1 for
    the two eigenpairs it bisects (0-based indices n-3..n-2 below l = 0's
    constant mode, n-2..n-1 in l = 1), with a half-grid solve for the error
    estimate.  Returns (lam, err, gap, mode)."""
    cands = []
    for l in (0, 1):
        problem = assemble(model, grid, l)
        n = problem.size
        vals, vecs = eigh_tridiagonal(problem.diag, problem.off_diag,
                                      select="i", select_range=(n - 3 + l, n - 2 + l))
        cands += spectral._postprocess(problem, vals, vecs)
    mode = min(cands, key=lambda m: (-m.mu, m.l))
    lam = -mode.mu
    err = _half_grid_estimate(model, grid.size, lam, mode.l)
    cluster = max(20.0 * err, 1e-7 * max(1.0, lam))
    above = [-m.mu for m in cands if (-m.mu) > lam + cluster]
    return lam, err, (min(above) - lam) if above else math.inf, mode


@pytest.mark.parametrize("N", [400, 2000])
@pytest.mark.parametrize("density,n,sector", [
    (dl.cosine_density(0.5), 3, 1),
    (dl.poly_cos_density([0.0, -1.0, -0.25]), 2, 0),  # configs/ling_cases.json, n = 2
], ids=["cosine-n3", "ling-poly-cos-n2"])
def test_first_eigenvalue_matches_eigenpair_solves_bitwise(density, n, sector, N):
    # bisecting every sector and inverse-iterating only the winning eigenvalue
    # reports the same eigenvalue and gap bits as solving the same two
    # eigenpairs in every searched sector.  The eigenvector is the two-vector
    # solve's up to the rounding of inverse iteration, which starts from
    # another random vector and orthogonalizes against nothing
    model = dl.sphere(n, density=density)
    grid = dl.Grid.uniform(model, N)
    lam, err, gap, mode = _eigenpair_search(model, grid)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    assert mode.l == fe.mode.l == sector
    assert (fe.lam, fe.gap) == (lam, gap)
    sign = math.copysign(1.0, float(np.dot(fe.mode.u, mode.u)))
    assert np.max(np.abs(sign * fe.mode.u - mode.u)) <= 1e-9 * np.max(np.abs(mode.u))
    assert fe.error_estimate == pytest.approx(err, rel=2e-3)


@st.composite
def _spheres(draw):
    """An n-sphere (n 2-5) without a density (round: lambda_1 = n in both
    l = 0 and l = 1) or with a cosine or short poly-cos one, on 8-300 nodes."""
    kind = draw(st.sampled_from(("round", "cosine", "poly-cos")))
    density = None if kind == "round" else dl.cosine_density(draw(_EPS)) \
        if kind == "cosine" else dl.poly_cos_density(draw(st.lists(_EPS, min_size=1, max_size=3)))
    model = dl.sphere(draw(st.integers(2, 5)), density=density)
    return model, dl.Grid.uniform(model, draw(st.integers(8, 300)))


@settings(max_examples=60, deadline=None)
@given(model_grid=_spheres())
def test_first_eigenvalue_gap_matches_dense_spectra(model_grid):
    # two eigenvalues per sector hold lambda_1 and the next eigenvalue above
    # its cluster: at most one eigenvalue per sector (a round sphere's l = 0 /
    # l = 1 twin) falls inside the cluster.  Oracle: every eigenvalue of the
    # dense l = 0 and l = 1 matrices, less the constant mode.  The bisected
    # values may differ from dense eigh's by the bisection tolerance
    # eps ||T||, which the relative bound would not cover where a near twin
    # just outside the cluster makes the gap small (4e-4 on a cosine sphere)
    model, grid = model_grid
    fe = dl.first_nonzero_eigenvalue(model, grid)
    lams, norm = [], 0.0
    for l in (0, 1):
        problem = assemble(model, grid, l)
        lams.append(-eigh(_symmetrized(problem), eigvals_only=True)[:-1 if l == 0 else None])
        norm = max(norm, np.max(np.abs(problem.diag)) + 2.0 * np.max(np.abs(problem.off_diag)))
    lams = np.sort(np.concatenate(lams))
    slack = 4.0 * np.finfo(float).eps * norm
    assert fe.lam == pytest.approx(lams[0], rel=1e-9, abs=slack)
    err = 0.0 if math.isnan(fe.error_estimate) else fe.error_estimate
    cluster = max(20.0 * err, 1e-7 * max(1.0, fe.lam))
    gap = lams[lams > fe.lam + cluster][0] - fe.lam
    assert fe.gap == pytest.approx(gap, rel=1e-9, abs=slack)


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


def _counting_lapack(monkeypatch, calls, zonal_diag):
    """Record each stebz call as ("stebz", N, l, thread, (il, iu)) and each
    stein call as ("stein", N, number of eigenvalues, thread, None); l is 0
    when stebz sees the diagonal ``zonal_diag`` of the l = 0 operator, else 1,
    and il..iu is its 1-based ascending index range."""
    def counted(name, routine):
        def call(*args):
            thread = threading.current_thread().name
            if name == "stebz":
                calls.append((name, args[2], 0 if np.array_equal(args[8], zonal_diag) else 1,
                              thread, (args[5], args[6])))
            else:
                calls.append((name, args[0], args[3], thread, None))
            routine(*args)
        return call

    for name, routine in list(spectral._LAPACK.items()):
        monkeypatch.setitem(spectral._LAPACK, name, counted(name, routine))


def test_first_eigenvalue_solve_count(monkeypatch):
    # spheres: sectors l = 0, 1 bisected at N for two eigenvalues each (l = 0
    # below its constant mode), l = 1 on a sector worker, and inverse
    # iteration on the winning eigenvalue alone; circles: one Lanczos solve
    # and no sector worker.  The error estimate solves nothing at N/2
    calls = []
    solve = spectral.solve_eigen

    def counting_solve(problem, count):
        calls.append(problem.size)
        return solve(problem, count)

    monkeypatch.setattr(spectral, "solve_eigen", counting_solve)
    model, grid = _sphere_grid(3, 400, eps=0.4)
    _counting_lapack(monkeypatch, calls, assemble(model, grid, 0).diag)
    dl.first_nonzero_eigenvalue(model, grid)
    assert Counter(call[:3] for call in calls) == Counter(
        [("stebz", 400, 0), ("stebz", 400, 1), ("stein", 400, 1)])
    threads = {call[:3]: call[3] for call in calls}
    main = threading.main_thread().name
    assert threads[("stebz", 400, 0)] == threads[("stein", 400, 1)] == main
    assert threads[("stebz", 400, 1)].startswith("driftlab-sector")
    assert {call[2]: call[4] for call in calls if call[0] == "stebz"} == {
        0: (398, 399), 1: (399, 400)}
    calls.clear()
    monkeypatch.setattr(spectral, "_SECTORS", None)  # any use of the pool fails
    dl.first_nonzero_eigenvalue(*_circle_grid(400, 0.5))
    assert calls == [400]


def _force_info_1(monkeypatch, routine, workers_only=False):
    """Make the LAPACK ``routine`` return info = 1 after running; with
    ``workers_only``, only on the sector workers."""
    call = spectral._LAPACK[routine]

    def with_info_1(*args):
        call(*args)
        if not workers_only or threading.current_thread() is not threading.main_thread():
            args[-1].value = 1

    monkeypatch.setitem(spectral._LAPACK, routine, with_info_1)


@pytest.mark.parametrize("routine,l", [("stebz", 0), ("stein", 1), ("stebz", 1)])
def test_lapack_failure_is_a_solver_error(routine, l, monkeypatch, tmp_path, capsys):
    # a nonzero info from either LAPACK step names the sector and the size,
    # also when only the l = 1 bisection on a sector worker fails, and a sweep
    # that meets it exits 3
    workers_only = (routine, l) == ("stebz", 1)
    _force_info_1(monkeypatch, routine, workers_only)
    model, grid = _sphere_grid(3, 400, eps=0.5)
    with pytest.raises(SolverError, match=f"l={l}, N=400: {routine} returned info=1") as info:
        dl.first_nonzero_eigenvalue(model, grid)
    assert (info.value.report["l"], info.value.report["size"]) == (l, 400)
    if not workers_only:
        with pytest.raises(SolverError, match=f"{routine} returned info=1"):
            dl.solve_eigen(assemble(model, grid, 2), 4)

    config = tmp_path / "sphere.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "family": {"name": "sphere", "n": [3], "density": {"name": "cosine", "eps": [0.5]}},
        "grids": [400], "checks": ["spectrum"]}))
    assert cli.main(["sweep", "--config", str(config)]) == 3
    assert f"l={l}, N=400" in capsys.readouterr().out


def test_spectrum_contains_stebz_failure_is_a_solver_error(monkeypatch):
    _force_info_1(monkeypatch, "stebz")
    with pytest.raises(SolverError, match="l=0, N=400: stebz returned info=1") as info:
        dl.spectrum_contains(*_sphere_grid(3, 400, eps=0.5), -3.0, 1e-3)
    assert (info.value.report["l"], info.value.report["size"]) == (0, 400)


@settings(max_examples=80, deadline=None)
@given(model_grid=_weighted_models().filter(lambda mg: mg[0].topology != dl.CIRCLE),
       l=st.integers(0, 2), data=st.data())
def test_stebz_matches_the_f2py_wrapper_bitwise(model_grid, l, data):
    # the C-level stebz gives scipy.linalg.lapack.dstebz's eigenvalues and
    # block data bit for bit, by index and by value window, in both orders
    model, grid = model_grid
    problem = assemble(model, grid, l)
    d, e, n = problem.diag, problem.off_diag, problem.size
    select = data.draw(st.sampled_from((1, 2)))
    order = data.draw(st.sampled_from(("B", "E")))
    if select == 1:
        vl = data.draw(st.floats(1.5 * d.min(), 0.5))
        vu = data.draw(st.one_of(st.just(math.inf), st.floats(vl, 1.0, exclude_min=True)))
        il = iu = 1
    else:
        vl, vu = 0.0, 1.0
        il = data.draw(st.integers(1, n))
        iu = data.draw(st.integers(il, n))
    w, iblock, isplit = spectral._stebz(problem, b"VI"[select - 1:select], vl, vu, il, iu,
                                        order.encode())
    m, w_f2py, iblock_f2py, isplit_f2py, info = dstebz(d, e, select, vl, vu, il, iu, 0.0,
                                                       order)
    assert info == 0 and m == w.size
    assert w.tobytes() == w_f2py[:m].tobytes()
    assert np.array_equal(iblock, iblock_f2py[:m])
    assert isplit[-1] == n and np.array_equal(isplit, isplit_f2py[:isplit.size])


def _capsule(pointer, name):
    """A capsule of ``pointer`` named by the C string at address ``name``."""
    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    return new(("PyCapsule_New", ctypes.pythonapi))(pointer, name, None)


def test_lapack_routine_with_another_signature_is_an_import_error(monkeypatch):
    # an ILP64 scipy's stebz takes 64-bit ints: refuse it instead of passing
    # pointers to 32-bit ones
    signature = (b"void (char *, char *, long *, double *, double *, long *, long *, double *,"
                 b" double *, double *, long *, long *, double *, long *, long *, double *,"
                 b" long *, long *)")
    name = ctypes.create_string_buffer(signature)  # the capsule keeps a pointer to it
    capi = dict(cython_lapack.__pyx_capi__, dstebz=_capsule(1, ctypes.addressof(name)))
    monkeypatch.setattr(cython_lapack, "__pyx_capi__", capi)
    with pytest.raises(ImportError, match=r"dstebz has the C signature 'void \(char \*, "
                                          r"char \*, long \*"):
        spectral._lapack("dstebz", "cciddiidddiidiidii")
    # the real capsule passes the same check, and a wrong argument count does not
    monkeypatch.undo()
    spectral._lapack("dstebz", "cciddiidddiidiidii")
    with pytest.raises(ImportError, match="dstein has the C signature"):
        spectral._lapack("dstein", "iddidiididii")


def test_lapack_refuses_arrays_of_another_dtype_or_layout():
    # a float32 or strided array would be read as something else: refused
    problem = assemble(*_sphere_grid(2, 100), 0)
    info = ctypes.c_int()
    for d in (problem.diag.astype(np.float32), np.repeat(problem.diag, 2)[::2]):
        with pytest.raises(TypeError, match="contiguous float64"):
            spectral._LAPACK["stebz"](b"I", b"B", 100, 0.0, 1.0, 97, 100, 0.0, d,
                                      problem.off_diag, ctypes.c_int(), ctypes.c_int(),
                                      np.empty(100), np.empty(100, np.intc),
                                      np.empty(100, np.intc), np.empty(400),
                                      np.empty(300, np.intc), info)


def test_concurrent_callers_get_the_sequential_results(monkeypatch):
    # more calling threads than sector workers and cores, switching threads
    # every microsecond: each lambda_1 is bitwise the one of a sequential
    # search, and every call ends
    problems = [_sphere_grid(n, N, eps=eps) for n, N, eps in
                ((2, 400, 0.5), (3, 401, 0.4), (4, 2000, 0.9), (3, 64, 0.0))] * 2
    monkeypatch.setattr(spectral, "_each_sector", lambda task, ls: [task(l) for l in ls])
    expected = [dl.first_nonzero_eigenvalue(*p) for p in problems]
    monkeypatch.undo()
    got = [None] * len(problems)

    def solve(i):
        got[i] = dl.first_nonzero_eigenvalue(*problems[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(problems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for fe, ref in zip(got, expected):
        assert (fe.lam, fe.gap, fe.error_estimate, fe.mode.l) == \
            (ref.lam, ref.gap, ref.error_estimate, ref.mode.l)
        assert fe.mode.u.tobytes() == ref.mode.u.tobytes()


def _fork_child_eigenvalue(queue):
    queue.put(dl.first_nonzero_eigenvalue(*_sphere_grid(3, 400, eps=0.4)).lam)


def test_forked_child_gets_its_own_sector_workers():
    # a forked child inherits the pool but none of its threads; without a
    # fresh pool its l = 1 bisection would wait forever
    lam = dl.first_nonzero_eigenvalue(*_sphere_grid(3, 400, eps=0.4)).lam
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_fork_child_eigenvalue, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == lam
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_angular_mode_search_matters():
    # on the cosine-density sphere the l = 1 branch lies strictly below the
    # zonal branch, so a zonal-only search would report the wrong eigenvalue
    model, grid = _sphere_grid(2, 800, eps=0.5)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    zonal = dl.solve_eigen(assemble(model, grid, 0), 2)[1]
    assert fe.mode.l == 1
    assert fe.lam < zonal.lam


def test_manifold_samples_shapes():
    model, grid = _sphere_grid(3, 400, eps=0.4)
    fe = dl.first_nonzero_eigenvalue(model, grid)
    assert fe.mode.l == 1
    nef = dl.normalize(fe.mode)
    v, grad_sq = nef.samples()
    # the fiber poles of every row, then one point on the equator level v = 0
    assert v.shape == grad_sq.shape == (2 * grid.size + 1,)
    assert abs(v.max() - 1.0) < 1e-12 and abs(v.min() + 1.0) < 1e-12
    assert np.array_equal(v[:grid.size], nef.v_rad)
    assert np.array_equal(v[grid.size:-1], -nef.v_rad)
    assert v[-1] == 0.0 and grad_sq[-1] == nef.equator_grad_sq.max()
    zonal = dl.solve_eigen(assemble(model, grid, 0), 2)[1]
    v, grad_sq = dl.normalize(zonal).samples()
    assert v.shape == grad_sq.shape == (grid.size,)


def test_assemble_rejects_bad_modes():
    model, grid = _sphere_grid(2, 100)
    with pytest.raises(AssemblyError):
        assemble(model, grid, -1)
    with pytest.raises(AssemblyError):
        assemble(model, grid, 1.5)
