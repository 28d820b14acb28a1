"""Spectral engine checks against classical spectra and structural invariants."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import driftlab as dl
import driftlab.spectral as spectral
from driftlab.errors import AssemblyError
from driftlab.spectral import assemble, weighted_symmetry_defect


@lru_cache(maxsize=None)
def _sphere_grid(n, N, eps=0.0):
    model = dl.sphere(n, density=dl.cosine_density(eps) if eps else None)
    return model, dl.Grid.uniform(model, N)


@lru_cache(maxsize=None)
def _circle_grid(N, eps):
    length = 2.0 * math.pi
    model = dl.circle(length, density=dl.cosine_density(eps, length / 2.0))
    return model, dl.Grid.uniform(model, N)


def _matrix(problem):
    """The operator on radial samples, column by column from ``apply``."""
    return np.column_stack([problem.apply(e) for e in np.eye(problem.size)])


def test_s2_merged_spectrum_is_classical():
    # k(k+1) ladder: 0, -2, -2, -6, -6, -6 across modes l = 0..2
    model, grid = _sphere_grid(2, 1500)
    spectrum = dl.solve_low_spectrum(model, grid, count=4, l_max=2)
    mus = spectrum.eigenvalues()[:6]
    expected = np.array([0.0, -2.0, -2.0, -6.0, -6.0, -6.0])
    assert np.max(np.abs(mus - expected)) < 2e-4


def test_circle_fourier_spectrum():
    model = dl.circle(2.0 * math.pi)
    grid = dl.Grid.uniform(model, 800)
    spectrum = dl.solve_low_spectrum(model, grid, count=6)
    mus = spectrum.eigenvalues()
    expected = np.array([0.0, -1.0, -1.0, -4.0, -4.0, -9.0])
    assert np.max(np.abs(mus - expected)) < 1e-3


def test_first_eigenvalue_round_spheres():
    for n, N, tol in ((2, 2000, 5e-6), (3, 2000, 5e-6), (4, 1500, 1e-5)):
        model, grid = _sphere_grid(n, N)
        fe = dl.first_nonzero_eigenvalue(model, grid)
        assert abs(fe.lam - n) < tol
        assert fe.error_estimate < 1e-4
        assert not fe.ambiguous


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
    target = dl.solve_eigen(assemble(model, grid, 0), 9).modes[8].mu
    assert abs(target + 72.00475) < 1e-4
    verdict = dl.spectrum_contains(model, grid, target, 1e-6)
    assert verdict.contained
    assert verdict.gap < 1e-10
    with pytest.raises(ValueError):
        dl.spectrum_contains(*_circle_grid(400, 0.5), -1.0, 1e-3)


def test_zero_mode_is_constant():
    model, grid = _sphere_grid(2, 500)
    spectrum = dl.solve_eigen(assemble(model, grid, 0), 3)
    zero = spectrum.modes[0]
    scale = abs(spectrum.modes[1].mu)
    assert abs(zero.mu) < 1e-10 * max(1.0, scale)
    assert np.std(zero.u) < 1e-8 * np.abs(zero.u).max()


def test_constants_in_kernel_row_sums():
    model, grid = _sphere_grid(2, 300)
    problem = assemble(model, grid, 0)
    ones = np.ones(grid.size)
    assert np.max(np.abs(problem.apply(ones))) < 1e-9


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
    spectrum = dl.solve_eigen(assemble(model, grid, 0), 5)
    q = grid.weights
    for i, mi in enumerate(spectrum.modes):
        for j, mj in enumerate(spectrum.modes):
            inner = float(np.dot(q, mi.u * mj.u))
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


def test_operator_symmetry_all_topologies():
    model, grid = _sphere_grid(3, 900, eps=0.4)
    for l in (0, 1, 2):
        assert weighted_symmetry_defect(assemble(model, grid, l)) < 1e-12
    circle = dl.circle(2.0 * math.pi,
                       density=dl.cosine_density(0.4, math.pi))
    cgrid = dl.Grid.uniform(circle, 500)
    assert weighted_symmetry_defect(assemble(circle, cgrid, 0)) < 1e-12


def test_nonpositive_spectrum():
    for n, eps in ((2, 0.0), (3, 0.7)):
        model, grid = _sphere_grid(n, 600, eps=eps)
        spectrum = dl.solve_low_spectrum(model, grid, count=5, l_max=2)
        scale = float(np.abs(spectrum.eigenvalues()).max())
        assert np.all(spectrum.eigenvalues() <= 1e-10 * max(1.0, scale))


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
        assert a.eigenvalues().tolist() == b.eigenvalues().tolist()
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(ma.u, mb.u)


def test_circle_solve_matches_dense_reference():
    problem = assemble(*_circle_grid(300, 0.5), 0)
    spectrum = dl.solve_eigen(problem, 6)
    reference = eigh(_matrix(problem) * problem.sqrt_rho[:, None] / problem.sqrt_rho[None, :],
                     eigvals_only=True)[::-1][:6]
    assert np.max(np.abs(spectrum.eigenvalues() - reference)) < 1e-10
    q = problem.grid.weights
    for mode in spectrum.modes:
        residual = problem.apply(mode.u) - mode.mu * mode.u
        assert math.sqrt(float(np.dot(q, residual**2))) < 1e-8


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), eps=st.floats(-0.9, 0.9), N=st.integers(8, 400))
def test_sector_two_lies_below_sector_one(n, eps, N):
    # S_2 = S_1 - (n+1) diag(1/w^2): by Weyl's inequality no l = 2 mode can be lambda_1
    model = dl.sphere(n, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, N)
    top = [dl.solve_eigen(assemble(model, grid, l), 1).modes[0].mu for l in (1, 2)]
    assert top[1] < top[0]


def test_first_eigenvalue_solve_count(monkeypatch):
    # sectors l = 0, 1 at N, then the winning sector at N/2; circles: N and N/2
    calls = []
    solve = spectral.solve_eigen

    def counting_solve(problem, count):
        calls.append(problem.size)
        return solve(problem, count)

    monkeypatch.setattr(spectral, "solve_eigen", counting_solve)
    dl.first_nonzero_eigenvalue(*_sphere_grid(3, 400, eps=0.4), l_max=2)
    assert calls == [400, 400, 200]
    calls.clear()
    dl.first_nonzero_eigenvalue(*_circle_grid(400, 0.5), l_max=2)
    assert calls == [400, 200]


def test_angular_mode_search_matters():
    # on the cosine-density sphere the l = 1 branch lies strictly below the
    # zonal branch, so truncating the search changes the answer
    model, grid = _sphere_grid(2, 800, eps=0.5)
    full = dl.first_nonzero_eigenvalue(model, grid, l_max=2)
    zonal_only = dl.first_nonzero_eigenvalue(model, grid, l_max=0)
    assert full.mode.l == 1
    assert zonal_only.mode.l == 0
    assert full.lam < zonal_only.lam


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
    zonal = dl.solve_eigen(assemble(model, grid, 0), 2).modes[1]
    v, grad_sq = dl.normalize(zonal).samples()
    assert v.shape == grad_sq.shape == (grid.size,)


def test_assemble_rejects_bad_modes():
    model, grid = _sphere_grid(2, 100)
    with pytest.raises(AssemblyError):
        assemble(model, grid, -1)
    with pytest.raises(AssemblyError):
        assemble(model, grid, 1.5)
