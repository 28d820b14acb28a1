"""Test functions, barriers, normalization, and level-set estimate checks."""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import driftlab as dl
from driftlab.errors import (BarrierDomainError, BarrierHypothesisError,
                             DegenerateEigenfunctionError)
from driftlab.estimates import (_SAMPLE_BLOCK, LevelSetMaxima, _bin_index, eta,
                                eta_d1, eta_d2, xi, xi_d1, xi_d2)
from driftlab.spectral import FiberHarmonic, assemble

HALF_PI = math.pi / 2.0

# 30-digit reference values (mpmath) for the closed forms and derivatives.
XI_REFS = {
    0.3: (-1.41929028307825600, 0.321924133450383568, 1.08896434661304865),
    1.0: (-0.911794637357381521, 1.15992797696139746, 1.36622220075466964),
    1.5: (-0.143359728020373295, 1.95684854334479110, 1.88779010907741749),
    HALF_PI - 1e-3: (-0.00209339538153484482, 2.09239593970699134, 1.99832581645399817),
}
ETA_REFS = {
    0.3: (0.164785052952716318, 0.554923866938387044, 0.0568260181121247046),
    1.0: (0.579509734944588831, 0.649913529539309287, 0.229654319062667816),
    1.5: (0.941120100429583091, 0.815072797294468873, 0.454320580042466903),
    HALF_PI - 1e-3: (0.999151423523708011, 0.848326702520734516, 0.499321438586289136),
}


def test_xi_eta_reference_values():
    for t, (v, d1, d2) in XI_REFS.items():
        assert abs(xi(t) - v) < 1e-12
        assert abs(xi_d1(t) - d1) < 1e-10
        assert abs(xi_d2(t) - d2) < 1e-9
    for t, (v, d1, d2) in ETA_REFS.items():
        assert abs(eta(t) - v) < 1e-12
        assert abs(eta_d1(t) - d1) < 1e-10
        assert abs(eta_d2(t) - d2) < 1e-9


def test_special_values():
    assert abs(xi(0.0) - (1.0 - math.pi**2 / 4.0)) < 1e-14
    assert eta(0.0) == 0.0
    assert abs(xi(HALF_PI)) < 1e-14
    assert abs(eta(HALF_PI) - 1.0) < 1e-14
    assert abs(xi(-HALF_PI)) < 1e-14
    assert abs(eta(-HALF_PI) + 1.0) < 1e-14


def test_parity_sweep():
    t = np.linspace(0.0, HALF_PI, 4001)
    assert np.max(np.abs(xi(t) - xi(-t))) < 1e-12
    assert np.max(np.abs(eta(t) + eta(-t))) < 1e-12
    assert np.max(np.abs(xi_d1(t) + xi_d1(-t))) < 1e-10
    assert np.max(np.abs(eta_d1(t) - eta_d1(-t))) < 1e-10


def test_series_matches_direct_across_window():
    # compare the two evaluation branches just outside the switch point
    for s in (2e-3, 5e-3):
        t = HALF_PI - s
        series = np.polynomial.polynomial.polyval(
            s, np.array([0.0, -2 * math.pi / 3, 1.0, -4 * math.pi / 45, 1 / 9,
                         -4 * math.pi / 315, 2 / 135, -8 * math.pi / 4725]))
        assert abs(xi(t) - series) < 1e-8


def test_integrals():
    ix = quad(xi, -HALF_PI, HALF_PI, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    ie = quad(eta, -HALF_PI, HALF_PI, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(ix + math.pi) < 1e-8
    assert abs(ie) < 1e-8


def test_domain_error():
    with pytest.raises(BarrierDomainError):
        xi(2.0)
    with pytest.raises(BarrierDomainError):
        eta(np.array([0.1, -1.8]))


def test_exact_ode_identities():
    # both test functions satisfy their defining second-order identities,
    # which is what makes the touching-point residuals collapse
    t = np.linspace(-HALF_PI, HALF_PI, 10001)
    cos2 = np.cos(t) ** 2
    exi = 0.5 * xi_d2(t) * cos2 - xi_d1(t) * np.cos(t) * np.sin(t) - xi(t) - 2.0 * cos2
    eeta = 0.5 * eta_d2(t) * cos2 - eta_d1(t) * np.cos(t) * np.sin(t) - eta(t) + np.sin(t)
    assert np.max(np.abs(exi)) < 1e-9
    assert np.max(np.abs(eeta)) < 1e-9


def test_barrier_values():
    # z(0) = 1 + mu*delta*(1 - pi^2/4) for a = 0
    assert abs(dl.barrier(0.0, 1.01, 0.2, 0.5).value(0.0) -
               (1.0 + 0.1 * (1.0 - math.pi**2 / 4.0))) < 1e-12
    z = dl.barrier(0.4, 1.01, 0.25, 1.0)
    assert abs(z.value(HALF_PI) - (1.0 + 0.4 / 1.01)) < 1e-12
    i_z = quad(z.value, -HALF_PI, HALF_PI, limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(i_z - (1.0 - 0.25) * math.pi) < 1e-8


def test_barrier_b2b2():
    # sigma = 0 degenerates to the standard barrier with mu = 1
    t = np.linspace(-1.3, 1.3, 101)
    std = dl.barrier(0.2, 1.01, 0.25, 1.0).value(t)
    var = dl.case_b2b2_barrier(0.2, 1.01, 0.25, 0.0).value(t)
    assert np.max(np.abs(std - var)) < 1e-14
    value = dl.case_b2b2_barrier(0.1 * 1.01, 1.01, 0.05, 1.0).value(0.0)
    assert abs(value - (1.0 + 0.04 * (1.0 - math.pi**2 / 4.0))) < 1e-12
    z = dl.case_b2b2_barrier(0.1, 1.01, 0.05, 1.0)
    assert abs(z.value(HALF_PI) - (1.0 + 0.1 / 1.01)) < 1e-12
    with pytest.raises(BarrierHypothesisError):
        dl.case_b2b2_barrier(0.9, 1.01, 0.05, 1.0)  # delta - sigma c^2 < 0


def test_barrier_parameter_validation():
    with pytest.raises(BarrierHypothesisError):
        dl.barrier(-0.1, 1.01, 0.25, 1.0)
    with pytest.raises(BarrierHypothesisError):
        dl.barrier(0.0, 1.0, 0.25, 1.0)
    with pytest.raises(BarrierHypothesisError):
        dl.barrier(0.0, 1.01, 0.6, 1.0)
    with pytest.raises(BarrierHypothesisError):
        dl.barrier(0.0, 1.01, 0.25, 1.5)


@lru_cache(maxsize=None)
def _zonal_s2(N=1200):
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, N)
    spectrum = dl.solve_eigen(assemble(model, grid, 0), 3)
    return model, grid, spectrum.modes[1]


def test_normalize_zonal_symmetric():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0)
    assert abs(nef.k - 1.0) < 1e-9
    assert abs(nef.a) < 1e-9
    assert abs(nef.v_rad.max() - 1.0) < 1e-10
    assert abs(nef.v_rad.min() + 1.0) < 1e-10
    assert nef.residual_inf < 1e-6 * nef.lam
    assert abs(nef.delta - 0.25) < 1e-5  # alpha/lam = 0.5/2


def test_normalize_direct_formula():
    # synthetic samples with max 1 and min -1/3: k = 1/3, a = 1/2,
    # v = (u - 1/3)/(2/3)
    model, grid, mode = _zonal_s2()
    u = np.linspace(-1.0 / 3.0, 1.0, grid.size)
    synthetic = dl.EigenMode(mu=-2.0, l=0, u=u, problem=mode.problem)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # not an exact discrete eigenfunction
        nef = dl.normalize(synthetic, K=1.0)
    assert abs(nef.k - 1.0 / 3.0) < 1e-12
    assert abs(nef.a - 0.5) < 1e-12
    expected = (u - 1.0 / 3.0) / (2.0 / 3.0)
    assert np.max(np.abs(nef.v_rad - expected)) < 1e-12


def test_normalize_sign_flip():
    model, grid, mode = _zonal_s2()
    flipped = dl.EigenMode(mu=mode.mu, l=0,
                           u=-np.linspace(-0.25, 0.75, grid.size),
                           problem=mode.problem)
    # -u has max 0.25, min -0.75: the sign rule flips it back
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nef = dl.normalize(flipped, K=1.0)
    assert nef.v_rad.max() == pytest.approx(1.0, abs=1e-12)
    assert nef.k == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_normalize_rejects_constants():
    model, grid, mode = _zonal_s2()
    const = dl.EigenMode(mu=-2.0, l=0, u=np.ones(grid.size), problem=mode.problem)
    with pytest.raises(DegenerateEigenfunctionError):
        dl.normalize(const, K=1.0)
    with pytest.raises(DegenerateEigenfunctionError):
        dl.normalize(dl.EigenMode(mu=0.0, l=0, u=np.cos(grid.nodes),
                                  problem=mode.problem), K=1.0)


def test_gradient_estimate_zonal():
    # v = cos r: the ratio sin^2 r/(b^2 - cos^2 r) peaks at the equator at 1/b^2
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    gm = dl.gradient_estimate_margin(nef)
    assert abs(gm.sup_ratio - 1.0 / 1.01**2) < 1e-3
    assert gm.margin > 1.0


def test_gradient_estimate_limit_large_b():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1e6)
    gm = dl.gradient_estimate_margin(nef)
    assert gm.sup_ratio < 1e-11
    assert abs(gm.margin - nef.lam) < 1e-6


def test_compute_Z_zonal_center_value():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    levelset = dl.compute_Z(nef, 200)
    center = levelset.values[100]  # bin containing t = 0
    assert abs(center - 1.0 / (2.0 * 1.01**2)) < 1e-3
    assert levelset.occupied.all()
    # after the gradient estimate, Z is bounded by (1 + a)
    assert np.nanmax(levelset.values) <= (1.0 + nef.a) * (1.0 + 1e-9)


def test_compute_Z_marks_empty_bins():
    # more bins than radial samples forces empty bins, which stay NaN
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    samples = dl.compute_Z(nef, 5000)
    assert (~samples.occupied).sum() > 0
    assert np.isnan(samples.values[~samples.occupied]).all()
    assert np.isfinite(samples.values[samples.occupied]).all()


def test_dominance_synthetic_equality_and_failure():
    edges = np.linspace(-1.0, 1.0, 11)
    arg_t = 0.5 * (edges[:-1] + edges[1:])
    values = 1.0 + 0.1 * arg_t**2
    levelset = LevelSetMaxima(edges=edges, values=values, arg_t=arg_t,
                              counts=np.ones(10, dtype=int), b=1.01, lam=2.0)
    same = dl.barrier_dominance_check(levelset, lambda t: 1.0 + 0.1 * t**2)
    assert abs(same.min_margin) < 1e-15
    below = dl.barrier_dominance_check(levelset, lambda t: np.zeros_like(t))
    assert below.min_margin < -1.0  # z = 0 sits far below Z
    assert below.occupied_bins == 10


def test_dominance_zonal_quarter_delta():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    z = dl.barrier(0.0, 1.01, 0.25, 1.0)
    report = dl.barrier_dominance_check(dl.compute_Z(nef, 200), z)
    assert report.min_margin > 0.0


def test_test_estimate_residual_trivial_zero():
    res = dl.test_estimate_residual(1.0, 0.0, 0.0, 0.5, c=0.0, delta=0.0)
    assert res.full[0] == 0.0


def test_test_estimate_residual_cor7_sweep():
    # z = 1 + delta xi meets the symmetric-case identity exactly, so the
    # corollary residual vanishes along the whole sweep
    delta = 0.25
    t = np.linspace(-HALF_PI, HALF_PI, 10001)
    z = 1.0 + delta * xi(t)
    res = dl.test_estimate_residual(z, delta * xi_d1(t), delta * xi_d2(t), t,
                                    c=0.0, delta=delta, a=0.0)
    assert res.cor7_value.min() >= -1e-9
    assert np.max(np.abs(res.cor7_value)) < 1e-9
    assert res.cor7_applicable.all()
    # the full form subtracts a nonnegative term, so it stays below cor7
    assert np.all(res.full <= res.cor7_value + 1e-12)


def test_test_estimate_residual_cor6_identity():
    # the B-1 barrier (mu = 1) collapses the first corollary to zero as well
    a, b, delta = 0.3, 1.01, 0.12
    z = dl.barrier(a, b, delta, 1.0)
    t = np.linspace(-z.domain()[1], z.domain()[1], 2001)
    res = dl.test_estimate_residual(z.value(t), z.d1(t), z.d2(t), t,
                                    c=a / b, delta=delta, a=a)
    assert np.max(np.abs(res.cor6_value)) < 1e-9


def test_test_estimate_residual_tags_inapplicable():
    res = dl.test_estimate_residual(1.0, -0.5, 0.0, 0.3, c=0.1, delta=0.1, a=0.2)
    assert not res.cor6_applicable[0]  # zdot < 0
    assert np.isfinite(res.full[0])    # still evaluated
    with pytest.raises(BarrierHypothesisError):
        dl.test_estimate_residual(-1.0, 0.0, 0.0, 0.3, c=0.0, delta=0.1)


def test_length_integrals_constant_barrier():
    # z = 1: transit integral pi, Holder bound (pi^3/pi)^(1/2) = pi, equality
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    flat = dl.BarrierFamily(a=0.0, b=1.01, delta=0.25, mu=0.0, sigma=None,
                            label="constant")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ledger = dl.length_integral_check(nef, flat, math.pi)
    assert abs(ledger.transit_integral - math.pi) < 1e-10
    assert abs(ledger.holder_bound - math.pi) < 1e-10
    assert abs(ledger.margin_holder) < 1e-10
    assert ledger.margin_transit > 0.0


def test_length_integrals_quarter_delta():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=1.01)
    z = dl.barrier(0.0, 1.01, 0.25, 1.0)
    ledger = dl.length_integral_check(nef, z, math.pi)
    assert abs(ledger.z_integral - 0.75 * math.pi) < 1e-10
    assert ledger.margin_holder >= 0.0
    assert ledger.margin_transit >= 0.0
    # the chain certifies lambda >= pi^3 / (int z * d^2)
    implied = math.pi**3 / (ledger.z_integral * math.pi**2)
    assert nef.lam >= implied


_TRANSIT_BARRIERS = [
    *(dl.barrier(a, b, delta, mu) for a in (0.0, 0.3, 0.9) for b in (1.01, 2.0)
      for delta in (0.1, 0.5) for mu in (0.25, 1.0)),
    *(dl.case_b2b2_barrier(a, 1.01, delta, sigma) for a in (0.05, 0.3)
      for delta in (0.1, 0.5) for sigma in (0.5, 1.0)),
]


@pytest.mark.parametrize("z", _TRANSIT_BARRIERS,
                         ids=lambda z: f"{z.label}:a={z.a:g}:b={z.b:g}:delta={z.delta:g}")
def test_transit_integral_matches_quad(z):
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0, b=z.b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # z.a need not match nef.a here
        ledger = dl.length_integral_check(nef, z, math.pi)
    oracle = quad(lambda t: 1.0 / math.sqrt(z.value(t)), -HALF_PI, HALF_PI,
                  limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(ledger.transit_integral - oracle) <= 1e-11


def test_length_integrals_rejects_degenerate_diameter():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, K=1.0)
    with pytest.raises(ValueError):
        dl.length_integral_check(nef, dl.barrier(0.0, 1.01, 0.25, 1.0), 0.0)


def test_fiber_harmonics():
    psi = np.linspace(0.0, math.pi, 501)
    # n = 3: degree-1 zonal harmonic is cos(psi) itself
    f31 = FiberHarmonic(n=3, l=1)
    assert np.max(np.abs(f31.value_at(psi) - np.cos(psi))) < 1e-12
    assert np.max(np.abs(f31.dpsi_at(psi) + np.sin(psi))) < 1e-12
    # n = 2: cos(l psi); derivative matches differences
    f22 = FiberHarmonic(n=2, l=2)
    assert np.max(np.abs(f22.value_at(psi) - np.cos(2 * psi))) < 1e-12
    h = 1e-5
    mid = psi[1:-1]
    fd = (f22.value_at(mid + h) - f22.value_at(mid - h)) / (2 * h)
    assert np.max(np.abs(f22.dpsi_at(mid) - fd)) < 1e-8
    # normalization at the fiber pole
    for n in (3, 4, 6):
        for l in (1, 2):
            assert FiberHarmonic(n=n, l=l).value_at(0.0) == pytest.approx(1.0)


@lru_cache(maxsize=None)
def _l1_mode(N=900):
    model = dl.sphere(3, density=dl.cosine_density(0.4))
    fe = dl.first_nonzero_eigenvalue(model, dl.Grid.uniform(model, N))
    assert fe.mode.l == 1
    return fe.mode


@lru_cache(maxsize=None)
def _l2_mode():
    model = dl.sphere(3)
    grid = dl.Grid.uniform(model, 900)
    return dl.solve_eigen(assemble(model, grid, 2), 1).modes[0]


def _streamed(nef):
    """The sampler's blocks, concatenated to flat (v, |grad v|^2) arrays."""
    blocks = list(nef.samples())
    return (np.concatenate([v for v, _ in blocks]),
            np.concatenate([g for _, g in blocks]))


def _full_samples(nef):
    """Brute-force (radial x latitude) product over the 241 latitudes; the
    radial grid alone for zonal modes."""
    if nef.fiber is None:
        return nef.v_rad, nef.dv_rad ** 2
    psi = np.linspace(0.0, math.pi, 241)
    g, gp = nef.fiber.value_at(psi), nef.fiber.dpsi_at(psi)
    wv = np.asarray(nef.model.w.value(nef.grid.nodes), dtype=float)
    v = (np.outer(nef.v_rad, g) - nef.shift).ravel()
    grad_sq = (np.outer(nef.dv_rad, g) ** 2 + np.outer(nef.v_rad / wv, gp) ** 2).ravel()
    return v, grad_sq


def _reference_Z(v, grad_sq, b, lam, bins):
    """Per-bin maxima over full sample arrays; ties go to the first sample."""
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    t = np.arcsin(v / b)
    val = grad_sq / (lam * (b**2 - v * v))
    keep = (t >= edges[0]) & (t <= edges[-1])
    t, val = t[keep], val[keep]
    idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    values = np.full(bins, np.nan)
    arg_t = np.full(bins, np.nan)
    for j in np.flatnonzero(counts):
        members = np.flatnonzero(idx == j)
        first = members[np.argmax(val[members])]
        values[j], arg_t[j] = val[first], t[first]
    return values, arg_t, counts


def test_normalize_l1_mode_symmetric():
    nef = dl.normalize(_l1_mode(), b=1.01)
    assert nef.a == 0.0
    assert nef.fiber is not None
    v = _streamed(nef)[0].reshape(nef.v_rad.size, -1)
    assert abs(v.max() - 1.0) < 1e-12
    assert abs(v.min() + 1.0) < 1e-12
    # the degree-1 fiber harmonic is cos(psi): the fiber poles carry +-v_rad
    assert np.array_equal(v[:, 0], nef.v_rad)
    assert np.array_equal(v[:, -1], -nef.v_rad)
    gm = dl.gradient_estimate_margin(nef)
    assert gm.sup_ratio <= gm.bound * 1.01


def test_normalize_l2_mode_asymmetric():
    # even zonal fiber harmonics on fibers of dimension >= 2 bottom out above
    # -1 (Legendre P_2 reaches -1/2), so an l = 2 mode has k = 1/2, a = 1/3
    mode = _l2_mode()
    assert abs(mode.lam - 8.0) < 1e-3  # second spherical-harmonic level of S^3
    nef = dl.normalize(mode, K=1.0, b=1.01)
    assert nef.k == pytest.approx(0.5, abs=1e-6)
    assert nef.a == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert nef.shift == nef.a
    v = _streamed(nef)[0].reshape(nef.v_rad.size, -1)
    assert abs(v.max() - 1.0) < 1e-10
    assert abs(v.min() + 1.0) < 1e-10
    # P_2 is 1 at both fiber poles, which carry v_rad - a
    assert np.array_equal(v[:, 0], nef.v_rad - nef.shift)
    assert np.array_equal(v[:, -1], nef.v_rad - nef.shift)
    assert nef.residual_inf < 1e-6 * nef.lam
    gm = dl.gradient_estimate_margin(nef)
    assert gm.sup_ratio <= gm.bound * (1.0 + 1e-2)


@pytest.mark.parametrize("mode", [_l1_mode, _l2_mode])
def test_normalize_corner_extremes_match_full_product(mode):
    mode = mode()
    g = FiberHarmonic(n=mode.problem.model.n, l=mode.l).value_at(
        np.linspace(0.0, math.pi, 241))
    u = mode.u
    product = np.outer(u, g)
    pmax, pmin = product.max(), product.min()
    if -pmin > pmax:
        u, pmax, pmin = -u, -pmin, -pmax
    k = -pmin / pmax
    nef = dl.normalize(mode, K=1.0)
    assert nef.k == k
    assert np.array_equal(nef.v_rad, u * (2.0 / ((1.0 + k) * pmax)))


def _zonal_mode(N):
    model = dl.sphere(3, density=dl.cosine_density(0.4))
    return dl.solve_eigen(assemble(model, dl.Grid.uniform(model, N), 0), 2).modes[1]


def test_streamed_sampler_matches_full_arrays():
    cases = {"l1": _l1_mode(3 * _SAMPLE_BLOCK + 100),
             "l2, shift a != 0": _l2_mode(),
             "zonal": _zonal_mode(2 * _SAMPLE_BLOCK + 7),
             "N on a block boundary": _l1_mode(2 * _SAMPLE_BLOCK),
             "one-row last block": _l1_mode(2 * _SAMPLE_BLOCK + 1)}
    for case, mode in cases.items():
        nef = dl.normalize(mode, K=1.0, b=1.01)
        v, grad_sq = _full_samples(nef)
        streamed_v, streamed_grad_sq = _streamed(nef)
        assert np.array_equal(streamed_v, v), case
        assert np.array_equal(streamed_grad_sq, grad_sq), case

        sup = float((grad_sq / (nef.b * nef.b - v * v)).max())
        assert dl.gradient_estimate_margin(nef).sup_ratio == sup, case

        # the one walk behind the estimates check: Z(t) and the gradient sup
        levelset = dl.compute_Z(nef, 200)
        assert levelset.sup_ratio == sup, case
        values, arg_t, counts = _reference_Z(v, grad_sq, nef.b, nef.lam, 200)
        assert np.array_equal(levelset.values, values, equal_nan=True), case
        assert np.array_equal(levelset.arg_t, arg_t, equal_nan=True), case
        assert np.array_equal(levelset.counts, counts), case


@settings(max_examples=200, deadline=None)
@given(bins=st.integers(1, 400), b=st.floats(1.0, 3.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
def test_bin_index_matches_searchsorted(bins, b, seed):
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    t = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        np.random.default_rng(seed).uniform(edges[0], edges[-1], 1000)])
    t = t[(t >= edges[0]) & (t <= edges[-1])]
    expected = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, bins - 1)
    assert np.array_equal(_bin_index(t, edges), expected)


class _Blocks:
    """Stand-in eigenfunction whose samples() yields the given blocks."""

    def __init__(self, blocks, b):
        self.blocks, self.b, self.lam = blocks, b, 1.0

    def samples(self):
        yield from self.blocks


def test_compute_Z_ties_keep_the_first_maximizer():
    # grad_sq = val (b^2 - v^2) with val a power of two gives val back exactly,
    # so the maximum 2 is tied within the first block and across blocks
    b = 1.01

    def block(v, val):
        v = np.array(v)
        return v, np.array(val) * (b**2 - v * v)

    blocks = [block([0.5, 0.30, 0.31], [1.0, 2.0, 2.0]),
              block([0.305, 0.32], [2.0, 1.0]),
              block([-0.9, -0.95], [1.0, 4.0])]
    levelset = dl.compute_Z(_Blocks(blocks, b), 4)
    v = np.concatenate([v for v, _ in blocks])
    grad_sq = np.concatenate([g for _, g in blocks])
    values, arg_t, counts = _reference_Z(v, grad_sq, b, 1.0, 4)
    assert np.array_equal(levelset.values, values, equal_nan=True)
    assert np.array_equal(levelset.arg_t, arg_t, equal_nan=True)
    assert np.array_equal(levelset.counts, counts)
    assert levelset.values[2] == 2.0
    assert levelset.arg_t[2] == np.arcsin(0.30 / b)
    assert levelset.values[0] == 4.0
