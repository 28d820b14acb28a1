"""Curvature, measure, and diameter checks for the warped model geometry."""

import dataclasses
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import driftlab as dl


@lru_cache(maxsize=None)
def _warp_terms(length, r):
    """(A, B) with Ric_rr = (n-1) A and Ric_tan = A + (n-2) B, from 30-digit
    mpmath derivatives of the round warp w = rho sin(r/rho), rho = L/pi:
    A = -w''/w and B = (1 - w'^2)/w^2 inside, and at a pole p, by
    L'Hopital, A = B = -w^(3)(p)/w'(p)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rho = mpmath.mpf(length) / mpmath.pi
        w = lambda x: rho * mpmath.sin(x / rho)  # noqa: E731
        x = mpmath.mpf(r)
        if r in (0.0, length):
            a = -mpmath.diff(w, x, 3) / mpmath.diff(w, x)
            return a, a
        w0, w1, w2 = (mpmath.diff(w, x, k) for k in range(3))
        return -w2 / w0, (1 - w1**2) / w0**2


@lru_cache(maxsize=None)
def _density_terms(coeffs, length, r):
    """(phi'', H) with Hess(phi) = diag(phi'', H), from 30-digit mpmath
    derivatives of phi = p(cos(pi r/L)) and w: H = phi' w'/w inside, and
    phi''(p) at a pole p, where Hess(phi) is isotropic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rho = mpmath.mpf(length) / mpmath.pi
        w = lambda x: rho * mpmath.sin(x / rho)  # noqa: E731
        phi = lambda x: sum(mpmath.mpf(c) * mpmath.cos(x / rho) ** j  # noqa: E731
                            for j, c in enumerate(coeffs))
        x = mpmath.mpf(r)
        p2 = mpmath.diff(phi, x, 2)
        if r in (0.0, length):
            return p2, p2
        return p2, mpmath.diff(phi, x) * mpmath.diff(w, x) / w(x)


def _ricphi_oracle(n, length, coeffs, r):
    """(Ric_phi,rr, Ric_phi,tan) at r, independent of driftlab: the warped
    product's Ric_rr = -(n-1) w''/w and Ric_tan = -w''/w + (n-2)(1 - w'^2)/w^2,
    plus Hess(phi), all from mpmath derivatives at 30 digits."""
    a, b = _warp_terms(length, r)
    p2, h = _density_terms(tuple(coeffs), length, r)
    return float((n - 1) * a + p2), float(a + (n - 2) * b + h)


def _ricphi_sampled(model, r):
    """(Ric_phi,rr, Ric_phi,tan) at interior points r in floats, from the
    model's density derivatives and the round warp's identities
    -w''/w = (1 - w'^2)/w^2 = 1/rho^2, with phi' w'/w = phi' cot(r/rho)/rho."""
    rho = model.L / math.pi
    rr = (model.n - 1) / rho**2 + model.phi.d2(r)
    tan = (model.n - 1) / rho**2 + model.phi.d1(r) / (rho * np.tan(r / rho))
    return rr, tan


def test_unit_s2_is_einstein():
    # Ric = g at the poles and inside, so K_eff is 1 and the soliton
    # equation with gamma = 1 and f = 0 has residual 0
    model = dl.sphere(2)
    for r in (0.0, 0.3, 1.5, 2.9, math.pi):
        assert _ricphi_oracle(2, math.pi, (0.0,), r) == pytest.approx((1.0, 1.0), abs=1e-15)
    assert dl.be_ricci_lower_bound(model).K == 1.0
    led = dl.soliton_ledger(dl.SolitonCandidate(dl.Grid.uniform(model, 800), gamma=1.0))
    assert led.radial == led.tangential == 0.0


def test_unit_s4_scalar_curvature():
    # R = Ric_rr + 3 Ric_tan = 12 on the unit S^4; the soliton ledger's
    # trace identity R - 4 gamma + Delta f reads it as 12 - 10 at gamma = 2.5
    for r in (0.2, 1.0, 2.7):
        rr, tan = _ricphi_oracle(4, math.pi, (0.0,), r)
        assert rr + 3.0 * tan == pytest.approx(12.0, abs=1e-13)
    model = dl.sphere(4)
    led = dl.soliton_ledger(dl.SolitonCandidate(dl.Grid.uniform(model, 800), gamma=2.5))
    assert led.trace_sup == 2.0 and led.constancy_std == 0.0


def test_pole_limits_match_interior():
    # at a pole Ric_phi is isotropic: both eigenvalues tend to the closed
    # form's pole value rho^2 Ric_phi = (n-1) - c1 c - 2 c2 at c = +-1, which
    # K_eff takes at the r = 0 pole of the cosine S^3
    model = dl.sphere(3, density=dl.cosine_density(0.5))
    coeffs = model.phi.coeffs
    for pole, inside, expected in ((0.0, 1e-4, 1.5), (math.pi, math.pi - 1e-4, 2.5)):
        at_pole = _ricphi_oracle(3, math.pi, coeffs, pole)
        assert at_pole == pytest.approx((expected, expected), abs=1e-14)
        assert _ricphi_oracle(3, math.pi, coeffs, inside) == pytest.approx(at_pole, abs=1e-7)
    kb = dl.be_ricci_lower_bound(model)
    assert (kb.K, kb.radius) == (0.75, 0.0)


def test_cosine_density_ricci_pointwise():
    # on the unit S^2, Ric_phi = (1 - eps cos r) g for phi = eps cos r
    eps = 0.3
    grid = dl.Grid.uniform(dl.sphere(2, density=dl.cosine_density(eps)), 50)
    for r in grid.nodes:
        expected = 1.0 - eps * math.cos(r)
        assert _ricphi_oracle(2, math.pi, (0.0, eps), r) == \
            pytest.approx((expected, expected), abs=1e-14)


def test_cosine_density_hessian_against_embedded_fd_oracle():
    # On the unit 2-sphere embedded in R^3, phi = eps*cos(r) is eps*z, and the
    # Hessian along geodesics can be differenced directly in the embedding:
    # radial geodesics vary the colatitude, tangential ones are great circles
    # through the point in the latitude direction.
    # The model gives Hess(phi) as (phi'', phi' w'/w) from its density and warp.
    eps = 0.4
    model = dl.sphere(2, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, 400)
    r = grid.nodes
    hess_rr = model.phi.d2(r)
    hess_tan = model.phi.d1(r) * model.w.d1(r) / model.w.value(r)
    h = 1e-4

    def phi_of_z(z):
        return eps * z

    for idx in (40, 133, 200, 333):
        x = r[idx]
        # radial: second difference of phi along the meridian
        fd_rr = (phi_of_z(math.cos(x + h)) - 2.0 * phi_of_z(math.cos(x))
                 + phi_of_z(math.cos(x - h))) / h**2
        # tangential: great circle gamma(s) = cos(s) p + sin(s) e with e the
        # unit latitude direction; its z-coordinate is cos(s) cos(x)
        fd_tan = (phi_of_z(math.cos(h) * math.cos(x)) - 2.0 * phi_of_z(math.cos(x))
                  + phi_of_z(math.cos(-h) * math.cos(x))) / h**2
        assert abs(hess_rr[idx] - fd_rr) < 1e-6
        assert abs(hess_tan[idx] - fd_tan) < 1e-6


def test_ricci_lower_bound_unit_spheres():
    for n in (2, 3, 5):
        model = dl.sphere(n)
        kb = dl.be_ricci_lower_bound(model)
        assert abs(kb.K - 1.0) < 1e-10


def test_ricci_lower_bound_half_cosine():
    # min of 1 - 0.5 cos r over [0, pi] is 0.5, attained at the r = 0 pole
    model = dl.sphere(2, density=dl.cosine_density(0.5))
    kb = dl.be_ricci_lower_bound(model)
    assert abs(kb.K - 0.5) < 1e-12
    assert kb.radius == 0.0


def test_ricci_lower_bound_vanishing_flagged():
    # 1 + cos r vanishes at r = pi; the pole limit makes this exact
    model = dl.sphere(2, density=dl.cosine_density(-1.0))
    kb = dl.be_ricci_lower_bound(model)
    assert abs(kb.K) < 1e-14
    assert abs(kb.radius - math.pi) < 1e-12


def test_weighted_measure_sphere_area():
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 4000)
    total = float(np.sum(grid.weights * np.ones(grid.size)))
    assert abs(total - 4.0 * math.pi) / (4.0 * math.pi) < 1e-7


def test_weighted_measure_odd_symmetry():
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 2000)
    val = float(np.sum(grid.weights * np.cos(grid.nodes)))
    assert abs(val) < 1e-12


def test_weighted_measure_cosine_density_oracle():
    # int over S^2 of e^{-cos r} dV = 2 pi int_0^pi sin(r) e^{-cos r} dr
    #                               = 2 pi (e - 1/e)
    model = dl.sphere(2, density=dl.cosine_density(1.0))
    grid = dl.Grid.uniform(model, 20000)
    total = float(np.sum(grid.weights * np.ones(grid.size)))
    closed = 2.0 * math.pi * (math.e - 1.0 / math.e)
    oracle = 2.0 * math.pi * quad(lambda r: math.sin(r) * math.exp(-math.cos(r)),
                                  0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(closed - oracle) < 1e-10
    assert abs(total - closed) / closed < 1e-8


def test_measure_consistency_total_volume():
    # the volume integrand is symmetric at both poles, so the midpoint rule is
    # super-convergent here; consistency at 1e-8 holds already at modest N
    model = dl.sphere(3, density=dl.cosine_density(0.5))
    oracle = dl.unit_fiber_area(3) * quad(
        lambda r: math.sin(r) ** 2 * math.exp(-0.5 * math.cos(r)),
        0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    grid = dl.Grid.uniform(model, 400)
    assert abs(float(np.sum(grid.weights * np.ones(grid.size))) - oracle) / oracle < 1e-8


def test_measure_second_order_on_asymmetric_integrand():
    # e^r breaks the pole symmetry, exposing the scheme's generic h^2 error
    model = dl.sphere(2)
    oracle = dl.unit_fiber_area(2) * quad(
        lambda r: math.sin(r) * math.exp(r), 0.0, math.pi,
        epsabs=1e-13, epsrel=1e-13)[0]
    errs = []
    ns = (100, 200, 400, 800)
    for N in ns:
        grid = dl.Grid.uniform(model, N)
        errs.append(abs(float(np.sum(grid.weights * np.exp(grid.nodes))) - oracle))
    slope = np.polyfit(np.log([1.0 / N for N in ns]), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_diameter_closed_forms():
    assert dl.diameter(dl.sphere(2)) == math.pi
    assert dl.diameter(dl.sphere(5)) == math.pi
    assert dl.diameter(dl.circle(2.0 * math.pi)) == math.pi
    assert dl.diameter(dl.interval_sphere(3, 2.5)) == 2.5


def test_scaling_covariance():
    # metric scaled by c^2: diameter scales by c, curvature by 1/c^2, so
    # K_eff and the Einstein soliton's gamma scale by 1/c^2
    c = 2.0
    unit = dl.sphere(3)
    scaled = dl.sphere(3, radius=c)
    assert abs(dl.diameter(scaled) - c * dl.diameter(unit)) < 1e-14
    assert dl.be_ricci_lower_bound(scaled).K == dl.be_ricci_lower_bound(unit).K / c**2
    assert _ricphi_oracle(3, scaled.L, (0.0,), 1.0) == pytest.approx((0.5, 0.5), abs=1e-15)
    led = dl.soliton_ledger(dl.SolitonCandidate(dl.Grid.uniform(scaled, 300), gamma=2.0 / c**2))
    assert led.worst == 0.0


def test_pole_regularity_rejected():
    # a model takes no warp: every interval sphere has the round warp of its
    # length, which vanishes at both poles with slopes +1 and -1
    with pytest.raises(TypeError, match="w"):
        dl.WarpedManifold(topology=dl.INTERVAL_SPHERE, n=2, L=math.pi,
                          w=dl.RoundWarp(2.0), coeffs=(0.0,))
    for length in (math.pi, 2.5):
        w = dl.interval_sphere(2, length).w
        assert w == dl.RoundWarp(length)
        assert w.value(0.0) == 0.0 and abs(w.value(length)) <= 1e-15 * length
        assert w.d1(0.0) == 1.0 and w.d1(length) == -1.0
        assert np.all(w.value(np.linspace(0.0, length, 513)[1:-1]) > 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), length=st.floats(0.5, 8.0),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
def test_an_interval_sphere_density_is_flat_at_both_poles(n, length, coeffs):
    # phi = p(cos(pi r/L)) and d/dr cos(pi r/L) vanishes at r = 0 and r = L,
    # so grad phi is smooth at both poles by construction: phi'(0) is exactly
    # 0, and phi'(L) is k p'(c) sin(k L) with |p'| <= |c1| + 2 |c2| and
    # k L within a few rounding units of pi (|sin(k L)| read at most 2.6 eps
    # over 2e5 random L in [0.5, 8])
    model = dl.interval_sphere(n, length, density=coeffs)
    c1, c2 = (list(coeffs) + [0.0, 0.0])[1:3]
    k = math.pi / length
    at_zero, at_length = model.phi.d1(np.array([0.0, length]))
    assert at_zero == 0.0
    assert abs(at_length) <= 8.0 * np.finfo(float).eps * k * (abs(c1) + 2.0 * abs(c2))


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("shift", [400.0, -400.0], ids=["vanishing", "infinite"])
def test_grid_rejects_a_density_that_is_not_positive_and_finite(shift):
    # phi = 400 cos r + shift spans [0, 800] or [-800, 0], so e^{-phi}
    # underflows to 0 (or overflows to inf) at the nodes near one pole; the
    # grid's weight check sees the real weights, not placeholders
    model = dl.sphere(2, density=(shift, 400.0))
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        dl.Grid.uniform(model, 64)


def test_grid_invariants():
    model = dl.sphere(2, density=dl.cosine_density(0.7))
    grid = dl.Grid.uniform(model, 64)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.size == 64
    # the grid carries its model, and its weights are Vol(S^{n-1}) rho h
    assert grid.model is model
    assert np.array_equal(grid.weights, dl.unit_fiber_area(2) * grid.density * grid.spacing)


LING = (0.0, -1.0, -0.25)  # configs/ling_cases.json


def _ling_model(n):
    return dl.sphere(n, density=LING)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_lower_bound_matches_an_mpmath_minimization_on_the_ling_models(n):
    # phi = -c - c^2/4 with c = cos r on the unit sphere: the radial
    # eigenvalue (n-1) + phi'' and the tangential one (n-1) + phi' cot r,
    # minimized in 40-digit arithmetic with numerical derivatives
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def phi(r):
            c = mpmath.cos(r)
            return -c - c * c / 4

        def radial(r):
            return (n - 1) + mpmath.diff(phi, r, 2)

        def tangential(r):
            return (n - 1) + mpmath.diff(phi, r) * mpmath.cot(r)

        # each eigenvalue's critical points inside (0, pi), from a sampled
        # sign change of its derivative, and the poles' common limit
        candidates = [(radial(mpmath.mpf(0)), 0.0), (radial(mpmath.pi), math.pi)]
        for f in (radial, tangential):
            slope = [mpmath.diff(f, mpmath.pi * k / 64) for k in range(1, 64)]
            for k in range(1, 63):
                if slope[k - 1] < 0 < slope[k]:
                    r = mpmath.findroot(lambda x: mpmath.diff(f, x), mpmath.pi * (k + 1) / 64)
                    candidates.append((f(r), float(r)))
        best, where = min(candidates, key=lambda vr: vr[0])
        best = float(best / (n - 1))
    kb = dl.be_ricci_lower_bound(_ling_model(n))
    assert abs(kb.K - best) <= 2e-16
    # rho acos(c) at the vertex c = -1/2, rho = 1, is 2 pi/3 correctly rounded
    assert abs(kb.radius - where) <= 1e-15


def test_ricci_lower_bound_finds_a_minimum_between_cell_centres():
    # the Ling n = 3 radial eigenvalue 2 + c + c^2 - 1/2 is least, 5/4, at
    # c = -1/2, r = 2 pi/3, which is not a cell centre at N = 400; the
    # minimum over the cell centres over-reads it
    model = _ling_model(3)
    kb = dl.be_ricci_lower_bound(model)
    assert kb.K == 0.625
    assert kb.radius == math.acos(-0.5)
    assert _ricphi_oracle(3, math.pi, LING, kb.radius)[0] == pytest.approx(1.25, abs=1e-15)
    nodes = dl.Grid.uniform(model, 400).nodes
    cell_min = np.minimum(*_ricphi_sampled(model, nodes)).min() / 2.0
    assert cell_min - 0.625 > 1e-7


# the densities of the shipped sweeps: cosine amplitudes and the Ling model
# and 0.3 cos 2r = -0.3 + 0.6 cos^2 r, whose K_eff is least at both poles
_ORACLE_DENSITIES = {"cosine(-0.5)": (0.0, -0.5), "cosine(0.1)": (0.0, 0.1),
                     "cosine(0.5)": (0.0, 0.5), "cosine(0.9)": (0.0, 0.9), "ling": LING,
                     "0.3cos2r": (-0.3, 0.0, 0.6)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("density", list(_ORACLE_DENSITIES))
def test_ricci_lower_bound_matches_an_independent_ricci_oracle(density, n):
    # K_eff and where it is attained against the mpmath Ric_phi at both
    # poles, at the reported radius (a pole or the vertex) and at 1000
    # interior points: every sample lies at or above K_eff, to the closed
    # form's rounding, and the reported radius attains it
    coeffs = _ORACLE_DENSITIES[density]
    model = dl.sphere(n, density=coeffs)
    kb = dl.be_ricci_lower_bound(model)
    c1, c2 = (list(coeffs) + [0.0, 0.0])[1:3]
    rounding = 16.0 * np.finfo(float).eps * (n - 1 + abs(c1) + 6.0 * abs(c2)) / (n - 1)
    points = [0.0, math.pi] + [math.pi * k / 1001 for k in range(1, 1001)]
    least = min(min(_ricphi_oracle(n, math.pi, coeffs, r)) for r in points) / (n - 1)
    assert kb.K <= least + rounding
    attained = min(_ricphi_oracle(n, math.pi, coeffs, kb.radius)) / (n - 1)
    assert abs(attained - kb.K) <= rounding


def test_ricci_lower_bound_does_not_depend_on_the_grid():
    # K_eff is the model's, so the Ling report rows carry the same K_eff
    # and K_min_radius at every N
    from driftlab import config as cfg, runner
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "ling_cases.json").read_text())
    raw.update(grids=[400, 100000], checks=["spectrum"])
    rows = [res.record for res in runner.run(cfg.parse_config(raw)).results]
    for n in (2, 3, 4):
        small, large = (r for r in rows if r.n == n)
        assert {small.N, large.N} == {400, 100000}
        assert small.K_eff == large.K_eff == dl.be_ricci_lower_bound(_ling_model(n)).K
        assert small.K_min_radius == large.K_min_radius


def test_ricci_lower_bound_tie_goes_to_the_smallest_radius():
    # Ric_phi is exactly constant on unit round spheres, so every candidate
    # ties and the pole r = 0 is reported
    for n in (2, 3, 5):
        kb = dl.be_ricci_lower_bound(dl.sphere(n))
        assert kb.K == 1.0 and kb.radius == 0.0


def test_poly_cos_density_is_capped_at_degree_two():
    # be_ricci_lower_bound's closed form takes each Ric_phi eigenvalue as a
    # quadratic in cos(pi r/L), which a degree above 2 would break
    dl.sphere(2, density=[0.0, -1.0, -0.25])
    for coeffs in ([0.0, 0.0, 0.0, 1.0], []):
        with pytest.raises(ValueError, match="1 to 3 finite coefficients"):
            dl.sphere(2, density=coeffs)
    from driftlab import config as cfg
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "ling_cases.json").read_text())
    raw["family"]["density"]["coeffs"] = [0.0, -1.0, -0.25, 0.1]
    with pytest.raises(cfg.ConfigError, match="at most 3 coeffs"):
        cfg.parse_config(raw)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), length=st.floats(1.0, 8.0),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
def test_closed_form_ricci_lower_bound_is_the_sampled_minimum(n, length, coeffs):
    # the closed form against Ric_phi at 20001 cell centres: at or below
    # every sample, to rounding, and below their least by no more than
    # sampling allows.  Each eigenvalue is stationary in r where it is least
    # (at a pole, or at a vertex in c), and a centre lies within h/2 of that
    # point, so the least sample over-reads K_eff by at most
    # max |d^2 Ric_phi / dr^2| (h/2)^2 / 2, over (n-1).
    model = dl.interval_sphere(n, length, density=coeffs)
    kb = dl.be_ricci_lower_bound(model)
    grid = dl.Grid.uniform(model, 20001)
    least = float(np.minimum(*_ricphi_sampled(model, grid.nodes)).min()) / (n - 1)
    c1, c2 = (list(coeffs) + [0.0, 0.0])[1:3]
    rho = length / math.pi
    rounding = 16.0 * np.finfo(float).eps * (n - 1 + abs(c1) + 6.0 * abs(c2)) \
        / ((n - 1) * rho**2)
    # rho^2 Ric_phi = a + b c + q c^2 with |b| = |c1|, |q| <= 4 |c2|
    second = (abs(c1) + 16.0 * abs(c2)) / ((n - 1) * rho**4)
    assert kb.K <= least + rounding
    assert least - kb.K <= second * grid.spacing**2 / 8.0 + rounding


def test_a_density_is_read_in_the_model_coordinate():
    # 0.3 cos 2r on the unit S^2 is written in c = cos r as (-0.3, 0, 0.6);
    # rho^2 Ric_phi is 1 + 1.2 - 2.4 c^2 radially and 1 - 1.2 c^2
    # tangentially, both -0.2 at the poles
    model = dl.sphere(2, density=(-0.3, 0.0, 0.6))
    r = np.linspace(0.0, math.pi, 101)
    assert np.allclose(model.phi.value(r), 0.3 * np.cos(2.0 * r), rtol=0.0, atol=1e-15)
    kb = dl.be_ricci_lower_bound(model)
    assert kb.K == pytest.approx(-0.2, abs=1e-15)
    # cosine(0.5) on the radius-2 S^3 is 0.5 cos(r/2): min of (2 - 0.5 c)/4
    # at the pole c = 1
    kb = dl.be_ricci_lower_bound(dl.sphere(3, radius=2.0, density=dl.cosine_density(0.5)))
    assert kb.K == 1.5 / 8.0 and kb.radius == 0.0


def test_curvature_refuses_circles():
    # a circle has no warp, so neither K_eff nor the soliton ledger's
    # curvature applies to it
    ring = dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5))
    assert ring.w is None
    with pytest.raises(ValueError, match="circles"):
        dl.be_ricci_lower_bound(ring)
    with pytest.raises(ValueError, match="interval-sphere models"):
        dl.SolitonCandidate(dl.Grid.uniform(ring, 64), gamma=1.0)


@pytest.mark.parametrize("coeffs", [[0.5], [0.5, 0.0, 0.0]], ids=["c0", "c0-0-0"])
def test_ricci_lower_bound_takes_a_constant_density_of_any_length(coeffs):
    # a constant density has Hess(phi) = 0, so Ric_phi = Ric and K = 1/rho^2
    # on the round S^2 of every length L = pi rho
    for length in (2.0, math.pi):
        kb = dl.be_ricci_lower_bound(dl.interval_sphere(2, length, density=coeffs))
        assert kb.K == 1.0 / (length / math.pi) ** 2 and kb.radius == 0.0


def test_constructors_record_the_round_cos_family():
    assert dl.cosine_density(0.3) == (0.0, 0.3)
    poly = dl.sphere(2, density=[1, -1, 0.5])
    assert poly.coeffs == (1.0, -1.0, 0.5)
    assert poly.phi == dl.CosPolynomial((1.0, -1.0, 0.5), math.pi)
    assert dl.RoundWarp(2.0 * math.pi).rho == 2.0
    # interval_sphere and sphere build the round warp and the density of the
    # model's own L; a circle reads its density on the mirror half L/2
    for model in (dl.interval_sphere(3, 2.5), dl.sphere(3, radius=0.7)):
        assert model.w == dl.RoundWarp(model.L)
        assert model.coeffs == (0.0,) and model.phi == dl.CosPolynomial((0.0,), model.L)
    ring = dl.circle(2.5, density=dl.cosine_density(0.3))
    assert ring.coeffs == (0.0, 0.3) and ring.phi == dl.CosPolynomial((0.0, 0.3), 1.25)


def test_a_model_is_its_geometry():
    # a model holds topology, n, L and coefficients only: the unit S^2 is the
    # interval sphere of length pi, however it was built
    assert dl.sphere(2) == dl.interval_sphere(2, math.pi)
    assert dl.sphere(3, density=dl.cosine_density(0.5)) == dl.interval_sphere(3, math.pi, (0.0, 0.5))
    fields = {f.name for f in dataclasses.fields(dl.WarpedManifold)}
    assert fields == {"topology", "n", "L", "coeffs"}


def test_shifted_density_keeps_its_record():
    # K_eff does not depend on the constant term c0, the only one a shift moves
    moved = dl.sphere(3, density=(0.7, -1.0, -0.25))
    assert moved.coeffs == (0.7, -1.0, -0.25)
    assert dl.be_ricci_lower_bound(moved) == dl.be_ricci_lower_bound(_ling_model(3))
    assert dl.sphere(3, density=(-1.0,)).phi.value(np.array([0.5])) == -1.0


@pytest.mark.parametrize("coeffs, length", [
    ([0.0, math.nan], math.pi), ([0.0, math.inf], math.pi), ([-math.inf], math.pi),
    ([0.0, 0.5], 0.0), ([0.0, 0.5], -1.0), ([0.0, 0.5], math.inf), ([0.0, 0.5], math.nan)])
def test_cos_polynomial_rejects_non_finite_input(coeffs, length):
    with pytest.raises(ValueError, match="finite"):
        dl.CosPolynomial(coeffs, length)


@pytest.mark.parametrize("coeffs", [(0.0, math.nan), (math.inf,), (0.0, 0.5, -math.inf),
                                    (0.0, 0.0, 0.0, 1.0)], ids=["nan", "inf", "-inf", "four"])
@pytest.mark.parametrize("build", [lambda c: dl.sphere(2, density=c),
                                   lambda c: dl.interval_sphere(3, 2.5, density=c),
                                   lambda c: dl.circle(2.0 * math.pi, density=c)],
                         ids=["sphere", "interval-sphere", "circle"])
def test_models_reject_bad_coefficients_when_built(build, coeffs):
    with pytest.raises(ValueError, match="1 to 3 finite coefficients"):
        build(coeffs)


def test_family_constructors_reject_a_bad_length():
    # a zero length is refused up front, not by a ZeroDivisionError inside
    with pytest.raises(ValueError, match="positive and finite"):
        dl.interval_sphere(2, 0.0, density=dl.cosine_density(0.5))
    with pytest.raises(ValueError, match="positive and finite"):
        dl.circle(0.0, density=dl.cosine_density(0.5))
    # a RoundWarp takes its length from the model, which refuses a bad one
    for radius in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            dl.sphere(2, radius=radius)


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       length=st.floats(0.5, 8.0), t=st.floats(0.0, 1.0))
def test_cos_polynomial_derivatives_match_mpmath(coeffs, length, t):
    # value, d1 and d2 against 40-digit numerical derivatives of
    # p(cos(pi r / L)), to a few rounding units of each one's scale
    mpmath = pytest.importorskip("mpmath")
    dens = dl.CosPolynomial(coeffs, length)
    r = t * length
    k = math.pi / length
    scale = sum(abs(c) for c in coeffs) + 1.0
    with mpmath.workdps(40):
        def phi(x):
            c = mpmath.cos(mpmath.pi / mpmath.mpf(length) * x)
            return sum(mpmath.mpf(cj) * c**j for j, cj in enumerate(coeffs))

        exact = [float(mpmath.diff(phi, mpmath.mpf(r), order)) for order in range(3)]
    got = [float(dens.value(np.array([r]))[0]), float(dens.d1(np.array([r]))[0]),
           float(dens.d2(np.array([r]))[0])]
    for order, (g, e) in enumerate(zip(got, exact)):
        tol = 8.0 * np.finfo(float).eps * scale * max(k, 1.0) ** order * (1.0 + 4.0 * order)
        assert abs(g - e) <= tol, (order, g, e)


@pytest.mark.parametrize("a", [0.1, 0.5, -0.9, 400.0])
@pytest.mark.parametrize("length", [math.pi, 2.5, 0.5 * math.pi, 2.0 * math.pi])
def test_cosine_density_has_the_plain_cosine_bits(a, length):
    # the operation order that keeps every report byte for byte: the value
    # is a cos(k r), phi' = (-a k) sin(k r) and phi'' = (-a k^2) cos(k r)
    r = np.linspace(0.0, length, 1001)
    k = math.pi / length
    dens = dl.interval_sphere(2, length, density=dl.cosine_density(a)).phi
    assert np.array_equal(dens.value(r), a * np.cos(math.pi / length * r))
    assert np.array_equal(dens.d1(r), -a * k * np.sin(k * r))
    assert np.array_equal(dens.d2(r), -a * k**2 * np.cos(k * r))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_non_unit_round_spheres_keep_the_closed_form(n):
    # K_eff scales as 1/rho^2 and its radius as rho, with the warp built from
    # the model's own L
    unit = dl.be_ricci_lower_bound(_ling_model(n))
    models = [dl.sphere(n, radius=radius) for radius in (0.7, 1.3, 3.0)]
    models.append(dl.interval_sphere(n, 2.5))
    for bare in models:
        model = dl.interval_sphere(n, bare.L, density=LING)
        assert bare.w == model.w == dl.RoundWarp(model.L)
        rho = model.L / math.pi
        kb = dl.be_ricci_lower_bound(model)
        assert abs(kb.K - unit.K / rho**2) <= 1e-15 * abs(unit.K / rho**2)
        assert abs(kb.radius - rho * unit.radius) <= 1e-15 * rho * unit.radius
