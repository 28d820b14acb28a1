"""Curvature, measure, and diameter checks for the warped model geometry."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import driftlab as dl
from driftlab.errors import InapplicableBoundError, PoleRegularityError
from driftlab.geometry import pole_curvature


def test_unit_s2_is_einstein():
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 800)
    prof = dl.curvature(model, grid)
    assert np.max(np.abs(prof.ric_rr - 1.0)) < 1e-10
    assert np.max(np.abs(prof.ric_tan - 1.0)) < 1e-10
    assert np.max(np.abs(prof.scalar - 2.0)) < 1e-9


def test_unit_s4_scalar_curvature():
    model = dl.sphere(4)
    grid = dl.Grid.uniform(model, 800)
    prof = dl.curvature(model, grid)
    assert np.max(np.abs(prof.scalar - 12.0)) < 1e-9
    assert np.max(np.abs(prof.ric_rr - 3.0)) < 1e-10
    assert np.max(np.abs(prof.ric_tan - 3.0)) < 1e-9


def test_pole_limits_match_interior():
    model = dl.sphere(3)
    r0, rl = pole_curvature(model)
    assert abs(r0 - 2.0) < 1e-12
    assert abs(rl - 2.0) < 1e-12


def test_cosine_density_ricci_pointwise():
    eps = 0.3
    model = dl.sphere(2, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, 500)
    prof = dl.curvature(model, grid)
    expected = 1.0 - eps * np.cos(grid.nodes)
    assert np.max(np.abs(prof.ricphi_rr - expected)) < 1e-10
    assert np.max(np.abs(prof.ricphi_tan - expected)) < 1e-10


def test_cosine_density_hessian_against_embedded_fd_oracle():
    # On the unit 2-sphere embedded in R^3, phi = eps*cos(r) is eps*z, and the
    # Hessian along geodesics can be differenced directly in the embedding:
    # radial geodesics vary the colatitude, tangential ones are great circles
    # through the point in the latitude direction.
    eps = 0.4
    model = dl.sphere(2, density=dl.cosine_density(eps))
    grid = dl.Grid.uniform(model, 400)
    prof = dl.curvature(model, grid)
    h = 1e-4

    def phi_of_z(z):
        return eps * z

    for idx in (40, 133, 200, 333):
        r = grid.nodes[idx]
        # radial: second difference of phi along the meridian
        fd_rr = (phi_of_z(math.cos(r + h)) - 2.0 * phi_of_z(math.cos(r))
                 + phi_of_z(math.cos(r - h))) / h**2
        # tangential: great circle gamma(s) = cos(s) p + sin(s) e with e the
        # unit latitude direction; its z-coordinate is cos(s) cos(r)
        fd_tan = (phi_of_z(math.cos(h) * math.cos(r)) - 2.0 * phi_of_z(math.cos(r))
                  + phi_of_z(math.cos(-h) * math.cos(r))) / h**2
        assert abs((prof.ricphi_rr[idx] - prof.ric_rr[idx]) - fd_rr) < 1e-6
        assert abs((prof.ricphi_tan[idx] - prof.ric_tan[idx]) - fd_tan) < 1e-6


def test_ricci_lower_bound_unit_spheres():
    for n in (2, 3, 5):
        model = dl.sphere(n)
        kb = dl.be_ricci_lower_bound(model)
        assert abs(kb.K - 1.0) < 1e-10
        assert kb.positive


def test_ricci_lower_bound_half_cosine():
    # min of 1 - 0.5 cos r over [0, pi] is 0.5, attained at the r = 0 pole
    model = dl.sphere(2, density=dl.cosine_density(0.5))
    kb = dl.be_ricci_lower_bound(model)
    assert abs(kb.K - 0.5) < 1e-12
    assert kb.radius == 0.0
    assert kb.positive


def test_ricci_lower_bound_vanishing_flagged():
    # 1 + cos r vanishes at r = pi; the pole limit makes this exact
    model = dl.sphere(2, density=dl.cosine_density(-1.0))
    kb = dl.be_ricci_lower_bound(model)
    assert abs(kb.K) < 1e-14
    assert abs(kb.radius - math.pi) < 1e-12
    assert not kb.positive


def test_weighted_measure_sphere_area():
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 4000)
    total = dl.integrate(grid, np.ones(grid.size))
    assert abs(total - 4.0 * math.pi) / (4.0 * math.pi) < 1e-7


def test_weighted_measure_odd_symmetry():
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 2000)
    val = dl.integrate(grid, np.cos(grid.nodes))
    assert abs(val) < 1e-12


def test_weighted_measure_cosine_density_oracle():
    # int over S^2 of e^{-cos r} dV = 2 pi int_0^pi sin(r) e^{-cos r} dr
    #                               = 2 pi (e - 1/e)
    model = dl.sphere(2, density=dl.cosine_density(1.0))
    grid = dl.Grid.uniform(model, 20000)
    total = dl.integrate(grid, np.ones(grid.size))
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
    assert abs(dl.integrate(grid, np.ones(grid.size)) - oracle) / oracle < 1e-8


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
        errs.append(abs(dl.integrate(grid, np.exp(grid.nodes)) - oracle))
    slope = np.polyfit(np.log([1.0 / N for N in ns]), np.log(errs), 1)[0]
    assert 1.8 < slope < 2.2


def test_diameter_closed_forms():
    assert dl.diameter(dl.sphere(2)) == math.pi
    assert dl.diameter(dl.sphere(5)) == math.pi
    assert dl.diameter(dl.circle(2.0 * math.pi)) == math.pi
    assert dl.diameter(dl.interval_sphere(3, 2.5)) == 2.5


def test_scaling_covariance():
    # metric scaled by c^2: diameter scales by c, curvature by 1/c^2
    c = 2.0
    unit = dl.sphere(3)
    scaled = dl.sphere(3, radius=c)
    assert abs(dl.diameter(scaled) - c * dl.diameter(unit)) < 1e-14
    gu = dl.Grid.uniform(unit, 300)
    gs = dl.Grid.uniform(scaled, 300)
    pu = dl.curvature(unit, gu)
    ps = dl.curvature(scaled, gs)
    assert np.max(np.abs(ps.ric_rr - pu.ric_rr / c**2)) < 1e-10
    assert np.max(np.abs(ps.scalar - pu.scalar / c**2)) < 1e-10


def test_pole_regularity_rejected():
    bad = dl.RadialProfile(
        value=lambda r: np.sin(2.0 * np.asarray(r)) / 2.0,
        d1=lambda r: np.cos(2.0 * np.asarray(r)),
        d2=lambda r: -2.0 * np.sin(2.0 * np.asarray(r)),
        d3=lambda r: -4.0 * np.cos(2.0 * np.asarray(r)))
    with pytest.raises(PoleRegularityError):
        dl.WarpedManifold(topology=dl.INTERVAL_SPHERE, n=2, L=math.pi,
                          w=bad, phi=dl.zero_density())


def test_circle_needs_periodic_density():
    with pytest.raises(ValueError):
        dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5, 2.0 * math.pi))


@pytest.mark.parametrize("shift", [0.5 * math.pi, 1.0], ids=["sine", "shifted-cosine"])
def test_circle_needs_an_even_density(shift):
    # phi = 0.5 cos(theta - shift) is periodic but not even about theta = 0,
    # so the circle's operator has no mirror sectors; unshifted it is accepted
    def profile(s):
        return dl.RadialProfile(value=lambda r: 0.5 * np.cos(np.asarray(r) - s),
                                d1=lambda r: -0.5 * np.sin(np.asarray(r) - s),
                                d2=lambda r: -0.5 * np.cos(np.asarray(r) - s),
                                d3=lambda r: 0.5 * np.sin(np.asarray(r) - s))

    with pytest.raises(ValueError, match="even about theta = 0"):
        dl.circle(2.0 * math.pi, density=profile(shift))
    assert dl.circle(2.0 * math.pi, density=profile(0.0)).phi.value(0.0) == 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("shift", [400.0, -400.0], ids=["vanishing", "infinite"])
def test_grid_rejects_a_density_that_is_not_positive_and_finite(shift):
    # phi = 400 cos r + shift spans [0, 800] or [-800, 0], so e^{-phi}
    # underflows to 0 (or overflows to inf) at the nodes near one pole; the
    # grid's weight check sees the real weights, not placeholders
    model = dl.sphere(2, density=dl.cosine_density(400.0).shifted(shift))
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        dl.Grid.uniform(model, 64)


def test_grid_invariants():
    model = dl.sphere(2, density=dl.cosine_density(0.7))
    grid = dl.Grid.uniform(model, 64)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.size == 64
    # weights reproduce the weighted_measure operation
    assert np.array_equal(grid.weights, dl.weighted_measure(model, grid.density, grid.spacing))


def _ling_model(n):
    return dl.sphere(n, density=dl.poly_cos_density([0.0, -1.0, -0.25]))


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
    assert kb.positive


def test_ricci_lower_bound_finds_a_minimum_between_cell_centres():
    # the Ling n = 3 radial eigenvalue 2 + c + c^2 - 1/2 is least, 5/4, at
    # c = -1/2, r = 2 pi/3, which is not a cell centre at N = 400; the
    # minimum over the cell centres over-reads it
    model = _ling_model(3)
    kb = dl.be_ricci_lower_bound(model)
    assert kb.K == 0.625
    assert kb.radius == math.acos(-0.5)
    prof = dl.curvature(model, dl.Grid.uniform(model, 400))
    cell_min = np.minimum(prof.ricphi_rr, prof.ricphi_tan).min() / 2.0
    assert cell_min - 0.625 > 1e-7


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
    dl.poly_cos_density([0.0, -1.0, -0.25])
    with pytest.raises(ValueError, match="at most 3 coefficients"):
        dl.poly_cos_density([0.0, 0.0, 0.0, 1.0])
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
    # the closed form against curvature() at 20001 cell centres: at or below
    # every sample, to rounding, and below their least by no more than
    # sampling allows.  Each eigenvalue is stationary in r where it is least
    # (at a pole, or at a vertex in c), and a centre lies within h/2 of that
    # point, so the least sample over-reads K_eff by at most
    # max |d^2 Ric_phi / dr^2| (h/2)^2 / 2, over (n-1).
    model = dl.interval_sphere(n, length, density=dl.poly_cos_density(coeffs, length))
    kb = dl.be_ricci_lower_bound(model)
    grid = dl.Grid.uniform(model, 20001)
    prof = dl.curvature(model, grid)
    least = float(np.minimum(prof.ricphi_rr, prof.ricphi_tan).min()) / (n - 1)
    c1, c2 = (list(coeffs) + [0.0, 0.0])[1:3]
    rho = length / math.pi
    rounding = 16.0 * np.finfo(float).eps * (n - 1 + abs(c1) + 6.0 * abs(c2)) \
        / ((n - 1) * rho**2)
    # rho^2 Ric_phi = a + b c + q c^2 with |b| = |c1|, |q| <= 4 |c2|
    second = (abs(c1) + 16.0 * abs(c2)) / ((n - 1) * rho**4)
    assert kb.K <= least + rounding
    assert least - kb.K <= second * grid.spacing**2 / 8.0 + rounding
    assert kb.positive == (kb.K > 0.0)


def test_ricci_lower_bound_refuses_a_model_outside_the_round_cos_family():
    # a profile built by hand carries no record, even with the callables of
    # a family member, and a cosine of length pi on a sphere of length 2 pi
    # is not a polynomial in cos(r/2): no closed form covers either
    cos = dl.cosine_density(0.5)
    hand_built = dl.RadialProfile(value=cos.value, d1=cos.d1, d2=cos.d2, d3=cos.d3)
    with pytest.raises(InapplicableBoundError, match="closed form"):
        dl.be_ricci_lower_bound(dl.sphere(2, density=hand_built))
    warp = dl.sphere_warp()
    hand_warp = dl.RadialProfile(value=warp.value, d1=warp.d1, d2=warp.d2, d3=warp.d3)
    with pytest.raises(InapplicableBoundError, match="closed form"):
        dl.be_ricci_lower_bound(dl.interval_sphere(2, math.pi, warp=hand_warp))
    with pytest.raises(InapplicableBoundError, match="closed form"):
        dl.be_ricci_lower_bound(dl.sphere(3, radius=2.0, density=cos))
    # at the model's length the same cosine is in the family: min of
    # (2 - 0.5 c) / 4 at the pole c = 1
    kb = dl.be_ricci_lower_bound(
        dl.sphere(3, radius=2.0, density=dl.cosine_density(0.5, 2.0 * math.pi)))
    assert kb.K == 1.5 / 8.0 and kb.radius == 0.0
    # circles keep their own refusal
    with pytest.raises(ValueError, match="circles"):
        dl.be_ricci_lower_bound(dl.circle(2.0 * math.pi))
    # no constructor takes the record
    with pytest.raises(TypeError):
        dl.RadialProfile(value=cos.value, d1=cos.d1, d2=cos.d2, d3=cos.d3,
                         cos_family=(math.pi, (0.0, 0.5)))


def test_constructors_record_the_round_cos_family():
    assert dl.sphere_warp(2.0).cos_family == (2.0 * math.pi,)
    assert dl.stretched_sphere_warp(2.5).cos_family == (2.5,)
    assert dl.zero_density().cos_family == (None, (0.0,))
    assert dl.cosine_density(0.3, 2.5).cos_family == (2.5, (0.0, 0.3))
    assert dl.poly_cos_density([1, -1, 0.5]).cos_family == (math.pi, (1.0, -1.0, 0.5))
    # interval_sphere and sphere form their L as the warp's constructor does
    for model in (dl.interval_sphere(3, 2.5), dl.sphere(3, radius=0.7)):
        assert model.w.cos_family == (model.L,)


def test_shifted_density_keeps_its_record():
    # K_eff does not depend on the constant term c0, which the record moves
    dens = dl.poly_cos_density([0.0, -1.0, -0.25])
    moved = dens.shifted(0.7)
    assert moved.cos_family == (math.pi, (0.7, -1.0, -0.25))
    assert dl.be_ricci_lower_bound(dl.sphere(3, density=moved)) \
        == dl.be_ricci_lower_bound(dl.sphere(3, density=dens))
    assert dl.zero_density().shifted(-1.0).cos_family == (None, (-1.0,))
    # a warp plus a constant is no longer the round warp
    assert dl.sphere_warp().shifted(0.1).cos_family is None
