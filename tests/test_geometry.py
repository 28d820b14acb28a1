"""Curvature, measure, and diameter checks for the warped model geometry."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import driftlab as dl
from driftlab.errors import PoleRegularityError
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
        kb = dl.be_ricci_lower_bound(model, dl.Grid.uniform(model, 400))
        assert abs(kb.K - 1.0) < 1e-10
        assert kb.positive


def test_ricci_lower_bound_half_cosine():
    # min of 1 - 0.5 cos r over [0, pi] is 0.5, attained at the r = 0 pole
    model = dl.sphere(2, density=dl.cosine_density(0.5))
    kb = dl.be_ricci_lower_bound(model, dl.Grid.uniform(model, 400))
    assert abs(kb.K - 0.5) < 1e-12
    assert kb.radius == 0.0
    assert kb.positive


def test_ricci_lower_bound_vanishing_flagged():
    # 1 + cos r vanishes at r = pi; the pole limit makes this exact
    model = dl.sphere(2, density=dl.cosine_density(-1.0))
    kb = dl.be_ricci_lower_bound(model, dl.Grid.uniform(model, 400))
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
