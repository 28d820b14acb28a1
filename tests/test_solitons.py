"""The soliton ledger (equation residuals, derived identities, eigen-relation)
and potential normalization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import driftlab as dl
import driftlab.acceptance as acceptance
import driftlab.runner as runner
import driftlab.solitons as solitons
from driftlab.config import parse_config
from driftlab.reports import SolitonCheck


def _candidate(density=(0.0,), gamma=1.0, n=2, radius=1.0):
    """A candidate on the n-sphere whose density, read in c = cos(r/radius),
    is the soliton potential."""
    return dl.SolitonCandidate(dl.sphere(n, radius=radius, density=density), gamma=gamma)


def _soliton_rows(family, grids, gamma):
    """The soliton-check rows of one family at the given grid sizes."""
    config = parse_config({"schema_version": 1, "family": family, "grids": grids,
                           "checks": ["soliton"], "soliton": {"gamma": gamma}})
    return runner.run(config).rows


_RESIDUAL_COLUMNS = ("soliton_resid_rr", "soliton_resid_tan", "bianchi_resid",
                     "constancy_std", "trace_resid", "eigenid_resid")


def test_einstein_spheres_are_exact_solitons():
    for n in (2, 3, 4):
        led = dl.soliton_ledger(_candidate(gamma=float(n - 1), n=n))
        assert led.radial < 1e-9
        assert led.tangential < 1e-9
        assert led.bianchi_sup < 1e-9
        assert led.constancy_std < 1e-9
        assert led.trace_sup < 1e-9


@pytest.mark.parametrize("family", ["sphere", "stretched-sphere"])
@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_einstein_residuals_are_exactly_zero(family, n):
    # Ric = (n-1)/(L/pi)^2 g in closed form, the expression of the config's
    # Einstein gamma, so every residual of f = 0 is exactly 0, not rounding
    # noise, on unit and stretched spheres and at the config's own grid
    fam = {"name": family, "n": [n], "density": {"name": "zero"}}
    if family == "stretched-sphere":
        fam["length"] = 2.5
    row, = _soliton_rows(fam, [2000], "einstein")
    for column in _RESIDUAL_COLUMNS:
        assert row[column] == 0.0, column
    assert row["verdict_soliton"] is True


def test_a_soliton_row_needs_no_grid():
    # the ledger reads the model alone: at n = 100 a grid's weights underflow
    # (w^99), but the Einstein row is still exactly 0 in every residual
    row, = _soliton_rows({"name": "sphere", "n": [100], "density": {"name": "zero"}},
                         [2000], "einstein")
    assert "error" not in row
    for column in _RESIDUAL_COLUMNS:
        assert row[column] == 0.0, column
    assert row["verdict_soliton"] is True


def test_soliton_rows_are_the_same_at_every_grid():
    # no grid enters a soliton row, so N = 2000 and 2001 agree in every
    # soliton column, bit for bit
    family = {"name": "sphere", "n": [2], "density": {"name": "cosine", "eps": [0.5]}}
    even, odd = _soliton_rows(family, [2000, 2001], 1.0)
    assert (even["N"], odd["N"]) == (2000, 2001)
    columns = [f.name for f in dataclasses.fields(SolitonCheck)
               if f.name not in ("status", "reason")] + ["verdict_soliton"]
    assert [column for column in even if column.startswith("eigenid")] == ["eigenid_resid"]
    for column in columns:
        assert column in even and even[column] == odd[column], column


def test_the_family_density_is_the_soliton_potential():
    # a cosine(0.1) sphere with gamma = 1 is criterion 8's perturbation: the
    # check reads the instance's own density, not an Einstein f = 0 beside it
    config = parse_config({
        "schema_version": 1,
        "family": {"name": "sphere", "n": [2], "density": {"name": "cosine", "eps": [0.1]}},
        "grids": [2000], "checks": ["soliton"], "soliton": {"gamma": 1.0}})
    row, = runner.run(config).rows
    assert row["soliton_resid_rr"] == pytest.approx(0.1, abs=1e-10)
    assert row["soliton_resid_tan"] == pytest.approx(0.1, abs=1e-10)
    assert row["trace_resid"] == pytest.approx(0.2, abs=1e-10)
    assert row["verdict_soliton"] is False


def test_the_soliton_check_is_inapplicable_on_a_circle():
    # a circle has no warp, so the soliton equation's curvature does not
    # apply: the row says why, as the bounds and estimates checks do, and is
    # no error
    config = parse_config({
        "schema_version": 1,
        "family": {"name": "circle", "length": 6.0,
                   "density": {"name": "cosine", "eps": [0.5]}},
        "grids": [200], "checks": ["soliton"], "soliton": {"gamma": "einstein"}})
    report = runner.run(config)
    row, = report.rows
    assert row["verdict_soliton"] is None and "error" not in row
    assert "soliton: needs an interval-sphere model" in row["reason"]
    assert report.exit_code == 0


def test_rescaled_sphere_matching_gamma():
    # radius rho sphere is Einstein with gamma = (n-1)/rho^2
    led = dl.soliton_ledger(_candidate(gamma=2.0 / 4.0, n=3, radius=2.0))
    assert max(led.radial, led.tangential) < 1e-9


def test_cosine_perturbation_residuals():
    # Hess(0.1 cos r) = -0.1 cos r g on the unit 2-sphere, so the soliton
    # residual is -0.1 cos r in both slots; the trace identity picks up
    # Delta(0.1 cos r) = -0.2 cos r
    led = dl.soliton_ledger(_candidate(dl.cosine_density(0.1)))
    assert led.radial == pytest.approx(0.1, abs=1e-10)
    assert led.tangential == pytest.approx(0.1, abs=1e-10)
    assert led.trace_sup == pytest.approx(0.2, abs=1e-10)


def test_wrong_gamma_trace_residual():
    # Einstein model with mismatched gamma: trace residual is n |gamma* - gamma|
    led = dl.soliton_ledger(_candidate(gamma=1.3, n=3))
    assert led.trace_sup == pytest.approx(3 * abs(2.0 - 1.3), abs=1e-9)


def test_identity_residuals_scale_linearly():
    # perturbations of size eps produce Theta(eps) identity residuals
    sups = [dl.soliton_ledger(_candidate(dl.cosine_density(eps))).trace_sup
            for eps in (1e-2, 1e-3)]
    assert sups[0] / sups[1] == pytest.approx(10.0, rel=1e-6)


def test_scaling_covariance_of_residuals():
    # g -> c^2 g with gamma -> gamma/c^2 and the same potential profile in the
    # model's own coordinate cos(r/c) scales both residual components by 1/c^2
    c = 2.0
    r_unit = dl.soliton_ledger(_candidate(dl.cosine_density(0.1)))
    r_scaled = dl.soliton_ledger(_candidate(dl.cosine_density(0.1), gamma=1.0 / c**2,
                                            radius=c))
    assert r_scaled.radial == pytest.approx(r_unit.radial / c**2, rel=1e-8)
    assert r_scaled.tangential == pytest.approx(r_unit.tangential / c**2, rel=1e-8)


def test_normalize_f_trivial_cases():
    assert dl.normalize_f(_candidate()) == pytest.approx(0.0, abs=1e-15)
    const5 = _candidate((5.0,))
    assert dl.normalize_f(const5) == pytest.approx(-5.0, abs=1e-12)


def test_normalize_f_cosine_against_quadrature_oracle():
    got = dl.normalize_f(_candidate(dl.cosine_density(1.0)))
    num = quad(lambda r: math.cos(r) * math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    den = quad(lambda r: math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    assert got == pytest.approx(-num / den, abs=1e-12)


@pytest.mark.parametrize("n, coeffs", [(2, (0.0, 0.5)), (3, (0.2, -0.7, 0.4)),
                                       (8, (0.0, 3.0, -2.0))])
def test_normalize_f_matches_a_40_digit_integral(n, coeffs):
    # Gauss-Jacobi in c = cos(r) with the weight (1 - c^2)^((n-2)/2) holds the
    # shift to rounding on even n too, where the midpoint rule in r was O(h^2)
    mpmath = pytest.importorskip("mpmath")
    got = dl.normalize_f(_candidate(coeffs, n=n))
    with mpmath.workdps(40):
        p = lambda c: sum(mpmath.mpf(cj) * c**j for j, cj in enumerate(coeffs))  # noqa: E731
        weight = lambda c: (1 - c * c) ** (mpmath.mpf(n - 2) / 2) * mpmath.exp(-p(c))  # noqa: E731
        num = mpmath.quad(lambda c: p(c) * weight(c), [-1, 0, 1])
        den = mpmath.quad(weight, [-1, 0, 1])
        want = float(-num / den)
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_normalize_f_refuses_a_density_its_largest_rule_cannot_resolve(monkeypatch):
    # e^{-800 c} lives within about 1/800 of c = -1: 256 nodes settle it, and
    # a largest rule of 128 nodes refuses it with an error that names the density
    cand = _candidate((0.0, 800.0))
    assert dl.normalize_f(cand) == pytest.approx(799.0, abs=1e-10)
    monkeypatch.setattr(solitons, "SHIFT_NODES", (64, 128))
    with pytest.raises(ValueError, match=r"\(0\.0, 800\.0\) \(n = 2\) does not settle "
                                         "within 128 Gauss-Jacobi nodes"):
        dl.normalize_f(cand)


def test_normalize_f_idempotent():
    shift = dl.normalize_f(_candidate(dl.cosine_density(0.7)))
    second = dl.normalize_f(_candidate((shift, 0.7)))
    assert type(second) is float and abs(second) < 1e-14


def test_eigen_relation_vacuous_for_einstein():
    led = dl.soliton_ledger(_candidate())
    assert led.vacuous
    assert led.eigen_residual == 0.0
    # a constant potential is zero once normalized, so it is vacuous too
    led = dl.soliton_ledger(_candidate((5.0,)))
    assert led.shift == -5.0
    assert led.vacuous
    assert led.eigen_residual == 0.0
    assert not dl.soliton_ledger(_candidate((5.0, 0.0, 1e-300))).vacuous


def test_a_sup_at_an_interior_vertex_is_exact():
    # unit S^3, f = 0.2 c + 0.5 c^2, gamma = 1.5: the radial residual is
    # 1.5 - 0.2 c - 2 c^2, which peaks at c* = -0.05 inside (-1, 1) with the
    # value 1.505, between any grid's nodes; the poles give only 0.7 and 0.3
    led = dl.soliton_ledger(_candidate((0.0, 0.2, 0.5), gamma=1.5, n=3))
    assert abs(led.radial - 1.505) <= 1e-15


def test_eigen_relation_flags_perturbation():
    # f = eps cos^2(r) is pole-regular but not a drift eigenfunction; the
    # residual is Theta(eps), a linearization sanity check
    residuals = []
    for eps in (1e-2, 1e-3):
        led = dl.soliton_ledger(_candidate((0.0, 0.0, eps)))
        assert not led.vacuous
        assert led.eigen_residual > 0.1 * eps  # flagged well above rounding
        residuals.append(led.eigen_residual)
    assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("n, length, coeffs, gamma", [
    (2, math.pi, dl.cosine_density(0.5), 1.0),
    (3, 2.5, (0.2, -0.7, 0.4), None),  # at its Einstein gamma
])
def test_every_residual_matches_an_mpmath_oracle(n, length, coeffs, gamma):
    # the six residuals against 40-digit mpmath derivatives of f = p(cos(r/rho))
    # and w = rho sin(r/rho).  Each sup is over r in [0, L]: at both poles,
    # where grad f = 0 and Hess f is isotropic with the value f'', and at the
    # largest sample of a 201-point scan, refined to the critical point
    # bracketed by its neighbours.  The eigen-relation takes the ledger's own
    # shift, and constancy is the standard deviation over arc length
    mpmath = pytest.importorskip("mpmath")
    model = dl.interval_sphere(n, length, density=coeffs)
    gamma = dl.einstein_constant(model) if gamma is None else gamma
    led = dl.soliton_ledger(dl.SolitonCandidate(model, gamma=gamma))
    with mpmath.workdps(40):
        L, g = mpmath.mpf(length), mpmath.mpf(gamma)
        rho = L / mpmath.pi
        ric = (n - 1) / rho**2
        w = lambda x: rho * mpmath.sin(x / rho)  # noqa: E731

        def f(x):
            return sum(mpmath.mpf(cj) * mpmath.cos(x / rho) ** j for j, cj in enumerate(coeffs))

        def residuals(x):
            pole = x in (0, L)
            f1, f2 = 0 if pole else mpmath.diff(f, x), mpmath.diff(f, x, 2)
            h_tan = f2 if pole else f1 * mpmath.diff(w, x) / w(x)
            lap = f2 + (n - 1) * h_tan
            return (ric - g + f2, ric - g + h_tan, 2 * ric * f1, n * ric - n * g + lap,
                    lap - f1**2 + 2 * g * (f(x) + led.shift), n * ric - 2 * g * f(x) + f1**2)

        scan = [L * j / 200 for j in range(201)]
        table = [residuals(x) for x in scan]
        sups = []
        for k in range(5):
            j = max(range(201), key=lambda i: abs(table[i][k]))
            best = abs(table[j][k])
            if 0 < j < 200:
                slope = lambda x: mpmath.diff(lambda y: residuals(y)[k], x)  # noqa: E731
                x = mpmath.findroot(slope, (scan[j - 1], scan[j + 1]), solver="anderson")
                best = max(best, abs(residuals(x)[k]))
            sups.append(float(best))
        conserved = lambda x: residuals(x)[5]  # noqa: E731
        mean = mpmath.quad(conserved, [0, L]) / L
        std = mpmath.sqrt(mpmath.quad(lambda x: (conserved(x) - mean) ** 2, [0, L]) / L)
    radial, tangential, bianchi, trace, eigen = sups
    assert led.shift == dl.normalize_f(dl.SolitonCandidate(model, gamma=gamma))
    got = (led.radial, led.tangential, led.bianchi_sup, led.constancy_std, led.trace_sup,
           led.eigen_residual)
    assert got == pytest.approx((radial, tangential, bianchi, float(std), trace, eigen),
                                rel=1e-12)


def test_candidate_validation():
    with pytest.raises(ValueError):
        _candidate(gamma=0.0)
    with pytest.raises(ValueError):
        dl.SolitonCandidate(dl.circle(2 * math.pi), gamma=1.0)


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0, 49.0])
def test_gauss_jacobi_rule_integrates_its_degree_exactly(a):
    # the 5-point rule of (1 - c^2)^a, scaled to unit mass, holds every
    # moment up to degree 9: odd ones vanish, and E[c^2j] is the Beta ratio
    # prod_{i<j} (2i + 1)/(2i + 2a + 3)
    nodes, weights = solitons._gauss_jacobi(5, a)
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
    assert not nodes.flags.writeable and not weights.flags.writeable
    for degree in range(10):
        want = 0.0 if degree % 2 else math.prod(
            (2 * i + 1) / (2 * i + 2 * a + 3) for i in range(degree // 2))
        assert float(np.sum(weights * nodes**degree)) == pytest.approx(want, abs=1e-15), degree


def test_constancy_std_is_the_arc_length_closed_form():
    # f = eps c on the unit S^2: R - 2 gamma f + |grad f|^2 spreads as
    # eps^2 (1 - c^2) - 2 gamma eps c, and with c = cos r, r uniform on
    # [0, pi], E[c] = E[c^3] = 0, E[c^2] = 1/2 and E[c^4] = 3/8, so the
    # standard deviation is sqrt(eps^4/8 + 2 gamma^2 eps^2)
    for eps, gamma in ((0.5, 1.0), (0.1, 2.5)):
        led = dl.soliton_ledger(_candidate(dl.cosine_density(eps), gamma=gamma))
        assert led.constancy_std == pytest.approx(
            math.sqrt(eps**4 / 8.0 + 2.0 * gamma**2 * eps**2), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), length=st.floats(1.0, 4.0),
       coeffs=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3),
       gamma=st.floats(0.1, 3.0))
@example(n=2, length=math.pi, coeffs=[0.0, 0.9, 1e-14], gamma=1.0)
@example(n=2, length=math.pi, coeffs=[0.0, -0.7, 1e-14], gamma=1.0)
def test_every_sup_bounds_a_dense_sampling(n, length, coeffs, gamma):
    # each sup is over the whole manifold: no sample of 4001 radii, the poles
    # among them, exceeds it beyond rounding, and it exceeds their largest by
    # at most the O(h^2) a sample can miss an extremum by.  The examples'
    # c2 = 1e-14 puts the companion roots of |grad f|^2's derivative off by
    # enough to miss its peak at the equator, sampled exactly, unless the
    # roots are trimmed and polished.  The samples take
    # the derivatives in r: f' = -sin(r/rho) p'(c)/rho, f'' = (sin(r/rho)^2
    # p''(c) - c p'(c))/rho^2 and f' w'/w = -c p'(c)/rho^2
    model = dl.interval_sphere(n, length, density=tuple(coeffs))
    led = dl.soliton_ledger(dl.SolitonCandidate(model, gamma=gamma))
    rho = length / math.pi
    ric = (n - 1) / rho**2
    x = np.linspace(0.0, length, 4001) / rho
    c, sin = np.cos(x), np.sin(x)
    p = np.polynomial.Polynomial(coeffs)
    p1, p2 = p.deriv()(c), p.deriv(2)(c)
    f1 = -sin * p1 / rho
    f2, h_tan = (sin**2 * p2 - c * p1) / rho**2, -c * p1 / rho**2
    lap = f2 + (n - 1) * h_tan
    for got, values in ((led.radial, ric - gamma + f2), (led.tangential, ric - gamma + h_tan),
                        (led.bianchi_sup, 2.0 * ric * f1),
                        (led.trace_sup, n * ric - n * gamma + lap),
                        (led.eigen_residual, lap - f1**2 + 2.0 * gamma * (p(c) + led.shift))):
        sampled = float(np.max(np.abs(values)))
        assert sampled <= got * (1.0 + 1e-13) + 1e-13
        assert got <= sampled + 1e-5 * (1.0 + sampled)


def test_soundness_residual_implies_identities():
    # soliton residual O(eps) forces identity residuals of the same order
    for eps in (1e-3, 1e-5):
        led = dl.soliton_ledger(_candidate(dl.cosine_density(eps)))
        assert max(led.radial, led.tangential) == pytest.approx(eps, rel=1e-6)
        assert led.trace_sup < 4.0 * eps
        assert led.bianchi_sup < 4.0 * eps
        assert led.constancy_std < 4.0 * eps


def test_worst_residual_propagates_nan():
    led = dl.soliton_ledger(_candidate(dl.cosine_density(0.1)))
    assert led.worst == max(led.radial, led.tangential, led.bianchi_sup,
                            led.constancy_std, led.trace_sup, led.eigen_residual)
    for name in ("radial", "bianchi_sup", "eigen_residual"):
        assert math.isnan(dataclasses.replace(led, **{name: math.nan}).worst)


def test_nan_residual_fails_criterion_8_and_the_runner(monkeypatch):
    # a NaN residual must fail every check that reads the ledger, not vanish
    # into a max() that keeps its first finite argument; the NaN enters
    # through the ledger's Hessian alone, so K_eff stays finite
    monkeypatch.setattr(solitons, "hess_phi", lambda model: ((math.nan,) * 3,) * 2)
    crit, = acceptance.criterion_soliton_checker()
    assert not crit.passed
    einstein = [row for row in crit.rows if row["quantity"] == "max_residual"]
    assert len(einstein) == 3
    assert all(math.isnan(row["value"]) and row["status"] == "fail" for row in einstein)
    config = parse_config({
        "schema_version": 1,
        "family": {"name": "sphere", "n": [2], "density": {"name": "zero"}},
        "grids": [300], "checks": ["soliton"], "soliton": {"gamma": "einstein"}})
    row = runner.run(config).rows[0]
    assert math.isnan(row["soliton_resid_rr"]) and math.isnan(row["trace_resid"])
    assert row["verdict_soliton"] is False
