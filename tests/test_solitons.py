"""The soliton ledger (equation residuals, derived identities, eigen-relation)
and potential normalization."""

import dataclasses
import math
from functools import lru_cache

import pytest
from scipy.integrate import quad

import driftlab as dl
import driftlab.acceptance as acceptance
import driftlab.runner as runner
import driftlab.solitons as solitons
from driftlab.config import parse_config


@lru_cache(maxsize=None)
def _grid(density=(0.0,), n=2, N=1500, radius=1.0):
    """A grid on the n-sphere whose density, read in c = cos(r/radius), is
    the soliton potential."""
    return dl.Grid.uniform(dl.sphere(n, radius=radius, density=density), N)


def _candidate(density=(0.0,), gamma=1.0, **grid):
    return dl.SolitonCandidate(_grid(density, **grid), gamma=gamma)


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
    config = parse_config({"schema_version": 1, "family": fam, "grids": [2000],
                           "checks": ["soliton"], "soliton": {"gamma": "einstein"}})
    row, = runner.run(config).rows
    for column in ("soliton_resid_rr", "soliton_resid_tan", "bianchi_resid",
                   "constancy_std", "trace_resid", "eigenid_resid"):
        assert row[column] == 0.0, column
    assert row["verdict_soliton"] is True


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
    got = dl.normalize_f(_candidate(dl.cosine_density(1.0), N=20000))
    num = quad(lambda r: math.cos(r) * math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    den = quad(lambda r: math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    assert got == pytest.approx(-num / den, abs=1e-8)


def test_normalize_f_idempotent():
    shift = dl.normalize_f(_candidate(dl.cosine_density(0.7)))
    second = dl.normalize_f(_candidate((shift, 0.7)))
    assert type(second) is float and abs(second) < 1e-14


def test_eigen_relation_vacuous_for_einstein():
    led = dl.soliton_ledger(_candidate())
    assert led.vacuous
    assert led.eigen_residual < 1e-12
    # -2 gamma = -2 happens to be the first non-zero eigenvalue of the round
    # 2-sphere, so membership holds coincidentally
    assert led.membership.contained
    # a constant potential is zero once normalized, so it is vacuous too
    led = dl.soliton_ledger(_candidate((5.0,)))
    assert led.shift == pytest.approx(-5.0, abs=1e-12)
    assert led.vacuous
    assert led.eigen_residual < 1e-12


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
    # and w = rho sin(r/rho), over the grid's nodes and both poles, where
    # grad f = 0 and Hess f is isotropic with the value f''; the eigen-relation
    # takes the ledger's own shift, and constancy is the standard deviation
    mpmath = pytest.importorskip("mpmath")
    model = dl.interval_sphere(n, length, density=coeffs)
    gamma = dl.einstein_constant(model) if gamma is None else gamma
    grid = dl.Grid.uniform(model, 400)
    led = dl.soliton_ledger(dl.SolitonCandidate(grid, gamma=gamma))
    with mpmath.workdps(40):
        rho, g = mpmath.mpf(length) / mpmath.pi, mpmath.mpf(gamma)
        ric = (n - 1) / rho**2
        w = lambda x: rho * mpmath.sin(x / rho)  # noqa: E731

        def f(x):
            return sum(mpmath.mpf(cj) * mpmath.cos(x / rho) ** j for j, cj in enumerate(coeffs))

        points = []
        for r in (*grid.nodes, 0.0, length):
            x, pole = mpmath.mpf(r), r in (0.0, length)
            f1, f2 = 0 if pole else mpmath.diff(f, x), mpmath.diff(f, x, 2)
            h_tan = f2 if pole else f1 * mpmath.diff(w, x) / w(x)
            lap = f2 + (n - 1) * h_tan
            points.append((ric - g + f2, ric - g + h_tan, 2 * ric * f1, n * ric - n * g + lap,
                           lap - f1**2 + 2 * g * (f(x) + led.shift),
                           n * ric - 2 * g * f(x) + f1**2))
        *sups, conserved = zip(*points)
        mean = mpmath.fsum(conserved) / len(conserved)
        std = mpmath.sqrt(mpmath.fsum((v - mean) ** 2 for v in conserved) / len(conserved))
        radial, tangential, bianchi, trace, eigen = (float(max(map(abs, v))) for v in sups)
    assert led.shift == dl.normalize_f(dl.SolitonCandidate(grid, gamma=gamma))
    got = (led.radial, led.tangential, led.bianchi_sup, led.constancy_std, led.trace_sup,
           led.eigen_residual)
    assert got == pytest.approx((radial, tangential, bianchi, float(std), trace, eigen),
                                rel=1e-12)


def test_candidate_validation():
    with pytest.raises(ValueError):
        _candidate(gamma=0.0)
    with pytest.raises(ValueError):
        dl.SolitonCandidate(dl.Grid.uniform(dl.circle(2 * math.pi), 100), gamma=1.0)


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
