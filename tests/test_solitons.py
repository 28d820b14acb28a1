"""The soliton ledger (equation residuals, derived identities, eigen-relation)
and potential normalization."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

import driftlab as dl
import driftlab.acceptance as acceptance
import driftlab.runner as runner
import driftlab.solitons as sol
from driftlab.config import parse_config
from driftlab.errors import PoleRegularityError


@lru_cache(maxsize=None)
def _grid(n=2, N=1500, radius=1.0):
    model = dl.sphere(n, radius=radius)
    return model, dl.Grid.uniform(model, N)


def test_einstein_spheres_are_exact_solitons():
    for n in (2, 3, 4):
        model, grid = _grid(n)
        cand = dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=float(n - 1))
        led = dl.soliton_ledger(cand, grid)
        assert led.radial < 1e-9
        assert led.tangential < 1e-9
        assert led.bianchi_sup < 1e-9
        assert led.constancy_std < 1e-9
        assert led.trace_sup < 1e-9


def test_rescaled_sphere_matching_gamma():
    # radius rho sphere is Einstein with gamma = (n-1)/rho^2
    model, grid = _grid(3, radius=2.0)
    cand = dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=2.0 / 4.0)
    led = dl.soliton_ledger(cand, grid)
    assert max(led.radial, led.tangential) < 1e-9


def test_cosine_perturbation_residuals():
    # Hess(0.1 cos r) = -0.1 cos r g on the unit 2-sphere, so the soliton
    # residual is -0.1 cos r in both slots; the trace identity picks up
    # Delta(0.1 cos r) = -0.2 cos r
    model, grid = _grid(2)
    cand = dl.SolitonCandidate(model=model, f=dl.cosine_density(0.1), gamma=1.0)
    led = dl.soliton_ledger(cand, grid)
    assert led.radial == pytest.approx(0.1, abs=1e-10)
    assert led.tangential == pytest.approx(0.1, abs=1e-10)
    assert led.trace_sup == pytest.approx(0.2, abs=1e-10)


def test_wrong_gamma_trace_residual():
    # Einstein model with mismatched gamma: trace residual is n |gamma* - gamma|
    model, grid = _grid(3)
    cand = dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=1.3)
    led = dl.soliton_ledger(cand, grid)
    assert led.trace_sup == pytest.approx(3 * abs(2.0 - 1.3), abs=1e-9)


def test_identity_residuals_scale_linearly():
    # perturbations of size eps produce Theta(eps) identity residuals
    model, grid = _grid(2)
    sups = []
    for eps in (1e-2, 1e-3):
        cand = dl.SolitonCandidate(model=model, f=dl.cosine_density(eps), gamma=1.0)
        sups.append(dl.soliton_ledger(cand, grid).trace_sup)
    assert sups[0] / sups[1] == pytest.approx(10.0, rel=1e-6)


def test_scaling_covariance_of_residuals():
    # g -> c^2 g with gamma -> gamma/c^2 and the same potential profile in the
    # stretched coordinate scales both residual components by 1/c^2
    c = 2.0
    unit, gu = _grid(2)
    scaled, gs = _grid(2, radius=c)
    f_unit = dl.cosine_density(0.1, length=math.pi)
    f_scaled = dl.cosine_density(0.1, length=c * math.pi)
    r_unit = dl.soliton_ledger(
        dl.SolitonCandidate(model=unit, f=f_unit, gamma=1.0), gu)
    r_scaled = dl.soliton_ledger(
        dl.SolitonCandidate(model=scaled, f=f_scaled, gamma=1.0 / c**2), gs)
    assert r_scaled.radial == pytest.approx(r_unit.radial / c**2, rel=1e-8)
    assert r_scaled.tangential == pytest.approx(r_unit.tangential / c**2, rel=1e-8)


def test_normalize_f_trivial_cases():
    model, grid = _grid(2)
    zero = dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=1.0)
    assert dl.normalize_f(zero, grid).shift == pytest.approx(0.0, abs=1e-15)
    const5 = dl.SolitonCandidate(model=model, f=dl.zero_density().shifted(5.0), gamma=1.0)
    assert dl.normalize_f(const5, grid).shift == pytest.approx(-5.0, abs=1e-12)


def test_normalize_f_cosine_against_quadrature_oracle():
    model, grid = _grid(2, N=20000)
    cand = dl.SolitonCandidate(model=model, f=dl.cosine_density(1.0), gamma=1.0)
    got = dl.normalize_f(cand, grid).shift
    num = quad(lambda r: math.cos(r) * math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    den = quad(lambda r: math.exp(-math.cos(r)) * math.sin(r),
               0.0, math.pi, epsabs=1e-13, epsrel=1e-13)[0]
    assert got == pytest.approx(-num / den, abs=1e-8)


def test_normalize_f_idempotent():
    model, grid = _grid(2)
    cand = dl.SolitonCandidate(model=model, f=dl.cosine_density(0.7), gamma=1.0)
    first = dl.normalize_f(cand, grid)
    second = dl.normalize_f(
        dl.SolitonCandidate(model=model, f=first.f, gamma=1.0), grid)
    assert abs(second.shift) < 1e-14


def test_eigen_relation_vacuous_for_einstein():
    model, grid = _grid(2)
    cand = dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=1.0)
    led = dl.soliton_ledger(cand, grid)
    assert led.vacuous
    assert led.eigen_residual < 1e-12
    # -2 gamma = -2 happens to be the first non-zero eigenvalue of the round
    # 2-sphere, so membership holds coincidentally
    assert led.membership.contained
    # a constant potential is zero once normalized, so it is vacuous too
    const5 = dl.SolitonCandidate(model=model, f=dl.zero_density().shifted(5.0), gamma=1.0)
    led = dl.soliton_ledger(const5, grid)
    assert led.shift == pytest.approx(-5.0, abs=1e-12)
    assert led.vacuous
    assert led.eigen_residual < 1e-12


def test_eigen_relation_flags_perturbation():
    # f = eps cos^2(r) is pole-regular but not a drift eigenfunction; the
    # residual is Theta(eps), a linearization sanity check
    model, grid = _grid(2)
    residuals = []
    for eps in (1e-2, 1e-3):
        cand = dl.SolitonCandidate(
            model=model, f=dl.poly_cos_density([0.0, 0.0, eps]), gamma=1.0)
        led = dl.soliton_ledger(cand, grid)
        assert not led.vacuous
        assert led.eigen_residual > 0.1 * eps  # flagged well above rounding
        residuals.append(led.eigen_residual)
    assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=0.05)


def test_candidate_validation():
    model, grid = _grid(2)
    with pytest.raises(ValueError):
        dl.SolitonCandidate(model=model, f=dl.zero_density(), gamma=0.0)
    sin_profile = dl.RadialProfile(
        value=lambda r: np.sin(np.asarray(r, dtype=float)),
        d1=lambda r: np.cos(np.asarray(r, dtype=float)),
        d2=lambda r: -np.sin(np.asarray(r, dtype=float)),
        d3=lambda r: -np.cos(np.asarray(r, dtype=float)))
    with pytest.raises(PoleRegularityError):
        dl.SolitonCandidate(model=model, f=sin_profile, gamma=1.0)
    with pytest.raises(ValueError):
        dl.SolitonCandidate(model=dl.circle(2 * math.pi), f=dl.zero_density(),
                            gamma=1.0)


def test_soundness_residual_implies_identities():
    # soliton residual O(eps) forces identity residuals of the same order
    model, grid = _grid(2)
    for eps in (1e-3, 1e-5):
        cand = dl.SolitonCandidate(model=model, f=dl.cosine_density(eps), gamma=1.0)
        led = dl.soliton_ledger(cand, grid)
        assert max(led.radial, led.tangential) == pytest.approx(eps, rel=1e-6)
        assert led.trace_sup < 4.0 * eps
        assert led.bianchi_sup < 4.0 * eps
        assert led.constancy_std < 4.0 * eps


def test_worst_residual_propagates_nan():
    model, grid = _grid(2)
    led = dl.soliton_ledger(
        dl.SolitonCandidate(model=model, f=dl.cosine_density(0.1), gamma=1.0), grid)
    assert led.worst == max(led.radial, led.tangential, led.bianchi_sup,
                            led.constancy_std, led.trace_sup, led.eigen_residual)
    for name in ("radial", "bianchi_sup", "eigen_residual"):
        assert math.isnan(dataclasses.replace(led, **{name: math.nan}).worst)


def test_nan_residual_fails_criterion_8_and_the_runner(monkeypatch):
    # a NaN residual must fail every check that reads the ledger, not vanish
    # into a max() that keeps its first finite argument
    monkeypatch.setattr(sol, "scalar_curvature_derivative",
                        lambda model, r: np.full(np.shape(r), math.nan))
    crit = acceptance.criterion_soliton_checker()
    assert not crit.passed
    einstein = [row for row in crit.rows if row["quantity"] == "max_residual"]
    assert len(einstein) == 3
    assert all(math.isnan(row["value"]) and row["status"] == "fail" for row in einstein)
    config = parse_config({
        "schema_version": 1,
        "family": {"name": "sphere", "n": [2], "density": {"name": "zero"}},
        "grids": [300], "checks": ["soliton"],
        "soliton": {"gamma": "einstein", "f": {"name": "zero"}}})
    row = runner.run(config).rows[0]
    assert math.isnan(row["bianchi_resid"])
    assert row["verdict_soliton"] is False
