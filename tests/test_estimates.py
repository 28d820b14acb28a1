"""Test functions, barriers, normalization, and level-set estimate checks."""

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

import driftlab as dl
import driftlab.estimates as est
from driftlab import cli
from driftlab.errors import (BarrierDomainError, BarrierHypothesisError,
                             DegenerateEigenfunctionError)
from driftlab.estimates import LevelSetMaxima, eta, xi, xi_eta
from driftlab.spectral import _bisect, assemble

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
    for row, refs in enumerate((XI_REFS, ETA_REFS)):
        for t, (v, d1, d2) in refs.items():
            assert abs(xi_eta(t)[row] - v) < 1e-12
            assert abs(xi_eta(t, 1)[row] - d1) < 1e-10
            assert abs(xi_eta(t, 2)[row] - d2) < 1e-9


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
    xi_d1, eta_d1 = xi_eta(t, 1)
    xi_d1_neg, eta_d1_neg = xi_eta(-t, 1)
    assert np.max(np.abs(xi_d1 + xi_d1_neg)) < 1e-10
    assert np.max(np.abs(eta_d1 - eta_d1_neg)) < 1e-10


def test_generated_series_matches_the_exact_taylor_coefficients():
    # the first eight coefficients of the recurrence, against their exact values
    pi = math.pi
    xi_exact = [0.0, -2 * pi / 3, 1.0, -4 * pi / 45, 1 / 9, -4 * pi / 315, 2 / 135,
                -8 * pi / 4725]
    eta_exact = [1.0, -8 / (3 * pi), 0.25, -16 / (45 * pi), 1 / 24, -16 / (315 * pi),
                 17 / 2880, -32 / (4725 * pi)]
    np.testing.assert_allclose(est._SERIES[:, :8], [xi_exact, eta_exact], rtol=1e-15, atol=0.0)


def test_xi_eta_match_high_precision_closed_forms():
    # one series covers [-pi/2, pi/2]; 60-digit closed forms are the oracle,
    # from next to the endpoint (where the closed forms cancel) to t = 0
    mp = pytest.importorskip("mpmath").mp

    def xi_mp(t):
        return (mp.cos(t)**2 + 2*t*mp.sin(t)*mp.cos(t) + t**2 - mp.pi**2/4) / mp.cos(t)**2

    def eta_mp(t):
        return (4/mp.pi*t + 4/mp.pi*mp.cos(t)*mp.sin(t) - 2*mp.sin(t)) / mp.cos(t)**2

    s = np.geomspace(1e-6, HALF_PI, 61)
    t = np.concatenate([HALF_PI - s, s - HALF_PI])
    worst = 0.0
    with mp.workdps(60):
        for row, ref in enumerate((xi_mp, eta_mp)):
            for order in range(3):
                for ti, value in zip(t, xi_eta(t, order)[row]):
                    exact = mp.diff(ref, mp.mpf(float(ti)), order)
                    worst = max(worst, float(abs(value - exact) / max(1, abs(exact))))
    assert worst <= 1e-14, worst


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


def _separate_series(t, order):
    """(xi, eta) derivatives of one order at the array t, each row evaluated
    through its own series with its own parity rule: xi is even, eta odd, so
    a derivative is odd (zero at t = 0) when exactly one of "it is eta's" and
    "the order is 1" holds."""
    s = HALF_PI - np.minimum(np.abs(t), HALF_PI)
    rows = []
    for i, which in enumerate(("xi", "eta")):
        out = est._series_eval(est._SERIES[i], s, order)
        if (which == "eta") != (order == 1):
            out[t < 0.0] *= -1.0
            out[t == 0.0] = 0.0
        rows.append(out)
    return rows


@settings(max_examples=60, deadline=None)
@given(t=st.lists(st.floats(-HALF_PI, HALF_PI), max_size=40),
       c=st.floats(0.0, 2.0), kappa=st.floats(0.0, 1.0))
def test_stacked_series_match_separate_series_bitwise(t, c, kappa):
    # one Horner pass over both series, with one parity rule for the pair,
    # gives the bits of a separate pass per series for values and both
    # derivatives, at the centre, both endpoints (and just past them) and
    # negative t, on arrays and scalars; barrier derivatives combine them
    t = np.array(t + [0.0, -0.0, HALF_PI, -HALF_PI, HALF_PI + 1e-13, -1e-300])
    z = dl.BarrierFamily(a=c, b=1.0, xi_coeff=kappa)
    for order in range(3):
        xi_k, eta_k = _separate_series(t, order)
        pair = xi_eta(t, order)
        assert pair.shape == (2, t.size)
        assert pair[0].tobytes() == xi_k.tobytes()
        assert pair[1].tobytes() == eta_k.tobytes()
        for i, ti in enumerate(t.tolist()):
            assert [v.hex() for v in xi_eta(ti, order)] == [xi_k[i].hex(), eta_k[i].hex()]
        if order:
            expected = c * eta_k + kappa * xi_k
            assert z.derivative(t, order).tobytes() == expected.tobytes()
        else:
            assert [xi(t).tobytes(), eta(t).tobytes()] == [xi_k.tobytes(), eta_k.tobytes()]
    with pytest.raises(BarrierDomainError):
        xi_eta(np.append(t, 2.0))


def test_exact_ode_identities():
    # both test functions satisfy their defining second-order identities,
    # which is what makes the touching-point residuals collapse; the log grid
    # reaches next to the endpoints, where the closed forms cancel
    near = HALF_PI - np.geomspace(1e-6, 1.0, 2001)
    t = np.concatenate([np.linspace(-HALF_PI, HALF_PI, 10001), near, -near])
    cos2 = np.cos(t) ** 2
    (x0, e0), (x1, e1), (x2, e2) = (xi_eta(t, order) for order in range(3))
    exi = 0.5 * x2 * cos2 - x1 * np.cos(t) * np.sin(t) - x0 - 2.0 * cos2
    eeta = 0.5 * e2 * cos2 - e1 * np.cos(t) * np.sin(t) - e0 + np.sin(t)
    assert np.max(np.abs(exi)) < 1e-13
    assert np.max(np.abs(eeta)) < 1e-13


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


def test_hypotheses_refuse_nan(tmp_path, capsys):
    # every hypothesis comparison fails on NaN instead of letting it through
    nan = math.nan
    for args in ((nan, 1.01, 0.25, 1.0), (0.0, nan, 0.25, 1.0),
                 (0.0, 1.01, nan, 1.0), (0.0, 1.01, 0.25, nan)):
        with pytest.raises(BarrierHypothesisError):
            dl.barrier(*args)
    with pytest.raises(BarrierHypothesisError, match="lost the sign"):
        dl.case_b2b2_barrier(0.1, 1.01, 0.25, nan)
    # a NaN xi coefficient makes both positivity sweeps all NaN
    raw = dl.BarrierFamily(a=0.0, b=1.01, xi_coeff=nan)
    with pytest.raises(BarrierHypothesisError, match="not positive on its domain"):
        est._validate_barrier(raw, 0.25)
    nef = dl.normalize(_zonal_s2()[2])
    with pytest.raises(BarrierHypothesisError, match=r"not positive on \[-pi/2, pi/2\]"):
        dl.length_integral_check(nef, raw)
    with pytest.raises(ValueError, match="must exceed 1"):
        dl.normalize(_zonal_s2()[2], b=nan)
    assert cli.main(["emit-barriers", "--a", "nan", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "barriers.csv").exists()
    assert "barrier needs a >= 0" in capsys.readouterr().err


def test_hypotheses_refuse_an_overflowing_xi_coefficient():
    # (a/b)^2 of a finite a = 1e200 overflows the float range; the variant
    # barrier refuses it as a hypothesis, whatever sigma
    for sigma in (1.0, -1.0, 0.0):
        with pytest.raises(BarrierHypothesisError, match="lost the sign"):
            dl.case_b2b2_barrier(1e200, 1.01, 0.25, sigma)


@pytest.mark.parametrize("b", [math.inf, math.nan, 1.0, -math.inf])
def test_normalize_needs_a_finite_b_above_one(b):
    # b = inf would give a ~ 1e-13 and finite constants for a gradient
    # estimate that needs a finite b
    with pytest.raises(ValueError, match="exceed 1 and be finite"):
        dl.normalize(_zonal_s2()[2], b=b)


def test_normalize_reads_k_eff_from_the_model():
    # K is the model's K_eff, not 1: on the cosine(0.5) S^3 it is 0.75
    model = dl.sphere(3, density=dl.cosine_density(0.5))
    nef = dl.normalize(dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 400)))
    K = dl.be_ricci_lower_bound(model).K
    assert nef.K == K == 0.75
    assert nef.delta == 0.5 * 2 * K / nef.lam


def test_length_integrals_read_the_model_diameter():
    # d is the model's diameter: the length L = 2.5 of a stretched S^3
    model = dl.interval_sphere(3, 2.5)
    nef = dl.normalize(dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 400)))
    z = dl.barrier(0.0, 1.01, 0.25, 1.0)
    ledger = dl.length_integral_check(nef, z)
    transit = est.gauss_legendre_integral(lambda t: 1.0 / np.sqrt(z.value(t)))
    assert ledger.margin_transit == math.sqrt(nef.lam) * 2.5 - transit


def test_normalize_refuses_a_circle_mode():
    # a circle has no (n-1) K, so no estimate applies: normalize refuses with
    # be_ricci_lower_bound's own error
    model = dl.circle(2.0 * math.pi, density=dl.cosine_density(0.5))
    mode = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 200))
    with pytest.raises(ValueError, match="circles"):
        dl.normalize(mode)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hypotheses_refuse_infinity(tmp_path, capsys):
    # b = inf collapses the comparison domain to t = 0, and a = inf meets
    # xi(0) = 0 as inf * 0; both are refused before the positivity sweep
    inf = math.inf
    for args in ((0.0, inf, 0.25, 1.0), (inf, 1.01, 0.25, 1.0), (inf, inf, 0.25, 1.0)):
        with pytest.raises(BarrierHypothesisError, match="finite"):
            dl.barrier(*args)
    # a negative sigma keeps the xi coefficient positive, so a = inf reaches
    # the shared validation
    for args in ((0.1, inf, 0.25, 1.0), (inf, 1.01, 0.25, -1.0)):
        with pytest.raises(BarrierHypothesisError, match="finite"):
            dl.case_b2b2_barrier(*args)
    for flag in ("--b", "--a"):
        assert cli.main(["emit-barriers", flag, "inf", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "barriers.csv").exists()
        assert "finite" in capsys.readouterr().err


def _top_modes(problem, count):
    """The ``count`` top eigenpairs of a sector, sorted by |mu|, through the
    solver's own bisection and inverse iteration."""
    n = problem.size
    return _bisect(problem, n - count + 1, n)


@lru_cache(maxsize=None)
def _zonal_s2(N=1200):
    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, N)
    return model, grid, _top_modes(assemble(grid, 0), 3)[1]


def test_normalize_zonal_symmetric():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode)
    assert abs(nef.k - 1.0) < 1e-9
    assert abs(nef.a) < 1e-9
    assert abs(nef.v_rad.max() - 1.0) < 1e-10
    assert abs(nef.v_rad.min() + 1.0) < 1e-10
    residual = mode.problem.apply(nef.v_rad) + nef.lam * (nef.v_rad + nef.a)
    assert np.max(np.abs(residual)) < 1e-6 * nef.lam
    assert abs(nef.delta - 0.25) < 1e-5  # alpha/lam = 0.5/2


def test_normalize_direct_formula():
    # synthetic samples with max 1 and min -1/3: k = 1/3, a = 1/2,
    # v = (u - 1/3)/(2/3)
    model, grid, mode = _zonal_s2()
    u = np.linspace(-1.0 / 3.0, 1.0, grid.size)
    synthetic = dl.EigenMode(lam=2.0, l=0, u=u, problem=mode.problem)
    nef = dl.normalize(synthetic)
    assert abs(nef.k - 1.0 / 3.0) < 1e-12
    assert abs(nef.a - 0.5) < 1e-12
    expected = (u - 1.0 / 3.0) / (2.0 / 3.0)
    assert np.max(np.abs(nef.v_rad - expected)) < 1e-12


def test_normalize_sign_flip():
    model, grid, mode = _zonal_s2()
    flipped = dl.EigenMode(lam=mode.lam, l=0,
                           u=-np.linspace(-0.25, 0.75, grid.size),
                           problem=mode.problem)
    # -u has max 0.25, min -0.75: the sign rule flips it back
    nef = dl.normalize(flipped)
    assert nef.v_rad.max() == pytest.approx(1.0, abs=1e-12)
    assert nef.k == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_normalize_rejects_constants():
    model, grid, mode = _zonal_s2()
    const = dl.EigenMode(lam=2.0, l=0, u=np.ones(grid.size), problem=mode.problem)
    with pytest.raises(DegenerateEigenfunctionError):
        dl.normalize(const)
    with pytest.raises(DegenerateEigenfunctionError):
        dl.normalize(dl.EigenMode(lam=0.0, l=0, u=np.cos(grid.nodes),
                                  problem=mode.problem))


def test_gradient_estimate_zonal():
    # v = cos r: the ratio sin^2 r/(b^2 - cos^2 r) peaks at the equator at 1/b^2
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    gm = dl.gradient_estimate_margin(nef)
    assert abs(gm.sup_ratio - 1.0 / 1.01**2) < 1e-3
    assert gm.margin > 1.0


def test_gradient_estimate_limit_large_b():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1e6)
    gm = dl.gradient_estimate_margin(nef)
    assert gm.sup_ratio < 1e-11
    assert abs(gm.margin - nef.lam) < 1e-6


def test_compute_Z_zonal_center_value():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    levelset = dl.compute_Z(nef, 200)
    center = levelset.values[100]  # bin containing t = 0
    assert abs(center - 1.0 / (2.0 * 1.01**2)) < 1e-3
    assert levelset.occupied.all()
    # after the gradient estimate, Z is bounded by (1 + a)
    assert np.nanmax(levelset.values) <= (1.0 + nef.a) * (1.0 + 1e-9)


def test_compute_Z_marks_empty_bins():
    # more bins than radial samples forces empty bins, which stay NaN
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    samples = dl.compute_Z(nef, 5000)
    assert (~samples.occupied).sum() > 0
    assert np.isnan(samples.values[~samples.occupied]).all()
    assert np.isfinite(samples.values[samples.occupied]).all()


def test_dominance_synthetic_equality_and_failure():
    edges = np.linspace(-1.0, 1.0, 11)
    arg_t = 0.5 * (edges[:-1] + edges[1:])
    values = 1.0 + 0.1 * arg_t**2
    levelset = LevelSetMaxima(values=values, arg_t=arg_t, counts=np.ones(10, dtype=int))
    same = dl.barrier_dominance_check(levelset, lambda t: 1.0 + 0.1 * t**2)
    assert abs(same.min_margin) < 1e-15
    below = dl.barrier_dominance_check(levelset, lambda t: np.zeros_like(t))
    assert below.min_margin < -1.0  # z = 0 sits far below Z
    assert below.occupied_bins == 10


def test_dominance_zonal_quarter_delta():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    z = dl.barrier(0.0, 1.01, 0.25, 1.0)
    report = dl.barrier_dominance_check(dl.compute_Z(nef, 200), z)
    assert report.min_margin > 0.0


@dataclass(frozen=True)
class _TouchingPointResidual:
    """Touching-point inequality residuals for barrier candidates.

    ``full`` is the complete right-hand side; the two corollary forms are
    evaluated unconditionally and tagged with applicability of their
    hypotheses (monotonicity and range of z at the touching point).
    """

    full: np.ndarray
    cor6_value: np.ndarray
    cor6_applicable: np.ndarray
    cor7_value: np.ndarray
    cor7_applicable: np.ndarray


def _touching_point_residual(z, zdot, zddot, t0, c, delta, a=None):
    """Right-hand side of the paper's touching-point inequality at t0.

    For a valid barrier touched from below by Z at t0 with z(t0) > 0, the
    maximum principle forces this quantity to be >= 0; barrier families are
    designed so that it is <= 0 away from degenerate configurations, which is
    what rules the touching out.  ``a`` (the asymmetry constant) tightens the
    first corollary's range check; it defaults to c, the strictest choice.
    """
    z, zdot, zddot, t0 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(z, dtype=float)),
        np.asarray(zdot, dtype=float), np.asarray(zddot, dtype=float),
        np.asarray(t0, dtype=float))
    xi_eta(t0)  # raises outside [-pi/2, pi/2]
    if np.any(z <= 0.0):
        raise BarrierHypothesisError("the touching-point inequality requires z(t0) > 0")
    a_eff = c if a is None else float(a)
    cos, sin = np.cos(t0), np.sin(t0)
    cos2 = cos * cos
    base = 0.5 * zddot * cos2 - zdot * cos * sin - z + 1.0
    cor6 = base + c * sin - 2.0 * delta * cos2
    full = cor6 - (zdot / (4.0 * z)) * cos * (zdot * cos - 2.0 * z * sin + 2.0 * sin + 2.0 * c)
    cor7 = base - 2.0 * delta * cos2
    tiny = 1e-12
    cor6_ok = (zdot >= -tiny) & (z >= 1.0 - c - tiny) & (z <= 1.0 + a_eff + tiny)
    cor7_ok = (abs(a_eff) <= tiny) & (zdot * sin >= -tiny) & (z <= 1.0 + tiny)
    return _TouchingPointResidual(full=full, cor6_value=cor6, cor6_applicable=cor6_ok,
                                  cor7_value=cor7, cor7_applicable=cor7_ok)


def test_test_estimate_residual_trivial_zero():
    res = _touching_point_residual(1.0, 0.0, 0.0, 0.5, c=0.0, delta=0.0)
    assert res.full[0] == 0.0


def test_test_estimate_residual_cor7_sweep():
    # z = 1 + delta xi meets the symmetric-case identity exactly, so the
    # corollary residual vanishes along the whole sweep
    delta = 0.25
    t = np.linspace(-HALF_PI, HALF_PI, 10001)
    z = dl.barrier(0.0, 1.01, delta, 1.0)
    res = _touching_point_residual(z.value(t), z.derivative(t, 1), z.derivative(t, 2), t,
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
    tb = math.asin(1.0 / b)
    t = np.linspace(-tb, tb, 2001)
    res = _touching_point_residual(z.value(t), z.derivative(t, 1), z.derivative(t, 2), t,
                                   c=a / b, delta=delta, a=a)
    assert np.max(np.abs(res.cor6_value)) < 1e-9


def test_test_estimate_residual_tags_inapplicable():
    res = _touching_point_residual(1.0, -0.5, 0.0, 0.3, c=0.1, delta=0.1, a=0.2)
    assert not res.cor6_applicable[0]  # zdot < 0
    assert np.isfinite(res.full[0])    # still evaluated
    with pytest.raises(BarrierHypothesisError):
        _touching_point_residual(-1.0, 0.0, 0.0, 0.3, c=0.0, delta=0.1)


def test_length_integrals_constant_barrier():
    # z = 1: transit integral pi, Holder bound (pi^3/pi)^(1/2) = pi, equality
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    flat = dl.BarrierFamily(a=0.0, b=1.01, xi_coeff=0.0)
    ledger = dl.length_integral_check(nef, flat)
    # transit = sqrt(lam) pi - margin_transit, Holder = transit - margin_holder
    assert abs(math.sqrt(nef.lam) * math.pi - ledger.margin_transit - math.pi) < 1e-10
    assert abs(ledger.margin_holder) < 1e-10
    assert ledger.margin_transit > 0.0


def test_length_integrals_quarter_delta():
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=1.01)
    z = dl.barrier(0.0, 1.01, 0.25, 1.0)
    ledger = dl.length_integral_check(nef, z)
    assert ledger.margin_holder >= 0.0
    assert ledger.margin_transit >= 0.0
    # int z = (1 - delta) pi gives the Holder bound (pi^3 / int z)^{1/2}, and
    # the chain certifies lambda >= pi^3 / (int z * d^2)
    transit = math.sqrt(nef.lam) * math.pi - ledger.margin_transit
    holder = transit - ledger.margin_holder
    assert abs(holder - math.sqrt(math.pi**3 / (0.75 * math.pi))) < 1e-10
    assert nef.lam >= math.pi**3 / (0.75 * math.pi * math.pi**2)


# (family, a, b, delta, mu or sigma)
_TRANSIT_BARRIERS = [
    *(("standard", a, b, delta, mu) for a in (0.0, 0.3, 0.9) for b in (1.01, 2.0)
      for delta in (0.1, 0.5) for mu in (0.25, 1.0)),
    *(("b2b2", a, 1.01, delta, sigma) for a in (0.05, 0.3)
      for delta in (0.1, 0.5) for sigma in (0.5, 1.0)),
]


@pytest.mark.parametrize("family,a,b,delta,weight", _TRANSIT_BARRIERS,
                         ids=[f"{f}:a={a:g}:b={b:g}:delta={d:g}"
                              for f, a, b, d, _ in _TRANSIT_BARRIERS])
def test_transit_integral_matches_quad(family, a, b, delta, weight):
    z = (dl.barrier if family == "standard" else dl.case_b2b2_barrier)(a, b, delta, weight)
    _, _, mode = _zonal_s2()
    nef = dl.normalize(mode, b=z.b)
    ledger = dl.length_integral_check(nef, z)
    oracle = quad(lambda t: 1.0 / math.sqrt(z.value(t)), -HALF_PI, HALF_PI,
                  limit=200, epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(math.sqrt(nef.lam) * math.pi - ledger.margin_transit - oracle) <= 1e-11


def _per_call_value(z, t):
    """z evaluated through separate xi and eta calls at the points t."""
    return 1.0 + z.c * eta(t) + z.xi_coeff * xi(t)


def _per_call_accepts(z) -> bool:
    """Barrier validation's positivity sweep of the comparison domain."""
    tb = math.asin(1.0 / z.b)
    return not np.any(_per_call_value(z, np.linspace(-tb, tb, 1001)) <= 0.0)


def _per_call_ledger(nef, z, d):
    """The length-integral ledger's margins with z evaluated per call on the
    positivity sweep and the Gauss-Legendre nodes; None where it must raise."""
    if np.any(_per_call_value(z, np.linspace(-HALF_PI, HALF_PI, 2001)) <= 0.0):
        return None
    transit = est.gauss_legendre_integral(lambda t: 1.0 / np.sqrt(_per_call_value(z, t)))
    holder = math.sqrt(math.pi**3 / (math.pi * (1.0 - z.xi_coeff)))
    return [math.sqrt(nef.lam) * d - transit, transit - holder]


@settings(max_examples=80, deadline=None)
@given(a=st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(1.0, 4.0)),
       b=st.floats(1.0, 2.0, exclude_min=True), delta=st.floats(1e-3, 0.5),
       weight=st.floats(0.0, 1.0, exclude_min=True), b2b2=st.booleans())
def test_tabulated_barrier_checks_match_per_call_series(a, b, delta, weight, b2b2):
    # barrier() and length_integral_check read xi and eta from tables; their
    # verdicts and every ledger bit match evaluating z afresh on each grid
    if b2b2:
        sigma = 2.0 * weight
        raw = dl.BarrierFamily(a=a, b=b, xi_coeff=delta - sigma * (a / b) ** 2)
        build = lambda: dl.case_b2b2_barrier(a, b, delta, sigma)  # noqa: E731
    else:
        raw = dl.BarrierFamily(a=a, b=b, xi_coeff=weight * delta)
        build = lambda: dl.barrier(a, b, delta, weight)  # noqa: E731
    # the variant also needs its xi coefficient positive
    if not ((raw.xi_coeff > 0.0 or not b2b2) and _per_call_accepts(raw)):
        with pytest.raises(BarrierHypothesisError):
            build()
        return
    z = build()
    assert z == raw
    nef = dl.normalize(_zonal_s2()[2], b=b)
    expected = _per_call_ledger(nef, z, math.pi)
    if expected is None:
        with pytest.raises(BarrierHypothesisError, match="not positive on"):
            dl.length_integral_check(nef, z)
        return
    ledger = dl.length_integral_check(nef, z)
    got = [ledger.margin_transit, ledger.margin_holder]
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_barrier_positive_on_its_domain_only():
    # c = 3/2 puts z(-pi/2) = 1 - c below zero, outside the comparison domain
    # [-pi/6, pi/6] of b = 2: barrier() samples only the domain and accepts,
    # the length integrals sample all of [-pi/2, pi/2] and refuse
    z = dl.barrier(3.0, 2.0, 0.1, 1.0)
    assert _per_call_accepts(z)
    assert z.value(-HALF_PI) < 0.0
    nef = dl.normalize(_zonal_s2()[2], b=2.0)
    assert _per_call_ledger(nef, z, math.pi) is None
    with pytest.raises(BarrierHypothesisError, match=r"not positive on \[-pi/2, pi/2\]"):
        dl.length_integral_check(nef, z)


@lru_cache(maxsize=None)
def _l1_mode(N=900, n=3):
    model = dl.sphere(n, density=dl.cosine_density(0.4))
    fe = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, N))
    assert fe.l == 1
    return fe


def _l1_mode_s2():
    return _l1_mode(600, n=2)


@lru_cache(maxsize=None)
def _l2_mode():
    model = dl.sphere(3)
    grid = dl.Grid.uniform(model, 900)
    return _top_modes(assemble(grid, 2), 1)[0]


def _full_samples(nef):
    """Brute-force (radial x latitude) product of an l = 1 mode R(r) cos(psi)
    over 241 fiber latitudes, as (rows, latitudes) arrays; the radial grid
    alone for zonal modes."""
    if nef.l == 0:
        return nef.v_rad, nef.dv_rad ** 2
    psi = np.linspace(0.0, math.pi, 241)
    wv = np.asarray(nef.grid.model.w.value(nef.grid.nodes), dtype=float)
    v = np.outer(nef.v_rad, np.cos(psi))
    grad_sq = np.outer(nef.dv_rad, np.cos(psi)) ** 2 + np.outer(nef.v_rad / wv, np.sin(psi)) ** 2
    return v, grad_sq


def _reference_Z(v, grad_sq, b, lam, bins):
    """Per-bin maxima over full sample arrays; ties go to the first sample."""
    v, grad_sq = np.ravel(v), np.ravel(grad_sq)
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


def _brute_fiber_Z(nef, bins, dense=2001):
    """Per closed bin, the maximum over every row of the l = 1 fiber
    quantity at ``dense`` values of x = cos(psi) (poles and equator
    included), plus at the x where the row meets each bin edge level, which
    counts for both bins next to that edge."""
    b, lam = nef.b, nef.lam
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    wv = np.asarray(nef.grid.model.w.value(nef.grid.nodes), dtype=float)
    R, dR2, A = nef.v_rad, nef.dv_rad ** 2, (nef.v_rad / wv) ** 2

    def quantity(row, x):
        v = R[row] * x
        return v, (dR2[row] * x * x + A[row] * (1.0 - x * x)) / (lam * (b * b - v * v))

    values = np.full(bins, -np.inf)
    x_dense = np.concatenate([np.linspace(-1.0, 1.0, dense), [0.0]])
    levels = b * np.sin(edges)
    for row in range(R.size):
        v, val = quantity(row, x_dense)
        t = np.arcsin(v / b)
        keep = (t >= edges[0]) & (t <= edges[-1])
        idx = np.minimum(np.searchsorted(edges, t[keep], side="right") - 1, bins - 1)
        np.maximum.at(values, idx, val[keep])
        reached = np.flatnonzero(np.abs(levels) <= abs(R[row]))
        if reached.size and R[row] != 0.0:
            _, val = quantity(row, np.clip(levels[reached] / R[row], -1.0, 1.0))
            for e, value in zip(reached, val):
                for j in (e - 1, e):
                    if 0 <= j < bins:
                        values[j] = max(values[j], value)
    return values


def _flat_samples(nef):
    """The points that ``samples()`` stands for, as flat (v, |grad v|^2):
    for an l = 1 mode the rows, their antipodal poles and the equator point,
    2N + 1 in all."""
    v, grad_sq, equator = nef.samples()
    if equator is None:
        return v, grad_sq
    return np.concatenate([v, -v, [0.0]]), np.concatenate([grad_sq, grad_sq, [equator]])


def test_normalize_l1_mode_symmetric():
    nef = dl.normalize(_l1_mode(), b=1.01)
    assert nef.a == 0.0 and nef.k == 1.0
    v, _ = _flat_samples(nef)
    N = nef.v_rad.size
    assert abs(v.max() - 1.0) < 1e-12
    assert abs(v.min() + 1.0) < 1e-12
    # the fiber poles carry +-v_rad, the equators the level v = 0
    assert np.array_equal(v[:N], nef.v_rad)
    assert np.array_equal(v[N:2 * N], -nef.v_rad)
    assert np.array_equal(v[2 * N:], [0.0])
    gm = dl.gradient_estimate_margin(nef)
    assert gm.sup_ratio <= gm.bound * 1.01


def test_normalize_l2_mode_asymmetric():
    # lambda_1 lies in a sector l <= 1, so a mode of sector 2 is refused,
    # even though it is a genuine eigenfunction of its sector
    mode = _l2_mode()
    assert abs(mode.lam - 8.0) < 1e-3  # second spherical-harmonic level of S^3
    with pytest.raises(DegenerateEigenfunctionError, match="not a first eigenfunction"):
        dl.normalize(mode, b=1.01)


@pytest.mark.parametrize("mode", [_l1_mode, _l1_mode_s2])
def test_normalize_corner_extremes_match_full_product(mode):
    mode = mode()
    product = np.outer(mode.u, np.cos(np.linspace(0.0, math.pi, 241)))
    pmax, pmin = product.max(), product.min()
    assert pmax == -pmin  # cos(psi) reaches +-1, so k = 1 and no sign flip
    nef = dl.normalize(mode)
    assert nef.k == -pmin / pmax == 1.0
    assert np.array_equal(nef.v_rad, mode.u * (2.0 / ((1.0 + nef.k) * pmax)))


def _zonal_mode(N):
    model = dl.sphere(3, density=dl.cosine_density(0.4))
    return _top_modes(assemble(dl.Grid.uniform(model, N), 0), 2)[1]


def test_streamed_sampler_matches_full_arrays():
    # zonal: the samples are the radial grid, binned exactly as by brute force
    nef = dl.normalize(_zonal_mode(1031), b=1.01)
    v, grad_sq = _full_samples(nef)
    samples = nef.samples()
    assert np.array_equal(samples[0], v) and np.array_equal(samples[1], grad_sq)
    assert samples[2] is None
    sup = float((grad_sq / (nef.b * nef.b - v * v)).max())
    assert dl.gradient_estimate_margin(nef).sup_ratio == sup
    levelset = dl.compute_Z(nef, 200)
    values, arg_t, counts = _reference_Z(v, grad_sq, nef.b, nef.lam, 200)
    assert np.array_equal(levelset.values, values, equal_nan=True)
    assert np.array_equal(levelset.arg_t, arg_t, equal_nan=True)
    assert np.array_equal(levelset.counts, counts)
    # l = 1: the first latitude column (psi = 0) is the pole samples bitwise
    nef = dl.normalize(_l1_mode(), b=1.01)
    v, grad_sq = _full_samples(nef)
    N = nef.v_rad.size
    samples = _flat_samples(nef)
    assert np.array_equal(samples[0][:N], v[:, 0])
    assert np.array_equal(samples[1][:N], grad_sq[:, 0])
    assert np.array_equal(samples[0][N:2 * N], v[:, -1])


@pytest.mark.parametrize("n", [2, 3])
def test_compute_Z_is_the_exact_maximum_over_each_closed_bin(n):
    bins = 50
    nef = dl.normalize(_l1_mode(200, n=n), b=1.01)
    levelset = dl.compute_Z(nef, bins)
    brute = _brute_fiber_Z(nef, bins)
    assert levelset.occupied.all() and np.isfinite(brute).all()
    assert np.max(np.abs(levelset.values - brute) / brute) <= 1e-12
    # the gradient ratio is monotone in cos(psi)^2, so the 241-latitude sup
    # sits at a pole or an equator, which the closed-form points hold exactly
    v, grad_sq = _full_samples(nef)
    sup = float((grad_sq / (nef.b * nef.b - v * v)).max())
    assert dl.gradient_estimate_margin(nef).sup_ratio == sup
    # latitude sampling can only under-read the maximum of a closed bin
    sampled = _reference_Z(v, grad_sq, nef.b, nef.lam, bins)[0]
    seen = np.isfinite(sampled)
    assert seen.sum() > bins // 2
    assert np.all(levelset.values[seen] >= sampled[seen] * (1.0 - 1e-14))
    assert np.any(levelset.values[seen] > sampled[seen] * (1.0 + 1e-6))
    # an arg_t is a sample's t or one of the bin's edges
    tb = math.asin(1.0 / nef.b)
    edges = np.linspace(-tb, tb, bins + 1)
    assert ((levelset.arg_t >= edges[:-1]) & (levelset.arg_t <= edges[1:])).all()


def test_normalize_residual_is_scaled_by_the_operator_norm():
    # at N = 1e5 rounding alone puts the residual far above 1e-6 lam, but it
    # stays at the rounding level of the operator, whose norm grows like N^2
    model = dl.sphere(3, density=dl.cosine_density(0.5))
    mode = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 100000))
    nef = dl.normalize(mode)
    residual = mode.problem.apply(nef.v_rad) + nef.lam * (nef.v_rad + nef.a)
    assert np.max(np.abs(residual)) > 1e-6 * nef.lam
    assert nef.residual_rel <= 1e-10
    noise = np.random.default_rng(0).standard_normal(mode.u.size)
    perturbed = dl.EigenMode(lam=mode.lam, l=mode.l, u=mode.u * (1.0 + 1e-6 * noise),
                             problem=mode.problem)
    assert dl.normalize(perturbed).residual_rel > 1e-10


class _Samples:
    """Stand-in zonal eigenfunction whose samples() returns the given arrays."""

    def __init__(self, v, grad_sq, b):
        self.v, self.grad_sq, self.b, self.lam, self.l = v, grad_sq, b, 1.0, 0

    def samples(self):
        return self.v, self.grad_sq, None


def test_compute_Z_ties_keep_the_first_maximizer():
    # grad_sq = val (b^2 - v^2) with val a power of two gives val back exactly,
    # so the maximum 2 is tied three times in one bin
    b = 1.01
    v = np.array([0.5, 0.30, 0.31, 0.305, 0.32, -0.9, -0.95])
    val = np.array([1.0, 2.0, 2.0, 2.0, 1.0, 1.0, 4.0])
    grad_sq = val * (b**2 - v * v)
    levelset = dl.compute_Z(_Samples(v, grad_sq, b), 4)
    values, arg_t, counts = _reference_Z(v, grad_sq, b, 1.0, 4)
    assert np.array_equal(levelset.values, values, equal_nan=True)
    assert np.array_equal(levelset.arg_t, arg_t, equal_nan=True)
    assert np.array_equal(levelset.counts, counts)
    assert levelset.values[2] == 2.0
    assert levelset.arg_t[2] == np.arcsin(0.30 / b)
    assert levelset.values[0] == 4.0


def _per_level_masked_Z(nef, t_bins):
    """compute_Z over all 2N + 1 points, with one masked maximum over all N
    rows per edge level."""
    b, lam = nef.b, nef.lam
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, t_bins + 1)
    v, grad_sq = _flat_samples(nef)
    t = np.arcsin(v / b)
    val = grad_sq / (lam * (b * b - v * v))
    inside = (t >= edges[0]) & (t <= edges[-1])
    t, val = t[inside], val[inside]
    idx = np.minimum(np.searchsorted(edges, t, side="right") - 1, t_bins - 1)
    counts = np.bincount(idx, minlength=t_bins)
    values = np.full(t_bins, -np.inf)
    np.maximum.at(values, idx, val)
    first = np.full(t_bins, val.size)
    hit = np.flatnonzero(val == values[idx])
    np.minimum.at(first, idx[hit], hit)
    arg_t = np.append(t, np.nan)[first]
    r2 = nef.v_rad ** 2
    a_eq = nef.equator_grad_sq
    levels, at_edge = np.unique((b * np.sin(edges)) ** 2, return_inverse=True)
    # a tiny drawn R overflows C = (R'^2 - A)/R^2, and C s on the rows masked out
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.divide(nef.dv_rad ** 2 - a_eq, r2, out=np.zeros_like(r2), where=r2 > 0.0)
        top = np.array([np.max(a_eq + c * s if s else a_eq, where=r2 >= s, initial=-np.inf)
                        for s in levels])
    edge_val = (top / (lam * (b * b - levels)))[at_edge]
    for side in (slice(None, -1), slice(1, None)):
        counts += edge_val[side] > -np.inf
        better = edge_val[side] > values
        values[better] = edge_val[side][better]
        arg_t[better] = edges[side][better]
    values[counts == 0] = np.nan
    return values, arg_t, counts


def test_compute_Z_keeps_the_zero_level_of_a_row_with_a_subnormal_R():
    # C = (R'^2 - A)/R^2 overflows to inf on R = 2.7e-160; C * 0 would make
    # the v = 0 level's maximum NaN and drop its edge from both bins' counts
    model = dl.sphere(2)
    counts = []
    for R in (2.669184536976705e-160, 1e-3):
        nef = est.NormalizedEigenfunction(
            grid=dl.Grid.uniform(model, 4), l=1, lam=1.0, k=1.0, a=0.0, b=2.0,
            K=1.0, v_rad=np.array([0.0, 0.0, 0.0, R]), dv_rad=np.array([0.0, 0.0, 0.0, 1.0]),
            residual_rel=0.0)
        with np.errstate(over="ignore"):
            levelset = dl.compute_Z(nef, 2)
        assert np.all(np.isfinite(levelset.values))
        counts.append(levelset.counts.tolist())
    assert counts[0] == counts[1] == [2, 9]


# radial values from a small pool, so that rows repeat R^2 (and R = 0)
_RADIAL = st.one_of(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]),
                    st.floats(-1.0, 1.0))


# a tiny drawn R overflows C = (R'^2 - A)/R^2 in both versions alike
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5),
       rows=st.lists(st.tuples(_RADIAL, st.floats(-5.0, 5.0)), min_size=4, max_size=60),
       lam=st.floats(0.5, 10.0), b=st.floats(1.001, 2.0), bins=st.integers(1, 60))
# no row reaches the top level v^2 = 1, whose maximum stays -inf
@example(n=3, rows=[(0.5, 1.0), (-0.25, 2.0), (0.0, 0.5), (0.25, -1.0)], lam=2.0,
         b=1.5, bins=6)
def test_compute_Z_prefix_maxima_match_masked_maxima_bitwise(n, rows, lam, b, bins):
    # sorting the rows by R^2 once and taking each level's maximum over the
    # prefix that reaches it changes no value, argument or count
    model = dl.sphere(n)
    grid = dl.Grid.uniform(model, len(rows))
    v_rad, dv_rad = (np.array(column) for column in zip(*rows))
    nef = est.NormalizedEigenfunction(
        grid=grid, l=1, lam=lam, k=1.0, a=0.0, b=b, K=1.0,
        v_rad=v_rad, dv_rad=dv_rad, residual_rel=0.0)
    levelset = dl.compute_Z(nef, bins)
    values, arg_t, counts = _per_level_masked_Z(nef, bins)
    assert levelset.values.tobytes() == values.tobytes()
    assert levelset.arg_t.tobytes() == arg_t.tobytes()
    assert np.array_equal(levelset.counts, counts)
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    if np.all(v_rad ** 2 < np.max((b * np.sin(edges)) ** 2)):
        edge_val = est._edge_level_maxima(nef, edges)
        assert edge_val[0] == edge_val[-1] == -np.inf


def _list_comprehension_edge_maxima(nef, edges):
    """Per-edge prefix maxima: the rows sorted by R^2, descending, and per
    level one maximum over the prefix that reaches it, each a fresh array.
    This is the prefix loop that ``_edge_level_maxima``'s group bounds
    replaced, and the oracle they must match bit for bit."""
    b, lam = nef.b, nef.lam
    r2 = nef.v_rad ** 2
    a_eq = nef.equator_grad_sq
    c = np.divide(nef.dv_rad ** 2 - a_eq, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    levels, at_edge = np.unique((b * np.sin(edges)) ** 2, return_inverse=True)
    order = np.argsort(r2)[::-1]
    a_eq, c = a_eq[order], c[order]
    reach = np.searchsorted(-r2[order], -levels, side="right")
    top = np.array([np.max(a_eq[:m] + c[:m] * s if s else a_eq[:m], initial=-np.inf)
                    for s, m in zip(levels, reach)])
    return (top / (lam * (b * b - levels)))[at_edge]


def test_edge_level_maxima_match_the_list_comprehension_on_a_real_mode():
    nef = dl.normalize(_l1_mode(20000), b=1.01)
    tb = math.asin(1.0 / nef.b)
    edges = np.linspace(-tb, tb, 201)
    edge_val = est._edge_level_maxima(nef, edges)
    assert edge_val.tobytes() == _list_comprehension_edge_maxima(nef, edges).tobytes()
    assert np.isfinite(edge_val).all()


# radial values with repeats (ties), zeros, and tiny ones whose C overflows
_EDGE_RADIAL = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, 1e-10, -1e-10, 1e-160]),
                         st.floats(-1.0, 1.0))
# warp values: a tiny one sends C = (R'^2 - A)/R^2 = R'^2/R^2 - 1/w^2 to -inf
_EDGE_WARP = st.one_of(st.sampled_from([1.0, 0.5, 1e-160]), st.floats(1e-3, 2.0))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_EDGE_RADIAL, st.sampled_from([0.0, 1.0, -2.0, 1e-3]),
                               _EDGE_WARP), min_size=4, max_size=200),
       lam=st.floats(0.5, 10.0), b=st.floats(1.001, 2.0), bins=st.integers(1, 60))
# R = 0 rows, +inf and -inf in C, tied rows, and no row reaching the outer levels
@example(rows=[(0.0, 1.0, 1.0), (1e-160, 1.0, 0.5), (1e-10, 0.0, 1e-160), (0.5, 1.0, 1.0),
               (0.5, 1.0, 1.0), (-0.5, 1.0, 1.0)], lam=2.0, b=1.5, bins=6)
# identical rows: every group's bound is its exact value, and the best survives
@example(rows=[(0.5, 1.0, 1.0)] * 4, lam=1.0, b=1.01, bins=4)
def test_group_bound_edge_maxima_match_the_prefix_loop_bitwise(rows, lam, b, bins):
    v_rad, dv_rad, w = (np.array(column) for column in zip(*rows))
    with np.errstate(over="ignore"):
        assume(np.all(np.isfinite((v_rad / w) ** 2)))  # A = (R/w)^2 finite
    model = dl.sphere(3)
    nef = est.NormalizedEigenfunction(
        grid=dl.Grid.uniform(model, len(rows)), l=1, lam=lam, k=1.0, a=0.0,
        b=b, K=1.0, v_rad=v_rad, dv_rad=dv_rad, residual_rel=0.0)
    nef.__dict__["equator_grad_sq"] = (v_rad / w) ** 2  # the drawn warp's A, not the sphere's
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    got = est._edge_level_maxima(nef, edges)
    assert got.tobytes() == _list_comprehension_edge_maxima(nef, edges).tobytes()
    if np.all(v_rad ** 2 < (b * np.sin(edges[0])) ** 2):
        assert got[0] == got[-1] == -np.inf


def _reference_compute_Z(nef, bins):
    """compute_Z over the 2N + 1 flat points, with the prefix-loop edge levels."""
    b, lam = nef.b, nef.lam
    tb = math.asin(1.0 / b)
    edges = np.linspace(-tb, tb, bins + 1)
    edge_val = _list_comprehension_edge_maxima(nef, edges) if nef.l == 1 else None
    v, grad_sq = _flat_samples(nef)
    t = np.arcsin(v / b)
    val = grad_sq / (lam * (b * b - v * v))
    inside = (t >= edges[0]) & (t <= edges[-1])
    t, val = t[inside], val[inside]
    idx = np.minimum(np.searchsorted(edges, t, side="right") - 1, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    values = np.full(bins, -np.inf)
    np.maximum.at(values, idx, val)
    first = np.full(bins, val.size)
    hit = np.flatnonzero(val == values[idx])
    np.minimum.at(first, idx[hit], hit)
    arg_t = np.append(t, np.nan)[first]
    if edge_val is not None:
        for side in (slice(None, -1), slice(1, None)):
            counts += edge_val[side] > -np.inf
            better = edge_val[side] > values
            values[better] = edge_val[side][better]
            arg_t[better] = edges[side][better]
    values[counts == 0] = np.nan
    return edges, values, arg_t, counts


@pytest.mark.parametrize("N", [64, 2000, 2001])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rows_once_match_the_flat_points_bitwise_on_real_modes(n, N):
    # the cosine sphere's lambda_1 mode is l = 1, the Ling model's zonal
    for density in (dl.cosine_density(0.5), (0.0, -1.0, -0.25)):
        model = dl.sphere(n, density=density)
        mode = dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, N))
        nef = dl.normalize(mode)
        v, grad_sq = _flat_samples(nef)
        sup = float((grad_sq / (nef.b * nef.b - v * v)).max())
        assert dl.gradient_estimate_margin(nef).sup_ratio == sup
        levelset = dl.compute_Z(nef, 200)
        _, values, arg_t, counts = _reference_compute_Z(nef, 200)
        assert levelset.values.tobytes() == values.tobytes()
        assert levelset.arg_t.tobytes() == arg_t.tobytes()
        assert np.array_equal(levelset.counts, counts)
        z = dl.barrier(nef.a, nef.b, 0.25, 1.0)
        dom = dl.barrier_dominance_check(levelset, z)
        occ = levelset.occupied
        margins = z.value(levelset.arg_t[occ]) - levelset.values[occ]
        assert dom.min_margin == margins.min()
        assert dom.occupied_bins == occ.sum()


def test_touching_point_residual_is_nonpositive_at_the_worst_bin_of_the_sweep():
    # on each shipped sweep instance at N = 400, the touching-point residual
    # of its barrier at the worst dominance bin is <= 0 (up to rounding)
    from driftlab import config as cfg, runner
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "cosine_density_sweep.json").read_text())
    config = cfg.parse_config(dict(raw, grids=[400]))
    seen = 0
    for inst in config.instances():
        model = cfg.build_model(config, inst)
        grid = dl.Grid.uniform(model, inst.N)
        fe = dl.first_nonzero_eigenvalue(grid)
        nef = dl.normalize(fe, b=config.b)
        z = runner._select_case_barrier(config, nef, dl.ling_case(nef.a, nef.delta))
        # the worst bin's t: where the least dominance margin is taken
        levelset = dl.compute_Z(nef, config.bins)
        occ = levelset.occupied
        margins = z.value(levelset.arg_t[occ]) - levelset.values[occ]
        assert margins.min() == dl.barrier_dominance_check(levelset, z).min_margin
        t = levelset.arg_t[occ][np.argmin(margins)]
        res = _touching_point_residual(z.value(t), z.derivative(t, 1), z.derivative(t, 2), t,
                                       c=nef.c, delta=nef.delta, a=nef.a)
        assert res.full[0] <= 1e-12
        seen += 1
    assert seen == 15
