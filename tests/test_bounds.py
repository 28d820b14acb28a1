"""Closed-form bound values, case analysis, and exact rational constants."""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest

import driftlab as dl
from driftlab.bounds import (A_LARGE, A_OVER_DELTA, CASE_FLOOR, DRIFT_EIGEN_MULTIPLE,
                             LING_RATIO, PI_UPPER)
from driftlab.errors import InapplicableBoundError


def test_lichnerowicz_values():
    assert dl.lichnerowicz_be(2, 1.0) == 1.0
    assert dl.lichnerowicz_be(4, 1.0 / 3.0) == pytest.approx(1.0)
    with pytest.raises(InapplicableBoundError):
        dl.lichnerowicz_be(2, 0.0)
    with pytest.raises(InapplicableBoundError):
        dl.lichnerowicz_be(1, 1.0)


def test_ling_bound_values():
    assert dl.ling_be_bound(2, 1.0, math.pi) == pytest.approx(1.31, abs=1e-12)
    assert dl.ling_be_bound(5, 1.0, math.pi) == pytest.approx(2.24, abs=1e-12)
    assert dl.ling_be_bound(2, 0.5, math.pi) == pytest.approx(1.155, abs=1e-12)
    # measured classical values sit above the bound
    assert 5.0 - dl.ling_be_bound(5, 1.0, math.pi) == pytest.approx(2.76, abs=1e-12)


def test_ling_bound_monotonicity():
    base = dl.ling_be_bound(3, 1.0, 2.0)
    assert dl.ling_be_bound(3, 1.0, 3.0) < base           # decreasing in d
    assert dl.ling_be_bound(3, 1.5, 2.0) > base           # increasing in K
    assert dl.ling_be_bound(4, 1.0, 2.0) > base           # increasing in n
    assert base > math.pi**2 / 4.0                        # dominates pi^2/d^2


def test_case_examples():
    case = dl.ling_case(0.0, 0.3)
    assert case.label == "A" and case.alpha_multiple == 1.0
    case = dl.ling_case(0.8, 0.25)  # pi^2*0.25/4 = 0.6169 <= 0.8
    assert case.label == "B-1" and case.mu == 1.0
    case = dl.ling_case(0.5, 0.3)   # pi^2*0.3/4 = 0.740 > 0.5, 1.53*0.3 <= 0.5
    assert case.label == "B-2-b1"
    assert case.mu == pytest.approx(4 * 0.5 / (math.pi**2 * 0.3), abs=1e-12)
    assert case.mu == pytest.approx(0.6755, abs=1e-4)
    case = dl.ling_case(0.8, 0.4)   # pi^2*0.4/4 = 0.987 > 0.8 >= 0.765
    assert case.label == "B-2-a"
    assert case.alpha_multiple == pytest.approx(8 * 0.8 / math.pi**2, abs=1e-12)
    case = dl.ling_case(0.1, 0.4)   # 0.1 < 1.53*0.4
    assert case.label == "B-2-b2"
    assert case.alpha_multiple == float(CASE_FLOOR)


def test_case_large_asymmetry_floor():
    # the combined chain gives (8a/pi^2) alpha, and 8*0.765/pi^2 > 31/50
    assert 8.0 * 0.765 / math.pi**2 > float(CASE_FLOOR)
    case = dl.ling_case(0.765, 0.5)  # pi^2*0.5/4 = 1.234 > 0.765
    assert case.label == "B-2-a"
    assert case.alpha_multiple >= float(CASE_FLOOR)


def test_case_totality_and_floor():
    floor = float(CASE_FLOOR)
    seen = set()
    for i in range(100):
        for j in range(1, 51):
            case = dl.ling_case(i / 100.0, j / 100.0)
            seen.add(case.label)
            assert case.alpha_multiple >= floor or case.label in ("A", "B-1")
            assert case.alpha_multiple >= floor  # A and B-1 give 1.0 > 31/50
    assert seen == {"A", "B-1", "B-2-a", "B-2-b1", "B-2-b2"}
    with pytest.raises(InapplicableBoundError):
        dl.ling_case(1.0, 0.3)
    with pytest.raises(InapplicableBoundError):
        dl.ling_case(0.3, 0.6)


def test_ling_case_refuses_subnormal_delta():
    # 1.53 delta rounds to 1.5 delta at delta = 2 * 5e-324, where B-2-b1
    # would give mu = 0.6 < 31/50; criterion 9's certificate needs normal delta
    with pytest.raises(InapplicableBoundError, match="normal float"):
        dl.ling_case(1.5e-323, 1e-323)
    with pytest.raises(InapplicableBoundError, match="normal float"):
        dl.ling_case(0.0, math.nextafter(sys.float_info.min, 0.0))
    assert dl.ling_case(0.0, sys.float_info.min).label == "A"


def _b1_threshold(delta):
    """pi^2 delta / 4 to 60 digits (mpmath), for the exact B-1 test."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        return mpmath.pi**2 * mpmath.mpf(delta) / 4


def _ling_case_from_fractions(a, delta):
    """(label, mu, alpha multiple) of the case split with the B-1 test exact
    and every other threshold rounded from its exact Fraction on each call."""
    if a == 0.0:
        return "A", 1.0, 1.0
    if a >= _b1_threshold(delta):
        return "B-1", 1.0, 1.0
    mu = 4.0 * a / (math.pi**2 * delta)
    if a >= float(A_LARGE):
        return "B-2-a", mu, 8.0 * a / math.pi**2
    if a >= float(A_OVER_DELTA) * delta:
        return "B-2-b1", mu, mu
    return "B-2-b2", None, float(CASE_FLOOR)


def _branch_edges():
    """(a, delta) where ling_case changes branch: a = 0, a = 0.765, and for each
    delta of the 100 x 50 grid a = pi^2 delta / 4 (the nearest float to the
    exact value) and a = 1.53 delta, below 1."""
    edges = [(0.0, 0.3), (float(A_LARGE), 0.4), (float(A_LARGE), 0.5)]
    for j in range(1, 51):
        delta = j / 100.0
        edges += [(float(_b1_threshold(delta)), delta), (float(A_OVER_DELTA) * delta, delta)]
    return [(a, delta) for a, delta in edges if a < 1.0]


def _case(a, delta):
    case = dl.ling_case(a, delta)
    return case.label, case.mu, case.alpha_multiple


def test_ling_case_matches_the_fraction_thresholds_bitwise():
    # B-1's test is exact; the other thresholds are floats rounded once from
    # A_LARGE, A_OVER_DELTA and CASE_FLOOR, and every other decision and value
    # keeps the per-call rounding's bits
    for i in range(100):
        for j in range(1, 51):
            assert _case(i / 100.0, j / 100.0) == _ling_case_from_fractions(i / 100.0, j / 100.0)
    for a, delta in _branch_edges():
        around = [x for x in (math.nextafter(a, -1.0), a, math.nextafter(a, 2.0)) if x >= 0.0]
        cases = [_case(x, delta) for x in around]
        assert cases == [_ling_case_from_fractions(x, delta) for x in around]
        # the edge separates two branches, so its neighbours test both sides
        assert len({case[0] for case in cases}) == 2


def test_ling_case_b1_boundary_is_exact():
    # B-1 (mu = 1) needs mu delta <= 4a/pi^2, i.e. a >= pi^2 delta / 4 exactly:
    # the float just below the exact threshold is not B-1, the one at or above is
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        excess = mpmath.mpf(PI_UPPER.numerator) / PI_UPPER.denominator - mpmath.pi
        assert 0 < excess < mpmath.mpf("1e-35")
    for j in range(1, 41):
        delta = j / 100.0
        threshold = _b1_threshold(delta)
        nearest = float(threshold)
        if mpmath.mpf(nearest) >= threshold:
            below, above = math.nextafter(nearest, 0.0), nearest
        else:
            below, above = nearest, math.nextafter(nearest, 1.0)
        assert mpmath.mpf(below) < threshold <= mpmath.mpf(above)
        assert dl.ling_case(below, delta).label != "B-1", (j, below)
        assert dl.ling_case(above, delta).label == "B-1", (j, above)
    # 1.2e-16 below pi^2 * 0.4 / 4: B-2-a, whose mu is 1 to rounding
    case = dl.ling_case(0.9869604401089358, 0.4)
    assert case.label == "B-2-a" and case.mu <= 1.0 + 1e-12


def test_myers_values():
    assert dl.myers_upper(2, 1.0) == pytest.approx(math.pi, abs=1e-15)
    assert dl.myers_upper(4, 1.0) == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-15)
    assert dl.myers_upper(4, 3.0) == pytest.approx(math.pi, rel=1e-15)


def test_soliton_diameter_lower_values():
    assert dl.soliton_diameter_lower(1.0) == pytest.approx(10 * math.pi / 13, rel=1e-15)
    assert dl.soliton_diameter_lower(1.0) == pytest.approx(2.41661, abs=1e-5)
    assert dl.soliton_diameter_lower(4.0) == pytest.approx(5 * math.pi / 13, rel=1e-15)
    assert dl.soliton_diameter_lower(100.0) == pytest.approx(math.pi / 13, rel=1e-15)


def test_derivation_exact():
    ratio = dl.derive_diameter_bound()
    assert type(ratio) is Fraction and ratio == Fraction(10, 13)
    assert (ratio.numerator, ratio.denominator) == (10, 13)
    # 1 / ratio^2 is the residual 2 - 31/100 = 169/100 of the Ling-type bound
    assert 1 / ratio**2 == Fraction(169, 100) == DRIFT_EIGEN_MULTIPLE - LING_RATIO
    # no floating point: repeated runs give the same value
    assert dl.derive_diameter_bound() == ratio
    # cross-check: pi / sqrt(169/100) equals the float path bit for bit
    assert dl.soliton_diameter_lower(1.0) == 10 * math.pi / (13 * math.sqrt(1.0))


def test_lambda_input_is_twice_gamma():
    # the derivation consumes the drift eigenvalue lambda = 2 gamma
    assert DRIFT_EIGEN_MULTIPLE == Fraction(2)
    assert LING_RATIO == Fraction(31, 100)


def test_bound_report_assembly():
    case = dl.ling_case(0.0, 0.25)
    assert case.label == "A"
    report = dl.build_bound_report(n=2, K=1.0, d=math.pi, case=case)
    assert report.lichnerowicz == 1.0
    assert report.ling == pytest.approx(1.31, abs=1e-12)
    assert report.case_bound == pytest.approx(1.5, abs=1e-12)  # pi^2/d^2 + alpha = 1 + 1/2
    # the report holds the bound values only; the caller keeps its case
    assert [f.name for f in dataclasses.fields(report)] == ["lichnerowicz", "ling", "case_bound"]
    # without a case only the two unconditional bounds are recorded
    bare = dl.build_bound_report(n=2, K=1.0, d=math.pi)
    assert (bare.lichnerowicz, bare.ling) == (report.lichnerowicz, report.ling)
    assert bare.case_bound is None


def test_bound_report_marks_inapplicable():
    # a non-positive Ricci lower bound leaves no bound to record
    with pytest.raises(InapplicableBoundError, match="positive Ricci lower bound"):
        dl.build_bound_report(n=2, K=-0.5, d=math.pi)
    with pytest.raises(InapplicableBoundError, match="positive diameter"):
        dl.build_bound_report(n=2, K=1.0, d=0.0, case=dl.ling_case(0.0, 0.25))
