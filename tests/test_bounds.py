"""Closed-form bound values, case analysis, and exact rational constants."""

import math
from fractions import Fraction

import pytest

import driftlab as dl
from driftlab.bounds import CASE_FLOOR, LING_RATIO
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
    der = dl.derive_diameter_bound()
    assert der.as_pair() == (10, 13)
    assert der.residual == Fraction(169, 100)
    assert der.ratio == Fraction(10, 13)
    assert der.eigen_multiple - der.ling_ratio == der.residual
    # no floating point: repeated runs are identical objects value-wise
    again = dl.derive_diameter_bound()
    assert again.as_pair() == der.as_pair()
    assert again.residual == der.residual
    # cross-check: pi / sqrt(169/100) equals the float path bit for bit
    assert dl.soliton_diameter_lower(1.0) == 10 * math.pi / (13 * math.sqrt(1.0))


def test_lambda_input_is_twice_gamma():
    # the derivation consumes the drift eigenvalue lambda = 2 gamma
    assert dl.derive_diameter_bound().eigen_multiple == Fraction(2)
    assert LING_RATIO == Fraction(31, 100)


def test_bound_report_assembly():
    case = dl.ling_case(0.0, 0.25)
    report = dl.build_bound_report(n=2, K=1.0, d=math.pi, case=case)
    assert report.lichnerowicz == 1.0
    assert report.ling == pytest.approx(1.31, abs=1e-12)
    assert report.case is case and report.case.label == "A"
    assert report.case_bound == pytest.approx(1.5, abs=1e-12)  # pi^2/d^2 + alpha = 1 + 1/2
    # without a case only the two unconditional bounds are recorded
    bare = dl.build_bound_report(n=2, K=1.0, d=math.pi)
    assert (bare.lichnerowicz, bare.ling) == (report.lichnerowicz, report.ling)
    assert bare.case is None and bare.case_bound is None


def test_bound_report_marks_inapplicable():
    # a non-positive Ricci lower bound leaves no bound to record
    with pytest.raises(InapplicableBoundError, match="positive Ricci lower bound"):
        dl.build_bound_report(n=2, K=-0.5, d=math.pi)
    with pytest.raises(InapplicableBoundError, match="positive diameter"):
        dl.build_bound_report(n=2, K=1.0, d=0.0, case=dl.ling_case(0.0, 0.25))
