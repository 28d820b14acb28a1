"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-9 run in-process through the acceptance module (which is also what
the ``verify-paper`` subcommand executes), criteria 2-4 from one pass over
the cosine-density family; one ``run_criteria()`` pass supplies the timed
results and their budget rows; criterion 10 invokes the CLI twice
in separate processes and compares the emitted CSV reports byte for byte.
Each test prints one PASS/FAIL line for its criterion.
"""

import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from driftlab import acceptance, bounds


def _report(result):
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    for row in result.rows:
        assert row["status"] == "pass", f"criterion {result.cid}: {row}"
    assert result.passed
    return result


def _run(fn):
    result, = fn()
    return _report(result)


@pytest.fixture(scope="module")
def suite():
    """One timed suite pass: the results of criteria 1-9 by criterion id."""
    return {result.cid: result for result in acceptance.run_criteria()}


def test_criterion_01_spectral_accuracy(suite):
    assert _report(suite[1]).runtime_s < 60.0


@pytest.fixture(scope="module")
def cosine_family():
    return acceptance.criteria_cosine_family()


def test_cosine_family_keeps_only_scalars(cosine_family, suite):
    # one pass fills criteria 2-4 row by row: 15 instance rows each, plus
    # criterion 3's budget row in the timed suite, and every row holds
    # Python scalars or strings, so no eigenvector, grid or model outlives
    # its instance
    assert [result.cid for result in cosine_family] == [2, 3, 4]
    instances = [[row["instance"] for row in result.rows] for result in cosine_family]
    assert len(instances[0]) == 15 and instances[0] == instances[1] == instances[2]
    assert [row["quantity"] for row in suite[3].rows
            if row["instance"] == "suite"] == ["runtime_within_120s"]
    assert [len(suite[cid].rows) for cid in (2, 3, 4)] == [15, 16, 15]
    for result in cosine_family:
        for row in result.rows:
            for key, value in row.items():
                assert type(value) in (int, float, bool, str, type(None)), (key, value)


def test_criterion_02_lichnerowicz_suite(cosine_family):
    _report(cosine_family[0])


def test_criterion_03_ling_suite(cosine_family, suite):
    _report(cosine_family[1])
    # the 120 s budget covers the whole pass, which all three criteria share
    result = _report(suite[3])
    assert result.runtime_s < 120.0
    assert {suite[cid].runtime_s for cid in (2, 3, 4)} == {result.runtime_s}


def test_run_criteria_is_the_suite_clock(suite):
    # every result carries the time of the call that filled it, criteria
    # 2-4 one shared pass, and only criteria 1 and 3 carry a budget row
    assert sorted(suite) == list(range(1, 10))
    assert all(result.runtime_s > 0.0 for result in suite.values())
    assert len({suite[cid].runtime_s for cid in (2, 3, 4)}) == 1
    budgets = [(result.cid, row["quantity"], row["status"]) for result in suite.values()
               for row in result.rows if row["quantity"].startswith("runtime_within")]
    assert budgets == [(1, "runtime_within_60s", "pass"), (3, "runtime_within_120s", "pass")]


def test_suite_rows_per_criterion(suite):
    # the report's row count per criterion, summary rows included; criterion
    # 10 adds its two rows in verify_paper
    counts = Counter(row["criterion"] for row in acceptance.suite_rows(list(suite.values())))
    assert counts == {1: 10, 2: 16, 3: 17, 4: 16, 5: 3, 6: 17, 7: 4, 8: 8, 9: 9}


def test_criterion_04_gradient_estimate(cosine_family):
    _report(cosine_family[2])


def test_criterion_05_barrier_dominance():
    _run(acceptance.criterion_barrier_dominance)


def test_criterion_06_test_function_identities():
    _run(acceptance.criterion_test_functions)


def test_criterion_07_exact_constants():
    _run(acceptance.criterion_exact_constants)


def test_criterion_08_soliton_checker():
    _run(acceptance.criterion_soliton_checker)


def test_criterion_09_case_totality():
    result = _run(acceptance.criterion_case_totality)
    # a certificate in exact rationals: one row per case plus the float
    # thresholds and pi's bound, each value and bound an exact Fraction
    assert {(row["instance"], row["quantity"]) for row in result.rows} == {
        ("A", "alpha_multiple"), ("B-1", "alpha_multiple"), ("B-2-b2", "alpha_multiple"),
        ("B-2-a", "alpha_multiple_lower"), ("B-2-a", "float_threshold"),
        ("B-2-b1", "alpha_multiple_lower"), ("B-2-b1", "float_threshold_ratio"),
        ("pi", "machin_upper_bound")}
    for row in result.rows:
        value, bound = Fraction(row["value"]), Fraction(row["expected"])
        assert value < bound if row["instance"] == "pi" else value >= bound
    lower = {row["instance"]: Fraction(row["value"]) for row in result.rows
             if row["quantity"] == "alpha_multiple_lower"}
    assert lower["B-2-a"] == lower["B-2-b1"] > Fraction(31, 50)


def test_machin_bound_lies_above_pi():
    # criterion 9's P is bounds.PI_UPPER, Machin's bound rounded up at 35
    # decimals: pi rounded up at 35 decimals, within 1e-35 above pi
    mpmath = pytest.importorskip("mpmath")
    P = bounds.PI_UPPER
    assert type(P) is Fraction and P == Fraction("3.14159265358979323846264338327950289")
    result, = acceptance.criterion_case_totality()
    row, = (row for row in result.rows if row["instance"] == "pi")
    assert Fraction(row["value"]) == P
    with mpmath.workdps(50):
        assert 0 < mpmath.mpf(P.numerator) / P.denominator - mpmath.pi < mpmath.mpf("1e-35")


@pytest.mark.parametrize("module,name,value,failing", [
    (bounds, "PI_UPPER", Fraction(22, 7),
     {("pi", "machin_upper_bound"), ("B-2-a", "alpha_multiple_lower"),
      ("B-2-a", "float_threshold"), ("B-2-b1", "alpha_multiple_lower"),
      ("B-2-b1", "float_threshold_ratio")}),
    (bounds, "A_LARGE", Fraction(152, 200), {("B-2-a", "alpha_multiple_lower")}),
    (bounds, "_A_LARGE", 0.764, {("B-2-a", "float_threshold")}),
    (bounds, "_A_OVER_DELTA", 1.5297, {("B-2-b1", "float_threshold_ratio")}),
], ids=["pi-22/7", "A_LARGE-152/200", "float-0.764", "float-1.5297"])
def test_criterion_09_fails_on_a_weaker_constant(monkeypatch, module, name, value, failing):
    # 22/7 is too coarse a bound on pi, and a threshold below 153/200 (or a
    # float one below 31 P^2/400, resp. 31 P^2/200) would let a case fall
    # under 31/50: the certificate names each failing step
    monkeypatch.setattr(module, name, value)
    result, = acceptance.criterion_case_totality()
    assert not result.passed
    assert {(row["instance"], row["quantity"]) for row in result.rows
            if row["status"] == "fail"} == failing


def test_mutation_smoke(monkeypatch):
    # injected fault: perturbing a series coefficient must break the suite
    # of xi and of every barrier, which read the one table of coefficients
    import driftlab.estimates as est
    bad = est._SERIES.copy()
    bad[0, 0] = 1e-3  # shifts xi(pi/2) and xi(0) away from their exact values
    monkeypatch.setattr(est, "_SERIES", bad)
    result, = acceptance.criterion_test_functions()
    assert not result.passed
    failed = {(row["instance"], row["quantity"]) for row in result.rows
              if row["status"] == "fail"}
    assert ("xi", "endpoint_value") in failed
    assert any(quantity == "barrier_mass" for _, quantity in failed)


def test_criterion_passes_only_when_every_row_passed():
    # a criterion that checked nothing does not pass
    empty = acceptance.CriterionResult(0, "empty")
    assert not empty.passed and empty.line().startswith("FAIL")
    result = acceptance.CriterionResult(0, "one row")
    result.check("x", "q", 1.0, 1.0, 0.0, True)
    assert result.passed
    result.check("x", "r", 2.0, 1.0, 0.0, False)
    assert not result.passed
    assert [row["status"] for row in result.rows] == ["pass", "fail"]
    assert result.rows[1]["quantity"] == "r" and result.rows[1]["criterion"] == 0


def test_check_without_ok_compares_value_to_expected_within_tolerance():
    # the default rule is |value - expected| <= tolerance, inclusive, and a
    # NaN value fails it
    result = acceptance.CriterionResult(0, "default rule")
    result.check("x", "at_tolerance", 1.5, 1.0, 0.5)
    result.check("x", "below", 0.5, 1.0, 0.5)
    result.check("x", "beyond", 1.5 + 2**-50, 1.0, 0.5)
    result.check("x", "nan", math.nan, 1.0, 0.5)
    assert [row["status"] for row in result.rows] == ["pass", "pass", "fail", "fail"]


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "driftlab.cli", "verify-paper",
             "--out", str(out), "--format", "csv"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append((out / "verify_paper.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    print()
    print(f"{'PASS' if identical else 'FAIL'}  criterion 10: two verify-paper runs "
          f"produce byte-identical CSV reports ({len(outputs[0])} bytes)")
    assert identical
