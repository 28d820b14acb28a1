"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-9 run in-process through the acceptance module (which is also what
the ``verify-paper`` subcommand executes), criteria 2-4 on one shared
evaluation of the cosine-density family; criterion 10 invokes the CLI twice
in separate processes and compares the emitted CSV reports byte for byte.
Each test prints one PASS/FAIL line for its criterion.
"""

import dataclasses
import subprocess
import sys

import pytest

from driftlab import acceptance


def _run(fn, *args):
    result = fn(*args)
    print()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    for row in result.rows:
        assert row["status"] == "pass", f"criterion {result.cid}: {row}"
    assert result.passed
    return result


def test_criterion_01_spectral_accuracy():
    result = _run(acceptance.criterion_spectral_accuracy)
    assert result.runtime_s < 60.0


@pytest.fixture(scope="module")
def cosine_family():
    return acceptance.evaluate_cosine_family()


def test_cosine_family_keeps_only_scalars(cosine_family):
    # criteria 2-4 read a few numbers per member; no eigenvector, grid or
    # model stays alive between them
    assert len(cosine_family.members) == 15
    for member in cosine_family.members:
        for f in dataclasses.fields(member):
            assert type(getattr(member, f.name)) in (int, float), f.name


def test_criterion_02_lichnerowicz_suite(cosine_family):
    _run(acceptance.criterion_lichnerowicz_suite, cosine_family)


def test_criterion_03_ling_suite(cosine_family):
    result = _run(acceptance.criterion_ling_suite, cosine_family)
    assert cosine_family.runtime_s <= result.runtime_s < 120.0


def test_criterion_04_gradient_estimate(cosine_family):
    _run(acceptance.criterion_gradient_estimate, cosine_family)


def test_criterion_05_barrier_dominance():
    _run(acceptance.criterion_barrier_dominance)


def test_criterion_06_test_function_identities():
    _run(acceptance.criterion_test_functions)


def test_criterion_07_exact_constants():
    _run(acceptance.criterion_exact_constants)


def test_criterion_08_soliton_checker():
    _run(acceptance.criterion_soliton_checker)


def test_criterion_09_case_totality():
    _run(acceptance.criterion_case_totality)


def test_mutation_smoke(monkeypatch):
    # injected fault: perturbing a series coefficient must break the suite
    # of xi and of every barrier, which read the one table of coefficients
    import driftlab.estimates as est
    bad = est._SERIES.copy()
    bad[0, 0] = 1e-3  # shifts xi(pi/2) and xi(0) away from their exact values
    monkeypatch.setattr(est, "_SERIES", bad)
    result = acceptance.criterion_test_functions()
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
