"""Smoke tests of the benchmark's own code at tiny N.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_N = 64


@pytest.mark.parametrize("name,rows", [("sweep", 15), ("sphere_large", 1), ("circle", 3)])
def test_workload_pass_checks_clean_at_tiny_n(name, rows):
    inputs = workloads.setup(name, 0, grid=TINY_N)
    result = workloads.check(inputs, workloads.run_pass(inputs), reference=None)
    assert (result.attempted, result.failed, result.failures) == (rows, 0, [])
    assert 0.0 < result.rel_err < 1e-2


def test_seed_draws_amplitudes_and_seed_zero_is_shipped():
    shipped = json.loads(workloads.SWEEP_CONFIG.read_text())["family"]["density"]["eps"]
    assert workloads.setup("sweep", 0, grid=TINY_N).config.density.eps == tuple(shipped)
    drawn = workloads.setup("sweep", 7, grid=TINY_N).config.density.eps
    assert drawn == workloads.setup("sweep", 7, grid=TINY_N).config.density.eps
    assert drawn != tuple(shipped)
    assert all(0.1 <= e <= 0.9 for e in drawn)
    assert workloads.setup("circle", 0, grid=TINY_N).config.density.eps == (0.1, 0.5, 0.9)


def test_reference_mismatch_fails_the_row():
    inputs = workloads.setup("circle", 0, grid=TINY_N)
    output = workloads.run_pass(inputs)
    rows = output[0].rows
    exact = {row["instance"]: row["lambda1"] for row in rows}
    assert workloads.check(inputs, output, exact).failed == 0
    off = dict(exact)
    off[rows[1]["instance"]] += 10.0 * rows[1]["lambda1_err_est"]
    result = workloads.check(inputs, output, off)
    assert result.failed == 1 and "reference" in result.failures[0]
    # at seed 0 a row without a reference value is a failure, not a pass
    assert workloads.check(inputs, output, {}).failed == 3


def test_verify_check_counts_failed_criteria():
    def criterion(cid, passed, rows=()):
        return SimpleNamespace(cid=cid, passed=passed, title=f"c{cid}", rows=list(rows))

    lam_row = {"quantity": "lambda1", "value": 2.0004, "expected": 2.0}
    ok = SimpleNamespace(passed=True, results=[criterion(1, True, [lam_row]),
                                               criterion(2, True)])
    result = workloads.check(workloads.Inputs("verify", 0, None), ok, None)
    assert (result.attempted, result.failed) == (2, 0)
    assert result.rel_err == pytest.approx(2e-4)
    bad = SimpleNamespace(passed=False, results=[criterion(1, True, [lam_row]),
                                                 criterion(2, False)])
    assert workloads.check(workloads.Inputs("verify", 0, None), bad, None).failed == 1


def test_tracer_counts_layers_and_restores_the_program():
    import driftlab.acceptance
    import driftlab.runner
    import driftlab.spectral

    originals = (driftlab.spectral.solve_eigen, driftlab.runner.first_nonzero_eigenvalue,
                 driftlab.acceptance.CRITERIA)
    inputs = workloads.setup("sweep", 0, grid=TINY_N)
    t = tracer.Tracer()
    output, wall = t.run_pass(1, lambda: workloads.run_pass(inputs))
    assert workloads.check(inputs, output, None).failed == 0
    assert (driftlab.spectral.solve_eigen, driftlab.runner.first_nonzero_eigenvalue,
            driftlab.acceptance.CRITERIA) == originals

    row = tracer.summarize(list(t.per_pass().values()))
    assert set(row) | {"trace.overhead_s"} == {n for n, _ in tracer.metric_names()}
    assert row["runner.run_instance.calls"] == 15
    assert row["spectral.first_nonzero_eigenvalue.calls"] == 15
    # three sectors at N and at N/2 per instance, two of them useful
    assert row["spectral.solve_eigen.calls"] == 90
    assert row["spectral.solve_eigen.rows"] == 15 * 3 * (TINY_N + TINY_N // 2)
    assert row["spectral.useful_solve_ratio"] == pytest.approx(1 / 3)
    assert row["spectral.solve_eigen.dense_calls"] == 0
    # two be_ricci_lower_bound calls per instance, through two module bindings
    assert row["geometry.be_ricci_lower_bound.calls"] == 30
    assert row["estimates.samples"] > 0
    assert row["estimates.sample_bytes"] == 8 * row["estimates.samples"]
    assert 0.0 <= row["trace.untraced_s"] < wall
    self_total = sum(v for k, v in row.items() if k.endswith(".self_s"))
    assert self_total + row["trace.untraced_s"] == pytest.approx(wall, rel=1e-6)


def test_tracer_wraps_criteria_inside_the_criteria_tuple():
    import driftlab.acceptance

    original = driftlab.acceptance.CRITERIA
    t = tracer.Tracer()
    # run_criteria() iterates this tuple, so its members must be wrapped too
    t.run_pass(1, lambda: [fn() for fn in driftlab.acceptance.CRITERIA[-3:]])
    row = t.per_pass()[1]
    assert row["acceptance.criterion_exact_constants.calls"] == 1
    assert row["acceptance.criterion_case_totality.calls"] == 1
    assert driftlab.acceptance.CRITERIA is original


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "circle",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
