"""The benchmark's workloads: inputs drawn from a seed, one pass, and its check.

This module imports only the standard library at load time, so a worker can
start its set-up clock before ``driftlab`` (and numpy/scipy) are imported.

Workloads
---------
sweep         the shipped 15-instance cosine-density sweep at N=2000 with the
              spectrum, bounds and estimates checks, rendered to CSV and JSON
sphere_large  one sphere (n=3, eps 0.5) at N=100000 with the same checks: the
              only workload whose memory grows with N.  It ignores the seed:
              at this N the Richardson estimate is rounding-dominated and
              moves 8x between amplitudes (2e-8 to 1.7e-7 relative), which
              would make the seed, not the code, move lam1_rel_err
circle        three weighted circles at N=2000, spectrum check only: the only
              workload on the periodic (dense) solve path
verify        one ``acceptance.verify_paper()`` call (two criteria passes plus
              the byte comparison); fixed by the paper, so it ignores the seed

For ``sweep`` and ``circle`` the seed draws the cosine amplitudes from
[0.1, 0.9]; seed 0 reproduces the shipped configuration (eps 0.1, 0.3, ...,
0.9) and the circle amplitudes 0.1, 0.5, 0.9.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "cosine_density_sweep.json"
REFERENCE_FILE = Path(__file__).with_name("reference.json")

EPS_RANGE = (0.1, 0.9)
SPHERE_LARGE_N = 100000
SPHERE_LARGE_EPS = 0.5
CIRCLE_N = 2000
CIRCLE_EPS0 = (0.1, 0.5, 0.9)

WORKLOADS = ("sweep", "sphere_large", "circle", "verify")


def draw_eps(seed: int, seed0: tuple[float, ...]) -> tuple[float, ...]:
    """Cosine amplitudes for a seed: ``seed0`` at seed 0, else uniform draws."""
    if seed == 0:
        return tuple(seed0)
    rng = random.Random(seed)
    return tuple(sorted(round(rng.uniform(*EPS_RANGE), 4) for _ in seed0))


@dataclass
class CheckResult:
    """Outcome of the correctness check on one pass."""

    attempted: int
    failed: int
    rel_err: float
    failures: list[str] = field(default_factory=list)


@dataclass
class Inputs:
    workload: str
    seed: int
    config: object | None  # driftlab ExperimentConfig; None for verify


def _sweep_raw(seed: int) -> dict:
    raw = json.loads(SWEEP_CONFIG.read_text())
    density = raw["family"]["density"]
    density["eps"] = list(draw_eps(seed, tuple(density["eps"])))
    return raw


def _sphere_large_raw(seed: int) -> dict:
    return {
        "schema_version": 1,
        "family": {"name": "sphere", "n": [3], "radius": 1.0,
                   "density": {"name": "cosine", "eps": [SPHERE_LARGE_EPS]}},
        "grids": [SPHERE_LARGE_N], "b": 1.01, "bins": 200, "l_max": 2, "workers": 1,
        "checks": ["spectrum", "bounds", "estimates"],
    }


def _circle_raw(seed: int) -> dict:
    return {
        "schema_version": 1,
        "family": {"name": "circle", "length": 2.0 * math.pi,
                   "density": {"name": "cosine",
                               "eps": list(draw_eps(seed, CIRCLE_EPS0))}},
        "grids": [CIRCLE_N], "l_max": 2, "workers": 1, "checks": ["spectrum"],
    }


_RAW_CONFIGS = {"sweep": _sweep_raw, "sphere_large": _sphere_large_raw,
                "circle": _circle_raw}


def setup(workload: str, seed: int, grid: int | None = None) -> Inputs:
    """Parse the workload's configuration (importing driftlab on first use).

    ``grid`` overrides the grid size; the smoke test uses it to run at tiny N.
    """
    import driftlab.cli  # noqa: F401  (the cold import is part of set-up)
    from driftlab.config import parse_config

    if workload == "verify":
        return Inputs(workload, seed, None)
    raw = _RAW_CONFIGS[workload](seed)
    if grid is not None:
        raw["grids"] = [grid]
    return Inputs(workload, seed, parse_config(raw))


def run_pass(inputs: Inputs):
    """One workload pass, through the public runner/reports/acceptance API.

    Returns what the check needs; the rendered reports are produced inside the
    pass so their cost is timed.
    """
    if inputs.workload == "verify":
        from driftlab.acceptance import verify_paper
        return verify_paper()
    from driftlab import reports, runner
    report = runner.run(inputs.config)
    csv_text = reports.render_csv(report.rows, reports.SWEEP_COLUMNS)
    json_text = reports.render_json(
        reports.json_payload(report.rows, report.summary, report.environment))
    return report, csv_text, json_text


def load_reference(workload: str) -> dict[str, float]:
    """Seed-0 lambda1 per instance key, as stored with the benchmark."""
    return json.loads(REFERENCE_FILE.read_text())["lambda1"].get(workload, {})


def check(inputs: Inputs, output, reference: dict[str, float] | None) -> CheckResult:
    """Correctness of one pass; one operation per row (per criterion for verify).

    A row fails when it carries an error, when any requested verdict is not
    true, when lambda1 is not positive and finite, or, given a ``reference``,
    when lambda1 differs from the row's reference value by more than the
    row's own error estimate.  At seed 0 every row must have a reference.
    """
    if inputs.workload == "verify":
        return _check_verify(output)
    report, csv_text, json_text = output
    failures = []
    rel_err = 0.0
    for row in report.rows:
        key = row["instance"]
        lam = row.get("lambda1")
        err = row.get("lambda1_err_est")
        problems = []
        if row.get("error"):
            problems.append(f"error: {row['error']}")
        for name in inputs.config.checks:
            if row.get(f"verdict_{name}") is not True:
                problems.append(f"verdict_{name}={row.get(f'verdict_{name}')}")
        if lam is None or not (math.isfinite(lam) and lam > 0.0):
            problems.append(f"lambda1={lam}")
        elif err is None or not math.isfinite(err):
            problems.append(f"lambda1_err_est={err}")
        else:
            rel_err = max(rel_err, err / lam)
            if reference is not None:
                ref = reference.get(key)
                if ref is None and inputs.seed == 0:
                    problems.append("no reference lambda1")
                elif ref is not None and abs(lam - ref) > err:
                    problems.append(f"lambda1={lam!r} vs reference {ref!r} (err_est {err:.3e})")
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    if csv_text.count("\n") != len(report.rows) + 1:
        failures.append("CSV report does not hold one line per row")
    if json.loads(json_text)["summary"] != report.summary:
        failures.append("JSON report summary does not round-trip")
    return CheckResult(attempted=len(report.rows),
                       failed=min(len(failures), len(report.rows)),
                       rel_err=rel_err, failures=failures)


def _check_verify(outcome) -> CheckResult:
    failures = [f"criterion {r.cid} failed: {r.title}" for r in outcome.results
                if not r.passed]
    if not outcome.passed and not failures:
        failures.append("verify_paper().passed is false")
    lam_rows = [row for r in outcome.results if r.cid == 1
                for row in r.rows if row["quantity"] == "lambda1"]
    if not lam_rows:
        failures.append("criterion 1 reported no lambda1 rows")
    rel_err = max((abs(row["value"] - row["expected"]) / row["expected"]
                   for row in lam_rows), default=0.0)
    return CheckResult(attempted=len(outcome.results),
                       failed=min(len(failures), len(outcome.results)),
                       rel_err=rel_err, failures=failures)
