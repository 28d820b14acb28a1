"""Machine-readable report emitters: CSV with a fixed column order, versioned JSON.

Floats are rendered with 17 significant digits (round-trip exact), line
endings are pinned to "\\n", and no wall-clock data enters the files, so
identical runs produce byte-identical reports.

A sweep reports each instance as typed records: an ``InstanceRecord`` and one
``Check`` per requested check.  This module alone turns them into report rows,
the sweep columns and the summary tallies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import CHECK_NAMES
from .estimates import barrier, xi_eta

REPORT_SCHEMA_VERSION = 1

PASS, FAIL, INAPPLICABLE, ERROR = "pass", "fail", "inapplicable", "error"


@dataclass(frozen=True)
class InstanceRecord:
    """What an instance is, and the eigen data its checks share; None is absent."""

    instance: str
    family: str
    topology: str | None = None
    n: int | None = None
    L: float | None = None
    density: str | None = None
    N: int | None = None
    b: float | None = None
    bins: int | None = None
    lambda1: float | None = None
    lambda1_mode: int | None = None
    lambda1_err_est: float | None = None
    K_eff: float | None = None
    K_min_radius: float | None = None
    d: float | None = None
    k_ratio: float | None = None
    a: float | None = None
    delta: float | None = None
    normalize_residual: float | None = None


@dataclass(frozen=True)
class Check:
    """One check on one instance: its status and, for INAPPLICABLE or ERROR, why.

    ``reason`` is a single line.  Subclasses add the check's quantities as
    fields; None is absent.
    """

    status: str
    reason: str = ""


@dataclass(frozen=True)
class BoundsCheck(Check):
    case: str | None = None
    case_mu: float | None = None
    bound_lichnerowicz: float | None = None
    bound_ling: float | None = None
    bound_case: float | None = None
    margin_lichnerowicz: float | None = None
    margin_ling: float | None = None
    margin_case: float | None = None


@dataclass(frozen=True)
class EstimatesCheck(Check):
    case: str | None = None
    gradient_margin: float | None = None
    dominance_min: float | None = None
    transit_margin: float | None = None
    holder_margin: float | None = None


@dataclass(frozen=True)
class SolitonCheck(Check):
    soliton_gamma: float | None = None
    soliton_resid_rr: float | None = None
    soliton_resid_tan: float | None = None
    bianchi_resid: float | None = None
    constancy_std: float | None = None
    trace_resid: float | None = None
    eigenid_resid: float | None = None
    eigenid_member: bool | None = None
    potential_shift: float | None = None


def _quantities(record) -> dict:
    """The record's fields that are not None, in field order, less status and
    reason; the values are the record's own scalars, not copies."""
    return {f.name: value for f in fields(record)
            if (value := getattr(record, f.name)) is not None
            and f.name not in ("status", "reason")}


@dataclass(frozen=True)
class InstanceResult:
    """One sweep instance: its record and the check records, in request order."""

    record: InstanceRecord
    checks: dict[str, Check]
    solver_failure: bool = False

    @property
    def status(self) -> str:
        """The instance's one status: error, else fail, else inapplicable, else pass."""
        statuses = {check.status for check in self.checks.values()}
        return next((s for s in (ERROR, FAIL, INAPPLICABLE) if s in statuses), PASS)

    def row(self) -> dict:
        """The report row: quantities, a verdict per check (True pass, False fail,
        None otherwise), the distinct error reasons (an instance-wide failure
        shows once) and each inapplicable check with its own reason."""
        row = _quantities(self.record)
        for name, check in self.checks.items():
            row.update(_quantities(check))
            row[f"verdict_{name}"] = {PASS: True, FAIL: False}.get(check.status)
        errors = dict.fromkeys(c.reason for c in self.checks.values() if c.status == ERROR)
        inapplicable = [f"{name}: {c.reason}" for name, c in self.checks.items()
                        if c.status == INAPPLICABLE]
        for key, texts in (("error", errors), ("reason", inapplicable)):
            if texts:
                row[key] = "; ".join(texts)
        return row

    def line(self) -> str:
        """The console line: lambda1, each check's status, the reasons."""
        row = self.row()
        lam = f" lambda1={row['lambda1']:.9g}" if "lambda1" in row else ""
        statuses = ", ".join(f"{name}={check.status}" for name, check in self.checks.items())
        notes = "".join(f"  [{row[key]}]" for key in ("error", "reason") if key in row)
        return f"{row['instance']}{lam}  {statuses}{notes}"


@dataclass(frozen=True)
class RunReport:
    """One sweep: its instances in instance order, their rows and tallies."""

    results: tuple[InstanceResult, ...]
    environment: dict

    @cached_property
    def rows(self) -> list[dict]:
        return [result.row() for result in self.results]

    @cached_property
    def summary(self) -> dict:
        """Each instance counts once, under its status; a solver failure is an error."""
        counts = Counter(result.status for result in self.results)
        return {"instances": len(self.results), "passed": counts[PASS],
                "failed": counts[FAIL], "errors": counts[ERROR],
                "inapplicable": counts[INAPPLICABLE],
                "solver_failures": sum(r.solver_failure for r in self.results)}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0 and self.summary["errors"] == 0

    @property
    def exit_code(self) -> int:
        """3 on a solver failure, else 1 on a failed or errored check, else 0."""
        if self.summary["solver_failures"]:
            return 3
        return 0 if self.all_passed else 1


# One row per sweep instance; absent quantities stay empty.
SWEEP_COLUMNS = list(dict.fromkeys(
    [f.name for record in (InstanceRecord, BoundsCheck, EstimatesCheck, SolitonCheck)
     for f in fields(record) if f.name not in ("status", "reason")]
    + [f"verdict_{name}" for name in CHECK_NAMES] + ["error", "reason"]))

SUITE_COLUMNS = ["criterion", "instance", "quantity", "value", "expected",
                 "tolerance", "status"]

BARRIER_COLUMNS = ["t", "xi", "eta", "z"]


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        v = float(value)
        if math.isnan(v):
            return "nan"
        return f"{v:.17g}"
    return str(value)


def render_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([format_value(row.get(col)) for col in columns])
    return buf.getvalue()


def emit_csv(rows: list[dict], path: str | Path, columns: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(rows, columns))
    return path


def json_payload(rows: list[dict], summary: dict, environment: dict) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "environment": environment,
        "summary": summary,
        "rows": rows,
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"


def emit_json(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_json(payload))
    return path


def environment_stamp(grids) -> dict:
    return {"package": "driftlab", "version": __version__,
            "report_schema": REPORT_SCHEMA_VERSION, "grids": sorted(set(grids)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def barrier_table(a: float, b: float, delta: float, mu: float,
                  points: int = 1001) -> list[dict]:
    """Plot-ready samples (t, xi, eta, z) over the full interval [-pi/2, pi/2];
    raises ``BarrierHypothesisError`` where the standard barrier does not apply."""
    z = barrier(a, b, delta, mu)
    t = np.linspace(-math.pi / 2.0, math.pi / 2.0, points)
    xv, ev = xi_eta(t)
    zv = z.combine(xv, ev)
    return [{"t": float(t[i]), "xi": float(xv[i]), "eta": float(ev[i]),
             "z": float(zv[i])} for i in range(points)]
