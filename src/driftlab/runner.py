"""Sweep orchestration: run manifold instances through the solver and certifiers.

Each instance produces one self-contained row (all inputs, the measured first
eigenvalue, every applicable bound with its margin, the estimate-check
quantities, and per-check verdicts).  A failing instance records its error and
never aborts the remaining instances.  Instances may run concurrently; rows
are assembled in instance order, not completion order, so reports are stable.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import estimates as est
from . import solitons as sol
from .config import (ExperimentConfig, InstanceSpec, build_model,
                     build_soliton_potential, soliton_gamma)
from .errors import SolverError
from .geometry import CIRCLE, Grid, be_ricci_lower_bound, diameter
from .reports import environment_stamp
from .spectral import first_nonzero_eigenvalue


@dataclass
class RunReport:
    rows: list[dict]
    summary: dict
    environment: dict

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0 and self.summary["errors"] == 0

    @property
    def had_solver_failure(self) -> bool:
        return self.summary["solver_failures"] > 0


def _select_case_barrier(config: ExperimentConfig, nef: est.NormalizedEigenfunction,
                         case: bounds_mod.LingCase) -> est.BarrierFamily:
    if case.label == "A":
        return est.barrier(0.0, nef.b, nef.delta, 1.0)
    if case.label == "B-2-b2":
        return est.case_b2b2_barrier(nef.a, nef.b, nef.delta, config.sigma)
    return est.barrier(nef.a, nef.b, nef.delta, case.mu)


def run_instance(config: ExperimentConfig, inst: InstanceSpec) -> dict:
    """All requested checks for one instance; returns a report row."""
    model = build_model(config, inst)
    grid = Grid.uniform(model, inst.N)
    tol = config.tolerances
    row: dict = {
        "instance": inst.key, "family": inst.family, "topology": model.topology,
        "n": model.n, "L": model.L, "density": inst.density_label, "N": inst.N,
        "b": config.b, "bins": config.bins, "d": diameter(model),
    }

    needs_spectrum = any(c in config.checks for c in ("spectrum", "bounds", "estimates"))
    fe = None
    nef = None
    if needs_spectrum:
        fe = first_nonzero_eigenvalue(model, grid, l_max=config.l_max)
        row.update({"lambda1": fe.lam, "lambda1_mode": fe.mode.l,
                    "lambda1_err_est": fe.error_estimate})
        if "spectrum" in config.checks:
            row["verdict_spectrum"] = bool(fe.lam > 0.0 and not fe.ambiguous
                                           and math.isfinite(fe.lam))

    if model.topology != CIRCLE and needs_spectrum:
        kb = be_ricci_lower_bound(model, grid)
        row.update({"K_eff": kb.K, "K_min_radius": kb.radius})
        if kb.positive and fe is not None:
            nef = est.normalize(fe.mode, K=kb.K, b=config.b)
            row.update({"k_ratio": nef.k, "a": nef.a, "delta": nef.delta})

    if "bounds" in config.checks:
        if model.topology == CIRCLE or not row.get("K_eff", 0.0) > 0.0:
            row["verdict_bounds"] = None
            row["error"] = row.get("error", "") or \
                "bounds need an interval-sphere model with positive K_eff"
        else:
            report = bounds_mod.build_bound_report(
                n=model.n, K=row["K_eff"], d=row["d"], measured_lambda=fe.lam,
                a=nef.a if nef is not None else None,
                delta=nef.delta if nef is not None else None)
            for entry in report.bounds:
                key = {"lichnerowicz": "lichnerowicz", "ling": "ling",
                       "case": "case"}.get(entry.name)
                if key and entry.applicable:
                    row[f"bound_{key}"] = entry.value
                    row[f"margin_{key}"] = report.margins.get(entry.name)
            if report.case is not None:
                row["case"] = report.case.label
                row["case_mu"] = report.case.mu
            checked = [m for name, m in report.margins.items()
                       if name in ("lichnerowicz", "ling", "case")]
            row["verdict_bounds"] = bool(checked) and \
                all(m >= -tol["bound_margin"] for m in checked)

    if "estimates" in config.checks:
        if nef is None:
            row["verdict_estimates"] = None
            row["error"] = row.get("error", "") or \
                "estimates need a normalized eigenfunction (positive K_eff)"
        else:
            gm = est.gradient_estimate_margin(nef)
            row["gradient_margin"] = gm.margin
            case = bounds_mod.ling_case(nef.a, nef.delta)
            row.setdefault("case", case.label)
            barrier = _select_case_barrier(config, nef, case)
            levelset = est.compute_Z(nef, config.bins)
            dom = est.barrier_dominance_check(levelset, barrier)
            row["dominance_min"] = dom.min_margin
            ledger = est.length_integral_check(nef, barrier, row["d"])
            row["transit_margin"] = ledger.margin_transit
            row["holder_margin"] = ledger.margin_holder
            row["verdict_estimates"] = bool(
                gm.margin >= -tol["gradient"] * gm.bound
                and dom.min_margin >= -tol["dominance"]
                and ledger.margin_holder >= -tol["holder"]
                and ledger.margin_transit >= -tol["dominance"])

    if "soliton" in config.checks:
        gamma = soliton_gamma(config, model.n)
        cand = sol.SolitonCandidate(model=model, f=build_soliton_potential(config, model),
                                    gamma=gamma)
        res = sol.soliton_residual(cand, grid)
        ident = sol.hamilton_identities(cand, grid)
        eig = sol.eigenfunction_identity(cand, grid, tol=tol["spectrum"])
        row.update({
            "soliton_gamma": gamma,
            "soliton_resid_rr": res.radial, "soliton_resid_tan": res.tangential,
            "bianchi_resid": ident.bianchi_sup, "constancy_std": ident.constancy_std,
            "trace_resid": ident.trace_sup, "eigenid_resid": eig.residual,
            "eigenid_member": eig.membership.contained, "potential_shift": eig.shift,
        })
        residuals = [res.radial, res.tangential, ident.bianchi_sup,
                     ident.constancy_std, ident.trace_sup, eig.residual]
        row["verdict_soliton"] = all(v < tol["soliton"] for v in residuals)

    return row


def run(config: ExperimentConfig) -> RunReport:
    """Run the configured sweep; deterministic for a fixed configuration."""
    instances = config.instances()
    rows: list[dict | None] = [None] * len(instances)

    def _one(i: int) -> dict:
        inst = instances[i]
        try:
            return run_instance(config, inst)
        except SolverError as exc:
            return {"instance": inst.key, "family": inst.family, "n": inst.n,
                    "N": inst.N, "density": inst.density_label,
                    "error": f"solver-failure: {exc}"}
        except Exception as exc:  # isolation: one bad instance never kills the sweep
            return {"instance": inst.key, "family": inst.family, "n": inst.n,
                    "N": inst.N, "density": inst.density_label,
                    "error": f"{type(exc).__name__}: {exc}"}

    if config.workers > 1 and len(instances) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for i, row in enumerate(pool.map(_one, range(len(instances)))):
                rows[i] = row
    else:
        for i in range(len(instances)):
            rows[i] = _one(i)

    verdict_keys = [f"verdict_{c}" for c in config.checks]
    failed = errors = solver_failures = 0
    for row in rows:  # each row counts once: error, else failed, else passed
        err = row.get("error", "")
        if err:
            errors += 1
            if err.startswith("solver-failure"):
                solver_failures += 1
        elif any(row.get(k) is False for k in verdict_keys):
            failed += 1
    summary = {"instances": len(rows), "failed": failed, "errors": errors,
               "solver_failures": solver_failures,
               "passed": len(rows) - failed - errors}
    return RunReport(rows=rows, summary=summary,
                     environment=environment_stamp(config.grids))
