"""Sweep orchestration: run manifold instances through the solver and certifiers.

Each instance yields one record of its inputs and shared eigen data (the
measured first eigenvalue, K_eff, the diameter, the normalization constants)
and one typed record per requested check, with the check's quantities and a
status: pass, fail, inapplicable (with its reason) or error.  A failing
instance records its error and never aborts the remaining instances.
Instances run one at a time, in the configuration's sorted instance order,
so reports are stable.
"""

from __future__ import annotations

import math

from . import bounds as bounds_mod
from . import estimates as est
from . import solitons as sol
from .config import ExperimentConfig, InstanceSpec, build_model, soliton_gamma
from .errors import InapplicableBoundError, SolverError
from .geometry import CIRCLE, Grid, be_ricci_lower_bound, diameter
from .reports import (ERROR, FAIL, INAPPLICABLE, PASS, BoundsCheck, Check,
                      EstimatesCheck, InstanceRecord, InstanceResult, RunReport,
                      SolitonCheck, environment_stamp)
from .spectral import EigenMode, first_nonzero_eigenvalue


def _select_case_barrier(config: ExperimentConfig, nef: est.NormalizedEigenfunction,
                         case: bounds_mod.LingCase) -> est.BarrierFamily:
    if case.label == "B-2-b2":
        return est.case_b2b2_barrier(nef.a, nef.b, nef.delta, config.sigma)
    return est.barrier(nef.a, nef.b, nef.delta, case.mu)


def _spectrum_check(fe: EigenMode) -> Check:
    ok = fe.lam > 0.0 and math.isfinite(fe.lam)
    return Check(PASS if ok else FAIL)


def _bounds_check(config: ExperimentConfig, rec: InstanceRecord,
                  case: bounds_mod.LingCase | None, why: str) -> BoundsCheck:
    """The bounds from the recorded n, K_eff and d, and the case, against lambda1."""
    if why:
        return BoundsCheck(INAPPLICABLE, why)
    report = bounds_mod.build_bound_report(rec.n, rec.K_eff, rec.d, case)
    lichnerowicz, ling = rec.lambda1 - report.lichnerowicz, rec.lambda1 - report.ling
    by_case = None if case is None else rec.lambda1 - report.case_bound
    ok = all(m >= -config.tolerances["bound_margin"]
             for m in (lichnerowicz, ling, by_case) if m is not None)
    return BoundsCheck(
        PASS if ok else FAIL,
        case=case.label if case else None, case_mu=case.mu if case else None,
        bound_lichnerowicz=report.lichnerowicz, bound_ling=report.ling,
        bound_case=report.case_bound, margin_lichnerowicz=lichnerowicz,
        margin_ling=ling, margin_case=by_case)


def _estimates_check(config: ExperimentConfig, nef: est.NormalizedEigenfunction | None,
                     case: bounds_mod.LingCase | None, why: str) -> EstimatesCheck:
    if why:
        return EstimatesCheck(INAPPLICABLE, why)
    tol = config.tolerances
    gm = est.gradient_estimate_margin(nef)
    barrier = _select_case_barrier(config, nef, case)
    dom = est.barrier_dominance_check(est.compute_Z(nef, config.bins), barrier)
    ledger = est.length_integral_check(nef, barrier)
    ok = (gm.margin >= -tol["gradient"] * gm.bound
          and dom.min_margin >= -tol["dominance"]
          and ledger.margin_holder >= -tol["holder"]
          and ledger.margin_transit >= -tol["dominance"])
    return EstimatesCheck(
        PASS if ok else FAIL, case=case.label, gradient_margin=gm.margin,
        dominance_min=dom.min_margin, transit_margin=ledger.margin_transit,
        holder_margin=ledger.margin_holder)


def _soliton_check(config: ExperimentConfig, grid: Grid) -> SolitonCheck:
    """The soliton residuals of the instance's model, whose density is the potential.
    The ``spectrum`` tolerance is the membership window for -2 gamma."""
    if grid.model.topology == CIRCLE:
        return SolitonCheck(INAPPLICABLE, "needs an interval-sphere model (circles have no warp)")
    gamma = soliton_gamma(config, grid.model)
    cand = sol.SolitonCandidate(grid=grid, gamma=gamma)
    led = sol.soliton_ledger(cand, tol=config.tolerances["spectrum"])
    return SolitonCheck(
        PASS if led.worst < config.tolerances["soliton"] else FAIL, soliton_gamma=gamma,
        soliton_resid_rr=led.radial, soliton_resid_tan=led.tangential,
        bianchi_resid=led.bianchi_sup, constancy_std=led.constancy_std,
        trace_resid=led.trace_sup, eigenid_resid=led.eigen_residual,
        eigenid_member=led.membership.contained, potential_shift=led.shift)


def run_instance(config: ExperimentConfig, inst: InstanceSpec) -> InstanceResult:
    """All requested checks for one instance, in request order."""
    model = build_model(config, inst)
    grid = Grid.uniform(model, inst.N)
    shared: dict = {}
    fe = nef = case = None
    why = ""  # why bounds and estimates do not apply
    no_case = ""  # why the estimates have no barrier
    if any(c in config.checks for c in ("spectrum", "bounds", "estimates")):
        fe = first_nonzero_eigenvalue(grid)
        shared.update(lambda1=fe.lam, lambda1_mode=fe.l,
                      lambda1_err_est=fe.error_estimate)
        if model.topology == CIRCLE:
            why = "needs an interval-sphere model (circles have no K_eff)"
        else:
            kb = be_ricci_lower_bound(model)
            shared.update(K_eff=kb.K, K_min_radius=kb.radius)
            if kb.K > 0.0:
                nef = est.normalize(fe, b=config.b)
                shared.update(k_ratio=nef.k, a=nef.a, delta=nef.delta,
                              normalize_residual=nef.residual_rel)
                try:
                    case = bounds_mod.ling_case(nef.a, nef.delta)
                except InapplicableBoundError as exc:
                    no_case = f"no barrier for the case analysis ({exc.reason})"
            else:
                why = f"needs K_eff > 0 (K_eff = {kb.K:.6g} at r = {kb.radius:.6g})"
    record = InstanceRecord(
        instance=inst.key, family=inst.family, topology=model.topology, n=model.n,
        L=model.L, density=inst.density_label, N=inst.N, b=config.b,
        bins=config.bins, d=diameter(model), **shared)
    checks = {"spectrum": lambda: _spectrum_check(fe),
              "bounds": lambda: _bounds_check(config, record, case, why),
              "estimates": lambda: _estimates_check(config, nef, case, why or no_case),
              "soliton": lambda: _soliton_check(config, grid)}
    return InstanceResult(record, {name: checks[name]() for name in config.checks})


def _failed(config: ExperimentConfig, inst: InstanceSpec, reason: str,
            solver_failure: bool = False) -> InstanceResult:
    record = InstanceRecord(instance=inst.key, family=inst.family, n=inst.n,
                            N=inst.N, density=inst.density_label)
    error = Check(ERROR, " ".join(reason.split()))  # one line, for the CSV
    return InstanceResult(record, {name: error for name in config.checks}, solver_failure)


def run(config: ExperimentConfig) -> RunReport:
    """Run the configured sweep; deterministic for a fixed configuration."""

    def _one(inst: InstanceSpec) -> InstanceResult:
        try:
            return run_instance(config, inst)
        except SolverError as exc:
            return _failed(config, inst, f"solver-failure: {exc}", solver_failure=True)
        except Exception as exc:  # isolation: one bad instance never kills the sweep
            return _failed(config, inst, f"{type(exc).__name__}: {exc}")

    results = tuple(_one(inst) for inst in config.instances())
    return RunReport(results=results, environment=environment_stamp(config.grids))
