"""The verification suite: every acceptance criterion as a runnable check.

Each criterion returns a structured result with one row per checked quantity;
the suite renders to the fixed-column CSV used by the ``verify-paper``
subcommand.  Wall-clock budgets are enforced but only the boolean outcome
enters the report, so two runs of the suite produce byte-identical files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import estimates as est
from . import solitons as sol
from .geometry import Grid, be_ricci_lower_bound, cosine_density, diameter, sphere
from .reports import SUITE_COLUMNS, render_csv
from .spectral import _bisect, assemble, first_nonzero_eigenvalue

SWEEP_N = 2000
ACCURACY_N = 4000
CONVERGENCE_NS = (250, 500, 1000, 2000)
EPS_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
SWEEP_DIMS = (2, 3, 4)


@dataclass
class CriterionResult:
    """One criterion's rows; it passes when it checked something and every row passed."""

    cid: int
    title: str
    rows: list[dict] = field(default_factory=list)
    details: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.rows) and all(row["status"] == "pass" for row in self.rows)

    def check(self, instance: str, quantity: str, value, expected, tolerance,
              ok: bool) -> None:
        self.rows.append(_row(self.cid, instance, quantity, value, expected, tolerance, ok))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.cid}: {self.title} ({self.runtime_s:.2f} s)"


def _row(cid: int, instance: str, quantity: str, value, expected, tolerance,
         ok: bool) -> dict:
    return {"criterion": cid, "instance": instance, "quantity": quantity,
            "value": value, "expected": expected, "tolerance": tolerance,
            "status": "pass" if ok else "fail"}


@dataclass(frozen=True)
class FamilyMember:
    """What criteria 2-4 read of one cosine-family instance at N = SWEEP_N:
    the first eigenvalue and its sector, K_eff, the diameter, the asymmetry
    a of the normalized eigenfunction (b = 1.01) and its gradient margin."""

    n: int
    eps: float
    lam: float
    l: int
    K: float
    d: float
    a: float
    sup_ratio: float
    bound: float


@dataclass(frozen=True)
class CosineFamily:
    """The cosine-density family that criteria 2-4 check, evaluated once per
    suite pass; ``runtime_s`` is the evaluation's time."""

    members: tuple[FamilyMember, ...]
    runtime_s: float


def evaluate_cosine_family() -> CosineFamily:
    t0 = time.perf_counter()
    members = []
    for n in SWEEP_DIMS:
        for eps in EPS_VALUES:
            model = sphere(n, density=cosine_density(eps))
            fe = first_nonzero_eigenvalue(model, Grid.uniform(model, SWEEP_N))
            kb = be_ricci_lower_bound(model)
            nef = est.normalize(fe.mode, K=kb.K, b=1.01)
            gm = est.gradient_estimate_margin(nef)
            members.append(FamilyMember(
                n=n, eps=eps, lam=float(fe.lam), l=int(fe.mode.l), K=kb.K,
                d=diameter(model), a=float(nef.a), sup_ratio=float(gm.sup_ratio),
                bound=float(gm.bound)))
    return CosineFamily(tuple(members), time.perf_counter() - t0)


def criterion_spectral_accuracy() -> CriterionResult:
    """lambda_1(S^n) = n within 1e-3 at N=4000; convergence order in [1.8, 2.2]."""
    t0 = time.perf_counter()
    res = CriterionResult(1, "spectral accuracy and convergence order on round spheres")
    for n in (2, 3, 4, 5):
        model = sphere(n)
        fe = first_nonzero_eigenvalue(model, Grid.uniform(model, ACCURACY_N))
        err = abs(fe.lam - n)
        ok = err <= 1e-3
        res.check(f"S^{n}:N={ACCURACY_N}", "lambda1", fe.lam, float(n), 1e-3, ok)
        res.details.append(f"lambda1(S^{n}) = {fe.lam:.9f}, |err| = {err:.3e}")
        errs = []
        for N in CONVERGENCE_NS:
            fe_n = first_nonzero_eigenvalue(model, Grid.uniform(model, N), richardson=False)
            errs.append(abs(fe_n.lam - n))
        slope = float(np.polyfit(np.log([model.L / N for N in CONVERGENCE_NS]),
                                 np.log(errs), 1)[0])
        ok = 1.8 <= slope <= 2.2
        res.check(f"S^{n}:order", "convergence_order", slope, 2.0, 0.2, ok)
        res.details.append(f"S^{n} convergence order = {slope:.3f}")
    res.runtime_s = time.perf_counter() - t0
    within = res.runtime_s < 60.0
    res.check("suite", "runtime_within_60s", within, True, None, within)
    return res


def criterion_lichnerowicz_suite(family: CosineFamily) -> CriterionResult:
    """lambda_1 >= (n-1) K_eff - 1e-6 on the cosine-density family."""
    t0 = time.perf_counter()
    res = CriterionResult(2, "Lichnerowicz-type bound on the cosine-density family")
    for m in family.members:
        bound = bounds_mod.lichnerowicz_be(m.n, m.K)
        margin = m.lam - bound
        ok = margin >= -1e-6
        res.check(f"S^{m.n}:eps={m.eps:g}", "lichnerowicz_margin", margin, 0.0, 1e-6, ok)
        res.details.append(
            f"n={m.n} eps={m.eps:g}: lambda1={m.lam:.6f} >= (n-1)K={bound:.6f} "
            f"(margin {margin:+.4f})")
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_ling_suite(family: CosineFamily) -> CriterionResult:
    """lambda_1 >= pi^2/d^2 + (31/100)(n-1) K_eff - 1e-6 on the same 15 instances."""
    t0 = time.perf_counter()
    res = CriterionResult(3, "Ling-type bound on the cosine-density family")
    for m in family.members:
        bound = bounds_mod.ling_be_bound(m.n, m.K, m.d)
        margin = m.lam - bound
        ok = margin >= -1e-6
        res.check(f"S^{m.n}:eps={m.eps:g}", "ling_margin", margin, 0.0, 1e-6, ok)
        res.details.append(
            f"n={m.n} eps={m.eps:g}: lambda1={m.lam:.6f} >= {bound:.6f} (margin {margin:+.4f})")
    res.runtime_s = family.runtime_s + (time.perf_counter() - t0)  # the budget covers both
    within = res.runtime_s < 120.0
    res.check("suite", "runtime_within_120s", within, True, None, within)
    return res


def criterion_gradient_estimate(family: CosineFamily) -> CriterionResult:
    """sup |grad v|^2/(b^2 - v^2) <= lam (1+a) (1 + 1e-2) with b = 1.01."""
    t0 = time.perf_counter()
    res = CriterionResult(4, "gradient estimate on the cosine-density family")
    for m in family.members:
        ok = m.sup_ratio <= m.bound * (1.0 + 1e-2)
        res.check(f"S^{m.n}:eps={m.eps:g}", "gradient_sup_ratio", m.sup_ratio, m.bound, 1e-2, ok)
        res.details.append(
            f"n={m.n} eps={m.eps:g}: sup={m.sup_ratio:.6f} <= lam(1+a)={m.bound:.6f} "
            f"(l={m.l}, a={m.a:.2e})")
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_barrier_dominance() -> CriterionResult:
    """Z(t) <= 1 + delta xi(t) + 1e-2 for the zonal eigenfunction of the unit S^2."""
    t0 = time.perf_counter()
    res = CriterionResult(5, "barrier dominance for the symmetric zonal mode")
    model = sphere(2)
    grid = Grid.uniform(model, SWEEP_N)
    mode = _bisect(assemble(model, grid, 0), SWEEP_N - 2, SWEEP_N).modes()[1]  # first non-zero
    kb = be_ricci_lower_bound(model)
    nef = est.normalize(mode, K=kb.K, b=1.01)
    ok_a = abs(nef.a) <= 1e-8
    res.check("S^2:zonal", "asymmetry_a", nef.a, 0.0, 1e-8, ok_a)
    z = est.barrier(0.0, 1.01, 0.25, 1.0)  # 1 + delta*xi with delta = 1/4
    dom = est.barrier_dominance_check(est.compute_Z(nef, 200), z)
    ok = dom.min_margin >= -1e-2
    res.check("S^2:zonal", "dominance_min_margin", dom.min_margin, 0.0, 1e-2, ok)
    res.details.append(
        f"zonal S^2: a={nef.a:.2e}, min margin {dom.min_margin:+.6f} over "
        f"{dom.occupied_bins} occupied bins")
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_test_functions() -> CriterionResult:
    """Integrals, endpoint and centre values, and barrier masses of xi and eta."""
    t0 = time.perf_counter()
    res = CriterionResult(6, "test-function identities")
    half = math.pi / 2.0

    ix = est.gauss_legendre_integral(est.xi)
    ok = abs(ix + math.pi) <= 1e-8
    res.check("xi", "integral", ix, -math.pi, 1e-8, ok)

    ie = est.gauss_legendre_integral(est.eta)
    ok = abs(ie) <= 1e-8
    res.check("eta", "integral", ie, 0.0, 1e-8, ok)

    # the series is centred at the endpoint and converges slowest at t = 0
    for name, fn, end_value, center_value in (("xi", est.xi, 0.0, 1.0 - half**2),
                                              ("eta", est.eta, 1.0, 0.0)):
        for quantity, t, expected in (("endpoint_value", half, end_value),
                                      ("center_value", 0.0, center_value)):
            value = fn(t)
            ok = abs(value - expected) <= 1e-12
            res.check(name, quantity, value, expected, 1e-12, ok)
        res.details.append(f"{name}(pi/2) = {fn(half):.3e}, {name}(0) = {fn(0.0):.17g}")
    neg_ok = abs(est.eta(-half) + 1.0) <= 1e-12 and abs(est.xi(-half)) <= 1e-12
    res.check("endpoints", "odd_even_reflection", neg_ok, True, None, neg_ok)

    for mu in (0.25, 0.5, 1.0):
        for delta in (0.1, 0.25, 0.5):
            z = est.barrier(0.0, 1.01, delta, mu)
            iz = est.gauss_legendre_integral(z.value)
            expected = (1.0 - mu * delta) * math.pi
            ok = abs(iz - expected) <= 1e-8
            res.check(f"z:mu={mu:g}:delta={delta:g}", "barrier_mass", iz, expected, 1e-8, ok)
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_exact_constants() -> CriterionResult:
    """The exact rational derivation of the diameter constant, and Myers' value."""
    t0 = time.perf_counter()
    res = CriterionResult(7, "exact diameter and Myers constants")
    der = bounds_mod.derive_diameter_bound()
    ok = der.as_pair() == (10, 13)
    res.check("derivation", "ratio_pair", f"{der.numerator}/{der.denominator}",
              "10/13", None, ok)

    direct = bounds_mod.soliton_diameter_lower(1.0)
    rational_path = der.numerator * math.pi / (der.denominator * math.sqrt(1.0))
    ok = direct == rational_path
    res.check("gamma=1", "diameter_lower_bitwise", direct, rational_path, 0.0, ok)

    myers = bounds_mod.myers_upper(4, 1.0)
    expected = math.pi * math.sqrt(3.0)
    ok = abs(myers - expected) <= 1e-15 * expected
    res.check("n=4:gamma=1", "myers_upper", myers, expected, 1e-15, ok)
    res.details.append(f"derived pair {der.as_pair()}, d_min(1) = {direct:.12f}, "
                       f"myers(4,1) = {myers:.15f}")
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_soliton_checker() -> CriterionResult:
    """Einstein data passes at 1e-8; the standard perturbation hits its known residuals."""
    t0 = time.perf_counter()
    res = CriterionResult(8, "soliton checker on Einstein data and perturbations")
    for n in (2, 3, 4):
        model = sphere(n)
        grid = Grid.uniform(model, SWEEP_N)
        cand = sol.SolitonCandidate(model=model, f=model.phi, gamma=float(n - 1))
        worst = sol.soliton_ledger(cand, grid).worst
        res.check(f"S^{n}:einstein", "max_residual", worst, 0.0, 1e-8, worst < 1e-8)
        res.details.append(f"S^{n} Einstein: worst residual {worst:.3e}")

    model = sphere(2)
    grid = Grid.uniform(model, SWEEP_N)
    pert = sol.SolitonCandidate(model=model, f=cosine_density(0.1), gamma=1.0)
    led = sol.soliton_ledger(pert, grid)
    for name, value, expected in (("residual_rr", led.radial, 0.1),
                                  ("residual_tan", led.tangential, 0.1),
                                  ("trace_residual", led.trace_sup, 0.2)):
        ok = abs(value - expected) <= 1e-3
        res.check("S^2:f=0.1cos", name, value, expected, 1e-3, ok)
    res.details.append(
        f"perturbation: rr={led.radial:.6f}, tan={led.tangential:.6f}, trace={led.trace_sup:.6f}")

    first = sol.normalize_f(pert, grid)
    again = sol.normalize_f(
        sol.SolitonCandidate(model=model, f=first.f, gamma=1.0), grid)
    ok = abs(again.shift) <= 1e-14
    res.check("S^2:f=0.1cos", "shift_idempotency", again.shift, 0.0, 1e-14, ok)
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_case_totality() -> CriterionResult:
    """Every (a, delta) cell maps to exactly one case with constant >= 31/50 alpha."""
    t0 = time.perf_counter()
    res = CriterionResult(9, "case totality and the 31/50 floor")
    floor = float(bounds_mod.CASE_FLOOR)
    labels = {"A": 0, "B-1": 0, "B-2-a": 0, "B-2-b1": 0, "B-2-b2": 0}
    worst = math.inf
    cells = 0
    for i in range(100):
        a = i / 100.0
        for j in range(1, 51):
            delta = j / 100.0
            case = bounds_mod.ling_case(a, delta)
            labels[case.label] += 1
            worst = min(worst, case.alpha_multiple)
            cells += 1
    ok = cells == 5000 and sum(labels.values()) == 5000 and worst >= floor
    res.check("grid100x50", "min_alpha_multiple", worst, floor, 0.0, ok)
    res.check("grid100x50", "cells_classified", cells, 5000, None, cells == 5000)
    res.details.append(f"cases: {labels}, min additive constant {worst:.6f} x alpha")
    res.runtime_s = time.perf_counter() - t0
    return res


CRITERIA = (
    criterion_spectral_accuracy,
    criterion_lichnerowicz_suite,
    criterion_ling_suite,
    criterion_gradient_estimate,
    criterion_barrier_dominance,
    criterion_test_functions,
    criterion_exact_constants,
    criterion_soliton_checker,
    criterion_case_totality,
)


def run_criteria() -> list[CriterionResult]:
    """One suite pass; criteria 2-4 read one evaluation of the cosine family."""
    family = evaluate_cosine_family()
    accuracy, *on_family = CRITERIA[:4]
    return [accuracy()] + [fn(family) for fn in on_family] + [fn() for fn in CRITERIA[4:]]


def suite_rows(results: list[CriterionResult]) -> list[dict]:
    rows = [r for result in results for r in result.rows]
    for result in results:
        rows.append(_row(result.cid, "summary", "criterion_passed", result.passed,
                         True, None, result.passed))
    rows.sort(key=lambda r: (r["criterion"], r["instance"], r["quantity"]))
    return rows


@dataclass
class SuiteOutcome:
    results: list[CriterionResult]
    passed: bool


def verify_paper() -> SuiteOutcome:
    """Run the full criteria suite twice; the second pass certifies determinism.

    The determinism criterion compares the rendered CSV bytes of the two
    passes, so the emitted report carries its own reproducibility check.
    """
    first = run_criteria()
    csv_first = render_csv(suite_rows(first), SUITE_COLUMNS)
    t0 = time.perf_counter()
    second = run_criteria()
    csv_second = render_csv(suite_rows(second), SUITE_COLUMNS)
    identical = csv_first == csv_second
    det = CriterionResult(10, "determinism of the verification report",
                          runtime_s=time.perf_counter() - t0)
    det.check("suite", "csv_bytes_identical", identical, True, None, identical)
    det.details.append(f"second pass rendered {len(csv_second)} bytes, "
                       f"identical={identical}")
    results = first + [det]
    return SuiteOutcome(results=results, passed=all(r.passed for r in results))
