"""The verification suite: every acceptance criterion as a runnable check.

Each criterion returns a structured result with one row per checked quantity;
the suite renders to the fixed-column CSV used by the ``verify-paper``
subcommand.  Wall-clock budgets are enforced but only the boolean outcome
enters the report, so two runs of the suite produce byte-identical files.
Criteria 2-4 come from one function, ``criteria_cosine_family``, which
solves each of their 15 instances once and fills all three results.

The suite does only the work its rows read: no criterion reads a Richardson
error estimate, so no half-resolution operator is assembled; criterion 1
reads only its lambda_1 values, so none of its eigenvectors is formed, and
on each of its round spheres, where the l = 0 twin wins, Sturm counts pick
that sector first, so only l = 0 is bisected; criterion 5 bisects the one zonal eigenvalue it reads; and criterion 9
certifies the 31/50 floor of the case split in exact rationals instead of
sampling it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from . import estimates as est
from . import solitons as sol
from .geometry import Grid, cosine_density, diameter, sphere
from .reports import FAIL, PASS, SUITE_COLUMNS, render_csv
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
        return bool(self.rows) and all(row["status"] == PASS for row in self.rows)

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
            "status": PASS if ok else FAIL}


def criterion_spectral_accuracy() -> CriterionResult:
    """lambda_1(S^n) = n within 1e-3 at N=4000; convergence order in [1.8, 2.2]."""
    t0 = time.perf_counter()
    res = CriterionResult(1, "spectral accuracy and convergence order on round spheres")
    for n in (2, 3, 4, 5):
        model = sphere(n)
        fe = first_nonzero_eigenvalue(Grid.uniform(model, ACCURACY_N))
        err = abs(fe.lam - n)
        ok = err <= 1e-3
        res.check(f"S^{n}:N={ACCURACY_N}", "lambda1", fe.lam, float(n), 1e-3, ok)
        res.details.append(f"lambda1(S^{n}) = {fe.lam:.9f}, |err| = {err:.3e}")
        errs = []
        for N in CONVERGENCE_NS:
            fe_n = first_nonzero_eigenvalue(Grid.uniform(model, N))
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


def criteria_cosine_family() -> tuple[CriterionResult, CriterionResult, CriterionResult]:
    """Criteria 2-4, filled row by row from one solve of each cosine-density
    instance at N = SWEEP_N (b = 1.01): lambda_1 >= (n-1) K_eff - 1e-6;
    lambda_1 >= pi^2/d^2 + (31/100)(n-1) K_eff - 1e-6, with criterion 3's
    120 s budget over the whole pass, whose time is every ``runtime_s``; and
    sup |grad v|^2/(b^2 - v^2) <= lam (1+a) (1 + 1e-2)."""
    t0 = time.perf_counter()
    lich = CriterionResult(2, "Lichnerowicz-type bound on the cosine-density family")
    ling = CriterionResult(3, "Ling-type bound on the cosine-density family")
    grad = CriterionResult(4, "gradient estimate on the cosine-density family")
    for n in SWEEP_DIMS:
        for eps in EPS_VALUES:
            model = sphere(n, density=cosine_density(eps))
            fe = first_nonzero_eigenvalue(Grid.uniform(model, SWEEP_N))
            nef = est.normalize(fe, b=1.01)
            gm = est.gradient_estimate_margin(nef)
            instance, head = f"S^{n}:eps={eps:g}", f"n={n} eps={eps:g}:"
            bound = bounds_mod.lichnerowicz_be(n, nef.K)
            margin = fe.lam - bound
            lich.check(instance, "lichnerowicz_margin", margin, 0.0, 1e-6, margin >= -1e-6)
            lich.details.append(f"{head} lambda1={fe.lam:.6f} >= (n-1)K={bound:.6f} "
                                f"(margin {margin:+.4f})")
            bound = bounds_mod.ling_be_bound(n, nef.K, diameter(model))
            margin = fe.lam - bound
            ling.check(instance, "ling_margin", margin, 0.0, 1e-6, margin >= -1e-6)
            ling.details.append(
                f"{head} lambda1={fe.lam:.6f} >= {bound:.6f} (margin {margin:+.4f})")
            ok = gm.sup_ratio <= gm.bound * (1.0 + 1e-2)
            grad.check(instance, "gradient_sup_ratio", gm.sup_ratio, gm.bound, 1e-2, ok)
            grad.details.append(f"{head} sup={gm.sup_ratio:.6f} <= lam(1+a)={gm.bound:.6f} "
                                f"(l={fe.l}, a={nef.a:.2e})")
    runtime = time.perf_counter() - t0
    for res in (lich, ling, grad):
        res.runtime_s = runtime
    within = runtime < 120.0
    ling.check("suite", "runtime_within_120s", within, True, None, within)
    return lich, ling, grad


def criterion_barrier_dominance() -> CriterionResult:
    """Z(t) <= 1 + delta xi(t) + 1e-2 for the zonal eigenfunction of the unit S^2."""
    t0 = time.perf_counter()
    res = CriterionResult(5, "barrier dominance for the symmetric zonal mode")
    grid = Grid.uniform(sphere(2), SWEEP_N)
    mode, = _bisect(assemble(grid, 0), SWEEP_N - 1, SWEEP_N - 1)  # first non-zero
    nef = est.normalize(mode, b=1.01)
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
    ratio = bounds_mod.derive_diameter_bound()
    pair = (ratio.numerator, ratio.denominator)
    ok = pair == (10, 13)
    res.check("derivation", "ratio_pair", "%d/%d" % pair, "10/13", None, ok)

    direct = bounds_mod.soliton_diameter_lower(1.0)
    rational_path = ratio.numerator * math.pi / (ratio.denominator * math.sqrt(1.0))
    ok = direct == rational_path
    res.check("gamma=1", "diameter_lower_bitwise", direct, rational_path, 0.0, ok)

    myers = bounds_mod.myers_upper(4, 1.0)
    expected = math.pi * math.sqrt(3.0)
    ok = abs(myers - expected) <= 1e-15 * expected
    res.check("n=4:gamma=1", "myers_upper", myers, expected, 1e-15, ok)
    res.details.append(f"derived pair {pair}, d_min(1) = {direct:.12f}, "
                       f"myers(4,1) = {myers:.15f}")
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_soliton_checker() -> CriterionResult:
    """Einstein data passes at 1e-8; the standard perturbation hits its known residuals."""
    t0 = time.perf_counter()
    res = CriterionResult(8, "soliton checker on Einstein data and perturbations")
    for n in (2, 3, 4):
        cand = sol.SolitonCandidate(Grid.uniform(sphere(n), SWEEP_N), gamma=float(n - 1))
        worst = sol.soliton_ledger(cand).worst
        res.check(f"S^{n}:einstein", "max_residual", worst, 0.0, 1e-8, worst < 1e-8)
        res.details.append(f"S^{n} Einstein: worst residual {worst:.3e}")

    # the perturbation is the model's density, f = 0.1 cos r
    pert = sol.SolitonCandidate(Grid.uniform(sphere(2, density=cosine_density(0.1)), SWEEP_N),
                                gamma=1.0)
    led = sol.soliton_ledger(pert)
    for name, value, expected in (("residual_rr", led.radial, 0.1),
                                  ("residual_tan", led.tangential, 0.1),
                                  ("trace_residual", led.trace_sup, 0.2)):
        ok = abs(value - expected) <= 1e-3
        res.check("S^2:f=0.1cos", name, value, expected, 1e-3, ok)
    res.details.append(
        f"perturbation: rr={led.radial:.6f}, tan={led.tangential:.6f}, trace={led.trace_sup:.6f}")

    c0, *rest = pert.grid.model.coeffs
    shifted = (c0 + sol.normalize_f(pert), *rest)
    again = sol.normalize_f(
        sol.SolitonCandidate(Grid.uniform(sphere(2, density=shifted), SWEEP_N), gamma=1.0))
    ok = abs(again) <= 1e-14
    res.check("S^2:f=0.1cos", "shift_idempotency", again, 0.0, 1e-14, ok)
    res.runtime_s = time.perf_counter() - t0
    return res


def criterion_case_totality() -> CriterionResult:
    """Every case of ``ling_case`` yields at least 31/50 alpha: a certificate
    in exact rationals.

    Totality is structural: ``ling_case`` is an if-chain that returns exactly
    one case for every a in [0, 1) and normal float delta in (0, 1/2].  Each
    row renders two Fractions exactly: a value and the bound it must reach,
    or, for P, stay below.

    - A and B-1 give alpha, and B-2-b2 gives 31/50 alpha through the variant
      barrier;
    - B-2-a gives 8a/pi^2 with a >= 153/200, and B-2-b1 gives
      mu = 4a/(pi^2 delta) with a >= (153/100) delta, so both exceed
      (153/25)/P^2 for any P > pi; P is ``bounds.PI_UPPER``, Machin's bound
      rounded up at 35 decimals, and its row checks P < 3.1416 (22/7 would
      not do: (153/25)/(22/7)^2 < 31/50);
    - ``ling_case``'s float thresholds keep both: a >= fl(153/200) >= 31P^2/400
      gives 8a/pi^2 > 31/50, and a >= fl(fl(1.53) delta), which is at least
      fl(1.53)(1 - 2^-52) delta because the product of a normal delta rounds
      by at most 2^-53 of itself, >= 31P^2 delta/200 gives mu > 31/50.
    """
    t0 = time.perf_counter()
    res = CriterionResult(9, "case totality and the 31/50 floor")
    floor = bounds_mod.CASE_FLOOR
    P = bounds_mod.PI_UPPER
    pi_limit = Fraction(31416, 10000)
    large = 8 * bounds_mod.A_LARGE / P**2
    rows = (
        ("A", "alpha_multiple", Fraction(1), floor),
        ("B-1", "alpha_multiple", Fraction(1), floor),
        ("B-2-a", "alpha_multiple_lower", large, floor),
        ("B-2-a", "float_threshold", Fraction(bounds_mod._A_LARGE), floor * P**2 / 8),
        ("B-2-b1", "alpha_multiple_lower", 4 * bounds_mod.A_OVER_DELTA / P**2, floor),
        ("B-2-b1", "float_threshold_ratio",
         Fraction(bounds_mod._A_OVER_DELTA) * (1 - Fraction(1, 2**52)), floor * P**2 / 4),
        ("B-2-b2", "alpha_multiple", floor, floor),
    )
    for instance, quantity, value, bound in rows:
        res.check(instance, quantity, str(value), str(bound), None, value >= bound)
    res.check("pi", "machin_upper_bound", str(P), str(pi_limit), None, P < pi_limit)
    res.details.append(f"pi < P = {float(P):.12f} < {float(pi_limit)}; B-2-a >= "
                       f"(153/25)/P^2 = {float(large):.6f} >= {floor} alpha")
    res.runtime_s = time.perf_counter() - t0
    return res


CRITERIA = (
    criterion_spectral_accuracy,
    criteria_cosine_family,
    criterion_barrier_dominance,
    criterion_test_functions,
    criterion_exact_constants,
    criterion_soliton_checker,
    criterion_case_totality,
)


def run_criteria() -> list[CriterionResult]:
    """One suite pass; criteria 2-4 come from one pass over the cosine family."""
    accuracy, family, *rest = CRITERIA
    return [accuracy(), *family(), *(fn() for fn in rest)]


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
