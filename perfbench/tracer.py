"""Spans and counts around driftlab's layer functions, recorded from outside.

The tracer replaces each wrapped function in every ``driftlab`` module that
binds it (modules import several of them by name, e.g. ``runner``,
``spectral``, ``estimates`` and ``acceptance`` all hold
``be_ricci_lower_bound`` or ``first_nonzero_eigenvalue``), and in module-level
tuples such as ``acceptance.CRITERIA``.  Spans stay in memory as
(name, start, end, parent, pass id) and are written out once, at the end.
A function missing from the program is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function) pairs that get a span; names are the metric prefixes.
SPAN_TARGETS = (
    ("spectral", "assemble"),
    ("spectral", "solve_eigen"),
    ("spectral", "first_nonzero_eigenvalue"),
    ("spectral", "spectrum_contains"),
    ("geometry", "be_ricci_lower_bound"),
    ("estimates", "normalize"),
    ("estimates", "gradient_estimate_margin"),
    ("estimates", "compute_Z"),
    ("estimates", "barrier_dominance_check"),
    ("estimates", "length_integral_check"),
    ("bounds", "build_bound_report"),
    ("solitons", "soliton_residual"),
    ("solitons", "hamilton_identities"),
    ("solitons", "eigenfunction_identity"),
    ("acceptance", "criterion_spectral_accuracy"),
    ("acceptance", "criterion_lichnerowicz_suite"),
    ("acceptance", "criterion_ling_suite"),
    ("acceptance", "criterion_gradient_estimate"),
    ("acceptance", "criterion_barrier_dominance"),
    ("acceptance", "criterion_test_functions"),
    ("acceptance", "criterion_exact_constants"),
    ("acceptance", "criterion_soliton_checker"),
    ("acceptance", "criterion_case_totality"),
    ("reports", "render_csv"),
    ("reports", "render_json"),
    ("runner", "run_instance"),
)

# Methods that sample an eigenfunction over the manifold: counted, not spanned.
SAMPLER_METHODS = (("estimates", "NormalizedEigenfunction", "manifold_values"),
                   ("estimates", "NormalizedEigenfunction", "manifold_grad_sq"))

COUNT_METRICS = (
    ("spectral.solve_eigen.rows", "count"),
    ("spectral.solve_eigen.dense_calls", "count"),
    ("spectral.useful_solve_ratio", "ratio"),
    ("spectral.spectrum_contains.depth", "count"),
    ("estimates.samples", "count"),
    ("estimates.sample_bytes", "bytes"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, func in SPAN_TARGETS:
        names += [(f"{module}.{func}.calls", "count"), (f"{module}.{func}.self_s", "s")]
    return names + list(COUNT_METRICS) + [("trace.untraced_s", "s"),
                                          ("trace.overhead_s", "s")]


class Tracer:
    """Installs wrappers on the driftlab layers and records spans and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.pass_walls: dict[int, float] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "driftlab" or name.startswith("driftlab."))]
        for module, func in SPAN_TARGETS:
            owner = sys.modules.get(f"driftlab.{module}")
            original = getattr(owner, func, None)
            if original is None:
                continue
            wrapper = self._span_wrapper(f"{module}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        self._patch(mod, attr, tuple(wrapper if v is original else v
                                                     for v in value))
        for module, cls_name, method in SAMPLER_METHODS:
            cls = getattr(sys.modules.get(f"driftlab.{module}"), cls_name, None)
            original = getattr(cls, method, None)
            if original is not None:
                self._patch(cls, method, self._sampler_wrapper(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------------
    def _span_wrapper(self, name: str, original):
        on_return = {
            "spectral.solve_eigen": self._count_solve,
            "spectral.first_nonzero_eigenvalue": self._count_first_eigenvalue,
            "spectral.spectrum_contains": self._count_membership,
        }.get(name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.pass_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _sampler_wrapper(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts = self.counts[self.pass_id]
            counts["estimates.samples"] += result.size
            counts["estimates.sample_bytes"] += result.nbytes
            return result

        return wrapper

    def _under(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _count_solve(self, bound, result):
        problem = bound.arguments["problem"]
        counts = self.counts[self.pass_id]
        counts["spectral.solve_eigen.rows"] += problem.size
        counts["spectral.solve_eigen.dense_calls"] += bool(problem.periodic)
        if self._under("spectral.first_nonzero_eigenvalue"):
            counts["solves_under_first_eigenvalue"] += 1

    def _count_first_eigenvalue(self, bound, result):
        # useful solves: the winning sector at N, and at N/2 when Richardson runs
        args = bound.arguments
        richardson = args.get("richardson", True) and args["grid"].size >= 8
        self.counts[self.pass_id]["useful_solves"] += 1 + bool(richardson)

    def _count_membership(self, bound, result):
        self.counts[self.pass_id]["spectral.spectrum_contains.depth"] += result.count_used

    # -- passes and results ---------------------------------------------------
    def run_pass(self, pass_id: int, fn):
        """Run ``fn()`` as one traced pass; returns (result, wall seconds)."""
        self.pass_id = pass_id
        self.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            self.uninstall()
            self.pass_id = None
        self.pass_walls[pass_id] = wall
        return result, wall

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per-pass calls, self time, counts and uncovered time, keyed by pass id."""
        out = {pid: defaultdict(float) for pid in self.pass_walls}
        child = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if parent is not None:
                child[parent] += end - start
        covered = defaultdict(float)
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid not in out:
                continue
            out[pid][f"{name}.calls"] += 1
            out[pid][f"{name}.self_s"] += (end - start) - child[i]
            if parent is None:
                covered[pid] += end - start
        for pid, row in out.items():
            counts = self.counts.get(pid, {})
            for key, value in counts.items():
                row[key] += value
            solves = row.pop("solves_under_first_eigenvalue", 0.0)
            useful = row.pop("useful_solves", 0.0)
            row["spectral.useful_solve_ratio"] = useful / solves if solves else 0.0
            row["trace.untraced_s"] = self.pass_walls[pid] - covered[pid]
        return out

    def write(self, path: Path):
        """Write every span, as recorded, to ``path`` (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "pass"],
            "spans": self.spans,
            "pass_walls": self.pass_walls,
        }))


def summarize(per_pass_rows: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric (zero when absent)."""
    names = [name for name, _ in metric_names() if name != "trace.overhead_s"]
    return {name: statistics.median(row.get(name, 0.0) for row in per_pass_rows)
            for name in names}
