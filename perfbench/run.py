"""driftlab benchmark: one workload, measured from outside in fresh processes.

    python3 perfbench/run.py --workload sweep|sphere_large|circle|verify
                             --seed N --seconds T --trace 0|1

Run from the root of a checkout; driftlab is imported from ``src/`` of that
checkout, nothing is installed.  Every measurement runs in a fresh
subprocess with the BLAS thread count pinned to ``BLAS_THREADS``:

1. one untimed set-up process fills the bytecode and file caches;
2. ``SETUP_PROCESSES`` cold set-ups (``import driftlab.cli`` plus building the
   inputs); together with the pass process's own set-up they give ``setup_s``
   as a median;
3. one pass process runs passes for ``--seconds``, after a warm-up pass that
   is left out of the timings (it measured 1.3-1.8x slower than later ones).

``--trace 0`` reports the end-to-end metrics: median pass wall and CPU time,
peak RSS of the pass process, the worst relative accuracy of lambda1 and the
share of operations that passed the correctness check.  ``--trace 1`` reports
the per-layer metrics of ``tracer.py`` instead, as medians over traced passes,
with the tracing overhead measured against the untraced passes interleaved
with them; the spans go to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with every sample
and the environment stamp, is written to ``perfbench/out/`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer  # perfbench/ is sys.path[0] when run as a script
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 2
SETUP_PROCESSES = 5
RUN_BUDGET_S = 170  # every process must end within this, so the run ends in 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("lam1_rel_err", "ratio"), ("ok_frac", "ratio"))


def _child_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads})
    return env


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        raise SystemExit(f"benchmark process exceeded the run budget: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "driftlab" / "__init__.py").is_file():
        print(f"no driftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = started + RUN_BUDGET_S
    _worker([*common, "--mode", "setup"], env, deadline)
    setups = [_worker([*common, "--mode", "setup"], env, deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    spans = ["--spans", str(OUT / f"{tag}.spans.json")] if args.trace else []
    run = _worker([*common, "--mode", "passes", "--trace", str(args.trace),
                   "--seconds", str(args.seconds), *spans], env, deadline)
    setups.append(run["setup_s"])

    timed = [p for p in run["passes"] if not p["warmup"]]
    untraced = [p for p in timed if not p["traced"]]
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        values = tracer.summarize([run["layers"][str(p["id"])] for p in timed
                                   if p["traced"]])
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in timed if p["traced"])
            - statistics.median(p["wall_s"] for p in untraced))
        metrics = {name: _metric(values[name], unit) for name, unit in tracer.metric_names()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": run["peak_rss_mb"],
            "lam1_rel_err": run["rel_err"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": run["environment"],
        "samples": {"setup_s": setups, "passes": run["passes"],
                    "timed_untraced_passes": len(untraced)},
        "failures": run["failures"],
        "elapsed_s": time.perf_counter() - started,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} timed untraced "
          f"passes, {len(setups)} cold set-ups, BLAS threads {env['OPENBLAS_NUM_THREADS']}")
    print(f"environment: {json.dumps(record['environment'])}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
