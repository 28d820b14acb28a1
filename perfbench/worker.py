"""One fresh benchmark process: cold set-up, then (optionally) timed passes.

    python3 perfbench/worker.py --workload W --seed S --mode setup|passes
                                --seconds T --trace 0|1 [--spans PATH]

Prints one JSON object on stdout.  ``setup`` mode measures only the cold
set-up: ``import driftlab.cli`` plus building the inputs, the first import of
driftlab, numpy and scipy in the process.  ``passes`` mode
then runs one warm-up pass, which is left out of the timings, and timed passes
until ``--seconds`` have elapsed.  With ``--trace 1`` the timed passes
alternate between untraced and traced, so the tracing overhead is measured
in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads


def environment() -> dict:
    """Interpreter, library, BLAS and machine stamp of this process."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(line.split(":", 1)[1].strip() for line in info
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def _ensure_checkout_package(root: Path):
    import driftlab
    src = (root / "src").resolve()
    if src not in Path(driftlab.__file__).resolve().parents:
        raise SystemExit(f"driftlab was imported from {driftlab.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "passes"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    inputs = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    _ensure_checkout_package(workloads.ROOT)
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    reference = workloads.load_reference(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    min_timed = 1 if tracer is None else 2  # a traced run needs both kinds of pass
    passes = []
    attempted = failed = 0
    rel_err = 0.0
    failures: list[str] = []
    pass_id = 0
    while True:
        # pass 0 warms up; timed passes alternate untraced/traced in trace mode
        traced = tracer is not None and pass_id > 0 and pass_id % 2 == 0
        c0 = time.process_time()
        if traced:
            output, wall = tracer.run_pass(pass_id, lambda: workloads.run_pass(inputs))
        else:
            w0 = time.perf_counter()
            output = workloads.run_pass(inputs)
            wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        checked = workloads.check(inputs, output, reference)
        del output
        attempted += checked.attempted
        failed += checked.failed
        rel_err = max(rel_err, checked.rel_err)
        failures += checked.failures
        passes.append({"id": pass_id, "wall_s": wall, "cpu_s": cpu, "traced": traced,
                       "warmup": pass_id == 0})
        if pass_id == 0:
            deadline = time.perf_counter() + args.seconds
        elif pass_id >= min_timed and time.perf_counter() >= deadline:
            break
        pass_id += 1

    result.update({
        "passes": passes, "attempted": attempted, "failed": failed,
        "rel_err": rel_err, "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    })
    if tracer is not None:
        result["layers"] = {str(k): dict(v) for k, v in tracer.per_pass().items()}
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
