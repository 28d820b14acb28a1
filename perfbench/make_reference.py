"""Write ``reference.json``: lambda1 per instance at seed 0.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change to driftlab is meant to move lambda1; the
benchmark's correctness check compares every seed-0 row against this file
within the row's own Richardson error estimate.
"""

from __future__ import annotations

import json

import workloads


def main():
    lambda1 = {}
    for name in ("sweep", "sphere_large", "circle"):
        report, _, _ = workloads.run_pass(workloads.setup(name, 0))
        lambda1[name] = {row["instance"]: row["lambda1"] for row in report.rows}
    workloads.REFERENCE_FILE.write_text(json.dumps(
        {"seed": 0, "lambda1": lambda1}, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
