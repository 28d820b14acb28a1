"""Command-line front end.

Subcommands
-----------
spectrum       first non-zero eigenvalues for the configured sweep
certify        closed-form bounds and margins
estimate       gradient estimate, barrier dominance, length integrals
soliton-check  soliton residuals and derived identities
sweep          all checks requested in the configuration
verify-paper   the full acceptance suite, with a determinism self-check
emit-barriers  (t, xi(t), eta(t), z(t)) table for plotting

Each check on each instance is pass, fail, inapplicable (with its reason) or
error.  Exit codes: 3 on a solver failure, else 1 if a check failed or erred,
else 0 (an inapplicable check does not fail the run); 2 on a usage or config
error, or an output directory that cannot be written, which is found before
any instance or suite pass runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .acceptance import suite_rows, verify_paper
from .config import parse_config, read_config
from .errors import ConfigError, DriftLabError, OutputError, SolverError
from .reports import (BARRIER_COLUMNS, SUITE_COLUMNS, SWEEP_COLUMNS, barrier_table,
                      environment_stamp, json_payload, render_csv, render_json)
from .runner import run

_CHECK_SUBCOMMANDS = {
    "spectrum": ("spectrum",),
    "certify": ("bounds",),
    "estimate": ("estimates",),
    "soliton-check": ("soliton",),
    "sweep": None,  # keep the configured checks
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _CHECK_SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} checks")
        p.add_argument("--config", type=Path, required=True, help="experiment config (JSON)")
        p.add_argument("--grid", type=int, default=None, help="override the grid size")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: from config, else csv)")

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("--out", type=Path, default=Path("."),
                   help="directory for verify_paper.csv and verify_paper.json (default: .)")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="write only this format (default: both csv and json)")

    p = sub.add_parser("emit-barriers", help="write a (t, xi, eta, z) table")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.01)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--points", type=int, default=1001)
    p.add_argument("--out", type=Path, default=Path("."),
                   help="output directory for barriers.csv (default: .)")
    return parser


def _make_out_dir(out_dir: Path | None) -> None:
    """Create the output directory before any work that would fill it."""
    if out_dir is None:
        return
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc


def _emit(rows, columns, payload, out_dir: Path | None, formats, basename: str) -> list[Path]:
    """The one report writer: ``<basename>.csv`` and ``.json`` in ``formats``."""
    paths = [] if out_dir is None else \
        [out_dir / f"{basename}.{fmt}" for fmt in ("csv", "json") if fmt in formats]
    for path in paths:
        try:
            path.write_text(render_csv(rows, columns) if path.suffix == ".csv"
                            else render_json(payload))
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror}") from exc
    return paths


def _run_sweep(args, checks_override) -> int:
    raw = read_config(args.config)
    parse_config(raw)  # the file as written, so that no override hides a fault in it
    if args.grid is not None:
        raw["grids"] = args.grid
    raw["checks"] = list(checks_override or raw["checks"])
    config = parse_config(raw)  # the overrides pass the same checks as the file's values
    out_dir = args.out if args.out is not None else \
        (Path(config.out_dir) if config.out_dir else None)
    _make_out_dir(out_dir)
    report = run(config)

    formats = (args.format,) if args.format else config.formats
    payload = json_payload(report.rows, report.summary, report.environment)
    written = _emit(report.rows, SWEEP_COLUMNS, payload, out_dir, formats, "report")

    for result in report.results:
        print(result.line())
    summary = report.summary
    print(f"summary: {summary['passed']}/{summary['instances']} passed, "
          f"{summary['failed']} failed, {summary['errors']} errors, "
          f"{summary['inapplicable']} inapplicable")
    for path in written:
        print(f"wrote {path}")
    return report.exit_code


def _run_verify(args) -> int:
    _make_out_dir(args.out)
    outcome = verify_paper()
    for result in outcome.results:
        print(result.line())
        for detail in result.details:
            print(f"    {detail}")
    formats = (args.format,) if args.format else ("csv", "json")
    summary = {r.cid: {"title": r.title, "passed": r.passed} for r in outcome.results}
    payload = json_payload([], {"criteria": summary, "passed": outcome.passed},
                           environment_stamp([]))
    for path in _emit(suite_rows(outcome.results), SUITE_COLUMNS, payload, args.out,
                      formats, "verify_paper"):
        print(f"wrote {path}")
    print("VERIFICATION " + ("SUCCESSFUL" if outcome.passed else "FAILED"))
    return 0 if outcome.passed else 1


def _run_barriers(args) -> int:
    rows = barrier_table(args.a, args.b, args.delta, args.mu, args.points)
    _make_out_dir(args.out)
    path, = _emit(rows, BARRIER_COLUMNS, None, args.out, ("csv",), "barriers")
    print(f"wrote {path} ({len(rows)} points)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "emit-barriers" and args.points < 2:
        parser.error(f"emit-barriers needs --points of at least 2, got {args.points}")
    try:
        if args.command in _CHECK_SUBCOMMANDS:
            return _run_sweep(args, _CHECK_SUBCOMMANDS[args.command])
        if args.command == "verify-paper":
            return _run_verify(args)
        return _run_barriers(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DriftLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
