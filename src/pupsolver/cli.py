"""Command line front end.

Subcommands: solve, verify, oracle, reduce, lift, bench.  Solve exit codes:
0 satisfiable, 1 unsatisfiable, 2 timeout, 3 usage, parse or write error.
Every command that writes a file exits 3 when it cannot.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import (
    BinPackingInstance,
    Instance,
    ParseError,
    SolveConfig,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    solution_to_dot,
)
from .oracle import SizeGuardError, oracle_decide, oracle_min_units
from .reductions import (
    binpack_to_pup_iucap2,
    double_binpack,
    emit_binpack_line,
    lift_iucap0_to_1,
    parse_binpack_line,
)
from .solver import Outcome, solve
from .verify import count_units, verify_solution

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_TIMEOUT = 2
EXIT_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _write(path: str | None, text: str) -> bool:
    """Write text to path, or to stdout when no path is given.

    A file that cannot be written is reported through _fail and gives
    False; the caller then exits with EXIT_ERROR, whatever it computed.
    """
    if not path:
        sys.stdout.write(text)
        return True
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(str(exc))
        return False
    return True


def cmd_solve(args) -> int:
    try:
        inst = _load_instance(args.instance)
        cfg = SolveConfig(
            max_time_ms=args.max_time_ms,
            max_units=args.max_units,
            minimize=not args.no_minimize,
        )
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    result = solve(inst, cfg)
    if args.stats:
        sys.stderr.write(result.stats.as_text())
    if result.outcome is Outcome.SATISFIABLE:
        if not _write(args.output, emit_solution(result.solution)):
            return EXIT_ERROR
        print(f"satisfiable: {count_units(result.solution)} units", file=sys.stderr)
        if args.emit_graph and not _write(args.emit_graph, solution_to_dot(result.solution)):
            return EXIT_ERROR
        return EXIT_SAT
    if result.outcome is Outcome.UNSATISFIABLE:
        scope = "within unit budget" if result.stats.budget_limited else "for any unit count"
        print(f"unsatisfiable ({scope})", file=sys.stderr)
        return EXIT_UNSAT
    print("timeout", file=sys.stderr)
    return EXIT_TIMEOUT


def cmd_verify(args) -> int:
    try:
        inst = _load_instance(args.instance)
        g = parse_solution(Path(args.solution).read_text(encoding="utf-8"))
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    violations = verify_solution(inst, g)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ok", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    try:
        inst = _load_instance(args.instance)
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    try:
        if args.min_units:
            k = oracle_min_units(inst, max_elements=args.max_elements)
            print("UNSAT" if k is None else k)
            return EXIT_SAT if k is not None else EXIT_UNSAT
        max_units = args.max_units
        if max_units is None:
            max_units = max(len(inst.elements), 1)
        sat = oracle_decide(inst, max_units, max_elements=args.max_elements)
    except (SizeGuardError, ValueError) as exc:
        return _fail(str(exc))
    print("SAT" if sat else "UNSAT")
    return EXIT_SAT if sat else EXIT_UNSAT


def _read_binpack(args) -> tuple:
    if args.binpack:
        return parse_binpack_line(Path(args.binpack).read_text(encoding="utf-8"))
    if args.binsize is None or args.bins is None:
        raise ValueError("need --binpack FILE or --items/--binsize/--bins")
    return BinPackingInstance(tuple(args.items or ()), args.binsize, args.bins)


def cmd_reduce(args) -> int:
    try:
        b = _read_binpack(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.double or args.double_only:
        b = double_binpack(b)
    if args.double_only:
        return 0 if _write(args.output, emit_binpack_line(b)) else EXIT_ERROR
    inst, expected = binpack_to_pup_iucap2(b)
    if not _write(args.output, emit_instance(inst)):
        return EXIT_ERROR
    print(f"expected units: {expected}", file=sys.stderr)
    return 0


def cmd_lift(args) -> int:
    try:
        inst = _load_instance(args.instance)
        lifted, units = lift_iucap0_to_1(inst, args.units)
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    if not _write(args.output, emit_instance(lifted)):
        return EXIT_ERROR
    print(f"lifted unit budget: {units}", file=sys.stderr)
    return 0


def _parse_manifest(path: Path) -> list[tuple[str, int, int, str | None]]:
    """Rows of ``<path> <ucap> <iucap> [<expected-min-units>|UNSAT]``."""
    rows = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(lineno, "expected: <path> <ucap> <iucap> [<expected>|UNSAT]")
        try:
            ucap, iucap = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, "ucap and iucap must be integers") from None
        expected = parts[3] if len(parts) == 4 else None
        if expected is not None and expected != "UNSAT":
            try:
                int(expected)
            except ValueError:
                raise ParseError(lineno, "expected column must be an integer or UNSAT") from None
        rows.append((parts[0], ucap, iucap, expected))
    return rows


def cmd_bench(args) -> int:
    manifest = Path(args.manifest)
    try:
        rows = _parse_manifest(manifest)
        cfg = SolveConfig(max_time_ms=args.max_time_ms)
    except (OSError, ParseError, ValueError) as exc:
        return _fail(str(exc))
    records = []
    any_bad = False
    for rel_path, ucap, iucap, expected in rows:
        rec = {
            "instance": rel_path,
            "ucap": ucap,
            "iucap": iucap,
            "expected": expected,
            "outcome": None,
            "units": None,
            "delta_units": None,
            "search_ms": None,
            "minimize_ms": None,
            "freeze_ms": None,
            "nodes": None,
            "backtracks": None,
            "precheck": None,
            "refuted_from": None,
            "note": "ok",
        }
        try:
            base = _load_instance(str((manifest.parent / rel_path)))
            inst = Instance(base.indicators, base.sensors, base.edges, ucap, iucap)
        except (OSError, ParseError, ValueError) as exc:
            rec["note"] = f"error: {exc}"
            any_bad = True
            records.append(rec)
            continue
        result = solve(inst, cfg)
        rec["outcome"] = result.outcome.value
        rec["search_ms"] = round(result.stats.search_ms, 3)
        rec["minimize_ms"] = round(result.stats.minimize_ms, 3)
        rec["freeze_ms"] = round(result.stats.freeze_ms, 3)
        rec["nodes"] = result.stats.nodes
        rec["backtracks"] = result.stats.backtracks
        rec["precheck"] = result.stats.precheck
        rec["refuted_from"] = result.stats.refuted_from
        if result.outcome is Outcome.SATISFIABLE:
            rec["units"] = count_units(result.solution)
            if expected not in (None, "UNSAT"):
                rec["delta_units"] = rec["units"] - int(expected)
        if expected is not None:
            if expected == "UNSAT":
                if result.outcome is Outcome.SATISFIABLE:
                    rec["note"] = "MISMATCH: expected UNSAT"
                    any_bad = True
            elif result.outcome is Outcome.UNSATISFIABLE:
                rec["note"] = "MISMATCH: expected satisfiable"
                any_bad = True
        records.append(rec)

    widths = (40, 14, 6, 9, 7, 10, 12, 10, 9, 10)
    header = (
        "instance", "outcome", "units", "expected", "+units", "search_ms", "minimize_ms", "freeze_ms",
        "nodes", "backtracks",
    )
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "  note")
    for rec in records:
        cells = (
            str(rec["instance"])[:40],
            str(rec["outcome"] or "-"),
            str(rec["units"] if rec["units"] is not None else "-"),
            str(rec["expected"] if rec["expected"] is not None else "-"),
            str(rec["delta_units"] if rec["delta_units"] is not None else "-"),
            str(rec["search_ms"] if rec["search_ms"] is not None else "-"),
            str(rec["minimize_ms"] if rec["minimize_ms"] is not None else "-"),
            str(rec["freeze_ms"] if rec["freeze_ms"] is not None else "-"),
            str(rec["nodes"] if rec["nodes"] is not None else "-"),
            str(rec["backtracks"] if rec["backtracks"] is not None else "-"),
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + f"  {rec['note']}")
    if args.records and not _write(args.records, "".join(json.dumps(rec) + "\n" for rec in records)):
        return EXIT_ERROR
    return 1 if any_bad else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pup", description="Partner Units Problem toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-time-ms", type=int, default=600_000,
                   help="outer wall-clock stop; the answer is timeout after it")
    p.add_argument("--max-units", type=int, default=None,
                   help="unit budget (default: element count)")
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--output", "-o", help="write the solution here instead of stdout")
    p.add_argument("--emit-graph", help="write a DOT description of the solution")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive decision on a small instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-units", type=int, default=None)
    p.add_argument("--min-units", action="store_true",
                   help="report the least satisfiable unit count")
    p.add_argument("--max-elements", type=int, default=12,
                   help="enumeration size guard")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="bin packing to PUP instance")
    p.add_argument("--items", type=int, nargs="*", default=None)
    p.add_argument("--binsize", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--binpack", help="read a one-line bin packing file instead of flags")
    p.add_argument("--double", action="store_true",
                   help="double items and bin size before reducing")
    p.add_argument("--double-only", action="store_true",
                   help="write the doubled one-line bin packing instance and stop")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lift", help="lift an iucap=0 instance to iucap=1")
    p.add_argument("--instance", required=True)
    p.add_argument("--units", type=int, required=True, help="unit budget to double")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("bench", help="run a manifest of instances and report a table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--max-time-ms", type=int, default=600_000,
                   help="outer wall-clock stop; the answer is timeout after it")
    p.add_argument("--records", help="also write JSON lines here")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
