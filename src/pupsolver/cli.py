"""Command line front end.

Exit codes: solve 0 satisfiable, 1 unsatisfiable, 2 timeout; verify 0 ok,
1 violations; oracle 0 SAT, 1 UNSAT; reduce and lift 0; bench 0, or 1 for a
mismatch, a violation or an instance that did not load.  Any command exits 3
on a usage error, input it cannot read, decode or parse, output it cannot
write, or a crash: commands raise, and main alone picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

from .core import (
    BinPackingInstance,
    Instance,
    ParseError,
    SolveConfig,
    content_lines,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    solution_to_dot,
)
from .oracle import oracle_decide, oracle_min_units
from .reductions import (
    binpack_to_pup_iucap2,
    double_binpack,
    emit_binpack_line,
    lift_iucap0_to_1,
    parse_binpack_line,
)
from .solver import Outcome, SearchStats, solve
from .verify import count_units, verify_solution

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_TIMEOUT = 2
EXIT_ERROR = 3


def _read(path: str | Path, parse):
    """parse of the file's UTF-8 text; a ValueError gains the path, which an OSError names already."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_instance(path: str, caps: tuple[int, int] | None = None) -> tuple[Instance, float]:
    """The file's instance, with caps as its (ucap, iucap) if given, and the ms from text to Instance."""
    def parse(text: str) -> tuple[Instance, float]:
        t0 = time.perf_counter()
        inst = parse_instance(text)
        if caps is not None:
            inst = inst.with_caps(*caps)
        return inst, round((time.perf_counter() - t0) * 1000, 3)
    return _read(path, parse)


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    inst, parse_ms = _load_instance(args.instance)
    cfg = SolveConfig(
        max_time_ms=args.max_time_ms,
        max_units=args.max_units,
        minimize=not args.no_minimize,
    )
    result = solve(inst, cfg)
    if args.stats:
        sys.stderr.write(json.dumps({"parse_ms": parse_ms, **result.stats.as_dict()}) + "\n")
    if result.outcome is Outcome.SATISFIABLE:
        _write(args.output, emit_solution(result.solution))
        print(f"satisfiable: {count_units(result.solution)} units", file=sys.stderr)
        if args.emit_graph:
            _write(args.emit_graph, solution_to_dot(result.solution))
        return EXIT_SAT
    if result.outcome is Outcome.UNSATISFIABLE:
        # a degree or component refutation holds whatever the unit budget
        any_count = result.stats.precheck in ("degree", "component") or not result.stats.budget_limited
        print("unsatisfiable", "(for any unit count)" if any_count else "(within unit budget)", file=sys.stderr)
        return EXIT_UNSAT
    print("timeout", file=sys.stderr)
    return EXIT_TIMEOUT


def cmd_verify(args) -> int:
    inst = _read(args.instance, parse_instance)
    violations = verify_solution(inst, _read(args.solution, parse_solution))
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ok", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    inst = _read(args.instance, parse_instance)
    if args.min_units:
        k = oracle_min_units(inst, max_elements=args.max_elements)
        print("UNSAT" if k is None else k)
        return EXIT_SAT if k is not None else EXIT_UNSAT
    max_units = args.max_units
    if max_units is None:
        max_units = max(len(inst.elements), 1)
    sat = oracle_decide(inst, max_units, max_elements=args.max_elements)
    print("SAT" if sat else "UNSAT")
    return EXIT_SAT if sat else EXIT_UNSAT


def cmd_reduce(args) -> int:
    if args.binpack:
        b = _read(args.binpack, parse_binpack_line)
    elif args.binsize is None or args.bins is None:
        raise ValueError("need --binpack FILE or --items/--binsize/--bins")
    else:
        b = BinPackingInstance(tuple(args.items or ()), args.binsize, args.bins)
    if args.double or args.double_only:
        b = double_binpack(b)
    if args.double_only:
        _write(args.output, emit_binpack_line(b))
        return 0
    inst, expected = binpack_to_pup_iucap2(b)
    _write(args.output, emit_instance(inst))
    print(f"expected units: {expected}", file=sys.stderr)
    return 0


def cmd_lift(args) -> int:
    lifted, units = lift_iucap0_to_1(_read(args.instance, parse_instance), args.units)
    _write(args.output, emit_instance(lifted))
    print(f"lifted unit budget: {units}", file=sys.stderr)
    return 0


def _parse_manifest(text: str) -> list[tuple[str, int, int, str | None]]:
    """Rows of ``<path> <ucap> <iucap> [<expected-min-units>|UNSAT]``."""
    rows = []
    for lineno, parts in content_lines(text):
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


# (header, record key, width) of each table column; the note follows them
_BENCH_COLUMNS = (
    ("instance", "instance", 40), ("outcome", "outcome", 14), ("units", "units", 6),
    ("expected", "expected", 9), ("+units", "delta_units", 7), ("search_ms", "search_ms", 10),
    ("minimize_ms", "minimize_ms", 12), ("freeze_ms", "freeze_ms", 10), ("nodes", "nodes", 9),
    ("backtracks", "backtracks", 10),
)


def cmd_bench(args) -> int:
    manifest = Path(args.manifest)
    rows = _read(manifest, _parse_manifest)
    cfg = SolveConfig(max_time_ms=args.max_time_ms)
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
            "parse_ms": None,
            **dict.fromkeys(SearchStats().as_dict()),
            "note": "ok",
        }
        try:
            inst, rec["parse_ms"] = _load_instance(str(manifest.parent / rel_path), (ucap, iucap))
        except (OSError, ValueError) as exc:
            rec["note"] = f"error: {exc}"
            any_bad = True
            records.append(rec)
            continue
        result = solve(inst, cfg)
        rec["outcome"] = result.outcome.value
        rec.update(result.stats.as_dict())
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
        # a SAT answer the verifier rejects: this note outranks a wrong verdict
        if result.solution is not None and (violations := verify_solution(inst, result.solution)):
            rec["note"] = f"VIOLATION: {len(violations)}"
            any_bad = True
        records.append(rec)

    print("  ".join(label.ljust(w) for label, _, w in _BENCH_COLUMNS) + "  note")
    for rec in records:
        cells = ["-" if rec[key] is None else str(rec[key]) for _, key, _ in _BENCH_COLUMNS]
        cells[0] = cells[0][:40]  # a long instance path is cut to its column
        print("  ".join(c.ljust(w) for c, (_, _, w) in zip(cells, _BENCH_COLUMNS)) + f"  {rec['note']}")
    if args.records:
        _write(args.records, "".join(json.dumps(rec) + "\n" for rec in records))
    return 1 if any_bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pup", description="Partner Units Problem toolkit")
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
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else 0
    except (OSError, ValueError) as exc:  # ParseError, SizeGuardError and UnicodeDecodeError included
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # a crash is an error, not an answer: exit 1 means unsatisfiable
        traceback.print_exc()
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
