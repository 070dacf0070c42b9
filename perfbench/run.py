"""pupsolver benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The run generates its
inputs from the seed (set-up) and lets the oracles fix each instance's
verdict rule.  Then it solves every instance of the workload from its text
-- parse, solve, emit, verify -- one at a time in a closed loop, pass after
pass, for about ``--seconds`` seconds, and checks every answer against its
rule.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes of the traced replay (see replay.py) and
reports per-layer metrics.  The last line of standard output is one JSON
object; a per-run record, with one row per instance, is written under
``perfbench/out/``.  The exit code is 1 when any answer is wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

from replay import LAYERS, Tracer, replay, self_times
from workloads import GENERATORS, Case

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Set-up is timed SETUP_FIRST times before the loop, then once more after
# any pass that ends a SETUP_SPREAD-th of the run after the last one, so its
# median spans the same window as the other metrics.
SETUP_FIRST = 5
SETUP_SPREAD = 15
# Latency samples go to a fixed buffer, overwritten in a ring when full, so
# the peak memory does not grow with the number of passes.
SAMPLE_CAP = 1 << 19
# Capped at p99: on the sweep's sub-millisecond solves p99.9 measured
# scheduler hiccups, not the solver (quartile spread 0.34 over five seeds).
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
DECIDED = ("satisfiable", "unsatisfiable")


@dataclass
class Result:
    """One solve of one case in one pass."""

    case: int
    traced: bool
    ns: int
    outcome: str
    sha256: str = ""
    violations: int = 0
    error: str | None = None
    entries: int = 0
    expired: bool = False
    nodes: int = 0
    backtracks: int = 0
    units_before: int | None = None
    units_after: int | None = None


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m.partition(".")[0] == "pupsolver"]


class Setup:
    """Timed set-ups: import the package afresh from this checkout's
    ``src/`` and generate the inputs from the seed.  Garbage is collected
    before each one, outside the timing."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.seconds: list[float] = []
        self.reductions: list[float] = []

    def once(self):
        """One timed set-up; returns the package and the cases."""
        for name in _package_modules():
            del sys.modules[name]
        gc.collect()
        extra = {"timings": self.reductions} if self.workload == "binpack" else {}
        t0 = time.perf_counter()
        pup = importlib.import_module("pupsolver")
        cases = GENERATORS[self.workload](pup, random.Random(self.seed), **extra)
        self.seconds.append(time.perf_counter() - t0)
        return pup, cases

    def again(self) -> None:
        """One more timed set-up during the run; the package in use stays
        loaded and its outputs are dropped."""
        saved = {name: sys.modules[name] for name in _package_modules()}
        self.once()
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()


def setup(workload: str, seed: int):
    """The package, the cases and the ``Setup`` that timed them."""
    src = ROOT / "src"
    if not (src / "pupsolver" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    timed = Setup(workload, seed)
    for _ in range(SETUP_FIRST):
        pup, cases = timed.once()
    if Path(pup.__file__).resolve().parent != (src / "pupsolver").resolve():
        raise SystemExit(f"perfbench: imported {pup.__file__}, not the checkout's package")
    return pup, cases, timed


def _config(pup, case: Case):
    return pup.SolveConfig(max_time_ms=case.max_time_ms, max_units=case.max_units)


def _error(k: int, traced: bool, t0: int) -> Result:
    traceback.print_exc(file=sys.stderr)
    return Result(k, traced, time.perf_counter_ns() - t0, "error", error=traceback.format_exc(limit=1))


def solve_case(pup, k: int, case: Case) -> Result:
    """Untraced: instance text to checked answer through ``solve``."""
    t0 = time.perf_counter_ns()
    try:
        inst = pup.parse_instance(case.text)
        res = pup.solve(inst, _config(pup, case))
        text = violations = None
        if res.outcome is pup.Outcome.SATISFIABLE:
            text = pup.emit_solution(res.solution)
            violations = pup.verify_solution(inst, res.solution)
        ns = time.perf_counter_ns() - t0
    except Exception:
        return _error(k, False, t0)
    st = res.stats
    return Result(
        k, False, ns, res.outcome.value,
        hashlib.sha256(text.encode()).hexdigest() if text is not None else "",
        len(violations or ()), None, st.entry_points_tried,
        res.outcome is pup.Outcome.TIMEOUT or st.entry_points_tried > 1,
        st.nodes, st.backtracks, st.units_before_minimize, st.units_after_minimize,
    )


def trace_case(pup, k: int, case: Case, tr: Tracer, replays: list) -> Result:
    """Traced: the same path as ``solve_case``, through ``replay``."""
    tr.begin_case(k)
    t0 = time.perf_counter_ns()
    tr.open("instance")
    try:
        inst = tr.call("core.parse", pup.parse_instance, case.text)
        rp = replay(pup, inst, _config(pup, case), tr)
        text = violations = None
        if rp.outcome == "satisfiable":
            text = tr.call("core.emit", pup.emit_solution, rp.solution)
            violations = tr.call("verify", pup.verify_solution, inst, rp.solution)
        tr.close()
        ns = time.perf_counter_ns() - t0
    except Exception:
        return _error(k, True, t0)
    replays.append(rp)
    return Result(
        k, True, ns, rp.outcome,
        hashlib.sha256(text.encode()).hexdigest() if text is not None else "",
        len(violations or ()), None, rp.entries, rp.entries_expired > 0,
        rp.nodes, rp.backtracks, rp.units_before, rp.units_after,
    )


def expected_verdicts(pup, cases: list[Case]) -> tuple[list[str], float]:
    """The verdict rule per case ("sat", "unsat" or "not-sat") and the
    seconds the oracles took."""
    t0 = time.perf_counter()
    rules = []
    for case in cases:
        if case.expect == "binpack":
            fits = pup.binpack_decide(pup.BinPackingInstance(*case.packing))
            rules.append("sat" if fits else "not-sat")
        elif case.expect == "oracle":
            inst = pup.parse_instance(case.text)
            rules.append("sat" if pup.oracle_decide(inst, max(len(inst.elements), 1)) else "unsat")
        else:
            rules.append(case.expect)
    return rules, time.perf_counter() - t0


def gate_ok(r: Result, rule: str) -> bool:
    """Right verdict, verifier-clean, no exception."""
    if r.error is not None or r.violations:
        return False
    if rule == "sat":
        return r.outcome == "satisfiable"
    if rule == "unsat":
        return r.outcome == "unsatisfiable"
    return r.outcome != "satisfiable"


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least
    TAIL_BEYOND samples beyond it (nearest rank); the median rank when
    there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1]
    return 50.0, xs[max(math.ceil(n / 2), 1) - 1]


class Tally:
    """Running counts over every pass, each solve compared with the first
    pass as it arrives.

    ``failed_any`` counts every solve that is not a settled, stable answer:
    timeouts, wrong verdicts, verifier violations, exceptions, and answers
    whose outcome or bytes differ from the first pass.  ``failed_hard``
    leaves out timeouts the verdict rule allows (a packing that does not
    fit), which are answers, not faults.
    """

    def __init__(self, cases: list[Case], rules: list[str]):
        self.cases, self.rules = cases, rules
        self.ref: list[Result] | None = None
        self.attempted = self.failed_any = self.failed_hard = self.wrong = self.mismatched = 0
        self.buffer = array("d", [0.0]) * SAMPLE_CAP
        self.n_samples = 0
        self.untraced_ns = self.traced_ns = self.untraced_passes = self.decided_elements = 0
        self.flips = [0] * len(cases)
        self.ms_sum = [0.0] * len(cases)

    def add(self, traced: bool, wall_ns: int, results: list[Result]) -> None:
        first_pass = self.ref is None
        if first_pass:
            self.ref = results
        for r in results:
            ref = self.ref[r.case]
            flip = not first_pass and (r.outcome, r.sha256) != (ref.outcome, ref.sha256)
            bad = not gate_ok(r, self.rules[r.case])
            self.attempted += 1
            self.wrong += bad
            self.failed_hard += bad or flip
            self.failed_any += bad or flip or r.outcome == "timeout"
            self.flips[r.case] += flip
            # the traced replay must reproduce solve() wherever no slice expired
            if r.traced and flip and not (r.expired or ref.expired):
                self.mismatched += 1
            if not traced:
                self.buffer[self.n_samples % SAMPLE_CAP] = r.ns / 1e6
                self.n_samples += 1
                self.ms_sum[r.case] += r.ns / 1e6
                if r.outcome in DECIDED:
                    self.decided_elements += self.cases[r.case].elements
        if traced:
            self.traced_ns += wall_ns
        else:
            self.untraced_ns += wall_ns
            self.untraced_passes += 1

    def samples(self) -> array:
        """The untraced latencies in ms, the latest SAMPLE_CAP of them."""
        return self.buffer[:min(self.n_samples, SAMPLE_CAP)]


def run(pup, cases: list[Case], seconds: float, traced: bool, tally: Tally, timed: Setup):
    """Closed loop over the cases until the time is used up.

    Untraced runs make at least two passes, so a second pass can be
    compared with the first.  Traced runs alternate an untraced and a
    traced pass, at least one of each.  Another pass (or pair) starts only
    if it is expected to end within ``seconds``.  Between passes, ``timed``
    repeats the set-up now and then.  Returns the per-layer
    figures of each traced pass and the spans of the first one.
    """
    folded: list[dict] = []
    first_spans: list[list] | None = None
    rounds = 0
    t_start = last_setup = time.perf_counter()
    while True:
        for is_traced in ((False, True) if traced else (False,)):
            tr, replays = Tracer(), []
            t0 = time.perf_counter_ns()
            if is_traced:
                results = [trace_case(pup, k, c, tr, replays) for k, c in enumerate(cases)]
            else:
                results = [solve_case(pup, k, c) for k, c in enumerate(cases)]
            wall = time.perf_counter_ns() - t0
            tally.add(is_traced, wall, results)
            if is_traced:
                folded.append(fold(tr.spans, replays, wall))
                if first_spans is None:
                    first_spans = tr.spans
            if time.perf_counter() - last_setup >= seconds / SETUP_SPREAD:
                timed.again()
                last_setup = time.perf_counter()
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if rounds >= (1 if traced else 2) and elapsed * (rounds + 1) / rounds > seconds:
            return folded, first_spans


def fold(spans: list[list], replays: list, wall_ns: int) -> dict:
    """Per-layer figures of one traced pass."""
    st = self_times(spans)
    root_ns = sum(s[2] - s[1] for s in spans if s[3] < 0)
    layer_ns = sum(st.get(name, 0) for name in LAYERS)
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.ms"] = st.get(name, 0) / 1e6
        out[f"{name}.share"] = st.get(name, 0) / wall_ns
    entries = sum(rp.entries for rp in replays)
    out["solver.precheck.calls"] = sum(rp.prechecked for rp in replays)
    out["solver.order.calls"] = out["solver.model.calls"] = entries
    nodes = sum(rp.nodes for rp in replays)
    backtracks = sum(rp.backtracks for rp in replays)
    out["solver.search.nodes"] = nodes
    out["solver.search.backtracks"] = backtracks
    out["solver.search.backtrack_ratio"] = backtracks / nodes if nodes else 0.0
    out["solver.minimize.units_before"] = sum(rp.units_before or 0 for rp in replays)
    out["solver.minimize.units_after"] = sum(rp.units_after or 0 for rp in replays)
    out["solver.restart.entries"] = entries
    out["solver.restart.entries_expired"] = sum(rp.entries_expired for rp in replays)
    out["solver.restart.expired_ms"] = sum(rp.expired_ns for rp in replays) / 1e6
    margins = [m for rp in replays for m in rp.finished_margins]
    out["solver.restart.min_margin"] = min(margins) if margins else 0.0
    out["trace.unattributed_frac"] = (root_ns - layer_ns) / root_ns if root_ns else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pup, cases, timed = setup(args.workload, args.seed)
    rules, oracle_s = expected_verdicts(pup, cases)
    tally = Tally(cases, rules)
    folded, first_spans = run(pup, cases, args.seconds, bool(args.trace), tally, timed)
    # read before the samples are sorted, which takes memory of its own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = tally.wrong == 0 and tally.mismatched == 0

    samples = tally.samples()
    tail_p, tail_ms = tail(samples)
    e2e = {
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": tail_ms,
        "elements_per_s": tally.decided_elements / (tally.untraced_ns / 1e9),
        "ok_frac": 1.0 - tally.failed_any / tally.attempted,
        "setup_s": statistics.median(timed.seconds),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "failed_frac": tally.failed_any / tally.attempted,
        "units_total": sum(r.units_after or 0 for r in tally.ref if r.outcome == "satisfiable"),
        "tail_percentile": tail_p,
        "samples": tally.n_samples,
        "setup_reps": len(timed.seconds),
        "passes_untraced": tally.untraced_passes,
    }

    if args.trace:
        layer = {key: statistics.median(f[key] for f in folded) for key in folded[0]}
        layer["solver.restart.min_margin"] = min(f["solver.restart.min_margin"] for f in folded)
        layer["trace.overhead_frac"] = tally.traced_ns / tally.untraced_ns - 1.0
        layer["oracle.ms"] = oracle_s * 1e3
        layer["reductions.ms"] = statistics.median(timed.reductions or [0.0]) * 1e3
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    declared = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ declared)} do not match BENCHMARK.json")

    _write_record(args, tally, e2e, extra, metrics, first_spans, correct)
    _print_rows(args, e2e, extra, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed_hard,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _write_record(args, tally: Tally, e2e, extra, metrics, spans, correct) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, case in enumerate(tally.cases):
        r = tally.ref[k]
        rows.append({
            "workload": args.workload, "seed": args.seed, "instance": case.name,
            "elements": case.elements, "budget_ms": case.max_time_ms, "rule": tally.rules[k],
            "outcome": r.outcome, "entries": r.entries, "expired": r.expired,
            "nodes": r.nodes, "backtracks": r.backtracks,
            "units_before": r.units_before, "units_after": r.units_after,
            "sha256": r.sha256, "violations": r.violations, "error": r.error,
            "flips": tally.flips[k], "ms_first": r.ns / 1e6,
            "ms_mean": tally.ms_sum[k] / tally.untraced_passes,
        })
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "end_to_end": e2e, **extra, "metrics": metrics, "instances": rows,
    }
    if spans is not None:
        t0 = spans[0][1] if spans else 0
        record["spans"] = [[n, s - t0, e - t0, parent, case] for n, s, e, parent, case in spans]
    path = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)


def _print_rows(args, e2e, extra, metrics) -> None:
    if args.trace:
        for key, m in metrics.items():
            print(f"{args.workload:<10} {key:<34} {m['value']:>14.4f} {m['unit']}")
        return
    print(f"{'workload':<10} {'latency_p50_ms':>14} {'latency_tail_ms':>22} {'elements_per_s':>14} "
          f"{'failed_frac':>11} {'units_total':>11} {'setup_s':>8} {'peak_rss_mb':>11}")
    print(f"{'':<10} {UNITS['latency_p50_ms']:>14} {UNITS['latency_tail_ms'] + ' pct/samples':>22} "
          f"{UNITS['elements_per_s']:>14} {'ratio':>11} {'count':>11} {UNITS['setup_s']:>8} "
          f"{UNITS['peak_rss_mb']:>11}")
    tail_label = f"{e2e['latency_tail_ms']:.3f} p{extra['tail_percentile']:g}/n{extra['samples']}"
    print(f"{args.workload:<10} {e2e['latency_p50_ms']:>14.3f} {tail_label:>22} "
          f"{e2e['elements_per_s']:>14.0f} {extra['failed_frac']:>11.4f} {extra['units_total']:>11} "
          f"{e2e['setup_s']:>8.4f} {e2e['peak_rss_mb']:>11.1f}")


if __name__ == "__main__":
    sys.exit(main())
