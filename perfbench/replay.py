"""Traced replay of the sequential solve path, through public calls only.

``replay`` makes the same calls, in the same order, as
``pupsolver.solve`` does sequentially: prechecks; per entry point an
element order, a fresh ``PartialModel`` and ``assign`` under an equal
slice of the budget; then ``minimize`` and the freeze into a
``SolutionGraph``.  Each call runs inside a span, so freeze is timed apart
from search, which ``solve`` cannot report yet.  Spans stay in memory and
are folded into per-layer totals after each pass.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# Layers whose self time is reported.  Time in the root span ("instance")
# and in "solver.restart" outside its children is benchmark glue and counts
# as unattributed.
LAYERS = (
    "core.parse",
    "solver.precheck",
    "solver.order",
    "solver.model",
    "solver.search",
    "solver.minimize",
    "solver.freeze",
    "core.emit",
    "verify",
)


class Tracer:
    """Flat span list: [name, start_ns, end_ns, parent index, case index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case = -1

    def begin_case(self, case: int) -> None:
        self.case = case
        self._stack.clear()

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.case])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def call(self, name: str, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()


@dataclass
class Replayed:
    """What one traced solve produced, and the counters seen on the way."""

    outcome: str
    solution: object = None
    entries: int = 0
    entries_expired: int = 0
    expired_ns: int = 0
    finished_margins: list[float] = field(default_factory=list)
    nodes: int = 0
    backtracks: int = 0
    units_before: int | None = None
    units_after: int | None = None
    prechecked: bool = False


def replay(pup, inst, cfg, tr: Tracer) -> Replayed:
    """Decide ``inst`` exactly as the sequential ``solve`` would."""
    n = len(inst.elements)
    max_units = cfg.max_units if cfg.max_units is not None else max(n, 1)
    if n == 0:
        graph = pup.SolutionGraph((), {}, frozenset(), inst.indicators, inst.sensors)
        return Replayed("satisfiable", graph, units_before=0, units_after=0)

    out = Replayed("timeout", prechecked=True)
    tr.open("solver.precheck")
    refuted = bool(pup.degree_precheck(inst)) or (
        len(inst.indicators) > max_units * inst.ucap or len(inst.sensors) > max_units * inst.ucap
    )
    tr.close()
    if refuted:
        out.outcome = "unsatisfiable"
        return out

    limit = 4 * n + 10_000
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)

    entries = inst.indicators if inst.indicators else (None,)
    slice_ms = max(1, cfg.max_time_ms // len(entries))
    stats = pup.SearchStats()
    model = None
    for start in entries:
        out.entries += 1
        tr.open("solver.restart")
        if start is None:
            order = tr.call("solver.order", pup.ElementOrder, None, inst.elements)
        else:
            order = tr.call("solver.order", pup.breadth_first_order, start, inst)
        m = tr.call("solver.model", pup.PartialModel, inst, max_units)
        tr.open("solver.search")
        search = tr.spans[-1]
        t0 = time.monotonic()
        r = pup.assign(order, 0, m, t0 + slice_ms / 1000.0, max_units, stats)
        tr.close()
        tr.close()
        spent_ns = search[2] - search[1]
        if r is pup.Ternary.TIMEOUT:
            out.entries_expired += 1
            out.expired_ns += spent_ns
            continue
        out.finished_margins.append(slice_ms * 1e6 / max(spent_ns, 1))
        if r is pup.Ternary.FALSE:
            out.outcome = "unsatisfiable"
        else:
            model = m
        break
    out.nodes, out.backtracks = stats.nodes, stats.backtracks
    if model is None:
        return out

    out.outcome = "satisfiable"
    out.units_before = model.unit_count
    if cfg.minimize:
        tr.call("solver.minimize", pup.minimize, model)
    out.units_after = model.unit_count
    out.solution = tr.call("solver.freeze", model.to_solution_graph)
    return out


def self_times(spans: list[list]) -> dict[str, int]:
    """Per span name: total duration minus the time its child spans cover."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, int] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - child_ns[k]
    return totals
