"""Heuristic backtracking solver for the Partner Units Problem.

The search restarts once per indicator: each restart orders the elements
breadth-first from its start indicator and runs a recursive backtracking
assignment under a time slice of max_time_ms / number_of_indicators.  At
every element the search tries one fresh unit first (if the unit budget
allows) and then every existing unit in creation order; partner connections
are never searched over because placing an element forces a unique set of
new connections.  A fully exhausted restart proves unsatisfiability for the
given unit budget, so the default budget |indicators| + |sensors| makes an
Unsatisfiable answer hold globally.

A second proof ends a restart early.  When position i of the visit order
runs out of placements, no input edge joins the elements before i to those
from i on, and at least len(order) - i units are still unused, the instance
is unsatisfiable: any solution, restricted to that suffix, would fit on
fresh units beside the placed prefix, and the complete search has just
tried every such placement.  The search then stops instead of backtracking
into the prefix.  This cut can only fire on unsatisfiable instances, so
satisfiable searches visit the same nodes and emit the same bytes.

Sequential mode is deterministic: all tie-breaking is by the stable element
index, so repeated runs produce byte-identical solution files.  Parallel
mode runs one search per entry point on a thread pool and the first
definitive answer wins; the others are cancelled through a shared event.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

from .core import Instance, SolutionGraph, SolveConfig, degree_precheck


class Ternary(Enum):
    """Three-valued search result."""

    TRUE = "true"
    FALSE = "false"
    TIMEOUT = "timeout"


class Outcome(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class ElementOrder:
    """Element visit order for one search restart.

    ``sequence`` covers every element exactly once.  For a restart from an
    indicator, position 0 is that indicator and each breadth-first level is
    appended in stable-index order; disconnected components follow, each
    started from its lowest-index undiscovered indicator (else sensor).
    """

    start: str | None
    sequence: tuple[str, ...]


def _component_order(inst: Instance, start: str | None) -> tuple[str, ...]:
    idx = inst.index
    neighbors = inst.neighbors
    seen: set[str] = set()
    out: list[str] = []
    pending = start
    while True:
        if pending is None:
            pending = next((e for e in inst.indicators if e not in seen), None)
            if pending is None:
                pending = next((e for e in inst.sensors if e not in seen), None)
            if pending is None:
                break
        seen.add(pending)
        out.append(pending)
        level = [pending]
        pending = None
        while level:
            nxt = sorted(
                {nb for e in level for nb in neighbors[e] if nb not in seen},
                key=idx.__getitem__,
            )
            seen.update(nxt)
            out.extend(nxt)
            level = nxt
    return tuple(out)


def breadth_first_order(start: str, inst: Instance) -> ElementOrder:
    """Breadth-first element order from a start indicator."""
    if start not in inst.indicator_set:
        raise ValueError(f"start element {start!r} is not an indicator")
    return ElementOrder(start, _component_order(inst, start))


@dataclass
class SearchStats:
    """Counters and timings for one solve() call."""

    entry_points_tried: int = 0
    nodes: int = 0
    backtracks: int = 0
    per_entry_ms: list[tuple[str, float]] = field(default_factory=list)
    search_ms: float = 0.0
    minimize_ms: float = 0.0
    freeze_ms: float = 0.0
    units_before_minimize: int | None = None
    units_after_minimize: int | None = None
    precheck: str | None = None
    budget_limited: bool = False
    refuted_from: str | None = None

    def as_text(self) -> str:
        lines = [
            f"entry_points_tried {self.entry_points_tried}",
            f"nodes {self.nodes}",
            f"backtracks {self.backtracks}",
            f"search_ms {self.search_ms:.3f}",
            f"minimize_ms {self.minimize_ms:.3f}",
            f"freeze_ms {self.freeze_ms:.3f}",
        ]
        if self.precheck is not None:
            lines.append(f"precheck {self.precheck}")
        if self.refuted_from is not None:
            lines.append(f"refuted_from {self.refuted_from}")
        if self.units_before_minimize is not None:
            lines.append(f"units_before_minimize {self.units_before_minimize}")
        if self.units_after_minimize is not None:
            lines.append(f"units_after_minimize {self.units_after_minimize}")
        lines.append(f"budget_limited {str(self.budget_limited).lower()}")
        for name, ms in self.per_entry_ms:
            lines.append(f"entry {name} {ms:.3f}")
        return "\n".join(lines) + "\n"


@dataclass
class SolveOutcome:
    outcome: Outcome
    solution: SolutionGraph | None
    stats: SearchStats

    @property
    def is_satisfiable(self) -> bool:
        return self.outcome is Outcome.SATISFIABLE


class PartialModel:
    """Mutable solution under construction, with a journaled undo stack.

    Units are identified by creation order ("u1", "u2", ...).  Every state
    change goes through assign_and_connect / new_unit and is recorded on the
    journal; undo_assign_and_connect / drop_unit pop and verify the matching
    entry, so a replayed journal restores the exact prior state.  A mismatch
    is a program-logic fault and raises RuntimeError.

    Partnerships live in one place: ``_partners[u]`` is the set of unit
    indices partnered with unit u.  The relation is symmetric, never holds
    u itself, and a set never grows past iucap because placement refuses any
    connection that would exceed it; its length is the partner count.
    """

    def __init__(self, inst: Instance, max_units: int | None = None):
        self.inst = inst
        self.ucap = inst.ucap
        self.iucap = inst.iucap
        n = len(inst.elements)
        self.max_units = max_units if max_units is not None else max(n, 1)
        self._is_ind = [True] * len(inst.indicators) + [False] * len(inst.sensors)
        idx = inst.index
        self._nbr: list[tuple[int, ...]] = [
            tuple(idx[nb] for nb in inst.neighbors[e]) for e in inst.elements
        ]
        self._elem_unit = [-1] * n
        self._n_units = 0
        self._unit_ids: list[str] = []
        self._id2unit: dict[str, int] = {}
        self._ind_count: list[int] = []
        self._sens_count: list[int] = []
        self._partners: list[set[int]] = []
        self._members: list[list[int]] = []
        self._dead: list[bool] = []
        self._journal: list[tuple] = []

    # -- int-indexed fast path, used by the search --

    def _new_unit_idx(self) -> int:
        u = self._n_units
        if u == len(self._unit_ids):
            uid = f"u{u + 1}"
            self._unit_ids.append(uid)
            self._id2unit[uid] = u
            self._ind_count.append(0)
            self._sens_count.append(0)
            self._partners.append(set())
            self._members.append([])
            self._dead.append(False)
        self._n_units = u + 1
        self._journal.append(("unit", u))
        return u

    def _drop_unit_idx(self, u: int) -> None:
        entry = self._journal.pop() if self._journal else None
        if entry != ("unit", u):
            raise RuntimeError(f"undo journal mismatch: expected unit creation of {u}, got {entry}")
        if u != self._n_units - 1 or self._members[u] or self._partners[u]:
            raise RuntimeError(f"unit {u} cannot be dropped: not the last empty unconnected unit")
        self._n_units = u

    def _place_idx(self, e: int, u: int) -> bool:
        if self._is_ind[e]:
            if self._ind_count[u] >= self.ucap:
                return False
        elif self._sens_count[u] >= self.ucap:
            return False
        # the partner connections this placement forces, deduplicated
        needed: list[int] = []
        partners = self._partners
        partners_u = partners[u]
        budget = self.iucap - len(partners_u)
        unit_of = self._elem_unit
        for nb in self._nbr[e]:
            w = unit_of[nb]
            if w < 0 or w == u or w in partners_u or w in needed:
                continue
            needed.append(w)
            if len(needed) > budget:
                return False
            if len(partners[w]) >= self.iucap:
                return False
        self._elem_unit[e] = u
        self._members[u].append(e)
        if self._is_ind[e]:
            self._ind_count[u] += 1
        else:
            self._sens_count[u] += 1
        for w in needed:
            partners_u.add(w)
            partners[w].add(u)
        self._journal.append(("place", e, u, tuple(needed)))
        return True

    def _unplace_idx(self, e: int, u: int) -> None:
        entry = self._journal.pop() if self._journal else None
        if entry is None or entry[0] != "place" or entry[1] != e or entry[2] != u:
            raise RuntimeError(f"undo journal mismatch: expected placement of {e} on {u}, got {entry}")
        if not self._members[u] or self._members[u][-1] != e:
            raise RuntimeError(f"undo journal mismatch: {e} is not the newest element of unit {u}")
        self._members[u].pop()
        self._elem_unit[e] = -1
        if self._is_ind[e]:
            self._ind_count[u] -= 1
        else:
            self._sens_count[u] -= 1
        for w in entry[3]:
            self._partners[u].discard(w)
            self._partners[w].discard(u)

    def _undo_to(self, mark: int) -> None:
        """Undo journal entries, newest first, until the journal has mark entries."""
        journal = self._journal
        while len(journal) > mark:
            entry = journal[-1]
            if entry[0] == "unit":
                self._drop_unit_idx(entry[1])
            else:
                self._unplace_idx(entry[1], entry[2])

    # -- id-based public surface --

    def new_unit(self) -> str:
        """Create the next unit (respecting max_units) and return its id."""
        if self._n_units >= self.max_units:
            raise ValueError("unit budget exhausted")
        return self._unit_ids[self._new_unit_idx()]

    def drop_unit(self, unit: str) -> None:
        self._drop_unit_idx(self._unit_idx(unit))

    def assign_and_connect(self, elem: str, unit: str) -> bool:
        """Place elem on unit and create the forced partner connections.

        Returns False (and changes nothing) when the unit has no free slot
        for the element's side or the forced connections would exceed iucap
        on either endpoint.
        """
        return self._place_idx(self._elem_idx(elem), self._unit_idx(unit))

    def undo_assign_and_connect(self, elem: str, unit: str) -> None:
        """Reverse the matching assign_and_connect (journal-checked)."""
        self._unplace_idx(self._elem_idx(elem), self._unit_idx(unit))

    def _elem_idx(self, elem: str) -> int:
        try:
            return self.inst.index[elem]
        except KeyError:
            raise ValueError(f"unknown element {elem!r}") from None

    def _unit_idx(self, unit: str) -> int:
        u = self._id2unit.get(unit, -1)
        if u < 0 or u >= self._n_units:
            raise ValueError(f"unknown unit {unit!r}")
        if self._dead[u]:
            raise ValueError(f"unit {unit!r} was merged away")
        return u

    @property
    def unit_count(self) -> int:
        return sum(1 for u in range(self._n_units) if not self._dead[u])

    @property
    def units(self) -> tuple[str, ...]:
        return tuple(self._unit_ids[u] for u in range(self._n_units) if not self._dead[u])

    def unit_of(self, elem: str) -> str | None:
        u = self._elem_unit[self._elem_idx(elem)]
        return None if u < 0 else self._unit_ids[u]

    def partners_of(self, unit: str) -> tuple[str, ...]:
        return tuple(self._unit_ids[w] for w in sorted(self._partners[self._unit_idx(unit)]))

    def snapshot(self) -> tuple:
        """Structural state for equality checks in tests."""
        n = self._n_units
        return (
            tuple(self._elem_unit),
            n,
            tuple(self._ind_count[:n]),
            tuple(self._sens_count[:n]),
            tuple(tuple(sorted(p)) for p in self._partners[:n]),
            tuple(tuple(m) for m in self._members[:n]),
            tuple(self._dead[:n]),
        )

    def check_counters(self) -> None:
        """Recompute the capacity counters and check the partner sets."""
        n = self._n_units
        for u in range(n):
            ind = sum(1 for e in self._members[u] if self._is_ind[e])
            sen = len(self._members[u]) - ind
            if ind != self._ind_count[u] or sen != self._sens_count[u]:
                raise RuntimeError(f"stale capacity counters on unit {u}")
            partners = self._partners[u]
            if u in partners:
                raise RuntimeError(f"unit {u} is its own partner")
            if len(partners) > self.iucap:
                raise RuntimeError(f"unit {u} has more than iucap partners")
            if self._dead[u] and partners:
                raise RuntimeError(f"merged-away unit {u} still has partners")
            if any(w >= n or u not in self._partners[w] for w in partners):
                raise RuntimeError(f"asymmetric partnership on unit {u}")
        for e, u in enumerate(self._elem_unit):
            if u >= 0 and e not in self._members[u]:
                raise RuntimeError(f"element {e} missing from its unit member list")

    def to_solution_graph(self) -> SolutionGraph:
        """Freeze into an immutable SolutionGraph.

        Surviving occupied units are renumbered u1..uK in creation order, so
        merges performed by minimize leave no gaps in the emitted ids.
        """
        live = [u for u in range(self._n_units) if not self._dead[u] and self._members[u]]
        rename = {u: f"u{k + 1}" for k, u in enumerate(live)}
        elements = self.inst.elements
        assignment: dict[str, str] = {}
        for e, name in enumerate(elements):
            u = self._elem_unit[e]
            if u >= 0:
                assignment[name] = rename[u]
        partners = frozenset(
            (rename[u], rename[w]) for u in live for w in self._partners[u] if w in rename
        )
        return SolutionGraph(
            units=tuple(rename[u] for u in live),
            assignment=assignment,
            partners=partners,
            indicators=self.inst.indicators,
            sensors=self.inst.sensors,
        )


# ===== recursive search =====

# Internal result of _assign: the component cut proved the instance
# unsatisfiable.  Every frame passes it up like TRUE; assign and both solve
# paths turn it into FALSE / UNSATISFIABLE.
_REFUTED = object()


def _cut_positions(nbr: list[tuple[int, ...]], order: tuple[int, ...]) -> list[bool]:
    """cuts[k] is True when 0 < k and no edge joins order[:k] to order[k:]."""
    n = len(order)
    pos = [n] * len(nbr)
    for k, e in enumerate(order):
        pos[e] = k
    cuts = [False] * n
    reach = 0  # furthest position of a neighbour of order[:k]
    for k, e in enumerate(order):
        cuts[k] = 0 < k and reach < k
        for nb in nbr[e]:
            if pos[nb] > reach:
                reach = pos[nb]
    return cuts


def _assign(
    m: PartialModel,
    order: tuple[int, ...],
    i: int,
    deadline: float,
    max_units: int,
    stats: SearchStats,
    cancel: threading.Event | None,
    trace: list | None,
    cuts: list[bool],
) -> Ternary:
    stats.nodes += 1
    if i >= len(order):
        return Ternary.TRUE
    if time.monotonic() > deadline or (cancel is not None and cancel.is_set()):
        return Ternary.TIMEOUT
    e = order[i]
    # one fresh unit first: fresh units are interchangeable, so a single
    # representative preserves completeness
    if m._n_units < max_units:
        u = m._new_unit_idx()
        if trace is not None:
            trace.append((m.inst.elements[e], m._unit_ids[u], "fresh"))
        if m._place_idx(e, u):
            r = _assign(m, order, i + 1, deadline, max_units, stats, cancel, trace, cuts)
            if r is not Ternary.FALSE:
                return r
            m._unplace_idx(e, u)
        m._drop_unit_idx(u)
    # then every existing unit in creation order
    for u in range(m._n_units):
        if trace is not None:
            trace.append((m.inst.elements[e], m._unit_ids[u], "existing"))
        if m._place_idx(e, u):
            r = _assign(m, order, i + 1, deadline, max_units, stats, cancel, trace, cuts)
            if r is not Ternary.FALSE:
                return r
            m._unplace_idx(e, u)
    stats.backtracks += 1
    # component cut; ``cuts`` starts empty and is filled on first use, so a
    # search that never gets here pays nothing for it
    if max_units - m._n_units >= len(order) - i:
        if not cuts:
            cuts.extend(_cut_positions(m._nbr, order))
        if cuts[i]:
            stats.refuted_from = m.inst.elements[e]
            return _REFUTED
    return Ternary.FALSE


def assign(
    order: ElementOrder,
    idx: int,
    m: PartialModel,
    deadline: float,
    max_units: int,
    stats: SearchStats | None = None,
    cancel: threading.Event | None = None,
    trace: list | None = None,
) -> Ternary:
    """Recursive search step: place order.sequence[idx:] onto units of m.

    TRUE means m now extends to a full consistent assignment; FALSE means no
    completion exists within max_units units (and m is restored); TIMEOUT
    means the deadline passed, leaving m journal-restorable but otherwise
    unspecified.  ``deadline`` is an absolute time.monotonic() timestamp,
    checked on every entry, so timeout granularity is one search node.

    FALSE also comes from the component cut (see the module docstring):
    a suffix that no edge joins to the placed prefix, with enough unused
    units for all of it, has no placement.  The search then stops early,
    m is unwound through its journal, and stats.refuted_from names the
    element where that suffix starts.
    """
    stats = stats if stats is not None else SearchStats()
    seq = tuple(m.inst.index[e] for e in order.sequence)
    mark = len(m._journal)
    r = _assign(m, seq, idx, deadline, max_units, stats, cancel, trace, [])
    if r is _REFUTED:
        m._undo_to(mark)
        return Ternary.FALSE
    return r


# ===== unit minimization =====


def minimize(m: PartialModel) -> PartialModel:
    """Greedy pairwise unit merging, in place.

    For each ordered pair (A, B) of live units in creation order, B is merged
    into A when the combined indicator count, combined sensor count, and the
    union of partner sets minus the pair itself all stay within capacity.
    Never increases the unit count and preserves solution consistency.
    """
    ucap, iucap = m.ucap, m.iucap
    partners = m._partners
    n = m._n_units
    for a in range(n):
        if m._dead[a]:
            continue
        for b in range(n):
            if a == b or m._dead[a] or m._dead[b]:
                continue
            if m._ind_count[a] + m._ind_count[b] > ucap:
                continue
            if m._sens_count[a] + m._sens_count[b] > ucap:
                continue
            merged = (partners[a] | partners[b]) - {a, b}
            if len(merged) > iucap:
                continue
            _merge_units(m, a, b, merged)
    return m


def _merge_units(m: PartialModel, a: int, b: int, merged: set[int]) -> None:
    for e in m._members[b]:
        m._elem_unit[e] = a
        m._members[a].append(e)
    m._ind_count[a] += m._ind_count[b]
    m._sens_count[a] += m._sens_count[b]
    m._members[b] = []
    m._ind_count[b] = 0
    m._sens_count[b] = 0
    # rewire: every partner of b other than a now partners a instead; a's
    # own partners other than b are already in merged and keep their edge
    for w in m._partners[b]:
        if w != a:
            m._partners[w].discard(b)
            m._partners[w].add(a)
    m._partners[a] = merged
    m._partners[b] = set()
    m._dead[b] = True


# ===== top-level solve =====


def _empty_outcome(inst: Instance, stats: SearchStats) -> SolveOutcome:
    g = SolutionGraph((), {}, frozenset(), inst.indicators, inst.sensors)
    stats.units_before_minimize = 0
    stats.units_after_minimize = 0
    return SolveOutcome(Outcome.SATISFIABLE, g, stats)


def _finish_sat(inst: Instance, cfg: SolveConfig, m: PartialModel, stats: SearchStats) -> SolveOutcome:
    stats.units_before_minimize = sum(1 for u in range(m._n_units) if m._members[u])
    if cfg.minimize:
        t0 = time.monotonic()
        minimize(m)
        stats.minimize_ms = (time.monotonic() - t0) * 1000.0
    stats.units_after_minimize = sum(
        1 for u in range(m._n_units) if not m._dead[u] and m._members[u]
    )
    t0 = time.monotonic()
    graph = m.to_solution_graph()
    stats.freeze_ms = (time.monotonic() - t0) * 1000.0
    return SolveOutcome(Outcome.SATISFIABLE, graph, stats)


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Decide the instance within cfg.max_units units and cfg.max_time_ms.

    Satisfiable comes with a verified-shape solution graph (minimized unless
    cfg.minimize is off).  Unsatisfiable from a search means one entry point
    either exhausted its whole tree at the given unit budget, or found a
    suffix of its visit order that no edge joins to the prefix, that had
    enough unused units for every element in it, and that had no placement
    (stats.refuted_from names its first element).  With the default budget
    either is a global proof.  Timeout means every entry point ran out of
    its time slice.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    n = len(inst.elements)
    max_units = cfg.max_units if cfg.max_units is not None else max(n, 1)
    stats = SearchStats()
    stats.budget_limited = max_units < n

    t_start = time.monotonic()
    if n == 0:
        return _empty_outcome(inst, stats)
    if degree_precheck(inst):
        stats.precheck = "degree"
        return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
    if len(inst.indicators) > max_units * inst.ucap or len(inst.sensors) > max_units * inst.ucap:
        stats.precheck = "capacity"
        return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)

    limit = 4 * n + 10_000
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)

    if cfg.parallel and len(inst.indicators) > 1:
        result = _solve_parallel(inst, cfg, max_units, stats)
    else:
        result = _solve_sequential(inst, cfg, max_units, stats)
    stats.search_ms = (time.monotonic() - t_start) * 1000.0 - stats.minimize_ms - stats.freeze_ms
    return result


def _solve_sequential(
    inst: Instance, cfg: SolveConfig, max_units: int, stats: SearchStats
) -> SolveOutcome:
    entries: tuple[str | None, ...] = inst.indicators if inst.indicators else (None,)
    slice_ms = max(1, cfg.max_time_ms // len(entries))
    for start in entries:
        stats.entry_points_tried += 1
        seq = _component_order(inst, start)
        order = tuple(inst.index[e] for e in seq)
        m = PartialModel(inst, max_units)
        t0 = time.monotonic()
        deadline = t0 + slice_ms / 1000.0
        r = _assign(m, order, 0, deadline, max_units, stats, None, None, [])
        stats.per_entry_ms.append((start or "", (time.monotonic() - t0) * 1000.0))
        if r is Ternary.TRUE:
            return _finish_sat(inst, cfg, m, stats)
        if r is Ternary.FALSE or r is _REFUTED:
            return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
    return SolveOutcome(Outcome.TIMEOUT, None, stats)


def _solve_parallel(
    inst: Instance, cfg: SolveConfig, max_units: int, stats: SearchStats
) -> SolveOutcome:
    cancel = threading.Event()
    lock = threading.Lock()
    winner: dict = {}
    deadline = time.monotonic() + cfg.max_time_ms / 1000.0

    def run(start: str) -> tuple[str, float, SearchStats]:
        local = SearchStats()
        seq = _component_order(inst, start)
        order = tuple(inst.index[e] for e in seq)
        m = PartialModel(inst, max_units)
        t0 = time.monotonic()
        r = _assign(m, order, 0, deadline, max_units, local, cancel, None, [])
        if r is not Ternary.TIMEOUT:
            with lock:
                if "result" not in winner:
                    winner["result"] = r
                    winner["model"] = m
                    winner["refuted_from"] = local.refuted_from
            cancel.set()
        return start, (time.monotonic() - t0) * 1000.0, local

    workers = min(len(inst.indicators), 8)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start, ms, local in pool.map(run, inst.indicators):
            stats.entry_points_tried += 1
            stats.nodes += local.nodes
            stats.backtracks += local.backtracks
            stats.per_entry_ms.append((start, ms))

    r = winner.get("result")
    if r is Ternary.TRUE:
        return _finish_sat(inst, cfg, winner["model"], stats)
    if r is Ternary.FALSE or r is _REFUTED:
        stats.refuted_from = winner["refuted_from"]
        return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
    return SolveOutcome(Outcome.TIMEOUT, None, stats)
