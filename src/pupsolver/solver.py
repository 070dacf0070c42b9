"""Heuristic backtracking solver for the Partner Units Problem.

Three prechecks come before any search; each is one linear pass and answers
Unsatisfiable with no search node.  The degree precheck finds an element
with more neighbours than its unit and iucap partners can host, the
capacity precheck a side with more elements than the unit budget holds.
The component precheck applies at iucap <= 1, where every unit has at most
one partner, so a connected component lies on one unit or on two partnered
units: a component with more than ucap * (iucap + 1) elements of a side has
no placement, whatever the unit budget.  It is skipped when neither side as
a whole exceeds that bound.  At iucap <= 1 and the default unit budget an
instance that passes it is satisfiable: there the search never has to
prove unsatisfiability.

The search restarts from each indicator that has no earlier twin (see
below), or from the first sensor when there are none: a twin's restart
would repeat its twin's search, and as each restart is a complete search,
any subset of them decides the instance.  Each orders the elements
breadth-first from its start and runs a depth-first backtracking assignment,
resumed where its last slice stopped.  All of them share the solve's one
model: a paused restart keeps only its visit order and its path, the unit
of each placement, replayed with no search node when it resumes.  Round r
splits 2 * (n + 1) * 2**r search nodes (n elements) harmonically (Gomes,
Selman and Kautz 1998): the restart at position p, from 0, gets that count
// (p + 1), and starts only once its share reaches n + 1 nodes, a search
that never backtracks.  The first restart to find an assignment answers.
At every element the search tries one fresh unit first (if the unit budget
allows) and then every existing unit in creation order; partner connections
are never searched over because placing an element forces a unique set of
new connections.  A fully exhausted restart proves unsatisfiability for the
given unit budget, so the default budget |indicators| + |sensors| makes an
Unsatisfiable answer hold globally.

A second proof ends a restart early.  The visit order is breadth-first
per component and its components do not interleave, so no input edge joins
the elements before position i > 0 to those from i on exactly when order[i]
has no neighbour among them, that is, no placed neighbour.  When the search
backtracks out of the fresh unit of such a position, with at least
len(order) - i units still unused, the instance is unsatisfiable.  A
solution of the suffix alone would fit on fresh units beside the placed
prefix; renumbered in creation order, it puts order[i] on the fresh unit,
inside the subtree just searched, where twin pruning only skips mirror
images of subtrees already searched without a solution (see below).  So
the search stops instead of trying order[i] on the existing units.  This
cut can only fire on unsatisfiable instances, so satisfiable searches visit
the same nodes and emit the same bytes.

A third rule skips placements that are mirror images of failed ones
(symmetry breaking during search; Gent and Smith, ECAI 2000).  Two
elements are twins when they are on the same side and have the same
neighbours; swapping them maps every solution onto a solution.  Let j be
the position of the previous twin of position i in the visit order, w its
unit and b the unit count before j was placed.  If j created w (w == b),
position i is searched as usual.  Otherwise, by the time i is reached,
j has already been tried on a fresh unit and on every unit below w, with
no solution found, so i tries only the existing units w .. b - 1.  Swapped
with j, i on a unit below w puts j on that unit; i on a fresh unit or on a
unit created after j puts j, once the units are renumbered in creation
order, on a fresh unit of its own.  Either subtree was searched before
without a solution, so a skipped placement has none either.  Twins before
the position where a search starts do not count: their alternatives were
never searched.  Only subtrees without a solution are skipped, so each
entry point finds the same first solution as without the rule, and needs
no more nodes unless the component cut would have fired in a skipped
subtree.

The search is deterministic: all tie-breaking is by the stable element
index and every budget is counted in nodes, so repeated runs produce
byte-identical solution files on any machine at any load.  The wall clock
is only an outer stop: one deadline, max_time_ms after the solve starts,
checked at every node, after which the answer is Timeout.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum

from .core import Instance, SolutionGraph, SolveConfig, component_precheck, degree_precheck


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


def _component_order(nbr: tuple[tuple[int, ...], ...], start: int) -> tuple[int, ...]:
    # each later component starts from its lowest unseen index: its lowest
    # indicator, else sensor, since indicators come first in the stable index
    seen = [False] * len(nbr)
    out: list[int] = []
    for root in (start, *range(len(nbr))):
        if seen[root]:
            continue
        seen[root] = True
        out.append(root)
        level = [root]
        while level:
            level = sorted({nb for e in level for nb in nbr[e] if not seen[nb]})
            for nb in level:
                seen[nb] = True
            out.extend(level)
    return tuple(out)


def breadth_first_order(start: str, inst: Instance) -> ElementOrder:
    """Breadth-first element order from a start indicator."""
    first = inst.index.get(start, len(inst.indicators))
    if first >= len(inst.indicators):
        raise ValueError(f"start element {start!r} is not an indicator")
    seq = _component_order(inst.adjacency, first)
    return ElementOrder(start, tuple(inst.elements[k] for k in seq))


@dataclass
class SearchStats:
    """What one solve() call did; as_dict() is its one rendering.

    - rounds: restart rounds begun (each doubles the nodes split among the entries);
    - nodes, backtracks: search nodes visited and backtracks, all entries;
    - per_entry_ms: ms of each entry point started (its ordering, search and
      replayed placements, summed over rounds) by the id of its start element,
      in start order;
    - search_ms: ms of the whole solve less minimize_ms and freeze_ms, so
      prechecks, ordering and model set-up included;
    - minimize_ms, freeze_ms: ms of minimize and of to_solution_graph;
    - units_before_minimize, units_after_minimize: unit counts of a
      satisfiable answer, else None;
    - precheck: "degree", "capacity" or "component" when that precheck
      answered, else None;
    - budget_limited: the unit budget is below the element count;
    - refuted_from: the element where the component cut refuted the search,
      else None.
    """

    rounds: int = 0
    nodes: int = 0
    backtracks: int = 0
    per_entry_ms: dict[str, float] = field(default_factory=dict)
    search_ms: float = 0.0
    minimize_ms: float = 0.0
    freeze_ms: float = 0.0
    units_before_minimize: int | None = None
    units_after_minimize: int | None = None
    precheck: str | None = None
    budget_limited: bool = False
    refuted_from: str | None = None

    @property
    def entry_points_tried(self) -> int:
        return len(self.per_entry_ms)

    def as_dict(self) -> dict:
        """Every field by name, in field order, each ms rounded to 3 places."""
        rec = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in rec.items():
            if key == "per_entry_ms":
                rec[key] = {name: round(ms, 3) for name, ms in value.items()}
            elif key.endswith("_ms"):
                rec[key] = round(value, 3)
        return rec


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

    Elements and units are indices: element e is ``inst.elements[e]`` and
    units are numbered in creation order from 0.  Every search step is a
    _place_idx, recorded on the journal; _unplace_idx pops and verifies the
    matching entry, so a replayed journal restores the exact prior state.
    A placement on unit _n_units opens that unit, and undoing the placement
    that opened a unit closes it.  A mismatch is a program-logic fault and
    raises RuntimeError.  minimize merges units in place, off the journal,
    and then clears it: any later undo raises.

    Occupancy lives in one place: ``_hosted[u]`` holds the list of the
    indicators and the list of the sensors on unit u, in placement order.
    A unit is live exactly when it hosts an element; minimize empties the
    units it merges away.

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
        # 0 for an indicator, 1 for a sensor: the element's list in _hosted[u]
        self._side = [0] * len(inst.indicators) + [1] * len(inst.sensors)
        self._nbr = inst.adjacency
        # twin class: the first element on the same side with the same neighbours
        first: dict[tuple[int, tuple[int, ...]], int] = {}
        self._twin = [first.setdefault((self._side[e], nb), e) for e, nb in enumerate(self._nbr)]
        self._elem_unit = [-1] * n
        self._n_units = 0
        self._hosted: list[tuple[list[int], list[int]]] = []
        self._partners: list[set[int]] = []
        self._journal: list[tuple] = []

    # -- the journaled steps of the search --

    def _place_idx(self, e: int, u: int) -> bool:
        """Place e on u with the partner connections it forces; False, with
        nothing changed, when that would exceed ucap or iucap.  u may be
        _n_units, a fresh unit, which opens only if the placement succeeds."""
        if u == len(self._hosted):  # storage for a fresh unit, kept once made
            self._hosted.append(([], []))
            self._partners.append(set())
        hosted = self._hosted[u][self._side[e]]
        if len(hosted) >= self.ucap:
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
        opened = u == self._n_units
        if opened:
            self._n_units = u + 1
        self._elem_unit[e] = u
        hosted.append(e)
        for w in needed:
            partners_u.add(w)
            partners[w].add(u)
        self._journal.append((e, u, tuple(needed), opened))
        return True

    def _unplace_idx(self, e: int, u: int) -> None:
        entry = self._journal.pop() if self._journal else None
        if entry is None or entry[0] != e or entry[1] != u:
            raise RuntimeError(f"undo journal mismatch: expected placement of {e} on {u}, got {entry}")
        hosted = self._hosted[u][self._side[e]]
        if not hosted or hosted[-1] != e:
            raise RuntimeError(f"undo journal mismatch: {e} is not the newest of its side on unit {u}")
        hosted.pop()
        self._elem_unit[e] = -1
        for w in entry[2]:
            self._partners[u].discard(w)
            self._partners[w].discard(u)
        if entry[3]:  # this placement opened u: close it
            if u != self._n_units - 1 or any(self._hosted[u]) or self._partners[u]:
                raise RuntimeError(f"unit {u} cannot be closed: not the last empty unconnected unit")
            self._n_units = u

    # -- read-outs --

    @property
    def unit_count(self) -> int:
        return sum(1 for ind, sens in self._hosted[: self._n_units] if ind or sens)

    def to_solution_graph(self) -> SolutionGraph:
        """Freeze into an immutable SolutionGraph.

        Live units are renumbered u1..uK in creation order, so merges
        performed by minimize leave no gaps in the emitted ids.
        """
        live = [u for u, (ind, sens) in enumerate(self._hosted[: self._n_units]) if ind or sens]
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


# ===== search =====


def _prev_twins(twin: list[int], order: tuple[int, ...], start: int) -> list[int]:
    """prev[k] is the position of the last twin of order[k] in order[start:k], else -1."""
    prev = [-1] * len(order)
    last = [-1] * len(twin)  # per twin class: its last position so far
    for k in range(start, len(order)):
        c = twin[order[k]]
        prev[k] = last[c]
        last[c] = k
    return prev


def _unwind(m: PartialModel, order: tuple[int, ...], start: int, i: int) -> tuple[int, ...]:
    """Unplace order[start:i], newest first; returns the unit each was on, in order."""
    path = tuple(m._elem_unit[e] for e in order[start:i])
    for k in range(i - 1, start - 1, -1):
        m._unplace_idx(order[k], path[k - start])
    return path


def _search(
    m: PartialModel,
    order: tuple[int, ...],
    i: int,
    deadline: float,
    node_limit: int,
    stats: SearchStats,
    path: tuple[int, ...] = (),
) -> tuple[Ternary, tuple[int, ...]]:
    """Depth-first search of order[i:] within m.max_units units as one loop;
    m's journal is its stack.  order is a _component_order, with order[:i]
    placed on m and no other element: the component cut reads the placed
    neighbours (see the module docstring).

    Returns the answer and a path: TRUE with order[i:] placed on m; FALSE;
    or TIMEOUT, at a pause or once the deadline passed.  At every answer but
    TRUE, m is as the search found it: it unwinds its placements and returns
    their units, in order, as the path (() when there were none).

    A pause returns TIMEOUT at the node that takes stats.nodes past
    node_limit.  Called again with the path it returned, the search replays
    it, counting no node: its slices make one search.

    Backtracking to a position unplaces its element and resumes at the next
    existing unit or, when that placement opened the unit, at existing unit
    0: undoing the placement that opened a unit closes it.  A twin tries only
    the units its previous twin has not yet failed on (see the module docstring).
    """
    start = i
    prev = _prev_twins(m._twin, order, start)
    # per placed position: the unit count before it was placed; the position
    # opened its unit exactly when that unit's index equals this count
    before = [0] * len(order)
    unit_of = m._elem_unit
    max_units = m.max_units
    for u in path:  # each position entered as the loop below enters it
        before[i] = m._n_units
        if not m._place_idx(order[i], u):
            raise RuntimeError(f"replay mismatch: {order[i]} no longer fits on unit {u}")
        i += 1
    stats.nodes -= bool(path)  # the node it paused at was counted before the pause
    while True:
        stats.nodes += 1
        if i >= len(order):
            return Ternary.TRUE, ()
        if stats.nodes > node_limit or time.monotonic() > deadline:
            return Ternary.TIMEOUT, _unwind(m, order, start, i)
        before[i] = m._n_units
        j = prev[i]
        if j < 0 or unit_of[order[j]] == before[j]:
            # one fresh unit first: fresh units are interchangeable, so a
            # single representative preserves completeness
            if m._n_units < max_units and m._place_idx(order[i], m._n_units):
                i += 1
                continue
            u = 0
        else:
            u = unit_of[order[j]]  # the twin rule: from the twin's unit
        # then the existing units in creation order, backtracking when none fits
        while True:
            e, j = order[i], prev[i]
            # the twin rule: no unit created after a twin that went on an existing unit
            hi = before[j] if j >= 0 and unit_of[order[j]] != before[j] else before[i]
            while u < hi and not m._place_idx(e, u):
                u += 1
            if u < hi:
                break
            stats.backtracks += 1
            if i == start:
                return Ternary.FALSE, ()
            i -= 1
            u = unit_of[order[i]]
            m._unplace_idx(order[i], u)
            if u == before[i]:
                # it opened u, now closed, and its fresh-unit subtree is
                # exhausted: the component cut (see the module docstring)
                if (max_units - m._n_units >= len(order) - i and i
                        and all(unit_of[nb] < 0 for nb in m._nbr[order[i]])):
                    stats.refuted_from = m.inst.elements[order[i]]
                    return Ternary.FALSE, _unwind(m, order, start, i)
                # it opened u, so its twin rule did not apply: next is unit 0
                u = 0
            else:
                u += 1
        i += 1


def assign(
    order: ElementOrder,
    idx: int,
    m: PartialModel,
    deadline: float,
    max_units: int,
    stats: SearchStats | None = None,
) -> Ternary:
    """Search step: place order.sequence[idx:] onto units of m, on which
    order.sequence[:idx] is placed and no other element.

    order.sequence must be the order that breadth_first_order gives from its
    first element (the stable index order from element 0 for a sensor-only
    instance); the component cut reads it, so any other raises ValueError.

    TRUE means m now extends to a full consistent assignment; FALSE means no
    completion exists within max_units units; TIMEOUT means the deadline
    passed.  At FALSE and TIMEOUT m is as it was found.  ``deadline`` is an
    absolute time.monotonic() timestamp, checked at every search node, so
    timeout granularity is one node.

    FALSE also comes from the component cut (see the module docstring):
    once the first element of a suffix that no edge joins to the placed
    prefix, with enough unused units for all of it, has been searched on a
    fresh unit without a solution, the suffix has no placement.  The search
    then stops early and stats.refuted_from names that first element.
    """
    stats = stats if stats is not None else SearchStats()
    seq = tuple(m.inst.index[e] for e in order.sequence)
    if seq and seq != _component_order(m._nbr, seq[0]):
        raise ValueError("order is not breadth-first from its first element")
    m.max_units = max_units
    return _search(m, seq, idx, deadline, sys.maxsize, stats)[0]


# ===== unit minimization =====


def minimize(m: PartialModel) -> PartialModel:
    """Greedy pairwise unit merging, in place.

    For each ordered pair (A, B) of live units in creation order, B is merged
    into A when the combined indicator count, combined sensor count, and the
    union of partner sets minus the pair itself all stay within capacity.
    Never increases the unit count and preserves solution consistency.  The
    merges are not journaled, so it clears m's journal: any later undo raises.

    The pairs are looked up, not scanned, with the same merges as a scan.
    The model only changes at a merge, so for each A it is enough to find
    the lowest-index live B after the one last merged into it (from the
    first unit for a new A, so B may precede A).  Empty units take no part,
    and each merge adds an element to A, so A needs at most 2 * ucap lookups;
    once A is full on both sides no live unit fits and its lookups end.
    A unit B passes the partner test in one of two ways:

    - B is within two partner hops of A (a partner of A, or sharing a
      partner with it).  There are at most iucap**2 such units; each is
      tested directly, by counting: |P[A] | P[B] - {A, B}| is
      |P[A]| + |P[B]| - |P[A] & P[B]|, less 2 when A and B are partners.
    - |P[A]| + |P[B]| <= iucap.  This suffices for any B, and it is exact
      for every other B, whose partner set is disjoint from A's and does
      not hold A.  Live units are kept in buckets keyed by (indicator
      count, sensor count, partner count), each a sorted index list
      searched with bisect, so only buckets that fit beside A are read.
      A merge re-keys A and the shared partners whose count dropped;
      stale entries are dropped when a lookup meets them.
    """
    ucap, iucap = m.ucap, m.iucap
    hosted, partners, unit_of = m._hosted, m._partners, m._elem_unit
    n = m._n_units
    # key_of[u] is live unit u's current key, None for an empty unit; a
    # bucket entry u is stale once key_of[u] differs from the bucket's key
    key_of: list[tuple[int, int, int] | None] = [None] * n
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for u, (ind, sens) in enumerate(hosted[:n]):  # in index order, so each bucket starts sorted
        if ind or sens:
            key_of[u] = key = (len(ind), len(sens), len(partners[u]))
            buckets.setdefault(key, []).append(u)
    for a in range(n):
        if key_of[a] is None:
            continue
        pa = partners[a]
        b = -1
        while True:
            # b becomes the lowest live unit after the last one merged into
            # a that passes all three tests, or n when there is none
            start, b = b, n
            room_i, room_s = ucap - key_of[a][0], ucap - key_of[a][1]
            if not room_i and not room_s:
                break
            room_p = iucap - len(pa)
            # units within two partner hops of a, tested directly: each
            # partner w of a and each partner of w, whose entry for a stands for w
            for w in pa:
                for c in partners[w]:
                    if c == a:
                        c = w
                    if start < c < b and key_of[c][0] <= room_i and key_of[c][1] <= room_s:
                        pc = partners[c]
                        if len(pa) + len(pc) - len(pa & pc) - 2 * (c in pa) <= iucap:
                            b = c
            # any b whose key fits beside a passes; read only if a unit besides a lies in (start, b)
            if b - start - 1 > (start < a < b):
                for key, bucket in buckets.items():
                    if key[0] > room_i or key[1] > room_s or key[2] > room_p:
                        continue
                    i = bisect_right(bucket, start)
                    while i < len(bucket):
                        u = bucket[i]
                        if key_of[u] != key:
                            del bucket[i]
                        elif u == a:
                            i += 1
                        else:
                            if u < b:
                                b = u
                            break
            if b == n:
                break
            pb = partners[b]
            shared = pa & pb
            for mine, theirs in zip(hosted[a], hosted[b]):
                for e in theirs:
                    unit_of[e] = a
                mine.extend(theirs)
                theirs.clear()
            for w in pb - {a}:  # b's partners now partner a
                partners[w].discard(b)
                partners[w].add(a)
            pa |= pb
            pa.difference_update((a, b))
            pb.clear()
            key_of[b] = None
            for u in (a, *shared):
                key_of[u] = key = (len(hosted[u][0]), len(hosted[u][1]), len(partners[u]))
                bucket = buckets.setdefault(key, [])
                i = bisect_left(bucket, u)
                if i == len(bucket) or bucket[i] != u:
                    bucket.insert(i, u)
    m._journal.clear()
    return m


# ===== top-level solve =====


def _finish_sat(cfg: SolveConfig, m: PartialModel, stats: SearchStats) -> SolveOutcome:
    stats.units_before_minimize = m.unit_count
    if cfg.minimize:
        t0 = time.monotonic()
        minimize(m)
        stats.minimize_ms = (time.monotonic() - t0) * 1000.0
    stats.units_after_minimize = m.unit_count
    t0 = time.monotonic()
    graph = m.to_solution_graph()
    stats.freeze_ms = (time.monotonic() - t0) * 1000.0
    return SolveOutcome(Outcome.SATISFIABLE, graph, stats)


def solve(inst: Instance, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Decide the instance within cfg.max_units units and cfg.max_time_ms.

    Satisfiable comes with a verified-shape solution graph (minimized unless
    cfg.minimize is off).  Unsatisfiable with stats.precheck set is a
    precheck's proof, with no search node: "degree" and "component" (a
    connected component too large for one unit or two partnered units, at
    iucap <= 1) hold for any unit budget, "capacity" for the given one.
    Unsatisfiable from a search means one entry point
    either exhausted its whole tree at the given unit budget, or found a
    suffix of its visit order that no edge joins to the prefix, that had
    enough unused units for every element in it, and whose first element
    had no solution on a fresh unit (stats.refuted_from names that
    element).  With the default budget either is a global proof.  Timeout
    means the deadline, cfg.max_time_ms after the call, passed before any
    entry point decided.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    n = len(inst.elements)
    max_units = cfg.max_units if cfg.max_units is not None else max(n, 1)
    stats = SearchStats()
    stats.budget_limited = max_units < n

    t_start = time.monotonic()
    if n == 0:
        result = _finish_sat(cfg, PartialModel(inst, max_units), stats)
    elif (reason := _precheck(inst, max_units)) is not None:
        stats.precheck = reason
        result = SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
    else:
        result = _solve_rounds(inst, cfg, max_units, stats, t_start + cfg.max_time_ms / 1000.0)
    stats.search_ms = (time.monotonic() - t_start) * 1000.0 - stats.minimize_ms - stats.freeze_ms
    return result


def _precheck(inst: Instance, max_units: int) -> str | None:
    """The first precheck that refutes the instance, else None."""
    if degree_precheck(inst):
        return "degree"
    if len(inst.indicators) > max_units * inst.ucap or len(inst.sensors) > max_units * inst.ucap:
        return "capacity"
    if component_precheck(inst):
        return "component"
    return None


def _solve_rounds(
    inst: Instance, cfg: SolveConfig, max_units: int, stats: SearchStats, deadline: float
) -> SolveOutcome:
    n = len(inst.elements)
    m = PartialModel(inst, max_units)
    # without indicators the one entry is the first sensor, element 0; an
    # indicator with an earlier twin would repeat that twin's search
    entries = [k for k in range(len(inst.indicators) or 1) if m._twin[k] == k]
    # each begun entry's visit order and path (the unit of each placement at
    # its last pause, as _search returned it); every entry runs on m, which
    # _search leaves empty at every answer but TRUE
    started: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    budget = 2 * (n + 1)
    while True:
        stats.rounds += 1
        for p, k in enumerate(entries):
            share = budget // (p + 1)
            t0 = time.monotonic()
            if p == len(started):
                if share <= n:  # the shares of the later entries are smaller still
                    break
                started.append((_component_order(m._nbr, k), ()))
            order, path = started[p]
            r, path = _search(m, order, 0, deadline, stats.nodes + share, stats, path)
            now = time.monotonic()
            start = inst.elements[k]
            stats.per_entry_ms[start] = stats.per_entry_ms.get(start, 0.0) + (now - t0) * 1000.0
            if r is Ternary.TRUE:
                return _finish_sat(cfg, m, stats)
            if r is Ternary.FALSE:
                return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
            if now > deadline:  # nothing resumes a search stopped by the deadline
                return SolveOutcome(Outcome.TIMEOUT, None, stats)
            started[p] = (order, path)  # r is TIMEOUT at a pause
        budget *= 2
