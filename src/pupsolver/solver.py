"""Heuristic backtracking solver for the Partner Units Problem.

The search restarts from each indicator in turn (from the sensors alone
when there are none): each restart orders the elements breadth-first from
its start and runs a depth-first backtracking assignment from an empty
model.  Restarts run in rounds: in round r every entry point, in indicator
order, gets 2 * (n + 1) * 2**r search nodes, n being the element count, so
a restart that never backtracks (n + 1 nodes) finishes in round 0.  The first entry
point to find an assignment answers.  At every element the search tries
one fresh unit first (if the unit budget allows) and then every existing
unit in creation order; partner connections are never searched over
because placing an element forces a unique set of new connections.  A
fully exhausted restart proves unsatisfiability for the given unit budget,
so the default budget |indicators| + |sensors| makes an Unsatisfiable
answer hold globally.

A second proof ends a restart early.  When the search backtracks out of
the fresh unit of position i of the visit order, no input edge joins the
elements before i to those from i on, and at least len(order) - i units
are still unused, the instance is unsatisfiable.  A solution of the suffix
alone would fit on fresh units beside the placed prefix; renumbered in
creation order, it puts order[i] on the fresh unit, inside the subtree just
searched, where twin pruning only skips mirror images of subtrees already
searched without a solution (see below).  So the search stops instead of
trying order[i] on the existing units.  This cut can only fire on
unsatisfiable instances, so satisfiable searches visit the same nodes and
emit the same bytes.

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


def _component_order(nbr: tuple[tuple[int, ...], ...], start: int | None) -> tuple[int, ...]:
    # each later component starts from its lowest unseen index: its lowest
    # indicator, else sensor, since indicators come first in the stable index
    seen = [False] * len(nbr)
    out: list[int] = []
    roots = range(len(nbr)) if start is None else (start, *range(len(nbr)))
    for root in roots:
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
    if start not in inst.indicator_set:
        raise ValueError(f"start element {start!r} is not an indicator")
    seq = _component_order(inst.adjacency, inst.index[start])
    return ElementOrder(start, tuple(inst.elements[k] for k in seq))


@dataclass
class SearchStats:
    """Counters and timings for one solve() call."""

    rounds: int = 0
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

    @property
    def entry_points_tried(self) -> int:
        return len(self.per_entry_ms)

    def as_text(self) -> str:
        lines = [
            f"entry_points_tried {self.entry_points_tried}",
            f"rounds {self.rounds}",
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
        self._nbr = inst.adjacency
        # twin class: the first element on the same side with the same neighbours
        first: dict[tuple[bool, tuple[int, ...]], int] = {}
        self._twin = [first.setdefault((self._is_ind[e], nb), e) for e, nb in enumerate(self._nbr)]
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


# ===== search =====


def _cut_positions(nbr: tuple[tuple[int, ...], ...], order: tuple[int, ...]) -> list[bool]:
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


def _prev_twins(twin: list[int], order: tuple[int, ...], start: int) -> list[int]:
    """prev[k] is the position of the last twin of order[k] in order[start:k], else -1."""
    prev = [-1] * len(order)
    last = [-1] * len(twin)  # per twin class: its last position so far
    for k in range(start, len(order)):
        c = twin[order[k]]
        prev[k] = last[c]
        last[c] = k
    return prev


def _assign(
    m: PartialModel,
    order: tuple[int, ...],
    i: int,
    deadline: float,
    node_limit: int,
    max_units: int,
    stats: SearchStats,
) -> Ternary:
    """Depth-first search of order[i:] as one loop; m's journal is its stack.

    Backtracking to a position unplaces its element and resumes at the next
    existing unit or, when the unit was created for it, drops the unit and
    resumes at existing unit 0.  A twin tries only the units its previous
    twin has not yet failed on (see the module docstring).
    """
    start = i
    prev = _prev_twins(m._twin, order, start)
    # per placed position: the unit count before it was placed; the position
    # created its unit exactly when that unit's index equals this count
    before = [0] * len(order)
    unit_of = m._elem_unit
    cuts: list[bool] = []  # filled on first use: a search that never needs it pays nothing
    while True:
        stats.nodes += 1
        if i >= len(order):
            return Ternary.TRUE
        if stats.nodes > node_limit or time.monotonic() > deadline:
            return Ternary.TIMEOUT
        before[i] = m._n_units
        j = prev[i]
        if j < 0 or unit_of[order[j]] == before[j]:
            # one fresh unit first: fresh units are interchangeable, so a
            # single representative preserves completeness
            if m._n_units < max_units:
                u = m._new_unit_idx()
                if m._place_idx(order[i], u):
                    i += 1
                    continue
                m._drop_unit_idx(u)
            u = 0
        else:
            u = unit_of[order[j]]  # the twin rule's lowest unit
        # then the existing units in creation order, backtracking when none fits
        while True:
            e = order[i]
            hi = m._n_units
            j = prev[i]
            if j >= 0 and unit_of[order[j]] != before[j]:
                hi = before[j]  # the twin rule: no unit created after the twin
            while u < hi and not m._place_idx(e, u):
                u += 1
            if u < hi:
                break
            stats.backtracks += 1
            if i == start:
                return Ternary.FALSE
            i -= 1
            u = unit_of[order[i]]
            m._unplace_idx(order[i], u)
            if u == before[i]:
                m._drop_unit_idx(u)
                # its fresh-unit subtree is exhausted: the component cut
                # (see the module docstring)
                if max_units - m._n_units >= len(order) - i:
                    cuts = cuts or _cut_positions(m._nbr, order)
                    if cuts[i]:
                        stats.refuted_from = m.inst.elements[order[i]]
                        return Ternary.FALSE
                # it created u, so its twin rule did not apply: next is unit 0
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
    """Search step: place order.sequence[idx:] onto units of m.

    TRUE means m now extends to a full consistent assignment; FALSE means no
    completion exists within max_units units (and m is restored); TIMEOUT
    means the deadline passed, leaving m journal-restorable but otherwise
    unspecified.  ``deadline`` is an absolute time.monotonic() timestamp,
    checked at every search node, so timeout granularity is one node.

    FALSE also comes from the component cut (see the module docstring):
    once the first element of a suffix that no edge joins to the placed
    prefix, with enough unused units for all of it, has been searched on a
    fresh unit without a solution, the suffix has no placement.  The search
    then stops early, m is unwound through its journal, and
    stats.refuted_from names that first element.
    """
    stats = stats if stats is not None else SearchStats()
    seq = tuple(m.inst.index[e] for e in order.sequence)
    mark = len(m._journal)
    r = _assign(m, seq, idx, deadline, sys.maxsize, max_units, stats)
    if r is Ternary.FALSE:
        m._undo_to(mark)
    return r


# ===== unit minimization =====


def minimize(m: PartialModel) -> PartialModel:
    """Greedy pairwise unit merging, in place.

    For each ordered pair (A, B) of live units in creation order, B is merged
    into A when the combined indicator count, combined sensor count, and the
    union of partner sets minus the pair itself all stay within capacity.
    Never increases the unit count and preserves solution consistency.

    The pairs are looked up, not scanned, with the same merges as a scan.
    The model only changes at a merge, so for each A it is enough to find
    the lowest-index live B after the one last merged into it (from the
    first unit for a new A, so B may precede A).  Each merge of a non-empty
    unit adds an element to A, so A needs at most about 2 * ucap lookups.
    A unit B passes the partner test in one of two ways:

    - B is within two partner hops of A (a partner of A, or sharing a
      partner with it).  There are at most iucap**2 such units; each is
      tested directly.
    - |P[A]| + |P[B]| <= iucap.  This suffices for any B, and it is exact
      for every other B, whose partner set is disjoint from A's and does
      not hold A.  Live units are kept in buckets keyed by (indicator
      count, sensor count, partner count), each a sorted index list
      searched with bisect, so only buckets that fit beside A are read.
      A merge re-keys A and the shared partners whose count dropped;
      stale entries are dropped when a lookup meets them.
    """
    ucap, iucap = m.ucap, m.iucap
    ind, sens, partners, dead = m._ind_count, m._sens_count, m._partners, m._dead
    n = m._n_units
    # a bucket entry u is stale once key_of[u] differs from the bucket's key
    key_of: list[tuple[int, int, int] | None] = [None] * n
    buckets: dict[tuple[int, int, int], list[int]] = {}
    for u in range(n):  # in index order, so each bucket starts sorted
        if not dead[u]:
            key_of[u] = key = (ind[u], sens[u], len(partners[u]))
            buckets.setdefault(key, []).append(u)
    for a in range(n):
        if dead[a]:
            continue
        b = -1
        while True:
            # b becomes the lowest live unit after the last one merged into
            # a that passes all three tests, or n when there is none
            start, b = b, n
            room_i, room_s = ucap - ind[a], ucap - sens[a]
            pa = partners[a]
            room_p = iucap - len(pa)
            # any b whose key fits beside a passes: |P[a]| + |P[b]| <= iucap
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
            # units within two partner hops of a, tested directly
            for w in pa:
                for c in (w, *partners[w]):
                    if (start < c < b and c != a and ind[c] <= room_i and sens[c] <= room_s
                            and len((pa | partners[c]) - {a, c}) <= iucap):
                        b = c
            if b == n:
                break
            shared = pa & partners[b]
            _merge_units(m, a, b, (pa | partners[b]) - {a, b})
            key_of[b] = None
            for u in (a, *shared):
                key_of[u] = key = (ind[u], sens[u], len(partners[u]))
                bucket = buckets.setdefault(key, [])
                i = bisect_left(bucket, u)
                if i == len(bucket) or bucket[i] != u:
                    bucket.insert(i, u)
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
    cfg.minimize is off).  Unsatisfiable from a search means one entry point
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
        return _empty_outcome(inst, stats)
    if degree_precheck(inst):
        stats.precheck = "degree"
        return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
    if len(inst.indicators) > max_units * inst.ucap or len(inst.sensors) > max_units * inst.ucap:
        stats.precheck = "capacity"
        return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)

    result = _solve_rounds(inst, cfg, max_units, stats, t_start + cfg.max_time_ms / 1000.0)
    stats.search_ms = (time.monotonic() - t_start) * 1000.0 - stats.minimize_ms - stats.freeze_ms
    return result


def _solve_rounds(
    inst: Instance, cfg: SolveConfig, max_units: int, stats: SearchStats, deadline: float
) -> SolveOutcome:
    entries: tuple[str | None, ...] = inst.indicators if inst.indicators else (None,)
    m = PartialModel(inst, max_units)
    budget = 2 * (len(inst.elements) + 1)
    while True:
        stats.rounds += 1
        for k, start in enumerate(entries):
            if k == len(stats.per_entry_ms):
                stats.per_entry_ms.append((start or "", 0.0))
            # rebuilt each round rather than kept: one order per indicator
            # would hold n * |indicators| ints at once (indicator k is index k)
            t0 = time.monotonic()
            order = _component_order(m._nbr, None if start is None else k)
            r = _assign(m, order, 0, deadline, stats.nodes + budget, max_units, stats)
            now = time.monotonic()
            name, ms = stats.per_entry_ms[k]
            stats.per_entry_ms[k] = (name, ms + (now - t0) * 1000.0)
            if r is Ternary.TRUE:
                return _finish_sat(inst, cfg, m, stats)
            if r is Ternary.FALSE:  # the model is left as it is: it is not used again
                return SolveOutcome(Outcome.UNSATISFIABLE, None, stats)
            if now > deadline:
                return SolveOutcome(Outcome.TIMEOUT, None, stats)
            m._undo_to(0)  # out of nodes: the next entry starts from empty
        budget *= 2
