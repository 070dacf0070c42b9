"""Core domain model and text formats for the Partner Units Problem (PUP).

A PUP instance is a bipartite graph between indicators and sensors plus two
capacity parameters: ``ucap`` bounds how many indicators (and, separately, how
many sensors) a single unit may host, and ``iucap`` bounds how many partner
units a unit may be connected to.  A solution assigns every element to a unit
and connects units so that the endpoints of every input edge can communicate:
they share a unit, or they sit on units that are partners.

Instance file grammar (UTF-8, line based, ``#`` starts a comment, blank lines
are ignored)::

    ucap <int>                     exactly once, >= 1
    iucap <int>                    exactly once, >= 0
    indicator <id>
    sensor <id>
    edge <indicator-id> <sensor-id>

Ids are whitespace-free tokens without ``#`` and must be declared before use.
Declaration order assigns every element a stable integer index (indicators
first, then sensors); that index is the tie-break used for all deterministic
ordering downstream (breadth-first frontiers, entry points, unit creation).
``parse_instance`` checks the grammar (directives, arities and integer
values) and that ids are declared before use; ``Instance`` checks the ids and
edges once, in the pass that builds the index and the adjacency by index that
the search reads, and the parser reports its errors at their lines.

Solution file grammar::

    unit <id>
    assign <element-id> <unit-id>
    partner <unit-id> <unit-id>    each partnership listed once

The emitters write one read-out of a graph, ``SolutionGraph.occupied()``:
the units that host an element, in declaration order, each with its sorted
``assign`` lines, then each partnership between two of them once.  Empty
units and pairs that touch them are not written; a ``unit`` line without
matching ``assign`` lines is how an explicitly empty unit would appear on disk.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping


class ParseError(ValueError):
    """Malformed instance or solution text. Carries the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        if lineno is None:
            super().__init__(message)
        else:
            super().__init__(f"line {lineno}: {message}")


def content_lines(text: str):
    """Yield (line number, whitespace-split tokens) of each line of text that
    holds anything besides a ``#`` comment: the reader of every line-based format."""
    # one test of the whole text for "#" spares the comment cut on every line of most texts
    lines = [raw.split("#", 1)[0] for raw in text.splitlines()] if "#" in text else text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if parts := raw.split():
            yield lineno, parts


@dataclass(frozen=True)
class Instance:
    """Immutable PUP input graph, checked once, on construction: ids are unique
    tokens, and ``edges`` are (indicator, sensor) pairs of declared ids, none
    repeated.  A failed check raises the ValueError that parse_instance reports."""

    indicators: tuple[str, ...]
    sensors: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    ucap: int
    iucap: int
    # views the checks in __post_init__ build and keep; not part of ==, hash or repr.
    # elements: all ids in stable-index order; index: each id's stable index;
    # adjacency: the neighbours of each element by stable index, ascending
    elements: tuple[str, ...] = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))  # tuple edges stay as they are
        self._check_caps()
        elements, edges = self.indicators + self.sensors, self.edges
        n, n_ind = len(elements), len(self.indicators)
        index = dict(zip(elements, range(n)))
        # the joined ids split back into the ids only if none is empty or holds whitespace
        joined = " ".join(elements)
        distinct = len(index) == n and len(frozenset(edges)) == len(edges)
        if "#" in joined or joined.split() != list(elements) or not distinct:
            raise ValueError(_first_fault(elements, n_ind, edges)[0])
        adj: list[list[int]] = [[] for _ in elements]
        get = index.get
        for a, b in edges:
            # an undeclared indicator reads as n and an undeclared sensor as -1
            i, j = get(a, n), get(b, -1)
            if not i < n_ind <= j:
                raise ValueError(_first_fault(elements, n_ind, edges)[0])
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        for nbrs in adj:
            nbrs.sort()
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))

    def _check_caps(self) -> None:
        if self.ucap < 1:
            raise ValueError("ucap must be >= 1")
        if self.iucap < 0:
            raise ValueError("iucap must be >= 0")

    def with_caps(self, ucap: int, iucap: int) -> Instance:
        """The same graph at other caps: only the caps are checked, and the
        checked views are shared, not built again."""
        inst = copy.copy(self)
        object.__setattr__(inst, "ucap", ucap)
        object.__setattr__(inst, "iucap", iucap)
        inst._check_caps()
        return inst


def _first_fault(elements: tuple[str, ...], n_ind: int, edges: tuple) -> tuple[str, tuple[int, ...]]:
    """The first failed check of an Instance, ids then edges in order, and its
    positions: element k is k, edge k is len(elements) + k."""
    first: dict[str, int] = {}
    for k, tok in enumerate(elements):
        if "#" in tok or tok.split() != [tok]:
            return f"{'indicator' if k < n_ind else 'sensor'} id {tok!r} is not a valid token", (k,)
        if tok in first:
            return f"duplicate declaration of {tok!r}", (first[tok], k)
        first[tok] = k
    seen: set[tuple[str, str]] = set()
    for k, (a, b) in enumerate(edges, start=len(elements)):
        for tok in (a, b):
            if tok not in first:
                return f"edge references undeclared id {tok!r}", (k,)
        if first[a] >= n_ind:
            return f"{a!r} is a sensor, edges run indicator to sensor", (k,)
        if first[b] < n_ind:
            return f"{b!r} is an indicator, edges run indicator to sensor", (k,)
        if (a, b) in seen:
            return f"duplicate edge {a} {b}", (k,)
        seen.add((a, b))
    raise AssertionError("no failed check")


@dataclass(frozen=True)
class SolutionGraph:
    """Immutable solution: unit list, element assignment, partner relation.

    ``partners`` is a set of ordered unit pairs; a well-formed graph contains
    both orientations of every partnership (the parser and the solver always
    produce the symmetric closure, the emitter writes each partnership once).
    ``indicators``/``sensors`` carry the element sides when known; graphs
    parsed from bare solution files have empty side tuples.
    """

    units: tuple[str, ...]
    assignment: Mapping[str, str]
    partners: frozenset[tuple[str, str]]
    indicators: tuple[str, ...] = ()
    sensors: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "assignment", dict(self.assignment))
        object.__setattr__(self, "partners", frozenset(tuple(p) for p in self.partners))
        object.__setattr__(self, "indicators", tuple(self.indicators))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate unit id")
        for a, b in self.partners:
            if a == b:
                raise ValueError(f"unit {a!r} cannot partner itself")

    def occupied(self) -> tuple[dict[str, list[str]], list[tuple[str, str]]]:
        """What the emitters write: the declared units that host an element,
        in declaration order, each with its element ids sorted, and each
        partnership between two of them once, sorted by declaration rank."""
        hosted: dict[str, list[str]] = {u: [] for u in self.units}
        for e, u in self.assignment.items():
            if u in hosted:
                hosted[u].append(e)
        units = {u: sorted(es) for u, es in hosted.items() if es}
        names = list(units)
        rank = dict(zip(names, range(len(names))))
        pairs: set[tuple[int, int]] = set()
        for a, b in self.partners:
            if a in rank and b in rank:
                x, y = rank[a], rank[b]
                pairs.add((x, y) if x < y else (y, x))
        return units, [(names[x], names[y]) for x, y in sorted(pairs)]

    def connected(self, u: str, v: str) -> bool:
        """True when u and v are the same unit or partners (either direction)."""
        return u == v or (u, v) in self.partners or (v, u) in self.partners


@dataclass(frozen=True)
class BinPackingInstance:
    """Items to pack into at most ``bins`` bins of size ``bin_size``."""

    items: tuple[int, ...]
    bin_size: int
    bins: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(n) for n in self.items))
        if any(n < 1 for n in self.items):
            raise ValueError("all item sizes must be >= 1")
        if self.bin_size < 1:
            raise ValueError("bin size must be >= 1")
        if self.bins < 1:
            raise ValueError("bin count must be >= 1")


@dataclass
class SolveConfig:
    """Knobs for the solver.

    ``max_units`` of None means the safe default |indicators| + |sensors|,
    which makes an Unsatisfiable answer hold for any number of units.
    ``max_time_ms`` is the only wall-clock input: an outer stop after which
    the answer is Timeout.  Restarts are scheduled by node budgets, and all
    tie-breaking is by stable index, so an answer found before that stop is
    the same bytes on any machine; there is no randomness to seed.
    """

    max_time_ms: int = 600_000
    max_units: int | None = None
    minimize: bool = True

    def __post_init__(self):
        if self.max_time_ms < 1:
            raise ValueError("max_time_ms must be >= 1")
        if self.max_units is not None and self.max_units < 1:
            raise ValueError("max_units must be >= 1 when given")


# ===== instance text format =====


def parse_instance(text: str) -> Instance:
    """Parse instance text; raises ParseError with a line number on bad input.

    Of several faults, the first grammar fault is reported, else the first
    that ``Instance`` finds (a duplicate id at its later declaration), else the
    first edge that names an id declared below it.
    """
    caps: dict[str, int] = {}
    # the ids of each side and the edges, each with its line, for the faults Instance finds
    found: dict[str, tuple[list, list[int]]] = {kw: ([], []) for kw in ("indicator", "sensor", "edge")}
    edges, edge_lines = found["edge"]

    for lineno, parts in content_lines(text):
        kw = parts[0]
        if kw == "edge":
            if len(parts) != 3:
                raise ParseError(lineno, "edge takes an indicator id and a sensor id")
            edges.append((parts[1], parts[2]))
            edge_lines.append(lineno)
        elif kw == "indicator" or kw == "sensor":
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one id")
            ids, at = found[kw]
            ids.append(parts[1])
            at.append(lineno)
        elif kw == "ucap" or kw == "iucap":
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one integer")
            try:
                val = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"{kw} value {parts[1]!r} is not an integer") from None
            if kw in caps:
                raise ParseError(lineno, f"duplicate {kw} directive")
            if val < (low := 1 if kw == "ucap" else 0):
                raise ParseError(lineno, f"{kw} must be >= {low}")
            caps[kw] = val
        else:
            raise ParseError(lineno, f"unknown directive {kw!r}")

    for kw in ("ucap", "iucap"):
        if kw not in caps:
            raise ParseError(None, f"missing {kw} directive")
    (indicators, ind_lines), (sensors, sen_lines) = found["indicator"], found["sensor"]
    lines = ind_lines + sen_lines
    try:
        inst = Instance(indicators, sensors, edges, caps["ucap"], caps["iucap"])
    except ValueError:
        message, at = _first_fault(tuple(indicators + sensors), len(indicators), edges)
        raise ParseError(max((lines + edge_lines)[k] for k in at), message) from None
    # ids are declared before use: only a declaration below an edge can break that
    if edge_lines and max(lines) > edge_lines[0]:
        for (a, b), lineno in zip(inst.edges, edge_lines):
            for tok in (a, b):
                if lines[inst.index[tok]] > lineno:
                    raise ParseError(lineno, f"edge references undeclared id {tok!r}")
    return inst


def emit_instance(inst: Instance) -> str:
    """Render an instance in the file grammar; parse_instance inverts this."""
    lines = [f"ucap {inst.ucap}", f"iucap {inst.iucap}"]
    lines.extend(f"indicator {i}" for i in inst.indicators)
    lines.extend(f"sensor {s}" for s in inst.sensors)
    lines.extend(f"edge {a} {b}" for a, b in inst.edges)
    return "\n".join(lines) + "\n"


# ===== solution text format =====


def emit_solution(g: SolutionGraph) -> str:
    """Render g.occupied() deterministically: each unit as a ``unit`` line
    followed by its ``assign`` lines, then one ``partner`` line per pair."""
    lines: list[str] = []
    units, pairs = g.occupied()
    for u, es in units.items():
        lines.append(f"unit {u}")
        lines.extend(f"assign {e} {u}" for e in es)
    lines.extend(f"partner {a} {b}" for a, b in pairs)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_solution(text: str) -> SolutionGraph:
    """Parse solution text into a SolutionGraph with unknown element sides."""
    units: list[str] = []
    known: set[str] = set()
    assignment: dict[str, str] = {}
    partners: set[tuple[str, str]] = set()

    for lineno, parts in content_lines(text):
        kw = parts[0]
        if kw == "unit":
            if len(parts) != 2:
                raise ParseError(lineno, "unit takes exactly one id")
            u = parts[1]
            if u in known:
                raise ParseError(lineno, f"duplicate declaration of unit {u!r}")
            known.add(u)
            units.append(u)
        elif kw == "assign":
            if len(parts) != 3:
                raise ParseError(lineno, "assign takes an element id and a unit id")
            e, u = parts[1], parts[2]
            if u not in known:
                raise ParseError(lineno, f"assign references undeclared unit {u!r}")
            if e in assignment:
                raise ParseError(lineno, f"element {e!r} assigned twice")
            assignment[e] = u
        elif kw == "partner":
            if len(parts) != 3:
                raise ParseError(lineno, "partner takes two unit ids")
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(lineno, f"unit {a!r} cannot partner itself")
            for tok in (a, b):
                if tok not in known:
                    raise ParseError(lineno, f"partner references undeclared unit {tok!r}")
            if (a, b) in partners:
                raise ParseError(lineno, f"duplicate partnership {a} {b}")
            partners.add((a, b))
            partners.add((b, a))
        else:
            raise ParseError(lineno, f"unknown directive {kw!r}")

    return SolutionGraph(tuple(units), assignment, frozenset(partners))


# ===== derived views =====
# induce_input_graph lives in verify.py: it accepts a graph only through
# verify_solution, and this module cannot import the checker.


def degree_precheck(inst: Instance) -> list[str]:
    """Element ids whose degree exceeds (iucap + 1) * ucap, in stable order.

    An element can reach at most that many opposite-side elements (its own
    unit plus iucap partners, ucap slots each), so a non-empty result proves
    unsatisfiability regardless of how many units are allowed.
    """
    bound = (inst.iucap + 1) * inst.ucap
    return [e for e, nbrs in zip(inst.elements, inst.adjacency) if len(nbrs) > bound]


def component_precheck(inst: Instance) -> list[str]:
    """The lowest element id of each connected component with more than
    (iucap + 1) * ucap indicators or sensors, in stable order; empty when
    iucap > 1.

    At iucap <= 1 every unit has at most one partner, so the units that host
    a connected component are one unit or two partnered units (Aschinger,
    Drescher, Gottlob, Jeavons and Thorstensen, IJCAI 2011), with ucap slots
    a side each.  A non-empty result proves unsatisfiability regardless of
    how many units are allowed.  An empty one at iucap <= 1 means every
    component fits on one unit or one partnered pair, so the instance is
    satisfiable within the default budget of one unit per element.
    """
    if inst.iucap > 1:
        return []
    bound = (inst.iucap + 1) * inst.ucap
    n_ind = len(inst.indicators)
    if n_ind <= bound and len(inst.sensors) <= bound:
        return []  # no component holds more of a side than the whole side
    nbr = inst.adjacency
    seen = [False] * len(nbr)
    out: list[str] = []
    for root, root_nbrs in enumerate(nbr):
        if seen[root] or not root_nbrs:  # an isolated element fits on any unit
            continue
        seen[root] = True
        stack = [root]
        ind = size = 0
        while stack:
            e = stack.pop()
            size += 1
            ind += e < n_ind  # indicators come first in the stable index
            for nb in nbr[e]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        if ind > bound or size - ind > bound:
            out.append(inst.elements[root])
    return out


# ===== plain-text graph descriptions (DOT) =====


def _dot_quote(*lines: str) -> str:
    """The lines as one DOT quoted string joined by ``\\n``, with ``"`` and ``\\`` escaped."""
    return '"' + "\\n".join(t.replace("\\", "\\\\").replace('"', '\\"') for t in lines) + '"'


def instance_to_dot(inst: Instance) -> str:
    """Bipartite input graph in DOT format (indicators boxed)."""
    lines = ["graph instance {"]
    for i in inst.indicators:
        lines.append(f"  {_dot_quote(i)} [shape=box];")
    for s in inst.sensors:
        lines.append(f"  {_dot_quote(s)} [shape=ellipse];")
    for a, b in inst.edges:
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def solution_to_dot(g: SolutionGraph) -> str:
    """Solution graph in DOT format: one node per occupied unit, partner edges."""
    lines = ["graph solution {", "  node [shape=box];"]
    units, pairs = g.occupied()
    for u, es in units.items():
        lines.append(f"  {_dot_quote(u)} [label={_dot_quote(u, *es)}];")
    for a, b in pairs:
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
