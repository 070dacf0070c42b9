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
An ``Instance`` builds the index, and the adjacency by index that the search
reads, once each: the index while it checks its input, the adjacency on
first use.

Solution file grammar::

    unit <id>
    assign <element-id> <unit-id>
    partner <unit-id> <unit-id>    each partnership listed once

Emitters drop units that host no element; a ``unit`` line without matching
``assign`` lines is how an explicitly empty unit would appear on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def _check_token(kind: str, tok: str) -> None:
    # str.split() splits at exactly the characters str.isspace() accepts, so
    # this rejects the empty token and any token holding whitespace
    if "#" in tok or tok.split() != [tok]:
        raise ValueError(f"{kind} id {tok!r} is not a valid token")


@dataclass(frozen=True)
class Instance:
    """Immutable PUP input graph.

    ``edges`` are (indicator, sensor) pairs; both endpoints must be declared,
    sides must not mix, and duplicates are rejected.
    """

    indicators: tuple[str, ...]
    sensors: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    ucap: int
    iucap: int
    # views the checks in __post_init__ build and keep; not part of ==, hash or repr.
    # elements: all ids in stable-index order; index: each id's stable index
    elements: tuple[str, ...] = field(init=False, repr=False, compare=False)
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    indicator_set: frozenset[str] = field(init=False, repr=False, compare=False)
    sensor_set: frozenset[str] = field(init=False, repr=False, compare=False)
    edge_set: frozenset[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        if self.ucap < 1:
            raise ValueError("ucap must be >= 1")
        if self.iucap < 0:
            raise ValueError("iucap must be >= 0")
        index: dict[str, int] = {}
        for kind, ids in (("indicator", self.indicators), ("sensor", self.sensors)):
            for tok in ids:
                _check_token(kind, tok)
                if tok in index:
                    raise ValueError(f"duplicate element id {tok!r}")
                index[tok] = len(index)
        ind = frozenset(self.indicators)
        sen = frozenset(self.sensors)
        edge_set: set[tuple[str, str]] = set()
        for a, b in self.edges:
            if a not in ind:
                raise ValueError(f"edge endpoint {a!r} is not a declared indicator")
            if b not in sen:
                raise ValueError(f"edge endpoint {b!r} is not a declared sensor")
            if (a, b) in edge_set:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            edge_set.add((a, b))
        object.__setattr__(self, "elements", self.indicators + self.sensors)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "indicator_set", ind)
        object.__setattr__(self, "sensor_set", sen)
        object.__setattr__(self, "edge_set", frozenset(edge_set))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each element by stable index, ascending; built on first use."""
        adj: list[list[int]] = [[] for _ in self.elements]
        idx = self.index
        for a, b in self.edges:
            i, j = idx[a], idx[b]
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)


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

    @cached_property
    def unit_index(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.units)}

    @cached_property
    def unit_elements(self) -> dict[str, tuple[str, ...]]:
        """Elements hosted per unit, in assignment insertion order."""
        hosted: dict[str, list[str]] = {u: [] for u in self.units}
        for e, u in self.assignment.items():
            hosted.setdefault(u, []).append(e)
        return {u: tuple(es) for u, es in hosted.items()}

    @cached_property
    def partner_adjacency(self) -> dict[str, frozenset[str]]:
        """Symmetric closure of the partner relation as an adjacency map."""
        adj: dict[str, set[str]] = {}
        for a, b in self.partners:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {u: frozenset(vs) for u, vs in adj.items()}

    @cached_property
    def canonical_partners(self) -> tuple[tuple[str, str], ...]:
        """Each partnership once, ordered and sorted by unit rank: declaration
        index, then the units that only partner pairs name, by name."""
        names = self.units
        rank = self.unit_index
        undeclared = set().union(*self.partners).difference(rank)
        if undeclared:
            names += tuple(sorted(undeclared))
            rank = {u: k for k, u in enumerate(names)}
        pairs: set[tuple[int, int]] = set()
        for a, b in self.partners:
            x, y = rank[a], rank[b]
            pairs.add((x, y) if x < y else (y, x))
        return tuple((names[x], names[y]) for x, y in sorted(pairs))

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
    """Parse instance text; raises ParseError with a line number on bad input."""
    ucap: int | None = None
    iucap: int | None = None
    indicators: list[str] = []
    sensors: list[str] = []
    side: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()

    for lineno, parts in content_lines(text):
        kw = parts[0]
        if kw in ("ucap", "iucap"):
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one integer")
            try:
                val = int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"{kw} value {parts[1]!r} is not an integer") from None
            if kw == "ucap":
                if ucap is not None:
                    raise ParseError(lineno, "duplicate ucap directive")
                if val < 1:
                    raise ParseError(lineno, "ucap must be >= 1")
                ucap = val
            else:
                if iucap is not None:
                    raise ParseError(lineno, "duplicate iucap directive")
                if val < 0:
                    raise ParseError(lineno, "iucap must be >= 0")
                iucap = val
        elif kw in ("indicator", "sensor"):
            if len(parts) != 2:
                raise ParseError(lineno, f"{kw} takes exactly one id")
            tok = parts[1]
            if tok in side:
                raise ParseError(lineno, f"duplicate declaration of {tok!r}")
            side[tok] = kw
            (indicators if kw == "indicator" else sensors).append(tok)
        elif kw == "edge":
            if len(parts) != 3:
                raise ParseError(lineno, "edge takes an indicator id and a sensor id")
            a, b = parts[1], parts[2]
            for tok in (a, b):
                if tok not in side:
                    raise ParseError(lineno, f"edge references undeclared id {tok!r}")
            if side[a] != "indicator":
                raise ParseError(lineno, f"{a!r} is a {side[a]}, edges run indicator to sensor")
            if side[b] != "sensor":
                raise ParseError(lineno, f"{b!r} is a {side[b]}, edges run indicator to sensor")
            if (a, b) in edge_seen:
                raise ParseError(lineno, f"duplicate edge {a} {b}")
            edge_seen.add((a, b))
            edges.append((a, b))
        else:
            raise ParseError(lineno, f"unknown directive {kw!r}")

    if ucap is None:
        raise ParseError(None, "missing ucap directive")
    if iucap is None:
        raise ParseError(None, "missing iucap directive")
    return Instance(tuple(indicators), tuple(sensors), tuple(edges), ucap, iucap)


def emit_instance(inst: Instance) -> str:
    """Render an instance in the file grammar; parse_instance inverts this."""
    lines = [f"ucap {inst.ucap}", f"iucap {inst.iucap}"]
    lines.extend(f"indicator {i}" for i in inst.indicators)
    lines.extend(f"sensor {s}" for s in inst.sensors)
    lines.extend(f"edge {a} {b}" for a, b in inst.edges)
    return "\n".join(lines) + "\n"


# ===== solution text format =====


def emit_solution(g: SolutionGraph) -> str:
    """Render a solution graph deterministically.

    Occupied units appear in declaration order as a ``unit`` line followed by
    its ``assign`` lines (element ids sorted); empty units are dropped, as are
    partner lines touching them.  Partnerships are listed once, canonically.
    """
    lines: list[str] = []
    occupied = [u for u in g.units if g.unit_elements.get(u)]
    for u in occupied:
        lines.append(f"unit {u}")
        for e in sorted(g.unit_elements[u]):
            lines.append(f"assign {e} {u}")
    occ = set(occupied)
    for a, b in g.canonical_partners:
        if a in occ and b in occ:
            lines.append(f"partner {a} {b}")
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
    occupied = [u for u in g.units if g.unit_elements.get(u)]
    for u in occupied:
        lines.append(f"  {_dot_quote(u)} [label={_dot_quote(u, *sorted(g.unit_elements[u]))}];")
    occ = set(occupied)
    for a, b in g.canonical_partners:
        if a in occ and b in occ:
            lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
