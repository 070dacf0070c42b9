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
from typing import Iterable, Mapping


class ParseError(ValueError):
    """Malformed instance or solution text. Carries the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        if lineno is None:
            super().__init__(message)
        else:
            super().__init__(f"line {lineno}: {message}")


def _check_token(kind: str, tok: str) -> None:
    if not tok or "#" in tok or any(c.isspace() for c in tok):
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

    def __post_init__(self):
        object.__setattr__(self, "indicators", tuple(self.indicators))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        if self.ucap < 1:
            raise ValueError("ucap must be >= 1")
        if self.iucap < 0:
            raise ValueError("iucap must be >= 0")
        seen: set[str] = set()
        for kind, ids in (("indicator", self.indicators), ("sensor", self.sensors)):
            for tok in ids:
                _check_token(kind, tok)
                if tok in seen:
                    raise ValueError(f"duplicate element id {tok!r}")
                seen.add(tok)
        ind = frozenset(self.indicators)
        sen = frozenset(self.sensors)
        edge_seen: set[tuple[str, str]] = set()
        for a, b in self.edges:
            if a not in ind:
                raise ValueError(f"edge endpoint {a!r} is not a declared indicator")
            if b not in sen:
                raise ValueError(f"edge endpoint {b!r} is not a declared sensor")
            if (a, b) in edge_seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            edge_seen.add((a, b))

    @cached_property
    def elements(self) -> tuple[str, ...]:
        """All element ids in stable-index order (indicators, then sensors)."""
        return self.indicators + self.sensors

    @cached_property
    def index(self) -> dict[str, int]:
        """Stable index of every element, the global tie-break order."""
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def indicator_set(self) -> frozenset[str]:
        return frozenset(self.indicators)

    @cached_property
    def sensor_set(self) -> frozenset[str]:
        return frozenset(self.sensors)

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """Adjacency, each neighbor list sorted by stable index."""
        adj: dict[str, list[str]] = {e: [] for e in self.elements}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        idx = self.index
        return {e: tuple(sorted(nbrs, key=idx.__getitem__)) for e, nbrs in adj.items()}

    def degree(self, elem: str) -> int:
        return len(self.neighbors[elem])


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

    @property
    def has_sides(self) -> bool:
        return bool(self.indicators or self.sensors)

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
        """Each partnership once, ordered and sorted by unit declaration index."""
        pos = self.unit_index

        def key(u: str):
            return (pos.get(u, len(self.units)), u)

        pairs = {tuple(sorted(p, key=key)) for p in self.partners}
        return tuple(sorted(pairs, key=lambda p: (key(p[0]), key(p[1]))))

    def connected(self, u: str, v: str) -> bool:
        """True when u and v are the same unit or partners (either direction)."""
        return u == v or (u, v) in self.partners or (v, u) in self.partners

    def ensure_consistent(self, ucap: int, iucap: int) -> None:
        """Raise ValueError unless this graph satisfies its own invariants.

        Checks structure only (sides known, references declared, symmetry,
        capacities); edge coverage against an instance is the verifier's job.
        """
        if not self.has_sides:
            raise ValueError("solution graph lacks indicator/sensor side information")
        ind = set(self.indicators)
        sen = set(self.sensors)
        if ind & sen:
            raise ValueError("an element cannot be both indicator and sensor")
        if set(self.assignment) != ind | sen:
            raise ValueError("assignment does not cover exactly the declared elements")
        known = set(self.units)
        for e, u in self.assignment.items():
            if u not in known:
                raise ValueError(f"element {e!r} assigned to undeclared unit {u!r}")
        for a, b in self.partners:
            if a not in known or b not in known:
                raise ValueError(f"partner pair ({a!r}, {b!r}) references an undeclared unit")
            if (b, a) not in self.partners:
                raise ValueError(f"partner relation is not symmetric at ({a!r}, {b!r})")
        for u in self.units:
            hosted = self.unit_elements.get(u, ())
            n_ind = sum(1 for e in hosted if e in ind)
            n_sen = len(hosted) - n_ind
            if n_ind > ucap:
                raise ValueError(f"unit {u!r} hosts {n_ind} indicators, ucap is {ucap}")
            if n_sen > ucap:
                raise ValueError(f"unit {u!r} hosts {n_sen} sensors, ucap is {ucap}")
            if len(self.partner_adjacency.get(u, ())) > iucap:
                raise ValueError(f"unit {u!r} exceeds iucap {iucap}")


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
    Sequential mode is deterministic: all tie-breaking is by stable index,
    there is no randomness to seed.  Parallel mode trades that
    reproducibility for an entry-point portfolio.
    """

    max_time_ms: int = 600_000
    max_units: int | None = None
    minimize: bool = True
    parallel: bool = False

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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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


def induce_input_graph(g: SolutionGraph, ucap: int, iucap: int) -> Instance:
    """The input graph a solution graph induces.

    Contains edge (i, s) exactly when i and s share a unit or sit on partner
    units; every instance the graph solves is a subgraph of this one.  The
    graph must carry side information and satisfy its invariants.
    """
    g.ensure_consistent(ucap, iucap)
    adj = g.partner_adjacency
    edges: list[tuple[str, str]] = []
    for i in g.indicators:
        ui = g.assignment[i]
        reach = adj.get(ui, frozenset())
        for s in g.sensors:
            us = g.assignment[s]
            if us == ui or us in reach:
                edges.append((i, s))
    return Instance(g.indicators, g.sensors, tuple(edges), ucap, iucap)


def degree_precheck(inst: Instance) -> list[str]:
    """Element ids whose degree exceeds (iucap + 1) * ucap, in stable order.

    An element can reach at most that many opposite-side elements (its own
    unit plus iucap partners, ucap slots each), so a non-empty result proves
    unsatisfiability regardless of how many units are allowed.
    """
    bound = (inst.iucap + 1) * inst.ucap
    return [e for e in inst.elements if inst.degree(e) > bound]


# ===== plain-text graph descriptions (DOT) =====


def instance_to_dot(inst: Instance) -> str:
    """Bipartite input graph in DOT format (indicators boxed)."""
    lines = ["graph instance {"]
    for i in inst.indicators:
        lines.append(f'  "{i}" [shape=box];')
    for s in inst.sensors:
        lines.append(f'  "{s}" [shape=ellipse];')
    for a, b in inst.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def solution_to_dot(g: SolutionGraph) -> str:
    """Solution graph in DOT format: one node per occupied unit, partner edges."""
    lines = ["graph solution {", "  node [shape=box];"]
    occupied = [u for u in g.units if g.unit_elements.get(u)]
    for u in occupied:
        label = "\\n".join([u] + list(sorted(g.unit_elements[u])))
        lines.append(f'  "{u}" [label="{label}"];')
    occ = set(occupied)
    for a, b in g.canonical_partners:
        if a in occ and b in occ:
            lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
