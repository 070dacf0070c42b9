"""Independent solution checker, and the input graph a solution induces.

Re-checks a solution graph against an instance from first principles; it
shares only the core data types with the solver, none of its bookkeeping.
Every violated requirement is reported, not just the first.  It is the one
structural check of a solution graph: ``induce_input_graph`` accepts a
graph only when ``verify_solution`` finds nothing wrong with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Instance, SolutionGraph


class ViolationKind(Enum):
    INDICATOR_CAPACITY = "IndicatorCapacity"
    SENSOR_CAPACITY = "SensorCapacity"
    PARTNER_CAPACITY = "PartnerCapacity"
    MISSING_CONNECTION = "MissingConnection"
    ASYMMETRIC_PARTNER = "AsymmetricPartner"
    UNASSIGNED_ELEMENT = "UnassignedElement"
    UNKNOWN_REFERENCE = "UnknownReference"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    subjects: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.detail}"


def verify_solution(inst: Instance, g: SolutionGraph) -> list[Violation]:
    """All ways g fails to solve inst; an empty list certifies the solution.

    Checked: every instance element assigned to a declared unit, per-unit
    indicator and sensor counts within ucap, partner relation symmetric with
    per-unit degree within iucap, and every edge covered (same unit or
    partnered units).  Assignments of elements unknown to the instance and
    references to undeclared units are reported, never repaired.
    """
    out: list[Violation] = []
    known_units = set(g.units)

    for e, u in g.assignment.items():
        if e not in inst.index:
            out.append(Violation(
                ViolationKind.UNKNOWN_REFERENCE, (e,),
                f"assigned element {e!r} is not part of the instance",
            ))
        if u not in known_units:
            out.append(Violation(
                ViolationKind.UNKNOWN_REFERENCE, (u,),
                f"element {e!r} assigned to undeclared unit {u!r}",
            ))
    # one pass, indicators then sensors: unassigned elements, per-unit counts
    ind_count: dict[str, int] = dict.fromkeys(g.units, 0)
    sen_count: dict[str, int] = dict.fromkeys(g.units, 0)
    assigned = g.assignment.get
    for side, count in ((inst.indicators, ind_count), (inst.sensors, sen_count)):
        for e in side:
            u = assigned(e)
            if u is None:
                out.append(Violation(
                    ViolationKind.UNASSIGNED_ELEMENT, (e,),
                    f"element {e!r} has no unit",
                ))
            elif u in count:
                count[u] += 1
    for u in g.units:
        if ind_count[u] > inst.ucap:
            out.append(Violation(
                ViolationKind.INDICATOR_CAPACITY, (u,),
                f"unit {u!r} hosts {ind_count[u]} indicators, ucap is {inst.ucap}",
            ))
        if sen_count[u] > inst.ucap:
            out.append(Violation(
                ViolationKind.SENSOR_CAPACITY, (u,),
                f"unit {u!r} hosts {sen_count[u]} sensors, ucap is {inst.ucap}",
            ))

    # one pass over the pairs: degrees in the symmetric closure, and the broken pairs
    partners = g.partners
    degree = dict.fromkeys(g.units, 0)
    broken = []
    for a, b in partners:
        mirrored = (b, a) in partners
        degree[a] = degree.get(a, 0) + 1
        if not mirrored:
            degree[b] = degree.get(b, 0) + 1
        if not mirrored or a not in known_units or b not in known_units:
            broken.append((a, b))
    for a, b in sorted(broken):
        if a not in known_units:
            out.append(Violation(
                ViolationKind.UNKNOWN_REFERENCE, (a,),
                f"partner pair ({a!r}, {b!r}) references undeclared unit {a!r}",
            ))
        if b not in known_units:
            out.append(Violation(
                ViolationKind.UNKNOWN_REFERENCE, (b,),
                f"partner pair ({a!r}, {b!r}) references undeclared unit {b!r}",
            ))
        if (b, a) not in partners:
            out.append(Violation(
                ViolationKind.ASYMMETRIC_PARTNER, (a, b),
                f"partner pair ({a!r}, {b!r}) lacks its mirror ({b!r}, {a!r})",
            ))
    for u in g.units:
        if degree[u] > inst.iucap:
            out.append(Violation(
                ViolationKind.PARTNER_CAPACITY, (u,),
                f"unit {u!r} has {degree[u]} partners, iucap is {inst.iucap}",
            ))

    for i, s in inst.edges:
        ui, us = assigned(i), assigned(s)
        if ui is None or us is None:
            continue  # already reported as UnassignedElement
        if ui == us or (ui, us) in partners or (us, ui) in partners:
            continue
        out.append(Violation(
            ViolationKind.MISSING_CONNECTION, (i, s),
            f"edge ({i!r}, {s!r}) spans units {ui!r} and {us!r} which are not partners",
        ))

    return out


def induce_input_graph(g: SolutionGraph, ucap: int, iucap: int) -> Instance:
    """The input graph a solution graph induces.

    Contains edge (i, s) exactly when i and s share a unit or sit on partner
    units; every instance the graph solves is a subgraph of this one.  The
    graph's side tuples name its elements, and it must pass verify_solution
    against the edgeless instance on them; otherwise ValueError lists every
    violation.
    """
    bare = Instance(g.indicators, g.sensors, (), ucap, iucap)
    violations = verify_solution(bare, g)
    if violations:
        raise ValueError("; ".join(map(str, violations)))
    unit = g.assignment
    edges = [(i, s) for i in g.indicators for s in g.sensors if g.connected(unit[i], unit[s])]
    return Instance(g.indicators, g.sensors, tuple(edges), ucap, iucap)


def count_units(g: SolutionGraph) -> int:
    """Number of units hosting at least one element."""
    return sum(1 for u in g.units if g.unit_elements.get(u))
