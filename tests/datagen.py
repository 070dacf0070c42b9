"""Shared instance builders and naive reference checks for the test suite.

The naive pieces here exist to cross-check the package from a second angle:
definition_check expands the solution requirements literally over a given
assignment, and naive_decide enumerates every assignment function without
any symmetry breaking.  Keep them dumb.
"""

from __future__ import annotations

import itertools
import random

from pupsolver import Instance, SolutionGraph


def rail_instance() -> Instance:
    """Three track indicators fed by six zone sensors, ucap 2, iucap 2."""
    return Instance(
        indicators=("I1", "I2", "I3"),
        sensors=("S1", "S2", "S3", "S4", "S5", "S6"),
        edges=(
            ("I1", "S1"), ("I1", "S2"), ("I1", "S5"), ("I1", "S6"),
            ("I2", "S2"), ("I2", "S3"), ("I2", "S4"), ("I2", "S5"),
            ("I3", "S3"), ("I3", "S4"),
        ),
        ucap=2,
        iucap=2,
    )


def random_instance(
    rng: random.Random,
    max_ind: int = 4,
    max_sens: int = 4,
    ucaps=(1, 2),
    iucaps=(0, 1, 2, 3),
    min_ind: int = 0,
    min_sens: int = 0,
) -> Instance:
    n_ind = rng.randint(min_ind, max_ind)
    n_sens = rng.randint(min_sens, max_sens)
    p = rng.choice([0.15, 0.3, 0.5, 0.75])
    ind = tuple(f"i{a}" for a in range(n_ind))
    sen = tuple(f"s{b}" for b in range(n_sens))
    edges = tuple((i, s) for i in ind for s in sen if rng.random() < p)
    return Instance(ind, sen, edges, rng.choice(list(ucaps)), rng.choice(list(iucaps)))


def twin_heavy_instance(
    rng: random.Random,
    max_elements: int = 11,
    ucaps=(1, 2),
    iucaps=(0, 1, 2, 3),
) -> Instance:
    """A random instance of 2-6 elements grown by copies to at most
    max_elements: each copy is a new element on the side of a drawn element
    with that element's neighbours, so most elements have a twin (same
    side, same neighbour set)."""
    ind = [f"i{a}" for a in range(rng.randint(1, 3))]
    sen = [f"s{b}" for b in range(rng.randint(1, 3))]
    p = rng.choice([0.3, 0.5, 0.75])
    edges = {(i, s) for i in ind for s in sen if rng.random() < p}
    for _ in range(rng.randint(1, max_elements - len(ind) - len(sen))):
        x = rng.choice(ind + sen)
        if x in ind:
            y = f"i{len(ind)}"
            ind.append(y)
            edges |= {(y, s) for i, s in edges if i == x}
        else:
            y = f"s{len(sen)}"
            sen.append(y)
            edges |= {(i, y) for i, s in edges if s == x}
    return Instance(tuple(ind), tuple(sen), tuple(sorted(edges)),
                    rng.choice(list(ucaps)), rng.choice(list(iucaps)))


def grid_instance(rows: int, cols: int) -> Instance:
    """rows x cols zones (indicators z{i}_{j}, row-major) with one door
    sensor between each pair of side-adjacent zones, read by both: h{i}_{j}
    joins z{i}_{j} to z{i}_{j+1} and v{i}_{j} joins z{i}_{j} to z{i+1}_{j}.
    Sensors are declared row-major, each zone's h door before its v door.
    ucap 2, iucap 2; with at least three zones no two elements are twins."""
    zones = tuple(f"z{i}_{j}" for i in range(rows) for j in range(cols))
    doors: list[str] = []
    edges: list[tuple[str, str]] = []
    for i in range(rows):
        for j in range(cols):
            for door, ni, nj in (("h", i, j + 1), ("v", i + 1, j)):
                if ni < rows and nj < cols:
                    doors.append(f"{door}{i}_{j}")
                    edges += [(f"z{i}_{j}", doors[-1]), (f"z{ni}_{nj}", doors[-1])]
    return Instance(zones, tuple(doors), tuple(edges), 2, 2)


def all_small_bipartite(max_elements: int, ucaps=(1, 2), iucap: int = 0):
    """Every labeled bipartite graph with at most max_elements elements."""
    for n_ind in range(0, max_elements + 1):
        for n_sens in range(0, max_elements + 1 - n_ind):
            ind = tuple(f"i{a}" for a in range(n_ind))
            sen = tuple(f"s{b}" for b in range(n_sens))
            pairs = [(i, s) for i in ind for s in sen]
            for mask in range(1 << len(pairs)):
                edges = tuple(p for k, p in enumerate(pairs) if (mask >> k) & 1)
                for ucap in ucaps:
                    yield Instance(ind, sen, edges, ucap, iucap)


def definition_check(inst: Instance, assignment: dict[str, str], partners: set) -> bool:
    """Literal expansion of the solution requirements over one assignment.

    ``partners`` is a set of frozenset pairs.  True iff every element is
    assigned, unit capacities hold per side, partner degrees fit iucap, and
    every edge is covered by a shared unit or a partnership.
    """
    if set(assignment) != set(inst.elements):
        return False
    indicators = set(inst.indicators)
    units = set(assignment.values())
    for u in units:
        hosted = [e for e, w in assignment.items() if w == u]
        if sum(1 for e in hosted if e in indicators) > inst.ucap:
            return False
        if sum(1 for e in hosted if e not in indicators) > inst.ucap:
            return False
        if sum(1 for p in partners if u in p) > inst.iucap:
            return False
    for i, s in inst.edges:
        if assignment[i] != assignment[s] and frozenset((assignment[i], assignment[s])) not in partners:
            return False
    return True


def forced_partners(inst: Instance, assignment: dict[str, str]) -> set:
    """The minimal partner relation an assignment needs: one pair per
    cross-unit edge.  Extra partnerships never help, so checking this
    relation decides the assignment."""
    return {
        frozenset((assignment[i], assignment[s]))
        for i, s in inst.edges
        if assignment[i] != assignment[s]
    }


def naive_decide(inst: Instance, max_units: int) -> bool:
    """Enumerate every assignment function, no symmetry breaking at all."""
    elements = inst.elements
    if not elements:
        return True
    unit_ids = [f"n{k}" for k in range(max_units)]
    for combo in itertools.product(unit_ids, repeat=len(elements)):
        assignment = dict(zip(elements, combo))
        if definition_check(inst, assignment, forced_partners(inst, assignment)):
            return True
    return False


def enumerate_solutions(inst: Instance, max_units: int):
    """All complete symmetry-broken assignments with forced connections.

    Yields (units, where): units is a tuple of (ind count, sensor count,
    partner position set) and where maps element positions to unit positions.
    """
    n = len(inst.elements)
    indicators = set(inst.indicators)
    is_ind = [e in indicators for e in inst.elements]
    nbrs = inst.adjacency
    ucap, iucap = inst.ucap, inst.iucap
    out = []

    def place(e, u, units, where):
        ic, sc, ps = units[u]
        if is_ind[e]:
            if ic >= ucap:
                return None
            ic += 1
        else:
            if sc >= ucap:
                return None
            sc += 1
        forced = {where[q] for q in nbrs[e] if where[q] >= 0 and where[q] != u} - ps
        if len(ps) + len(forced) > iucap:
            return None
        for w in forced:
            if len(units[w][2]) >= iucap:
                return None
        nxt = list(units)
        nxt[u] = (ic, sc, ps | forced)
        for w in forced:
            wic, wsc, wps = nxt[w]
            nxt[w] = (wic, wsc, wps | {u})
        return tuple(nxt)

    def rec(k, units, where):
        if k == n:
            out.append((units, where))
            return
        for u in range(len(units)):
            nxt = place(k, u, units, where)
            if nxt is not None:
                rec(k + 1, nxt, where[:k] + (u,) + where[k + 1:])
        if len(units) < max_units:
            nxt = place(k, len(units), units + ((0, 0, frozenset()),), where)
            if nxt is not None:
                rec(k + 1, nxt, where[:k] + (len(units),) + where[k + 1:])

    rec(0, (), (-1,) * n)
    return out


def graph_from_assignment(inst: Instance, assignment: dict[str, str]) -> SolutionGraph:
    """Build a SolutionGraph with the forced partner closure."""
    units = []
    for u in assignment.values():
        if u not in units:
            units.append(u)
    partners = set()
    for pair in forced_partners(inst, assignment):
        a, b = tuple(pair)
        partners.add((a, b))
        partners.add((b, a))
    return SolutionGraph(
        tuple(units), assignment, frozenset(partners), inst.indicators, inst.sensors
    )
