"""verify_solution against the two-pass checker it replaced, on drawn
(instance, graph) pairs that between them break every requirement."""

from hypothesis import given, settings, strategies as st

from pupsolver import Instance, SolutionGraph, Violation, ViolationKind, verify_solution


def _reference_verify(inst: Instance, g: SolutionGraph) -> list[Violation]:
    """The checker as it was before its single element pass, kept as its oracle."""
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
    for e in inst.elements:
        if e not in g.assignment:
            out.append(Violation(
                ViolationKind.UNASSIGNED_ELEMENT, (e,),
                f"element {e!r} has no unit",
            ))

    ind_count: dict[str, int] = {u: 0 for u in g.units}
    sen_count: dict[str, int] = {u: 0 for u in g.units}
    indicators = set(inst.indicators)
    for e in inst.elements:
        u = g.assignment.get(e)
        if u is None or u not in known_units:
            continue
        if e in indicators:
            ind_count[u] += 1
        else:
            sen_count[u] += 1
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

    for a, b in sorted(g.partners):
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
        if (b, a) not in g.partners:
            out.append(Violation(
                ViolationKind.ASYMMETRIC_PARTNER, (a, b),
                f"partner pair ({a!r}, {b!r}) lacks its mirror ({b!r}, {a!r})",
            ))
    closure = g.partners | {(b, a) for a, b in g.partners}
    for u in g.units:
        degree = sum(1 for a, _ in closure if a == u)
        if degree > inst.iucap:
            out.append(Violation(
                ViolationKind.PARTNER_CAPACITY, (u,),
                f"unit {u!r} has {degree} partners, iucap is {inst.iucap}",
            ))

    for i, s in inst.edges:
        ui = g.assignment.get(i)
        us = g.assignment.get(s)
        if ui is None or us is None:
            continue
        if g.connected(ui, us):
            continue
        out.append(Violation(
            ViolationKind.MISSING_CONNECTION, (i, s),
            f"edge ({i!r}, {s!r}) spans units {ui!r} and {us!r} which are not partners",
        ))

    return out


@st.composite
def instance_graph_pairs(draw):
    """A small instance and a graph over up to four declared units.  Each
    element is left unassigned, put on a declared unit (most often) or put
    on one of two undeclared ones; elements outside the instance may be
    assigned too, and partner pairs come in one or both orientations."""
    ind = tuple(f"i{k}" for k in range(draw(st.integers(0, 4))))
    sen = tuple(f"s{k}" for k in range(draw(st.integers(0, 4))))
    pairs = [(i, s) for i in ind for s in sen]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    inst = Instance(ind, sen, tuple(p for p, k in zip(pairs, keep) if k),
                    draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    units = tuple(f"u{k}" for k in range(draw(st.integers(0, 4))))
    targets = st.sampled_from(("unassigned", "ghost1", "ghost2") + units * 3)
    assignment = {}
    for e in inst.elements + draw(st.sampled_from(((), ("x0",), ("x0", "x1")))):
        u = draw(targets)
        if u != "unassigned":
            assignment[e] = u
    names = units + ("ghost1",)
    partners = set()
    for a, b in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=8)):
        if a != b:
            partners.add((a, b))
            if draw(st.integers(0, 3)):
                partners.add((b, a))
    return inst, SolutionGraph(units, assignment, frozenset(partners), inst.indicators, inst.sensors)


def test_verify_matches_reference():
    seen: set[ViolationKind] = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(instance_graph_pairs())
    def check(pair):
        inst, g = pair
        got = verify_solution(inst, g)
        assert got == _reference_verify(inst, g)
        seen.update(v.kind for v in got)

    check()
    assert seen == set(ViolationKind)
