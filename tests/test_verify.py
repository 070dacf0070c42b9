"""Verifier behavior: clean solutions, every violation kind, cross-checks."""

import random

import pytest

from pupsolver import (
    Instance,
    Outcome,
    SolutionGraph,
    SolveConfig,
    ViolationKind,
    count_units,
    solve,
    verify_solution,
)

from datagen import (
    definition_check,
    graph_from_assignment,
    rail_instance,
    random_instance,
)


RAIL_ASSIGNMENT = {
    "I1": "u1", "I2": "u1", "S5": "u1", "S6": "u1",
    "I3": "u2", "S1": "u2", "S3": "u2",
    "S2": "u3", "S4": "u3",
}


def rail_pair():
    inst = rail_instance()
    return inst, graph_from_assignment(inst, dict(RAIL_ASSIGNMENT))


def rebuild(g: SolutionGraph, *, units=None, assignment=None, partners=None):
    return SolutionGraph(
        g.units if units is None else units,
        dict(g.assignment) if assignment is None else assignment,
        g.partners if partners is None else partners,
        g.indicators,
        g.sensors,
    )


def kinds(violations):
    return {v.kind for v in violations}


def test_clean_rail_solution():
    inst, g = rail_pair()
    assert verify_solution(inst, g) == []
    assert count_units(g) == 3


def test_unassigned_element():
    inst, g = rail_pair()
    assignment = dict(g.assignment)
    del assignment["S6"]
    bad = rebuild(g, assignment=assignment)
    report = verify_solution(inst, bad)
    assert [v.kind for v in report] == [ViolationKind.UNASSIGNED_ELEMENT]
    assert report[0].subjects == ("S6",)


def test_unknown_element_reference():
    inst, g = rail_pair()
    assignment = dict(g.assignment)
    assignment["ghost"] = "u1"
    report = verify_solution(inst, rebuild(g, assignment=assignment))
    assert [v.kind for v in report] == [ViolationKind.UNKNOWN_REFERENCE]
    assert report[0].subjects == ("ghost",)


def test_unknown_unit_reference():
    inst, g = rail_pair()
    assignment = dict(g.assignment)
    assignment["S6"] = "u9"
    report = verify_solution(inst, rebuild(g, assignment=assignment))
    # the stray unit itself, plus the edge I1-S6 it can no longer cover
    assert kinds(report) == {
        ViolationKind.UNKNOWN_REFERENCE,
        ViolationKind.MISSING_CONNECTION,
    }
    assert ("u9",) in [v.subjects for v in report]


def test_indicator_capacity():
    inst = Instance(("i1", "i2"), (), (), 1, 0)
    g = SolutionGraph(("u1",), {"i1": "u1", "i2": "u1"}, frozenset(),
                      inst.indicators, inst.sensors)
    report = verify_solution(inst, g)
    assert [v.kind for v in report] == [ViolationKind.INDICATOR_CAPACITY]
    assert report[0].subjects == ("u1",)


def test_sensor_capacity():
    inst = Instance((), ("s1", "s2", "s3"), (), 2, 0)
    g = SolutionGraph(("u1",), {"s1": "u1", "s2": "u1", "s3": "u1"},
                      frozenset(), inst.indicators, inst.sensors)
    report = verify_solution(inst, g)
    assert [v.kind for v in report] == [ViolationKind.SENSOR_CAPACITY]


def test_partner_capacity():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    partners = frozenset(
        [("u1", "u2"), ("u2", "u1"), ("u1", "u3"), ("u3", "u1")]
    )
    g = SolutionGraph(("u1", "u2", "u3"), {"i1": "u1", "s1": "u2"},
                      partners, inst.indicators, inst.sensors)
    report = verify_solution(inst, g)
    assert [v.kind for v in report] == [ViolationKind.PARTNER_CAPACITY]
    assert report[0].subjects == ("u1",)


def test_asymmetric_partner():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    g = SolutionGraph(("u1", "u2"), {"i1": "u1", "s1": "u2"},
                      frozenset([("u1", "u2")]),
                      inst.indicators, inst.sensors)
    report = verify_solution(inst, g)
    assert [v.kind for v in report] == [ViolationKind.ASYMMETRIC_PARTNER]
    assert report[0].subjects == ("u1", "u2")
    # partner degrees count the symmetric closure: at iucap 0 the one pair
    # is over capacity at both ends
    tight = Instance(inst.indicators, inst.sensors, inst.edges, 1, 0)
    assert [(v.kind, v.subjects) for v in verify_solution(tight, g)][1:] == [
        (ViolationKind.PARTNER_CAPACITY, ("u1",)), (ViolationKind.PARTNER_CAPACITY, ("u2",)),
    ]


def test_missing_connection():
    inst, g = rail_pair()
    partners = frozenset(p for p in g.partners if set(p) != {"u2", "u3"})
    report = verify_solution(inst, rebuild(g, partners=partners))
    assert [v.kind for v in report] == [ViolationKind.MISSING_CONNECTION]
    assert report[0].subjects == ("I3", "S4")


def test_self_partner_rejected_at_construction():
    with pytest.raises(ValueError):
        SolutionGraph(("u1",), {}, frozenset([("u1", "u1")]))


def test_multiple_violations_all_reported():
    inst, g = rail_pair()
    assignment = dict(g.assignment)
    del assignment["S6"]
    partners = frozenset(p for p in g.partners if set(p) != {"u2", "u3"})
    report = verify_solution(inst, rebuild(g, assignment=assignment, partners=partners))
    assert kinds(report) == {
        ViolationKind.UNASSIGNED_ELEMENT,
        ViolationKind.MISSING_CONNECTION,
    }
    assert len(report) == 2


def test_violation_str_is_kind_prefixed():
    inst, g = rail_pair()
    assignment = dict(g.assignment)
    del assignment["S6"]
    (v,) = verify_solution(inst, rebuild(g, assignment=assignment))
    assert str(v).startswith("UnassignedElement: ")
    assert "S6" in str(v)


def test_count_units_skips_declared_but_empty():
    g = SolutionGraph(("u1", "u2", "u3"), {"i1": "u1", "s1": "u3"}, frozenset())
    assert count_units(g) == 2


def test_solver_output_verifies_and_matches_definition():
    rng = random.Random(424242)
    checked = 0
    for _ in range(300):
        inst = random_instance(rng)
        res = solve(inst, SolveConfig(max_time_ms=10_000))
        if res.outcome is not Outcome.SATISFIABLE:
            continue
        g = res.solution
        assert verify_solution(inst, g) == []
        pairs = {frozenset(p) for p in g.partners}
        assert definition_check(inst, dict(g.assignment), pairs)
        checked += 1
    assert checked > 100


def test_single_mutation_agrees_with_definition_check():
    """Verifier emptiness must coincide with the literal requirement expansion
    under random single-step tampering (element moves, partner removals)."""
    rng = random.Random(7)
    agree = 0
    for _ in range(200):
        inst = random_instance(rng, min_ind=1, min_sens=1)
        res = solve(inst, SolveConfig(max_time_ms=10_000))
        if res.outcome is not Outcome.SATISFIABLE or not res.solution.units:
            continue
        g = res.solution
        assignment = dict(g.assignment)
        partners = set(g.partners)
        if rng.random() < 0.5 and assignment:
            e = rng.choice(sorted(assignment))
            assignment[e] = rng.choice(g.units)
        elif partners:
            a, b = rng.choice(sorted(partners))
            partners.discard((a, b))
            partners.discard((b, a))
        bad = rebuild(g, assignment=assignment, partners=frozenset(partners))
        clean = verify_solution(inst, bad) == []
        literal = definition_check(inst, assignment, {frozenset(p) for p in partners})
        assert clean == literal
        agree += 1
    assert agree > 100
