"""Reduction gadgets: the iucap lift, packing doubling, the iucap=2 embedding."""

import random

import pytest

from pupsolver import (
    BinPackingInstance,
    Instance,
    Outcome,
    SolveConfig,
    binpack_decide,
    binpack_to_pup_iucap2,
    count_units,
    double_binpack,
    emit_binpack_line,
    lift_iucap0_to_1,
    oracle_decide,
    parse_binpack_line,
    solve,
    verify_solution,
)

from datagen import enumerate_solutions, random_instance


# ===== lift from iucap 0 to iucap 1 =====


def test_lift_single_edge_bundle():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 0)
    lifted, budget = lift_iucap0_to_1(inst, 1)
    assert budget == 2
    assert lifted.indicators == ("i1", "d_i1")
    assert lifted.sensors == ("s1", "d_s1")
    assert set(lifted.edges) == {
        ("i1", "s1"), ("d_i1", "d_s1"), ("i1", "d_s1"), ("d_i1", "s1")
    }
    assert lifted.ucap == inst.ucap
    assert lifted.iucap == 1


def test_lift_size_arithmetic():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, iucaps=(0,))
        lifted, budget = lift_iucap0_to_1(inst, 5)
        assert budget == 10
        assert len(lifted.indicators) == 2 * len(inst.indicators)
        assert len(lifted.sensors) == 2 * len(inst.sensors)
        assert len(lifted.edges) == 4 * len(inst.edges)


def test_lift_preserves_satisfiability_both_ways():
    rng = random.Random(17)
    sat_seen = unsat_seen = 0
    for _ in range(150):
        inst = random_instance(rng, max_ind=3, max_sens=3, iucaps=(0,))
        lifted, _ = lift_iucap0_to_1(inst, 1)
        for k in range(1, len(inst.elements) + 2):
            orig = oracle_decide(inst, k)
            assert orig == oracle_decide(lifted, 2 * k, max_elements=12)
            sat_seen += orig
            unsat_seen += not orig
    assert sat_seen and unsat_seen


def test_lift_concrete_pair():
    # two sensors forced onto the indicator's unit: possible at ucap 2 only
    tight = Instance(("i1",), ("s1", "s2"), (("i1", "s1"), ("i1", "s2")), 1, 0)
    roomy = Instance(("i1",), ("s1", "s2"), (("i1", "s1"), ("i1", "s2")), 2, 0)
    lifted_tight, bt = lift_iucap0_to_1(tight, 3)
    lifted_roomy, br = lift_iucap0_to_1(roomy, 1)
    assert not oracle_decide(lifted_tight, bt)
    assert oracle_decide(lifted_roomy, br)


def test_lift_rejects_nonzero_iucap_and_bad_budget():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    with pytest.raises(ValueError):
        lift_iucap0_to_1(inst, 1)
    with pytest.raises(ValueError):
        lift_iucap0_to_1(Instance(("i1",), (), (), 1, 0), 0)


def test_lift_dummy_collision():
    inst = Instance(("i1", "d_i1"), (), (), 1, 0)
    with pytest.raises(ValueError):
        lift_iucap0_to_1(inst, 1)


# ===== doubling =====


def test_double_binpack_scales_items_and_size():
    b = double_binpack(BinPackingInstance((1, 2, 3), 4, 2))
    assert b == BinPackingInstance((2, 4, 6), 8, 2)


def test_double_binpack_preserves_decisions():
    cases = [
        BinPackingInstance((2, 2), 2, 2),
        BinPackingInstance((2, 2), 2, 1),
        BinPackingInstance((1, 2, 3), 3, 2),
        BinPackingInstance((3, 3, 3), 5, 2),
        BinPackingInstance((1,), 1, 1),
    ]
    for b in cases:
        assert binpack_decide(b) == binpack_decide(double_binpack(b))


# ===== bin packing into PUP at iucap 2 =====


def test_embedding_shape_one_item_one_bin():
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((2,), 2, 1))
    assert budget == 3
    assert inst.ucap == 3 and inst.iucap == 2
    # item star: 1 indicator + 2 sensors; gadget: 7 + 7 elements
    assert len(inst.indicators) == 1 + 7
    assert len(inst.sensors) == 2 + 7
    assert len(inst.edges) == 2 + 49
    assert inst.indicators[0] == "item1_i"
    assert ("item1_i", "item1_s2") in set(inst.edges)
    assert ("bin1_i7", "bin1_s1") in set(inst.edges)


def test_embedding_positive_case_solves_and_verifies():
    b = BinPackingInstance((2,), 2, 1)
    assert binpack_decide(b)
    inst, budget = binpack_to_pup_iucap2(b)
    res = solve(inst, SolveConfig(max_units=budget))
    assert res.outcome is Outcome.SATISFIABLE
    assert count_units(res.solution) <= budget
    assert verify_solution(inst, res.solution) == []


def test_embedding_two_bins_split_items():
    # two unit-size items, two bins of size 1: one star per gadget
    b = BinPackingInstance((1, 1), 1, 2)
    assert binpack_decide(b)
    inst, budget = binpack_to_pup_iucap2(b)
    res = solve(inst, SolveConfig(max_units=budget))
    assert res.outcome is Outcome.SATISFIABLE
    assert verify_solution(inst, res.solution) == []
    g = res.solution
    # each item's star shares one gadget: its sensor sits on a unit that is
    # the indicator's unit or a partner of it
    for item in ("item1", "item2"):
        ui = g.assignment[f"{item}_i"]
        us = g.assignment[f"{item}_s1"]
        assert g.connected(ui, us)
    # the two stars cannot fit into one gadget of spare capacity 1
    assert g.assignment["item1_s1"] != g.assignment["item2_s1"]


def test_embedding_negative_case_total_size():
    # total item size exceeds total bin capacity: refutable by counting
    b = BinPackingInstance((2, 2), 2, 1)
    assert not binpack_decide(b)
    inst, budget = binpack_to_pup_iucap2(b)
    res = solve(inst, SolveConfig(max_units=budget))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.precheck == "capacity"


def test_embedding_matches_packing_decisions():
    cases = [
        BinPackingInstance((1,), 1, 1),
        BinPackingInstance((1, 1), 1, 2),
        BinPackingInstance((1, 1), 2, 1),
        BinPackingInstance((1, 1, 1), 1, 2),
        BinPackingInstance((2, 1), 3, 1),
        BinPackingInstance((2, 2, 1), 2, 2),
    ]
    for b in cases:
        inst, budget = binpack_to_pup_iucap2(b)
        res = solve(inst, SolveConfig(max_units=budget, max_time_ms=60_000))
        assert res.outcome is not Outcome.TIMEOUT
        assert (res.outcome is Outcome.SATISFIABLE) == binpack_decide(b)


def test_bare_gadget_is_rigid():
    """Exhaustively: every complete solution of a single item-free gadget
    occupies exactly three pairwise partnered units."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((), 1, 1))
    sols = enumerate_solutions(inst, budget)
    assert sols
    for units, _ in sols:
        occupied = [k for k, (ic, sc, _) in enumerate(units) if ic or sc]
        assert len(occupied) == 3
        for k in occupied:
            assert units[k][2] == set(occupied) - {k}


def test_gadget_free_slots_match_bin_size():
    for bin_size in (1, 2, 3):
        b = BinPackingInstance((), bin_size, 1)
        inst, budget = binpack_to_pup_iucap2(b)
        res = solve(inst, SolveConfig(max_units=budget))
        assert res.outcome is Outcome.SATISFIABLE
        g = res.solution
        assert count_units(g) == 3
        free_ind = 3 * inst.ucap - len(inst.indicators)
        free_sen = 3 * inst.ucap - len(inst.sensors)
        assert free_ind == bin_size and free_sen == bin_size


# ===== one-line text format =====


def test_binpack_line_round_trip():
    for b in (
        BinPackingInstance((2, 2, 3), 5, 2),
        BinPackingInstance((1,), 1, 1),
        BinPackingInstance((), 4, 3),
    ):
        assert parse_binpack_line(emit_binpack_line(b)) == b


def test_binpack_line_examples():
    b = parse_binpack_line("items 2 2 3 ; binsize 5 ; bins 2")
    assert b == BinPackingInstance((2, 2, 3), 5, 2)
    assert parse_binpack_line("items ; binsize 2 ; bins 1").items == ()


@pytest.mark.parametrize("text", [
    "items 1 ; binsize 2",
    "binsize 2 ; bins 1",
    "items 1 ; binsize 2 ; bins 1 ; bins 2",
    "items 1 ; items 2 ; binsize 2 ; bins 1",
    "items x ; binsize 2 ; bins 1",
    "items 1 ; binsize ; bins 1",
    "items 1 ; binsize 2 2 ; bins 1",
    "items 1 ; binsize two ; bins 1",
    "items 1 ; binsize 2 ; bins 1 ; color red",
    "items 0 ; binsize 2 ; bins 1",
    "items 1 ; binsize 0 ; bins 1",
    "items 1 ; binsize 2 ; bins 0",
])
def test_binpack_line_errors(text):
    with pytest.raises(ValueError):
        parse_binpack_line(text)
