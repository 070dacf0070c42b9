"""Search components: element ordering, partial models, assign, minimize, solve."""

import copy
import dataclasses
import hashlib
import itertools
import json
import random
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pupsolver import (
    ElementOrder,
    Instance,
    Outcome,
    PartialModel,
    SearchStats,
    SolveConfig,
    Ternary,
    assign,
    breadth_first_order,
    component_precheck,
    count_units,
    degree_precheck,
    emit_solution,
    minimize,
    oracle_decide,
    parse_instance,
    solution_to_dot,
    solve,
    verify_solution,
)
from pupsolver import solver as solver_module
from pupsolver.reductions import binpack_to_pup_iucap2
from pupsolver.core import BinPackingInstance
from pupsolver.solver import (
    _boundaries,
    _component_order,
    _memo_hit,
    _residual,
    _search,
    _solve_rounds,
    _suffix,
)

from datagen import (
    all_small_bipartite,
    grid_instance,
    naive_decide,
    rail_instance,
    random_instance,
    twin_heavy_instance,
)


FAR_FUTURE = time.monotonic() + 3600.0
RAIL_PUP = Path(__file__).resolve().parent.parent / "instances" / "rail.pup"


def ladder_instance(w: int, ucap: int, iucap: int, n: int) -> Instance:
    """Rail band layout: indicator k reads sensors k..k+w-1."""
    ind = tuple(f"I{k}" for k in range(n))
    sen = tuple(f"S{k}" for k in range(n + w - 1))
    edges = tuple((ind[k], sen[k + j]) for k in range(n) for j in range(w))
    return Instance(ind, sen, edges, ucap, iucap)


# indicator c_a reads sensors d_a and d_(a-1): a 6-cycle over c0..c2, d0..d2
CYCLE_EDGES = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2))


def pairs_core_instance(k: int) -> Instance:
    """k isolated edges p_j-q_j, then a 6-cycle declared last, ucap 1, iucap 1.

    At ucap 1 / iucap 1 a connected component spans at most two partnered
    units (four elements), so the cycle has no placement; no degree exceeds
    2, so the degree precheck leaves it to the search.
    """
    ind = tuple(f"p{j}" for j in range(k)) + ("c0", "c1", "c2")
    sen = tuple(f"q{j}" for j in range(k)) + ("d0", "d1", "d2")
    edges = tuple((f"p{j}", f"q{j}") for j in range(k))
    edges += tuple((f"c{a}", f"d{b}") for a, b in CYCLE_EDGES)
    return Instance(ind, sen, edges, 1, 1)


# ===== breadth-first element order =====


def test_bfs_rail_from_i3():
    order = breadth_first_order("I3", rail_instance())
    assert order.start == "I3"
    assert order.sequence == ("I3", "S3", "S4", "I2", "S2", "S5", "I1", "S1", "S6")


def test_bfs_levels_and_index_tiebreak():
    """Independent check: distances from the start must be monotone along the
    order and equal-distance elements must appear in stable-index order."""
    inst = rail_instance()
    for start in inst.indicators:
        seq = breadth_first_order(start, inst).sequence
        dist = {start: 0}
        frontier = [start]
        while frontier:
            frontier = [
                nb
                for e in frontier
                for nb in (inst.elements[k] for k in inst.adjacency[inst.index[e]])
                if nb not in dist and dist.setdefault(nb, dist[e] + 1) is not None
            ]
        levels = [dist[e] for e in seq]
        assert levels == sorted(levels)
        for a, b in zip(seq, seq[1:]):
            if dist[a] == dist[b]:
                assert inst.index[a] < inst.index[b]


def test_bfs_covers_disconnected_components():
    inst = Instance(
        ("i1", "i2"), ("s1", "s2", "s3"), (("i1", "s1"),), 1, 0
    )
    order = breadth_first_order("i1", inst)
    # connected part first, then remaining components by lowest index:
    # indicator i2 (its own component), then isolated sensors
    assert order.sequence == ("i1", "s1", "i2", "s2", "s3")
    assert len(order.sequence) == len(inst.elements)


def test_bfs_rejects_sensor_start():
    with pytest.raises(ValueError):
        breadth_first_order("S1", rail_instance())


def test_bfs_random_orders_are_permutations():
    rng = random.Random(99)
    for _ in range(100):
        inst = random_instance(rng, min_ind=1)
        for start in inst.indicators:
            seq = breadth_first_order(start, inst).sequence
            assert sorted(seq) == sorted(inst.elements)
            assert seq[0] == start


# ===== partial model and the undo journal =====
#
# The model is driven through the journaled steps the search takes:
# elements by stable index (inst.index), units by creation index from 0; a
# placement on unit m._n_units opens a fresh unit.


def snapshot(m: PartialModel) -> tuple:
    """The model's structural state, for equality checks."""
    n = m._n_units
    return (
        tuple(m._elem_unit),
        tuple(tuple(sorted(p)) for p in m._partners[:n]),
        tuple((tuple(ind), tuple(sens)) for ind, sens in m._hosted[:n]),
    )


def check_counters(m: PartialModel) -> None:
    """Check the model's host lists and partner sets against each other and the caps."""
    n = m._n_units
    for u in range(n):
        for side, hosted in enumerate(m._hosted[u]):
            if len(hosted) > m.ucap:
                raise RuntimeError(f"unit {u} hosts more than ucap elements of one side")
            for e in hosted:
                if m._side[e] != side:
                    raise RuntimeError(f"element {e} is in the wrong side's list of unit {u}")
                if m._elem_unit[e] != u:
                    raise RuntimeError(f"element {e} is listed on unit {u} but placed on another")
        partners = m._partners[u]
        if u in partners:
            raise RuntimeError(f"unit {u} is its own partner")
        if len(partners) > m.iucap:
            raise RuntimeError(f"unit {u} has more than iucap partners")
        if partners and not any(m._hosted[u]):
            raise RuntimeError(f"empty unit {u} still has partners")
        if any(w >= n or u not in m._partners[w] for w in partners):
            raise RuntimeError(f"asymmetric partnership on unit {u}")
    for e, u in enumerate(m._elem_unit):
        if u >= 0 and m._hosted[u][m._side[e]].count(e) != 1:
            raise RuntimeError(f"element {e} is not listed once on its unit")


def test_assign_and_connect_same_unit_no_connection():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    assert m._place_idx(inst.index["i1"], m._n_units)
    assert m._place_idx(inst.index["s1"], 0)
    assert m._partners[0] == set()
    assert m._elem_unit[inst.index["s1"]] == 0


def test_assign_and_connect_creates_forced_partnership():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    m = PartialModel(inst)
    assert m._place_idx(inst.index["i1"], m._n_units)
    assert m._place_idx(inst.index["s1"], m._n_units)
    assert m._partners[0] == {1}
    assert m._partners[1] == {0}


def test_assign_and_connect_rejects_two_new_connections_at_iucap_1():
    inst = Instance(("i1",), ("s1", "s2"), (("i1", "s1"), ("i1", "s2")), 2, 1)
    i1, s1, s2 = (inst.index[e] for e in ("i1", "s1", "s2"))
    m = PartialModel(inst)
    assert m._place_idx(s1, m._n_units)
    assert m._place_idx(s2, m._n_units)
    before, journal = snapshot(m), list(m._journal)
    # i1 on a third unit would need connections to both units: the refused
    # placement opens no unit
    assert not m._place_idx(i1, m._n_units)
    assert snapshot(m) == before
    assert m._n_units == 2 and m._journal == journal
    # placing i1 with one of its neighbors only needs the one connection
    assert m._place_idx(i1, 0)
    assert m._partners[0] == {1}


def test_assign_and_connect_respects_side_capacity():
    inst = Instance(("i1", "i2"), (), (), 1, 0)
    m = PartialModel(inst)
    assert m._place_idx(inst.index["i1"], m._n_units)
    assert not m._place_idx(inst.index["i2"], 0)


def test_assign_and_connect_rejects_partner_on_full_neighbor_unit():
    inst = Instance(
        ("i1", "i2"), ("s1", "s2"),
        (("i1", "s1"), ("i2", "s2")), 1, 1
    )
    m = PartialModel(inst)
    assert m._place_idx(inst.index["i1"], m._n_units)
    assert m._place_idx(inst.index["s1"], m._n_units)  # u1-u2 partnered, both at iucap
    assert m._place_idx(inst.index["i2"], m._n_units)
    # s2 on u1 would force u3-u1, but u1 already has its single partner
    assert not m._place_idx(inst.index["s2"], 0)


def test_undo_restores_snapshot_exactly():
    inst = rail_instance()
    i1, s1, s2 = (inst.index[e] for e in ("I1", "S1", "S2"))
    m = PartialModel(inst)
    assert m._place_idx(i1, m._n_units)
    snap = snapshot(m)
    assert m._place_idx(s1, m._n_units)
    assert m._place_idx(s2, 1)
    m._unplace_idx(s2, 1)
    m._unplace_idx(s1, 1)  # s1 opened unit 1: undoing it closes the unit
    assert m._n_units == 1
    assert snapshot(m) == snap
    check_counters(m)


def test_undo_journal_mismatch_is_fatal():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    i1, s1 = inst.index["i1"], inst.index["s1"]
    m = PartialModel(inst)
    assert m._place_idx(i1, m._n_units)
    with pytest.raises(RuntimeError):
        m._unplace_idx(s1, 0)
    # undoing the placement that opened a unit closes it only when the unit
    # is then empty: here s1 is still on it, its entry taken off by hand
    m = PartialModel(inst)
    assert m._place_idx(i1, m._n_units)
    assert m._place_idx(s1, 0)
    m._journal.pop()
    with pytest.raises(RuntimeError, match="cannot be closed"):
        m._unplace_idx(i1, 0)


def test_randomized_place_undo_round_trips():
    rng = random.Random(1234)
    for _ in range(60):
        inst = random_instance(rng, min_ind=1, min_sens=1)
        m = PartialModel(inst)
        stack = []
        snaps = [snapshot(m)]
        for e in range(len(inst.elements)):
            # a fresh unit half the time, else the existing units in order
            # and a fresh one when none takes e; e stays unplaced if refused
            fresh = [m._n_units] if m._n_units < m.max_units else []
            candidates = fresh if rng.random() < 0.5 else [*range(m._n_units), *fresh]
            for u in candidates:
                if m._place_idx(e, u):
                    stack.append((e, u))
                    snaps.append(snapshot(m))
                    break
        check_counters(m)
        while stack:
            m._unplace_idx(*stack.pop())
            snaps.pop()
            assert snapshot(m) == snaps[-1]
        assert m._n_units == 0


# ===== assignment search =====


def _record_attempts(m: PartialModel) -> list:
    """Record each placement the search tries on m as (element, unit, kind),
    kind "fresh" for a placement on unit m._n_units, which would open it,
    else "existing", by wrapping m's _place_idx.  Units are labelled by
    creation index: "u1" for unit 0."""
    attempts = []
    place_idx = m._place_idx

    def place(e, u):
        kind = "fresh" if u == m._n_units else "existing"
        attempts.append((m.inst.elements[e], f"u{u + 1}", kind))
        return place_idx(e, u)

    m._place_idx = place
    return attempts


def test_assign_single_edge_instance():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    order = breadth_first_order("i1", inst)
    stats = SearchStats()
    r = assign(order, 0, m, FAR_FUTURE, max_units=2, stats=stats)
    assert r is Ternary.TRUE
    assert -1 not in m._elem_unit
    assert verify_solution(inst, m.to_solution_graph()) == []


def test_assign_reports_false_when_budget_too_small():
    # three sensors cannot fit on one unit at ucap 2
    inst = Instance(("i1",), ("s1", "s2", "s3"),
                    (("i1", "s1"), ("i1", "s2"), ("i1", "s3")), 2, 2)
    m = PartialModel(inst, max_units=1)
    order = breadth_first_order("i1", inst)
    r = assign(order, 0, m, FAR_FUTURE, max_units=1)
    assert r is Ternary.FALSE
    assert m.unit_count == 0  # fully unwound


def test_assign_timeout_returns_timeout():
    inst = rail_instance()
    m = PartialModel(inst)
    order = breadth_first_order("I1", inst)
    r = assign(order, 0, m, time.monotonic() - 1.0, max_units=9)
    assert r is Ternary.TIMEOUT
    assert snapshot(m) == snapshot(PartialModel(inst))
    assert m._journal == []


def test_assign_deadline_mid_search_leaves_model_as_found(monkeypatch):
    """A deadline that passes part-way through the search unwinds every
    placement the search made, and leaves those it found."""
    inst = ladder_instance(2, 2, 2, 30)
    m = PartialModel(inst)
    seq = breadth_first_order("I0", inst).sequence
    for e in seq[:2]:
        assert m._place_idx(inst.index[e], m._n_units)
    found = snapshot(m)
    ticks = itertools.count(1)  # every clock read advances the clock by 1 ms
    monkeypatch.setattr(solver_module.time, "monotonic", lambda: next(ticks) / 1000.0)
    stats = SearchStats()
    assert assign(ElementOrder("I0", seq), 2, m, 0.02, m.max_units, stats) is Ternary.TIMEOUT
    assert stats.nodes == 21  # one clock read per node: the 21st reads 21 ms
    assert snapshot(m) == found
    assert len(m._journal) == 2


def test_assign_rejects_an_order_that_is_not_breadth_first():
    """The component cut reads the visit order, so assign takes only the
    orders that breadth_first_order builds, or the index order of a
    sensor-only instance, which has no edges."""
    inst = rail_instance()
    m = PartialModel(inst)
    with pytest.raises(ValueError, match="breadth-first"):
        assign(ElementOrder("I1", inst.elements), 0, m, FAR_FUTURE, 9)
    assert snapshot(m) == snapshot(PartialModel(inst))
    sensors = Instance((), ("s1", "s2", "s3"), (), 1, 0)
    m = PartialModel(sensors)
    assert assign(ElementOrder(None, sensors.elements), 0, m, FAR_FUTURE, 3) is Ternary.TRUE
    assert m.unit_count == 3


def test_assign_branch_order_fresh_then_existing_in_creation_order():
    # i1 and i2 share sensor s1 but cannot share a unit at ucap 1; with the
    # budget capped at 2 the last element must walk the existing units
    inst = Instance(("i1", "i2"), ("s1",), (("i1", "s1"), ("i2", "s1")), 1, 2)
    m = PartialModel(inst, max_units=2)
    order = breadth_first_order("i1", inst)
    attempts = _record_attempts(m)
    r = assign(order, 0, m, FAR_FUTURE, max_units=2)
    assert r is Ternary.TRUE
    # i1 fresh u1; s1 fresh u2; then i2: fresh blocked (budget), u1 full,
    # u2 hosts it
    assert attempts == [
        ("i1", "u1", "fresh"),
        ("s1", "u2", "fresh"),
        ("i2", "u1", "existing"),
        ("i2", "u2", "existing"),
    ]


def test_assign_trace_existing_units_in_creation_order():
    inst = Instance(("i1", "i2", "i3"), (), (), 1, 0)
    m = PartialModel(inst, max_units=2)
    order = breadth_first_order("i1", inst)
    attempts = _record_attempts(m)
    r = assign(order, 0, m, FAR_FUTURE, max_units=2)
    assert r is Ternary.FALSE
    # i3 has no fresh unit left and must try u1 then u2 (both full)
    tail = [t for t in attempts if t[0] == "i3"]
    assert tail == [("i3", "u1", "existing"), ("i3", "u2", "existing")]


# ===== minimize =====


def test_minimize_merges_two_mergeable_units():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    assert m._place_idx(inst.index["i1"], m._n_units)
    assert m._place_idx(inst.index["s1"], m._n_units)
    assert m.unit_count == 2
    minimize(m)
    assert m.unit_count == 1
    assert m._journal == []  # the merges are not journaled: minimize ends the journal
    g = m.to_solution_graph()
    assert count_units(g) == 1
    assert verify_solution(inst, g) == []


def test_minimize_keeps_saturated_ring():
    """A solved bare bin gadget occupies three mutually partnered full units;
    no pair is mergeable (checked against a by-hand pair scan)."""
    b = BinPackingInstance((), 1, 1)
    inst, budget = binpack_to_pup_iucap2(b)
    res = solve(inst, SolveConfig(max_units=budget, minimize=False))
    assert res.outcome is Outcome.SATISFIABLE
    g = res.solution
    assert count_units(g) == 3

    # by-hand mergeability scan over the frozen graph
    hosted = g.occupied()[0]
    for a in g.units:
        for b_ in g.units:
            if a == b_:
                continue
            n_ind = sum(1 for e in hosted[a] + hosted[b_] if e in set(inst.indicators))
            n_sen = len(hosted[a]) + len(hosted[b_]) - n_ind
            # the partners of a and b_ in the symmetric closure, less a and b_
            merged_partners = {v for p in g.partners if a in p or b_ in p for v in p} - {a, b_}
            assert (
                n_ind > inst.ucap or n_sen > inst.ucap or len(merged_partners) > inst.iucap
            )

    res2 = solve(inst, SolveConfig(max_units=budget))
    assert count_units(res2.solution) == 3


def test_minimize_never_increases_units_random():
    rng = random.Random(555)
    for _ in range(200):
        inst = random_instance(rng, min_ind=1)
        res = solve(inst, SolveConfig(minimize=False))
        if res.outcome is not Outcome.SATISFIABLE:
            continue
        before = count_units(res.solution)
        res_min = solve(inst)
        after = count_units(res_min.solution)
        assert after <= before
        assert verify_solution(inst, res_min.solution) == []


def test_minimize_merges_partnered_pair_and_keeps_third_partner():
    # u1 {i1}, u2 {s1}, u3 {i2, i3} full; s1 partners both u1 and u3
    inst = Instance(("i1", "i2", "i3"), ("s1",), (("i1", "s1"), ("i2", "s1")), 2, 2)
    m = PartialModel(inst)
    u1, u2, u3 = 0, 1, 2
    for e, u in (("i1", u1), ("s1", u2), ("i2", u3), ("i3", u3)):
        assert m._place_idx(inst.index[e], u)
    assert m._partners[u2] == {u1, u3}
    minimize(m)
    check_counters(m)
    assert [any(h) for h in m._hosted] == [True, False, True]  # u2 merged into u1
    assert m._partners[u1] == {u3} and m._partners[u3] == {u1}
    assert verify_solution(inst, m.to_solution_graph()) == []


def test_minimize_merges_pair_sharing_a_partner():
    # u1 {i1} and u2 {i2} both partner the full unit u3 {i3, i4, s1, s2}
    inst = Instance(("i1", "i2", "i3", "i4"), ("s1", "s2"),
                    (("i1", "s1"), ("i2", "s1")), 2, 2)
    m = PartialModel(inst)
    u1, u2, u3 = 0, 1, 2
    for e, u in (("i1", u1), ("i2", u2), ("i3", u3), ("i4", u3), ("s1", u3), ("s2", u3)):
        assert m._place_idx(inst.index[e], u)
    assert m._partners[u3] == {u1, u2}
    minimize(m)
    check_counters(m)
    assert [any(h) for h in m._hosted] == [True, False, True]  # u2 merged into u1
    assert m._partners[u3] == {u1}
    assert verify_solution(inst, m.to_solution_graph()) == []


def test_check_counters_holds_after_assign_and_minimize():
    rng = random.Random(4242)
    instances = [ladder_instance(2, 2, 2, 60)]
    instances += [random_instance(rng, min_ind=1) for _ in range(300)]
    checked = 0
    for inst in instances:
        m = PartialModel(inst)
        order = breadth_first_order(inst.indicators[0], inst)
        if assign(order, 0, m, FAR_FUTURE, m.max_units) is not Ternary.TRUE:
            continue
        check_counters(m)
        minimize(m)
        check_counters(m)
        assert verify_solution(inst, m.to_solution_graph()) == []
        checked += 1
    assert checked > 100


def test_check_counters_rejects_broken_partner_sets():
    inst = Instance(("i1",), ("s1", "s2"), (("i1", "s1"),), 1, 1)
    corruptions = {
        "asymmetric": lambda m: m._partners[1].discard(0),
        "its own partner": lambda m: m._partners[0].add(0),
        "more than iucap": lambda m: (m._partners[0].add(2), m._partners[2].add(0)),
        "wrong side": lambda m: m._hosted[1][0].append(m._hosted[1][1].pop()),
        "placed on another": lambda m: m._elem_unit.__setitem__(1, 0),
        "more than ucap": lambda m: m._hosted[0][0].append(1),
        "empty unit": lambda m: (m._hosted[1][1].clear(), m._elem_unit.__setitem__(1, -1)),
    }
    for message, corrupt in corruptions.items():
        m = PartialModel(inst, max_units=3)
        for e in ("i1", "s1", "s2"):  # one unit each
            assert m._place_idx(inst.index[e], m._n_units)
        check_counters(m)
        corrupt(m)
        with pytest.raises(RuntimeError, match=message):
            check_counters(m)


def _reference_minimize(m: PartialModel) -> PartialModel:
    """The all-pairs scan that minimize replaced, kept as its oracle; empty
    units take no part."""
    ucap, iucap = m.ucap, m.iucap
    hosted, partners = m._hosted, m._partners
    n = m._n_units
    for a in range(n):
        for b in range(n):
            if a == b or not any(hosted[a]) or not any(hosted[b]):
                continue
            if len(hosted[a][0]) + len(hosted[b][0]) > ucap:
                continue
            if len(hosted[a][1]) + len(hosted[b][1]) > ucap:
                continue
            merged = (partners[a] | partners[b]) - {a, b}
            if len(merged) > iucap:
                continue
            for mine, theirs in zip(hosted[a], hosted[b]):
                for e in theirs:
                    m._elem_unit[e] = a
                mine.extend(theirs)
                theirs.clear()
            for w in partners[b] - {a}:
                partners[w].discard(b)
                partners[w].add(a)
            partners[a], partners[b] = merged, set()
    return m


def _minimize_matches_reference(m: PartialModel) -> bool:
    """Minimize m in place and check it against _reference_minimize on a copy.

    Returns True when some element ends on a later unit than it started on,
    which only a merge of a B created before its A can do.
    """
    before = list(m._elem_unit)
    ref = copy.deepcopy(m)
    _reference_minimize(ref)
    minimize(m)
    assert snapshot(m) == snapshot(ref)
    check_counters(m)
    return any(u > v >= 0 for u, v in zip(m._elem_unit, before))


def test_minimize_merges_a_unit_created_before_a():
    # u1 {i0} - u4 {s0} and u2 {s1} - u3 {i1}; at iucap 1, u1 takes u4
    # first, which frees u1 of partners so that u2 can then take u1
    inst = Instance(("i0", "i1"), ("s0", "s1"), (("i0", "s0"), ("i1", "s1")), 2, 1)
    m = PartialModel(inst)
    u1, u2, u3, u4 = 0, 1, 2, 3
    for e, u in (("i0", u1), ("s1", u2), ("i1", u3), ("s0", u4)):
        assert m._place_idx(inst.index[e], u)
    assert _minimize_matches_reference(m)
    assert [any(h) for h in m._hosted] == [False, True, False, False]  # all merged into u2


# (sensors per indicator, ucap, iucap) of the benchmark's five ladder rows
LADDER_SHAPES = ((2, 2, 2), (2, 1, 3), (3, 2, 3), (3, 3, 3), (2, 3, 2))


@pytest.mark.parametrize("shape", LADDER_SHAPES, ids=str)
def test_minimize_matches_reference_on_ladders(shape):
    inst = ladder_instance(*shape, 150)
    m = PartialModel(inst)
    order = breadth_first_order(inst.indicators[0], inst)
    assert assign(order, 0, m, FAR_FUTURE, m.max_units) is Ternary.TRUE
    _minimize_matches_reference(m)
    assert m.unit_count < len(inst.elements)


def test_minimize_matches_reference_on_seed_1729_sweep(monkeypatch):
    """Every model that solve() minimizes in the seed-1729 sweep: one per
    satisfiable answer, the 88 empty instances' empty models among them."""
    counts = {"models": 0, "b_before_a": 0}

    def checked(m):
        counts["models"] += 1
        counts["b_before_a"] += _minimize_matches_reference(m)
        return m

    monkeypatch.setattr(solver_module, "minimize", checked)
    rng = random.Random(1729)
    for _ in range(2000):
        solve(random_instance(rng), SolveConfig(max_time_ms=10_000))
    assert counts["models"] == 1809
    assert counts["b_before_a"] >= 1


@st.composite
def hand_built_models(draw):
    """Each element, in a drawn order, goes on a fresh unit (four times in
    five) or a drawn existing one, and is left unplaced when refused; every
    unit hosts an element, as after a search.  Mostly fresh units give many
    small partnered units, where merges that only the partner test tells
    apart and merges of a B created before its A both occur."""
    ind = tuple(f"i{k}" for k in range(draw(st.integers(1, 6))))
    sen = tuple(f"s{k}" for k in range(draw(st.integers(0, 6))))
    pairs = [(i, s) for i in ind for s in sen]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    inst = Instance(ind, sen, tuple(p for p, k in zip(pairs, keep) if k),
                    draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    m = PartialModel(inst)
    for e in draw(st.permutations(range(len(inst.elements)))):
        if not m._n_units or draw(st.integers(0, 4)) > 0:
            u = m._n_units
        else:
            u = draw(st.integers(0, m._n_units - 1))
        m._place_idx(e, u)
    return m


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(hand_built_models())
def test_minimize_matches_reference_on_hand_built_models(m):
    _minimize_matches_reference(m)


def test_minimize_scales_on_20001_element_ladder():
    """The model the search builds on this ladder with zero backtracks, one
    fresh unit per element, built without the search.  The unit
    count is the all-pairs scan's, which took about 10 s on this model."""
    inst = ladder_instance(2, 2, 2, 10_000)
    m = PartialModel(inst)
    for e in _component_order(m._nbr, 0):
        assert m._place_idx(e, m._n_units)
    t0 = time.perf_counter()
    minimize(m)
    elapsed = time.perf_counter() - t0
    check_counters(m)
    assert m.unit_count == 5001
    assert elapsed < 3.0


# ===== solve =====


def test_solve_rail_three_units():
    res = solve(rail_instance())
    assert res.outcome is Outcome.SATISFIABLE
    assert count_units(res.solution) == 3
    assert verify_solution(rail_instance(), res.solution) == []


def test_solve_unsat_star():
    inst = Instance(("hub",), ("a", "b", "c"),
                    (("hub", "a"), ("hub", "b"), ("hub", "c")), 1, 1)
    res = solve(inst)
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.precheck == "degree"


def test_solve_empty_instance():
    inst = Instance((), (), (), 1, 0)
    res = solve(inst)
    assert res.outcome is Outcome.SATISFIABLE
    assert res.solution.units == ()
    assert count_units(res.solution) == 0


def test_solve_sensor_only_instance():
    inst = Instance((), ("s1", "s2", "s3"), (), 2, 0)
    res = solve(inst)
    assert res.outcome is Outcome.SATISFIABLE
    assert count_units(res.solution) == 2
    assert verify_solution(inst, res.solution) == []
    # the one entry point is named after the sensor it starts from
    assert list(res.stats.per_entry_ms) == ["s1"]
    assert list(res.stats.as_dict()["per_entry_ms"]) == ["s1"]


def test_search_stats_as_dict_names_every_field_and_rounds_ms():
    stats = SearchStats(nodes=3, search_ms=1.23456, per_entry_ms={"i2": 2.5, "i1": 0.0004})
    rec = stats.as_dict()
    assert list(rec) == [f.name for f in dataclasses.fields(SearchStats)]
    assert (rec["nodes"], rec["search_ms"], rec["precheck"]) == (3, 1.235, None)
    # entries keep their start order, each ms rounded
    assert list(rec["per_entry_ms"].items()) == [("i2", 2.5), ("i1", 0.0)]
    assert json.loads(json.dumps(rec)) == rec
    assert stats.per_entry_ms["i1"] == 0.0004  # the stats themselves are not rounded


def test_solve_respects_unit_budget():
    inst = Instance((), ("s1", "s2", "s3"), (), 1, 0)
    res = solve(inst, SolveConfig(max_units=2))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.budget_limited
    assert solve(inst, SolveConfig(max_units=3)).outcome is Outcome.SATISFIABLE


def test_solve_timeout_on_hard_unsat():
    # four items of 2 in three bins of 3 escape the capacity precheck, and
    # the proof is far beyond 200 ms: still open after 6.1M nodes (20 s on
    # 2 vCPUs); three items of 2 in two bins of 3 are a proof of about 0.5M
    # nodes, only about 8x the budget
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((2, 2, 2, 2), 3, 3))
    res = solve(inst, SolveConfig(max_time_ms=200, max_units=budget))
    assert res.outcome is Outcome.TIMEOUT
    assert res.solution is None


def test_solve_stats_slices_within_budget():
    # still open after 6.1M nodes, so every entry without an earlier twin
    # starts (the seventh in the third round, after a few hundred nodes) and
    # runs until the deadline; the 24 indicators with an earlier twin never start
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((2, 2, 2, 2), 3, 3))
    budget_ms = 300
    res = solve(inst, SolveConfig(max_time_ms=budget_ms, max_units=budget))
    stats = res.stats
    assert res.outcome is Outcome.TIMEOUT
    assert list(stats.per_entry_ms) == [
        "item1_i", "item2_i", "item3_i", "item4_i", "bin1_i1", "bin2_i1", "bin3_i1"]
    total = sum(stats.per_entry_ms.values())
    # every entry runs under the one deadline, checked at every node, so the
    # entries together overrun it by one node at most, plus scheduling noise
    assert total <= budget_ms + 100
    rec = stats.as_dict()
    assert len(rec["per_entry_ms"]) == stats.entry_points_tried
    assert "backtracks" in rec and "freeze_ms" in rec


def test_solve_matches_oracle_small():
    rng = random.Random(31337)
    for _ in range(400):
        inst = random_instance(rng)
        res = solve(inst, SolveConfig(max_time_ms=10_000))
        assert res.outcome is not Outcome.TIMEOUT
        sat = oracle_decide(inst, max(len(inst.elements), 1))
        assert (res.outcome is Outcome.SATISFIABLE) == sat


def test_solve_deterministic_output():
    rng = random.Random(2)
    instances = [rail_instance()] + [random_instance(rng, min_ind=1) for _ in range(30)]
    for inst in instances:
        texts = set()
        for _ in range(3):
            res = solve(inst)
            if res.outcome is Outcome.SATISFIABLE:
                texts.add(emit_solution(res.solution))
            else:
                texts.add(res.outcome.value)
        assert len(texts) == 1


def test_solve_bytes_do_not_depend_on_clock_speed(monkeypatch):
    """Restarts are budgeted in nodes, so a clock that charges 1 ms per
    node only matters at the outer deadline.  Under wall-clock slices this
    packing was answered by entry 3 in real time and by entry 4 under the
    slow clock, with different bytes."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((1, 1, 2), 2, 2))
    cfg = SolveConfig(max_time_ms=10_000, max_units=budget)
    normal = solve(inst, cfg)
    ticks = itertools.count(1)  # every clock read advances the clock by 1 ms
    monkeypatch.setattr(solver_module.time, "monotonic", lambda: next(ticks) / 1000.0)
    slow = solve(inst, cfg)
    assert normal.outcome is slow.outcome is Outcome.SATISFIABLE
    assert emit_solution(slow.solution) == emit_solution(normal.solution)
    assert (slow.stats.entry_points_tried, slow.stats.nodes) == (
        normal.stats.entry_points_tried, normal.stats.nodes)


def test_solve_rounds_answer_from_a_later_entry():
    """Entries 1-3 start at item indicators and none finds a solution in
    its shares; entry 4 starts at a gadget indicator in the second round,
    with a quarter of that round's nodes, and answers in the third."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((1, 1, 1), 3, 2))
    res = solve(inst, SolveConfig(max_time_ms=200, max_units=budget))
    assert res.outcome is Outcome.SATISFIABLE
    assert verify_solution(inst, res.solution) == []
    stats = res.stats
    assert list(stats.per_entry_ms) == ["item1_i", "item2_i", "item3_i", "bin1_i1"]
    assert (stats.rounds, stats.nodes) == (3, 1128)
    assert stats.as_dict()["rounds"] == 3
    # the answer is entry 4's own first solution
    m = PartialModel(inst, budget)
    r, _ = _search(m, _entry_order(inst, "bin1_i1"), 0, FAR_FUTURE, sys.maxsize, SearchStats())
    assert r is Ternary.TRUE
    assert emit_solution(minimize(m).to_solution_graph()) == emit_solution(res.solution)


def test_solve_rounds_skip_twin_entries():
    """(3,) in 2 bins of 2: 12 of the 15 indicators have an earlier twin,
    whose search they would repeat, and never start.  Entry 1 alone proves
    the packing infeasible in 5,851 nodes (20,494 without the failed-boundary
    memo), entry 2 in 3,705; each resumes where its last slice stopped and
    the entries share one memo, so entry 2 ends the proof in the sixth round
    after 6,520 nodes, where restarting all 15 entries from node 0 in every
    round took 526,519."""
    inst, _ = binpack_to_pup_iucap2(BinPackingInstance((3,), 2, 2))
    res = solve(inst, SolveConfig(max_units=6, max_time_ms=60_000))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.nodes <= 40_000
    assert list(res.stats.per_entry_ms) == ["item1_i", "bin1_i1", "bin2_i1"]


@pytest.mark.parametrize("packing, outcome, entries, nodes", [
    (((3,), 2, 2), Outcome.UNSATISFIABLE, 3, 6_520),  # a proof over 6 rounds
    (((1, 1, 2), 3, 2), Outcome.SATISFIABLE, 4, 1_153),  # entry 4 answers
    (((1, 3), 2, 2), Outcome.UNSATISFIABLE, 4, 33_775),  # a proof over 8 rounds
], ids=["proof", "later-entry", "long-proof"])
def test_solve_builds_one_model_for_all_its_entries(monkeypatch, packing, outcome, entries, nodes):
    """Every entry runs on the solve's one model: a paused entry keeps only
    its visit order and its path, the unit of each placement, and replays
    the path when it resumes, counting no search node."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance(*packing))
    built = []
    init = PartialModel.__init__

    def counted_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(PartialModel, "__init__", counted_init)
    res = solve(inst, SolveConfig(max_time_ms=600_000, max_units=budget))
    assert res.outcome is outcome
    assert (res.stats.entry_points_tried, res.stats.nodes) == (entries, nodes)
    assert len(built) == 1


def test_solve_2x80_grid_with_harmonic_shares():
    """The 2x80 grid has 160 entries and no twins.  Entry p gets 1/p of
    each round and starts only once that share covers a search without
    backtracking, so the answer costs about 14.5k nodes, where giving every
    entry the whole budget in every round cost 906,521."""
    inst = grid_instance(2, 80)
    res = solve(inst)
    assert res.outcome is Outcome.SATISFIABLE
    assert verify_solution(inst, res.solution) == []
    assert res.stats.nodes <= 60_000


@pytest.mark.parametrize("packing, outcome", [
    (((2,), 1, 2), Outcome.UNSATISFIABLE),
    (((1, 1, 1), 3, 2), Outcome.SATISFIABLE),  # entry 4 answers in the third round
], ids=["proof", "later-entry"])
def test_solve_resumed_entries_do_not_depend_on_clock_speed(monkeypatch, packing, outcome):
    """Resumed entries are budgeted in nodes as well: under a clock that
    charges 1 ms per read, the answer keeps its outcome, bytes, nodes,
    rounds and entries."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance(*packing))
    cfg = SolveConfig(max_time_ms=600_000, max_units=budget)

    def record(res):
        text = emit_solution(res.solution) if res.solution is not None else None
        return res.outcome, text, res.stats.nodes, res.stats.rounds, list(res.stats.per_entry_ms)

    normal = record(solve(inst, cfg))
    ticks = itertools.count(1)  # every clock read advances the clock by 1 ms
    monkeypatch.setattr(solver_module.time, "monotonic", lambda: next(ticks) / 1000.0)
    assert record(solve(inst, cfg)) == normal
    assert normal[0] is outcome


def test_solve_memory_grows_by_an_order_and_a_path_per_paused_entry(monkeypatch):
    """A paused entry keeps its visit order and its path, at most 8 bytes
    per element each, and no search state: the 3x40 grid (317 elements),
    stopped by the deadline after 8 entries and after 32 under a clock that
    charges 1 ms per read, peaks at most 2 * 8 * n bytes higher per extra
    entry (tracemalloc).  A paused entry that kept its search's O(n) lists
    would cost about 13.8 KB per entry here."""
    inst = grid_instance(3, 40)
    n = len(inst.elements)
    ticks = itertools.count(1)  # every clock read advances the clock by 1 ms
    monkeypatch.setattr(solver_module.time, "monotonic", lambda: next(ticks) / 1000.0)
    peaks, entries = [], []
    for max_time_ms in (20_000, 90_000):
        tracemalloc.start()
        try:
            res = solve(inst, SolveConfig(max_time_ms=max_time_ms))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.outcome is Outcome.TIMEOUT
        entries.append(res.stats.entry_points_tried)
    assert entries == [8, 32]
    assert peaks[1] - peaks[0] <= 2 * 8 * n * (entries[1] - entries[0])


def _check_resumed_in_slices(inst: Instance, max_units: int, start: str | None, step: int) -> None:
    """Pause the search from start every step nodes, which leaves the model
    empty as the restart rounds need it, and resume it from the path it
    returned: it visits the nodes of one uninterrupted search, with the same
    result, counters, model state and journal."""
    order = _entry_order(inst, start)
    ref_m, ref_stats = PartialModel(inst, max_units), SearchStats()
    ref, _ = _search(ref_m, order, 0, FAR_FUTURE, sys.maxsize, ref_stats)
    m, stats, memo = PartialModel(inst, max_units), SearchStats(), {}
    fresh = snapshot(PartialModel(inst, max_units))
    r, path = _search(m, order, 0, FAR_FUTURE, step, stats, (), memo)
    while r is Ternary.TIMEOUT:  # a pause: the deadline is an hour away
        assert snapshot(m) == fresh
        r, path = _search(m, order, 0, FAR_FUTURE, stats.nodes + step, stats, path, memo)
    assert r is ref
    assert (stats.nodes, stats.backtracks, stats.refuted_from, stats.residual_hits) == (
        ref_stats.nodes, ref_stats.backtracks, ref_stats.refuted_from, ref_stats.residual_hits)
    assert snapshot(m) == snapshot(ref_m)
    assert m._journal == ref_m._journal


@pytest.mark.parametrize("inst, max_units, start", [
    (pairs_core_instance(3), 8, "p0"),  # exhausted in 67 nodes, 7 of them memo hits
    (pairs_core_instance(2), 10, "p0"),  # refuted by the component cut
    (*binpack_to_pup_iucap2(BinPackingInstance((1, 1), 1, 2)), "item1_i"),  # satisfiable
], ids=["exhausted", "refuted", "satisfiable"])
@pytest.mark.parametrize("step", [1, 7, 50])
def test_search_resumed_in_slices_matches_one_run(inst, max_units, start, step):
    _check_resumed_in_slices(inst, max_units, start, step)


def test_search_resumed_in_slices_matches_one_run_on_twin_heavy_instances():
    """A resume re-enters each replayed position with the unit range its
    twin rule gave it, so backtracking into a replayed twin tries the same
    units as in one run.  Every start of 100 twin-heavy instances, paused at
    every node."""
    rng = random.Random(5)
    for _ in range(100):
        inst = twin_heavy_instance(rng)
        for start in inst.indicators or (None,):
            _check_resumed_in_slices(inst, len(inst.elements), start, 1)


def test_search_replay_that_no_longer_fits_raises():
    """A resume replays its path with _place_idx; a placement that fails
    there means the path is not the search's own, and the search raises
    rather than go on from another state."""
    inst = Instance(("i0", "i1"), ("s0",), (("i0", "s0"), ("i1", "s0")), 1, 1)
    order = _entry_order(inst, "i0")  # i0, s0, i1: i1 finds unit 0 full
    with pytest.raises(RuntimeError, match="replay mismatch"):
        _search(PartialModel(inst), order, 0, FAR_FUTURE, sys.maxsize, SearchStats(), (0, 0, 0))


def test_solve_20001_element_ladder_end_to_end():
    """Entry 1 never backtracks here, so it finishes in round 0 whatever
    the machine's speed (wall-clock slices of 60 ms never let it finish)."""
    inst = ladder_instance(2, 2, 2, 10_000)
    n = len(inst.elements)
    assert n == 20_001
    t0 = time.monotonic()
    res = solve(inst)
    elapsed = time.monotonic() - t0
    assert res.outcome is Outcome.SATISFIABLE
    assert verify_solution(inst, res.solution) == []
    assert res.stats.entry_points_tried == 1 and res.stats.rounds == 1
    assert res.stats.nodes == n + 1
    assert elapsed < 5.0


def test_solve_leaves_recursion_limit_unchanged():
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for inst in (parse_instance(RAIL_PUP.read_text()), pairs_core_instance(8)):
            solve(inst)
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_solve_20001_element_ladder_at_recursion_limit_1000():
    """The search is a loop, so its depth in the visit order costs no stack."""
    inst = ladder_instance(2, 2, 2, 10_000)
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        res = solve(inst)
    finally:
        sys.setrecursionlimit(before)
    assert res.outcome is Outcome.SATISFIABLE
    assert verify_solution(inst, res.solution) == []


# ===== component cut =====


def _search_only(inst: Instance, max_units: int | None = None):
    """The restart rounds of solve without its prechecks: the component
    precheck would answer every pairs+core instance before any search."""
    budget = max_units if max_units is not None else max(len(inst.elements), 1)
    return _solve_rounds(inst, SolveConfig(max_units=max_units), budget, SearchStats(),
                         time.monotonic() + 2.0)


@pytest.mark.parametrize("k", [1, 3, 8, 16, 100])
def test_component_cut_refutes_pairs_core(k):
    """Without the cut the search backtracks through all placements of the
    k pairs (96,892 nodes at k = 8; k = 16 runs out of time).  The cut
    fires as soon as c0 has been searched on a fresh unit, not after c0 has
    also been tried on every unit of the pairs, so the proof is linear in
    k: 2k + 8 nodes and 7 backtracks."""
    res = _search_only(pairs_core_instance(k))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert (res.stats.nodes, res.stats.backtracks) == (2 * k + 8, 7)
    assert res.stats.entry_points_tried == 1
    assert res.stats.refuted_from == "c0"
    assert res.stats.as_dict()["refuted_from"] == "c0"


@pytest.mark.parametrize("k", [8, 16])
def test_assign_component_cut_returns_false_and_unwinds(k):
    inst = pairs_core_instance(k)
    m = PartialModel(inst)
    stats = SearchStats()
    r = assign(breadth_first_order("p0", inst), 0, m, FAR_FUTURE, len(inst.elements), stats)
    assert r is Ternary.FALSE
    assert stats.nodes <= 100 and stats.refuted_from == "c0"
    assert snapshot(m) == snapshot(PartialModel(inst))
    assert m._journal == []


def test_component_cut_needs_room_for_the_suffix():
    # with fewer unused units than suffix elements the cut may not fire: the
    # search exhausts the prefix, and the failed-boundary memo skips each
    # prefix that leaves a residual already refuted; the answer is still UNSAT
    inst = pairs_core_instance(3)
    res = _search_only(inst, max_units=8)
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.refuted_from is None
    assert res.stats.residual_hits > 0
    assert not oracle_decide(inst, 8)


def _check_against_oracle(inst: Instance, max_units: int | None) -> None:
    n = len(inst.elements)
    budget = max_units if max_units is not None else max(n, 1)
    res = solve(inst, SolveConfig(max_time_ms=10_000, max_units=max_units))
    assert res.outcome is not Outcome.TIMEOUT
    sat = oracle_decide(inst, budget)
    assert (res.outcome is Outcome.SATISFIABLE) == sat
    if budget ** n <= 256:
        assert naive_decide(inst, budget) == sat
    if res.outcome is Outcome.SATISFIABLE:
        assert verify_solution(inst, res.solution) == []
        assert count_units(res.solution) <= budget


@st.composite
def disjoint_unions(draw):
    """1-4 components, at most 10 elements, sometimes the 6-cycle core."""
    ind: list[str] = []
    sen: list[str] = []
    edges: list[tuple[str, str]] = []
    for c in range(draw(st.integers(1, 4))):
        room = 10 - len(ind) - len(sen)
        if room < 1:
            break
        if room >= 6 and draw(st.integers(0, 3)) == 0:
            ci = [f"c{c}i{a}" for a in range(3)]
            cs = [f"c{c}s{b}" for b in range(3)]
            ind += ci
            sen += cs
            edges += [(ci[a], cs[b]) for a, b in CYCLE_EDGES]
            continue
        n_ind = draw(st.integers(0, min(3, room)))
        n_sen = draw(st.integers(0 if n_ind else 1, min(3, room - n_ind)))
        ci = [f"c{c}i{a}" for a in range(n_ind)]
        cs = [f"c{c}s{b}" for b in range(n_sen)]
        pairs = [(i, s) for i in ci for s in cs]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        ind += ci
        sen += cs
        edges += [p for p, k in zip(pairs, keep) if k]
    inst = Instance(tuple(ind), tuple(sen), tuple(edges),
                    draw(st.integers(1, 2)), draw(st.integers(0, 3)))
    n = len(inst.elements)
    max_units = draw(st.sampled_from([None, max(n // 2, 1), max(n - 1, 1)]))
    return inst, max_units


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(disjoint_unions())
def test_component_cut_agrees_with_oracle_on_disjoint_unions(case):
    _check_against_oracle(*case)


@pytest.mark.parametrize("iucap", [0, 1, 2, 3])
def test_component_cut_agrees_with_oracle_exhaustive(iucap):
    for inst in all_small_bipartite(6, iucap=iucap):
        _check_against_oracle(inst, None)
        _check_against_oracle(inst, max(len(inst.elements) // 2, 1))


def _check_order_invariant(inst: Instance) -> None:
    """The facts the component cut reads from each entry's visit order: a
    position k > 0 has no earlier neighbour exactly when no edge joins
    order[:k] to order[k:], and each component starts after the previous
    one ends (component labels by union-find, apart from the order)."""
    label = list(range(len(inst.elements)))

    def root(e: int) -> int:
        while label[e] != e:
            e = label[e]
        return e

    for e, nbrs in enumerate(inst.adjacency):
        for nb in nbrs:
            label[root(nb)] = root(e)
    for start in inst.indicators or (None,):
        order = _entry_order(inst, start)
        pos = {e: k for k, e in enumerate(order)}
        cuts = _cut_positions(inst.adjacency, order)
        assert _boundaries(inst.adjacency, order, 0) == cuts
        for k, e in enumerate(order):
            if k:
                assert cuts[k] == all(pos[nb] > k for nb in inst.adjacency[e])
        runs = [c for c, _ in itertools.groupby(root(e) for e in order)]
        assert len(runs) == len(set(runs))


def test_component_order_invariant_on_sweep_and_twin_heavy_instances():
    rng = random.Random(1729)
    for _ in range(2000):
        _check_order_invariant(random_instance(rng))
    rng = random.Random(8)
    for _ in range(300):
        _check_order_invariant(twin_heavy_instance(rng))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(disjoint_unions())
def test_component_order_invariant_on_disjoint_unions(case):
    _check_order_invariant(case[0])


# ===== component precheck =====


def _check_component_precheck(inst: Instance) -> None:
    """A component refutation is oracle-UNSAT at every budget; at iucap <= 1
    an instance that passes it is oracle-SAT at the default budget."""
    n = len(inst.elements)
    refuted = bool(component_precheck(inst))
    if refuted:
        assert not any(oracle_decide(inst, units) for units in range(1, n + 1)), inst
    elif inst.iucap <= 1:
        assert oracle_decide(inst, max(n, 1)), inst


@pytest.mark.parametrize("iucap", [0, 1, 2])
def test_component_precheck_agrees_with_oracle_exhaustive(iucap):
    """Every instance of at most 6 elements (2606 per iucap); iucap 2 checks
    that the precheck refutes nothing a partner chain can place."""
    for inst in all_small_bipartite(6, iucap=iucap):
        _check_component_precheck(inst)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(disjoint_unions())
def test_component_precheck_agrees_with_oracle_on_disjoint_unions(case):
    _check_component_precheck(case[0])


def _iucap1_path(k: int, ucap: int) -> Instance:
    """i_j - s_j and i_(j+1) - s_j: one component of k indicators and k sensors."""
    ind = tuple(f"i{j}" for j in range(k))
    sen = tuple(f"s{j}" for j in range(k))
    edges = tuple((ind[j], sen[j]) for j in range(k))
    edges += tuple((ind[j + 1], sen[j]) for j in range(k - 1))
    return Instance(ind, sen, edges, ucap, 1)


@pytest.mark.parametrize("ucap, k", [(4, 9), (5, 11), (6, 13)])
def test_component_precheck_refutes_iucap1_paths_without_search(ucap, k):
    """2 * ucap + 1 indicators in one component at iucap 1.  No degree
    exceeds 2, and the search took 186,889 nodes at ucap 4 and 2.23M at
    ucap 5, and ran out of 60 s after 27.9M nodes at ucap 6."""
    inst = _iucap1_path(k, ucap)
    assert degree_precheck(inst) == []
    res = solve(inst)
    assert res.outcome is Outcome.UNSATISFIABLE
    assert (res.stats.precheck, res.stats.nodes) == ("component", 0)
    assert component_precheck(inst) == ["i0"]
    # one indicator fewer fits on two partnered units
    assert solve(_iucap1_path(k - 1, ucap)).outcome is Outcome.SATISFIABLE


def test_precheck_answer_reports_its_time():
    """search_ms covers the prechecks too, so the component precheck's
    pass over the 202 elements of this path shows in it."""
    res = solve(_iucap1_path(101, 50))
    assert (res.stats.precheck, res.stats.nodes) == ("component", 0)
    assert res.stats.search_ms > 0.0


# ===== twin rule =====


def _entry_order(inst: Instance, start: str | None) -> tuple[int, ...]:
    """The visit order of the entry at start, None being the sensor-only
    entry (element 0); empty for an empty instance, which solve never
    searches."""
    if not inst.elements:
        return ()
    return _component_order(inst.adjacency, 0 if start is None else inst.index[start])


def _entry_search(inst: Instance, start: str | None, max_units: int, twins: bool = True,
                  node_limit: int = sys.maxsize):
    """One entry's search from an empty model, with the twin rule or, when
    twins is off, without it (every element its own twin class)."""
    m = PartialModel(inst, max_units)
    if not twins:
        m._twin = list(range(len(inst.elements)))
    stats = SearchStats()
    order = _entry_order(inst, start)
    r, _ = _search(m, order, 0, FAR_FUTURE, node_limit, stats)
    return r, stats, snapshot(m)


def test_twin_rule_keeps_first_solution_on_seed_1729_sweep():
    """The rule only cuts subtrees without a solution, so every entry of
    every instance of the seed-1729 sweep, at the default unit budget and
    at half of it, finds the same first solution as without it, and needs
    no more nodes unless the component cut ended either search."""
    rng = random.Random(1729)
    same = fewer = 0
    for _ in range(2000):
        inst = random_instance(rng)
        n = len(inst.elements)
        for start in inst.indicators or (None,):
            for max_units in {max(n, 1), max(n // 2, 1)}:
                r, stats, snap = _entry_search(inst, start, max_units)
                r0, stats0, snap0 = _entry_search(inst, start, max_units, twins=False)
                assert r is r0
                if r is Ternary.TRUE:
                    assert snap == snap0
                    same += 1
                if stats.refuted_from is None and stats0.refuted_from is None:
                    assert stats.nodes <= stats0.nodes
                fewer += stats.nodes < stats0.nodes
    assert same > 0 and fewer > 0


def test_twin_rule_agrees_with_oracle_on_twin_heavy_instances():
    """Instances of up to 11 elements, most of them copies of another
    element's neighbour set, at five unit budgets each."""
    rng = random.Random(8)
    for _ in range(1200):
        inst = twin_heavy_instance(rng)
        n = len(inst.elements)
        for max_units in {n, max(n // 2, 1), max(n // 3, 1), 2, 3}:
            _check_against_oracle(inst, max_units)


def test_twin_rule_refutes_two_items_in_bins_of_one():
    """Every indicator of a gadget has the same neighbours, and so does
    every sensor.  Without the rule the search enumerates them and runs out
    of any time budget here; with it the answer is a proof."""
    inst, _ = binpack_to_pup_iucap2(BinPackingInstance((2,), 1, 2))
    res = solve(inst, SolveConfig(max_units=6, max_time_ms=60_000))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.nodes <= 25_000


def test_twin_rule_keeps_bytes_of_one_one_in_bins_of_one():
    """The same bytes as without the rule, in 685 nodes instead of 4552."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((1, 1), 1, 2))
    res = solve(inst, SolveConfig(max_units=budget, max_time_ms=60_000))
    assert res.outcome is Outcome.SATISFIABLE
    assert hashlib.sha256(emit_solution(res.solution).encode()).hexdigest() == (
        "24542a06a0131606e356f9a0bc2b03954e3205be00d5882c6f2fa12b779ab29b"
    )
    assert res.stats.nodes <= 1000


# ===== failed-boundary memo =====


def _multi_component_instance(rng: random.Random) -> tuple[Instance, int]:
    """13-30 elements in connected components of 2-6, ids shuffled within
    each side, and a tight unit budget: the capacity bound or one more."""
    ucap, iucap = rng.randint(1, 2), rng.randint(0, 2)
    ind: list[str] = []
    sen: list[str] = []
    edges: list[tuple[str, str]] = []
    target = rng.randint(13, 30)
    while len(ind) + len(sen) < target:
        c = len(ind) + len(sen)
        ci = [f"c{c}i{a}" for a in range(rng.randint(1, 3))]
        cs = [f"c{c}s{b}" for b in range(rng.randint(1, 3))]
        # a spanning tree keeps the component connected, then random edges
        comp = {(ci[0], cs[0])}
        comp |= {(x, rng.choice(cs)) for x in ci[1:]} | {(rng.choice(ci), y) for y in cs[1:]}
        comp |= {(x, y) for x in ci for y in cs if rng.random() < 0.3}
        ind += ci
        sen += cs
        edges += sorted(comp)
    rng.shuffle(ind)
    rng.shuffle(sen)
    low = max(-(-len(ind) // ucap), -(-len(sen) // ucap))
    return Instance(tuple(ind), tuple(sen), tuple(edges), ucap, iucap), low + rng.randint(0, 1)


@pytest.mark.parametrize("packing, most, hits", [
    (((3,), 2, 2), 12_000, 190),  # 34,512 nodes without the memo
    (((1, 3), 2, 2), 60_000, 1_262),  # 196,020
    (((2,), 1, 2), 1_500, 32),  # 2,797
], ids=["three-in-twos", "one-three-in-twos", "two-in-ones"])
def test_memo_shortens_bin_packing_proofs(packing, most, hits):
    """Each gadget's search repeats after every prefix of the others, and
    most prefixes leave the same free units behind: the memo refutes each
    such residual once.  residual_hits counts the subtrees it skipped."""
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance(*packing))
    res = solve(inst, SolveConfig(max_units=budget, max_time_ms=600_000))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.nodes <= most
    assert res.stats.residual_hits == res.stats.as_dict()["residual_hits"] == hits


@pytest.mark.parametrize("k, most", [(16, 600), (40, 2_000)])
def test_memo_makes_pairs_core_linear_under_a_tight_budget(k, most):
    """At max_units = 2k + 2 the pairs on units of their own leave the core
    too few units for the cut, so the search backtracks through the pairs'
    placements until enough of them share a unit: 3,564 nodes at k = 16 and
    20,604 at k = 40 without the memo, quadratic in k.  With it, each
    residual the core failed on is refuted once: 466 and 1,058 nodes."""
    res = _search_only(pairs_core_instance(k), 2 * k + 2)
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.residual_hits > 0
    assert res.stats.nodes <= most


def test_memo_stays_off_at_the_default_budget(monkeypatch):
    """At the default budget the cut always has room, so the memo's boundary
    table is never built and no residual is looked up or recorded: each node
    pays one test.  The seed-1729 sweep keeps its 8,546 nodes and 14
    backtracks, and the five benchmark ladder shapes their n + 1 nodes."""
    def never(*args):
        raise AssertionError("the memo ran at the default unit budget")

    monkeypatch.setattr(solver_module, "_boundaries", never)
    rng = random.Random(1729)
    nodes = backtracks = 0
    for _ in range(2000):
        res = solve(random_instance(rng), SolveConfig(max_time_ms=10_000))
        assert res.stats.residual_hits == 0
        nodes += res.stats.nodes
        backtracks += res.stats.backtracks
    assert (nodes, backtracks) == (8_546, 14)
    for shape in LADDER_SHAPES:
        inst = ladder_instance(*shape, 300)
        res = solve(inst)
        assert (res.stats.nodes, res.stats.residual_hits) == (len(inst.elements) + 1, 0)


def test_memo_keeps_every_entrys_first_solution(monkeypatch):
    """Only subtrees without a solution are skipped: every entry of 120
    multi-component instances at tight budgets gives the same answer and
    the same first solution with the memo as without it (a search cut at
    10,000 nodes is left out)."""
    rng = random.Random(25)
    compared = hit = 0
    for _ in range(120):
        inst, max_units = _multi_component_instance(rng)
        for start in inst.indicators:
            r, stats, snap = _entry_search(inst, start, max_units, node_limit=10_000)
            with monkeypatch.context() as mp:
                mp.setattr(solver_module, "_memo_hit", lambda *args: False)
                r0, _, snap0 = _entry_search(inst, start, max_units, node_limit=10_000)
            if Ternary.TIMEOUT in (r, r0):
                continue
            assert r is r0 and snap == snap0, (inst, max_units, start)
            compared += 1
            hit += stats.residual_hits > 0
    assert compared > 1000 and hit > 100


def test_memo_suffix_names_determine_the_suffix():
    """One memo serves every entry of a solve, keyed by the suffix's
    constant-size name: over every entry order of an instance, boundaries
    with one name have one set of elements after them."""
    rng = random.Random(26)
    for _ in range(300):
        inst, _ = _multi_component_instance(rng)
        named: dict = {}
        for start in inst.indicators:
            order = _entry_order(inst, start)
            for i, at in enumerate(_boundaries(inst.adjacency, order, 0)):
                if at:
                    suffix = frozenset(order[i:])
                    assert named.setdefault(_suffix(order, i), suffix) == suffix


def _prefix_model(inst: Instance, max_units: int, units: dict[str, int]):
    """The entry order from inst's first indicator, with its first
    len(units) elements placed on the units named for them."""
    order = _entry_order(inst, inst.indicators[0])
    i = len(units)
    m = PartialModel(inst, max_units)
    for e in order[:i]:
        assert m._place_idx(e, units[inst.elements[e]])
    return m, order, i


def _check_residual_field(inst: Instance, fit: tuple, fail: tuple, field: int) -> None:
    """fit and fail are (max_units, units) of two prefixes of one entry
    order that end at the same boundary.  The suffix fits after fit and not
    after fail, and their residual keys differ in one part alone (0 the
    unopened count, 1 the unit labels, 2 the partnerships), so a key that
    lost what tells them apart would let the memo refute the suffix after fit."""
    (m1, order, i), (m0, _, _) = _prefix_model(inst, *fit), _prefix_model(inst, *fail)
    k1, k0 = _residual(m1), _residual(m0)
    assert [a == b for a, b in zip(k1, k0)] == [part != field for part in range(3)]
    memo = {_suffix(order, i): {k0}}  # fail's residual on record
    assert _memo_hit(m0, order, i, memo, []) and not _memo_hit(m1, order, i, memo, [])
    assert _search(m0, order, i, FAR_FUTURE, sys.maxsize, SearchStats())[0] is Ternary.FALSE
    assert _search(m1, order, i, FAR_FUTURE, sys.maxsize, SearchStats())[0] is Ternary.TRUE


def test_memo_key_holds_the_unopened_unit_count():
    """i0 on a unit of its own leaves a free sensor slot; the edge i1-s0 at
    iucap 0 needs a unit with both slots free, so a fresh one.  In one solve
    the labels fix the unit count (their free slots sum to 2 * ucap * units
    less the prefix), so the count tells budgets apart: 2 units and 1."""
    inst = Instance(("i0", "i1"), ("s0",), (("i1", "s0"),), 1, 0)
    _check_residual_field(inst, (2, {"i0": 0}), (1, {"i0": 0}), 0)


def test_memo_key_holds_free_partner_slots():
    """At ucap 1 and iucap 1 the star i2-s0, i2-s2 needs a fresh unit for
    i2 and one sensor, and a free sensor slot on a unit that can still take
    a partner.  i0 alone keeps its partner slot; i0 beside s1, whose i1 is
    on another unit, leaves that unit the free sensor slot and no partner
    slot."""
    inst = Instance(("i0", "i1", "i2"), ("s0", "s1", "s2"),
                    (("i1", "s1"), ("i2", "s0"), ("i2", "s2")), 1, 1)
    _check_residual_field(inst, (3, {"i0": 0, "i1": 1, "s1": 1}),
                          (3, {"i0": 0, "i1": 1, "s1": 0}), 1)


def test_memo_key_holds_free_slots_per_side():
    """At ucap 1, iucap 2 and no unit left, the star i2-s1, i2-s3 needs the
    one unit with a free indicator slot to partner both units with a free
    sensor slot.  Both prefixes of i0 and the path i1-s0-i3-s2 leave three
    units with one free slot each, and 2, 1 and 0 free partner slots, the
    last two partnered; after fit the free indicator slot is on the unit
    with 1 partner slot, after fail on the unit with none."""
    inst = Instance(("i0", "i1", "i2", "i3"), ("s0", "s1", "s2", "s3"),
                    (("i1", "s0"), ("i2", "s1"), ("i2", "s3"), ("i3", "s0"), ("i3", "s2")), 1, 2)
    _check_residual_field(inst, (4, {"i0": 0, "i1": 1, "s0": 1, "i3": 2, "s2": 3}),
                          (4, {"i0": 0, "i1": 1, "s0": 2, "i3": 3, "s2": 3}), 1)


def test_memo_key_holds_partnerships_among_open_units():
    """At ucap 1, iucap 2 and no unit left, the edge i3-s0 needs the unit
    with a free indicator slot and the one with a free sensor slot to be
    partners: the path s3-i0-s1-i1-s2-i2 leaves the same two labels either
    way, partnered after fit, and after fail not, with no slot to partner."""
    inst = Instance(("i0", "i1", "i2", "i3"), ("s0", "s1", "s2", "s3"),
                    (("i0", "s1"), ("i0", "s3"), ("i1", "s1"), ("i1", "s2"), ("i2", "s2"),
                     ("i3", "s0")), 1, 2)
    _check_residual_field(inst, (4, {"i0": 0, "s1": 1, "s3": 2, "i1": 1, "s2": 3, "i2": 3}),
                          (4, {"i0": 0, "s1": 0, "s3": 1, "i1": 2, "s2": 3, "i2": 3}), 2)


# ===== the search loop against its recursive reference =====


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


# The recursive search that _search replaced, kept as its oracle with its
# private result for the component cut, and given the twin rule and the
# failed-boundary memo in recursive form: prev[i] is the position of the
# previous twin of order[i] (-1 when there is none), before[k] the unit
# count before position k was placed, and memo maps the set of elements of
# a suffix to its failed residuals.  Its cut and its boundaries read
# _cut_positions, which holds for any order, where _search reads the placed
# neighbours of a breadth-first one.
_REFUTED = object()


def _reference_assign(
    m: PartialModel,
    order: tuple[int, ...],
    i: int,
    deadline: float,
    node_limit: int,
    max_units: int,
    stats: SearchStats,
    trace: list | None,
    cuts: list[bool],
    prev: list[int],
    before: list[int],
    memo: dict,
    first: int,
) -> Ternary:
    stats.nodes += 1
    if i >= len(order):
        return Ternary.TRUE
    if stats.nodes > node_limit or time.monotonic() > deadline:
        return Ternary.TIMEOUT
    e = order[i]
    # the failed-boundary memo, where the cut has no room for the suffix
    suffix = None
    if max_units - m._n_units < len(order) - i and i > first:
        if not cuts:
            cuts.extend(_cut_positions(m._nbr, order))
        if cuts[i]:
            suffix = frozenset(order[i:])
            if _residual(m) in memo.get(suffix, ()):
                stats.residual_hits += 1
                stats.backtracks += 1
                return Ternary.FALSE
    # the twin rule: after a previous twin that went on an existing unit w,
    # with b units before it, only the existing units w .. b - 1
    lo, hi = 0, None
    j = prev[i]
    if j >= 0 and m._elem_unit[order[j]] != before[j]:
        lo, hi = m._elem_unit[order[j]], before[j]
    before[i] = m._n_units
    # one fresh unit first: fresh units are interchangeable, so a single
    # representative preserves completeness
    if hi is None and m._n_units < max_units:
        u = m._n_units
        if trace is not None:
            trace.append((m.inst.elements[e], f"u{u + 1}", "fresh"))
        if m._place_idx(e, u):
            r = _reference_assign(m, order, i + 1, deadline, node_limit, max_units, stats, trace,
                                  cuts, prev, before, memo, first)
            if r is not Ternary.FALSE:
                return r
            m._unplace_idx(e, u)
        # component cut, once the fresh-unit subtree is exhausted; ``cuts``
        # starts empty and is filled on first use, so a search that never
        # gets here pays nothing for it
        if max_units - m._n_units >= len(order) - i:
            if not cuts:
                cuts.extend(_cut_positions(m._nbr, order))
            if cuts[i]:
                stats.refuted_from = m.inst.elements[e]
                return _REFUTED
    # then every allowed existing unit in creation order
    for u in range(lo, m._n_units if hi is None else hi):
        if trace is not None:
            trace.append((m.inst.elements[e], f"u{u + 1}", "existing"))
        if m._place_idx(e, u):
            r = _reference_assign(m, order, i + 1, deadline, node_limit, max_units, stats, trace,
                                  cuts, prev, before, memo, first)
            if r is not Ternary.FALSE:
                return r
            m._unplace_idx(e, u)
    stats.backtracks += 1
    if suffix is not None:
        memo.setdefault(suffix, set()).add(_residual(m))
    return Ternary.FALSE


def _reference_prev_twins(inst: Instance, order: tuple[int, ...], first: int) -> list[int]:
    """The previous twin of each position, by a scan: the last position in
    first..k-1 with the same side and neighbours, else -1."""
    indicators = set(inst.indicators)

    def key(e: int) -> tuple:
        return inst.elements[e] in indicators, inst.adjacency[e]

    return [max((j for j in range(first, k) if key(order[j]) == key(order[k])), default=-1)
            for k in range(len(order))]


def _assign_matches_reference(
    inst: Instance, start: str | None, max_units: int, node_limit: int = sys.maxsize,
    first: int = 0,
) -> str:
    """Search inst from start with _search and with _reference_assign, each
    on a fresh model with order[:first] placed on fresh units, from position
    first, and check that both give the same result, counters, placement
    attempts, model state and journal.  At every answer but TRUE, _search
    leaves its model as it found it, and the path it returns, placed on
    that model, gives the reference's state.  Returns a label for the
    outcome: "true", "false", "refuted" or "timeout"."""
    order = _entry_order(inst, start)

    def prefix_model() -> PartialModel:
        m = PartialModel(inst, max_units)
        for e in order[:first]:
            assert m._place_idx(e, m._n_units)
        return m

    m, stats = prefix_model(), SearchStats()
    attempts = _record_attempts(m)
    r, path = _search(m, order, first, FAR_FUTURE, node_limit, stats)
    ref_m, ref_stats, ref_attempts = prefix_model(), SearchStats(), []
    ref = _reference_assign(ref_m, order, first, FAR_FUTURE, node_limit, max_units, ref_stats,
                            ref_attempts, [], _reference_prev_twins(inst, order, first),
                            [0] * len(order), {}, first)
    assert r is (Ternary.FALSE if ref is _REFUTED else ref)
    assert (stats.nodes, stats.backtracks, stats.refuted_from, stats.residual_hits) == (
        ref_stats.nodes, ref_stats.backtracks, ref_stats.refuted_from, ref_stats.residual_hits)
    assert attempts == ref_attempts
    if r is not Ternary.TRUE:
        found = prefix_model()
        assert snapshot(m) == snapshot(found) and m._journal == found._journal
        assert path == tuple(entry[1] for entry in ref_m._journal[first:])
        for e, u in zip(order[first:], path):
            assert m._place_idx(e, u)
    assert snapshot(m) == snapshot(ref_m)
    assert m._journal == ref_m._journal
    return "refuted" if ref is _REFUTED else r.value


def test_assign_matches_reference_on_seed_1729_sweep():
    """Every entry order of every instance of the seed-1729 sweep, at the
    default unit budget and at half of it, from position 0 and from
    position 1 with the entry element already placed."""
    rng = random.Random(1729)
    labels: Counter = Counter()
    for _ in range(2000):
        inst = random_instance(rng)
        n = len(inst.elements)
        for start in inst.indicators or (None,):
            for max_units in {max(n, 1), max(n // 2, 1)}:
                for first in range(min(n, 1) + 1):
                    labels[_assign_matches_reference(inst, start, max_units, first=first)] += 1
    assert labels["true"] > 0 and labels["false"] > 0 and labels["refuted"] > 0
    assert labels["timeout"] == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(disjoint_unions())
def test_assign_matches_reference_on_disjoint_unions(case):
    inst, max_units = case
    budget = max_units if max_units is not None else max(len(inst.elements), 1)
    for start in inst.indicators or (None,):
        _assign_matches_reference(inst, start, budget)


# needs: the least node limit under which the search finishes; the leaf
# that answers TRUE returns before the limit test, so it needs one node less
@pytest.mark.parametrize("inst, max_units, start, needs, result", [
    # the cut has no room at 8 units: the memo cuts the 163-node tree to 67
    (pairs_core_instance(3), 8, "p0", 67, "false"),
    (pairs_core_instance(2), 10, "p0", 12, "refuted"),
    # (1, 1) in 2 bins of size 1: 73 nodes, 48 backtracks
    (*binpack_to_pup_iucap2(BinPackingInstance((1, 1), 1, 2)), "item1_i", 72, "true"),
], ids=["exhausted", "refuted", "satisfiable"])
def test_assign_matches_reference_at_every_node_limit(inst, max_units, start, needs, result):
    """A node limit stops both searches at the same node, in the same state."""
    for limit in range(1, needs + 2):
        label = _assign_matches_reference(inst, start, max_units, limit)
        assert label == ("timeout" if limit < needs else result)


# ===== pinned output bytes =====


def _emitted_sha256(inst: Instance) -> str:
    res = solve(inst)
    assert res.outcome is Outcome.SATISFIABLE
    return hashlib.sha256(emit_solution(res.solution).encode()).hexdigest()


def test_pinned_solution_bytes_rail_file():
    inst = parse_instance(RAIL_PUP.read_text())
    assert _emitted_sha256(inst) == (
        "86e39c8c928a0edf9ffd747dae4aa588a21fc5e252b6bbbf1ecfe2eb317427f8"
    )


@pytest.mark.parametrize("row, digest", [
    ((2, 2, 2, 300), "199a4a9cf606c17cbec699ed58cc254e772b36f37963eb4817f787a115369996"),
    ((3, 2, 3, 200), "d69b8896e1a520fe4aafcef07f074da94d58c4fad22173efdc2b62c06fcdb17d"),
    ((2, 3, 2, 250), "3ed06bd491d26918d5c09ced1320ac3cff38325ab57544dbeac12c1d6c67b977"),
    ((2, 1, 3, 300), "5d52d3f0994c9b98ad2a2c0ccf7c6f40796f9a3b8f0a61bfdcc92b65cffefd75"),
    ((3, 3, 3, 300), "74aa5dadfd9fe333a29a879750f6b737f18b4bfb955746a719e12c3d41435acf"),
])
def test_pinned_solution_bytes_ladders(row, digest):
    """Minimize merges partnered units on these ladders, so the digest pins
    the greedy merge order and the freeze renumbering."""
    assert _emitted_sha256(ladder_instance(*row)) == digest


def test_pinned_solution_bytes_seed_1729_sweep():
    """One digest over every satisfiable answer of the seed-1729 sweep, each
    prefixed by its position in the sweep."""
    rng = random.Random(1729)
    h = hashlib.sha256()
    n_sat = 0
    for k in range(2000):
        res = solve(random_instance(rng), SolveConfig(max_time_ms=10_000))
        if res.outcome is Outcome.SATISFIABLE:
            n_sat += 1
            h.update(f"{k}\n".encode())
            h.update(emit_solution(res.solution).encode())
    assert n_sat == 1809
    assert h.hexdigest() == (
        "317451482b3d01c28763795e1b2668b7841831e66ca9dafe7697d4fada486fba"
    )


def test_pinned_dot_and_unit_counts_seed_1729_sweep():
    """One digest over solution_to_dot of every satisfiable answer of the
    seed-1729 sweep, concatenated in sweep order, and count_units of each
    answer equal to the unit count after minimize."""
    rng = random.Random(1729)
    h = hashlib.sha256()
    for k in range(2000):
        res = solve(random_instance(rng), SolveConfig(max_time_ms=10_000))
        if res.outcome is Outcome.SATISFIABLE:
            h.update(solution_to_dot(res.solution).encode())
            assert count_units(res.solution) == res.stats.units_after_minimize, k
    assert h.hexdigest() == (
        "564980bca29d71dd58680910c2cb9146f8176acd3792c44b183270609a50918e"
    )
