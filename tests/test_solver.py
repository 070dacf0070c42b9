"""Search components: element ordering, partial models, assign, minimize, solve."""

import hashlib
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pupsolver import (
    Instance,
    Outcome,
    PartialModel,
    SearchStats,
    SolveConfig,
    Ternary,
    assign,
    breadth_first_order,
    count_units,
    emit_solution,
    minimize,
    oracle_decide,
    parse_instance,
    solve,
    verify_solution,
)
from pupsolver.reductions import binpack_to_pup_iucap2
from pupsolver.core import BinPackingInstance

from datagen import all_small_bipartite, naive_decide, rail_instance, random_instance


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
                for nb in inst.neighbors[e]
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


def test_assign_and_connect_same_unit_no_connection():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    u1 = m.new_unit()
    assert m.assign_and_connect("i1", u1)
    assert m.assign_and_connect("s1", u1)
    assert m.partners_of(u1) == ()
    assert m.unit_of("s1") == u1


def test_assign_and_connect_creates_forced_partnership():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    m = PartialModel(inst)
    u1 = m.new_unit()
    u2 = m.new_unit()
    assert m.assign_and_connect("i1", u1)
    assert m.assign_and_connect("s1", u2)
    assert m.partners_of(u1) == (u2,)
    assert m.partners_of(u2) == (u1,)


def test_assign_and_connect_rejects_two_new_connections_at_iucap_1():
    inst = Instance(("i1",), ("s1", "s2"), (("i1", "s1"), ("i1", "s2")), 2, 1)
    m = PartialModel(inst)
    u1 = m.new_unit()
    u2 = m.new_unit()
    assert m.assign_and_connect("s1", u1)
    assert m.assign_and_connect("s2", u2)
    before = m.snapshot()
    u3 = m.new_unit()
    # i1 on a third unit would need connections to both u1 and u2
    assert not m.assign_and_connect("i1", u3)
    m.drop_unit(u3)
    assert m.snapshot() == before
    # placing i1 with one of its neighbors only needs the one connection
    assert m.assign_and_connect("i1", u1)
    assert m.partners_of(u1) == (u2,)


def test_assign_and_connect_respects_side_capacity():
    inst = Instance(("i1", "i2"), (), (), 1, 0)
    m = PartialModel(inst)
    u1 = m.new_unit()
    assert m.assign_and_connect("i1", u1)
    assert not m.assign_and_connect("i2", u1)


def test_assign_and_connect_rejects_partner_on_full_neighbor_unit():
    inst = Instance(
        ("i1", "i2"), ("s1", "s2"),
        (("i1", "s1"), ("i2", "s2")), 1, 1
    )
    m = PartialModel(inst)
    u1 = m.new_unit()
    u2 = m.new_unit()
    u3 = m.new_unit()
    assert m.assign_and_connect("i1", u1)
    assert m.assign_and_connect("s1", u2)  # u1-u2 partnered, both at iucap
    assert m.assign_and_connect("i2", u3)
    # s2 on u1 would force u3-u1, but u1 already has its single partner
    assert not m.assign_and_connect("s2", u1)


def test_undo_restores_snapshot_exactly():
    inst = rail_instance()
    m = PartialModel(inst)
    u1 = m.new_unit()
    assert m.assign_and_connect("I1", u1)
    snap = m.snapshot()
    u2 = m.new_unit()
    assert m.assign_and_connect("S1", u2)
    assert m.assign_and_connect("S2", u2)
    m.undo_assign_and_connect("S2", u2)
    m.undo_assign_and_connect("S1", u2)
    m.drop_unit(u2)
    assert m.snapshot() == snap
    m.check_counters()


def test_undo_journal_mismatch_is_fatal():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    u1 = m.new_unit()
    m.assign_and_connect("i1", u1)
    with pytest.raises(RuntimeError):
        m.undo_assign_and_connect("s1", u1)
    with pytest.raises(RuntimeError):
        m.drop_unit(u1)


def test_randomized_place_undo_round_trips():
    rng = random.Random(1234)
    for _ in range(60):
        inst = random_instance(rng, min_ind=1, min_sens=1)
        m = PartialModel(inst)
        stack = []
        snaps = [m.snapshot()]
        for e in inst.elements:
            if m.unit_count < m.max_units and rng.random() < 0.5:
                u = m.new_unit()
                stack.append(("unit", u))
                snaps.append(m.snapshot())
            placed = False
            for u in m.units:
                if m.assign_and_connect(e, u):
                    stack.append(("place", e, u))
                    snaps.append(m.snapshot())
                    placed = True
                    break
            if not placed and m.unit_count < m.max_units:
                u = m.new_unit()
                stack.append(("unit", u))
                snaps.append(m.snapshot())
                if m.assign_and_connect(e, u):
                    stack.append(("place", e, u))
                    snaps.append(m.snapshot())
        m.check_counters()
        while stack:
            action = stack.pop()
            snaps.pop()
            if action[0] == "place":
                m.undo_assign_and_connect(action[1], action[2])
            else:
                m.drop_unit(action[1])
            assert m.snapshot() == snaps[-1]
        assert m.unit_count == 0


# ===== recursive assignment =====


def test_assign_single_edge_instance():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    order = breadth_first_order("i1", inst)
    stats = SearchStats()
    r = assign(order, 0, m, FAR_FUTURE, max_units=2, stats=stats)
    assert r is Ternary.TRUE
    assert m.unit_of("i1") is not None and m.unit_of("s1") is not None


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


def test_assign_branch_order_fresh_then_existing_in_creation_order():
    # i1 and i2 share sensor s1 but cannot share a unit at ucap 1; with the
    # budget capped at 2 the last element must walk the existing units
    inst = Instance(("i1", "i2"), ("s1",), (("i1", "s1"), ("i2", "s1")), 1, 2)
    m = PartialModel(inst, max_units=2)
    order = breadth_first_order("i1", inst)
    trace = []
    r = assign(order, 0, m, FAR_FUTURE, max_units=2, trace=trace)
    assert r is Ternary.TRUE
    # i1 fresh u1; s1 fresh u2, recursion to i2: fresh blocked (budget), u1
    # full, u2 hosts it
    assert trace == [
        ("i1", "u1", "fresh"),
        ("s1", "u2", "fresh"),
        ("i2", "u1", "existing"),
        ("i2", "u2", "existing"),
    ]


def test_assign_trace_existing_units_in_creation_order():
    inst = Instance(("i1", "i2", "i3"), (), (), 1, 0)
    m = PartialModel(inst, max_units=2)
    order = breadth_first_order("i1", inst)
    trace = []
    r = assign(order, 0, m, FAR_FUTURE, max_units=2, trace=trace)
    assert r is Ternary.FALSE
    # i3 has no fresh unit left and must try u1 then u2 (both full)
    tail = [t for t in trace if t[0] == "i3"]
    assert tail == [("i3", "u1", "existing"), ("i3", "u2", "existing")]


# ===== minimize =====


def test_minimize_merges_two_mergeable_units():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 2)
    m = PartialModel(inst)
    u1 = m.new_unit()
    u2 = m.new_unit()
    assert m.assign_and_connect("i1", u1)
    assert m.assign_and_connect("s1", u2)
    assert m.unit_count == 2
    minimize(m)
    assert m.unit_count == 1
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
    for a in g.units:
        for b_ in g.units:
            if a == b_:
                continue
            hosted = g.unit_elements
            n_ind = sum(1 for e in hosted[a] + hosted[b_] if e in inst.indicator_set)
            n_sen = len(hosted[a]) + len(hosted[b_]) - n_ind
            merged_partners = (
                (g.partner_adjacency[a] | g.partner_adjacency[b_]) - {a, b_}
            )
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
    u1, u2, u3 = m.new_unit(), m.new_unit(), m.new_unit()
    for e, u in (("i1", u1), ("s1", u2), ("i2", u3), ("i3", u3)):
        assert m.assign_and_connect(e, u)
    assert m.partners_of(u2) == (u1, u3)
    minimize(m)
    m.check_counters()
    assert m.units == (u1, u3)
    assert m.partners_of(u1) == (u3,) and m.partners_of(u3) == (u1,)
    assert verify_solution(inst, m.to_solution_graph()) == []


def test_minimize_merges_pair_sharing_a_partner():
    # u1 {i1} and u2 {i2} both partner the full unit u3 {i3, i4, s1, s2}
    inst = Instance(("i1", "i2", "i3", "i4"), ("s1", "s2"),
                    (("i1", "s1"), ("i2", "s1")), 2, 2)
    m = PartialModel(inst)
    u1, u2, u3 = m.new_unit(), m.new_unit(), m.new_unit()
    for e, u in (("i1", u1), ("i2", u2), ("i3", u3), ("i4", u3), ("s1", u3), ("s2", u3)):
        assert m.assign_and_connect(e, u)
    assert m.partners_of(u3) == (u1, u2)
    minimize(m)
    m.check_counters()
    assert m.units == (u1, u3)
    assert m.partners_of(u3) == (u1,)
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
        m.check_counters()
        minimize(m)
        m.check_counters()
        assert verify_solution(inst, m.to_solution_graph()) == []
        checked += 1
    assert checked > 100


def test_check_counters_rejects_broken_partner_sets():
    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 1, 1)
    corruptions = {
        "asymmetric": lambda m: m._partners[1].discard(0),
        "its own partner": lambda m: m._partners[0].add(0),
        "more than iucap": lambda m: (m._partners[0].add(2), m._partners[2].add(0)),
        "merged-away": lambda m: m._dead.__setitem__(1, True),
    }
    for message, corrupt in corruptions.items():
        m = PartialModel(inst, max_units=3)
        u1, u2, _ = m.new_unit(), m.new_unit(), m.new_unit()
        assert m.assign_and_connect("i1", u1) and m.assign_and_connect("s1", u2)
        m.check_counters()
        corrupt(m)
        with pytest.raises(RuntimeError, match=message):
            m.check_counters()


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


def test_solve_respects_unit_budget():
    inst = Instance((), ("s1", "s2", "s3"), (), 1, 0)
    res = solve(inst, SolveConfig(max_units=2))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.budget_limited
    assert solve(inst, SolveConfig(max_units=3)).outcome is Outcome.SATISFIABLE


def test_solve_timeout_on_hard_unsat():
    # oversized item that escapes the capacity precheck: the exhaustive
    # proof is far beyond a few milliseconds
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((3,), 2, 2))
    res = solve(inst, SolveConfig(max_time_ms=200, max_units=budget))
    assert res.outcome is Outcome.TIMEOUT
    assert res.solution is None


def test_solve_stats_slices_within_budget():
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((3,), 2, 2))
    budget_ms = 300
    res = solve(inst, SolveConfig(max_time_ms=budget_ms, max_units=budget))
    stats = res.stats
    assert stats.entry_points_tried == len(inst.indicators)
    n_slices = len(inst.indicators)
    slice_ms = max(1, budget_ms // n_slices)
    total = sum(ms for _, ms in stats.per_entry_ms)
    # one slice of slack plus scheduling noise
    assert total <= budget_ms + slice_ms + 100
    text = stats.as_text()
    assert "entry_points_tried" in text and "backtracks" in text and "freeze_ms" in text


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


def test_solve_parallel_agrees_with_sequential():
    rng = random.Random(808)
    for _ in range(100):
        inst = random_instance(rng, min_ind=2)
        seq = solve(inst, SolveConfig(max_time_ms=5000))
        par = solve(inst, SolveConfig(max_time_ms=5000, parallel=True))
        assert seq.outcome == par.outcome
        if par.outcome is Outcome.SATISFIABLE:
            assert verify_solution(inst, par.solution) == []
    # disconnected and unsatisfiable: the component cut ends the search
    for k in (1, 3, 8, 16):
        inst = pairs_core_instance(k)
        seq = solve(inst, SolveConfig(max_time_ms=5000))
        par = solve(inst, SolveConfig(max_time_ms=5000, parallel=True))
        assert seq.outcome is par.outcome is Outcome.UNSATISFIABLE


def test_solve_parallel_rail():
    res = solve(rail_instance(), SolveConfig(parallel=True))
    assert res.outcome is Outcome.SATISFIABLE
    assert count_units(res.solution) == 3


# ===== component cut =====


@pytest.mark.parametrize("k", [8, 16])
def test_component_cut_refutes_pairs_core(k):
    """Without the cut the search backtracks through all placements of the
    k pairs (96,892 nodes at k = 8; k = 16 runs out of time)."""
    res = solve(pairs_core_instance(k), SolveConfig(max_time_ms=2000))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.nodes <= 100
    assert res.stats.entry_points_tried == 1
    assert res.stats.refuted_from == "c0"
    assert "refuted_from c0" in res.stats.as_text()


@pytest.mark.parametrize("k", [8, 16])
def test_assign_component_cut_returns_false_and_unwinds(k):
    inst = pairs_core_instance(k)
    m = PartialModel(inst)
    stats = SearchStats()
    r = assign(breadth_first_order("p0", inst), 0, m, FAR_FUTURE, len(inst.elements), stats)
    assert r is Ternary.FALSE
    assert stats.nodes <= 100 and stats.refuted_from == "c0"
    assert m.snapshot() == PartialModel(inst).snapshot()
    assert m._journal == []


def test_component_cut_needs_room_for_the_suffix():
    # with fewer unused units than suffix elements the cut may not fire:
    # the search must exhaust the prefix, and the answer is still UNSAT
    inst = pairs_core_instance(3)
    res = solve(inst, SolveConfig(max_units=8))
    assert res.outcome is Outcome.UNSATISFIABLE
    assert res.stats.refuted_from is None
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


# solve() raises the process-wide recursion limit for its recursive search,
# which hypothesis reports on every example
@pytest.mark.filterwarnings("ignore:The recursion limit will not be reset")
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
