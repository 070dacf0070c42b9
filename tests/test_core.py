"""Core types, file formats and derived views."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pupsolver import (
    Instance,
    ParseError,
    SolutionGraph,
    SolveConfig,
    component_precheck,
    count_units,
    degree_precheck,
    emit_instance,
    emit_solution,
    induce_input_graph,
    instance_to_dot,
    parse_instance,
    parse_solution,
    solution_to_dot,
    solve,
)

from datagen import rail_instance, random_instance


RAIL_TEXT = """\
# comment line
ucap 2
iucap 2
indicator I1
indicator I2
indicator I3
sensor S1
sensor S2
sensor S3
sensor S4
sensor S5   # trailing comment
sensor S6
edge I1 S1
edge I1 S2
edge I1 S5
edge I1 S6
edge I2 S2
edge I2 S3
edge I2 S4
edge I2 S5
edge I3 S3
edge I3 S4
"""


def test_parse_rail_text():
    inst = parse_instance(RAIL_TEXT)
    assert inst == rail_instance()
    assert len(inst.edges) == 10
    assert inst.index["I1"] == 0
    assert inst.index["S6"] == 8


def test_stable_index_is_indicators_then_sensors():
    inst = parse_instance("ucap 1\niucap 0\nsensor s\nindicator i\n")
    assert inst.elements == ("i", "s")
    assert inst.adjacency == ((), ())


def test_with_caps_shares_the_checked_views_and_checks_the_caps():
    inst = rail_instance()
    other = inst.with_caps(9, 0)
    assert other == Instance(inst.indicators, inst.sensors, inst.edges, 9, 0)
    assert (inst.ucap, inst.iucap) == (2, 2)
    assert other.adjacency is inst.adjacency and other.index is inst.index
    for caps, message in (((0, 0), "ucap must be >= 1"), ((1, -1), "iucap must be >= 0")):
        with pytest.raises(ValueError, match=message):
            inst.with_caps(*caps)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("iucap 0\nindicator i\n", "missing ucap"),
        ("ucap 1\nindicator i\n", "missing iucap"),
        ("ucap 1\nucap 2\niucap 0\n", "duplicate ucap"),
        ("ucap 1\niucap 0\niucap 1\n", "duplicate iucap"),
        ("ucap 0\niucap 0\n", "ucap must be >= 1"),
        ("ucap 1\niucap -1\n", "iucap must be >= 0"),
        ("ucap x\niucap 0\n", "not an integer"),
        ("ucap 1\niucap 0\nindicator i\nindicator i\n", "duplicate declaration"),
        ("ucap 1\niucap 0\nindicator i\nsensor i\n", "duplicate declaration"),
        ("ucap 1\niucap 0\nedge i s\n", "undeclared id"),
        ("ucap 1\niucap 0\nedge i s\nindicator i\nsensor s\n", "undeclared id"),
        ("ucap 1\niucap 0\nindicator i\nindicator j\nedge i j\n", "edges run indicator to sensor"),
        ("ucap 1\niucap 0\nindicator i\nsensor s\nedge s i\n", "edges run indicator to sensor"),
        ("ucap 1\niucap 0\nindicator i\nsensor s\nedge i s\nedge i s\n", "duplicate edge"),
        ("ucap 1\niucap 0\nfrobnicate i\n", "unknown directive"),
        ("ucap 1 2\niucap 0\n", "exactly one"),
    ],
)
def test_parse_instance_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_edge_before_its_declarations_is_reported_at_the_edge():
    with pytest.raises(ParseError) as err:
        parse_instance("ucap 1\niucap 0\nedge i s\nindicator i\nsensor s\n")
    assert err.value.lineno == 3
    assert "undeclared id 'i'" in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("ucap 1\niucap 0\n\nbogus x\n")
    assert err.value.lineno == 4
    assert "line 4" in str(err.value)


def test_instance_round_trip_identity():
    rng = random.Random(411)
    for _ in range(200):
        inst = random_instance(rng, max_ind=5, max_sens=5)
        assert parse_instance(emit_instance(inst)) == inst


def test_instance_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Instance(("i",), ("s",), (("i", "x"),), 1, 0)
    with pytest.raises(ValueError):
        Instance(("i",), ("s",), (("s", "i"),), 1, 0)
    with pytest.raises(ValueError):
        Instance(("i", "i"), ("s",), (), 1, 0)
    with pytest.raises(ValueError):
        Instance(("bad id",), (), (), 1, 0)


@pytest.mark.parametrize(
    "tok", ["", "a", "a-b", "é", "#", "a#", "a b", " a", "a\t", "a\nb", "a\xa0b", "a ", "a　b", "\x1c"]
)
def test_instance_token_rule(tok):
    bad = not tok or "#" in tok or any(c.isspace() for c in tok)
    if bad:
        with pytest.raises(ValueError, match="is not a valid token"):
            Instance((tok,), (), (), 1, 0)
    else:
        assert Instance((tok,), (), (), 1, 0).elements == (tok,)


def test_neighbors_sorted_by_stable_index():
    inst = rail_instance()
    idx = inst.index
    assert [inst.elements[k] for k in inst.adjacency[idx["I2"]]] == ["S2", "S3", "S4", "S5"]
    assert [inst.elements[k] for k in inst.adjacency[idx["S3"]]] == ["I2", "I3"]


def _adjacency_cases():
    rng = random.Random(2718)
    yield Instance((), (), (), 1, 0)
    yield Instance((), ("s0", "s1"), (), 1, 0)
    yield Instance(("i0", "i1"), ("s0", "s1", "s2"), (("i1", "s2"),), 2, 1)  # isolated elements
    for _ in range(300):
        inst = random_instance(rng, max_ind=6, max_sens=6)
        edges = list(inst.edges)
        rng.shuffle(edges)  # the declared edge order must not leak into the adjacency
        yield Instance(inst.indicators, inst.sensors, edges, inst.ucap, inst.iucap)


def test_adjacency_is_ascending_neighbour_indices_from_edges():
    for inst in _adjacency_cases():
        pos = {e: k for k, e in enumerate(inst.indicators + inst.sensors)}
        expected = [[] for _ in pos]
        for a, b in inst.edges:
            expected[pos[a]].append(pos[b])
            expected[pos[b]].append(pos[a])
        assert inst.adjacency == tuple(tuple(sorted(nbrs)) for nbrs in expected)


def test_instance_views_leave_equality_hash_and_repr_alone():
    from_tuples = Instance(("i0", "i1"), ("s0",), (("i0", "s0"), ("i1", "s0")), 2, 1)
    from_lists = Instance(["i0", "i1"], ["s0"], [["i0", "s0"], ["i1", "s0"]], 2, 1)
    assert from_lists.adjacency == ((2,), (2,), (0, 1))  # a view, kept out of ==, hash and repr
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert repr(from_lists) == repr(from_tuples)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_time_ms=0)
    with pytest.raises(ValueError):
        SolveConfig(max_units=0)
    assert SolveConfig().max_units is None


# ===== solution format =====


def make_rail_solution() -> SolutionGraph:
    assignment = {
        "I1": "u1", "I2": "u1", "S5": "u1", "S6": "u1",
        "I3": "u2", "S1": "u2", "S3": "u2",
        "S2": "u3", "S4": "u3",
    }
    partners = set()
    for a, b in (("u1", "u2"), ("u1", "u3"), ("u2", "u3")):
        partners.add((a, b))
        partners.add((b, a))
    rail = rail_instance()
    return SolutionGraph(("u1", "u2", "u3"), assignment, frozenset(partners),
                         rail.indicators, rail.sensors)


def test_solution_round_trip():
    g = make_rail_solution()
    parsed = parse_solution(emit_solution(g))
    assert parsed.units == g.units
    assert parsed.assignment == dict(g.assignment)
    assert parsed.partners == g.partners


def test_emit_solution_single_unit():
    g = SolutionGraph(("u1",), {"i1": "u1", "s1": "u1"}, frozenset())
    assert emit_solution(g) == "unit u1\nassign i1 u1\nassign s1 u1\n"


def test_emit_solution_drops_empty_units():
    g = SolutionGraph(("u1", "u2"), {"i1": "u1"}, frozenset({("u1", "u2"), ("u2", "u1")}))
    text = emit_solution(g)
    assert "u2" not in text
    assert "partner" not in text


def test_emit_solution_empty_graph():
    assert emit_solution(SolutionGraph((), {}, frozenset())) == ""


def test_partner_lines_canonical_and_single():
    g = make_rail_solution()
    text = emit_solution(g)
    assert text.count("partner") == 3
    assert "partner u1 u2" in text and "partner u2 u1" not in text


def _reference_canonical_partners(g: SolutionGraph) -> tuple[tuple[str, str], ...]:
    """The key-function order that the rank order replaced, kept as its oracle."""
    pos = {u: k for k, u in enumerate(g.units)}

    def key(u: str):
        return (pos.get(u, len(g.units)), u)

    pairs = {tuple(sorted(p, key=key)) for p in g.partners}
    return tuple(sorted(pairs, key=lambda p: (key(p[0]), key(p[1]))))


@st.composite
def partner_graphs(draw):
    """Declared units in a drawn order, so that name order and declaration
    order differ (u10 before u9), most of them hosting an element, some
    elements on units that are never declared, and partner pairs in one or
    both orientations, some naming undeclared units."""
    units = draw(st.permutations([f"u{k}" for k in range(1, 13)]))[: draw(st.integers(0, 12))]
    names = list(units) + ["u0", "u99", "v1", "w10", "w9"]  # the last five are never declared
    assignment = {f"e{k}": u for k, u in enumerate(units) if draw(st.integers(0, 4))}
    for k, u in enumerate(draw(st.lists(st.sampled_from(names[-5:]), max_size=3))):
        assignment[f"x{k}"] = u
    partners = set()
    for a, b in draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=30)):
        if a != b:
            partners.add((a, b))
            if draw(st.booleans()):
                partners.add((b, a))
    return SolutionGraph(tuple(units), assignment, frozenset(partners))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(partner_graphs())
def test_partner_order_matches_reference(g):
    """occupied() and the read-outs of it against read-outs built from the
    reference order, restricted to the pairs of occupied units."""
    hosts = {u: sorted(e for e, v in g.assignment.items() if v == u) for u in g.units}
    hosts = {u: es for u, es in hosts.items() if es}
    pairs = [(a, b) for a, b in _reference_canonical_partners(g) if a in hosts and b in hosts]
    assert g.occupied() == (hosts, pairs)
    assert count_units(g) == len(hosts)
    text, dot = [], ["graph solution {", "  node [shape=box];"]
    for u, es in hosts.items():
        text += [f"unit {u}", *(f"assign {e} {u}" for e in es)]
        label = "\\n".join([u, *es])  # the drawn ids need no DOT escapes
        dot.append(f'  "{u}" [label="{label}"];')
    text += [f"partner {a} {b}" for a, b in pairs]
    dot += [f'  "{a}" -- "{b}";' for a, b in pairs] + ["}"]
    assert emit_solution(g) == "".join(line + "\n" for line in text)
    assert solution_to_dot(g) == "\n".join(dot) + "\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("assign i1 u1\n", "undeclared unit"),
        ("unit u1\nassign i1 u1\nassign i1 u1\n", "assigned twice"),
        ("unit u1\npartner u1 u1\n", "cannot partner itself"),
        ("unit u1\npartner u1 u2\n", "undeclared unit"),
        ("unit u1\nunit u1\n", "duplicate declaration"),
        ("unit u1\nunit u2\npartner u1 u2\npartner u2 u1\n", "duplicate partnership"),
        ("frobnicate\n", "unknown directive"),
    ],
)
def test_parse_solution_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_solution(text)
    assert fragment in str(err.value)


def test_parse_solution_symmetrizes_partner_lines():
    g = parse_solution("unit a\nunit b\nassign x a\nassign y b\npartner a b\n")
    assert ("a", "b") in g.partners and ("b", "a") in g.partners


def test_solution_graph_rejects_self_partner():
    with pytest.raises(ValueError):
        SolutionGraph(("u1",), {}, frozenset({("u1", "u1")}))


# ===== induced input graph =====


def test_induce_rail_solution_covers_instance():
    rail = rail_instance()
    g = make_rail_solution()
    induced = induce_input_graph(g, rail.ucap, rail.iucap)
    assert induced.indicators == rail.indicators
    assert induced.sensors == rail.sensors
    assert set(rail.edges) <= set(induced.edges)
    # fully partnered 3-unit ring reaches everything
    assert len(induced.edges) == 18


def test_induce_single_unit_pair():
    g = SolutionGraph(
        ("u1",), {"i1": "u1", "s1": "u1"}, frozenset(), ("i1",), ("s1",)
    )
    induced = induce_input_graph(g, 1, 0)
    assert induced.edges == (("i1", "s1"),)


def test_induce_requires_side_information():
    g = SolutionGraph(("u1",), {"i1": "u1"}, frozenset())
    with pytest.raises(ValueError):
        induce_input_graph(g, 1, 0)


def test_induce_rejects_inconsistent_graph():
    g = SolutionGraph(
        ("u1",), {"i1": "u1", "i2": "u1"}, frozenset(), ("i1", "i2"), ()
    )
    with pytest.raises(ValueError):
        induce_input_graph(g, 1, 0)  # two indicators on one unit at ucap 1


def test_induce_empty_solution_is_empty_instance():
    empty = Instance((), (), (), 1, 0)
    res = solve(empty)
    assert induce_input_graph(res.solution, 1, 0) == empty


@pytest.mark.parametrize("units, partners, kind", [
    (("u1", "u2"), {("u1", "u2")}, "AsymmetricPartner"),
    (("u1", "u2"), {("u1", "u2"), ("u2", "u1"), ("u1", "u9"), ("u9", "u1")}, "UnknownReference"),
    (("u1", "u2", "u3"), {("u1", "u2"), ("u2", "u1"), ("u1", "u3"), ("u3", "u1")},
     "PartnerCapacity"),
], ids=["asymmetric", "undeclared-partner", "over-iucap"])
def test_induce_rejects_through_verifier(units, partners, kind):
    """Each graph is wrong in one partner-relation way; the error names the
    verifier's violation kind."""
    g = SolutionGraph(units, {"i1": "u1", "s1": "u2"}, frozenset(partners), ("i1",), ("s1",))
    with pytest.raises(ValueError, match=kind):
        induce_input_graph(g, 1, 1)


def test_induce_covers_every_solved_random_instance():
    rng = random.Random(4242)
    solved = 0
    for _ in range(300):
        inst = random_instance(rng)
        res = solve(inst, SolveConfig(max_time_ms=10_000))
        if not res.is_satisfiable:
            continue
        solved += 1
        induced = induce_input_graph(res.solution, inst.ucap, inst.iucap)
        assert (induced.indicators, induced.sensors) == (inst.indicators, inst.sensors)
        assert set(inst.edges) <= set(induced.edges), inst
    assert solved > 200


# ===== degree precheck =====


def test_degree_precheck_rail_empty():
    assert degree_precheck(rail_instance()) == []


def test_degree_precheck_flags_star():
    inst = Instance(("hub",), ("a", "b", "c"), (("hub", "a"), ("hub", "b"), ("hub", "c")), 1, 1)
    assert degree_precheck(inst) == ["hub"]


def test_degree_precheck_boundary():
    # degree exactly (iucap+1)*ucap passes
    inst = Instance(("hub",), ("a", "b"), (("hub", "a"), ("hub", "b")), 1, 1)
    assert degree_precheck(inst) == []


# ===== component precheck =====


def _cycle(tag: str, length: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple]:
    """An even cycle of length 2 * length: indicator a reads sensors a and a - 1."""
    ind = tuple(f"{tag}i{a}" for a in range(length))
    sen = tuple(f"{tag}s{a}" for a in range(length))
    return ind, sen, tuple((ind[a], sen[b]) for a in range(length) for b in {a, a - 1})


def test_component_precheck_flags_each_oversize_component_by_its_lowest_element():
    # at ucap 1 / iucap 1 a component holds at most two elements a side;
    # a 4-cycle fits, a 6-cycle and an 8-cycle do not
    parts = [_cycle("a", 3), _cycle("b", 2), _cycle("c", 4)]
    ind = tuple(x for p in parts for x in p[0]) + ("lone",)
    sen = tuple(x for p in parts for x in p[1])
    edges = tuple(x for p in parts for x in p[2])
    inst = Instance(ind, sen, edges, 1, 1)
    assert degree_precheck(inst) == []
    assert component_precheck(inst) == ["ai0", "ci0"]
    # at iucap 0 the 4-cycle needs one unit for two elements a side as well
    assert component_precheck(Instance(ind, sen, edges, 1, 0)) == ["ai0", "bi0", "ci0"]
    # at ucap 2 / iucap 1 four a side fit on two partnered units
    assert component_precheck(Instance(ind, sen, edges, 2, 1)) == []


def test_component_precheck_counts_each_side_apart():
    # one indicator reading two sensors: three elements, but two of a side,
    # fits on two partnered units at ucap 1 / iucap 1
    inst = Instance(("i",), ("s", "t"), (("i", "s"), ("i", "t")), 1, 1)
    assert component_precheck(inst) == []
    # three sensors in one component do not, and the component is named by
    # its lowest element, the indicator
    inst = Instance(("i", "j"), ("s", "t", "u"),
                    (("i", "s"), ("i", "t"), ("j", "t"), ("j", "u")), 1, 1)
    assert component_precheck(inst) == ["i"]


def test_component_precheck_is_silent_above_iucap_1():
    ind, sen, edges = _cycle("a", 3)
    assert component_precheck(Instance(ind, sen, edges, 1, 1)) == ["ai0"]
    assert component_precheck(Instance(ind, sen, edges, 1, 2)) == []


def test_component_precheck_ignores_many_small_components():
    # many components, each within the bound, though each side's total exceeds it
    ind = tuple(f"i{a}" for a in range(50))
    sen = tuple(f"s{a}" for a in range(50))
    inst = Instance(ind, sen, tuple(zip(ind, sen)), 1, 0)
    assert component_precheck(inst) == []


# ===== graph descriptions =====


def test_dot_outputs_mention_everything():
    rail = rail_instance()
    dot = instance_to_dot(rail)
    assert dot.startswith("graph instance {")
    for e in rail.elements:
        assert f'"{e}"' in dot
    g = make_rail_solution()
    sdot = solution_to_dot(g)
    assert '"u1" -- "u2"' in sdot or '"u2" -- "u1"' in sdot


# a DOT quoted string: any characters but '"' and '\', or a backslash escape
_DOT_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_escapes_quotes_and_backslashes_in_ids():
    # the token rule allows '"' and '\' in ids
    inst = Instance(('a"b',), ("s\\",), (('a"b', "s\\"),), 1, 1)
    dot = instance_to_dot(inst)
    assert '  "a\\"b" [shape=box];' in dot.splitlines()
    assert '  "s\\\\" [shape=ellipse];' in dot.splitlines()
    sdot = solution_to_dot(solve(inst).solution)
    assert '  "u1" [label="u1\\na\\"b\\ns\\\\"];' in sdot.splitlines()
    for line in (dot + sdot).splitlines():
        # outside its quoted strings a line holds no quote or backslash
        assert not {'"', "\\"} & set(_DOT_QUOTED.sub("", line)), line
