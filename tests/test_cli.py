"""End-to-end command line behavior through cli.main()."""

import json
from pathlib import Path

import pytest

from pupsolver import (
    BinPackingInstance,
    emit_instance,
    emit_solution,
    oracle_decide,
    parse_instance,
    parse_solution,
)
from pupsolver.cli import (
    EXIT_ERROR,
    EXIT_SAT,
    EXIT_TIMEOUT,
    EXIT_UNSAT,
    main,
)
from pupsolver.reductions import binpack_to_pup_iucap2

from datagen import rail_instance


REPO_INSTANCES = Path(__file__).resolve().parents[1] / "instances"


@pytest.fixture
def rail_file(tmp_path):
    p = tmp_path / "rail.pup"
    p.write_text(emit_instance(rail_instance()), encoding="utf-8")
    return p


@pytest.fixture
def star_file(tmp_path):
    from pupsolver import Instance

    inst = Instance(("hub",), ("a", "b", "c"),
                    (("hub", "a"), ("hub", "b"), ("hub", "c")), 1, 1)
    p = tmp_path / "star.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    return p


@pytest.fixture
def six_cycle_file(tmp_path):
    """Two isolated pairs, then a 6-cycle that has no placement at ucap 1 /
    iucap 1: its three indicators need more than two partnered units."""
    from pupsolver import Instance

    cycle = (("c0", "d0"), ("c1", "d0"), ("c1", "d1"), ("c2", "d1"), ("c2", "d2"), ("c0", "d2"))
    inst = Instance(("p0", "p1", "c0", "c1", "c2"), ("q0", "q1", "d0", "d1", "d2"),
                    (("p0", "q0"), ("p1", "q1"), *cycle), 1, 1)
    p = tmp_path / "pairs.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    return p


# ===== solve =====


def test_solve_satisfiable(rail_file, capsys):
    rc = main(["solve", "--instance", str(rail_file)])
    captured = capsys.readouterr()
    assert rc == EXIT_SAT
    assert "satisfiable: 3 units" in captured.err
    g = parse_solution(captured.out)
    assert len(g.units) == 3


def test_solve_output_file(rail_file, tmp_path, capsys):
    out = tmp_path / "sol.txt"
    rc = main(["solve", "--instance", str(rail_file), "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_SAT
    assert captured.out == ""
    g = parse_solution(out.read_text(encoding="utf-8"))
    assert len(g.units) == 3


def test_solve_stats_on_stderr(rail_file, capsys):
    rc = main(["solve", "--instance", str(rail_file), "--stats"])
    captured = capsys.readouterr()
    assert rc == EXIT_SAT
    assert "nodes" in captured.err
    assert "units_after_minimize" in captured.err


def test_solve_emit_graph(rail_file, tmp_path):
    dot = tmp_path / "sol.dot"
    rc = main(["solve", "--instance", str(rail_file), "--emit-graph", str(dot)])
    assert rc == EXIT_SAT
    assert dot.read_text(encoding="utf-8").lstrip().startswith("graph")


def test_solve_unsatisfiable_globally(star_file, capsys):
    rc = main(["solve", "--instance", str(star_file)])
    captured = capsys.readouterr()
    assert rc == EXIT_UNSAT
    assert "unsatisfiable (for any unit count)" in captured.err


def test_solve_unsatisfiable_within_budget(tmp_path, capsys):
    from pupsolver import Instance

    inst = Instance((), ("s1", "s2", "s3"), (), 1, 0)
    p = tmp_path / "three.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    rc = main(["solve", "--instance", str(p), "--max-units", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_UNSAT
    assert "unsatisfiable (within unit budget)" in captured.err


def test_solve_degree_refutation_holds_for_any_unit_count(tmp_path, capsys):
    """The degree precheck refutes every unit count, so a unit budget does
    not narrow its answer."""
    from pupsolver import Instance

    inst = Instance(("i1",), ("s1", "s2"), (("i1", "s1"), ("i1", "s2")), 1, 0)
    p = tmp_path / "fan.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    rc = main(["solve", "--instance", str(p), "--max-units", "2", "--stats"])
    captured = capsys.readouterr()
    assert rc == EXIT_UNSAT
    assert json.loads(captured.err.splitlines()[0])["precheck"] == "degree"
    assert "unsatisfiable (for any unit count)" in captured.err


@pytest.mark.parametrize("max_units, precheck", [(6, "component"), (4, "capacity")])
def test_solve_component_refutation_holds_for_any_unit_count(six_cycle_file, capsys, max_units, precheck):
    """The component precheck refutes every unit count, as the degree
    precheck does; at 4 units the capacity precheck answers first, and its
    answer holds only within the budget."""
    rc = main(["solve", "--instance", str(six_cycle_file), "--max-units", str(max_units), "--stats"])
    captured = capsys.readouterr()
    assert rc == EXIT_UNSAT
    assert json.loads(captured.err.splitlines()[0])["precheck"] == precheck
    scope = "(for any unit count)" if precheck == "component" else "(within unit budget)"
    assert f"unsatisfiable {scope}" in captured.err


def test_solve_timeout(tmp_path, capsys):
    # three items of 2 in two bins of 3: still open after 25.8M nodes, so
    # no machine proves it within the 150 ms budget
    inst, budget = binpack_to_pup_iucap2(BinPackingInstance((2, 2, 2), 3, 2))
    p = tmp_path / "hard.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    rc = main(["solve", "--instance", str(p),
               "--max-units", str(budget), "--max-time-ms", "150"])
    captured = capsys.readouterr()
    assert rc == EXIT_TIMEOUT
    assert "timeout" in captured.err


def test_solve_parse_error(tmp_path, capsys):
    p = tmp_path / "broken.pup"
    p.write_text("nonsense line\n", encoding="utf-8")
    rc = main(["solve", "--instance", str(p)])
    captured = capsys.readouterr()
    assert rc == EXIT_ERROR
    assert captured.err.startswith("error:")


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "nope.pup")])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_bad_config(rail_file, capsys):
    rc = main(["solve", "--instance", str(rail_file), "--max-units", "0"])
    assert rc == EXIT_ERROR
    assert "max_units" in capsys.readouterr().err


# ===== usage errors =====


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["solve"],
    ["solve", "--instance"],
    ["solve", "--instance", "x", "--bogus-flag"],
    ["verify", "--instance", "x"],
    ["lift", "--instance", "x"],
])
def test_usage_errors_exit_3(argv, capsys):
    assert main(argv) == EXIT_ERROR
    capsys.readouterr()


# ===== verify =====


def test_verify_roundtrip_ok(rail_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    assert main(["solve", "--instance", str(rail_file), "-o", str(sol)]) == EXIT_SAT
    capsys.readouterr()
    rc = main(["verify", "--instance", str(rail_file), "--solution", str(sol)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "ok" in captured.err
    assert captured.out == ""


def test_verify_reports_violations(rail_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    assert main(["solve", "--instance", str(rail_file), "-o", str(sol)]) == EXIT_SAT
    capsys.readouterr()
    g = parse_solution(sol.read_text(encoding="utf-8"))
    assignment = dict(g.assignment)
    del assignment["S6"]
    from pupsolver import SolutionGraph

    tampered = SolutionGraph(g.units, assignment, g.partners,
                             rail_instance().indicators, rail_instance().sensors)
    sol.write_text(emit_solution(tampered), encoding="utf-8")
    rc = main(["verify", "--instance", str(rail_file), "--solution", str(sol)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "UnassignedElement" in captured.out
    assert "1 violation(s)" in captured.err


def test_verify_bad_solution_file(rail_file, tmp_path, capsys):
    bad = tmp_path / "sol.txt"
    bad.write_text("assign I1 u1\n", encoding="utf-8")  # u1 never declared
    rc = main(["verify", "--instance", str(rail_file), "--solution", str(bad)])
    assert rc == EXIT_ERROR
    capsys.readouterr()


# ===== oracle =====


def test_oracle_min_units(rail_file, capsys):
    rc = main(["oracle", "--instance", str(rail_file), "--min-units"])
    captured = capsys.readouterr()
    assert rc == EXIT_SAT
    assert captured.out.strip() == "3"


def test_oracle_decision(rail_file, star_file, capsys):
    assert main(["oracle", "--instance", str(rail_file)]) == EXIT_SAT
    assert capsys.readouterr().out.strip() == "SAT"
    assert main(["oracle", "--instance", str(star_file)]) == EXIT_UNSAT
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_oracle_budget_flag(rail_file, capsys):
    rc = main(["oracle", "--instance", str(rail_file), "--max-units", "2"])
    assert rc == EXIT_UNSAT
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_oracle_size_guard(tmp_path, capsys):
    from pupsolver import Instance

    inst = Instance(tuple(f"i{k}" for k in range(13)), (), (), 2, 0)
    p = tmp_path / "big.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    assert main(["oracle", "--instance", str(p)]) == EXIT_ERROR
    capsys.readouterr()
    rc = main(["oracle", "--instance", str(p), "--max-elements", "13"])
    assert rc == EXIT_SAT
    capsys.readouterr()


# ===== reduce and lift =====


def test_reduce_flags_to_stdout(capsys):
    rc = main(["reduce", "--items", "2", "--binsize", "2", "--bins", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "expected units: 3" in captured.err
    inst = parse_instance(captured.out)
    assert inst.ucap == 3 and inst.iucap == 2
    assert len(inst.indicators) == 8


def test_reduce_binpack_file(tmp_path, capsys):
    bp = tmp_path / "packing.txt"
    bp.write_text("items 2 ; binsize 2 ; bins 1\n", encoding="utf-8")
    out = tmp_path / "reduced.pup"
    rc = main(["reduce", "--binpack", str(bp), "-o", str(out)])
    capsys.readouterr()
    assert rc == 0
    inst = parse_instance(out.read_text(encoding="utf-8"))
    ref, _ = binpack_to_pup_iucap2(BinPackingInstance((2,), 2, 1))
    assert inst == ref


def test_reduce_double_only(tmp_path, capsys):
    rc = main(["reduce", "--items", "1", "2", "--binsize", "3", "--bins", "2",
               "--double-only"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "items 2 4 ; binsize 6 ; bins 2"
    out = tmp_path / "doubled.txt"
    rc = main(["reduce", "--items", "1", "2", "--binsize", "3", "--bins", "2",
               "--double-only", "-o", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8").strip() == "items 2 4 ; binsize 6 ; bins 2"


def test_reduce_double_then_reduce(capsys):
    rc = main(["reduce", "--items", "1", "--binsize", "1", "--bins", "1",
               "--double"])
    captured = capsys.readouterr()
    assert rc == 0
    inst = parse_instance(captured.out)
    ref, _ = binpack_to_pup_iucap2(BinPackingInstance((2,), 2, 1))
    assert inst == ref


def test_reduce_needs_input(capsys):
    assert main(["reduce", "--items", "1"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_lift_round_trip(tmp_path, capsys):
    from pupsolver import Instance

    inst = Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 0)
    p = tmp_path / "flat.pup"
    p.write_text(emit_instance(inst), encoding="utf-8")
    rc = main(["lift", "--instance", str(p), "--units", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "lifted unit budget: 4" in captured.err
    lifted = parse_instance(captured.out)
    assert lifted.iucap == 1
    assert len(lifted.edges) == 4


def test_lift_rejects_nonzero_iucap(rail_file, capsys):
    rc = main(["lift", "--instance", str(rail_file), "--units", "2"])
    assert rc == EXIT_ERROR
    capsys.readouterr()


# ===== bench =====


def write_bench_tree(tmp_path, star_expect="UNSAT"):
    (tmp_path / "rail.pup").write_text(emit_instance(rail_instance()), encoding="utf-8")
    from pupsolver import Instance

    star = Instance(("hub",), ("a", "b", "c"),
                    (("hub", "a"), ("hub", "b"), ("hub", "c")), 1, 1)
    (tmp_path / "star.pup").write_text(emit_instance(star), encoding="utf-8")
    manifest = tmp_path / "suite.txt"
    manifest.write_text(
        "# expected column: min units or UNSAT\n"
        "rail.pup 2 2 3\n"
        f"star.pup 1 1 {star_expect}\n"
        "rail.pup 9 0 1\n",
        encoding="utf-8",
    )
    return manifest


def test_bench_green_run(tmp_path, capsys):
    manifest = write_bench_tree(tmp_path)
    records = tmp_path / "records.jsonl"
    rc = main(["bench", "--manifest", str(manifest), "--records", str(records)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("instance")
    assert "nodes" in lines[0].split() and "backtracks" in lines[0].split()
    assert len(lines) == 4
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 3
    assert rows[0]["outcome"] == "satisfiable"
    assert rows[0]["units"] == 3 and rows[0]["delta_units"] == 0
    assert rows[0]["freeze_ms"] >= 0.0
    assert rows[0]["nodes"] >= 10 and rows[0]["backtracks"] >= 0  # 9 elements and the leaf
    assert rows[1]["outcome"] == "unsatisfiable"
    assert rows[1]["nodes"] == 0 and rows[1]["backtracks"] == 0  # degree precheck
    assert rows[2]["units"] == 1  # manifest ucap/iucap override the file


def test_bench_records_say_why_unsat(tmp_path, six_cycle_file, capsys):
    """An UNSAT row names its proof: the precheck that decided it, or the
    element where the component cut refuted the search."""
    from pupsolver import Instance

    manifest = write_bench_tree(tmp_path)
    # p0 isolated, then c0-c3 / d0-d3 with no placement at ucap 1 / iucap 2;
    # no degree exceeds 3 and the component precheck needs iucap <= 1, so
    # entry 1 searches it and the cut fires at c0
    core = (("c0", "d1"), ("c1", "d0"), ("c1", "d3"), ("c2", "d0"), ("c2", "d1"), ("c2", "d3"),
            ("c3", "d0"), ("c3", "d1"), ("c3", "d3"))
    cut = Instance(("p0", "c0", "c1", "c2", "c3"), ("d0", "d1", "d2", "d3"), core, 1, 2)
    assert not oracle_decide(cut, len(cut.elements))
    (tmp_path / "cut.pup").write_text(emit_instance(cut), encoding="utf-8")
    manifest.write_text("cut.pup 1 2 UNSAT\nstar.pup 1 1 UNSAT\npairs.pup 1 1 UNSAT\n",
                        encoding="utf-8")
    records = tmp_path / "records.jsonl"
    assert main(["bench", "--manifest", str(manifest), "--records", str(records)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert [r["outcome"] for r in rows] == ["unsatisfiable"] * 3
    assert (rows[0]["precheck"], rows[0]["refuted_from"]) == (None, "c0")
    assert (rows[1]["precheck"], rows[1]["refuted_from"]) == ("degree", None)
    assert (rows[2]["precheck"], rows[2]["refuted_from"]) == ("component", None)


def test_solve_stats_line_is_the_bench_record(tmp_path, capsys):
    """pup solve --stats prints parse_ms and then the same solve record
    that a pup bench --records row carries: the same keys, and for the same
    instance the same counts, proofs and entry points."""
    from pupsolver import Instance, SearchStats

    manifest = write_bench_tree(tmp_path)
    # the instance of test_bench_records_say_why_unsat that the cut refutes from c0
    core = (("c0", "d1"), ("c1", "d0"), ("c1", "d3"), ("c2", "d0"), ("c2", "d1"), ("c2", "d3"),
            ("c3", "d0"), ("c3", "d1"), ("c3", "d3"))
    cut = Instance(("p0", "c0", "c1", "c2", "c3"), ("d0", "d1", "d2", "d3"), core, 1, 2)
    (tmp_path / "cut.pup").write_text(emit_instance(cut), encoding="utf-8")
    manifest.write_text("rail.pup 2 2 3\nstar.pup 1 1 UNSAT\ncut.pup 1 2 UNSAT\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    assert main(["bench", "--manifest", str(manifest), "--records", str(records)]) == 0
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert [(r["precheck"], r["refuted_from"]) for r in rows] == [(None, None), ("degree", None), (None, "c0")]
    keys = list(SearchStats().as_dict())
    same = ("nodes", "backtracks", "rounds", "precheck", "refuted_from")
    for name, row, rc in zip(("rail.pup", "star.pup", "cut.pup"), rows, (EXIT_SAT, EXIT_UNSAT, EXIT_UNSAT)):
        capsys.readouterr()
        assert main(["solve", "--instance", str(tmp_path / name), "--stats"]) == rc
        stats = json.loads(capsys.readouterr().err.splitlines()[0])
        assert list(stats) == ["parse_ms", *keys]
        assert [stats[k] for k in same] == [row[k] for k in same], name
        assert list(stats["per_entry_ms"]) == list(row["per_entry_ms"]), name


def test_parse_ms_in_solve_stats_and_bench_records(tmp_path, capsys):
    """Both report the time from the file's text to the checked instance;
    a bench row whose instance never loaded has none."""
    manifest = write_bench_tree(tmp_path)
    assert main(["solve", "--instance", str(tmp_path / "rail.pup"), "--stats"]) == EXIT_SAT
    stats = json.loads(capsys.readouterr().err.splitlines()[0])
    assert next(iter(stats)) == "parse_ms" and stats["parse_ms"] > 0.0
    manifest.write_text("rail.pup 2 2 3\nstar.pup 1 1 UNSAT\nghost.pup 1 1\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    assert main(["bench", "--manifest", str(manifest), "--records", str(records)]) == 1
    capsys.readouterr()
    rows = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert [type(r["parse_ms"]) for r in rows] == [float, float, type(None)]
    assert rows[0]["parse_ms"] > 0.0 and rows[1]["parse_ms"] > 0.0


def test_bench_row_builds_its_instance_once(tmp_path, capsys, monkeypatch):
    """A manifest row's caps replace the file's without a second full check
    of the instance: one Instance.__post_init__ per row."""
    from pupsolver import Instance

    manifest = write_bench_tree(tmp_path)
    manifest.write_text("rail.pup 9 0 1\n", encoding="utf-8")
    built = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(Instance, "__post_init__", lambda self: built.append(post_init(self)))
    records = tmp_path / "records.jsonl"
    assert main(["bench", "--manifest", str(manifest), "--records", str(records)]) == 0
    capsys.readouterr()
    assert len(built) == 1
    (row,) = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert (row["ucap"], row["iucap"], row["units"]) == (9, 0, 1)
    assert row["parse_ms"] > 0.0


def test_bench_mismatch_exits_nonzero(tmp_path, capsys):
    manifest = write_bench_tree(tmp_path, star_expect="2")
    rc = main(["bench", "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "MISMATCH" in captured.out


def test_bench_checks_sat_answers(tmp_path, capsys, monkeypatch):
    """A satisfiable answer that the verifier rejects fails its row."""
    from pupsolver import Outcome, SearchStats, SolutionGraph, SolveOutcome, cli

    def broken(inst, cfg):  # one unit, and no element assigned to it
        return SolveOutcome(Outcome.SATISFIABLE, SolutionGraph(("u1",), {}, frozenset()), SearchStats())

    manifest = write_bench_tree(tmp_path)
    manifest.write_text("rail.pup 2 2 3\n", encoding="utf-8")
    monkeypatch.setattr(cli, "solve", broken)
    records = tmp_path / "records.jsonl"
    rc = main(["bench", "--manifest", str(manifest), "--records", str(records)])
    captured = capsys.readouterr()
    assert rc == 1
    unassigned = len(rail_instance().elements)
    assert captured.out.splitlines()[1].endswith(f"  VIOLATION: {unassigned}")
    (row,) = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    assert (row["outcome"], row["units"], row["note"]) == ("satisfiable", 0, f"VIOLATION: {unassigned}")


def test_bench_missing_instance_noted(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("ghost.pup 2 2 3\n", encoding="utf-8")
    rc = main(["bench", "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert rc == 1
    # the instance never loaded, so every cell but the expected count is "-"
    row = captured.out.splitlines()[1]
    assert row.startswith(
        "ghost.pup                                 -               -       3          "
        "-        -           -             -           -          -           error: "
    )
    assert row.endswith("ghost.pup'")


def test_bench_bad_manifest(tmp_path, capsys):
    manifest = tmp_path / "suite.txt"
    manifest.write_text("rail.pup 2\n", encoding="utf-8")
    assert main(["bench", "--manifest", str(manifest)]) == EXIT_ERROR
    capsys.readouterr()


# ===== output files that cannot be written =====


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "{rail}", "-o", "{out}"],
    ["solve", "--instance", "{rail}", "--emit-graph", "{out}"],
    ["reduce", "--items", "2", "--binsize", "2", "--bins", "1", "-o", "{out}"],
    ["reduce", "--items", "2", "--binsize", "2", "--bins", "1", "--double-only", "-o", "{out}"],
    ["lift", "--instance", "{flat}", "--units", "2", "-o", "{out}"],
    ["bench", "--manifest", "{manifest}", "--records", "{out}"],
], ids=["solve-output", "solve-emit-graph", "reduce", "reduce-double-only", "lift",
     "bench-records"])
def test_unwritable_output_exits_3(argv, tmp_path, capsys):
    """A write error is exit 3, not a traceback and exit 1, which solve
    documents as unsatisfiable (rail.pup is satisfiable)."""
    from pupsolver import Instance

    flat = tmp_path / "flat.pup"
    flat.write_text(emit_instance(Instance(("i1",), ("s1",), (("i1", "s1"),), 2, 0)),
                    encoding="utf-8")
    paths = {
        "rail": REPO_INSTANCES / "rail.pup",
        "flat": flat,
        "manifest": write_bench_tree(tmp_path),
        "out": tmp_path / "no-such-dir" / "out.txt",
    }
    rc = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert "error:" in err and "no-such-dir" in err
    assert "Traceback" not in err
    assert not (tmp_path / "no-such-dir").exists()


# ===== shipped sample instances =====


def test_shipped_rail_instance(capsys):
    rc = main(["solve", "--instance", str(REPO_INSTANCES / "rail.pup")])
    assert rc == EXIT_SAT
    assert "3 units" in capsys.readouterr().err


def test_shipped_star_instance(capsys):
    rc = main(["solve", "--instance", str(REPO_INSTANCES / "star-unsat.pup")])
    assert rc == EXIT_UNSAT
    capsys.readouterr()
