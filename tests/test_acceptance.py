"""Acceptance gate: one behavior-level check per test, thresholds inline.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per check;
add ``-s`` to see the measured numbers behind each one.
"""

import itertools
import os
import random
import time
from pathlib import Path

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
    emit_solution,
    lift_iucap0_to_1,
    oracle_decide,
    oracle_min_units,
    parse_instance,
    solve,
    verify_solution,
)

from datagen import all_small_bipartite, rail_instance, random_instance


SWEEP_SIZE = 2000
SWEEP_BUDGET_MS = 10_000
BENCH_ENV = "PUP_BENCH_DIR"


@pytest.fixture(scope="module")
def sweep():
    """One shared random sweep: small instances, solved with default budgets."""
    rng = random.Random(1729)
    rows = []
    t0 = time.monotonic()
    for _ in range(SWEEP_SIZE):
        inst = random_instance(rng)
        res = solve(inst, SolveConfig(max_time_ms=SWEEP_BUDGET_MS))
        rows.append((inst, res))
    return rows, time.monotonic() - t0


def test_acceptance_solver_matches_oracle_on_random_sweep(sweep):
    """Solve and the exhaustive oracle must agree on every sweep instance,
    with no timeouts, and the whole sweep must stay under five minutes."""
    rows, elapsed = sweep
    timeouts = [inst for inst, res in rows if res.outcome is Outcome.TIMEOUT]
    assert timeouts == []
    disagreements = []
    for inst, res in rows:
        want = oracle_decide(inst, max(len(inst.elements), 1))
        if (res.outcome is Outcome.SATISFIABLE) != want:
            disagreements.append(inst)
    assert disagreements == []
    assert elapsed < 300.0
    n_sat = sum(1 for _, r in rows if r.outcome is Outcome.SATISFIABLE)
    print(f"\nPASS: {len(rows)} instances, {n_sat} satisfiable, "
          f"0 timeouts, 0 disagreements, sweep {elapsed:.2f}s")


def test_acceptance_satisfiable_sweep_outcomes_verify_clean(sweep):
    """Every satisfiable sweep answer must pass the independent verifier."""
    rows, _ = sweep
    checked = 0
    for inst, res in rows:
        if res.outcome is Outcome.SATISFIABLE:
            assert verify_solution(inst, res.solution) == []
            checked += 1
    assert checked > 0
    print(f"\nPASS: {checked} solutions, zero violations")


def test_acceptance_rail_example_three_units_under_100ms():
    """The bundled rail example needs exactly 3 units (independently derived
    by the oracle) and must solve, minimize and freeze in under 100 ms."""
    inst = rail_instance()
    assert oracle_min_units(inst) == 3
    res = solve(inst)
    assert res.outcome is Outcome.SATISFIABLE
    assert count_units(res.solution) == 3
    assert verify_solution(inst, res.solution) == []
    spent = res.stats.search_ms + res.stats.minimize_ms + res.stats.freeze_ms
    assert spent < 100.0
    print(f"\nPASS: 3 units, search+minimize+freeze {spent:.2f}ms")


def binpack_family(max_items, sizes, bin_sizes, bin_counts):
    for n in range(0, max_items + 1):
        for items in itertools.combinations_with_replacement(sizes, n):
            for bin_size in bin_sizes:
                for bins in bin_counts:
                    yield BinPackingInstance(items, bin_size, bins)


def test_acceptance_binpack_embedding_equivalence():
    """Over every packing with up to 3 items of size up to 3, bin size up to
    3 and up to 2 bins: feasible packings must solve as satisfiable at the
    3-bins unit budget, infeasible ones must never produce a solution.  A
    packing refutation may exceed any fixed search budget (the embedded
    search space is the hard direction), so the infeasible side gets a
    bounded budget and is held to not-satisfiable; most cases are refuted
    outright by the capacity precheck.  Of the searched infeasible packings
    only (2,2,2)/3 in 2 bins stays open (still open after 25.8M nodes);
    (1,3)/2 is a proof in about 196k nodes.  Whole family under 60 s."""
    t0 = time.monotonic()
    n_sat = n_refuted = n_timeout = 0
    for b in binpack_family(3, (1, 2, 3), (1, 2, 3), (1, 2)):
        want = binpack_decide(b)
        inst, budget = binpack_to_pup_iucap2(b)
        ms = 10_000 if want else 4_000
        res = solve(inst, SolveConfig(max_units=budget, max_time_ms=ms))
        if want:
            assert res.outcome is Outcome.SATISFIABLE, b
            assert verify_solution(inst, res.solution) == []
            n_sat += 1
        else:
            assert res.outcome is not Outcome.SATISFIABLE, b
            n_refuted += res.outcome is Outcome.UNSATISFIABLE
            n_timeout += res.outcome is Outcome.TIMEOUT
    elapsed = time.monotonic() - t0
    assert n_timeout <= 1
    assert elapsed < 60.0
    print(f"\nPASS: {n_sat} feasible solved, {n_refuted} refuted, "
          f"{n_timeout} held to not-satisfiable within budget, {elapsed:.1f}s")


def test_acceptance_lift_equivalence_exhaustive():
    """For every bipartite instance with at most 6 elements at iucap 0
    (ucap 1 and 2), the lifted iucap-1 instance must be satisfiable with
    2k units exactly when the original is with k, for k up to 3.  Both
    sides decided by the exhaustive oracle; under five minutes."""
    t0 = time.monotonic()
    pairs = 0
    for inst in all_small_bipartite(6):
        lifted, _ = lift_iucap0_to_1(inst, 1)
        for k in (1, 2, 3):
            assert oracle_decide(inst, k) == oracle_decide(lifted, 2 * k), (inst, k)
            pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs == 7818
    assert elapsed < 300.0
    print(f"\nPASS: {pairs} equivalence pairs, {elapsed:.1f}s")


def test_acceptance_packing_doubling_equivalence():
    """Doubling items and bin size never changes feasibility, for every
    packing with up to 5 items of size up to 4 (bin sizes 1..5, 1..3 bins)."""
    checked = 0
    for b in binpack_family(5, (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3)):
        assert binpack_decide(b) == binpack_decide(double_binpack(b)), b
        checked += 1
    assert checked == 1890
    print(f"\nPASS: {checked} packings")


def _published_benchmark(name: str, iucap: int) -> Instance:
    root = os.environ.get(BENCH_ENV)
    if not root:
        pytest.skip(f"set {BENCH_ENV} to a directory with converted benchmark "
                    "instance files to enable this check")
    path = Path(root) / name
    if not path.is_file():
        pytest.skip(f"benchmark file {path} not present")
    base = parse_instance(path.read_text(encoding="utf-8"))
    return Instance(base.indicators, base.sensors, base.edges, base.ucap, iucap)


@pytest.mark.parametrize("name,iucap,expect,units_bound,exact", [
    ("dbl-20.pup", 2, Outcome.SATISFIABLE, 14, True),
    ("tri-34.pup", 2, Outcome.UNSATISFIABLE, None, False),
    ("tri-34.pup", 4, Outcome.SATISFIABLE, 21, False),
])
def test_acceptance_published_benchmarks(name, iucap, expect, units_bound, exact):
    """Known published results for two classic instances, run only when a
    converted copy of the archive is available locally."""
    inst = _published_benchmark(name, iucap)
    res = solve(inst, SolveConfig(max_time_ms=600_000))
    assert res.outcome is expect
    if expect is Outcome.SATISFIABLE:
        assert verify_solution(inst, res.solution) == []
        units = count_units(res.solution)
        if exact:
            assert units == units_bound
        else:
            assert units <= units_bound
    print(f"\nPASS: {name} iucap={iucap} -> {res.outcome.value}")


def test_acceptance_sequential_solve_is_deterministic(sweep):
    """Three repeated sequential runs must emit byte-identical solution text
    (or the identical outcome token) on the rail example and every sweep
    instance."""
    rows, _ = sweep
    suite = [rail_instance()] + [inst for inst, _ in rows]
    for inst in suite:
        seen = set()
        for _ in range(3):
            res = solve(inst, SolveConfig(max_time_ms=SWEEP_BUDGET_MS))
            if res.outcome is Outcome.SATISFIABLE:
                seen.add(emit_solution(res.solution))
            else:
                seen.add(res.outcome.value)
        assert len(seen) == 1, inst
    print(f"\nPASS: {len(suite)} instances x 3 runs byte-identical")


def test_acceptance_minimize_never_increases_and_reverifies(sweep):
    """Across the sweep, the rail example and the quick embedding cases:
    minimization never raises the unit count and the minimized solution
    still passes the verifier."""
    rows, _ = sweep
    pool = [(inst, res) for inst, res in rows]
    pool.append((rail_instance(), solve(rail_instance())))
    for b in binpack_family(2, (1, 2), (1, 2), (1, 2)):
        if not binpack_decide(b):
            continue
        inst, budget = binpack_to_pup_iucap2(b)
        pool.append((inst, solve(inst, SolveConfig(max_units=budget))))
    checked = 0
    for inst, res in pool:
        if res.outcome is not Outcome.SATISFIABLE:
            continue
        stats = res.stats
        assert stats.units_after_minimize <= stats.units_before_minimize, inst
        assert count_units(res.solution) == stats.units_after_minimize, inst
        assert verify_solution(inst, res.solution) == [], inst
        checked += 1
    assert checked > 0
    print(f"\nPASS: {checked} minimized solutions checked")
