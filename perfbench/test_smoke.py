"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every generator runs at a tiny size; every answer must pass the verdict
gate, and the traced replay must reproduce solve()'s outcome and bytes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pupsolver as pup  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from replay import Tracer  # noqa: E402

TINY = {
    "ladder": lambda rng: workloads.ladder(pup, rng, rows=((2, 2, 2, 20), (3, 3, 3, 15)), jitter=3),
    "pairs_core": lambda rng: workloads.pairs_core(pup, rng, ks=(2, 3)),
    "binpack": lambda rng: workloads.binpack(
        pup, rng, family=workloads.packings(max_items=2, sizes=(1, 2), bin_sizes=(1, 2))),
    "sweep": lambda rng: workloads.sweep(pup, rng, count=60),
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_passes_gate_and_replay_matches(workload):
    cases = TINY[workload](random.Random(7))
    assert cases
    rules, _ = run.expected_verdicts(pup, cases)
    for k, case in enumerate(cases):
        plain = run.solve_case(pup, k, case)
        traced = run.trace_case(pup, k, case, Tracer(), [])
        assert run.gate_ok(plain, rules[k]), (case.name, plain)
        assert run.gate_ok(traced, rules[k]), (case.name, traced)
        if not (plain.expired or traced.expired):
            assert (traced.outcome, traced.sha256) == (plain.outcome, plain.sha256), case.name


def test_same_seed_same_inputs():
    for make in TINY.values():
        assert make(random.Random(3)) == make(random.Random(3))


def test_gate_rejects_wrong_verdicts():
    sat = run.Result(0, False, 1, "satisfiable")
    unsat = run.Result(0, False, 1, "unsatisfiable")
    timeout = run.Result(0, False, 1, "timeout")
    assert run.gate_ok(sat, "sat") and not run.gate_ok(unsat, "sat") and not run.gate_ok(timeout, "sat")
    assert run.gate_ok(unsat, "unsat") and not run.gate_ok(timeout, "unsat")
    assert run.gate_ok(timeout, "not-sat") and not run.gate_ok(sat, "not-sat")
    assert not run.gate_ok(run.Result(0, False, 1, "satisfiable", violations=1), "sat")


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail([float(x) for x in range(1, 21)]) == (50.0, 10.0)
