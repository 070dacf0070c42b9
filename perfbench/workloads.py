"""Seeded input generators for the four benchmark workloads.

Every generator turns a ``random.Random`` into a list of ``Case`` objects
whose ``text`` is instance text in the file grammar: the timed loop starts
from that text, so parsing is part of every measured solve.  The seed picks
element ids, line order and small size jitter, never the shape of a
workload, so that one seed costs about as much as another.

Only ``binpack`` needs the package at generation time (the bin-packing
reduction is part of set-up); the other generators write text directly.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

# Per-instance time budgets.  ``ladder`` and ``pairs_core`` use the solver
# default.  ``sweep`` uses the budget of the tier-1 sweep.  ``binpack`` uses
# 200 ms, so each entry point gets a 9..16 ms slice (200 ms // 12..21
# entries).  On a 2-vCPU x86 VM with Python 3.11, every entry that finishes
# in its slice took at most 1/7 of it, and every entry that expires needed
# at least 3.1x its slice to finish; 100 ms left finishing entries 1.35x
# from their slice in a traced run, and 2 s left one at 1.02x.  The four
# packings that time out do so at any budget.
DEFAULT_BUDGET_MS = 600_000
SWEEP_BUDGET_MS = 10_000
BINPACK_BUDGET_MS = 200

# (sensors per indicator w, ucap, iucap, indicators).  Every row is
# satisfiable on entry point 1 with zero backtracks, so search is linear
# and minimize plus freeze carry the time.  Rows that needed several entry
# points (w=3, ucap 3, iucap 2) or backtracked (w=3, ucap 1, iucap 2) are
# left out.
LADDER_ROWS = (
    (2, 2, 2, 2000),
    (2, 1, 3, 1000),
    (3, 2, 3, 1250),
    (3, 3, 3, 1500),
    (2, 3, 2, 1250),
)
LADDER_JITTER = 8
PAIRS_KS = (6, 7, 8)
PAIRS_UCAP = PAIRS_IUCAP = 1
# The tier-1 embedding family: every multiset of at most PACK_MAX_ITEMS
# items of these sizes, for every bin size and bin count.
PACK_MAX_ITEMS = 3
PACK_ITEM_SIZES = (1, 2, 3)
PACK_BIN_SIZES = (1, 2, 3)
PACK_BIN_COUNTS = (1, 2)
# The tier-1 sweep's distribution.
SWEEP_COUNT = 2000
SWEEP_MAX_INDICATORS = SWEEP_MAX_SENSORS = 4
SWEEP_EDGE_P = (0.15, 0.3, 0.5, 0.75)
SWEEP_UCAPS = (1, 2)
SWEEP_IUCAPS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Case:
    """One benchmark input and what its answer must be.

    ``expect`` is "sat" or "unsat" when the verdict is known by
    construction, "binpack" when it is decided by ``binpack_decide`` on
    ``packing`` and "oracle" when it is decided by ``oracle_decide``; the
    two oracles run after the timed loop.
    """

    name: str
    text: str
    elements: int
    max_time_ms: int
    expect: str
    max_units: int | None = None
    packing: tuple[tuple[int, ...], int, int] | None = None


def _instance_text(ucap, iucap, indicators, sensors, edges) -> str:
    lines = [f"ucap {ucap}", f"iucap {iucap}"]
    lines.extend(f"indicator {i}" for i in indicators)
    lines.extend(f"sensor {s}" for s in sensors)
    lines.extend(f"edge {a} {b}" for a, b in edges)
    return "\n".join(lines) + "\n"


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def ladder(pup, rng: random.Random, rows=LADDER_ROWS, jitter=LADDER_JITTER) -> list[Case]:
    """Rail band layouts: indicator k reads sensors k..k+w-1."""
    cases = []
    for w, ucap, iucap, n in rows:
        n += rng.randrange(jitter)
        tag = _tag(rng)
        ind = [f"{tag}I{k}" for k in range(n)]
        sen = [f"{tag}S{k}" for k in range(n + w - 1)]
        edges = [(ind[k], sen[k + j]) for k in range(n) for j in range(w)]
        cases.append(Case(
            f"ladder-w{w}-u{ucap}-i{iucap}-n{n}",
            _instance_text(ucap, iucap, ind, sen, edges),
            len(ind) + len(sen), DEFAULT_BUDGET_MS, "sat",
        ))
    return cases


def pairs_core(pup, rng: random.Random, ks=PAIRS_KS) -> list[Case]:
    """k isolated indicator-sensor edges, then an UNSAT 6-cycle core.

    At ucap 1 / iucap 1 a connected component spans at most two partnered
    units (four elements), so the six-element cycle cannot be placed; every
    degree is at most 2, so the degree precheck does not see it.  The core
    is declared last, so search from entry point 1 enumerates the pairs
    before it reaches the core.
    """
    cases = []
    for k in ks:
        tag = _tag(rng)
        ind = [f"{tag}p{j}" for j in range(k)] + [f"{tag}c{j}" for j in range(3)]
        sen = [f"{tag}q{j}" for j in range(k)] + [f"{tag}d{j}" for j in range(3)]
        edges = [(ind[j], sen[j]) for j in range(k)]
        rng.shuffle(edges)
        c, d = ind[k:], sen[k:]
        edges += [(c[0], d[0]), (c[1], d[0]), (c[1], d[1]), (c[2], d[1]), (c[2], d[2]), (c[0], d[2])]
        cases.append(Case(
            f"pairs_core-k{k}",
            _instance_text(PAIRS_UCAP, PAIRS_IUCAP, ind, sen, edges),
            len(ind) + len(sen), DEFAULT_BUDGET_MS, "unsat",
        ))
    return cases


def packings(max_items=PACK_MAX_ITEMS, sizes=PACK_ITEM_SIZES, bin_sizes=PACK_BIN_SIZES,
             bin_counts=PACK_BIN_COUNTS):
    """Every multiset of items, bin size, bin count."""
    for n in range(max_items + 1):
        for items in itertools.combinations_with_replacement(sizes, n):
            for bin_size in bin_sizes:
                for bins in bin_counts:
                    yield items, bin_size, bins


def binpack(pup, rng: random.Random, family=None, timings: list | None = None) -> list[Case]:
    """Bin packings embedded into PUP at iucap 2, in a seeded order.

    ``timings``, when given, receives the seconds spent in the reduction.
    """
    family = list(packings() if family is None else family)
    rng.shuffle(family)
    cases = []
    spent = 0.0
    for items, bin_size, bins in family:
        t0 = time.perf_counter()
        inst, units = pup.binpack_to_pup_iucap2(pup.BinPackingInstance(items, bin_size, bins))
        text = pup.emit_instance(inst)
        spent += time.perf_counter() - t0
        cases.append(Case(
            f"binpack-{'.'.join(map(str, items)) or 'none'}-b{bin_size}x{bins}",
            text, len(inst.elements), BINPACK_BUDGET_MS, "binpack",
            max_units=units, packing=(items, bin_size, bins),
        ))
    if timings is not None:
        timings.append(spent)
    return cases


def sweep(pup, rng: random.Random, count=SWEEP_COUNT) -> list[Case]:
    """Random small instances, drawn exactly as the tier-1 sweep draws
    them, so seed 1729 gives the tier-1 sweep's instances."""
    cases = []
    for j in range(count):
        n_ind = rng.randint(0, SWEEP_MAX_INDICATORS)
        n_sens = rng.randint(0, SWEEP_MAX_SENSORS)
        p = rng.choice(SWEEP_EDGE_P)
        ind = [f"i{a}" for a in range(n_ind)]
        sen = [f"s{b}" for b in range(n_sens)]
        edges = [(i, s) for i in ind for s in sen if rng.random() < p]
        ucap = rng.choice(SWEEP_UCAPS)
        iucap = rng.choice(SWEEP_IUCAPS)
        cases.append(Case(
            f"sweep-{j}", _instance_text(ucap, iucap, ind, sen, edges),
            n_ind + n_sens, SWEEP_BUDGET_MS, "oracle",
        ))
    return cases


def settings() -> dict:
    """Each workload's generator parameters and budget, for the BENCH record."""
    return {
        "ladder": {"rows_w_ucap_iucap_indicators": LADDER_ROWS, "size_jitter": LADDER_JITTER,
                   "budget_ms": DEFAULT_BUDGET_MS},
        "pairs_core": {"k": PAIRS_KS, "ucap": PAIRS_UCAP, "iucap": PAIRS_IUCAP,
                       "budget_ms": DEFAULT_BUDGET_MS},
        "binpack": {"items_max": PACK_MAX_ITEMS, "item_sizes": PACK_ITEM_SIZES,
                    "bin_sizes": PACK_BIN_SIZES, "bin_counts": PACK_BIN_COUNTS,
                    "instances": len(list(packings())), "budget_ms": BINPACK_BUDGET_MS,
                    "max_units": "as binpack_to_pup_iucap2 returns"},
        "sweep": {"instances": SWEEP_COUNT, "indicators_max": SWEEP_MAX_INDICATORS,
                  "sensors_max": SWEEP_MAX_SENSORS, "edge_p": SWEEP_EDGE_P, "ucap": SWEEP_UCAPS,
                  "iucap": SWEEP_IUCAPS, "budget_ms": SWEEP_BUDGET_MS},
    }


GENERATORS = {"ladder": ladder, "pairs_core": pairs_core, "binpack": binpack, "sweep": sweep}
