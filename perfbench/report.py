"""Run the benchmark over workloads and seeds and print one row per workload.

    python3 perfbench/report.py                            # each workload once, seed 1
    python3 perfbench/report.py --seeds 10 --trace         # ten seeds, plus traced runs
    python3 perfbench/report.py --seeds 10 --trace --write perfbench/BENCH_1.json

Each run is a separate ``run.py`` process, run one after another, with the
run length from BENCHMARK.json.  The table shows, per workload, the median
over seeds of every end-to-end figure, and the spread of each end-to-end
metric: the distance between its first and third quartile as a share of
its median, next to the bound BENCHMARK.json gives it.  ``--write`` saves
all of it, with the per-layer medians and the generator settings, as a
BENCH record.  A run that fails its checks stops the report with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORDER = ("ladder", "pairs_core", "binpack", "sweep")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON line and its per-run record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report: {' '.join(cmd[1:])} exited {proc.returncode}")
    record = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return json.loads(lines[-1]), record


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1, help="seeds 1..N per workload")
    ap.add_argument("--workload", action="append", choices=ORDER, help="default: all four")
    ap.add_argument("--trace", action="store_true", help="also make one traced run per seed")
    ap.add_argument("--write", type=Path, help="save the BENCH record here")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    e2e_spec = {m["name"]: m for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = list(range(1, args.seeds + 1))
    chosen = args.workload or list(ORDER)

    out: dict = {}
    for workload in chosen:
        runs = []
        for seed in seeds:
            line, record = run_once(workload, seed, seconds, 0)
            runs.append(record)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), file=sys.stderr)
        entry = {
            "why": why.get(workload, ""),
            "seeds": seeds,
            "end_to_end": {
                name: {**spread([r["end_to_end"][name] for r in runs]), "unit": spec["unit"],
                       "better": spec["better"], "bound": spec["bound"]}
                for name, spec in e2e_spec.items()
            },
            "failed_frac": statistics.median(r["failed_frac"] for r in runs),
            "units_total": statistics.median(r["units_total"] for r in runs),
            "tail_percentile": [r["tail_percentile"] for r in runs],
            "samples": [r["samples"] for r in runs],
        }
        if args.trace:
            layer_runs = []
            for seed in seeds:
                line, _ = run_once(workload, seed, seconds, 1)
                layer_runs.append({k: v["value"] for k, v in line["metrics"].items()})
            entry["per_layer"] = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        out[workload] = entry

    names = list(e2e_spec)
    print(f"{'workload':<11}" + "".join(f"{n:>16}" for n in names + ["failed_frac", "units_total"]))
    print(f"{'':<11}" + "".join(f"{e2e_spec[n]['unit']:>16}" for n in names) + f"{'ratio':>16}{'count':>16}")
    for workload, entry in out.items():
        e = entry["end_to_end"]
        print(f"{workload:<11}" + "".join(f"{e[n]['median']:>16.6g}" for n in names)
              + f"{entry['failed_frac']:>16.6g}{entry['units_total']:>16.6g}")
        print(f"{'  spread':<11}" + "".join(f"{e[n]['spread']:>9.4f}/{e[n]['bound']:<6g}" for n in names))
        print(f"{'  tail':<11} percentiles {sorted(set(entry['tail_percentile']))}, "
              f"samples {min(entry['samples'])}..{max(entry['samples'])}")

    if args.write:
        record = {
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}, "
                       f"Python {platform.python_version()}",
            "run_seconds": seconds,
            "units": {n: s["unit"] for n, s in e2e_spec.items()},
            "generators": workloads.settings(),
            "workloads": out,
        }
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
