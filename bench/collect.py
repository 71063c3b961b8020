"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py [--traced] [--out FILE]

For every workload it makes one untraced run on each seed in SEEDS, and
reports for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--traced`` adds one traced run per workload.  The
summary is printed and, with ``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SEEDS = range(101, 111)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary: dict = {"run_seconds": seconds, "end_to_end": {}, "per_layer": {}}
    worst = 0.0
    for workload in names:
        runs = [one_run(workload, seed, seconds, 0) for seed in SEEDS]
        bad = [r for r in runs if not r["correct"]]
        if bad:
            raise SystemExit(f"{workload}: incorrect runs: {bad}")
        rows = {}
        for name in bounds:
            row = summarise([r["metrics"][name]["value"] for r in runs])
            row["unit"] = runs[0]["metrics"][name]["unit"]
            rows[name] = row
            if name != "setup_s":
                worst = max(worst, row["spread"] / bounds[name])
            print(f"{workload:15s} {name:12s} median {row['median']:.6g} {row['unit']:3s} "
                  f"spread {row['spread']:.4f} (bound {bounds[name]})")
        rows["attempted"] = summarise([r["attempted"] for r in runs])
        summary["end_to_end"][workload] = rows
        if args.traced:
            traced = one_run(workload, SEEDS[0], seconds, 1)
            summary["per_layer"][workload] = {
                n: m["value"] for n, m in traced["metrics"].items()}
            print(f"{workload:15s} traced: " + ", ".join(
                f"{n} {m['value']:.4g}" for n, m in traced["metrics"].items()))
    print(f"largest spread / bound, setup_s aside: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
