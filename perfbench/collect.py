"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/collect.py --seeds 1-10 --out .perfbench/sets/parent
    python3 perfbench/collect.py --seeds 1 --trace 1 --out .perfbench/sets/traced

Run from the repository root. Each seed runs every workload, each run being
``run.py --workload W --seed N`` with run_seconds from BENCHMARK.json; its
full result is copied into --out.
The table gives, for every metric, its unit, median, quartiles and spread
(quartile distance over median), plus the environment block of the first run
and, for traced runs, the end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

import spans
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
EXTRAS = (("failed_frac", "ratio"), ("leak_breach_frac", "ratio"),
          ("op_tail_percentile", "%"), ("op_tail_samples", "count"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load(directory: str, trace: int) -> dict:
    """workload -> list of result records, ordered by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def table(runs: dict, bounds: dict) -> str:
    lines = []
    for workload, records in runs.items():
        seeds = ",".join(str(r["seed"]) for r in records)
        lines.append(f"\n{workload}  ({len(records)} runs, seeds {seeds})")
        lines.append(f"  {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
                     f" {'spread':>7s} {'bound':>6s}")
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in records])
                for name, m in records[0]["metrics"].items()]
        rows += [(name, unit, [r["extras"][name] for r in records]) for name, unit in EXTRAS
                 if name in records[0]["extras"]]
        for name, unit, values in rows:
            if any(v is None for v in values):
                lines.append(f"  {name:40s} {unit:6s} {'n/a (no such outputs)':>12s}")
                continue
            q1, med, q3 = stats.quartiles(values)
            bound = bounds.get(name)
            lines.append(f"  {name:40s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                         f" {stats.spread(values):7.3f} {'' if bound is None else bound:>6}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory that collects the results")
    args = parser.parse_args(argv)

    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in workloads.GENERATORS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            print(f"{workload} seed {seed}: {done.stdout.splitlines()[-1]}", flush=True)
            name = f"{workload}-seed{seed}-trace{args.trace}.json"
            shutil.copy(os.path.join(".perfbench", "results", name), args.out)

    runs = load(args.out, args.trace)
    if not runs:
        print(f"no results in {args.out}", file=sys.stderr)
        return 1
    first = next(iter(runs.values()))[0]
    print("environment:")
    for key, value in first["env"].items():
        print(f"  {key}: {value}")
    print(table(runs, bounds))
    if args.trace:
        print("\nlayer metric -> end-to-end metric it should move")
        for name, unit, target in spans.LAYER_METRICS:
            print(f"  {name:40s} {unit:6s} {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
