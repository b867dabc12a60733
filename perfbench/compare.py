"""Compare two result sets (parent and change); report only, never gate.

    python3 perfbench/compare.py .perfbench/sets/parent .perfbench/sets/change

Run from the repository root. Each set is a directory filled by collect.py
with every workload and the same run length on both sides. Runs are paired
by seed; every workload must have seeds in common. For every workload and
end-to-end metric it prints both medians and quartiles, the share of pairs
the change wins (ties count for neither) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance
  no worse    the change's median is within the metric's bound of the parent's
  worse       the change's median is worse by more than the bound
  unresolved  the run-to-run spread exceeds the bound, so "no worse" cannot
              be told from "worse" (unless every change run beats every
              parent run)

setup_s, a fresh import timed on a shared machine, is the noisiest metric;
where its spread exceeds its bound it reads unresolved.

It then prints, per workload, failed_frac and leak_breach_frac of both sides
over the commands both sides ran (for each seed pair, the shorter run's
prefix of the seed's command sequence), so with unchanged numerics they
repeat exactly. Such a row is worse when the change's fraction is higher.
When either rose, no timing gain of that workload counts: its "improved"
verdicts read "no worse" with a note.

Bounds and the better direction come from BENCHMARK.json. Exit status is 0
whatever the verdicts; 1 only when the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys

import collect
import run
import stats

OUTCOMES = ("failed_frac", "leak_breach_frac")


def pair_runs(parent: dict, change: dict) -> dict:
    """workload -> (parent runs, change runs), both on the seeds they share,
    in seed order. Raises ValueError when the sets cannot be paired."""
    if set(parent) != set(change):
        raise ValueError(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    pairs = {}
    for workload in sorted(parent):
        seeds = {r["seed"] for r in parent[workload]} & {r["seed"] for r in change[workload]}
        if not seeds:
            raise ValueError(f"{workload}: the two sets share no seed")
        pairs[workload] = tuple(sorted((r for r in side[workload] if r["seed"] in seeds),
                                       key=lambda r: r["seed"])
                                for side in (parent, change))
    return pairs


def outcomes(p_runs: list, c_runs: list) -> dict:
    """failed_frac and leak_breach_frac of each side over the commands both
    sides ran; leak_breach_frac is None when those commands report no leak."""
    counts = {"parent": [0, 0, 0, 0], "change": [0, 0, 0, 0]}  # failed, ops, breaches, steps
    for p, c in zip(p_runs, c_runs):
        n = min(len(p["ops"]), len(c["ops"]))
        for side, record in (("parent", p), ("change", c)):
            for op in record["ops"][:n]:
                tally = counts[side]
                tally[0] += not op["ok"]
                tally[1] += 1
                if op["ok"]:
                    tally[2] += sum(leak > run.LEAK_THRESHOLD for leak in op["leaks"])
                    tally[3] += len(op["leaks"])
    return {
        "failed_frac": {side: stats.ratio(t[0], t[1]) for side, t in counts.items()},
        "leak_breach_frac": {side: stats.ratio(t[2], t[3]) if t[3] else None
                             for side, t in counts.items()},
    }


def outcome_verdict(parent, change) -> str:
    if parent is None and change is None:
        return "n/a"
    if parent is None or change is None or change > parent:
        return "worse"
    return "improved" if change < parent else "no worse"


def compare(parent: dict, change: dict, metrics: list[dict]) -> tuple[list, list]:
    """(timing rows, outcome rows) for every workload."""
    rows, outcome_rows = [], []
    for workload, (p_runs, c_runs) in pair_runs(parent, change).items():
        fracs = outcomes(p_runs, c_runs)
        risen = []
        for name in OUTCOMES:
            p, c = fracs[name]["parent"], fracs[name]["change"]
            v = outcome_verdict(p, c)
            outcome_rows.append({"workload": workload, "metric": name,
                                 "parent": p, "change": c, "verdict": v})
            if v == "worse":
                risen.append(name)
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = stats.verdict(p, c, metric["better"], metric["bound"])
            note = ""
            if v == "improved" and risen:
                v, note = "no worse", f"gain not counted: {', '.join(risen)} rose"
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "pairs": len(p),
                "parent": stats.quartiles(p),
                "change": stats.quartiles(c),
                "wins": stats.pair_wins(p, c, metric["better"]),
                "verdict": v,
                "note": note,
            })
    return rows, outcome_rows


def _frac(value) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="result directory of the parent commit")
    parser.add_argument("change", help="result directory of the change")
    args = parser.parse_args(argv)

    with open(collect.BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    parent, change = collect.load(args.parent, 0), collect.load(args.change, 0)
    if not parent or not change:
        print("both directories must hold untraced results", file=sys.stderr)
        return 1
    try:
        rows, outcome_rows = compare(parent, change, metrics)
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 1
    print(f"{'workload':16s} {'metric':12s} {'unit':5s} {'pairs':>5s} "
          f"{'parent q1 / median / q3':>34s} {'change q1 / median / q3':>34s} "
          f"{'wins':>5s}  verdict")
    for r in rows:
        p = " / ".join(f"{v:.4g}" for v in r["parent"])
        c = " / ".join(f"{v:.4g}" for v in r["change"])
        note = f" ({r['note']})" if r["note"] else ""
        print(f"{r['workload']:16s} {r['metric']:12s} {r['unit']:5s} {r['pairs']:5d} "
              f"{p:>34s} {c:>34s} {r['wins']:5.2f}  {r['verdict']}{note}")
    print(f"\n{'workload':16s} {'outcome':16s} {'parent':>10s} {'change':>10s}  verdict")
    for r in outcome_rows:
        print(f"{r['workload']:16s} {r['metric']:16s} {_frac(r['parent']):>10s} "
              f"{_frac(r['change']):>10s}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
