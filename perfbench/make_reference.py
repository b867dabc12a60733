"""Record the eta-sweep reference log-negativities the benchmark checks against.

Runs ``gaussify sweep-eta`` over every efficiency the eta-sweep workload can
draw, at each of its truncations and long-step counts, and writes
sweep_reference.json next to this file. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The values are fixed-cutoff two-mode log-negativities; rerun only when a
change is meant to alter them.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from gaussify import cli

import checks
import workloads


def _sweep(d: int, steps: int, path: str) -> list[list[str]]:
    argv = ["sweep-eta", "--sweep-eta", ",".join(f"{e:.2f}" for e in workloads.SWEEP_ETAS),
            "--truncation", str(d), "--steps", str(steps), "--out", path]
    if cli.main(argv) != 0:
        raise SystemExit(f"sweep failed: {argv}")
    _, columns, rows = checks.read_csv(path)
    if columns != checks.SWEEP_HEADER:
        raise SystemExit(f"unexpected sweep columns {columns!r}")
    return rows


def main() -> int:
    table = {}
    initial = None
    os.makedirs(".perfbench", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench") as tmp:
        path = os.path.join(tmp, "sweep.csv")
        for d in workloads.SWEEP_TRUNCATIONS:
            per_eta = {f"{e:.2f}": [None] * workloads.SWEEP_MAX_STEPS for e in workloads.SWEEP_ETAS}
            for steps in range(2, workloads.SWEEP_MAX_STEPS + 1):
                for eta, k, log_neg, init in _sweep(d, steps, path):
                    per_eta[f"{float(eta):.2f}"][int(k) - 1] = float(log_neg)
                    initial = float(init)
            table[str(d)] = per_eta
    out = {"initial_log_negativity": initial, "log_negativity": table}
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_reference.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
