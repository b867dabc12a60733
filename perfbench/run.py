"""gaussify benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lossy-adaptive --seed 1 --seconds 30 --trace 0

Run from the repository root. Set-up time is the median of several fresh
interpreters importing gaussify.cli, half of them timed before the workload
and half after it, so the median follows the machine over the whole run. The
workload runs in one more fresh interpreter (worker.py). BLAS thread variables are passed through untouched,
so the figures are what a user of the CLI gets.

With --trace 0 the last line of standard output is the end-to-end result;
with --trace 1 it holds the per-layer metrics of a traced replay. The full
result -- environment, generated argv lists, per-command times and checks --
is also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import spans
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 12
SETUP_TIMEOUT = 60
# The worker finishes the command in flight at the deadline; the longest
# commands take well under 20 s.
WORKER_SLACK = 60
# A step "breaches" when its leak exceeds 1e-6, the value of
# gaussify.protocol.LEAK_THRESHOLD when the benchmark was defined. Fixed here
# so a change to the program's threshold cannot move leak_breach_frac.
LEAK_THRESHOLD = 1e-6

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gaussify.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest(root: str) -> str:
    """sha256 over the paths and bytes of every .py file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root: str):
    """HEAD of the repository at root; None in a checkout without .git."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def setup_times(env: dict, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(raw: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, extras) of an untraced run."""
    ops = raw["ops"]
    ok = [op["seconds"] for op in ops if op["ok"]]
    if not ok:
        raise RuntimeError("no command succeeded")
    tail_value, tail_pct, tail_n = stats.tail(ok)
    leaks = [leak for op in ops if op["ok"] for leak in op["leaks"]]
    breaches = sum(1 for leak in leaks if leak > LEAK_THRESHOLD)
    failed = len(ops) - len(ok)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ok) / sum(op["seconds"] for op in ops),
        "op_p50_s": statistics.median(ok),
        "op_tail_s": tail_value,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    extras = {
        "op_tail_percentile": tail_pct,
        "op_tail_samples": tail_n,
        "failed_frac": failed / len(ops),
        "leak_breach_frac": stats.ratio(breaches, len(leaks)) if leaks else None,
        "leak_steps": len(leaks),
        "setup_samples_s": setup,
    }
    return metrics, extras


def per_layer(raw: dict) -> dict:
    ops = raw["ops"]
    return spans.layer_metrics(
        raw["spans"],
        [op["traced"]["seconds"] for op in ops],
        [op["untraced"]["seconds"] for op in ops],
        sum(op["traced"]["bytes_out"] for op in ops),
        LEAK_THRESHOLD,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussify benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gaussify", "cli.py")):
        print("perfbench: src/gaussify/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2

    env = _child_env(root)
    state = os.path.join(root, ".perfbench")
    results = os.path.join(state, "results")
    os.makedirs(results, exist_ok=True)
    setup = [] if args.trace else setup_times(env, SETUP_SAMPLES // 2)
    work = tempfile.mkdtemp(prefix="run-", dir=state)
    try:
        raw_path = os.path.join(work, "raw.json")
        outdir = os.path.join(work, "out")
        os.mkdir(outdir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--outdir", outdir, "--result", raw_path]
        done = subprocess.run(cmd, env=env, timeout=args.seconds + WORKER_SLACK)
        if done.returncode != 0:
            print(f"perfbench: worker exited with {done.returncode}", file=sys.stderr)
            return 2
        with open(raw_path, encoding="utf-8") as handle:
            raw = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setup += setup_times(env, SETUP_SAMPLES - len(setup))

    if args.trace:
        attempted = 2 * len(raw["ops"])
        failed = sum(not op[k]["ok"] for op in raw["ops"] for k in ("traced", "untraced"))
        values = per_layer(raw)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        extras = {}
    else:
        attempted = len(raw["ops"])
        failed = sum(not op["ok"] for op in raw["ops"])
        values, extras = end_to_end(raw, setup)
        units = dict(END_TO_END)

    env_block = {"git_sha": git_sha(root), "source_sha256": source_digest(root), **raw["env"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_block,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "ops": raw["ops"],
    }
    if args.trace:
        record["spans"] = raw["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    print("env " + json.dumps(env_block, sort_keys=True))
    if extras:
        print("extras " + json.dumps(extras, sort_keys=True))
    for op in raw["ops"]:
        runs = [op[k] for k in ("traced", "untraced")] if args.trace else [op]
        for problems in (r["problems"] for r in runs if r["problems"]):
            print(f"failed: {' '.join(op['argv'])}: {problems}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
