"""One workload run in a fresh interpreter: a single closed-loop client that
sends gaussify CLI commands in-process, one after another.

gaussify is the first numeric import, so BLAS starts up exactly as it does
for the CLI. Started by run.py; writes its raw results as JSON to --result.
"""

from __future__ import annotations

import gaussify.cli  # first numeric import; see module docstring

import argparse
import glob
import json
import os
import resource
import sys
import time
import traceback

import checks
import spans
import workloads

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Small fixed command run once, untimed, before the timed loop so lazy
# imports and first-call set-up inside numpy/scipy are not charged to it.
WARMUP = ["run", "--epsilon", "0.9", "--steps", "2", "--truncation", "4",
          "--detector", "onoff:0.5", "--out", "{out}.csv"]


def _blas_threads():
    """Thread count OpenBLAS actually uses, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    found = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    measured = _blas_threads()
    explicit = found["OPENBLAS_NUM_THREADS"] or found["OMP_NUM_THREADS"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_vars": found,
        # OpenBLAS uses every core unless told otherwise.
        "blas_threads": measured if measured is not None else int(explicit or nproc),
        "blas_threads_source": "queried" if measured is not None else "inferred",
    }


def _run_one(argv, out, reference) -> dict:
    """Run one command through cli.main and check what it wrote."""
    argv = [a.replace("{out}", out) for a in argv]
    for path in checks.output_files(argv, out):
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    try:
        code = gaussify.cli.main(argv)
        error = None
    except Exception:  # a crash is a failed op, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    problems, leaks = [], []
    if code != 0:
        problems.append(error or f"exit code {code}")
    else:
        try:
            problems, leaks = checks.check(argv, out, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    written = sum(os.path.getsize(p) for p in checks.output_files(argv, out) if os.path.exists(p))
    return {"seconds": seconds, "ok": not problems, "problems": problems[:5],
            "leaks": leaks, "bytes_out": written}


def timed_loop(workload, seed, seconds, out, reference):
    ops = []
    gen = workloads.commands(workload, seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        argv = next(gen)
        ops.append({"argv": argv, **_run_one(argv, out, reference)})
    return {"ops": ops}


def traced_replay(workload, seed, out, reference):
    """Replay a fixed prefix of the command sequence, each command once
    traced and once untraced (alternating which goes first)."""
    tracer = spans.Tracer()
    gen = workloads.commands(workload, seed)
    ops = []
    for i in range(workloads.TRACE_OPS[workload]):
        argv = next(gen)
        record = {"argv": argv}
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                tracer.install(i)
                try:
                    record["traced"] = _run_one(argv, out, reference)
                finally:
                    tracer.uninstall()
            else:
                record["untraced"] = _run_one(argv, out, reference)
        ops.append(record)
    return {"ops": ops, "spans": tracer.spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True, help="directory for the CLI's output files")
    parser.add_argument("--result", required=True, help="path of the JSON result")
    args = parser.parse_args()

    reference = checks.load_reference()
    out = os.path.join(args.outdir, "out")
    warm = _run_one(WARMUP, out, reference)
    if not warm["ok"]:
        print(f"warm-up command failed: {warm['problems']}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_replay(args.workload, args.seed, out, reference)
    else:
        result = timed_loop(args.workload, args.seed, args.seconds, out, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
