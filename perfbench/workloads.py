"""Seeded command generators for the benchmark workloads.

Each workload is an endless sequence of gaussify CLI argv lists drawn from
the workload seed. Commands come in blocks of fixed composition, and every
parameter is drawn stratified (one draw per stratum over a few blocks,
strata shuffled), so any two seeds cover the parameter ranges almost
identically and a run-to-run difference reflects the program, not the luck
of the draw. The program only ever sees the argv lists.

Output paths are written as ``{out}`` and filled in by the runner.
"""

from __future__ import annotations

import itertools
import random

# Sweep efficiencies are drawn from this grid so every sweep value has a
# reference log-negativity recorded in sweep_reference.json.
SWEEP_ETAS = tuple(round(0.10 + 0.05 * k, 2) for k in range(19))
SWEEP_TRUNCATIONS = (6, 8)
SWEEP_MAX_STEPS = 6
# Point-steps per sweep; a step at cutoff 8 costs about twice one at 6.
SWEEP_WORK = {6: 28, 8: 14}

WHY = {
    "lossy-adaptive": (
        "two-mode on/off and homodyne runs with adaptive cutoff 6 to 10 (some 12): "
        "density step kernel bound, with adaptive re-runs and cap hits"
    ),
    "eta-sweep": (
        "sweep-eta grids at fixed cutoff 6 and 8, half with --jobs 2: beam-splitter "
        "rebuild, Gaussianity metrics and the thread pool; adaptive cutoff bypassed"
    ),
    "pure-and-grids": (
        "vacuum-detector and single-mode runs, Wigner export and gaussian-check: pure "
        "and single-mode kernels, Wigner grids and CSV output; no density kernel"
    ),
}

# Commands replayed, in order, by a traced run; fixed per workload so the
# traced counts repeat exactly for a seed.
TRACE_OPS = {"lossy-adaptive": 10, "eta-sweep": 8, "pure-and-grids": 50}


def _strata(rng: random.Random, k: int, lo: float, hi: float):
    """Endless values in [lo, hi]: every k consecutive values hold one uniform
    draw from each of k equal strata, in shuffled order."""
    while True:
        order = list(range(k))
        rng.shuffle(order)
        for s in order:
            yield lo + (hi - lo) * (s + rng.random()) / k


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _lossy_adaptive(rng: random.Random):
    """Blocks of five two-mode runs: two on/off and two homodyne at the default
    cutoff 6 -> 10, and one with --max-truncation 12 whose detector alternates
    between blocks. Parameters are stratified over about three blocks."""
    eta = _strata(rng, 9, 0.4, 0.9)
    radius = _strata(rng, 9, 1.0, 2.0)
    epsilon = _strata(rng, 15, 0.6, 1.2)
    for block in itertools.count():
        cmds = [(f"onoff:{_fmt(next(eta))}", None) for _ in range(2)]
        cmds += [(f"homodyne:{_fmt(next(radius))}", None) for _ in range(2)]
        capped = f"onoff:{_fmt(next(eta))}" if block % 2 == 0 else f"homodyne:{_fmt(next(radius))}"
        cmds.append((capped, 12))
        rng.shuffle(cmds)
        for det, cap in cmds:
            argv = ["run", "--epsilon", _fmt(next(epsilon)), "--steps", "10", "--detector", det]
            if cap is not None:
                argv += ["--max-truncation", str(cap)]
            yield argv + ["--out", "{out}.csv"]


def _eta_sweep(rng: random.Random):
    """Blocks of four sweeps: cutoff 6 and 8, each with and without --jobs 2,
    over 5-10 grid points stratified across two blocks. The long-step count
    is set from the point count so each sweep does about the same work
    (SWEEP_WORK point-steps), which keeps command times in one cluster and
    the median command time away from a gap between clusters."""
    combos = [(d, jobs) for d in SWEEP_TRUNCATIONS for jobs in (1, 2)]
    points = _strata(rng, 8, 5.0, 11.0)
    while True:
        rng.shuffle(combos)
        for d, jobs in combos:
            n = int(next(points))
            steps = max(2, min(SWEEP_MAX_STEPS, round(SWEEP_WORK[d] / n)))
            grid = sorted(rng.sample(SWEEP_ETAS, n))
            argv = ["sweep-eta", "--sweep-eta", ",".join(f"{e:.2f}" for e in grid),
                    "--truncation", str(d), "--steps", str(steps)]
            if jobs > 1:
                argv += ["--jobs", str(jobs)]
            yield argv + ["--out", "{out}.csv"]


def _pure_and_grids(rng: random.Random):
    """Blocks of five: one vacuum-detector two-mode run, one single-mode run,
    two Wigner exports of steps 0, 1, 2 and one gaussian-check at cutoff 14.
    With two grid exports per block the median command is a Wigner export
    and the slowest tenth are the vacuum runs, whose time depends on epsilon;
    each parameter is stratified over eight blocks."""
    vacuum = _strata(rng, 8, 0.6, 1.2)
    single = _strata(rng, 8, 0.6, 1.2)
    grid = _strata(rng, 16, 0.6, 1.2)
    squeezing = _strata(rng, 8, 0.2, 0.6)
    while True:
        cmds = [
            ["run", "--epsilon", _fmt(next(vacuum)), "--steps", "10", "--detector", "vacuum",
             "--out", "{out}.csv"],
            ["run", "--epsilon", _fmt(next(single)), "--steps", "10", "--single-mode",
             "--out", "{out}.csv"],
        ] + [
            ["wigner", "--epsilon", _fmt(next(grid)), "--wigner=-4:4:-4:4:101",
             "--wigner-steps", "0,1,2", "--out", "{out}"]
            for _ in range(2)
        ] + [
            ["gaussian-check", "-r", _fmt(next(squeezing)), "--truncation", "14",
             "--out", "{out}.csv"],
        ]
        rng.shuffle(cmds)
        yield from cmds


GENERATORS = {
    "lossy-adaptive": _lossy_adaptive,
    "eta-sweep": _eta_sweep,
    "pure-and-grids": _pure_and_grids,
}


def commands(workload: str, seed: int):
    """Endless, replayable argv sequence for ``workload`` drawn from ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
