"""Output checks for every benchmark command.

Each check reads the files a command wrote and returns a list of problems
(empty when the output is correct). Column layouts are the ones the CLI
tests pin. Standard library only.
"""

from __future__ import annotations

import json
import math
import os

RUN_HEADER = "step,p_success,p_cumulative,log_negativity,purity,gaussianity,leak"
SWEEP_HEADER = "eta,steps,log_negativity,initial_log_negativity"
WIGNER_HEADER = "x,p,w"
CHECK_HEADER = "quantity,value"

# CSV floats carry 12 significant digits.
CUMULATIVE_RTOL = 1e-9
PURITY_SLACK = 1e-9
# Sweep log-negativities against values recorded with the current program:
# loose enough for a different BLAS summation order, tight enough to catch
# a changed result.
SWEEP_ATOL = 1e-9
# Riemann sum of a 101 x 101 grid over [-4, 4]^2: the weight outside the
# window grows with epsilon and step, and reaches 1.6e-4 at epsilon 1.2,
# step 2. The 12-digit CSV puts pi * |W| up to 7e-13 above 1 at the origin.
WIGNER_INTEGRAL_TOL = 1e-3
WIGNER_BOUND = 1 / math.pi + 1e-9
GAUSSIAN_CHECK_TOL = 1e-4

_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_reference.json")


def load_reference() -> dict:
    with open(_REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path: str):
    """(header dict, column line, data rows as field lists) of a gaussify CSV."""
    header, columns, rows = {}, None, []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    header[key.strip()] = value.strip()
            elif columns is None:
                columns = line
            else:
                rows.append(line.split(","))
    return header, columns, rows


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_run(argv, out):
    """Trace invariants; also returns the leak of every completed step."""
    _, columns, rows = read_csv(out + ".csv")
    if columns != RUN_HEADER:
        return [f"run columns {columns!r}"], []
    rows = [[float(v) for v in row] for row in rows]
    problems = []
    steps = int(_flag(argv, "--steps"))
    if len(rows) != steps + 1:
        problems.append(f"{len(rows)} rows for {steps} steps")
    single = "--single-mode" in argv
    cumulative = 1.0
    for k, (step, p, p_cum, log_neg, pur, gauss, leak) in enumerate(rows):
        where = f"step {k}"
        if step != k:
            problems.append(f"{where}: step column {step}")
        if not 0.0 < p <= 1.0:
            problems.append(f"{where}: p_success {p}")
        cumulative *= p
        if not math.isclose(p_cum, cumulative, rel_tol=CUMULATIVE_RTOL):
            problems.append(f"{where}: p_cumulative {p_cum} != running product {cumulative}")
        if not 0.0 < pur <= 1.0 + PURITY_SLACK:
            problems.append(f"{where}: purity {pur}")
        if single:
            if not math.isnan(log_neg):
                problems.append(f"{where}: single-mode log_negativity {log_neg}")
        elif not (math.isfinite(log_neg) and log_neg >= 0.0):
            problems.append(f"{where}: log_negativity {log_neg}")
        if not (math.isnan(gauss) or 0.0 <= gauss <= 1.0):
            problems.append(f"{where}: gaussianity {gauss}")
        if not leak >= 0.0:
            problems.append(f"{where}: leak {leak}")
    return problems, [row[6] for row in rows[1:]]


def check_sweep(argv, out, reference):
    _, columns, rows = read_csv(out + ".csv")
    if columns != SWEEP_HEADER:
        return [f"sweep columns {columns!r}"]
    rows = [[float(v) for v in row] for row in rows]
    etas = [float(e) for e in _flag(argv, "--sweep-eta").split(",")]
    d = _flag(argv, "--truncation")
    long_steps = int(_flag(argv, "--steps"))
    expected = [(eta, k) for eta in etas for k in (1, long_steps)]
    if [(eta, int(k)) for eta, k, _, _ in rows] != expected:
        return [f"sweep rows {[(r[0], r[1]) for r in rows]} != {expected}"]
    problems = []
    table = reference["log_negativity"][d]
    for eta, k, log_neg, initial in rows:
        want = table[f"{eta:.2f}"][int(k) - 1]
        if not (math.isfinite(log_neg) and log_neg >= 0.0):
            problems.append(f"eta {eta} steps {k}: log_negativity {log_neg}")
        elif abs(log_neg - want) > SWEEP_ATOL:
            problems.append(f"eta {eta} steps {k}: log_negativity {log_neg} != {want}")
        if abs(initial - reference["initial_log_negativity"]) > SWEEP_ATOL:
            problems.append(f"initial_log_negativity {initial}")
    return problems


def check_wigner(argv, out):
    problems = []
    steps = [int(k) for k in _flag(argv, "--wigner-steps").split(",")]
    for k in steps:
        header, columns, rows = read_csv(f"{out}_step{k}.csv")
        if columns != WIGNER_HEADER:
            problems.append(f"step {k}: wigner columns {columns!r}")
            continue
        n = int(header["resolution"])
        if len(rows) != n * n:
            problems.append(f"step {k}: {len(rows)} points for resolution {n}")
            continue
        w = [float(row[2]) for row in rows]
        dx = (float(header["xmax"]) - float(header["xmin"])) / (n - 1)
        dp = (float(header["pmax"]) - float(header["pmin"])) / (n - 1)
        integral = sum(w) * dx * dp
        if abs(integral - 1.0) > WIGNER_INTEGRAL_TOL:
            problems.append(f"step {k}: Wigner integral {integral}")
        peak = max(map(abs, w))
        if peak > WIGNER_BOUND:
            problems.append(f"step {k}: |W| reaches {peak} > 1/pi")
    return problems


def check_gaussian(argv, out):
    _, columns, rows = read_csv(out + ".csv")
    if columns != CHECK_HEADER or len(rows) != 3:
        return [f"gaussian-check layout {columns!r} with {len(rows)} rows"]
    return [f"{name} {value}" for name, value in rows if not float(value) <= GAUSSIAN_CHECK_TOL]


def output_files(argv, out) -> list[str]:
    if argv[0] == "wigner":
        return [f"{out}_step{k}.csv" for k in _flag(argv, "--wigner-steps").split(",")]
    return [out + ".csv"]


def check(argv, out, reference):
    """(problems, leaks) for one finished command."""
    if argv[0] == "run":
        return check_run(argv, out)
    if argv[0] == "sweep-eta":
        return check_sweep(argv, out, reference), []
    if argv[0] == "wigner":
        return check_wigner(argv, out), []
    if argv[0] == "gaussian-check":
        return check_gaussian(argv, out), []
    return [f"unknown command {argv[0]!r}"], []
