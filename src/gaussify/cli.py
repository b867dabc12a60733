"""Command-line front end: protocol runs, efficiency sweeps, Wigner-grid export,
and Gaussian cross-validation, emitting plot-ready CSV.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 tolerance breach.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .fock import two_mode_squeezed_ket
from .gaussian import (
    covariance_of_state,
    eight_port_symplectic,
    ideal_step_covariance,
    symplectic_form,
    two_mode_squeezed,
)
from .measures import LOG_BASE, WignerGrid, wigner, wigner_axes
from .measurements import (
    HomodyneFilter,
    IdealVacuum,
    OnOff,
    RareOutcomeError,
)
from .protocol import (
    LEAK_THRESHOLD,
    ProtocolConfig,
    one_step,
    run,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_TOLERANCE = 3

FLOAT_FMT = "{:.12g}"

# Conventions embedded in every output header so results are reproducible.
CONVENTIONS = (
    ("bs_convention", "a+ -> (a+ + b+)/sqrt(2); b+ -> (-a+ + b+)/sqrt(2)"),
    ("log_base", str(LOG_BASE)),
    ("detector_policy", "success effect applied independently at each party's detector"),
)

CONFIG_KEYS = (
    "epsilon",
    "steps",
    "truncation",
    "max_truncation",
    "detector",
    "single_mode",
    "sweep_eta",
    "wigner",
    "wigner_steps",
    "jobs",
    "out",
)


class ConfigError(ValueError):
    """Invalid flag, config-file entry, or parameter range."""


class ToleranceBreach(RuntimeError):
    """A validation report exceeded its tolerance."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for numerics
        raise ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return FLOAT_FMT.format(value)
    return str(value)


def _number(convert, text: str, what: str):
    """convert(text) for user text, a malformed number being a configuration error."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc


def _build(model, *args, **kwargs):
    """model(*args, **kwargs), its own range checks reported as configuration errors."""
    try:
        return model(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_detector(text: str):
    text = text.strip()
    if text == "vacuum":
        return IdealVacuum()
    kind, _, arg = text.partition(":")
    if kind == "onoff":
        return _build(OnOff, _number(float, arg, "on/off efficiency"))
    if kind == "homodyne":
        return _build(HomodyneFilter, _number(float, arg, "filter radius"))
    raise ConfigError(
        f"unknown detector {text!r}; expected vacuum, onoff:<eta> or homodyne:<x>"
    )


def detector_label(detector) -> str:
    if isinstance(detector, IdealVacuum):
        return "vacuum"
    if isinstance(detector, OnOff):
        return f"onoff:{_fmt(detector.eta)}"
    return f"homodyne:{_fmt(detector.radius)}"


def parse_config_file(path: str) -> dict:
    """Flat key = value configuration; unknown keys are rejected."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _typed(values: dict) -> dict:
    """Config-file strings converted to the flags' types; ranges are checked
    where the values are used (ProtocolConfig, the detector models, jobs)."""
    out = {}
    for key, convert in (("epsilon", float), ("steps", int), ("truncation", int),
                         ("max_truncation", int), ("jobs", int)):
        if key in values:
            out[key] = _number(convert, values[key], key)
    if "detector" in values:
        out["detector"] = parse_detector(values["detector"])
    if "single_mode" in values:
        raw = str(values["single_mode"]).lower()
        if raw not in ("true", "false", "1", "0"):
            raise ConfigError(f"single_mode must be true/false, got {raw!r}")
        out["single_mode"] = raw in ("true", "1")
    for key in ("sweep_eta", "wigner", "wigner_steps", "out"):
        if key in values:
            out[key] = values[key]
    return out


def parse_sweep_spec(text: str) -> list[float]:
    """Either comma-separated values or start:stop:count."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected start:stop:count, got {text!r}")
        start, stop = (_number(float, v, "efficiency") for v in parts[:2])
        count = _number(int, parts[2], "sweep count")
        if count < 1:
            raise ConfigError("sweep count must be >= 1")
        etas = list(np.linspace(start, stop, count))
    else:
        etas = [_number(float, v, "efficiency") for v in text.split(",") if v.strip()]
    if not etas:
        raise ConfigError("empty efficiency sweep")
    for eta in etas:
        _build(OnOff, eta)
    return etas


def parse_wigner_spec(text: str):
    parts = text.strip().split(":")
    if len(parts) != 5:
        raise ConfigError(f"expected xmin:xmax:pmin:pmax:n, got {text!r}")
    xmin, xmax, pmin, pmax = (_number(float, v, "grid bound") for v in parts[:4])
    n = _number(int, parts[4], "grid resolution")
    _build(wigner_axes, (xmin, xmax), (pmin, pmax), n)
    return (xmin, xmax), (pmin, pmax), n


def _header_lines(pairs) -> list[str]:
    lines = ["# gaussify output"]
    for key, value in pairs:
        lines.append(f"# {key} = {value}")
    for key, value in CONVENTIONS:
        lines.append(f"# {key} = {value}")
    return lines


def _config_pairs(config: ProtocolConfig) -> list:
    return [
        ("epsilon", _fmt(config.epsilon)),
        ("steps", config.steps),
        ("truncation", config.truncation),
        ("max_truncation", config.max_truncation),
        ("detector", detector_label(config.detector)),
        ("single_mode", str(config.mode_count == 1).lower()),
        ("leak_threshold", _fmt(LEAK_THRESHOLD)),
    ]


def _emit(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_run(config: ProtocolConfig, out_path=None) -> str:
    """Run a trace and emit one CSV row per iteration record."""
    trace = run(config)
    lines = _header_lines(_config_pairs(config))
    lines.append("step,p_success,p_cumulative,log_negativity,purity,gaussianity,leak")
    for rec in trace.records:
        lines.append(
            ",".join(
                [
                    str(rec.step),
                    _fmt(rec.p_success),
                    _fmt(rec.p_cumulative),
                    _fmt(rec.log_negativity),
                    _fmt(rec.purity),
                    _fmt(rec.gaussianity),
                    _fmt(rec.leak),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return text


def cmd_sweep_eta(
    config: ProtocolConfig, etas, long_steps: int = 10, jobs: int = 1, out_path=None
) -> str:
    """Final log-negativity after 1 and after ``long_steps`` on/off-detector
    steps for each efficiency, plus the initial-state reference value.

    Sweep points run at fixed truncation (no adaptive growth) so every
    efficiency sees the same basis.
    """
    if long_steps < 1:
        raise ConfigError("sweep-eta needs steps >= 1")

    def _point(eta: float):
        cfg = replace(config, steps=long_steps, mode_count=2,
                      max_truncation=config.truncation, detector=OnOff(eta))
        return run(cfg).records

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_point, etas))
    else:
        results = [_point(eta) for eta in etas]

    reference = results[0][0].log_negativity
    pairs = _config_pairs(config) + [
        ("sweep_eta", ",".join(_fmt(float(e)) for e in etas)),
        ("long_steps", long_steps),
        ("initial_log_negativity", _fmt(reference)),
    ]
    lines = _header_lines(pairs)
    lines.append("eta,steps,log_negativity,initial_log_negativity")
    for eta, records in zip(etas, results):
        for steps in sorted({1, long_steps}):
            log_neg = records[steps].log_negativity
            lines.append(",".join([_fmt(float(eta)), str(steps), _fmt(log_neg), _fmt(reference)]))
    text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return text


def write_wigner_grid(grid: WignerGrid, pairs, path) -> str:
    lines = _header_lines(pairs)
    lines += [
        f"# xmin = {_fmt(float(grid.xs[0]))}",
        f"# xmax = {_fmt(float(grid.xs[-1]))}",
        f"# pmin = {_fmt(float(grid.ps[0]))}",
        f"# pmax = {_fmt(float(grid.ps[-1]))}",
        f"# resolution = {len(grid.xs)}",
        "x,p,w",
    ]
    X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    columns = (X.ravel().tolist(), P.ravel().tolist(), grid.values.ravel().tolist())
    # byte-identical to _fmt, nan included
    lines += ["%.12g,%.12g,%.12g" % row for row in zip(*columns)]
    text = "\n".join(lines) + "\n"
    _emit(text, path)
    return text


def parse_wigner_grid(path) -> WignerGrid:
    """Inverse of write_wigner_grid: rebuild the grid from its CSV file."""
    header = {}
    rows = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            if line.startswith("x,p,w"):
                continue
            rows.append([float(v) for v in line.split(",")])
    n = int(header["resolution"])
    xs = np.linspace(float(header["xmin"]), float(header["xmax"]), n)
    ps = np.linspace(float(header["pmin"]), float(header["pmax"]), n)
    values = np.array([r[2] for r in rows]).reshape(n, n)
    return WignerGrid(xs, ps, values)


def cmd_wigner(config: ProtocolConfig, step_list, grid_spec, out_prefix) -> list[str]:
    """One Wigner-grid CSV file per requested step of a single-mode run."""
    if config.mode_count != 1:
        raise ConfigError("wigner export requires a single-mode configuration")
    x_range, p_range, n = grid_spec
    cfg = replace(config, steps=max(step_list))
    records = run(cfg).records
    paths = []
    for k in step_list:
        grid = wigner(records[k].state, x_range, p_range, n)
        pairs = _config_pairs(cfg) + [("wigner_step", k)]
        path = f"{out_prefix}_step{k}.csv" if out_prefix else None
        write_wigner_grid(grid, pairs, path)
        paths.append(path)
    return paths


def cmd_gaussian_check(r: float, d: int, tol: float = 1e-4, out_path=None) -> str:
    """Cross-validate the Fock pipeline against covariance-matrix predictions.

    Reports the maximum second-moment deviation of one ideal step on a
    two-mode squeezed input, and the symplectic identity residual of the
    heterodyne beam-splitter map. Raises ToleranceBreach above ``tol``.
    """
    if not 0 <= r < math.inf:
        raise ConfigError("squeezing r must be finite and >= 0")
    if not tol >= 0:
        raise ConfigError("tolerance must be >= 0")
    if d < 8:
        raise ConfigError("truncation must be >= 8 for the cross check")
    # the prediction first: a squeezing whose covariance overflows fails before the Fock work
    predicted = ideal_step_covariance(two_mode_squeezed(r))
    psi = two_mode_squeezed_ket(r, d)
    outcome = one_step(psi, IdealVacuum())
    fock_moments = covariance_of_state(outcome.conditional_state)
    gamma_dev = float(np.max(np.abs(fock_moments.gamma - predicted.gamma)))
    d_dev = float(np.max(np.abs(fock_moments.d - predicted.d)))

    S = eight_port_symplectic(0).S
    omega = symplectic_form(2)
    symp_residual = float(np.max(np.abs(S @ omega @ S.T - omega)))

    pairs = [
        ("squeezing_r", _fmt(r)),
        ("truncation", d),
        ("tolerance", _fmt(tol)),
        ("max_gamma_deviation", _fmt(gamma_dev)),
        ("max_displacement_deviation", _fmt(d_dev)),
        ("symplectic_identity_residual", _fmt(symp_residual)),
    ]
    lines = _header_lines(pairs)
    lines.append("quantity,value")
    lines.append(f"max_gamma_deviation,{_fmt(gamma_dev)}")
    lines.append(f"max_displacement_deviation,{_fmt(d_dev)}")
    lines.append(f"symplectic_identity_residual,{_fmt(symp_residual)}")
    text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    # a NaN deviation fails every comparison, so it counts as a breach
    if not (gamma_dev <= tol and d_dev <= tol and symp_residual <= 1e-12):
        raise ToleranceBreach(
            f"deviation above tolerance: gamma {gamma_dev:.3e}, displacement "
            f"{d_dev:.3e}, symplectic {symp_residual:.3e}"
        )
    return text


def _build_parser() -> _Parser:
    parser = _Parser(prog="gaussify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--epsilon", type=float, help="input-state parameter (>= 0)")
    common.add_argument("--steps", type=int, help="number of iteration steps (>= 0)")
    common.add_argument("--truncation", type=int, help="per-mode Fock cutoff (>= 2)")
    common.add_argument("--max-truncation", type=int, help="adaptive-truncation cap")
    common.add_argument(
        "--detector", help="vacuum | onoff:<eta> | homodyne:<x>", default=None
    )
    common.add_argument(
        "--single-mode", action="store_true", default=None, help="single-mode variant"
    )
    common.add_argument("--jobs", type=int, help="parallel sweep evaluations")
    common.add_argument("--out", help="output path (default: stdout)")

    sub.add_parser("run", parents=[common], help="iterate the protocol, emit a trace CSV")

    sweep = sub.add_parser(
        "sweep-eta", parents=[common], help="final log-negativity vs detector efficiency"
    )
    sweep.add_argument(
        "--sweep-eta", help="efficiencies as start:stop:count or comma list"
    )

    wig = sub.add_parser("wigner", parents=[common], help="export Wigner grids per step")
    wig.add_argument("--wigner", help="grid as xmin:xmax:pmin:pmax:n")
    wig.add_argument("--wigner-steps", help="comma list of steps (default 0,1,2)")

    check = sub.add_parser(
        "gaussian-check", parents=[common], help="cross-validate against covariance predictions"
    )
    check.add_argument("-r", "--squeezing", type=float, default=0.4)
    check.add_argument("--tol", type=float, default=1e-4)
    return parser


def _merge_config(args) -> dict:
    values = {}
    if args.config:
        values.update(_typed(parse_config_file(args.config)))
    overrides = {
        "epsilon": args.epsilon,
        "steps": args.steps,
        "truncation": args.truncation,
        "max_truncation": args.max_truncation,
        "single_mode": args.single_mode,
        "jobs": args.jobs,
        "out": args.out,
    }
    if args.detector is not None:
        overrides["detector"] = parse_detector(args.detector)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if getattr(args, "sweep_eta", None) is not None:
        values["sweep_eta"] = args.sweep_eta
    if getattr(args, "wigner", None) is not None:
        values["wigner"] = args.wigner
    if getattr(args, "wigner_steps", None) is not None:
        values["wigner_steps"] = args.wigner_steps
    if values.get("jobs", 1) < 1:
        raise ConfigError("jobs must be >= 1")
    return values


def _protocol_config(values: dict) -> ProtocolConfig:
    return _build(
        ProtocolConfig,
        steps=values.get("steps", 0),
        epsilon=values.get("epsilon", 0.95),
        mode_count=1 if values.get("single_mode") else 2,
        truncation=values.get("truncation"),
        max_truncation=values.get("max_truncation"),
        detector=values.get("detector", IdealVacuum()),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        values = _merge_config(args)
        config = _protocol_config(values)
        out = values.get("out")
        if args.command == "run":
            cmd_run(config, out)
        elif args.command == "sweep-eta":
            spec = values.get("sweep_eta")
            if spec is None:
                raise ConfigError("sweep-eta requires --sweep-eta")
            etas = parse_sweep_spec(spec)
            long_steps = values.get("steps", 10)
            cmd_sweep_eta(config, etas, long_steps, values.get("jobs", 1), out)
        elif args.command == "wigner":
            spec = values.get("wigner")
            if spec is None:
                raise ConfigError("wigner requires --wigner xmin:xmax:pmin:pmax:n")
            grid_spec = parse_wigner_spec(spec)
            raw_steps = values.get("wigner_steps", "0,1,2")
            step_list = sorted(
                {_number(int, v, "wigner step") for v in str(raw_steps).split(",") if v.strip()}
            )
            if not step_list or min(step_list) < 0:
                raise ConfigError(f"bad step list {raw_steps!r}")
            if not values.get("single_mode"):
                config = _protocol_config({**values, "single_mode": True})
            cmd_wigner(config, step_list, grid_spec, out or "wigner")
        elif args.command == "gaussian-check":
            cmd_gaussian_check(
                args.squeezing, values.get("truncation", 14), args.tol, out
            )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceBreach as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (RareOutcomeError, np.linalg.LinAlgError, ValueError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
