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
from .measurements import HomodyneFilter, IdealVacuum, OnOff, RareOutcomeError
from .protocol import LEAK_THRESHOLD, ProtocolConfig, one_step, run

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


def _config_keys() -> dict:
    """Every subcommand option's dest mapped to its default, read from the
    parser by parsing each bare subcommand; ``config`` is not a key."""
    keys = {}
    for command in _build_parser().commands.values():
        keys.update(vars(command.parse_args([])))
    del keys["config"]
    return keys


def parse_config_file(path: str) -> dict:
    """Flat key = value configuration; unknown keys are rejected.

    Keys are the option dests of any subcommand. A switch (an option whose
    default is False) takes true/false or 1/0 and reads as a bool; every
    other value is kept as its text, for the parser to convert.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    keys = _config_keys()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if keys[key] is False:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: {key} must be true/false, got {value!r}")
            value = value.lower() in ("true", "1")
        values[key] = value
    return values


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


def _write_csv(pairs, lines, path) -> str:
    """The output header (``pairs``, then the conventions) followed by
    ``lines``, written to ``path`` (stdout when None) and returned."""
    header = [f"# {key} = {value}" for key, value in (*pairs, *CONVENTIONS)]
    text = "\n".join(["# gaussify output", *header, *lines]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return text
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    return text


def cmd_run(config: ProtocolConfig, out_path=None) -> str:
    """Run a trace and emit one CSV row per iteration record."""
    lines = ["step,p_success,p_cumulative,log_negativity,purity,gaussianity,leak"]
    for rec in run(config).records:
        cells = (rec.step, rec.p_success, rec.p_cumulative, rec.log_negativity,
                 rec.purity, rec.gaussianity, rec.leak)
        lines.append(",".join(map(_fmt, cells)))
    return _write_csv(_config_pairs(config), lines, out_path)


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
    lines = ["eta,steps,log_negativity,initial_log_negativity"]
    for eta, records in zip(etas, results):
        for steps in sorted({1, long_steps}):
            log_neg = records[steps].log_negativity
            lines.append(",".join([_fmt(float(eta)), str(steps), _fmt(log_neg), _fmt(reference)]))
    return _write_csv(pairs, lines, out_path)


def write_wigner_grid(grid: WignerGrid, pairs, path) -> str:
    lines = [
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
    return _write_csv(pairs, lines, path)


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
    squeezed = two_mode_squeezed(r)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            predicted = ideal_step_covariance(squeezed)
    except ValueError:  # for a finite r >= 0, only GaussianState's non-finite check raises it
        raise OverflowError(
            f"the one-step covariance prediction overflows a double at squeezing r = {r:g}"
        ) from None
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
    text = _write_csv(pairs, ["quantity,value", *(f"{k},{v}" for k, v in pairs[3:])], out_path)
    # a NaN deviation fails every comparison, so it counts as a breach
    if not (gamma_dev <= tol and d_dev <= tol and symp_residual <= 1e-12):
        raise ToleranceBreach(
            f"deviation above tolerance: gamma {gamma_dev:.3e}, displacement "
            f"{d_dev:.3e}, symplectic {symp_residual:.3e}"
        )
    return text


def _build_parser() -> _Parser:
    """The one table of the CLI's options; config-file keys are their dests."""
    parser = _Parser(prog="gaussify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Defaults that differ by subcommand are applied in main: actions from
    # parents= are shared, so a default set on one subcommand reaches all.
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--epsilon", type=float, default=0.95, help="input-state parameter (>= 0)")
    common.add_argument("--steps", type=int,
                        help="number of iteration steps (>= 0; run 0, sweep-eta 10)")
    common.add_argument("--truncation", type=int,
                        help="per-mode Fock cutoff (>= 2; gaussian-check 14)")
    common.add_argument("--max-truncation", type=int, help="adaptive-truncation cap")
    common.add_argument("--detector", default="vacuum", help="vacuum | onoff:<eta> | homodyne:<x>")
    common.add_argument("--single-mode", action="store_true", help="single-mode variant")
    common.add_argument("--jobs", type=int, default=1, help="parallel sweep evaluations")
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
    wig.add_argument("--wigner-steps", default="0,1,2", help="comma list of steps")

    check = sub.add_parser(
        "gaussian-check", parents=[common], help="cross-validate against covariance predictions"
    )
    check.add_argument("-r", "--squeezing", type=float, default=0.4)
    check.add_argument("--tol", type=float, default=1e-4)
    parser.commands = sub.choices
    return parser


def _parse_args(parser: _Parser, argv: list[str]):
    """Parse argv. A --config file's key = value lines are the flags they
    spell, --key=value with underscores as dashes (a true switch is the bare
    flag, a false one none); they go right after the subcommand, so the
    explicit flags after them win."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    flags = ["--" + key.replace("_", "-") + ("" if value is True else f"={value}")
             for key, value in parse_config_file(args.config).items() if value is not False]
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _protocol_config(args) -> ProtocolConfig:
    return _build(
        ProtocolConfig,
        steps=0 if args.steps is None else args.steps,
        epsilon=args.epsilon,
        mode_count=1 if args.single_mode else 2,
        truncation=args.truncation,
        max_truncation=args.max_truncation,
        detector=parse_detector(args.detector),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
        if args.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        # the Wigner export always runs the single-mode variant
        args.single_mode = args.single_mode or args.command == "wigner"
        config = _protocol_config(args)
        if args.command == "run":
            cmd_run(config, args.out)
        elif args.command == "sweep-eta":
            if args.sweep_eta is None:
                raise ConfigError("sweep-eta requires --sweep-eta")
            etas = parse_sweep_spec(args.sweep_eta)
            long_steps = 10 if args.steps is None else args.steps
            cmd_sweep_eta(config, etas, long_steps, args.jobs, args.out)
        elif args.command == "wigner":
            if args.wigner is None:
                raise ConfigError("wigner requires --wigner xmin:xmax:pmin:pmax:n")
            grid_spec = parse_wigner_spec(args.wigner)
            step_list = sorted(
                {_number(int, v, "wigner step") for v in args.wigner_steps.split(",") if v.strip()}
            )
            if not step_list or min(step_list) < 0:
                raise ConfigError(f"bad step list {args.wigner_steps!r}")
            cmd_wigner(config, step_list, grid_spec, args.out or "wigner")
        elif args.command == "gaussian-check":
            truncation = 14 if args.truncation is None else args.truncation
            cmd_gaussian_check(args.squeezing, truncation, args.tol, args.out)
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
