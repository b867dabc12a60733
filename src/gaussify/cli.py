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
from functools import lru_cache

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

# Conventions embedded in every output header so results are reproducible.
CONVENTIONS = (
    ("bs_convention", "a+ -> (a+ + b+)/sqrt(2); b+ -> (-a+ + b+)/sqrt(2)"),
    ("log_base", str(LOG_BASE)),
    ("detector_policy", "success effect applied independently at each party's detector"),
)


class ConfigError(argparse.ArgumentTypeError, ValueError):
    """Invalid flag, config-file entry, or parameter range (argparse reports its message)."""


class ToleranceBreach(RuntimeError):
    """A validation report exceeded its tolerance."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for numerics
        raise ConfigError(message)


def _fmt(value) -> str:
    return "%.12g" % value if isinstance(value, float) else str(value)


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


def parse_config_file(path: str, command: str) -> list[str]:
    """The flags a flat key = value configuration file spells for ``command``.

    A key is the dest of a flag that ``command`` reads (its _COMMANDS entry);
    its line is --key=value, underscores as dashes, the value kept as text for
    the parser to convert. A switch (a store_true option) takes true/false or
    1/0: a true one is the bare flag, a false one none.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    reads = {f.replace("-", "_"): f for f in _COMMANDS[command][1].split() if f != "config"}
    flags = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        name = reads.get(key)
        if name is None:
            raise ConfigError(f"{path}:{lineno}: {command} takes no --{key.replace('_', '-')}")
        if _OPTIONS[name].get("action") == "store_true":
            if value.lower() not in ("true", "false", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: {key} must be true/false, got {value!r}")
            flags[key] = "--" + name if value.lower() in ("true", "1") else None
        else:
            flags[key] = f"--{name}={value}"
    return [flag for flag in flags.values() if flag]


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


def parse_jobs(text: str) -> int:
    """A worker count: an int >= 1."""
    jobs = _number(int, text, "jobs")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return jobs


def parse_step_list(text: str) -> list[int]:
    """Comma-separated steps >= 0, sorted, without repeats."""
    steps = sorted({_number(int, v, "wigner step") for v in text.split(",") if v.strip()})
    if not steps or steps[0] < 0:
        raise ConfigError(f"bad step list {text!r}")
    return steps


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


def cmd_sweep_eta(config: ProtocolConfig, etas, *, jobs: int = 1, out_path=None) -> str:
    """Final log-negativity after 1 and after ``config.steps`` on/off-detector
    steps for each efficiency, plus the initial-state reference value.

    Sweep points run at fixed truncation (no adaptive growth) so every
    efficiency sees the same basis.
    """
    long_steps = config.steps
    if long_steps < 1:
        raise ConfigError("sweep-eta needs steps >= 1")
    if config.mode_count != 2:
        raise ConfigError("sweep-eta requires a two-mode configuration")

    shown = sorted({1, long_steps})

    def _point(eta: float) -> list[float]:
        records = run(replace(config, max_truncation=config.truncation, detector=OnOff(eta))).records
        return [records[steps].log_negativity for steps in shown]

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_point, etas))
    else:
        results = [_point(eta) for eta in etas]

    # every point starts from the same state, the one a run of no steps records
    reference = run(replace(config, steps=0)).records[0].log_negativity
    # each point ran OnOff(eta) at cap = cutoff, not the config's values
    pairs = [p for p in _config_pairs(config)
             if p[0] not in ("steps", "max_truncation", "detector")] + [
        ("sweep_eta", ",".join(_fmt(float(e)) for e in etas)),
        ("long_steps", long_steps),
        ("initial_log_negativity", _fmt(reference)),
    ]
    lines = ["eta,steps,log_negativity,initial_log_negativity"]
    for eta, log_negs in zip(etas, results):
        for steps, log_neg in zip(shown, log_negs):
            lines.append(",".join([_fmt(float(eta)), str(steps), _fmt(log_neg), _fmt(reference)]))
    return _write_csv(pairs, lines, out_path)


def write_wigner_grid(grid: WignerGrid, pairs, path) -> str:
    """Rows x,p,w with x slowest. Each coordinate is formatted once, into a
    template whose %.12g slots (the rule of _fmt) take all the values in one
    pass."""
    xs, ps = (["%.12g" % v for v in axis.tolist()] for axis in (grid.xs, grid.ps))
    cells = [p + ",%.12g" for p in ps]
    template = "\n".join(x + "," + ("\n" + x + ",").join(cells) for x in xs)
    lines = [
        f"# xmin = {_fmt(float(grid.xs[0]))}",
        f"# xmax = {_fmt(float(grid.xs[-1]))}",
        f"# pmin = {_fmt(float(grid.ps[0]))}",
        f"# pmax = {_fmt(float(grid.ps[-1]))}",
        f"# resolution = {len(grid.xs)}",
        "x,p,w",
        template % tuple(grid.values.ravel().tolist()),
    ]
    return _write_csv(pairs, lines, path)


def parse_wigner_grid(path) -> WignerGrid:
    """Inverse of write_wigner_grid: rebuild the grid from its CSV file."""
    header, rows = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in map(str.strip, handle):
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    header[key.strip()] = value.strip()
            elif line and not line.startswith("x,p,w"):
                rows.append([float(v) for v in line.split(",")])
    # the resolution is the x count; the p count follows from the rows
    values = np.array([r[2] for r in rows]).reshape(int(header["resolution"]), -1)
    xs = np.linspace(float(header["xmin"]), float(header["xmax"]), values.shape[0])
    ps = np.linspace(float(header["pmin"]), float(header["pmax"]), values.shape[1])
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
    text = _write_csv(pairs, ["quantity,value", *(f"{k},{v}" for k, v in pairs[3:])], out_path)
    # a NaN deviation fails every comparison, so it counts as a breach
    if not (gamma_dev <= tol and d_dev <= tol and symp_residual <= 1e-12):
        raise ToleranceBreach(
            f"deviation above tolerance: gamma {gamma_dev:.3e}, displacement "
            f"{d_dev:.3e}, symplectic {symp_residual:.3e}"
        )
    return text


# Every flag's argparse keywords, once; its dest is its config-file key, and its
# converter checks its value, so a bad flag fails before any work is done.
_OPTIONS = {
    "config": dict(help="flat key = value configuration file"),
    "out": dict(help="output path (default: stdout)"),
    "epsilon": dict(type=float, default=0.95, help="input-state parameter (>= 0; default 0.95)"),
    "steps": dict(type=int, default=0, help="number of iteration steps (>= 0; default 0)"),
    "truncation": dict(type=int, help="per-mode cutoff (>= 2; default 6 two-mode, 10 one-mode)"),
    "max-truncation": dict(type=int, help="adaptive cutoff cap (default max(truncation, "
                                          "10 two-mode or 16 one-mode))"),
    "detector": dict(type=parse_detector, default="vacuum",
                     help="vacuum | onoff:<eta> | homodyne:<x> (default vacuum)"),
    "single-mode": dict(action="store_true", help="single-mode variant"),
    "jobs": dict(type=parse_jobs, default=1, help="parallel sweep evaluations (>= 1; default 1)"),
    "sweep-eta": dict(type=parse_sweep_spec, help="etas as lo:hi:count or a comma list (required)"),
    "wigner": dict(type=parse_wigner_spec, help="grid as xmin:xmax:pmin:pmax:n (required)"),
    "wigner-steps": dict(type=parse_step_list, default="0,1,2", help="steps (default 0,1,2)"),
    "squeezing": dict(names=("-r", "--squeezing"), type=float, default=0.4,
                      help="two-mode squeezing (>= 0; default 0.4)"),
    "tol": dict(type=float, default=1e-4, help="deviation tolerance (>= 0; default 1e-4)"),
}

# Each subcommand: its help, the flags it reads, and keywords overriding _OPTIONS for it.
_COMMANDS = {
    "run": ("iterate the protocol, emit a trace CSV",
            "config out epsilon steps truncation max-truncation detector single-mode", {}),
    "sweep-eta": ("final log-negativity vs on/off efficiency, each point at a fixed cutoff",
                  "config out epsilon steps truncation sweep-eta jobs",
                  {"steps": dict(default=10, help="long step count (>= 1; default 10)")}),
    "wigner": ("export single-mode Wigner grids per step",
               "config out epsilon truncation max-truncation detector wigner wigner-steps",
               {"out": dict(default="wigner", help="writes <out>_step<k>.csv (default wigner)")}),
    "gaussian-check": ("cross-validate against covariance predictions",
                       "config out squeezing truncation tol",
                       {"truncation": dict(default=14, help="per-mode cutoff (>= 8; default 14)")}),
}


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """One parser per subcommand, taking only the flags it reads. None shares
    an action with another (as parents= would), so its own defaults stay its own.
    Parsing leaves a parser as it was, so it is built once per process."""
    parser = _Parser(prog="gaussify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, own) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, description=help_text)
        for flag in flags.split():
            keywords = {**_OPTIONS[flag], **own.get(flag, {})}
            command.add_argument(*keywords.pop("names", ("--" + flag,)), **keywords)
    parser.commands = sub.choices
    return parser


def _parse_args(parser: _Parser, argv: list[str]):
    """Parse argv. A --config file's flags (parse_config_file) go right after
    the subcommand, so the explicit flags after them win."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    flags = parse_config_file(args.config, args.command)
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _protocol_config(args, **fixed) -> ProtocolConfig:
    """ProtocolConfig from the command's flags named after its fields, then ``fixed``."""
    given = {k: v for k, v in vars(args).items() if k in ProtocolConfig.__dataclass_fields__}
    return _build(ProtocolConfig, **{**given, **fixed})


def main(argv=None) -> int:
    try:
        args = _parse_args(_build_parser(), sys.argv[1:] if argv is None else list(argv))
        if args.command == "run":
            cmd_run(_protocol_config(args, mode_count=1 if args.single_mode else 2), args.out)
        elif args.command == "sweep-eta":
            if args.sweep_eta is None:
                raise ConfigError("sweep-eta requires --sweep-eta")
            cmd_sweep_eta(_protocol_config(args), args.sweep_eta, jobs=args.jobs, out_path=args.out)
        elif args.command == "wigner":
            if args.wigner is None:
                raise ConfigError("wigner requires --wigner xmin:xmax:pmin:pmax:n")
            config = _protocol_config(args, steps=max(args.wigner_steps), mode_count=1)
            cmd_wigner(config, args.wigner_steps, args.wigner, args.out)
        else:
            cmd_gaussian_check(args.squeezing, args.truncation, args.tol, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceBreach as exc:
        print(f"tolerance breach: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (RareOutcomeError, np.linalg.LinAlgError, ValueError, OverflowError,
            MemoryError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
