import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussify import IdealVacuum, OnOff, HomodyneFilter, ProtocolConfig, WignerGrid, protocol, run
from gaussify.cli import (
    ConfigError,
    _COMMANDS,
    _build_parser,
    cmd_gaussian_check,
    cmd_run,
    cmd_sweep_eta,
    cmd_wigner,
    main,
    parse_config_file,
    parse_detector,
    parse_sweep_spec,
    parse_wigner_grid,
    parse_wigner_spec,
    write_wigner_grid,
)


def _data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0], lines[1:]


# ---------------------------------------------------------------- parsing


def test_parse_detector():
    assert isinstance(parse_detector("vacuum"), IdealVacuum)
    assert parse_detector("onoff:0.5") == OnOff(0.5)
    assert parse_detector("homodyne:0.1") == HomodyneFilter(0.1)
    for bad in ("onoff:1.5", "homodyne:-1", "squeezer", "onoff:x"):
        with pytest.raises(ConfigError):
            parse_detector(bad)


def test_parse_sweep_spec():
    assert parse_sweep_spec("0.1:1.0:10") == pytest.approx(list(np.linspace(0.1, 1.0, 10)))
    assert parse_sweep_spec("0.2,0.5,1.0") == [0.2, 0.5, 1.0]
    for bad in ("0.1:1.0", "0.5:2.0:3", ""):
        with pytest.raises(ConfigError):
            parse_sweep_spec(bad)


def test_parse_wigner_spec():
    assert parse_wigner_spec("-3:3:-2:2:41") == ((-3.0, 3.0), (-2.0, 2.0), 41)
    for bad in ("1:0:0:1:10", "-3:3:-3:3:1", "-3:3:-3:3"):
        with pytest.raises(ConfigError):
            parse_wigner_spec(bad)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\nepsilon = 0.9\nsteps = 3\ntruncation = 6\n"
        "detector = onoff:0.8\nsingle_mode = false\n"
    )
    # each line is the flag it spells; a false switch is no flag
    assert parse_config_file(str(path), "run") == [
        "--epsilon=0.9", "--steps=3", "--truncation=6", "--detector=onoff:0.8"]
    path.write_text("single_mode = true\nsingle_mode = 0\nsteps = 1\nsteps = 2\n")
    assert parse_config_file(str(path), "run") == ["--steps=2"]


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nepsilom = 0.9\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: run takes no --epsilom$"):
        parse_config_file(str(path), "run")
    for key in ("config", "single-mode", "r"):
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match="run takes no"):
            parse_config_file(str(path), "run")


# ---------------------------------------------------------------- run command


def test_run_csv_shape_and_determinism(tmp_path):
    cfg = ProtocolConfig(steps=3, epsilon=0.95, truncation=6)
    text_a = cmd_run(cfg, str(tmp_path / "a.csv"))
    text_b = cmd_run(cfg, str(tmp_path / "b.csv"))
    assert text_a == text_b
    header, rows = _data_rows(text_a)
    assert header == "step,p_success,p_cumulative,log_negativity,purity,gaussianity,leak"
    assert len(rows) == 4
    assert rows[0].startswith("0,1,1,")
    # headers embed the resolved configuration and conventions
    assert "# detector = vacuum" in text_a
    assert "# log_base = 2" in text_a
    assert "# bs_convention" in text_a
    assert "# detector_policy" in text_a


def test_zero_step_run_emits_single_row():
    cfg = ProtocolConfig(steps=0, epsilon=0.95, truncation=6)
    _, rows = _data_rows(cmd_run(cfg, None))
    assert len(rows) == 1
    en = float(rows[0].split(",")[3])
    assert abs(en - math.log2(1.95**2 / 1.9025)) < 1e-10


def test_run_entanglement_column_is_nondecreasing_for_ideal_detector():
    cfg = ProtocolConfig(steps=10, epsilon=0.95, truncation=6, max_truncation=6)
    _, rows = _data_rows(cmd_run(cfg, None))
    ens = [float(r.split(",")[3]) for r in rows]
    assert len(ens) == 11
    assert all(b >= a - 1e-12 for a, b in zip(ens, ens[1:]))


def test_blind_run_final_negativity_below_initial():
    cfg = ProtocolConfig(steps=5, epsilon=0.95, truncation=6, detector=OnOff(0.0))
    _, rows = _data_rows(cmd_run(cfg, None))
    ens = [float(r.split(",")[3]) for r in rows]
    assert ens[-1] <= ens[0]


# ---------------------------------------------------------------- sweep command


def test_sweep_matches_ideal_run_at_unit_efficiency():
    cfg = ProtocolConfig(steps=10, epsilon=0.95, truncation=6)
    text = cmd_sweep_eta(cfg, [0.5, 1.0], jobs=2)
    header, rows = _data_rows(text)
    assert header == "eta,steps,log_negativity,initial_log_negativity"
    assert len(rows) == 4
    by_key = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2]) for r in rows}
    ideal = run(
        ProtocolConfig(steps=10, epsilon=0.95, truncation=6, max_truncation=6,
                       detector=OnOff(1.0))
    )
    # CSV values carry 12 significant digits
    assert abs(by_key[("1", "1")] - ideal.records[1].log_negativity) < 1e-11
    assert abs(by_key[("1", "10")] - ideal.records[10].log_negativity) < 1e-11
    ref = float(rows[0].split(",")[3])
    assert abs(ref - math.log2(1.95**2 / 1.9025)) < 1e-10


def test_sweep_is_deterministic_under_parallelism():
    cfg = ProtocolConfig(steps=4, epsilon=0.95, truncation=5)
    etas = [0.3, 0.6, 0.9]
    serial = cmd_sweep_eta(cfg, etas, jobs=1)
    # the threads race to fill the shared splitter cache
    protocol._balanced_splitter.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cmd_sweep_eta(cfg, etas, jobs=3) == serial
    finally:
        sys.setswitchinterval(interval)


def test_sweep_points_return_only_the_log_negativities_they_print():
    # each point's E_N are computed in its worker and no state outlives its
    # point; the initial state's reference is the one E_N of the main thread
    import threading
    from unittest import mock

    from gaussify import measures

    cfg = ProtocolConfig(steps=3, epsilon=0.95, truncation=5)
    etas = [0.3, 0.6, 0.9]
    threads, log_neg = [], measures.logarithmic_negativity
    with mock.patch.object(measures, "logarithmic_negativity",
                           side_effect=lambda s: threads.append(threading.current_thread()) or log_neg(s)):
        parallel = cmd_sweep_eta(cfg, etas, jobs=2)
    assert len(threads) == 1 + 2 * len(etas)
    assert [t is threading.main_thread() for t in threads].count(True) == 1
    assert parallel == cmd_sweep_eta(cfg, etas, jobs=1)


def test_sweep_with_one_step_writes_one_row_per_efficiency(tmp_path):
    path = tmp_path / "sweep.csv"
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--steps", "1", "--out", str(path)]) == 0
    _, rows = _data_rows(path.read_text())
    assert [row.split(",")[:2] for row in rows] == [["0.5", "1"]]


# ---------------------------------------------------------------- wigner command


def test_wigner_files_round_trip(tmp_path):
    cfg = ProtocolConfig(steps=2, epsilon=0.95, mode_count=1)
    prefix = str(tmp_path / "w")
    paths = cmd_wigner(cfg, [0, 1, 2], ((-4.5, 4.5), (-4.5, 4.5), 41), prefix)
    assert paths == [f"{prefix}_step{k}.csv" for k in (0, 1, 2)]
    minima = []
    for path in paths:
        grid = parse_wigner_grid(path)
        assert grid.values.shape == (41, 41)
        assert abs(grid.integral() - 1.0) < 5e-3
        minima.append(grid.minimum())
    assert minima[2] > minima[0]


def test_wigner_writer_matches_the_per_row_rule(tmp_path):
    """Unequal axis lengths, so a swapped axis cannot pass; values that %.12g
    prints specially (nan, +-inf, -0.0, a subnormal, 1e-300)."""
    xs, ps = np.linspace(-3.0, 2.5, 7), np.linspace(-1.0, 4.0, 5)
    values = np.random.default_rng(5).normal(size=(7, 5)) * 10.0 ** np.arange(-3, 2)
    values.flat[:6] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300]
    path = tmp_path / "grid.csv"
    text = write_wigner_grid(WignerGrid(xs, ps, values), [("wigner_step", 1)], str(path))
    X, P = np.meshgrid(xs, ps, indexing="ij")
    rows = ["%.12g,%.12g,%.12g" % row
            for row in zip(X.ravel().tolist(), P.ravel().tolist(), values.ravel().tolist())]
    assert text.endswith("\nx,p,w\n" + "\n".join(rows) + "\n")
    assert path.read_text() == text
    grid = parse_wigner_grid(path)
    assert np.allclose(grid.xs, xs, rtol=1e-12) and np.allclose(grid.ps, ps, rtol=1e-12)
    assert grid.values.shape == (7, 5)
    assert np.allclose(grid.values, values, rtol=1e-11, atol=0, equal_nan=True)
    assert np.signbit(grid.values.flat[3]) and grid.values.flat[4] == 5e-324


def test_wigner_requires_single_mode_config():
    cfg = ProtocolConfig(steps=1, epsilon=0.95, mode_count=2)
    with pytest.raises(ConfigError):
        cmd_wigner(cfg, [0], ((-2.0, 2.0), (-2.0, 2.0), 21), None)


# ---------------------------------------------------------------- metrics on demand


def test_metrics_are_computed_only_when_read(tmp_path, monkeypatch):
    from gaussify import measures

    names = ("logarithmic_negativity", "purity", "gaussianity_distance")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(state, _fn=getattr(measures, name), _name=name):
            calls[_name] += 1
            return _fn(state)

        monkeypatch.setattr(measures, name, counted)

    trace = run(ProtocolConfig(steps=2, epsilon=0.95, truncation=6))
    assert calls == dict.fromkeys(names, 0)
    first = trace.records[1].gaussianity
    assert trace.records[1].gaussianity == first
    assert calls == {"logarithmic_negativity": 0, "purity": 0, "gaussianity_distance": 1}

    calls.update(dict.fromkeys(names, 0))
    cmd_sweep_eta(ProtocolConfig(steps=3, epsilon=0.95, truncation=5), [0.3, 0.6, 0.9])
    # E_N after 1 and 3 steps per point, plus the initial-state reference
    assert calls == {"logarithmic_negativity": 2 * 3 + 1, "purity": 0, "gaussianity_distance": 0}

    calls.update(dict.fromkeys(names, 0))
    cfg = ProtocolConfig(steps=2, epsilon=0.95, mode_count=1)
    cmd_wigner(cfg, [0, 1, 2], ((-4.0, 4.0), (-4.0, 4.0), 21), str(tmp_path / "w"))
    assert calls == dict.fromkeys(names, 0)


# ---------------------------------------------------------------- gaussian check


def test_gaussian_check_passes_at_moderate_squeezing(tmp_path, capsys):
    text = cmd_gaussian_check(0.4, 14, tol=1e-4, out_path=str(tmp_path / "g.csv"))
    assert "max_gamma_deviation" in text
    value = float(
        [l for l in text.splitlines() if l.startswith("max_gamma_deviation,")][0].split(",")[1]
    )
    assert value < 1e-4


def test_gaussian_check_flags_tolerance_breach():
    from gaussify.cli import ToleranceBreach

    with pytest.raises(ToleranceBreach):
        cmd_gaussian_check(0.4, 10, tol=1e-14)


# ---------------------------------------------------------------- main / exit codes


def test_main_run_ok(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--epsilon", "0.9", "--steps", "1", "--truncation", "5",
                 "--out", out]) == 0
    assert "step,p_success" in open(out).read()


def test_main_config_errors_exit_one(tmp_path, capsys):
    assert main(["run", "--detector", "onoff:2.0"]) == 1
    assert main(["sweep-eta"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gaussian-check", "--truncation", "4"]) == 1
    # malformed numbers in user text are configuration errors, not numerical ones
    assert main(["sweep-eta", "--sweep-eta", "0.1:x:3"]) == 1
    assert main(["wigner", "--wigner=-4:4:-4:4:n"]) == 1
    assert main(["wigner", "--wigner=-4:4:-4:4:21", "--wigner-steps", "0,a"]) == 1
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--jobs", "0"]) == 1
    # the whole grid rule (here the spacing <= 1) is checked before any step runs
    assert main(["wigner", "--wigner=-4:4:-4:4:5"]) == 1
    # NaN passes every "< 0" check; non-finite numbers are rejected with the ranges
    assert main(["run", "--epsilon", "nan"]) == 1
    assert main(["run", "--epsilon", "inf"]) == 1
    assert main(["gaussian-check", "-r", "3", "--truncation", "8", "--tol", "nan"]) == 1
    assert main(["gaussian-check", "-r", "nan"]) == 1
    assert main(["gaussian-check", "-r", "inf", "--truncation", "8"]) == 1
    # a sweep runs two-mode points only; --single-mode is rejected, not ignored
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--single-mode"]) == 1
    # --steps 0 is not "unset"
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--steps", "0"]) == 1
    for line in ("steps = abc", "jobs = 0"):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert main(["run", "--config", str(path)]) == 1
    capsys.readouterr()
    # unreadable config files and unwritable outputs: one line naming the path
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"steps = \xff\xfe\n")
    missing = str(tmp_path / "missing.cfg")
    for argv, path in (
        (["run", "--config", missing], missing),
        (["run", "--config", str(tmp_path)], str(tmp_path)),
        (["run", "--config", str(binary)], str(binary)),
        (["run", "--steps", "1", "--out", str(tmp_path / "no" / "x.csv")],
         str(tmp_path / "no" / "x.csv")),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("configuration error:") and path in line


def test_cutoff_too_large_to_allocate_is_a_numerical_failure(monkeypatch, capsys):
    """A splitter build that runs out of memory (a stand-in that allocates
    nothing) exits 2 with one line, not a traceback."""
    big = "Unable to allocate 7.28 TiB"
    for error, message in ((MemoryError(big), big), (MemoryError(), "MemoryError")):
        def unaffordable(d, _error=error):
            raise _error

        protocol._balanced_splitter.cache_clear()
        monkeypatch.setattr(protocol, "beamsplitter_unitary", unaffordable)
        try:
            assert main(["run", "--steps", "1", "--truncation", "4"]) == 2
        finally:
            protocol._balanced_splitter.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message}\n"


def test_main_numerical_failure_exits_two(capsys):
    # a vanishing acceptance disk makes the very first outcome too rare
    assert main(["run", "--steps", "1", "--detector", "homodyne:0.0005",
                 "--truncation", "5"]) == 2
    # rank-one effect at both parties: p = e0^2 |phi|^2 = 4.7e-15, not e0 |phi|^2
    assert main(["run", "--steps", "1", "--detector", "homodyne:0.0003",
                 "--truncation", "5"]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # cosh(2r) of the covariance prediction overflows: a numerical failure, not a
    # traceback, and the message names the squeezing and the overflowing quantity
    for r in ("356", "400", "800"):
        assert main(["gaussian-check", "-r", r, "--truncation", "8"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure:")
        assert f"r = {r}" in line and "cosh(2r)" in line


def test_main_tolerance_breach_exits_three(capsys):
    assert main(["gaussian-check", "-r", "0.4", "--truncation", "10",
                 "--tol", "1e-14"]) == 3
    capsys.readouterr()
    # up to r = 355 cosh(2r) fits a double, and the closed-form prediction is
    # the input covariance (a two-mode squeezed state is a fixed point of the
    # ideal step), so it is finite and right: cutoff 8 is what fails
    for r, gamma in (("353", "2.046e+306"), ("354", "1.512e+307"), ("355", "1.117e+308")):
        assert main(["gaussian-check", "-r", r, "--truncation", "8"]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("tolerance breach:") and f"gamma {gamma}," in line


# one cheap command per config key, and the key's value; "{tmp}" is the test's
# directory. A key without an entry here fails the parametrized test below.
CONFIG_CASES = {
    "epsilon": (["run", "--steps", "1", "--truncation", "4"], "0.9"),
    "steps": (["run", "--truncation", "4"], "1"),
    "truncation": (["run", "--steps", "1"], "4"),
    "max_truncation": (["run", "--steps", "1", "--truncation", "4"], "5"),
    "detector": (["run", "--steps", "1", "--truncation", "4"], "onoff:0.6"),
    "single_mode": (["run", "--steps", "1", "--truncation", "4"], "true"),
    "jobs": (["sweep-eta", "--sweep-eta", "0.5,1", "--steps", "1", "--truncation", "4"], "2"),
    "out": (["run", "--steps", "1", "--truncation", "4"], "{tmp}/o.csv"),
    "sweep_eta": (["sweep-eta", "--steps", "1", "--truncation", "4"], "0.5,1"),
    "wigner": (["wigner", "--truncation", "4", "--out", "{tmp}/w"], "-2:2:-2:2:5"),
    "wigner_steps": (["wigner", "--truncation", "4", "--wigner=-2:2:-2:2:5", "--out", "{tmp}/w"],
                     "1"),
    "squeezing": (["gaussian-check", "--truncation", "8"], "0.3"),
    "tol": (["gaussian-check", "-r", "0.3", "--truncation", "8"], "1e-3"),
}


def _cli_output(argv, tmp_path, capsys):
    """Exit code, stdout and every file written, the files then removed."""
    code = main(argv)
    files = {}
    for path in sorted(tmp_path.glob("[ow]*.csv")):
        files[path.name] = path.read_text()
        path.unlink()
    return code, capsys.readouterr().out, files


# every config key: the dest of a flag some subcommand reads, --config aside
CONFIG_KEYS = sorted({f.replace("-", "_") for _, flags, _ in _COMMANDS.values()
                      for f in flags.split()} - {"config"})


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_key_is_the_flag_it_spells(key, tmp_path, capsys):
    argv, value = CONFIG_CASES[key]
    argv = [a.format(tmp=tmp_path) for a in argv]
    value = value.format(tmp=tmp_path)
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_file = _cli_output([*argv, "--config", str(cfg)], tmp_path, capsys)
    from_flag = _cli_output([*argv, flag if value == "true" else f"{flag}={value}"],
                            tmp_path, capsys)
    assert from_file == from_flag
    assert from_file[0] == 0 and (from_file[1] or from_file[2])


def test_config_keys_come_from_the_parser():
    assert set(CONFIG_KEYS) == set(CONFIG_CASES)
    # each subcommand's keys are the dests of its parser's options
    for name, command in _build_parser().commands.items():
        dests = {a.dest for a in command._actions} - {"help", "config"}
        assert dests == {k for k in CONFIG_KEYS if f"--{k.replace('_', '-')}"
                         in ACCEPTED_FLAGS[name]}, name
    assert CONFIG_KEYS == [
        "detector", "epsilon", "jobs", "max_truncation", "out", "single_mode", "squeezing",
        "steps", "sweep_eta", "tol", "truncation", "wigner", "wigner_steps",
    ]


def test_config_file_key_of_another_command_is_rejected(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("sweep_eta = 0.5\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "--sweep-eta" in capsys.readouterr().err
    # a malformed value gets the flag's own message
    path.write_text("steps = abc\n")
    assert main(["run", "--config", str(path)]) == 1
    assert "argument --steps: invalid int value: 'abc'" in capsys.readouterr().err


def test_config_file_key_the_subcommand_does_not_read_names_file_and_line(tmp_path, capsys):
    """A key that another subcommand reads, but this one does not, is one
    error naming the file, the line, the subcommand and the flag."""
    path = tmp_path / "c.cfg"
    for text, lineno in (("detector = onoff:0.1\n", 1),
                         ("# sweep\nsteps = 2\n\ndetector = onoff:0.1\n", 4)):
        path.write_text(text)
        assert main(["sweep-eta", "--sweep-eta", "0.5", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"configuration error: {path}:{lineno}: sweep-eta takes no --detector"


def test_main_gives_the_same_output_when_called_again(tmp_path, capsys):
    """The parser is built once per process; no call, with a config file or
    without, leaves anything in it that changes the next call's output."""
    assert _build_parser() is _build_parser()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("detector = onoff:0.6\nsteps = 2\n")
    flags = ["run", "--epsilon", "0.9", "--truncation", "4", "--steps", "2",
             "--detector", "onoff:0.6"]
    configured = ["run", "--epsilon", "0.9", "--truncation", "4", "--config", str(cfg)]
    outputs = [_cli_output(argv, tmp_path, capsys) for argv in (flags, configured) * 2]
    assert outputs[0][0] == 0 and outputs[0][1]
    assert all(output == outputs[0] for output in outputs)


def test_config_file_false_switch_adds_no_flag(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("single_mode = 0\n")
    argv = ["run", "--steps", "1", "--truncation", "4"]
    assert _cli_output([*argv, "--config", str(path)], tmp_path, capsys) == _cli_output(
        argv, tmp_path, capsys)


def test_main_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("epsilon = 0.5\nsteps = 5\ntruncation = 5\n")
    out = str(tmp_path / "o.csv")
    assert main(["run", "--config", str(path), "--steps", "1", "--out", out]) == 0
    text = open(out).read()
    assert "# epsilon = 0.5" in text
    assert "# steps = 1" in text
    _, rows = _data_rows(text)
    assert len(rows) == 2


# ---------------------------------------------------------------- per-subcommand flags

ACCEPTED_FLAGS = {
    "run": {"--config", "--out", "--epsilon", "--steps", "--truncation", "--max-truncation",
            "--detector", "--single-mode"},
    "sweep-eta": {"--config", "--out", "--epsilon", "--steps", "--truncation", "--sweep-eta",
                  "--jobs"},
    "wigner": {"--config", "--out", "--epsilon", "--truncation", "--max-truncation", "--detector",
               "--wigner", "--wigner-steps"},
    "gaussian-check": {"--config", "--out", "--squeezing", "--truncation", "--tol"},
}

# a cheap command per subcommand that succeeds, and a valid value per flag
BASE_ARGV = {
    "run": ["run", "--steps", "1", "--truncation", "4"],
    "sweep-eta": ["sweep-eta", "--sweep-eta", "0.5", "--steps", "1", "--truncation", "4"],
    "wigner": ["wigner", "--wigner=-2:2:-2:2:5", "--wigner-steps", "1", "--truncation", "4"],
    "gaussian-check": ["gaussian-check", "-r", "0.3", "--truncation", "8"],
}
FLAG_VALUES = {"--epsilon": "0.9", "--steps": "1", "--max-truncation": "20",
               "--detector": "onoff:0.1", "--single-mode": None, "--jobs": "2"}
# the flags every subcommand took from one shared parent, minus those it reads
DROPPED = [(name, flag) for name, flags in ACCEPTED_FLAGS.items()
           for flag in sorted(set(FLAG_VALUES) - flags)]


def _long_flags(command):
    return {s for a in command._actions for s in a.option_strings if s.startswith("--")}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    commands = _build_parser().commands
    assert set(commands) == set(ACCEPTED_FLAGS)
    for name, command in commands.items():
        assert _long_flags(command) - {"--help"} == ACCEPTED_FLAGS[name], name
    assert sum(len(_long_flags(c) - {"--help"}) for c in commands.values()) == 28
    assert len(DROPPED) == 13


@pytest.mark.parametrize("name, flag", DROPPED, ids=[f"{n}{f}" for n, f in DROPPED])
def test_a_flag_the_subcommand_does_not_read_is_rejected(name, flag, tmp_path, capsys):
    argv = BASE_ARGV[name] + ["--out", str(tmp_path / "o")]
    assert main(argv) == 0
    capsys.readouterr()
    value = FLAG_VALUES[flag]
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {'true' if value is None else value}\n")
    for extra in ([flag] if value is None else [flag, value], ["--config", str(cfg)]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("configuration error:") and flag in line


def test_sweep_header_records_what_ran(tmp_path):
    path = tmp_path / "sweep.csv"
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--steps", "2", "--truncation", "5",
                 "--out", str(path)]) == 0
    header = dict(line[2:].split(" = ", 1) for line in path.read_text().splitlines()
                  if " = " in line)
    assert list(header) == ["epsilon", "truncation", "single_mode", "leak_threshold",
                            "sweep_eta", "long_steps", "initial_log_negativity",
                            "bs_convention", "log_base", "detector_policy"]
    assert (header["truncation"], header["sweep_eta"], header["long_steps"]) == ("5", "0.5", "2")


def test_defaults_that_differ_by_subcommand_live_on_its_own_action(tmp_path, capsys,
                                                                  monkeypatch):
    commands = _build_parser().commands
    bare = {name: command.parse_args([]) for name, command in commands.items()}
    assert (bare["run"].steps, bare["sweep-eta"].steps) == (0, 10)
    assert (bare["run"].truncation, bare["gaussian-check"].truncation) == (None, 14)
    assert (bare["run"].out, bare["wigner"].out) == (None, "wigner")
    helps = {name: {a.dest: a.help for a in c._actions} for name, c in commands.items()}
    assert "default 10" in helps["sweep-eta"]["steps"] and ">= 1" in helps["sweep-eta"]["steps"]
    assert "default 0" in helps["run"]["steps"]
    assert helps["gaussian-check"]["truncation"] == "per-mode cutoff (>= 8; default 14)"
    assert "<out>_step<k>.csv (default wigner)" in helps["wigner"]["out"]
    for command in commands.values():
        command.format_help()
    # --jobs is checked by its converter, before any work
    assert main(["sweep-eta", "--sweep-eta", "0.5", "--jobs", "0"]) == 1
    assert "argument --jobs: jobs must be >= 1" in capsys.readouterr().err
    # the wigner default prefix writes files, not stdout
    monkeypatch.chdir(tmp_path)
    assert main(["wigner", "--wigner=-2:2:-2:2:5", "--wigner-steps", "1", "--truncation", "4"]) == 0
    assert capsys.readouterr().out == "" and (tmp_path / "wigner_step1.csv").exists()


@pytest.mark.parametrize(
    "preset, expected",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, "None")],
)
def test_blas_defaults_to_one_thread_unless_a_count_is_set(preset, expected):
    """Importing gaussify first (as the CLI does) picks one OpenBLAS thread,
    but an explicit thread count in any of the BLAS variables wins."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(preset)
    code = "import gaussify, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == expected



_SCIPY_MODULES = """
import json, sys
from gaussify.cli import main

def scipy_modules():  # a None entry blocks an import; it is no loaded module
    return sorted(m for m, mod in sys.modules.items() if mod and m.split(".")[0] == "scipy")

print(json.dumps(scipy_modules()))
for argv in ARGVS:
    assert main(argv) == 0, argv
print(json.dumps(scipy_modules()))
"""

_README_ARGVS = [
    ["run", "--epsilon", "0.95", "--steps", "10", "--truncation", "6"],
    ["run", "--epsilon", "0.95", "--steps", "10", "--detector", "onoff:0.6"],
    ["run", "--epsilon", "0.95", "--steps", "3", "--single-mode", "--detector", "onoff:0.6"],
    ["sweep-eta", "--sweep-eta", "0.1:1.0:10", "--truncation", "6", "--jobs", "2"],
    ["gaussian-check", "-r", "0.4", "--truncation", "14"],
]
_HOMODYNE_ARGV = ["run", "--epsilon", "0.95", "--steps", "3", "--detector", "homodyne:1.5"]
_WIGNER_ARGV = ["wigner", "--epsilon", "0.95", "--wigner=-4:4:-4:4:21", "--wigner-steps", "0,1"]


def _run_in_fresh_interpreter(argvs, tmp_path, prelude=""):
    """Run ``main`` on each argv (its output under tmp_path) in one new
    interpreter; returns the scipy modules loaded on import and after all."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argvs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(argvs)]
    code = prelude + f"ARGVS = {argvs!r}\n" + _SCIPY_MODULES
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=300)
    return list(map(json.loads, done.stdout.splitlines()))


@pytest.mark.parametrize(
    "argvs",
    [_README_ARGVS, [_HOMODYNE_ARGV], [_WIGNER_ARGV]],
    ids=["readme-commands", "homodyne", "wigner"],
)
def test_cli_starts_without_scipy(argvs, tmp_path):
    """Importing the CLI loads no scipy module, and neither does any command:
    the README's run, sweep-eta and gaussian-check, a homodyne detector's
    filter or a Wigner grid."""
    assert _run_in_fresh_interpreter(argvs, tmp_path) == [[], []]


def test_cli_runs_with_scipy_blocked(tmp_path):
    """With ``import scipy`` made to fail, every command still exits 0."""
    argvs = [*_README_ARGVS, _HOMODYNE_ARGV, _WIGNER_ARGV]
    blocked = "import sys\nsys.modules['scipy'] = None\n"
    assert _run_in_fresh_interpreter(argvs, tmp_path, blocked) == [[], []]
