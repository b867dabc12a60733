"""Golden-file check of the README's CLI outputs.

Every file under tests/golden/ was written by the listed argv with
``--out tests/golden/<name>``. ``sweep_eta.csv`` and ``wigner_step*.csv``
date from before the four step kernels were merged into one.
``run_vacuum.csv``, ``run_onoff.csv`` and ``gaussian_check.csv`` were
re-recorded once the beam splitter was built by its creation-operator
recurrence instead of per-block ``expm``: only their ``leak``,
``gaussianity`` and ``max_gamma_deviation`` cells moved. The old splitter's
entries were off by up to 5.5e-14 at d <= 16, which put three leak cells
beyond the 1e-15 bound below; even an exact splitter misses the old vacuum
step-4 leak by 4e-15. The ten ``gaussianity`` cells of ``run_onoff.csv``
were re-recorded again when the fidelity moved to square-root factors (by
<= 6e-6 relative, toward a 40-digit reference). ``sweep_eta.csv`` lost its
``steps``, ``max_truncation`` and ``detector`` header lines when sweep-eta
stopped taking those options; its data rows did not move. Header lines and data cells must match, numbers
within a per-column tolerance:

- p, E_N, purity, sweep and check values: 1e-10 relative;
- ``leak``: 1e-15 absolute. The leak is 1 - tr of the mixed state, so its
  rounding noise is a few ulp of 1, not a fraction of the leak;
- Wigner values ``w``: 1e-10 absolute;
- ``gaussianity``: 1e-8 relative. The fidelity is read from square-root
  factors, sqrt(F) = ||K_rho^dagger K_sigma||_1, so rounding of the state is
  not square-rooted: a 1e-16 Hermitian perturbation or a one-ulp rescaling
  of a README iterate moves it by <= 1e-10 relative. (An earlier
  eigh -> sqrt -> eigvalsh fidelity moved by up to 2e-4 and needed 1e-3.)

Cells are compared as decimals, so a bound such as 1e-15 is not overshot by
the rounding of a float subtraction.
"""

from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest

from gaussify.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["run", "--epsilon", "0.95", "--steps", "10", "--truncation", "6"], ["run_vacuum.csv"]),
    (["run", "--epsilon", "0.95", "--steps", "10", "--detector", "onoff:0.6"], ["run_onoff.csv"]),
    (["sweep-eta", "--sweep-eta", "0.1:1.0:10", "--truncation", "6"], ["sweep_eta.csv"]),
    (["gaussian-check", "-r", "0.4", "--truncation", "14"], ["gaussian_check.csv"]),
    (
        ["wigner", "--epsilon", "0.95", "--wigner=-4:4:-4:4:21", "--wigner-steps", "0,1,2"],
        ["wigner_step0.csv", "wigner_step1.csv", "wigner_step2.csv"],
    ),
]

# column -> (kind, bound); every other numeric cell is held to 1e-10 relative
TOLERANCES = {
    "leak": ("abs", Decimal("1e-15")),
    "w": ("abs", Decimal("1e-10")),
    "gaussianity": ("rel", Decimal("1e-8")),
}
DEFAULT_TOLERANCE = ("rel", Decimal("1e-10"))


def _close(got: str, want: str, column: str) -> bool:
    if got == want:
        return True
    try:
        g, w = Decimal(got), Decimal(want)
    except InvalidOperation:
        return False
    if g.is_nan() or w.is_nan():
        return False
    kind, bound = TOLERANCES.get(column, DEFAULT_TOLERANCE)
    return abs(g - w) <= (bound * abs(w) if kind == "rel" else bound)


def _cells(text: str):
    """(row label, column, value) for every header value and data cell."""
    cells, columns = [], None
    for lineno, line in enumerate(text.splitlines()):
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            cells.append((f"header {lineno}", key.strip() if sep else "", value.strip()))
        elif columns is None:
            columns = line.split(",")
            cells.append(("columns", "", line))
        else:
            for column, value in zip(columns, line.split(",")):
                cells.append((f"row {lineno}", column, value))
    return cells


@pytest.mark.parametrize("argv,files", CASES, ids=[c[1][0].split(".")[0] for c in CASES])
def test_cli_output_matches_golden(argv, files, tmp_path):
    prefix = "wigner" if argv[0] == "wigner" else files[0]
    assert main(argv + ["--out", str(tmp_path / prefix)]) == 0
    for name in files:
        got = _cells((tmp_path / name).read_text())
        want = _cells((GOLDEN / name).read_text())
        assert len(got) == len(want), name
        bad = [
            (got_cell, want_cell)
            for got_cell, want_cell in zip(got, want)
            if got_cell[:2] != want_cell[:2]
            or not _close(got_cell[2], want_cell[2], want_cell[1])
        ]
        assert not bad, f"{name}: {bad[:5]}"
