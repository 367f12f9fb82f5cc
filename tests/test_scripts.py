"""Smoke tests of the scripts under scripts/.

Each script is loaded from its file (scripts/ is not a package) and its
main(argv) is called in-process on a trimmed box.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from convolvium import cli

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_tables_writes_what_the_table_command_prints(capsys, tmp_path):
    script = _load("make_tables")
    assert script.main(["--n-max", "4", "--r-max", "2", "--m-max", "2", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    grid = ["--n-max", "4", "--r-max", "2"]
    expected = {
        "catalan.csv": ["catalan", "--n-max", "4"],
        "super_catalan.csv": ["supercatalan", *grid],
        "gessel.csv": ["gessel", *grid],
        "clearing_factors.csv": ["kr", "--r-max", "2"],
        "phi_m1.csv": ["phi", *grid, "--m", "1"],
        "psi_m1.csv": ["psi", *grid, "--m", "1"],
        "phi_m2.csv": ["phi", *grid, "--m", "2"],
        "psi_m2.csv": ["psi", *grid, "--m", "2"],
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, argv in expected.items():
        assert cli.main(["table", *argv]) == 0
        assert (tmp_path / name).read_text() == capsys.readouterr().out, name


def test_kr_window_scan_reports_worst_witnesses(capsys):
    script = _load("kr_window_scan")
    assert script.main(["--r-max", "3", "--window", "20"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[2] for row in rows] == ["-", "1", "2"]
    # at window 0 the candidates 2 and 4 below K_2 = 6 have no witness
    assert script.main(["--r-max", "2", "--window", "0"]) == 1
    assert "candidates [2, 4]" in capsys.readouterr().out


def test_kr_window_scan_refuses_an_empty_r_range(capsys):
    # --r-max 0 used to print a bare header and exit 0
    script = _load("kr_window_scan")
    for r_max in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            script.main(["--r-max", r_max])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--r-max must be at least 1" in captured.err


def test_kr_window_scan_refuses_a_negative_window(capsys):
    # --window -1 used to report every candidate "(none in window)", exit 1
    script = _load("kr_window_scan")
    with pytest.raises(SystemExit) as exc:
        script.main(["--r-max", "2", "--window", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--window must be non-negative" in captured.err
