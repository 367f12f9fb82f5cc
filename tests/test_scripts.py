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


def _result(**values):
    return {"correct": True, "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_paired_runs_summary_reads_each_metric_in_its_direction():
    script = _load("paired_runs")
    walls = [(1.0, 0.9), (1.2, 0.95), (1.1, 1.15), (1.3, 1.0), (1.0, 0.8)]
    rates = [(10, 12), (11, 10), (12, 13), (10, 11), (9, 10)]
    pairs = [
        (_result(wall_s=pw, cases_per_s=pr), _result(wall_s=cw, cases_per_s=cr))
        for (pw, cw), (pr, cr) in zip(walls, rates)
    ]
    end_to_end = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "cases_per_s", "unit": "1/s", "better": "higher"},
    ]
    wall, rate = script.summarize(pairs, end_to_end)
    # parent walls 1.0 1.0 1.1 1.2 1.3: median 1.1, quartiles 1.0 and 1.2;
    # the change's 0.8 0.9 0.95 1.0 1.15: median 0.95, quartiles 0.9 and 1.0
    assert wall == (
        "wall_s (s, lower is better): parent 1.1 [1, 1.2]  change 0.95 [0.9, 1]  "
        "-13.6%  wins 4/5  better beyond parent IQR: no"
    )
    # parent rates 9 10 10 11 12, the change's 10 10 11 12 13
    assert rate == (
        "cases_per_s (1/s, higher is better): parent 10 [10, 11]  change 11 [10, 12]  "
        "+10.0%  wins 4/5  better beyond parent IQR: no"
    )
    # a change worse by more than the parent's quartile distance is not beyond it
    (worse,) = script.summarize([(b, a) for a, b in pairs], end_to_end[:1])
    assert worse.endswith("+15.8%  wins 1/5  better beyond parent IQR: no")
    # one pair is its own median and quartiles
    (single,) = script.summarize(pairs[:1], end_to_end[:1])
    assert "parent 1 [1, 1]  change 0.9 [0.9, 0.9]  -10.0%  wins 1/1  better beyond parent IQR: yes" in single
    # a metric with a bound is also read against it, as a fraction of the
    # parent's median: a wall time 30% worse is beyond its 25%, a peak RSS 5%
    # worse is inside its 10%, and a rate 30% lower is beyond its 25%
    bounded = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
    slower = [
        (
            _result(wall_s=1.0, peak_rss_mb=20.0, cases_per_s=10),
            _result(wall_s=1.3, peak_rss_mb=21.0, cases_per_s=7),
        )
    ]
    wall, rss, rate = script.summarize(slower, bounded)
    assert wall.endswith("+30.0%  wins 0/1  better beyond parent IQR: no  worse beyond bound: yes")
    assert rss.endswith("+5.0%  wins 0/1  better beyond parent IQR: no  worse beyond bound: no")
    assert rate.endswith("-30.0%  wins 0/1  better beyond parent IQR: no  worse beyond bound: yes")


def test_paired_runs_refuses_a_directory_without_the_benchmark(capsys, tmp_path):
    script = _load("paired_runs")
    with pytest.raises(SystemExit) as exc:
        script.main([str(tmp_path), str(_SCRIPTS.parent), "--workload", "verify-default",
                     "--pairs", "2", "--seconds", "1"])
    assert exc.value.code == 2
    assert "has no bench/run.py" in capsys.readouterr().err


def test_paired_runs_stops_at_the_first_incorrect_run(capsys, monkeypatch):
    script = _load("paired_runs")
    calls = []

    def fake_bench(checkout, workload, seed, seconds):
        calls.append(checkout)
        return {"correct": len(calls) < 2, "metrics": {"wall_s": {"value": 0.2, "unit": "s"}}}

    monkeypatch.setattr(script, "run_bench", fake_bench)
    root = str(_SCRIPTS.parent)
    argv = [root, root, "--workload", "verify-default", "--pairs", "3", "--seconds", "1"]
    assert script.main(argv) == 1
    assert len(calls) == 2
    assert "change run is not correct" in capsys.readouterr().out
