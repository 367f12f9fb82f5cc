"""End-to-end tests of the command-line surface.

main(argv) is called in-process; stdout/stderr are captured with capsys.
Exit codes follow the contract: 0 success or all-pass, 1 violations, 2
usage problems (including unknown names and over-budget ranges).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convolvium
from convolvium import cli, closed_forms, verify
from convolvium.cli import main

_TRIM_FLAGS = ["--n-max", "3", "--m-max", "2", "--r-max", "2", "--a-max", "1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- compute


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["compute", "gessel", "--n", "1", "--r", "2"], "4"),
        (["compute", "catalan", "--n", "0"], "1"),
        (["compute", "catalan", "--n", "9"], "4862"),
        (["compute", "binomial", "--n", "6", "--k", "3"], "20"),
        (["compute", "binomial", "--n", "6", "--k", "9"], "0"),
        (["compute", "supercatalan", "--n", "3", "--r", "2"], "12"),
        (["compute", "phi", "--n", "3", "--m", "1", "--r", "2"], "1170"),
        (["compute", "phi", "--n", "3", "--r", "2"], "1170"),  # m defaults to 1
        (["compute", "psi", "--n", "2", "--r", "1"], "48"),
        (["compute", "quarter-psi", "--n", "2", "--r", "1"], "12"),
        (["compute", "closed-form", "--family", "phi-00", "--n", "1", "--r", "1"], "2"),
        (["compute", "closed-form", "--family", "s1-t1", "--n", "2", "--j", "1"], "12"),
        (["compute", "msum", "--kernel", "plain", "--n", "4", "--j", "1", "--t", "1"], "12"),
    ],
)
def test_compute_values(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected + "\n"


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, "compute", "catalan")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "compute", "msum", "--n", "4")
    assert code == 2 and "--kernel" in err
    code, _, err = run(capsys, "compute", "closed-form", "--n", "4")
    assert code == 2 and "--family" in err
    code, _, err = run(capsys, "compute", "catalan", "--n", "-1")
    assert code == 2
    code, out, err = run(capsys, "compute", "no-such-thing", "--n", "1")
    assert code == 2 and out == ""


def test_compute_refusals_name_the_value_given(capsys):
    for quantity in ("phi", "psi", "quarter-psi"):
        code, out, err = run(capsys, "compute", quantity, "--n", "-2")
        assert (code, out) == (2, "")
        assert err == "error: n must be non-negative, got -2\n"
    code, _, err = run(capsys, "compute", "closed-form", "--family", "psi-t0", "--n", "2", "--r", "0")
    assert (code, err) == (2, "error: r must be at least 1, got 0\n")
    # an order below 1 in the caller's terms, not the kernel's
    for quantity in ("phi", "psi", "quarter-psi"):
        code, out, err = run(capsys, "compute", quantity, "--n", "2", "--r", "0")
        assert (code, out, err) == (2, "", "error: r must be at least 1, got 0\n")
    for kernel in ("gessel", "supercat", "half-supercat"):
        code, out, err = run(capsys, "compute", "msum", "--kernel", kernel, "--n", "2", "--r", "0")
        assert (code, out, err) == (2, "", "error: r must be at least 1, got 0\n")
    # an option the quantity does not read, named, rather than ignored
    for argv, named in (
        (("catalan", "--n", "3", "--r", "9"), "catalan does not take --r"),
        (("msum", "--kernel", "central", "--n", "4", "--r", "7"), "msum --kernel central does not take --r"),
        (("binomial", "--n", "4", "--k", "2", "--j", "3", "--t", "2"), "binomial does not take --j or --t"),
        (
            ("closed-form", "--family", "s1-t1", "--n", "3", "--r", "5", "--a", "2"),
            "closed-form --family s1-t1 does not take --r or --a",
        ),
    ):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out, err) == (2, "", f"error: compute {named}\n")


# what each compute quantity reads: its required options, then its optional
# ones; msum is named with its kernel, closed-form with its family
_COMPUTE_READS = {
    "binomial": (("n", "k"), ()),
    "catalan": (("n",), ()),
    "supercatalan": (("n", "r"), ()),
    "gessel": (("n", "r"), ()),
    **dict.fromkeys(("phi", "psi", "quarter-psi"), (("n",), ("m", "r"))),
    "msum --kernel plain": (("kernel", "n"), ("j", "t")),
    "msum --kernel rising": (("kernel", "n"), ("j", "t", "a")),
    "msum --kernel central": (("kernel", "n"), ("j", "t")),
    "msum --kernel supercat": (("kernel", "n"), ("j", "t", "r")),
    "msum --kernel half-supercat": (("kernel", "n"), ("j", "t", "r")),
    "msum --kernel gessel": (("kernel", "n"), ("j", "t", "r")),
    **{
        f"closed-form --family {family.value}": (("family", "n"), params[1:])
        for family, params in closed_forms.FAMILY_PARAMS.items()  # each takes n first
    },
}
_COMPUTE_FLAGS = {
    "n": "4", "k": "2", "m": "2", "r": "2", "j": "1", "t": "1", "a": "1",
    "kernel": "plain", "family": "phi-00",
}


@pytest.mark.parametrize(
    "what, flag",
    [(what, flag) for what in _COMPUTE_READS for flag in _COMPUTE_FLAGS],
    ids=lambda x: x.replace(" --kernel ", "-").replace(" --family ", "-"),
)
def test_compute_reads_exactly_its_declared_options(capsys, what, flag):
    quantity, *selector = what.split()
    required, optional = _COMPUTE_READS[what]
    given = {name: _COMPUTE_FLAGS[name] for name in required}
    if selector:
        given[selector[0][2:]] = selector[1]
    if flag in required:
        del given[flag]
    else:
        given[flag] = _COMPUTE_FLAGS[flag]
    argv = [arg for name, value in given.items() for arg in (f"--{name}", value)]
    code, out, err = run(capsys, "compute", quantity, *argv)
    if flag in required:
        assert (code, out, err) == (2, "", f"error: compute {quantity} requires --{flag}\n")
    elif flag in optional:
        assert (code, err) == (0, "") and out.strip().lstrip("-").isdigit()
    else:
        assert (code, out, err) == (2, "", f"error: compute {what} does not take --{flag}\n")


def test_compute_failed_exact_division_exits_one(capsys, monkeypatch):
    # every binomial read as 1 leaves the phi-j-t0 total at 1/2
    monkeypatch.setattr(closed_forms, "binomial", lambda n, k: 1)
    code, out, err = run(capsys, "compute", "closed-form", "--family", "phi-j-t0", "--n", "1")
    assert code == 1 and out == ""
    assert "does not divide" in err


# ---------------------------------------------------------------------- verify


def test_verify_single_suite_plain(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "remark1")
    assert code == 0
    assert out == "remark1 PASS cases=4 violations=0\n"
    code, out, _ = run(capsys, "verify", "paths", "--n-max", "0")
    assert code == 0
    assert out.splitlines()[1] == "  note: n_max raised to 1 (suite minimum)"
    monkeypatch.setattr(verify, "direct_sum", lambda *args: 1171)
    code, out, _ = run(capsys, "verify", "remark1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "remark1 FAIL cases=4 violations=4"
    assert lines[1] == "  at {'n': 3, 'm': 1, 'r': 2}: expected 1170, got 1171"
    assert len(lines) == 5


def test_verify_single_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", *_TRIM_FLAGS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    [suite] = payload["suites"]
    assert suite["suite"] == "theorem1"
    assert suite["range"] == {"n_max": 3, "m_max": 2, "r_max": 2}
    assert suite["elapsed_ms"] == 0


def test_verify_all_json_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify", "all", *_TRIM_FLAGS, "--format", "json")
    code2, out2, _ = run(capsys, "verify", "all", *_TRIM_FLAGS, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["suites"]) == 17
    assert [s["suite"] for s in payload["suites"]] == list(verify.suite_names())
    # the plain form gives one verdict line per suite, in the same order
    code, out, _ = run(capsys, "verify", "all", *_TRIM_FLAGS)
    assert code == 0
    assert out.splitlines() == [
        f"{s['suite']} PASS cases={s['cases_checked']} violations=0" for s in payload["suites"]
    ]


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "remark1", "--format", "csv")
    assert code == 0
    assert out == "suite,params,expected,actual\n"


def test_verify_timings_forfeit_byte_identity_but_carry_data(capsys):
    code, out, _ = run(capsys, "verify", "all", *_TRIM_FLAGS, "--format", "json", "--timings")
    assert code == 0
    payload = json.loads(out)
    assert any(s["elapsed_ms"] > 0 for s in payload["suites"])


def test_verify_timings_in_plain_end_each_verdict_line(capsys):
    code, out, _ = run(capsys, "verify", "all", *_TRIM_FLAGS, "--timings")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == list(verify.suite_names())
    for line in lines:
        head, _, elapsed = line.rpartition(" elapsed_ms=")
        assert head.endswith("violations=0")
        assert float(elapsed) >= 0
    assert any(float(line.rpartition("=")[2]) > 0 for line in lines)


def test_verify_timings_with_csv_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "remark1", "--format", "csv", "--timings")
    assert code == 2
    assert out == ""
    assert "--timings" in err and "csv" in err


def test_verify_out_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "calkin", "--n-max", "3", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


def test_verify_out_to_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "verify", "remark1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


def test_verify_broken_stdout_is_not_a_usage_error(monkeypatch):
    # only the --out write is a usage problem; a closed stdout pipe still
    # raises instead of becoming exit 2
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    with pytest.raises(BrokenPipeError):
        main(["verify", "remark1"])


def test_verify_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2 and "unknown suite" in err
    # an over-budget single suite is a usage-level refusal
    monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", "0")
    code, _, err = run(capsys, "verify", "theorem1")
    assert code == 2 and "budget" in err
    # but `verify all` degrades each suite into a failing report: exit 1
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_malformed_budget_is_a_usage_error(capsys, monkeypatch):
    # the same bad value is a usage error for one suite and for the batch
    monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", "abc")
    for suite in ("eq14", "all"):
        code, out, err = run(capsys, "verify", suite)
        assert code == 2, suite
        assert "CONVOLVIUM_BUDGET_MS" in err and out == ""


# sha256 of `verify all --format json` at the default seed 24301, the same
# golden digest bench/run.py checks; a refactor of the arithmetic must keep it
_GOLDEN_REPORT_SHA256 = "e7b24ce45eac6fe3b73e906efcca67e101e514a57d80875130dc5b70a18d9903"


def _cli_subprocess(*argv, timeout, stdout=subprocess.PIPE, **env):
    """`python -m convolvium ARGV` in a fresh interpreter, killed after
    `timeout` seconds."""
    src = str(Path(convolvium.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "convolvium", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("argv", [["kr", "--n-max", "200000"], ["all"]])
def test_verify_nan_budget_is_a_usage_error(argv):
    # every estimate compares false with NaN, so a NaN budget taken as a
    # number would let kr's 200001-entry window run for minutes; it must be
    # refused before any suite runs
    done = _cli_subprocess("verify", *argv, timeout=30, CONVOLVIUM_BUDGET_MS="nan")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "CONVOLVIUM_BUDGET_MS" in done.stderr


def test_verify_infinite_budget_is_a_usage_error():
    # kr's own estimate is infinite past r_max 40, and nothing exceeds an
    # infinite budget: taken as a number it would start ~8.7e24 candidates
    done = _cli_subprocess("verify", "kr", "--r-max", "41", timeout=30, CONVOLVIUM_BUDGET_MS="inf")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "CONVOLVIUM_BUDGET_MS" in done.stderr


def test_verify_all_json_matches_golden_digest(capsys, monkeypatch):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN_REPORT_SHA256


def test_verify_refuses_a_negative_seed(capsys):
    # Random(-5) draws what Random(5) draws: the report would record -5
    code, out, err = run(capsys, "verify", "thm2", "--seed", "-5")
    assert code == 2 and out == ""
    assert err == "error: --seed must be non-negative, got -5\n"


def test_python_m_convolvium_exits_as_main_returns_and_keeps_its_output(tmp_path):
    # `python -m convolvium` freezes the garbage collector once main has
    # returned: the exit code, stdout and the --out file are main's
    done = _cli_subprocess("verify", "all", "--format", "json", timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == _GOLDEN_REPORT_SHA256
    target = tmp_path / "all.json"
    written = _cli_subprocess("verify", "all", "--format", "json", "--out", str(target), timeout=60)
    assert written.returncode == 0 and written.stdout == ""
    assert written.stderr == f"wrote {target}\n"
    assert target.read_bytes() == done.stdout.encode()
    refused = _cli_subprocess("verify", "no-such-suite", timeout=30)
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error: unknown suite")


def test_python_m_convolvium_on_a_closed_stdout_pipe_is_not_a_usage_error():
    # test_verify_broken_stdout_is_not_a_usage_error in a fresh interpreter:
    # the write raises BrokenPipeError out of main, exit 1, never exit 2
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli_subprocess("verify", "remark1", timeout=30, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "BrokenPipeError: [Errno 32] Broken pipe"
    assert not any(line.startswith("error: ") for line in done.stderr.splitlines())


def test_verify_bad_jobs(capsys):
    # verify has no parallelism option: --jobs is an unknown flag
    code, _, err = run(capsys, "verify", "all", "--jobs", "2")
    assert code == 2
    assert "unrecognized arguments" in err


# ----------------------------------------------------------------------- paths


def test_paths_count_and_list(capsys):
    code, out, _ = run(capsys, "paths", "--n", "1", "--r", "2")
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "paths", "--n", "1", "--r", "2", "--list")
    assert code == 0
    assert sorted(out.split()) == ["RRRUU", "RRURU", "RURRU", "URRRU"]
    code, out, _ = run(capsys, "paths", "--n", "1", "--r", "2", "--interpretation", "prefix")
    assert code == 0 and out == "4\n"


def test_paths_lists_all_16796_paths_of_n10_r1():
    # the catalan(10) paths below the diagonal, R positions ascending
    done = _cli_subprocess("paths", "--n", "10", "--r", "1", "--list", timeout=20)
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 16796
    assert lines[0] == "R" * 11 + "U" * 10
    assert lines[-1] == "R" + "RU" * 10


def test_paths_board_too_large_for_listing(capsys):
    code, _, err = run(capsys, "paths", "--n", "8", "--r", "8", "--list")
    assert code == 2 and "enumeration" in err
    # counting the same board is fine
    code, out, _ = run(capsys, "paths", "--n", "8", "--r", "8")
    assert code == 0 and int(out) > 0


def test_paths_requires_both_indices(capsys):
    code, _, _ = run(capsys, "paths", "--n", "3")
    assert code == 2


# ----------------------------------------------------------------------- table


def test_table_catalan(capsys):
    code, out, _ = run(capsys, "table", "catalan", "--n-max", "4")
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,2", "3,5", "4,14"]


def test_table_kr(capsys):
    code, out, _ = run(capsys, "table", "kr", "--r-max", "5")
    assert code == 0
    assert out.splitlines() == ["r,value", "1,1", "2,6", "3,30", "4,140", "5,630"]


def test_table_gessel_grid(capsys):
    code, out, _ = run(capsys, "table", "gessel", "--n-max", "1", "--r-max", "2")
    assert code == 0
    assert out.splitlines() == ["n,r,value", "0,1,1", "0,2,3", "1,1,1", "1,2,4"]


def test_table_phi_uses_weight(capsys):
    code, out, _ = run(capsys, "table", "phi", "--n-max", "3", "--r-max", "2", "--m", "1")
    assert code == 0
    rows = dict()
    for line in out.splitlines()[1:]:
        n, r, value = line.split(",")
        rows[(int(n), int(r))] = int(value)
    assert rows[(3, 2)] == 1170


def test_table_binomial(capsys):
    code, out, _ = run(capsys, "table", "binomial", "--n-max", "2")
    assert code == 0
    assert out.splitlines() == ["n,k,value", "0,0,1", "1,0,1", "1,1,1", "2,0,1", "2,1,2", "2,2,1"]


def test_table_usage_errors(capsys):
    code, _, err = run(capsys, "table", "gessel")
    assert code == 2 and "--n-max" in err
    code, _, err = run(capsys, "table", "catalan", "--n-max", "-1")
    assert code == 2 and "--n-max" in err
    code, _, err = run(capsys, "table", "gessel", "--n-max", "2", "--r-max", "0")
    assert code == 2 and "--r-max" in err
    # table always writes CSV; it has no --format option
    code, _, err = run(capsys, "table", "catalan", "--n-max", "2", "--format", "csv")
    assert code == 2 and "unrecognized arguments" in err
    code, _, _ = run(capsys, "table", "phi", "--n-max", "2", "--m", "0")
    assert code == 2
    code, _, _ = run(capsys, "table", "nope", "--n-max", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (("binomial", "--n-max", "2", "--m", "4"), "binomial does not take --m"),
        (("binomial", "--n-max", "2", "--r-max", "2"), "binomial does not take --r-max"),
        (("catalan", "--n-max", "2", "--r-max", "9"), "catalan does not take --r-max"),
        (("gessel", "--n-max", "2", "--m", "3"), "gessel does not take --m"),
        (("kr", "--r-max", "2", "--n-max", "5"), "kr does not take --n-max"),
    ],
    ids=["binomial-m", "binomial-r-max", "catalan-r-max", "gessel-m", "kr-n-max"],
)
def test_table_refuses_an_option_its_quantity_does_not_read(capsys, argv, named):
    # named and refused rather than silently dropped, as compute does
    code, out, err = run(capsys, "table", *argv)
    assert (code, out, err) == (2, "", f"error: table {named}\n")


# ------------------------------------------------------------------- top level


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0


def test_compute_help_names_who_requires_r_and_who_reads_a(capsys):
    # the help of --r and --a says what _COMPUTE declares: supercatalan and
    # gessel require --r and the rest read it at 1; --a is read at 0, by
    # msum's rising kernel and by closed-form's two s2 families
    code, out, _ = run(capsys, "compute", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "--r R order: required by supercatalan and gessel, else default 1" in text
    assert "--a A shift of msum's rising kernel and s2 closed forms (default 0)" in text
    r_defaults = {q: opts["r"] for q, (_, opts) in cli._COMPUTE.items() if "r" in opts}
    assert {q for q, d in r_defaults.items() if d is cli._REQUIRED} == {"supercatalan", "gessel"}
    assert {d for d in r_defaults.values() if d is not cli._REQUIRED} == {1}
    assert {opts["a"] for _, opts in cli._COMPUTE.values() if "a" in opts} == {0}
    takes_a = {f.value for f, takes in closed_forms.FAMILY_PARAMS.items() if "a" in takes}
    assert takes_a == {"s2-t0", "s2-t1"}


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
