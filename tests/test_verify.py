"""Unit tests for the verification harness itself.

These do not re-prove the mathematical claims (the suites do that); they
check that the harness counts cases honestly, reports deterministically,
notices injected faults, respects the work budget, and degrades gracefully.
Trimmed ranges keep every run here fast.
"""

from __future__ import annotations

import errno
import hashlib
import json
import marshal
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convolvium
from convolvium import sums, verify
from convolvium.kernels import (
    Kernel,
    KernelFamily,
    central_kernel,
    custom_kernel,
    gessel_kernel,
    plain_kernel,
    rising_kernel,
    supercat_kernel,
    with_bump,
)
from convolvium.paths import gessel_path_spec
from convolvium.sums import direct_sum
from convolvium.verify import (
    FUZZ_KERNEL_COUNT,
    RangeTooLarge,
    SweepRange,
    UnknownSuite,
    VerificationReport,
    reports_to_csv,
    reports_to_json,
    run_all,
    run_suite,
    suite_names,
)

_TRIM = SweepRange(n_max=4, m_max=2, r_max=2, a_max=2)


@pytest.fixture(autouse=True)
def _no_child_left():
    # run_all may fork; whatever a test runs, it must reap every child it
    # started, so none is left running and none is left a zombie
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_registry_has_all_seventeen_suites():
    assert suite_names() == (
        "theorem1",
        "psi-div",
        "phi-m1",
        "psi-m1",
        "calkin",
        "s2-div",
        "s3-div",
        "closed-forms",
        "eq7",
        "eq8",
        "thm2",
        "eq2-eq4",
        "stanley",
        "eq14",
        "kr",
        "remark1",
        "paths",
    )


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_case_counts_are_exhaustive():
    # theorem1: (n_max+1) * m_max * r_max
    rep = run_suite("theorem1", SweepRange(n_max=4, m_max=2, r_max=2))
    assert rep.cases_checked == 5 * 2 * 2
    # stanley: a full 4-dimensional box
    rep = run_suite("stanley", SweepRange(n_max=3))
    assert rep.cases_checked == 4**4
    # eq14: all ordered triples c <= b <= a <= 4
    rep = run_suite("eq14", SweepRange(a_max=4))
    assert rep.cases_checked == 35
    # remark1 is a fixed quadruple of checks
    rep = run_suite("remark1")
    assert rep.cases_checked == 4


def test_report_fields_and_range():
    rep = run_suite("theorem1", SweepRange(n_max=3, m_max=1, r_max=1))
    assert rep.suite == "theorem1"
    assert rep.passed
    assert rep.range == {"n_max": 3, "m_max": 1, "r_max": 1}
    assert rep.violations == []
    assert rep.elapsed_ms >= 0
    assert isinstance(rep.claim, str) and rep.claim


def test_seeded_suites_expose_their_seed():
    rep = run_suite("eq8", SweepRange(n_max=4, m_max=1, r_max=1, a_max=0, seed=7))
    assert rep.range["seed"] == 7
    assert rep.passed
    rep2 = run_suite("thm2", SweepRange(n_max=3, a_max=1, r_max=1, seed=123))
    assert rep2.range["seed"] == 123
    assert rep2.passed


def test_defaults_fill_unset_fields():
    rep = run_suite("paths", SweepRange(n_max=3))
    assert rep.range == {"n_max": 3, "r_max": 6}


def test_minimum_clamping_is_noted():
    rep = run_suite("paths", SweepRange(n_max=0, r_max=0))
    assert rep.range == {"n_max": 1, "r_max": 1}
    assert any("n_max raised to 1" in note for note in rep.notes)
    assert any("r_max raised to 1" in note for note in rep.notes)
    rep = run_suite("calkin", SweepRange(m_max=0, n_max=2))
    assert rep.range["m_max"] == 1


def test_budget_guard():
    with pytest.raises(RangeTooLarge):
        run_suite("theorem1", budget_ms=0)
    with pytest.raises(ValueError, match="NaN"):
        run_suite("eq14", budget_ms=math.nan)  # no estimate exceeds NaN
    for budget in (math.inf, -math.inf):  # nor infinity
        with pytest.raises(ValueError, match="NaN or infinite"):
            run_suite("eq14", budget_ms=budget)
    with pytest.raises(RangeTooLarge, match="inf ms"):
        run_suite("kr", SweepRange(r_max=41))  # kr's estimate is infinite past r_max 40
    with pytest.raises(RangeTooLarge):
        run_suite("stanley", SweepRange(n_max=500))  # default budget, absurd range
    # an explicit generous budget admits the default range
    assert run_suite("eq14", budget_ms=10_000).passed


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", "0")
    with pytest.raises(RangeTooLarge):
        run_suite("kr")
    for raw in ("not-a-number", "nan", "NaN", "-nan", "inf", "Infinity", "-inf", "1e999"):
        monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", raw)
        with pytest.raises(ValueError, match="CONVOLVIUM_BUDGET_MS"):
            run_suite("remark1")


def test_run_all_converts_errors_to_failing_reports():
    reports = run_all(budget_ms=0)
    assert len(reports) == len(suite_names())
    assert all(not r.passed for r in reports)
    violation = reports[0].violations[0]
    assert violation["expected"] == "suite completes"
    assert violation["actual"].startswith("RangeTooLarge")


def test_run_all_registry_order():
    assert [r.suite for r in run_all(_TRIM)] == list(suite_names())


def test_json_byte_identity_across_runs():
    first = reports_to_json(run_all(_TRIM))
    second = reports_to_json(run_all(_TRIM))
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["total_violations"] == 0
    assert len(payload["suites"]) == len(suite_names())
    for suite in payload["suites"]:
        assert suite["elapsed_ms"] == 0  # timings suppressed by default
        assert set(suite) == {
            "suite",
            "claim",
            "range",
            "cases_checked",
            "violations",
            "elapsed_ms",
            "notes",
        }


def test_timings_opt_in():
    reports = run_all(_TRIM)
    with_timings = json.loads(reports_to_json(reports, include_timings=True))
    assert any(s["elapsed_ms"] > 0 for s in with_timings["suites"])


def test_seed_changes_fuzz_but_not_verdict():
    for seed in (1, 2, 0xBEEF):
        rep = run_suite("eq8", SweepRange(n_max=5, m_max=2, r_max=2, a_max=1, seed=seed))
        assert rep.passed


# -------------------------------------------------------------- fault injection


def test_gessel_bump_is_caught_and_attributed():
    bump = with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1), 1)
    reports = run_all(SweepRange(n_max=6, m_max=2, r_max=3, a_max=2), bump=bump)
    by_name = {r.suite: r for r in reports}
    flagged = [name for name, r in by_name.items() if not r.passed]
    assert flagged, "an injected kernel fault went completely undetected"
    # remark1 evaluates exactly this kernel point, so it must flag
    assert "remark1" in flagged
    assert "closed-forms" in flagged
    # suites with no kernel surface must stay green
    for name in ("stanley", "eq14", "kr", "paths"):
        assert by_name[name].passed, name


def test_bump_violations_carry_decimal_strings():
    bump = with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1), 1)
    rep = run_suite("remark1", bump=bump)
    assert not rep.passed
    for violation in rep.violations:
        assert isinstance(violation["expected"], str)
        assert isinstance(violation["actual"], str)
        assert isinstance(violation["parameters"], dict)


@pytest.mark.parametrize(
    "bump",
    [
        with_bump(Kernel(KernelFamily.PLAIN), (4, 2, 0), 1),
        with_bump(Kernel(KernelFamily.CENTRAL), (4, 1, 0), 1),
        with_bump(Kernel(KernelFamily.RISING), (4, 2, 1), 1),
        with_bump(Kernel(KernelFamily.SUPERCAT, order=2), (4, 1, 1), 1),
        with_bump(Kernel(KernelFamily.HALF_SUPERCAT, order=2), (4, 2, 1), 1),
        with_bump(Kernel(KernelFamily.GESSEL, order=2), (4, 0, 1), 1),
    ],
)
def test_every_builtin_family_bump_is_detected(bump):
    reports = run_all(SweepRange(n_max=6, m_max=2, r_max=3, a_max=2), bump=bump)
    assert any(not r.passed for r in reports), bump


def test_unbumped_run_stays_green_at_the_same_ranges():
    reports = run_all(SweepRange(n_max=6, m_max=2, r_max=3, a_max=2))
    assert all(r.passed for r in reports)


def test_kernel_bump_validation():
    with pytest.raises(ValueError):
        with_bump(Kernel(KernelFamily.SUPERCAT), (0, 0, 0), 1)
    with pytest.raises(ValueError):
        with_bump(Kernel(KernelFamily.PLAIN, order=2), (0, 0, 0), 1)
    # a zero delta, or a point no row holds, would leave every suite green;
    # the kernel refuses both however the bump is set
    base = Kernel(KernelFamily.GESSEL, order=2)
    bad = [((0, 0, 0), 0)] + [
        (point, 1) for point in ((3, 5, 0), (-1, 0, 0), (4, -1, 0), (4, 2, -3), (5, 6, 1))
    ]
    for point, delta in bad:
        with pytest.raises(ValueError):
            with_bump(base, point, delta)
        with pytest.raises(ValueError):
            Kernel(base.family, order=base.order, bump=(point, delta))


def test_records_are_immutable_and_equal_by_fields():
    kernel = with_bump(Kernel(KernelFamily.GESSEL, order=2), (4, 1, 1), 3)
    spec = gessel_path_spec(2, 1)
    for record, name, value in ((kernel, "order", 3), (spec, "bound", 0)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) != value
    for make in (plain_kernel, rising_kernel, central_kernel, lambda: gessel_kernel(3)):
        assert make() == make() and hash(make()) == hash(make())
    assert kernel == with_bump(gessel_kernel(2), (4, 1, 1), 3)
    assert kernel != with_bump(gessel_kernel(2), (4, 1, 1), 2)
    assert hash(kernel) == hash(with_bump(gessel_kernel(2), (4, 1, 1), 3))
    assert gessel_kernel(2) != supercat_kernel(2)


def test_default_sweep_range_keeps_every_default():
    sweep = SweepRange()
    assert sweep.seed == verify.DEFAULT_SEED
    assert (sweep.n_max, sweep.m_max, sweep.r_max, sweep.a_max) == (None, None, None, None)


@pytest.mark.parametrize(
    "bump",
    [with_bump(custom_kernel({(0, 0, 0): 1}), (0, 0, 0), 1), Kernel(KernelFamily.GESSEL, order=2)],
)
def test_a_custom_or_unbumped_bump_is_refused_before_any_suite_runs(bump):
    # either would inject no fault a suite reads and leave the run vacuously
    # green; run_all raises instead of turning it into one report per suite
    with pytest.raises(ValueError, match="with_bump"):
        run_suite("remark1", bump=bump)
    with pytest.raises(ValueError, match="with_bump"):
        run_all(_TRIM, bump=bump)


# ---------------------------------------------------------------- independence
#
# Each identity suite computes its two sides by separate code: the direct
# side from the kernel row, the recurrence side from the lower-level vector
# only. Corrupting either side alone must surface as a violation; a check
# that compared a value with itself would stay green.

_SIDES = SweepRange(n_max=4, m_max=2, r_max=1, a_max=1)


def _sha256(report):
    # sha256 of `reports_to_json([report])`: pins the order and content of
    # every violation, so a suite that compares whole blocks of cases at
    # once must record exactly what comparing case by case recorded
    return hashlib.sha256(reports_to_json([report]).encode()).hexdigest()


def _shift_first(fn, *, skip=lambda *args: False):
    def shifted(*args):
        out = fn(*args)
        return out if skip(*args) else (out[0] + 1, *out[1:])

    return shifted


def test_eq8_sees_a_corrupted_lift(monkeypatch):
    assert run_suite("eq8", _SIDES).passed
    monkeypatch.setattr(verify, "m_sum_lift_vector", _shift_first(verify.m_sum_lift_vector))
    report = run_suite("eq8", _SIDES)
    assert len(report.violations) == 570
    assert _sha256(report) == "725113d12953659468e878aa27cf9944dbd64bf0a3e539d5fdc3c2a52ea0fbaf"


def test_eq8_reports_a_corrupted_block_offset_first(monkeypatch):
    # every lifted entry wrong: one violation per case, ordered by n, then
    # offset j, then level t, as the case-by-case loop recorded them
    real = verify.m_sum_lift_vector
    monkeypatch.setattr(verify, "m_sum_lift_vector", lambda *args: tuple(v + 1 for v in real(*args)))
    report = run_suite("eq8", _SIDES)
    assert len(report.violations) == report.cases_checked == 1026
    assert _sha256(report) == "5ef90e6758ba287662a0f2bb9b0506d1688d70cc4f12c3dffbb2526c9924e1b1"


def test_eq8_sees_a_corrupted_direct_level(monkeypatch):
    # levels t >= 1 are the direct side; level 0 only feeds the lift
    shifted = _shift_first(verify.m_sum_vector, skip=lambda row, t: t == 0)
    monkeypatch.setattr(verify, "m_sum_vector", shifted)
    report = run_suite("eq8", _SIDES)
    assert len(report.violations) == 285
    assert _sha256(report) == "6fdae742ca3730b6921d3c2019e073e2dbf36e9152bfd5f43658f4e8c0b03f7c"


def test_thm2_sees_a_corrupted_transplant(monkeypatch):
    assert run_suite("thm2", _SIDES).passed
    monkeypatch.setattr(
        verify, "theorem2_transform_vector", _shift_first(verify.theorem2_transform_vector)
    )
    report = run_suite("thm2", _SIDES)
    assert len(report.violations) == 505
    assert _sha256(report) == "40e986ca2b80d6798bfe8e0cd47aee14054e963abb2f5fbbfa85a3d69be0ed6f"


def test_thm2_sees_a_corrupted_dressed_kernel(monkeypatch):
    # the dressed row is the direct side: shift its k = 0 entry
    monkeypatch.setattr(verify, "binomial_pair_row", _shift_first(verify.binomial_pair_row))
    report = run_suite("thm2", _SIDES)
    assert len(report.violations) == 500
    assert _sha256(report) == "70f4a1cd285bb49fa050594eaa2f51fde4d56445f124411caf80698123e04f41"


def test_stanley_sees_a_corrupted_binomial(monkeypatch):
    # stanley reads every binomial from one Pascal table built per run; a
    # single wrong entry must still surface, exactly as often as it did when
    # each term called binomial itself
    assert run_suite("stanley").passed
    real = verify.binomial
    monkeypatch.setattr(
        verify, "binomial", lambda n, k: real(n, k) + (1 if (n, k) == (5, 2) else 0)
    )
    rep = run_suite("stanley")
    assert len(rep.violations) == 1602
    assert _sha256(rep) == "bc3bf4edc1c84c92143d62f7fc1ef65515586d9e325eb07ec5de441d2c949997"


@pytest.mark.parametrize("side", ["direct_sum", "m_sum"])
def test_eq7_sees_either_side_corrupted(monkeypatch, side):
    real = getattr(verify, side)
    monkeypatch.setattr(verify, side, lambda *args: real(*args) + 1)
    assert not run_suite("eq7", _SIDES).passed


# The recurrences read their coefficients from cached plans. A wrong plan
# coefficient must surface in the suites that read it, and direct_sum, the
# other side of eq7, keeps its own weights.


def _corrupt_plan(plan_fn, key, j, i):
    """plan_fn with coefficient i of offset j raised by one at `key`."""

    def corrupted(*args):
        plan = plan_fn(*args)
        if args != key:
            return plan
        rows = [list(coeffs) for coeffs in plan]
        rows[j][i] += 1
        return tuple(map(tuple, rows))

    return corrupted


def test_a_wrong_m_sum_plan_coefficient_fails_eq7_and_eq8(monkeypatch):
    kerns = [gessel_kernel(2), rising_kernel(), central_kernel(), plain_kernel()]
    direct = [direct_sum(k, n, m, 1) for k in kerns for n in range(5) for m in (1, 2, 3)]
    assert run_suite("eq7", _SIDES).passed and run_suite("eq8", _SIDES).passed
    # level 1 at n = 4: eq7's offset-0 side at m = 2, and eq8's direct side
    monkeypatch.setattr(sums, "_m_plan", _corrupt_plan(sums._m_plan, (4, 1), 0, 2))
    assert not run_suite("eq7", _SIDES).passed
    assert not run_suite("eq8", _SIDES).passed
    assert [direct_sum(k, n, m, 1) for k in kerns for n in range(5) for m in (1, 2, 3)] == direct


def test_a_wrong_lift_plan_coefficient_fails_eq8(monkeypatch):
    monkeypatch.setattr(sums, "_lift_plan", _corrupt_plan(sums._lift_plan, (4,), 0, 1))
    assert not run_suite("eq8", _SIDES).passed


def test_a_wrong_transplant_plan_coefficient_fails_thm2(monkeypatch):
    monkeypatch.setattr(
        sums, "_transplant_plan", _corrupt_plan(sums._transplant_plan, (4, 1), 0, 1)
    )
    assert not run_suite("thm2", _SIDES).passed


# sha256 of `reports_to_json(run_all(bump=...))` for this gessel(2) bump at
# the default ranges and seed: pins the order and content of violations in a
# failing run, as the CLI golden does for a green one
_GOLDEN_FAILING_RUN_SHA256 = "56a6ef51c92feac53f422dd77a46d7902b70da188203c52aedc6075f50d0ff5d"


def test_failing_run_matches_golden_digest(monkeypatch):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    bump = with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1), 1)
    text = reports_to_json(run_all(bump=bump))
    assert json.loads(text)["total_violations"] > 0
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_FAILING_RUN_SHA256


# each direct-sum suite under a bump of its own kernel family, at the default
# ranges: the violation count and the sha256 of `reports_to_json([report])`,
# which pins the range and the parameter keys of every violation
@pytest.mark.parametrize(
    "suite, bump, violations, digest",
    [
        (
            "theorem1",
            with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1)),
            0,
            "0f4aee39d369371e694668d0953cfa4bf6c966db9eadbfef59b4c15cd36f30d1",
        ),
        (
            "psi-div",
            with_bump(Kernel(KernelFamily.SUPERCAT, order=1), (4, 2, 0)),
            1,
            "62b2fb17a08882d575c3083527fd5e6e12eb0595c8e6133bab197ff947dc83d6",
        ),
        (
            "psi-m1",
            with_bump(Kernel(KernelFamily.SUPERCAT, order=1), (4, 2, 0)),
            1,
            "fd09e564c5572ab5d5a7c9aba3e18bd7f2ea2ec547cfdaf614b2cdaafb1d2be1",
        ),
        (
            "calkin",
            with_bump(Kernel(KernelFamily.PLAIN), (2, 1, 0)),
            0,
            "8dd299ef44ff59d9b06db9968c0b36db5825cb17c8eebc1a23d29d5b241aac2b",
        ),
        (
            "s2-div",
            with_bump(Kernel(KernelFamily.RISING), (4, 1, 2)),
            4,
            "15213472abce2e308d3c2d6e9e2602e4288c2f8686a7378421fc30f5ddc00052",
        ),
        (
            "s3-div",
            with_bump(Kernel(KernelFamily.CENTRAL), (4, 2, 0)),
            0,
            "bf766a51712653a62bef329a939f4b63df3113997f82dca6ee3e1fb379c78603",
        ),
        (
            "phi-m1",
            with_bump(Kernel(KernelFamily.GESSEL, order=1), (4, 1, 0)),
            1,
            "e6d59accc79977490a7d307050e5cb655ad40b67fb8b0ec60a04a7596d6d27d2",
        ),
    ],
)
def test_direct_sum_suite_under_its_own_bump_matches_golden(monkeypatch, suite, bump, violations, digest):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    report = run_suite(suite, bump=bump)
    assert len(report.violations) == violations
    text = reports_to_json([report])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_run_all_rejects_a_malformed_budget(monkeypatch):
    monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", "abc")
    with pytest.raises(ValueError, match="CONVOLVIUM_BUDGET_MS"):
        run_all(_TRIM)


# --------------------------------------------------------------- two processes
#
# Where it can fork onto a second CPU, run_all runs one share of the suites in
# a child. Patching the CPU count picks the path; both must give the same bytes.


def _on_cpus(monkeypatch, cpus, sweep=None, **kwargs):
    """reports_to_json(run_all(...)) with `cpus` CPUs, the forks it made, and
    the suites this process ran itself, in the order it ran them."""
    forks, ran_here = [], []
    parent = os.getpid()
    real_fork, real_run_suite = os.fork, verify.run_suite

    def fork():
        forks.append(os.getpid())
        return real_fork()

    def run_suite(name, *args, **kw):
        if os.getpid() == parent:
            ran_here.append(name)
        return real_run_suite(name, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_cpus", lambda: cpus)
        patch.setattr(os, "fork", fork)
        patch.setattr(verify, "run_suite", run_suite)
        text = reports_to_json(run_all(sweep, **kwargs))
    return text, len(forks), ran_here


@pytest.mark.parametrize(
    "sweep, kwargs",
    [
        (_TRIM, {}),
        (None, {}),
        (None, {"budget_ms": 0}),
        (None, {"bump": with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1), 1)}),
        # a box no estimate can read: the split still runs, and every suite
        # that reads n_max aborts on both paths
        (SweepRange(n_max="4"), {}),
    ],
    ids=["trim", "default", "no-budget", "bump", "malformed-box"],
)
def test_forked_and_serial_runs_give_the_same_bytes(monkeypatch, sweep, kwargs):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    serial, serial_forks, serial_here = _on_cpus(monkeypatch, 1, sweep, **kwargs)
    forked, forks, forked_here = _on_cpus(monkeypatch, 2, sweep, **kwargs)
    assert (serial_forks, forks) == (0, 1)
    assert forked == serial
    # the child's reports were used: this process ran its own share only,
    # not the child's again through the fallback
    assert serial_here == list(suite_names())
    assert forked_here == verify._shares(sweep or SweepRange())[0]
    payload = json.loads(forked)
    assert [s["suite"] for s in payload["suites"]] == list(suite_names())
    if "budget_ms" in kwargs:
        assert all(s["notes"] == ["suite aborted: RangeTooLarge"] for s in payload["suites"])
    if "bump" in kwargs:
        assert hashlib.sha256(forked.encode()).hexdigest() == _GOLDEN_FAILING_RUN_SHA256


def test_the_split_is_a_pure_function_of_the_box():
    for sweep in (_TRIM, SweepRange(), SweepRange(n_max=30, seed=7)):
        mine, theirs = verify._shares(sweep)
        assert (mine, theirs) == verify._shares(sweep)
        assert sorted(mine + theirs) == sorted(suite_names())
        assert mine and theirs
    # the seed only moves the fuzz, never the estimates
    assert verify._shares(SweepRange(seed=1)) == verify._shares(SweepRange(seed=2))


def test_a_dead_child_leaves_its_suites_to_the_parent(monkeypatch):
    serial, _, _ = _on_cpus(monkeypatch, 1, _TRIM)
    parent = os.getpid()
    mine, theirs = verify._shares(_TRIM)
    for name in theirs[:2]:
        spec = verify._REGISTRY[name]

        def runner(ctx, real=spec.runner):
            if os.getpid() != parent:
                os._exit(3)
            real(ctx)

        monkeypatch.setitem(verify._REGISTRY, name, spec._replace(runner=runner))
    forked, forks, ran_here = _on_cpus(monkeypatch, 2, _TRIM)
    assert forks == 1
    assert forked == serial
    assert ran_here == mine + theirs


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_no_child_to_start_runs_every_suite_here(monkeypatch, call):
    # os.pipe fails with EMFILE when no descriptor is left, os.fork with
    # EAGAIN or ENOMEM when no process or memory is left for a child
    serial, _, _ = _on_cpus(monkeypatch, 1, _TRIM)
    opened = []
    real_pipe = os.pipe

    def pipe():
        if call == "pipe":
            raise OSError(errno.EMFILE, "Too many open files")
        opened.extend(real_pipe())
        return tuple(opened)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    assert reports_to_json(run_all(_TRIM)) == serial
    assert len(opened) == (2 if call == "fork" else 0)
    for fd in opened:  # the pipe is closed again, not leaked
        with pytest.raises(OSError):
            os.fstat(fd)


def test_an_unreadable_child_result_is_refused():
    names = ["remark1", "eq14"]
    reports = [run_suite(name, _TRIM) for name in names]
    sent = marshal.dumps([tuple(r) for r in reports])
    assert verify._load_reports(sent, names) == reports
    for data in (b"", sent[:-5], marshal.dumps(7), marshal.dumps([(1, 2)])):
        assert verify._load_reports(data, names) is None
    assert verify._load_reports(sent, names[::-1]) is None


# ----------------------------------------------------------------- serializers


def test_csv_serialization():
    bump = with_bump(Kernel(KernelFamily.GESSEL, order=2), (6, 1, 1), 1)
    failing = run_suite("remark1", bump=bump)
    passing = run_suite("eq14", SweepRange(a_max=4))
    text = reports_to_csv([passing, failing])
    lines = text.splitlines()
    assert lines[0] == "suite,params,expected,actual"
    assert len(lines) == 1 + len(failing.violations)
    assert all(line.startswith("remark1,") for line in lines[1:])


def test_csv_of_green_run_is_header_only():
    text = reports_to_csv([run_suite("remark1")])
    assert text == "suite,params,expected,actual\n"


def test_report_to_json_dict_roundtrip():
    rep = VerificationReport(
        suite="x",
        claim="c",
        range={"n_max": 1},
        cases_checked=2,
        violations=[],
        elapsed_ms=12.5,
        notes=["n"],
    )
    d = rep.to_json_dict()
    assert d["elapsed_ms"] == 0
    assert rep.to_json_dict(include_timings=True)["elapsed_ms"] == 12.5
    json.dumps(d)  # must be serializable as-is
    bare = VerificationReport("x", "c", {}, 0, [], 0.0)
    assert json.loads(reports_to_json([bare]))["suites"][0]["notes"] == []


def test_kr_minimality_counts_candidates():
    # window 20, r <= 2: divisibility cases (21 per r) plus K_2 - 1 = 5
    # minimality candidates for r=2 and none for r=1
    rep = run_suite("kr", SweepRange(n_max=20, r_max=2))
    assert rep.passed
    assert rep.cases_checked == 2 * 21 + 5


def test_kr_window_walk_gives_the_central_binomials():
    assert list(verify._centrals(60)) == [math.comb(2 * n, n) for n in range(61)]


_KR_RETAINED = """
import tracemalloc
from convolvium.verify import SweepRange, run_suite

tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
passed = run_suite("kr", SweepRange(n_max=8000, r_max=1)).passed
print(passed, tracemalloc.get_traced_memory()[0] - before)
"""


def test_kr_keeps_nothing_after_it_returns():
    # a fresh interpreter, so no earlier test has filled anything in; a
    # cache of the 8001 central binomials walked would retain about 8.8 MB
    src = str(Path(convolvium.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _KR_RETAINED], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "True"
    assert int(out[1]) < 100_000


def test_kr_no_witness_is_a_violation():
    # with a window of 0, every candidate K < K_r lacks a witness (the only
    # n is 0 and K*binomial(0,0) = K is divisible by r for K = r among the
    # candidates... but K=1..K_r-1 with n=0 only: K*1 % r == 0 iff r | K)
    rep = run_suite("kr", SweepRange(n_max=0, r_max=2))
    assert not rep.passed
    assert any(v["actual"] == "no witness in window" for v in rep.violations)
