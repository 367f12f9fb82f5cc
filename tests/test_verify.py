"""Unit tests for the verification harness itself.

These do not re-prove the mathematical claims (the suites do that); they
check that the harness counts cases honestly, reports deterministically,
notices injected faults, respects the work budget, and degrades gracefully.
Trimmed ranges keep every run here fast.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import convolvium
from convolvium import verify
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
from convolvium.paths import PathSpec, TouchSet, gessel_path_spec
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


def _declared_boxes(name):
    """The default box, the all-minimum box (raised to each minimum), two
    small mixed boxes, and one past the default in every parameter the
    suite reads."""
    spec = verify._REGISTRY[name]
    return [
        SweepRange(),
        SweepRange(n_max=0, m_max=0, r_max=0, a_max=0),
        SweepRange(n_max=3, m_max=2, r_max=2, a_max=1),
        SweepRange(n_max=7, m_max=3, r_max=3, a_max=5),
        SweepRange(**{p: v + 1 for p, v in spec.defaults.items()}),
    ]


@pytest.mark.parametrize("name", suite_names())
def test_declared_cases_equal_the_cases_checked(name):
    # the budget estimate is the declared count times a per-case cost, so a
    # runner that drifts from its declaration must fail here
    spec = verify._REGISTRY[name]
    for sweep in _declared_boxes(name):
        rep = run_suite(name, sweep)
        params = {p: v for p, v in rep.range.items() if p != "seed"}
        assert params == verify._resolve_params(spec, sweep)[0]
        assert spec.cases(params) == rep.cases_checked, (name, params)


def _unrunnable(monkeypatch):
    """Make every suite's runner fail, so a test can see the guard's verdict
    without running any suite."""

    def runner(ctx):
        raise AssertionError("the guard let a suite run")

    for name, spec in verify._REGISTRY.items():
        monkeypatch.setitem(verify._REGISTRY, name, spec._replace(runner=runner))


def test_zero_budget_refuses_every_suite_at_every_box(monkeypatch):
    _unrunnable(monkeypatch)
    for name in suite_names():
        spec = verify._REGISTRY[name]
        assert spec.us_per_case > 0
        for sweep in _declared_boxes(name):
            assert spec.cases(verify._resolve_params(spec, sweep)[0]) >= 1
            with pytest.raises(RangeTooLarge, match="budget"):
                run_suite(name, sweep, budget_ms=0)


def test_the_estimate_admits_cheap_wide_boxes_and_refuses_costly_ones(monkeypatch):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    _unrunnable(monkeypatch)
    # each runs in a few seconds once admitted
    for name, sweep in (("eq8", SweepRange(n_max=50)), ("stanley", SweepRange(n_max=30))):
        with pytest.raises(AssertionError, match="guard let a suite run"):
            run_suite(name, sweep)
    # quadratic in the window: minutes of work
    with pytest.raises(RangeTooLarge):
        run_suite("kr", SweepRange(n_max=300_000))
    # a count past the float range is refused, not an arithmetic error, and
    # the message prints however long the count is
    for n_max in (10**84, 10**1100):
        with pytest.raises(RangeTooLarge, match="inf cases, ~inf ms"):
            run_suite("stanley", SweepRange(n_max=n_max))
    # the refusal gives the declared count beside the estimate
    with pytest.raises(RangeTooLarge, match=r"at 139932 cases, ~\d+ ms, over the 0 ms budget"):
        run_suite("eq8", SweepRange(n_max=50), budget_ms=0)


def test_the_estimate_grows_with_the_weight(monkeypatch):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    _unrunnable(monkeypatch)
    # a case's powers grow with m: hours of work, refused before any runs
    for name in ("calkin", "theorem1", "eq7"):
        with pytest.raises(RangeTooLarge, match="budget"):
            run_suite(name, SweepRange(m_max=100_000))


def test_the_estimate_keeps_up_with_the_weight():
    # calkin's cost per case grows with m as well as n: the estimate must
    # stay at least half the run time as m grows past the default 5
    spec = verify._REGISTRY["calkin"]
    for m_max in (10, 50, 200, 400):
        sweep = SweepRange(m_max=m_max)
        est_ms = verify._estimate(spec, verify._resolve_params(spec, sweep)[0])[1]
        actual_ms = run_suite("calkin", sweep).elapsed_ms
        assert est_ms / actual_ms >= 0.5, (m_max, est_ms, actual_ms)


def test_the_paths_estimate_grows_with_the_board(monkeypatch):
    monkeypatch.delenv("CONVOLVIUM_BUDGET_MS", raising=False)
    _unrunnable(monkeypatch)
    # a paths case fills an (n+r+1) x (n+r) board: days of work at either
    # parameter's 3000, refused before any runs
    for sweep in (SweepRange(r_max=3000), SweepRange(n_max=3000)):
        with pytest.raises(RangeTooLarge, match="budget"):
            run_suite("paths", sweep)


def test_the_paths_estimate_keeps_up_with_the_board():
    # the board grows with n and with r alike: the estimate must stay at
    # least half the run time along either
    spec = verify._REGISTRY["paths"]
    for sweep in (
        SweepRange(r_max=60),
        SweepRange(r_max=120),
        SweepRange(n_max=60),
        SweepRange(n_max=120),
    ):
        est_ms = verify._estimate(spec, verify._resolve_params(spec, sweep)[0])[1]
        actual_ms = run_suite("paths", sweep).elapsed_ms
        assert est_ms / actual_ms >= 0.5, (sweep, est_ms, actual_ms)


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
    # a custom kernel holds only its stored rows: a bump elsewhere would
    # never apply
    custom = custom_kernel({(2, k, 0): k + 1 for k in range(3)})
    assert with_bump(custom, (2, 1, 0), 7).row(2, 0) == (1, 9, 3)
    for point in ((5, 1, 0), (2, 1, 1)):
        with pytest.raises(ValueError, match="no row of the kernel"):
            with_bump(custom, point, 7)


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


def test_a_negative_seed_is_refused_before_any_suite_runs(monkeypatch):
    # Random(-5) draws what Random(5) draws, so a report recording seed -5
    # would replay seed 5's kernels under another name
    assert random.Random(-5).random() == random.Random(5).random()
    ran = []
    monkeypatch.setattr(verify, "_run_or_abort", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        run_suite("thm2", SweepRange(seed=-5))
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        run_all(SweepRange(seed=-5))
    assert ran == []
    assert run_suite("thm2", SweepRange(n_max=2, a_max=0, r_max=1, seed=0)).range["seed"] == 0


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


# One wrong coefficient in a recurrence's plan, its matrix of coefficients:
# at one key, the function the runner calls adds its input's entry 1 to its
# output's entry 0, as if the coefficient of input 1 in offset 0 were one too
# large. It must surface in the suites that read it. Each entry gives what is
# added at its key.
_FAULTS = {
    "m_sum_vector": lambda row, t: row[1] if (len(row), t) == (5, 1) else 0,
    "m_sum_lift_vector": lambda level, n: level[1] if n == 4 else 0,
    "theorem2_transform_vector": lambda level0, n, a: level0[1] if (n, a) == (4, 1) else 0,
    # scalar m_sum's input is the row its kernel holds at (n, a)
    "m_sum": lambda kern, n, j, t, a: kern.row(n, a)[1] if (n, t, j) == (4, 1, 0) else 0,
}


def _inject(monkeypatch, *names):
    """Wrap each named function in verify's namespace with its fault."""
    for name in names:

        def wrong(*args, real=getattr(verify, name), extra=_FAULTS[name]):
            out, delta = real(*args), extra(*args)
            return out + delta if isinstance(out, int) else (out[0] + delta, *out[1:])

        monkeypatch.setattr(verify, name, wrong)


def test_a_wrong_m_sum_plan_coefficient_fails_eq7_and_eq8(monkeypatch):
    assert run_suite("eq7", _SIDES).passed and run_suite("eq8", _SIDES).passed
    # level 1 at n = 4: eq7's offset-0 side at m = 2, and eq8's direct side
    _inject(monkeypatch, "m_sum_vector", "m_sum")
    assert not run_suite("eq7", _SIDES).passed
    assert not run_suite("eq8", _SIDES).passed


def test_a_wrong_lift_plan_coefficient_fails_eq8(monkeypatch):
    _inject(monkeypatch, "m_sum_lift_vector")
    assert not run_suite("eq8", _SIDES).passed


def test_a_wrong_transplant_plan_coefficient_fails_thm2(monkeypatch):
    _inject(monkeypatch, "theorem2_transform_vector")
    assert not run_suite("thm2", _SIDES).passed


# --------------------------------------------------------------- packed rows
#
# eq7 and eq8 check their kernels, and thm2 its random kernels, on one packed
# row per (n, a): row i in signed slot i. Unpacking each side's packed output
# must give that side's output on each row, and a packed disagreement must
# leave the report the per-kernel loop gave.


def _unpacked(value, bits, count):
    """The `count` signed bits-wide slots of value, slot 0 first, and what is
    left above them."""
    slots = []
    for _ in range(count):
        slot = value & ((1 << bits) - 1)
        if slot >> (bits - 1):
            slot -= 1 << bits
        slots.append(slot)
        value = (value - slot) >> bits
    return slots, value


def _eq8_at(levels_up):
    return lambda row, n, a: verify._eq8_sides(row, levels_up)


def _eq7_at(m_max):
    return lambda row, n, a: verify._eq7_sides(row, n, a, m_max)


# one instance of each built-in family, with the a it is summed at
_BUILTIN_AT = [
    (plain_kernel(), 0),
    (central_kernel(), 0),
    (rising_kernel(), 3),
    (supercat_kernel(2), 1),
    (Kernel(KernelFamily.HALF_SUPERCAT, order=3), 2),
    (gessel_kernel(4), 3),
]


@pytest.mark.parametrize(
    "sides, a",
    [(_eq8_at(t), 0) for t in (1, 2, 3)]
    + [(verify._thm2_sides, a) for a in (0, 3, 4, 6)]
    + [(_eq7_at(m), 0) for m in (1, 4)],
    ids=[f"eq8-t{t}" for t in (1, 2, 3)]
    + [f"thm2-a{a}" for a in (0, 3, 4, 6)]
    + [f"eq7-m{m}" for m in (1, 4)],
)
def test_unpacked_packed_sides_equal_the_per_row_sides(sides, a):
    # random rows at n 0-13, 40 and 200, built-in rows at n 0-13 and 40; the
    # last row is the rows' column-wise largest |entry|, on which both sides
    # meet the bound, so slots one bit narrower must garble both
    rng = random.Random(22)
    for n in (*range(14), 40, 200):
        drawn = [
            (9,) * (n + 1),
            (-9,) * (n + 1),
            tuple(9 if k % 2 else -9 for k in range(n + 1)),
            *(tuple(rng.randint(-9, 9) for _ in range(n + 1)) for _ in range(3)),
        ]
        rows = [*drawn, *(kern.row(n, b) for kern, b in _BUILTIN_AT if n <= 40)]
        rows.append(tuple(max(map(abs, column)) for column in zip(*rows)))
        per_row = [sides(row, n, a) for row in rows]
        bits = verify._slot_bits(sides, rows[-1], n, a)
        for width, agrees in ((bits, True), (bits - 1, False)):
            packed = verify._packed(rows, width)
            assert _unpacks_to_the_sides(sides, per_row, n, a, packed, width) == [agrees] * 2
        # the rows in [-9, 9] packed from their drawn bytes, above the others
        # packed by shifts, at the width rounded up to whole bytes; a byte
        # less must garble both sides
        columns = [bytes(v + 9 for v in column) for column in zip(*drawn)]
        shifted = rows[len(drawn) :]
        top, pack, count, _, _ = verify._drawn_block(shifted, columns, n, a)
        assert top == list(rows[-1]) and count == len(rows)
        size = -(-bits // 8)
        in_slot_order = per_row[len(drawn) :] + per_row[: len(drawn)]
        for width, agrees in ((size, True), (size - 1, False)):
            if width:
                packed = pack(8 * width)
                unpacked = _unpacks_to_the_sides(sides, in_slot_order, n, a, packed, 8 * width)
                assert unpacked == [agrees] * 2
        # drawn rows alone, as thm2 packs them, without the all-9 and all-(-9)
        # rows: a column's largest |value| is read off its bytes, and may be
        # a -9 with no 9 beside it
        alone = drawn[2:]
        top, pack, count, _, _ = verify._drawn_block([], [c[2:] for c in columns], n, a)
        assert top == [max(map(abs, column)) for column in zip(*alone)] and count == len(alone)
        bits = verify._slot_bits(sides, top, n, a)
        width = 8 * -(-bits // 8)
        unpacked = _unpacks_to_the_sides(sides, per_row[2 : len(drawn)], n, a, pack(bits), width)
        assert unpacked == [True] * 2


def _unpacks_to_the_sides(sides, per_row, n, a, packed, bits):
    """For each side, whether its output on the packed row, unpacked into
    bits-wide slots, is its output on each row in turn (`per_row`)."""
    return [
        [_unpacked(v, bits, len(per_row)) for v in got]
        == [(list(slots), 0) for slots in zip(*(out[side] for out in per_row))]
        for side, got in enumerate(sides(packed, n, a))
    ]


def test_a_green_sweep_checks_its_kernels_packed(monkeypatch):
    agreed = []
    real = verify._packed_agrees

    def packed_agrees(*args):
        agreed.append(real(*args))
        return agreed[-1]

    monkeypatch.setattr(verify, "_packed_agrees", packed_agrees)
    assert run_suite("eq7").passed and run_suite("eq8").passed and run_suite("thm2").passed
    assert agreed == [True, True, True]


@pytest.mark.parametrize(
    "suite, sweep, cases",
    [
        ("eq7", None, 988),
        ("eq8", None, 10143),
        ("thm2", None, 13312),
        ("eq7", SweepRange(n_max=20), 1596),
        ("thm2", SweepRange(n_max=14, a_max=5), 36112),
    ],
    ids=["eq7", "eq8", "thm2", "eq7-n20", "thm2-n14-a5"],
)
def test_the_kernel_by_kernel_fallback_gives_the_packed_report(monkeypatch, suite, sweep, cases):
    # a packed check that always disagrees leaves a green box's report, and
    # the cases it counts, as the packed check made them
    packed = reports_to_json([run_suite(suite, sweep)])
    assert json.loads(packed)["total_cases"] == cases
    monkeypatch.setattr(verify, "_packed_agrees", lambda *args: False)
    assert reports_to_json([run_suite(suite, sweep)]) == packed


@pytest.mark.parametrize(
    "wrapped, suite, violations, digest",
    [
        (("m_sum_vector", "m_sum"), "eq8", 118, "ae8174d9ce3a290e2e15d131324fee8c3d959752a6e794556d2fc6fdacd856fa"),
        (("m_sum_lift_vector",), "eq8", 117, "c351ff4cdb99f4e4b2885a961dfe9435109ef7f2e209fd21c6eaaef342378ab3"),
        (("theorem2_transform_vector",), "thm2", 49, "9ff942e2ec8b35ece2033a6314a1685f9480e578b7082097d348b7213d1e9f88"),
        (("m_sum_vector", "m_sum"), "eq7", 11, "1be87540a859bfc6445d181b0f3c58a0b6df263566df625b1be6856cfb976a13"),
    ],
    ids=["m_sum-eq8", "lift-eq8", "transplant-thm2", "m_sum-eq7"],
)
def test_a_packed_mismatch_reports_kernel_by_kernel(monkeypatch, wrapped, suite, violations, digest):
    # the digests are the reports of the kernel-by-kernel sweep that packing
    # replaced, so a failing run lists the same violations in the same order
    _inject(monkeypatch, *wrapped)
    report = run_suite(suite, SweepRange(n_max=6, m_max=2, r_max=2, a_max=2))
    assert len(report.violations) == violations
    assert _sha256(report) == digest


def test_a_lift_that_wraps_at_64_bits_fails_eq8_on_the_builtin_rows_alone(monkeypatch):
    # at the default box only gessel(4)'s lifts pass 2^63, the random rows'
    # stay below 2^46, and every packed lift passes it: the packed check
    # fails, and the kernel-by-kernel rerun lists the parent's four
    # violations of gessel(4)
    real = verify.m_sum_lift_vector

    def wrapped(level, n):
        return tuple((v + 2**63) % 2**64 - 2**63 for v in real(level, n))

    monkeypatch.setattr(verify, "m_sum_lift_vector", wrapped)
    report = run_suite("eq8")
    assert [v["parameters"]["kernel"] for v in report.violations] == ["gessel(4)"] * 4
    assert _sha256(report) == "b07d1c40f81a48430d79f5ff9c2ac6f683113c6dbe54f07d9439409731f7a0ff"


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


# sha256 of `reports_to_json([run_suite(suite, sweep)])` past the default
# boxes of the suites that check in blocks, computed on the case-by-case
# runners they replaced; each run takes under 0.1 s
@pytest.mark.parametrize(
    "suite, sweep, digest",
    [
        ("eq7", SweepRange(n_max=20), "8b95a7cdab35e00de9165b5469c4205097858c476cf2ec9e24091b1fead4cae1"),
        ("eq8", SweepRange(n_max=20), "e448c80fb8f9afbd80487b268490b81a9d32dbe287ba76842fad6ecd1588e737"),
        ("stanley", SweepRange(n_max=16), "7ddbbbc32b6faef02cb714461fc48f7e2959097c1586a34ae892ed7b7f0a523b"),
        ("kr", SweepRange(n_max=2000), "f44b700355a3d38ba3462247239095be1e890e2785ba5f9a0b4431fdca2f01d6"),
        ("eq14", SweepRange(a_max=40), "2e17bcb95c54d5bf67b88f7af3533f2c845ef0523e17f7c6670431b5ba16730b"),
        ("thm2", SweepRange(n_max=14, a_max=5), "6255ed77c738c9697a1b38eef112bfb382c35cb28d659d7dc51af6fce35bcf14"),
    ],
    ids=["eq7-n20", "eq8-n20", "stanley-n16", "kr-n2000", "eq14-a40", "thm2-n14-a5"],
)
def test_a_wider_box_gives_the_case_by_case_report(suite, sweep, digest):
    assert _sha256(run_suite(suite, sweep)) == digest


def test_run_all_rejects_a_malformed_budget(monkeypatch):
    monkeypatch.setenv("CONVOLVIUM_BUDGET_MS", "abc")
    with pytest.raises(ValueError, match="CONVOLVIUM_BUDGET_MS"):
        run_all(_TRIM)


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


_K = verify.smallest_clearing_factor


# kr under a wrong multiplier at n 60, r 5: the violation count, the
# cases_checked and the sha256 of `reports_to_json([report])`, recorded on
# the runner that tried every candidate K < K_r against the window in turn
@pytest.mark.parametrize(
    "wrong, violations, cases, digest",
    [
        (
            lambda r: 2 * _K(r),
            5,
            1914,
            "b486b71814f91b7588d843f5c6dfd1806272b7daaae0c4babc81413faddc9085",
        ),
        (
            lambda r: _K(r) // 2 if r > 1 else _K(r),
            18,
            704,
            "1aa394af171ee59d7ef1769a7ae7fd3dcc12fd819e89b4521bbbf9c080d7abcb",
        ),
        (
            lambda r: 3 * _K(r) if r == 3 else _K(r),
            2,
            1167,
            "2e12ae962bae4cf54f415defc1880c55764fec964c9a389d63e370cec438660c",
        ),
        (
            lambda r: 1,
            97,
            305,
            "80152dc1ae030c4fd94724792c0cddfb634aa93eb50b848f82b467231409034c",
        ),
    ],
    ids=["double", "half", "triple-at-3", "one"],
)
def test_kr_reports_a_wrong_multiplier(monkeypatch, wrong, violations, cases, digest):
    monkeypatch.setattr(verify, "smallest_clearing_factor", wrong)
    report = run_suite("kr", SweepRange(n_max=60, r_max=5))
    assert (len(report.violations), report.cases_checked) == (violations, cases)
    assert _sha256(report) == digest


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


def test_kr_streams_its_window():
    # the window is walked, never listed: a list of the 5001 central
    # binomials would peak at about 3.5 MB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_suite("kr", SweepRange(n_max=5000, r_max=2)).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_kr_no_witness_is_a_violation():
    # with a window of 0, every candidate K < K_r lacks a witness (the only
    # n is 0 and K*binomial(0,0) = K is divisible by r for K = r among the
    # candidates... but K=1..K_r-1 with n=0 only: K*1 % r == 0 iff r | K)
    rep = run_suite("kr", SweepRange(n_max=0, r_max=2))
    assert not rep.passed
    assert any(v["actual"] == "no witness in window" for v in rep.violations)


# a forbidden set one diagonal point off, built wherever the suite makes that
# spec: its counts must differ from the Gessel number at these (n, r), and
# only its own counts may be reported
@pytest.mark.parametrize(
    "maker, wrong, tag, failing",
    [
        (
            "gessel_path_spec",
            lambda n, r: PathSpec((n + r, n + r - 1), TouchSet.GESSEL_TAIL, r + 1),
            "tail",
            lambda n, r: True,  # (r, r) is open, and every target lies past it
        ),
        (
            "prefix_path_spec",
            lambda n, r: PathSpec((n + r, n + r - 1), TouchSet.PREFIX_BAND, n + 1),
            "band",
            lambda n, r: r > 1,  # (n + 1, n + 1) is off the board at r = 1
        ),
    ],
    ids=["tail", "band"],
)
def test_paths_reads_each_count_off_its_own_board(monkeypatch, maker, wrong, tag, failing):
    monkeypatch.setattr(verify, maker, wrong)
    report = run_suite("paths", SweepRange(n_max=5, r_max=4))
    got = [tuple(map(v["parameters"].get, ("n", "r", "check"))) for v in report.violations]
    cases = [(n, r) for n in range(1, 6) for r in range(1, 5)]
    assert got == [(n, r, f"{tag}-count") for n, r in cases if failing(n, r)]
