"""Unit tests for the closed-form families.

The authoritative oracle is the direct M-sum route: every family is swept
against msum_counterpart over a parameter box. Spot values below were pinned
from that route and are asserted as literals so a regression in either side
trips loudly.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import convolvium
from convolvium import closed_forms
from convolvium.closed_forms import (
    FAMILIES,
    FAMILY_PARAMS,
    ClosedFormFamily,
    closed_form,
    closed_form_vector,
    msum_counterpart,
    msum_counterpart_vector,
)
from convolvium.exact import NonDivisible, binomial, half_super_catalan
from convolvium.kernels import PARAMETERIZED_FAMILIES, Kernel, _sign, custom_kernel


def test_every_family_has_a_parameter_signature():
    assert set(FAMILY_PARAMS) == set(ClosedFormFamily)
    for names in FAMILY_PARAMS.values():
        assert names[0] == "n"


def test_each_closed_form_takes_exactly_its_family_params():
    assert set(FAMILIES) == set(ClosedFormFamily)
    for family, (fn, _, _) in FAMILIES.items():
        assert tuple(inspect.signature(fn).parameters) == FAMILY_PARAMS[family]


def test_every_family_has_one_msum_counterpart():
    # a family takes r exactly when its kernel is parameterised by an order
    for family, (_, kfam, _) in FAMILIES.items():
        assert ("r" in FAMILY_PARAMS[family]) == (kfam in PARAMETERIZED_FAMILIES)


def test_pinned_spot_values():
    # pinned from the direct M-sum route
    assert closed_form("s1-t0", n=3, j=3) == -1
    assert closed_form("s1-t0", n=3, j=2) == 0
    assert closed_form("s1-t1", n=2, j=1) == 12
    assert closed_form("s2-t0", n=2, j=1, a=3) == 120
    assert closed_form("s3-t0", n=2, j=1) == -24
    assert closed_form("psi-t0", n=1, j=0, r=1) == 8
    assert closed_form("psi-t1", n=2, j=1, r=2) == 144
    assert closed_form("phi-j-t0", n=2, j=1, r=2) == -90
    assert closed_form("phi-00", n=1, r=1) == 2


def test_phi_offset_form_takes_the_rational_path():
    # at n=3, j=0, r=2 an individual term of the inner sum is not an
    # integer; the total still is, and equals the offset-0 golden value
    assert closed_form("phi-j-t0", n=3, j=0, r=2) == 1170


def _phi_t0_by_fractions(n, j, r):
    """closed_phi_t0 with the inner terms accumulated as exact rationals,
    the reference for the common-denominator form."""
    if j > n:
        return 0
    prefactor = (
        _sign(j + r - 1)
        * binomial(j + r - 1, j)
        * half_super_catalan(n, r)
        * binomial(2 * n - j, n)
    )
    total = sum(
        _sign(l)
        * binomial(2 * n - j + l, l)
        * binomial(n - j, r - 1 - l)
        * Fraction(
            binomial(2 * (j + r - 1 - l), j + r - 1 - l)
            * binomial(2 * (n - j + l + 1), n - j + l + 1),
            2 * binomial(2 * n - j + l + 1, n),
        )
        for l in range(r)
    )
    value = prefactor * total
    assert value.denominator == 1
    return value.numerator


def test_phi_offset_form_matches_rational_reference():
    # 2800 points: every offset up to one past the half index
    for n in range(25):
        for j in range(n + 2):
            for r in range(1, 9):
                value = closed_form(ClosedFormFamily.PHI_J_T0, n=n, j=j, r=r)
                assert value == _phi_t0_by_fractions(n, j, r), (n, j, r)


def test_phi_offset_form_raises_on_a_non_integral_total(monkeypatch):
    # with every binomial read as 1 the total is 1/2
    monkeypatch.setattr(closed_forms, "binomial", lambda n, k: 1)
    with pytest.raises(NonDivisible):
        closed_form("phi-j-t0", n=1, j=0, r=1)


# what `import convolvium` may not load: machinery that computes nothing.
# The stdlib modules the package does use are imported first, so whatever
# they pull in on a given Python is in the snapshot and not charged here.
_LEAN_PROBE = """
import sys
import typing, enum, random, functools, itertools, math, operator
before = set(sys.modules)
import convolvium
lib = set(sys.modules) - before
import convolvium.cli
print(sorted(lib & {"fractions", "inspect", "dataclasses", "json", "csv"}))
print(sorted((set(sys.modules) - before) & {"inspect", "dataclasses"}))
"""


def test_import_leaves_fractions_out():
    src = str(Path(convolvium.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LEAN_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def test_phi_origin_agrees_with_offset_form_at_zero():
    for n in range(7):
        for r in range(1, 5):
            assert closed_form("phi-00", n=n, r=r) == closed_form("phi-j-t0", n=n, j=0, r=r)


@pytest.mark.parametrize("family", list(ClosedFormFamily))
def test_closed_form_equals_m_sum(family):
    # every family gets every parameter: both sides must ignore the ones
    # outside FAMILY_PARAMS[family]
    for n in range(6):
        # one offset past the half index probes the vanishing region
        for j in range(n + 2):
            for r in range(1, 4):
                for a in range(4):
                    expected = msum_counterpart(family, n=n, j=j, r=r, a=a)
                    actual = closed_form(family, n=n, j=j, r=r, a=a)
                    assert actual == expected, (family, n, j, r, a)


@pytest.mark.parametrize("family", list(ClosedFormFamily))
def test_each_side_of_one_n_is_one_vector(family):
    # the verifier reads each side of one (family, n, instance) as one
    # vector: entry j is the scalar side at j for j = 0..n + 1 (j = 0 alone
    # for a family without j), and a bad argument is refused alike
    takes_j = "j" in FAMILY_PARAMS[family]
    for n in range(8):
        offsets = range(n + 2) if takes_j else (0,)
        for r in (1, 3):
            for a in (0, 2):
                closed = closed_form_vector(family, n=n, r=r, a=a)
                assert closed == tuple(closed_form(family, n=n, j=j, r=r, a=a) for j in offsets)
                assert msum_counterpart_vector(family, n=n, r=r, a=a) == closed
    valid = {"n": 2, "r": 2, "a": 1}
    for name, value in (("n", -1), ("r", 0), ("a", -1)):
        if name in FAMILY_PARAMS[family]:
            message = _refusal(closed_form, family, **{**valid, name: value})
            assert _refusal(closed_form_vector, family, **{**valid, name: value}) == message
            assert _refusal(msum_counterpart_vector, family, **{**valid, name: value}) == message


def test_vanishing_past_half_index():
    assert closed_form("s2-t0", n=3, j=4, a=2) == 0
    assert closed_form("s3-t0", n=3, j=4) == 0
    assert closed_form("psi-t0", n=3, j=4, r=2) == 0
    assert closed_form("phi-j-t0", n=3, j=4, r=2) == 0


def test_dispatcher_accepts_enum_and_string():
    by_enum = closed_form(ClosedFormFamily.PSI_T0, n=2, j=1, r=2)
    by_string = closed_form("psi-t0", n=2, j=1, r=2)
    assert by_enum == by_string


def test_msum_counterpart_kernel_override():
    # a custom kernel override changes the M-sum side; this is the hook the
    # verifier uses for fault injection
    table = {(2 * 2, k, 0): 1 for k in range(5)}
    value = msum_counterpart(ClosedFormFamily.S1_T0, n=2, j=0, kernel=custom_kernel(table))
    assert value != msum_counterpart(ClosedFormFamily.S1_T0, n=2, j=0)


# one bad argument per refusal, each with the family's other arguments valid
_REFUSED = [
    ("s1-t0", {"n": -1, "j": 0}),
    ("psi-t0", {"n": 2, "j": 0, "r": 0}),
    ("phi-j-t0", {"n": 2, "j": -1, "r": 1}),
    ("phi-00", {"n": -1, "r": 1}),
    ("phi-00", {"n": 2, "r": 0}),
    ("phi-j-t0", {"n": 2, "j": 0, "r": 0}),
    ("psi-t0", {"n": -1, "j": 0, "r": 1}),
    ("s1-t1", {"n": -1, "j": 0}),
    ("s2-t0", {"n": 2, "j": 0, "a": -1}),
    ("s2-t1", {"n": 2, "j": -1, "a": 0}),
    ("s3-t0", {"n": -1, "j": 0}),
    ("psi-t1", {"n": 2, "j": 0, "r": 0}),
    ("psi-t1", {"n": -1, "j": 0, "r": 1}),
]


def test_validation():
    for family, args in _REFUSED:
        with pytest.raises(ValueError):
            closed_form(family, **args)
        with pytest.raises(ValueError):
            msum_counterpart(family, **args)
    with pytest.raises(ValueError):
        closed_form("no-such-family", n=1)
    with pytest.raises(ValueError):
        msum_counterpart("no-such-family", n=1)


def _refusal(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as caught:
        call(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("family", list(ClosedFormFamily))
def test_both_sides_refuse_a_bad_argument_alike(family):
    # the smallest invalid value of each parameter the family takes, the
    # others valid: the closed form and its M-sum, with the standard kernel
    # or with the same kernel passed in, name that parameter and the value
    # the caller passed, never a derived one (2n, or a = r - 1)
    valid = {"n": 2, "j": 1, "r": 2, "a": 1}
    kfam = FAMILIES[family][1]
    kern = Kernel(kfam, order=valid["r"]) if kfam in PARAMETERIZED_FAMILIES else Kernel(kfam)
    bad = {"n": -1, "j": -1, "r": 0, "a": -1}
    for name in FAMILY_PARAMS[family]:
        args = {**valid, name: bad[name]}
        message = _refusal(closed_form, family, **args)
        assert message.startswith(f"{name} must be "), message
        assert message.endswith(f", got {bad[name]}"), message
        assert _refusal(msum_counterpart, family, **args) == message
        assert _refusal(msum_counterpart, family, kernel=kern, **args) == message
    # a parameter the family does not take is neither checked nor read
    for name in set(valid) - set(FAMILY_PARAMS[family]):
        args = {**valid, name: bad[name]}
        assert closed_form(family, **args) == closed_form(family, **valid)
        assert msum_counterpart(family, **args) == msum_counterpart(family, **valid)
