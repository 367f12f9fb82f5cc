"""Unit tests for the closed-form families.

The authoritative oracle is the direct M-sum route: every family is swept
against msum_counterpart over a parameter box. Spot values below were pinned
from that route and are asserted as literals so a regression in either side
trips loudly.
"""

from __future__ import annotations

import inspect

import pytest

from convolvium import closed_forms
from convolvium.closed_forms import (
    FAMILY_MSUM,
    FAMILY_PARAMS,
    ClosedFormFamily,
    closed_form,
    closed_phi_origin,
    closed_phi_t0,
    closed_psi_t0,
    closed_psi_t1,
    closed_s1_t0,
    closed_s1_t1,
    closed_s2_t0,
    closed_s2_t1,
    closed_s3_t0,
    msum_counterpart,
)
from convolvium.kernels import PARAMETERIZED_FAMILIES, custom_kernel


def test_every_family_has_a_parameter_signature():
    assert set(FAMILY_PARAMS) == set(ClosedFormFamily)
    for names in FAMILY_PARAMS.values():
        assert names[0] == "n"


def test_each_closed_form_takes_exactly_its_family_params():
    assert set(closed_forms._DISPATCH) == set(ClosedFormFamily)
    for family, fn in closed_forms._DISPATCH.items():
        assert tuple(inspect.signature(fn).parameters) == FAMILY_PARAMS[family]


def test_every_family_has_one_msum_counterpart():
    # a family takes r exactly when its kernel is parameterised by an order
    assert set(FAMILY_MSUM) == set(ClosedFormFamily)
    for family, (kfam, _) in FAMILY_MSUM.items():
        assert ("r" in FAMILY_PARAMS[family]) == (kfam in PARAMETERIZED_FAMILIES)


def test_pinned_spot_values():
    # pinned from the direct M-sum route
    assert closed_s1_t0(3, 3) == -1
    assert closed_s1_t0(3, 2) == 0
    assert closed_s1_t1(2, 1) == 12
    assert closed_s2_t0(2, 1, 3) == 120
    assert closed_s3_t0(2, 1) == -24
    assert closed_psi_t0(1, 0, 1) == 8
    assert closed_psi_t1(2, 1, 2) == 144
    assert closed_phi_t0(2, 1, 2) == -90
    assert closed_phi_origin(1, 1) == 2


def test_phi_offset_form_takes_the_rational_path():
    # at n=3, j=0, r=2 an individual term of the inner sum is not an
    # integer; the total still is, and equals the offset-0 golden value
    assert closed_phi_t0(3, 0, 2) == 1170


def test_phi_origin_agrees_with_offset_form_at_zero():
    for n in range(7):
        for r in range(1, 5):
            assert closed_phi_origin(n, r) == closed_phi_t0(n, 0, r)


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


def test_vanishing_past_half_index():
    assert closed_s2_t0(3, 4, 2) == 0
    assert closed_s3_t0(3, 4) == 0
    assert closed_psi_t0(3, 4, 2) == 0
    assert closed_phi_t0(3, 4, 2) == 0


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


def test_validation():
    with pytest.raises(ValueError):
        closed_s1_t0(-1, 0)
    with pytest.raises(ValueError):
        closed_psi_t0(2, 0, 0)
    with pytest.raises(ValueError):
        closed_phi_t0(2, -1, 1)
    with pytest.raises(ValueError):
        closed_phi_origin(-1, 1)
    with pytest.raises(ValueError):
        closed_form("no-such-family", n=1)
