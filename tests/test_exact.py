"""Unit tests for the exact-arithmetic layer.

Expected values come from independent routes: hand-checkable small cases,
math.comb, and defining recurrences evaluated in-test. Nothing is compared
against the functions under test themselves.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convolvium.exact import (
    NonDivisible,
    binomial,
    catalan,
    central_binomial,
    decimal,
    exact_div,
    gessel,
    half_super_catalan,
    lcm,
    parse_decimal,
    smallest_clearing_factor,
    super_catalan,
)

# ------------------------------------------------------------------- binomial


def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(6, 3) == 20
    assert binomial(10, 5) == 252
    assert binomial(52, 5) == 2598960


def test_binomial_vanishing_convention():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(0, 300), st.integers(-5, 305))
def test_binomial_matches_math_comb(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial(n, k) == expected


@given(st.integers(0, 200), st.integers(0, 200))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k)


@given(st.integers(1, 150), st.integers(1, 149))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(0, 120))
def test_binomial_row_sum(n):
    assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_binomial_large_n_matches_math_comb():
    # the reference is the product formula
    for n, k in ((4106, 2), (5000, 3), (20000, 7)):
        assert binomial(n, k) == math.prod(range(n - k + 1, n + 1)) // math.factorial(k)
        assert binomial(n, n - k) == binomial(n, k)
    assert binomial(20000, 20001) == 0


# ------------------------------------------------------------ exact division


def test_exact_div():
    assert exact_div(12, 3) == 4
    assert exact_div(-12, 3) == -4
    assert exact_div(0, 5) == 0


def test_exact_div_failure_carries_evidence():
    with pytest.raises(NonDivisible) as info:
        exact_div(7, 3)
    assert info.value.a == 7
    assert info.value.b == 3
    assert info.value.remainder == 1


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_lcm():
    assert lcm(4, 6) == 12
    assert lcm(1, 1) == 1
    assert lcm(7, 13) == 91
    with pytest.raises(ValueError):
        lcm(0, 3)
    with pytest.raises(ValueError):
        lcm(3, -1)


# ------------------------------------------------------------ number families


def test_catalan_first_values():
    expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    assert [catalan(n) for n in range(10)] == expected


def test_catalan_matches_convolution_recurrence():
    # independent oracle: c[n+1] = sum_i c[i] c[n-i]
    c = [1]
    for n in range(15):
        c.append(sum(c[i] * c[n - i] for i in range(n + 1)))
    assert [catalan(n) for n in range(16)] == c


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_central_binomial_matches_binomial():
    for n in range(300):
        assert central_binomial(n) == math.comb(2 * n, n)
    with pytest.raises(ValueError):
        central_binomial(-1)


def test_super_catalan_small_values():
    # hand-checked from binomial(2n,n) binomial(2r,r) / binomial(n+r,n)
    assert super_catalan(0, 0) == 1
    assert super_catalan(1, 0) == 2
    assert super_catalan(1, 1) == 2
    assert super_catalan(2, 1) == 4
    assert super_catalan(3, 1) == 10
    assert super_catalan(4, 1) == 28
    assert super_catalan(2, 2) == 6
    assert super_catalan(3, 2) == 12
    assert super_catalan(3, 3) == 20
    with pytest.raises(ValueError):
        super_catalan(-1, 2)


@given(st.integers(0, 40), st.integers(0, 40))
def test_super_catalan_symmetric(n, r):
    assert super_catalan(n, r) == super_catalan(r, n)


@given(st.integers(0, 40), st.integers(0, 40))
def test_super_catalan_even_away_from_origin(n, r):
    if (n, r) != (0, 0):
        assert super_catalan(n, r) % 2 == 0


def test_half_super_catalan():
    for n in range(12):
        for r in range(1, 8):
            assert 2 * half_super_catalan(n, r) == super_catalan(n, r)
    with pytest.raises(ValueError):
        half_super_catalan(3, 0)


def test_gessel_small_values():
    assert gessel(1, 2) == 4
    assert gessel(0, 2) == 3
    assert gessel(2, 2) == 9
    for n in range(10):
        assert gessel(n, 1) == catalan(n)


@given(st.integers(0, 30), st.integers(1, 6))
def test_gessel_factors_through_half_super_catalan(n, r):
    assert gessel(n, r) == binomial(n + r - 1, n) * half_super_catalan(n, r)


def test_gessel_rejects_bad_args():
    with pytest.raises(ValueError):
        gessel(-1, 2)
    with pytest.raises(ValueError):
        gessel(2, 0)


def test_smallest_clearing_factor_values():
    assert [smallest_clearing_factor(r) for r in range(1, 6)] == [1, 6, 30, 140, 630]
    with pytest.raises(ValueError):
        smallest_clearing_factor(0)


# --------------------------------------------------------- binomial identities


def test_product_swap_identity_exhaustive():
    # binomial(a,b) binomial(b,c) = binomial(a,c) binomial(a-c,b-c)
    for a in range(13):
        for b in range(a + 1):
            for c in range(b + 1):
                assert binomial(a, b) * binomial(b, c) == binomial(a, c) * binomial(a - c, b - c)


def test_stanley_identity_small_box():
    for a in range(7):
        for b in range(7):
            for m in range(7):
                for n in range(7):
                    lhs = sum(
                        binomial(a, m - k) * binomial(b, n - k) * binomial(a + b + k, k)
                        for k in range(min(m, n) + 1)
                    )
                    assert lhs == binomial(a + n, m) * binomial(b + m, n)


# ------------------------------------------------------------ decimal strings


def test_decimal_small():
    assert decimal(0) == "0"
    assert decimal(-17) == "-17"
    assert decimal(1170) == "1170"


def test_decimal_round_trip_ten_thousand_digits():
    x = 10**9999 + 7
    text = decimal(x)
    assert len(text) == 10000
    assert parse_decimal(text) == x
    assert parse_decimal(decimal(-x)) == -x


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit here"
)
def test_decimal_lifts_the_digit_limit_for_one_conversion_only():
    before = sys.get_int_max_str_digits()
    x = 10**20000
    text = decimal(x)
    assert sys.get_int_max_str_digits() == before
    assert parse_decimal(text) == x
    assert sys.get_int_max_str_digits() == before


@settings(max_examples=50)
@given(st.integers(min_value=-(10**40), max_value=10**40))
def test_decimal_round_trip(x):
    assert parse_decimal(decimal(x)) == x
