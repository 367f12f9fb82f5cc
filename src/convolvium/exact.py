"""Exact arbitrary-precision combinatorics.

Every quantity here is a plain Python int, so precision is unbounded. The
number families with fractional definitions (Catalan, super Catalan, Gessel)
are evaluated numerator-first and finished with a single exact division:
integrality is a theorem for each of them, so a leftover remainder is treated
as evidence of a bug or a violated claim and raises loudly instead of
rounding.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache


class NonDivisible(ArithmeticError):
    """Exact division failed; carries the dividend, divisor, and remainder."""

    def __init__(self, a: int, b: int, remainder: int):
        super().__init__(f"{b} does not divide {a} (remainder {remainder})")
        self.a = a
        self.b = b
        self.remainder = remainder


def exact_div(a: int, b: int) -> int:
    """a / b when b divides a exactly; NonDivisible otherwise."""
    if b == 0:
        raise ZeroDivisionError("exact division by zero")
    q, r = divmod(a, b)
    if r:
        raise NonDivisible(a, b, r)
    return q


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a <= 0 or b <= 0:
        raise ValueError(f"lcm requires positive arguments, got {a} and {b}")
    return math.lcm(a, b)


def binomial(n: int, k: int) -> int:
    """binomial(n, k) with the vanishing convention: 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def central_binomial(n: int) -> int:
    """binomial(2n, n) by math.comb on each call. A sweep over consecutive n
    is cheaper walked by the exact step c_k = c_{k-1}(4k-2)/k."""
    if n < 0:
        raise ValueError(f"central_binomial requires n >= 0, got n={n}")
    return math.comb(2 * n, n)


# Each of the three caches is sized by what a run reads: `verify all` reads
# 13 catalan, 125 super_catalan and 88 gessel values, a bigint-sweep pass 24
# gessel values (kernel rows walk their own factors), and `verify
# closed-forms --n-max 20` 362 super_catalan values, which 512 holds and 256
# does not. The bound keeps a `table` sweep from piling up entries.
@lru_cache(maxsize=512)
def catalan(n: int) -> int:
    """The n-th Catalan number, binomial(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan requires n >= 0, got n={n}")
    return exact_div(binomial(2 * n, n), n + 1)


@lru_cache(maxsize=512)
def super_catalan(n: int, r: int) -> int:
    """Super Catalan number S(n, r) = binomial(2n,n) binomial(2r,r) / binomial(n+r,n).

    Symmetric in (n, r); even except at n = r = 0.
    """
    if n < 0 or r < 0:
        raise ValueError(f"super_catalan requires n, r >= 0, got ({n}, {r})")
    return exact_div(binomial(2 * n, n) * binomial(2 * r, r), binomial(n + r, n))


def half_super_catalan(n: int, r: int) -> int:
    """S(n, r) / 2, integral for r >= 1."""
    if r < 1:
        raise ValueError(f"half_super_catalan requires r >= 1, got r={r}")
    return exact_div(super_catalan(n, r), 2)


@lru_cache(maxsize=512)
def gessel(n: int, r: int) -> int:
    """Gessel number P(n, r) = r/(2(n+r)) * binomial(2n,n) * binomial(2r,r).

    Counts monotone lattice paths from (0,0) to (n+r, n+r-1) that avoid every
    diagonal point (x, x) with x >= r. P(n, 1) is the n-th Catalan number.
    Also equals binomial(n+r-1, n) * half_super_catalan(n, r).
    """
    if n < 0:
        raise ValueError(f"gessel requires n >= 0, got n={n}")
    if r < 1:
        raise ValueError(f"gessel requires r >= 1, got r={r}")
    return exact_div(r * binomial(2 * n, n) * binomial(2 * r, r), 2 * (n + r))


def smallest_clearing_factor(r: int) -> int:
    """K_r = (r/2) * binomial(2r, r), the canonical multiplier that makes
    K * binomial(2n, n) / (n + r) integral for every n >= 0."""
    if r < 1:
        raise ValueError(f"smallest_clearing_factor requires r >= 1, got r={r}")
    return exact_div(r * binomial(2 * r, r), 2)


def _convert(fn, arg, digits: int):
    """fn(arg) with CPython's int/str digit limit (3.11+) lifted to `digits`
    for this one conversion; the old limit is put back afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or digits <= limit:
        return fn(arg)
    sys.set_int_max_str_digits(digits)
    try:
        return fn(arg)
    finally:
        sys.set_int_max_str_digits(limit)


def decimal(x: int) -> str:
    """Decimal string of x at any size.

    CPython 3.11+ guards int/str conversion above a digit limit; a value
    that needs more digits lifts it for its own conversion only.
    """
    return _convert(str, x, x.bit_length() // 3 + 3)  # overestimate of decimal digits


def parse_decimal(s: str) -> int:
    """Inverse of decimal(): parse a decimal string of any length."""
    return _convert(int, s, len(s) + 2)
