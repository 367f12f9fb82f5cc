"""The weighted-sum engine.

For a kernel F (sign included) this module evaluates

    direct_sum(F, n, m, a)   = sum_{k=0}^{n} binomial(n,k)^m F(n,k,a)

and the restricted "M-sums" that organize such sums by how far the index k
sits from the ends:

    m_sum(F, n, j, t, a) = binomial(n-j, j) *
        sum_{k=j}^{n-j} binomial(n-2j, k-j) binomial(n,k)^t F(n,k,a)

with the vanishing convention m_sum = 0 whenever 2j > n. Two recurrences tie
the M-sums together and are exposed as operations:

    m_sum_lift       raises the binomial-weight level t by one,
    theorem2_transform  transplants a binomial(a+k,a) binomial(a+n-k,a) pair
                        out of the kernel and into index shifts.

The engine works on kernel rows: each sum reads the row F(n, 0..n, a) once.
The vector forms return a whole offset range at once: `m_sum_vector` the
M-sums at j = 0..n//2 of one row and level, `m_sum_lift_vector` the next
level up from one level-t vector, and `theorem2_transform_vector` the
transplant at j = 0..n from one level-0 vector of G. The scalar functions
read the same coefficients for the offsets they need.

Coefficients that depend only on indices come from bounded caches.
`_pascal(n)` holds binomial(n, 0..n), walked like a kernel row by one exact
step per entry, and `_transplant_weights(n, j, a)` the a+1 transplant
coefficients of one offset. Inside the box a default `verify all` sweeps
(n <= 12, level t <= 3, transplant a <= 3), each recurrence instead reads a
memoised "plan": its coefficient matrix, row j holding every input's
coefficient in offset j already multiplied out, so an offset costs one dot
product with the row or vector it reads:

    _m_plan(n, t)[j][k]          binomial(n-j, j) binomial(n-2j, k-j)
                                 binomial(n, k)^t
    _lift_plan(n)[j][i]          binomial(n, j) binomial(n-j, i-j)
    _transplant_plan(n, a)[j][i] _transplant_weights(n, j, a)[i-j]

with zeros below the diagonal (k < j, i < j). A default `verify all` leaves
about 0.07 MB of plans. Outside the box the recurrences weigh the row once
per call and keep no plan: the scalar forms read an offset's O(n) row from
`_pascal`, while the vector forms, which would read n//2 + 1 rows per call
and soon evict them from each other, build what they need inside the call
by the Pascal rule (`_m_sums_walked`, `_lifts_walked`).
`direct_sum` keeps its own binomial(n, k)^m weights, apart from the plans,
so eq7 compares two separately built sums.

Sums are evaluated in ascending k with plain integer arithmetic; there are no
floating-point or modular shortcuts anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, mul
from typing import Sequence

from .kernels import (
    Kernel,
    _walk,
    gessel_kernel,
    half_supercat_kernel,
    supercat_kernel,
)


def _check_args(**named: int) -> None:
    # The vector forms, about 13,000 calls in a default `verify all`, call
    # this only once a cheap guard has found a negative argument: building
    # the keyword dict on every call cost them about 5 ms a run.
    for name, value in named.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@lru_cache(maxsize=64)
def _pascal(n: int) -> tuple[int, ...]:
    """binomial(n, k) for k = 0..n, walked by the exact step (n-k)/(k+1). A
    sweep reads the same few small rows tens of thousands of times; the bound
    keeps big-n rows from piling up."""
    return tuple(_walk(1, range(n, 0, -1), range(1, n + 1)))


def direct_sum(kernel: Kernel, n: int, m: int, a: int = 0) -> int:
    """sum_{k=0}^{n} binomial(n, k)^m * F(n, k, a), a dot product with the
    kernel row."""
    _check_args(n=n, a=a)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return sum(c**m * f for c, f in zip(_pascal(n), kernel.row(n, a)))


# The plan box: the n and level t (for a transplant, the a) that a default
# `verify all` reads, where closed-forms, eq7, eq8 and thm2 make about
# 15,000 recurrence calls over 113 distinct plans. Each cache holds its
# whole box, so a plan is built once per process and never evicted; a call
# outside the box builds none.
_PLAN_N_MAX = 12
_PLAN_T_MAX = 3


@lru_cache(maxsize=(_PLAN_N_MAX + 1) * (_PLAN_T_MAX + 1))
def _m_plan(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The level-t M-sum coefficients of F(n, k, a) at offsets j = 0..n//2,
    row j spanning k = 0..n-j."""
    powers = [c**t for c in _pascal(n)]
    return tuple([
        (0,) * j + tuple([comb(n - j, j) * c * w for c, w in zip(_pascal(n - 2 * j), powers[j:])])
        for j in range(n // 2 + 1)
    ])


def _weigh(row: Sequence[int], t: int) -> Sequence[int]:
    """binomial(n, k)^t F(n, k, a) for k = 0..n, from the row F(n, ., a); at
    t = 0 the row itself."""
    if t == 0:
        return row
    return [c**t * f for c, f in zip(_pascal(len(row) - 1), row)]


def _m_sum_at(weighted: Sequence[int], n: int, j: int) -> int:
    """The offset-j M-sum (2j <= n) from the weighted row."""
    inner = sum(map(mul, _pascal(n - 2 * j), weighted[j : n - j + 1]))
    return comb(n - j, j) * inner


def _m_sums_walked(weighted: Sequence[int], n: int) -> tuple[int, ...]:
    """The M-sums at offsets j = 0..n//2 from the weighted row, innermost
    offset first, with no Pascal row: m steps of the Pascal rule applied to
    the row itself, v[i] + v[i+1], leave sum_l binomial(m, l) weighted[i+l]
    at index i, and offset j reads index j after m = n - 2j steps."""
    out = []
    v = weighted
    if n % 2:
        v = list(map(add, v, v[1:]))
    for j in range(n // 2, -1, -1):
        out.append(comb(n - j, j) * v[j])
        if j:
            v = list(map(add, v, v[1:]))
            v = list(map(add, v, v[1:]))
    return tuple(reversed(out))


def m_sum_vector(row: Sequence[int], t: int) -> tuple[int, ...]:
    """The level-t M-sums at every offset j = 0..n//2 of the kernel row
    F(n, 0..n, a), where n = len(row) - 1."""
    if t < 0:
        _check_args(t=t)
    if not row:
        raise ValueError("a kernel row has at least one entry")
    n = len(row) - 1
    if n <= _PLAN_N_MAX and t <= _PLAN_T_MAX:
        return tuple([sum(map(mul, coeffs, row)) for coeffs in _m_plan(n, t)])
    return _m_sums_walked(_weigh(row, t), n)


def m_sum(kernel: Kernel, n: int, j: int, t: int, a: int = 0) -> int:
    """Restricted sum at offset j and weight level t; 0 when 2j > n."""
    _check_args(n=n, j=j, t=t, a=a)
    if 2 * j > n:
        return 0
    row = kernel.row(n, a)
    if n <= _PLAN_N_MAX and t <= _PLAN_T_MAX:
        return sum(map(mul, _m_plan(n, t)[j], row))
    return _m_sum_at(_weigh(row, t), n, j)


def _check_level(level: Sequence[int], n: int) -> None:
    if len(level) != n // 2 + 1:
        raise ValueError(
            f"an M-sum vector at n={n} has {n // 2 + 1} offsets, got {len(level)}"
        )


@lru_cache(maxsize=_PLAN_N_MAX + 1)
def _lift_plan(n: int) -> tuple[tuple[int, ...], ...]:
    """The lift coefficients of the level-t offsets i = 0..n//2 in the
    level-(t+1) offsets j = 0..n//2."""
    half = n // 2
    return tuple([
        (0,) * j + tuple([comb(n, j) * c for c in _pascal(n - j)[: half - j + 1]])
        for j in range(half + 1)
    ])


def _lift_at(level: Sequence[int], n: int, j: int) -> int:
    # binomial(n-j, u) times the level-t offset j+u, for u = 0..n//2 - j
    return comb(n, j) * sum(map(mul, _pascal(n - j), level[j:]))


def _lifts_walked(level: Sequence[int], n: int) -> tuple[int, ...]:
    """The lifts at offsets j = 0..n//2, innermost offset first, from one
    Pascal row. With h = n//2, Vandermonde's binomial(n-j, u) = sum_k
    binomial(h-j, k) binomial(n-h, u-k) makes offset j binomial(n, j) times
    sum_k binomial(h-j, k) w[j+k], where w[p] = sum_s binomial(n-h, s)
    level[p+s]; as in `_m_sums_walked`, h - j steps of the Pascal rule on w
    leave that sum at index j, the last one."""
    half = n // 2
    row = _pascal(n - half)
    v = [sum(map(mul, row, level[p:])) for p in range(half + 1)]
    out = []
    for j in range(half, -1, -1):
        out.append(comb(n, j) * v[-1])
        if j:
            v = list(map(add, v, v[1:]))
    return tuple(reversed(out))


def m_sum_lift_vector(level: Sequence[int], n: int) -> tuple[int, ...]:
    """The level-raise recurrence: the level-(t+1) M-sums at offsets
    j = 0..n//2, from the level-t M-sums `level` at the same offsets. Offset
    j reads the level-t offsets j..n//2."""
    if n < 0:
        _check_args(n=n)
    _check_level(level, n)
    if n <= _PLAN_N_MAX:
        return tuple([sum(map(mul, coeffs, level)) for coeffs in _lift_plan(n)])
    return _lifts_walked(level, n)


def m_sum_lift(kernel: Kernel, n: int, j: int, t: int, a: int = 0) -> int:
    """The level-raise recurrence: evaluates the offset-j M-sum at level t+1
    from the level-t M-sums at offsets j..j+floor((n-2j)/2)."""
    _check_args(n=n, j=j, t=t, a=a)
    if 2 * j > n:
        return 0
    level = m_sum_vector(kernel.row(n, a), t)
    if n <= _PLAN_N_MAX:
        return sum(map(mul, _lift_plan(n)[j], level))
    return _lift_at(level, n, j)


@lru_cache(maxsize=1024)
def _transplant_weights(n: int, j: int, a: int) -> tuple[int, ...]:
    """The coefficients of G's level-0 offsets j+u, u = 0..min(a, n//2 - j),
    in the offset-j transplant (2j <= n): binomial(a+j, a) binomial(n-j+l, l)
    binomial(n-j, a-l) at l = a-u; an entry holds at most a+1 integers.
    Inside the plan box only a plan's build reads it, once per (n, j, a), so
    neither benchmark workload hits it. Outside the box each of thm2's random
    kernels reads every (n, j, a) again: in-process, `verify thm2 --n-max 24`
    took 0.136 s with this cache and 0.167 s without it."""
    lead = comb(a + j, a)
    top = min(a, n // 2 - j)
    return tuple([lead * comb(n - j + a - u, a - u) * comb(n - j, u) for u in range(top + 1)])


@lru_cache(maxsize=(_PLAN_N_MAX + 1) * (_PLAN_T_MAX + 1))
def _transplant_plan(n: int, a: int) -> tuple[tuple[int, ...], ...]:
    """The transplant coefficients of G's level-0 offsets i = 0..n//2 in
    the offsets j = 0..n//2 (the offsets past n//2 are 0)."""
    return tuple([(0,) * j + _transplant_weights(n, j, a) for j in range(n // 2 + 1)])


def _transplant_at(tail: Sequence[int], n: int, j: int, a: int) -> int:
    """The offset-j transplant (2j <= n) from G's level-0 M-sums at offsets
    j, j+1, ... (`tail`, at least min(a, n//2 - j) + 1 of them)."""
    return sum(map(mul, _transplant_weights(n, j, a), tail))


def theorem2_transform_vector(level0: Sequence[int], n: int, a: int) -> tuple[int, ...]:
    """The kernel-transplant recurrence at every offset j = 0..n, from the
    level-0 M-sums `level0` (offsets 0..n//2) of G at (n, a). Offsets past
    n/2 are 0."""
    if min(n, a) < 0:
        _check_args(n=n, a=a)
    _check_level(level0, n)
    half = n // 2
    if n <= _PLAN_N_MAX and a <= _PLAN_T_MAX:
        moved = [sum(map(mul, coeffs, level0)) for coeffs in _transplant_plan(n, a)]
    else:
        moved = [_transplant_at(level0[j : j + a + 1], n, j, a) for j in range(half + 1)]
    return tuple(moved + [0] * (n - half))


def theorem2_transform(g_kernel: Kernel, n: int, j: int, a: int) -> int:
    """The kernel-transplant recurrence.

    For H(n,k,a) = binomial(a+k,a) binomial(a+n-k,a) G(n,k,a), the offset-j
    level-0 M-sum of H equals

        binomial(a+j, a) * sum_{l=0}^{a}
            binomial(n-j+l, l) binomial(n-j, a-l) M_G(n, j+a-l, 0; a)

    which this evaluates from the G side, reading only the offsets
    j..min(j+a, n//2) of G's level-0 M-sums: O(a n) work. Offsets past n/2
    yield 0 without reading G: every M-sum of G the sum needs sits at an
    offset >= j, where it vanishes.
    """
    _check_args(n=n, j=j, a=a)
    if 2 * j > n:
        return 0
    row = g_kernel.row(n, a)
    tail = [_m_sum_at(row, n, i) for i in range(j, min(j + a, n // 2) + 1)]
    return _transplant_at(tail, n, j, a)


def gessel_convolution(n: int, m: int, r: int) -> int:
    """The alternating Gessel convolution at composite index 2n:
    sum_k (-1)^k binomial(2n,k)^m P(k,r) P(2n-k,r)."""
    return direct_sum(gessel_kernel(r), 2 * n, m, r - 1)


def supercat_convolution(n: int, m: int, r: int) -> int:
    """The alternating super Catalan convolution at composite index 2n:
    sum_k (-1)^k binomial(2n,k)^m S(k,r) S(2n-k,r)."""
    return direct_sum(supercat_kernel(r), 2 * n, m, r - 1)


def quarter_psi(n: int, m: int, r: int) -> int:
    """One quarter of the super Catalan convolution, evaluated directly
    through half super Catalan numbers (never by dividing)."""
    return direct_sum(half_supercat_kernel(r), 2 * n, m, r - 1)
