"""Summand kernels: the integer families F(n, k, a) that weighted sums consume.

A kernel carries its own alternating sign, so the sum engine never multiplies
by (-1)^k itself. The built-in families:

    plain           (-1)^k
    rising          (-1)^k binomial(a+k, k) binomial(a+n-k, n-k)
    central         (-1)^k binomial(2k, k) binomial(2(n-k), n-k)
    supercat(r)     (-1)^k S(k, r) S(n-k, r)
    half-supercat(r) (-1)^k (S(k, r)/2) (S(n-k, r)/2)
    gessel(r)       (-1)^k P(k, r) P(n-k, r)
    custom          stored rows {(n, a): (F(n, 0, a), ..., F(n, n, a))}

Kernels are evaluated a row at a time: `Kernel.row(n, a)` gives F(n, k, a)
for k = 0..n, and a point call reads its value out of that row. Every
built-in family is (-1)^k f(k) f(n-k) for one factor f, so a row costs n+1
evaluations of f. A custom kernel stores whole rows; `custom_kernel` checks
a point table once and converts it. `binomial_pair_row` dresses a row with
the weights binomial(a+k, a) binomial(a+n-k, a), built once per (n, a).

The `bump` field is a fault-injection hook for the verifier's sensitivity
tests: it adds a delta to the kernel's value at exactly one point, applied
when the row holding that point is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from operator import mul
from typing import Callable, Mapping, Sequence

from .exact import binomial, gessel, half_super_catalan, super_catalan

Point = tuple[int, int, int]  # (n, k, a)


class KernelFamily(str, Enum):
    PLAIN = "plain"
    RISING = "rising"
    CENTRAL = "central"
    SUPERCAT = "supercat"
    HALF_SUPERCAT = "half-supercat"
    GESSEL = "gessel"
    CUSTOM = "custom"


PARAMETERIZED_FAMILIES = frozenset(
    {KernelFamily.SUPERCAT, KernelFamily.HALF_SUPERCAT, KernelFamily.GESSEL}
)


class KernelDomainError(LookupError):
    """Kernel evaluated outside its domain (bad point, or a custom-kernel miss)."""


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


@dataclass(frozen=True)
class Kernel:
    family: KernelFamily
    order: int | None = None
    rows: Mapping[tuple[int, int], tuple[int, ...]] | None = None  # (n, a) -> row
    bump: tuple[Point, int] | None = None

    def __post_init__(self) -> None:
        if self.family in PARAMETERIZED_FAMILIES:
            if self.order is None or self.order < 1:
                raise ValueError(f"{self.family.value} kernel requires order >= 1")
        elif self.order is not None:
            raise ValueError(f"{self.family.value} kernel takes no order")
        if (self.rows is None) == (self.family is KernelFamily.CUSTOM):
            raise ValueError("a kernel stores rows exactly when it is custom")

    @property
    def label(self) -> str:
        if self.family in PARAMETERIZED_FAMILIES:
            return f"{self.family.value}({self.order})"
        return self.family.value

    def row(self, n: int, a: int) -> tuple[int, ...]:
        """The kernel row (F(n, 0, a), ..., F(n, n, a)), bump included.

        A custom kernel serves only the rows it stores.
        """
        if n < 0 or a < 0:
            raise KernelDomainError(f"kernel row out of domain: n={n}, a={a}")
        values = _ROW_BUILDERS[self.family](self, n, a)
        if self.bump is not None:
            (bn, bk, ba), delta = self.bump
            if bn == n and ba == a and 0 <= bk <= n:
                values = [*values[:bk], values[bk] + delta, *values[bk + 1 :]]
        return tuple(values)

    def __call__(self, n: int, k: int, a: int) -> int:
        if n < 0 or a < 0 or k < 0 or k > n:
            raise KernelDomainError(
                f"kernel point out of domain: n={n}, k={k}, a={a}"
            )
        return self.row(n, a)[k]


def _symmetric_row(factor: Callable[[int], int], n: int) -> list[int]:
    """(-1)^k f(k) f(n-k) for k = 0..n, each f(i) evaluated once."""
    f = [factor(i) for i in range(n + 1)]
    return [_sign(k) * f[k] * f[n - k] for k in range(n + 1)]


def _custom_row(kernel: Kernel, n: int, a: int) -> Sequence[int]:
    row = kernel.rows.get((n, a))
    if row is None or len(row) != n + 1:
        raise KernelDomainError(f"custom kernel has no full row at (n={n}, a={a})")
    return row


# family -> builder of the unbumped row F(n, 0..n, a)
_ROW_BUILDERS: dict[KernelFamily, Callable[[Kernel, int, int], Sequence[int]]] = {
    KernelFamily.PLAIN: lambda kern, n, a: [_sign(k) for k in range(n + 1)],
    KernelFamily.RISING: lambda kern, n, a: _symmetric_row(lambda i: binomial(a + i, i), n),
    KernelFamily.CENTRAL: lambda kern, n, a: _symmetric_row(lambda i: binomial(2 * i, i), n),
    KernelFamily.SUPERCAT: lambda kern, n, a: _symmetric_row(
        lambda i: super_catalan(i, kern.order), n
    ),
    KernelFamily.HALF_SUPERCAT: lambda kern, n, a: _symmetric_row(
        lambda i: half_super_catalan(i, kern.order), n
    ),
    KernelFamily.GESSEL: lambda kern, n, a: _symmetric_row(lambda i: gessel(i, kern.order), n),
    KernelFamily.CUSTOM: _custom_row,
}


def plain_kernel() -> Kernel:
    return Kernel(KernelFamily.PLAIN)


def rising_kernel() -> Kernel:
    return Kernel(KernelFamily.RISING)


def central_kernel() -> Kernel:
    return Kernel(KernelFamily.CENTRAL)


def supercat_kernel(r: int) -> Kernel:
    return Kernel(KernelFamily.SUPERCAT, order=r)


def half_supercat_kernel(r: int) -> Kernel:
    return Kernel(KernelFamily.HALF_SUPERCAT, order=r)


def gessel_kernel(r: int) -> Kernel:
    return Kernel(KernelFamily.GESSEL, order=r)


def custom_kernel(table: Mapping[Point, int]) -> Kernel:
    """Kernel from a point table {(n, k, a): value}, checked and stored as rows."""
    for n, k, a in table:
        if n < 0 or a < 0 or k < 0 or k > n:
            raise KernelDomainError(f"custom kernel point out of domain: n={n}, k={k}, a={a}")
    rows = {}
    for n, a in dict.fromkeys((n, a) for n, _, a in table):
        for k in range(n + 1):
            if (n, k, a) not in table:
                raise KernelDomainError(f"custom kernel has no value at (n={n}, k={k}, a={a})")
        rows[(n, a)] = tuple([table[(n, k, a)] for k in range(n + 1)])
    return Kernel(KernelFamily.CUSTOM, rows=rows)


def with_bump(kernel: Kernel, point: Point, delta: int = 1) -> Kernel:
    """Copy of kernel whose value at `point` is shifted by `delta` (test hook)."""
    return replace(kernel, bump=(point, delta))


@lru_cache(maxsize=256)
def _pair_weights(n: int, a: int) -> tuple[int, ...]:
    """binomial(a+k, a) binomial(a+n-k, a) for k = 0..n. A thm2 sweep dresses
    one row per random kernel at every (n, a), so each vector is read once
    per kernel; the bound covers a default sweep's slices."""
    return tuple([binomial(a + k, a) * binomial(a + n - k, a) for k in range(n + 1)])


def binomial_pair_row(row: Sequence[int], a: int) -> tuple[int, ...]:
    """The row H(n, 0..n, a) of H(n, k, a) = binomial(a+k, a) binomial(a+n-k, a)
    G(n, k, a), from G's row (G(n, 0, a), ..., G(n, n, a))."""
    if not row or a < 0:
        raise ValueError(f"a binomial pair needs a non-empty row and a >= 0, got a={a}")
    return tuple(map(mul, _pair_weights(len(row) - 1, a), row))


def binomial_pair_kernel(g: Kernel, n: int, a: int) -> Kernel:
    """The kernel H(n, k, a) = binomial(a+k, a) binomial(a+n-k, a) G(n, k, a),
    stored as the single custom row (n, a)."""
    return Kernel(KernelFamily.CUSTOM, rows={(n, a): binomial_pair_row(g.row(n, a), a)})


def random_kernel(rng: random.Random, n_max: int, a_max: int) -> Kernel:
    """Custom kernel whose rows (n, a), n <= n_max, a <= a_max, hold values
    drawn uniformly from [-9, 9]. The draw order is (n, k, a) ascending, so
    a seeded rng reproduces the same kernel."""
    rows = {}
    for n in range(n_max + 1):
        drawn = [rng.randint(-9, 9) for _ in range((n + 1) * (a_max + 1))]
        for a in range(a_max + 1):
            rows[(n, a)] = tuple(drawn[a :: a_max + 1])
    return Kernel(KernelFamily.CUSTOM, rows=rows)
