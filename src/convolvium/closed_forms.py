"""Closed forms for specific M-sums.

Each family below is a finite product/sum of binomials (and super Catalan
numbers) equal to an M-sum of one of the built-in kernels at a fixed weight
level. The family names encode kernel and level, not meaning: S1/S2/S3 are
the plain, rising-factor, and central-binomial alternating sums, PSI the
supercat kernel, PHI the gessel kernel; T0/T1 is the weight level t. All
functions take the half index n and correspond to M-sums at composite index
2n; offsets j > n return 0 to match the vanishing M-sum.

FAMILIES maps each family to its closed form and to the kernel family and
level t of that M-sum; FAMILY_PARAMS is read off the closed forms' code
objects (their parameter names), without importing `inspect`. The closed
forms are private and check nothing: both sides of each identity,
`closed_form` and `msum_counterpart`, check a family's arguments in `_check`.

Each side also comes as a vector over the offsets j = 0..n + 1 at one n,
one past the half index, which the verifier compares in one block:
`closed_form_vector` calls the closed form once per offset after one
`_check`, and `msum_counterpart_vector` is one `m_sum_vector` of the
kernel's row at 2n, zero-padded. The scalar `msum_counterpart` returns an
entry of that same vector, so the M-sum side has one evaluation path. The
closed forms read their binomials from `exact`, never from `sums`, so the
two sides stay computed apart.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .exact import (
    binomial,
    exact_div,
    half_super_catalan,
    super_catalan,
)
from .kernels import PARAMETERIZED_FAMILIES, Kernel, KernelFamily, _sign
from .sums import m_sum_vector


class ClosedFormFamily(str, Enum):
    S1_T0 = "s1-t0"
    S1_T1 = "s1-t1"
    S2_T0 = "s2-t0"
    S2_T1 = "s2-t1"
    S3_T0 = "s3-t0"
    PSI_T0 = "psi-t0"
    PSI_T1 = "psi-t1"
    PHI_J_T0 = "phi-j-t0"
    PHI_00 = "phi-00"


def _s1_t0(n: int, j: int) -> int:
    """Plain kernel, level 0: (-1)^n at j = n, else 0."""
    return _sign(n) if j == n else 0


def _s1_t1(n: int, j: int) -> int:
    """Plain kernel, level 1: (-1)^n binomial(2n, n) binomial(n, j)."""
    return _sign(n) * binomial(2 * n, n) * binomial(n, j)


def _s2_t0(n: int, j: int, a: int) -> int:
    """Rising kernel, level 0: (-1)^n binomial(a+n, a) binomial(a+j, j) binomial(a, n-j)."""
    if j > n:
        return 0
    return _sign(n) * binomial(a + n, a) * binomial(a + j, j) * binomial(a, n - j)


def _s2_t1(n: int, j: int, a: int) -> int:
    """Rising kernel, level 1:
    (-1)^n binomial(a+n, a) *
        sum_u binomial(2n, j+u) binomial(j+u, u) binomial(a+j+u, j+u) binomial(a, n-j-u).
    """
    total = sum(
        binomial(2 * n, j + u)
        * binomial(j + u, u)
        * binomial(a + j + u, j + u)
        * binomial(a, n - j - u)
        for u in range(n - j + 1)
    )
    return _sign(n) * binomial(a + n, a) * total


def _s3_t0(n: int, j: int) -> int:
    """Central kernel, level 0:
    (-1)^j binomial(2n, n) binomial(2j, j) binomial(2(n-j), n-j)."""
    if j > n:
        return 0
    return (
        _sign(j)
        * binomial(2 * n, n)
        * binomial(2 * j, j)
        * binomial(2 * (n - j), n - j)
    )


def _psi_t0(n: int, j: int, r: int) -> int:
    """Supercat(r) kernel, level 0: a single exact ratio of six binomials."""
    if j > n:
        return 0
    num = (
        binomial(2 * r, r)
        * binomial(2 * n, n)
        * binomial(2 * j, j)
        * binomial(2 * (n + r - j), n + r - j)
        * binomial(2 * n - j, n)
    )
    den = binomial(n + r, n) * binomial(2 * n + r - j, n)
    return _sign(j) * exact_div(num, den)


def _psi_t1(n: int, j: int, r: int) -> int:
    """Supercat(r) kernel, level 1:
    (-1)^j S(n, r) binomial(n, j) *
        sum_v (-1)^v S(n+r-j-v, n) binomial(2(j+v), j+v) binomial(n-j, v).
    """
    total = sum(
        _sign(v)
        * super_catalan(n + r - j - v, n)
        * binomial(2 * (j + v), j + v)
        * binomial(n - j, v)
        for v in range(n - j + 1)
    )
    return _sign(j) * super_catalan(n, r) * binomial(n, j) * total


def _phi_t0(n: int, j: int, r: int) -> int:
    """Gessel(r) kernel, level 0, at any offset j.

    Term l of the inner sum has denominator d_l = 2 binomial(2n-j+l+1, n)
    and is not an integer in general; only the prefactored total is. The
    terms are put over D = lcm of the d_l and the total is finished with one
    exact division by D, so a non-integral total raises NonDivisible.
    """
    if j > n:
        return 0
    prefactor = (
        _sign(j + r - 1)
        * binomial(j + r - 1, j)
        * half_super_catalan(n, r)
        * binomial(2 * n - j, n)
    )
    dens = [2 * binomial(2 * n - j + l + 1, n) for l in range(r)]
    common = math.lcm(*dens)
    total = sum(
        _sign(l)
        * binomial(2 * n - j + l, l)
        * binomial(n - j, r - 1 - l)
        * binomial(2 * (j + r - 1 - l), j + r - 1 - l)
        * binomial(2 * (n - j + l + 1), n - j + l + 1)
        * (common // den)
        for l, den in enumerate(dens)
    )
    return exact_div(prefactor * total, common)


def _phi_origin(n: int, r: int) -> int:
    """Gessel(r) kernel, level 0, at offset 0. Each term groups into half
    super Catalan numbers and is individually an integer."""
    total = sum(
        _sign(l)
        * binomial(2 * n + l, l)
        * binomial(2 * (r - 1 - l), r - 1 - l)
        * binomial(n, r - 1 - l)
        * half_super_catalan(n, n + l + 1)
        for l in range(r)
    )
    return _sign(r - 1) * half_super_catalan(n, r) * total


# family -> (its closed form, the kernel family and weight level t of the
# M-sum it equals)
FAMILIES: dict[ClosedFormFamily, tuple[Callable[..., int], KernelFamily, int]] = {
    ClosedFormFamily.S1_T0: (_s1_t0, KernelFamily.PLAIN, 0),
    ClosedFormFamily.S1_T1: (_s1_t1, KernelFamily.PLAIN, 1),
    ClosedFormFamily.S2_T0: (_s2_t0, KernelFamily.RISING, 0),
    ClosedFormFamily.S2_T1: (_s2_t1, KernelFamily.RISING, 1),
    ClosedFormFamily.S3_T0: (_s3_t0, KernelFamily.CENTRAL, 0),
    ClosedFormFamily.PSI_T0: (_psi_t0, KernelFamily.SUPERCAT, 0),
    ClosedFormFamily.PSI_T1: (_psi_t1, KernelFamily.SUPERCAT, 1),
    ClosedFormFamily.PHI_J_T0: (_phi_t0, KernelFamily.GESSEL, 0),
    ClosedFormFamily.PHI_00: (_phi_origin, KernelFamily.GESSEL, 0),
}

# parameters each family's closed form takes, the half index n first; every
# closed form takes positional parameters only, so they lead co_varnames
FAMILY_PARAMS: dict[ClosedFormFamily, tuple[str, ...]] = {
    family: fn.__code__.co_varnames[: fn.__code__.co_argcount]
    for family, (fn, _, _) in FAMILIES.items()
}


def _check(family: ClosedFormFamily, n: int, j: int, r: int, a: int) -> None:
    """Refuse an argument `family` takes outside the closed forms' domain (n,
    j and a non-negative, r at least 1), naming it and the value passed. The
    guard keeps the ~1800 valid calls of a default `verify all` cheap."""
    if min(n, j, a) >= 0 and r >= 1:
        return
    given = {"n": n, "j": j, "r": r, "a": a}
    for name in FAMILY_PARAMS[family]:
        if name == "r" and r < 1:
            raise ValueError(f"r must be at least 1, got {r}")
        if given[name] < 0:
            raise ValueError(f"{name} must be non-negative, got {given[name]}")


def closed_form(family: ClosedFormFamily, *, n: int, j: int = 0, r: int = 1, a: int = 0) -> int:
    """Evaluate one closed-form family (n is the half index)."""
    family = ClosedFormFamily(family)
    _check(family, n, j, r, a)
    given = {"n": n, "j": j, "r": r, "a": a}
    return FAMILIES[family][0](**{name: given[name] for name in FAMILY_PARAMS[family]})


def closed_form_vector(
    family: ClosedFormFamily, *, n: int, r: int = 1, a: int = 0
) -> tuple[int, ...]:
    """closed_form at every offset j = 0..n + 1, one past the half index
    (for a family that takes no j, at j = 0 alone), after one `_check`."""
    family = ClosedFormFamily(family)
    _check(family, n, 0, r, a)
    fn = FAMILIES[family][0]
    given = {"n": n, "j": 0, "r": r, "a": a}
    args = [given[name] for name in FAMILY_PARAMS[family]]
    if "j" not in FAMILY_PARAMS[family]:
        return (fn(*args),)
    # every family that takes j takes it second
    return tuple([fn(n, j, *args[2:]) for j in range(n + 2)])


def _msums(
    family: ClosedFormFamily, n: int, r: int, a: int, kernel: Kernel | None
) -> tuple[int, ...]:
    """The M-sums at offsets j = 0..n of the family's kernel row at 2n, at
    the family's level: one m_sum_vector. The supercat-type kernels are
    summed at a = r - 1, a family that takes no `a` at 0."""
    _, kfam, t = FAMILIES[family]
    if kfam in PARAMETERIZED_FAMILIES:
        kern = kernel or Kernel(kfam, order=r)
        a = r - 1
    else:
        kern = kernel or Kernel(kfam)
        a = a if "a" in FAMILY_PARAMS[family] else 0
    return m_sum_vector(kern.row(2 * n, a), t)


def msum_counterpart(
    family: ClosedFormFamily,
    *,
    n: int,
    j: int = 0,
    r: int = 1,
    a: int = 0,
    kernel: Kernel | None = None,
) -> int:
    """The M-sum each family's closed form must equal, evaluated directly.

    The kernel and level come from FAMILIES. The supercat-type kernels
    are summed at a = r - 1; a family that takes no `a` (or no `j`) is summed
    at 0. `kernel` overrides the family's standard kernel (the verifier uses
    this to thread fault-injected kernels through). The value is entry j of
    the M-sum vector (`msum_counterpart_vector`), 0 past the half index."""
    family = ClosedFormFamily(family)
    _check(family, n, j, r, a)
    vector = _msums(family, n, r, a, kernel)
    j = j if "j" in FAMILY_PARAMS[family] else 0
    return vector[j] if j <= n else 0


def msum_counterpart_vector(
    family: ClosedFormFamily,
    *,
    n: int,
    r: int = 1,
    a: int = 0,
    kernel: Kernel | None = None,
) -> tuple[int, ...]:
    """msum_counterpart at every offset j = 0..n + 1, the offsets
    `closed_form_vector` gives (for a family that takes no j, at j = 0
    alone), from one m_sum_vector of the kernel's row at 2n."""
    family = ClosedFormFamily(family)
    _check(family, n, 0, r, a)
    vector = _msums(family, n, r, a, kernel)
    return vector + (0,) if "j" in FAMILY_PARAMS[family] else vector[:1]
