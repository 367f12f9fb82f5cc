"""Machine verification suites.

Every claim the library's arithmetic rests on is swept over a bounded
parameter box by one of the suites registered here. A suite never raises on
a falsified claim: it records each violation (parameters, expected, actual)
and the caller decides what a non-empty list means. All arithmetic is exact;
a violation is a counterexample, not a tolerance artifact.

Suites accept an optional fault-injection `bump`, a built-in kernel from
`kernels.with_bump` that each suite uses wherever it builds that family and
order; this is how the suites themselves are tested for sensitivity. Not
every bump is caught: eq7 and eq8 hold for any kernel and the other suites
read kernel rows only at even n, so a bump at odd n, or on a kernel the box
never builds, leaves every suite green. Randomized suites (eq8, thm2) derive
their kernels from a seeded generator, so reports are reproducible byte for
byte.

Runtime protection: before running, each suite estimates its work from the
resolved range and refuses (RangeTooLarge) if the estimate exceeds the
budget, taken from the CONVOLVIUM_BUDGET_MS environment variable when set
and 600000 ms otherwise.
"""

from __future__ import annotations

import io
import marshal
import math
import os
import random
import time
from itertools import chain
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import closed_forms as cf
from .exact import (
    binomial,
    catalan,
    central_binomial,
    decimal,
    half_super_catalan,
    lcm,
    gessel,
    smallest_clearing_factor,
    super_catalan,
)
from .kernels import (
    PARAMETERIZED_FAMILIES,
    Kernel,
    KernelFamily,
    _centrals,
    binomial_pair_kernel,
    binomial_pair_row,
    random_kernel,
)
from .paths import (
    count_paths,
    enumerate_paths,
    gessel_path_spec,
    prefix_path_spec,
)
from .sums import (
    direct_sum,
    m_sum,
    m_sum_lift_vector,
    m_sum_vector,
    theorem2_transform_vector,
)

DEFAULT_BUDGET_MS = 600_000.0
BUDGET_ENV_VAR = "CONVOLVIUM_BUDGET_MS"
DEFAULT_SEED = 0x5EED
FUZZ_KERNEL_COUNT = 50

# rough cost assigned to one kernel/binomial evaluation when estimating work
_EST_US_PER_TERM = 2.0

# board size (x + y at the target) up to which the paths suite cross-checks
# the counting DP against explicit enumeration
_ENUM_CROSSCHECK_STEPS = 12


class UnknownSuite(ValueError):
    """No suite is registered under the requested name."""


class RangeTooLarge(ValueError):
    """The requested range's estimated runtime exceeds the budget."""


class SweepRange(NamedTuple):
    """Overrides for a suite's default parameter box.

    A None field keeps the suite's default; suites ignore fields they do not
    use. The seed only matters to the randomized suites.
    """

    n_max: int | None = None
    m_max: int | None = None
    r_max: int | None = None
    a_max: int | None = None
    seed: int = DEFAULT_SEED


class VerificationReport(NamedTuple):
    suite: str
    claim: str
    range: dict[str, int]
    cases_checked: int
    violations: list[dict]
    elapsed_ms: float
    notes: Sequence[str] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self, include_timings: bool = False) -> dict:
        """JSON-ready dict. elapsed_ms serializes as 0 unless timings are
        requested, so default reports are byte-identical across runs."""
        return {
            "suite": self.suite,
            "claim": self.claim,
            "range": dict(self.range),
            "cases_checked": self.cases_checked,
            "violations": self.violations,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timings else 0,
            "notes": list(self.notes),
        }


class _SuiteCtx:
    """Mutable state threaded through one suite run."""

    def __init__(self, params: dict[str, int], seed: int, bump: Kernel | None):
        self.params = params
        self.seed = seed
        self.bump = bump
        self.seeded = False
        self.cases = 0
        self.violations: list[dict] = []
        self.notes: list[str] = []

    def rng(self) -> random.Random:
        """A generator seeded from the sweep; drawing marks the run seeded."""
        self.seeded = True
        return random.Random(self.seed)

    def mk(self, family: KernelFamily, order: int | None = None) -> Kernel:
        """Built-in kernel: the bumped kernel when its family and order match."""
        b = self.bump
        if b is not None and b.family is family and b.order == order:
            return b
        return Kernel(family, order=order)

    def violate(self, params: dict, expected: str, actual: str) -> None:
        """Record one violation: the case's parameters and both sides as text."""
        self.violations.append({"parameters": params, "expected": expected, "actual": actual})

    def equal(self, params: dict, expected: int, actual: int) -> None:
        self.cases += 1
        if expected != actual:
            self.violate(params, decimal(expected), decimal(actual))

    def equal_all(
        self,
        expected: Sequence[int],
        actual: Sequence[int],
        params_at: Callable[[int], dict],
    ) -> None:
        """`equal` over two sequences of cases at once: entry i of each is
        case i, named by params_at(i). An agreeing block costs one
        comparison; on a mismatch every differing entry is recorded in index
        order, exactly as `equal` would record it. Both sequences should be
        of one type (two tuples or two lists), or every block takes the slow
        walk; their lengths must agree."""
        self.cases += len(expected)
        if expected == actual:
            return
        for i, (want, got) in enumerate(zip(expected, actual, strict=True)):
            if want != got:
                self.violate(params_at(i), decimal(want), decimal(got))

    def divides(self, params: dict, divisor: int, value: int) -> None:
        self.cases += 1
        rem = value % divisor
        if rem:
            self.violate(
                {**params, "divisor": decimal(divisor), "value": decimal(value)},
                "remainder 0",
                f"remainder {decimal(rem)}",
            )

    def assert_true(self, params: dict, ok: bool, expected: str, actual: str) -> None:
        self.cases += 1
        if not ok:
            self.violate(params, expected, actual)


# ---------------------------------------------------------------- suite runners


def _instances(ctx: _SuiteCtx, family: KernelFamily) -> list[tuple[Kernel, int, dict[str, int]]]:
    """Every instance of one built-in kernel family the sweep covers: the
    kernel, the `a` it is summed at, and the parameter naming the instance.
    An ordered family runs at its natural a = r - 1 for each r <= r_max, the
    rising kernel at every a <= a_max, the rest once at a = 0."""
    p = ctx.params
    if family in PARAMETERIZED_FAMILIES:
        return [(ctx.mk(family, r), r - 1, {"r": r}) for r in range(1, p["r_max"] + 1)]
    if family is KernelFamily.RISING:
        kern = ctx.mk(family)
        return [(kern, a, {"a": a}) for a in range(p["a_max"] + 1)]
    return [(ctx.mk(family), 0, {})]


def _sum_divisible(
    family: KernelFamily, divisor: Callable[..., int]
) -> Callable[[_SuiteCtx], None]:
    """Runner: divisor(n, **name) divides the weight-m direct sum up to 2n
    over every instance of `family`, for every n <= n_max and m <= m_max.

    The registry passes divisors as lambdas that look their functions up
    by name at call time, so a patched or traced module global is seen."""

    def run(ctx: _SuiteCtx) -> None:
        p = ctx.params
        for kern, a, name in _instances(ctx, family):
            for n in range(p["n_max"] + 1):
                d = divisor(n, **name)
                for m in range(1, p["m_max"] + 1):
                    ctx.divides({"n": n, "m": m, **name}, d, direct_sum(kern, 2 * n, m, a))

    return run


def _run_phi_m1(ctx: _SuiteCtx) -> None:
    kern = ctx.mk(KernelFamily.GESSEL, 1)
    for n in range(ctx.params["n_max"] + 1):
        ctx.equal(
            {"n": n},
            catalan(n) * binomial(2 * n, n),
            direct_sum(kern, 2 * n, 1, 0),
        )


def _run_psi_m1(ctx: _SuiteCtx) -> None:
    for kern, a, name in _instances(ctx, KernelFamily.SUPERCAT):
        r = name["r"]
        for n in range(ctx.params["n_max"] + 1):
            ctx.equal(
                {"n": n, **name},
                super_catalan(n, r) * super_catalan(n + r, n),
                direct_sum(kern, 2 * n, 1, a),
            )


def _run_closed_forms(ctx: _SuiteCtx) -> None:
    """Each closed form against its M-sum at every instance of its kernel
    family: the instance's name (r, a or nothing) is the family's own
    parameter, and msum_counterpart sums at the instance's a."""
    for family in cf.ClosedFormFamily:
        takes_j = "j" in cf.FAMILY_PARAMS[family]
        insts = _instances(ctx, cf.FAMILIES[family][1])
        for n in range(ctx.params["n_max"] + 1):
            # probe one offset past the half index: both sides must vanish
            for j in range(n + 2) if takes_j else (0,):
                at = {"family": family.value, "n": n, **({"j": j} if takes_j else {})}
                for kern, _, name in insts:
                    ctx.equal(
                        {**at, **name},
                        cf.closed_form(family, n=n, j=j, **name),
                        cf.msum_counterpart(family, n=n, j=j, kernel=kern, **name),
                    )


def _builtin_kernels(ctx: _SuiteCtx) -> list[tuple[Kernel, int]]:
    """Every built-in kernel instance the sweep covers, paired with the `a`
    it is summed at: plain, central, rising at each a, then the three ordered
    families for each r in turn."""
    out = [
        (kern, a)
        for family in (KernelFamily.PLAIN, KernelFamily.CENTRAL, KernelFamily.RISING)
        for kern, a, _ in _instances(ctx, family)
    ]
    ordered = (KernelFamily.SUPERCAT, KernelFamily.HALF_SUPERCAT, KernelFamily.GESSEL)
    for same_r in zip(*(_instances(ctx, family) for family in ordered)):
        out.extend((kern, a) for kern, a, _ in same_r)
    return out


def _run_eq7(ctx: _SuiteCtx) -> None:
    p = ctx.params
    for kern, a in _builtin_kernels(ctx):
        for n in range(p["n_max"] + 1):
            for m in range(1, p["m_max"] + 1):
                ctx.equal(
                    {"kernel": kern.label, "n": n, "m": m, "a": a},
                    direct_sum(kern, n, m, a),
                    m_sum(kern, n, 0, m - 1, a),
                )


def _j_major(vectors: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The entries of equal-length vectors v_0, v_1, ... ordered by offset
    first: v_0[0], v_1[0], ..., v_0[1], v_1[1], ...; entry i is offset
    i // len(vectors) of vector i % len(vectors)."""
    return tuple(chain.from_iterable(zip(*vectors, strict=True)))


def _run_eq8(ctx: _SuiteCtx) -> None:
    p = ctx.params
    entries: list[tuple[str, Kernel, int]] = [
        (kern.label, kern, a) for kern, a in _builtin_kernels(ctx)
    ]
    rng = ctx.rng()
    for i in range(FUZZ_KERNEL_COUNT):
        entries.append((f"custom[{i}]", random_kernel(rng, p["n_max"], 0), 0))
    levels_up = p["m_max"]
    for label, kern, a in entries:
        for n in range(p["n_max"] + 1):
            # direct side: every level straight from the row; recurrence
            # side: level t+1 from the level-t vector alone
            row = kern.row(n, a)
            levels = [m_sum_vector(row, t) for t in range(levels_up + 1)]
            lifted = [m_sum_lift_vector(levels[t], n) for t in range(levels_up)]

            def params_at(i: int) -> dict:
                j, t = divmod(i, levels_up)
                return {"kernel": label, "n": n, "j": j, "t": t, "a": a}

            ctx.equal_all(_j_major(levels[1:]), _j_major(lifted), params_at)


def _transplant_sides(
    h_row: tuple[int, ...], g_row: tuple[int, ...], n: int, a: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Offsets j = 0..n of the level-0 M-sums of the dressed kernel h, read
    from h's row, and of their transplant, read from g's level-0 vector
    alone."""
    direct = m_sum_vector(h_row, 0) + (0,) * (n - n // 2)
    moved = theorem2_transform_vector(m_sum_vector(g_row, 0), n, a)
    return direct, moved


def _run_thm2(ctx: _SuiteCtx) -> None:
    p = ctx.params
    rng = ctx.rng()
    for i in range(FUZZ_KERNEL_COUNT):
        g = random_kernel(rng, p["n_max"], p["a_max"])
        for n in range(p["n_max"] + 1):
            for a in range(p["a_max"] + 1):
                g_row = g.row(n, a)
                ctx.equal_all(
                    *_transplant_sides(binomial_pair_row(g_row, a), g_row, n, a),
                    lambda j: {"kernel": f"custom[{i}]", "n": n, "j": j, "a": a},
                )
    # the named instance: the gessel(r) kernel is the binomial-pair dressing
    # of half-supercat(r) at a = r - 1, so the transplant must reproduce its
    # offset M-sums
    h_max = min(6, p["n_max"])
    for r in range(1, p["r_max"] + 1):
        g = ctx.mk(KernelFamily.HALF_SUPERCAT, r)
        q = ctx.mk(KernelFamily.GESSEL, r)
        for h in range(h_max + 1):
            n, a = 2 * h, r - 1
            direct, moved = _transplant_sides(q.row(n, a), g.row(n, a), n, a)
            ctx.equal_all(
                direct[: h + 1],
                moved[: h + 1],
                lambda j: {"kernel": f"gessel({r})", "n": n, "j": j, "a": a},
            )


def _run_eq2_eq4(ctx: _SuiteCtx) -> None:
    p = ctx.params
    for r in range(1, p["r_max"] + 1):
        # pointwise: twice the Gessel number is the rising binomial times the
        # super Catalan number
        for k in range(2 * p["n_max"] + 1):
            ctx.equal(
                {"relation": "gessel-factorization", "k": k, "r": r},
                2 * gessel(k, r),
                binomial(k + r - 1, k) * super_catalan(k, r),
            )
        gk = ctx.mk(KernelFamily.GESSEL, r)
        sk = ctx.mk(KernelFamily.SUPERCAT, r)
        hk = ctx.mk(KernelFamily.HALF_SUPERCAT, r)
        for n in range(p["n_max"] + 1):
            pair = binomial_pair_kernel(hk, 2 * n, r - 1)
            for m in range(1, p["m_max"] + 1):
                ctx.equal(
                    {"relation": "kernel-factorization", "n": n, "m": m, "r": r},
                    direct_sum(gk, 2 * n, m, r - 1),
                    direct_sum(pair, 2 * n, m, r - 1),
                )
                ctx.equal(
                    {"relation": "quarter-sum", "n": n, "m": m, "r": r},
                    direct_sum(sk, 2 * n, m, r - 1),
                    4 * direct_sum(hk, 2 * n, m, r - 1),
                )


def _run_stanley(ctx: _SuiteCtx) -> None:
    top = ctx.params["n_max"]
    # pascal[N][i] = binomial(N, i) for N <= 3*top, zero past i = N, so an
    # index anywhere in the box reads the vanishing convention
    width = 3 * top + 1
    pascal = [
        [binomial(big, i) for i in range(big + 1)] + [0] * (width - big - 1)
        for big in range(width)
    ]
    # falling[x][y] = (binomial(x, y), binomial(x, y-1), ..., binomial(x, 0))
    falling = [[row[y::-1] for y in range(top + 1)] for row in pascal[: top + 1]]
    for a in range(top + 1):
        # down[m][n] = binomial(a+n, m) for n = 0..top
        down = [[pascal[a + n][m] for n in range(top + 1)] for m in range(top + 1)]
        for b in range(top + 1):
            # binomial(a+b+k, k) for k = 0..top
            rising = [pascal[a + b + k][k] for k in range(top + 1)]
            from_b = falling[b]
            for m in range(top + 1):
                # binomial(a, m-k) binomial(a+b+k, k) for k = 0..m; each sum
                # stops at k = min(m, n), where one of its slices runs out
                w = list(map(mul, falling[a][m], rising))
                ctx.equal_all(
                    list(map(mul, down[m], pascal[b + m])),
                    [sum(map(mul, w, to_n)) for to_n in from_b],
                    lambda n: {"a": a, "b": b, "m": m, "n": n},
                )


def _run_eq14(ctx: _SuiteCtx) -> None:
    top = ctx.params["a_max"]
    for a in range(top + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                ctx.equal(
                    {"a": a, "b": b, "c": c},
                    binomial(a, b) * binomial(b, c),
                    binomial(a, c) * binomial(a - c, b - c),
                )


def _run_kr(ctx: _SuiteCtx) -> None:
    window = ctx.params["n_max"]
    for r in range(1, ctx.params["r_max"] + 1):
        cleared = smallest_clearing_factor(r)
        text = decimal(cleared)
        for n, c in enumerate(_centrals(window)):
            ctx.divides({"r": r, "n": n, "K": text}, n + r, cleared * c)
        # minimality, as far as the window can see: every smaller multiplier
        # must fail at some n in the window
        for cand in range(1, cleared):
            witness = next(
                (n for n, c in enumerate(_centrals(window)) if cand * c % (n + r)),
                None,
            )
            ctx.assert_true(
                {"r": r, "K": cand},
                witness is not None,
                f"some n <= {window} where K*binomial(2n,n) is not divisible by n+r",
                "no witness in window",
            )


def _run_remark1(ctx: _SuiteCtx) -> None:
    kern = ctx.mk(KernelFamily.GESSEL, 2)
    value = direct_sum(kern, 6, 1, 1)
    base = {"n": 3, "m": 1, "r": 2}
    ctx.equal(base, 1170, value)
    ctx.divides({**base, "claim": "divisible by half the super Catalan number"}, 6, value)
    ctx.equal({**base, "claim": "not divisible by the full super Catalan number"}, 6, value % 12)
    ctx.equal({**base, "claim": "not divisible by the central binomial"}, 10, value % 20)


def _run_paths(ctx: _SuiteCtx) -> None:
    p = ctx.params
    for n in range(1, p["n_max"] + 1):
        for r in range(1, p["r_max"] + 1):
            specs = {"tail": gessel_path_spec(n, r), "band": prefix_path_spec(n, r)}
            counts = {tag: count_paths(spec) for tag, spec in specs.items()}
            for tag, count in counts.items():
                ctx.equal({"n": n, "r": r, "check": f"{tag}-count"}, gessel(n, r), count)
            if 2 * (n + r) - 1 <= _ENUM_CROSSCHECK_STEPS:
                for tag, spec in specs.items():
                    ctx.equal(
                        {"n": n, "r": r, "check": f"enumeration-{tag}"},
                        counts[tag],
                        len(enumerate_paths(spec)),
                    )


# ------------------------------------------------------------------- registry


class SuiteSpec(NamedTuple):
    name: str
    claim: str
    defaults: dict[str, int]
    runner: Callable[[_SuiteCtx], None]
    estimator: Callable[[dict[str, int]], float]
    minimums: dict[str, int] = {}  # over _MIN_DEFAULTS; only ever read


def _est_weighted(p: dict[str, int]) -> float:
    n = p["n_max"]
    return (n + 1) * p.get("m_max", 1) * p.get("r_max", 1) * (p.get("a_max", 0) + 1) * (2 * n + 2)


def _est_closed_forms(p: dict[str, int]) -> float:
    n = p["n_max"]
    return 9.0 * (n + 1) * (n + 2) * p["r_max"] * (p["a_max"] + 1) * (2 * n + 2)


def _kernel_count(p: dict[str, int]) -> int:
    return 2 + (p["a_max"] + 1) + 3 * p["r_max"]


def _est_eq7(p: dict[str, int]) -> float:
    return _kernel_count(p) * p["m_max"] * float(p["n_max"] + 1) ** 2


def _est_eq8(p: dict[str, int]) -> float:
    n = p["n_max"]
    per_case = (n + 1) * (n // 2 + 2)
    return (_kernel_count(p) + FUZZ_KERNEL_COUNT) * p["m_max"] * (n + 1) * (n // 2 + 1) * float(per_case)


def _est_thm2(p: dict[str, int]) -> float:
    n, a, r = p["n_max"], p["a_max"], p["r_max"]
    fuzz = FUZZ_KERNEL_COUNT * (n + 1.0) ** 2 * (a + 1) ** 2 * (n + 2)
    instance = r * (min(6, n) + 1.0) ** 2 * (2 * min(6, n) + 2)
    return fuzz + instance


def _est_eq2_eq4(p: dict[str, int]) -> float:
    n = p["n_max"]
    return p["r_max"] * (2 * n + 1.0) + 4.0 * (n + 1) * p["m_max"] * p["r_max"] * (2 * n + 2)


def _est_kr(p: dict[str, int]) -> float:
    window = p["n_max"] + 1.0
    if p["r_max"] > 40:
        return float("inf")
    candidates = sum(float(smallest_clearing_factor(r)) for r in range(1, p["r_max"] + 1))
    return p["r_max"] * window + candidates * window


def _est_paths(p: dict[str, int]) -> float:
    n, r = p["n_max"], p["r_max"]
    return 4.0 * n * r * (n + r) ** 2 + 8000.0


_MIN_DEFAULTS = {"n_max": 0, "m_max": 1, "r_max": 1, "a_max": 0}


_REGISTRY: dict[str, SuiteSpec] = {
    s.name: s
    for s in (
        SuiteSpec(
            "theorem1",
            "half the super Catalan number S(n,r) divides the alternating "
            "Gessel convolution at every binomial weight",
            {"n_max": 10, "m_max": 4, "r_max": 5},
            _sum_divisible(KernelFamily.GESSEL, lambda n, r: half_super_catalan(n, r)),
            _est_weighted,
        ),
        SuiteSpec(
            "psi-div",
            "the super Catalan number S(n,r) divides the alternating super "
            "Catalan convolution at every binomial weight",
            {"n_max": 10, "m_max": 4, "r_max": 5},
            _sum_divisible(KernelFamily.SUPERCAT, lambda n, r: super_catalan(n, r)),
            _est_weighted,
        ),
        SuiteSpec(
            "phi-m1",
            "at weight 1 and r = 1 the Gessel convolution equals "
            "catalan(n) * binomial(2n, n)",
            {"n_max": 12},
            _run_phi_m1,
            _est_weighted,
        ),
        SuiteSpec(
            "psi-m1",
            "at weight 1 the super Catalan convolution equals S(n,r) * S(n+r,n)",
            {"n_max": 10, "r_max": 5},
            _run_psi_m1,
            _est_weighted,
        ),
        SuiteSpec(
            "calkin",
            "binomial(2n,n) divides the alternating m-th power sum of "
            "binomial(2n,k)",
            {"n_max": 12, "m_max": 5},
            _sum_divisible(KernelFamily.PLAIN, lambda n: central_binomial(n)),
            _est_weighted,
        ),
        SuiteSpec(
            "s2-div",
            "lcm(binomial(a+n,a), binomial(2n,n)) divides the alternating "
            "weighted sum over the rising kernel",
            {"n_max": 10, "m_max": 4, "a_max": 4},
            _sum_divisible(
                KernelFamily.RISING, lambda n, a: lcm(binomial(a + n, a), central_binomial(n))
            ),
            _est_weighted,
        ),
        SuiteSpec(
            "s3-div",
            "binomial(2n,n) divides the alternating weighted sum over the "
            "central-binomial kernel",
            {"n_max": 10, "m_max": 4},
            _sum_divisible(KernelFamily.CENTRAL, lambda n: central_binomial(n)),
            _est_weighted,
        ),
        SuiteSpec(
            "closed-forms",
            "every closed-form family equals its M-sum evaluated directly, "
            "including one offset past the vanishing boundary",
            {"n_max": 6, "r_max": 4, "a_max": 4},
            _run_closed_forms,
            _est_closed_forms,
        ),
        SuiteSpec(
            "eq7",
            "the weight-m direct sum equals the offset-0 M-sum at level m-1 "
            "for every built-in kernel",
            {"n_max": 12, "m_max": 4, "r_max": 4, "a_max": 4},
            _run_eq7,
            _est_eq7,
        ),
        SuiteSpec(
            "eq8",
            "the level-raise recurrence reproduces the directly evaluated "
            "M-sum one level up, for built-in and random kernels",
            {"n_max": 12, "m_max": 3, "r_max": 4, "a_max": 4},
            _run_eq8,
            _est_eq8,
        ),
        SuiteSpec(
            "thm2",
            "transplanting a binomial pair out of the kernel reproduces the "
            "offset M-sums, for random kernels and for the Gessel instance",
            {"n_max": 10, "a_max": 3, "r_max": 4},
            _run_thm2,
            _est_thm2,
        ),
        SuiteSpec(
            "eq2-eq4",
            "the Gessel, super Catalan, and half-super-Catalan kernels agree "
            "pointwise and in aggregate under their factorizations",
            {"n_max": 8, "m_max": 3, "r_max": 4},
            _run_eq2_eq4,
            _est_eq2_eq4,
        ),
        SuiteSpec(
            "stanley",
            "sum_k binomial(a,m-k) binomial(b,n-k) binomial(a+b+k,k) equals "
            "binomial(a+n,m) binomial(b+m,n) over the full box",
            {"n_max": 12},
            _run_stanley,
            lambda p: float(p["n_max"] + 1) ** 5,
        ),
        SuiteSpec(
            "eq14",
            "binomial(a,b) binomial(b,c) equals binomial(a,c) "
            "binomial(a-c,b-c) for all c <= b <= a",
            {"a_max": 24},
            _run_eq14,
            lambda p: float(p["a_max"] + 1) ** 3,
        ),
        SuiteSpec(
            "kr",
            "K_r = (r/2) binomial(2r,r) makes K*binomial(2n,n)/(n+r) integral "
            "for every n in the window, and every smaller K fails somewhere "
            "in it",
            {"n_max": 500, "r_max": 5},
            _run_kr,
            _est_kr,
        ),
        SuiteSpec(
            "remark1",
            "the weight-1 Gessel convolution at n=3, r=2 is 1170: divisible "
            "by 6 but by neither 12 nor 20",
            {},
            _run_remark1,
            lambda p: 50.0,
        ),
        SuiteSpec(
            "paths",
            "both forbidden-diagonal path counts equal the Gessel number, and "
            "explicit enumeration matches the counting DP on small boards",
            {"n_max": 10, "r_max": 6},
            _run_paths,
            _est_paths,
            minimums={"n_max": 1, "r_max": 1},
        ),
    )
}


def suite_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _resolve_params(spec: SuiteSpec, sweep: SweepRange) -> tuple[dict[str, int], list[str]]:
    params: dict[str, int] = {}
    notes: list[str] = []
    for pname, default in spec.defaults.items():
        requested = getattr(sweep, pname)
        value = default if requested is None else requested
        minimum = spec.minimums.get(pname, _MIN_DEFAULTS[pname])
        if value < minimum:
            notes.append(f"{pname} raised to {minimum} (suite minimum)")
            value = minimum
        params[pname] = value
    return params, notes


def _resolve_budget(budget_ms: float | None) -> float:
    """budget_ms if given, else CONVOLVIUM_BUDGET_MS if set, else the
    default. A non-finite budget is refused like a non-number: no estimate
    compares greater than NaN or infinity, so either would switch the guard
    off."""
    raw = budget_ms if budget_ms is not None else os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET_MS
    try:
        budget = float(raw)
    except ValueError:
        if budget_ms is not None:
            raise
        budget = math.nan
    if not math.isfinite(budget):
        if budget_ms is not None:
            raise ValueError(f"budget_ms must be finite, not NaN or infinite, got {budget}")
        raise ValueError(f"{BUDGET_ENV_VAR} must be a finite number, got {raw!r}")
    return budget


def _check_bump(bump: Kernel | None) -> None:
    """Refuse a custom or unbumped `bump`: no suite would read a fault in it,
    so the run would be vacuously green."""
    if bump is not None and (bump.family is KernelFamily.CUSTOM or bump.bump is None):
        raise ValueError(
            f"bump must be a built-in kernel from with_bump, got {bump.label} with bump={bump.bump}"
        )


def run_suite(
    name: str,
    sweep: SweepRange | None = None,
    *,
    bump: Kernel | None = None,
    budget_ms: float | None = None,
) -> VerificationReport:
    """Run one suite and return its report.

    Raises UnknownSuite for an unregistered name, ValueError for a custom or
    unbumped `bump`, and RangeTooLarge when the resolved range's estimated
    runtime exceeds the budget.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownSuite(
            f"unknown suite {name!r}; known suites: {', '.join(_REGISTRY)}"
        )
    _check_bump(bump)
    sweep = sweep if sweep is not None else SweepRange()
    params, notes = _resolve_params(spec, sweep)
    budget = _resolve_budget(budget_ms)
    est_ms = spec.estimator(params) * _EST_US_PER_TERM / 1000.0
    if est_ms > budget:
        raise RangeTooLarge(
            f"suite {name!r} at {params} is estimated at ~{est_ms:.0f} ms, over "
            f"the {budget:.0f} ms budget; shrink the range or raise {BUDGET_ENV_VAR}"
        )
    ctx = _SuiteCtx(params, sweep.seed, bump)
    ctx.notes.extend(notes)
    start = time.perf_counter()
    spec.runner(ctx)
    elapsed = (time.perf_counter() - start) * 1000.0
    rng_range = dict(params)
    if ctx.seeded:
        rng_range["seed"] = sweep.seed
    return VerificationReport(
        suite=name,
        claim=spec.claim,
        range=rng_range,
        cases_checked=ctx.cases,
        violations=ctx.violations,
        elapsed_ms=elapsed,
        notes=ctx.notes,
    )


def _run_or_abort(
    name: str, sweep: SweepRange, bump: Kernel | None, budget: float
) -> VerificationReport:
    """run_suite, with a suite that raises (over budget, or a genuine bug)
    converted into a failing report rather than aborting the batch."""
    try:
        return run_suite(name, sweep, bump=bump, budget_ms=budget)
    except Exception as exc:
        ctx = _SuiteCtx({}, DEFAULT_SEED, None)
        ctx.violate({}, "suite completes", f"{type(exc).__name__}: {exc}")
        return VerificationReport(
            suite=name,
            claim=_REGISTRY[name].claim,
            range={},
            cases_checked=0,
            violations=ctx.violations,
            elapsed_ms=0.0,
            notes=[f"suite aborted: {type(exc).__name__}"],
        )


def _shares(sweep: SweepRange) -> tuple[list[str], list[str]]:
    """Every suite, split between two processes: longest budget estimate
    first, each to the side with the smaller estimated total (ties to the
    first side). A pure function of the registry and the resolved box."""

    def estimate(name: str) -> float:
        spec = _REGISTRY[name]
        try:
            return spec.estimator(_resolve_params(spec, sweep)[0])
        except Exception:  # the suite raises again when it runs, and aborts
            return 0.0

    est = {name: estimate(name) for name in _REGISTRY}
    sides: tuple[list[str], list[str]] = ([], [])
    totals = [0.0, 0.0]
    for name in sorted(est, key=est.__getitem__, reverse=True):  # stable: ties keep registry order
        side = 0 if totals[0] <= totals[1] else 1
        sides[side].append(name)
        totals[side] += est[name]
    return sides


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    """A fork may split the suites: it exists, a second CPU is there to run
    the child, and no other thread is running, whose locks the child would
    inherit held."""
    import threading

    return hasattr(os, "fork") and _cpus() >= 2 and threading.active_count() == 1


def _load_reports(data: bytes, names: list[str]) -> list[VerificationReport] | None:
    """The reports a child sent for `names`, or None if they cannot be read."""
    try:
        reports = [VerificationReport(*fields) for fields in marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        return None
    return reports if [r.suite for r in reports] == names else None


def _run_forked(
    mine: list[str], theirs: list[str], sweep: SweepRange, bump: Kernel | None, budget: float
) -> list[VerificationReport]:
    """Run `theirs` in a forked child while this process runs `mine`. The
    child sends its reports back over a pipe as marshalled tuples (marshal
    is loaded with the interpreter; `pickle` would cost an import of about
    3.6 ms) and leaves by `os._exit`, so it flushes and runs nothing of the
    parent's. If it dies or its reports cannot be read, this process runs
    `theirs` itself, and if no child can be started (no descriptor, process
    or memory left), it runs every suite here."""
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return [_run_or_abort(name, sweep, bump, budget) for name in mine + theirs]
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            sent = [tuple(_run_or_abort(name, sweep, bump, budget)) for name in theirs]
            with open(write_fd, "wb") as out:
                out.write(marshal.dumps(sent))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    data = None
    with open(read_fd, "rb") as src:
        try:
            reports = [_run_or_abort(name, sweep, bump, budget) for name in mine]
            data = src.read()
        finally:
            if data is None:  # this process is leaving early: stop the child
                import signal

                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    sent = _load_reports(data, theirs) if os.waitstatus_to_exitcode(status) == 0 else None
    if sent is None:
        sent = [_run_or_abort(name, sweep, bump, budget) for name in theirs]
    return reports + sent


def run_all(
    sweep: SweepRange | None = None,
    *,
    bump: Kernel | None = None,
    budget_ms: float | None = None,
) -> list[VerificationReport]:
    """Run every registered suite and return the reports in registry order.

    The bump and the budget are checked once, before any suite runs, so a
    custom or unbumped `bump` or a malformed CONVOLVIUM_BUDGET_MS raises
    ValueError (a usage error) instead of becoming one failing report per
    suite. A suite that raises (over budget, or a genuine bug) is converted
    into a failing report rather than aborting the batch.

    Where the process can fork, may run on two or more CPUs and runs no
    other thread, the suites run in two processes: a forked child runs one
    share (`_shares`) and sends its reports back, this process runs the
    other, and the child is reaped before this returns. Every report is the
    one a serial run gives; only `elapsed_ms` differs, as each suite's wall
    time is taken while the other share runs. Otherwise the suites run one
    after another here.
    """
    _check_bump(bump)
    budget = _resolve_budget(budget_ms)
    sweep = sweep if sweep is not None else SweepRange()
    if not _can_fork():
        return [_run_or_abort(name, sweep, bump, budget) for name in _REGISTRY]
    by_name = {r.suite: r for r in _run_forked(*_shares(sweep), sweep, bump, budget)}
    return [by_name[name] for name in _REGISTRY]


def reports_to_json(reports: list[VerificationReport], *, include_timings: bool = False) -> str:
    """Deterministic JSON for a batch of reports.

    With include_timings False (the default) the output is byte-identical
    across runs of the same ranges and seed.
    """
    import json  # imported here so that `import convolvium` loads no writer

    payload = {
        "passed": all(r.passed for r in reports),
        "total_cases": sum(r.cases_checked for r in reports),
        "total_violations": sum(len(r.violations) for r in reports),
        "suites": [r.to_json_dict(include_timings=include_timings) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """CSV of violations only: header suite,params,expected,actual and one
    row per violation. A fully green batch serializes as just the header."""
    import csv
    import json

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "params", "expected", "actual"])
    for report in reports:
        for violation in report.violations:
            writer.writerow(
                [
                    report.suite,
                    json.dumps(violation["parameters"], sort_keys=True),
                    violation["expected"],
                    violation["actual"],
                ]
            )
    return buf.getvalue()
