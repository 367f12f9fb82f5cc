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
byte. eq7, eq8 and thm2 each declare one check linear in the kernel row
(`_run_linear`), which checks every kernel at once on one packed row per
(n, a) (`_packed_agrees`), the random rows packed straight from the drawn
bytes (`_drawn_block`), and kernel by kernel only where the packed sides
disagree, so a failing report lists what the kernel-by-kernel sweep lists.
closed-forms compares both sides of each (family, n) as one block of
vectors, every offset of every instance. stanley compares each (a, b, m) as
one packed product, eq14 each (a, b) as one block, and kr each r's window
as one least multiplier. Every suite runs in the calling process.

Runtime protection: each suite declares the cases it checks at a resolved
range. Before running, it refuses (RangeTooLarge) if their estimated time
(`_estimate`) exceeds the budget, taken from the CONVOLVIUM_BUDGET_MS
environment variable when set and 600000 ms otherwise.
"""

from __future__ import annotations

import io
import math
import os
import random
import time
from functools import reduce
from itertools import chain, count
from operator import lshift, mul
from typing import Callable, Iterable, NamedTuple, Sequence

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
    _draw,
    _drawn_columns,
    _drawn_kernels,
    _drawn_size,
    binomial_pair_kernel,
    binomial_pair_row,
)
from .paths import (
    enumerate_paths,
    gessel_path_spec,
    prefix_path_spec,
    subdiagonal_counts,
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
    parameter, and the M-sum side sums at the instance's a. Each side gives
    every offset of one (family, n, instance) at once, one past the half
    index, where both must vanish; the block of one (family, n) is compared
    offset first, then instance."""
    for family in cf.ClosedFormFamily:
        takes_j = "j" in cf.FAMILY_PARAMS[family]
        insts = _instances(ctx, cf.FAMILIES[family][1])
        for n in range(ctx.params["n_max"] + 1):

            def params_at(i: int) -> dict:
                j, inst = divmod(i, len(insts))
                at = {"family": family.value, "n": n, **({"j": j} if takes_j else {})}
                return {**at, **insts[inst][2]}

            ctx.equal_all(
                _j_major([cf.closed_form_vector(family, n=n, **name) for _, _, name in insts]),
                _j_major(
                    [
                        cf.msum_counterpart_vector(family, n=n, kernel=kern, **name)
                        for kern, _, name in insts
                    ]
                ),
                params_at,
            )


def _builtin_kernels(ctx: _SuiteCtx) -> list[tuple[str, Kernel, int]]:
    """Every built-in kernel instance the sweep covers, with its label and
    the `a` it is summed at: plain, central, rising at each a, then the
    three ordered families for each r in turn."""
    unordered = (KernelFamily.PLAIN, KernelFamily.CENTRAL, KernelFamily.RISING)
    ordered = (KernelFamily.SUPERCAT, KernelFamily.HALF_SUPERCAT, KernelFamily.GESSEL)
    instances = chain(
        *(_instances(ctx, family) for family in unordered),
        *zip(*(_instances(ctx, family) for family in ordered)),
    )
    return [(kern.label, kern, a) for kern, a, _ in instances]


def _eq7_sides(row: Sequence[int], n: int, a: int, m_max: int) -> tuple[list[int], list[int]]:
    """Both sides of eq7 for one kernel row at (n, a), at weights m =
    1..m_max: the direct sums and the offset-0 M-sums at level m - 1, each
    through its own function on a custom kernel holding the row."""
    kern = Kernel(KernelFamily.CUSTOM, rows={(n, a): tuple(row)})
    weights = range(1, m_max + 1)
    return (
        [direct_sum(kern, n, m, a) for m in weights],
        [m_sum(kern, n, 0, m - 1, a) for m in weights],
    )


def _j_major(vectors: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The entries of equal-length vectors v_0, v_1, ... ordered by offset
    first: v_0[0], v_1[0], ..., v_0[1], v_1[1], ...; entry i is offset
    i // len(vectors) of vector i % len(vectors)."""
    return tuple(chain.from_iterable(zip(*vectors, strict=True)))


def _eq8_sides(row: Sequence[int], levels_up: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of eq8 for one kernel row, offset-major (`_j_major`): the
    levels 1..levels_up straight from the row, and each of them lifted from
    the level-t vector below it alone."""
    levels = [m_sum_vector(row, t) for t in range(levels_up + 1)]
    lifted = [m_sum_lift_vector(levels[t], len(row) - 1) for t in range(levels_up)]
    return _j_major(levels[1:]), _j_major(lifted)


def _transplant_sides(
    h_row: tuple[int, ...], g_row: tuple[int, ...], n: int, a: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Offsets j = 0..n of the level-0 M-sums of the dressed kernel h, read
    from h's row, and of their transplant, read from g's level-0 vector
    alone."""
    direct = m_sum_vector(h_row, 0) + (0,) * (n - n // 2)
    moved = theorem2_transform_vector(m_sum_vector(g_row, 0), n, a)
    return direct, moved


def _thm2_sides(g_row: tuple[int, ...], n: int, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of thm2 for one row of g: g dressed with its binomial pair."""
    return _transplant_sides(binomial_pair_row(g_row, a), g_row, n, a)


def _packed(rows: list[tuple[int, ...]], bits: int) -> tuple[int, ...]:
    """Equal-length rows as one row: entry k is sum_i rows[i][k] 2^(bits i),
    so row i sits in the signed bits-wide slot i of every entry."""
    shifts = [bits * i for i in range(len(rows))]
    return tuple([sum(map(lshift, column, shifts)) for column in zip(*rows)])


def _packed_drawn(columns: list[bytes], size: int) -> list[int]:
    """Columns of drawn bytes (`kernels._draw`: value + 9 each) as one row:
    entry k holds the value of byte i of column k in the signed size-byte
    slot i, as `_packed` at 8 size bits would. Each column is placed in the
    low byte of every slot of one zeroed buffer and read as one integer, and
    9 in every slot is taken off."""
    count = len(columns[0])
    nines = int.from_bytes(b"\x09".ljust(size, b"\x00") * count, "little")
    slots = bytearray(size * count)
    out = []
    for column in columns:
        slots[::size] = column
        out.append(int.from_bytes(slots, "little") - nines)
    return out


# sides(row, n, a): the two sides of an identity for one kernel row at (n, a)
_Sides = Callable[[Sequence[int], int, int], tuple[Sequence[int], Sequence[int]]]

# a block of rows for `_packed_agrees`: the rows' column-wise largest
# |entry|; pack(bits), the rows as one row in signed slots at least bits
# wide; the number of rows; and the (n, a) the sides read
_Block = tuple[Sequence[int], Callable[[int], Sequence[int]], int, int, int]


def _drawn_block(rows: list[tuple[int, ...]], columns: list[bytes], n: int, a: int) -> _Block:
    """A block of the rows `rows`, packed by shifts (`_packed`), then in the
    slots above them the drawn rows whose byte columns are `columns`
    (`_packed_drawn`), which round the slot width up to whole bytes. Either
    may be empty. A drawn column's largest |entry| is read from its largest
    and smallest byte."""
    top = [max(max(column) - 9, 9 - min(column)) for column in columns]
    if rows:
        shifted = [max(map(abs, column)) for column in zip(*rows)]
        top = list(map(max, top, shifted)) if columns else shifted

    def pack(bits: int) -> Sequence[int]:
        if not columns:
            return _packed(rows, bits)
        size = -(-bits // 8)
        drawn = _packed_drawn(columns, size)
        if not rows:
            return drawn
        shift = 8 * size * len(rows)
        return [low + (high << shift) for low, high in zip(_packed(rows, 8 * size), drawn)]

    return top, pack, len(rows) + (len(columns[0]) if columns else 0), n, a


def _slot_bits(sides: _Sides, top: Sequence[int], n: int, a: int) -> int:
    """The slot width for rows packed at (n, a) whose column-wise largest
    |entry| is `top`: both sides' outputs on top lie below 2^(bits-1)."""
    bound = max(map(abs, chain(*sides(top, n, a))))
    return bound.bit_length() + 1


def _packed_agrees(ctx: _SuiteCtx, blocks: Iterable[_Block], sides: _Sides) -> bool:
    """Whether sides(row, n, a) gives two equal sequences for every row of
    every block; if so, their cases are counted as checking the rows one by
    one counts them.

    Each side is linear in the row, and every coefficient in it is
    non-negative, so a block's rows go through both sides at once, packed
    into one row (Kronecker substitution). A slot of a side's output is
    then that side applied to one row, so its magnitude is at most that
    side applied to the rows' column-wise largest |entry|. With 2^(bits-1)
    above both sides' bounds (`_slot_bits`) every slot has one value, and
    two packed outputs are equal exactly when every slot agrees. The blocks
    are read one at a time, and none after the first mismatch."""
    cases = 0
    for top, pack, count, n, a in blocks:
        direct, other = sides(pack(_slot_bits(sides, top, n, a)), n, a)
        if direct != other:
            return False
        cases += len(direct) * count
    ctx.cases += cases
    return True


def _run_linear(
    ctx: _SuiteCtx,
    builtin: list[tuple[str, Kernel, int]],
    draw: tuple[int, int] | None,
    boxes: list[tuple[int, int]],
    sides: _Sides,
    case: Callable[[int], dict],
) -> None:
    """Check a claim linear in the kernel row on one packed block per box
    (`_packed_agrees`), and only if one disagrees kernel by kernel, each on
    every box in turn: the built-in (label, kernel, a), read at their own a,
    then custom[i], drawn over `draw` = (n_max, a_max) if given and read at
    the box's a. A case is named by label, n, case(i) for its index i, and a."""
    drawn = _draw(ctx.rng(), FUZZ_KERNEL_COUNT * _drawn_size(*draw)) if draw else b""
    columns = (lambda n, a: _drawn_columns(drawn, n, a, *draw)) if draw else (lambda n, a: [])
    blocks = (
        _drawn_block([kern.row(n, own) for _, kern, own in builtin], columns(n, a), n, a)
        for n, a in boxes
    )
    if _packed_agrees(ctx, blocks, sides):
        return
    fuzz = _drawn_kernels(drawn, FUZZ_KERNEL_COUNT, *draw) if draw else []
    for label, kern, own in [*builtin, *((f"custom[{i}]", g, None) for i, g in enumerate(fuzz))]:
        for n, box_a in boxes:
            a = box_a if own is None else own
            at = {"kernel": label, "n": n}
            ctx.equal_all(*sides(kern.row(n, a), n, a), lambda i: {**at, **case(i), "a": a})


def _run_eq7(ctx: _SuiteCtx) -> None:
    p = ctx.params
    _run_linear(
        ctx,
        builtin=_builtin_kernels(ctx),
        draw=None,
        boxes=[(n, 0) for n in range(p["n_max"] + 1)],
        sides=lambda row, n, a: _eq7_sides(row, n, a, p["m_max"]),
        case=lambda i: {"m": i + 1},
    )


def _run_eq8(ctx: _SuiteCtx) -> None:
    p = ctx.params
    _run_linear(
        ctx,
        builtin=_builtin_kernels(ctx),
        draw=(p["n_max"], 0),
        boxes=[(n, 0) for n in range(p["n_max"] + 1)],
        sides=lambda row, n, a: _eq8_sides(row, p["m_max"]),
        case=lambda i: {"j": i // p["m_max"], "t": i % p["m_max"]},
    )


def _run_thm2(ctx: _SuiteCtx) -> None:
    p = ctx.params
    n_max, a_max = p["n_max"], p["a_max"]
    _run_linear(
        ctx,
        builtin=[],
        draw=(n_max, a_max),
        boxes=[(n, a) for n in range(n_max + 1) for a in range(a_max + 1)],
        sides=_thm2_sides,
        case=lambda j: {"j": j},
    )
    # the named instance: the gessel(r) kernel is the binomial-pair dressing
    # of half-supercat(r) at a = r - 1, so the transplant must reproduce its
    # offset M-sums
    h_max = min(6, n_max)
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
    # Each side of one (a, b, m) is packed into one integer, n in slot n of
    # `bits` bits; the right side is the product of w(x) and (1+x)^b at
    # x = 2^bits, whose slot n is sum_k w[k] binomial(b, n-k). A left entry
    # is at most mid^2 and a right one (top+1) lo^2 hi in magnitude, with lo,
    # mid and hi the largest |entry| of the rows up to top, 2 top and 3 top.
    # Both below 2^(bits-1), the slots n <= top of the two sides agree
    # exactly when the low top+1 slots of their difference are 0.
    lo, mid, hi = (
        max(map(abs, chain.from_iterable(pascal[:end]))) for end in (top + 1, 2 * top + 1, width)
    )
    bits = max(mid**2, (top + 1) * lo**2 * hi).bit_length() + 1
    shifts = [bits * n for n in range(top + 1)]
    low = (1 << bits * (top + 1)) - 1
    # (1+x)^b at x = 2^bits, to degree top
    ones = [sum(map(lshift, pascal[b][: top + 1], shifts)) for b in range(top + 1)]
    for a in range(top + 1):
        # down[m][n] = binomial(a+n, m) for n = 0..top
        down = [[pascal[a + n][m] for n in range(top + 1)] for m in range(top + 1)]
        for b in range(top + 1):
            # binomial(a+b+k, k) for k = 0..top
            rising = [pascal[a + b + k][k] for k in range(top + 1)]
            from_b = falling[b]
            for m in range(top + 1):
                # left[n] = binomial(a+n, m) binomial(b+m, n) for n = 0..top
                # and w[k] = binomial(a, m-k) binomial(a+b+k, k) for k = 0..m,
                # each packed as it is made; as lists only if the slots differ
                packed_left = sum(map(lshift, map(mul, down[m], pascal[b + m]), shifts))
                packed_w = sum(map(lshift, map(mul, falling[a][m], rising), shifts))
                if not (packed_left - packed_w * ones[b]) & low:
                    ctx.cases += top + 1
                    continue
                left = list(map(mul, down[m], pascal[b + m]))
                w = list(map(mul, falling[a][m], rising))
                # each sum stops at k = min(m, n), where one of its slices runs out
                ctx.equal_all(
                    left,
                    [sum(map(mul, w, to_n)) for to_n in from_b],
                    lambda n: {"a": a, "b": b, "m": m, "n": n},
                )


def _run_eq14(ctx: _SuiteCtx) -> None:
    top = ctx.params["a_max"]
    for a in range(top + 1):
        # binomial(a, x) for x = 0..a, read by both sides
        row = [binomial(a, x) for x in range(a + 1)]
        for b in range(a + 1):
            ctx.equal_all(
                [row[b] * binomial(b, c) for c in range(b + 1)],
                [row[c] * binomial(a - c, b - c) for c in range(b + 1)],
                lambda c: {"a": a, "b": b, "c": c},
            )


def _run_kr(ctx: _SuiteCtx) -> None:
    window = ctx.params["n_max"]
    expected = f"some n <= {window} where K*binomial(2n,n) is not divisible by n+r"
    for r in range(1, ctx.params["r_max"] + 1):
        cleared = smallest_clearing_factor(r)
        # n + r divides K*binomial(2n, n) exactly when (n + r) / gcd(n + r, binomial(2n, n))
        # divides K, so the multipliers that clear the window are the multiples of their lcm
        least = reduce(math.lcm, map(lambda d, c: d // math.gcd(d, c), count(r), _centrals(window)))
        # case by case only if some n fails
        if cleared % least:
            text = decimal(cleared)
            for n, c in enumerate(_centrals(window)):
                ctx.divides({"r": r, "n": n, "K": text}, n + r, cleared * c)
        else:
            ctx.cases += window + 1
        # minimality, as far as the window can see: every smaller multiplier
        # must fail at some n in it, so none may be a multiple of least
        for cand in range(least, cleared, least):
            ctx.violate({"r": r, "K": cand}, expected, "no witness in window")
        ctx.cases += cleared - 1


def _run_remark1(ctx: _SuiteCtx) -> None:
    kern = ctx.mk(KernelFamily.GESSEL, 2)
    value = direct_sum(kern, 6, 1, 1)
    base = {"n": 3, "m": 1, "r": 2}
    ctx.equal(base, 1170, value)
    ctx.divides({**base, "claim": "divisible by half the super Catalan number"}, 6, value)
    ctx.equal({**base, "claim": "not divisible by the full super Catalan number"}, 6, value % 12)
    ctx.equal({**base, "claim": "not divisible by the central binomial"}, 10, value % 20)


def _run_paths(ctx: _SuiteCtx) -> None:
    n_max, r_max = ctx.params["n_max"], ctx.params["r_max"]
    # the tail's forbidden set depends on r alone and the band's on n alone, so
    # one board per r and one per n hold every (n + r, n + r - 1)
    tail = [subdiagonal_counts(gessel_path_spec(n_max, r))[r:] for r in range(1, r_max + 1)]
    for n in range(1, n_max + 1):
        band = subdiagonal_counts(prefix_path_spec(n, r_max))[n:]
        for r in range(1, r_max + 1):
            counts = {"tail": tail[r - 1][n - 1], "band": band[r - 1]}
            for tag, count in counts.items():
                ctx.equal({"n": n, "r": r, "check": f"{tag}-count"}, gessel(n, r), count)
            if 2 * (n + r) - 1 <= _ENUM_CROSSCHECK_STEPS:
                for tag, make in (("tail", gessel_path_spec), ("band", prefix_path_spec)):
                    ctx.equal(
                        {"n": n, "r": r, "check": f"enumeration-{tag}"},
                        counts[tag],
                        len(enumerate_paths(make(n, r))),
                    )


# ------------------------------------------------------------------- registry


def _linear_grow(params: dict[str, int], defaults: dict[str, int]) -> float:
    """(p + 1) / (default p + 1) for p = n_max and m_max, as a case's cost
    grows about linearly in n and in the weight m (longer powers)."""
    return math.prod(
        (params[p] + 1) / (defaults[p] + 1) for p in ("n_max", "m_max") if p in params
    )


class SuiteSpec(NamedTuple):
    name: str
    claim: str
    defaults: dict[str, int]
    runner: Callable[[_SuiteCtx], None]
    cases: Callable[[dict[str, int]], int | float]  # the runner's cases_checked
    us_per_case: float  # µs, fitted at the default box (README, "Budget guard")
    minimums: dict[str, int] = {}  # over _MIN_DEFAULTS; only ever read
    # a case's cost at params over its cost at defaults, read by _estimate
    grow: Callable[[dict[str, int], dict[str, int]], float] = _linear_grow


def _kr_cases(p: dict[str, int]) -> int | float:
    # each K < K_r counts as a case; refused past r 40 before any K_r is built
    if p["r_max"] > 40:
        return math.inf
    return sum(p["n_max"] + smallest_clearing_factor(r) for r in range(1, p["r_max"] + 1))


def _paths_cases(p: dict[str, int]) -> int:
    # boards with n + r <= most are also enumerated, for both specs
    most = (_ENUM_CROSSCHECK_STEPS + 1) // 2
    small = sum(min(p["r_max"], most - n) for n in range(1, min(p["n_max"], most - 1) + 1))
    return 2 * (p["n_max"] * p["r_max"] + small)


def _paths_grow(params: dict[str, int], defaults: dict[str, int]) -> float:
    """Board cells per case at params over those at defaults: r's tail board
    and n's band board have (k + 1) k cells at k = n_max + r and k = n + r_max,
    and q(m) = m (m + 1) (m + 2) / 3 sums (k + 1) k over k <= m."""

    def cells_per_case(p: dict[str, int]) -> float:
        n, r = p["n_max"], p["r_max"]
        q = [m * (m + 1) * (m + 2) // 3 for m in (n + r, n, r)]
        return (2 * q[0] - q[1] - q[2]) / _paths_cases(p)

    return cells_per_case(params) / cells_per_case(defaults)


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
            lambda p: p["r_max"] * (p["n_max"] + 1) * p["m_max"],
            13.0,
        ),
        SuiteSpec(
            "psi-div",
            "the super Catalan number S(n,r) divides the alternating super "
            "Catalan convolution at every binomial weight",
            {"n_max": 10, "m_max": 4, "r_max": 5},
            _sum_divisible(KernelFamily.SUPERCAT, lambda n, r: super_catalan(n, r)),
            lambda p: p["r_max"] * (p["n_max"] + 1) * p["m_max"],
            9.9,
        ),
        SuiteSpec(
            "phi-m1",
            "at weight 1 and r = 1 the Gessel convolution equals "
            "catalan(n) * binomial(2n, n)",
            {"n_max": 12},
            _run_phi_m1,
            lambda p: p["n_max"] + 1,
            31.0,
        ),
        SuiteSpec(
            "psi-m1",
            "at weight 1 the super Catalan convolution equals S(n,r) * S(n+r,n)",
            {"n_max": 10, "r_max": 5},
            _run_psi_m1,
            lambda p: p["r_max"] * (p["n_max"] + 1),
            19.0,
        ),
        SuiteSpec(
            "calkin",
            "binomial(2n,n) divides the alternating m-th power sum of "
            "binomial(2n,k)",
            {"n_max": 12, "m_max": 5},
            _sum_divisible(KernelFamily.PLAIN, lambda n: central_binomial(n)),
            lambda p: (p["n_max"] + 1) * p["m_max"],
            8.9,
        ),
        SuiteSpec(
            "s2-div",
            "lcm(binomial(a+n,a), binomial(2n,n)) divides the alternating "
            "weighted sum over the rising kernel",
            {"n_max": 10, "m_max": 4, "a_max": 4},
            _sum_divisible(
                KernelFamily.RISING, lambda n, a: lcm(binomial(a + n, a), central_binomial(n))
            ),
            lambda p: (p["a_max"] + 1) * (p["n_max"] + 1) * p["m_max"],
            9.4,
        ),
        SuiteSpec(
            "s3-div",
            "binomial(2n,n) divides the alternating weighted sum over the "
            "central-binomial kernel",
            {"n_max": 10, "m_max": 4},
            _sum_divisible(KernelFamily.CENTRAL, lambda n: central_binomial(n)),
            lambda p: (p["n_max"] + 1) * p["m_max"],
            11.0,
        ),
        SuiteSpec(
            "closed-forms",
            "every closed-form family equals its M-sum evaluated directly, "
            "including one offset past the vanishing boundary",
            {"n_max": 6, "r_max": 4, "a_max": 4},
            _run_closed_forms,
            # j <= n' + 1 at each n' <= n for two plain families, two rising at
            # each a, one central and three ordered at each r; phi-00 at each r
            lambda p: (5 + 2 * p["a_max"] + 3 * p["r_max"]) * (math.comb(p["n_max"] + 3, 2) - 1)
            + p["r_max"] * (p["n_max"] + 1),
            11.7,
        ),
        SuiteSpec(
            "eq7",
            "the weight-m direct sum equals the offset-0 M-sum at level m-1 "
            "for every built-in kernel",
            {"n_max": 12, "m_max": 4, "r_max": 4, "a_max": 4},
            _run_eq7,
            lambda p: (3 + p["a_max"] + 3 * p["r_max"]) * (p["n_max"] + 1) * p["m_max"],
            5.6,
        ),
        SuiteSpec(
            "eq8",
            "the level-raise recurrence reproduces the directly evaluated "
            "M-sum one level up, for built-in and random kernels",
            {"n_max": 12, "m_max": 3, "r_max": 4, "a_max": 4},
            _run_eq8,
            # levels 1..m at j <= n'/2 for each n' <= n, per fuzz kernel and built-in
            # kernel (plain, central, rising at each a, three ordered at each r)
            lambda p: (3 + p["a_max"] + 3 * p["r_max"] + FUZZ_KERNEL_COUNT)
            * p["m_max"] * ((p["n_max"] + 2) ** 2 // 4),
            0.87,
        ),
        SuiteSpec(
            "thm2",
            "transplanting a binomial pair out of the kernel reproduces the "
            "offset M-sums, for random kernels and for the Gessel instance",
            {"n_max": 10, "a_max": 3, "r_max": 4},
            _run_thm2,
            # j <= n at each (n, a) per fuzz kernel, j <= h at n = 2h <= 12 per r
            lambda p: FUZZ_KERNEL_COUNT * (p["a_max"] + 1) * math.comb(p["n_max"] + 2, 2)
            + p["r_max"] * math.comb(min(6, p["n_max"]) + 2, 2),
            0.61,
        ),
        SuiteSpec(
            "eq2-eq4",
            "the Gessel, super Catalan, and half-super-Catalan kernels agree "
            "pointwise and in aggregate under their factorizations",
            {"n_max": 8, "m_max": 3, "r_max": 4},
            _run_eq2_eq4,
            lambda p: p["r_max"] * (2 * p["n_max"] + 1 + 2 * (p["n_max"] + 1) * p["m_max"]),
            16.0,
        ),
        SuiteSpec(
            "stanley",
            "sum_k binomial(a,m-k) binomial(b,n-k) binomial(a+b+k,k) equals "
            "binomial(a+n,m) binomial(b+m,n) over the full box",
            {"n_max": 12},
            _run_stanley,
            lambda p: (p["n_max"] + 1) ** 4,
            0.47,
        ),
        SuiteSpec(
            "eq14",
            "binomial(a,b) binomial(b,c) equals binomial(a,c) "
            "binomial(a-c,b-c) for all c <= b <= a",
            {"a_max": 24},
            _run_eq14,
            lambda p: math.comb(p["a_max"] + 3, 3),
            1.0,
        ),
        SuiteSpec(
            "kr",
            "K_r = (r/2) binomial(2r,r) makes K*binomial(2n,n)/(n+r) integral "
            "for every n in the window, and every smaller K fails somewhere "
            "in it",
            {"n_max": 500, "r_max": 5},
            _run_kr,
            _kr_cases,
            1.1,
        ),
        SuiteSpec(
            "remark1",
            "the weight-1 Gessel convolution at n=3, r=2 is 1170: divisible "
            "by 6 but by neither 12 nor 20",
            {},
            _run_remark1,
            lambda p: 4,
            25.0,
        ),
        SuiteSpec(
            "paths",
            "both forbidden-diagonal path counts equal the Gessel number, and "
            "explicit enumeration matches the counting DP on small boards",
            {"n_max": 10, "r_max": 6},
            _run_paths,
            _paths_cases,
            27.3,
            minimums={"n_max": 1, "r_max": 1},
            grow=_paths_grow,
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


def _estimate(spec: SuiteSpec, params: dict[str, int]) -> tuple[int | float, float]:
    """The cases `spec` declares at `params` and their estimated ms: each at
    the suite's cost, fitted at its default box, times `spec.grow`."""
    cases = spec.cases(params)
    try:
        grow = spec.grow(params, spec.defaults)
        return cases, cases * spec.us_per_case * grow / 1000.0
    except OverflowError:  # past the float range, so no finite budget admits it
        return math.inf, math.inf


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


def _check_seed(sweep: SweepRange) -> None:
    """Refuse a negative seed: random.Random(-s) seeds as Random(s) does, so
    two recorded seeds would replay one draw."""
    if sweep.seed < 0:
        raise ValueError(f"seed must be non-negative, got {sweep.seed}")


def run_suite(
    name: str,
    sweep: SweepRange | None = None,
    *,
    bump: Kernel | None = None,
    budget_ms: float | None = None,
) -> VerificationReport:
    """Run one suite and return its report.

    Raises UnknownSuite for an unregistered name, ValueError for a custom or
    unbumped `bump` or a negative seed, and RangeTooLarge when the resolved
    range's estimated runtime exceeds the budget.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownSuite(
            f"unknown suite {name!r}; known suites: {', '.join(_REGISTRY)}"
        )
    _check_bump(bump)
    sweep = sweep if sweep is not None else SweepRange()
    _check_seed(sweep)
    params, notes = _resolve_params(spec, sweep)
    budget = _resolve_budget(budget_ms)
    cases, est_ms = _estimate(spec, params)
    if est_ms > budget:
        raise RangeTooLarge(
            f"suite {name!r} at {params} is estimated at {cases} cases, ~{est_ms:.0f} ms, "
            f"over the {budget:.0f} ms budget; shrink the range or raise {BUDGET_ENV_VAR}"
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


def run_all(
    sweep: SweepRange | None = None,
    *,
    bump: Kernel | None = None,
    budget_ms: float | None = None,
) -> list[VerificationReport]:
    """Run every registered suite and return the reports in registry order.

    The bump, the seed and the budget are checked once, before any suite
    runs, so a custom or unbumped `bump`, a negative seed or a malformed
    CONVOLVIUM_BUDGET_MS raises ValueError (a usage error) instead of
    becoming one failing report per suite. A suite that raises (over
    budget, or a genuine bug) is converted into a failing report rather
    than aborting the batch. The suites run one after another in this
    process.
    """
    _check_bump(bump)
    sweep = sweep if sweep is not None else SweepRange()
    _check_seed(sweep)
    budget = _resolve_budget(budget_ms)
    return [_run_or_abort(name, sweep, bump, budget) for name in _REGISTRY]


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
