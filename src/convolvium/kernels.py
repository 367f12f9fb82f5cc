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
built-in family is (-1)^k f(k) f(n-k) for one factor f, and a row walks
f(0..n) by the factor's exact step ratio f(i+1)/f(i): one multiplication
and one checked exact division per entry. The point functions in `exact`
(`gessel`, `super_catalan`, ...) stay on math.comb, an independent
reference for the rows. A custom kernel stores whole rows; `custom_kernel`
checks a point table once and converts it. `binomial_pair_row` dresses a
row with the weights binomial(a+k, a) binomial(a+n-k, a), built on each
call: the verifier dresses each (n, a) once or twice per suite.

Random kernels are custom kernels of values drawn uniformly from [-9, 9].
`_draw` makes the draws rng.randint(-9, 9) would make, in bulk, and keeps
each value + 9 in one byte; `random_kernel` builds one kernel's rows from
them. One `_draw` for c kernels' values gives the kernels c calls would
give, so eq8 and thm2 draw their 50 kernels at once and read them as byte
columns (`_drawn_columns`: one (n, k, a) across every kernel), and build
the 50 kernels (`_drawn_kernels`) only when a packed check fails.

Built-in rows are memoised in `_builtin_row`, an lru_cache of 16 rows
keyed by (family, order, n, a); custom kernels store their rows and bypass
it. The verifier asks for the same few rows over and over: one default
`verify all` makes 1951 row requests for 341 distinct rows, and an LRU of
2, 8, 16 or 64 rows misses 1371, 1112, 1112 or 961 of them. Sixteen is
twice the size where the misses level off. A big-n sweep that asks for
each row once gains nothing and keeps at most 16 rows (about 0.74 MB after
one pass of the bigint-sweep benchmark).

The `bump` field is a fault-injection hook for the verifier's sensitivity
tests: `with_bump` adds a non-zero delta to the kernel's value at exactly
one point of a row (any other bump is refused when the kernel is built),
applied when `Kernel.row` serves the row holding that point. A bumped kernel
and its unbumped twin share one cached row, and no cache key carries the bump.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import lru_cache
from operator import mul, neg
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exact import binomial, exact_div

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


class _KernelFields(NamedTuple):
    family: KernelFamily
    order: int | None = None
    rows: Mapping[tuple[int, int], tuple[int, ...]] | None = None  # (n, a) -> row
    bump: tuple[Point, int] | None = None


class Kernel(_KernelFields):
    """An immutable kernel; kernels with equal fields are equal. The
    constructor validates the fields. `_replace` would skip that check, so a
    changed copy is built through `Kernel(...)`, as `with_bump` does."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Kernel:
        self = super().__new__(cls, *args, **kwargs)
        if self.family in PARAMETERIZED_FAMILIES:
            if self.order is None or self.order < 1:
                raise ValueError(f"{self.family.value} kernel requires order >= 1")
        elif self.order is not None:
            raise ValueError(f"{self.family.value} kernel takes no order")
        if (self.rows is None) == (self.family is KernelFamily.CUSTOM):
            raise ValueError("a kernel stores rows exactly when it is custom")
        if self.bump is not None:
            (n, k, a), delta = self.bump
            if delta == 0:
                raise ValueError("bump delta must be non-zero")
            stored = self.rows is None or (n, a) in self.rows
            if n < 0 or a < 0 or not 0 <= k <= n or not stored:
                raise ValueError(f"bump point in no row of the kernel: n={n}, k={k}, a={a}")
        return self

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
        if self.rows is not None:
            row = _custom_row(self.rows, n, a)
        else:
            row = _builtin_row(self.family, self.order, n, a)
        return _bumped(row, self.bump, n, a)

    def __call__(self, n: int, k: int, a: int) -> int:
        if n < 0 or a < 0 or k < 0 or k > n:
            raise KernelDomainError(
                f"kernel point out of domain: n={n}, k={k}, a={a}"
            )
        return self.row(n, a)[k]


def _walk(first: int, nums: Iterable[int], dens: Iterable[int]) -> Iterator[int]:
    """f(0) = first, then f(i+1) = f(i) nums[i] / dens[i] while both last.
    Each division is checked exact, so a wrong ratio raises NonDivisible
    instead of rounding."""
    f = first
    yield f
    for num, den in zip(nums, dens):
        f = exact_div(f * num, den)
        yield f


def _centrals(n: int) -> Iterator[int]:
    """binomial(2i, i) for i = 0..n by the step 2(2i+1)/(i+1), one at a time."""
    return _walk(1, range(2, 4 * n, 4), range(1, n + 1))


def _half_central(r: int) -> int:
    """S(0, r)/2 = P(0, r) = binomial(2r, r)/2."""
    return exact_div(binomial(2 * r, r), 2)


# family -> the factor values f(0..n) of a kernel of order r at (n, a),
# walked from f(0) by the step ratio f(i+1)/f(i) noted above each entry
_FACTORS: dict[KernelFamily, Callable[[int, int, int], Iterable[int]]] = {
    # f = 1
    KernelFamily.PLAIN: lambda r, n, a: [1] * (n + 1),
    # (a+i+1)/(i+1)
    KernelFamily.RISING: lambda r, n, a: _walk(1, range(a + 1, a + n + 1), range(1, n + 1)),
    # 2(2i+1)/(i+1)
    KernelFamily.CENTRAL: lambda r, n, a: _centrals(n),
    # 2(2i+1)/(i+r+1)
    KernelFamily.SUPERCAT: lambda r, n, a: _walk(
        binomial(2 * r, r), range(2, 4 * n, 4), range(r + 1, r + n + 1)
    ),
    # the same step, from S(0, r)/2
    KernelFamily.HALF_SUPERCAT: lambda r, n, a: _walk(
        _half_central(r), range(2, 4 * n, 4), range(r + 1, r + n + 1)
    ),
    # 2(2i+1)(i+r) / ((i+1)(i+r+1))
    KernelFamily.GESSEL: lambda r, n, a: _walk(
        _half_central(r),
        map(mul, range(2, 4 * n, 4), range(r, r + n)),
        map(mul, range(1, n + 1), range(r + 1, r + n + 1)),
    ),
}


def _custom_row(
    rows: Mapping[tuple[int, int], Sequence[int]], n: int, a: int
) -> Sequence[int]:
    row = rows.get((n, a))
    if row is None or len(row) != n + 1:
        raise KernelDomainError(f"custom kernel has no full row at (n={n}, a={a})")
    return row


def _bumped(
    values: Sequence[int], bump: tuple[Point, int] | None, n: int, a: int
) -> tuple[int, ...]:
    """The row `values` at (n, a), with the bump's delta added if its point
    lies in it."""
    if bump is not None:
        (bn, bk, ba), delta = bump
        if bn == n and ba == a:
            values = [*values[:bk], values[bk] + delta, *values[bk + 1 :]]
    return tuple(values)


@lru_cache(maxsize=16)
def _builtin_row(family: KernelFamily, order: int | None, n: int, a: int) -> tuple[int, ...]:
    """The row (-1)^k f(k) f(n-k), k = 0..n, of the built-in kernel (family,
    order) at (n, a), from one walk of its factor f(0..n); never bumped. See
    the module docstring for the bound."""
    f = list(_FACTORS[family](order, n, a))
    row = list(map(mul, f, reversed(f)))
    row[1::2] = map(neg, row[1::2])
    return tuple(row)


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
    """Copy of kernel whose value at `point` is shifted by `delta` (test hook);
    a zero delta or a point no row holds raises ValueError."""
    return Kernel(kernel.family, kernel.order, kernel.rows, (point, delta))


def binomial_pair_row(row: Sequence[int], a: int) -> tuple[int, ...]:
    """The row H(n, 0..n, a) of H(n, k, a) = binomial(a+k, a) binomial(a+n-k, a)
    G(n, k, a), from G's row (G(n, 0, a), ..., G(n, n, a))."""
    if not row or a < 0:
        raise ValueError(f"a binomial pair needs a non-empty row and a >= 0, got a={a}")
    rising = [binomial(a + k, a) for k in range(len(row))]
    return tuple(map(mul, map(mul, rising, reversed(rising)), row))


def binomial_pair_kernel(g: Kernel, n: int, a: int) -> Kernel:
    """The kernel H(n, k, a) = binomial(a+k, a) binomial(a+n-k, a) G(n, k, a),
    stored as the single custom row (n, a)."""
    return Kernel(KernelFamily.CUSTOM, rows={(n, a): binomial_pair_row(g.row(n, a), a)})


# the top byte b of a 32-bit word as the value its top 5 bits draw, b >> 3
# minus 9, stored as b >> 3 = value + 9; the bytes 152 and up (5 bits >= 19)
# are the redraws
_DRAWN = bytes(b >> 3 for b in range(256))
_REDRAWN = bytes(range(152, 256))
# a drawn byte as its value, b - 9, stored as a signed byte
_SIGNED = bytes((b - 9) & 0xFF for b in range(256))


def _draw(rng: random.Random, count: int) -> bytes:
    """`count` values drawn as `count` calls of rng.randint(-9, 9) draw them,
    each stored as value + 9 in one byte.

    Each value is the draw randint makes, spelled out: 5 random bits,
    redrawn while >= 19, minus 9. That is CPython's randrange path, so
    values and generator state match randint's. The draws are made in
    rounds: getrandbits(32 w) gives w words, word i in bits 32i up, and
    getrandbits(5) is the top 5 bits of one word, so the w top bytes,
    redraws deleted, are the values w single draws would give. A round asks
    only for the values still missing, so the generator never runs past the
    last value, as one draw at a time would not. So one call for c kernels'
    values gives the values and the generator state of c calls, one per
    kernel."""
    drawn = bytearray()
    while count > 0:
        words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        kept = words[3::4].translate(_DRAWN, _REDRAWN)
        drawn += kept
        count -= len(kept)
    return bytes(drawn)


def _drawn_size(n_max: int, a_max: int) -> int:
    """The values one random kernel draws: one per point (n, k, a) with
    n <= n_max and a <= a_max."""
    return (a_max + 1) * sum(range(n_max + 2))


def _drawn_kernels(drawn: bytes, count: int, n_max: int, a_max: int) -> list[Kernel]:
    """The `count` random kernels whose draws lie back to back in `drawn`,
    each `_drawn_size` bytes in (n, k, a) ascending order, the layout
    `_drawn_columns` reads."""
    width, size = a_max + 1, _drawn_size(n_max, a_max)
    values = memoryview(drawn.translate(_SIGNED)).cast("b").tolist()
    kernels = []
    for i in range(count):
        rows = {}
        start = i * size
        for n in range(n_max + 1):
            stop = start + (n + 1) * width
            for a in range(width):
                rows[(n, a)] = tuple(values[start + a : stop : width])
            start = stop
        kernels.append(Kernel(KernelFamily.CUSTOM, rows=rows))
    return kernels


def _drawn_columns(drawn: bytes, n: int, a: int, n_max: int, a_max: int) -> list[bytes]:
    """Columns k = 0..n at (n, a) of the random kernels drawn back to back
    in `drawn`: byte i of column k is F(n, k, a) + 9 of kernel i."""
    width = a_max + 1
    start = width * n * (n + 1) // 2 + a
    size = _drawn_size(n_max, a_max)
    return [drawn[s::size] for s in range(start, start + (n + 1) * width, width)]


def random_kernel(rng: random.Random, n_max: int, a_max: int) -> Kernel:
    """Custom kernel whose rows (n, a), n <= n_max, a <= a_max, hold values
    drawn uniformly from [-9, 9] by `_draw`. The draw order is (n, k, a)
    ascending, so a seeded rng reproduces the same kernel, and c kernels
    drawn by one `_draw` of c times the values are the kernels c calls
    draw."""
    return _drawn_kernels(_draw(rng, _drawn_size(n_max, a_max)), 1, n_max, a_max)[0]
