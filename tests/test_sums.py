"""Unit tests for kernels and the weighted-sum engine.

The golden convolution value is re-derived here through the lattice-path
oracle and math.comb only, so it does not depend on any arithmetic under
test. Recurrence properties run over random custom kernels: they are claims
about arbitrary integer summands, not about the built-in families.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convolvium import kernels, sums
from convolvium.cli import main as cli_main

from convolvium.exact import (
    NonDivisible,
    catalan,
    binomial,
    exact_div,
    gessel,
    half_super_catalan,
    super_catalan,
)
from convolvium.kernels import (
    Kernel,
    KernelDomainError,
    KernelFamily,
    binomial_pair_kernel,
    binomial_pair_row,
    central_kernel,
    custom_kernel,
    gessel_kernel,
    half_supercat_kernel,
    plain_kernel,
    random_kernel,
    rising_kernel,
    supercat_kernel,
    with_bump,
)
from convolvium.paths import count_paths, gessel_path_spec
from convolvium.sums import (
    direct_sum,
    gessel_convolution,
    m_sum,
    m_sum_lift,
    m_sum_lift_vector,
    m_sum_vector,
    quarter_psi,
    supercat_convolution,
    theorem2_transform,
    theorem2_transform_vector,
)

# --------------------------------------------------------------------- kernels


def test_plain_kernel_is_alternating_sign():
    k = plain_kernel()
    assert [k(4, i, 0) for i in range(5)] == [1, -1, 1, -1, 1]


def test_rising_kernel_values():
    k = rising_kernel()
    # (-1)^k binomial(a+k,k) binomial(a+n-k,n-k) at n=3, a=2
    assert k(3, 0, 2) == 1 * 1 * binomial(5, 3)
    assert k(3, 1, 2) == -1 * binomial(3, 1) * binomial(4, 2)
    assert k(3, 3, 2) == -1 * binomial(5, 3) * 1


def test_central_kernel_values():
    k = central_kernel()
    assert k(2, 1, 0) == -1 * binomial(2, 1) * binomial(2, 1)
    assert k(4, 0, 0) == binomial(8, 4)


def test_supercat_family_kernels_match_number_functions():
    for r in (1, 2, 3):
        sk, hk, gk = supercat_kernel(r), half_supercat_kernel(r), gessel_kernel(r)
        for n in range(7):
            for k in range(n + 1):
                sign = -1 if k % 2 else 1
                assert sk(n, k, 0) == sign * super_catalan(k, r) * super_catalan(n - k, r)
                assert hk(n, k, 0) == sign * half_super_catalan(k, r) * half_super_catalan(n - k, r)
                assert gk(n, k, 0) == sign * gessel(k, r) * gessel(n - k, r)
                assert 4 * hk(n, k, 0) == sk(n, k, 0)


def test_kernel_domain_errors():
    k = plain_kernel()
    with pytest.raises(KernelDomainError):
        k(-1, 0, 0)
    with pytest.raises(KernelDomainError):
        k(3, 4, 0)
    with pytest.raises(KernelDomainError):
        k(3, -1, 0)
    with pytest.raises(KernelDomainError):
        k(3, 1, -1)


def test_custom_kernel_table_and_miss():
    k = custom_kernel({(2, 0, 0): 5, (2, 1, 0): -3, (2, 2, 0): 1})
    assert k(2, 1, 0) == -3
    with pytest.raises(KernelDomainError):
        k(3, 0, 0)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(KernelFamily.SUPERCAT)  # missing order
    with pytest.raises(ValueError):
        Kernel(KernelFamily.GESSEL, order=0)
    with pytest.raises(ValueError):
        Kernel(KernelFamily.PLAIN, order=2)
    with pytest.raises(ValueError):
        Kernel(KernelFamily.CUSTOM)  # missing rows
    with pytest.raises(ValueError):
        Kernel(KernelFamily.PLAIN, rows={})


def test_kernel_labels():
    assert plain_kernel().label == "plain"
    assert gessel_kernel(2).label == "gessel(2)"
    assert custom_kernel({(0, 0, 0): 1}).label == "custom"


def test_with_bump_shifts_exactly_one_point():
    base = central_kernel()
    bumped = with_bump(base, (4, 2, 0), 7)
    for k in range(5):
        delta = bumped(4, k, 0) - base(4, k, 0)
        assert delta == (7 if k == 2 else 0)
    assert bumped(6, 2, 0) == base(6, 2, 0)


def test_binomial_pair_of_half_supercat_is_gessel():
    # dressing the half-super-Catalan kernel with binomial(a+k,a)
    # binomial(a+n-k,a) at a = r-1 reproduces the Gessel kernel pointwise
    for r in (1, 2, 3):
        gk = gessel_kernel(r)
        for n in range(8):
            pair = binomial_pair_kernel(half_supercat_kernel(r), n, r - 1)
            for k in range(n + 1):
                assert pair(n, k, r - 1) == gk(n, k, r - 1)


def test_random_kernel_is_seeded_and_bounded():
    a = random_kernel(random.Random(99), 5, 2)
    b = random_kernel(random.Random(99), 5, 2)
    c = random_kernel(random.Random(100), 5, 2)
    values_a = [a(n, k, s) for n in range(6) for k in range(n + 1) for s in range(3)]
    values_b = [b(n, k, s) for n in range(6) for k in range(n + 1) for s in range(3)]
    values_c = [c(n, k, s) for n in range(6) for k in range(n + 1) for s in range(3)]
    assert values_a == values_b
    assert values_a != values_c
    assert all(-9 <= v <= 9 for v in values_a)


# ----------------------------------------------------------------- kernel rows


def _sign(k):
    return -1 if k % 2 else 1


# each family's value at one point, from math.comb and the number functions
_FAMILY_FORMULAS = [
    (plain_kernel(), lambda n, k, a: _sign(k)),
    (rising_kernel(), lambda n, k, a: _sign(k) * math.comb(a + k, k) * math.comb(a + n - k, n - k)),
    (central_kernel(),
     lambda n, k, a: _sign(k) * math.comb(2 * k, k) * math.comb(2 * (n - k), n - k)),
    (supercat_kernel(2), lambda n, k, a: _sign(k) * super_catalan(k, 2) * super_catalan(n - k, 2)),
    (half_supercat_kernel(3),
     lambda n, k, a: _sign(k) * half_super_catalan(k, 3) * half_super_catalan(n - k, 3)),
    (gessel_kernel(2), lambda n, k, a: _sign(k) * gessel(k, 2) * gessel(n - k, 2)),
]


@pytest.mark.parametrize("kern,formula", _FAMILY_FORMULAS, ids=lambda x: getattr(x, "label", ""))
def test_family_rows_match_formulas(kern, formula):
    for n in range(9):
        for a in range(3):
            row = kern.row(n, a)
            assert isinstance(row, tuple)
            assert row == tuple(formula(n, k, a) for k in range(n + 1))
            assert row == tuple(kern(n, k, a) for k in range(n + 1))


# ------------------------------------------------------------- row walks


def _factor_reference(family, param):
    """The factor f(i) of a built-in family, from math.comb and the point
    functions; param is the order r, or a for the rising family."""
    return {
        "rising": lambda i: math.comb(param + i, i),
        "central": lambda i: math.comb(2 * i, i),
        "supercat": lambda i: super_catalan(i, param),
        "half-supercat": lambda i: half_super_catalan(i, param),
        "gessel": lambda i: gessel(i, param),
    }[family]


def _walked_row(family, param, n):
    if family == "rising":
        return rising_kernel().row(n, param)
    if family == "central":
        return central_kernel().row(n, 0)
    return Kernel(KernelFamily(family), order=param).row(n, 0)


_WALKED = ("rising", "central", "supercat", "half-supercat", "gessel")


@pytest.mark.parametrize("family", _WALKED)
def test_walked_rows_match_point_functions(family):
    # orders 1..5; the rising family's parameter is a, so a = 0 joins them
    for param in range(0 if family == "rising" else 1, 6):
        f = _factor_reference(family, param)
        values = [f(i) for i in range(61)]
        for n in range(61):
            want = tuple(_sign(k) * values[k] * values[n - k] for k in range(n + 1))
            assert _walked_row(family, param, n) == want, (family, param, n)


@pytest.mark.parametrize("family", _WALKED)
def test_walked_row_at_n_400_matches_point_functions(family):
    f = _factor_reference(family, 3)
    values = [f(i) for i in range(401)]
    want = tuple(_sign(k) * values[k] * values[400 - k] for k in range(401))
    assert _walked_row(family, 3, 400) == want


def test_pascal_row_matches_comb():
    for n in range(301):
        assert sums._pascal.__wrapped__(n) == tuple(math.comb(n, k) for k in range(n + 1))
    assert sums._pascal(0) == (1,)
    assert sums._pascal(1) == (1, 1)


def test_walk_checks_every_step():
    assert list(kernels._walk(1, [4, 6], [2, 3])) == [1, 2, 4]
    assert list(kernels._walk(5, [], [])) == [5]
    # the first step is exact, the second is not: the walk stops there
    walk = kernels._walk(3, [2, 1], [3, 4])
    assert next(walk) == 3 and next(walk) == 2
    with pytest.raises(NonDivisible) as err:
        next(walk)
    assert (err.value.a, err.value.b, err.value.remainder) == (2, 4, 2)
    # a wrong Pascal step at n = 5, (n-k)/(k+2), fails loudly instead of flooring
    with pytest.raises(NonDivisible):
        list(kernels._walk(1, range(5, 0, -1), range(2, 7)))


def test_walked_rows_never_read_the_number_caches():
    caches = (catalan, super_catalan, gessel)
    before = [cache.cache_info() for cache in caches]
    for n in (257, 263):  # no other test asks for these rows
        gessel_kernel(7).row(n, 6)
        supercat_kernel(7).row(n, 6)
        half_supercat_kernel(7).row(n, 6)
    assert [cache.cache_info() for cache in caches] == before


def test_bumped_row_shifts_one_entry():
    base = rising_kernel()
    bumped = with_bump(base, (5, 3, 1), -4)
    expected = list(base.row(5, 1))
    expected[3] -= 4
    assert bumped.row(5, 1) == tuple(expected)
    assert bumped.row(5, 0) == base.row(5, 0)  # other a
    assert bumped.row(4, 1) == base.row(4, 1)  # other n
    # a bump outside the row's k range could change nothing: it is refused
    with pytest.raises(ValueError):
        with_bump(base, (5, 6, 1), 9)


def test_row_cache_keeps_bumped_and_plain_rows_apart():
    # asked in turn at one (n, a), each kernel gets its own row, however
    # the two alternate
    base = gessel_kernel(3)
    bumped = with_bump(base, (9, 4, 2), 5)
    plain = base.row(9, 2)
    for _ in range(2):
        assert bumped.row(9, 2)[4] == plain[4] + 5
        assert base.row(9, 2) == plain
        assert Kernel(KernelFamily.GESSEL, order=3).row(9, 2) == plain
    assert bumped.row(9, 2)[:4] == plain[:4] and bumped.row(9, 2)[5:] == plain[5:]


def test_custom_rows_bypass_the_row_cache():
    kern = random_kernel(random.Random(11), 6, 2)
    before = kernels._builtin_row.cache_info()
    for n in range(7):
        for a in range(3):
            kern.row(n, a)
            with_bump(kern, (n, 0, a), 1).row(n, a)
    assert kernels._builtin_row.cache_info() == before


def test_bumped_and_plain_kernels_share_one_cached_row():
    # the bump is applied as the row is served, so a bumped kernel and its
    # unbumped twin build their common row once
    kernels._builtin_row.cache_clear()
    base = gessel_kernel(3)
    bumped = with_bump(base, (9, 2, 2), -7)
    plain = base.row(9, 2)
    row = bumped.row(9, 2)
    assert kernels._builtin_row.cache_info().misses == 1
    assert [k for k in range(10) if row[k] != plain[k]] == [2]
    assert row[2] == plain[2] - 7


def _replayed_draw(seed, n_max, a_max):
    """The seeded draw spelled out point by point, (n, k, a) ascending: the
    values by point, and the generator after the last draw."""
    rng = random.Random(seed)
    values = {}
    for n in range(n_max + 1):
        for k in range(n + 1):
            for a in range(a_max + 1):
                values[(n, k, a)] = rng.randint(-9, 9)
    return values, rng


@pytest.mark.parametrize("n_max,a_max", [(0, 0), (0, 2), (6, 3), (9, 0)])
def test_random_kernel_rows_replay_the_seeded_draw(n_max, a_max):
    values, replay = _replayed_draw(5, n_max, a_max)
    rng = random.Random(5)
    kern = random_kernel(rng, n_max, a_max)
    for n in range(n_max + 1):
        for a in range(a_max + 1):
            assert kern.row(n, a) == tuple(values[(n, k, a)] for k in range(n + 1))
    assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("seed", [0, 1, 24301, 2**64 + 17])
@pytest.mark.parametrize("n_max,a_max", [(0, 0), (3, 5), (12, 1), (30, 0)])
def test_random_kernel_draws_what_randint_draws(seed, n_max, a_max):
    # random_kernel spells out randint(-9, 9) as 5-bit draws with rejection;
    # on this Python both give the same values and leave the same state
    rng, reference = random.Random(seed), random.Random(seed)
    kern = random_kernel(rng, n_max, a_max)
    for n in range(n_max + 1):
        drawn = [reference.randint(-9, 9) for _ in range((n + 1) * (a_max + 1))]
        for a in range(a_max + 1):
            assert kern.row(n, a) == tuple(drawn[a :: a_max + 1])
    assert rng.getstate() == reference.getstate()
    assert rng.random() == reference.random()


def _drawn_one_at_a_time(rng, n_max, a_max):
    """random_kernel's rows as one getrandbits(5) call per value draws them,
    redrawing while >= 19: the reference for its draws in bulk."""
    rows = {}
    for n in range(n_max + 1):
        drawn = []
        for _ in range((n + 1) * (a_max + 1)):
            v = rng.getrandbits(5)
            while v >= 19:
                v = rng.getrandbits(5)
            drawn.append(v - 9)
        for a in range(a_max + 1):
            rows[(n, a)] = tuple(drawn[a :: a_max + 1])
    return rows


@pytest.mark.parametrize("seed", [0, 7, 24301])
@pytest.mark.parametrize("n_max,a_max", [(0, 0), (12, 0), (10, 3), (40, 2)])
def test_random_kernel_draws_what_one_draw_per_value_draws(seed, n_max, a_max):
    # rounds of getrandbits(32 w) must neither skip nor over-draw a word
    rng, reference = random.Random(seed), random.Random(seed)
    assert random_kernel(rng, n_max, a_max).rows == _drawn_one_at_a_time(reference, n_max, a_max)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("seed", [0, 7, 24301])
@pytest.mark.parametrize("n_max,a_max", [(12, 0), (10, 3)])
def test_one_draw_of_fifty_kernels_is_fifty_random_kernels(seed, n_max, a_max):
    # eq8 and thm2 draw their 50 kernels in one call and read them as byte
    # columns: the kernels, their columns and the generator's next value
    # must be those of 50 random_kernel calls
    rng, reference = random.Random(seed), random.Random(seed)
    drawn = kernels._draw(rng, 50 * kernels._drawn_size(n_max, a_max))
    fifty = [random_kernel(reference, n_max, a_max) for _ in range(50)]
    assert [kern.rows for kern in kernels._drawn_kernels(drawn, 50, n_max, a_max)] == [
        kern.rows for kern in fifty
    ]
    for n in range(n_max + 1):
        for a in range(a_max + 1):
            columns = kernels._drawn_columns(drawn, n, a, n_max, a_max)
            assert [[v - 9 for v in column] for column in columns] == [
                list(column) for column in zip(*(kern.row(n, a) for kern in fifty))
            ]
    assert rng.random() == reference.random()


@pytest.mark.parametrize("n_max,a_max", [(-1, 0), (-3, 2), (4, -1)])
def test_a_random_kernel_over_an_empty_box_draws_nothing(n_max, a_max):
    rng = random.Random(3)
    assert random_kernel(rng, n_max, a_max).rows == {}
    assert rng.random() == random.Random(3).random()


def test_custom_and_random_rows_read_the_table():
    table = {(3, k, 2): 10 * k - 7 for k in range(4)}
    assert custom_kernel(table).row(3, 2) == (-7, 3, 13, 23)
    values, _ = _replayed_draw(7, 4, 1)
    kern = random_kernel(random.Random(7), 4, 1)
    for (n, k, a), value in values.items():
        assert kern.row(n, a)[k] == kern(n, k, a) == value


def test_custom_row_miss_raises():
    # a slice without every k is refused when the kernel is built
    with pytest.raises(KernelDomainError, match="k=2"):
        custom_kernel({(2, 0, 0): 1, (2, 1, 0): 2})
    # so is a point that no row can hold
    for point in ((2, 3, 0), (2, -1, 0), (-1, 0, 0), (0, 0, -1)):
        with pytest.raises(KernelDomainError, match="out of domain"):
            custom_kernel({(2, k, 0): k for k in range(3)} | {point: 1})
    kern = custom_kernel({(2, k, 0): k for k in range(3)})
    with pytest.raises(KernelDomainError):
        kern.row(1, 0)
    with pytest.raises(KernelDomainError):
        kern(1, 0, 0)  # a point call reads the whole row
    with pytest.raises(KernelDomainError):
        kern.row(2, 1)
    with pytest.raises(KernelDomainError):  # rows given directly are checked on read
        Kernel(KernelFamily.CUSTOM, rows={(2, 0): (1, 2)})(2, 1, 0)
    with pytest.raises(KernelDomainError):
        plain_kernel().row(-1, 0)
    with pytest.raises(KernelDomainError):
        plain_kernel().row(2, -1)


def test_binomial_pair_row_from_table():
    g = random_kernel(random.Random(11), 6, 2)
    for n in range(7):
        for a in range(3):
            pair = binomial_pair_kernel(g, n, a)
            assert pair.row(n, a) == tuple(
                math.comb(a + k, a) * math.comb(a + n - k, a) * g.row(n, a)[k]
                for k in range(n + 1)
            )


def test_rows_at_n_zero():
    assert plain_kernel().row(0, 0) == (1,)
    assert gessel_kernel(2).row(0, 1) == (gessel(0, 2) ** 2,)
    assert custom_kernel({(0, 0, 0): -3}).row(0, 0) == (-3,)


# ------------------------------------------------------------------ direct_sum


def test_direct_sum_gessel_weight_one():
    assert direct_sum(gessel_kernel(1), 2, 1, 0) == 2


def test_direct_sum_supercat_weight_one():
    assert direct_sum(supercat_kernel(1), 2, 1, 0) == 8


def test_direct_sum_single_term_at_n_zero():
    assert direct_sum(plain_kernel(), 0, 3, 0) == 1
    assert direct_sum(rising_kernel(), 0, 2, 4) == binomial(4, 0) * binomial(4, 0)
    assert direct_sum(custom_kernel({(0, 0, 1): -6}), 0, 5, 1) == -6


def test_direct_sum_validation():
    with pytest.raises(ValueError):
        direct_sum(plain_kernel(), 4, 0, 0)
    with pytest.raises(ValueError):
        direct_sum(plain_kernel(), -1, 1, 0)


# ------------------------------------------------------------- the golden value


def _path_gessel(n: int, r: int) -> int:
    """Gessel number from the lattice-path oracle, no arithmetic shortcut."""
    return count_paths(gessel_path_spec(n, r))


def test_golden_convolution_from_path_oracle():
    # the weight-1 Gessel convolution at n=3, r=2, rebuilt from path counts
    # and math.comb alone
    expected = sum(
        (-1) ** k * math.comb(6, k) * _path_gessel(k, 2) * _path_gessel(6 - k, 2)
        for k in range(7)
    )
    assert expected == 1170
    assert gessel_convolution(3, 1, 2) == 1170


def test_golden_divisibility_pattern():
    value = gessel_convolution(3, 1, 2)
    assert value % 6 == 0  # half the super Catalan number S(3,2) = 12
    assert value % 12 == 6  # but not the full S(3,2)
    assert value % 20 == 10  # and not the central binomial C(6,3)


# -------------------------------------------------------------- m=1 identities


def test_gessel_convolution_weight_one_r_one():
    for n in range(13):
        assert gessel_convolution(n, 1, 1) == catalan(n) * binomial(2 * n, n)


def test_supercat_convolution_weight_one():
    for n in range(11):
        for r in range(1, 6):
            expected = super_catalan(n, r) * super_catalan(n + r, n)
            assert supercat_convolution(n, 1, r) == expected


def test_quarter_psi_dual_route():
    for n in range(9):
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                psi = supercat_convolution(n, m, r)
                quarter = quarter_psi(n, m, r)
                assert 4 * quarter == psi
                assert quarter == exact_div(psi, 4)


@pytest.mark.parametrize("convolution", [gessel_convolution, supercat_convolution, quarter_psi])
def test_a_convolution_names_the_half_index_it_was_given(convolution):
    # the sum runs at 2n, but the caller passed n
    with pytest.raises(ValueError, match=r"^n must be non-negative, got -2$"):
        convolution(-2, 1, 1)


# ----------------------------------------------------------------------- m_sum


def _table_strategy(n_max: int = 8):
    """Random single-a custom kernel tables covering n <= n_max."""
    return st.builds(
        lambda seed: random_kernel(random.Random(seed), n_max, 0),
        st.integers(0, 2**16),
    )


def test_m_sum_vanishes_past_half():
    kern = plain_kernel()
    for n in range(8):
        for j in range(n // 2 + 1, n + 4):
            assert m_sum(kern, n, j, 2, 0) == 0


def test_m_sum_level_zero_offset_zero_is_singly_weighted_sum():
    # even at level 0 the M-sum keeps one binomial weight, from C(n-2j, k-j)
    kern = central_kernel()
    for n in range(9):
        expected = sum(binomial(n, k) * kern(n, k, 0) for k in range(n + 1))
        assert m_sum(kern, n, 0, 0, 0) == expected


@settings(max_examples=40)
@given(_table_strategy(), st.integers(0, 8), st.integers(1, 4))
def test_reduction_direct_sum_is_offset_zero_m_sum(kern, n, m):
    assert direct_sum(kern, n, m, 0) == m_sum(kern, n, 0, m - 1, 0)


@settings(max_examples=40)
@given(_table_strategy(), st.integers(0, 8), st.integers(0, 4), st.integers(0, 2))
def test_lift_recurrence_matches_direct_level(kern, n, j, t):
    assert m_sum_lift(kern, n, j, t, 0) == m_sum(kern, n, j, t + 1, 0)


def test_lift_recurrence_on_builtins():
    for kern, a in ((plain_kernel(), 0), (central_kernel(), 0), (rising_kernel(), 2),
                    (supercat_kernel(2), 1), (gessel_kernel(3), 2)):
        for n in range(9):
            for j in range(n // 2 + 1):
                for t in range(3):
                    assert m_sum_lift(kern, n, j, t, a) == m_sum(kern, n, j, t + 1, a)


def test_m_sum_validation():
    with pytest.raises(ValueError):
        m_sum(plain_kernel(), -1, 0, 0, 0)
    with pytest.raises(ValueError):
        m_sum(plain_kernel(), 4, -1, 0, 0)
    with pytest.raises(ValueError):
        m_sum(plain_kernel(), 4, 0, -1, 0)
    with pytest.raises(ValueError):
        m_sum(plain_kernel(), 4, 0, 0, -1)


# ---------------------------------------------------------------- vector forms


def _ref_m_sum(kern, n, j, t, a):
    """The M-sum by its defining sum, one kernel point at a time."""
    if 2 * j > n:
        return 0
    return math.comb(n - j, j) * sum(
        math.comb(n - 2 * j, k - j) * math.comb(n, k) ** t * kern(n, k, a)
        for k in range(j, n - j + 1)
    )


@settings(max_examples=40)
@given(_table_strategy(), st.integers(0, 8), st.integers(0, 3))
def test_m_sum_vector_is_the_list_of_m_sums(kern, n, t):
    vector = m_sum_vector(kern.row(n, 0), t)
    assert len(vector) == n // 2 + 1
    assert vector == tuple(m_sum(kern, n, j, t, 0) for j in range(n // 2 + 1))
    assert vector == tuple(_ref_m_sum(kern, n, j, t, 0) for j in range(n // 2 + 1))


@settings(max_examples=40)
@given(_table_strategy(), st.integers(0, 8), st.integers(0, 3))
def test_lift_vector_is_the_list_of_lifts(kern, n, t):
    lifted = m_sum_lift_vector(m_sum_vector(kern.row(n, 0), t), n)
    assert lifted == tuple(m_sum_lift(kern, n, j, t, 0) for j in range(n // 2 + 1))
    assert lifted == tuple(_ref_m_sum(kern, n, j, t + 1, 0) for j in range(n // 2 + 1))


@settings(max_examples=30)
@given(
    st.builds(lambda seed: random_kernel(random.Random(seed), 8, 3), st.integers(0, 2**16)),
    st.integers(0, 8),
    st.integers(0, 3),
)
def test_transplant_vector_is_the_list_of_transplants(g, n, a):
    moved = theorem2_transform_vector(m_sum_vector(g.row(n, a), 0), n, a)
    assert len(moved) == n + 1
    assert moved == tuple(theorem2_transform(g, n, j, a) for j in range(n + 1))
    dressed = binomial_pair_kernel(g, n, a)
    assert moved == tuple(_ref_m_sum(dressed, n, j, 0, a) for j in range(n + 1))


def test_vector_forms_at_n_zero_and_odd_n():
    kern = custom_kernel({(0, 0, 0): 7})
    assert m_sum_vector(kern.row(0, 0), 3) == (7,)
    assert m_sum_lift_vector((7,), 0) == (7,)
    assert theorem2_transform_vector((7,), 0, 0) == (7,)
    odd = central_kernel()
    for n in (1, 3, 5, 7):
        vector = m_sum_vector(odd.row(n, 0), 1)
        assert len(vector) == n // 2 + 1
        assert m_sum_lift_vector(vector, n) == m_sum_vector(odd.row(n, 0), 2)


def test_vector_forms_reject_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError):
        m_sum_lift_vector((1, 2), 6)
    with pytest.raises(ValueError):
        theorem2_transform_vector((1, 2, 3, 4), 5, 1)
    with pytest.raises(ValueError):
        m_sum_vector((1, 2, 3), -1)
    with pytest.raises(ValueError):
        m_sum_vector((), 0)


def test_offsets_past_half_read_no_kernel_value():
    # the table has no row at n = 4: any read would raise KernelDomainError
    sparse = custom_kernel({(0, 0, 0): 1})
    for j in (3, 4, 9):
        assert m_sum(sparse, 4, j, 1, 0) == 0
        assert m_sum_lift(sparse, 4, j, 1, 0) == 0
        assert theorem2_transform(sparse, 4, j, 1) == 0
    with pytest.raises(KernelDomainError):
        theorem2_transform(sparse, 4, 2, 1)


# ---------------------------------------------------------- kernel transplant


@settings(max_examples=30)
@given(
    st.builds(lambda seed: random_kernel(random.Random(seed), 8, 3), st.integers(0, 2**16)),
    st.integers(0, 8),
    st.integers(0, 10),
    st.integers(0, 3),
)
def test_transplant_matches_dressed_kernel(g, n, j, a):
    dressed = binomial_pair_kernel(g, n, a)
    assert m_sum(dressed, n, j, 0, a) == theorem2_transform(g, n, j, a)


def test_transplant_gessel_instance():
    # M-sums of the gessel(r) kernel from the half-super-Catalan side
    for r in (1, 2, 3):
        for h in range(6):
            for j in range(h + 1):
                assert m_sum(gessel_kernel(r), 2 * h, j, 0, r - 1) == theorem2_transform(
                    half_supercat_kernel(r), 2 * h, j, r - 1
                )


def test_transplant_offset_past_n_is_zero():
    g = custom_kernel({(2, k, 1): 1 for k in range(3)})
    assert theorem2_transform(g, 2, 3, 1) == 0


def test_scalar_transplant_is_the_vector_entry():
    # every offset j <= n, j > n/2 included, where the scalar form must not
    # read the kernel at all (the sparse table has no row at n)
    g = random_kernel(random.Random(5), 9, 6)
    sparse = custom_kernel({(0, 0, 0): 1})
    for n in range(10):
        for a in range(7):
            moved = theorem2_transform_vector(m_sum_vector(g.row(n, a), 0), n, a)
            for j in range(n + 1):
                assert theorem2_transform(g, n, j, a) == moved[j]
                if 2 * j > n:
                    assert theorem2_transform(sparse, n, j, a) == 0


# ----------------------------------------------------------- coefficient tables
#
# The vector forms and the dressed row read binomial coefficients from
# bounded caches. These references recompute every coefficient with
# math.comb in the test itself, one term at a time.


def _comb_level(row, t):
    n = len(row) - 1
    return tuple(
        math.comb(n - j, j)
        * sum(
            math.comb(n - 2 * j, k - j) * math.comb(n, k) ** t * row[k]
            for k in range(j, n - j + 1)
        )
        for j in range(n // 2 + 1)
    )


def _comb_dressed(row, a):
    n = len(row) - 1
    return tuple(math.comb(a + k, a) * math.comb(a + n - k, a) * row[k] for k in range(n + 1))


def _comb_transplant(level0, n, a):
    out = []
    for j in range(n + 1):
        total = sum(
            math.comb(n - j + l, l) * math.comb(n - j, a - l) * level0[j + a - l]
            for l in range(a + 1)
            if 2 * (j + a - l) <= n
        )
        out.append(math.comb(a + j, a) * total)
    return tuple(out)


_rows = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=41)


@settings(max_examples=40, deadline=None)
@given(_rows, st.integers(0, 6), st.integers(0, 3))
@example([7], 0, 0)  # n = 0
@example([3, -1, 4, -1, 5, -9], 2, 1)  # odd n
@example([2, 7, -1, 8], 5, 3)  # a > n // 2
@example(list(range(-20, 21)), 6, 3)  # n = 40
def test_tables_match_comb_references(row, a, t):
    n = len(row) - 1
    assert m_sum_vector(row, t) == _comb_level(row, t)
    assert m_sum_lift_vector(_comb_level(row, t), n) == _comb_level(row, t + 1)
    dressed = binomial_pair_row(row, a)
    assert dressed == _comb_dressed(row, a)
    level0 = _comb_level(row, 0)
    moved = theorem2_transform_vector(level0, n, a)
    assert moved == _comb_transplant(level0, n, a)
    # theorem 2 itself: the transplant is the dressed row's level-0 vector
    assert moved == _comb_level(dressed, 0) + (0,) * (n - n // 2)


@pytest.mark.parametrize("n", [*range(15), 65, 100, 200])
def test_walked_pascal_rows_match_the_per_offset_code(n):
    # the vector forms walk their Pascal rows inside the call; the per-offset
    # code of scalar `m_sum`, which reads each row from `_pascal`, is the
    # reference for the M-sum walk, and math.comb for the lift walk and for
    # the transplant, whose per-offset code is under test
    rng = random.Random(n)
    rows = (gessel_kernel(3).row(n, 2), tuple(rng.randint(-(10**9), 10**9) for _ in range(n + 1)))
    half = n // 2
    for row in rows:
        for t in (0, 1, 4):
            weighted = sums._weigh(row, t)
            level = tuple(sums._m_sum_at(weighted, n, j) for j in range(half + 1))
            assert sums._m_sums_walked(weighted, n) == level == m_sum_vector(row, t)
            lifted = _comb_level(row, t + 1)
            assert sums._lifts_walked(level, n) == lifted == m_sum_lift_vector(level, n)
        level0 = m_sum_vector(row, 0)
        for a in (0, 3, 4, 6):
            assert theorem2_transform_vector(level0, n, a) == _comb_transplant(level0, n, a)


@pytest.mark.parametrize("n", [100, 200])
def test_a_repeated_wide_call_rebuilds_no_pascal_row(n):
    # read offset by offset through the 64-row cache, a vector call at
    # n = 200 asked for 101 distinct Pascal rows and a repeated call missed
    # about 100 times; at n = 100 a vector and lift pair asked for 76
    row = central_kernel().row(n, 0)
    level = m_sum_vector(row, 1)

    def pair():
        m_sum_vector(row, 1)
        m_sum_lift_vector(level, n)

    for call in (lambda: m_sum_vector(row, 1), lambda: m_sum_lift_vector(level, n), pair):
        call()
        misses = sums._pascal.cache_info().misses
        call()
        assert sums._pascal.cache_info().misses - misses <= 1


def test_binomial_pair_row_validation():
    with pytest.raises(ValueError):
        binomial_pair_row((), 0)
    with pytest.raises(ValueError):
        binomial_pair_row((1, 2), -1)


def test_coefficient_caches_are_bounded(capsys):
    rows = kernels._builtin_row
    for cache in (rows, sums._pascal, catalan, super_catalan, gessel):
        assert cache.cache_info().maxsize is not None
    # a table sweep over more (n, r) pairs than the cache holds stays bounded
    assert cli_main(["table", "gessel", "--n-max", "1500", "--r-max", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 1501 * 3
    assert gessel.cache_info().currsize <= gessel.cache_info().maxsize
    # so does a convolution sweep over more kernel rows than the row cache holds
    misses = rows.cache_info().misses
    assert cli_main(["table", "phi", "--n-max", "40", "--r-max", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 41 * 3
    assert rows.cache_info().misses - misses >= 41 * 3 > rows.cache_info().maxsize
    assert rows.cache_info().currsize <= rows.cache_info().maxsize
    # a scalar M-sum at a large n adds only the two O(n) Pascal rows it reads
    # (n for the weights, n - 2j for the inner sum); never an O(n^2) table
    misses = sums._pascal.cache_info().misses
    m_sum(central_kernel(), 1500, 3, 1)
    assert sums._pascal.cache_info().misses - misses <= 2
