"""The bigint-sweep request list and its independent reference answers.

A seed fixes every index, weight and order. The list is 24 groups of 10
library calls in a fixed order; group i draws its sizes just below
(i+1)/24 of each ceiling, and weights and orders cycle from a seeded
offset, so the work per pass hardly moves between seeds while the inputs
do. References come from math.comb and the closed formulas below, never
from convolvium, and are computed outside the timed region.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

GROUPS = 24
HALF_INDEX_MAX = 200  # phi, psi, quarter-psi: sums run to 2n = 400
BINOMIAL_N_MAX = 1500
CENTRAL_N_MAX = 3000
CLEARING_R_MAX = 700  # K_r needs binomial(2r, r)
BOARD_MAX = 200  # n + r of the path boards


def requests(seed: int) -> list[list]:
    """[kind, *args] for every call of one pass, in call order."""
    rng = random.Random(seed)
    out: list[list] = []

    def below(ceiling: int, frac: float, slack: int) -> int:
        return max(1, round(ceiling * frac) - rng.randint(0, slack))

    m_off, r_off, path_r_off = rng.randrange(4), rng.randrange(5), rng.randrange(5)
    for i in range(GROUPS):
        frac = (i + 1) / GROUPS
        n = below(HALF_INDEX_MAX, frac, 4)
        m, r = 1 + (i + m_off) % 4, 1 + (i + r_off) % 5
        big = below(BINOMIAL_N_MAX, frac, 15)
        path_r = 1 + (i + path_r_off) % 5
        path_n = below(BOARD_MAX - 5, frac, 4)
        out += [
            ["phi", n, m, r],
            ["binomial", big, rng.randint(0, big)],
            ["paths-tail", path_n, path_r],
            ["psi", n, m, r],
            ["central", below(CENTRAL_N_MAX, frac, 15)],
            ["paths-band", path_n, path_r],
            ["quarter-psi", n, m, r],
            ["clearing", below(CLEARING_R_MAX, frac, 7)],
            ["gessel", path_n, path_r],
            ["binomial", big, rng.randint(0, 12)],
        ]
    return out


def _exact(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"reference formula not integral: {num}/{den}")
    return q


@lru_cache(maxsize=None)
def _gessel(n: int, r: int) -> int:
    return _exact(r * math.comb(2 * n, n) * math.comb(2 * r, r), 2 * (n + r))


@lru_cache(maxsize=None)
def _super_catalan(n: int, r: int) -> int:
    return _exact(math.comb(2 * n, n) * math.comb(2 * r, r), math.comb(n + r, n))


def _convolution(a, n: int, m: int) -> int:
    big = 2 * n
    return sum((-1) ** k * math.comb(big, k) ** m * a(k) * a(big - k) for k in range(big + 1))


def reference(kind: str, *args: int) -> int:
    """The answer to one request, from math.comb and the closed formulas."""
    if kind in ("phi", "psi", "quarter-psi"):
        n, m, r = args
        number = {
            "phi": lambda k: _gessel(k, r),
            "psi": lambda k: _super_catalan(k, r),
            "quarter-psi": lambda k: _exact(_super_catalan(k, r), 2),
        }[kind]
        return _convolution(number, n, m)
    if kind == "binomial":
        return math.comb(*args)
    if kind == "central":
        (n,) = args
        return math.comb(2 * n, n)
    if kind == "clearing":
        (r,) = args
        return _exact(r * math.comb(2 * r, r), 2)
    if kind in ("gessel", "paths-tail", "paths-band"):
        return _gessel(*args)
    raise ValueError(f"unknown request kind {kind!r}")


def failures(reqs: list[list], refs: list[int], values: list[int]) -> set[int]:
    """Indices of requests whose answer is wrong, including the identities
    tying them together: S(n,r)/2 divides phi, psi = 4 quarter-psi, and
    both path counts equal gessel(n, r)."""
    bad = {i for i, (want, got) in enumerate(zip(refs, values)) if want != got}
    by_args: dict[tuple, dict[str, int]] = {}
    for i, (kind, *args) in enumerate(reqs):
        by_args.setdefault(tuple(args), {})[kind] = i
        if kind == "phi":
            n, _, r = args
            if values[i] % _exact(_super_catalan(n, r), 2):
                bad.add(i)
    for group in by_args.values():
        if "psi" in group and "quarter-psi" in group:
            if values[group["psi"]] != 4 * values[group["quarter-psi"]]:
                bad.update((group["psi"], group["quarter-psi"]))
        paths = [group[k] for k in ("paths-tail", "paths-band", "gessel") if k in group]
        if len({values[i] for i in paths}) > 1:
            bad.update(paths)
    return bad
