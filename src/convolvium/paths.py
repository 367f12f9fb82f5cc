"""Lattice-path counting oracle.

Paths are monotone: unit steps R = (1, 0) and U = (0, 1) from (0, 0) to a
target (x, y). A path "touches" a point if any of its vertices equals it,
endpoints included. A PathSpec forbids touching one of two diagonal sets:

    gessel-tail{r}:  {(x, x) : x >= r}
    prefix-band{n}:  {(x, x) : 1 <= x <= n}   (empty when n = 0)

Counting is a dynamic program, column by column (a cell is left + below, a
forbidden cell 0, the origin 1 unless forbidden), so one board gives the
count at every point it holds. Explicit enumeration is an independent
cross-check for small boards: a depth-first walk from the origin that tries
R before U and abandons a prefix at its first forbidden vertex, so its work
follows the admissible prefixes, not all binomial(x+y, x) step strings.

Both interpretations with target (n+r, n+r-1) count the Gessel number
P(n, r): the tail set with bound r for n >= 0 (`gessel_path_spec`), the band
set with bound n for n >= 1 (`prefix_path_spec`). The verifier's paths suite
reads both off one board per r and one per n, against `exact.gessel`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple

ENUMERATION_LIMIT = 22  # max x+y a board may have for explicit enumeration


class BoardTooLarge(ValueError):
    """Explicit enumeration refused: the board exceeds ENUMERATION_LIMIT."""


class TouchSet(str, Enum):
    GESSEL_TAIL = "gessel-tail"
    PREFIX_BAND = "prefix-band"


class _PathSpecFields(NamedTuple):
    target: tuple[int, int]
    touch_set: TouchSet
    bound: int


class PathSpec(_PathSpecFields):
    """A target corner and the forbidden diagonal set: immutable, validated
    by the constructor (which `_replace` would skip)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PathSpec:
        self = super().__new__(cls, *args, **kwargs)
        x, y = self.target
        if x < 0 or y < 0:
            raise ValueError(f"target must be non-negative, got {self.target}")
        if self.bound < 0:
            raise ValueError(f"bound must be non-negative, got {self.bound}")
        return self

    def forbids(self, x: int, y: int) -> bool:
        if x != y:
            return False
        if self.touch_set is TouchSet.GESSEL_TAIL:
            return x >= self.bound
        return 1 <= x <= self.bound


def gessel_path_spec(n: int, r: int) -> PathSpec:
    """Paths to (n+r, n+r-1) avoiding the diagonal tail {(x,x): x >= r}."""
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    return PathSpec((n + r, n + r - 1), TouchSet.GESSEL_TAIL, r)


def prefix_path_spec(n: int, r: int) -> PathSpec:
    """Paths to (n+r, n+r-1) avoiding the diagonal band {(x,x): 1 <= x <= n}."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    return PathSpec((n + r, n + r - 1), TouchSet.PREFIX_BAND, n)


def _columns(spec: PathSpec) -> Iterator[list[int]]:
    """The DP's columns x = 0..x_max, one list refilled in place: entry y counts paths to (x, y)."""
    x_max, y_max = spec.target
    col = [0] * (y_max + 1)
    for x in range(x_max + 1):
        for y in range(y_max + 1):
            if spec.forbids(x, y):
                col[y] = 0
            elif x == 0 and y == 0:
                col[y] = 1
            else:
                left = col[y] if x > 0 else 0  # col still holds column x-1 here
                below = col[y - 1] if y > 0 else 0
                col[y] = left + below
        yield col


def count_paths(spec: PathSpec) -> int:
    """Number of monotone paths to spec.target avoiding the forbidden set."""
    *_, col = _columns(spec)
    return col[spec.target[1]]


def subdiagonal_counts(spec: PathSpec) -> list[int]:
    """count_paths at (x, x-1), x = 1..x_max, in entry x-1, off one board: a path
    stays below and left of its end, so its count is the same on any board."""
    return [col[x - 1] for x, col in enumerate(_columns(spec)) if x]


def enumerate_paths(spec: PathSpec) -> list[str]:
    """Every admissible path as an R/U step string.

    Ordered by the positions of the R steps (lexicographically ascending).
    Boards with x+y > ENUMERATION_LIMIT raise BoardTooLarge; use count_paths.
    """
    x_max, y_max = spec.target
    length = x_max + y_max
    if length > ENUMERATION_LIMIT:
        raise BoardTooLarge(
            f"board {spec.target} has {length} steps, enumeration is capped "
            f"at {ENUMERATION_LIMIT}"
        )
    found: list[str] = []
    # spec.forbids(x, y) on the board, read once: x == y and lo <= x <= hi
    if spec.touch_set is TouchSet.GESSEL_TAIL:
        lo, hi = spec.bound, x_max
    else:
        lo, hi = 1, spec.bound

    def walk(x: int, y: int, steps: str) -> None:
        # R before U: of two paths, the one taking R where they first part
        # has the earlier R position, so the order is ascending in them
        if x == y and lo <= x <= hi:
            return
        if x == x_max and y == y_max:
            found.append(steps)
            return
        if x < x_max:
            walk(x + 1, y, steps + "R")
        if y < y_max:
            walk(x, y + 1, steps + "U")

    walk(0, 0, "")
    return found
