"""Unit tests for the lattice-path oracle.

Enumeration is the ground truth for the DP on small boards; anchors tie the
counts to independently known quantities (Catalan numbers, raw binomials).
"""

from __future__ import annotations

import itertools
import math

import pytest

from convolvium.exact import catalan, gessel
from convolvium.paths import (
    ENUMERATION_LIMIT,
    BoardTooLarge,
    PathSpec,
    TouchSet,
    count_paths,
    enumerate_paths,
    gessel_path_spec,
    prefix_path_spec,
    subdiagonal_counts,
)


def test_four_paths_for_n1_r2():
    spec = gessel_path_spec(1, 2)
    assert count_paths(spec) == 4
    assert sorted(enumerate_paths(spec)) == ["RRRUU", "RRURU", "RURRU", "URRRU"]


def test_catalan_anchor():
    # forbidding the diagonal tail from (1,1) on leaves the Catalan paths
    for n in range(9):
        assert count_paths(gessel_path_spec(n, 1)) == catalan(n)


def test_empty_forbidden_set_counts_all_paths():
    # a prefix band of height 0 forbids nothing
    for p in range(13):
        for q in range(13):
            spec = PathSpec((p, q), TouchSet.PREFIX_BAND, 0)
            assert count_paths(spec) == math.comb(p + q, p)


def test_forbidden_origin_kills_everything():
    spec = PathSpec((3, 2), TouchSet.GESSEL_TAIL, 0)
    assert count_paths(spec) == 0
    assert enumerate_paths(spec) == []


def test_enumeration_matches_dp_on_small_boards():
    for n in range(1, 6):
        for r in range(1, 6):
            if 2 * (n + r) - 1 <= 12:
                for spec in (gessel_path_spec(n, r), prefix_path_spec(n, r)):
                    paths = enumerate_paths(spec)
                    assert len(paths) == count_paths(spec)
                    assert len(set(paths)) == len(paths)
                    for path in paths:
                        assert path.count("R") == spec.target[0]
                        assert path.count("U") == spec.target[1]


def test_enumeration_respects_forbidden_set():
    spec = gessel_path_spec(2, 2)
    for path in enumerate_paths(spec):
        x = y = 0
        for step in path:
            x, y = (x + 1, y) if step == "R" else (x, y + 1)
            assert not spec.forbids(x, y)


def _walks(target):
    """Every choice of R positions on the board to `target`, in
    itertools.combinations order: its step string and the vertex after
    each step."""
    x_max, y_max = target
    length = x_max + y_max
    walks = []
    for r_positions in itertools.combinations(range(length), x_max):
        chosen = set(r_positions)
        x = y = 0
        steps, vertices = [], []
        for i in range(length):
            if i in chosen:
                x += 1
                steps.append("R")
            else:
                y += 1
                steps.append("U")
            vertices.append((x, y))
        walks.append(("".join(steps), vertices))
    return walks


def _filtered_combinations(spec, walks):
    """The reference enumeration: the walks of spec's board, kept when no
    vertex of the path is forbidden."""
    x_max, y_max = spec.target
    if spec.forbids(0, 0):
        return []
    cells = itertools.product(range(x_max + 1), range(y_max + 1))
    forbidden = {(x, y) for x, y in cells if spec.forbids(x, y)}
    return [steps for steps, vertices in walks if forbidden.isdisjoint(vertices)]


def test_walk_matches_the_combinations_filter():
    # same paths in the same order on every small board, both touch sets
    # and bounds 0-8; a gessel tail of bound 0 forbids the origin itself.
    # Each board is walked once and that one list is filtered per spec
    for x in range(15):
        for y in range(15 - x):
            walks = _walks((x, y))
            for touch in TouchSet:
                for bound in range(9):
                    spec = PathSpec((x, y), touch, bound)
                    assert enumerate_paths(spec) == _filtered_combinations(spec, walks), spec
            assert enumerate_paths(PathSpec((x, y), TouchSet.GESSEL_TAIL, 0)) == []


def test_both_interpretations_equal_the_gessel_number():
    for n in range(1, 11):
        for r in range(1, 7):
            value = gessel(n, r)
            assert count_paths(gessel_path_spec(n, r)) == value
            assert count_paths(prefix_path_spec(n, r)) == value


def test_one_board_gives_the_count_at_every_subdiagonal_point():
    # the board to (15, 14) holds every (x, x-1) below it, and the count
    # there is the count on that point's own board; both touch sets, bounds 0-7
    for touch in TouchSet:
        for bound in range(8):
            counts = subdiagonal_counts(PathSpec((15, 14), touch, bound))
            assert counts == [
                count_paths(PathSpec((x, x - 1), touch, bound)) for x in range(1, 16)
            ], (touch, bound)


def test_enumeration_limit():
    # 22 steps is allowed, 23 is not
    ok = PathSpec((21, 1), TouchSet.PREFIX_BAND, 0)
    assert len(enumerate_paths(ok)) == math.comb(22, 21)
    too_big = PathSpec((12, 11), TouchSet.GESSEL_TAIL, 3)
    assert sum(too_big.target) == ENUMERATION_LIMIT + 1
    with pytest.raises(BoardTooLarge):
        enumerate_paths(too_big)


def test_spec_validation():
    with pytest.raises(ValueError):
        PathSpec((-1, 2), TouchSet.GESSEL_TAIL, 1)
    with pytest.raises(ValueError):
        PathSpec((2, 2), TouchSet.GESSEL_TAIL, -1)
    with pytest.raises(ValueError):
        gessel_path_spec(1, 0)
    with pytest.raises(ValueError):
        prefix_path_spec(0, 2)


def test_spec_targets():
    assert gessel_path_spec(3, 2).target == (5, 4)
    assert prefix_path_spec(3, 2).target == (5, 4)
    assert gessel_path_spec(3, 2).bound == 2
    assert prefix_path_spec(3, 2).bound == 3
