from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from seplines.geom import CanonicalLine, Point, line_through, orient, pt, side
from seplines.sepsys import (
    GeneralPositionError,
    PointSet,
    SeparationMode,
    TooFewPointsError,
    candidate_lines,
    find_unseparated_pair,
    properize,
)

from .conftest import (
    grid_lines, incident_pairs, perturbed_grid, rand_general_position_points,
    with_collinear_triple,
)


SQUARE = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet([pt(0, 0), pt(0, 0)])


def test_int_coords_clears_denominators():
    P = PointSet([pt(Fraction(1, 2), Fraction(1, 3)), pt(Fraction(1, 6), 1)])
    xs, ys, d = P.int_coords()
    assert d == 6
    assert xs == [3, 1] and ys == [2, 6]


def collinear(P) -> bool:
    """Whether three points of P lie on one line, by candidate_lines."""
    return bool(candidate_lines(P).groups)


def test_general_position_detection():
    assert not collinear(SQUARE)  # no 3 collinear
    P = PointSet([pt(0, 0), pt(1, 1), pt(2, 2), pt(0, 1)])
    assert collinear(P)
    assert collinear(PointSet([pt(0, 0), pt(1, 1), pt(2, 2)]))
    assert not collinear(PointSet([pt(0, 0), pt(1, 1)]))
    assert not collinear(rand_general_position_points(8, seed=5))


def test_general_position_matches_orientation_on_small_grids():
    # Points of a 4 x 4 grid in random order: directions of every sign, and
    # later points on both sides of an earlier one.
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(3, 7))
        cells = rng.choice(16, size=k, replace=False)
        P = PointSet([pt(int(c) % 4, int(c) // 4 - 1) for c in cells])
        assert collinear(P) == any(orient(*t) == 0 for t in combinations(P.points, 3))
    assert collinear(PointSet([pt(0, 1), pt(0, 0), pt(0, 2)]))
    assert collinear(PointSet([pt(1, 1), pt(2, 0), pt(0, 2)]))


@pytest.mark.parametrize("n,i,j", [(513, 171, 342), (600, 597, 598)])
def test_general_position_checked_past_512_points(n, i, j):
    assert collinear(with_collinear_triple(n, n, i, j))


def test_pairs_enumeration():
    assert list(SQUARE.pairs()) == list(combinations(range(4), 2))


def test_candidate_lines_counts():
    cand = candidate_lines(SQUARE)
    assert len(cand) == 6
    assert all(len(prs) == 1 for prs in incident_pairs(cand))
    # collinear triple: one shared line for its three pairs
    P = PointSet([pt(0, 0), pt(1, 1), pt(2, 2), pt(5, 0)])
    cand = candidate_lines(P)
    assert len(cand) == 4  # diagonal + three lines to (5,0)
    by_line = {l.coeffs(): prs for l, prs in zip(cand.lines(), incident_pairs(cand))}
    diag = line_through(pt(0, 0), pt(1, 1)).coeffs()
    assert sorted(by_line[diag]) == [(0, 1), (0, 2), (1, 2)]


def test_candidate_lines_pass_through_their_pairs():
    P = rand_general_position_points(7, seed=2)
    cand = candidate_lines(P)
    for line, prs in zip(cand.lines(), incident_pairs(cand)):
        for (i, j) in prs:
            assert line.eval_at(P[i]) == 0
            assert line.eval_at(P[j]) == 0


def test_find_unseparated_pair_strict_vs_relaxed():
    P = PointSet([pt(0, 0), pt(2, 2), pt(1, 0)])
    mid = CanonicalLine.from_coeffs(1, 1, -2)  # x + y = 2, bisects points 0 and 1
    on_line = line_through(pt(0, 0), pt(1, 0))  # y = 0 contains points 0 and 2
    # mid separates (0,1) and (1,2) in both modes, leaving (0,2).
    for mode in SeparationMode:
        assert find_unseparated_pair(P, [mid], mode) == (0, 2)
    # One point of a pair on the line: separated in relaxed mode only.
    assert find_unseparated_pair(P, [on_line], SeparationMode.STRICT) == (0, 1)
    assert find_unseparated_pair(P, [on_line], SeparationMode.RELAXED) == (0, 2)
    # Both points of a pair on the line: separated in neither mode.
    for mode in SeparationMode:
        assert find_unseparated_pair(P, [mid, on_line], mode) == (0, 2)


def test_find_unseparated_pair_exact_small():
    lines = [CanonicalLine.from_coeffs(2, 0, -1)]  # x = 1/2
    assert find_unseparated_pair(SQUARE, lines, SeparationMode.STRICT) == (0, 3)
    lines.append(CanonicalLine.from_coeffs(0, 2, -1))  # y = 1/2
    assert find_unseparated_pair(SQUARE, lines, SeparationMode.STRICT) is None
    assert find_unseparated_pair(SQUARE, [], SeparationMode.RELAXED) == (0, 1)


def test_find_unseparated_pair_strict_catches_on_line_pairs():
    # x = 1 passes through point 1 and splits the other two: enough for
    # Relaxed separation, but pairs touching the line fail Strict.
    P = PointSet([pt(0, 0), pt(1, 1), pt(2, 0)])
    vert = CanonicalLine.from_coeffs(1, 0, -1)
    assert find_unseparated_pair(P, [vert], SeparationMode.RELAXED) is None
    assert find_unseparated_pair(P, [vert], SeparationMode.STRICT) == (0, 1)


def test_find_unseparated_pair_kernel_path_matches_exact():
    # Force the hashed kernel path by inflating the instance size.
    P = perturbed_grid(8, seed=3)  # n = 64
    lines = grid_lines(8)
    # kernel path needs n * m > 200000: pad with lines left of the square
    # that separate nothing
    many = list(lines)
    i = 1
    while len(P) * len(many) <= 200_000:
        many.append(CanonicalLine.from_coeffs(1, 0, i))  # x = -i
        i += 1
    assert find_unseparated_pair(P, many, SeparationMode.RELAXED) is None
    # drop one needed grid line: the kernel path must find a colliding pair
    missing = many[1:]
    bad = find_unseparated_pair(P, missing, SeparationMode.RELAXED)
    assert bad is not None
    # both points of the pair are on the same side of every remaining line
    p, q = P[bad[0]], P[bad[1]]
    assert all(side(l, p) == side(l, q) for l in missing)


def test_properize_strictifies_relaxed_set():
    # y = x separates (0,1) from (1,0) but passes through two points.
    P = PointSet([pt(0, 0), pt(1, 1), pt(0, 1), pt(1, 0)])
    diag = line_through(pt(0, 0), pt(1, 1))
    anti = line_through(pt(0, 1), pt(1, 0))
    relaxed = [diag, anti]
    assert find_unseparated_pair(P, relaxed, SeparationMode.RELAXED) is None
    assert find_unseparated_pair(P, relaxed, SeparationMode.STRICT) is not None
    strict = properize(relaxed, P)
    assert len(strict) <= 3 * len(relaxed)
    assert find_unseparated_pair(P, strict, SeparationMode.STRICT) is None


def test_properize_random_roundtrip():
    for seed in range(5):
        P = rand_general_position_points(7, seed=100 + seed)
        cand = candidate_lines(P)
        # relaxed-separating subset: all candidate lines always works
        relaxed = cand.lines()
        assert find_unseparated_pair(P, relaxed, SeparationMode.RELAXED) is None
        strict = properize(relaxed, P)
        assert find_unseparated_pair(P, strict, SeparationMode.STRICT) is None
        assert len(strict) <= 3 * len(relaxed)


def test_properize_noop_when_no_point_on_line():
    lines = [CanonicalLine.from_coeffs(2, 0, -1), CanonicalLine.from_coeffs(0, 2, -1)]
    assert properize(lines, SQUARE) == lines
