"""Differential check of verification: `find_unseparated_pair` and
`max_face_load`, which both work through `refine`, against a brute-force
pair loop over exactly computed sign vectors, on seeded degenerate inputs:
collinear points, points on lines, duplicate lines, parallel families,
stars of lines through one point and 400-digit coefficients."""
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from seplines.experiments import max_face_load
from seplines.geom import CanonicalLine, Point, sign
from seplines.sepsys import (
    _KERNEL_THRESHOLD,
    PointSet,
    SeparationMode,
    find_unseparated_pair,
    refine,
)

STRICT, RELAXED = SeparationMode.STRICT, SeparationMode.RELAXED
HUGE = 10 ** 400


def exact_sign_matrix(P, lines):
    xs, ys, d = P.int_coords()
    return np.array(
        [[sign(l.a * x + l.b * y + l.c * d) for l in lines] for x, y in zip(xs, ys)],
        dtype=np.int8,
    ).reshape(len(P), len(lines))


def brute_pair(P, lines, mode):
    """Smallest pair no line separates, by checking every pair."""
    S = exact_sign_matrix(P, lines)
    for i in range(len(P)):
        if mode is STRICT:
            separated = (S[i + 1 :] * S[i] == -1).any(axis=1)
        else:
            separated = (S[i + 1 :] != S[i]).any(axis=1)
        rest = np.nonzero(~separated)[0]
        if len(rest):
            return (i, i + 1 + int(rest[0]))
    return None


def brute_face_load(P, lines):
    if len(P) == 0:
        return 0
    return max(Counter(row.tobytes() for row in exact_sign_matrix(P, lines)).values())


def random_instance(rng, n, m, span):
    """n distinct points on a small rational grid (so many are collinear)
    and m lines of mixed kinds, most of them through points."""
    den = rng.choice([1, 1, 2, 3])
    n = min(n, span * span)
    pts = set()
    while len(pts) < n:
        pts.add(Point(Fraction(rng.randrange(span), den), Fraction(rng.randrange(span), den)))
    pts = sorted(pts, key=lambda p: (rng.random(), p.x, p.y))
    P = PointSet(pts)
    lines = []
    center = pts[0]
    while len(lines) < m:
        kind = rng.randrange(7)
        p, q = rng.choice(pts), rng.choice(pts)
        if kind == 0 and p != q:  # through two points
            a, b = q.y - p.y, p.x - q.x
            lines.append(CanonicalLine.from_coeffs(a, b, -(a * p.x + b * p.y)))
        elif kind == 1:  # a parallel family; offsets of mixed denominators
            a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (3, 1)])
            for _ in range(rng.randrange(2, 6)):
                off = Fraction(rng.randrange(-2 * span, 4 * span), rng.choice([1, 2, 6]) * den)
                lines.append(CanonicalLine.from_coeffs(a, b, off))
        elif kind == 2:  # a star of lines through one point
            for _ in range(rng.randrange(2, 8)):
                a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
                if (a, b) != (0, 0):
                    c = -(a * center.x + b * center.y)
                    lines.append(CanonicalLine.from_coeffs(a, b, c))
        elif kind == 3 and lines:  # a duplicate
            lines.append(rng.choice(lines))
        elif kind == 4:  # 400-digit coefficients, through a point
            a, b = HUGE + rng.randrange(5), rng.randrange(-3, 4)
            lines.append(CanonicalLine.from_coeffs(a, b, -(a * p.x + b * p.y)))
        elif kind == 5:  # 400-digit offset: no point lies on it
            lines.append(CanonicalLine.from_coeffs(1, rng.randrange(3), rng.choice([-1, 1]) * HUGE))
        else:  # an arbitrary line
            a, b = rng.randrange(-9, 10), rng.randrange(1, 10)
            lines.append(CanonicalLine.from_coeffs(a, b, Fraction(rng.randrange(-99, 99), 7)))
    return P, lines[:m]


@pytest.mark.parametrize("mode", [STRICT, RELAXED], ids=["strict", "relaxed"])
def test_small_instances_match_brute_force(mode):
    rng = random.Random(20240611)
    for _ in range(600):
        n, m = rng.randrange(1, 12), rng.randrange(0, 9)
        P, lines = random_instance(rng, n, m, span=rng.choice([3, 5, 9]))
        assert find_unseparated_pair(P, lines, mode) == brute_pair(P, lines, mode)


@pytest.mark.parametrize("mode", [STRICT, RELAXED], ids=["strict", "relaxed"])
def test_large_instances_match_brute_force(mode):
    # Above the old 200,000-entry switch between the exact and kernel paths.
    rng = random.Random(7)
    for k in range(3):
        P, lines = random_instance(rng, 300, 700, span=40)
        assert len(P) * len(lines) > _KERNEL_THRESHOLD
        if k == 2:  # a full separator plus noise
            lines += [CanonicalLine.from_coeffs(2 * den, 0, -(2 * i + 1)) for i in range(80)
                      for den in (1, 2, 3)]
            lines += [CanonicalLine.from_coeffs(0, 2 * den, -(2 * i + 1)) for i in range(80)
                      for den in (1, 2, 3)]
        assert find_unseparated_pair(P, lines, mode) == brute_pair(P, lines, mode)


def test_separating_grid_with_on_line_points():
    # Lines x = k/2, y = k/2 through half the points of an integer grid:
    # relaxed-separating, and the strict answer must come from on-line pairs.
    P = PointSet([Point(x, y) for x in range(12) for y in range(12)])
    lines = [CanonicalLine.from_coeffs(2, 0, -k) for k in range(23)]
    lines += [CanonicalLine.from_coeffs(0, 2, -k) for k in range(23)]
    assert find_unseparated_pair(P, lines, RELAXED) is None
    assert find_unseparated_pair(P, lines, STRICT) == brute_pair(P, lines, STRICT)
    odd = [l for l in lines if l.c % 2]
    assert find_unseparated_pair(P, odd, STRICT) is None


def test_star_through_one_point_stays_small():
    # 400 lines through the centre point: in strict mode the centre joins
    # both sides of every line, but its copies never outnumber the others.
    rng = random.Random(3)
    pts = [Point(0, 0)] + [Point(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
                           for _ in range(500)]
    P = PointSet(list(dict.fromkeys(pts)))
    lines = [CanonicalLine.from_coeffs(a, b, 0)
             for a, b in {(rng.randrange(1, 999), rng.randrange(-999, 999)) for _ in range(400)}]
    classes = refine(P, lines, STRICT)
    assert sum(len(c) for c in classes) <= 2 * len(P)
    assert find_unseparated_pair(P, lines, STRICT) == brute_pair(P, lines, STRICT)


def test_subnormal_coordinates_are_settled_exactly():
    # 2^300 * x with x = (4/3) 2^-1070 is (4/3) 2^-770, just above the
    # y-coordinate 1.32 * 2^-770; as a double, x rounds to 21 * 2^-1074,
    # which would put the first point on the wrong side of the line.
    tiny = Fraction(1, 2 ** 770)
    p = Point(Fraction(4, 3 * 2 ** 1070), Fraction(132, 100) * tiny)
    q = Point(0, Fraction(132, 100) * tiny)
    line = CanonicalLine.from_coeffs(2 ** 300, -1, 0)
    assert line.eval_at(p) > 0 > line.eval_at(q)
    P = PointSet([p, q] + [Point(k, 0) for k in range(1, 400)])
    fill = [CanonicalLine.from_coeffs(2, 0, -(2 * k + 1)) for k in range(1, 400)]
    for mode in (STRICT, RELAXED):
        want = brute_pair(P, [line] + fill, mode)
        assert want != (0, 1)
        assert find_unseparated_pair(P, [line] + fill, mode) == want


def test_max_face_load_matches_brute_force():
    assert max_face_load(PointSet([]), []) == 0
    rng = random.Random(11)
    for _ in range(300):
        n, m = rng.randrange(1, 14), rng.randrange(0, 7)
        P, lines = random_instance(rng, n, m, span=rng.choice([3, 6]))
        assert max_face_load(P, lines) == brute_face_load(P, lines)
    P, lines = random_instance(rng, 300, 700, span=30)
    assert max_face_load(P, lines) == brute_face_load(P, lines)
