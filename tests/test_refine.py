"""Differential check of verification: `find_unseparated_pair`,
`max_face_load` and the classes of `refine` against a brute-force pair
loop over exactly computed sign vectors, on seeded degenerate inputs:
collinear points, points on lines, duplicate lines, parallel families,
stars of lines through one point and 400-digit coefficients. The block
step of `refine`, one exact key per point copy, is checked against the
one-line split it replaced."""
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from seplines.experiments import max_face_load, random_points
from seplines.geom import CanonicalLine, Point, sign
from seplines.sepsys import (
    _KERNEL_THRESHOLD,
    LineSet,
    PointSet,
    SeparationMode,
    _family_slots,
    _split_block,
    candidate_lines,
    find_unseparated_pair,
    key_groups,
    refine,
    sign_keys,
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


@pytest.mark.parametrize("mode", [STRICT, RELAXED], ids=["strict", "relaxed"])
def test_refine_classes_match_brute_force(mode):
    # Relaxed: the classes are the groups of two or more equal exact rows.
    # Strict: a pair shares a class iff no line strictly separates it.
    rng = random.Random(5)
    for k in range(301):
        n, m = (300, 700) if k == 300 else (rng.randrange(1, 14), rng.randrange(0, 9))
        P, lines = random_instance(rng, n, m, span=40 if k == 300 else rng.choice([3, 5, 9]))
        S = exact_sign_matrix(P, lines)
        classes = [tuple(c.tolist()) for c in refine(P, lines, mode)]
        if mode is RELAXED:
            rows = {}
            for i, row in enumerate(S.tolist()):
                rows.setdefault(tuple(row), []).append(i)
            assert sorted(classes) == sorted(tuple(g) for g in rows.values() if len(g) > 1)
        else:
            shared = {pair for c in classes for pair in combinations(c, 2)}
            unseparated = {
                (i, j) for i, j in combinations(range(len(P)), 2) if not (S[i] * S[j] == -1).any()
            }
            assert shared == unseparated


def reference_split(cls, lo, hi, width, mode, *carry):
    """The one-line split that `refine` applied to each kernel column
    before block keys, kept as the reference for `_split_block`."""
    if mode is SeparationMode.RELAXED:
        key = cls * (2 * width) + lo + hi
    else:
        on = np.nonzero(hi > lo)[0]
        key = np.concatenate([cls * width + lo, cls[on] * width + hi[on]])
        carry = [np.concatenate([a, a[on]]) for a in carry]
    _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    big = counts > 1
    keep = big[inv]
    return (np.cumsum(big) - 1)[inv[keep]], [a[keep] for a in carry]


def class_set(cls, copies):
    return sorted(tuple(sorted(copies[cls == c].tolist())) for c in np.unique(cls))


def block_cases():
    """(cls, signs, row): copy k has class cls[k] and signs[row[k]]. As in
    `refine`, the copies of one point carry distinct classes, and two
    points share few zeros (a pair shares at most two of its cells)."""
    rng = np.random.default_rng(12)
    labels = np.array([0, 1, 255, 256, 300, 70_000, 2 ** 40])
    for width in (1, 7, 8, 9, 17):
        for kind in ("nonzero", "zeros", "zero columns", "equal rows", "one copy", "empty"):
            for _ in range(20):
                points = {"one copy": 1, "empty": 0}.get(kind, int(rng.integers(2, 40)))
                signs = rng.choice(np.array([-1, 1], dtype=np.int8), (points, width))
                if kind in ("zeros", "equal rows"):  # a point on one or two lines
                    at = np.arange(points)
                    signs[at, rng.integers(0, width, points)] = 0
                    signs[at, rng.integers(0, width, points)] *= rng.integers(0, 2, points)
                if kind == "zero columns":  # every point on one line
                    signs[:, rng.integers(0, width)] = 0
                if kind == "equal rows" and points:
                    signs[:] = signs[0]
                used = labels[: int(rng.integers(1, len(labels) + 1))]
                cls, row = [], []
                for i in range(points):
                    mine = rng.choice(used, int(rng.integers(1, min(len(used), 3) + 1)), False)
                    cls += mine.tolist()
                    row += [i] * len(mine)
                if kind == "one copy":
                    cls, row = cls[:1], row[:1]
                yield np.array(cls, dtype=np.int64), signs, np.array(row, dtype=np.int64)


@pytest.mark.parametrize("mode", [STRICT, RELAXED], ids=["strict", "relaxed"])
def test_split_block_matches_one_line_splits(mode):
    for cls, signs, row in block_cases():
        want_cls, want_row, copies = cls, row, np.arange(len(cls))
        for j in range(signs.shape[1]):
            s = signs[want_row, j]
            want_cls, (copies, want_row) = reference_split(
                want_cls, s > 0, s >= 0, 2, mode, copies, want_row
            )
        got_cls, (got,) = _split_block(cls, signs, row, mode, np.arange(len(cls)))
        assert class_set(got_cls, got) == class_set(want_cls, copies)


def test_key_groups_of_zero_width_rows():
    first, inv = key_groups(sign_keys(np.zeros((3, 0), dtype=np.int8)))
    assert first.tolist() == [0] and inv.tolist() == [0, 0, 0]


def brute_family_slots(P, pts, fam):
    """(lo, hi) of each point by exact Python-int values: lo lines with the
    point on their positive side, hi - lo lines through it."""
    xs, ys, d = P.int_coords()
    vals = [[l.a * xs[i] + l.b * ys[i] + l.c * d for l in fam] for i in pts.tolist()]
    return [sum(v > 0 for v in row) for row in vals], [sum(v >= 0 for v in row) for row in vals]


def scales_and_offsets(fam):
    """The (gcd(a, b), c) of each line, as refine gives a family to _family_slots."""
    return [(math.gcd(l.a, l.b), l.c) for l in fam]


def family_slot_cases(P):
    """Families of 2..9 distinct lines 3x - 2y + c = 0, some through
    points of P and some between them; point index arrays with repeats,
    as refine passes its copies."""
    rng = random.Random(3)
    a, b = 3, -2
    for _ in range(12):
        fam = []
        for _ in range(rng.randrange(2, 10)):
            p = P[rng.randrange(len(P))]
            c = -(a * p.x + b * p.y)
            if rng.random() < 0.5:
                c += Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 5])) * (abs(a) + abs(b))
            fam.append(CanonicalLine.from_coeffs(a, b, c))
        fam = list(dict.fromkeys(fam))
        if len(fam) >= 2:
            pts = np.array([rng.randrange(len(P)) for _ in range(2 * len(P))], dtype=np.int64)
            yield pts, fam


@pytest.mark.parametrize("regime", ["int64 keys", "keys past 2^62", "coordinates past 2^62"])
def test_family_slots_match_python_ints(regime):
    """Keys G * (p*X + q*Y), with G the lcm of the lines' gcd(a, b), reach
    past 2^62 on the 2^40 grid: a line through a point there has
    gcd(a, b) up to 2^40, as the properized strict outputs do."""
    if regime == "int64 keys":
        rng = random.Random(1)
        P = PointSet(list(dict.fromkeys(
            Point(Fraction(rng.randrange(98), 97), Fraction(rng.randrange(98), 97)) for _ in range(40)
        )))
    else:
        P = random_points(40, 5)
    if regime == "coordinates past 2^62":
        P = PointSet([Point(p.x * 10 ** 25 + 1, p.y * 10 ** 25) for p in P])
    xs, ys, d = P.int_coords()
    assert (max(map(abs, xs + ys)) >= 2 ** 62) == (regime == "coordinates past 2^62")
    keys_big = on_line = False
    for pts, fam in family_slot_cases(P):
        lo, hi = _family_slots(P, pts, (3, -2), scales_and_offsets(fam))
        assert (lo.tolist(), hi.tolist()) == brute_family_slots(P, pts, fam)
        on_line |= bool((hi > lo).any())
        G = math.lcm(*(math.gcd(l.a, l.b) for l in fam))
        keys_big |= max(abs(G * (3 * x - 2 * y)) for x, y in zip(xs, ys)) >= 2 ** 62
    assert on_line and keys_big == (regime != "int64 keys")


@pytest.mark.parametrize("case", ["direction", "coordinates"])
def test_family_slots_one_factor_past_int64(case):
    """Small keys from a factor past int64: p = 2^70 where every X is 0,
    or X up to 2 * 10^25 where p is 0."""
    if case == "direction":
        P = PointSet([Point(0, k) for k in range(3)])
        fam, direction = [CanonicalLine(2 ** 71, 2, -1), CanonicalLine(2 ** 71, 2, -3)], (2 ** 70, 1)
    else:
        P = PointSet([Point(k * 10 ** 25, k) for k in range(3)])
        fam, direction = [CanonicalLine(0, 2, -1), CanonicalLine(0, 2, -3)], (0, 1)
    pts = np.arange(3)
    lo, hi = _family_slots(P, pts, direction, scales_and_offsets(fam))
    assert (lo.tolist(), hi.tolist()) == brute_family_slots(P, pts, fam)
    assert find_unseparated_pair(P, fam, STRICT) is None


def pair_sample_cases():
    """(P, idx): candidate-line indices, with repeats, drawn on grids with
    parallel families and on the 2^40 grid, past 2^62 and in general."""
    rng = np.random.default_rng(27)
    grids = [PointSet([Point(x, y) for x in range(k) for y in range(k)]) for k in (3, 5, 7)]
    big = PointSet([Point(x * 10 ** 25 + 1, y * 10 ** 25) for x in range(4) for y in range(4)])
    for P in grids + [big, random_points(60, 3), random_points(200, 4)]:
        m = len(candidate_lines(P))
        for size in (1, 5, m // 3 + 1, 2 * m):
            yield P, rng.integers(0, m, size)
        yield P, np.arange(m)


@pytest.mark.parametrize("mode", [STRICT, RELAXED], ids=["strict", "relaxed"])
def test_refine_by_pairs_matches_refine_by_coefficients(mode):
    """refine of candidate lines given by point pairs, whose exact
    coefficients come from the pairs, returns the same list as refine of
    the same lines given by their coefficients."""
    for P, idx in pair_sample_cases():
        cand = candidate_lines(P)
        got = refine(P, cand[idx], mode)
        want = refine(P, LineSet.of(cand.lines(idx)), mode)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
