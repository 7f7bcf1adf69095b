import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from seplines.geom import CanonicalLine, Point, intersect_lines, line_through, orient, pt, sign
from seplines.partition2d import (
    ArrangementCapError,
    Face,
    NotSeparatingError,
    Partition,
    Triangle,
    _assign_points,
    _box_face,
    bounding_box,
    build_arrangement,
    build_partition,
    partition_to_json,
    random_box_lines,
    stabbing_stats,
    triangulate_face,
)
from seplines.sepsys import PointSet, PreconditionError

from .conftest import grid_lines, perturbed_grid, rand_line

UNIT_BOX = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))


def _tri_area2(tri: Triangle) -> Fraction:
    a, b, c = tri
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _face_area2(face: Face) -> Fraction:
    s = Fraction(0)
    t = len(face)
    for i in range(t):
        a, b = face[i], face[(i + 1) % t]
        s += a.x * b.y - b.x * a.y
    return s


def _lines_crossing_box(rng, m):
    out = []
    seen = set()
    while len(out) < m:
        l = rand_line(rng, coeff=20, denom=37)
        corners = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        vals = [l.eval_at(p) for p in corners]
        if any(v == 0 for v in vals):
            continue
        if all(v > 0 for v in vals) or all(v < 0 for v in vals):
            continue
        if l.coeffs() in seen:
            continue
        seen.add(l.coeffs())
        out.append(l)
    return out


def test_arrangement_trivial_cases():
    arr = build_arrangement([], UNIT_BOX)
    assert len(arr.faces) == 1 and arr.euler_ok()
    one = build_arrangement([CanonicalLine.from_coeffs(2, 0, -1)], UNIT_BOX)
    assert len(one.faces) == 2 and one.euler_ok()


def test_arrangement_euler_and_area_random():
    rng = np.random.default_rng(0)
    for m in (2, 5, 10, 20, 35):
        arr = build_arrangement(_lines_crossing_box(rng, m), UNIT_BOX)
        assert arr.euler_ok()
        # faces tile the box exactly
        assert sum(_face_area2(f) for f in arr.faces) == 2


def test_arrangement_duplicate_lines_collapse():
    l = CanonicalLine.from_coeffs(2, 0, -1)
    arr = build_arrangement([l, l, CanonicalLine.from_coeffs(4, 0, -2)], UNIT_BOX)
    assert len(arr.lines) == 1 and len(arr.faces) == 2


def test_arrangement_cap():
    lines = [CanonicalLine.from_coeffs(1, 0, -i) for i in range(513)]
    with pytest.raises(ArrangementCapError):
        build_arrangement(lines, UNIT_BOX)


def test_arrangement_concurrent_lines():
    # Three lines through one interior point still satisfy Euler.
    ls = [
        CanonicalLine.from_coeffs(2, 0, -1),
        CanonicalLine.from_coeffs(0, 2, -1),
        CanonicalLine.from_coeffs(2, -2, 0),
    ]
    arr = build_arrangement(ls, UNIT_BOX)
    assert len(arr.faces) == 6
    assert arr.euler_ok()


def test_triangulate_counts_and_tiling():
    rng = np.random.default_rng(1)
    arr = build_arrangement(_lines_crossing_box(rng, 12), UNIT_BOX)
    for f in arr.faces:
        tris = triangulate_face(f)
        assert len(tris) == len(f) - 2
        assert sum(_tri_area2(t) for t in tris) == _face_area2(f)
        assert all(_tri_area2(t) > 0 for t in tris)


def test_triangulate_trivial():
    tri = (pt(0, 0), pt(1, 0), pt(0, 1))
    assert triangulate_face(tri) == [tri]
    sq = (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
    assert len(triangulate_face(sq)) == 2


def test_triangulate_64gon_log_stabbing():
    # Halving triangulation: any line crosses O(log t) triangles.
    denom = 10 ** 6
    kgon = tuple(
        Point(
            Fraction(round(math.cos(2 * math.pi * i / 64) * denom), denom) + 2,
            Fraction(round(math.sin(2 * math.pi * i / 64) * denom), denom) + 2,
        )
        for i in range(64)
    )
    tris = triangulate_face(kgon)
    assert len(tris) == 62
    part = Partition(
        triangles=tris,
        point_lists=[[] for _ in tris],
        source_sample_size=0,
        sampled_lines=[],
        conforming=True,
        boundary_ties=0,
        attempts=1,
        box=(Fraction(0), Fraction(0), Fraction(4), Fraction(4)),
    )
    test_lines = random_box_lines(part.box, 1000, seed=5)
    mx, mean = stabbing_stats(part, test_lines)
    assert mx <= 2 * math.log2(64)  # = 12
    assert mean <= mx


def test_stabbing_trivial():
    tris = [(pt(0, 0), pt(1, 0), pt(0, 1))]
    part = Partition(tris, [[]], 0, [], True, 0, 1, UNIT_BOX)
    horiz = CanonicalLine.from_coeffs(0, 4, -1)  # y = 1/4 crosses it
    away = CanonicalLine.from_coeffs(0, 1, -5)  # y = 5 misses
    mx, mean = stabbing_stats(part, [horiz, away])
    assert mx == 1 and mean == pytest.approx(0.5)


def test_build_partition_requires_separating_lines():
    P = perturbed_grid(4, seed=0)
    with pytest.raises(NotSeparatingError):
        build_partition(P, grid_lines(4)[:1], r=2, seed=0)


def test_build_partition_negative_seed_is_precondition():
    P = perturbed_grid(4, seed=0)
    with pytest.raises(PreconditionError, match="seed must be non-negative"):
        build_partition(P, grid_lines(4), r=2, seed=-1)


def test_build_partition_conformance_and_conservation():
    P = perturbed_grid(8, seed=2)  # n = 64
    L = grid_lines(8)
    part = build_partition(P, L, r=4, seed=1)
    assert part.conforming
    assert part.max_load() <= math.ceil(64 / 4)
    assert sum(len(pl) for pl in part.point_lists) == 64
    covered = sorted(i for pl in part.point_lists for i in pl)
    assert covered == list(range(64))


def test_build_partition_r1_trivial():
    P = perturbed_grid(4, seed=3)
    part = build_partition(P, grid_lines(4), r=1, seed=0)
    assert part.conforming  # cap n/r = n always holds
    assert sum(len(pl) for pl in part.point_lists) == 16


def test_build_partition_deterministic():
    P = perturbed_grid(6, seed=4)
    L = grid_lines(6)
    a = build_partition(P, L, r=4, seed=9)
    b = build_partition(P, L, r=4, seed=9)
    assert partition_to_json(a) == partition_to_json(b)


def test_partition_json_roundtrip_schema():
    P = perturbed_grid(4, seed=5)
    part = build_partition(P, grid_lines(4), r=2, seed=0)
    doc = partition_to_json(part)
    blob = json.dumps(doc)
    back = json.loads(blob)
    assert back["schema"] == 1
    assert len(back["triangles"]) == len(part.triangles)
    v = back["triangles"][0]["vertices"][0][0]
    num, den = v.split("/")
    assert Fraction(int(num), int(den)) == part.triangles[0][0].x


def test_bounding_box_margin():
    P = PointSet([pt(0, 0), pt(1, 2)])
    x0, y0, x1, y1 = bounding_box(P)
    assert x0 == Fraction(-1, 10) and x1 == Fraction(11, 10)
    assert y0 == Fraction(-1, 5) and y1 == Fraction(11, 5)


# ---------------------------------------------------------------------------
# point location and stabbing against the per-point Fraction loops


def _ref_point_in_triangle(p, tri):
    """(inside-or-on-boundary, on-boundary)."""
    a, b, c = tri
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    inside = o1 >= 0 and o2 >= 0 and o3 >= 0
    return inside, inside and (o1 == 0 or o2 == 0 or o3 == 0)


def _ref_assign_points(P, tris):
    """First containing triangle in construction order, one exact
    orientation test per (point, triangle)."""
    lists = [[] for _ in tris]
    ties = 0
    for i, p in enumerate(P):
        for j, tri in enumerate(tris):
            inside, on_edge = _ref_point_in_triangle(p, tri)
            if inside:
                lists[j].append(i)
                ties += on_edge
                break
        else:
            raise RuntimeError("point not covered by any triangle")
    return lists, ties


def _ref_stabbing_stats(partition, test_lines):
    counts = []
    for line in test_lines:
        c = 0
        for tri in partition.triangles:
            ss = [sign(line.eval_at(v)) for v in tri]
            if not (all(s > 0 for s in ss) or all(s < 0 for s in ss)):
                c += 1
        counts.append(c)
    if not counts:
        return 0, 0.0
    return max(counts), float(np.mean(counts))


def _assign_both(P, lines, box=None):
    arr = build_arrangement(lines, box or bounding_box(P))
    face_tris = [triangulate_face(f) for f in arr.faces]
    tris = [t for ft in face_tris for t in ft]
    got = _assign_points(P, arr, face_tris)
    assert got == _ref_assign_points(P, tris)
    return arr, tris, got


def _scaled(P, lines, s):
    """P and the lines under (x, y) -> (s x, s y)."""
    Q = PointSet([Point(p.x * s, p.y * s) for p in P])
    return Q, [CanonicalLine.from_coeffs(l.a, l.b, l.c * s) for l in lines]


def test_arrangement_face_sign_vectors():
    rng = np.random.default_rng(4)
    lines = _lines_crossing_box(rng, 9)
    arr = build_arrangement(lines + [CanonicalLine.from_coeffs(1, 0, -7)], UNIT_BOX)
    assert len(set(arr.signs)) == len(arr.faces)
    for f, sv in zip(arr.faces, arr.signs):
        inner = Point(sum(v.x for v in f) / len(f), sum(v.y for v in f) / len(f))
        assert sv == tuple(sign(l.eval_at(inner)) for l in arr.lines)


@pytest.mark.parametrize("k,seed,keep", [(4, 0, None), (6, 1, 5), (8, 2, None), (9, 3, 7)])
def test_assign_points_strict_grid_lines(k, seed, keep):
    P = perturbed_grid(k, seed=seed)
    lines = grid_lines(k)
    if keep is not None:
        rng = np.random.default_rng(seed)
        lines = [lines[i] for i in sorted(rng.choice(len(lines), keep, replace=False))]
    _assign_both(P, lines)


@pytest.mark.parametrize("seed", range(4))
def test_assign_points_relaxed_lines_through_points(seed):
    rng = np.random.default_rng(seed)
    P = perturbed_grid(6, seed=seed + 10)
    pairs = [rng.choice(len(P), 2, replace=False) for _ in range(8)]
    lines = [line_through(P[int(i)], P[int(j)]) for i, j in pairs]
    _, _, (_, ties) = _assign_both(P, lines)
    assert ties >= len({int(i) for pr in pairs for i in pr})


@pytest.mark.parametrize("seed", range(3))
def test_assign_points_on_diagonals_and_vertices(seed):
    rng = np.random.default_rng(seed)
    lines = _lines_crossing_box(rng, 6)
    # Three lines through the box centre make a vertex of degree 6.
    lines += [CanonicalLine.from_coeffs(2, -2, 0), CanonicalLine.from_coeffs(2, 2, -2)]
    box = (Fraction(-1, 10), Fraction(-1, 10), Fraction(11, 10), Fraction(11, 10))
    arr = build_arrangement(lines, box)
    tris = [t for f in arr.faces for t in triangulate_face(f)]
    pts = [v for t in tris for v in t]  # arrangement and box vertices
    pts += [Point((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b, _ in tris]  # edges, diagonals
    pts += [Point((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3) for a, b, c in tris]
    grid = rng.integers(0, 98, (40, 2))
    pts += [Point(Fraction(int(x), 97), Fraction(int(y), 97)) for x, y in grid]
    P = PointSet(list(dict.fromkeys(pts)))
    _, _, (lists, ties) = _assign_both(P, lines, box)
    assert ties > len(tris)
    assert sorted(i for pl in lists for i in pl) == list(range(len(P)))


@pytest.mark.parametrize("scale", [
    Fraction(2 ** 70), Fraction(3 ** 50, 7), Fraction(2 ** 398),
    Fraction(2 ** 405, 3), Fraction(1, 2 ** 398), Fraction(5, 2 ** 410),
])
def test_assign_points_large_and_tiny_coordinates(scale):
    P, lines = _scaled(perturbed_grid(5, seed=6), grid_lines(5), scale)
    _assign_both(P, lines)
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, len(P), (6, 2))
    through = [line_through(P[int(i)], P[int(j)]) for i, j in pairs if i != j]
    _, _, (_, ties) = _assign_both(P, through[:4] + lines[:3])
    assert ties > 0


def test_build_partition_matches_reference_assignment():
    P = perturbed_grid(10, seed=12)
    part = build_partition(P, grid_lines(10), r=4, seed=5)
    assert (part.point_lists, part.boundary_ties) == _ref_assign_points(P, part.triangles)


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(2 ** 399), Fraction(1, 2 ** 401)])
def test_stabbing_stats_matches_reference(scale):
    P, lines = _scaled(perturbed_grid(6, seed=9), grid_lines(6), scale)
    part = build_partition(P, lines, r=4, seed=2)
    rng = np.random.default_rng(11)
    verts = sorted({v for t in part.triangles for v in t}, key=lambda v: (v.x, v.y))
    test_lines = random_box_lines(part.box, 40, seed=3) + list(lines[:4])
    for i, j in rng.integers(0, len(verts), (30, 2)):
        if i != j:
            test_lines.append(line_through(verts[int(i)], verts[int(j)]))
    # Through one vertex, in a random direction.
    for i in rng.integers(0, len(verts), 10):
        v = verts[int(i)]
        w = Point(v.x + scale * int(rng.integers(1, 9)), v.y - scale)
        test_lines.append(line_through(v, w))
    assert stabbing_stats(part, test_lines) == _ref_stabbing_stats(part, test_lines)
    assert stabbing_stats(part, []) == (0, 0.0)


# ---------------------------------------------------------------------------
# faces of degenerate arrangements


def _degenerate_lines(seed, m):
    """m lines, duplicates included, most of them through the box corners
    or earlier vertices, or parallel to the box edges (the edges too)."""
    rng = random.Random(seed)
    corners = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    verts = list(corners)
    lines = []
    while len(lines) < m:
        kind = rng.randrange(5)
        grid = pt(Fraction(rng.randrange(-3, 10), 6), Fraction(rng.randrange(-3, 10), 6))
        if kind == 0:  # parallel to an edge
            k = Fraction(rng.randrange(9), 8)
            line = CanonicalLine.from_coeffs(*rng.choice([(1, 0), (0, 1)]), -k)
        elif kind == 1 and lines:  # a duplicate
            lines.append(rng.choice(lines))
            continue
        else:  # through a corner, a vertex or a grid point, and another
            p = rng.choice(corners if kind == 2 else verts)
            q = rng.choice(verts) if kind == 3 else grid
            if p == q:
                continue
            line = line_through(p, q)
        for other in lines:
            v = intersect_lines(line, other)
            if v is not None and 0 <= v.x <= 1 and 0 <= v.y <= 1:
                verts.append(v)
        lines.append(line)
    return lines


def _assert_faces_strictly_convex(arr):
    for f in arr.faces:
        t = len(f)
        assert t >= 3 and len(set(f)) == t
        assert all(orient(f[i - 1], f[i], f[(i + 1) % t]) > 0 for i in range(t))
    assert arr.euler_ok()
    assert sum(_face_area2(f) for f in arr.faces) == _face_area2(_box_face(arr.box))


@pytest.mark.parametrize("seed", range(40))
def test_degenerate_arrangement_faces_strictly_convex(seed):
    lines = _degenerate_lines(seed, 4 + seed % 11)
    arr = build_arrangement(lines, UNIT_BOX)
    assert arr.lines == list(dict.fromkeys(lines))
    _assert_faces_strictly_convex(arr)
    for f, sv in zip(arr.faces, arr.signs):
        assert all(s * sign(l.eval_at(v)) >= 0 for l, s in zip(arr.lines, sv) for v in f)
    # The same lines in a box whose edges they may cross or touch.
    box = (Fraction(-1, 6), Fraction(0), Fraction(7, 6), Fraction(4, 3))
    _assert_faces_strictly_convex(build_arrangement(lines, box))


def _faces_digest(arr):
    text = "|".join(
        ";".join(f"{v.x},{v.y}" for v in f) + ":" + ",".join(map(str, sv))
        for f, sv in zip(arr.faces, arr.signs)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed,m,digest", [
    (5, 14, "a42085fcdb54d1c80a5a9cd25d7d64b2703d718d0ac9be4642cef2acb5f980f4"),
    (17, 18, "54084c834a2dbfcbe422401784536ef09a83cc2dd747a9f19d5af68be8ec3d47"),
])
def test_degenerate_arrangement_faces_pinned(seed, m, digest):
    arr = build_arrangement(_degenerate_lines(seed, m), UNIT_BOX)
    assert _faces_digest(arr) == digest
