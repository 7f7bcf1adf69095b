"""Separability-to-partition construction: sample separating lines, build
their arrangement clipped to a bounding box, triangulate every face with
logarithmic stabbing, and assign points to triangles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geom import CanonicalLine, Point, orient, sign
from .sepsys import PointSet, PreconditionError, SeparationMode, find_unseparated_pair

ARRANGEMENT_LINE_CAP = 512
MAX_SAMPLE_ATTEMPTS = 16


class ArrangementCapError(PreconditionError):
    pass


class NotSeparatingError(PreconditionError):
    pass


Box = Tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, ymin, xmax, ymax
Face = Tuple[Point, ...]  # strictly convex ccw vertex cycle


def _box_face(box: Box) -> Face:
    x0, y0, x1, y1 = box
    return (Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1))


def _split_face(face: Face, line: CanonicalLine) -> Tuple[Optional[Face], Optional[Face]]:
    """Split a convex face by a line into (negative-side, positive-side)
    pieces; a side the face does not reach comes back as None."""
    vals = [line.eval_at(v) for v in face]
    signs = [sign(v) for v in vals]
    if all(s >= 0 for s in signs):
        return None, face
    if all(s <= 0 for s in signs):
        return face, None
    neg: List[Point] = []
    pos: List[Point] = []
    t = len(face)
    for i in range(t):
        v, s = face[i], signs[i]
        if s <= 0:
            neg.append(v)
        if s >= 0:
            pos.append(v)
        s2 = signs[(i + 1) % t]
        if s * s2 < 0:
            w = face[(i + 1) % t]
            # Crossing point on the open edge (v, w).
            frac = vals[i] / (vals[i] - vals[(i + 1) % t])
            x = v.x + frac * (w.x - v.x)
            y = v.y + frac * (w.y - v.y)
            cut = Point(x, y)
            neg.append(cut)
            pos.append(cut)

    def clean(poly: List[Point]) -> Optional[Face]:
        out: List[Point] = []
        for p in poly:
            if not out or p != out[-1]:
                out.append(p)
        if len(out) > 1 and out[0] == out[-1]:
            out.pop()
        if len(out) < 3:
            return None
        # Drop collinear vertices so each face stays strictly convex.
        kept: List[Point] = []
        m = len(out)
        for i in range(m):
            if orient(out[(i - 1) % m], out[i], out[(i + 1) % m]) != 0:
                kept.append(out[i])
        if len(kept) < 3:
            return None
        return tuple(kept)

    return clean(neg), clean(pos)


@dataclass
class ClippedArrangement:
    box: Box
    lines: List[CanonicalLine]
    faces: List[Face]

    def vertex_edge_counts(self) -> Tuple[int, int]:
        verts = set()
        edges = set()
        for f in self.faces:
            t = len(f)
            for i in range(t):
                a, b = f[i], f[(i + 1) % t]
                verts.add((a.x, a.y))
                key = ((a.x, a.y), (b.x, b.y))
                edges.add(key if key[0] <= key[1] else (key[1], key[0]))
        return len(verts), len(edges)

    def euler_ok(self) -> bool:
        v, e = self.vertex_edge_counts()
        return v - e + (len(self.faces) + 1) == 2


def build_arrangement(lines: Sequence[CanonicalLine], box: Box) -> ClippedArrangement:
    """Incremental exact construction: successively split every face
    crossed by each line. Faces are ccw convex vertex cycles that tile the
    box; the Euler relation V - E + F = 2 holds on the result."""
    if len(lines) > ARRANGEMENT_LINE_CAP:
        raise ArrangementCapError(
            f"arrangement capped at {ARRANGEMENT_LINE_CAP} lines, got {len(lines)}"
        )
    x0, y0, x1, y1 = box
    if not (x0 < x1 and y0 < y1):
        raise ValueError("box must have positive extent")
    faces: List[Face] = [_box_face(box)]
    kept: List[CanonicalLine] = []
    seen = set()
    for line in lines:
        if line.coeffs() in seen:
            continue
        seen.add(line.coeffs())
        kept.append(line)
        nxt: List[Face] = []
        for f in faces:
            neg, pos = _split_face(f, line)
            if neg is not None:
                nxt.append(neg)
            if pos is not None:
                nxt.append(pos)
        faces = nxt
    return ClippedArrangement(box=box, lines=kept, faces=faces)


Triangle = Tuple[Point, Point, Point]


def triangulate_face(face: Face) -> List[Triangle]:
    """Halving-round triangulation: connect every other vertex (always
    keeping the first) and recurse on the shrunken polygon. Produces
    exactly t - 2 triangles, and any line crosses O(log t) of them."""
    if len(face) < 3:
        raise ValueError("face needs at least 3 vertices")
    poly = list(face)
    out: List[Triangle] = []
    while len(poly) > 3:
        t = len(poly)
        nxt: List[Point] = []
        k = 0
        while k + 1 < t:
            out.append((poly[k], poly[k + 1], poly[(k + 2) % t]))
            nxt.append(poly[k])
            k += 2
        if k < t:  # odd t: the last vertex survives the round
            nxt.append(poly[t - 1])
        poly = nxt
    if len(poly) == 3:
        out.append((poly[0], poly[1], poly[2]))
    return out


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


def _point_in_triangle(p: Point, tri: Triangle) -> Tuple[bool, bool]:
    """(inside-or-on-boundary, on-boundary)."""
    a, b, c = tri
    o1 = orient(a, b, p)
    o2 = orient(b, c, p)
    o3 = orient(c, a, p)
    inside = o1 >= 0 and o2 >= 0 and o3 >= 0
    return inside, inside and (o1 == 0 or o2 == 0 or o3 == 0)


@dataclass
class Partition:
    triangles: List[Triangle]
    point_lists: List[List[int]]
    source_sample_size: int
    sampled_lines: List[CanonicalLine]
    conforming: bool
    boundary_ties: int
    attempts: int
    box: Box

    def max_load(self) -> int:
        return max((len(pl) for pl in self.point_lists), default=0)


def bounding_box(P: PointSet, margin: Fraction = Fraction(1, 10)) -> Box:
    xs = [p.x for p in P]
    ys = [p.y for p in P]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    padx = (x1 - x0) * margin or Fraction(1)
    pady = (y1 - y0) * margin or Fraction(1)
    return (x0 - padx, y0 - pady, x1 + padx, y1 + pady)


def _assign_points(
    P: PointSet, tris: List[Triangle]
) -> Tuple[List[List[int]], int]:
    """First-containing triangle in construction order; boundary ties
    counted. Floating bbox prefilter, exact confirmation."""
    bbs = []
    for tri in tris:
        xs = [float(v.x) for v in tri]
        ys = [float(v.y) for v in tri]
        bbs.append((min(xs) - 1e-9, max(xs) + 1e-9, min(ys) - 1e-9, max(ys) + 1e-9))
    lists: List[List[int]] = [[] for _ in tris]
    ties = 0
    for i, p in enumerate(P):
        xf, yf = float(p.x), float(p.y)
        placed = False
        for j, (lo, hi, blo, bhi) in enumerate(bbs):
            if not (lo <= xf <= hi and blo <= yf <= bhi):
                continue
            inside, on_edge = _point_in_triangle(p, tris[j])
            if inside:
                lists[j].append(i)
                if on_edge:
                    ties += 1
                placed = True
                break
        if not placed:
            raise RuntimeError("point not covered by any triangle")
    return lists, ties


def build_partition(
    P: PointSet,
    L_sep: Sequence[CanonicalLine],
    r: int,
    seed: int,
    alpha: float = 2.0,
    mode: SeparationMode = SeparationMode.STRICT,
) -> Partition:
    """Sample ceil(alpha*sqrt(r) * ln(alpha*sqrt(r) + 2)) of the separating
    lines, build the clipped arrangement, triangulate, and assign points.
    A draw where some triangle exceeds n/r points is retried up to 16
    times; afterwards the best attempt is returned flagged non-conforming."""
    if r < 1:
        raise PreconditionError(f"r must be at least 1, got {r}")
    try:
        rho = alpha * math.sqrt(r)
    except OverflowError:
        raise PreconditionError(f"r is too large for a float: {int(r).bit_length()} bits") from None
    size = rho * math.log(rho + 2) if alpha > 0 else math.nan
    if not size < math.inf:
        raise PreconditionError(f"alpha must be positive with a finite sample size, got {alpha}")
    bad = find_unseparated_pair(P, list(L_sep), mode)
    if bad is not None:
        raise NotSeparatingError(f"input lines do not separate pair {bad}")
    n = len(P)
    want = math.ceil(size)
    box = bounding_box(P)
    rng = np.random.default_rng(seed)
    cap = math.ceil(n / r)
    best: Optional[Partition] = None
    for attempt in range(1, MAX_SAMPLE_ATTEMPTS + 1):
        if want >= len(L_sep):
            chosen = list(L_sep)
        else:
            idx = rng.choice(len(L_sep), size=want, replace=False)
            chosen = [L_sep[i] for i in sorted(idx.tolist())]
        arr = build_arrangement(chosen, box)
        tris: List[Triangle] = []
        for f in arr.faces:
            tris.extend(triangulate_face(f))
        lists, ties = _assign_points(P, tris)
        part = Partition(
            triangles=tris,
            point_lists=lists,
            source_sample_size=want,
            sampled_lines=chosen,
            conforming=max((len(pl) for pl in lists), default=0) <= max(cap, 1),
            boundary_ties=ties,
            attempts=attempt,
            box=box,
        )
        if part.conforming:
            return part
        if best is None or part.max_load() < best.max_load():
            best = part
        if want >= len(L_sep):
            break  # the sample is the whole set; retrying cannot change it
    assert best is not None
    return best


def stabbing_stats(
    partition: Partition, test_lines: Sequence[CanonicalLine]
) -> Tuple[int, float]:
    """(max, mean) number of triangles intersected per test line; a closed
    triangle is intersected unless all its vertices are strictly on one
    side (exact signs)."""
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


def random_box_lines(box: Box, k: int, seed: int) -> List[CanonicalLine]:
    """k lines through pairs of random rational points on the box boundary
    (for stabbing statistics)."""
    from .geom import line_through

    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    rng = np.random.default_rng(seed)
    denom = 1 << 20
    out: List[CanonicalLine] = []
    while len(out) < k:
        pts = []
        for _ in range(2):
            side = int(rng.integers(0, 4))
            t = Fraction(int(rng.integers(0, denom)), denom)
            if side == 0:
                pts.append(Point(x0 + t * w, y0))
            elif side == 1:
                pts.append(Point(x1, y0 + t * h))
            elif side == 2:
                pts.append(Point(x1 - t * w, y1))
            else:
                pts.append(Point(x0, y1 - t * h))
        if pts[0] == pts[1]:
            continue
        out.append(line_through(pts[0], pts[1]))
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def partition_to_json(partition: Partition) -> dict:
    return {
        "schema": 1,
        "source_sample_size": partition.source_sample_size,
        "conforming": partition.conforming,
        "boundary_ties": partition.boundary_ties,
        "attempts": partition.attempts,
        "box": [_frac_str(v) for v in partition.box],
        "sampled_lines": [[str(l.a), str(l.b), str(l.c)] for l in partition.sampled_lines],
        "triangles": [
            {
                "vertices": [[_frac_str(v.x), _frac_str(v.y)] for v in tri],
                "points": pl,
            }
            for tri, pl in zip(partition.triangles, partition.point_lists)
        ],
    }
