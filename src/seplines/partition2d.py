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

from .geom import CanonicalLine, Point, line_through, sign
from .sepsys import (
    PointSet, PreconditionError, SeparationMode, find_unseparated_pair, int_str, key_groups,
    line_signs, sign_keys,
)

ARRANGEMENT_LINE_CAP = 512
MAX_SAMPLE_ATTEMPTS = 16
BOX_MARGIN = Fraction(1, 10)  # padding on each side, as a share of the span


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

    return tuple(neg), tuple(pos)


@dataclass
class ClippedArrangement:
    box: Box
    lines: List[CanonicalLine]
    faces: List[Face]
    signs: List[Tuple[int, ...]]  # per face, its side (-1 or +1) of each line

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
    """Incremental exact construction: split every face crossed by each
    distinct line. Faces are strictly convex ccw vertex cycles that tile the
    box (V - E + F = 2), each with its sign vector: the side of each line its
    interior lies on. They stay strictly convex with no clean-up: a line with
    vertices strictly on both sides of a face meets its boundary at two
    distinct points, vertices or cuts inside edges, so each piece keeps an
    off-line vertex and no three consecutive collinear vertices."""
    if len(lines) > ARRANGEMENT_LINE_CAP:
        raise ArrangementCapError(
            f"arrangement capped at {ARRANGEMENT_LINE_CAP} lines, got {len(lines)}"
        )
    x0, y0, x1, y1 = box
    if not (x0 < x1 and y0 < y1):
        raise ValueError("box must have positive extent")
    faces: List[Face] = [_box_face(box)]
    signs: List[Tuple[int, ...]] = [()]
    kept = list(dict.fromkeys(lines))
    for line in kept:
        nxt: List[Face] = []
        nxt_signs: List[Tuple[int, ...]] = []
        for f, sv in zip(faces, signs):
            for piece, s in zip(_split_face(f, line), (-1, 1)):
                if piece is not None:
                    nxt.append(piece)
                    nxt_signs.append(sv + (s,))
        faces, signs = nxt, nxt_signs
    return ClippedArrangement(box=box, lines=kept, faces=faces, signs=signs)


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


def bounding_box(P: PointSet) -> Box:
    xs, ys, d = P.int_coords()
    x0, x1, y0, y1 = (Fraction(v, d) for v in (min(xs), max(xs), min(ys), max(ys)))
    padx = (x1 - x0) * BOX_MARGIN or Fraction(1)
    pady = (y1 - y0) * BOX_MARGIN or Fraction(1)
    return (x0 - padx, y0 - pady, x1 + padx, y1 + pady)


def _index_groups(labels: np.ndarray, k: int) -> List[np.ndarray]:
    """For each label 0..k-1, the ascending indices that carry it."""
    cuts = np.cumsum(np.bincount(labels, minlength=k))[:-1]
    return np.split(np.argsort(labels, kind="stable"), cuts)


def _assign_points(
    P: PointSet, arr: ClippedArrangement, face_tris: List[List[Triangle]]
) -> Tuple[List[List[int]], int]:
    """First containing closed triangle in construction order (faces in
    order, each face's triangles contiguous); boundary ties counted.
    Exact. Face rows, then point rows (sign vectors over the arrangement's
    lines) are grouped by their sign_keys; a group's first row names its
    face. A point off every line lies only in its own face's closed
    triangles. A point on a sampled line goes to the first face whose sign
    vector agrees with its nonzero entries: that face's closure holds it
    and no earlier face's does. Only that one face's triangles are tested."""
    starts = np.cumsum([0] + [len(ft) for ft in face_tris])
    F = np.array(arr.signs, dtype=np.int8)
    S = line_signs(P, arr.lines)
    first, inv = key_groups(sign_keys(np.concatenate([F, S])))
    tri_of = np.zeros(len(P), dtype=np.int64)
    ties = 0
    for f, idx in zip(first.tolist(), _index_groups(inv[len(F):], len(first))):
        if f >= len(F):  # on a sampled line
            f = int(np.argmax(((F == S[idx[0]]) | (S[idx[0]] == 0)).all(axis=1)))
        for t, (a, b, c) in enumerate(face_tris[f], start=starts[f]):
            if not len(idx):
                break
            # In the closed triangle: on each edge line, on the opposite
            # vertex's side or on the line.
            edges = [line_through(a, b), line_through(b, c), line_through(c, a)]
            want = np.array([sign(e.eval_at(v)) for e, v in zip(edges, (c, a, b))], dtype=np.int8)
            s = line_signs(P, edges, idx)
            on = s == 0
            inside = ((s == want) | on).all(axis=1)
            tri_of[idx[inside]] = t
            ties += int(on[inside].any(axis=1).sum())
            idx = idx[~inside]
        if len(idx):
            raise RuntimeError("point not covered by any triangle")
    return [g.tolist() for g in _index_groups(tri_of, starts[-1])], ties


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
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    if not len(P):
        raise PreconditionError("the point set is empty: a partition needs at least 1 point")
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
        face_tris = [triangulate_face(f) for f in arr.faces]
        tris = [t for ft in face_tris for t in ft]
        lists, ties = _assign_points(P, arr, face_tris)
        part = Partition(
            triangles=tris,
            point_lists=lists,
            source_sample_size=want,
            sampled_lines=chosen,
            conforming=max((len(pl) for pl in lists), default=0) <= cap,
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
    side (exact signs of the lines at the distinct vertices)."""
    if not test_lines:
        return 0, 0.0
    verts = list(dict.fromkeys(v for tri in partition.triangles for v in tri))
    signs = line_signs(PointSet(verts), test_lines)
    pos = {v: k for k, v in enumerate(verts)}
    s = signs[np.array([pos[v] for tri in partition.triangles for v in tri], dtype=np.int64)]
    s = s.reshape(len(partition.triangles), 3, len(test_lines))
    counts = len(partition.triangles) - ((s > 0).all(axis=1) | (s < 0).all(axis=1)).sum(axis=0)
    return int(counts.max()), float(np.mean(counts))


def random_box_lines(box: Box, k: int, seed: int) -> List[CanonicalLine]:
    """k lines through pairs of random rational points on the box boundary
    (for stabbing statistics)."""
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
    return f"{int_str(v.numerator)}/{int_str(v.denominator)}"


def partition_to_json(partition: Partition) -> dict:
    return {
        "schema": 1,
        "source_sample_size": partition.source_sample_size,
        "conforming": partition.conforming,
        "boundary_ties": partition.boundary_ties,
        "attempts": partition.attempts,
        "box": [_frac_str(v) for v in partition.box],
        "sampled_lines": [list(map(int_str, l.coeffs())) for l in partition.sampled_lines],
        "triangles": [
            {
                "vertices": [[_frac_str(v.x), _frac_str(v.y)] for v in tri],
                "points": pl,
            }
            for tri, pl in zip(partition.triangles, partition.point_lists)
        ],
    }
