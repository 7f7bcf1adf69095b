"""Counting and uniformly sampling arrangement vertices inside a convex
cell, via a counterclockwise boundary sweep over the lines' crossing
events with a Fenwick tree over event ranks.

A line crossing the cell interior meets the boundary at exactly two
points. Walking the boundary counterclockwise, two lines intersect inside
the cell iff their event intervals interleave (each contains exactly one
endpoint of the other). The sweep marks a line open at its first event
and, at its second event, counts the open lines whose first event falls
strictly inside the interval, then closes it. Sampling picks a line by
its count and scans its interval for the lines it counted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .geom import CanonicalLine, Point, common_denominator, orient


class DegeneracyError(ValueError):
    """Coincident boundary events, a line through a cell vertex, or a line
    along a cell edge: configurations the sweep does not perturb around."""


class EmptyStructureError(ValueError):
    pass


MAX_CELL_VERTICES = 16


@dataclass(frozen=True)
class ConvexCell:
    """Strictly convex polygon given by its counterclockwise vertices."""

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        object.__setattr__(self, "vertices", tuple(vertices))
        t = self.vertices
        if not 3 <= len(t) <= MAX_CELL_VERTICES:
            raise ValueError(
                f"cell must have 3..{MAX_CELL_VERTICES} vertices, got {len(t)}"
            )
        k = len(t)
        for i in range(k):
            if orient(t[i], t[(i + 1) % k], t[(i + 2) % k]) != 1:
                raise ValueError("cell vertices must be strictly convex ccw")

    def edges(self) -> List[Tuple[Point, Point]]:
        t = self.vertices
        return [(t[i], t[(i + 1) % len(t)]) for i in range(len(t))]


# ---------------------------------------------------------------------------
# crossing events and the index


@dataclass(frozen=True)
class CrossingEvent:
    edge: int
    t: Fraction  # position along the edge, strictly in (0, 1)
    line_id: int

    def position(self) -> Tuple[int, Fraction]:
        return (self.edge, self.t)


@dataclass
class CellIntersectionIndex:
    interval: Dict[int, Tuple[int, int]]  # line id -> (first rank, second rank)
    # line id -> number of lines whose first event is inside its interval
    # and whose second event is after it: the vertices it owns.
    pair_count: Dict[int, int]
    line_of_rank: Dict[int, int]  # first-event rank -> line id
    total_vertex_count: int


def _cleared(cell: ConvexCell) -> Tuple[int, List[int], List[int]]:
    """(D, X, Y): the cell's vertices are (X[i]/D, Y[i]/D), D the common
    denominator of their coordinates."""
    D = common_denominator(cell.vertices)
    return D, [int(v.x * D) for v in cell.vertices], [int(v.y * D) for v in cell.vertices]


def _line_events(
    cleared: Tuple[int, List[int], List[int]], line: CanonicalLine, line_id: int
) -> List[CrossingEvent]:
    """The line's crossings of the boundary of the cell with vertices
    _cleared(cell), from the signs of a*X + b*Y + c*D at its vertices."""
    D, X, Y = cleared
    a, b, c = line.coeffs()
    vals = [a * x + b * y + c * D for x, y in zip(X, Y)]
    if 0 in vals:
        raise DegeneracyError(
            f"line {line} passes through a vertex of the cell (or along an edge)"
        )
    events = []
    k = len(vals)
    for e in range(k):
        va, vb = vals[e], vals[(e + 1) % k]
        if (va < 0) != (vb < 0):
            events.append(CrossingEvent(e, Fraction(va, va - vb), line_id))
    if len(events) not in (0, 2):
        raise DegeneracyError("inconsistent boundary crossing count")
    return events


def _fenwick_add(tree: List[int], rank: int, delta: int) -> None:
    k = rank + 1
    while k < len(tree):
        tree[k] += delta
        k += k & -k


def _fenwick_prefix(tree: List[int], rank: int) -> int:
    """Sum of the values at ranks < rank."""
    s = 0
    while rank:
        s += tree[rank]
        rank &= rank - 1
    return s


def build_index(cell: ConvexCell, lines: Sequence[CanonicalLine]) -> CellIntersectionIndex:
    """Boundary sweep building the vertex-counting/sampling index.

    O(m log m): events are sorted counterclockwise; a Fenwick tree over
    event ranks holds 1 at each open line's first event. At a line's
    second event the open lines with first event strictly inside its
    interval are counted (these cross it inside the cell, each crossing
    counted at exactly one of its two lines), then the line is closed.
    """
    lines = list(lines)
    if len({l.coeffs() for l in lines}) != len(lines):
        raise ValueError("lines must be pairwise distinct")
    cleared = _cleared(cell)
    events: List[CrossingEvent] = []
    for i, line in enumerate(lines):
        events.extend(_line_events(cleared, line, i))
    events.sort(key=lambda ev: (ev.edge, ev.t, ev.line_id))
    for a, b in zip(events, events[1:]):
        if a.position() == b.position():
            raise DegeneracyError(
                f"coincident boundary events for lines {lines[a.line_id]} "
                f"and {lines[b.line_id]}"
            )
    first_rank: Dict[int, int] = {}
    interval: Dict[int, Tuple[int, int]] = {}
    pair_count: Dict[int, int] = {}
    line_of_rank: Dict[int, int] = {}
    tree = [0] * (len(events) + 1)
    for rank, ev in enumerate(events):
        lid = ev.line_id
        if lid not in first_rank:
            first_rank[lid] = rank
            line_of_rank[rank] = lid
            _fenwick_add(tree, rank, 1)
        else:
            i = first_rank[lid]
            interval[lid] = (i, rank)
            pair_count[lid] = _fenwick_prefix(tree, rank) - _fenwick_prefix(tree, i + 1)
            _fenwick_add(tree, i, -1)
    return CellIntersectionIndex(
        interval=interval,
        pair_count=pair_count,
        line_of_rank=line_of_rank,
        total_vertex_count=sum(pair_count.values()),
    )


def count_vertices(index: CellIntersectionIndex) -> int:
    """Number of pairwise line intersections strictly inside the cell."""
    return index.total_vertex_count


def sample_vertex(index: CellIntersectionIndex, rng) -> Tuple[int, int]:
    """Uniformly random interior vertex, as an unordered pair of line ids.

    Picks a line with probability pair_count/total, then the r-th line, in
    first-event order, that it counted: first event strictly inside its
    interval, second event after it. O(m) per draw. ``rng`` needs an
    ``integers(lo, hi)`` method (e.g. numpy Generator).
    """
    total = index.total_vertex_count
    if total < 1:
        raise EmptyStructureError("no interior vertices to sample")
    r = int(rng.integers(0, total))
    for lid, c in index.pair_count.items():
        if r < c:
            break
        r -= c
    i, j = index.interval[lid]
    opened = (index.line_of_rank.get(k) for k in range(i + 1, j))
    other = [o for o in opened if o is not None and index.interval[o][1] > j][r]
    return (min(lid, other), max(lid, other))


def brute_force_vertex_count(cell: ConvexCell, lines: Sequence[CanonicalLine]) -> int:
    """O(m^2) oracle: count pairwise intersections strictly inside the cell.

    Works in homogeneous integer coordinates: the intersection of two integer
    lines is (b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1), and the strict
    interior test reduces to integer sign checks against each edge once the
    cell vertices are cleared to a common denominator.
    """
    lines = list(lines)
    D, vx, vy = _cleared(cell)
    k = len(vx)
    edges = [
        (vx[(e + 1) % k] - vx[e], vy[(e + 1) % k] - vy[e], vx[e], vy[e])
        for e in range(k)
    ]
    coeffs = [l.coeffs() for l in lines]
    count = 0
    m = len(lines)
    for i in range(m):
        a1, b1, c1 = coeffs[i]
        for j in range(i + 1, m):
            a2, b2, c2 = coeffs[j]
            w = a1 * b2 - a2 * b1
            if w == 0:
                continue  # parallel (identical lines are also parallel)
            x = b1 * c2 - b2 * c1
            y = a2 * c1 - a1 * c2
            sw = 1 if w > 0 else -1
            for dx, dy, px, py in edges:
                # orient(edge start, edge end, intersection) > 0, with the
                # positive factors w*D and 1/D cleared; sw restores the sign
                # of the homogeneous scale w.
                if (dx * (y * D - py * w) - dy * (x * D - px * w)) * sw <= 0:
                    break
            else:
                count += 1
    return count
