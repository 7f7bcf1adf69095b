"""Shared helpers for the test suite: seeded random instances in exact
rational arithmetic."""
from __future__ import annotations

from fractions import Fraction
from typing import List

import numpy as np
import pytest

from seplines.geom import CanonicalLine, Point, line_through, orient
from seplines.sepsys import PointSet, candidate_lines


def rand_point(rng, denom: int = 997) -> Point:
    return Point(
        Fraction(int(rng.integers(0, denom + 1)), denom),
        Fraction(int(rng.integers(0, denom + 1)), denom),
    )


def rand_general_position_points(n: int, seed: int, denom: int = 99991) -> PointSet:
    """n distinct points in [0,1]^2, no three collinear (rejection sampled)."""
    rng = np.random.default_rng(seed)
    pts: List[Point] = []
    while len(pts) < n:
        p = rand_point(rng, denom)
        if any(p == q for q in pts):
            continue
        if any(
            orient(pts[i], pts[j], p) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ):
            continue
        pts.append(p)
    return PointSet(pts)


def perturbed_grid(k: int, seed: int) -> PointSet:
    """k x k points near the cell centers of the k x k unit grid."""
    rng = np.random.default_rng(seed)
    d = 2 * k
    pts = []
    for i in range(k):
        for j in range(k):
            dx = Fraction(int(rng.integers(-100, 101)), 1000 * d)
            dy = Fraction(int(rng.integers(-100, 101)), 1000 * d)
            pts.append(Point(Fraction(2 * i + 1, d) + dx, Fraction(2 * j + 1, d) + dy))
    return PointSet(pts)


def with_collinear_triple(n: int, seed: int, i: int, j: int) -> PointSet:
    """n - 1 random points of the 2^40 grid, in general position, and as
    point n - 1 the midpoint of points i and j."""
    from seplines.experiments import random_points

    base = random_points(n - 1, seed)
    assert not candidate_lines(base).groups
    xs, ys, d = base.int_coords()
    den = [2 * d] * n
    return PointSet.from_ratios(
        [2 * x for x in xs] + [xs[i] + xs[j]], den, [2 * y for y in ys] + [ys[i] + ys[j]], den
    )


def incident_pairs(cand) -> List[List[tuple]]:
    """The point pairs on each candidate line, in pair order, from
    ``CandidateLines.incidences``, which must list every pair once."""
    L, I, J = (v.tolist() for v in cand.incidences())
    assert list(zip(I, J)) == cand.P.pairs()
    pairs: List[List[tuple]] = [[] for _ in range(len(cand))]
    for k, i, j in zip(L, I, J):
        pairs[k].append((i, j))
    return pairs


def grid_lines(k: int) -> List[CanonicalLine]:
    """The 2(k-1) lines of the k x k unit grid."""
    out = [CanonicalLine.from_coeffs(k, 0, -i) for i in range(1, k)]
    out += [CanonicalLine.from_coeffs(0, k, -i) for i in range(1, k)]
    return out


def rand_convex_cell(rng):
    """Random convex quadrilateral or hexagon with rational vertices."""
    import math

    from seplines.cellsample import ConvexCell

    k = int(rng.choice([4, 6]))
    denom = 101
    while True:
        angles = np.sort(rng.uniform(0, 2 * math.pi, k))
        if np.min(np.diff(angles)) < 0.3:
            continue
        verts = [
            Point(
                Fraction(int(round(math.cos(a) * 1000 * (1 + 0.2 * rng.random()))), denom),
                Fraction(int(round(math.sin(a) * 1000 * (1 + 0.2 * rng.random()))), denom),
            )
            for a in angles
        ]
        try:
            return ConvexCell(verts)
        except ValueError:
            continue


def _boundary_events(cell, line):
    """Crossing positions (edge index, parameter) of a line on the cell
    boundary, or None if the line passes through a vertex."""
    verts = cell.vertices
    k = len(verts)
    vals = [line.eval_at(v) for v in verts]
    if any(v == 0 for v in vals):
        return None
    events = []
    for i in range(k):
        va, vb = vals[i], vals[(i + 1) % k]
        if (va > 0) != (vb > 0):
            events.append((i, va / (va - vb)))
    return events


def rand_cell_lines(rng, cell, m: int):
    """m distinct lines whose boundary events are pairwise distinct and
    avoid the cell's vertices (the degenerate cases the index rejects)."""
    lines = []
    seen_lines = set()
    seen_events = set()
    while len(lines) < m:
        l = rand_line(rng, coeff=40, denom=89)
        if l.coeffs() in seen_lines:
            continue
        ev = _boundary_events(cell, l)
        if ev is None or any(e in seen_events for e in ev):
            continue
        seen_lines.add(l.coeffs())
        seen_events.update(ev)
        lines.append(l)
    return lines


def rand_line(rng, coeff: int = 50, denom: int = 97) -> CanonicalLine:
    while True:
        a = int(rng.integers(-coeff, coeff + 1))
        b = int(rng.integers(-coeff, coeff + 1))
        if a or b:
            break
    c = Fraction(int(rng.integers(-coeff * denom, coeff * denom + 1)), denom)
    return CanonicalLine.from_coeffs(a, b, c)
