import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from seplines.cellsample import (
    ConvexCell,
    DegeneracyError,
    EmptyStructureError,
    brute_force_vertex_count,
    build_index,
    count_vertices,
    sample_vertex,
)
from seplines.geom import CanonicalLine, intersect_lines, orient, pt

from .conftest import _boundary_events
from .conftest import rand_cell_lines as _rand_lines_impl
from .conftest import rand_convex_cell as _rand_cell

UNIT_SQUARE = ConvexCell([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


def _rand_lines(rng, cell: ConvexCell, m: int):
    return _rand_lines_impl(rng, cell, m)


def _interior_pairs(cell: ConvexCell, lines):
    """Brute force: the pairs (i, j), i < j, of lines meeting strictly
    inside the cell."""
    k = len(cell.vertices)
    truth = set()
    for i, j in combinations(range(len(lines)), 2):
        p = intersect_lines(lines[i], lines[j])
        if p is not None and all(
            orient(cell.vertices[t], cell.vertices[(t + 1) % k], p) == 1
            for t in range(k)
        ):
            truth.add((i, j))
    return truth


def test_convex_cell_validation():
    with pytest.raises(ValueError):
        ConvexCell([pt(0, 0), pt(1, 0)])  # too few
    with pytest.raises(ValueError):
        ConvexCell([pt(0, 0), pt(1, 1), pt(2, 2)])  # collinear
    with pytest.raises(ValueError):
        ConvexCell([pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)])  # clockwise
    with pytest.raises(ValueError):
        ConvexCell([pt(i, i * i) for i in range(17)])  # over the cap
    assert len(UNIT_SQUARE.edges()) == 4


def test_count_matches_brute_force_fixed():
    # Two crossing diagonal-ish lines meeting at (1/6, 1/2): one vertex.
    l1 = CanonicalLine.from_coeffs(3, -3, 1)
    l2 = CanonicalLine.from_coeffs(3, 3, -2)
    assert intersect_lines(l1, l2) == pt(Fraction(1, 6), Fraction(1, 2))
    idx = build_index(UNIT_SQUARE, [l1, l2])
    assert count_vertices(idx) == 1
    assert brute_force_vertex_count(UNIT_SQUARE, [l1, l2]) == 1
    # Two parallels: no interior vertex.
    l3 = CanonicalLine.from_coeffs(3, -3, -1)
    idx = build_index(UNIT_SQUARE, [l1, l3])
    assert count_vertices(idx) == 0


def test_count_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for trial in range(40):
        cell = _rand_cell(rng)
        lines = _rand_lines(rng, cell, int(rng.integers(2, 20)))
        idx = build_index(cell, lines)
        assert count_vertices(idx) == brute_force_vertex_count(cell, lines)
        # Each interior vertex is counted once, at the line whose first
        # boundary event comes first counterclockwise from vertex 0.
        first = [min(_boundary_events(cell, l), default=None) for l in lines]
        owned = [0] * len(lines)
        for i, j in _interior_pairs(cell, lines):
            owned[i if first[i] < first[j] else j] += 1
        crossing = [i for i in range(len(lines)) if first[i] is not None]
        assert idx.pair_count == {i: owned[i] for i in crossing}


def test_degenerate_configurations_raise():
    # Line through a cell vertex.
    diag = CanonicalLine.from_coeffs(1, -1, 0)
    with pytest.raises(DegeneracyError):
        build_index(UNIT_SQUARE, [diag])
    # Duplicate lines.
    l1 = CanonicalLine.from_coeffs(2, -2, 1)
    with pytest.raises(ValueError):
        build_index(UNIT_SQUARE, [l1, l1])
    # Two lines crossing exactly on the boundary.
    l2 = CanonicalLine.from_coeffs(2, 2, -1)  # meets l1 at (0, 1/2) on edge x=0
    assert intersect_lines(l1, l2) == pt(0, Fraction(1, 2))
    with pytest.raises(DegeneracyError):
        build_index(UNIT_SQUARE, [l1, l2])


def test_sample_vertex_covers_all_vertices():
    rng = np.random.default_rng(1)
    cell = _rand_cell(rng)
    lines = _rand_lines(rng, cell, 12)
    idx = build_index(cell, lines)
    total = count_vertices(idx)
    if total == 0:
        pytest.skip("instance degenerated to zero vertices")
    truth = _interior_pairs(cell, lines)
    assert len(truth) == total
    srng = np.random.default_rng(2)
    seen = {sample_vertex(idx, srng) for _ in range(200 * total)}
    assert seen == truth


# The first 50 draws of sample_vertex on two seeded instances, pinned so
# that a change to the index or the sampler keeps every draw.
PINNED_DRAWS = {
    (11, 14): [
        (2, 9), (10, 12), (1, 13), (0, 8), (1, 6), (7, 9), (0, 11), (2, 4),
        (10, 11), (1, 10), (1, 6), (6, 12), (4, 12), (6, 11), (1, 9), (4, 6),
        (5, 12), (7, 8), (9, 11), (1, 8), (0, 10), (0, 1), (7, 12), (1, 6),
        (7, 11), (11, 12), (5, 7), (0, 13), (1, 13), (0, 6), (2, 13), (6, 13),
        (0, 13), (4, 8), (9, 10), (2, 7), (7, 12), (1, 5), (2, 9), (11, 12),
        (0, 5), (10, 11), (1, 12), (6, 9), (8, 9), (6, 7), (0, 11), (0, 10),
        (7, 9), (7, 10),
    ],
    (12, 24): [
        (16, 20), (2, 10), (5, 23), (16, 23), (11, 22), (7, 18), (3, 5),
        (13, 21), (4, 14), (13, 18), (8, 10), (4, 7), (4, 23), (3, 16),
        (4, 19), (4, 15), (18, 19), (15, 23), (2, 5), (2, 7), (1, 10),
        (1, 13), (10, 21), (1, 16), (18, 19), (0, 9), (6, 7), (6, 7), (0, 20),
        (18, 23), (0, 18), (0, 4), (9, 12), (20, 22), (6, 7), (7, 9), (7, 19),
        (6, 9), (7, 17), (5, 6), (14, 18), (10, 16), (1, 16), (12, 21),
        (13, 17), (0, 20), (2, 12), (3, 5), (4, 7), (16, 20),
    ],
}


@pytest.mark.parametrize("seed,m", sorted(PINNED_DRAWS))
def test_sample_vertex_draws_pinned(seed, m):
    rng = np.random.default_rng(seed)
    cell = _rand_cell(rng)
    idx = build_index(cell, _rand_lines(rng, cell, m))
    srng = np.random.default_rng(seed + 100)
    assert [sample_vertex(idx, srng) for _ in range(50)] == PINNED_DRAWS[(seed, m)]


def test_sample_vertex_empty_raises():
    l1 = CanonicalLine.from_coeffs(2, -2, 1)
    idx = build_index(UNIT_SQUARE, [l1])
    with pytest.raises(EmptyStructureError):
        sample_vertex(idx, np.random.default_rng(0))
