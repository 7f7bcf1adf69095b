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

from .conftest import rand_cell_lines as _rand_lines_impl
from .conftest import rand_convex_cell as _rand_cell

UNIT_SQUARE = ConvexCell([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


def _rand_lines(rng, cell: ConvexCell, m: int):
    return _rand_lines_impl(rng, cell, m)


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
    # enumerate true vertex pairs by brute force
    truth = set()
    for i, j in combinations(range(len(lines)), 2):
        p = intersect_lines(lines[i], lines[j])
        if p is None:
            continue
        k = len(cell.vertices)
        inside = all(
            orient(cell.vertices[t], cell.vertices[(t + 1) % k], p) == 1
            for t in range(k)
        )
        if inside:
            truth.add((i, j))
    assert len(truth) == total
    srng = np.random.default_rng(2)
    seen = {sample_vertex(idx, srng) for _ in range(200 * total)}
    assert seen == truth


def test_sample_vertex_empty_raises():
    l1 = CanonicalLine.from_coeffs(2, -2, 1)
    idx = build_index(UNIT_SQUARE, [l1])
    with pytest.raises(EmptyStructureError):
        sample_vertex(idx, np.random.default_rng(0))
