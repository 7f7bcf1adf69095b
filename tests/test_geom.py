from fractions import Fraction

import numpy as np
import pytest

from seplines.geom import (
    CanonicalLine,
    DegeneratePairError,
    Point,
    common_denominator,
    intersect_lines,
    line_through,
    orient,
    pt,
    side,
    sign,
)

from .conftest import rand_point


def test_sign():
    assert sign(Fraction(3, 7)) == 1
    assert sign(0) == 0
    assert sign(-2) == -1


def test_canonical_form_invariants():
    l = CanonicalLine.from_coeffs(-2, 4, -6)
    assert l.coeffs() == (1, -2, 3)
    l = CanonicalLine.from_coeffs(0, -5, 10)
    assert l.coeffs() == (0, 1, -2)
    l = CanonicalLine.from_coeffs(Fraction(1, 2), Fraction(1, 3), 1)
    assert l.coeffs() == (3, 2, 6)
    with pytest.raises(ValueError):
        CanonicalLine.from_coeffs(0, 0, 1)
    with pytest.raises(ValueError):
        CanonicalLine(-1, 0, 0)  # non-canonical sign
    with pytest.raises(ValueError):
        CanonicalLine(2, 4, 6)  # non-canonical gcd


def test_same_locus_equal():
    l1 = line_through(pt(0, 0), pt(2, 2))
    l2 = line_through(pt(5, 5), pt(-3, -3))
    assert l1 == l2
    assert hash(l1) == hash(l2)


def test_orient_known_values():
    assert orient(pt(0, 0), pt(1, 0), pt(0, 1)) == 1
    assert orient(pt(0, 0), pt(0, 1), pt(1, 0)) == -1
    assert orient(pt(0, 0), pt(1, 1), pt(2, 2)) == 0


def test_orient_antisymmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, q, r = (rand_point(rng, 31) for _ in range(3))
        if p == q or q == r or p == r:
            continue
        assert orient(p, q, r) == -orient(q, p, r)
        assert orient(p, q, r) == orient(q, r, p)


def test_line_through_contains_both():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        l = line_through(p, q)
        assert l.eval_at(p) == 0
        assert l.eval_at(q) == 0
    with pytest.raises(DegeneratePairError):
        line_through(pt(1, 2), pt(1, 2))


def test_side_matches_eval():
    l = CanonicalLine.from_coeffs(1, -1, 0)  # y = x
    assert side(l, pt(1, 0)) == 1
    assert side(l, pt(0, 1)) == -1
    assert side(l, pt(2, 2)) == 0


def test_intersect_lines():
    l1 = CanonicalLine.from_coeffs(1, 0, -1)  # x = 1
    l2 = CanonicalLine.from_coeffs(0, 1, -2)  # y = 2
    assert intersect_lines(l1, l2) == pt(1, 2)
    l3 = CanonicalLine.from_coeffs(1, 0, -5)
    assert intersect_lines(l1, l3) is None
    assert intersect_lines(l1, l1) is None


def test_intersection_lies_on_both_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a1, b1 = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        a2, b2 = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        if (a1 == 0 and b1 == 0) or (a2 == 0 and b2 == 0):
            continue
        l1 = CanonicalLine.from_coeffs(a1, b1, int(rng.integers(-9, 10)))
        l2 = CanonicalLine.from_coeffs(a2, b2, int(rng.integers(-9, 10)))
        p = intersect_lines(l1, l2)
        if p is not None:
            assert l1.eval_at(p) == 0 and l2.eval_at(p) == 0


def test_common_denominator():
    pts = [pt(Fraction(1, 6), Fraction(1, 4)), pt(Fraction(2, 9), 3)]
    assert common_denominator(pts) == 36


def test_point_coerces_to_exact_fractions():
    p = Point(0.5, 2)
    assert p.x == Fraction(1, 2) and isinstance(p.x, Fraction)
    assert p.y == Fraction(2) and isinstance(p.y, Fraction)
