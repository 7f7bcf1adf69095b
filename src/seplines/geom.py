"""Exact planar primitives: rational points, canonical integer lines,
orientation/side predicates, point-line duality, segment crossing.

All predicates are exact (arbitrary-precision integers / rationals).
Hot batched evaluation lives in :mod:`seplines._kernels`; this module is
the ground truth the kernels escalate to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Tuple


class DegeneratePairError(ValueError):
    """Raised when an operation needs two distinct points but got one."""


class VerticalLineError(ValueError):
    """Raised when dualizing a vertical line (b = 0), which has no dual point."""


def sign(x) -> int:
    """Sign of an exact number: -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Point:
    """Immutable exact rational point. Equality is structural (Fraction
    keeps lowest terms with positive denominator)."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if not isinstance(self.x, Fraction):
            object.__setattr__(self, "x", Fraction(self.x))
        if not isinstance(self.y, Fraction):
            object.__setattr__(self, "y", Fraction(self.y))

    def as_floats(self) -> Tuple[float, float]:
        return float(self.x), float(self.y)

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def pt(x, y) -> Point:
    """Shorthand constructor accepting ints, Fractions or 'p/q' strings."""
    return Point(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class CanonicalLine:
    """The line a*x + b*y + c = 0 with integer coefficients in canonical
    form: gcd(|a|,|b|,|c|) = 1 and a > 0, or a = 0 and b > 0.

    Two CanonicalLine values compare equal iff they are the same point
    locus, so they are safe dict/set keys for deduplication.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("degenerate line: a = b = 0")
        if not (self.a > 0 or (self.a == 0 and self.b > 0)):
            raise ValueError(f"non-canonical sign: {(self.a, self.b, self.c)}")
        if math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c)) != 1:
            raise ValueError(f"non-canonical gcd: {(self.a, self.b, self.c)}")

    @staticmethod
    def from_coeffs(a, b, c) -> "CanonicalLine":
        """Build a canonical line from arbitrary rational coefficients."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = int(a * den), int(b * den), int(c * den)
        g = math.gcd(math.gcd(abs(ai), abs(bi)), abs(ci))
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        return CanonicalLine(ai, bi, ci)

    def eval_at(self, p: Point) -> Fraction:
        """Exact value of a*x + b*y + c at p."""
        return self.a * p.x + self.b * p.y + self.c

    def coeffs(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"CanonicalLine({self.a}, {self.b}, {self.c})"


@dataclass(frozen=True)
class DualLine:
    """Dual of a point under (a, b) <-> y = a*x - b."""

    slope: Fraction
    intercept: Fraction


class SegmentCrossing(Enum):
    STRICT_CROSS = "strict_cross"
    TOUCHES_ENDPOINT = "touches_endpoint"
    NO_CROSS = "no_cross"


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the determinant |q-p, r-p|: +1 counterclockwise, 0 collinear,
    -1 clockwise. Exact."""
    return sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def line_through(p: Point, q: Point) -> CanonicalLine:
    """Canonical line through two distinct points."""
    if p == q:
        raise DegeneratePairError(f"line_through needs distinct points, got {p} twice")
    a = q.y - p.y
    b = p.x - q.x
    c = -(a * p.x + b * p.y)
    return CanonicalLine.from_coeffs(a, b, c)


def side(line: CanonicalLine, p: Point) -> int:
    """Exact sign of a*x + b*y + c at p."""
    return sign(line.a * p.x + line.b * p.y + line.c)


def dualize_point(p: Point) -> DualLine:
    """Dual of the point (a, b) is the line y = a*x - b."""
    return DualLine(slope=p.x, intercept=-p.y)


def dualize_line(line: CanonicalLine) -> Point:
    """Dual point of a non-vertical line; inverse of :func:`dualize_point`
    in the sense that incidences are preserved."""
    if line.b == 0:
        raise VerticalLineError(f"vertical line {line} has no dual point")
    # a*x + b*y + c = 0  <=>  y = (-a/b)*x + (-c/b), and y = A*x + B is the
    # dual of the point (A, -B).
    return Point(Fraction(-line.a, line.b), Fraction(line.c, line.b))


def dualize_dual(d: DualLine) -> Point:
    """Inverse of dualize_point (dualization is an involution)."""
    return Point(d.slope, -d.intercept)


def segment_crossing(line: CanonicalLine, p: Point, q: Point) -> SegmentCrossing:
    """Classify how a line meets the segment pq.

    STRICT_CROSS iff p and q are strictly on opposite sides;
    TOUCHES_ENDPOINT iff at least one endpoint lies on the line;
    NO_CROSS otherwise.
    """
    if p == q:
        raise DegeneratePairError("segment_crossing needs distinct endpoints")
    sp, sq = side(line, p), side(line, q)
    if sp * sq == -1:
        return SegmentCrossing.STRICT_CROSS
    if sp == 0 or sq == 0:
        return SegmentCrossing.TOUCHES_ENDPOINT
    return SegmentCrossing.NO_CROSS


def intersect_lines(l1: CanonicalLine, l2: CanonicalLine):
    """Exact intersection point of two non-parallel lines, or None if they
    are parallel (or identical)."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, det)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, det)
    return Point(x, y)


def common_denominator(points: Iterable[Point]) -> int:
    """Least common multiple of all coordinate denominators."""
    d = 1
    for p in points:
        d = math.lcm(d, p.x.denominator, p.y.denominator)
    return d


def splitmix64(x: int) -> int:
    """splitmix64 finalizer: a well-mixed 64-bit hash of an integer."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)
