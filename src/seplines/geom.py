"""Exact planar primitives: rational points, canonical integer lines,
orientation/side predicates and line intersection.

All predicates are exact (arbitrary-precision integers / rationals).
Hot batched evaluation lives in :mod:`seplines._kernels`; its uncertain
entries are settled in integers by ``sepsys.settle``, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple


class DegeneratePairError(ValueError):
    """Raised when an operation needs two distinct points but got one."""


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
        if math.gcd(self.a, self.b, self.c) != 1:
            raise ValueError(f"non-canonical gcd: {(self.a, self.b, self.c)}")

    @staticmethod
    def from_coeffs(a, b, c) -> "CanonicalLine":
        """Build a canonical line from arbitrary rational coefficients."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        den = math.lcm(a.denominator, b.denominator, c.denominator)
        return CanonicalLine.from_ints(int(a * den), int(b * den), int(c * den))

    @staticmethod
    def from_ints(a: int, b: int, c: int) -> "CanonicalLine":
        """Build a canonical line from integer coefficients."""
        return CanonicalLine(*canonical_ints(a, b, c))

    def eval_at(self, p: Point) -> Fraction:
        """Exact value of a*x + b*y + c at p."""
        return self.a * p.x + self.b * p.y + self.c

    def coeffs(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self):
        return f"CanonicalLine({self.a}, {self.b}, {self.c})"


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the determinant |q-p, r-p|: +1 counterclockwise, 0 collinear,
    -1 clockwise. Exact."""
    return sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def canonical_ints(a: int, b: int, c: int) -> Tuple[int, int, int]:
    """The canonical coefficients (see CanonicalLine) of the line
    a*x + b*y + c = 0 with integer coefficients."""
    if a == 0 and b == 0:
        raise ValueError("degenerate line: a = b = 0")
    g = math.gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return a // g, b // g, c // g


def int_line_through(x1: int, y1: int, x2: int, y2: int, d: int) -> Tuple[int, int, int]:
    """Canonical coefficients of the line through the distinct points
    (x1/d, y1/d) and (x2/d, y2/d), in integers."""
    a = y2 - y1
    b = x1 - x2
    c = -(a * x1 + b * y1)
    if a == 0 and b == 0:
        raise DegeneratePairError("int_line_through needs distinct points")
    return canonical_ints(a * d, b * d, c)


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
