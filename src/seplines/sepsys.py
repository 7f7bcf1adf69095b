"""Hitting-set formulation of separability: candidate lines through point
pairs, the hit relation, sign-vector separation checking, and conversion
of relaxed separating sets into strictly separating ones.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .geom import CanonicalLine, Point, int_line_through, side, sign

PairId = Tuple[int, int]

# Largest number of sign entries one kernel call in `refine` evaluates.
_KERNEL_THRESHOLD = 200_000

# The float filter holds while every input is 0 or within 2^-400..2^400 in
# magnitude: products then stay normal doubles, so the kernels' relative
# error bound is sound. Inputs outside that range become NaN.
_FLOAT_EXP = 400

GENERAL_POSITION_CHECK_CAP = 512


def float_array(values: Sequence) -> np.ndarray:
    """Float64 copies of exact ints or Fractions for the kernels. A value
    whose magnitude lies outside 2^-_FLOAT_EXP..2^_FLOAT_EXP becomes NaN,
    which makes every kernel entry that uses it uncertain, so callers
    settle those entries exactly."""

    def conv(v) -> float:
        e = v.numerator.bit_length() - v.denominator.bit_length()
        return float(v) if not v or -_FLOAT_EXP < e < _FLOAT_EXP else math.nan

    if all(type(v) is int for v in values):
        if max(map(abs, values), default=0).bit_length() <= _FLOAT_EXP:
            return np.array(values, dtype=np.float64)  # numpy rounds ints as float() does
    return np.array([conv(v) for v in values], dtype=np.float64)


class PreconditionError(ValueError):
    """The input violates a stated precondition (the CLI exits 3). Every
    such error of the library derives from this class."""


class TooFewPointsError(PreconditionError):
    pass


class GeneralPositionError(PreconditionError):
    """Raised when an operation requires no three collinear points."""


class PropernessError(PreconditionError):
    """Raised by properize when a line carries three or more points."""


class SeparationMode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


class PointSet:
    """Ordered, duplicate-free list of exact rational points.

    Integer clearings (common denominator) are cached because every hot
    predicate runs on integers: with x = X/D, the sign of a*x + b*y + c
    equals the sign of a*X + b*Y + c*D.
    """

    def __init__(self, points: Sequence[Point]):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in PointSet")
        self.points = pts
        self._int_coords: Optional[Tuple[List[int], List[int], int]] = None
        self._general_position: Optional[bool] = None
        self._float_coords: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def int_coords(self) -> Tuple[List[int], List[int], int]:
        """(X, Y, D) with points[i] = (X[i]/D, Y[i]/D)."""
        if self._int_coords is None:
            rx = [p.x.as_integer_ratio() for p in self.points]
            ry = [p.y.as_integer_ratio() for p in self.points]
            d = math.lcm(1, *{q for _, q in rx}, *{q for _, q in ry})
            xs = [v * (d // q) for v, q in rx]
            ys = [v * (d // q) for v, q in ry]
            self._int_coords = (xs, ys, d)
        return self._int_coords

    @cached_property
    def int_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray, int, int]]:
        """(X, Y, max |X|, max |Y|) with X, Y the int_coords as int64
        arrays, or None if some coordinate needs more than 62 bits."""
        xs, ys, _ = self.int_coords()
        xmax = max(map(abs, xs), default=0)
        ymax = max(map(abs, ys), default=0)
        if max(xmax, ymax) >= 2 ** 62:
            return None
        return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64), xmax, ymax

    def float_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Float64 x and y arrays for the kernels (see float_array)."""
        if self._float_coords is None:
            self._float_coords = (float_array([p.x for p in self.points]),
                                  float_array([p.y for p in self.points]))
        return self._float_coords

    @property
    def general_position(self) -> bool:
        """True iff no three points are collinear, that is, iff the n
        points span C(n, 2) distinct candidate lines. Computed for up to
        512 points; larger sets are assumed in general position (with a
        warning), which holds with overwhelming probability for the random
        constructions this library targets."""
        if self._general_position is None:
            n = len(self.points)
            if n > GENERAL_POSITION_CHECK_CAP:
                warnings.warn(
                    f"general position assumed, not checked, for n={n} > "
                    f"{GENERAL_POSITION_CHECK_CAP}",
                    stacklevel=2,
                )
                self._general_position = True
            else:
                self._general_position = n < 3 or len(candidate_lines(self)) == n * (n - 1) // 2
        return self._general_position

    def pairs(self) -> List[PairId]:
        n = len(self.points)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class CandidateLines:
    """Deduplicated canonical lines through all point pairs, with the
    point pairs incident to each line. In general position there are
    C(n,2) lines, one incident pair each."""

    lines: List[CanonicalLine]
    incident_pairs: List[List[PairId]]
    _coeff_arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )

    def __len__(self):
        return len(self.lines)

    def coeff_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Float64 (a, b, c) arrays for the kernels."""
        if self._coeff_arrays is None:
            self._coeff_arrays = tuple(
                float_array([getattr(l, k) for l in self.lines]) for k in "abc"
            )
        return self._coeff_arrays


def candidate_lines(P: PointSet) -> CandidateLines:
    """All canonical lines through pairs of P, deduplicated, with
    incidence lists."""
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    xs, ys, d = P.int_coords()
    by_line: Dict[Tuple[int, int, int], List[PairId]] = {}
    for i in range(n):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            by_line.setdefault(int_line_through(xi, yi, xs[j], ys[j], d), []).append((i, j))
    lines = []
    incident = []
    for coeffs, prs in by_line.items():
        lines.append(CanonicalLine(*coeffs))
        incident.append(prs)
    return CandidateLines(lines=lines, incident_pairs=incident)


def hits(line: CanonicalLine, P: PointSet, pair: PairId, mode: SeparationMode) -> bool:
    """Does the line separate the pair under the given mode?

    Strict: strictly opposite sides. Relaxed: different side values, so a
    pair with exactly one point on the line counts as separated, but a
    pair with both points on the line does not.
    """
    i, j = pair
    sp, sq = side(line, P[i]), side(line, P[j])
    if mode is SeparationMode.STRICT:
        return sp * sq == -1
    return sp != sq


def _exact_side_int(line: CanonicalLine, x: int, y: int, d: int) -> int:
    return sign(line.a * x + line.b * y + line.c * d)


def line_signs(
    P: PointSet, lines: Sequence[CanonicalLine], idx: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact signs of the lines at the points ``idx`` (default: all), as an
    int8 array of shape (points, lines): the float kernel, with every
    uncertain entry settled in integers."""
    if idx is None:
        xf, yf = P.float_coords()
    else:
        pts = [P[i] for i in idx.tolist()]
        xf, yf = float_array([p.x for p in pts]), float_array([p.y for p in pts])
    abc = float_array([v for l in lines for v in (l.a, l.b, l.c)])
    signs, unc = _kernels.eval_signs(abc[0::3], abc[1::3], abc[2::3], xf, yf)
    return settle(P, lines, signs, unc, idx)


def settle(
    P: PointSet, lines: Sequence[CanonicalLine], signs: np.ndarray, unc: np.ndarray,
    idx: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Set the entries of a kernel sign block (points ``idx``, default
    all, by ``lines``) that ``unc`` flags to their exact signs, computed
    in integers."""
    if unc.any():
        ui, uj = np.nonzero(unc)
        xs, ys, d = P.int_coords()
        pts = (ui if idx is None else idx[ui]).tolist()
        signs[ui, uj] = [
            _exact_side_int(lines[j], xs[i], ys[i], d) for i, j in zip(pts, uj.tolist())
        ]
    return signs


def _family_slots(P: PointSet, pts: np.ndarray, direction: Tuple[int, int], fam):
    """(lo, hi) for each point of ``pts`` against a family of distinct
    parallel lines: lo counts the lines with the point on their positive
    side, hi - lo is 1 if the point lies on one of them, else 0."""
    p, q = direction
    xs, ys, d = P.int_coords()
    # Line k is g_k * (p, q) + c_k, so a*x + b*y + c has the sign of
    # G*(p*X + q*Y) - T_k with G = lcm(g_k) and T_k = -c_k * D * G / g_k.
    scale = [(l.a // p) if p else (l.b // q) for l in fam]
    G = math.lcm(*scale)
    T = sorted(-l.c * d * (G // g) for l, g in zip(fam, scale))
    if P.int_arrays is not None:
        X, Y, xmax, ymax = P.int_arrays
        if max(G * (abs(p) * xmax + abs(q) * ymax + 1), -T[0], T[-1]) < 2 ** 62:
            keys, T = G * (p * X[pts] + q * Y[pts]), np.array(T, dtype=np.int64)
            return np.searchsorted(T, keys, "left"), np.searchsorted(T, keys, "right")
    # Some key or offset needs more than 62 bits: compare Python ints.
    keys = np.array([G * (p * xs[i] + q * ys[i]) for i in pts.tolist()], dtype=object)
    T = np.array(T, dtype=object)
    return np.searchsorted(T, keys, "left"), np.searchsorted(T, keys, "right")


def _split(cls, lo, hi, width, mode, stop_at, *carry):
    """Refine the classes ``cls`` of the point copies by one family of
    ``width - 1`` parallel lines with per-copy slots (lo, hi). Relaxed
    mode keys a copy by its exact sign pattern (lo + hi); strict mode puts
    a copy lying on a line into the cells on both sides of it. Classes of
    at most ``stop_at`` copies are dropped. Returns the new compact class
    labels and the carried per-copy arrays, filtered alike."""
    if mode is SeparationMode.RELAXED:
        key = cls * (2 * width) + lo + hi
    else:
        on = np.nonzero(hi > lo)[0]
        key = np.concatenate([cls * width + lo, cls[on] * width + hi[on]])
        carry = [np.concatenate([a, a[on]]) for a in carry]
    if len(key) and key.max() < 4 * len(key):
        inv, counts = key, np.bincount(key)
    else:
        _, inv, counts = np.unique(key, return_inverse=True, return_counts=True)
    big = counts > stop_at
    keep = big[inv]
    return (np.cumsum(big) - 1)[inv[keep]], [a[keep] for a in carry]


def refine(
    P: PointSet, lines: Sequence[CanonicalLine], mode: SeparationMode, stop_at: int = 1
) -> List[np.ndarray]:
    """The classes of points the lines leave together, keeping only
    classes of more than ``stop_at`` points (stop_at >= 1), each as a
    sorted index array.

    Relaxed: a class is a set of points with one exact sign vector.
    Strict: a point lying on a line joins both sides of it, so a class is
    the set of points compatible with one strict side pattern; two points
    are strictly unseparated iff some class holds both, and a point may be
    in several classes. Each pair of points shares at most two classes, so
    the work stays polynomial however many lines meet at a point.

    Lines are grouped by direction. Each family of two or more parallel
    lines splits the live points in one step, by binary search of a*x+b*y
    among the family's sorted offsets in exact integers. The remaining
    lines go through the float kernel, in blocks of at most
    ``_KERNEL_THRESHOLD`` entries, on live points only.
    """
    n = len(P)
    if n <= stop_at:
        return []
    fams: Dict[Tuple[int, int], List[CanonicalLine]] = {}
    for l in dict.fromkeys(lines):
        g = math.gcd(l.a, l.b)
        fams.setdefault((l.a // g, l.b // g), []).append(l)
    pid = np.arange(n)
    cls = np.zeros(n, dtype=np.int64)
    singles = []
    for direction, fam in sorted(fams.items(), key=lambda kv: -len(kv[1])):
        if len(fam) == 1:
            singles.append(fam[0])
            continue
        lo, hi = _family_slots(P, pid, direction, fam)
        cls, (pid,) = _split(cls, lo, hi, len(fam) + 1, mode, stop_at, pid)
    start = 0
    while start < len(singles) and len(pid):
        live, row = np.unique(pid, return_inverse=True)
        block = singles[start : start + max(1, _KERNEL_THRESHOLD // len(live))]
        start += len(block)
        signs = line_signs(P, block, live)
        for j in range(len(block)):
            s = signs[row, j]
            cls, (pid, row) = _split(cls, s > 0, s >= 0, 2, mode, stop_at, pid, row)
    order = np.lexsort((pid, cls))
    return np.split(pid[order], np.nonzero(np.diff(cls[order]))[0] + 1) if len(pid) else []


def find_unseparated_pair(
    P: PointSet, lines: Sequence[CanonicalLine], mode: SeparationMode
) -> Optional[PairId]:
    """First (lexicographically smallest) pair of points not separated by
    any line under the mode, or None if the lines separate P."""
    classes = refine(P, lines, mode)
    return min(((int(c[0]), int(c[1])) for c in classes), default=None)


def _perp_bisector(P: PointSet, i: int, j: int) -> CanonicalLine:
    """The perpendicular bisector of points i and j of P."""
    xs, ys, d = P.int_coords()
    return CanonicalLine.from_ints(
        2 * d * (xs[j] - xs[i]),
        2 * d * (ys[j] - ys[i]),
        xs[i] ** 2 + ys[i] ** 2 - xs[j] ** 2 - ys[j] ** 2,
    )


def split_line(
    P: PointSet, group: Sequence[int], axis: int, cut: int
) -> Tuple[CanonicalLine, List[int], List[int]]:
    """A line through no point of ``group`` with the first ``cut`` of its
    points, in (axis coordinate, other coordinate) order, on its negative
    side and the rest on its positive side (axis 0 is x, 1 is y); returns
    the line and the two halves. The line is the midpoint line of the two
    boundary points when they differ on the axis, and tilted by
    eps = least axis gap / (2(other-axis range + 1)) otherwise; if every
    axis coordinate is equal, it is the midpoint line on the other axis."""
    xs, ys, d = P.int_coords()
    u, v = (xs, ys) if axis == 0 else (ys, xs)
    order = sorted(group, key=lambda i: (u[i], v[i]))
    p, q = order[cut - 1], order[cut]
    # (along, across, c): the line along*U + across*V + c*D = 0, U and V
    # the cleared axis and other coordinates.
    if u[p] != u[q]:
        along, across, c = 2 * d, 0, -(u[p] + u[q])
    else:
        us = sorted({u[i] for i in group})
        if len(us) == 1:
            along, across, c = 0, 2 * d, -(v[p] + v[q])
        else:
            # eps = gap / e in cleared units; the line U + eps*V = its
            # mean at p and q, times 2*D*e.
            gap = min(b - a for a, b in zip(us, us[1:]))
            vs = [v[i] for i in group]
            e = 2 * (max(vs) - min(vs) + d)
            along, across, c = 2 * d * e, 2 * d * gap, -(e * (u[p] + u[q]) + gap * (v[p] + v[q]))
    coeffs = (along, across, c) if axis == 0 else (across, along, c)
    return CanonicalLine.from_ints(*coeffs), order[:cut], order[cut:]


def rotate_line(
    P: PointSet, line: CanonicalLine, g: Tuple[int, int, int], k: int, s: int, cap: bool
) -> CanonicalLine:
    """The line f + t*h that keeps the strict side of every point of P off
    the line f, with h(x, y) = (g0*X + g1*Y + g2) / k at X = D*x, Y = D*y
    (D the common denominator of P, k > 0) and sign(t) = s. |t| is the
    least of |f(p)| / (2(|h(p)| + 1)) over the points off f, or 1 if there
    are none; with ``cap`` it is at most 1. Exact, in integers."""
    xs, ys, d = P.int_coords()
    a, b, c = line.coeffs()
    g0, g1, g2 = g
    # With V = D*f(p) and G = k*h(p) at a point, the point's bound is
    # |V| * k / (2D(|G| + k)); num / den is the least |V| / (|G| + k).
    num, den = 0, 0
    for x, y in zip(xs, ys):
        v = abs(a * x + b * y + c * d)
        if v:
            w = abs(g0 * x + g1 * y + g2) + k
            if not den or v * den < num * w:
                num, den = v, w
    if not den or (cap and num * k > 2 * d * den):
        num, den = 2 * d, k  # t = s
    # t = s * num * k / (2D * den); the coefficients of f + t*h times 2D * den.
    return CanonicalLine.from_ints(
        d * (2 * a * den + s * num * g0),
        d * (2 * b * den + s * num * g1),
        2 * c * d * den + s * num * g2,
    )


def _rotate_off_points(P: PointSet, line: CanonicalLine) -> CanonicalLine:
    """Rotate a line about a pivot on it, beyond every point of P it
    carries, so that it carries none, keeping the strict side of every
    point off it."""
    xs, ys, d = P.int_coords()
    a, b, c = line.coeffs()
    # D times the position along the line, direction (-b, a), of each
    # point on it; the pivot lies one unit before the first of them.
    along = [a * y - b * x for x, y in zip(xs, ys) if a * x + b * y + c * d == 0]
    if not along:
        return line
    return rotate_line(P, line, (-b, a, d - min(along)), d, 1, False)


def properize(lines: Sequence[CanonicalLine], P: PointSet) -> List[CanonicalLine]:
    """Convert a relaxed separating set into a strictly separating one of
    size at most 3x.

    Each line carrying one or two points of P is replaced by two parallel
    copies at half the minimum point distance; a line carrying two points
    additionally spawns one line strictly splitting that pair (their
    perpendicular bisector, perturbed off any other points). Lines
    carrying no points pass through unchanged. Requires that no line
    carries three or more points.
    """
    xs, ys, d = P.int_coords()
    out: List[CanonicalLine] = []
    for line in lines:
        a, b, c = line.coeffs()
        vals = [a * x + b * y + c * d for x, y in zip(xs, ys)]  # D * value
        on = [i for i, v in enumerate(vals) if v == 0]
        if len(on) >= 3:
            raise PropernessError(
                f"line {line} contains {len(on)} points; properize "
                "requires general position (at most 2 per line)"
            )
        if not on:
            out.append(line)
            continue
        # Shift by half the least |value| off the line (1/2 if none).
        delta = min((abs(v) for v in vals if v), default=d)
        out.append(CanonicalLine.from_ints(2 * d * a, 2 * d * b, 2 * d * c - delta))
        out.append(CanonicalLine.from_ints(2 * d * a, 2 * d * b, 2 * d * c + delta))
        if len(on) == 2:
            out.append(_rotate_off_points(P, _perp_bisector(P, *on)))
    # Dedup while preserving order (parallel copies of distinct input
    # lines can coincide only by accident, but keep the contract tight).
    return list(dict.fromkeys(out))
