"""Hitting-set formulation of separability: candidate lines through point
pairs, the hit relation, sign-vector separation checking, and conversion
of relaxed separating sets into strictly separating ones.
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .geom import CanonicalLine, Point, canonical_ints, sign

PairId = Tuple[int, int]

# Largest number of sign entries one kernel block evaluates: `refine`'s
# line blocks and the entry blocks of greedy and halving's cut search.
_KERNEL_THRESHOLD = 200_000

# The float filter holds while every input is 0 or within 2^-400..2^400 in
# magnitude: products then stay normal doubles, so the kernels' relative
# error bound is sound. Inputs outside that range become NaN.
_FLOAT_EXP = 400


def float_array(values: Sequence) -> np.ndarray:
    """Float64 copies of exact ints or Fractions for the kernels, given as
    a sequence or as an int64 or object array of ints. A value whose
    magnitude lies outside 2^-_FLOAT_EXP..2^_FLOAT_EXP becomes NaN, which
    makes every kernel entry that uses it uncertain, so callers settle
    those entries exactly."""

    def conv(v) -> float:
        e = v.numerator.bit_length() - v.denominator.bit_length()
        return float(v) if not v or -_FLOAT_EXP < e < _FLOAT_EXP else math.nan

    if isinstance(values, np.ndarray):
        if values.dtype == object and len(values):
            top = max(values.max(), -values.min())
        else:
            top = 0  # int64 or empty
        if top.bit_length() <= _FLOAT_EXP:
            return values.astype(np.float64)  # numpy rounds ints as float() does
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


def int_str(v: int) -> str:
    """The decimal text of v for every output file and JSON field. Python
    converts integers of at most sys.get_int_max_str_digits() digits to
    and from text; a longer one is a PreconditionError, because its text
    could not be read back either."""
    try:
        return str(v)
    except ValueError:
        raise PreconditionError(
            f"an output integer has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for reading or writing an integer as text"
        ) from None


class SeparationMode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


def clear_denominators(
    xn: Sequence[int], xd: Sequence[int], yn: Sequence[int], yd: Sequence[int]
) -> Tuple[List[int], List[int], int]:
    """(X, Y, D) with xn[i]/xd[i] = X[i]/D and yn[i]/yd[i] = Y[i]/D, where
    D is the least common denominator. The denominators must be positive
    but need not be in lowest terms. With L the lcm of the distinct
    denominators and N = p*L/q for each value p/q, D = L/gcd(L, N_1, ...)
    and each cleared value is N/gcd: one lcm, one gcd and one exact
    division per value."""
    dens = {*xd, *yd}
    if len(dens) == 1:  # one denominator: L is it, and every N is p
        (L,) = dens
        X, Y = list(xn), list(yn)
    else:
        L = math.lcm(1, *dens)
        scale = {q: L // q for q in dens}
        X = [p * scale[q] for p, q in zip(xn, xd)]
        Y = [p * scale[q] for p, q in zip(yn, yd)]
    g = math.gcd(L, *X, *Y)
    if g > 1:
        X = [v // g for v in X]
        Y = [v // g for v in Y]
    return X, Y, L // g


class PointSet:
    """Ordered, duplicate-free list of exact rational points.

    The stored form is the cleared integers (X, Y, D) of ``int_coords``:
    point i is (X[i]/D, Y[i]/D) with D the least common denominator.
    Every hot predicate runs on them, because the sign of a*x + b*y + c
    equals the sign of a*X + b*Y + c*D. The ``Point`` objects (``points``,
    ``P[i]``, iteration) are built from them only on first use.
    """

    def __init__(self, points: Sequence[Point]):
        pts = tuple(points)
        self._store(*clear_denominators(
            [p.x.numerator for p in pts], [p.x.denominator for p in pts],
            [p.y.numerator for p in pts], [p.y.denominator for p in pts],
        ))
        self._points = pts

    @classmethod
    def from_ratios(
        cls, xn: Sequence[int], xd: Sequence[int], yn: Sequence[int], yd: Sequence[int]
    ) -> "PointSet":
        """The points (xn[i]/xd[i], yn[i]/yd[i]), from integer numerators
        and positive denominators that need not be in lowest terms."""
        P = cls.__new__(cls)
        P._store(*clear_denominators(xn, xd, yn, yd))
        return P

    def _store(self, xs: List[int], ys: List[int], d: int) -> None:
        if len(set(zip(xs, ys))) != len(xs):
            raise ValueError("duplicate points in PointSet")
        self._int_coords = (xs, ys, d)
        self._points: Optional[Tuple[Point, ...]] = None
        self._float_coords: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def subset(self, idx: Sequence[int]) -> "PointSet":
        """The points at the distinct indices ``idx``, in that order."""
        xs, ys, d = self._int_coords
        den = [d] * len(idx)
        return PointSet.from_ratios([xs[i] for i in idx], den, [ys[i] for i in idx], den)

    @property
    def points(self) -> Tuple[Point, ...]:
        if self._points is None:
            xs, ys, d = self._int_coords
            self._points = tuple(
                Point(Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys)
            )
        return self._points

    def __len__(self):
        return len(self._int_coords[0])

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def int_coords(self) -> Tuple[List[int], List[int], int]:
        """(X, Y, D) with points[i] = (X[i]/D, Y[i]/D), D least."""
        return self._int_coords

    @cached_property
    def int_arrays(self) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """(X, Y, max |X|, max |Y|) with X, Y the int_coords as int64 arrays
        if every coordinate fits in 62 bits, else object arrays of Python ints."""
        xs, ys, _ = self._int_coords
        xmax = max(map(abs, xs), default=0)
        ymax = max(map(abs, ys), default=0)
        dtype = np.int64 if max(xmax, ymax) < 2 ** 62 else object
        return np.array(xs, dtype=dtype), np.array(ys, dtype=dtype), xmax, ymax

    def float_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Float64 x and y arrays for the kernels: float_array of the
        Fraction coordinates. When X, Y and D are all at most 2^53 in
        magnitude they are exact doubles, so one numpy division X/D,
        correctly rounded, gives the same floats as float(Fraction)."""
        if self._float_coords is None:
            xs, ys, d = self._int_coords
            X, Y, xmax, ymax = self.int_arrays
            if max(xmax, ymax, d) <= 2 ** 53:
                self._float_coords = (X / d, Y / d)
            else:
                self._float_coords = (float_array([Fraction(x, d) for x in xs]),
                                      float_array([Fraction(y, d) for y in ys]))
        return self._float_coords

    def pairs(self) -> List[PairId]:
        n = len(self)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


# Pairs per block of `candidate_lines`: bounds its temporaries.
_PAIR_BLOCK = 1 << 16


def _directions(P: PointSet, I: np.ndarray, J: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The reduced directions (p, q) = (Y_j - Y_i, X_i - X_j) / h of the
    lines through points I[k] and J[k] of P, h = gcd(p, q) signed so that
    p > 0 or p = 0 < q: int64 arrays, or object arrays when P.int_arrays are."""
    X, Y = P.int_arrays[:2]
    p, q = Y[J] - Y[I], X[I] - X[J]
    h = np.gcd(p, q)
    h[(p < 0) | ((p == 0) & (q < 0))] *= -1
    return p // h, q // h


def _line_coeffs(P: PointSet, I: np.ndarray, J: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Canonical coefficients (a, b, c) of the lines through points I[k]
    and J[k] of P, the same as int_line_through, read on demand: int64
    arrays when every value fits, object arrays of Python ints otherwise.
    With (p, q) = _directions(P, I, J) and c = -(p*X_i + q*Y_i), the line
    is (p*D, q*D, c) / g, g = gcd(D, c): gcd(p, q) = 1, so g is the gcd of
    all three."""
    d = P.int_coords()[2]
    X, Y, xmax, ymax = P.int_arrays
    (p, q), xi, yi = _directions(P, I, J), X[I], Y[I]
    M = max(xmax, ymax)
    if 4 * M * M >= 2 ** 63 or 2 * M * d >= 2 ** 63:
        p, q, xi, yi = (v.astype(object) for v in (p, q, xi, yi))
    c = -(p * xi + q * yi)
    g = np.gcd(c, d)
    e = d // g
    return p * e, q * e, c // g


def _line_floats(P: PointSet, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """float_array of each row of _line_coeffs(P, I, J), bit for bit, as a (3, k)
    matrix: in int64 limbs when |X|, |Y| < 2^40 and D <= 2^40 (the limb regime)."""
    d = P.int_coords()[2]
    X, Y, xmax, ymax = P.int_arrays
    if max(xmax, ymax) >= 2 ** 40 or d > 2 ** 40:
        return np.array([float_array(v) for v in _line_coeffs(P, I, J)])
    # |p|, |q| < 2^41 and e = D / g <= 2^40 are exact doubles, so one float
    # multiply rounds a = p*e and b = q*e once, correctly. X_i = (X_i >> 20)*2^20
    # + (X_i & 0xFFFFF) with both parts at most 2^20 in magnitude, Y_i alike:
    # c0 = -(p*X_i + q*Y_i) is H*2^20 + L with |H|, |L| < 2^62. g = gcd(c0 mod D,
    # D) comes from ((H mod D) << 20) + L mod D < 2^61, and c = c0 / g is
    # (H // g)*2^20 + R with R = (((H mod g) << 20) + L) // g, |numerator| <
    # 2^60 + 2^62. As U*2^32 + V with |U| < 2^51 and 0 <= V < 2^32, fl(U)*2^32
    # and fl(V) are exact, so their sum rounds c once, correctly.
    (p, q), xi, yi = _directions(P, I, J), X[I], Y[I]
    H = -(p * (xi >> 20) + q * (yi >> 20))
    L = -(p * (xi & 0xFFFFF) + q * (yi & 0xFFFFF))
    g = np.gcd(((H % d) << 20) + L % d, d)
    e = (d // g).astype(np.float64)
    R = (((H % g) << 20) + L) // g
    t = H // g + (R >> 20)
    c = (t >> 12).astype(np.float64) * 2.0 ** 32 + (((t & 0xFFF) << 20) + (R & 0xFFFFF))
    return np.array([p * e, q * e, c])


class LineSet:
    """m lines for the sign kernel, numbered 0..m-1.

    ``ABC`` is the (3, m) float_array matrix of their canonical
    coefficients, with rows ``A``, ``B`` and ``C``. The exact coefficients
    come on demand (``coeffs``, ``lines``): from ``E``, a (3, m)
    object array of Python ints, or, when it is None, from a point pair
    (I[k], J[k]) of the PointSet ``P`` on each line, by ``_line_coeffs``.
    Those pair points lie on their lines, so ``signs`` at P leaves their
    entries at the kernel's 0 without settling them. ``ls[idx]`` is the sub-collection
    of the lines ``idx`` (an index array, or a slice, which copies no
    column); iterating gives the lines as CanonicalLines."""

    def __init__(self, ABC: np.ndarray, E=None, P: Optional[PointSet] = None, I=None, J=None):
        self.ABC, (self.A, self.B, self.C) = ABC, ABC
        self.E, self.P, self.I, self.J = E, P, I, J

    @classmethod
    def of(cls, lines) -> "LineSet":
        """``lines`` itself if it is a LineSet, else the LineSet of a
        sequence of CanonicalLines, in their order."""
        if isinstance(lines, LineSet):
            return lines
        E = np.array([l.coeffs() for l in lines], dtype=object).reshape(-1, 3).T
        return cls(float_array(E.ravel()).reshape(3, -1), E)

    def __len__(self):
        return self.ABC.shape[1]

    def __iter__(self):
        return iter(self.lines())

    def __getitem__(self, idx) -> "LineSet":
        E, I, J = (None if V is None else V[..., idx] for V in (self.E, self.I, self.J))
        return LineSet(self.ABC[:, idx], E, self.P, I, J)

    def coeffs(self, idx=slice(None)) -> Tuple[List[int], List[int], List[int]]:
        """Exact canonical (a, b, c) of the lines ``idx``, as Python ints."""
        if self.E is None:
            return tuple(v.tolist() for v in _line_coeffs(self.P, self.I[idx], self.J[idx]))
        return tuple(self.E[:, idx].tolist())

    def lines(self, idx=slice(None)) -> List[CanonicalLine]:
        """The lines ``idx`` (default: all) as CanonicalLine objects."""
        return [CanonicalLine(*abc) for abc in zip(*self.coeffs(idx))]

    def signs(self, P: PointSet, pts: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact signs of the lines at the points ``pts`` of P (distinct, in
        any order; default all), an int8 array of shape (points, lines):
        the float kernel, with the known points on each line set to 0 and
        every other uncertain entry settled in integers."""
        pts = np.arange(len(P)) if pts is None else pts
        xf, yf = P.float_coords()
        S, unc = _kernels.eval_signs(*self.ABC, xf[pts], yf[pts])
        if P is self.P:  # the kernel leaves these entries 0 and uncertain
            row_of = np.full(len(P), -1)  # point -> row of S, or -1
            row_of[pts] = np.arange(len(pts))
            for row in (row_of[self.I], row_of[self.J]):
                col = np.flatnonzero(row >= 0)
                unc[row[col], col] = False
        return settle(P, self, S, unc, pts)


class CandidateLines(LineSet):
    """The distinct lines through pairs of points of P, as a LineSet of
    index arrays: line k is the line through its first incident pair
    (I[k], J[k]), and the lines are numbered in the order of those pairs.
    ``groups`` holds the incident pairs, in pair order, of each line
    through three or more points; every other line has one. In general
    position there are C(n,2) lines and no groups."""

    def __init__(self, P: PointSet, I, J, ABC, groups: Optional[Dict[int, List[PairId]]] = None):
        super().__init__(ABC, None, P, I, J)
        self.groups = groups or {}

    def incidences(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(line, i, j) of every pair (i, j) of points of P, i < j, in pair
        order: each pair lies on exactly one of the lines."""
        L, I, J = np.arange(len(self)), self.I, self.J
        if self.groups:
            more = [(k, i, j) for k, prs in self.groups.items() for i, j in prs[1:]]
            L, I, J = (np.r_[V, W] for V, W in zip((L, I, J), np.array(more).T))
            order = np.lexsort((J, I))
            L, I, J = L[order], I[order], J[order]
        return L, I, J

    def coeff_order(self) -> np.ndarray:
        """The line indices in canonical-coefficient order.

        Rounding to float never reverses an order, so a lexsort of the
        float columns is exact except inside runs of equal floats that can
        stand for distinct integers: magnitudes of 2^53 and more, and NaN
        (out of float_array's range), which first becomes -inf or +inf by
        the exact sign. Those runs are sorted by exact coefficients."""
        keys = []
        for col, V in enumerate(self.ABC):
            nan = np.flatnonzero(np.isnan(V))
            if len(nan):
                V = V.copy()
                V[nan] = np.where(np.array(self.coeffs(nan)[col]) > 0, np.inf, -np.inf)
            keys.append(V)
        order = np.lexsort(keys[::-1])
        tied = np.ones(max(len(order) - 1, 0), dtype=bool)
        unsure = np.zeros_like(tied)  # positions p, p + 1 may be out of order
        for V in keys:
            s = V[order]
            tied &= s[1:] == s[:-1]
            unsure |= tied & ~(np.abs(s[1:]) < 2.0 ** 53)
        edges = np.diff(np.r_[0, unsure.view(np.int8), 0])
        for lo, hi in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) + 1):
            run = order[lo:hi]
            abc = list(zip(*self.coeffs(run)))
            order[lo:hi] = run[sorted(range(len(run)), key=abc.__getitem__)]
        return order


def candidate_lines(P: PointSet) -> CandidateLines:
    """All distinct lines through pairs of P, numbered in the order of
    their first pair (i, j), i < j, lexicographic.

    The float columns of all pairs are computed in numpy, a block of
    pairs at a time (``_line_floats``); the exact coefficients are not
    kept. Equal lines have equal float rows, so only pairs whose rows'
    bits hash alike are compared exactly, and grouped."""
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    I, J = np.triu_indices(n, 1)
    ABC = np.empty((3, len(I)))
    for lo in range(0, len(I), _PAIR_BLOCK):
        blk = slice(lo, lo + _PAIR_BLOCK)
        ABC[:, blk] = _line_floats(P, I[blk], J[blk])
    U = ABC.view(np.uint64)  # the one NaN of float_array has one bit pattern
    key = U[0] * np.uint64(0x9E3779B97F4A7C15) ^ U[1] * np.uint64(0xBF58476D1CE4E5B9) ^ U[2]
    order = np.argsort(key)
    tied = key[order][1:] == key[order][:-1]
    if not tied.any():
        return CandidateLines(P, I, J, ABC)
    suspects = np.unique(np.r_[order[:-1][tied], order[1:][tied]])
    by_line: Dict[Tuple[int, int, int], List[int]] = {}
    exact = zip(*(v.tolist() for v in _line_coeffs(P, I[suspects], J[suspects])))
    for k, abc in zip(suspects.tolist(), exact):
        by_line.setdefault(abc, []).append(k)
    shared = [ks for ks in by_line.values() if len(ks) > 1]
    keep = np.ones(len(I), dtype=bool)
    for ks in shared:
        keep[ks[1:]] = False
    first = np.flatnonzero(keep)
    groups = {
        int(k): [(int(I[q]), int(J[q])) for q in ks]
        for k, ks in zip(np.searchsorted(first, [ks[0] for ks in shared]), shared)
    }
    return CandidateLines(P, I[first], J[first], ABC[:, first], groups)


def settle(
    P: PointSet, lines: LineSet, signs: np.ndarray, unc: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Set the entries of a kernel sign block (points ``pts`` by
    ``lines``) that ``unc`` flags to their exact signs, computed in
    integers from the lines' exact coefficients."""
    if unc.any():
        ui, uj = np.nonzero(unc)
        cols, at = np.unique(uj, return_inverse=True)
        a, b, c = lines.coeffs(cols)
        xs, ys, d = P.int_coords()
        signs[ui, uj] = [
            sign(a[k] * xs[i] + b[k] * ys[i] + c[k] * d)
            for i, k in zip(pts[ui].tolist(), at.tolist())
        ]
    return signs


def _family_slots(P: PointSet, pts: np.ndarray, direction: Tuple[int, int], fam):
    """(lo, hi) for each point of ``pts`` against a family of distinct
    parallel lines g_k*(p*x + q*y) + c_k = 0, given as pairs (g_k > 0, c_k):
    lo counts the lines with the point on their positive side, hi - lo is
    1 if the point lies on one of them, else 0."""
    p, q = direction
    d = P.int_coords()[2]
    xmax, ymax = P.int_arrays[2:]
    # The sign of g_k * (p*x + q*y) + c_k is that of G*(p*X + q*Y) - T_k
    # with G = lcm(g_k) and T_k = -c_k * D * G / g_k.
    G = math.lcm(*(g for g, _ in fam))
    T = sorted(-c * d * (G // g) for g, c in fam)
    # int64 when every coordinate, G, p, q, key and offset fits in 62 bits.
    top = max(G * (abs(p) * (xmax + 1) + abs(q) * (ymax + 1)), xmax, ymax, -T[0], T[-1])
    dtype = np.int64 if top < 2 ** 62 else object
    X, Y = (np.asarray(V[pts], dtype) for V in P.int_arrays[:2])
    keys, T = G * (p * X + q * Y), np.array(T, dtype=dtype)
    return np.searchsorted(T, keys, "left"), np.searchsorted(T, keys, "right")


def sign_keys(S: np.ndarray) -> np.ndarray:
    """Exact byte keys of the rows of a sign block: packed > 0, then < 0 bits."""
    return np.concatenate([np.packbits(S > 0, 1), np.packbits(S < 0, 1)], axis=1)


def key_groups(K: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of np.unique over the rows of K as void bytes."""
    K = np.ascontiguousarray(K if K.shape[1] else np.zeros((len(K), 1), np.uint8))
    return np.unique(K.view(f"V{K.shape[1]}").ravel(), return_index=True, return_inverse=True)[1:]


def _split(cls, lo, hi, width, mode, *carry):
    """Refine the classes ``cls`` of the point copies by one family of
    ``width - 1`` parallel lines with per-copy slots (lo, hi), by one integer
    key per copy: relaxed, its class and exact sign pattern (lo + hi);
    strict, a copy on a line joins the cells on both sides of it. Drops the
    classes of one copy, all it does at width 1. Returns the new compact
    class labels and the carried per-copy arrays, filtered alike."""
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
    big = counts > 1
    keep = big[inv]
    return (np.cumsum(big) - 1)[inv[keep]], [a[keep] for a in carry]


def _split_block(cls, signs, row, mode, *carry):
    """_split by the lines of a sign block, copy k having signs[row[k]]."""
    on = (signs == 0).any(axis=0) & (mode is SeparationMode.STRICT)
    key = np.c_[cls.view(np.uint8).reshape(len(cls), 8), sign_keys(signs[:, ~on][row])]
    cls, (row, *carry) = _split(key_groups(key)[1], 0, 0, 1, SeparationMode.RELAXED, row, *carry)
    for j in np.flatnonzero(on):
        s = signs[row, j]
        cls, (row, *carry) = _split(cls, s > 0, s >= 0, 2, mode, row, *carry)
    return cls, carry


def refine(P: PointSet, lines, mode: SeparationMode) -> List[np.ndarray]:
    """The classes of two or more points the lines (a LineSet, or
    CanonicalLines) leave together, each as a sorted index array.

    Relaxed: a class is a set of points with one exact sign vector.
    Strict: a point lying on a line joins both sides of it, so a class is
    the set of points compatible with one strict side pattern; two points
    are strictly unseparated iff some class holds both, and a point may be
    in several classes. Each pair of points shares at most two classes, so
    the work stays polynomial however many lines meet at a point.

    Lines are grouped by exact direction. Each family of two or more
    parallel lines splits the live points in one step, by binary search
    of a*x+b*y among its sorted offsets in exact integers. The other lines
    split them a kernel block (``_KERNEL_THRESHOLD`` entries) at a time,
    by one exact key per copy: class label bytes, then sign_keys; strict
    mode splits by a line through a live point alone, as it duplicates
    the copies on it.
    """
    n = len(P)
    if n <= 1:
        return []
    lines = LineSet.of(lines)
    a, b, c = lines.coeffs()
    # direction (a, b) / g -> {(g, c): first index} of its distinct lines
    fams: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
    for k, (ak, bk, ck, gk) in enumerate(zip(a, b, c, map(math.gcd, a, b))):
        fams.setdefault((ak // gk, bk // gk), {}).setdefault((gk, ck), k)
    pid = np.arange(n)
    cls = np.zeros(n, dtype=np.int64)
    singles = []
    for direction, fam in sorted(fams.items(), key=lambda kv: -len(kv[1])):
        if len(fam) == 1:
            singles.extend(fam.values())
            continue
        lo, hi = _family_slots(P, pid, direction, list(fam))
        cls, (pid,) = _split(cls, lo, hi, len(fam) + 1, mode, pid)
    start = 0
    while start < len(singles) and len(pid):
        live, row = np.unique(pid, return_inverse=True)
        block = singles[start : start + max(1, _KERNEL_THRESHOLD // len(live))]
        start += len(block)
        cls, (pid,) = _split_block(cls, lines[block].signs(P, live), row, mode, pid)
    order = np.lexsort((pid, cls))
    return np.split(pid[order], np.nonzero(np.diff(cls[order]))[0] + 1) if len(pid) else []


def find_unseparated_pair(P: PointSet, lines, mode: SeparationMode) -> Optional[PairId]:
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


def rotate_line(P: PointSet, abc: Tuple[int, int, int], vals: Sequence[int],
                g: Tuple[int, int, int], k: int, cap: bool) -> Tuple[Tuple[int, int, int], ...]:
    """The canonical coefficients of the lines f + t*h, sign(t) = -1 and
    +1, that keep the strict side of every point of P off the line f with
    coefficients ``abc`` and D*f(p) = ``vals`` at the points of P, with
    h(x, y) = (g0*X + g1*Y + g2) / k at X = D*x, Y = D*y (D the common
    denominator of P, k > 0). |t| is the least of |f(p)| / (2(|h(p)| + 1))
    over the points off f, or 1 if there are none; with ``cap`` it is at
    most 1. Exact, in integers."""
    xs, ys, d = P.int_coords()
    (a, b, c), (g0, g1, g2) = abc, g
    # With V = D*f(p) and G = k*h(p) at a point, the point's bound is
    # |V| * k / (2D(|G| + k)); num / den is the least |V| / (|G| + k).
    num, den = 0, 0
    for v, x, y in zip(vals, xs, ys):
        if v:
            v, w = abs(v), abs(g0 * x + g1 * y + g2) + k
            if not den or v * den < num * w:
                num, den = v, w
    if not den or (cap and num * k > 2 * d * den):
        num, den = 2 * d, k  # |t| = 1
    # t = s * num * k / (2D * den); the coefficients of f + t*h times 2D * den.
    return tuple(canonical_ints(d * (2 * a * den + s * num * g0), d * (2 * b * den + s * num * g1),
                                2 * c * d * den + s * num * g2) for s in (-1, 1))


def _rotate_off_points(P: PointSet, line: CanonicalLine) -> CanonicalLine:
    """Rotate a line about a pivot on it, beyond every point of P it
    carries, so that it carries none, keeping the strict side of every
    point off it."""
    xs, ys, d = P.int_coords()
    a, b, c = line.coeffs()
    vals = [a * x + b * y + c * d for x, y in zip(xs, ys)]  # D * value
    # D times the position along the line, direction (-b, a), of each
    # point on it; the pivot lies one unit before the first of them.
    along = [a * y - b * x for x, y, v in zip(xs, ys, vals) if v == 0]
    if not along:
        return line
    return CanonicalLine(*rotate_line(P, (a, b, c), vals, (-b, a, d - min(along)), d, False)[1])


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
