"""The integer paths of variant realization, properize, the exact solver's
pool and pruning, and the halving, grid and t-relaxed constructions,
against rational-arithmetic references: the same canonical lines, the same
masks and the same pruned lists, on general position, collinear grids,
shared coordinates, coordinates past 2^62 and n = 2, 3."""
import functools
import math
from fractions import Fraction
from typing import List

import numpy as np
import pytest

from seplines import experiments as ex
from seplines.geom import CanonicalLine, Point, line_through, sign
from seplines.sepsys import (
    PointSet,
    PreconditionError,
    PropernessError,
    SeparationMode,
    _perp_bisector,
    _rotate_off_points,
    candidate_lines,
    properize,
    split_line,
)
from seplines.solvers import (
    _RELAXED_VARIANTS,
    _STRICT_VARIANTS,
    _exact_pool,
    _prune_redundant,
    grid_separator,
    halving_separator,
    realize_variant,
    verify,
)

from .conftest import rand_general_position_points

RELAXED = SeparationMode.RELAXED
STRICT = SeparationMode.STRICT

# ---------------------------------------------------------------------------
# references, in Fractions


def ref_rotate(base, vals, pivot, direction, t_sign):
    dx, dy = direction
    bounds = [Fraction(1)]
    for v, h in vals:
        if v != 0:
            bounds.append(abs(v) / (2 * (abs(h) + 1)))
    t = t_sign * min(bounds)
    return CanonicalLine.from_coeffs(
        base.a + t * dx, base.b + t * dy, base.c - t * (dx * pivot.x + dy * pivot.y)
    )


def ref_realize_variant(P, u, v, su, sv):
    pu, pv = P[u], P[v]
    base = line_through(pu, pv)
    if su == 0 and sv == 0:
        return base
    vals = [base.eval_at(p) for p in P]
    if su == sv:
        nonzero = [abs(x) for x in vals if x != 0]
        t = su * (min(nonzero) if nonzero else Fraction(2)) / 2
        return CanonicalLine.from_coeffs(base.a, base.b, base.c + t)
    if su == 0 or sv == 0:
        pivot, mover, s_target = (pu, pv, sv) if su == 0 else (pv, pu, su)
        dx, dy = mover.x - pivot.x, mover.y - pivot.y
    else:
        pivot = Point((pu.x + pv.x) / 2, (pu.y + pv.y) / 2)
        dx, dy = pu.x - pivot.x, pu.y - pivot.y
        s_target = su
    pairs = [
        (vals[i], dx * (P[i].x - pivot.x) + dy * (P[i].y - pivot.y)) for i in range(len(P))
    ]
    return ref_rotate(base, pairs, pivot, (dx, dy), s_target)


def ref_perp_bisector(p, q):
    a = 2 * (q.x - p.x)
    b = 2 * (q.y - p.y)
    c = (p.x * p.x + p.y * p.y) - (q.x * q.x + q.y * q.y)
    return CanonicalLine.from_coeffs(a, b, c)


def ref_rotate_off_points(line, P):
    vals = {i: line.eval_at(p) for i, p in enumerate(P)}
    on_idx = [i for i, v in vals.items() if v == 0]
    if not on_idx:
        return line
    dx, dy = Fraction(-line.b), Fraction(line.a)
    pos = {i: dx * P[i].x + dy * P[i].y for i in on_idx}
    pivot_t = min(pos.values()) - 1
    bounds = []
    for i, v in vals.items():
        if v == 0:
            continue
        h = abs(dx * P[i].x + dy * P[i].y - pivot_t)
        bounds.append(abs(v) / (2 * (h + 1)))
    t = min(bounds) if bounds else Fraction(1)
    return CanonicalLine.from_coeffs(line.a + t * dx, line.b + t * dy, line.c - t * pivot_t)


def ref_properize(lines, P):
    out = []
    for line in lines:
        vals = [line.eval_at(p) for p in P]
        on_pts = [i for i, v in enumerate(vals) if v == 0]
        if len(on_pts) >= 3:
            raise PropernessError("three points on a line")
        if not on_pts:
            out.append(line)
            continue
        nonzero = [abs(v) for v in vals if v != 0]
        half = (min(nonzero) if nonzero else Fraction(1)) / 2
        out.append(CanonicalLine.from_coeffs(line.a, line.b, line.c - half))
        out.append(CanonicalLine.from_coeffs(line.a, line.b, line.c + half))
        if len(on_pts) == 2:
            u, v = on_pts
            out.append(ref_rotate_off_points(ref_perp_bisector(P[u], P[v]), P))
    return list(dict.fromkeys(out))


def ref_prune_redundant(P, lines, mode):
    kept = list(lines)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if trial and verify(P, trial, mode):
            kept = trial
        else:
            i += 1
    return kept


def ref_exact_pool(P, mode):
    """The exact solver's pool: variant lines with their coverage masks,
    pair by pair, deduplicated by mask and dominance-filtered."""
    pairs = P.pairs()
    variants = _STRICT_VARIANTS if mode is STRICT else _RELAXED_VARIANTS
    raw = []
    for i, j in pairs:
        for su, sv in variants:
            line = realize_variant(P, i, j, su, sv)
            row = [sign(line.eval_at(p)) for p in P]
            mask = 0
            for k, (a, b) in enumerate(pairs):
                if (row[a] * row[b] == -1) if mode is STRICT else (row[a] != row[b]):
                    mask |= 1 << k
            if mask:
                raw.append((line.coeffs(), mask, line))
    raw.sort(key=lambda e: e[0])
    by_mask = {}
    for e in raw:
        by_mask.setdefault(e[1], e)
    entries = list(by_mask.values())
    keep = [e for e in entries if not any(e[1] != o[1] and e[1] | o[1] == o[1] for o in entries)]
    keep.sort(key=lambda e: e[0])
    return keep, len(pairs)


# ---------------------------------------------------------------------------
# instances


def collinear_grid(k: int, scale=Fraction(1)) -> PointSet:
    """k x k grid points (i, j) / k, times scale: many collinear triples."""
    return PointSet(
        [Point(Fraction(i, k) * scale, Fraction(j, k) * scale) for i in range(k) for j in range(k)]
    )


def scaled(P: PointSet, factor: int) -> PointSet:
    return PointSet([Point(p.x * factor, p.y * factor) for p in P])


BIG = 10 ** 25  # integer coordinates past 2^62

INSTANCES = {
    "general": rand_general_position_points(9, seed=3),
    "general-big": scaled(rand_general_position_points(8, seed=4), BIG),
    "grid": collinear_grid(3),
    "grid-4": collinear_grid(4),
    "grid-big": collinear_grid(3, scale=BIG),
    "grid-big-offset": PointSet(
        [Point(BIG * i + 1, BIG * j + Fraction(1, 3)) for i in range(3) for j in range(3)]
    ),
    "n2": PointSet([Point(0, 0), Point(Fraction(1, 3), 1)]),
    "n2-big": PointSet([Point(BIG, 0), Point(0, BIG + 7)]),
    "n3": rand_general_position_points(3, seed=5),
    "n3-collinear": PointSet([Point(0, 0), Point(1, 1), Point(2, 2)]),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("variant", _RELAXED_VARIANTS)
def test_realize_variant_matches_fraction_reference(name, variant):
    P = INSTANCES[name]
    for u, v in P.pairs():
        for a, b in ((u, v), (v, u)):
            assert realize_variant(P, a, b, *variant) == ref_realize_variant(P, a, b, *variant)


def test_big_instances_are_past_int64():
    for name in ("general-big", "grid-big", "grid-big-offset", "n2-big"):
        assert INSTANCES[name].int_arrays is None


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_rotate_off_points_matches_fraction_reference(name):
    P = INSTANCES[name]
    lines = [line_through(P[i], P[j]) for i, j in P.pairs()]
    lines += [_perp_bisector(P, i, j) for i, j in P.pairs()]
    for line in lines:
        assert _rotate_off_points(P, line) == ref_rotate_off_points(line, P)
    for i, j in P.pairs():
        assert _perp_bisector(P, i, j) == ref_perp_bisector(P[i], P[j])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_properize_matches_fraction_reference(name):
    P = INSTANCES[name]
    rng = np.random.default_rng(11)
    pool = [realize_variant(P, i, j, *s) for i, j in P.pairs() for s in _RELAXED_VARIANTS]
    for _ in range(6):
        lines = [pool[k] for k in rng.choice(len(pool), size=min(8, len(pool)), replace=False)]
        try:
            want = ref_properize(lines, P)
        except PropernessError:
            with pytest.raises(PropernessError):
                properize(lines, P)
            continue
        assert properize(lines, P) == want


def _separating_lists(P: PointSet, pool, seed: int, count: int) -> List[List[CanonicalLine]]:
    """Shuffled lines of the pool, cut to the shortest prefix that
    separates in relaxed mode plus a few more."""
    rng = np.random.default_rng(seed)
    pool = list(dict.fromkeys(pool))
    out = []
    for _ in range(count):
        order = [pool[k] for k in rng.permutation(len(pool))]
        m = next(m for m in range(1, len(order) + 1) if verify(P, order[:m], RELAXED))
        out.append(order[: m + 3])
    return out


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_prune_matches_verify_loop_reference(name):
    P = INSTANCES[name]
    pool = [realize_variant(P, i, j, *s) for i, j in P.pairs() for s in _RELAXED_VARIANTS]
    for lines in _separating_lists(P, pool, seed=len(P), count=4):
        assert _prune_redundant(P, lines) == ref_prune_redundant(P, lines, RELAXED)


def test_prune_matches_reference_on_larger_general_position():
    P = rand_general_position_points(40, seed=12)
    for lines in _separating_lists(P, candidate_lines(P).lines, seed=13, count=3):
        assert _prune_redundant(P, lines) == ref_prune_redundant(P, lines, RELAXED)


@pytest.mark.parametrize(
    "name,mode",
    [("general", STRICT), ("general-big", STRICT), ("n3", STRICT),
     ("general", RELAXED), ("grid-big-offset", RELAXED), ("n3-collinear", RELAXED)],
)
def test_exact_pool_matches_pairwise_reference(name, mode):
    P = INSTANCES[name]
    assert _exact_pool(P, mode) == ref_exact_pool(P, mode)


# ---------------------------------------------------------------------------
# the halving, grid and t-relaxed constructions against Fraction references


def ref_lex_split_line(P, order, cut):
    a, b = order[cut - 1], order[cut]
    pa, pb = P[a], P[b]
    if pa.x != pb.x:
        return CanonicalLine.from_coeffs(1, 0, -(pa.x + pb.x) / 2)
    xs = sorted({p.x for p in P})
    gaps = [xs[i + 1] - xs[i] for i in range(len(xs) - 1)]
    if not gaps:
        return CanonicalLine.from_coeffs(0, 1, -(pa.y + pb.y) / 2)
    ys = [p.y for p in P]
    eps = min(gaps) / (2 * (max(ys) - min(ys) + 1))
    va, vb = pa.x + eps * pa.y, pb.x + eps * pb.y
    return CanonicalLine.from_coeffs(1, eps, -(va + vb) / 2)


def ref_median_split_line(P, idxs):
    pts = [P[i] for i in idxs]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    vertical = (max(xs) - min(xs)) >= (max(ys) - min(ys))
    if vertical:
        order = sorted(idxs, key=lambda i: (P[i].x, P[i].y))
    else:
        order = sorted(idxs, key=lambda i: (P[i].y, P[i].x))
    cut = len(order) // 2
    a, b = P[order[cut - 1]], P[order[cut]]
    if vertical:
        if a.x != b.x:
            line = CanonicalLine.from_coeffs(1, 0, -(a.x + b.x) / 2)
        else:
            gaps = sorted({p.x for p in pts})
            eps_pool = [g2 - g1 for g1, g2 in zip(gaps, gaps[1:])]
            eps = (min(eps_pool) if eps_pool else Fraction(1)) / (2 * (max(ys) - min(ys) + 1))
            va, vb = a.x + eps * a.y, b.x + eps * b.y
            line = CanonicalLine.from_coeffs(1, eps, -(va + vb) / 2)
    else:
        if a.y != b.y:
            line = CanonicalLine.from_coeffs(0, 1, -(a.y + b.y) / 2)
        else:
            gaps = sorted({p.y for p in pts})
            eps_pool = [g2 - g1 for g1, g2 in zip(gaps, gaps[1:])]
            eps = (min(eps_pool) if eps_pool else Fraction(1)) / (2 * (max(xs) - min(xs) + 1))
            va, vb = a.y + eps * a.x, b.y + eps * b.x
            line = CanonicalLine.from_coeffs(eps, 1, -(va + vb) / 2)
    return line, order[:cut], order[cut:]


def ref_split_two_pairs(p1, p2, q1, q2):
    """The old one-way search, returning None where it raised."""
    m1 = Point((p1.x + p2.x) / 2, (p1.y + p2.y) / 2)
    for denom in range(2, 12):
        t = Fraction(1, denom)
        m2 = Point(q1.x + t * (q2.x - q1.x), q1.y + t * (q2.y - q1.y))
        if m1 == m2:
            continue
        line = line_through(m1, m2)
        if (
            sign(line.eval_at(p1)) * sign(line.eval_at(p2)) == -1
            and sign(line.eval_at(q1)) * sign(line.eval_at(q2)) == -1
        ):
            return line
    return None


def ref_split_either_way(p1, p2, q1, q2):
    line = ref_split_two_pairs(p1, p2, q1, q2) or ref_split_two_pairs(q1, q2, p1, p2)
    assert line is not None
    return line


def ref_shift_toward(base, target):
    return CanonicalLine.from_coeffs(base.a, base.b, base.c - target / 2)


def ref_cut_two_and_two(P, active_L, active_R):
    """The first pair and strict variant, in index order, whose realized
    line cuts exactly two points off each part."""
    active = active_L + active_R
    sub = PointSet([P[w] for w in active])
    for ii in range(len(active)):
        for jj in range(ii + 1, len(active)):
            for su, sv in _STRICT_VARIANTS:
                line = realize_variant(sub, ii, jj, su, sv)
                sides = {w: sign(line.eval_at(P[w])) for w in active}
                for lside in (1, -1):
                    cutL = [w for w in active_L if sides[w] == lside]
                    if len(cutL) != 2:
                        continue
                    for rside in (1, -1):
                        cutR = [w for w in active_R if sides[w] == rside]
                        if len(cutR) == 2:
                            return cutL, cutR, line
    raise AssertionError("no 2+2 cut")


def ref_halving(P):
    n = len(P)
    order = sorted(range(n), key=lambda i: (P[i].x, P[i].y))
    cut = (n + 1) // 2
    lines = [ref_lex_split_line(P, order, cut)]
    L, R = sorted(order[:cut]), sorted(order[cut:])
    while len(R) >= 3:
        cutL, cutR, line = ref_cut_two_and_two(P, L, R)
        lines += [line, ref_split_either_way(*(P[w] for w in cutL + cutR))]
        L = [w for w in L if w not in cutL]
        R = [w for w in R if w not in cutR]
    if (len(L), len(R)) == (3, 2):
        a, b, c = L
        base = line_through(P[a], P[b])
        lines.append(ref_shift_toward(base, base.eval_at(P[c])))
        lines.append(ref_split_either_way(P[a], P[b], P[R[0]], P[R[1]]))
    elif (len(L), len(R)) == (2, 2):
        lines.append(ref_split_either_way(*(P[w] for w in L + R)))
    elif len(L) == 2:
        lines.append(ref_perp_bisector(P[L[0]], P[L[1]]))
    return lines


def ref_grid_lines(N):
    return [CanonicalLine.from_coeffs(N, 0, -i) for i in range(1, N)] + [
        CanonicalLine.from_coeffs(0, N, -i) for i in range(1, N)
    ]


def ref_grid(P, N):
    lines = ref_grid_lines(N)
    cells = {}

    def coord(v):
        c = math.floor(v * N)
        if v * N == c and 0 < c < N:
            return c - 1
        return min(c, N - 1)

    for i, p in enumerate(P):
        cells.setdefault((coord(p.x), coord(p.y)), []).append(i)
    for key in sorted(cells):
        idxs = cells[key]
        if len(idxs) == 2:
            lines.append(ref_perp_bisector(P[idxs[0]], P[idxs[1]]))
        elif len(idxs) > 2:
            lines += ref_halving(PointSet([P[i] for i in idxs]))
    while True:
        pair = next(
            ((i, j) for i, j in P.pairs()
             if not any(sign(l.eval_at(P[i])) * sign(l.eval_at(P[j])) == -1 for l in lines)),
            None,
        )
        if pair is None:
            return lines
        lines.append(ref_perp_bisector(P[pair[0]], P[pair[1]]))


def ref_t_relaxed(P, t):
    N = math.ceil(len(P) ** ((t + 1) / (2 * t + 1)))
    lines = ref_grid_lines(N)
    cells = {}
    for i, p in enumerate(P):
        key = (min(math.floor(p.x * N), N - 1), min(math.floor(p.y * N), N - 1))
        cells.setdefault(key, []).append(i)

    def split(group):
        if len(group) > t:
            line, left, right = ref_median_split_line(P, group)
            lines.append(line)
            split(left)
            split(right)

    for key in sorted(cells):
        split(cells[key])
    return lines


def ref_cell_stats(P, N):
    """(colliding pairs, active cells) on the N x N grid, in Fractions."""
    occ = {}
    for p in P:
        key = (min(math.floor(p.x * N), N - 1), min(math.floor(p.y * N), N - 1))
        occ[key] = occ.get(key, 0) + 1
    colliding = sum(k * (k - 1) // 2 for k in occ.values())
    return colliding, sorted(cx * N + cy for (cx, cy), k in occ.items() if k >= 2)


def general_position_with(rng, n, xcoord, ycoord):
    """n distinct points, no three collinear, with coordinates drawn by
    xcoord(rng) and ycoord(rng) (rejection sampled)."""
    pts = []
    while len(pts) < n:
        p = Point(xcoord(rng), ycoord(rng))
        if p in pts or any(
            (q.x - p.x) * (r.y - p.y) == (q.y - p.y) * (r.x - p.x)
            for k, q in enumerate(pts) for r in pts[k + 1 :]
        ):
            continue
        pts.append(p)
    return PointSet(pts)


def fine(rng):
    return Fraction(int(rng.integers(0, 998)), 997)


def past_2_62(rng):
    return Fraction(int(rng.integers(0, 2 ** 62)) * 2 ** 8 + int(rng.integers(1, 256)), 2 ** 70)


@functools.lru_cache(maxsize=None)
def sample(kind, n, seed):
    """n seeded points of the unit square, no three collinear: general,
    sharing x or y values (about two points a value), or with cleared
    coordinates past 2^62."""
    rng = np.random.default_rng(seed)
    if kind == "general":
        return rand_general_position_points(n, seed)
    if kind == "big":
        return general_position_with(rng, n, past_2_62, past_2_62)
    pool = [fine(rng) for _ in range((n + 1) // 2)]

    def few(rng):
        return pool[int(rng.integers(0, len(pool)))]

    xcoord, ycoord = (few, fine) if kind == "shared-x" else (fine, few)
    return general_position_with(rng, n, xcoord, ycoord)


KINDS = ("general", "shared-x", "shared-y", "big")
HALVING_SETS = [(kind, n, seed) for kind in KINDS
                for n, seed in ((4, 1), (5, 2), (7, 3), (10, 4), (13, 5))]


@pytest.mark.parametrize("kind", KINDS)
def test_split_line_matches_both_fraction_references(kind):
    P = sample(kind, 12, 8)
    n = len(P)
    order = sorted(range(n), key=lambda i: (P[i].x, P[i].y))
    tilted = 0
    for cut in range(1, n):
        line, lo, hi = split_line(P, range(n), 0, cut)
        assert (line, lo, hi) == (ref_lex_split_line(P, order, cut), order[:cut], order[cut:])
        tilted += line.a != 0 and line.b != 0
    rng = np.random.default_rng(9)
    for _ in range(40):
        group = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
        span = [max(c) - min(c) for c in zip(*((P[i].x, P[i].y) for i in group))]
        line, lo, hi = split_line(P, group, int(span[0] < span[1]), len(group) // 2)
        assert (line, lo, hi) == ref_median_split_line(P, group)
        tilted += line.a != 0 and line.b != 0
    assert tilted or not kind.startswith("shared")


@pytest.mark.parametrize("kind,n,seed", HALVING_SETS)
def test_halving_matches_fraction_reference(kind, n, seed):
    P = sample(kind, n, seed)
    assert halving_separator(P) == ref_halving(P)


def test_halving_two_points_equal_x():
    for P in (PointSet([Point(Fraction(1, 3), 0), Point(Fraction(1, 3), 2)]),
              PointSet([Point(BIG, BIG + 1), Point(BIG, -BIG)])):
        assert halving_separator(P) == ref_halving(P)
        assert halving_separator(P)[0].a == 0  # horizontal


def test_halving_scaled_past_2_62():
    P = scaled(rand_general_position_points(9, seed=21), BIG)
    assert P.int_arrays is None
    assert halving_separator(P) == ref_halving(P)


def test_split_two_pairs_retries_with_roles_swapped():
    # The midpoint (1/2, 1) of the first pair lies on the line through the second.
    p = [Point(0, 0), Point(1, 2), Point(2, 0), Point(Fraction(7, 2), -1)]
    assert ref_split_two_pairs(*p) is None
    P = PointSet(p)
    assert halving_separator(P) == ref_halving(P)


GRID_SETS = [(kind, n, seed) for kind in KINDS
             for n, seed in ((6, 1), (12, 2), (24, 3), (40, 4))]


ON_GRID_LINE = pytest.mark.filterwarnings("ignore:.*exactly on grid lines")


@ON_GRID_LINE
@pytest.mark.parametrize("kind,n,seed", GRID_SETS)
def test_grid_matches_fraction_reference(kind, n, seed):
    P = sample(kind, n, seed)
    for N in (1, 2, math.ceil(n ** (2 / 3))):
        assert grid_separator(P, N) == ref_grid(P, N)


# Unit-square sets with collinear points, and with points on the edges
# x = 1 and y = 1, which belong to the last row or column of cells.
UNIT_SQUARE = {
    "collinear": collinear_grid(5),
    "edges": PointSet(
        [Point(1, Fraction(j, 7)) for j in range(8)] + [Point(Fraction(j, 7), 1) for j in range(7)]
    ),
}
CELL_SETS = GRID_SETS + [(name, 0, 0) for name in UNIT_SQUARE]


def unit_square_set(kind, n, seed):
    return UNIT_SQUARE[kind] if kind in UNIT_SQUARE else sample(kind, n, seed)


@pytest.mark.parametrize("kind,n,seed", CELL_SETS)
@pytest.mark.parametrize("t", [1, 2, 3])
def test_t_relaxed_matches_fraction_reference(kind, n, seed, t):
    P = unit_square_set(kind, n, seed)
    assert ex.t_relaxed_separator(P, t) == ref_t_relaxed(P, t)


@pytest.mark.parametrize("kind,n,seed", CELL_SETS)
def test_cell_counts_match_fraction_reference(kind, n, seed):
    P = unit_square_set(kind, n, seed)
    for N in (1, 2, 3, 7):
        colliding, active = ex.cell_counts(*P.int_coords(), N)
        assert (colliding, active.tolist()) == ref_cell_stats(P, N)


def test_cell_statistics_matches_random_points():
    for n, seed in [(100, 1), (700, 7)]:
        N = math.ceil(n ** (2 / 3))
        colliding, active = ref_cell_stats(ex.random_points(n, seed), N)
        assert ex.cell_statistics(n, N, seed) == (colliding, len(active), 0)


@ON_GRID_LINE
@pytest.mark.parametrize("coord", [Fraction(0), Fraction(1)])
def test_unit_square_boundary_accepted(coord):
    P = PointSet([Point(coord, 0), Point(Fraction(1, 2), coord), Point(Fraction(1, 3), 1)])
    assert grid_separator(P, 2) == ref_grid(P, 2)
    assert ex.t_relaxed_separator(P, 1) == ref_t_relaxed(P, 1)


@pytest.mark.parametrize("x,y", [(1 + Fraction(1, 2 ** 80), 0), (0, -Fraction(1, 2 ** 80))])
def test_outside_unit_square_rejected(x, y):
    P = PointSet([Point(x, y), Point(Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(PreconditionError, match="unit square"):
        grid_separator(P, 2)
    with pytest.raises(PreconditionError, match="unit square"):
        ex.t_relaxed_separator(P, 1)
