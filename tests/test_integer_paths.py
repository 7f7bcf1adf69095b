"""The integer paths of variant realization, properize, the exact solver's
pool and pruning against rational-arithmetic references: the same
canonical lines, the same masks and the same pruned lists, on general
position, collinear grids, coordinates past 2^62 and n = 2, 3."""
from fractions import Fraction
from typing import List

import numpy as np
import pytest

from seplines.geom import CanonicalLine, Point, line_through, sign
from seplines.sepsys import (
    PointSet,
    PropernessError,
    SeparationMode,
    _perp_bisector,
    _rotate_off_points,
    candidate_lines,
    properize,
)
from seplines.solvers import (
    _RELAXED_VARIANTS,
    _STRICT_VARIANTS,
    _exact_pool,
    _prune_redundant,
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
