import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seplines import solvers
from seplines.experiments import random_points
from seplines.geom import CanonicalLine, pt, side
from seplines.sepsys import (
    PointSet, PreconditionError, SeparationMode, TooFewPointsError, candidate_lines,
    line_signs, properize,
)
from seplines.solvers import (
    EXACT_SIZE_CAP,
    SizeCapError,
    WeightState,
    _capacity,
    _pair_hits,
    exact_separability,
    greedy_hitting_set,
    grid_separator,
    halving_separator,
    realize_variant,
    reweight_approx,
    variant_signs,
    verify,
)

from .conftest import perturbed_grid, rand_general_position_points

STRICT = SeparationMode.STRICT
RELAXED = SeparationMode.RELAXED

SQUARE = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


# ---------------------------------------------------------------------------
# realize_variant


def test_realize_variant_all_sign_patterns():
    rng = np.random.default_rng(0)
    for seed in range(8):
        P = rand_general_position_points(6, seed=200 + seed)
        u, v = sorted(rng.choice(6, size=2, replace=False).tolist())
        from seplines.geom import line_through

        base = line_through(P[u], P[v])
        base_sides = [side(base, p) for p in P]
        for su in (-1, 0, 1):
            for sv in (-1, 0, 1):
                line = realize_variant(P, u, v, su, sv)
                assert side(line, P[u]) == su
                assert side(line, P[v]) == sv
                for i, p in enumerate(P):
                    if base_sides[i] != 0:
                        assert side(line, p) == base_sides[i], (seed, u, v, su, sv, i)


@st.composite
def variant_cases(draw):
    """(P, pts): distinct points of a 4 x 4 grid (collinear runs), the same
    scaled past 2^62, or points 2^-50 or less off the diagonal y = x;
    and a subset of P's indices in random order."""
    kind = draw(st.sampled_from(["grid", "scaled", "near"]))
    n = draw(st.integers(3, 8))
    if kind == "near":
        xs = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n, unique=True))
        off = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        u = 2 ** 50
        P = PointSet.from_ratios(
            [x * u for x in xs], [u] * n, [x * u + o for x, o in zip(xs, off)], [u] * n
        )
    else:
        cells = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n, unique=True))
        k = 2 ** 62 + 3 if kind == "scaled" else 1
        P = PointSet.from_ratios(
            [c // 4 * k for c in cells], [1] * n, [c % 4 * k - 5 for c in cells], [1] * n
        )
    order = draw(st.permutations(range(n)))
    return P, np.array(order[: draw(st.integers(1, n))])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(variant_cases())
def test_variant_signs_match_realized_variants(case):
    """variant_signs gives the signs of the line realize_variant builds, for
    every incident pair of every candidate line and each strict variant,
    negated where canonicalization flips the realized line."""
    P, pts = case
    cand = candidate_lines(P)
    L, I, J = cand.incidences()
    E = np.arange(4 * len(L))
    i, j = I[E // 4], J[E // 4]
    su, sv = np.array([(-1, -1), (-1, 1), (1, -1), (1, 1)], dtype=np.int8)[E % 4].T
    V = variant_signs(cand, L[E // 4], i, j, su, sv, pts)
    lines = [realize_variant(P, *e) for e in zip(*(v.tolist() for v in (i, j, su, sv)))]
    R = line_signs(P, lines)
    flip = R[i, E] * su  # the realized line's orientation against the base line's
    assert V.dtype == np.int8 and np.all(np.abs(flip) == 1)
    assert np.array_equal(V, (R * flip)[pts])


# ---------------------------------------------------------------------------
# exact solver


def test_exact_two_points_both_modes():
    P = PointSet([pt(0, 0), pt(1, 1)])
    for mode in (STRICT, RELAXED):
        sigma, lines = exact_separability(P, mode)
        assert sigma == 1 and len(lines) == 1
        assert verify(P, lines, mode)


def test_exact_square_is_two():
    sigma, lines = exact_separability(SQUARE, STRICT)
    assert sigma == 2
    assert verify(SQUARE, lines, STRICT)


def test_exact_five_general_position_is_three():
    for seed in (0, 1):
        P = rand_general_position_points(5, seed=300 + seed)
        sigma, lines = exact_separability(P, STRICT)
        assert sigma == 3
        assert verify(P, lines, STRICT)


def test_exact_relaxed_leq_strict():
    for seed in range(3):
        P = rand_general_position_points(6, seed=400 + seed)
        s_strict, _ = exact_separability(P, STRICT)
        s_relaxed, lr = exact_separability(P, RELAXED)
        assert s_relaxed <= s_strict
        assert verify(P, lr, RELAXED)


def test_exact_size_cap():
    P = rand_general_position_points(EXACT_SIZE_CAP + 1, seed=1)
    with pytest.raises(SizeCapError):
        exact_separability(P, STRICT)
    with pytest.raises(TooFewPointsError):
        exact_separability(PointSet([pt(0, 0)]), STRICT)


def test_capacity_formulas():
    # t lines cut a face into at most 1 + t(t+1)/2 cells; counting cells,
    # open edges, and vertices gives 1 + 2t^2.
    assert [_capacity(t, STRICT) for t in range(4)] == [1, 2, 4, 7]
    assert [_capacity(t, RELAXED) for t in range(4)] == [1, 3, 9, 19]


# ---------------------------------------------------------------------------
# greedy


def test_greedy_two_points_single_line():
    P = PointSet([pt(0, 0), pt(3, 1)])
    for mode in (STRICT, RELAXED):
        lines = greedy_hitting_set(P, mode)
        assert len(lines) == 1
        assert verify(P, lines, mode)


def test_greedy_verified_and_near_optimal_small():
    for seed in range(4):
        P = rand_general_position_points(8, seed=500 + seed)
        sigma, _ = exact_separability(P, STRICT)
        lines = greedy_hitting_set(P, STRICT)
        assert verify(P, lines, STRICT)
        # ln-approximation bound for hitting set, loose check
        assert len(lines) <= sigma * (1 + math.ceil(math.log(len(P) ** 2)))
        relaxed = greedy_hitting_set(P, RELAXED)
        assert verify(P, relaxed, RELAXED)
        assert len(relaxed) <= len(lines)


def test_greedy_deterministic():
    P = rand_general_position_points(9, seed=7)
    assert greedy_hitting_set(P, STRICT) == greedy_hitting_set(P, STRICT)


# ---------------------------------------------------------------------------
# reweighting


def test_reweight_returns_verified_relaxed_set():
    for seed in range(3):
        P = rand_general_position_points(10, seed=600 + seed)
        res = reweight_approx(P, seed=seed)
        assert verify(P, res.lines, RELAXED)
        assert res.rounds_used >= 0
        assert res.guess_history


def test_reweight_deterministic_per_seed():
    P = rand_general_position_points(10, seed=42)
    r1 = reweight_approx(P, seed=5)
    r2 = reweight_approx(P, seed=5)
    assert r1.lines == r2.lines
    assert r1.rounds_used == r2.rounds_used


def test_reweight_output_is_irredundant():
    # Pruning is always on: dropping any one output line breaks separation.
    P = rand_general_position_points(12, seed=43)
    res = reweight_approx(P, seed=1)
    lines = res.lines
    assert not res.fell_back and verify(P, lines, RELAXED)
    for i in range(len(lines)):
        assert not verify(P, lines[:i] + lines[i + 1 :], RELAXED), i


def small_grid_points(seed):
    """6..13 distinct points of a 4x4..6x6 integer grid: many collinear
    triples, so many candidate lines pass through extra points."""
    rng = np.random.default_rng(seed)
    g = int(rng.integers(4, 7))
    cells = rng.choice(g * g, int(rng.integers(6, 14)), replace=False)
    xs, ys = (cells // g).tolist(), (cells % g).tolist()
    return PointSet.from_ratios(xs, [g] * len(xs), ys, [g] * len(ys))


def near_collinear_points(seed):
    """Three triples of the 2^40 grid, the third point of each one unit of
    orientation determinant off the line through the other two: too close
    for the float kernel to give its sign."""
    rng = np.random.default_rng(seed)
    G = 2 ** 40
    xs, ys = [], []
    while len(xs) < 9:
        x0, y0, dx, dy = (int(v) for v in rng.integers(2, G // 2, 4))
        if math.gcd(dx, dy) == 1:
            v = pow(dx, -1, dy)  # dx * v - dy * u = 1
            xs += [x0, x0 + dx, x0 + (dx * v - 1) // dy]
            ys += [y0, y0 + dy, y0 + v]
    return PointSet.from_ratios(xs, [G] * 9, ys, [G] * 9)


@pytest.mark.parametrize(
    "make, collinear",
    [
        (small_grid_points, True),
        (lambda seed: random_points(8 + seed % 8, seed), False),
        (near_collinear_points, False),
    ],
    ids=["small-grid", "2^40-grid", "near-collinear"],
)
def test_pair_hits_match_exact_signs(make, collinear):
    """_pair_hits(cand, (i, j)) is exactly the candidates on whose
    exact signs i and j differ, extra points of a grouped line included."""
    grouped = 0
    for seed in range(30):
        P = make(seed)
        cand = candidate_lines(P)
        grouped += len(cand.groups)
        S = line_signs(P, cand.lines())
        for i in range(len(P)):
            for j in range(i + 1, len(P)):
                want = np.flatnonzero(S[i] != S[j])
                assert np.array_equal(_pair_hits(cand, (i, j)), want), (seed, i, j)
    assert (grouped > 0) == collinear


def test_reweight_negative_seed_is_precondition():
    with pytest.raises(PreconditionError, match="seed must be non-negative"):
        reweight_approx(SQUARE, seed=-1)


def test_reweight_then_properize_gives_strict():
    P = rand_general_position_points(9, seed=44)
    res = reweight_approx(P, seed=2)
    strict = properize(res.lines, P)
    assert verify(P, strict, STRICT)
    assert len(strict) <= 3 * len(res.lines)


def test_weight_state_doubling_and_masking():
    w = WeightState(8)
    mask = np.zeros(8, dtype=bool)
    mask[:3] = True
    assert w.masked_weight(mask) == pytest.approx(3.0)
    w.double(mask)
    assert w.masked_weight(mask) == pytest.approx(6.0)
    assert w.total_weight == pytest.approx(11.0)
    assert w.total_weight == float(w.weights.sum())
    # many doublings stay finite thanks to rescaling
    one = np.zeros(8, dtype=bool)
    one[0] = True
    for _ in range(1200):
        w.double(one)
    assert math.isfinite(w.total_weight) and w.total_weight > 0
    assert w.rescale_exponent > 0
    assert w.total_weight == float(w.weights.sum())
    rng = np.random.default_rng(0)
    picks = w.sample(rng, 64)
    assert (picks == 0).mean() > 0.9  # item 0 carries almost all weight


def test_reweight_doubling_path_pinned():
    """The benchmark's reweight sets never double a weight, so this run
    pins the doubling path: its rounds, doublings, guesses and the
    sha256 of its lines, one "a b c" row each."""
    res = reweight_approx(random_points(512, 1), seed=3)
    assert res.rounds_used == 77
    assert res.weight_doublings == 11
    assert res.guess_history == [(23, 77, True)]
    assert len(res.lines) == 102
    text = "".join("%d %d %d\n" % l.coeffs() for l in res.lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "33a5464dea7633ab34efe5f1c15a4cf503bbc7ad65290aa1a29d62cfabf56c5c"
    )


def test_weight_state_sample_matches_generator_choice():
    """sample's cached cdf draws exactly the indices Generator.choice draws
    from the same weights: initially, after doublings and after a
    rescale. A numpy release that changes choice's algorithm fails here
    instead of silently moving reweight's output."""
    rng = np.random.default_rng(20261019)
    for m in (1, 2, 7, 1000, 32640):
        w = WeightState(m)
        states = []
        for step in range(700):
            if step % 100 == 0:
                states.append((w.weights / w.weights.sum(), w.cdf.copy()))
            if step < 80:
                w.double(rng.choice(m, size=max(1, m // 20), replace=False))
            else:  # a few lines take over the weight, forcing a rescale
                w.double(np.arange(min(m, 3)))
        assert w.rescale_exponent > 0
        states.append((w.weights / w.weights.sum(), w.cdf.copy()))
        for p, cdf in states:
            w.cdf = cdf
            for seed in range(3):
                size = 1 + seed * 500
                want = np.random.default_rng(seed).choice(
                    m, size=size, replace=True, p=p
                )
                got = w.sample(np.random.default_rng(seed), size)
                assert got.dtype == want.dtype and (got == want).all()


# ---------------------------------------------------------------------------
# halving


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9, 12])
def test_halving_size_and_verification(n):
    P = rand_general_position_points(n, seed=700 + n)
    lines = halving_separator(P)
    assert len(lines) == math.ceil(n / 2)
    assert verify(P, lines, STRICT)


def test_halving_builds_candidate_lines_once(monkeypatch):
    # Every 2 + 2 cut reads P's candidate lines by pair number.
    calls = []

    def counted(P):
        calls.append(len(P))
        return candidate_lines(P)

    monkeypatch.setattr(solvers, "candidate_lines", counted)
    lines = halving_separator(rand_general_position_points(64, seed=764))
    assert calls == [64]
    assert len(lines) == 32


# ---------------------------------------------------------------------------
# grid


def test_grid_separator_corners():
    P = PointSet(
        [
            pt(Fraction(1, 8), Fraction(1, 8)),
            pt(Fraction(7, 8), Fraction(1, 8)),
            pt(Fraction(7, 8), Fraction(7, 8)),
            pt(Fraction(1, 8), Fraction(7, 8)),
        ]
    )
    lines = grid_separator(P, 2)
    assert len(lines) == 2  # the two grid lines suffice
    assert verify(P, lines, STRICT)


def test_grid_separator_colliding_cell_gets_bisector():
    P = PointSet(
        [
            pt(Fraction(1, 8), Fraction(1, 8)),
            pt(Fraction(2, 8), Fraction(1, 8)),  # same cell as previous
            pt(Fraction(7, 8), Fraction(7, 8)),
        ]
    )
    lines = grid_separator(P, 2)
    assert len(lines) == 3
    assert verify(P, lines, STRICT)


def test_grid_separator_point_on_gridline_warns_and_fixes():
    P = PointSet(
        [
            pt(Fraction(1, 2), Fraction(1, 4)),  # exactly on x = 1/2
            pt(Fraction(3, 4), Fraction(1, 4)),
            pt(Fraction(1, 4), Fraction(3, 4)),
        ]
    )
    with pytest.warns(UserWarning):
        lines = grid_separator(P, 2)
    assert verify(P, lines, STRICT)


def test_grid_separator_matches_perturbed_grid():
    P = perturbed_grid(4, seed=9)  # 16 points, one per cell of the 4x4 grid
    lines = grid_separator(P, 4)
    assert len(lines) == 6
    assert verify(P, lines, STRICT)


def test_grid_separator_rejects_out_of_square():
    with pytest.raises(ValueError):
        grid_separator(PointSet([pt(0, 0), pt(2, 2)]), 2)
