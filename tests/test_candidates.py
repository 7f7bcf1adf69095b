"""Differential checks of `candidate_lines` against the pair loop it
replaced: one `int_line_through` key per pair in a dict, one
`CanonicalLine` per distinct line. Same lines in the same order, same
incident pairs, bit-identical float columns (NaN positions included),
and the same canonical-coefficient order, also on both sides of the int64
limb regime of the float columns. Guards keep the solvers from building
one `CanonicalLine` per candidate or pool variant again, and the 2^40
grid's float columns from passing through Python ints."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seplines import sepsys, solvers
from seplines.experiments import random_points
from seplines.geom import CanonicalLine, int_line_through
from seplines.sepsys import LineSet, PointSet, SeparationMode, candidate_lines, float_array

from .conftest import incident_pairs


def reference_candidates(P):
    """{canonical coefficients: incident pairs}, in first-pair order."""
    xs, ys, d = P.int_coords()
    by_line = {}
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            by_line.setdefault(int_line_through(xs[i], ys[i], xs[j], ys[j], d), []).append((i, j))
    return by_line


def points(coords, den=1):
    """A PointSet from integer pairs over one (unreduced) denominator, or
    from (xn, xd, yn, yd) tuples."""
    rows = [c if len(c) == 4 else (c[0], den, c[1], den) for c in coords]
    return PointSet.from_ratios(*map(list, zip(*rows)))


def general(rng, n, bits):
    pts = set()
    while len(pts) < n:
        pts.add((rng.getrandbits(bits), rng.getrandbits(bits)))
    return points(sorted(pts))


def grid(k, scale=1, offset=0):
    return points([(x * scale + offset, y * scale - offset) for x in range(k) for y in range(k)])


def cases():
    rng = random.Random(20261018)
    yield "general-small", general(rng, 40, 20)  # int64 throughout
    yield "general-2^40-grid", PointSet.from_ratios(
        *zip(*[(rng.getrandbits(40), 1 << 40, rng.getrandbits(40), 1 << 40) for _ in range(40)])
    )
    yield "collinear-triples", points([(0, 0), (1, 1), (2, 2), (5, 0), (7, 0), (3, 9), (3, 4)])
    for k in (3, 4, 6):
        yield f"grid-{k}x{k}", grid(k)
    yield "grid-past-2^62", grid(4, scale=3 ** 41, offset=2 ** 63)
    yield "past-2^62", general(rng, 24, 70)
    yield "grid-past-2^400", grid(3, scale=2 ** 420, offset=1)
    yield "near-2^400", points(
        [(s * 2 ** e + r, t * 2 ** f - r) for s, t, e, f, r in
         [(1, 1, 199, 201, 0), (-1, 1, 200, 200, 1), (1, -1, 201, 199, 2), (3, 1, 198, 202, 3),
          (1, 1, 0, 0, 0), (2, 5, 0, 0, 0), (-7, 3, 0, 0, 0)]]
    )
    yield "near-2^-400", points(
        [(1, 2 ** 400, 3, 2 ** 401), (5, 2 ** 399, -1, 2 ** 400), (-2, 3, 1, 7), (7, 1, 0, 1),
         (1, 2 ** 200, 1, 2 ** 201), (0, 1, 1, 2 ** 400)]
    )
    yield "mixed-denominators", points(
        [(1, 2, 3, 4), (2, 4, 5, 8), (1, 3, 5, 6), (4, 6, 1, 10), (7, 5, 9, 15), (0, 9, 2, 4),
         (3, 12, 3, 4)]
    )
    yield "unreduced-common-denominator", points([(2, 4), (6, 8), (10, 4), (4, 4), (8, 2)], den=12)
    # The int64 limb regime of the float columns is |X|, |Y| < 2^40 and D <= 2^40.
    top = 2 ** 40 - 1
    edge = [(top, -top), (-top, top), (top, top - 3), (-top, -top + 5), (1, 0), (0, -1), (-7, 3)]
    yield "regime-inside", points(edge)
    yield "regime-inside-D-2^40", points(edge, den=2 ** 40)
    yield "regime-outside", points([(x + (x > 0) - (x < 0), y) for x, y in edge])
    yield "regime-outside-D", points(edge[4:] + [(2, 2), (5, -3)], den=2 ** 40 + 1)
    D = 3 ** 25  # below 2^40 and not a power of two
    yield "D-3^25", points([(rng.randrange(-D, D), rng.randrange(-D, D)) for _ in range(30)], den=D)
    # gcd(c0, D) > 1 on coordinates sharing factors with D, and D | c0 on
    # lines through two points of integer coordinates (X, Y multiples of D).
    yield "D-3^25-shared-factors", points(
        [(3 ** 10 * rng.randrange(-3 ** 14, 3 ** 14), 3 ** rng.randrange(0, 16)) for _ in range(20)]
        + [(D * x, D * y) for x, y in [(0, 0), (1, 0), (0, 1), (-1, 1), (1, -1)]] + [(1, 1)],
        den=D,
    )
    yield "collinear-2^40-grid", points(
        [(1 + k * 3 * 2 ** 30, 5 + k * 2 ** 31) for k in range(0, 300, 37)]
        + [(2 ** 39 + k * 2 ** 35, 2 ** 38) for k in range(6)]
        + [(rng.getrandbits(40), rng.getrandbits(40)) for _ in range(12)],
        den=2 ** 40,
    )


CASES = dict(cases())


def check_against_pair_loop(P):
    ref = reference_candidates(P)
    cand = candidate_lines(P)
    assert len(cand) == len(ref)
    assert [l.coeffs() for l in cand.lines()] == list(ref)
    assert incident_pairs(cand) == list(ref.values())
    assert [(int(i), int(j)) for i, j in zip(cand.I, cand.J)] == [p[0] for p in ref.values()]
    assert sorted(cand.groups) == [k for k, p in enumerate(ref.values()) if len(p) > 1]
    for col, V in enumerate((cand.A, cand.B, cand.C)):
        want = float_array([abc[col] for abc in ref])
        assert V.dtype == np.float64
        assert V.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_candidate_lines_match_pair_loop(name):
    check_against_pair_loop(CASES[name])


def test_regime_cases_take_both_paths():
    """The edge cases sit on both sides of the limb regime; their lines
    have gcd(c0, D) > 1, D | c0 and collinear groups on the 2^40 grid."""
    inside = ["regime-inside", "regime-inside-D-2^40", "D-3^25", "D-3^25-shared-factors",
              "collinear-2^40-grid"]
    for name in inside + ["regime-outside", "regime-outside-D"]:
        X, Y, xmax, ymax = CASES[name].int_arrays
        d = CASES[name].int_coords()[2]
        assert (max(xmax, ymax) < 2 ** 40 and d <= 2 ** 40) == (name in inside), name
    assert CASES["D-3^25"].int_coords()[2] == 3 ** 25
    assert CASES["collinear-2^40-grid"].int_coords()[2] == 2 ** 40
    assert candidate_lines(CASES["collinear-2^40-grid"]).groups
    P = CASES["D-3^25-shared-factors"]
    xs, ys, d = P.int_coords()
    g = [math.gcd(x * (ys[j] - y) - y * (xs[j] - x), d) for j in range(len(xs))
         for x, y in zip(xs[:j], ys[:j])]
    assert any(1 < v < d for v in g) and d in g


@st.composite
def shifted_grid_subsets(draw):
    """Points of random_points(48, seed) shifted by whole multiples of
    the grid unit, toward or past the regime's edge at |X|, |Y| = 2^40."""
    seed = draw(st.integers(0, 3))
    xs, ys, d = random_points(48, seed).int_coords()
    idx = draw(st.lists(st.integers(0, 47), min_size=2, max_size=12, unique=True))
    sx, sy = (draw(st.integers(-2 ** 41, 2 ** 40)) for _ in range(2))
    return PointSet.from_ratios([xs[i] + sx for i in idx], [d] * len(idx),
                                [ys[i] + sy for i in idx], [d] * len(idx))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shifted_grid_subsets())
def test_candidate_lines_on_shifted_grid_subsets(P):
    check_against_pair_loop(P)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coeff_order_is_canonical_order(name):
    cand = candidate_lines(CASES[name])
    coeffs = list(reference_candidates(CASES[name]))
    assert cand.coeff_order().tolist() == sorted(range(len(coeffs)), key=coeffs.__getitem__)


def test_coeff_order_breaks_float_ties_exactly():
    """Lines through the origin whose a coefficients round to one float
    but differ, with b ordered against them, and lines past 2^400 of both
    signs (NaN columns)."""
    big = [(-k, 2 ** 60 + r) for k, r in [(5, 1), (7, 0), (3, 2), (11, 1), (13, 3)]]
    huge = [(2 ** 410 + 1, -(2 ** 405)), (-(2 ** 409), 2 ** 411 + 3), (2 ** 408, 2 ** 412)]
    for P in (points([(0, 0)] + big), points([(0, 0), (1, 2)] + huge)):
        cand = candidate_lines(P)
        coeffs = [l.coeffs() for l in cand.lines()]
        assert cand.coeff_order().tolist() == sorted(range(len(coeffs)), key=coeffs.__getitem__)
    assert np.isnan(cand.A).any()


def test_solvers_build_no_line_object_per_candidate(monkeypatch):
    """Greedy (both modes) on 64 points in general position builds
    CanonicalLine objects only for the lines it outputs or realizes: far
    fewer than one per candidate. Reweighting builds them only for the
    lines it returns, none for the samples of its rounds."""
    count = [0]
    post_init = CanonicalLine.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(CanonicalLine, "__post_init__", counting)
    P = general(random.Random(64), 64, 40)
    cap = math.comb(64, 2) / 10
    for mode in (SeparationMode.RELAXED, SeparationMode.STRICT):
        count[0] = 0
        solvers.greedy_hitting_set(P, mode)
        assert 0 < count[0] < cap
    count[0] = 0
    res = solvers.reweight_approx(P, seed=0)
    assert 0 < count[0] <= len(res.lines)


def test_candidate_lines_on_the_grid_take_no_python_ints(monkeypatch):
    """On the 2^40 grid the float columns come from int64 limbs: no pair
    passes through the Python-int coefficients of _line_coeffs."""
    entries = [0]
    line_coeffs = sepsys._line_coeffs

    def counting(P, I, J):
        entries[0] += len(I)
        return line_coeffs(P, I, J)

    monkeypatch.setattr(sepsys, "_line_coeffs", counting)
    for seed in range(3):
        cand = candidate_lines(random_points(300, seed))
        assert len(cand) == math.comb(300, 2)
    assert entries[0] == 0


def test_exact_pool_builds_only_the_lines_it_returns(monkeypatch):
    """_exact_pool realizes every variant as coefficient tuples and builds
    CanonicalLine objects only for the lines it returns."""
    count = [0]
    post_init = CanonicalLine.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(CanonicalLine, "__post_init__", counting)
    for P in (random_points(14, 5), grid(3), CASES["collinear-triples"]):
        for mode in (SeparationMode.STRICT, SeparationMode.RELAXED):
            count[0] = 0
            lines, _ = solvers._exact_pool(P, mode)
            assert 0 < count[0] <= len(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_signs_match_line_signs(name):
    """The signs of a sub-collection of the candidate lines, which sets
    each line's first-pair points to 0 unsettled, equal those of the same
    lines as CanonicalLines, which settles every uncertain entry: for
    lines given by slices and by an unsorted index array, at all points
    and at unsorted subsets of them."""
    P = CASES[name]
    cand = candidate_lines(P)
    rng = np.random.default_rng(len(P))
    every = np.arange(len(cand))
    some = rng.permutation(len(cand))[: len(cand) // 3 + 1]
    lines = [(slice(None), every), (slice(1, None, 2), every[1::2]), (some, some)]
    for pts in (np.arange(len(P)), rng.permutation(len(P)), rng.permutation(len(P))[::2]):
        for ls, idx in lines:
            got = cand[ls].signs(P, pts)
            assert got.dtype == np.int8
            want = LineSet.of(cand.lines(idx)).signs(P, pts)
            assert np.array_equal(got, want), (pts, ls)


def test_signs_cases_cover_groups_and_nan_columns():
    cands = {name: candidate_lines(P) for name, P in CASES.items()}
    assert cands["grid-4x4"].groups and cands["collinear-triples"].groups
    assert np.isnan(CASES["grid-past-2^400"].float_coords()[0]).any()
    assert np.isnan(cands["grid-past-2^400"].C).any()
    assert np.isnan(cands["near-2^-400"].A).any()
    assert CASES["general-2^40-grid"].int_coords()[2] == 2 ** 40
