"""Differential checks of `candidate_lines` against the pair loop it
replaced: one `int_line_through` key per pair in a dict, one
`CanonicalLine` per distinct line. Same lines in the same order, same
incident pairs, bit-identical float columns (NaN positions included),
and the same canonical-coefficient order. A guard keeps the solvers from
building one `CanonicalLine` per candidate again."""
import math
import random

import numpy as np
import pytest

from seplines import solvers
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


CASES = dict(cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_candidate_lines_match_pair_loop(name):
    P = CASES[name]
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
