"""Differential tests for the integer-stored PointSet: parsing, drawing,
subsetting and grid binning must give exactly what the same points give
when built as Fraction Points and cleared by the reference algorithm."""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from seplines import experiments as ex
from seplines.cli import EXIT_PARSE, ParseFileError, main, parse_point_file
from seplines.geom import Point, line_through
from seplines.sepsys import PointSet, candidate_lines, clear_denominators, float_array
from seplines.solvers import cell_groups, grid_columns

GP_CHECK = 40  # largest set whose collinearity the reference recomputes


def ref_parse(path):
    """The parser in Fractions: every token through Fraction(str)."""
    pts = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            toks = body.split()
            if len(toks) != 2:
                raise ParseFileError(f"{path}:{lineno}: expected 'x y', got {len(toks)} fields")
            try:
                x, y = Fraction(toks[0]), Fraction(toks[1])
            except (ValueError, ZeroDivisionError) as e:
                raise ParseFileError(f"{path}:{lineno}: bad coordinate: {e}")
            pts.append(Point(x, y))
    if len(set(pts)) != len(pts):
        raise ParseFileError(f"{path}: duplicate points in PointSet")
    return pts


def ref_int_coords(pts):
    d = math.lcm(1, *(p.x.denominator for p in pts), *(p.y.denominator for p in pts))
    return (
        [p.x.numerator * (d // p.x.denominator) for p in pts],
        [p.y.numerator * (d // p.y.denominator) for p in pts],
        d,
    )


def assert_matches(P, pts):
    """P holds exactly the points ``pts`` in every form it exposes."""
    pts = tuple(pts)
    assert len(P) == len(pts)
    assert P.points == pts and tuple(P) == pts
    assert all(P[i] == p for i, p in enumerate(pts))
    xs, ys, d = P.int_coords()
    assert all(type(v) is int for v in xs + ys + [d])
    assert (xs, ys, d) == ref_int_coords(pts)
    fx, fy = P.float_coords()
    assert fx.tobytes() == float_array([p.x for p in pts]).tobytes()
    assert fy.tobytes() == float_array([p.y for p in pts]).tobytes()
    if 2 <= len(pts) <= GP_CHECK:
        lines = {line_through(p, q) for p, q in combinations(pts, 2)}
        assert bool(candidate_lines(P).groups) == (len(lines) < len(pts) * (len(pts) - 1) // 2)


def _token(rng, v: Fraction) -> str:
    """One of the ways to write v: p/q with an unreduced scale, an integer,
    or a decimal or exponent form when v has one."""
    k = rng.randint(1, 6)
    forms = [f"{v.numerator * k}/{v.denominator * k}"]
    if v.denominator == 1:
        forms += [str(v.numerator), f"+{v.numerator}" if v >= 0 else str(v.numerator)]
    if v.denominator in (1, 2, 4, 5, 8, 10, 1000):
        forms.append(f"{float(v)!r}" if abs(v) < 10 ** 6 else f"{v.numerator}/{v.denominator}")
    return rng.choice(forms)


def _value(rng) -> Fraction:
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(rng.randint(-9, 9))
    if kind == 1:
        return Fraction(rng.randint(-40, 40), rng.choice([2, 4, 5, 8, 10, 1000]))
    if kind == 2:
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 97))
    if kind == 3:
        return Fraction(rng.randrange(1 << 40), 1 << 40)
    if kind == 4:
        return Fraction(rng.randint(1, 9), 1000)  # written 1e-3 and the like below
    return Fraction(rng.randint(-3, 3), 7)


def write_points(path, rng, n):
    """A seeded point file in every accepted notation, with comments,
    tabs and blank lines, and its points as Fractions."""
    pts, rows = [], ["# seeded points\n", "\n"]
    while len(pts) < n:
        p = Point(_value(rng), _value(rng))
        if p in pts:
            continue
        pts.append(p)
        x, y = _token(rng, p.x), _token(rng, p.y)
        if (p.y * 1000).denominator == 1 and 0 < p.y * 1000 < 10:
            y = f"{p.y * 1000}e-3"
        sep = rng.choice([" ", "\t", "  "])
        tail = rng.choice(["", "", " # note", "\t"])
        rows.append(f"{rng.choice(['', ' '])}{x}{sep}{y}{tail}\n")
    path.write_text("".join(rows))
    return pts


@pytest.mark.parametrize("seed", range(6))
def test_parsed_file_matches_fraction_points(tmp_path, seed):
    f = tmp_path / "p.txt"
    pts = write_points(f, random.Random(seed), 30 + 5 * seed)
    assert ref_parse(str(f)) == pts
    assert_matches(parse_point_file(str(f)), pts)
    assert_matches(PointSet(pts), pts)


def test_huge_and_tiny_values_match_fraction_points(tmp_path):
    big = "7" * 4000  # the most digits int() reads is 4300
    rows = [
        f"{big} 1/{big}",
        f"-{big}/3 {big}1",
        f"{2 ** 401} 1/{2 ** 401}",
        f"3/{2 ** 402} {2 ** 399}",
        f"{2 ** 399 + 1}/{2 ** 400} -{2 ** 402}/3",
        "1/2 1e-3",
        "-2.5E+2 0.125",
        "2/4 6/8",
    ]
    f = tmp_path / "p.txt"
    f.write_text("\n".join(rows) + "\n")
    pts = ref_parse(str(f))
    P = parse_point_file(str(f))
    assert_matches(P, pts)
    assert np.isnan(P.float_coords()[0]).any()  # the NaN guard is exercised
    # Small D again once the huge points are left out.
    assert_matches(P.subset([7, 5, 6]), [pts[7], pts[5], pts[6]])


def test_cleared_past_2_53_match_fraction_points(tmp_path):
    # D = 2^61 - 1: X and D fit in int64 but are no exact doubles, so X/D
    # in floats would round twice.
    rng, q = random.Random(5), 2 ** 61 - 1
    pts = [Point(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)) for _ in range(200)]
    f = tmp_path / "p.txt"
    f.write_text("".join(f"{p.x.numerator}/{q} {p.y.numerator}/{q}\n" for p in pts))
    P = parse_point_file(str(f))
    assert P.int_arrays is not None and P.int_coords()[2] > 2 ** 53
    assert_matches(P, pts)


BAD_FILES = {
    "duplicate-three-ways": "0 0\n1/2 1\n2/4 1\n0.5 1\n",
    "zero-denominator": "0 0\n1/0 3\n",
    "zero-denominator-commented": "0 0\n2 -5/0 # c\n",
    "zero-over-zero": "0/00 1\n",
    "hex": "0 0\n0x10 1\n",
    "negative-denominator": "1 3/-4\n",
    "three-fields": "0 0\n1 2 3\n",
    "5000-digits": f"0 0\n{'9' * 5000} 1\n",
    "5000-digit-denominator": f"0 0\n1/{'9' * 5000} 2 # c\n",
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_bad_file_matches_fraction_parser(tmp_path, capsys, name):
    f = tmp_path / "p.txt"
    f.write_text(BAD_FILES[name])
    with pytest.raises(ParseFileError) as want:
        ref_parse(str(f))
    with pytest.raises(ParseFileError) as got:
        parse_point_file(str(f))
    assert str(got.value) == str(want.value)
    lf = tmp_path / "l.txt"
    lf.write_text("1 0 0\n")
    capsys.readouterr()
    assert main(["verify", "--points", str(f), "--lines", str(lf)]) == EXIT_PARSE
    assert str(want.value) in capsys.readouterr().err


@pytest.mark.parametrize("n,seed", [(0, 0), (1, 3), (2, 5), (37, 1), (700, 7)])
def test_random_points_match_fraction_points(n, seed):
    xs, ys = ex._draw_grid_ints(n, np.random.default_rng(seed))
    pts = [Point(Fraction(int(x), ex.GRID), Fraction(int(y), ex.GRID)) for x, y in zip(xs, ys)]
    assert_matches(ex.random_points(n, seed), pts)


def test_subsets_match_fraction_points(tmp_path):
    rng = random.Random(11)
    f = tmp_path / "p.txt"
    pts = write_points(f, rng, 60)
    P = parse_point_file(str(f))
    for k in (0, 1, 2, 5, 20, 60):
        idx = rng.sample(range(len(pts)), k)
        assert_matches(P.subset(idx), [pts[i] for i in idx])
    # Without its one fractional point the subset's denominator drops to 1.
    Q = PointSet([Point(0, 0), Point(1, 2), Point(Fraction(1, 3), 5)])
    assert Q.subset([1, 0]).int_coords() == ([1, 0], [2, 0], 1)
    with pytest.raises(ValueError, match="duplicate"):
        P.subset([3, 3])


def test_clear_denominators_reduces_mixed_unreduced_input():
    X, Y, D = clear_denominators([2, 3, -10], [4, 6, 20], [0, 9, 14], [8, 3, 28])
    assert (X, Y, D) == ([1, 1, -1], [0, 6, 1], 2)
    assert clear_denominators([], [], [], []) == ([], [], 1)


def ref_grid_cells(P, N, lower):
    """(points on an inner grid line, cells of >= 2 points in sorted cell
    order), in Fractions. A coordinate on an inner grid line goes to the
    lower cell under the grid separator's rule (``lower``) and to the
    upper one under the column rule min(floor(v * N), N - 1)."""
    def coord(v):
        c = math.floor(v * N)
        if v * N == c and 0 < c < N:
            return c - lower, True
        return min(c, N - 1), False

    cells, flagged = {}, 0
    for i, p in enumerate(P):
        (cx, fx), (cy, fy) = coord(p.x), coord(p.y)
        flagged += fx or fy
        cells.setdefault((cx, cy), []).append(i)
    return flagged, [cells[k] for k in sorted(cells) if len(cells[k]) >= 2]


@pytest.mark.parametrize("seed", range(4))
def test_grid_binning_matches_fraction_rule(seed):
    rng = random.Random(seed)
    # Points on the grid lines i/6 and on the edges 0 and 1 among others.
    vals = [Fraction(rng.randint(0, 12), 12) for _ in range(60)] + [
        Fraction(rng.randrange(1 << 40), 1 << 40) for _ in range(60)
    ]
    pts = list(dict.fromkeys(Point(rng.choice(vals), rng.choice(vals)) for _ in range(150)))
    small = PointSet(pts)
    # One point with denominator 2^70 makes D*N pass 63 bits: Python ints.
    huge = PointSet(pts + [Point(Fraction(1, 2 ** 70), Fraction(3, 2 ** 70))])
    for P in (small, huge):
        xs, ys, d = P.int_coords()
        for N in (1, 2, 3, 6, 7, 12):
            (cx, fx), (cy, fy) = grid_columns(xs, d, N), grid_columns(ys, d, N)
            flagged = np.count_nonzero(fx | fy)
            assert (flagged, cell_groups(cx - fx, cy - fy)) == ref_grid_cells(P, N, True)
            assert (flagged, cell_groups(cx, cy)) == ref_grid_cells(P, N, False)
    assert small.int_coords()[2] * 12 < 2 ** 63
    assert huge.int_coords()[2] >= 2 ** 63
