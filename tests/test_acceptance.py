"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a one-line PASS summary with the
measured quantities (visible with ``-s`` or ``-rP``).
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from seplines import experiments as ex
from seplines import partition2d as p2
from seplines.cellsample import (
    ConvexCell,
    DegeneracyError,
    brute_force_vertex_count,
    build_index,
    count_vertices,
    sample_vertex,
)
from seplines.cli import main as cli_main
from seplines.geom import CanonicalLine, Point, intersect_lines, orient, pt
from seplines.sepsys import PointSet, SeparationMode
from seplines.solvers import (
    exact_separability,
    greedy_hitting_set,
    halving_separator,
    reweight_approx,
    verify,
)

from .conftest import (
    grid_lines,
    perturbed_grid,
    rand_general_position_points,
    rand_line,
)

STRICT = SeparationMode.STRICT
RELAXED = SeparationMode.RELAXED


def _report(num: int, detail: str) -> None:
    print(f"CRITERION {num:02d}: PASS — {detail}")


def _rand_cell_instance(rng, m: int):
    """A cell plus m lines admitting a non-degenerate index."""
    from .conftest import rand_cell_lines, rand_convex_cell

    cell = rand_convex_cell(rng)
    return cell, rand_cell_lines(rng, cell, m)


def test_criterion_01_cell_count_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    trials = 1000
    for _ in range(trials):
        m = int(rng.integers(2, 129))
        cell, lines = _rand_cell_instance(rng, m)
        idx = build_index(cell, lines)
        assert count_vertices(idx) == brute_force_vertex_count(cell, lines)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(1, f"{trials}/{trials} instances match brute force in {elapsed:.1f}s")


def test_criterion_02_sampler_uniformity():
    rng = np.random.default_rng(202)
    draws = 50_000
    instances = 0
    worst_tvd = 0.0
    while instances < 20:
        m = int(rng.integers(10, 26))
        cell, lines = _rand_cell_instance(rng, m)
        idx = build_index(cell, lines)
        total = count_vertices(idx)
        if not 30 <= total <= 200:
            continue
        truth = []
        for i in range(m):
            for j in range(i + 1, m):
                p = intersect_lines(lines[i], lines[j])
                if p is None:
                    continue
                k = len(cell.vertices)
                if all(
                    orient(cell.vertices[t], cell.vertices[(t + 1) % k], p) == 1
                    for t in range(k)
                ):
                    truth.append((i, j))
        assert len(truth) == total
        srng = np.random.default_rng(ex.trial_seed(202, instances))
        counts = {pair: 0 for pair in truth}
        for _ in range(draws):
            counts[sample_vertex(idx, srng)] += 1
        tvd = 0.5 * sum(abs(c / draws - 1 / total) for c in counts.values())
        assert tvd <= 0.05, (instances, total, tvd)
        worst_tvd = max(worst_tvd, tvd)
        instances += 1
    _report(2, f"20 instances, worst TVD {worst_tvd:.4f} <= 0.05 at {draws} draws")


def test_criterion_03_exact_solver_fixtures():
    checks = []
    sigma, lines = exact_separability(PointSet([pt(0, 0), pt(1, 1)]), STRICT)
    assert sigma == 1
    checks.append("2pts=1")
    square = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    sigma, lines = exact_separability(square, STRICT)
    assert sigma == 2 and verify(square, lines, STRICT)
    checks.append("square=2")
    for seed in range(3):
        P = rand_general_position_points(5, seed=9000 + seed)
        sigma, lines = exact_separability(P, STRICT)
        assert sigma == 3 and verify(P, lines, STRICT)
    checks.append("5pts=3")
    grid3 = perturbed_grid(3, seed=30)
    sigma, lines = exact_separability(grid3, STRICT)
    assert sigma == 4 and verify(grid3, lines, STRICT)
    checks.append("3x3grid=4")
    for n in range(4, 13):
        denom = 10 ** 6
        P = PointSet(
            [
                Point(
                    Fraction(round(math.cos(2 * math.pi * i / n) * denom), 2 * denom)
                    + Fraction(1, 2),
                    Fraction(round(math.sin(2 * math.pi * i / n) * denom), 2 * denom)
                    + Fraction(1, 2),
                )
                for i in range(n)
            ]
        )
        sigma, lines = exact_separability(P, STRICT)
        assert math.ceil((n - 1) / 2) <= sigma <= math.ceil(n / 2), (n, sigma)
        assert verify(P, lines, STRICT)
    checks.append("ngon in [ceil((n-1)/2), ceil(n/2)] for n=4..12")
    _report(3, "; ".join(checks))


@pytest.mark.slow
def test_criterion_04_reweighting_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_ratio = 0.0
    for inst in range(200):
        n = int(rng.integers(6, 13))
        P = rand_general_position_points(n, seed=40_000 + inst)
        sigma, _ = exact_separability(P, RELAXED)
        bound = 4 * sigma * math.log(sigma + 2)
        for seed in range(5):
            res = reweight_approx(P, seed=seed)
            assert verify(P, res.lines, RELAXED)
            assert len(res.lines) <= bound, (inst, n, sigma, len(res.lines))
            worst_ratio = max(worst_ratio, len(res.lines) / bound)
    ratios = []
    for n in (256, 1024):
        P = ex.random_points(n, 44)
        greedy = greedy_hitting_set(P, RELAXED)
        assert verify(P, greedy, RELAXED)
        res = reweight_approx(P, seed=0)
        assert verify(P, res.lines, RELAXED)
        ratio = len(res.lines) / len(greedy)
        assert ratio <= 3.0, (n, len(res.lines), len(greedy))
        ratios.append(f"n={n}: {len(res.lines)}/{len(greedy)}={ratio:.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        4,
        f"200x5 small instances worst size/bound {worst_ratio:.2f}; "
        f"{'; '.join(ratios)} (<=3x greedy) in {elapsed:.0f}s",
    )


def test_criterion_05_halving_construction():
    rng = np.random.default_rng(505)
    for inst in range(50):
        n = int(rng.integers(2, 41))
        P = rand_general_position_points(n, seed=50_000 + inst)
        lines = halving_separator(P)
        assert len(lines) == math.ceil(n / 2), (inst, n, len(lines))
        assert verify(P, lines, STRICT)
    _report(5, "50 instances n in [2,40]: size = ceil(n/2), Strict verified")


def test_criterion_06_collision_expectation():
    n, trials = 10 ** 5, 50
    N = math.ceil(n ** (2 / 3))
    assert N == 2155
    expect = n * (n - 1) / 2 / N ** 2
    vals = [
        ex.cell_statistics(n, N, ex.trial_seed(3, t))[0] for t in range(trials)
    ]
    mean = float(np.mean(vals))
    assert abs(mean / 1076.5 - 1) <= 0.05
    lo, hi = n ** (2 / 3) / 3, n ** (2 / 3) / 2
    assert lo <= mean <= hi, (mean, lo, hi)
    _report(
        6,
        f"mean colliding pairs {mean:.1f} (closed form {expect:.1f}) "
        f"inside [{lo:.1f}, {hi:.1f}]",
    )


def test_criterion_07_heavy_ball_bounds():
    n = 10 ** 4
    b = math.ceil(n ** (4 / 3))
    r2 = ex.heavy_ball_bounds_check(n, b, 2, trials=200, seed=7)
    assert r2.verdict is True, (r2.ci_lo, r2.ci_hi, r2.bound_lo, r2.bound_hi)
    r3 = ex.heavy_ball_bounds_check(n, b, 3, trials=200, seed=7)
    assert r3.verdict is True, (r3.ci_lo, r3.ci_hi, r3.bound_lo, r3.bound_hi)
    _report(
        7,
        f"L2 CI [{r2.ci_lo:.1f},{r2.ci_hi:.1f}] in [{r2.bound_lo:.1f},{r2.bound_hi:.1f}]; "
        f"L3 CI [{r3.ci_lo:.2f},{r3.ci_hi:.2f}] in [{r3.bound_lo:.2f},{r3.bound_hi:.2f}]",
    )


def test_criterion_08_birthday_bound():
    details = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        rep = ex.birthday_max_check(n, 1.0, trials=1000, seed=8)
        bound = 3 * math.log(n) / math.log(math.log(n))
        assert rep.max_bins_ge2 <= bound, (n, rep.max_bins_ge2, bound)
        details.append(f"n={n}: max {rep.max_bins_ge2} <= {bound:.1f}")
    _report(8, "; ".join(details))


@pytest.mark.slow
def test_criterion_09_scaling_exponent():
    t0 = time.perf_counter()
    tab = ex.scaling_study([2 ** k for k in range(10, 18)], trials=5, seed=1, threads=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    slope = tab.fitted_exponent
    assert 0.617 <= slope <= 0.717, slope
    for s in tab.summary()["per_n"]:
        n = s["n"]
        N = math.ceil(n ** (2 / 3))
        closed = 2 * (N - 1) + n * (n - 1) / 2 / N ** 2
        assert abs(s["mean_size"] / closed - 1) <= 0.05, (n, s["mean_size"], closed)
    _report(9, f"slope {slope:.3f} in [0.617,0.717]; per-n means within 5% in {elapsed:.0f}s")


def test_criterion_10_active_cells_per_line():
    n = 2 ** 16
    N = math.ceil(n ** (2 / 3))
    bound = 4 * math.log(n) / math.log(math.log(n))
    worst = 0
    for inst in range(10):
        _, _, mact = ex.cell_statistics(n, N, ex.trial_seed(77, inst), test_lines=1000)
        worst = max(worst, mact)
    assert worst <= bound, (worst, bound)
    _report(10, f"max active cells per line {worst} <= {bound:.1f} over 10 instances")


def test_criterion_11_partition_conformance():
    P = perturbed_grid(32, seed=11)
    L = grid_lines(32)
    assert len(L) == 62
    part = p2.build_partition(P, L, r=16, seed=3)
    n = len(P)
    assert part.max_load() <= n // 16  # = 64
    assert sum(len(pl) for pl in part.point_lists) == n
    covered = sorted(i for pl in part.point_lists for i in pl)
    assert covered == list(range(n))
    arr = p2.build_arrangement(part.sampled_lines, part.box)
    assert arr.euler_ok()
    test_lines = p2.random_box_lines(part.box, 1000, seed=7)
    mx, _ = p2.stabbing_stats(part, test_lines)
    bound = 8 * math.sqrt(16) * math.log(16 + 2) ** 2
    assert mx <= bound, (mx, bound)
    _report(
        11,
        f"max triangle load {part.max_load()} <= 64; stabbing {mx} <= {bound:.0f}; "
        "Euler + conservation exact",
    )


def test_criterion_12_t_relaxed_scaling():
    tab = ex.trelax_study([2 ** k for k in range(12, 17)], t=2, trials=2, seed=1, threads=2)
    slope = tab.fitted_exponent
    assert 0.55 <= slope <= 0.65, slope
    _report(12, f"t=2 fitted exponent {slope:.3f} in [0.55,0.65] (target 0.6)")


def test_criterion_13_cli_determinism(tmp_path, capsys):
    pf = tmp_path / "pts.txt"
    P = perturbed_grid(6, seed=13)
    pf.write_text("".join(f"{p.x} {p.y}\n" for p in P))
    lf = tmp_path / "lines.txt"
    lf.write_text("".join(f"{l.a} {l.b} {l.c}\n" for l in grid_lines(6)))

    outputs = []
    for _ in range(2):
        assert cli_main(["solve", "--input", str(pf), "--algo", "greedy", "--json"]) == 0
        solve_out = capsys.readouterr().out
        csv = tmp_path / "out.csv"
        assert (
            cli_main(
                ["study", "scaling", "--n", "64,128", "--trials", "2", "--seed", "9",
                 "--csv", str(csv)]
            )
            == 0
        )
        study_out = capsys.readouterr().out
        pj = tmp_path / "part.json"
        assert (
            cli_main(
                ["partition", "--points", str(pf), "--lines", str(lf), "--r", "4",
                 "--seed", "9", "--out", str(pj)]
            )
            == 0
        )
        part_out = capsys.readouterr().out
        outputs.append((solve_out, study_out, csv.read_bytes(), part_out, pj.read_bytes()))
    assert outputs[0] == outputs[1]
    _report(13, "solve/study/partition re-runs byte-identical (JSON and CSV)")
