"""Monte-Carlo harness: balls-into-bins statistics, random-point
separability scaling, and t-relaxed separation.

All functions are deterministic in (parameters, seed); per-trial rngs are
derived as seed XOR splitmix64(trial index), so trials are independent and
order-insensitive.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geom import CanonicalLine, splitmix64
from .sepsys import PointSet, PreconditionError, SeparationMode, refine, split_line
from .solvers import VerificationError, cell_groups, grid_columns, grid_lines
from .solvers import grid_separator, grid_size
# Not called here: sepbench/test_layers.py checks that its tracer rebinds them here too.
from .sepsys import find_unseparated_pair  # noqa: F401
from .solvers import halving_separator  # noqa: F401

GRID_BITS = 40
GRID = 1 << GRID_BITS
STUDY_TEST_LINES = 1000  # random lines per scaling trial for max_active_per_line


def trial_seed(seed: int, trial: int) -> int:
    return (seed ^ splitmix64(trial)) & 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# balls into bins


@dataclass
class BallsBinsStats:
    n_balls: int
    n_bins: int
    l2: int  # balls in bins holding >= 2 balls
    l3: int
    l4: int
    bins_ge2: int
    colliding_pairs: int
    max_occupancy: int

    def l_i(self, i: int) -> int:
        return {2: self.l2, 3: self.l3, 4: self.l4}[i]


def throw_balls(n_balls: int, n_bins: int, seed: int) -> BallsBinsStats:
    """Throw n_balls uniform balls into n_bins bins; occupancy statistics
    of the occupied bins, counted by np.unique on the drawn bin ids."""
    if n_balls < 0 or not 1 <= n_bins < 2 ** 63:
        raise PreconditionError("need n_balls >= 0 and 1 <= n_bins < 2^63")
    rng = np.random.default_rng(seed)
    if n_balls == 0:
        return BallsBinsStats(n_balls, n_bins, 0, 0, 0, 0, 0, 0)
    _, occ = np.unique(rng.integers(0, n_bins, size=n_balls), return_counts=True)
    ls = [int(occ[occ >= i].sum()) for i in (2, 3, 4)]
    return BallsBinsStats(
        n_balls=n_balls,
        n_bins=n_bins,
        l2=ls[0],
        l3=ls[1],
        l4=ls[2],
        bins_ge2=int((occ >= 2).sum()),
        colliding_pairs=int((occ * (occ - 1) // 2).sum()),
        max_occupancy=int(occ.max()),
    )


@dataclass
class HeavyBallReport:
    n_balls: int
    n_bins: int
    i: int
    trials: int
    f_i: float
    mean: float
    ci_lo: float
    ci_hi: float
    bound_lo: float
    bound_hi: float
    verdict: Optional[bool]  # None when n_balls == 0 (trivially skipped)


def heavy_ball_bounds_check(
    n_balls: int, n_bins: int, i: int, trials: int, seed: int
) -> HeavyBallReport:
    """Empirical mean of L_i with 99% CI against the bracket
    [e^-2 F_i, 6 e^(i-1) F_i] where F_i = n (n / (i b))^(i-1).
    Requires n_bins >= 3 * n_balls."""
    if i not in (2, 3, 4):
        raise PreconditionError("i must be 2, 3 or 4")
    if n_bins < 3 * n_balls:
        raise PreconditionError("bracket requires n_bins >= 3 * n_balls")
    if trials < 1:
        raise PreconditionError("trials must be positive")
    if n_balls == 0:
        return HeavyBallReport(n_balls, n_bins, i, trials, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None)
    # The throws check n_balls and n_bins before f_i takes them into floats.
    vals = np.array(
        [throw_balls(n_balls, n_bins, trial_seed(seed, t)).l_i(i) for t in range(trials)],
        dtype=np.float64,
    )
    f_i = n_balls * (n_balls / (i * n_bins)) ** (i - 1)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if trials > 1 else 0.0
    half = 2.576 * sd / math.sqrt(trials)
    lo, hi = math.exp(-2) * f_i, 6 * math.e ** (i - 1) * f_i
    return HeavyBallReport(
        n_balls=n_balls,
        n_bins=n_bins,
        i=i,
        trials=trials,
        f_i=f_i,
        mean=mean,
        ci_lo=mean - half,
        ci_hi=mean + half,
        bound_lo=lo,
        bound_hi=hi,
        verdict=(lo <= mean - half and mean + half <= hi),
    )


@dataclass
class BirthdayReport:
    n_balls: int
    n_bins: int
    trials: int
    max_bins_ge2: int
    ratio: float  # max_bins_ge2 / (ln n / ln ln n)
    max_colliding_pairs: int


def birthday_max_check(n_balls: int, c: float, trials: int, seed: int) -> BirthdayReport:
    """Throw n balls into ceil(c * n^2) bins; report the worst observed
    number of collided bins over the trials, and the same for colliding
    pairs, against the ln n / ln ln n yardstick."""
    if not 0 < c < math.inf:
        raise PreconditionError(f"c must be positive and finite, got {c}")
    if n_balls < 2 or trials < 1:
        raise PreconditionError("need n_balls >= 2 and trials >= 1")
    # Checked in this order, n_balls^2 and the product stay within floats.
    if n_balls >= 2 ** 63 or not c * n_balls ** 2 < 2 ** 63:
        raise PreconditionError(
            "need n_balls < 2^63 and n_bins < 2^63, n_bins = ceil(c * n_balls^2)"
        )
    n_bins = math.ceil(c * n_balls ** 2)
    worst = worst_pairs = 0
    for t in range(trials):
        st = throw_balls(n_balls, n_bins, trial_seed(seed, t))
        worst = max(worst, st.bins_ge2)
        worst_pairs = max(worst_pairs, st.colliding_pairs)
    denom = math.log(n_balls) / math.log(max(math.log(n_balls), math.e))
    return BirthdayReport(
        n_balls=n_balls,
        n_bins=n_bins,
        trials=trials,
        max_bins_ge2=worst,
        ratio=worst / denom,
        max_colliding_pairs=worst_pairs,
    )


# ---------------------------------------------------------------------------
# random points and the scaling studies


def _draw_grid_ints(n: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """n distinct integer coordinate pairs on the 2^40 grid (duplicates
    redrawn). Shared by random_points and the vectorized statistics."""
    seen = set()
    xs_out: List[int] = []
    ys_out: List[int] = []
    while len(xs_out) < n:
        take = n - len(xs_out)
        xs = rng.integers(0, GRID, size=take)
        ys = rng.integers(0, GRID, size=take)
        for x, y in zip(xs.tolist(), ys.tolist()):
            if (x, y) in seen:
                continue
            seen.add((x, y))
            xs_out.append(x)
            ys_out.append(y)
    return np.array(xs_out, dtype=np.int64), np.array(ys_out, dtype=np.int64)


def random_points(n: int, seed: int) -> PointSet:
    """n distinct uniform points on the 2^40 x 2^40 subgrid of the unit
    square (exact rationals); duplicate draws are redrawn."""
    if n < 0:
        raise PreconditionError("n must be non-negative")
    xs, ys = _draw_grid_ints(n, np.random.default_rng(seed))
    den = [GRID] * n
    return PointSet.from_ratios(xs.tolist(), den, ys.tolist(), den)


def cell_statistics(
    n: int, N: int, seed: int, test_lines: int = 0
) -> Tuple[int, int, int]:
    """(colliding_pairs, active_cells, max_active_per_line) for the same
    point distribution as random_points(n, seed) on the N x N grid,
    computed without materializing exact rationals. max_active_per_line is
    0 unless test_lines > 0."""
    rng = np.random.default_rng(seed)
    xs, ys = _draw_grid_ints(n, rng)
    colliding, active_ids = cell_counts(xs, ys, GRID, N)
    mact = 0
    if test_lines > 0 and len(active_ids):
        mact = max_active_cells_per_line(
            active_ids, N, test_lines, np.random.default_rng(trial_seed(seed, 1))
        )
    return colliding, len(active_ids), mact


@dataclass
class StudyRow:
    n: int
    trial: int
    seed: int
    separator_size: int
    grid_N: int
    colliding_pairs: int
    active_cells: int
    max_active_per_line: int
    wall_time_ms: Optional[float] = None


@dataclass
class StudyTable:
    kind: str
    rows: List[StudyRow]
    fitted_exponent: Optional[float]
    per_n: List[dict]

    def write_csv(self, fh) -> None:
        import csv

        fh.write("# schema=1\n")
        w = csv.writer(fh, lineterminator="\n")
        names = [f.name for f in fields(StudyRow)]
        w.writerow(names)
        for r in self.rows:
            w.writerow(["" if getattr(r, f) is None else getattr(r, f) for f in names])

    def summary(self) -> dict:
        return {"kind": self.kind, "fitted_exponent": self.fitted_exponent, "per_n": self.per_n}


def fit_exponent(ns: Sequence[int], means: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(mean) vs log(n) over the sizes whose mean
    is positive (a mean of 0 has no logarithm); None when fewer than two
    such sizes remain."""
    x = np.array(ns, dtype=np.float64)
    y = np.array(means, dtype=np.float64)
    keep = y > 0
    if keep.sum() < 2:
        return None
    slope, _ = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(slope)


def cell_counts(xs: Sequence[int], ys: Sequence[int], d: int, N: int) -> Tuple[int, np.ndarray]:
    """(colliding pairs, ids cx * N + cy of the active cells) of the points
    (X/d, Y/d) of the closed unit square on the N x N grid, with cx and cy
    their grid_columns; a cell is active when it holds two or more
    points."""
    cx, cy = grid_columns(xs, d, N)[0], grid_columns(ys, d, N)[0]
    ids, counts = np.unique(cx * N + cy, return_counts=True)
    return int((counts * (counts - 1) // 2).sum()), ids[counts >= 2]


def _random_boundary_segment(rng) -> Tuple[float, float, float, float]:
    """Segment between two uniform points on the unit-square boundary."""
    while True:
        s, t = rng.random(), rng.random()

        def on_boundary(u: float) -> Tuple[float, float]:
            u *= 4.0
            if u < 1.0:
                return u, 0.0
            if u < 2.0:
                return 1.0, u - 1.0
            if u < 3.0:
                return 3.0 - u, 1.0
            return 0.0, 4.0 - u

        x0, y0 = on_boundary(s)
        x1, y1 = on_boundary(t)
        if (x0, y0) != (x1, y1):
            return x0, y0, x1, y1


def max_active_cells_per_line(active_ids: np.ndarray, N: int, n_lines: int, rng) -> int:
    """Max number of active cells (ids cx * N + cy) crossed by any of
    n_lines random lines (through pairs of uniform boundary points). Cells
    crossed by a segment are rasterized along the major axis, all segments
    at once; floating point, statistical use only."""
    if not len(active_ids):
        return 0
    flat = np.zeros(N * N, dtype=bool)
    flat[active_ids] = True
    seg = np.array([_random_boundary_segment(rng) for _ in range(n_lines)]).reshape(-1, 4)
    best = 0
    # Blocks of about 2^16 columns keep the per-column arrays small.
    step = max(1, 2 ** 16 // N)
    for blk in np.split(seg, np.arange(step, len(seg), step)):
        x0, y0, x1, y1 = blk.T
        # (a, b): (major, minor) axis coordinates, ordered by a along each segment.
        transpose = np.abs(x1 - x0) < np.abs(y1 - y0)
        a0, b0, a1, b1 = np.where(transpose, (y0, x0, y1, x1), (x0, y0, x1, y1))
        flip = a0 > a1
        a0, b0, a1, b1 = np.where(flip, (a1, b1, a0, b0), (a0, b0, a1, b1))
        # a1 > a0: the endpoints differ, most along the major axis.
        c0 = (a0 * N).astype(np.int64)
        ncols = np.minimum((a1 * N).astype(np.int64), N - 1) + 1 - c0
        line = np.repeat(np.arange(len(blk)), ncols)
        cols = c0[line] + np.arange(len(line)) - np.repeat(np.cumsum(ncols) - ncols, ncols)
        a0, b0, a1, b1, transpose = a0[line], b0[line], a1[line], b1[line], transpose[line]
        # Row range per column from the segment's heights at the column edges.
        lo_edge = np.maximum(cols / N, a0)
        hi_edge = np.minimum((cols + 1) / N, a1)
        slope = (b1 - b0) / (a1 - a0)
        y_lo = b0 + slope * (lo_edge - a0)
        y_hi = b0 + slope * (hi_edge - a0)
        r0 = np.clip(np.floor(np.minimum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        r1 = np.clip(np.floor(np.maximum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        # Slope magnitude <= 1, so each column spans at most a few rows; the
        # cells of one segment are distinct (column, row) pairs.
        counts = np.zeros(len(blk))
        for k in range(int((r1 - r0).max(initial=0)) + 1):
            m = r0 + k <= r1
            rk, ck = r0[m] + k, cols[m]
            ids = np.where(transpose[m], rk * N + ck, ck * N + rk)
            counts += np.bincount(line[m], weights=flat[ids], minlength=len(blk))
        best = max(best, int(counts.max(initial=0)))
    return best


def _study_table(
    kind: str, n_list: Sequence[int], trials: int, seed: int, t: int, separate,
    test_lines: int = 0, timing: bool = False,
) -> StudyTable:
    """Run separate(P, N) on P = random_points(n, s), N = grid_size(n, t),
    for every n and trial in that order, with P's cell counts on the N x N
    grid (the per-line maximum only if test_lines > 0); summarize each n
    and fit the exponent of the mean separator size against n."""
    if list(n_list) != sorted(set(n_list)):
        raise PreconditionError("n_list must be ascending and duplicate-free")
    if n_list and n_list[0] < 1:
        raise PreconditionError(f"every n must be at least 1, got {n_list[0]}")
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    rows = []
    for n in n_list:
        N = grid_size(n, t)
        for trial in range(trials):
            s = trial_seed(seed, trial * 1_000_003 + n)
            t0 = time.perf_counter()
            P = random_points(n, s)
            lines = separate(P, N)
            wall = round((time.perf_counter() - t0) * 1000.0, 3) if timing else None
            pairs, cells = cell_counts(*P.int_coords(), N)
            crossed = 0
            if test_lines > 0:
                mrng = np.random.default_rng(trial_seed(s, 1))
                crossed = max_active_cells_per_line(cells, N, test_lines, mrng)
            rows.append(StudyRow(n, trial, s, len(lines), N, pairs, len(cells), crossed, wall))
    sizes, colliding, active, mact = (
        np.array([getattr(r, f) for r in rows]).reshape(len(n_list), trials)
        for f in ("separator_size", "colliding_pairs", "active_cells", "max_active_per_line")
    )
    means = sizes.mean(axis=1)
    sd = sizes.std(axis=1, ddof=1) if trials > 1 else np.zeros(len(n_list))
    per_n = [
        {
            "n": n,
            "trials": trials,
            "mean_size": float(means[k]),
            "ci99_half_width": 2.576 * float(sd[k]) / math.sqrt(trials),
            "mean_colliding_pairs": float(colliding[k].mean()),
            "mean_active_cells": float(active[k].mean()),
            "max_active_per_line": int(mact[k].max()),
        }
        for k, n in enumerate(n_list)
    ]
    return StudyTable(kind, rows, fit_exponent(n_list, means), per_n)


def scaling_study(
    n_list: Sequence[int], trials: int, seed: int, timing: bool = False
) -> StudyTable:
    """grid_separator sizes over random instances with N = grid_size(n),
    plus active-cell and per-line crossing statistics, and the log-log
    fitted size exponent."""
    return _study_table(
        "scaling", n_list, trials, seed, 1, grid_separator, STUDY_TEST_LINES, timing
    )


# ---------------------------------------------------------------------------
# t-relaxed separation


def t_relaxed_separator(P: PointSet, t: int) -> List[CanonicalLine]:
    """Grid with N = grid_size(n, t); any cell holding more than t
    points is split recursively by median lines (along the wider axis of
    the group) until every region holds at most t. For t = 1 the output
    fully separates P."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    n = len(P)
    N = grid_size(n, t)
    lines = grid_lines(P, N)
    xs, ys, d = P.int_coords()

    def split(group: List[int]) -> None:
        if len(group) <= t:
            return
        span = [max(c[i] for i in group) - min(c[i] for i in group) for c in (xs, ys)]
        line, left, right = split_line(P, group, int(span[0] < span[1]), len(group) // 2)
        lines.append(line)
        split(left)
        split(right)

    for group in cell_groups(grid_columns(xs, d, N)[0], grid_columns(ys, d, N)[0]):
        split(group)
    return lines


def max_face_load(P: PointSet, lines: Sequence[CanonicalLine]) -> int:
    """Largest number of points sharing a sign vector over the lines
    (face-occupancy check for t-relaxed output)."""
    if len(P) == 0:
        return 0
    # Classes of one point are dropped, so an empty result means load 1.
    classes = refine(P, lines, SeparationMode.RELAXED)
    return max((len(c) for c in classes), default=1)


def trelax_study(
    n_list: Sequence[int], t: int, trials: int, seed: int, timing: bool = False
) -> StudyTable:
    """t_relaxed_separator sizes over random instances; fitted exponent of
    the total line count vs n. Every output is verified to leave at most t
    points per face."""

    def separate(P: PointSet, N: int) -> List[CanonicalLine]:
        lines = t_relaxed_separator(P, t)
        if max_face_load(P, lines) > t:
            raise VerificationError("t-relaxed output left a face with more than t points")
        return lines

    return _study_table("trelax", n_list, trials, seed, t, separate, timing=timing)
