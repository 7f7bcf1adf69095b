"""Monte-Carlo harness: balls-into-bins statistics, random-point
separability scaling, higher-dimensional grid separators, and t-relaxed
separation.

All functions are deterministic in (parameters, seed); per-trial rngs are
derived as seed XOR splitmix64(trial index), so trials are independent and
order-insensitive.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geom import CanonicalLine, Point, splitmix64
from .sepsys import PointSet, PreconditionError, SeparationMode, refine, split_line
from .solvers import VerificationError, grid_lines, grid_separator
# Not called here: sepbench/test_layers.py checks that its tracer rebinds them here too.
from .sepsys import find_unseparated_pair  # noqa: F401
from .solvers import halving_separator  # noqa: F401

GRID_BITS = 40
GRID = 1 << GRID_BITS
DENSE_BIN_CAP = 10 ** 7


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
    """Throw n_balls uniform balls into n_bins bins; occupancy statistics.

    Bins are never materialized densely beyond 10^7; above that only the
    occupied bins are counted (via np.unique on the drawn bin ids).
    """
    if n_balls < 0 or not 1 <= n_bins < 2 ** 63:
        raise PreconditionError("need n_balls >= 0 and 1 <= n_bins < 2^63")
    rng = np.random.default_rng(seed)
    if n_balls == 0:
        return BallsBinsStats(n_balls, n_bins, 0, 0, 0, 0, 0, 0)
    ids = rng.integers(0, n_bins, size=n_balls)
    if n_bins <= DENSE_BIN_CAP:
        occ = np.bincount(ids, minlength=0)
        occ = occ[occ > 0]
    else:
        _, occ = np.unique(ids, return_counts=True)
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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


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
    f_i = n_balls * (n_balls / (i * n_bins)) ** (i - 1)
    vals = np.array(
        [throw_balls(n_balls, n_bins, trial_seed(seed, t)).l_i(i) for t in range(trials)],
        dtype=np.float64,
    )
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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def birthday_max_check(n_balls: int, c: float, trials: int, seed: int) -> BirthdayReport:
    """Throw n balls into ceil(c * n^2) bins; report the worst observed
    number of collided bins over the trials, and the same for colliding
    pairs, against the ln n / ln ln n yardstick."""
    if not 0 < c < math.inf:
        raise PreconditionError(f"c must be positive and finite, got {c}")
    if n_balls < 2 or trials < 1:
        raise PreconditionError("need n_balls >= 2 and trials >= 1")
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
    return PointSet(
        [Point(Fraction(int(x), GRID), Fraction(int(y), GRID)) for x, y in zip(xs, ys)]
    )


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

    FIELDS = (
        "n",
        "trial",
        "seed",
        "separator_size",
        "grid_N",
        "colliding_pairs",
        "active_cells",
        "max_active_per_line",
        "wall_time_ms",
    )


@dataclass
class StudyTable:
    kind: str
    rows: List[StudyRow]
    fitted_exponent: Optional[float]

    def write_csv(self, fh) -> None:
        import csv

        fh.write("# schema=1\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(StudyRow.FIELDS)
        for r in self.rows:
            w.writerow(
                ["" if getattr(r, f) is None else getattr(r, f) for f in StudyRow.FIELDS]
            )

    def summary(self) -> dict:
        by_n: Dict[int, List[StudyRow]] = {}
        for r in self.rows:
            by_n.setdefault(r.n, []).append(r)
        per_n = []
        for n in sorted(by_n):
            sizes = np.array([r.separator_size for r in by_n[n]], dtype=np.float64)
            mean = float(sizes.mean())
            sd = float(sizes.std(ddof=1)) if len(sizes) > 1 else 0.0
            per_n.append(
                {
                    "n": n,
                    "trials": len(sizes),
                    "mean_size": mean,
                    "ci99_half_width": 2.576 * sd / math.sqrt(len(sizes)),
                    "mean_colliding_pairs": float(
                        np.mean([r.colliding_pairs for r in by_n[n]])
                    ),
                    "mean_active_cells": float(
                        np.mean([r.active_cells for r in by_n[n]])
                    ),
                    "max_active_per_line": max(r.max_active_per_line for r in by_n[n]),
                }
            )
        return {
            "kind": self.kind,
            "fitted_exponent": self.fitted_exponent,
            "per_n": per_n,
        }


def fit_exponent(ns: Sequence[int], means: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(mean) vs log(n); None for < 2 sizes."""
    if len(ns) < 2:
        return None
    x = np.log(np.array(ns, dtype=np.float64))
    y = np.log(np.array(means, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def grid_cells(xs: Sequence[int], ys: Sequence[int], d: int, N: int) -> np.ndarray:
    """The cell id cx * N + cy of each point (X/d, Y/d) of the closed unit
    square on the N x N grid, with cx = min(X * N // d, N - 1) and cy
    likewise: a point on a grid line goes to the upper cell, except at 1."""
    if (d * N).bit_length() < 63:  # X * N <= d * N fits in int64
        X, Y = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        cx, cy = np.minimum(X * N // d, N - 1), np.minimum(Y * N // d, N - 1)
    else:
        cx = np.array([min(x * N // d, N - 1) for x in xs], dtype=np.int64)
        cy = np.array([min(y * N // d, N - 1) for y in ys], dtype=np.int64)
    return cx * N + cy


def cell_counts(xs: Sequence[int], ys: Sequence[int], d: int, N: int) -> Tuple[int, np.ndarray]:
    """(colliding pairs, ids of the active cells) of the points (X/d, Y/d)
    on the N x N grid (see grid_cells); a cell is active when it holds
    two or more points."""
    ids, counts = np.unique(grid_cells(xs, ys, d, N), return_counts=True)
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
    crossed by a segment are rasterized along the major axis; floating
    point, statistical use only."""
    if not len(active_ids):
        return 0
    flat = np.zeros(N * N, dtype=bool)
    flat[active_ids] = True
    best = 0
    for _ in range(n_lines):
        x0, y0, x1, y1 = _random_boundary_segment(rng)
        if abs(x1 - x0) >= abs(y1 - y0):
            (a0, b0), (a1, b1) = (x0, y0), (x1, y1)
            transpose = False
        else:
            (a0, b0), (a1, b1) = (y0, x0), (y1, x1)
            transpose = True
        if a0 > a1:
            a0, b0, a1, b1 = a1, b1, a0, b0
        cols = np.arange(int(a0 * N), min(int(a1 * N), N - 1) + 1)
        if len(cols) == 0:
            continue
        # Row range per column from the segment's heights at the column edges.
        lo_edge = np.maximum(cols / N, a0)
        hi_edge = np.minimum((cols + 1) / N, a1)
        slope = (b1 - b0) / (a1 - a0) if a1 > a0 else 0.0
        y_lo = b0 + slope * (lo_edge - a0)
        y_hi = b0 + slope * (hi_edge - a0)
        r0 = np.clip(np.floor(np.minimum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        r1 = np.clip(np.floor(np.maximum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        # Slope magnitude <= 1, so each column spans at most a few rows.
        ids = []
        span = int((r1 - r0).max()) if len(cols) else 0
        for k in range(span + 1):
            rk = np.minimum(r0 + k, r1)
            if transpose:
                ids.append(rk * N + cols)
            else:
                ids.append(cols * N + rk)
        cells = np.unique(np.concatenate(ids))
        best = max(best, int(flat[cells].sum()))
    return best


def _run_trials(jobs, worker, threads: int) -> List[StudyRow]:
    """Run (n, trial) jobs, optionally on a thread pool; rows come back
    sorted by (n, trial) so aggregation is order-independent."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(worker, jobs))
    else:
        rows = [worker(j) for j in jobs]
    rows.sort(key=lambda r: (r.n, r.trial))
    return rows


def _study_table(
    kind: str, n_list: Sequence[int], trials: int, worker, threads: int
) -> StudyTable:
    """Check the study's sizes and trial count, run worker on every
    (n, trial) job and fit the exponent of the mean separator size
    against n."""
    if list(n_list) != sorted(set(n_list)):
        raise PreconditionError("n_list must be ascending and duplicate-free")
    if n_list and n_list[0] < 1:
        raise PreconditionError(f"every n must be at least 1, got {n_list[0]}")
    if trials < 1:
        raise PreconditionError(f"trials must be at least 1, got {trials}")
    rows = _run_trials([(n, t) for n in n_list for t in range(trials)], worker, threads)
    by_n: Dict[int, List[int]] = {}
    for r in rows:
        by_n.setdefault(r.n, []).append(r.separator_size)
    ns = sorted(by_n)
    exponent = fit_exponent(ns, [float(np.mean(by_n[n])) for n in ns])
    return StudyTable(kind=kind, rows=rows, fitted_exponent=exponent)


def scaling_study(
    n_list: Sequence[int],
    trials: int,
    seed: int,
    test_lines: int = 1000,
    timing: bool = False,
    threads: int = 1,
) -> StudyTable:
    """grid_separator sizes over random instances with N = ceil(n^(2/3)),
    plus active-cell and per-line crossing statistics, and the log-log
    fitted size exponent."""

    def worker(job) -> StudyRow:
        n, t = job
        N = math.ceil(n ** (2 / 3))
        s = trial_seed(seed, t * 1_000_003 + n)
        t0 = time.perf_counter()
        P = random_points(n, s)
        lines = grid_separator(P, N)
        elapsed = (time.perf_counter() - t0) * 1000.0
        colliding, active_ids = cell_counts(*P.int_coords(), N)
        mrng = np.random.default_rng(trial_seed(s, 1))
        mact = max_active_cells_per_line(active_ids, N, test_lines, mrng)
        return StudyRow(
            n=n,
            trial=t,
            seed=s,
            separator_size=len(lines),
            grid_N=N,
            colliding_pairs=colliding,
            active_cells=len(active_ids),
            max_active_per_line=mact,
            wall_time_ms=round(elapsed, 3) if timing else None,
        )

    return _study_table("scaling", n_list, trials, worker, threads)


# ---------------------------------------------------------------------------
# higher-dimensional grid separator (floating point)


@dataclass
class HyperPointSet:
    dimension: int
    coords: np.ndarray  # (n, d) float64 in [0, 1)

    def __post_init__(self):
        if not 2 <= self.dimension <= 5:
            raise PreconditionError("dimension must be in {2,...,5}")
        if self.coords.ndim != 2 or self.coords.shape[1] != self.dimension:
            raise ValueError("coords must have shape (n, d)")

    @staticmethod
    def random(n: int, d: int, seed: int) -> "HyperPointSet":
        rng = np.random.default_rng(seed)
        return HyperPointSet(d, rng.random((n, d)))


@dataclass
class Hyperplane:
    normal: np.ndarray
    offset: float

    def values(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.normal - self.offset


FLOAT_SIGN_TOL = 1e-12


class HyperVerificationError(RuntimeError):
    pass


def _hyper_separates(coords: np.ndarray, planes: List[Hyperplane]) -> bool:
    if len(coords) < 2:
        return True
    vals = np.stack([h.values(coords) for h in planes], axis=1)
    if np.abs(vals).min() < FLOAT_SIGN_TOL:
        raise HyperVerificationError("sign within tolerance of zero")
    signs = vals > 0
    _, counts = np.unique(signs, axis=0, return_counts=True)
    return bool((counts == 1).all())


def grid_separator_d(H: HyperPointSet, seed: int = 0) -> Tuple[List[Hyperplane], int]:
    """Axis-aligned N^d grid with N = ceil(n^(2/(d+1))) plus perpendicular
    bisectors for colliding pairs (cells with more points are split by
    bisectors of successive pairings until sign vectors are distinct).
    Verified in floating point with a 10^-12 sign tolerance; near-degenerate
    instances are retried with a fresh perturbation."""
    n, d = H.coords.shape
    rng = np.random.default_rng(seed)
    coords = H.coords.copy()
    for attempt in range(8):
        try:
            planes = _grid_separator_d_once(coords, d, n)
            if _hyper_separates(coords, planes):
                return planes, len(planes)
            raise HyperVerificationError("duplicate sign vectors")
        except HyperVerificationError:
            coords = np.clip(H.coords + rng.normal(0, 1e-9, H.coords.shape), 0.0, 1.0 - 1e-12)
    raise HyperVerificationError("could not build a verified separator in 8 attempts")


def _grid_separator_d_once(coords: np.ndarray, d: int, n: int) -> List[Hyperplane]:
    N = math.ceil(n ** (2 / (d + 1)))
    planes: List[Hyperplane] = []
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = 1.0
        for i in range(1, N):
            planes.append(Hyperplane(e.copy(), i / N))
    cells: Dict[tuple, List[int]] = {}
    idx = np.minimum((coords * N).astype(np.int64), N - 1)
    for i, key in enumerate(map(tuple, idx)):
        cells.setdefault(key, []).append(i)
    for key in sorted(cells):
        members = cells[key]
        if len(members) < 2:
            continue
        sub = coords[members]
        # Bisect successive pairings until all sign vectors differ.
        local: List[Hyperplane] = []
        for _ in range(4 * len(members)):
            sig = (
                np.stack([h.values(sub) for h in local], axis=1) > 0
                if local
                else np.zeros((len(members), 0), dtype=bool)
            )
            groups: Dict[bytes, List[int]] = {}
            for i, row in enumerate(sig):
                groups.setdefault(row.tobytes(), []).append(i)
            clashes = [g for g in groups.values() if len(g) > 1]
            if not clashes:
                break
            for g in clashes:
                for a, b in zip(g[0::2], g[1::2]):
                    p, q = sub[a], sub[b]
                    normal = 2 * (q - p)
                    offset = float(q @ q - p @ p)
                    local.append(Hyperplane(normal, offset))
        else:
            raise HyperVerificationError("cell splitting did not converge")
        planes.extend(local)
    return planes


# ---------------------------------------------------------------------------
# t-relaxed separation


def t_relaxed_separator(P: PointSet, t: int) -> List[CanonicalLine]:
    """Grid with N = ceil(n^((t+1)/(2t+1))); any cell holding more than t
    points is split recursively by median lines (along the wider axis of
    the group) until every region holds at most t. For t = 1 the output
    fully separates P."""
    if t < 1:
        raise PreconditionError("t must be >= 1")
    n = len(P)
    N = math.ceil(n ** ((t + 1) / (2 * t + 1)))
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

    cells: Dict[int, List[int]] = {}
    for i, c in enumerate(grid_cells(xs, ys, d, N).tolist()):
        cells.setdefault(c, []).append(i)
    for key in sorted(cells):
        split(cells[key])
    return lines


def max_face_load(P: PointSet, lines: Sequence[CanonicalLine]) -> int:
    """Largest number of points sharing a sign vector over the lines
    (face-occupancy check for t-relaxed output)."""
    if len(P) == 0:
        return 0
    # Classes of one point are dropped, so an empty result means load 1.
    classes = refine(P, lines, SeparationMode.RELAXED, stop_at=1)
    return max((len(c) for c in classes), default=1)


def trelax_study(
    n_list: Sequence[int], t: int, trials: int, seed: int, threads: int = 1
) -> StudyTable:
    """t_relaxed_separator sizes over random instances; fitted exponent of
    the total line count vs n. Every output is verified to leave at most t
    points per face."""

    def worker(job) -> StudyRow:
        n, tr = job
        N = math.ceil(n ** ((t + 1) / (2 * t + 1)))
        s = trial_seed(seed, tr * 1_000_003 + n)
        P = random_points(n, s)
        lines = t_relaxed_separator(P, t)
        if max_face_load(P, lines) > t:
            raise VerificationError(
                "t-relaxed output left a face with more than t points"
            )
        colliding, active_ids = cell_counts(*P.int_coords(), N)
        return StudyRow(
            n=n,
            trial=tr,
            seed=s,
            separator_size=len(lines),
            grid_N=N,
            colliding_pairs=colliding,
            active_cells=len(active_ids),
            max_active_per_line=0,
        )

    return _study_table("trelax", n_list, trials, worker, threads)
