import io
import math

import numpy as np
import pytest

from seplines import experiments as ex
from seplines.sepsys import SeparationMode, find_unseparated_pair


# ---------------------------------------------------------------------------
# balls into bins


def test_throw_balls_trivial_cases():
    st = ex.throw_balls(1, 100, seed=0)
    assert st.l2 == 0 and st.colliding_pairs == 0 and st.max_occupancy == 1
    st = ex.throw_balls(2, 1, seed=0)
    assert st.l2 == 2 and st.bins_ge2 == 1 and st.colliding_pairs == 1
    st = ex.throw_balls(0, 5, seed=0)
    assert st.max_occupancy == 0


def test_throw_balls_l2_two_ways():
    # L_2 via occupancies must match a per-ball recount.
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 50, 200)
    occ = np.bincount(ids, minlength=50)
    per_ball = sum(1 for b in ids if occ[b] >= 2)
    st = ex.throw_balls(200, 50, seed=7)
    assert st.l2 == per_ball
    assert st.n_balls == int(occ.sum())


def test_throw_balls_colliding_pairs_expectation():
    # E[pairs] = C(n,2)/b by linearity of expectation.
    n, b, trials = 1000, 10 ** 6, 1000
    vals = [
        ex.throw_balls(n, b, ex.trial_seed(5, t)).colliding_pairs
        for t in range(trials)
    ]
    mean = float(np.mean(vals))
    expect = n * (n - 1) / 2 / b
    sd = float(np.std(vals, ddof=1))
    assert abs(mean - expect) <= 3 * sd / math.sqrt(trials) + 1e-9


def test_throw_balls_sparse_bins_path():
    # 10^9 bins: far more than balls, so almost every occupied bin holds one.
    st = ex.throw_balls(1000, 10 ** 9, seed=1)
    assert st.n_bins == 10 ** 9
    assert st.l2 >= 0 and st.max_occupancy >= 1


def test_throw_balls_deterministic():
    a = ex.throw_balls(500, 1000, seed=3)
    b = ex.throw_balls(500, 1000, seed=3)
    assert a == b


def test_heavy_ball_precondition():
    with pytest.raises(ex.PreconditionError):
        ex.heavy_ball_bounds_check(1000, 2000, 2, 10, 0)  # bins < 3*balls
    with pytest.raises(ex.PreconditionError):
        ex.heavy_ball_bounds_check(10, 100, 5, 10, 0)


def test_heavy_ball_zero_balls_skips_verdict():
    rep = ex.heavy_ball_bounds_check(0, 100, 2, 10, 0)
    assert rep.verdict is None and rep.mean == 0.0


def test_heavy_ball_small_case_in_band():
    # i=2, n=100, b=10^6: F_2 = 0.005, bracket [6.77e-4, 0.0815]
    rep = ex.heavy_ball_bounds_check(100, 10 ** 6, 2, trials=400, seed=2)
    assert rep.f_i == pytest.approx(0.005)
    assert rep.bound_lo == pytest.approx(math.exp(-2) * 0.005)
    assert rep.bound_hi == pytest.approx(6 * math.e * 0.005)
    # collisions are so rare here that the CI is wide; the band check is
    # on the mean itself
    assert rep.bound_lo <= rep.mean <= rep.bound_hi


def test_birthday_trivial_and_report():
    rep = ex.birthday_max_check(2, 1.0, trials=50, seed=0)
    assert rep.n_bins == 4
    assert 0 <= rep.max_bins_ge2 <= 1
    assert rep.max_colliding_pairs >= rep.max_bins_ge2


# ---------------------------------------------------------------------------
# random points


def test_random_points_basics():
    assert len(ex.random_points(0, 0)) == 0
    P = ex.random_points(2, 0)
    assert len(P) == 2 and P[0] != P[1]
    for p in P:
        assert 0 <= p.x < 1 and p.x.denominator <= ex.GRID
    # reproducible
    Q = ex.random_points(50, 9)
    R = ex.random_points(50, 9)
    assert all(a == b for a, b in zip(Q, R))


def test_cell_statistics_matches_exact_pipeline():
    for n, seed in [(100, 1), (1000, 7)]:
        N = math.ceil(n ** (2 / 3))
        P = ex.random_points(n, seed)
        c1, active = ex.cell_counts(*P.int_coords(), N)
        c2, a2, _ = ex.cell_statistics(n, N, seed)
        assert (c1, len(active)) == (c2, a2)


def _ref_max_active_cells_per_line(active_ids, N, n_lines, rng):
    """One segment at a time: an arange, clips and an np.unique per line."""
    if not len(active_ids):
        return 0
    flat = np.zeros(N * N, dtype=bool)
    flat[active_ids] = True
    best = 0
    for _ in range(n_lines):
        x0, y0, x1, y1 = ex._random_boundary_segment(rng)
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
        lo_edge = np.maximum(cols / N, a0)
        hi_edge = np.minimum((cols + 1) / N, a1)
        slope = (b1 - b0) / (a1 - a0) if a1 > a0 else 0.0
        y_lo = b0 + slope * (lo_edge - a0)
        y_hi = b0 + slope * (hi_edge - a0)
        r0 = np.clip(np.floor(np.minimum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        r1 = np.clip(np.floor(np.maximum(y_lo, y_hi) * N).astype(np.int64), 0, N - 1)
        ids = []
        for k in range(int((r1 - r0).max()) + 1):
            rk = np.minimum(r0 + k, r1)
            ids.append(rk * N + cols if transpose else cols * N + rk)
        best = max(best, int(flat[np.unique(np.concatenate(ids))].sum()))
    return best


class _Draws:
    """A stand-in generator whose random() returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("N", [1, 2, 3, 10, 57, 200, 700])
def test_max_active_cells_per_line_matches_per_line_loop(N):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        active = np.unique(rng.integers(0, N * N, max(1, N * N // (seed + 2))))
        r1, r2 = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
        got = ex.max_active_cells_per_line(active, N, 300, r1)
        assert got == _ref_max_active_cells_per_line(active, N, 300, r2)
        assert r1.random() == r2.random()  # the same number of draws
    assert ex.max_active_cells_per_line(np.array([], dtype=np.int64), N, 10, r1) == 0


@pytest.mark.parametrize("N", [1, 4, 7, 64])
def test_max_active_cells_per_line_steep_and_flat_segments(N):
    eps = 1e-12
    # Pairs of boundary parameters (u / 4 walks the square's boundary).
    pairs = [
        # near vertical
        (0.1, (3 - 0.4) / 4), (0.1, (3 - 0.4 - eps) / 4), (0.1, (3 - 0.4 + eps) / 4),
        ((4 - 0.3) / 4, (1 + 0.3) / 4), ((4 - 0.3) / 4, (1 + 0.3 + eps) / 4),  # near horizontal
        (0.0, 0.5), (0.25, 0.75), (0.125, 0.625),  # diagonals, cell boundaries
        (0.05, 0.2), (0.3, 0.3), (0.3, 0.31), (0.0, 0.999999),  # one side, redraw, corner
    ]
    draws = [u for pair in pairs for u in pair]
    active = np.arange(0, N * N, 2)
    for k in range(1, len(pairs) - 1):
        got = ex.max_active_cells_per_line(active, N, k, _Draws(draws))
        assert got == _ref_max_active_cells_per_line(active, N, k, _Draws(draws))


# ---------------------------------------------------------------------------
# scaling study


def test_scaling_study_rows_and_invariants():
    tab = ex.scaling_study([64, 128], trials=3, seed=1)
    assert len(tab.rows) == 6
    for r in tab.rows:
        N = math.ceil(r.n ** (2 / 3))
        assert r.grid_N == N
        assert r.separator_size >= 2 * (N - 1)
        assert r.colliding_pairs >= r.active_cells >= 0
        assert r.wall_time_ms is None  # timing is opt-in
    assert tab.fitted_exponent is not None


def test_scaling_study_single_n_has_no_exponent():
    tab = ex.scaling_study([64], trials=2, seed=1)
    assert tab.fitted_exponent is None
    assert tab.summary()["fitted_exponent"] is None


def test_scaling_study_deterministic():
    a = ex.scaling_study([64, 128], trials=2, seed=5)
    b = ex.scaling_study([64, 128], trials=2, seed=5)
    assert a.rows == b.rows


def test_scaling_study_csv_schema():
    tab = ex.scaling_study([64], trials=1, seed=1)
    buf = io.StringIO()
    tab.write_csv(buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "# schema=1"
    assert out[1].split(",") == [
        "n",
        "trial",
        "seed",
        "separator_size",
        "grid_N",
        "colliding_pairs",
        "active_cells",
        "max_active_per_line",
        "wall_time_ms",
    ]
    assert len(out) == 3


def test_scaling_study_rejects_unsorted():
    with pytest.raises(ex.PreconditionError):
        ex.scaling_study([128, 64], trials=1, seed=0)


def test_fit_exponent_recovers_powerlaw():
    ns = [2 ** k for k in range(6, 12)]
    means = [3.7 * n ** 0.66 for n in ns]
    assert ex.fit_exponent(ns, means) == pytest.approx(0.66, abs=1e-9)
    # a mean of 0 (n = 1 needs no line) is left out of the fit
    assert ex.fit_exponent([1] + ns, [0.0] + means) == pytest.approx(0.66, abs=1e-9)
    assert ex.fit_exponent([1, 2], [0.0, 1.0]) is None


# ---------------------------------------------------------------------------
# t-relaxed


def test_t_relaxed_t1_fully_separates():
    P = ex.random_points(40, 3)
    lines = ex.t_relaxed_separator(P, 1)
    assert find_unseparated_pair(P, lines, SeparationMode.RELAXED) is None


def test_t_relaxed_face_load_bounded():
    for t in (2, 3):
        P = ex.random_points(200, 10 + t)
        lines = ex.t_relaxed_separator(P, t)
        assert ex.max_face_load(P, lines) <= t


def test_t_relaxed_huge_t_emits_grid_only():
    P = ex.random_points(20, 5)
    lines = ex.t_relaxed_separator(P, 20)
    N = math.ceil(20 ** (21 / 41))
    assert len(lines) == 2 * (N - 1)


def test_trelax_study_exponent_and_verification():
    tab = ex.trelax_study([128, 256, 512], t=2, trials=2, seed=0)
    assert tab.kind == "trelax"
    assert 0.3 <= tab.fitted_exponent <= 0.9  # loose: small-n fit is noisy
    assert len(tab.rows) == 6
