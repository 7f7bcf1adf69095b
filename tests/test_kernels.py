from fractions import Fraction

import numpy as np
import pytest

from seplines import _kernels as K
from seplines.experiments import random_points
from seplines.sepsys import candidate_lines, float_array


def _random_instance(seed, n=60, m=40):
    rng = np.random.default_rng(seed)
    A = rng.integers(-1000, 1001, m).astype(np.float64)
    B = rng.integers(-1000, 1001, m).astype(np.float64)
    C = rng.integers(-1000, 1001, m).astype(np.float64)
    B[A == 0] += 1.0
    X = rng.integers(0, 2 ** 20, n).astype(np.float64)
    Y = rng.integers(0, 2 ** 20, n).astype(np.float64)
    return A, B, C, X, Y


def test_backend_reports_name():
    assert K.backend() == "numpy"


def test_eval_signs_matches_exact_oracle():
    A, B, C, X, Y = _random_instance(0)
    signs, unc = K.eval_signs(A, B, C, X, Y)
    for i in range(len(X)):
        for j in range(len(A)):
            exact = int(A[j]) * int(X[i]) + int(B[j]) * int(Y[i]) + int(C[j])
            want = (exact > 0) - (exact < 0)
            if not unc[i, j]:
                assert signs[i, j] == want
            else:
                assert signs[i, j] == 0


def test_row_hash_consistent_with_eval_signs():
    A, B, C, X, Y = _random_instance(2, n=30, m=17)
    signs, _ = K.eval_signs(A, B, C, X, Y)
    h1, h2, _ = K.row_hash(A, B, C, X, Y)
    m = len(A)
    mask = (1 << 64) - 1
    for i in range(len(X)):
        want1 = want2 = 0
        for j in range(m):
            want1 = (want1 * K.HASH_MULT_1 + int(signs[i, j]) + 1) & mask
            want2 = (want2 * K.HASH_MULT_2 + int(signs[i, j]) + 1) & mask
        assert int(h1[i]) == want1
        assert int(h2[i]) == want2


def test_uncertain_flagging_and_hash_patch():
    # A point exactly on a line must be flagged uncertain; patching the hash
    # with the exact sign must reproduce the full-signs hash.
    A = np.array([1.0, 1.0, 3.0])
    B = np.array([1.0, -1.0, 1.0])
    C = np.array([-2.0, 0.0, -1.0])
    X = np.array([1.0, 5.0])
    Y = np.array([1.0, 4.0])  # (1,1) lies on lines 0 and 1; (5,4) on none
    signs, unc = K.eval_signs(A, B, C, X, Y)
    assert unc[0, 0] and unc[0, 1] and not unc[0, 2]
    assert not unc[1].any()
    h1, h2, upairs = K.row_hash(A, B, C, X, Y)
    assert {(int(i), int(j)) for i, j in upairs} == {(0, 0), (0, 1)}
    # True signs at (1,1) are 0 for both uncertain entries, so the patched
    # hash equals the raw hash; patch with a fake +1 and check the formula.
    mask = (1 << 64) - 1
    m = len(A)
    patched = (int(h1[0]) + 1 * pow(K.HASH_MULT_1, m - 1 - 0, 1 << 64)) & mask
    want = 0
    row = [1 + 1, 0 + 1, int(signs[0, 2]) + 1]  # entry 0 forced to sign +1
    for s in row:
        want = (want * K.HASH_MULT_1 + s) & mask
    assert patched == want


def test_line_side_counts_oracle():
    A, B, C, X, Y = _random_instance(3, n=25, m=12)
    below, on, above = K.line_side_counts(A, B, C, X, Y)
    for j in range(len(A)):
        vals = [
            int(A[j]) * int(x) + int(B[j]) * int(y) + int(C[j])
            for x, y in zip(X, Y)
        ]
        assert below[j] == sum(v < 0 for v in vals)
        assert above[j] == sum(v > 0 for v in vals)
        assert on[j] == sum(v == 0 for v in vals)
    assert (below + on + above == len(X)).all()


def test_nan_inputs_are_uncertain():
    # NaN marks an input outside the float filter's safe range: every entry
    # that uses it must be escalated, never given a sign.
    A = np.array([1.0, np.nan])
    B = np.array([1.0, 1.0])
    C = np.array([0.0, 0.0])
    X = np.array([1.0, np.nan])
    Y = np.array([2.0, 2.0])
    signs, unc = K.eval_signs(A, B, C, X, Y)
    assert unc.tolist() == [[False, True], [True, True]]
    assert signs.tolist() == [[1, 0], [0, 0]]


def test_eps_factor_conservative_for_big_ints():
    # Coefficients near 2^40 scale: certain entries must carry true signs.
    rng = np.random.default_rng(9)
    G = 2 ** 40
    a = rng.integers(-G, G, 20)
    b = rng.integers(-G, G, 20)
    b[(a == 0) & (b == 0)] = 1
    c = rng.integers(-G, G, 20) * G
    x = rng.integers(0, G, 20)
    y = rng.integers(0, G, 20)
    signs, unc = K.eval_signs(
        a.astype(np.float64),
        b.astype(np.float64),
        c.astype(np.float64),
        x.astype(np.float64),
        y.astype(np.float64),
    )
    for i in range(20):
        for j in range(20):
            if unc[i, j]:
                continue
            exact = int(a[j]) * int(x[i]) + int(b[j]) * int(y[i]) + int(c[j])
            assert signs[i, j] == (exact > 0) - (exact < 0)


# ---------------------------------------------------------------------------
# differential check of the matrix-product kernel against the outer-product
# kernel it replaced


def reference_signs(A, B, C, X, Y):
    """The outer-product kernel: the same values and bound, term by term."""
    vals = np.outer(X, A) + np.outer(Y, B) + C[None, :]
    err = np.outer(np.abs(X), np.abs(A)) + np.outer(np.abs(Y), np.abs(B))
    err = (err + np.abs(C)[None, :]) * K.EPS_FACTOR
    uncertain = ~(np.abs(vals) > err)
    vals[uncertain] = 0.0
    return np.sign(vals).astype(np.int8), uncertain


def exact_signs(a, b, c, x, y):
    """Signs of a_j*x_i + b_j*y_i + c_j for exact ints or Fractions."""
    a, b, c, x, y = (np.array(v, dtype=object) for v in (a, b, c, x, y))
    vals = np.outer(x, a) + np.outer(y, b) + c[None, :]
    return (vals > 0).astype(np.int8) - (vals < 0).astype(np.int8)


def exact_case(a, b, c, x, y):
    """Kernel inputs through float_array, and the exact signs."""
    return [float_array(v) for v in (a, b, c, x, y)], exact_signs(a, b, c, x, y)


def through_pairs(xs, ys, pairs):
    """Exact (a, b, c) of the lines through the given point pairs."""
    a = [ys[j] - ys[i] for i, j in pairs]
    b = [xs[i] - xs[j] for i, j in pairs]
    c = [-(ak * xs[i] + bk * ys[i]) for ak, bk, (i, j) in zip(a, b, pairs)]
    return a, b, c


def nan_case():
    # 2^450 and 2^-450 leave float_array's range and become NaN: in X, in Y,
    # in A and in C, and against zero coefficients (line 2 has a = 0 and
    # meets point 1's NaN x; line 3 has b = 0 and meets point 2's NaN y).
    big, tiny = 2 ** 450, Fraction(1, 2 ** 450)
    x = [1, big, 3, -big, 5]
    y = [2, 5, tiny, 7, 0]
    a = [1, big, 0, -2, 1]
    b = [1, 1, 1, 0, -1]
    c = [0, -3, -5, big, -5]
    return exact_case(a, b, c, x, y)


def range_edge_case():
    # Magnitudes just inside 2^-400..2^400, with points exactly on lines.
    e, t = 2 ** 399, Fraction(1, 2 ** 399)
    x = [e, t, -e, 3, t, 1]
    y = [e, t, e, -7, -t, e]
    a = [1, 1, e, t, 0, 1]
    b = [-1, 1, 1, 1, e, 0]
    c = [0, 0, 0, 7, 0, -1]
    return exact_case(a, b, c, x, y)


def bound_edge_case():
    # Point k and line k give the value t_k, at a fixed ratio to the error
    # bound (|a x| + |b y| + |c|) * EPS_FACTOR = wx + wy, on either side
    # of 1, with the terms split between x, y and c in several ways. A
    # bound that drops or shrinks a term flips some of these entries.
    x, y, c = [], [], []
    for wx, wy in ((1, 0), (0, 1), (1, 1), (1, 3)):
        for r in (Fraction(1, 2), Fraction(7, 8), Fraction(9, 8), Fraction(15, 8), Fraction(17, 8)):
            for s in (1, -1):
                x.append(wx * 2 ** 44)
                y.append(wy * 2 ** 44)
                c.append(-(wx + wy) * 2 ** 44 + s * r * (wx + wy))
    ones = [1] * len(x)
    return exact_case(ones, ones, c, x, y)


def on_line_case(seed, scale):
    # Lines through pairs of the points at coordinates up to `scale`: every
    # line has two points exactly on it, and the rounding of c to float is
    # where an on-line value stops being 0.
    rng = np.random.default_rng(seed)
    xs = [int(v) for v in rng.integers(-scale, scale, 24)]
    ys = [int(v) for v in rng.integers(-scale, scale, 24)]
    pairs = [tuple(int(v) for v in rng.choice(24, 2, replace=False)) for _ in range(40)]
    pairs = [(i, j) for i, j in pairs if (xs[i], ys[i]) != (xs[j], ys[j])]
    return exact_case(*through_pairs(xs, ys, pairs), xs, ys)


def far_point_case():
    # One point at 2^300 among points of magnitude under 10, with lines
    # through pairs of the small points: each line's one bound, from
    # max|x| = 2^300, leaves every entry but the far point's to the
    # per-entry second stage.
    rng = np.random.default_rng(7)
    xs = [2 ** 300] + [int(v) for v in rng.integers(-9, 10, 23)]
    ys = [int(v) for v in rng.integers(-9, 10, 24)]
    pairs = [tuple(int(v) for v in rng.choice(np.arange(1, 24), 2, replace=False)) for _ in range(30)]
    pairs = [(i, j) for i, j in pairs if (xs[i], ys[i]) != (xs[j], ys[j])]
    return exact_case(*through_pairs(xs, ys, pairs), xs, ys)


def big_int_case(seed):
    rng = np.random.default_rng(seed)
    G = 2 ** 40
    a = [int(v) for v in rng.integers(-G, G, 30)]
    b = [int(v) or 1 for v in rng.integers(-G, G, 30)]
    c = [int(v) * G for v in rng.integers(-G, G, 30)]
    x = [int(v) for v in rng.integers(0, G, 30)]
    y = [int(v) for v in rng.integers(0, G, 30)]
    return exact_case(a, b, c, x, y)


def candidate_block(n, m, seed, points=None):
    """m of the candidate lines of random_points(n, seed), as greedy and
    _pair_hits evaluate them, at all points or at the given ones."""
    P = random_points(n, seed)
    cand = candidate_lines(P)
    rng = np.random.default_rng(seed)
    cols = np.sort(rng.choice(len(cand), m, replace=False))
    rows = np.arange(n) if points is None else np.array(points)
    xf, yf = P.float_coords()
    xs, ys, d = P.int_coords()
    a, b, c = cand.coeffs(cols)
    # The points are (xs/d, ys/d) with d > 0: scaling by d keeps each sign.
    exact = exact_signs(a, b, [ck * d for ck in c], [xs[i] for i in rows], [ys[i] for i in rows])
    return [cand.A[cols], cand.B[cols], cand.C[cols], xf[rows], yf[rows]], exact


KERNEL_CASES = {
    "bound-edges": bound_edge_case,
    "nan": nan_case,
    "range-edges": range_edge_case,
    "on-lines-small": lambda: on_line_case(1, 1000),
    "on-lines-2^40": lambda: on_line_case(2, 2 ** 40),
    "far-point": far_point_case,
    "ints-2^40": lambda: big_int_case(3),
    "greedy-192x1041": lambda: candidate_block(192, 1041, 4),
    "greedy-96x2083": lambda: candidate_block(96, 2083, 5),
    "pair-hits-2xm": lambda: candidate_block(256, 32640, 6, points=[17, 200]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_matrix_product_kernel_matches_outer_products(case):
    """Certain entries carry the exact sign; NaN and on-line entries are
    uncertain; and both masks and signs equal the outer-product kernel's."""
    (A, B, C, X, Y), exact = KERNEL_CASES[case]()
    signs, unc = K.eval_signs(A, B, C, X, Y)
    ref_signs, ref_unc = reference_signs(A, B, C, X, Y)
    assert signs.dtype == np.int8 and signs.shape == unc.shape == exact.shape
    assert (signs[~unc] == exact[~unc]).all()
    assert not signs[unc].any()
    nan = np.isnan(X)[:, None] | np.isnan(Y)[:, None] | np.isnan(A) | np.isnan(B) | np.isnan(C)
    assert unc[nan | (exact == 0)].all()
    assert (unc == ref_unc).all()
    assert (signs == ref_signs).all()
    if case in ("nan", "range-edges", "on-lines-2^40", "pair-hits-2xm"):
        assert unc.any() and (~unc).any()
    if case == "bound-edges":  # uncertain exactly below ratio 1
        diag = np.diag(unc)
        assert (diag == np.tile(np.repeat([True, True, False, False, False], 2), 4)).all()


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_line_side_counts_count_certain_entries(case):
    """below and above count the kernel's certain signs, which never
    exceed the exact counts; on is the rest."""
    (A, B, C, X, Y), exact = KERNEL_CASES[case]()
    signs, _ = K.eval_signs(A, B, C, X, Y)
    below, on, above = K.line_side_counts(A, B, C, X, Y)
    assert (below == (signs < 0).sum(axis=0)).all()
    assert (above == (signs > 0).sum(axis=0)).all()
    assert (below + on + above == len(X)).all()
    assert (below <= (exact < 0).sum(axis=0)).all()
    assert (above <= (exact > 0).sum(axis=0)).all()


def test_far_point_leaves_nearly_every_entry_to_the_second_stage():
    """The far-point case exercises the per-entry bound: the per-line
    bound settles under a tenth of its entries."""
    (A, B, C, X, Y), _ = KERNEL_CASES["far-point"]()
    line_err = np.abs(X).max() * np.abs(A) + np.abs(Y).max() * np.abs(B) + np.abs(C)
    vals = np.outer(X, A) + np.outer(Y, B) + C
    assert (np.abs(vals) > line_err * K.EPS_FACTOR).mean() < 0.1
