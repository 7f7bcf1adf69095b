import numpy as np
import pytest

from seplines import _kernels as K


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
