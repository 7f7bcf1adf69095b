"""Hot numeric kernels: batched line-side evaluation over point sets, in
numpy.

A block's values a_j*x_i + b_j*y_i + c_j are one matrix product,
``[X Y 1] @ [A; B; C]``. Kernels report *uncertain* entries whose
magnitude falls under a conservative rounding-error bound;
``sepsys``, their one caller in the program, settles those entries in
exact integers (``settle``). The bound is checked in two stages, a
semi-static filter in the sense of Fortune & Van Wyk (ACM TOG 1996):
first one bound per line, EPS_FACTOR * ((max|x|*|a_j| + max|y|*|b_j|) +
|c_j|), the maxima over the non-NaN points; then, only for the entries
that one leaves uncertain, the per-entry bound (|x_i|*|a_j| +
|y_i|*|b_j| + |c_j|) * EPS_FACTOR, summed in that order. Rounding is
monotone, so the line's bound is at least each entry's, and signs and
uncertain mask are those of the per-entry bound on every input. A point
far larger than the others sends nearly every entry to the second stage:
the answer stays exact, only slower.

Certain entries are guaranteed to carry the true sign, whatever order or
fused multiply-adds the product uses, as long as every input is 0 or a
normal double of magnitude within 2^-400..2^400, so that no product
underflows. Callers mark inputs outside that range as NaN (see
``sepsys.float_array``); every entry involving a NaN is reported
uncertain.
"""
from __future__ import annotations

import numpy as np

# |a*x + b*y + c| below (|a*x| + |b*y| + |c|) * EPS_FACTOR cannot be
# trusted: covers conversion of big-int coefficients to float64 plus the
# roundings of the three-term sum in any order, fused multiply-adds
# included, and of the bound's own product, with a wide safety margin.
EPS_FACTOR = 2.0 ** -45

# Multipliers for the 64-bit row hashes (odd => invertible mod 2^64).
HASH_MULT_1 = 0x9E3779B97F4A7C15
HASH_MULT_2 = 0xC2B2AE3D27D4EB4F


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def _as_f64(*arrays):
    return (np.ascontiguousarray(v, dtype=np.float64) for v in arrays)


def _signs(A, B, C, X, Y):
    L = np.stack([A, B, C])
    vals = np.stack([X, Y, np.ones_like(X)], axis=1) @ L
    np.abs(L, out=L)
    ax, ay = np.abs(X), np.abs(Y)
    # One bound per line, the maxima over the non-NaN points.
    err = np.fmax.reduce(ax, initial=0.0) * L[0]
    err += np.fmax.reduce(ay, initial=0.0) * L[1]
    err += L[2]
    err *= EPS_FACTOR
    # Comparisons with NaN are false, so NaN entries come out uncertain.
    pos = vals > err
    neg = vals < np.negative(err, out=err)
    unc = pos | neg
    np.logical_not(unc, out=unc)
    k = np.flatnonzero(unc)
    if len(k):  # the per-entry bound, for these entries only
        i, j = np.divmod(k, vals.shape[1])
        v = vals.take(k)
        entry_err = (ax[i] * L[0, j] + ay[i] * L[1, j] + L[2, j]) * EPS_FACTOR
        p, q = v > entry_err, v < -entry_err
        np.put(pos, k, p)
        np.put(neg, k, q)
        np.put(unc, k, ~(p | q))
    return pos.view(np.int8) - neg.view(np.int8), unc


def eval_signs(A, B, C, X, Y):
    """Sign of a_j*x_i + b_j*y_i + c_j for every point i and line j.

    Returns (signs, uncertain): int8 array of shape (n, m) and a boolean
    mask of entries too close to zero to trust (their sign is set to 0).
    """
    return _signs(*_as_f64(A, B, C, X, Y))


# ---------------------------------------------------------------------------
# row hashes (for face grouping without materialising n x m matrices)


def _desc_powers(mult: np.uint64, w: int) -> np.ndarray:
    """[mult^(w-1), ..., mult^1, 1] as uint64 (mod 2^64)."""
    p = np.empty(w, dtype=np.uint64)
    p[w - 1] = np.uint64(1)
    if w > 1:
        p[: w - 1] = np.cumprod(np.full(w - 1, mult, dtype=np.uint64))[::-1]
    return p


def row_hash(A, B, C, X, Y):
    """Per-point 64-bit hashes of the sign row over all lines.

    h = sum_k (sign_k + 1) * MULT^(m-1-k)  (mod 2^64), for two multipliers.
    Uncertain entries enter the hash as sign 0 and are returned as (i, j)
    index pairs so the caller can patch the hashes after exact evaluation:
    h += (s_exact - 0) * MULT^(m-1-j) mod 2^64.
    """
    A, B, C, X, Y = _as_f64(A, B, C, X, Y)
    n, m = X.shape[0], A.shape[0]
    h1 = np.zeros(n, dtype=np.uint64)
    h2 = np.zeros(n, dtype=np.uint64)
    unc_i = []
    unc_j = []
    chunk = max(1, min(m, 2 ** 24 // max(n, 1) + 1))
    m1 = np.uint64(HASH_MULT_1)
    m2 = np.uint64(HASH_MULT_2)
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        signs, unc = _signs(A[lo:hi], B[lo:hi], C[lo:hi], X, Y)
        ii, jj = np.nonzero(unc)
        unc_i.append(ii)
        unc_j.append(jj + lo)
        s = (signs + 1).astype(np.uint64)
        # Horner step for the whole chunk at once; uint64 wraps mod 2^64
        # (the intended semantics, so overflow warnings are suppressed).
        w = hi - lo
        with np.errstate(over="ignore"):
            p1 = _desc_powers(m1, w)
            p2 = _desc_powers(m2, w)
            h1 = h1 * (p1[0] * m1) + s @ p1
            h2 = h2 * (p2[0] * m2) + s @ p2
    if unc_i:
        unc = np.stack([np.concatenate(unc_i), np.concatenate(unc_j)], axis=1)
    else:
        unc = np.zeros((0, 2), dtype=np.int64)
    return h1, h2, unc.astype(np.int64)


# ---------------------------------------------------------------------------
# per-line side counts (no caller in the program; the benchmark wraps it)


def line_side_counts(A, B, C, X, Y):
    """For each line: (#points below, #points on-or-uncertain, #points above).

    Below and above count certain entries only, so they never exceed the
    exact counts.
    """
    A, B, C, X, Y = _as_f64(A, B, C, X, Y)
    n, m = X.shape[0], A.shape[0]
    below = np.zeros(m, dtype=np.int64)
    above = np.zeros(m, dtype=np.int64)
    chunk = max(1, min(m, 2 ** 20 // max(n, 1)))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        signs, _ = _signs(A[lo:hi], B[lo:hi], C[lo:hi], X, Y)
        above[lo:hi] = np.count_nonzero(signs > 0, axis=0)
        below[lo:hi] = np.count_nonzero(signs < 0, axis=0)
        del signs  # free this chunk's block before the next one's
    on = n - below - above
    return below, on, above
