"""Separability solvers, behind one entry point, :func:`solve`.

* :func:`exact_separability` -- branch-and-bound optimum (n <= 14).
* :func:`greedy_hitting_set` -- batched lazy greedy baseline.
* :func:`reweight_approx` -- multiplicative-weights epsilon-net sampler.
* :func:`halving_separator` -- the ceil(n/2) splitting construction.
* :func:`grid_separator` -- grid lines plus per-cell fix-ups.

The search space for separating lines is generated from lines through
point pairs. A line through points u, v can be perturbed (translated or
rotated slightly) so that u and v land on prescribed sides while every
other point keeps its strict side; each such *variant* is realized as a
concrete exact line only when needed. Strict-mode solvers use the four
(+-1, +-1) variants per pair; relaxed-mode exact search additionally uses
the base line and the four one-point variants, which together realize
every sign pattern a line can have on the point set.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .geom import CanonicalLine, int_line_through, sign
from .sepsys import (
    CandidateLines,
    GeneralPositionError,
    PairId,
    PointSet,
    PreconditionError,
    SeparationMode,
    TooFewPointsError,
    _KERNEL_THRESHOLD,
    _perp_bisector,
    _split,
    candidate_lines,
    find_unseparated_pair,
    line_signs,
    properize,
    rotate_line,
    settle,
    split_line,
)

EXACT_SIZE_CAP = 14
ALGOS = ("auto", "exact", "greedy", "reweight", "halving", "grid")

# reweight_approx: guess k samples ceil(_C_NET * k * ln(k + 2)) candidate
# lines a round, for at most ceil(_ROUND_CONSTANT * k * ln(n + 2)) rounds.
_C_NET = 4
_ROUND_CONSTANT = 16

_STRICT_VARIANTS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
_RELAXED_VARIANTS = (
    (0, 0),
    (0, -1),
    (0, 1),
    (-1, 0),
    (1, 0),
) + _STRICT_VARIANTS


class SolverError(RuntimeError):
    pass


class VerificationError(SolverError):
    """A solver's own output failed re-verification (internal bug guard)."""


class SizeCapError(PreconditionError):
    pass


# ---------------------------------------------------------------------------
# results


@dataclass
class SolveResult:
    """Lines separating P under ``mode``, from the resolved ``algo``.
    ``sigma`` is the optimum (exact only); the reweight fields stay at
    their defaults for the other algorithms."""

    lines: List[CanonicalLine]
    mode: SeparationMode
    algo: str
    sigma: Optional[int] = None
    rounds_used: Optional[int] = None
    # (k, rounds, succeeded) per guess
    guess_history: List[Tuple[int, int, bool]] = field(default_factory=list)
    weight_doublings: int = 0
    fell_back: bool = False  # reweight fell back to greedy


class WeightState:
    """Per-candidate-line weights 2^hit_count, kept as scaled float64.

    All weights carry an implicit factor 2^rescale_exponent; probabilities
    are weight ratios so rescaling never changes them. The incremental
    total is re-validated against a full resummation every 64 doublings.
    """

    RESCALE_LIMIT = 2.0 ** 512
    RESUM_EVERY = 64
    RESUM_RTOL = 1e-9

    def __init__(self, m: int):
        self.hit_count = np.zeros(m, dtype=np.int64)
        self.weights = np.ones(m, dtype=np.float64)
        self.total_weight = float(m)
        self.rescale_exponent = 0
        self.doubling_events = 0

    def masked_weight(self, mask: np.ndarray) -> float:
        return float(self.weights[mask].sum())

    def double(self, mask: np.ndarray) -> None:
        delta = float(self.weights[mask].sum())
        self.weights[mask] *= 2.0
        self.hit_count[mask] += 1
        self.total_weight += delta
        self.doubling_events += 1
        if self.doubling_events % self.RESUM_EVERY == 0:
            resum = float(self.weights.sum())
            if abs(self.total_weight - resum) > self.RESUM_RTOL * resum:
                raise SolverError("weight accumulator drifted beyond 1e-9")
            self.total_weight = resum
        if self.total_weight > self.RESCALE_LIMIT:
            self.weights *= 2.0 ** -512
            self.total_weight *= 2.0 ** -512
            self.rescale_exponent += 512

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = self.weights / self.weights.sum()
        return rng.choice(len(self.weights), size=size, replace=True, p=p)


# ---------------------------------------------------------------------------
# variant realization


def realize_variant(
    P: PointSet, u: int, v: int, su: int, sv: int
) -> CanonicalLine:
    """Concrete line realizing the (su, sv) variant of the line through
    P[u], P[v]: points u and v get sides su and sv (0 = on the line) and
    every point strictly off the base line keeps its side."""
    xs, ys, d = P.int_coords()
    base = CanonicalLine(*int_line_through(xs[u], ys[u], xs[v], ys[v], d))
    if su == 0 and sv == 0:
        return base
    a, b, c = base.coeffs()
    if su == sv:  # translate by half the least |value| off the line (1 if none)
        vals = (abs(a * x + b * y + c * d) for x, y in zip(xs, ys))  # D * |value|
        delta = min((w for w in vals if w), default=2 * d)
        return CanonicalLine.from_ints(2 * d * a, 2 * d * b, 2 * d * c + su * delta)
    # Rotate by base + t*h with h(p) = dir . (p - pivot). h at the moving
    # point is |dir|^2 > 0, so sign(t) is the side it must reach.
    if su == 0 or sv == 0:  # about the point staying on the line
        p, q, s = (u, v, sv) if su == 0 else (v, u, su)
        gx, gy = xs[q] - xs[p], ys[q] - ys[p]
        return rotate_line(P, base, (gx, gy, -(gx * xs[p] + gy * ys[p])), d * d, s, True)
    # opposite sides: about the midpoint, toward P[u]
    gx, gy = xs[u] - xs[v], ys[u] - ys[v]
    h0 = -(gx * (xs[u] + xs[v]) + gy * (ys[u] + ys[v]))
    return rotate_line(P, base, (2 * gx, 2 * gy, h0), 4 * d * d, su, True)


# ---------------------------------------------------------------------------
# verification


def verify(P: PointSet, L: Sequence[CanonicalLine], mode: SeparationMode) -> bool:
    """True iff L separates every pair of P under the mode."""
    return find_unseparated_pair(P, list(L), mode) is None


def _assert_separates(P: PointSet, L: Sequence[CanonicalLine], mode: SeparationMode, who: str):
    if not verify(P, L, mode):
        raise VerificationError(f"{who} produced a non-separating set (internal bug)")


# ---------------------------------------------------------------------------
# exact solver (branch and bound over realized variant lines)


def _exact_pool(P: PointSet, mode: SeparationMode):
    """Realized variant lines with exact pair-coverage bitmasks, deduplicated
    and dominance-filtered. Returns (entries, pair_count) where each entry
    is (coeff_key, mask, line)."""
    pairs = P.pairs()
    variants = _STRICT_VARIANTS if mode is SeparationMode.STRICT else _RELAXED_VARIANTS
    pool = [realize_variant(P, i, j, su, sv) for i, j in pairs for su, sv in variants]
    S = line_signs(P, pool)
    I, J = np.array(pairs).T
    hit = S[I] * S[J] == -1 if mode is SeparationMode.STRICT else S[I] != S[J]
    # Bit k of a line's mask is set iff it hits pair k.
    packed = np.ascontiguousarray(np.packbits(hit, axis=0, bitorder="little").T)
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    # The first line in coefficient order of each distinct nonzero mask.
    first: Dict[int, int] = {}
    for e in sorted(range(len(pool)), key=lambda e: pool[e].coeffs()):
        if masks[e]:
            first.setdefault(masks[e], e)
    ids = np.array(list(first.values()), dtype=np.int64)
    # Dominance: drop lines whose coverage is a strict subset of another's,
    # that is, which share all their pairs with a line hitting more.
    H = hit[:, ids].astype(np.float32)
    size = H.sum(axis=0)
    dominated = ((H.T @ H == size[:, None]) & (size > size[:, None])).any(axis=1)
    keep = [(pool[e].coeffs(), masks[e], pool[e]) for e in ids[~dominated].tolist()]
    keep.sort(key=lambda e: e[0])
    return keep, len(pairs)


def _capacity(t: int, mode: SeparationMode) -> int:
    """Maximum number of point classes t lines can carve out of one face:
    cells only in strict mode (realized lines avoid all points), cells +
    edges + vertices in relaxed mode."""
    if mode is SeparationMode.STRICT:
        return 1 + t * (t + 1) // 2
    return 1 + 2 * t * t


def sigma_lower_bound(n: int, mode: SeparationMode) -> int:
    """Smallest t whose arrangement can hold n point classes."""
    t = 0
    while _capacity(t, mode) < n:
        t += 1
    return t


def _max_class_size(n: int, pairs: List[PairId], covered: int) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    uncovered = ~covered & ((1 << len(pairs)) - 1)
    while uncovered:
        low = uncovered & -uncovered
        uncovered ^= low
        i, j = pairs[low.bit_length() - 1]
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    sizes: Dict[int, int] = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return max(sizes.values())


def exact_separability(
    P: PointSet, mode: SeparationMode = SeparationMode.STRICT
) -> Tuple[int, List[CanonicalLine]]:
    """Minimum number of lines separating P under the mode, with a verified
    witness. Branch-and-bound with iterative deepening; capped at
    |P| <= 14."""
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    if n > EXACT_SIZE_CAP:
        raise SizeCapError(f"exact solver capped at {EXACT_SIZE_CAP} points, got {n}")
    entries, n_pairs = _exact_pool(P, mode)
    pairs = P.pairs()
    full = (1 << n_pairs) - 1
    masks = [e[1] for e in entries]
    # Per-pair covering entries and entry-set bitmasks.
    cover: List[List[int]] = [[] for _ in range(n_pairs)]
    cover_bits = [0] * n_pairs
    for ei, m in enumerate(masks):
        mm = m
        while mm:
            k = (mm & -mm).bit_length() - 1
            cover[k].append(ei)
            cover_bits[k] |= 1 << ei
            mm &= mm - 1
    if any(not c for c in cover):
        raise GeneralPositionError(
            "some point pair cannot be separated by any candidate line "
            "(degenerate input)"
        )
    # Upper bound: greedy over the pool.
    ub_witness: List[int] = []
    covered = 0
    while covered != full:
        best = max(
            range(len(masks)), key=lambda ei: (bin(masks[ei] & ~covered).count("1"), -ei)
        )
        if masks[best] & ~covered == 0:
            raise SolverError("greedy upper bound stalled (internal bug)")
        ub_witness.append(best)
        covered |= masks[best]
    ub = len(ub_witness)

    pair_order = sorted(range(n_pairs), key=lambda k: len(cover[k]))

    def disjoint_lb(covered: int) -> int:
        used = 0
        lb = 0
        for k in pair_order:
            if not covered >> k & 1 and cover_bits[k] & used == 0:
                lb += 1
                used |= cover_bits[k]
        return lb

    chosen: List[int] = []
    memo: Dict[int, int] = {}  # covered mask -> largest budget proven infeasible

    def dfs(covered: int, budget: int) -> bool:
        if covered == full:
            return True
        if budget == 0:
            return False
        if memo.get(covered, -1) >= budget:
            return False
        if disjoint_lb(covered) > budget:
            memo[covered] = budget
            return False
        if _max_class_size(n, pairs, covered) > _capacity(budget, mode):
            memo[covered] = budget
            return False
        # Branch on the uncovered pair with the fewest covering entries.
        target = min(
            (k for k in range(n_pairs) if not covered >> k & 1),
            key=lambda k: len(cover[k]),
        )
        options = sorted(
            cover[target], key=lambda ei: -bin(masks[ei] & ~covered).count("1")
        )
        for ei in options:
            chosen.append(ei)
            if dfs(covered | masks[ei], budget - 1):
                return True
            chosen.pop()
        memo[covered] = budget
        return False

    lb = max(sigma_lower_bound(n, mode), disjoint_lb(0))
    for t in range(lb, ub):
        chosen.clear()
        if dfs(0, t):
            witness = [entries[ei][2] for ei in chosen]
            _assert_separates(P, witness, mode, "exact_separability")
            return t, witness
    witness = [entries[ei][2] for ei in ub_witness]
    _assert_separates(P, witness, mode, "exact_separability")
    return ub, witness


# ---------------------------------------------------------------------------
# greedy (batched lazy evaluation over point classes)


def _gather(ptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ptr[r]..ptr[r + 1] - 1 of each r in rows (a CSR gather):
    returns (index into rows, position) per gathered position."""
    cnt = ptr[rows + 1] - ptr[rows]
    at = np.repeat(np.arange(len(rows)), cnt)
    first = np.repeat(ptr[rows] - np.cumsum(cnt) + cnt, cnt)
    return at, first + np.arange(len(at))


def greedy_hitting_set(P: PointSet, mode: SeparationMode) -> List[CanonicalLine]:
    """Greedy baseline: repeatedly add the line separating the most
    currently-unseparated pairs (ties by canonical line order, then
    variant). Relaxed mode selects among the candidate lines themselves;
    strict mode selects among their four perturbed variants (candidate
    lines pass through two points and never strictly separate them).

    Batched lazy greedy (Minoux 1978): a count only falls as the classes
    of unseparated points refine, so a stale count bounds the current one.
    Each round walks the entries by (stale bound, tie rank) a block at a
    time, evaluating a block's signs at the live points (those in a class
    of two or more) in one kernel call and its counts in one tally, and
    stops once the best exact count beats the next stale bound."""
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    if n == 2:
        line = realize_variant(P, 0, 1, -1, 1)
        _assert_separates(P, [line], mode, "greedy_hitting_set")
        return [line]
    cand = candidate_lines(P)
    strict = mode is SeparationMode.STRICT
    # Lines in tie order (canonical coefficients). An entry's id is its
    # tie rank: entry l is line l in relaxed mode; in strict mode entry e
    # is variant e % 4 of pair e // 4, with the pairs of a line in order.
    rank = sorted(range(len(cand)), key=lambda li: cand.lines[li].coeffs())
    lines = np.empty(len(rank), dtype=object)
    lines[:] = [cand.lines[li] for li in rank]
    per_line = np.array([len(cand.incident_pairs[li]) for li in rank])
    pair_line = np.repeat(np.arange(len(lines)), per_line)
    pairs = np.array([pr for li in rank for pr in cand.incident_pairs[li]], dtype=np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0], pair_line))]
    # The points each line was built through lie on it exactly:
    # on_pt[on_ptr[l]:on_ptr[l + 1]], in index order.
    inc = np.unique(np.concatenate([pair_line * n + pairs[:, 0], pair_line * n + pairs[:, 1]]))
    on_line, on_pt = np.divmod(inc, n)
    on_ptr = np.searchsorted(on_line, np.arange(len(lines) + 1))
    if strict:
        # on_t orders the points of a line along it, so that the midpoint
        # of two of them has the mean of their values: positions 0, 1 on a
        # two-point line, exact projections on a line through three or more.
        on_t = np.arange(len(inc)) - on_ptr[on_line]
        crowded = np.nonzero(np.diff(on_ptr) > 2)[0].tolist()
        if crowded:
            xs, ys, _ = P.int_coords()
            t = on_t.tolist()
            for l in crowded:
                for q in range(on_ptr[l], on_ptr[l + 1]):
                    t[q] = lines[l].a * ys[on_pt[q]] - lines[l].b * xs[on_pt[q]]
            on_t = np.array(t, dtype=object if max(map(abs, t)) >= 2 ** 61 else np.int64)
        pair_t = on_t[np.searchsorted(inc, pair_line[:, None] * n + pairs)]
        sides = np.array(_STRICT_VARIANTS, dtype=np.int8)

    A, B, C = (v[rank] for v in cand.coeff_arrays())
    xf, yf = P.float_coords()
    pid = np.arange(n)  # live points, ascending
    row_of = np.arange(n)  # point -> row among the live points, or -1
    cls = np.zeros(n, dtype=np.int64)  # class of each live point

    def line_block(ls: np.ndarray) -> np.ndarray:
        """Exact signs of lines ls at the live points, (live, len(ls))."""
        S, unc = _kernels.eval_signs(A[ls], B[ls], C[ls], xf[pid], yf[pid])
        at, q = _gather(on_ptr, ls)
        row = row_of[on_pt[q]]
        at, row = at[row >= 0], row[row >= 0]
        S[row, at] = 0
        unc[row, at] = False
        return settle(P, lines[ls], S, unc, pid)

    def entry_block(blk: np.ndarray) -> np.ndarray:
        if not strict:
            return line_block(blk)
        # A variant moves the points on its base line and keeps every
        # other side: a translation (su = sv) puts them all on side su; a
        # rotation about the midpoint m of p_i, p_j puts p_k on side
        # su * sign((p_i - p_j) . (p_k - m)), which is 0 at m.
        pi = blk // 4
        ls, col = np.unique(pair_line[pi], return_inverse=True)
        S = line_block(ls)[:, col]
        at, q = _gather(on_ptr, pair_line[pi])
        row = row_of[on_pt[q]]
        at, q, row = at[row >= 0], q[row >= 0], row[row >= 0]
        su, sv = sides[blk[at] % 4].T
        ti, tj = pair_t[pi[at]].T
        turn = np.sign(ti - tj) * np.sign(2 * on_t[q] - ti - tj)
        S[row, at] = np.where(su == sv, su, su * turn)
        return S

    def counts(S: np.ndarray) -> np.ndarray:
        """Unseparated pairs each column of signs S separates."""
        k = S.shape[1]
        n_cls = int(cls.max()) + 1
        key = (np.arange(k) * n_cls + cls[:, None]) * 3 + (S + 1)
        tal = np.bincount(key.ravel(), minlength=3 * n_cls * k).reshape(k, n_cls, 3)
        lo, on, hi = tal[:, :, 0], tal[:, :, 1], tal[:, :, 2]
        return (lo * hi if strict else lo * hi + on * (lo + hi)).sum(axis=1)

    # Seed bounds from kernel side counts, uncertain points counted as on
    # the line and resolved optimistically.
    below, on, above = _kernels.line_side_counts(A, B, C, xf, yf)
    if strict:
        bound = np.repeat((below + on) * (above + on), 4 * per_line)
    else:
        bound = below * above + on * (below + above) + on * (on - 1) // 2
    order = np.arange(len(bound))
    out: List[CanonicalLine] = []
    while len(pid):
        order = order[bound[order] > 0]
        order = order[np.argsort(order - bound[order] * len(bound), kind="stable")]
        step = max(1, _KERNEL_THRESHOLD // len(pid))
        best, win, win_signs = 0, -1, None
        pos = 0
        while pos < len(order) and (bound[order[pos]], -order[pos]) > (best, -win):
            blk = order[pos : pos + step]
            pos += len(blk)
            S = entry_block(blk)
            c = counts(S)
            bound[blk] = c
            k = np.lexsort((blk, -c))[0]
            if (c[k], -blk[k]) > (best, -win):
                best, win, win_signs = int(c[k]), int(blk[k]), S[:, k].copy()
        if best == 0:
            raise GeneralPositionError(
                "no candidate line separates some remaining pair "
                "(degenerate input)"
            )
        bound[win] = 0
        if strict:
            i, j = pairs[win // 4].tolist()
            out.append(realize_variant(P, i, j, *_STRICT_VARIANTS[win % 4]))
        else:
            out.append(lines[win])
        cls, (pid,) = _split(
            cls, win_signs > 0, win_signs >= 0, 2, SeparationMode.RELAXED, 1, pid
        )
        row_of = np.full(n, -1)
        row_of[pid] = np.arange(len(pid))
    _assert_separates(P, out, mode, "greedy_hitting_set")
    return out


# ---------------------------------------------------------------------------
# reweighting approximation


def _pair_hit_mask(P: PointSet, cand: CandidateLines, pair: PairId) -> np.ndarray:
    """Boolean mask over candidate lines that relaxed-hit the pair, exact."""
    idx = np.array(pair)
    A, B, C = cand.coeff_arrays()
    xf, yf = P.float_coords()
    s = settle(P, cand.lines, *_kernels.eval_signs(A, B, C, xf[idx], yf[idx]), idx)
    return s[0] != s[1]


def _prune_redundant(P: PointSet, lines: List[CanonicalLine]) -> List[CanonicalLine]:
    """Drop lines, first to last, whose removal keeps the set separating
    in relaxed mode, that is, keeps the points' exact sign rows distinct."""
    S = line_signs(P, lines)
    keep = np.ones(len(lines), dtype=bool)
    for i in range(len(lines)):
        keep[i] = False
        if not keep.any() or len({row.tobytes() for row in S[:, keep]}) < len(P):
            keep[i] = True
    return [l for l, k in zip(lines, keep) if k]


def reweight_approx(P: PointSet, seed: int = 0) -> SolveResult:
    """Multiplicative-weights epsilon-net solver (Relaxed mode).

    For a doubling guess k of the separability, starting at ceil(sqrt(n)):
    sample ceil(_C_NET * k * ln(k+2)) candidate lines by weight; on failure
    find an unseparated pair and, if the lines hitting it carry at most an
    eps = 1/(4k) fraction of the total weight, double their weights.
    Guesses exhaust after ceil(_ROUND_CONSTANT * k * ln(n+2)) rounds. A
    successful sample is pruned of redundant lines. If k exceeds n the
    solver falls back to the greedy baseline (flagged).
    """
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    cand = candidate_lines(P)
    m = len(cand)
    rng = np.random.default_rng(seed)
    k = math.isqrt(n - 1) + 1
    total_rounds = 0
    doublings = 0
    history: List[Tuple[int, int, bool]] = []
    pair_masks: Dict[PairId, np.ndarray] = {}
    while k <= n:
        ws = WeightState(m)
        eps = 1.0 / (4 * k)
        sample_size = math.ceil(_C_NET * k * math.log(k + 2))
        round_cap = math.ceil(_ROUND_CONSTANT * k * math.log(n + 2))
        for r in range(1, round_cap + 1):
            total_rounds += 1
            idx = np.unique(ws.sample(rng, sample_size))
            R = [cand.lines[i] for i in idx.tolist()]
            pair = find_unseparated_pair(P, R, SeparationMode.RELAXED)
            if pair is None:
                history.append((k, r, True))
                lines = _prune_redundant(P, R)
                if len(lines) < len(R):  # R itself was just verified
                    _assert_separates(P, lines, SeparationMode.RELAXED, "reweight_approx")
                return SolveResult(
                    lines=lines,
                    mode=SeparationMode.RELAXED,
                    algo="reweight",
                    rounds_used=total_rounds,
                    guess_history=history,
                    weight_doublings=doublings,
                )
            mask = pair_masks.get(pair)
            if mask is None:
                mask = _pair_hit_mask(P, cand, pair)
                pair_masks[pair] = mask
            if ws.masked_weight(mask) <= eps * ws.total_weight:
                ws.double(mask)
                doublings += 1
        history.append((k, round_cap, False))
        k *= 2
    return SolveResult(
        lines=greedy_hitting_set(P, SeparationMode.RELAXED),
        mode=SeparationMode.RELAXED,
        algo="reweight",
        rounds_used=total_rounds,
        guess_history=history,
        weight_doublings=doublings,
        fell_back=True,
    )


# ---------------------------------------------------------------------------
# halving construction


def _split_two_pairs(P: PointSet, p1: int, p2: int, q1: int, q2: int) -> CanonicalLine:
    """One line strictly crossing both segments p1p2 and q1q2 of P: the
    line through the midpoint of one pair and a point 1/k of the way along
    the other, for the first k = 2, ..., 11 that works, the midpoint taken
    on p1p2 first and on q1q2 if that fails. The first try fails only when
    the midpoint of p1p2 lies on the line q1q2; both fail only when the two
    midpoints coincide (no three of the points collinear), which halving's
    pairs, on opposite sides of its first line, never do."""
    xs, ys, d = P.int_coords()

    def crosses(a: int, b: int, c: int, i: int, j: int) -> bool:
        return sign(a * xs[i] + b * ys[i] + c * d) * sign(a * xs[j] + b * ys[j] + c * d) == -1

    for (i1, i2), (j1, j2) in (((p1, p2), (q1, q2)), ((q1, q2), (p1, p2))):
        for k in range(2, 12):
            # Both points over the common denominator 2 * k * D.
            mx, my = k * (xs[i1] + xs[i2]), k * (ys[i1] + ys[i2])
            nx = 2 * ((k - 1) * xs[j1] + xs[j2])
            ny = 2 * ((k - 1) * ys[j1] + ys[j2])
            if (mx, my) == (nx, ny):
                continue
            a, b, c = int_line_through(mx, my, nx, ny, 2 * k * d)
            if crosses(a, b, c, p1, p2) and crosses(a, b, c, q1, q2):
                return CanonicalLine(a, b, c)
    raise GeneralPositionError("could not split two pairs (degenerate input)")


def halving_separator(P: PointSet) -> List[CanonicalLine]:
    """Exactly ceil(n/2) lines strictly separating P (general position).

    Vertical split into ceil(n/2)/floor(n/2); while the right part has at
    least 3 points, one line cuts two points off each part (found by
    enumerating two-point lines and their sidedness variants) and a second
    line splits the two removed pairs; terminal sizes (3,2), (2,2), (2,1),
    (1,1), (1,0) are handled directly.
    """
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    if not P.general_position:
        raise GeneralPositionError("halving_separator requires no 3 collinear points")
    first, active_L, active_R = split_line(P, range(n), 0, (n + 1) // 2)
    lines = [first]
    left = set(active_L)
    active_L.sort()
    active_R.sort()
    xs, ys, d = P.int_coords()

    def side_of(a: int, b: int, c: int, w: int) -> int:
        return sign(a * xs[w] + b * ys[w] + c * d)

    def cut_two_and_two() -> Tuple[List[int], List[int], CanonicalLine]:
        active = active_L + active_R
        sub = PointSet([P[w] for w in active])
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                u, v = active[ii], active[jj]
                # The base line realize_variant perturbs, with its orientation.
                a, b, c = int_line_through(xs[u], ys[u], xs[v], ys[v], d)
                lpos = lneg = rpos = rneg = 0
                for w in active:
                    s = side_of(a, b, c, w)
                    if w in left:
                        lpos += s > 0
                        lneg += s < 0
                    else:
                        rpos += s > 0
                        rneg += s < 0
                for su, sv in _STRICT_VARIANTS:
                    lp = lpos + (u in left and su > 0) + (v in left and sv > 0)
                    ln = lneg + (u in left and su < 0) + (v in left and sv < 0)
                    rp = rpos + (u not in left and su > 0) + (v not in left and sv > 0)
                    rn = rneg + (u not in left and su < 0) + (v not in left and sv < 0)
                    if 2 not in (lp, ln) or 2 not in (rp, rn):
                        continue
                    line = realize_variant(sub, ii, jj, su, sv)
                    # Canonicalization may flip orientation relative to the
                    # quick count above; derive the cut sets from the
                    # realized sides directly.
                    sides = {w: side_of(*line.coeffs(), w) for w in active}
                    for lside in (1, -1):
                        cutL = [w for w in active_L if sides[w] == lside]
                        if len(cutL) != 2:
                            continue
                        for rside in (1, -1):
                            cutR = [w for w in active_R if sides[w] == rside]
                            if len(cutR) == 2:
                                return cutL, cutR, line
        raise GeneralPositionError("no 2+2 cutting line found (degenerate input)")

    while len(active_R) >= 3:
        cutL, cutR, line = cut_two_and_two()
        lines.append(line)
        lines.append(_split_two_pairs(P, *cutL, *cutR))
        active_L = [w for w in active_L if w not in cutL]
        active_R = [w for w in active_R if w not in cutR]

    nl, nr = len(active_L), len(active_R)
    if (nl, nr) == (3, 2):
        u, v, w = active_L
        # The line through u and v moved halfway toward w.
        a, b, c = int_line_through(xs[u], ys[u], xs[v], ys[v], d)
        shift = a * xs[w] + b * ys[w] + c * d
        lines.append(CanonicalLine.from_ints(2 * d * a, 2 * d * b, 2 * d * c - shift))
        lines.append(_split_two_pairs(P, u, v, *active_R))
    elif (nl, nr) == (2, 2):
        lines.append(_split_two_pairs(P, *active_L, *active_R))
    elif (nl, nr) == (2, 1) or (nl, nr) == (2, 0):
        lines.append(_perp_bisector(P, active_L[0], active_L[1]))

    expected = (n + 1) // 2
    if len(lines) != expected:
        raise SolverError(
            f"halving produced {len(lines)} lines, expected {expected} (internal bug)"
        )
    _assert_separates(P, lines, SeparationMode.STRICT, "halving_separator")
    return lines


# ---------------------------------------------------------------------------
# grid separator


def grid_lines(P: PointSet, N: int) -> List[CanonicalLine]:
    """The 2(N-1) lines x = i/N and y = i/N of the N x N grid on the unit
    square, after checking that P lies in the closed unit square."""
    xs, ys, d = P.int_coords()
    if len(P) and (min(min(xs), min(ys)) < 0 or max(max(xs), max(ys)) > d):
        raise PreconditionError("grid requires points in the unit square")
    lines = [CanonicalLine.from_ints(N, 0, -i) for i in range(1, N)]
    return lines + [CanonicalLine.from_ints(0, N, -i) for i in range(1, N)]


def grid_separator(P: PointSet, N: int) -> List[CanonicalLine]:
    """The 2(N-1) grid lines x=i/N, y=i/N plus per-cell separators: the
    perpendicular bisector for cells with 2 points, recursive halving for
    more. Points exactly on a grid line are assigned to the lower cell
    (flagged via a warning); any strictness lost that way is repaired by
    explicit bisector fix-ups."""
    n = len(P)
    if N < 1:
        raise PreconditionError(f"grid size N must be positive, got {N}")
    lines = grid_lines(P, N)
    xs, ys, d = P.int_coords()
    cells: Dict[Tuple[int, int], List[int]] = {}
    flagged = 0

    def cell_coord(num: int) -> Tuple[int, bool]:
        c, rem = divmod(num * N, d)
        if rem == 0 and 0 < c < N:
            return c - 1, True  # exactly on grid line: lower cell
        if c == N:  # coordinate exactly 1
            return N - 1, False
        return c, False

    for i in range(n):
        cx, fx = cell_coord(xs[i])
        cy, fy = cell_coord(ys[i])
        flagged += fx or fy
        cells.setdefault((cx, cy), []).append(i)
    if flagged:
        warnings.warn(
            f"{flagged} point(s) exactly on grid lines assigned to the lower cell",
            stacklevel=2,
        )
    for key in sorted(cells):
        idxs = cells[key]
        if len(idxs) == 2:
            lines.append(_perp_bisector(P, *idxs))
        elif len(idxs) > 2:
            lines.extend(halving_separator(PointSet([P[i] for i in idxs])))
    # On-gridline points can straddle a cell boundary without a strict
    # separator; patch any such pair directly.
    guard = 0
    while True:
        pair = find_unseparated_pair(P, lines, SeparationMode.STRICT)
        if pair is None:
            break
        lines.append(_perp_bisector(P, *pair))
        guard += 1
        if guard > n:
            raise SolverError("grid_separator fix-up did not converge (internal bug)")
    return lines


# ---------------------------------------------------------------------------
# the entry point


def solve(
    P: PointSet, algo: str = "auto", mode: SeparationMode = SeparationMode.STRICT, seed: int = 0
) -> SolveResult:
    """Separate P with one of the ALGOS. ``auto`` is exact up to
    EXACT_SIZE_CAP points and greedy above; halving and grid separate
    strictly only; grid uses N = ceil(n^(2/3)); reweight separates in
    relaxed mode and is properized for strict mode. Each solver verifies
    its own output, and properize's output is verified here, so every
    result is checked exactly once."""
    n = len(P)
    if algo not in ALGOS:
        raise PreconditionError(f"unknown algorithm {algo!r}; choose from {ALGOS}")
    if n < 2:
        raise TooFewPointsError("solve needs at least 2 points")
    if algo == "auto":
        algo = "exact" if n <= EXACT_SIZE_CAP else "greedy"
    if algo in ("halving", "grid") and mode is not SeparationMode.STRICT:
        raise PreconditionError(f"{algo} produces Strict separators; use strict mode")
    if algo == "exact":
        sigma, lines = exact_separability(P, mode)
        return SolveResult(lines, mode, algo, sigma=sigma)
    if algo == "greedy":
        return SolveResult(greedy_hitting_set(P, mode), mode, algo)
    if algo == "halving":
        return SolveResult(halving_separator(P), mode, algo)
    if algo == "grid":
        return SolveResult(grid_separator(P, math.ceil(n ** (2 / 3))), mode, algo)
    res = reweight_approx(P, seed)
    if mode is SeparationMode.STRICT:
        lines = properize(res.lines, P)
        _assert_separates(P, lines, mode, "properize")
        res = replace(res, lines=lines, mode=mode)
    return res
