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
    key_groups,
    line_signs,
    properize,
    rotate_line,
    sign_keys,
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
_STRICT_SIGNS = np.array(_STRICT_VARIANTS, dtype=np.int8)


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
    """Per-candidate-line weights 2^(times doubled), kept as scaled float64.

    All weights carry an implicit factor 2^rescale_exponent; probabilities
    are weight ratios so rescaling never changes them. ``total_weight`` is
    the full sum, taken afresh whenever the weights change.
    A ``mask`` argument selects lines: a boolean mask or an index array.
    The normalized cdf is rebuilt only when the weights change, so that
    ``sample`` costs one search per draw and no m-long temporaries.
    """

    RESCALE_LIMIT = 2.0 ** 512

    def __init__(self, m: int):
        self.weights = np.ones(m, dtype=np.float64)
        self.rescale_exponent = 0
        self._rebuild_cdf()

    def _rebuild_cdf(self) -> None:
        # The cdf rng.choice(m, p=p) builds, with p = weights / weights.sum().
        self.total_weight = float(self.weights.sum())
        self.cdf = (self.weights / self.total_weight).cumsum()
        self.cdf /= self.cdf[-1]

    def masked_weight(self, mask: np.ndarray) -> float:
        return float(self.weights[mask].sum())

    def double(self, mask: np.ndarray) -> None:
        self.weights[mask] *= 2.0
        self._rebuild_cdf()
        if self.total_weight > self.RESCALE_LIMIT:
            self.weights *= 2.0 ** -512
            self.rescale_exponent += 512
            self._rebuild_cdf()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The indices rng.choice(m, size, p=weights / weights.sum()) draws."""
        return self.cdf.searchsorted(rng.random(size), side="right")


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


def variant_signs(
    cand: CandidateLines, ls: np.ndarray, i: np.ndarray, j: np.ndarray,
    su: np.ndarray, sv: np.ndarray, pts: np.ndarray,
) -> np.ndarray:
    """Exact signs at the points ``pts`` (distinct, in any order) of the
    (su[e], sv[e]) variant of candidate line ls[e] through its incident
    pair (i[e], j[e]), an int8 array of shape (points, entries), without
    building the lines. They are on the base line's orientation: a
    realized line that canonicalization flips has all of them negated.

    Off the base line every point keeps its sign; points i and j get su
    and sv. Any other point p_k on it (only a line through three or more
    points has one) gets sign(su * (p_k - p_j) . g + sv * (p_i - p_k) . g),
    g = p_i - p_j, in integers: su for a translation (su = sv), and for
    the midpoint rotation (su = -sv) su on p_i's half and sv on p_j's."""
    lines, col = np.unique(ls, return_inverse=True)
    S = cand.signs(lines, pts)[:, col]
    row_of = np.full(len(cand.P), -1)  # point -> row of S, or -1
    row_of[pts] = np.arange(len(pts))
    for V, s in ((i, su), (j, sv)):
        row = row_of[V]
        has = np.flatnonzero(row >= 0)
        S[row[has], has] = s[has]
    if cand.groups:
        # Exact signs are 0 only on the base line; at i and j the formula
        # gives su and sv, so a zero set there is kept.
        grouped = np.flatnonzero(np.isin(ls, list(cand.groups)))
        rows, at = np.nonzero(S[:, grouped] == 0)
        e = grouped[at]
        xs, ys, _ = cand.P.int_coords()
        S[rows, e] = [
            sign(
                s * ((xs[k] - xs[q]) * (xs[p] - xs[q]) + (ys[k] - ys[q]) * (ys[p] - ys[q]))
                + t * ((xs[p] - xs[k]) * (xs[p] - xs[q]) + (ys[p] - ys[k]) * (ys[p] - ys[q]))
            )
            for k, p, q, s, t in zip(
                pts[rows].tolist(), i[e].tolist(), j[e].tolist(), su[e].tolist(), sv[e].tolist()
            )
        ]
    return S


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


def _bits(M: np.ndarray) -> List[int]:
    """Each row of the bool matrix M as an int, with bit k for column k."""
    packed = np.packbits(M, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _exact_pool(P: PointSet, mode: SeparationMode) -> Tuple[List[CanonicalLine], np.ndarray]:
    """Realized variant lines, deduplicated by the pairs they separate and
    dominance-filtered. Returns (lines, H): the kept lines in coefficient
    order, and the bool matrix H of pairs (in P.pairs() order) x kept
    lines, H[k, e] iff line e separates pair k."""
    pairs = P.pairs()
    variants = _STRICT_VARIANTS if mode is SeparationMode.STRICT else _RELAXED_VARIANTS
    pool = [realize_variant(P, i, j, su, sv) for i, j in pairs for su, sv in variants]
    S = line_signs(P, pool)
    I, J = np.array(pairs).T
    hit = S[I] * S[J] == -1 if mode is SeparationMode.STRICT else S[I] != S[J]
    masks = _bits(hit.T)
    # The first line in coefficient order of each distinct nonzero mask.
    first: Dict[int, int] = {}
    for e in sorted(range(len(pool)), key=lambda e: pool[e].coeffs()):
        if masks[e]:
            first.setdefault(masks[e], e)
    ids = np.array(list(first.values()), dtype=np.int64)
    # Dominance: drop lines whose coverage is a strict subset of another's,
    # that is, which share all their pairs with a line hitting more.
    H = hit[:, ids]
    F = H.astype(np.float32)
    size = F.sum(axis=0)
    dominated = ((F.T @ F == size[:, None]) & (size > size[:, None])).any(axis=1)
    return [pool[e] for e in ids[~dominated].tolist()], H[:, ~dominated]


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
    lines, H = _exact_pool(P, mode)
    if not H.any(axis=1).all():
        raise GeneralPositionError(
            "some point pair cannot be separated by any candidate line "
            "(degenerate input)"
        )
    full = (1 << len(H)) - 1
    masks = _bits(H.T)
    # Bit e of cover_bits[k] is set iff entry e covers pair k, bit k of inc[i] iff i is in pair k.
    cover = [np.flatnonzero(row).tolist() for row in H]
    cover_bits = _bits(H)
    I, J = np.triu_indices(n, 1)
    points = np.arange(n)[:, None]
    inc = _bits((I == points) | (J == points))
    # Upper bound: greedy over the pool.
    ub_witness: List[int] = []
    covered = 0
    while covered != full:
        best = max(
            range(len(masks)), key=lambda ei: ((masks[ei] & ~covered).bit_count(), -ei)
        )
        if masks[best] & ~covered == 0:
            raise SolverError("greedy upper bound stalled (internal bug)")
        ub_witness.append(best)
        covered |= masks[best]
    ub = len(ub_witness)

    pair_order = sorted(range(len(H)), key=lambda k: len(cover[k]))

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
        open_ = ~covered
        # In general position the points not yet separated from each
        # other fall into classes, and a point's class is itself plus
        # the partners of its open pairs. On degenerate input this is at
        # most the size of the point's connected component.
        if 1 + max((row & open_).bit_count() for row in inc) > _capacity(budget, mode):
            memo[covered] = budget
            return False
        if disjoint_lb(covered) > budget:
            memo[covered] = budget
            return False
        # Branch on the open pair with the fewest covering entries.
        target = next(k for k in pair_order if open_ >> k & 1)
        options = sorted(cover[target], key=lambda ei: -(masks[ei] & open_).bit_count())
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
            witness = [lines[ei] for ei in chosen]
            _assert_separates(P, witness, mode, "exact_separability")
            return t, witness
    witness = [lines[ei] for ei in ub_witness]
    _assert_separates(P, witness, mode, "exact_separability")
    return ub, witness


# ---------------------------------------------------------------------------
# greedy (batched lazy evaluation over point classes)


def _class_indicator(cls: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The float32 one-hot matrix (classes, points) of the compact class
    labels ``cls``, and the class sizes."""
    size = np.bincount(cls)
    M = np.zeros((len(size), len(cls)), dtype=np.float32)
    M[cls, np.arange(len(cls))] = 1
    return M, size


def _class_tally(M: np.ndarray, size: np.ndarray, S: np.ndarray, strict: bool) -> np.ndarray:
    """Unseparated pairs each column of the exact signs S (points,
    entries) separates, for the classes of the one-hot ``M``
    (:func:`_class_indicator`). Per class, s = hi - lo and a = hi + lo
    give lo * hi = (a^2 - s^2) / 4; relaxed mode adds on * (lo + hi) =
    (size - a) * a, the pairs with one point on the line. Both are
    summed over the classes."""
    # Every term of both products is 0 or +-1, so every partial sum is an
    # integer of magnitude at most the number of points, below 2^24: the
    # float32 sums are exact whatever the summation order, fused
    # multiply-adds or BLAS thread count.
    F = S.astype(np.float32)
    s = (M @ F).astype(np.int64)
    a = (M @ np.abs(F, out=F)).astype(np.int64)
    aa = np.einsum("ck,ck->k", a, a)
    c = (aa - np.einsum("ck,ck->k", s, s)) // 4
    if not strict:
        c += size @ a - aa
    return c


def _across_one_line(P: PointSet, cand: CandidateLines) -> List[CanonicalLine]:
    """Relaxed separators of points that all lie on the one line of
    ``cand``: the lines perpendicular to it through the 2nd, 4th, ...
    point along it. Each puts its own point on itself and that point's
    neighbours on opposite sides, so these floor(n/2) lines separate every
    gap between neighbours; a line other than the common one meets it at
    most once, so no fewer lines can."""
    xs, ys, d = P.int_coords()
    i, j = int(cand.I[0]), int(cand.J[0])
    gx, gy = xs[j] - xs[i], ys[j] - ys[i]
    key = [gx * x + gy * y for x, y in zip(xs, ys)]  # exact position along the line
    along = sorted(range(len(key)), key=key.__getitem__)
    return [CanonicalLine.from_ints(gx * d, gy * d, -key[k]) for k in along[1::2]]


def greedy_hitting_set(P: PointSet, mode: SeparationMode) -> List[CanonicalLine]:
    """Greedy baseline: repeatedly add the line separating the most
    currently-unseparated pairs (ties by canonical line order, then
    variant). Relaxed mode selects among the candidate lines themselves;
    strict mode selects among their four perturbed variants (candidate
    lines pass through two points and never strictly separate them), and
    so does relaxed mode on two points. Relaxed mode on three or more
    points of one line takes ``_across_one_line``, the optimum.

    Batched lazy greedy (Minoux 1978): a count only falls as the classes
    of unseparated points refine, so a stale count bounds the current one.
    Every bound starts at C(n, 2), so the first round counts every entry.
    Each round walks the entries by (stale bound, tie rank) a block at a
    time, taking a block's exact signs at the live points (those in a
    class of two or more) from ``CandidateLines.signs``, or
    ``variant_signs`` in strict mode, and its counts from one tally, and
    stops once the best exact count beats the next stale bound."""
    n = len(P)
    if n < 2:
        raise TooFewPointsError(f"need at least 2 points, got {n}")
    cand = candidate_lines(P)
    if mode is SeparationMode.RELAXED and len(cand) == 1 and n > 2:
        out = _across_one_line(P, cand)
        _assert_separates(P, out, mode, "greedy_hitting_set")
        return out
    # Two points: their line separates nothing, so even relaxed mode picks
    # among its variants, each of which separates strictly.
    strict = mode is SeparationMode.STRICT or len(cand) == 1
    # Lines in tie order (canonical coefficients): line l is candidate
    # rank[l]. An entry's id is its tie rank: entry l is line l in relaxed
    # mode; in strict mode entry e is variant e % 4 of pair e // 4, the
    # incident pairs sorted by their line's tie rank, then in pair order.
    rank = cand.coeff_order()
    m = len(rank)
    if strict:
        pair_line, I, J = cand.incidences()
        srt = np.lexsort((J, I, np.argsort(rank)[pair_line]))
        pair_line, I, J = pair_line[srt], I[srt], J[srt]

    pid = np.arange(n)  # live points, ascending
    cls = np.zeros(n, dtype=np.int64)  # class of each live point

    def entry_block(blk: np.ndarray) -> np.ndarray:
        """Exact signs of the entries blk at the live points, (live, len(blk))."""
        if not strict:
            return cand.signs(rank[blk], pid)
        p, (su, sv) = blk // 4, _STRICT_SIGNS[blk % 4].T
        return variant_signs(cand, pair_line[p], I[p], J[p], su, sv, pid)

    bound = np.full(4 * len(I) if strict else m, n * (n - 1) // 2)
    order = np.arange(len(bound))
    out: List[CanonicalLine] = []
    while len(pid):
        M, size = _class_indicator(cls)
        order = order[bound[order] > 0]
        order = order[np.argsort(order - bound[order] * len(bound), kind="stable")]
        step = max(1, _KERNEL_THRESHOLD // len(pid))
        best, win, win_signs = 0, -1, None
        pos = 0
        while pos < len(order) and (bound[order[pos]], -order[pos]) > (best, -win):
            blk = order[pos : pos + step]
            pos += len(blk)
            S = entry_block(blk)
            c = _class_tally(M, size, S, strict)
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
            i, j = int(I[win // 4]), int(J[win // 4])
            out.append(realize_variant(P, i, j, *_STRICT_VARIANTS[win % 4]))
        else:
            out.append(cand.lines(rank[[win]])[0])
        cls, (pid,) = _split(cls, win_signs > 0, win_signs >= 0, 2, SeparationMode.RELAXED, pid)
    _assert_separates(P, out, mode, "greedy_hitting_set")
    return out


# ---------------------------------------------------------------------------
# reweighting approximation


def _pair_hits(cand: CandidateLines, pair: PairId) -> np.ndarray:
    """The candidate lines that relaxed-hit the pair, ascending, exact."""
    S = cand.signs(slice(None), np.array(pair))
    return np.flatnonzero(S[0] != S[1])


def _prune_redundant(P: PointSet, lines: List[CanonicalLine]) -> List[CanonicalLine]:
    """Drop lines, first to last, whose removal keeps the set separating
    in relaxed mode, that is, keeps the points' exact sign rows distinct:
    their sign_keys, with the bits of the dropped lines masked off."""
    K = sign_keys(line_signs(P, lines))
    keep = np.ones(len(lines), dtype=bool)
    for i in range(len(lines)):
        keep[i] = False
        if not keep.any() or len(key_groups(K & np.tile(np.packbits(keep), 2))[0]) < len(P):
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
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    cand = candidate_lines(P)
    m = len(cand)
    rng = np.random.default_rng(seed)
    k = math.isqrt(n - 1) + 1
    total_rounds = 0
    doublings = 0
    history: List[Tuple[int, int, bool]] = []
    # The lines hitting each pair seen so far: an index array, a few
    # percent of the candidates, rather than a mask over all of them.
    pair_hits: Dict[PairId, np.ndarray] = {}
    while k <= n:
        ws = WeightState(m)
        eps = 1.0 / (4 * k)
        sample_size = math.ceil(_C_NET * k * math.log(k + 2))
        round_cap = math.ceil(_ROUND_CONSTANT * k * math.log(n + 2))
        for r in range(1, round_cap + 1):
            total_rounds += 1
            idx = np.unique(ws.sample(rng, sample_size))
            R = cand.lines(idx)
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
            hit = pair_hits.get(pair)
            if hit is None:
                hit = pair_hits[pair] = _pair_hits(cand, pair)
            if ws.masked_weight(hit) <= eps * ws.total_weight:
                ws.double(hit)
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
    cand = candidate_lines(P)
    if cand.groups:
        raise GeneralPositionError("halving_separator requires no 3 collinear points")
    first, active_L, active_R = split_line(P, range(n), 0, (n + 1) // 2)
    lines = [first]
    active_L.sort()
    active_R.sort()
    xs, ys, d = P.int_coords()

    def cut_two_and_two() -> Tuple[List[int], List[int], CanonicalLine]:
        """The first variant, in (pair, variant) order, of a line through
        two active points with exactly two points of each part on one side.
        In general position line k of P is its pair k, the (i, j), i < j,
        numbered in lexicographic order."""
        active = active_L + active_R
        pts = np.array(active)
        left = np.arange(len(active)) < len(active_L)
        A, B = np.triu_indices(len(active), 1)
        i, j = np.minimum(pts[A], pts[B]), np.maximum(pts[A], pts[B])
        pair_line = i * (2 * n - i - 1) // 2 + j - i - 1
        step = max(1, _KERNEL_THRESHOLD // len(active))
        for start in range(0, len(A), step):
            ents = np.arange(4 * start, 4 * min(start + step, len(A)))
            p, (su, sv) = ents // 4, _STRICT_SIGNS[ents % 4].T
            V = variant_signs(cand, pair_line[p], pts[A[p]], pts[B[p]], su, sv, pts)
            ok = np.ones(len(ents), dtype=bool)
            for part in (V[left], V[~left]):
                ok &= ((part > 0).sum(axis=0) == 2) | ((part < 0).sum(axis=0) == 2)
            if ok.any():
                e = int(ents[np.argmax(ok)])
                # The subset's points set the perturbation of the line.
                sub = P.subset(active)
                line = realize_variant(
                    sub, int(A[e // 4]), int(B[e // 4]), *_STRICT_VARIANTS[e % 4]
                )
                # Each part's two points on the + side of the realized
                # line, or else its two on the - side.
                s = line_signs(sub, [line])[:, 0]
                cutL, cutR = (
                    pts[part & (s == (1 if (s[part] > 0).sum() == 2 else -1))].tolist()
                    for part in (left, ~left)
                )
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


def grid_columns(V: Sequence[int], d: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """The column min(V * N // d, N - 1) of each cleared coordinate V/d in
    [0, 1] on the N x N grid, and whether V/d lies on an inner grid line
    i/N, 0 < i < N. In int64 when d * N < 2^63, so that every V * N fits,
    and in Python ints otherwise."""
    VN = np.asarray(V, dtype=np.int64 if d * N < 2 ** 63 else object) * N
    col = VN // d
    on_line = (VN % d == 0) & (0 < col) & (col < N)
    return np.minimum(col, N - 1).astype(np.int64), on_line


def cell_groups(cx: np.ndarray, cy: np.ndarray) -> List[List[int]]:
    """The ascending point indices of each grid cell (cx, cy) holding at
    least 2 points, in cell order (x column, then y row)."""
    order = np.lexsort((cy, cx))  # stable: ascending indices within a cell
    kx, ky = cx[order], cy[order]
    cuts = np.flatnonzero(np.r_[True, (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1]), True])
    return [order[cuts[k]:cuts[k + 1]].tolist() for k in np.flatnonzero(np.diff(cuts) >= 2)]


def grid_size(n: int, t: int = 1) -> int:
    """ceil(n^((t+1)/(2t+1))), the t-relaxed grid size; t = 1 gives ceil(n^(2/3))."""
    return math.ceil(n ** ((t + 1) / (2 * t + 1)))


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
    (cx, fx), (cy, fy) = grid_columns(xs, d, N), grid_columns(ys, d, N)
    flagged = np.count_nonzero(fx | fy)
    if flagged:
        warnings.warn(
            f"{flagged} point(s) exactly on grid lines assigned to the lower cell",
            stacklevel=2,
        )
    for idxs in cell_groups(cx - fx, cy - fy):
        if len(idxs) == 2:
            lines.append(_perp_bisector(P, *idxs))
        else:
            lines.extend(halving_separator(P.subset(idxs)))
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
    strictly only; grid uses N = grid_size(n); reweight separates in
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
        return SolveResult(grid_separator(P, grid_size(n)), mode, algo)
    res = reweight_approx(P, seed)
    if mode is SeparationMode.STRICT:
        lines = properize(res.lines, P)
        _assert_separates(P, lines, mode, "properize")
        res = replace(res, lines=lines, mode=mode)
    return res
