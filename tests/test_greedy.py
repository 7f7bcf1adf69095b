"""Differential check of `greedy_hitting_set` in both modes against a
naive reference greedy: every round, every entry's exact count over the
unseparated pairs, and the entry with the highest count and the lowest
tie rank wins. Seeded cases: general position, collinear grids (huge
coordinates too), and instances that take several kernel blocks. Also:
greedy's class tally against the bincount tally it replaced, and outputs
pinned at sizes the reference cannot reach quickly."""
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from seplines import solvers
from seplines.experiments import random_points
from seplines.geom import CanonicalLine, Point, int_line_through, sign
from seplines.sepsys import (
    GeneralPositionError,
    PointSet,
    SeparationMode,
    candidate_lines,
    line_signs,
)
from seplines.solvers import (
    _STRICT_VARIANTS,
    VerificationError,
    exact_separability,
    greedy_hitting_set,
    realize_variant,
    verify,
)

STRICT, RELAXED = SeparationMode.STRICT, SeparationMode.RELAXED


def reference_greedy(P, mode):
    """Greedy over realized entries, in tie order: the lines through point
    pairs by canonical coefficients (relaxed), and per line its pairs and
    the four variants of each (strict). The lines come from its own
    pair loop, not from `candidate_lines`."""
    n = len(P)
    if n == 2:
        return [realize_variant(P, 0, 1, -1, 1)]
    xs, ys, d = P.int_coords()
    by_line = {}
    for i in range(n):
        for j in range(i + 1, n):
            by_line.setdefault(int_line_through(xs[i], ys[i], xs[j], ys[j], d), []).append((i, j))
    by_coeffs = sorted(by_line.items())
    if mode is STRICT:
        entries = [
            realize_variant(P, i, j, su, sv)
            for _, prs in by_coeffs
            for i, j in prs
            for su, sv in _STRICT_VARIANTS
        ]
    else:
        entries = [CanonicalLine(*abc) for abc, _ in by_coeffs]
    rows = np.array(
        [[sign(l.a * x + l.b * y + l.c * d) for x, y in zip(xs, ys)] for l in entries],
        dtype=np.int8,
    )
    ia, ib = np.triu_indices(n, 1)
    cls = np.zeros(n, dtype=np.int64)
    out = []
    while True:
        open_ = cls[ia] == cls[ib]
        if not open_.any():
            break
        a, b = ia[open_], ib[open_]
        count = np.concatenate([
            (
                (r[:, a] * r[:, b] == -1) if mode is STRICT else (r[:, a] != r[:, b])
            ).sum(axis=1)
            for r in np.array_split(rows, max(1, len(rows) // 256))
        ])
        e = int(np.argmax(count))  # the first maximum: the lowest tie rank
        if count[e] == 0:
            raise GeneralPositionError("stalled")
        out.append(entries[e])
        _, cls = np.unique(cls * 3 + rows[e] + 1, return_inverse=True)
    if not verify(P, out, mode):
        raise VerificationError("reference output does not separate")
    return out


def outcome(fn, P, mode):
    try:
        return fn(P, mode)
    except (GeneralPositionError, VerificationError) as e:
        return type(e).__name__


def general_position(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(10 ** 6), rng.randrange(10 ** 6)))
    return PointSet([Point(Fraction(x), Fraction(y)) for x, y in sorted(pts)])


def collinear_grid(rng, scale=1):
    g = rng.choice([3, 4, 5, 8])
    cells = [(x, y) for x in range(g) for y in range(g)]
    pts = rng.sample(cells, min(rng.randint(3, 20), len(cells)))
    return PointSet([Point(Fraction(x * scale), Fraction(y * scale)) for x, y in pts])


def near_lines(rng, n):
    """General-position points plus, for a few pairs p, q, the point
    2q - p moved up by 2^-50: off line pq by far less than the kernel's
    error bound, so its entry for that line is uncertain."""
    base = list(general_position(rng, n))
    pts = set(base)
    for _ in range(4):
        p, q = rng.sample(base, 2)
        pts.add(Point(2 * q.x - p.x, 2 * q.y - p.y + Fraction(1, 2 ** 50)))
    return PointSet(sorted(pts, key=lambda p: (p.x, p.y)))


def cases():
    rng = random.Random(20261018)
    out = [("gp", general_position(rng, rng.randint(3, 24))) for _ in range(12)]
    out += [("grid", collinear_grid(rng)) for _ in range(30)]
    out += [("huge-grid", collinear_grid(rng, scale=10 ** 25)) for _ in range(4)]
    return out


@pytest.mark.parametrize("mode", [RELAXED, STRICT], ids=["relaxed", "strict"])
def test_greedy_matches_reference(mode, monkeypatch):
    """Each case runs twice: with the default kernel threshold, and with
    one so small that every round walks many blocks of a few entries."""
    seen = set()
    for kind, P in cases():
        want = outcome(reference_greedy, P, mode)
        assert outcome(greedy_hitting_set, P, mode) == want, (kind, list(P))
        with monkeypatch.context() as m:
            m.setattr(solvers, "_KERNEL_THRESHOLD", 4 * len(P))
            assert outcome(greedy_hitting_set, P, mode) == want, (kind, list(P))
        seen.add(want if isinstance(want, str) else "ok")
    assert "ok" in seen


@pytest.mark.parametrize("mode, n", [(RELAXED, 110), (STRICT, 64)], ids=["relaxed", "strict"])
def test_greedy_matches_reference_over_several_blocks(mode, n):
    """Large enough that the first round walks several blocks of
    _KERNEL_THRESHOLD // n entries."""
    P = general_position(random.Random(n), n)
    entries = len(candidate_lines(P)) * (4 if mode is STRICT else 1)
    assert entries > 2 * (solvers._KERNEL_THRESHOLD // n)
    assert greedy_hitting_set(P, mode) == reference_greedy(P, mode)


def test_strict_greedy_on_collinear_points():
    P = PointSet([Point(Fraction(k), Fraction(k)) for k in range(3)])
    lines = greedy_hitting_set(P, STRICT)
    assert verify(P, lines, STRICT)
    assert lines == reference_greedy(P, STRICT)


@pytest.mark.parametrize("mode", [RELAXED, STRICT], ids=["relaxed", "strict"])
def test_greedy_on_two_points_takes_the_opposite_sides_variant(mode):
    """Two points have one candidate line, so both modes take its first
    separating variant, (-1, 1)."""
    rng = random.Random(7)
    for scale in (1, 3 ** 20, 2 ** 70):
        for _ in range(8):
            pts = [Point(Fraction(rng.randint(-9, 9) * scale, rng.randint(1, 4)),
                         Fraction(rng.choice([0, rng.randint(-9, 9)]) * scale, rng.randint(1, 4)))
                   for _ in range(2)]
            if pts[0] == pts[1]:
                continue
            P = PointSet(pts)
            assert greedy_hitting_set(P, mode) == [realize_variant(P, 0, 1, -1, 1)], pts


def test_relaxed_greedy_on_points_of_one_line_is_optimal():
    """When all points lie on one line, relaxed greedy takes floor(n/2)
    lines across it, the relaxed optimum."""
    rng = random.Random(11)
    for n in (3, 4, 7, 16):
        for scale in (1, 2 ** 70):
            dx, dy = rng.choice([(1, 0), (0, 1), (2, -3), (5, 7)])
            ks = rng.sample(range(-20, 20), n)
            P = PointSet([Point(Fraction(k * dx * scale, 3), Fraction(k * dy * scale + 1, 2))
                          for k in ks])
            assert len(candidate_lines(P)) == 1
            lines = greedy_hitting_set(P, RELAXED)
            assert len(lines) == n // 2
            assert verify(P, lines, RELAXED)
            if n <= 11:
                assert exact_separability(P, RELAXED)[0] == n // 2


def bincount_tally(cls, S, strict):
    """The tally greedy used before the indicator products: one bincount
    over (entry, class, sign)."""
    k = S.shape[1]
    n_cls = int(cls.max()) + 1
    key = (np.arange(k) * n_cls + cls[:, None]) * 3 + (S + 1)
    tal = np.bincount(key.ravel(), minlength=3 * n_cls * k).reshape(k, n_cls, 3)
    lo, on, hi = tal[:, :, 0], tal[:, :, 1], tal[:, :, 2]
    return (lo * hi if strict else lo * hi + on * (lo + hi)).sum(axis=1)


def tally_blocks():
    """(name, class labels, signs) blocks: edge cases, then random blocks
    of greedy's shapes (_KERNEL_THRESHOLD // live entries at 192 and 96
    live points) with few to many classes."""
    rng = np.random.default_rng(20261019)

    def signs(rows, k):
        return rng.integers(-1, 2, size=(rows, k)).astype(np.int8)

    # One class of 4099 points: an all-+1 column sums to 4099, which a
    # float16 product cannot hold.
    one = signs(4099, 6)
    one[:, 0], one[:, 1] = 1, 0
    out = [("one-class", np.zeros(4099, dtype=np.int64), one)]
    out.append(("pairs", np.repeat(np.arange(50), 2), signs(100, 40)))
    zeros = signs(60, 30)
    zeros[:, ::3] = 0
    out.append(("zero-columns", np.arange(60) % 7, zeros))
    plus = signs(60, 30)
    plus[:, 1::3] = 1
    out.append(("plus-columns", np.arange(60) % 5, plus))
    for live, k in ((192, 1041), (96, 2083)):
        for n_cls in (1, 3, 20, live // 2):
            cls = np.concatenate([np.arange(n_cls), rng.integers(0, n_cls, live - n_cls)])
            out.append((f"{live}x{k}-{n_cls}", rng.permutation(cls), signs(live, k)))
    return out


@pytest.mark.parametrize("mode", [RELAXED, STRICT], ids=["relaxed", "strict"])
def test_class_tally_matches_bincount_tally(mode):
    strict = mode is STRICT
    for name, cls, S in tally_blocks():
        M, size = solvers._class_indicator(cls)
        got = solvers._class_tally(M, size, S, strict)
        assert got.dtype == np.int64, name
        assert (got == bincount_tally(cls, S, strict)).all(), name


@pytest.mark.parametrize(
    "mode, n, digest",
    [
        (RELAXED, 256, "9538675a2ccc1ce2197af061f00bcf16e636de0ba7a2c6cfd5dab25faaa55535"),
        (STRICT, 128, "57b5e6e104b0b686ee0a070b063224c007fa7cfad93d4ae86dbf3ac0344b03ba"),
    ],
    ids=["relaxed", "strict"],
)
def test_greedy_output_pinned_past_reference_sizes(mode, n, digest):
    """Sizes the naive reference greedy cannot reach quickly: late rounds
    tally many classes per block. Pins the sha256 of the lines, one
    "a b c" row each, recorded with the bincount tally."""
    lines = greedy_hitting_set(random_points(n, 44), mode)
    text = "".join("%d %d %d\n" % l.coeffs() for l in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
