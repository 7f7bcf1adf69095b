"""Differential check of `greedy_hitting_set` in both modes against a
naive reference greedy: every round, every entry's exact count over the
unseparated pairs, and the entry with the highest count and the lowest
tie rank wins. Seeded cases: general position, collinear grids (huge
coordinates too), and instances that take several kernel blocks."""
import random
from fractions import Fraction

import numpy as np
import pytest

from seplines import solvers
from seplines.geom import Point, sign
from seplines.sepsys import (
    GeneralPositionError,
    PointSet,
    SeparationMode,
    candidate_lines,
)
from seplines.solvers import (
    _STRICT_VARIANTS,
    VerificationError,
    greedy_hitting_set,
    realize_variant,
    verify,
)

STRICT, RELAXED = SeparationMode.STRICT, SeparationMode.RELAXED


def reference_greedy(P, mode):
    """Greedy over realized entries, in tie order: candidate lines by
    canonical coefficients (relaxed), and per line its pairs and the four
    variants of each (strict)."""
    n = len(P)
    if n == 2:
        return [realize_variant(P, 0, 1, -1, 1)]
    cand = candidate_lines(P)
    by_coeffs = sorted(zip(cand.lines, cand.incident_pairs), key=lambda t: t[0].coeffs())
    if mode is STRICT:
        entries = [
            realize_variant(P, i, j, su, sv)
            for _, prs in by_coeffs
            for i, j in sorted(prs)
            for su, sv in _STRICT_VARIANTS
        ]
    else:
        entries = [line for line, _ in by_coeffs]
    xs, ys, d = P.int_coords()
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
