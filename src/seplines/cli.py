"""Command line interface: solve, verify, study, partition.

Exit codes: 0 success; 1 verification answered "not separating";
2 unreadable input or unwritable output / parse error; 3 precondition
violation; 4 internal error (a failed self-check or any other exception).

Point files: one point per non-comment line, ``x y`` where each coordinate
is a decimal or ``p/q`` rational; ``#`` starts a comment. Line files: one
``a b c`` integer triple per row (canonical homogeneous coefficients).

All randomness flows from ``--seed``. Wall-clock fields are emitted only
under ``--timing`` so that default outputs are byte-identical across
re-runs. ``SEP_THREADS`` (0 = auto) controls trial parallelism in the
study commands; aggregation is order-independent.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .geom import CanonicalLine, Point
from .sepsys import (
    GeneralPositionError,
    PointSet,
    SeparationMode,
    TooFewPointsError,
    find_unseparated_pair,
    properize,
)
from .solvers import (
    EXACT_SIZE_CAP,
    SizeCapError,
    SolverConfig,
    VerificationError,
    _capacity,
    exact_separability,
    greedy_hitting_set,
    grid_separator,
    halving_separator,
    reweight_approx,
)
from . import experiments as ex
from . import partition2d as p2

EXIT_OK = 0
EXIT_NOT_SEPARATING = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class ParseFileError(ValueError):
    pass


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_point_file(path: str) -> PointSet:
    pts: List[Point] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                body = _strip(raw)
                if not body:
                    continue
                toks = body.split()
                if len(toks) != 2:
                    raise ParseFileError(
                        f"{path}:{lineno}: expected 'x y', got {len(toks)} fields"
                    )
                try:
                    x, y = Fraction(toks[0]), Fraction(toks[1])
                except (ValueError, ZeroDivisionError) as e:
                    raise ParseFileError(f"{path}:{lineno}: bad coordinate: {e}")
                pts.append(Point(x, y))
    except OSError as e:
        raise ParseFileError(f"cannot read {path}: {e}")
    try:
        return PointSet(pts)
    except ValueError as e:
        raise ParseFileError(f"{path}: {e}")


def parse_line_file(path: str) -> List[CanonicalLine]:
    lines: List[CanonicalLine] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                body = _strip(raw)
                if not body:
                    continue
                toks = body.split()
                if len(toks) != 3:
                    raise ParseFileError(
                        f"{path}:{lineno}: expected 'a b c', got {len(toks)} fields"
                    )
                try:
                    a, b, c = (int(t) for t in toks)
                except ValueError as e:
                    raise ParseFileError(f"{path}:{lineno}: bad coefficient: {e}")
                try:
                    lines.append(CanonicalLine.from_coeffs(a, b, c))
                except ValueError as e:
                    raise ParseFileError(f"{path}:{lineno}: invalid line: {e}")
    except OSError as e:
        raise ParseFileError(f"cannot read {path}: {e}")
    return lines


def format_lines(lines: Sequence[CanonicalLine]) -> str:
    return "".join(f"{l.a} {l.b} {l.c}\n" for l in lines)


def _mode(name: str) -> SeparationMode:
    return SeparationMode.STRICT if name == "strict" else SeparationMode.RELAXED


def _sigma_lower_bound(n: int, mode: SeparationMode) -> int:
    """Smallest t whose arrangement has at least n faces."""
    t = 0
    while _capacity(t, mode) < n:
        t += 1
    return t


def _threads() -> int:
    raw = os.environ.get("SEP_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        raise ParseFileError(f"SEP_THREADS must be an integer, got {raw!r}")
    if v < 0:
        raise ParseFileError("SEP_THREADS must be >= 0")
    return v if v > 0 else (os.cpu_count() or 1)


def _open_out(path: str, newline: Optional[str] = None):
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as e:
        raise ParseFileError(f"cannot write {path}: {e}")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    P = parse_point_file(args.input)
    n = len(P)
    if n < 2:
        raise TooFewPointsError("solve needs at least 2 points")
    mode = _mode(args.mode)
    algo = args.algo
    if algo == "auto":
        algo = "exact" if n <= EXACT_SIZE_CAP else "greedy"
    t0 = time.perf_counter()
    sigma: Optional[int] = None
    rounds: Optional[int] = None
    fell_back = False
    if algo == "exact":
        sigma, lines = exact_separability(P, mode)
    elif algo == "greedy":
        lines = greedy_hitting_set(P, mode)
    elif algo == "reweight":
        res = reweight_approx(P, SolverConfig(rng_seed=args.seed))
        rounds = res.rounds_used
        fell_back = res.fell_back
        lines = res.lines
        if mode is SeparationMode.STRICT:
            lines = properize(lines, P)
    elif algo == "halving":
        if mode is not SeparationMode.STRICT:
            raise SizeCapError("halving produces Strict separators; use --mode strict")
        lines = halving_separator(P)
    elif algo == "grid":
        if any(not (0 <= p.x <= 1 and 0 <= p.y <= 1) for p in P):
            raise SizeCapError("grid requires points in the unit square")
        if mode is not SeparationMode.STRICT:
            raise SizeCapError("grid produces Strict separators; use --mode strict")
        lines = grid_separator(P, math.ceil(n ** (2 / 3)))
    else:  # pragma: no cover - argparse restricts choices
        raise ParseFileError(f"unknown algo {algo}")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if find_unseparated_pair(P, lines, mode) is not None:
        raise VerificationError("solver output failed verification")
    if args.json:
        summary = {
            "algo": algo,
            "mode": args.mode,
            "n": n,
            "size": len(lines),
            "sigma": sigma,
            "sigma_lower_bound": _sigma_lower_bound(n, mode),
            "rounds": rounds,
            "fell_back": fell_back,
            "wall_time_ms": round(elapsed_ms, 3) if args.timing else None,
            "lines": [[str(l.a), str(l.b), str(l.c)] for l in lines],
        }
        _emit_json(summary)
    else:
        sys.stdout.write(format_lines(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    P = parse_point_file(args.points)
    lines = parse_line_file(args.lines)
    bad = find_unseparated_pair(P, lines, _mode(args.mode))
    if bad is None:
        print("separating")
        return EXIT_OK
    print(f"not separating: pair {bad[0]} {bad[1]}")
    return EXIT_NOT_SEPARATING


def _parse_n_list(raw: str) -> List[int]:
    try:
        out = [int(t) for t in raw.split(",") if t]
    except ValueError:
        raise ParseFileError(f"--n must be a comma-separated integer list, got {raw!r}")
    if not out:
        raise ParseFileError("--n list is empty")
    return out


def cmd_study(args) -> int:
    threads = _threads()
    if args.what == "scaling":
        tab = ex.scaling_study(
            _parse_n_list(args.n),
            trials=args.trials,
            seed=args.seed,
            timing=args.timing,
            threads=threads,
        )
    elif args.what == "trelax":
        tab = ex.trelax_study(
            _parse_n_list(args.n),
            t=args.t,
            trials=args.trials,
            seed=args.seed,
            threads=threads,
        )
    elif args.what == "balls-bins":
        rep = ex.heavy_ball_bounds_check(
            args.n_balls, args.n_bins, args.i, args.trials, args.seed
        )
        _emit_json(rep.as_dict())
        return EXIT_OK
    elif args.what == "birthday":
        rep = ex.birthday_max_check(args.n_balls, args.c, args.trials, args.seed)
        _emit_json(rep.as_dict())
        return EXIT_OK
    else:  # pragma: no cover
        raise ParseFileError(f"unknown study {args.what}")
    if args.csv:
        with _open_out(args.csv, newline="") as fh:
            tab.write_csv(fh)
    _emit_json(tab.summary())
    return EXIT_OK


def cmd_partition(args) -> int:
    if args.r < 1:
        raise ex.PreconditionError(f"--r must be at least 1, got {args.r}")
    P = parse_point_file(args.points)
    lines = parse_line_file(args.lines)
    part = p2.build_partition(
        P, lines, r=args.r, seed=args.seed, alpha=args.alpha, mode=_mode(args.mode)
    )
    doc = p2.partition_to_json(part)
    with _open_out(args.out) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _emit_json(
        {
            "triangles": len(part.triangles),
            "max_load": part.max_load(),
            "cap": math.ceil(len(P) / args.r),
            "conforming": part.conforming,
            "boundary_ties": part.boundary_ties,
            "attempts": part.attempts,
            "out": args.out,
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sep", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    so = sub.add_parser("solve", help="compute a separating line set")
    so.add_argument("--input", required=True)
    so.add_argument(
        "--algo",
        choices=["auto", "exact", "greedy", "reweight", "halving", "grid"],
        default="auto",
    )
    so.add_argument("--mode", choices=["strict", "relaxed"], default="strict")
    so.add_argument("--seed", type=int, default=0)
    so.add_argument("--json", action="store_true")
    so.add_argument("--timing", action="store_true")
    so.set_defaults(fn=cmd_solve)

    ve = sub.add_parser("verify", help="check that lines separate points")
    ve.add_argument("--points", required=True)
    ve.add_argument("--lines", required=True)
    ve.add_argument("--mode", choices=["strict", "relaxed"], default="strict")
    ve.set_defaults(fn=cmd_verify)

    st = sub.add_parser("study", help="run a seeded experiment")
    st.add_argument("what", choices=["scaling", "balls-bins", "birthday", "trelax"])
    st.add_argument("--n", help="comma-separated n list (scaling/trelax)")
    st.add_argument("--t", type=int, default=2, help="relaxation t (trelax)")
    st.add_argument("--n-balls", type=int, default=1000)
    st.add_argument("--n-bins", type=int, default=10 ** 6)
    st.add_argument("--i", type=int, default=2, choices=[2, 3, 4])
    st.add_argument("--c", type=float, default=1.0)
    st.add_argument("--trials", type=int, default=5)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--csv", help="CSV output path (scaling/trelax)")
    st.add_argument("--timing", action="store_true")
    st.set_defaults(fn=cmd_study)

    pa = sub.add_parser("partition", help="build an r-partition from separating lines")
    pa.add_argument("--points", required=True)
    pa.add_argument("--lines", required=True)
    pa.add_argument("--r", type=int, required=True)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--alpha", type=float, default=2.0)
    pa.add_argument("--mode", choices=["strict", "relaxed"], default="strict")
    pa.add_argument("--out", required=True)
    pa.set_defaults(fn=cmd_partition)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.fn is cmd_study and args.what in ("scaling", "trelax") and not args.n:
            raise ParseFileError(f"study {args.what} requires --n")
        return args.fn(args)
    except ParseFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (
        TooFewPointsError,
        SizeCapError,
        GeneralPositionError,
        ex.PreconditionError,
        p2.NotSeparatingError,
        p2.ArrangementCapError,
    ) as e:
        print(f"precondition: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as e:
        print(f"internal verification failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:
        import traceback  # only on this path: it adds to every start-up

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
