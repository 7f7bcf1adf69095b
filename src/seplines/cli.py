"""Command line interface: solve, verify, study, partition.

Exit codes: 0 success; 1 verification answered "not separating";
2 unreadable input or unwritable output / parse error; 3 precondition
violation; 4 internal error (a failed self-check or any other exception).

Point files: one point per non-comment line, ``x y`` where each coordinate
is a decimal or ``p/q`` rational; ``#`` starts a comment. Line files: one
``a b c`` integer triple per row (canonical homogeneous coefficients).

All randomness flows from ``--seed``. Wall-clock fields are emitted only
under ``--timing`` so that default outputs are byte-identical across
re-runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .geom import CanonicalLine
from .sepsys import PointSet, PreconditionError, SeparationMode, find_unseparated_pair, int_str
from .solvers import ALGOS, VerificationError, sigma_lower_bound, solve
# Not called here: sepbench/test_layers.py checks that its tracer rebinds them in cli too.
from .solvers import grid_separator, halving_separator  # noqa: F401
from . import experiments as ex
from . import partition2d as p2

EXIT_OK = 0
EXIT_NOT_SEPARATING = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class ParseFileError(ValueError):
    pass


def _rows(path: str, fields: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, tokens) of each row of a table file, ``#`` comments
    stripped and blank rows skipped; a read error or a row without one
    token per name in ``fields`` raises ParseFileError. The parsers fall
    back to it for every file ``_columns`` does not take, so it alone
    builds their error messages."""
    want = len(fields.split())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                toks = raw.split("#", 1)[0].split()
                if not toks:
                    continue
                if len(toks) != want:
                    raise ParseFileError(
                        f"{path}:{lineno}: expected '{fields}', got {len(toks)} fields"
                    )
                yield lineno, toks
    except (OSError, UnicodeDecodeError) as e:
        raise ParseFileError(f"cannot read {path}: {e}")


# The one token grammar of both readers: an ASCII integer, in point files
# with an optional ASCII /denominator. A file with any other token goes to
# the row reader, which reads such a coordinate through Fraction(str).
_INT = r"[+-]?[0-9]+"
_RATIO = rf"({_INT})(?:/([0-9]+))?"
_INT_RATIO = re.compile(_RATIO)


def _row_pattern(tok: str, want: int) -> "re.Pattern[str]":
    """One row of a table file, from a line start through its newline (or
    the end of the text): ``want`` tokens ``tok`` or none, separated by
    spaces or tabs, then an optional ``#`` comment."""
    toks = "[ \t]+".join([tok] * want)
    return re.compile(rf"(?m)^[ \t]*(?:{toks}[ \t]*)?(?:#[^\n]*)?(?:\n|\Z)")


_POINT_ROW = _row_pattern(_RATIO, 2)
_LINE_ROW = _row_pattern(f"({_INT})", 3)


def _columns(path: str, row: "re.Pattern[str]") -> Optional[List[List[int]]]:
    """The integer columns of a table file, one per group of ``row`` (a
    group that took no text, an omitted denominator, reads 1), read in
    one pass over the whole text. None when ``row`` does not take every
    row, when a token has more digits than int() reads, or when the file
    cannot be read or decoded: the row reader then reads the file again."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    flat: List[int] = []
    toks: List[str] = []  # converted a few thousand at a time, to bound memory
    take = toks.extend
    end = 0
    try:
        for m in row.finditer(text):
            if m.start() != end:
                return None
            end = m.end()
            if m.lastindex:  # not a blank or comment row
                take(m.groups("1"))
                if len(toks) >= 4096:
                    flat += map(int, toks)
                    toks.clear()
        flat += map(int, toks)
    except ValueError:
        return None
    if end != len(text):
        return None
    return [flat[k :: row.groups] for k in range(row.groups)]


def _coord(tok: str) -> Tuple[int, int]:
    """(p, q) with q > 0 and p/q the token's value, not always in lowest
    terms; a bad token raises what Fraction(tok) raises. A decimal token
    w.f[e+-x] raises ValueError before Fraction expands its power of ten
    if its numerator or denominator before reduction would have more
    digits, leading zeros counted, than int() reads."""
    m = _INT_RATIO.fullmatch(tok)
    if m is None:
        mant, _, exp = tok.lower().partition("e")
        e = int(exp) if exp else 0
        w, f = (sum(c.isdecimal() for c in part) for part in mant.partition(".")[::2])
        limit = sys.get_int_max_str_digits()
        if "/" not in tok and 0 < limit < max(w + f + max(e, 0), f + max(-e, 0) + 1):
            raise ValueError(f"{tok[:40]!r} needs more than {limit} digits")
        return Fraction(tok).as_integer_ratio()
    p, q = m.groups()
    p, q = int(p), int(q) if q else 1
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return p, q


def parse_point_file(path: str) -> PointSet:
    cols = _columns(path, _POINT_ROW)
    if cols is None or 0 in cols[1] or 0 in cols[3]:  # row by row instead
        cols = [[], [], [], []]
        for lineno, (tx, ty) in _rows(path, "x y"):
            try:
                row = (*_coord(tx), *_coord(ty))
            except (ValueError, ZeroDivisionError) as e:
                raise ParseFileError(f"{path}:{lineno}: bad coordinate: {e}")
            for col, v in zip(cols, row):
                col.append(v)
    try:
        return PointSet.from_ratios(*cols)
    except ValueError as e:
        raise ParseFileError(f"{path}: {e}")


def parse_line_file(path: str) -> List[CanonicalLine]:
    cols = _columns(path, _LINE_ROW)
    if cols is not None:
        try:
            return [CanonicalLine.from_ints(*abc) for abc in zip(*cols)]
        except ValueError:
            pass  # a degenerate row: the row reader names it
    lines: List[CanonicalLine] = []
    for lineno, toks in _rows(path, "a b c"):
        try:
            a, b, c = (int(t) for t in toks)
        except ValueError as e:
            raise ParseFileError(f"{path}:{lineno}: bad coefficient: {e}")
        try:
            lines.append(CanonicalLine.from_ints(a, b, c))
        except ValueError as e:
            raise ParseFileError(f"{path}:{lineno}: invalid line: {e}")
    return lines


def format_lines(lines: Sequence[CanonicalLine]) -> str:
    return "".join(" ".join(map(int_str, l.coeffs())) + "\n" for l in lines)


def _mode(name: str) -> SeparationMode:
    return SeparationMode.STRICT if name == "strict" else SeparationMode.RELAXED


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
    t0 = time.perf_counter()
    res = solve(P, args.algo, _mode(args.mode), args.seed)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if args.json:
        summary = {
            "algo": res.algo,
            "mode": args.mode,
            "n": len(P),
            "size": len(res.lines),
            "sigma": res.sigma,
            "sigma_lower_bound": sigma_lower_bound(len(P), res.mode),
            "rounds": res.rounds_used,
            "fell_back": res.fell_back,
            "wall_time_ms": round(elapsed_ms, 3) if args.timing else None,
            "lines": [list(map(int_str, l.coeffs())) for l in res.lines],
        }
        _emit_json(summary)
    else:
        sys.stdout.write(format_lines(res.lines))
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
    if args.what == "scaling":
        tab = ex.scaling_study(_parse_n_list(args.n), args.trials, args.seed, args.timing)
    elif args.what == "trelax":
        tab = ex.trelax_study(_parse_n_list(args.n), args.t, args.trials, args.seed, args.timing)
    elif args.what == "balls-bins":
        rep = ex.heavy_ball_bounds_check(
            args.n_balls, args.n_bins, args.i, args.trials, args.seed
        )
        _emit_json(dataclasses.asdict(rep))
        return EXIT_OK
    else:
        rep = ex.birthday_max_check(args.n_balls, args.c, args.trials, args.seed)
        _emit_json(dataclasses.asdict(rep))
        return EXIT_OK
    if args.csv:
        with _open_out(args.csv, newline="") as fh:
            tab.write_csv(fh)
    _emit_json(tab.summary())
    return EXIT_OK


def cmd_partition(args) -> int:
    if args.r < 1:
        raise PreconditionError(f"--r must be at least 1, got {args.r}")
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
    so.add_argument("--algo", choices=ALGOS, default="auto")
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
    except PreconditionError as e:
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
