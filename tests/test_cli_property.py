"""Property tests of the CLI exit-code contract: on small degenerate
inputs every algorithm in both modes exits 0 (and its output verifies)
or 3, `sep verify` on fuzzed files exits 0 to 3, and `sep partition` on
fuzzed files and options and `sep study` on bad --n lists exit 0, 2 or 3,
all without a traceback."""
import contextlib
import io
import os
import tempfile
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from seplines.cli import EXIT_NOT_SEPARATING, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main
from seplines.solvers import ALGOS

# Points on the 5 x 5 grid of multiples of 1/3: collinear triples are
# common, and the last row and column lie outside the unit square.
point_lists = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8, unique=True
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(point_lists)
def test_every_solve_exits_0_or_3_and_verifies(cells):
    with tempfile.TemporaryDirectory() as tmp:
        pf, lf = os.path.join(tmp, "p.txt"), os.path.join(tmp, "l.txt")
        with open(pf, "w") as fh:
            fh.write("".join(f"{Fraction(x, 3)} {Fraction(y, 3)}\n" for x, y in cells))
        for algo in ALGOS:
            for mode in ("strict", "relaxed"):
                rc, out, err = _run(["solve", "--input", pf, "--algo", algo, "--mode", mode])
                assert rc in (EXIT_OK, EXIT_PRECONDITION), (algo, mode, err)
                assert "Traceback" not in err
                if rc == EXIT_PRECONDITION:
                    assert err.startswith("precondition:") and out == ""
                    continue
                with open(lf, "w") as fh:
                    fh.write(out)
                rc, out, _ = _run(["verify", "--points", pf, "--lines", lf, "--mode", mode])
                assert (rc, out) == (EXIT_OK, "separating\n"), (algo, mode)


# `sep verify` on hypothesis-built point and line files: valid rows on a
# small grid (duplicates, too few points, separating or not), with
# malformed, exponent and huge tokens and wrong field counts mixed in.
BAD_TOKENS = [
    "1e5000", "-1e-5000", "1e10000000", "0e99999999", "1e", "e3", "abc", "1/0", "1/2/3",
    "--1", "nan", "0x10", "1__0", "", "9" * 4301, f"1/{'7' * 4301}", "1e-4300",
]
GOOD_TOKENS = ["1e-3", "-2.5E+2", ".5", "7/3", "-0", "1_0", "\u0663", "9" * 4300, "1e4299"]
small = st.integers(-3, 3)
coords = st.one_of(
    small.map(str),
    st.builds(lambda p, q: f"{p}/{q}", small, st.integers(1, 3)),
    st.sampled_from(GOOD_TOKENS),
)


def _file(row, tokens):
    """Up to 7 valid rows, and half the time one more row among them with
    a token from ``tokens`` or a wrong number of fields."""
    odd = st.lists(
        st.one_of(st.sampled_from(tokens), row.map(lambda r: r.split()[0])), max_size=4
    ).map(" ".join)

    def spoil(rows):
        at = st.integers(0, len(rows))
        return st.one_of(st.just(rows), st.builds(lambda k, r: rows[:k] + [r] + rows[k:], at, odd))

    return st.lists(row, max_size=7).flatmap(spoil).map("\n".join)


point_files = _file(st.builds("{} {}".format, coords, coords), BAD_TOKENS)
line_files = _file(
    st.builds("{} {} {}".format, small, small, small),
    BAD_TOKENS + ["1.5", "1e3", "2/1", "1" * 4400],
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(point_files, line_files, st.sampled_from(["strict", "relaxed"]))
def test_verify_exit_codes_on_fuzzed_files(points, lines, mode):
    """Every verify run exits 0, 1, 2 or 3 and never prints a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        pf, lf = os.path.join(tmp, "p.txt"), os.path.join(tmp, "l.txt")
        with open(pf, "w", encoding="utf-8") as fh:
            fh.write(points)
        with open(lf, "w", encoding="utf-8") as fh:
            fh.write(lines)
        rc, out, err = _run(["verify", "--points", pf, "--lines", lf, "--mode", mode])
    event(f"exit {rc}")
    assert rc in (EXIT_OK, EXIT_NOT_SEPARATING, EXIT_PARSE, EXIT_PRECONDITION), (rc, err)
    assert "Traceback" not in err


def _run_args(argv):
    """_run, with argparse's rejection of an option value as its exit 2."""
    try:
        return _run(argv)
    except SystemExit as e:
        return e.code, "", ""


# Option values at 0, negative, non-finite, non-numeric and huge.
numbers = st.sampled_from(
    ["0", "-1", "-7", "nan", "inf", "-inf", "x", "1e300", "1e400", str(10 ** 30)]
)


@st.composite
def partition_options(draw):
    """--r, --alpha and --seed with valid values, or half the time one of
    them from ``numbers``."""
    opts = {
        "--r": str(draw(st.integers(1, 6))),
        "--alpha": draw(st.sampled_from(["0.5", "2", "3.5"])),
        "--seed": str(draw(st.integers(0, 3))),
    }
    bad = draw(st.sampled_from([None, None, None, "--r", "--alpha", "--seed"]))
    if bad:
        opts[bad] = draw(numbers)
    return [v for kv in opts.items() for v in kv]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(point_files, line_files, partition_options(), st.sampled_from(["strict", "relaxed"]))
def test_partition_exit_codes_on_fuzzed_files(points, lines, opts, mode):
    """Every partition run exits 0, 2 or 3 and never prints a traceback:
    only verify may exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        pf, lf = os.path.join(tmp, "p.txt"), os.path.join(tmp, "l.txt")
        with open(pf, "w", encoding="utf-8") as fh:
            fh.write(points)
        with open(lf, "w", encoding="utf-8") as fh:
            fh.write(lines)
        rc, _, err = _run_args(
            ["partition", "--points", pf, "--lines", lf, "--mode", mode,
             "--out", os.path.join(tmp, "part.json")] + opts
        )
    event(f"exit {rc}")
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION), (rc, err)
    assert "Traceback" not in err


# --n lists: valid ones, and ones with empty tokens, non-integers,
# entries <= 0, unsorted or repeated entries. Every valid entry is at most
# 64, so no study is large.
n_lists = st.one_of(
    st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True).map(sorted),
    st.lists(
        st.one_of(st.integers(-2, 64), st.sampled_from(["", " ", "x", "1.5", "2e1", "0x4", "--3"])),
        max_size=4,
    ),
).map(lambda ns: ",".join(map(str, ns)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(["scaling", "trelax"]), n_lists,
       st.one_of(st.integers(-2, 3).map(str), numbers))
def test_study_exit_codes_on_bad_n_lists(what, n_list, t):
    """Every scaling or trelax study exits 0, 2 or 3 and never prints a
    traceback."""
    rc, _, err = _run_args(["study", what, "--n", n_list, "--t", t, "--trials", "1"])
    event(f"exit {rc}")
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION), (rc, err)
    assert "Traceback" not in err
