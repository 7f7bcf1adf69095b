import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seplines.cli import (
    EXIT_INTERNAL,
    EXIT_NOT_SEPARATING,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    ParseFileError,
    _coord,
    main,
    parse_line_file,
    parse_point_file,
)

SQUARE = "0 0\n1 0\n1 1\n0 1\n"


@pytest.fixture
def square_file(tmp_path):
    f = tmp_path / "square.txt"
    f.write_text(SQUARE)
    return str(f)


# ---------------------------------------------------------------------------
# file parsing


def test_point_file_formats(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("# header comment\n0.25 1/3\n\n 7/8\t0.5  # trailing\n")
    P = parse_point_file(str(f))
    assert len(P) == 2
    assert P[0].x.numerator == 1 and P[0].x.denominator == 4
    assert P[1].y.denominator == 2


def test_point_file_error_carries_line_number(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\nnot-a-number 3\n")
    with pytest.raises(ParseFileError, match=":2:"):
        parse_point_file(str(f))
    f.write_text("0 0 0\n")
    with pytest.raises(ParseFileError, match=":1:"):
        parse_point_file(str(f))


TOKENS = [
    "3/4", "-3/4", "+3/4", "7", "+7", "-0", "007/010", "12345678901234567890123/3",
    ".5", "5.", "1e-3", "-2.5E+2", "1_000", "1_0/3", "1__0", "\u0663", "\u0663/\u0664",
    "1/\u0664", "\U0001d7d9", "\u00bd", "3/-4", "3/+4", "0x10", "nan", "inf", "1/0",
    "-5/0", "0/0", "", "/4", "3/", "1/2/3", "--1", pytest.param("9" * 5000, id="5000-digits"),
]


def _value_or_error(fn, tok):
    try:
        return fn(tok)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


@pytest.mark.parametrize("tok", TOKENS)
def test_coordinate_token_matches_fraction(tok):
    """_coord returns (p, q) with the token's value, or raises what
    Fraction(tok) raises."""
    want = _value_or_error(Fraction, tok)
    got = _value_or_error(_coord, tok)
    if isinstance(want, Fraction):
        p, q = got
        assert type(p) is int and type(q) is int and q > 0
        assert Fraction(p, q) == want
    else:
        assert got is want


@pytest.mark.parametrize("tok", ["1/0", "3/-4", "3/+4", "0x10", "nan"])
def test_bad_coordinate_exits_2(tmp_path, capsys, tok):
    f = tmp_path / "p.txt"
    f.write_text(f"0 0\n1/2 {tok}\n")
    with pytest.raises(ParseFileError, match=":2: bad coordinate"):
        parse_point_file(str(f))
    lf = tmp_path / "l.txt"
    lf.write_text("1 0 0\n")
    assert main(["verify", "--points", str(f), "--lines", str(lf)]) == EXIT_PARSE


@pytest.mark.parametrize("tok", ["1e5000", "-1e-5000", "1e10000000", "0e10000000", "1e-4300"])
def test_exponent_token_past_digit_limit_exits_2_at_once(tmp_path, capsys, tok):
    """A short token whose power of ten would need more than 4300 digits
    is rejected before Fraction expands it."""
    f = tmp_path / "p.txt"
    f.write_text(f"0 0\n1/2 {tok}\n")
    lf = tmp_path / "l.txt"
    lf.write_text("1 0 0\n")
    t0 = time.perf_counter()
    assert main(["verify", "--points", str(f), "--lines", str(lf)]) == EXIT_PARSE
    assert time.perf_counter() - t0 < 1
    assert ":2: bad coordinate:" in capsys.readouterr().err


def test_exponent_tokens_within_digit_limit_parse(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text(f"1e-3 -2.5E+2\n1e4299 1e-4299\n{'1' * 4299}.5 0\n")
    P = parse_point_file(str(f))
    assert (P[0].x, P[0].y) == (Fraction(1, 1000), Fraction(-250))
    assert (P[1].x, P[1].y) == (Fraction(10 ** 4299), Fraction(1, 10 ** 4299))
    assert P[2].x == Fraction(int("1" * 4299 + "5"), 10)


def test_line_file_parsing(tmp_path):
    f = tmp_path / "l.txt"
    f.write_text("2 0 -1\n0 2 -1\n")
    lines = parse_line_file(str(f))
    assert [l.coeffs() for l in lines] == [(2, 0, -1), (0, 2, -1)]
    f.write_text("0 0 1\n")
    with pytest.raises(ParseFileError, match=":1:"):
        parse_line_file(str(f))
    f.write_text("1 0 0.5\n")
    with pytest.raises(ParseFileError, match=":1:"):
        parse_line_file(str(f))


LINE_FILE_ERRORS = {
    "field-count": (b"# header\n1 0 0  # x = 0\n2 0\n", "{}:3: expected 'a b c', got 2 fields"),
    "fraction": (b"1 0 0.5\n", "{}:1: bad coefficient: invalid literal for int() with base 10: '0.5'"),
    "degenerate": (b"0 0 1\n", "{}:1: invalid line: degenerate line: a = b = 0"),
    "missing": (None, "cannot read {0}: [Errno 2] No such file or directory: '{0}'"),
    "not-utf-8": (
        b"1 0 0\n\xff\n",
        "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte",
    ),
}


@pytest.mark.parametrize("name", sorted(LINE_FILE_ERRORS))
def test_line_file_error_messages(tmp_path, name):
    data, want = LINE_FILE_ERRORS[name]
    f = tmp_path / "l.txt"
    if data is not None:
        f.write_bytes(data)
    with pytest.raises(ParseFileError) as got:
        parse_line_file(str(f))
    assert str(got.value) == want.format(f)


# ---------------------------------------------------------------------------
# solve / verify


def test_solve_square_json(square_file, capsys):
    rc = main(["solve", "--input", square_file, "--algo", "exact", "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] == 2 and doc["size"] == 2
    assert doc["wall_time_ms"] is None  # timing opt-in


def test_solve_two_points_single_line(tmp_path, capsys):
    f = tmp_path / "two.txt"
    f.write_text("0 0\n1 1\n")
    rc = main(["solve", "--input", str(f), "--algo", "exact"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and len(out[0].split()) == 3


def test_solve_verify_roundtrip_all_algos(square_file, tmp_path, capsys):
    for algo in ("exact", "greedy", "reweight", "halving"):
        rc = main(["solve", "--input", square_file, "--algo", algo, "--seed", "1"])
        assert rc == EXIT_OK, algo
        lf = tmp_path / f"{algo}.lines"
        lf.write_text(capsys.readouterr().out)
        rc = main(["verify", "--points", square_file, "--lines", str(lf)])
        assert rc == EXIT_OK, algo
        capsys.readouterr()


def test_solve_relaxed_mode(square_file, capsys):
    rc = main(
        ["solve", "--input", square_file, "--algo", "reweight", "--mode", "relaxed"]
    )
    assert rc == EXIT_OK
    capsys.readouterr()


def test_verify_failure_reports_pair(square_file, tmp_path, capsys):
    lf = tmp_path / "one.lines"
    lf.write_text("2 0 -1\n")  # x = 1/2 leaves (0,3) and (1,2) unseparated
    rc = main(["verify", "--points", square_file, "--lines", str(lf)])
    assert rc == EXIT_NOT_SEPARATING
    assert "pair 0 3" in capsys.readouterr().out
    lf.write_text("")
    rc = main(["verify", "--points", square_file, "--lines", str(lf)])
    assert rc == EXIT_NOT_SEPARATING
    capsys.readouterr()


def _verify_rows(tmp_path, points, lines, n_points):
    pf, lf = tmp_path / f"p{n_points}.txt", tmp_path / "l.txt"
    pf.write_text("".join(points[:n_points]))
    lf.write_text("".join(f"{a} {b} {c}\n" for a, b, c in lines))
    rc = main(["verify", "--points", str(pf), "--lines", str(lf)])
    return rc, len(lines) * n_points


@pytest.mark.parametrize("n_points", [200, 1000])
def test_verify_400_digit_coefficient(tmp_path, capsys, n_points):
    # 10^400 x + y - 5.1 * 10^400 = 0 splits points 0..5 from 6.. where the
    # strip x = 5.5 is missing; points 100 and 101 share a strip. The float
    # filter cannot hold such a coefficient; 1000 x 248 entries is above
    # the size where verification used to switch to it.
    points = [f"{i} {i * i % 1009}\n" for i in range(1000)]
    big = 10 ** 400
    lines = [(2, 0, -(2 * k + 1)) for k in range(249) if k not in (5, 100)]
    lines.append((big, 1, -(5 * big + big // 10)))
    rc, entries = _verify_rows(tmp_path, points, lines, n_points)
    assert (entries > 200_000) == (n_points == 1000)
    assert rc == EXIT_NOT_SEPARATING
    assert capsys.readouterr().out == "not separating: pair 100 101\n"


@pytest.mark.parametrize("n_points", [200, 1000])
def test_verify_subnormal_coordinates(tmp_path, capsys, n_points):
    # The line 2^300 x - y = 0 separates points 0 and 1, but point 0's
    # x-coordinate is subnormal as a double and rounds far enough to put
    # the point on the wrong side; point 0 and point 2 = (1, 0) stay
    # together.
    y = f"132/{100 * 2 ** 770}"
    points = [f"4/{3 * 2 ** 1070} {y}\n", f"0 {y}\n"]
    points += [f"{k} 0\n" for k in range(1, 999)]
    lines = [(2 ** 300, -1, 0)] + [(2, 0, -(2 * k + 1)) for k in range(1, 249)]
    rc, entries = _verify_rows(tmp_path, points, lines, n_points)
    assert (entries > 200_000) == (n_points == 1000)
    assert rc == EXIT_NOT_SEPARATING
    assert capsys.readouterr().out == "not separating: pair 0 2\n"


def test_unreadable_input_exits_2(capsys):
    rc = main(["solve", "--input", "/definitely/not/here.txt"])
    assert rc == EXIT_PARSE
    capsys.readouterr()


def test_non_utf8_point_file_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"0 0\n1 \xff\n")
    rc = main(["solve", "--input", str(f)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"cannot read {f}: " in err and "Traceback" not in err


def test_non_utf8_line_file_exits_2(square_file, tmp_path, capsys):
    f = tmp_path / "bad.lines"
    f.write_bytes(b"2 0 -1\n\xff\n")
    rc = main(["verify", "--points", square_file, "--lines", str(f)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"cannot read {f}: " in err and "Traceback" not in err


def test_exact_cap_exits_3(tmp_path, capsys):
    f = tmp_path / "many.txt"
    f.write_text("".join(f"{i} {i * i}\n" for i in range(20)))
    rc = main(["solve", "--input", str(f), "--algo", "exact"])
    assert rc == EXIT_PRECONDITION
    capsys.readouterr()


# ---------------------------------------------------------------------------
# study


def test_study_scaling_writes_csv_and_summary(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    rc = main(
        ["study", "scaling", "--n", "64,128", "--trials", "2", "--seed", "1", "--csv", str(csv)]
    )
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "scaling" and doc["fitted_exponent"] is not None
    body = csv.read_text().splitlines()
    assert body[0] == "# schema=1"
    assert len(body) == 2 + 4


def test_study_single_n_null_exponent(tmp_path, capsys):
    rc = main(["study", "scaling", "--n", "64", "--trials", "2", "--seed", "1"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fitted_exponent"] is None


def test_study_byte_identical_rerun(tmp_path, capsys):
    args = ["study", "trelax", "--n", "64,128", "--t", "2", "--trials", "2", "--seed", "3"]
    c1 = tmp_path / "a.csv"
    c2 = tmp_path / "b.csv"
    assert main(args + ["--csv", str(c1)]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert main(args + ["--csv", str(c2)]) == EXIT_OK
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert c1.read_bytes() == c2.read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["scaling", "--n", "64,128,256"],
         "be03703464e68cf537c1deb69f47fc34654b72a23d95cae44b82f8d27f64b70c"),
        (["trelax", "--n", "256,512"],
         "a046e68cf2c64b51442f2aa5136b4e11e6d1723ba045098c7b6e32e27b2ce59e"),
    ],
    ids=["scaling", "trelax"],
)
def test_study_output_pinned(tmp_path, capsys, argv, digest):
    """sha256 of the summary JSON followed by the CSV, pinned so that a
    change to how trials are run cannot change what a study prints."""
    csv = tmp_path / "out.csv"
    rc = main(["study", *argv, "--trials", "2", "--seed", "5", "--csv", str(csv)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out + csv.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["scaling", "--n", "64,128,256", "--trials", "5", "--seed", "3"],
         "8f996496cea03ae23c9edf2af62a8aef85fcfc58f57a6cdb7489c4079373fb14"),
        (["trelax", "--n", "128,256", "--t", "3", "--trials", "3", "--seed", "2"],
         "7a569796d8d3e0789d8a50650d950ada0a6b585f3b7ff2405631e3979033f57d"),
    ],
    ids=["scaling", "trelax"],
)
def test_study_output_pinned_over_more_trials(tmp_path, capsys, argv, digest):
    """As above, with more than two trials per n, so that the pinned
    summary includes a ddof=1 spread over more than two sizes."""
    csv = tmp_path / "out.csv"
    assert main(["study", *argv, "--csv", str(csv)]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out + csv.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("what", ["scaling", "trelax"])
def test_study_timing_fills_wall_time(tmp_path, capsys, what):
    csv = tmp_path / "out.csv"
    argv = ["study", what, "--n", "64,128", "--trials", "2", "--timing", "--csv", str(csv)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    rows = csv.read_text().splitlines()[1:]
    col = rows[0].split(",").index("wall_time_ms")
    assert len(rows) == 1 + 4
    assert all(float(r.split(",")[col]) > 0 for r in rows[1:])


def test_solve_json_timing_reports_wall_time(tmp_path, capsys):
    pf = tmp_path / "p.txt"
    pf.write_text(SQUARE)
    assert main(["solve", "--input", str(pf), "--json", "--timing"]) == EXIT_OK
    wall = json.loads(capsys.readouterr().out)["wall_time_ms"]
    assert isinstance(wall, float) and wall >= 0


def _subprocess_env():
    """The environment for running ``python -m seplines.cli`` on this
    checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


@pytest.mark.parametrize(
    "what, sizes",
    [(["scaling"], [0, 2, 5]), (["trelax", "--t", "2"], [0, 2, 4])],
    ids=["scaling", "trelax"],
)
def test_study_with_zero_line_sizes_prints_strict_json(what, sizes):
    """n = 1 needs no separating line; a mean of 0 has no logarithm, so
    the exponent is fitted over the positive means only (n = 2 and 4),
    and stdout stays valid JSON (no NaN) with nothing on stderr."""
    argv = [sys.executable, "-m", "seplines.cli", "study", *what,
            "--n", "1,2,4", "--trials", "1"]
    r = subprocess.run(argv, env=_subprocess_env(), capture_output=True, timeout=300)
    assert r.returncode == EXIT_OK, r.stderr.decode()
    assert r.stderr == b""
    doc = json.loads(r.stdout, parse_constant=_reject_constant)
    assert [row["mean_size"] for row in doc["per_n"]] == sizes
    assert doc["fitted_exponent"] == pytest.approx(math.log2(sizes[2] / sizes[1]))


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
def test_greedy_output_independent_of_blas_threads(tmp_path, mode):
    """The kernels' matrix products run on as many threads as OpenBLAS
    picks; 96 points make them large enough to be split. Each certain
    sign is exact whatever the summation order, so the output must be
    byte-identical with one BLAS thread and with the default."""
    rng = random.Random(96)
    pts = tmp_path / "p.txt"
    pts.write_text("".join(
        f"{rng.getrandbits(40)}/{2 ** 40} {rng.getrandbits(40)}/{2 ** 40}\n" for _ in range(96)
    ))
    env = _subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    argv = [sys.executable, "-m", "seplines.cli", "solve", "--input", str(pts),
            "--algo", "greedy", "--mode", mode]
    outs = []
    for threads in (None, "1"):
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run(argv, env=run_env, capture_output=True, timeout=300)
        assert r.returncode == EXIT_OK, r.stderr.decode()
        outs.append(r.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_study_trelax_face_load_failure_exits_4(monkeypatch, capsys):
    from seplines import experiments as ex

    monkeypatch.setattr(ex, "max_face_load", lambda P, lines: len(P))
    rc = main(["study", "trelax", "--n", "64", "--t", "2", "--trials", "1"])
    assert rc == EXIT_INTERNAL
    assert "more than t points" in capsys.readouterr().err


def test_study_missing_n_exits_2(capsys):
    assert main(["study", "scaling", "--trials", "2"]) == EXIT_PARSE
    capsys.readouterr()


def test_study_balls_bins_and_birthday(capsys):
    rc = main(
        ["study", "balls-bins", "--n-balls", "500", "--n-bins", "2000", "--i", "2",
         "--trials", "50", "--seed", "2"]
    )
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is True
    rc = main(["study", "birthday", "--n-balls", "1000", "--c", "1", "--trials", "10", "--seed", "2"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_bins"] == 10 ** 6


def test_study_precondition_exits_3(capsys):
    rc = main(
        ["study", "balls-bins", "--n-balls", "1000", "--n-bins", "1000", "--i", "2",
         "--trials", "5", "--seed", "0"]
    )
    assert rc == EXIT_PRECONDITION
    capsys.readouterr()


# ---------------------------------------------------------------------------
# partition


def _write_grid_instance(tmp_path):
    from .conftest import grid_lines, perturbed_grid

    P = perturbed_grid(6, seed=8)
    pf = tmp_path / "pts.txt"
    pf.write_text("".join(f"{p.x} {p.y}\n" for p in P))
    lf = tmp_path / "lines.txt"
    lf.write_text("".join(f"{l.a} {l.b} {l.c}\n" for l in grid_lines(6)))
    return str(pf), str(lf)


def test_partition_command(tmp_path, capsys):
    pf, lf = _write_grid_instance(tmp_path)
    out = tmp_path / "part.json"
    rc = main(
        ["partition", "--points", pf, "--lines", lf, "--r", "4", "--seed", "2",
         "--out", str(out)]
    )
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["conforming"] is True
    doc = json.loads(out.read_text())
    assert sum(len(t["points"]) for t in doc["triangles"]) == 36


def test_partition_non_separating_exits_3(tmp_path, capsys):
    pf, lf = _write_grid_instance(tmp_path)
    short = tmp_path / "short.txt"
    short.write_text(Path(lf).read_text().splitlines(keepends=True)[0])
    rc = main(
        ["partition", "--points", pf, "--lines", str(short), "--r", "4",
         "--seed", "2", "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_PRECONDITION
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes: no traceback leaves with exit 1 ("not separating")


def test_strict_greedy_on_collinear_points_exits_0(tmp_path, capsys):
    pf = tmp_path / "diag.txt"
    pf.write_text("0 0\n1 1\n2 2\n")
    rc = main(["solve", "--input", str(pf), "--algo", "greedy", "--mode", "strict"])
    assert rc == EXIT_OK
    lf = tmp_path / "diag.lines"
    lf.write_text(capsys.readouterr().out)
    assert main(["verify", "--points", str(pf), "--lines", str(lf), "--mode", "strict"]) == EXIT_OK
    assert capsys.readouterr().out == "separating\n"


# Points of one line, as (x, y) tokens of point k.
ONE_LINE = {
    "horizontal": lambda k: (f"{k}/7", "1/2"),
    "vertical": lambda k: ("-3", f"{k}/5"),
    "slanted": lambda k: (f"{k}/3", f"{7 - 2 * k}/5"),
    "slanted-2^70": lambda k: (str(k * 2 ** 70), str((1 - 3 * k) * 2 ** 70 + 1)),
}


@pytest.mark.parametrize("shape", sorted(ONE_LINE))
@pytest.mark.parametrize("n", [3, 14, 15, 16])
@pytest.mark.parametrize("algo", ["auto", "greedy", "reweight"])
def test_relaxed_solve_on_points_of_one_line_exits_0(tmp_path, capsys, algo, n, shape):
    # The line through them separates nothing, so greedy takes lines
    # across it, on both sides of auto's exact-solver size cap.
    pf = tmp_path / "line.txt"
    pf.write_text("".join(" ".join(ONE_LINE[shape](k)) + "\n" for k in range(n)))
    rc = main(["solve", "--input", str(pf), "--algo", algo, "--mode", "relaxed"])
    assert rc == EXIT_OK
    lf = tmp_path / "line.lines"
    lf.write_text(capsys.readouterr().out)
    assert main(["verify", "--points", str(pf), "--lines", str(lf), "--mode", "relaxed"]) == EXIT_OK
    assert capsys.readouterr().out == "separating\n"


@pytest.mark.parametrize("r", ["0", "-3"])
def test_partition_nonpositive_r_exits_3(tmp_path, capsys, r):
    pf, lf = _write_grid_instance(tmp_path)
    rc = main(
        ["partition", "--points", pf, "--lines", lf, "--r", r, "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_PRECONDITION
    assert "--r must be at least 1" in capsys.readouterr().err


def test_partition_empty_point_file_exits_3(tmp_path, capsys):
    _, lf = _write_grid_instance(tmp_path)
    pf = tmp_path / "empty.txt"
    pf.write_text("")
    out = str(tmp_path / "x.json")
    rc = main(["partition", "--points", str(pf), "--lines", lf, "--r", "2", "--out", out])
    assert rc == EXIT_PRECONDITION
    assert "point set is empty" in capsys.readouterr().err


def test_study_scaling_n_zero_exits_3(capsys):
    rc = main(["study", "scaling", "--n", "0", "--trials", "1"])
    assert rc == EXIT_PRECONDITION
    assert "at least 1" in capsys.readouterr().err


def test_partition_unwritable_out_exits_2(tmp_path, capsys):
    pf, lf = _write_grid_instance(tmp_path)
    out = tmp_path / "no-such-dir" / "part.json"
    rc = main(["partition", "--points", pf, "--lines", lf, "--r", "4", "--out", str(out)])
    assert rc == EXIT_PARSE
    assert "cannot write" in capsys.readouterr().err


def test_study_unwritable_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "no-such-dir" / "out.csv"
    rc = main(["study", "scaling", "--n", "64", "--trials", "1", "--csv", str(csv)])
    assert rc == EXIT_PARSE
    assert "cannot write" in capsys.readouterr().err


def test_unexpected_exception_exits_4(square_file, monkeypatch, capsys):
    from seplines import solvers

    def boom(P, mode):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(solvers, "greedy_hitting_set", boom)
    rc = main(["solve", "--input", square_file, "--algo", "greedy"])
    assert rc == EXIT_INTERNAL
    assert "internal error: ZeroDivisionError: boom" in capsys.readouterr().err


def test_strict_reweight_on_collinear_points_exits_3(tmp_path, capsys):
    # properize cannot split a line through three points; that is a
    # precondition failure, not an internal error.
    pf = tmp_path / "coll.txt"
    pf.write_text("0 2\n1 1\n1 2\n1 0\n2 0\n")
    argv = ["solve", "--input", str(pf), "--algo", "reweight", "--mode", "strict", "--seed", "0"]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition:") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["strict", "relaxed"])
def test_reweight_negative_seed_exits_3(square_file, capsys, mode):
    rc = main(["solve", "--input", square_file, "--algo", "reweight", "--mode", mode,
               "--seed", "-1"])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err


@pytest.mark.parametrize("algo", ["greedy", "exact"])
def test_seedless_algos_ignore_negative_seed(square_file, capsys, algo):
    rc = main(["solve", "--input", square_file, "--algo", algo, "--seed", "-1"])
    assert rc == EXIT_OK
    capsys.readouterr()


def test_partition_negative_seed_exits_3(tmp_path, capsys):
    pf, lf = _write_grid_instance(tmp_path)
    out = tmp_path / "x.json"
    rc = main(["partition", "--points", pf, "--lines", lf, "--r", "4", "--seed", "-1",
               "--out", str(out)])
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["-5", "nan", "inf", "0"])
def test_partition_bad_alpha_exits_3(tmp_path, capsys, alpha):
    pf, lf = _write_grid_instance(tmp_path)
    rc = main(
        ["partition", "--points", pf, "--lines", lf, "--r", "4", "--alpha", alpha,
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "alpha must be positive" in err and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_partition_huge_r_exits_3(tmp_path, capsys):
    # r has no float value, so the sample size cannot be computed.
    pf, lf = tmp_path / "two.txt", tmp_path / "two.lines"
    pf.write_text("0 0\n1 1\n")
    lf.write_text("2 0 -1\n")
    rc = main(
        ["partition", "--points", str(pf), "--lines", str(lf), "--r", str(10 ** 399),
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "r is too large for a float" in err and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_study_birthday_nonfinite_c_exits_3(capsys, c):
    rc = main(["study", "birthday", "--n-balls", "100", "--c", c, "--trials", "2"])
    assert rc == EXIT_PRECONDITION
    assert "c must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["birthday", "--n-balls", "100", "--c", "1e300"],
     ["balls-bins", "--n-balls", "10", "--n-bins", str(10 ** 23)],
     # These three once overflowed a float before any check ran.
     ["birthday", "--n-balls", "1000", "--c", "1e308"],
     ["birthday", "--n-balls", str(10 ** 399), "--c", "1"],
     ["balls-bins", "--n-balls", str(10 ** 399), "--n-bins", str(10 ** 400), "--i", "2"]],
)
def test_study_bins_beyond_int64_exits_3(capsys, argv):
    assert main(["study"] + argv + ["--trials", "1"]) == EXIT_PRECONDITION
    assert "n_bins < 2^63" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["scaling", "trelax"])
def test_study_zero_trials_exits_3(capsys, what):
    rc = main(["study", what, "--n", "64", "--trials", "0"])
    assert rc == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "trials must be at least 1" in captured.err


# Each set has no three collinear points, but the midpoint of one pair the
# halving construction must split lies on the line through the other pair.
@pytest.mark.parametrize(
    "algo,points,n_lines",
    [
        ("halving", "0 0\n1 2\n2 0\n7/2 -1\n", 2),
        ("grid", "0 1/12\n1/12 1/4\n1/6 1/12\n7/24 0\n", None),
    ],
)
def test_split_two_pairs_midpoint_on_other_pair_line(tmp_path, capsys, algo, points, n_lines):
    pf = tmp_path / "p.txt"
    pf.write_text(points)
    assert main(["solve", "--input", str(pf), "--algo", algo]) == EXIT_OK
    out = capsys.readouterr().out
    if n_lines is not None:
        assert len(out.splitlines()) == n_lines
    lf = tmp_path / "p.lines"
    lf.write_text(out)
    assert main(["verify", "--points", str(pf), "--lines", str(lf), "--mode", "strict"]) == EXIT_OK
    assert capsys.readouterr().out == "separating\n"


def test_grid_outside_unit_square_exits_3(tmp_path, capsys):
    pf = tmp_path / "p.txt"
    pf.write_text(f"0 0\n1/2 1/3\n{2 ** 80 + 1}/{2 ** 80} 1/2\n")
    assert main(["solve", "--input", str(pf), "--algo", "grid"]) == EXIT_PRECONDITION
    assert "unit square" in capsys.readouterr().err


def test_halving_on_600_points_with_collinear_triple_exits_3(tmp_path, capsys):
    from .conftest import with_collinear_triple

    xs, ys, d = with_collinear_triple(600, 600, 200, 400).int_coords()
    pf = tmp_path / "p.txt"
    pf.write_text("".join(f"{x}/{d} {y}/{d}\n" for x, y in zip(xs, ys)))
    t0 = time.perf_counter()
    assert main(["solve", "--input", str(pf), "--algo", "halving"]) == EXIT_PRECONDITION
    assert time.perf_counter() - t0 < 30
    assert "collinear" in capsys.readouterr().err


# Integers of more than 4300 digits cannot be written as text (nor read
# back by the parsers), so these valid inputs exit 3 before any output.
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_solve_output_past_digit_limit_exits_3(tmp_path, capsys, json_flag):
    q = 10 ** 2999
    pf = tmp_path / "p.txt"
    pf.write_text(f"1/{q + 1} 0\n0 1/{q + 3}\n1/{q + 7} 1/{q + 7}\n")
    argv = ["solve", "--input", str(pf), "--algo", "exact"] + json_flag
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "4300 digits" in captured.err


def test_partition_output_past_digit_limit_exits_3(tmp_path, capsys):
    a, b = 10 ** 2699 + 1, 10 ** 2699 + 3
    pf, lf, out = tmp_path / "p.txt", tmp_path / "l.txt", tmp_path / "part.json"
    pf.write_text(SQUARE)
    lf.write_text(f"{2 * a + 1} 1 {-a}\n1 {2 * b + 1} {-b}\n")
    assert main(["verify", "--points", str(pf), "--lines", str(lf)]) == EXIT_OK
    capsys.readouterr()
    argv = ["partition", "--points", str(pf), "--lines", str(lf), "--r", "1", "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "4300 digits" in captured.err
    assert not out.exists()
