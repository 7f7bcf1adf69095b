import json

import pytest

from seplines.cli import (
    EXIT_INTERNAL,
    EXIT_NOT_SEPARATING,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    ParseFileError,
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


def test_study_trelax_face_load_failure_exits_4(monkeypatch, capsys):
    from seplines import experiments as ex

    monkeypatch.setenv("SEP_THREADS", "1")
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
    short.write_text(open(lf).readline())
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


@pytest.mark.parametrize("r", ["0", "-3"])
def test_partition_nonpositive_r_exits_3(tmp_path, capsys, r):
    pf, lf = _write_grid_instance(tmp_path)
    rc = main(
        ["partition", "--points", pf, "--lines", lf, "--r", r, "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_PRECONDITION
    assert "--r must be at least 1" in capsys.readouterr().err


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
     ["balls-bins", "--n-balls", "10", "--n-bins", str(10 ** 23)]],
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
