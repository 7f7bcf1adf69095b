"""The solve contract: `solvers.solve` dispatches, checks preconditions and
verifies each final output exactly once; the CLI adds no second check."""
import pytest

from seplines import experiments as ex
from seplines import partition2d as p2
from seplines import cli, sepsys, solvers
from seplines.cli import EXIT_INTERNAL, EXIT_OK, main, parse_line_file, parse_point_file
from seplines.geom import pt
from seplines.sepsys import (
    GeneralPositionError,
    PointSet,
    PreconditionError,
    PropernessError,
    SeparationMode,
    TooFewPointsError,
)
from seplines.solvers import SizeCapError, solve

from .conftest import rand_general_position_points

STRICT = SeparationMode.STRICT
RELAXED = SeparationMode.RELAXED

# Every algorithm in every mode it accepts.
CASES = [
    ("exact", "strict"), ("exact", "relaxed"),
    ("greedy", "strict"), ("greedy", "relaxed"),
    ("reweight", "strict"), ("reweight", "relaxed"),
    ("halving", "strict"), ("grid", "strict"),
]


@pytest.fixture
def points_file(tmp_path):
    P = rand_general_position_points(10, seed=77)
    f = tmp_path / "p.txt"
    f.write_text("".join(f"{p.x} {p.y}\n" for p in P))
    return str(f)


def _count_checks(monkeypatch, on_call):
    """Route every find_unseparated_pair call a solve or the CLI makes
    through on_call(real, P, lines, mode)."""
    real = sepsys.find_unseparated_pair

    def wrapper(P, lines, mode):
        return on_call(real, P, list(lines), mode)

    for mod in (solvers, cli):
        monkeypatch.setattr(mod, "find_unseparated_pair", wrapper)


@pytest.mark.parametrize("algo,mode", CASES)
def test_final_output_is_verified_once(points_file, tmp_path, monkeypatch, capsys, algo, mode):
    calls = []

    def record(real, P, lines, m):
        calls.append((P.points, lines, m))
        return real(P, lines, m)

    _count_checks(monkeypatch, record)
    assert main(["solve", "--input", points_file, "--algo", algo, "--mode", mode]) == EXIT_OK
    lf = tmp_path / "out.lines"
    lf.write_text(capsys.readouterr().out)
    final = (parse_point_file(points_file).points, parse_line_file(str(lf)), SeparationMode(mode))
    assert calls.count(final) == 1


@pytest.mark.parametrize("algo,mode", CASES)
def test_failed_check_exits_4(points_file, monkeypatch, capsys, algo, mode):
    # A check that never passes on the input in the solve's mode: the
    # solver's own check (for grid, its fix-up loop; for strict reweight,
    # the check after properize) must turn it into exit 4.
    target = (parse_point_file(points_file).points, SeparationMode(mode))

    def broken(real, P, lines, m):
        return (0, 1) if (P.points, m) == target else real(P, lines, m)

    _count_checks(monkeypatch, broken)
    rc = main(["solve", "--input", points_file, "--algo", algo, "--mode", mode])
    assert rc == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal" in captured.err


def test_solve_matches_each_solver():
    P = rand_general_position_points(9, seed=78)
    res = solve(P, "auto", RELAXED)
    assert res.algo == "exact" and res.mode is RELAXED and res.rounds_used is None
    assert (res.sigma, res.lines) == solvers.exact_separability(P, RELAXED)
    assert solve(P, "greedy", STRICT).lines == solvers.greedy_hitting_set(P, STRICT)
    assert solve(P, "halving").lines == solvers.halving_separator(P)
    assert solve(P, "grid").lines == solvers.grid_separator(P, 5)  # ceil(9^(2/3))
    relaxed = solve(P, "reweight", RELAXED, seed=4)
    assert relaxed.lines == solvers.reweight_approx(P, seed=4).lines
    assert relaxed.rounds_used >= 1 and relaxed.sigma is None
    strict = solve(P, "reweight", STRICT, seed=4)
    assert strict.mode is STRICT and strict.lines == sepsys.properize(relaxed.lines, P)
    big = rand_general_position_points(solvers.EXACT_SIZE_CAP + 1, seed=79)
    assert solve(big, "auto").algo == "greedy"


@pytest.mark.parametrize(
    "P,algo,mode,err",
    [
        (PointSet([pt(0, 0)]), "greedy", STRICT, TooFewPointsError),
        (PointSet([pt(0, 0), pt(1, 1)]), "simplex", STRICT, PreconditionError),
        (PointSet([pt(0, 0), pt(1, 1)]), "halving", RELAXED, PreconditionError),
        (PointSet([pt(0, 0), pt(1, 1)]), "grid", RELAXED, PreconditionError),
        (PointSet([pt(0, 0), pt(2, 1)]), "grid", STRICT, PreconditionError),
        (PointSet([pt(0, 0), pt(1, 1), pt(2, 2)]), "halving", STRICT, GeneralPositionError),
        (PointSet([pt(0, 2), pt(1, 1), pt(1, 2), pt(1, 0), pt(2, 0)]), "reweight", STRICT,
         PropernessError),
    ],
)
def test_solve_preconditions(P, algo, mode, err):
    with pytest.raises(err):
        solve(P, algo, mode)


def test_precondition_errors_share_one_base():
    for cls in (
        TooFewPointsError, GeneralPositionError, PropernessError, SizeCapError,
        p2.NotSeparatingError, p2.ArrangementCapError, ex.PreconditionError,
    ):
        assert issubclass(cls, PreconditionError) and issubclass(cls, ValueError)
