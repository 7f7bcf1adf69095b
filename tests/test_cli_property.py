"""Property test of the CLI exit-code contract on small degenerate inputs:
every algorithm in both modes exits 0 (and its output verifies) or 3."""
import contextlib
import io
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seplines.cli import EXIT_OK, EXIT_PRECONDITION, main
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
