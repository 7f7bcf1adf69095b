"""The benchmark's workloads: seeded input files plus the `sep` commands
one closed-loop client runs on them, one after another.

Every input is generated here from the benchmark seed, as ``p/q``
rationals on the 2^40 grid of the unit square; the program receives only
these files (and ``--seed`` for ``study``). Each workload stresses a
different layer:

* ``grid-large``: one large random instance through the grid path. About
  two thirds of its time is hashed strict verification
  (``_kernels.row_hash``), the mechanism ROADMAP item 2 replaces;
  candidate lines, greedy and branch-and-bound do no work here.
* ``greedy``: lazy greedy in both modes. Tens of thousands of one-line
  kernel calls and lazy re-evaluations (ROADMAP item 3); its
  verifications are tiny and never reach ``row_hash``.
* ``small-exact``: reweighting plus exact branch-and-bound on small sets.
  Hundreds of small exact-path verifications, the opposite use of the
  verification layer from ``grid-large`` (ROADMAP item 4 and the B&B work).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

GRID = 1 << 40


@dataclass(frozen=True)
class Step:
    """One `sep` command. ``kind`` is solve, verify, partition or study.
    A solve step names the line file its JSON output is written to, for
    the verify (and partition) steps that follow it. A step runs
    ``repeat`` times in a row and is timed at the median."""

    kind: str
    argv: Tuple[str, ...]
    lines_file: Optional[str] = None
    out_file: Optional[str] = None
    repeat: int = 1


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # String seeds go through sha512, so inputs are stable across Python
    # versions and independent between the parts of one workload.
    return random.Random(f"sepbench:{workload}:{seed}:{part}")


def write_points(path: str, rng: random.Random, n: int) -> None:
    """n distinct uniform points on the 2^40 grid of [0, 1)^2."""
    seen = set()
    rows: List[str] = []
    while len(rows) < n:
        p = (rng.getrandbits(40), rng.getrandbits(40))
        if p in seen:
            continue
        seen.add(p)
        rows.append(f"{p[0]}/{GRID} {p[1]}/{GRID}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))


def _solve_and_verify(name: str, pts: str, algo: str, mode: str, repeat: int) -> List[Step]:
    """A solve and the verify of its output. The verify runs ``repeat``
    times back to back and counts at the median: a lone verification is
    short enough for a burst of load on a shared host to swing it, so the
    shorter a workload's verifications, the more repeats it gets."""
    lines = f"{name}.lines"
    return [
        Step("solve", ("solve", "--input", pts, "--algo", algo, "--mode", mode, "--json"), lines),
        Step("verify", ("verify", "--points", pts, "--lines", lines, "--mode", mode),
             repeat=repeat),
    ]


def grid_large(seed: int, n: int = 16384, study_n: Tuple[int, ...] = (8192, 16384), r: int = 16):
    write_points("grid.pts", _rng("grid-large", seed, "points"), n)
    steps = _solve_and_verify("grid", "grid.pts", "grid", "strict", 3) + [
        Step(
            "partition",
            ("partition", "--points", "grid.pts", "--lines", "grid.lines",
             "--r", str(r), "--mode", "strict", "--out", "part.json"),
            out_file="part.json",
        ),
        Step(
            "study",
            ("study", "scaling", "--n", ",".join(map(str, study_n)),
             "--trials", "1", "--seed", str(seed)),
        ),
    ]
    return steps, {"grid_n": n, "study_n": list(study_n), "partition_r": r}


def greedy(seed: int, n_relaxed: int = 192, n_strict: int = 96):
    write_points("relaxed.pts", _rng("greedy", seed, "relaxed"), n_relaxed)
    write_points("strict.pts", _rng("greedy", seed, "strict"), n_strict)
    steps = _solve_and_verify("relaxed", "relaxed.pts", "greedy", "relaxed", 25)
    steps += _solve_and_verify("strict", "strict.pts", "greedy", "strict", 25)
    return steps, {"relaxed_n": n_relaxed, "strict_n": n_strict}


def small_exact(
    seed: int, n_reweight: int = 256, reweight_sets: int = 2, n_exact: int = 14, instances: int = 4
):
    # Reweighting time depends on its random rounds, so two point sets
    # average out part of the spread between seeds.
    steps = []
    for k in range(reweight_sets):
        pts = f"reweight{k}.pts"
        write_points(pts, _rng("small-exact", seed, f"reweight{k}"), n_reweight)
        steps += _solve_and_verify(f"reweight{k}", pts, "reweight", "strict", 9)
    for k in range(instances):
        pts = f"exact{k}.pts"
        write_points(pts, _rng("small-exact", seed, f"exact{k}"), n_exact)
        for mode in ("strict", "relaxed"):
            steps += _solve_and_verify(f"exact{k}-{mode}", pts, "exact", mode, 9)
    return steps, {
        "reweight_n": n_reweight, "reweight_sets": reweight_sets,
        "exact_n": n_exact, "exact_instances": instances,
    }


WORKLOADS: Dict[str, Callable] = {
    "grid-large": grid_large,
    "greedy": greedy,
    "small-exact": small_exact,
}
