"""Tests of the benchmark itself, on small instances of each workload.

Run from the root of the repository:

    python3 -m pytest -q sepbench/test_layers.py
"""
from __future__ import annotations

import json
import sys

import pytest

import run
from layers import Tracer, unit_of
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

SMALL = {
    "grid-large": {"n": 2048, "study_n": (512, 1024)},
    "greedy": {"n_relaxed": 40, "n_strict": 20},
    "small-exact": {"n_reweight": 48, "reweight_sets": 1, "n_exact": 7, "instances": 2},
}


def traced_counts(workload: str, tmp_path, monkeypatch) -> dict:
    import seplines.cli

    tmp_path.mkdir()
    monkeypatch.chdir(tmp_path)
    steps, _ = WORKLOADS[workload](7, **SMALL[workload])
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run_pass(seplines.cli.main, steps, tracer)
    finally:
        tracer.uninstall()
    assert not res.failed
    return {k: v for k, v in tracer.stats.items() if unit_of(k) == "count"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(workload, tmp_path, monkeypatch):
    first = traced_counts(workload, tmp_path / "a", monkeypatch)
    second = traced_counts(workload, tmp_path / "b", monkeypatch)
    assert first == second
    assert first["sepsys.find_unseparated_pair.calls"] > 0
    if workload == "grid-large":
        assert first["kernels.row_hash.calls"] > 0
    else:
        assert first.get("kernels.row_hash.calls", 0) == 0


def test_wrappers_replace_every_binding_and_restore():
    import seplines
    import seplines.cli
    import seplines.experiments
    import seplines.partition2d
    import seplines.sepsys
    import seplines.solvers
    from seplines.geom import CanonicalLine

    namespaces = [seplines, seplines.sepsys, seplines.solvers, seplines.cli,
                  seplines.experiments, seplines.partition2d]
    orig = seplines.sepsys.find_unseparated_pair
    orig_from_coeffs = CanonicalLine.__dict__["from_coeffs"]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [ns.find_unseparated_pair for ns in namespaces]
        assert all(w is wrapped[0] and w.__wrapped__ is orig for w in wrapped)
        for name in ("grid_separator", "halving_separator"):
            fns = [getattr(ns, name) for ns in
                   (seplines.solvers, seplines.cli, seplines.experiments)]
            assert all(f is fns[0] and hasattr(f, "__wrapped__") for f in fns)
        CanonicalLine.from_coeffs(2, 4, 6)
        assert tracer.stats["geom.CanonicalLine.from_coeffs.calls"] == 1
    finally:
        tracer.uninstall()
    assert all(ns.find_unseparated_pair is orig for ns in namespaces)
    assert CanonicalLine.__dict__["from_coeffs"] is orig_from_coeffs


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(200000))
    st = tracer.stats
    assert st["outer.wall_s"] >= st["inner.wall_s"]
    assert st["outer.self_s"] == pytest.approx(st["outer.wall_s"] - st["inner.wall_s"])


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
