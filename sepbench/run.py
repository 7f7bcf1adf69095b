#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `sep` command line tool.

Usage, from the root of the repository:

    python3 sepbench/run.py --workload grid-large --seed 1 --seconds 30 --trace 0

One run is one fresh process and one closed-loop client. It writes the
workload's seeded inputs (see workloads.py) into a scratch directory in the
checkout, times ``import seplines.cli`` (the set-up), then calls
``seplines.cli.main(argv)`` once per command with stdout captured, pass
after pass, for about ``--seconds``. ``SEP_THREADS`` is
pinned to 1. Every solve output is checked by the ``sep verify`` that
follows it; each command's stdout must repeat byte for byte from pass to
pass, and at the default seed it must match the digests pinned in
digests.json.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass and then one traced pass (layers.py wraps each layer's public
functions from outside the program) and reports the per-layer metrics,
including the tracing overhead. Human-readable lines go first; the last
line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

# The script's own directory is first on sys.path.
from layers import Tracer, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import seplines.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "lines_out": "count",
}

PER_LAYER = [
    "kernels.row_hash.calls", "kernels.row_hash.entries", "kernels.row_hash.uncertain",
    "kernels.row_hash.self_s", "kernels.row_hash.entries_per_s",
    "kernels.eval_signs.calls", "kernels.eval_signs.entries",
    "kernels.eval_signs.uncertain", "kernels.eval_signs.self_s",
    "kernels.line_side_counts.calls", "kernels.line_side_counts.entries",
    "kernels.line_side_counts.self_s",
    "kernels.entries", "kernels.escalation_ratio",
    "sepsys.find_unseparated_pair.kernel_calls", "sepsys.find_unseparated_pair.kernel_self_s",
    "sepsys.find_unseparated_pair.exact_calls", "sepsys.find_unseparated_pair.exact_self_s",
    "sepsys.find_unseparated_pair.entries",
    "sepsys.candidate_lines.calls", "sepsys.candidate_lines.lines",
    "sepsys.candidate_lines.self_s",
    "sepsys.properize.calls", "sepsys.properize.self_s",
    "solvers.greedy_hitting_set.self_s",
    "solvers.reweight_approx.self_s", "solvers.reweight_approx.rounds",
    "solvers.reweight_approx.doublings", "solvers.reweight_approx.guesses",
    "solvers.reweight_approx.success_ratio", "solvers.reweight_approx.verify_calls",
    "solvers.exact_separability.calls", "solvers.exact_separability.self_s",
    "solvers.realize_variant.calls", "solvers.realize_variant.self_s",
    "solvers.grid_separator.self_s",
    "solvers.halving_separator.calls", "solvers.halving_separator.self_s",
    "experiments.scaling_study.self_s", "experiments.random_points.self_s",
    "experiments.max_active_cells_per_line.self_s",
    "partition2d.build_partition.self_s", "partition2d.build_partition.attempts",
    "partition2d.build_arrangement.calls", "partition2d.build_arrangement.self_s",
    "partition2d.triangulate_face.calls",
    "cli.parse_point_file.calls", "cli.parse_point_file.self_s",
    "cli.parse_line_file.self_s",
    "cli.solve.wall_s", "cli.verify.wall_s", "cli.partition.wall_s", "cli.study.wall_s",
    "geom.CanonicalLine.from_coeffs.calls",
    "trace.overhead_s",
]


def log(msg: str) -> None:
    print(msg, flush=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# one pass over the workload's commands


class Pass:
    def __init__(self):
        self.seconds = defaultdict(float)  # command kind -> summed seconds
        self.wall = 0.0
        self.digests = {}  # label -> sha256
        self.failed = set()  # step indices
        self.lines_out = 0


def call(main, argv, span):
    """Run one command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                code = main(list(argv))
        except SystemExit as e:  # argparse rejected the arguments
            code = e.code
        except Exception:  # a traceback is a failed command, not a crash
            traceback.print_exc()
            code = None
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def run_pass(main, steps, tracer=None) -> Pass:
    res = Pass()
    for i, step in enumerate(steps):
        runs = [
            call(main, step.argv, tracer.span(f"cli.{step.kind}") if tracer else nullcontext())
            for _ in range(step.repeat)
        ]
        dt = statistics.median(r[3] for r in runs)
        res.seconds[step.kind] += dt
        res.wall += dt
        code, stdout, stderr, _ = runs[0]
        res.digests[f"{i:02d} {step.kind}"] = sha256(stdout.encode())
        if any(r[:2] != (code, stdout) for r in runs):
            log(f"FAIL {' '.join(step.argv)}: repeats disagree")
            res.failed.add(i)
        if code != 0:
            log(f"FAIL {' '.join(step.argv)}: exit {code}; stderr: {stderr[-2000:]!r}")
            res.failed.add(i)
            if step.kind == "verify":
                res.failed.add(_solve_of(steps, i))
            continue
        if step.kind == "solve":
            try:
                doc = json.loads(stdout)
                lines = "".join(f"{a} {b} {c}\n" for a, b, c in doc["lines"])
            except (ValueError, KeyError, TypeError):
                log(f"FAIL {' '.join(step.argv)}: unreadable output")
                res.failed.add(i)
                continue
            res.lines_out += len(doc["lines"])
            Path(step.lines_file).write_text(lines, encoding="utf-8")
        elif step.kind == "verify" and stdout != "separating\n":
            log(f"FAIL {' '.join(step.argv)}: {stdout!r}")
            res.failed.update((i, _solve_of(steps, i)))
        elif step.out_file:
            res.digests[f"{i:02d} {step.out_file}"] = sha256(Path(step.out_file).read_bytes())
    return res


def _solve_of(steps, i: int) -> int:
    """Index of the solve step whose output verify step i checks."""
    lines = steps[i].argv[steps[i].argv.index("--lines") + 1]
    return next(k for k, s in enumerate(steps) if s.lines_file == lines)


def check_against(reference: Pass, p: Pass) -> None:
    """Mark every command of p whose output differs from reference."""
    for label, digest in reference.digests.items():
        if p.digests.get(label) != digest:
            log(f"MISMATCH {label}")
            p.failed.add(int(label[:2]))


# ---------------------------------------------------------------------------
# environment, set-up


def environment(workload: str, seed: int, inputs: dict) -> dict:
    import numpy

    from seplines import _kernels

    sha = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.backend(),
        "SEP_THREADS": os.environ["SEP_THREADS"],
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }


def setup_samples(count: int) -> list:
    """Seconds to import seplines.cli in each of `count` fresh processes."""
    out = []
    for _ in range(count):
        r = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(r.stdout))
    return out


def describe(name: str, values: list, unit: str, stat=statistics.median) -> str:
    mid = stat(values)
    q = ""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        q = f"  quartiles {q1:.4f}..{q3:.4f}"
    each = " ".join(f"{v:.3f}" for v in values)
    return f"{name:<14} {stat.__name__} {mid:.4f} {unit}  (n={len(values)}){q}  samples {each}"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--pin", action="store_true",
        help="write this workload's output digests at the default seed to digests.json",
    )
    args = ap.parse_args(argv)
    if not (SRC / "seplines" / "cli.py").is_file():
        print(f"error: {SRC}/seplines not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error(f"--pin needs --seed {DEFAULT_SEED}")

    os.environ["SEP_THREADS"] = "1"
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = tempfile.mkdtemp(prefix=".sepbench-", dir=ROOT)
    old_cwd = os.getcwd()
    try:
        os.chdir(work)
        steps, inputs = WORKLOADS[args.workload](args.seed)
        setup_samples(1)  # not counted: it byte-compiles a fresh checkout
        # Half the set-up samples before the passes and half after, so
        # they do not all fall into one slow or fast stretch of the host.
        setup = setup_samples(SETUP_PROBES)
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import seplines.cli

        setup.append(time.perf_counter() - t0)
        env = environment(args.workload, args.seed, inputs)
        log("env " + json.dumps(env, sort_keys=True))
        passes, tracer = run_passes(seplines.cli.main, steps, args)
        setup += setup_samples(SETUP_PROBES)
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(work, ignore_errors=True)

    for p in passes[1:]:
        check_against(passes[0], p)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.pin:
        pinned[args.workload] = {"digests": passes[0].digests, "lines_out": passes[0].lines_out}
        DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED and args.workload in pinned:
        ref = Pass()
        ref.digests = pinned[args.workload]["digests"]
        check_against(ref, passes[0])
        if passes[0].lines_out != pinned[args.workload]["lines_out"]:
            log(f"MISMATCH lines_out {passes[0].lines_out}")
            passes[0].failed.update(k for k, s in enumerate(steps) if s.kind == "solve")

    attempted = sum(s.repeat for s in steps) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    log(f"error_rate     {failed}/{attempted} commands failed")
    if args.trace:
        metrics = layer_metrics(passes, tracer)
    else:
        metrics = end_to_end_metrics(passes, setup)
    log(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_passes(main, steps, args):
    """(passes, tracer). A trace run makes one untraced and one traced
    pass; otherwise passes repeat for about --seconds."""
    if args.trace:
        passes = [run_pass(main, steps)]
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(main, steps, tracer))
        finally:
            tracer.uninstall()
        return passes, tracer
    # Start another pass only while it would end nearer the deadline than
    # stopping now does, so a run lasts about --seconds.
    passes, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(main, steps))
        took.append(time.perf_counter() - t0)
        if start + args.seconds - time.perf_counter() < statistics.mean(took) / 2:
            return passes, None


def end_to_end_metrics(passes, setup) -> dict:
    samples = {
        "setup_s": setup,
        "wall_s": [p.wall for p in passes],
        "solve_s": [p.seconds["solve"] for p in passes],
        "verify_s": [p.seconds["verify"] for p in passes],
    }
    for kind in ("partition", "study"):
        if kind in passes[0].seconds:
            samples[f"{kind}_s"] = [p.seconds[kind] for p in passes]
    # The host's speed drifts in stretches of seconds to minutes, and a run
    # holds only a few passes, so the median of the passes jumps between a
    # fast and a slow stretch. Their mean weighs each stretch by its length.
    for name, values in samples.items():
        stat = statistics.median if name == "setup_s" else statistics.mean
        log(describe(name, values, "s", stat))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"{'peak_rss_mb':<14} {rss_mb:.1f} MB")
    log(f"{'lines_out':<14} {passes[0].lines_out} lines per pass")
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for k in ("wall_s", "solve_s", "verify_s"):
        metrics[k] = (statistics.mean(samples[k]), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["lines_out"] = (passes[0].lines_out, "count")
    return metrics


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(passes, tracer) -> dict:
    st = tracer.stats
    rh, es = "kernels.row_hash", "kernels.eval_signs"
    rw = "solvers.reweight_approx"
    st[f"{rh}.entries_per_s"] = ratio(st[f"{rh}.entries"], st[f"{rh}.self_s"])
    st["kernels.entries"] = st[f"{rh}.entries"] + st[f"{es}.entries"]
    unc = st[f"{rh}.uncertain"] + st[f"{es}.uncertain"]
    st["kernels.escalation_ratio"] = ratio(unc, st["kernels.entries"])
    st[f"{rw}.success_ratio"] = ratio(st[f"{rw}.guesses_succeeded"], st[f"{rw}.guesses"])
    st["trace.overhead_s"] = passes[1].wall - passes[0].wall
    log(f"untraced wall_s {passes[0].wall:.4f}  traced wall_s {passes[1].wall:.4f}")
    out = {}
    for name in PER_LAYER:
        v = st.get(name, 0)
        unit = unit_of(name)
        out[name] = (int(v) if unit == "count" else float(v), unit)
        log(f"{name:<48} {out[name][0]} {unit}")
    return out


if __name__ == "__main__":
    sys.exit(main())
