"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions of the ``seplines`` modules in
spans. A wrapper replaces the function under every name that is bound to
it in every loaded ``seplines`` module, because most callers import by
name (``find_unseparated_pair`` alone is bound in sepsys, solvers, cli,
experiments, partition2d and the package). Spans keep a parent stack, so
a span's self time is its duration minus the time of its child spans.
Some spans also record counts taken from their arguments and results.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# A metric's unit, by the last part of its name; anything else is a count.
_UNITS = {
    "self_s": "s", "wall_s": "s", "kernel_self_s": "s", "exact_self_s": "s",
    "overhead_s": "s", "entries_per_s": "1/s", "escalation_ratio": "ratio",
    "success_ratio": "ratio",
}


def unit_of(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "count")


class Tracer:
    """Spans and counts for one traced pass. ``install`` wraps the layers;
    ``uninstall`` puts every original back."""

    def __init__(self):
        self.stats: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a span; yields its frame, whose last field is the span's
        self time once it has ended."""
        frame = [name, 0.0, 0.0]  # name, child seconds, self seconds
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield frame
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            frame[2] = dur - frame[1]
            self.stats[f"{name}.calls"] += 1
            self.stats[f"{name}.self_s"] += frame[2]
            self.stats[f"{name}.wall_s"] += dur

    def within(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name) as frame:
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, name, args, out, frame[2])
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, orig: object, repl: object) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "seplines" and not modname.startswith("seplines."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    self._restore.append((mod, attr, orig))

    def install(self) -> None:
        from seplines.geom import CanonicalLine

        for layer, fname, hook in _TARGETS:
            mod = sys.modules[f"seplines.{layer}"]
            orig = getattr(mod, fname)
            name = f"{layer.lstrip('_')}.{fname}"
            self._replace_everywhere(orig, self._wrap(name, orig, hook))

        # from_coeffs runs about ten thousand times a pass: count only.
        orig_sm = CanonicalLine.__dict__["from_coeffs"]
        inner = orig_sm.__func__
        stats = self.stats

        def from_coeffs(a, b, c):
            stats["geom.CanonicalLine.from_coeffs.calls"] += 1
            return inner(a, b, c)

        CanonicalLine.from_coeffs = staticmethod(from_coeffs)
        self._restore.append((CanonicalLine, "from_coeffs", orig_sm))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# wrapped functions and the counts their spans record


def _kernel_entries(args) -> int:
    A, X = args[0], args[3]
    return len(A) * len(X)


def _eval_signs_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.entries"] += _kernel_entries(args)
    tr.stats[f"{name}.uncertain"] += int(out[1].sum())


def _row_hash_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.entries"] += _kernel_entries(args)
    tr.stats[f"{name}.uncertain"] += len(out[2])


def _side_counts_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.entries"] += _kernel_entries(args)


def _find_pair_hook(tr, name, args, out, self_s):
    P, lines = args[0], args[1]
    entries = len(P) * len(lines)
    # The same test find_unseparated_pair makes to choose its path.
    threshold = sys.modules["seplines.sepsys"]._KERNEL_THRESHOLD
    path = "kernel" if lines and entries > threshold else "exact"
    tr.stats[f"{name}.{path}_calls"] += 1
    tr.stats[f"{name}.{path}_self_s"] += self_s
    tr.stats[f"{name}.entries"] += entries
    if tr.within("solvers.reweight_approx"):
        tr.stats["solvers.reweight_approx.verify_calls"] += 1


def _candidate_lines_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.lines"] += len(out)


def _partition_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.attempts"] += out.attempts


def _reweight_hook(tr, name, args, out, self_s):
    tr.stats[f"{name}.rounds"] += out.rounds_used
    tr.stats[f"{name}.doublings"] += out.weight_doublings
    tr.stats[f"{name}.guesses"] += len(out.guess_history)
    tr.stats[f"{name}.guesses_succeeded"] += sum(1 for g in out.guess_history if g[2])


_TARGETS = [
    ("_kernels", "row_hash", _row_hash_hook),
    ("_kernels", "eval_signs", _eval_signs_hook),
    ("_kernels", "line_side_counts", _side_counts_hook),
    ("sepsys", "find_unseparated_pair", _find_pair_hook),
    ("sepsys", "candidate_lines", _candidate_lines_hook),
    ("sepsys", "properize", None),
    ("solvers", "greedy_hitting_set", None),
    ("solvers", "reweight_approx", _reweight_hook),
    ("solvers", "exact_separability", None),
    ("solvers", "realize_variant", None),
    ("solvers", "grid_separator", None),
    ("solvers", "halving_separator", None),
    ("experiments", "scaling_study", None),
    ("experiments", "random_points", None),
    ("experiments", "max_active_cells_per_line", None),
    ("partition2d", "build_partition", _partition_hook),
    ("partition2d", "build_arrangement", None),
    ("partition2d", "triangulate_face", None),
    ("cli", "parse_point_file", None),
    ("cli", "parse_line_file", None),
]
