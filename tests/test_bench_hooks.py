"""The names the benchmark in sepbench/ looks up in the library still
resolve: its tracer wraps and restores every layer it names, and its
runner reads the kernel backend. The test only reads sepbench/."""
import importlib.util
import inspect
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "sepbench" / "layers.py"


def test_benchmark_hooks_resolve():
    import seplines.cli  # noqa: F401  (the tracer wraps names in loaded modules)
    from seplines import _kernels, sepsys

    spec = importlib.util.spec_from_file_location("sepbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [(sys.modules[f"seplines.{layer}"], name) for layer, name, _ in layers._TARGETS]
    before = [getattr(mod, name) for mod, name in targets]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert [getattr(mod, name).__wrapped__ for mod, name in targets] == before
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in targets] == before
    assert isinstance(_kernels.backend(), str)
    assert isinstance(sepsys._KERNEL_THRESHOLD, int)
    # The kernel spans count entries as len(args[0]) * len(args[3]).
    assert list(inspect.signature(_kernels.eval_signs).parameters) == ["A", "B", "C", "X", "Y"]
