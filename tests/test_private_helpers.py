"""Every private helper in the library is load-bearing: a module-level
function or class of src/seplines whose name starts with ``_`` must be
named somewhere in src/seplines outside its own definition. And the float
kernels have one caller: only ``sepsys``, which settles what they flag,
imports ``_kernels``, and every sign query goes through one call of
``eval_signs``, in ``LineSet.signs``, the one caller of ``settle``."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "seplines"


def _names(node):
    """Every name ``node`` reads, imports or reaches as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unnamed_helpers(sources):
    """(module, name) of each private module-level function or class of
    ``sources`` (module name -> source) that no other statement names."""
    defs, named = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                    defs.append((module, stmt.name))
                    names.discard(stmt.name)
            named |= names
    return sorted((module, name) for module, name in defs if name not in named)


def test_detects_helpers_named_only_by_themselves():
    sources = {
        "a": "def _used(): pass\ndef _self(k): return _self(k - 1)\nclass _Gone: pass\n",
        "b": "from .a import _used\n",
    }
    assert unnamed_helpers(sources) == [("a", "_Gone"), ("a", "_self")]


def test_every_private_helper_is_named():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unnamed_helpers(sources) == []


def kernel_importers(sources):
    """The modules of ``sources`` (module name -> source) that import _kernels."""
    out = set()
    for module, source in sources.items():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ImportFrom):
                names = [n.module or ""] + [f"{n.module or ''}.{a.name}" for a in n.names]
            elif isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            else:
                continue
            if any("_kernels" in name.split(".") for name in names):
                out.add(module)
    return sorted(out)


def test_detects_kernel_importers():
    sources = {
        "a": "from . import _kernels\n",
        "b": "from ._kernels import eval_signs\n",
        "c": "import seplines._kernels as K\n",
        "d": "from .sepsys import settle\nfrom . import geom\n",
    }
    assert kernel_importers(sources) == ["a", "b", "c"]


def test_only_sepsys_imports_kernels():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert kernel_importers(sources) == ["sepsys"]


def call_sites(sources, name):
    """(module, innermost enclosing function, or "<module>") of each call
    of ``name``, as a bare name or an attribute, in ``sources`` (module
    name -> source); a lambda counts as a function "<lambda>"."""
    out = []

    def visit(module, node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                out.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(module, child, where)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return sorted(out)


def test_detects_call_sites():
    sources = {
        "a": "def f():\n    _kernels.eval_signs(1)\n    g = lambda: eval_signs(2)\n",
        "b": "eval_signs(3)\nclass C:\n    def signs(self):\n        return K.eval_signs(4)\n",
        "c": "from ._kernels import eval_signs\nx = eval_signs\n",
    }
    assert call_sites(sources, "eval_signs") == [
        ("a", "<lambda>"), ("a", "f"), ("b", "<module>"), ("b", "signs")
    ]


def test_one_kernel_call_site():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert call_sites(sources, "eval_signs") == [("sepsys", "signs")]
    assert call_sites(sources, "settle") == [("sepsys", "signs")]
