"""Every private helper in the library is load-bearing: a module-level
function or class of src/seplines whose name starts with ``_`` must be
named somewhere in src/seplines outside its own definition."""
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
