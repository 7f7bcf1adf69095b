"""Every import in the library is used: a name imported by a module of
src/seplines must be read somewhere in that module, or be listed in its
``__all__``, or carry a ``# noqa: F401`` comment on its import line."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "seplines"


def unused_imports(source: str):
    """(line, name) of each import of ``source`` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Names inside string annotations, and the entries of __all__.
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = [a for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            strings += [node.returns] + [a.annotation for a in args]
        elif isinstance(node, ast.AnnAssign):
            strings.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            strings.append(node.value)
    for part in strings:
        for c in ast.walk(part) if part is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used.update(n.id for n in ast.walk(ast.parse(c.value)) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused_and_honours_noqa():
    src = "import os\nimport sys  # noqa: F401\nfrom typing import List\nx: 'List[int]' = []\n"
    assert unused_imports(src) == [(1, "os")]


def test_package_all_resolves():
    # __all__ entries count as uses above, so one left behind after its
    # import goes would pass there and break ``from seplines import *``.
    import seplines

    assert [n for n in seplines.__all__ if not hasattr(seplines, n)] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
