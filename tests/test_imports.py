"""No module of the package imports a name it does not use.

A module other than ``__init__.py`` may import a name only if its code uses
it or its ``__all__`` re-exports it. An import kept on purpose for another
reader (the benchmark's span tracer wraps some call sites by module name)
carries ``# noqa: F401`` on its line, and only while some name of that
import is otherwise unused: a marker none of whose names needs it is stale.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netsce"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


MARKER = "# noqa: F401"


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module neither uses nor
    lists in ``__all__``, unless its import statement is marked noqa F401;
    and (line, MARKER) of every marked import whose names are all used: a
    stale marker."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        missing = [name for name in names if name not in used]
        if MARKER not in text:
            unused.extend((node.lineno, name) for name in missing)
        elif not missing:
            unused.append((node.lineno, MARKER))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_unused_and_respects_marker():
    source = (
        "from typing import Iterable, Optional\n"
        "import numpy as np\n"
        "from .game import aggregate  # noqa: F401\n"
        "from .network import Decomposition\n"
        "from .network import spectral_radius, submatrix  # noqa: F401\n"
        "__all__ = ['Decomposition']\n"
        "def f(x: Iterable) -> None:\n"
        "    return np.asarray(spectral_radius(submatrix(x)))\n"
    )
    assert unused_imports(source) == [(1, "Optional"), (5, MARKER)]
