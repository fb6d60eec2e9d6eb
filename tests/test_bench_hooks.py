"""Every call site the benchmark's span tracer wraps still exists.

``perfbench/tracer.py`` wraps ``netsce.<module>.<attribute>`` for each pair
in its ``WRAPPED`` table; a deleted or renamed attribute breaks traced
benchmark runs, which the tier-1 suite would otherwise not notice.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in perfbench/tracer.py")


def test_traced_call_sites_resolve():
    wrapped = _wrapped()
    assert wrapped
    for module, attr in wrapped:
        target = getattr(importlib.import_module(f"netsce.{module}"), attr, None)
        assert callable(target), f"netsce.{module}.{attr}"
