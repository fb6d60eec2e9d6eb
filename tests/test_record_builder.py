"""One record builder: only ``equilibrium._records`` constructs an
``EquilibriumRecord``.

Every solver, ``make_record`` and ``stable_sce_family`` build their records
through it, so the witness-conjecture rule and the Nash test are written
once. ``_solve_supports`` returns the kept stack itself, so a separate
stacking step (``_solve_stack``) must not come back.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netsce"
MODULES = sorted(PACKAGE.glob("*.py"))


def record_builders(source: str) -> list:
    """Dotted names of the functions (or "<module>") whose code calls
    ``EquilibriumRecord(...)``, by name or as a module attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "EquilibriumRecord":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def defined_functions(source: str) -> set:
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_only_records_builds_records():
    builders = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in record_builders(path.read_text(encoding="utf-8"))
    ]
    assert builders == ["equilibrium._records"]


def test_solve_stack_stays_gone():
    for path in MODULES:
        assert "_solve_stack" not in defined_functions(path.read_text(encoding="utf-8")), path.name


def test_detector_flags_every_builder():
    source = (
        "from . import equilibrium\n"
        "from .equilibrium import EquilibriumRecord\n"
        "def _records(spec):\n"
        "    return [EquilibriumRecord(actions=a) for a in spec]\n"
        "def make_record(spec, a):\n"
        "    def inner():\n"
        "        return equilibrium.EquilibriumRecord(actions=a)\n"
        "    return inner()\n"
        "class Family:\n"
        "    def member(self):\n"
        "        return EquilibriumRecord()\n"
        "def _solve_stack(spec):\n"
        "    return EquilibriumRecord\n"
    )
    assert record_builders(source) == ["_records", "make_record.inner", "Family.member"]
    assert "_solve_stack" in defined_functions(source)
