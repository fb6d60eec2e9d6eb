"""One record builder: only ``equilibrium._records`` constructs an
``EquilibriumRecord``.

Every solver, ``make_record`` and ``stable_sce_family`` build their records
through it, so the witness-conjecture rule and the Nash test are written
once. ``_records`` fills its records' fields directly, so a builder is any
function that calls the class, calls ``__new__`` on it or with it, or
writes to an instance ``__dict__``. ``_solve_supports`` returns the kept
stack itself, so a separate stacking step (``_solve_stack``) must not come
back.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "netsce"
MODULES = sorted(PACKAGE.glob("*.py"))
RECORD = "EquilibriumRecord"
#: Methods that change a mapping in place.
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _name(node):
    """The name a Name or Attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _instance_dict(node) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    if isinstance(node, ast.Call):
        return _name(node.func) == "vars"
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _builds(node) -> bool:
    """Whether ``node`` alone builds a record or writes an instance dict:
    ``EquilibriumRecord(...)``, ``__new__`` called on or with the class, a
    mutating method of ``x.__dict__`` or ``vars(x)``, an assignment or
    deletion to either or its items, or ``setattr`` of ``"__dict__"``."""
    if isinstance(node, ast.Call):
        func = node.func
        if _name(func) == RECORD:
            return True
        if _name(func) == "__new__":
            return any(_name(n) == RECORD for n in [getattr(func, "value", None), *node.args])
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            return _instance_dict(func.value)
        if _name(func) in ("setattr", "__setattr__"):
            return any(isinstance(a, ast.Constant) and a.value == "__dict__" for a in node.args)
        return False
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        while isinstance(target, ast.Subscript):
            target = target.value
        if _instance_dict(target):
            return True
    return False


def record_builders(source: str) -> list:
    """Dotted names of the functions (or "<module>") whose code builds an
    ``EquilibriumRecord`` (``_builds``), once each, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if _builds(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return list(dict.fromkeys(found))


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
        "def by_class_new():\n"
        "    return EquilibriumRecord.__new__(EquilibriumRecord)\n"
        "def by_object_new():\n"
        "    return object.__new__(equilibrium.EquilibriumRecord)\n"
        "def by_dict_update(rec):\n"
        "    rec.__dict__.update(kind='NE')\n"
        "def by_dict_item(rec):\n"
        "    rec.__dict__['kind'] = 'NE'\n"
        "def by_dict_swap(rec, fields):\n"
        "    rec.__dict__ = fields\n"
        "def by_dict_merge(rec, fields):\n"
        "    rec.__dict__ |= fields\n"
        "def by_vars(rec):\n"
        "    vars(rec).setdefault('kind', 'NE')\n"
        "def by_setattr(rec, fields):\n"
        "    object.__setattr__(rec, '__dict__', fields)\n"
        "def reads_only(rec, cls):\n"
        "    isinstance(rec, EquilibriumRecord)\n"
        "    cls.__new__(cls)\n"
        "    getattr(rec, '__dict__').get('kind'), vars(rec)['kind'], {}.update(kind='NE')\n"
        "    return rec.__dict__.get('kind')\n"
    )
    assert record_builders(source) == [
        "_records", "make_record.inner", "Family.member", "by_class_new", "by_object_new",
        "by_dict_update", "by_dict_item", "by_dict_swap", "by_dict_merge", "by_vars",
        "by_setattr",
    ]
    assert "_solve_stack" in defined_functions(source)
