"""The package's surface: the root exports the plan-and-replay workflow,
every public name a module defines is read by the program, and so is every
field of its dataclasses; and only ``model`` rounds.

A name only tests read belongs in ``tests/``; the benchmark script
``planbench/run.py`` counts as the program, since it reads stage types and
module attributes it times.
"""

import ast
import itertools
import types
from pathlib import Path

import asymcharge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asymcharge"

WORKFLOW = {
    "InfeasibleError",
    "MalformedScheduleError",
    "MalformedTourError",
    "PivotLimitError",
    "SchedulingError",
    "ValidationError",
    "NetworkInstance",
    "DmcParams",
    "AsymmetryField",
    "OperationSchedule",
    "ScheduleMetrics",
    "MOVE",
    "TRANSMIT",
    "plan_schedule",
    "one_to_one_schedule",
    "execute_schedule",
}


def test_root_exports_the_workflow():
    public = {
        name
        for name, value in vars(asymcharge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == WORKFLOW


def defined(tree: ast.Module) -> set[str]:
    """The public names a module's top level defines by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def read(tree: ast.Module) -> set[str]:
    """Every name a module reads as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


# the package's modules by file name, and the benchmark script
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
BENCH = ast.parse((ROOT / "planbench" / "run.py").read_text())


def test_every_public_name_is_read_by_the_program():
    readers = [tree for name, tree in MODULES.items() if name != "__init__.py"] + [BENCH]
    used = set().union(*map(read, readers))
    unread = {
        f"{name[:-3]}.{symbol}"
        for name, tree in MODULES.items()
        for symbol in defined(tree) - used
    }
    assert not unread, f"public names no program code reads: {sorted(unread)}"


def dataclass_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, field) for every annotated field of each ``@dataclass`` a module defines."""
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            found |= {
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
    return found


def test_every_dataclass_field_is_read_by_the_program():
    """Each field is read as an attribute of some object somewhere in the program.

    The match is by name alone: a field counts as read when the program
    reads any attribute of that name, whatever the object.  A class the
    program lists with ``dataclasses.fields`` reads all its fields that way.
    """
    attributes, listed = set(), set()
    for node in itertools.chain.from_iterable(map(ast.walk, [*MODULES.values(), BENCH])):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("fields", "dataclasses.fields"):
            listed |= {arg.id for arg in node.args[:1] if isinstance(arg, ast.Name)}
    unread = sorted(
        f"{name[:-3]}.{cls}.{field}"
        for name, tree in MODULES.items()
        for cls, field in dataclass_fields(tree)
        if cls not in listed and field not in attributes
    )
    assert not unread, f"dataclass fields no program code reads: {unread}"


ROUNDING_ATTRIBUTES = {"log10", "rint", "floor"}


def rounding(tree: ast.Module) -> set[str]:
    """What in a module rounds: a rounding attribute read, a built-in ``round`` call, ``decimal``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ROUNDING_ATTRIBUTES:
            found.add(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "round":
            found.add("round()")
        elif isinstance(node, ast.Import):
            found |= {f"import {a.name}" for a in node.names if a.name.split(".")[0] == "decimal"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "decimal":
            found.add(f"from {node.module} import")
    return found


def test_only_model_rounds():
    """Grid cells and the files' 9 digits are rules of ``model`` alone.

    The other modules call ``model``'s rules and print 9-digit values; none
    takes a logarithm's floor, rounds to an integer or imports ``decimal``.
    """
    rounds = {
        f"{name[:-3]}: {what}"
        for name, tree in MODULES.items()
        if name != "model.py"
        for what in rounding(tree)
    }
    assert not rounds, f"rounding outside model: {sorted(rounds)}"
