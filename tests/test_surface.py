"""The package's surface: the root exports the plan-and-replay workflow, and
every public name a module defines is read by the program.

A name only tests read belongs in ``tests/``; the benchmark script
``planbench/run.py`` counts as the program, since it reads stage types and
module attributes it times.
"""

import ast
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


def test_every_public_name_is_read_by_the_program():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [tree for name, tree in modules.items() if name != "__init__.py"]
    readers.append(ast.parse((ROOT / "planbench" / "run.py").read_text()))
    used = set().union(*map(read, readers))
    unread = {
        f"{name[:-3]}.{symbol}"
        for name, tree in modules.items()
        for symbol in defined(tree) - used
    }
    assert not unread, f"public names no program code reads: {sorted(unread)}"
