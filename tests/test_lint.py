"""Source checks that need no import of the package."""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "skeinhom"

# Internal invariants that no input can break, by (module, function): the
# only places an assert may stand.  Anything that input data can violate
# raises a SkeinError instead, because python -O strips asserts.
ALLOWED_ASSERTS = Counter({
    ("homalg", "tensor"): 2,
    ("planar", "port_of_point"): 1,
    ("planar", "compose"): 1,
})


def asserts_by_function(path):
    """[(function, line)] of every assert in the module at path, with the
    name of the innermost function around it ("" at module level)."""
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                found.append((function, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            walk(child, inner)

    walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def source_asserts():
    """Asserts of every module under src, counted by (module, function),
    and the path:line of each beyond its allowance."""
    seen = Counter()
    stray = []
    for path in sorted(SOURCE.glob("*.py")):
        for function, line in asserts_by_function(path):
            key = (path.stem, function)
            seen[key] += 1
            if seen[key] > ALLOWED_ASSERTS[key]:
                stray.append(f"{path}:{line}")
    return seen, stray


def test_asserts_only_guard_internal_invariants():
    _seen, stray = source_asserts()
    assert not stray, (
        "assert outside the listed internal invariants at " + ", ".join(stray)
        + "; raise a SkeinError subclass from skeinhom.errors instead")


def test_every_allowance_matches_an_assert():
    seen, _stray = source_asserts()
    stale = sorted(key for key, count in ALLOWED_ASSERTS.items() if seen[key] < count)
    assert not stale, f"allowances above the asserts left in the source: {stale}"


def unused_module_imports(path):
    """[(name, line)] of every name a module-level import binds in the
    module at path that no code in it reads and its __all__ does not list."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in used]


def test_no_unused_module_imports():
    stray = [f"{path.name}:{line} {name}" for path in sorted(SOURCE.glob("*.py"))
             for name, line in unused_module_imports(path)]
    assert not stray, "imported but never used: " + ", ".join(stray)


def test_unused_import_scan_sees_aliases_and_all(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from itertools import chain, product as prod\n"
        "from functools import reduce\n"
        "__all__ = ['reduce']\n"
        "def f():\n"
        "    return os.sep, prod\n")
    assert unused_module_imports(module) == [("js", 3), ("chain", 4)]


def raises_of(path, name):
    """[line] of every raise of the exception class name in the module at path."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == name:
                lines.append(node.lineno)
    return lines


def test_window_errors_come_from_one_guard():
    # a complex keeps its q-window in one place, SparseComplex.q_range, and
    # refuses queries off it in one place, SparseComplex.require_window
    sites = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for line in raises_of(path, "WindowError")]
    assert len(sites) == 1 and sites[0].startswith("homalg.py:"), (
        "WindowError raised at " + ", ".join(sites)
        + "; refuse through SparseComplex.require_window instead")


def test_raise_scan_sees_names_calls_and_attributes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise WindowError('a')\n"
        "    if x > 1:\n"
        "        raise errors.WindowError\n"
        "    raise ValueError(WindowError)\n")
    assert raises_of(module, "WindowError") == [3, 5]
