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
