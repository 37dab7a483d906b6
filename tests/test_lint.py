"""Source checks that need no import of the package."""

import argparse
import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "skeinhom"

# Internal invariants that no input can break, by (module, function): the
# only places an assert may stand.  Anything that input data can violate
# raises a SkeinError instead, because python -O strips asserts.
ALLOWED_ASSERTS = Counter({
    ("planar", "PlanarTangle.port_of_point"): 1,
})

# The only places outside planar that build a tangle from a partner array,
# by (module, function): the parsers of outside data, the seam splice and
# the fixed diagrams of the skein layer.  Every other tangle is derived
# through planar (compose, juxtapose, mirrors, bends, rotations), which
# stacks and moves partner arrays in one place.
ALLOWED_TANGLE_BUILDS = Counter({
    ("surface", "SurfaceTangle.from_data"): 1,
    ("surface", "_splice_caps"): 1,
    ("cli", "_parse_tangle"): 2,
    ("cli", "_cmd_kh_eval"): 1,
    ("spin", "cup_cap_at"): 1,
    ("spin", "_vertex_tangle"): 1,
})

# The only places outside planar that build a ClosedDiagram, by (module,
# function): the doubles, cached per pair of tangles.  Every surgery plan
# starts from cached doubles and follows the circles its steps touch itself,
# so no plan compiler traces a diagram.
ALLOWED_DIAGRAM_BUILDS = Counter({
    ("tqft", "hom_double"): 1,
})

# The only places outside planar that shift an index by a tangle's edge size
# (add or subtract x.bottom or x.top), by (module, function); none today.
# Where a factor's boundary points land in a juxtaposition, a stack or a
# move is planar's to say, through juxtaposition_points, stacking_points and
# MOVES, and a point's port through port_of_point.
ALLOWED_POINT_ARITHMETIC = Counter()


# The only places outside homalg that build a LaurentPoly through one of its
# unchecked builders (_trusted, _summed, _constant), by (module, function):
# the reduced numerator and denominator that RationalFunctionQ computes in
# integers.  Every other polynomial comes from homalg's arithmetic or its
# checked constructor.
ALLOWED_TRUSTED_LAURENT = Counter({
    ("spin", "RationalFunctionQ.__init__"): 2,
})

# The only places that build a complex through SparseComplex._trusted, which
# skips _validate, by (module, function): derivations of validated complexes
# whose entries and d^2 = 0 follow from theirs.  Every other complex, chain
# map and surface complex validates on construction.
ALLOWED_TRUSTED_COMPLEXES = Counter({
    ("homalg", "SparseComplex.shifted"): 1,
    ("homalg", "ChainMap.cone"): 1,
    ("barproj", "TwistedTangleComplex.stacked"): 1,
})

# The classes whose _trusted builds a value, not a complex: called by name,
# or as cls in their own methods.
VALUE_TRUSTED_BUILDERS = ("LaurentPoly", "PlanarTangle", "StateVector")


def nodes_by_function(path, wanted):
    """[(function, line)] of every node in the module at path that wanted
    accepts, with the dotted name of the classes and functions around it
    ("" at module level)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.append((scope, child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            walk(child, inner)

    walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def asserts_by_function(path):
    return nodes_by_function(path, lambda node: isinstance(node, ast.Assert))


def is_tangle_build(node):
    """A call of PlanarTangle(...) or PlanarTangle._trusted(...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "_trusted":
        func = func.value
    return isinstance(func, ast.Name) and func.id == "PlanarTangle"


def tangle_builds_by_function(path):
    return nodes_by_function(path, is_tangle_build)


def counted_beyond(allowed, scan, skip=(), source=SOURCE):
    """Nodes that scan finds in every module under source (by default the
    package) but those named in skip, counted by (module, function), and
    the path:line of each beyond its allowance."""
    seen = Counter()
    stray = []
    for path in sorted(source.glob("*.py")):
        if path.stem in skip:
            continue
        for function, line in scan(path):
            key = (path.stem, function)
            seen[key] += 1
            if seen[key] > allowed[key]:
                stray.append(f"{path}:{line}")
    return seen, stray


def source_asserts():
    return counted_beyond(ALLOWED_ASSERTS, asserts_by_function)


def source_tangle_builds():
    return counted_beyond(ALLOWED_TANGLE_BUILDS, tangle_builds_by_function, skip=("planar",))


def test_asserts_only_guard_internal_invariants():
    _seen, stray = source_asserts()
    assert not stray, (
        "assert outside the listed internal invariants at " + ", ".join(stray)
        + "; raise a SkeinError subclass from skeinhom.errors instead")


def test_every_allowance_matches_an_assert():
    seen, _stray = source_asserts()
    stale = sorted(key for key, count in ALLOWED_ASSERTS.items() if seen[key] < count)
    assert not stale, f"allowances above the asserts left in the source: {stale}"


def test_tangles_are_built_by_hand_only_where_listed():
    _seen, stray = source_tangle_builds()
    assert not stray, (
        "tangle built from a partner array at " + ", ".join(stray)
        + "; derive it with planar.compose, juxtapose, a mirror, bend or rotation")


def test_every_allowance_matches_a_tangle_build():
    seen, _stray = source_tangle_builds()
    stale = sorted(key for key, count in ALLOWED_TANGLE_BUILDS.items() if seen[key] < count)
    assert not stale, f"allowances above the tangle builds left in the source: {stale}"


def test_tangle_build_scan_sees_calls_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "T = PlanarTangle(0, 0, ())\n"
        "class S:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return PlanarTangle._trusted(2, 0, (1, 0), 0)\n"
        "        return g, planar.PlanarTangle, PlanarTangle\n"
        "def h(t):\n"
        "    return t._trusted(), PlanarTangle(2, 0, (1, 0))\n")
    assert tangle_builds_by_function(module) == [("", 1), ("S.f.g", 5), ("h", 8)]
    assert asserts_by_function(module) == []


def is_diagram_build(node):
    """A call of ClosedDiagram(...) or of one of its constructors,
    ClosedDiagram.<name>(...), through any module prefix."""
    if not isinstance(node, ast.Call):
        return False
    names, func = [], node.func
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        names.append(func.id)
    return "ClosedDiagram" in names[:2]


def source_diagram_builds(source=SOURCE):
    return counted_beyond(ALLOWED_DIAGRAM_BUILDS,
                          lambda path: nodes_by_function(path, is_diagram_build),
                          skip=("planar",), source=source)


def test_diagrams_are_built_only_in_planar_and_for_doubles():
    _seen, stray = source_diagram_builds()
    assert not stray, (
        "ClosedDiagram built at " + ", ".join(stray)
        + "; start a tqft._Recorder on cached doubles and follow its circles instead")


def test_every_allowance_matches_a_diagram_build():
    seen, _stray = source_diagram_builds()
    stale = sorted(key for key, count in ALLOWED_DIAGRAM_BUILDS.items() if seen[key] < count)
    assert not stale, f"allowances above the diagram builds left in the source: {stale}"


def test_diagram_build_scan_sees_constructors_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "D = ClosedDiagram({}, {})\n"
        "class R:\n"
        "    def f(self, a, b):\n"
        "        return planar.ClosedDiagram.double(a, b), isinstance(a, ClosedDiagram)\n"
        "def g(d, t):\n"
        "    return ClosedDiagram.from_instances(t, {}), d.surger(1, 2, ()), ClosedDiagram\n")
    found = nodes_by_function(module, is_diagram_build)
    assert found == [("", 1), ("R.f", 4), ("g", 6)]
    seen, stray = source_diagram_builds(tmp_path)
    assert seen == Counter({("module", ""): 1, ("module", "R.f"): 1, ("module", "g"): 1})
    assert len(stray) == 3


def is_point_arithmetic(node):
    """An addition or subtraction, plain or augmented, with an operand
    x.bottom or x.top."""
    if isinstance(node, ast.BinOp):
        operands = (node.left, node.right)
    elif isinstance(node, ast.AugAssign):
        operands = (node.value,)
    else:
        return False
    return isinstance(node.op, (ast.Add, ast.Sub)) and any(
        isinstance(x, ast.Attribute) and x.attr in ("bottom", "top") for x in operands)


def source_point_arithmetic(source=SOURCE):
    return counted_beyond(ALLOWED_POINT_ARITHMETIC,
                          lambda path: nodes_by_function(path, is_point_arithmetic),
                          skip=("planar",), source=source)


def test_points_are_numbered_only_in_planar():
    _seen, stray = source_point_arithmetic()
    assert not stray, (
        "a point index shifted by a tangle's edge size at " + ", ".join(stray)
        + "; place points with planar.juxtaposition_points, stacking_points or MOVES")


def test_every_allowance_matches_point_arithmetic():
    seen, _stray = source_point_arithmetic()
    stale = sorted(key for key, count in ALLOWED_POINT_ARITHMETIC.items() if seen[key] < count)
    assert not stale, f"allowances above the point arithmetic left in the source: {stale}"


def test_point_arithmetic_scan_sees_shifts_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def offsets(tangles):\n"
        "    b = 0\n"
        "    for t in tangles:\n"
        "        b += t.bottom\n"
        "    return b\n"
        "class M:\n"
        "    def glob(self, m, p):\n"
        "        return m.bottom + self.off + (p - self.t.top)\n"
        "def sizes(t, p):\n"
        "    return t.points, t.bottom * 2, p + 1, t.bottom < p, -t.top, t.bottom + t.top\n")
    found = nodes_by_function(module, is_point_arithmetic)
    # in sizes only the edge sum counts, which t.points gives without a shift
    assert found == [("offsets", 4), ("M.glob", 8), ("M.glob", 8), ("sizes", 10)]
    # with no allowance, every shift is stray
    seen, stray = source_point_arithmetic(tmp_path)
    assert seen == Counter({("module", "offsets"): 1, ("module", "M.glob"): 2,
                            ("module", "sizes"): 1}) and len(stray) == 4


UNCHECKED_LAURENT_BUILDERS = ("_trusted", "_summed", "_constant")


def is_trusted_laurent(node):
    """A call of LaurentPoly._trusted(...), ._summed(...) or ._constant(...)."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr in UNCHECKED_LAURENT_BUILDERS and isinstance(func.value, ast.Name)
            and func.value.id == "LaurentPoly")


def source_trusted_laurents():
    return counted_beyond(ALLOWED_TRUSTED_LAURENT,
                          lambda path: nodes_by_function(path, is_trusted_laurent),
                          skip=("homalg",))


def test_trusted_laurent_polynomials_only_where_listed():
    _seen, stray = source_trusted_laurents()
    assert not stray, (
        "an unchecked LaurentPoly builder called at " + ", ".join(stray)
        + "; build the polynomial with LaurentPoly(...) or homalg's arithmetic")


def test_every_allowance_matches_a_trusted_laurent():
    seen, _stray = source_trusted_laurents()
    stale = sorted(key for key, count in ALLOWED_TRUSTED_LAURENT.items() if seen[key] < count)
    assert not stale, f"allowances above the trusted builds left in the source: {stale}"


def test_trusted_laurent_scan_sees_calls_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "ONE = LaurentPoly._trusted(((0, 1),))\n"
        "class R:\n"
        "    def __init__(self, t):\n"
        "        self.t = LaurentPoly._trusted(t), PlanarTangle._trusted(t)\n"
        "def f(p):\n"
        "    return LaurentPoly(p), p._trusted(()), LaurentPoly._trusted\n"
        "def g(acc, n):\n"
        "    return LaurentPoly._summed(acc), LaurentPoly._constant(n), LaurentPoly.one()\n")
    found = nodes_by_function(module, is_trusted_laurent)
    assert found == [("", 1), ("R.__init__", 4), ("g", 8), ("g", 8)]

def trusted_receiver(node):
    """The name X of a call X._trusted(...), "" for a receiver that is not a
    bare name (type(self)._trusted(...)), or None for any other node."""
    func = getattr(node, "func", None)
    if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "_trusted"):
        return None
    return func.value.id if isinstance(func.value, ast.Name) else ""


def trusted_complex_builds(path):
    """[(function, line)] of every _trusted(...) call in the module at path
    but those of VALUE_TRUSTED_BUILDERS, in source order."""
    def named(node):
        return trusted_receiver(node) not in (None, "cls") + VALUE_TRUSTED_BUILDERS

    def by_cls(node):
        return trusted_receiver(node) == "cls"
    found = nodes_by_function(path, named) + [
        (function, line) for function, line in nodes_by_function(path, by_cls)
        if function.partition(".")[0] not in VALUE_TRUSTED_BUILDERS]
    return sorted(found, key=lambda site: site[1])


def source_trusted_complexes(source=SOURCE):
    return counted_beyond(ALLOWED_TRUSTED_COMPLEXES, trusted_complex_builds, source=source)


def test_trusted_complexes_only_in_the_listed_derivations():
    _seen, stray = source_trusted_complexes()
    assert not stray, (
        "a complex built through _trusted at " + ", ".join(stray)
        + "; build it with its validating constructor")


def test_every_allowance_matches_a_trusted_complex():
    seen, _stray = source_trusted_complexes()
    stale = sorted(key for key, count in ALLOWED_TRUSTED_COMPLEXES.items() if seen[key] < count)
    assert not stale, f"allowances above the trusted complexes left in the source: {stale}"


def test_trusted_complex_scan_sees_receivers_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "ONE = LaurentPoly._trusted(((0, 1),)), TruncatedComplex._trusted({}, {})\n"
        "class LaurentPoly:\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls._trusted(())\n"
        "class Cx(SparseComplex):\n"
        "    @classmethod\n"
        "    def empty(cls):\n"
        "        return cls._trusted({}, {}, 0, 0, True, None)\n"
        "    def shifted(self):\n"
        "        return type(self)._trusted(self.cells, {}), StateVector._trusted(d, 0, {})\n"
        "def f(t, sv):\n"
        "    return PlanarTangle._trusted(t), TwistedTangleComplex._trusted, t._trusted()\n")
    assert trusted_complex_builds(module) == [("", 1), ("Cx.empty", 9), ("Cx.shifted", 11),
                                              ("f", 13)]
    seen, stray = source_trusted_complexes(tmp_path)
    assert len(stray) == 4 and sum(seen.values()) == 4


def validate_definitions(path):
    """[(scope, line)] of every def of, or assignment to, a name _validate
    in the module at path, by the scope it stands in."""
    def defines(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name == "_validate"
        targets = node.targets if isinstance(node, ast.Assign) else ()
        return any(isinstance(t, ast.Name) and t.id == "_validate" for t in targets)
    return nodes_by_function(path, defines)


def test_complexes_validate_in_one_place():
    # SparseComplex._validate checks ranges and d^2 = 0 for every class; a
    # class says only what its entries must be, in _entry_fault
    sites = [(path.stem, scope) for path in sorted(SOURCE.glob("*.py"))
             for scope, _line in validate_definitions(path)]
    assert sites == [("homalg", "SparseComplex")], (
        f"_validate defined at {sites}; override _entry_fault instead")


def test_validate_scan_sees_methods_functions_and_assignments(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class SparseComplex:\n"
        "    def _validate(self):\n"
        "        return self._entry_fault\n"
        "class Twisted(SparseComplex):\n"
        "    _validate = SparseComplex._validate\n"
        "    def build(self):\n"
        "        self._validate()\n"
        "def _validate(cx, validate=None):\n"
        "    class Inner:\n"
        "        async def _validate(self):\n"
        "            pass\n")
    assert validate_definitions(module) == [
        ("SparseComplex", 2), ("Twisted", 5), ("", 8), ("_validate.Inner", 10)]


def check_switches(path):
    """[(function, line)] of every function or lambda in the module at path
    that takes a parameter named check, by the scope it is defined in."""
    def takes_check(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        return any(p.arg == "check" for p in params)
    return nodes_by_function(path, takes_check)


def test_no_function_takes_a_check_switch():
    # every complex, chain map and surface build validates; a derivation
    # that need not builds through SparseComplex._trusted
    stray = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for _function, line in check_switches(path)]
    assert not stray, (
        "a check parameter at " + ", ".join(stray)
        + "; validate unconditionally, or derive through SparseComplex._trusted")


def test_check_switch_scan_sees_every_parameter_kind(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def a(x, check=True):\n"
        "    return x\n"
        "class C:\n"
        "    def __init__(self, *, check):\n"
        "        self.check = check\n"
        "    def b(self, check, /):\n"
        "        def inner(**check):\n"
        "            return check\n"
        "        return inner\n"
        "f = lambda *check: check\n"
        "def g(checked, crosscheck, x=check):\n"
        "    return check(checked)\n")
    assert check_switches(module) == [("", 1), ("C", 4), ("C", 6), ("C.b", 7), ("", 10)]


def is_chord_search(node):
    """A call of <expression>.chords.index(...), or a read of the point to
    chord map <expression>.chord_at."""
    if isinstance(node, ast.Attribute) and node.attr == "chord_at":
        return isinstance(node.ctx, ast.Load)
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "index" and isinstance(func.value, ast.Attribute)
            and func.value.attr == "chords")


def test_chords_are_looked_up_in_one_place():
    # the chord through a point is found by tqft._chord_index alone; a fold
    # or a mirror reaches its chords through the point maps of planar.MOVES
    sites = [f"{path.stem}.{function}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for function, line in nodes_by_function(path, is_chord_search)]
    assert [site.partition(":")[0] for site in sites] == ["tqft._chord_index"], (
        "chords searched at " + ", ".join(sites) + "; call tqft._chord_index instead")


def is_loop_call(node):
    """A call of loop(...) or <expression>.loop(...)."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Name) and func.id == "loop"
        or isinstance(func, ast.Attribute) and func.attr == "loop")


def test_loops_are_read_in_one_place():
    # a product reads a loop value through spin._loop_exponents, once per
    # color, so a closed form for loop values changes one function
    sites = [f"{path.stem}.{function}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for function, line in nodes_by_function(path, is_loop_call)]
    assert [site.partition(":")[0] for site in sites] == ["spin._loop_exponents"], (
        "loop called at " + ", ".join(sites) + "; read it through spin._loop_exponents")


def test_loop_call_scan_sees_names_attributes_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "X = loop(2)\n"
        "def loop(a):\n"
        "    return _loop(a)\n"
        "class C:\n"
        "    def f(self, c):\n"
        "        return spin.loop(c), loop, self.loops(c)\n")
    assert nodes_by_function(module, is_loop_call) == [("", 1), ("C.f", 6)]


# The only readers of the word spellers, per speller by (module, function):
# bar_plan spells and faces the words of every complex once per process,
# and bar_words lists one ring's words.  No build spells or faces a word
# of its own; it reads them from the cached plan.
ALLOWED_SPELLER_READS = {
    "_spelled": Counter({("barproj", "bar_plan"): 1, ("barproj", "bar_words"): 1}),
    "bar_faces": Counter({("barproj", "bar_plan"): 1}),
}


def speller_reads(name):
    """A scan for the reads of name: a loaded name or attribute, or an
    import of it."""
    def reads(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any(alias.name.rpartition(".")[2] == name for alias in node.names)
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name) \
            and isinstance(node.ctx, ast.Load)
    return lambda path: nodes_by_function(path, reads)


def test_words_are_spelled_in_one_place():
    for name, allowed in ALLOWED_SPELLER_READS.items():
        _seen, stray = counted_beyond(allowed, speller_reads(name))
        stray += [f"{path}:{line}" for path in PRODUCT_READERS
                  for _function, line in speller_reads(name)(path)]
        assert not stray, (f"{name} read at " + ", ".join(stray)
                           + "; read words and faces from barproj.bar_plan")


def test_every_speller_allowance_matches_a_read():
    for name, allowed in ALLOWED_SPELLER_READS.items():
        seen, _stray = counted_beyond(allowed, speller_reads(name))
        assert seen == allowed, name


def test_speller_scan_sees_names_attributes_imports_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from skeinhom.barproj import bar_faces\n"
        "import skeinhom.barproj.bar_faces\n"
        "def bar_faces(ring, word):\n"
        "    return list(bar_faces_of(word))\n"
        "class C:\n"
        "    def f(self, ring, w):\n"
        "        faces = barproj.bar_faces\n"
        "        return faces(ring, w), self.bar_faces, bar_faces(ring, w)\n"
        "    bar_faces = None\n")
    assert speller_reads("bar_faces")(module) == [("", 1), ("", 2), ("C.f", 7), ("C.f", 8),
                                                  ("C.f", 8)]
    assert speller_reads("_spelled")(module) == []


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


def surface_builds_off_the_window(path):
    """[(function, line)] of every SurfaceComplex(...) call in the module at
    path whose depth is not a depth= keyword computed by window_depth(...)."""
    def called(node, name):
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(func, "id", getattr(func, "attr", None)) == name)

    def off(node):
        if not called(node, "SurfaceComplex"):
            return False
        depth = [kw.value for kw in node.keywords if kw.arg == "depth"]
        return len(node.args) > 3 or not (depth and called(depth[0], "window_depth"))
    return nodes_by_function(path, off)


def test_cli_builds_surface_complexes_only_down_to_the_window():
    # homology from hmin up reads degrees from hmin - 1, so every command
    # builds at surface.window_depth, which builds to the requested depth
    # only for a window that reaches the truncation certificate
    stray = [f"cli.py:{line} ({function})"
             for function, line in surface_builds_off_the_window(SOURCE / "cli.py")]
    assert not stray, (
        "SurfaceComplex built at a depth not from window_depth at " + ", ".join(stray))


def test_window_depth_scan_sees_every_depth_form(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(spec, t, s, cfg):\n"
        "    a = SurfaceComplex(spec, t, s, depth=window_depth(cfg.depth, cfg.hmin))\n"
        "    b = SurfaceComplex(spec, t, s, depth=surface.window_depth(3, -1), q_range=(0, 4))\n"
        "    c = SurfaceComplex(spec, t, s, depth=cfg.depth)\n"
        "    d = SurfaceComplex(spec, t, s, cfg.depth)\n"
        "    e = SurfaceComplex(spec, t, s, 4, depth=window_depth(4, 0))\n"
        "    g = surface.SurfaceComplex(spec, t, s, depth=min(cfg.depth, 2))\n"
        "    return surface.SurfaceComplex, SurfaceComplex(spec, t, s), window_depth\n")
    assert surface_builds_off_the_window(module) == [
        ("f", 4), ("f", 5), ("f", 6), ("f", 7), ("f", 8)]


# The one function of the package that reads names private to argparse:
# cli's table of leaf parsers, which the one-pass parse of a command line
# reads.  Everything else reads the parsers through argparse's public API,
# so a change in argparse's internals has one place to meet.
ARGPARSE_PRIVATE_READER = ("cli", "_leaf_table")


def argparse_private_names():
    """The private names of argparse's module, of a parser and of a
    subparsers action, as this Python's argparse defines them."""
    parser = argparse.ArgumentParser()
    names = set(dir(argparse)) | set(vars(parser)) | set(vars(parser.add_subparsers()))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def argparse_private_reads(path, names):
    """[(function, line)] of every attribute named in names, and every
    import of such a name from argparse, in the module at path."""
    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "argparse" and any(alias.name in names for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr in names
    return nodes_by_function(path, reads)


def test_argparse_private_names_are_read_in_one_place():
    names = argparse_private_names()
    seen, stray = set(), []
    for path in sorted(SOURCE.glob("*.py")):
        for function, line in argparse_private_reads(path, names):
            if (path.stem, function.partition(".")[0]) == ARGPARSE_PRIVATE_READER:
                seen.add(line)
            else:
                stray.append(f"{path.name}:{line} ({function or 'module'})")
    assert not stray, ("argparse's private names read at " + ", ".join(stray)
                       + "; read them in cli._leaf_table")
    assert seen, "cli._leaf_table reads no private name of argparse; drop the allowance"


def test_argparse_private_scan_sees_attributes_imports_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from argparse import _StoreAction, ArgumentParser\n"
        "from .cli import _StoreAction\n"
        "def table(parser):\n"
        "    def walk(p):\n"
        "        return p._actions, p._defaults, argparse._SubParsersAction\n"
        "    return walk(parser), parser.actions, _actions\n"
        "class C:\n"
        "    def f(self, args):\n"
        "        return args._spec, self._option_string_actions\n")
    assert argparse_private_reads(module, argparse_private_names()) == [
        ("", 1), ("table.walk", 5), ("table.walk", 5), ("table.walk", 5), ("C.f", 9)]


LABEL_CONSTANTS = ("X", "ONE")


def is_label_rule(node):
    """A statement whose own expressions give labels their degrees: a
    sum(...) whose argument compares a name with X or ONE, or sum(v) and
    len(v) of one name v."""
    if not isinstance(node, ast.stmt):
        return False
    summed, counted = set(), set()
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.expr):
            continue
        for call in ast.walk(child):
            func = getattr(call, "func", None)
            if not (isinstance(call, ast.Call) and isinstance(func, ast.Name)
                    and len(call.args) == 1):
                continue
            (arg,) = call.args
            if func.id == "sum" and any(
                    isinstance(c, ast.Compare) and any(
                        isinstance(x, ast.Name) and x.id in LABEL_CONSTANTS
                        for x in (c.left, *c.comparators))
                    for c in ast.walk(arg)):
                return True
            if isinstance(arg, ast.Name) and func.id in ("sum", "len"):
                (summed if func.id == "sum" else counted).add(arg.id)
    return bool(summed & counted)


def test_labels_get_degrees_in_one_place():
    # a circle labeled 1 adds -1 and one labeled x adds +1 to its offset:
    # tqft.label_degree says so, and kh_basis and StateVector.degree_of call it
    sites = [f"{path.stem}.{function}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for function, line in nodes_by_function(path, is_label_rule)]
    assert [site.partition(":")[0] for site in sites] == ["tqft.label_degree"], (
        "labels turned into degrees at " + ", ".join(sites) + "; call tqft.label_degree instead")


def test_label_rule_scan_sees_both_forms_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def a(off, lab):\n"
        "    return off + sum(1 if l == X else -1 for l in lab)\n"
        "class S:\n"
        "    def degree(self, lab):\n"
        "        d = self.offset + 2 * sum(lab) - len(lab)\n"
        "        return d\n"
        "    def count(self, lab):\n"
        "        return sum(ONE != l for l in lab), sum(lab), len(self.lab)\n"
        "def b(labs, lab):\n"
        "    n = len(lab)\n"
        "    for l in labs:\n"
        "        total = sum(lab)\n"
        "    return sum(x == 1 for x in lab), [sum(v) - len(v) for v in labs]\n")
    assert nodes_by_function(module, is_label_rule) == [
        ("a", 2), ("S.degree", 5), ("S.count", 8), ("b", 13)]


def is_cell_rule(node):
    """The free rank of a homology cell, a - b - c with neither b nor c a
    constant (n_i - rank_in - rank_out), or a string holding the message
    of its d^2 fault."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and "d^2 != 0 at (h=" in node.value
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and not isinstance(node.left.right, ast.Constant)
            and not isinstance(node.right, ast.Constant))


def test_homology_cells_are_read_in_one_place():
    # homology reads every cell through homology_at, so a window and a
    # single cell share one betti rule and one d^2 refusal
    sites = [f"{path.stem}.{function}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for function, line in nodes_by_function(path, is_cell_rule)]
    home = "homalg.TruncatedComplex.homology_at"
    assert [site.partition(":")[0] for site in sites] == [home, home], (
        "cell rule at " + ", ".join(sites) + "; call TruncatedComplex.homology_at instead")


def test_cell_rule_scan_sees_both_forms_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def a(n, r_in, r_out):\n"
        "    return n - r_in - r_out\n"
        "class C:\n"
        "    def cell(self, i, j):\n"
        "        b = self.sizes.get((i, j), 0) - self.rank(i - 1) - ranks[i]\n"
        "        raise E(f'd^2 != 0 at (h={i}, q={j})')\n"
        "def b(m, i, x, y):\n"
        "    return m - 1 - i, m - i - 1, x - y, x - (y - i), 'd^2 != 0 from degree'\n")
    assert nodes_by_function(module, is_cell_rule) == [("a", 2), ("C.cell", 5), ("C.cell", 6)]


# What an except clause catches if it catches a d^2 fault (ChainMapError):
# the class, a base class of it, or everything.
CHAIN_MAP_CATCHERS = ("ChainMapError", "SkeinError", "Exception", "BaseException")


def catches_chain_map_error(node):
    """An except clause that catches ChainMapError: by name, through a base
    class, in a tuple, or bare."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(getattr(c, "id", getattr(c, "attr", None)) in CHAIN_MAP_CATCHERS for c in caught)


def window_read_sites(path):
    """[line] of every call of homology_at inside TruncatedComplex.homology,
    nested functions included, in the module at path."""
    def is_cell_read(node):
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(func, "id", getattr(func, "attr", None)) == "homology_at")
    home = "TruncatedComplex.homology"
    return [line for function, line in nodes_by_function(path, is_cell_read)
            if function == home or function.startswith(home + ".")]


def test_homology_has_one_path_and_no_fallback():
    # a window reads each cell once through one call of homology_at and
    # lets the first refusal or d^2 fault out; no handler in homalg catches
    # a fault to walk the window again
    handlers = [f"homalg.py:{line} ({function})" for function, line
                in nodes_by_function(SOURCE / "homalg.py", catches_chain_map_error)]
    assert not handlers, "ChainMapError caught at " + ", ".join(handlers)
    sites = window_read_sites(SOURCE / "homalg.py")
    assert len(sites) == 1, (
        f"TruncatedComplex.homology calls homology_at at lines {sites}; "
        "read every cell of a window through one loop")


def test_fallback_scans_see_handlers_and_call_sites(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class TruncatedComplex:\n"
        "    def homology(self, cells):\n"
        "        try:\n"
        "            return [self.homology_at(i, j) for i, j in cells]\n"
        "        except ChainMapError:\n"
        "            pass\n"
        "        def again(c):\n"
        "            return homology_at(*c)\n"
        "        return list(map(again, cells))\n"
        "    def homology_at(self, i, j):\n"
        "        try:\n"
        "            return self.cell(i, j)\n"
        "        except (KeyError, errors.SkeinError):\n"
        "            raise\n"
        "        except ValueError:\n"
        "            return self.homology_at\n"
        "def f(cx):\n"
        "    try:\n"
        "        return cx.homology_at(0, 0)\n"
        "    except:\n"
        "        pass\n")
    assert nodes_by_function(module, catches_chain_map_error) == [
        ("TruncatedComplex.homology", 5), ("TruncatedComplex.homology_at", 13), ("f", 20)]
    assert window_read_sites(module) == [4, 8]


# Public definitions in the package that no product code reads, each with
# the reason it stays.  Product code is the package outside the definition's
# own body, the benchmark, and the acceptance tests.
DG_ELEMENTS = "the dg-element API that the tests of surface.compose and coarsen read"
UNREAD_DEFINITIONS = {
    "homalg.unit_cancellation": "the entries form of _cancel_units, which the unit/Smith "
                                "property and tests/oracles.py call",
    "surface.SurfaceComplex.differential": DG_ELEMENTS,
    "surface.SurfaceElement.quantum_degrees": DG_ELEMENTS,
    "surface.transfer": DG_ELEMENTS,
    "surface.symmetrized_pairing": "the library form of the CLI's surface hom window, which "
                                   "cli calls once the benchmark stops patching "
                                   "cli.SurfaceComplex",
    "tqft.reflected_y": "the mirror beside reflected_x",
}

# Keyword parameters of public definitions that no product call sets, by
# (definition, keyword), each with the reason it stays.
UNSET_KEYWORDS = {
    ("surface.symmetrized_pairing", "depth"): "the CLI's --depth, once cli calls it",
    ("barproj.bar_words", "reduced"): "the unreduced words are checked against words_of",
    ("barproj.bottom_projector", "split"): "its (4, 2, (1, 3)) case is the only fold-form "
                                           "check of an asymmetric ring",
}

ROOT = SOURCE.parents[1]
PRODUCT_READERS = (*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(path):
    """[(dotted name, method, node)] of every public top-level function and
    class in the module at path, and of every public method of such a class;
    dunder and _private names are not public."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, (*DEFS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, False, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", True, item) for item in node.body
                      if isinstance(item, DEFS) and not item.name.startswith("_")]
    return found


def decorated(node, name):
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None)) == name
               for d in node.decorator_list)


def name_uses(path):
    """[(kind, name, line, call)] of every read and call by name in the
    module at path: kind "name" for a loaded name or an import alias and
    "attr" for a loaded attribute, with call None for a read and the Call
    node for a call.  A cls(...) call in a classmethod is a call of its
    class by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.append(("name", node.id, node.lineno, None))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            uses.append(("attr", node.attr, node.lineno, None))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            uses += [("name", alias.name, node.lineno, None) for alias in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            kind, name = (("name", node.func.id) if isinstance(node.func, ast.Name)
                          else ("attr", node.func.attr))
            uses.append((kind, name, node.lineno, node))
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, DEFS) and decorated(method, "classmethod") and method.args.args:
                first = method.args.args[0].arg
                uses += [("name", cls.name, call.lineno, call) for call in ast.walk(method)
                         if isinstance(call, ast.Call) and getattr(call.func, "id", None) == first]
    return uses


def keyword_parameters(node, method):
    """(declaring function, [(keyword, position)]) of a function, a method
    or a class: the keywords are the parameters with a default, of a class
    those of its __init__ or its dataclass fields (no declaring function),
    and position is the index of a positional argument that sets one
    (None for a keyword-only one)."""
    if isinstance(node, ast.ClassDef):
        init = [item for item in node.body if isinstance(item, DEFS) and item.name == "__init__"]
        if init:
            return keyword_parameters(init[0], True)
        if not decorated(node, "dataclass"):
            return None, []
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        return None, [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]
    a = node.args
    positional = a.posonlyargs + a.args
    skip = int(method and not decorated(node, "staticmethod"))
    first = len(positional) - len(a.defaults)
    return node, ([(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
                  + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def sets(call, keyword, position):
    """Whether a call passes keyword, by name, by position, or by forwarding
    *args or **kwargs."""
    return (any(kw.arg in (keyword, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or position is not None and len(call.args) > position)


def unread_and_unset(source=SOURCE, readers=PRODUCT_READERS):
    """The public definitions in the package at source that no product code
    reads, as "module.name", and the keywords of public definitions that no
    product call sets, as ("module.name", keyword).  Product code is the
    package outside the definition's own body, and the modules in readers.

    A top-level function or class is read by a name, an import alias or an
    attribute of its name, a method only by an attribute; a docstring
    mention is no read.  Both scans match by name and infer no types, so a
    method that shares its name with another class's method counts as read
    and its keywords as set: they can miss dead code but never flag live
    code."""
    modules = sorted(source.glob("*.py"))
    uses = {}
    for where in (*modules, *readers):
        for kind, name, line, call in name_uses(where):
            uses.setdefault(name, []).append((kind, where, line, call))

    def outside(body, path, where, line):
        return body is None or where != path or not body.lineno <= line <= body.end_lineno
    unread, unset = [], []
    for path in modules:
        for name, method, node in public_definitions(path):
            kinds = ("attr",) if method else ("name", "attr")
            mine = [(where, line, call) for kind, where, line, call
                    in uses.get(name.rpartition(".")[2], ()) if kind in kinds]
            if not any(call is None and outside(node, path, where, line)
                       for where, line, call in mine):
                unread.append(f"{path.stem}.{name}")
            body, keywords = keyword_parameters(node, method)
            calls = [call for where, line, call in mine if call and outside(body, path, where, line)]
            unset += [(f"{path.stem}.{name}", keyword) for keyword, position in keywords
                      if not any(sets(call, keyword, position) for call in calls)]
    return unread, unset


def test_every_public_definition_has_a_product_reader():
    unread, _unset = unread_and_unset()
    stray = [name for name in unread if name not in UNREAD_DEFINITIONS]
    assert not stray, (
        f"public definitions no product code reads: {stray}; delete them, or list each "
        "in UNREAD_DEFINITIONS with its reason")


def test_every_keyword_has_a_product_setter():
    _unread, unset = unread_and_unset()
    stray = [key for key in unset if key not in UNSET_KEYWORDS]
    assert not stray, (
        f"keywords no product call sets: {stray}; drop them, or list each in "
        "UNSET_KEYWORDS with its reason")


def test_every_reader_allowance_is_still_needed():
    unread, unset = unread_and_unset()
    stale = sorted(set(UNREAD_DEFINITIONS) - set(unread)) + sorted(set(UNSET_KEYWORDS) - set(unset))
    assert not stale, f"allowances for definitions or keywords that are read or gone: {stale}"


def test_reader_scans_see_each_kind_of_read_and_set(tmp_path):
    source = tmp_path / "pkg"
    source.mkdir()
    (source / "mod.py").write_text(
        "def called(x, k=1):\n"
        "    return x\n"
        "def imported(x, k=1, *, only=2):\n"
        "    return x\n"
        "def dotted(x, k=1):\n"
        "    '''Not read by dotted or unread in a docstring.'''\n"
        "    return dotted(x, k=2)\n"
        "def unread(x, k=1):\n"
        "    return unread(x - 1, k=k)\n"
        "class Box:\n"
        "    def __init__(self, v, w=0):\n"
        "        self.v = v\n"
        "    @classmethod\n"
        "    def make(cls, v):\n"
        "        return cls(v, 1)\n"
        "    def opened(self, k=1):\n"
        "        return self.v\n"
        "    def named(self):\n"
        "        return self.v\n"
        "    def _private(self):\n"
        "        return called(self.v, 3)\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n")
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from pkg.mod import imported, Box\n"
        "def f(*args, **kwargs):\n"
        "    return imported(1, **kwargs), mod.dotted(*args), Box.make(1).opened(), named\n"
        "P = mod.Point(1, 2)\n")
    unread, unset = unread_and_unset(source, (reader,))
    # a top-level definition is read by a name, an import alias or an
    # attribute, a method only by an attribute; a docstring mention or a
    # call in its own body is no read
    assert unread == ["mod.unread", "mod.Box.named"]
    # a keyword or a dataclass field is set by name, by position, by
    # forwarding *args or **kwargs, or by cls(...) in a classmethod; the
    # recursive calls in dotted and unread set nothing
    assert unset == [("mod.unread", "k"), ("mod.Box.opened", "k"), ("mod.Point", "z")]


# tests/oracles.py is imported by the benchmark, so every benchmark worker
# compiles it and its size shows in peak_rss_mb on every workload.
ORACLES_MAX_LINES = 1716


def test_benchmark_oracles_do_not_grow():
    """New oracles go in tests/plan_oracles.py, which no benchmark worker
    compiles.  ROADMAP item 1a, which stops bench/ reading tests/, lifts
    this guard."""
    lines = len((ROOT / "tests" / "oracles.py").read_text().splitlines())
    assert lines <= ORACLES_MAX_LINES, (
        f"tests/oracles.py has {lines} lines, more than {ORACLES_MAX_LINES}; "
        "put new oracles in tests/plan_oracles.py")


# Process tables kept outside skeinhom.memo, by (module, name), each with
# the reason it stays there.  Every other table that lives as long as the
# process is a memo.cache function or a memo.table, so that memo._forget()
# empties it with the rest.
ALLOWED_PROCESS_TABLES = {
    ("planar", "_DERIVED"): "it interns derived tangles and does no work; emptying it while "
                            "tangles are alive would break the rule that equal derived "
                            "tangles alive at once are one object",
}
CACHE_DECORATORS = ("lru_cache", "cache")


def is_empty_table(node):
    """An empty {} or [], a dict(), list() or set() call without
    arguments, or a call of a weak table (weakref.Weak...)."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None)) or ""
    return (name.startswith("Weak")
            or name in ("dict", "list", "set") and not (node.args or node.keywords))


def process_tables(path):
    """[(name, line)] of every module-level or class-level name that the
    module at path binds to an empty table, and of every import or read of
    functools.lru_cache or functools.cache; class attributes are Class.name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def scan(body, scope):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{scope}{node.name}.")
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            values = [node.value] if getattr(node, "value", None) is not None else []
            for target in targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else zip([target], values))
                found.extend((f"{scope}{t.id}", node.lineno) for t, v in pairs
                             if isinstance(t, ast.Name) and is_empty_table(v))

    scan(tree.body, "")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(a.name, node.lineno) for a in node.names if a.name in CACHE_DECORATORS]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
              and getattr(node.value, "id", None) == "functools"):
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda f: f[1])


def source_process_tables():
    return {(path.stem, name): line for path in sorted(SOURCE.glob("*.py"))
            if path.stem != "memo" for name, line in process_tables(path)}


def test_process_tables_live_in_memo():
    stray = [f"{module}.py:{line} {name}" for (module, name), line
             in source_process_tables().items()
             if (module, name) not in ALLOWED_PROCESS_TABLES]
    assert not stray, (
        "process table outside skeinhom.memo at " + ", ".join(stray)
        + "; make it with memo.cache or memo.table, so that memo._forget() empties it")


def test_every_allowance_matches_a_process_table():
    stale = sorted(set(ALLOWED_PROCESS_TABLES) - set(source_process_tables()))
    assert not stale, f"allowances with no process table left in the source: {stale}"


def test_process_table_scan_sees_tables_caches_and_scopes(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import functools\n"
        "import weakref\n"
        "from functools import cached_property, lru_cache as memoized\n"
        "A = {}\n"
        "B: list = []\n"
        "C, D = dict(), {1: 2}\n"
        "E = weakref.WeakValueDictionary()\n"
        "F = dict(a=1), set([1])\n"
        "class K:\n"
        "    table = set()\n"
        "    def f(self):\n"
        "        local = {}\n"
        "        return functools.cache(f), local\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def g():\n"
        "    return []\n")
    assert process_tables(module) == [
        ("lru_cache", 3), ("A", 4), ("B", 5), ("C", 6), ("E", 7), ("K.table", 10),
        ("cache", 13), ("lru_cache", 14)]
