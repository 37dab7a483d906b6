"""The process registry, skeinhom.memo: memo._forget() returns the process
to cold, so that a job after it does the work of a fresh interpreter."""

import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import skeinhom
from skeinhom import cli, memo

ROOT = Path(__file__).resolve().parents[1]
# The inputs are written out here, not imported from other test modules:
# the fresh interpreter imports this module alone, so that nothing but the
# job fills a table before it counts.
ANNULUS = json.dumps({"arcs": ["a", "b"], "seams": ["g"], "regions": [[
    {"seam": "g", "side": "-"}, {"arc": "a"}, {"seam": "g", "side": "+"}, {"arc": "b"}]]})
ANNULUS2 = json.dumps({"arcs": ["a0", "a1", "a2", "a3"], "seams": ["g1", "g2"], "regions": [
    [{"seam": "g1", "side": "-"}, {"arc": "a0"}, {"seam": "g2", "side": "+"}, {"arc": "a1"}],
    [{"seam": "g2", "side": "-"}, {"arc": "a2"}, {"seam": "g1", "side": "+"}, {"arc": "a3"}]]})
CORE = {"counts": [1, 0, 1, 0], "chords": [[0, 1]]}
CUPCAP2 = json.dumps({"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [2, 3]]}]})
THROUGH2 = json.dumps({"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]}]})
CORE2 = json.dumps({"regions": [CORE, CORE]})
NET_ANNULUS = json.dumps({"surface": {"arcs": ["a", "b"], "seams": ["g1", "g2"], "regions": [
    [{"arc": "a"}, {"seam": "g1", "side": "+"}, {"seam": "g2", "side": "-"}],
    [{"arc": "b"}, {"seam": "g2", "side": "+"}, {"seam": "g1", "side": "-"}]]},
    "coloring": {"a": 0, "b": 0, "g1": 3, "g2": 3}})

JOB = ("surface", "hom", "--spec", ANNULUS, "--t", CUPCAP2, "--s", THROUGH2,
       "--hmin", "-2", "--qmax", "6")
MIX = (
    ("surface", "hom", "--spec", ANNULUS, "--t", THROUGH2, "--s", CUPCAP2, "--hmin", "-1"),
    ("coarsen-check", "--spec", ANNULUS2, "--t", CORE2, "--s", CORE2, "--seam", "g1",
     "--hmin", "-1", "--qmax", "4", "--depth", "2"),
    ("spin", "crosscheck", "--scenario", "annulus", "--order", "4"),
    ("spin", "crosscheck", "--scenario", "triangle112", "--order", "4"),
    ("spin", "theta", "2", "2", "2"),
    ("spin", "pairing", "--net", NET_ANNULUS),
    ("bproj", "--strands", "2", "--depth", "2", "--qmax", "4"),
    JOB,
)
# the plans of surface.compose and of TwistedTangleComplex.stacked, which
# no command reaches
UNREACHED = {"skeinhom.surface._stacking_plan", "skeinhom.tqft._whisker_plan"}


def registered():
    """{name: cache or table} of everything registered in memo, with every
    module of the package imported: a cache by its function's module and
    qualified name, a table by the module global bound to it."""
    modules = [importlib.import_module(info.name) for info in
               pkgutil.iter_modules(skeinhom.__path__, skeinhom.__name__ + ".")]
    out = {f"{f.__module__}.{f.__qualname__}": f for f in memo._CACHES}
    out.update((f"{mod.__name__}.{name}", value) for mod in modules
               for name, value in vars(mod).items()
               if any(value is table for table in memo._TABLES))
    assert len(out) == len(memo._CACHES) + len(memo._TABLES)
    return out


def filled(value):
    """The entries a cache (its misses) or a table (its length) holds."""
    return value.cache_info().misses if hasattr(value, "cache_info") else len(value)


def run_quietly(argv):
    with redirect_stdout(io.StringIO()):
        return cli.run(list(argv))


def job_misses():
    """{name: entries} of every registered cache and table after JOB."""
    assert run_quietly(JOB) == 0
    return {name: filled(value) for name, value in sorted(registered().items())}


def fresh_job_misses():
    """job_misses() in a fresh interpreter with PYTHONHASHSEED=0."""
    package_root = str(Path(skeinhom.__file__).resolve().parents[1])
    pythonpath = [package_root, str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    code = "import json\nfrom tests.test_memo import job_misses\nprint(json.dumps(job_misses()))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_forget_empties_every_registered_table():
    assert [run_quietly(argv) for argv in MIX] == [0] * len(MIX)
    tables = registered()
    assert all(filled(tables[f"skeinhom.barproj.{name}"]) for name in (
        "_ENTRY_NUMBERS", "_ENTRY_STATES", "_ENTRY_IDS", "_FAULTS", "_PRODUCTS", "_IMAGES",
        "_SIGNED"))
    assert {name for name, value in tables.items() if not filled(value)} == UNREACHED
    memo._forget()
    assert {name: filled(value) for name, value in tables.items() if filled(value)} == {}
    assert all(value.cache_info().currsize == 0 for value in memo._CACHES)


def test_a_job_after_forget_does_the_work_of_a_fresh_process():
    assert [run_quietly(argv) for argv in MIX] == [0] * len(MIX)
    memo._forget()
    after = job_misses()
    assert sum(after.values()) and after == fresh_job_misses()


def test_cache_returns_the_lru_cache_wrapper_itself():
    calls = []

    def double(x):
        calls.append(x)
        return 2 * x

    wrapper, made = memo.cache(double), memo.table(list)
    try:
        assert type(wrapper).__name__ == "_lru_cache_wrapper" and wrapper.__wrapped__ is double
        assert wrapper(2) == wrapper(2) == 4 and calls == [2]
        made.append(1)
        memo._forget()
        assert made == [] and wrapper.cache_info().currsize == 0
    finally:
        memo._CACHES.remove(wrapper)
        memo._TABLES.remove(made)
