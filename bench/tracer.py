"""Span tracing of calls into skeinhom, installed from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every module
of the package that binds it, under whatever name (``planar.compose`` is
also ``tqft.compose`` and ``surface.stack``), and wraps traced methods on
their class, which covers every alias of the class.  Each wrapped call is
a span.  A span's self time is its duration minus the part of it that its
child spans cover; a span opened on a worker thread that has no open span
of its own is a child of the innermost span open on the client thread,
because the only other threads are ones an operation starts itself.

Spans are aggregated as they close, per name: calls, total time and self
time.  Per-alias call counts are kept too, so a coverage check can show
that rebinding reached the call sites that matter.
"""

import functools
import importlib
import pkgutil
import threading
from time import perf_counter

# (metric prefix, module, attribute path); a dotted path is a method.
TRACED = (
    ("planar.ClosedDiagram", "planar", "ClosedDiagram.__init__"),
    ("planar.compose", "planar", "compose"),
    ("tqft.pair", "tqft", "pair"),
    ("tqft.hom_double", "tqft", "hom_double"),
    ("tqft.kh_basis", "tqft", "kh_basis"),
    ("barproj.TwistedTangleComplex", "barproj", "TwistedTangleComplex.__init__"),
    ("barproj.hom_complex", "barproj", "TwistedTangleComplex.hom_complex"),
    ("surface.SurfaceComplex", "surface", "SurfaceComplex.__init__"),
    ("surface.coarsen", "surface", "coarsen"),
    ("homalg.smith_invariants", "homalg", "smith_invariants"),
    ("homalg.matrix_rank", "homalg", "matrix_rank"),
    ("homalg.homology", "homalg", "TruncatedComplex.homology"),
    ("homalg.homology_at", "homalg", "TruncatedComplex.homology_at"),
    ("homalg.TruncatedComplex", "homalg", "TruncatedComplex.__init__"),
    ("spin.RationalFunctionQ", "spin", "RationalFunctionQ.__init__"),
    ("spin.tl_compose", "spin", "tl_compose"),
    ("spin.wenzl", "spin", "wenzl"),
    ("spin.theta", "spin", "theta"),
    ("cli.run", "cli", "run"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    if not intervals:
        return 0.0
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class Tracer:
    def __init__(self):
        self.stats = {}
        self.site_calls = {}
        self.keys = {"tqft.pair": set(), "tqft.hom_double": set()}
        self.counters = {"surface.generators": 0, "surface.nonzeros": 0,
                         "homalg.smith_invariants.entries": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack = []

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        """Start a span; returns the frame to pass to close()."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._client_stack and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        frame = [perf_counter(), [], parent]
        stack.append(frame)
        return frame

    def close(self, name, frame):
        end = perf_counter()
        start, children, parent = frame
        self._stack().pop()
        self_time = (end - start) - _covered(start, end, children)
        with self._lock:
            if parent is not None:
                parent[1].append((start, end))
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = _Stat()
            st.calls += 1
            st.total += end - start
            st.self_time += self_time

    def span(self, name, fn, site, before=None, after=None):
        """Wrap fn so that each call is a span called name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._lock:
                self.site_calls[site] = self.site_calls.get(site, 0) + 1
                if before is not None:
                    before(self, args)
            frame = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, frame)
            if after is not None:
                with self._lock:
                    after(self, args)
            return result
        return traced

    def install(self, package):
        """Wrap every TRACED function at every binding site in the package."""
        modules = {
            info.name.rsplit(".", 1)[-1]: importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        }
        hooks = {
            "tqft.pair": (lambda tr, a: tr.keys["tqft.pair"].add(a[:3]), None),
            "tqft.hom_double": (lambda tr, a: tr.keys["tqft.hom_double"].add(a[:2]), None),
            "homalg.smith_invariants": (_count_entries, None),
            "surface.SurfaceComplex": (None, _count_complex),
        }
        for name, home, path in TRACED:
            before, after = hooks.get(name, (None, None))
            owner_name, _, method = path.rpartition(".")
            if owner_name:
                owner = getattr(modules[home], owner_name)
                setattr(owner, method,
                        self.span(name, getattr(owner, method), f"{name}@{home}", before, after))
                continue
            original = getattr(modules[home], method)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, self.span(name, original, f"{name}@{mod_name}",
                                                     before, after))


def _count_entries(tracer, args):
    rows = args[0]
    tracer.counters["homalg.smith_invariants.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_complex(tracer, args):
    cx = args[0].truncated
    tracer.counters["surface.generators"] += sum(len(g) for g in cx.generators.values())
    tracer.counters["surface.nonzeros"] += sum(len(d) for d in cx.differentials.values())


def layer_metrics(tracer):
    """The per-layer metrics, named as in BENCHMARK.json, from a finished trace."""
    st = tracer.stats

    def calls(name):
        return st[name].calls if name in st else 0

    def self_s(name):
        return st[name].self_time if name in st else 0.0

    def total_s(name):
        return st[name].total if name in st else 0.0

    def reuse(name):
        distinct = len(tracer.keys[name])
        return calls(name) / distinct if distinct else 0.0

    out = {}
    for name in ("planar.ClosedDiagram", "planar.compose", "tqft.pair", "tqft.hom_double",
                 "barproj.hom_complex", "surface.SurfaceComplex", "homalg.smith_invariants",
                 "homalg.matrix_rank", "spin.RationalFunctionQ", "spin.tl_compose"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["tqft.pair.triple_reuse"] = (reuse("tqft.pair"), "ratio")
    out["tqft.hom_double.key_reuse"] = (reuse("tqft.hom_double"), "ratio")
    out["tqft.kh_basis.calls"] = (calls("tqft.kh_basis"), "count")
    out["barproj.TwistedTangleComplex.init_s"] = (total_s("barproj.TwistedTangleComplex"), "s")
    out["surface.coarsen.self_s"] = (self_s("surface.coarsen"), "s")
    out["surface.generators"] = (tracer.counters["surface.generators"], "count")
    out["surface.nonzeros"] = (tracer.counters["surface.nonzeros"], "count")
    out["homalg.smith_invariants.entries"] = (
        tracer.counters["homalg.smith_invariants.entries"], "count")
    # Block extraction: tables reach it through homology, cells call
    # homology_at directly.
    out["homalg.homology.self_s"] = (
        self_s("homalg.homology") + self_s("homalg.homology_at"), "s")
    out["homalg.TruncatedComplex.init_s"] = (total_s("homalg.TruncatedComplex"), "s")
    out["spin.wenzl.calls"] = (calls("spin.wenzl"), "count")
    out["spin.theta.self_s"] = (self_s("spin.theta"), "s")
    out["cli.run.self_s"] = (self_s("cli.run"), "s")
    return out


def deterministic_part(tracer):
    """Everything in a trace that must repeat exactly for one op list."""
    return {
        "calls": {name: st.calls for name, st in sorted(tracer.stats.items())},
        "sites": dict(sorted(tracer.site_calls.items())),
        "distinct": {name: len(keys) for name, keys in sorted(tracer.keys.items())},
        "counters": dict(sorted(tracer.counters.items())),
    }
