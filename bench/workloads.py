"""The benchmark's three workloads: seeded job plans, their setup, and checks.

A plan is a list of jobs drawn from a seed.  The seed orders the jobs and
draws their parameters; it never changes how many jobs of each kind a plan
holds (the mix), and no job appears twice in one plan.  Each kind has a
count at NOMINAL_SECONDS; `--seconds` scales every count (to at least one
job of each kind), so a plan's size depends on the arguments alone and two
runs of one seed do the same work.

`setup` turns a plan into ops.  An op's `run` is the timed call into the
package; `check` verifies its output afterwards and returns a failure
message or None; `text` is the output as text for the run's digest.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from complexes import (PROFILE_DEPTH2, PROFILE_DEPTH3, betti_by_elimination,
                       known_answer_complex)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("surface-hom", "skein", "homology")

# Plans are sized to take about this long on the reference host (2 cores)
# at the commit that defined the benchmark.
NOMINAL_SECONDS = 20


@dataclass
class Job:
    kind: str
    key: str
    params: tuple


@dataclass
class Op:
    kind: str
    key: str
    run: Callable
    check: Callable
    text: Callable


def draw(rng, slots, count, variants):
    """count (slot, variant) pairs spread evenly over the slots, every
    variant distinct within its slot."""
    reps = {s: count // len(slots) for s in slots}
    for s in rng.sample(slots, count % len(slots)):
        reps[s] += 1
    return [(s, v) for s in slots for v in rng.sample(variants(s), reps[s])]


def plan(workload, seed, seconds, session=0):
    """The seeded job list of a workload at a given size; each session of a
    run (see run.SESSIONS) draws its own."""
    rng = random.Random(f"{workload}:{seed}:{session}")
    scale = seconds / NOMINAL_SECONDS
    jobs = []
    for kind, count, slots, variants, make in PLANNERS[workload]():
        n = max(1, round(count * scale))
        jobs.extend(make(kind, slot, v) for slot, v in draw(rng, slots, n, variants))
    rng.shuffle(jobs)
    return jobs


def with_threads_swapped(jobs):
    """The same plan with threads=None and threads=2 swapped on every
    homology table; keys stay, so equal digests mean equal tables."""
    return [Job(j.kind, j.key, j.params[:2] + (None if j.params[2] else 2,))
            if j.kind.startswith("table") else j for j in jobs]


def mix(jobs):
    out = {}
    for job in jobs:
        out[job.kind] = out.get(job.kind, 0) + 1
    return dict(sorted(out.items()))


def setup(workload, jobs, seed, tick=lambda: None):
    """The plan's ops; tick() is called between the longer steps of set-up
    (the worker probes the host's speed there)."""
    return SETUPS[workload](jobs, seed, tick)


# ---------------------------------------------------------------- fixtures
# The surfaces and tangles of tests/test_surface.py and tests/test_spin.py.

def _seam(name, side):
    return {"seam": name, "side": side}


FIXTURES = {
    "ANNULUS": {"arcs": ["a", "b"], "seams": ["g"],
                "regions": [[_seam("g", "-"), {"arc": "a"}, _seam("g", "+"), {"arc": "b"}]]},
    "ANNULUS2": {"arcs": ["a0", "a1", "a2", "a3"], "seams": ["g1", "g2"],
                 "regions": [[_seam("g1", "-"), {"arc": "a0"}, _seam("g2", "+"), {"arc": "a1"}],
                             [_seam("g2", "-"), {"arc": "a2"}, _seam("g1", "+"), {"arc": "a3"}]]},
    "SEAMED_DISK": {"arcs": ["a0", "a1"], "seams": ["g"],
                    "regions": [[{"arc": "a0"}, _seam("g", "+")],
                                [_seam("g", "-"), {"arc": "a1"}]]},
    "TRI_ANNULUS": {"arcs": ["a", "b"], "seams": ["g1", "g2"],
                    "regions": [[{"arc": "a"}, _seam("g1", "+"), _seam("g2", "-")],
                                [{"arc": "b"}, _seam("g2", "+"), _seam("g1", "-")]]},
    "CORE": {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]},
    "CORE2": {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
                          {"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]},
    "SEAMED_DISK_ARC": {"regions": [{"counts": [1, 1], "chords": [[0, 1]]},
                                    {"counts": [1, 1], "chords": [[0, 1]]}]},
    "CUPCAP2": {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [2, 3]]}]},
    "THROUGH2": {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]}]},
}


# ------------------------------------------------------------- surface-hom

FORMATS = ("json", "csv", "pretty")
TWO_STRAND = tuple(itertools.product(("CUPCAP2", "THROUGH2"), repeat=2))
# Complexes whose refusal boundary is recorded in golden.json: the window
# (-depth .. 0) x (qmax - 4 .. qmax) is refused exactly when qmax reaches it.
REFUSAL_SLOTS = tuple(
    [("ANNULUS", "CORE", "CORE", d) for d in range(2, 8)]
    + [("ANNULUS2", "CORE2", "CORE2", d) for d in range(1, 4)]
    + [("SEAMED_DISK", "SEAMED_DISK_ARC", "SEAMED_DISK_ARC", d) for d in range(1, 6)]
)


def _windows(depth, qmins=(0,), qmaxs=(4, 6, 8), hmins=None):
    if hmins is None:
        hmins = sorted({-(depth - 1), -((depth - 1) // 2), 0})
    return [(h, qlo, qhi) for h in hmins for qlo in qmins for qhi in qmaxs]


def _hom_variants(formats=FORMATS, **window_args):
    def variants(slot):
        return [w + (f,) for w in _windows(slot[4], **window_args) for f in formats]
    return variants


def surface_job(kind, slot, variant):
    """slot: (command, spec, top, bottom, depth, seam); variant: (hmin, qmin, qmax, out)."""
    command, spec, top, bottom, depth, seam = slot
    hmin, qmin, qmax, out = variant
    words = command.split() + ["--spec", spec, "--t", top, "--s", bottom]
    if seam:
        words += ["--seam", seam]
    words += ["--depth", str(depth), "--hmin", str(hmin), "--hmax", "0",
              "--qmin", str(qmin), "--qmax", str(qmax), "--out", out]
    return Job(kind, " ".join(words), (words, (hmin, 0), (qmin, qmax)))


def refusal_slot_key(slot):
    spec, top, bottom, depth = slot
    return f"{spec} {top} {bottom} depth {depth}"


def _boundary_variants(refused):
    boundaries = load_golden()["boundaries"]

    def variants(slot):
        first_refused = boundaries[refusal_slot_key(slot)]
        qmax = first_refused if refused else first_refused - 1
        return [(-slot[3], qmax - 4, qmax, f) for f in FORMATS]
    return variants


def _boundary_job(kind, slot, variant):
    spec, top, bottom, depth = slot
    return surface_job(kind, ("surface hom", spec, top, bottom, depth, None), variant)


def surface_planners():
    def hom(spec, top, bottom, depths):
        return [("surface hom", spec, top, bottom, d, None) for d in depths]

    def coarsen(spec, tangle, seams, depths):
        return [("coarsen-check", spec, tangle, tangle, d, g) for g in seams for d in depths]

    two = [("surface hom", "ANNULUS", t, b, None, None) for t, b in TWO_STRAND]
    at_depth = lambda slots, d: [s[:4] + (d,) + s[5:] for s in slots]
    return [
        ("hom-annulus", 30, hom("ANNULUS", "CORE", "CORE", range(1, 11)), _hom_variants(),
         surface_job),
        ("hom-seamed-disk", 60, hom("SEAMED_DISK", "SEAMED_DISK_ARC", "SEAMED_DISK_ARC",
                                    range(1, 11)), _hom_variants(), surface_job),
        ("hom-annulus2", 6, hom("ANNULUS2", "CORE2", "CORE2", (1, 2, 3)),
         _hom_variants(qmaxs=(4, 8)), surface_job),
        # Many jobs of one build cost, near those of the depth-1 two-strand
        # jobs: the 90th percentile falls inside this band, not between
        # two sparse tail jobs.
        ("hom-annulus2-d4", 16, hom("ANNULUS2", "CORE2", "CORE2", (4,)),
         _hom_variants(qmins=(-2, 0)), surface_job),
        ("coarsen-annulus2", 8, coarsen("ANNULUS2", "CORE2", ("g1", "g2"), range(1, 5)),
         _hom_variants(formats=("json",), qmaxs=(4, 6)), surface_job),
        ("coarsen-seamed-disk", 7, coarsen("SEAMED_DISK", "SEAMED_DISK_ARC", ("g",),
                                           range(1, 8)),
         _hom_variants(formats=("json",), qmaxs=(4, 6)), surface_job),
        ("hom-2strand-d1", 8, at_depth(two, 1),
         _hom_variants(qmins=(-2, 0), qmaxs=(4, 6)), surface_job),
        ("hom-2strand-d2", 4, at_depth(two, 2),
         _hom_variants(formats=("json", "csv"), qmaxs=(4, 6), hmins=(-1, 0)), surface_job),
        ("hom-2strand-d3", 1, [("surface hom", "ANNULUS", "CUPCAP2", "THROUGH2", 3, None)],
         _hom_variants(formats=("json",), qmaxs=(4, 6), hmins=(-2, -1)), surface_job),
        ("refusal", 6, list(REFUSAL_SLOTS), _boundary_variants(True), _boundary_job),
        ("last-certified", 6, list(REFUSAL_SLOTS), _boundary_variants(False), _boundary_job),
    ]


def surface_pool():
    """Every job any seed can draw, by kind; golden.json records them all."""
    return [(kind, [make(kind, s, v) for s in slots for v in variants(s)])
            for kind, _count, slots, variants, make in surface_planners()]


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def inline(words):
    """The job's argv, with fixture names replaced by inline JSON."""
    return [json.dumps(FIXTURES[w]) if w in FIXTURES else w for w in words]


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def output_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def parse_betti(words, out):
    """Nonzero free ranks from a table printed by surface hom or coarsen-check."""
    fmt = words[words.index("--out") + 1]
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["source"]["betti"] if words[0] == "coarsen-check" else payload["betti"]
        return {(i, j): b for i, j, b in rows}
    found = {}
    for line in out.splitlines():
        if fmt == "csv" and line.startswith("surface hom,"):
            _cmd, i, j, b, _tor = line.split(",")
        elif fmt == "pretty" and ": rank " in line:
            cell, b = line.split(": rank ")
            i, j = (part.split("=")[1] for part in cell.split())
        else:
            continue
        if int(b):
            found[(int(i), int(j))] = int(b)
    return found


def setup_surface(jobs, seed, tick):
    from skeinhom import cli

    golden = load_golden()["jobs"]
    built = []
    surface_complex = cli.SurfaceComplex

    def capturing(*args, **kwargs):
        cx = surface_complex(*args, **kwargs)
        built.append(cx)
        return cx

    # Keep the complex the command builds, so its Betti numbers can be
    # re-derived after the timed call.
    cli.SurfaceComplex = capturing

    def make(job):
        words, h_range, q_range = job.params
        argv = inline(words)
        expect_code = 2 if job.kind == "refusal" else 0

        def run():
            built.clear()
            code, out, err = run_cli(cli, argv)
            return code, out, err, (built[0] if built else None)

        def check(result):
            code, out, err, cx = result
            if code != expect_code:
                return f"exit {code}, expected {expect_code}: {err.strip()[:300]}"
            recorded = golden.get(job.key)
            if recorded is None:
                return "no recorded output for this job"
            if [code, output_digest(out)] != recorded:
                return "output differs from the recorded output"
            if code == 2:
                return None if err.startswith("TruncationError") else f"refusal said {err!r}"
            derived = betti_by_elimination(cx.truncated, h_range, q_range)
            printed = parse_betti(words, out)
            if derived != printed:
                return f"printed ranks {printed}, elimination gives {derived}"
            return None

        return Op(job.kind, job.key, run, check, lambda r: f"{r[0]}\n{r[1]}")

    return [make(job) for job in jobs]


# ------------------------------------------------------------------- skein

MAX_COLOR = 4


def _colorings():
    """Admissible colorings (a, b, g1, g2) of TRI_ANNULUS with colors up to
    MAX_COLOR, at most one of them MAX_COLOR: with two, a single pairing
    can take seconds."""
    from skeinhom.spin import admissible_triple
    return [c for c in itertools.product(range(MAX_COLOR + 1), repeat=4)
            if admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])
            and c.count(MAX_COLOR) <= 1]


def skein_planners():
    from skeinhom.spin import admissible_triple

    triples = [t for t in itertools.product(range(MAX_COLOR + 1), repeat=3)
               if admissible_triple(*t)]
    colorings = _colorings()
    cross = [(x, y) for x, y in itertools.permutations(colorings, 2) if x[:2] == y[:2]]
    one = lambda v: lambda slot: [v]
    job = lambda kind, slot, v: Job(kind, f"{kind} {slot} {v}", (slot, v))
    return [
        ("theta", len(triples), triples, one(None), job),
        ("loop", 6, list(range(6)), one(None), job),
        ("pairing", len(colorings), colorings, one(None), job),
        ("cross-pairing", 10, cross, one(None), job),
        # A few orders: each builds an ANNULUS complex, the build path that
        # this workload leaves to surface-hom.
        ("crosscheck-annulus", 4, [("annulus", k) for k in range(4)], one(None), job),
        ("crosscheck-triangle", 10, [("triangle112", k) for k in range(25)], one(None), job),
    ]


def _q_integer(n):
    from skeinhom.homalg import LaurentPoly
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


def _theta_formula(a, b, c):
    from skeinhom.homalg import LaurentPoly
    from tests.oracles import theta_formula
    num, den = theta_formula(a, b, c)
    return LaurentPoly(num), LaurentPoly(den)


def _equals(value, num, den):
    """value == num / den, by cross-multiplication."""
    return value.num * den == value.den * num


def setup_skein(jobs, seed, tick):
    from skeinhom import spin
    from skeinhom.homalg import LaurentPoly
    from skeinhom.surface import SurfaceSpec

    surface = SurfaceSpec.from_data(FIXTURES["TRI_ANNULUS"])

    def network(coloring):
        return spin.SpinNetwork(surface, dict(zip(("a", "b", "g1", "g2"), coloring)))

    def rational(v):
        return f"{v.num} / {v.den}"

    def expected_pairing(c):
        num, den = LaurentPoly.one(), LaurentPoly.one()
        for triple in ((c[0], c[2], c[3]), (c[1], c[3], c[2])):
            n, d = _theta_formula(*triple)
            num, den = num * n, den * d
        for seam_color in c[2:]:
            den = den * _q_integer(seam_color + 1)
        return num, den

    def make(job):
        slot, v = job.params
        text = rational
        if job.kind == "theta":
            run = lambda: spin.theta(*slot)
            want = _theta_formula(*slot)
            check = lambda r: None if _equals(r, *want) else f"theta{slot} = {r}"
        elif job.kind == "loop":
            run = lambda: spin.loop(slot)
            want = (_q_integer(slot + 1), LaurentPoly.one())
            check = lambda r: None if _equals(r, *want) else f"loop({slot}) = {r}"
        elif job.kind == "pairing":
            net = network(slot)
            run = lambda: spin.pairing_prediction(net)
            want = expected_pairing(slot)
            check = lambda r: None if _equals(r, *want) else f"pairing{slot} = {r}"
        elif job.kind == "cross-pairing":
            nets = network(slot[0]), network(slot[1])
            run = lambda: spin.cross_pairing_prediction(*nets)
            check = lambda r: None if not r else f"distinct colorings {slot} pair to {r}"
        else:
            run = lambda: spin.euler_crosscheck(*slot)
            check = lambda r: None if r.ok else f"mismatches {r.mismatches}"
            text = lambda r: f"{r.lhs} | {r.rhs}"
        return Op(job.kind, job.key, run, check, text)

    return [make(job) for job in jobs]


# ---------------------------------------------------------------- homology

KNOWN_PROFILES = {"depth3": PROFILE_DEPTH3, "depth2": PROFILE_DEPTH2}
KNOWN_PER_PROFILE = 8
REAL_COMPLEXES = ("CUPCAP2", "THROUGH2")   # ANNULUS, tangle -> itself
REAL_DEPTH = 2


def _profile_windows(profile, h_lo):
    """Windows of varying width over a complex's nonzero quantum degrees."""
    qs = sorted({q for cells in profile.values() for q in cells})
    lo, hi = qs[0], qs[-1]
    mid = (lo + hi) // 2
    h_ranges = [(h_lo, 0), (h_lo + 1, 0), (h_lo, h_lo + 1)]
    q_ranges = [(lo, hi), (lo, mid), (mid, hi), (mid - 2, mid + 2), (lo, lo + 4),
                (hi - 4, hi), (mid - 4, mid)]
    return list(dict.fromkeys((h, q) for h in h_ranges for q in q_ranges if h[0] < h[1]))


def _cells(profile, h_lo):
    return [(h, q) for h in sorted(profile) if h >= h_lo for q in sorted(profile[h])]


def homology_planners():
    """Slots fix what a query costs (which window or cell, of which profile,
    with which threads); the seed draws which complex of the group it asks."""
    groups = {name: [f"{name}-{i}" for i in range(KNOWN_PER_PROFILE)]
              for name in KNOWN_PROFILES}
    # The real complexes are depth-2 builds, with the quantum degrees of
    # PROFILE_DEPTH2; every q is certified from degree 1 - REAL_DEPTH up.
    groups["real"] = list(REAL_COMPLEXES)
    shapes = {name: (p, min(p)) for name, p in KNOWN_PROFILES.items()}
    shapes["real"] = (PROFILE_DEPTH2, 1 - REAL_DEPTH)

    def tables(names):
        return [(g, w, t) for g in names for w in _profile_windows(*shapes[g])
                for t in (None, 2)]

    def cells(names):
        return [(g, c) for g in names for c in _cells(*shapes[g])]

    members = lambda slot: groups[slot[0]]
    job = lambda kind, slot, v: Job(kind, f"{kind} {v} {slot[1:]}", (v,) + slot[1:])
    known = list(KNOWN_PROFILES)
    return [
        ("table-known", 3 * len(tables(known)), tables(known), members, job),
        # One cell per known cell slot: with more of these sub-millisecond
        # queries the median falls in the gap between cells and the cheapest
        # tables, where it jumps from run to run.
        ("cell-known", len(cells(known)), cells(known), members, job),
        ("table-real", 2 * len(tables(["real"])), tables(["real"]), members, job),
        ("cell-real", 2 * len(cells(["real"])), cells(["real"]), members, job),
    ]


def build_real_complexes(tick=lambda: None):
    from skeinhom.surface import SurfaceComplex, SurfaceSpec, SurfaceTangle

    spec = SurfaceSpec.from_data(FIXTURES["ANNULUS"])
    out = {}
    for name in REAL_COMPLEXES:
        tangle = SurfaceTangle.from_data(FIXTURES[name])
        out[name] = SurfaceComplex(spec, tangle, tangle, depth=REAL_DEPTH).truncated
        tick()
    return out


def table_text(hom):
    return json.dumps([list(r) for r in hom.rows()])


def real_golden_key(name, query):
    """golden.json's key for a table window ((h_lo, h_hi), (q_lo, q_hi)) or
    a cell (i, j) of a real complex; threads do not change the answer."""
    return f"{name} {query}"


def real_homology_pool():
    """Every (complex, table window or cell) any seed can ask of a real
    complex; golden.json records their answers."""
    out = []
    for kind, _count, slots, _members, _make in homology_planners():
        if kind.endswith("-real"):
            out.extend((name, kind, slot[1]) for slot in dict.fromkeys(s[:2] for s in slots)
                       for name in REAL_COMPLEXES)
    return out


def real_homology_text(cx, kind, query):
    """The answer to one query on a real complex, as golden.json stores it."""
    if kind == "table-real":
        return table_text(cx.homology(*query))
    return repr(cx.homology_at(*query))


def setup_homology(jobs, seed, tick):
    complexes = {}
    for profile_name, profile in KNOWN_PROFILES.items():
        for i in range(KNOWN_PER_PROFILE):
            name = f"{profile_name}-{i}"
            complexes[name] = known_answer_complex(random.Random(f"{seed}:{name}"), profile)
            tick()
    for name, cx in build_real_complexes(tick).items():
        complexes[name] = (cx, None, None)
    recorded = load_golden()["homology"]

    def make(job):
        cx, betti, torsion = complexes[job.params[0]]
        if job.kind.startswith("table"):
            name, (h_range, q_range), threads = job.params
            run = lambda: cx.homology(h_range, q_range, threads=threads)

            def check(hom):
                if betti is None:
                    want = recorded[real_golden_key(name, (h_range, q_range))]
                    if table_text(hom) != want:
                        return f"got {table_text(hom)}, recorded {want}"
                    want_b, want_t = betti_by_elimination(cx, h_range, q_range), hom.torsion
                else:
                    inside = lambda c: (h_range[0] <= c[0] <= h_range[1]
                                        and q_range[0] <= c[1] <= q_range[1])
                    want_b = {c: b for c, b in betti.items() if inside(c)}
                    want_t = {c: t for c, t in torsion.items() if inside(c)}
                if hom.betti != want_b or hom.torsion != want_t:
                    return f"got {hom.betti} {hom.torsion}, expected {want_b} {want_t}"
                return None

            return Op(job.kind, job.key, run, check, table_text)

        name, (i, j) = job.params
        run = lambda: cx.homology_at(i, j)

        def check(result):
            if betti is None:
                recorded_text = recorded[real_golden_key(name, (i, j))]
                if repr(result) != recorded_text:
                    return f"H({i}, {j}) = {result}, recorded {recorded_text}"
                want = (betti_by_elimination(cx, (i, i), (j, j)).get((i, j), 0), result[1])
            else:
                want = (betti.get((i, j), 0), torsion.get((i, j), ()))
            return None if result == want else f"H({i}, {j}) = {result}, expected {want}"

        return Op(job.kind, job.key, run, check, repr)

    return [make(job) for job in jobs]


PLANNERS = {"surface-hom": surface_planners, "skein": skein_planners,
            "homology": homology_planners}
SETUPS = {"surface-hom": setup_surface, "skein": setup_skein, "homology": setup_homology}
