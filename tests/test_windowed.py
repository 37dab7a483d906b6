"""Windowed surface builds against full ones.

A SurfaceComplex built with q_range holds only the q-strands of its window:
the word tuples whose objects can reach it, and of their generators those
inside it.  The full build (q_range=None) is the oracle: on every cell of
the window the two give the same homology, or refuse with the same message.
"""

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom import cli, memo, surface
from skeinhom.barproj import TwistedTangleComplex, bar_ends, twisted_cone, word_ends
from skeinhom.errors import InvalidBoundary, SpecError, TruncationError, WindowError
from skeinhom.homalg import ChainMap, LaurentPoly, TruncatedComplex
from skeinhom.surface import (SurfaceComplex, SurfaceElement, coarsen, compose, h0,
                              identity_unit, symmetrized_pairing, transfer)

from skeinhom.tqft import identity_state

from .test_golden import FIXTURES
from .test_surface import (ANNULUS, ANNULUS2, CORE, CORE2, CUPCAP2, SEAMED_DISK,
                           SEAMED_DISK_ARC, THROUGH2, complex_digest)

CASES = {
    "ANNULUS CORE CORE": (ANNULUS, CORE, CORE),
    "ANNULUS2 CORE2 CORE2": (ANNULUS2, CORE2, CORE2),
    "SEAMED_DISK SEAMED_DISK_ARC SEAMED_DISK_ARC": (SEAMED_DISK, SEAMED_DISK_ARC, SEAMED_DISK_ARC),
    "ANNULUS CUPCAP2 CUPCAP2": (ANNULUS, CUPCAP2, CUPCAP2),
    "ANNULUS CUPCAP2 THROUGH2": (ANNULUS, CUPCAP2, THROUGH2),
    "ANNULUS THROUGH2 CUPCAP2": (ANNULUS, THROUGH2, CUPCAP2),
    "ANNULUS THROUGH2 THROUGH2": (ANNULUS, THROUGH2, THROUGH2),
}
SMALL = tuple(CASES)[:3]


@functools.lru_cache(maxsize=None)
def full_build(name, depth):
    return SurfaceComplex(*CASES[name], depth=depth)


def windowed(name, depth, q_range):
    return SurfaceComplex(*CASES[name], depth=depth, q_range=q_range)


def cell(cx, i, j):
    try:
        return cx.truncated.homology_at(i, j)
    except TruncationError as exc:
        return "refused", str(exc)


def certified_span(cx):
    """A q-range holding every generator of cx and the first refused cell."""
    grades = [q for gens in cx.truncated.generators.values() for _, q in gens]
    bound = cx.truncated.min_q_at(cx.truncated.h_min - 1)
    return min(grades) - 1, max(grades + [bound]) + 1


def assert_window_matches(full, cx):
    qmin, qmax = cx.truncated.q_range
    for i in range(full.truncated.h_min - 1, 2):
        for j in range(qmin, qmax + 1):
            assert cell(cx, i, j) == cell(full, i, j), (i, j)


class TestEquality:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", tuple(CASES))
    def test_every_certified_cell(self, name, depth):
        full = full_build(name, depth)
        lo, hi = certified_span(full)
        # two windows that share no cell and together hold every certified one
        low = windowed(name, depth, (lo, (lo + hi) // 2))
        assert_window_matches(full, low)
        assert_window_matches(full, windowed(name, depth, ((lo + hi) // 2 + 1, hi)))
        # the certificate is the full build's, floor over all its tangles included
        assert low.twisted.floor_tangles == full.twisted.floor_tangles
        assert low.twisted.certificate == full.twisted.certificate
        assert low.truncated.certificate == full.truncated.certificate
        # the kept word tuples are a subcomplex of the full one, in its order
        for h, mws in low.multiwords.items():
            assert set(mws) <= set(full.multiwords[h])
            assert sorted(mws, key=full.index[h].get) == list(mws)
        rings = tuple(full.rings[n] for n in full.seam_names)
        assert bar_ends(rings, depth, full.reduced) == {
            word_ends(mw) for mws in full.multiwords.values() for mw in mws}

    @pytest.mark.parametrize("name", SMALL)
    def test_every_certified_cell_at_depth_five(self, name):
        full = full_build(name, 5)
        lo, hi = certified_span(full)
        for q in range(lo, hi + 1):
            assert_window_matches(full, windowed(name, 5, (q, q)))

    def test_default_window_at_depth_five(self):
        # the full depth-5 build of each two-strand annulus complex takes
        # 1.5-2.2 s; the one the command-line default window is timed on
        # stands for the four
        name = "ANNULUS CUPCAP2 THROUGH2"
        full = SurfaceComplex(*CASES[name], depth=5)
        cx = windowed(name, 5, (0, 8))
        assert_window_matches(full, cx)
        assert sum(map(len, cx.truncated.generators.values())) * 10 < \
            sum(map(len, full.truncated.generators.values()))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(tuple(CASES)), st.integers(1, 3), st.integers(-6, 12),
           st.integers(0, 5))
    def test_any_window(self, name, depth, qmin, width):
        assert_window_matches(full_build(name, depth), windowed(name, depth, (qmin, qmin + width)))

    def test_h0_and_pairing_build_their_window(self):
        full = full_build("ANNULUS CUPCAP2 THROUGH2", 1)
        for q in range(-4, 8):
            assert h0(ANNULUS, CUPCAP2, THROUGH2, q) == full.truncated.homology_at(0, q)[0]
        full = full_build("ANNULUS THROUGH2 CUPCAP2", 2)
        window = ((-1, 0), (-2, 6))
        assert symmetrized_pairing(ANNULUS, THROUGH2, CUPCAP2, *window) == full.homology(*window)

    def test_full_builds_read_one_entry_per_letter(self, monkeypatch):
        # end faces are kept for the life of the process; start from none
        memo._forget()
        calls = []
        real = surface.juxtaposed
        monkeypatch.setattr(surface, "juxtaposed", lambda fs: calls.append(1) or real(fs))
        cx = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=3)
        end_faces = sum(2 for mws in cx.multiwords.values() for mw in mws
                        for _objs, letters in mw if letters)
        # an end face depends only on the word ends, the seam, the side,
        # the new end object and the letter absorbed
        keys = set()
        for mws in cx.multiwords.values():
            for mw in mws:
                ends = word_ends(mw)
                for g, (objs, letters) in enumerate(mw):
                    if letters:
                        keys.add((ends, g, -1, objs[1], letters[0]))
                        keys.add((ends, g, 1, objs[-2], letters[-1]))
        assert len(calls) == len(keys) < end_faces / 3
        assert complex_digest(cx.truncated) == "efbd5f3c983f4692"
        # a second build of the same complex builds no face
        again = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=3)
        assert len(calls) == len(keys)
        assert complex_digest(again.truncated) == "efbd5f3c983f4692"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class TestRefusals:
    @pytest.mark.parametrize("name,depth", [
        ("ANNULUS CORE CORE", 3), ("ANNULUS2 CORE2 CORE2", 2),
        ("SEAMED_DISK SEAMED_DISK_ARC SEAMED_DISK_ARC", 3), ("ANNULUS CUPCAP2 THROUGH2", 2),
        ("ANNULUS THROUGH2 THROUGH2", 3),
    ])
    def test_one_cell_past_the_certificate(self, name, depth):
        full = full_build(name, depth)
        bound = full.truncated.min_q_at(-depth - 1)
        spec, top, bottom = name.split()
        for qmax in (bound - 1, bound):
            window = ((-depth, 0), (qmax - 4, qmax))
            code, out, err = run_cli(
                ["surface", "hom", "--spec", json.dumps(FIXTURES[spec]),
                 "--t", json.dumps(FIXTURES[top]), "--s", json.dumps(FIXTURES[bottom]),
                 "--depth", str(depth), "--hmin", str(-depth), "--hmax", "0",
                 "--qmin", str(qmax - 4), "--qmax", str(qmax)])
            if qmax < bound:
                hom = full.homology(*window)
                assert code == 0
                assert json.loads(out)["betti"] == [[i, j, b] for (i, j), b in
                                                    sorted(hom.betti.items())]
                continue
            with pytest.raises(TruncationError) as refused:
                full.homology(*window)
            assert f"q={bound})" in str(refused.value)
            assert (code, out, err) == (2, "", f"TruncationError: {refused.value}\n")

    @pytest.mark.parametrize("q_range", [(None, 10), (0, None), (0.0, 4), (0, True), (0,),
                                         (0, 4, 8), "04", 4])
    def test_window_ends_must_be_integers(self, q_range):
        with pytest.raises(SpecError) as refused:
            SurfaceComplex(ANNULUS, CORE, CORE, depth=2, q_range=q_range)
        assert str(refused.value) == f"q_range must be a pair of integers, got {q_range!r}"


class TestMisuse:
    """A windowed complex refuses everything that needs the whole complex."""

    WINDOW = r"q-window \[0, 4\]"

    @pytest.fixture(scope="class")
    def complexes(self):
        return {
            "full": SurfaceComplex(ANNULUS, CORE, CORE, depth=2),
            "windowed": SurfaceComplex(ANNULUS, CORE, CORE, depth=2, q_range=(0, 4)),
            "full2": SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2),
            "windowed2": SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2, q_range=(0, 4)),
        }

    def test_basis_elements(self, complexes):
        with pytest.raises(WindowError, match=self.WINDOW):
            complexes["windowed"].basis_elements(0)

    def test_differential(self, complexes):
        # no element reaches it: the windowed complex owns none, and another
        # complex's element is refused
        windowed = complexes["windowed"]
        with pytest.raises(WindowError, match=self.WINDOW):
            windowed.differential(SurfaceElement(windowed, 0, {}))
        with pytest.raises(InvalidBoundary, match="does not live in this complex"):
            windowed.differential(identity_unit(complexes["full"]))

    def test_identity_unit(self, complexes):
        with pytest.raises(WindowError, match=self.WINDOW):
            identity_unit(complexes["windowed"])

    def test_element_constructor(self, complexes):
        with pytest.raises(WindowError, match=self.WINDOW):
            SurfaceElement(complexes["windowed"], 0, {})

    def test_compose(self, complexes):
        unit = identity_unit(complexes["full"])
        with pytest.raises(WindowError, match=self.WINDOW):
            compose(unit, unit, target=complexes["windowed"])

    def test_transfer(self, complexes):
        full2 = complexes["full2"]
        target, cmap = coarsen(full2, "g1")
        narrow = SurfaceComplex(target.spec, target.top, target.bottom, target.depth,
                                q_range=(0, 4))
        with pytest.raises(WindowError, match=self.WINDOW):
            transfer(identity_unit(full2), cmap, narrow)

    def test_coarsen(self, complexes):
        with pytest.raises(WindowError, match=self.WINDOW):
            coarsen(complexes["windowed2"], "g1")

    def test_homology_outside_the_window(self, complexes):
        cx = complexes["windowed"]
        assert cx.homology((-1, 0), (1, 3)) == complexes["full"].homology((-1, 0), (1, 3))
        with pytest.raises(WindowError, match=self.WINDOW):
            cx.homology((-1, 0), (0, 6))

    def test_integer_complex_outside_the_window(self):
        # the strands held answer inside the window; any query that reaches
        # past it, or needs every strand, is refused rather than partial
        full = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2).truncated
        t = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2, q_range=(-4, 0)).truncated
        assert t.homology((-2, 0), (-4, 0)) == full.homology((-2, 0), (-4, 0))
        assert t.euler_series((-4, 0)) == full.euler_series((-4, 0)) != 0
        assert t.min_q_at(-3) == full.min_q_at(-3)
        window = r"q-window \[-4, 0\]"
        for query in (lambda: t.homology_at(0, 1), lambda: t.homology((-2, 0), (-5, -1)),
                      lambda: t.min_q_at(0), lambda: t.euler_series((-4, 1))):
            with pytest.raises(WindowError, match=window):
                query()
        with pytest.raises(WindowError, match=r"q-window \[-3, 1\]"):
            t.shifted(dq=1).homology_at(0, -4)
        cone = ChainMap(t, t, {h: {(j, j): 1 for j in range(len(gens))}
                               for h, gens in t.generators.items()}).cone()
        assert cone.q_range == (-4, 0)
        assert cone.homology((-2, 0), (-4, 0)).betti == {}


class TestTwistedWindow:
    """The twisted complex of a windowed build holds every object up to a
    largest shift, qmax minus the hom floor, and refuses what needs more."""

    @pytest.fixture(scope="class")
    def builds(self):
        return (SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2),
                SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2, q_range=(-4, -2)))

    def test_k0_series_past_the_max_shift(self, builds):
        full, cx = builds
        T = full.twisted.objects[0][0][0]
        assert (cx.twisted.q_range, full.twisted.q_range) == ((None, -2), None)
        assert full.twisted.k0_series(T, (-10, 0)) == LaurentPoly({-2: 1, 0: -1})
        assert cx.twisted.k0_series(T, (-10, -2)) == LaurentPoly({-2: 1})
        with pytest.raises(WindowError, match=r"q-window \(-inf, -2\]"):
            cx.twisted.k0_series(T, (-10, 0))

    def test_hom_complex_off_a_covered_window(self, builds):
        # with no window it would hold 10 of the 282 generators and answer
        # H^{0,1} = 4 and H^{-1,3} = 0
        full, cx = builds
        hom = full.twisted.hom_complex(full.z_jux)
        assert (hom.homology_at(0, 1), hom.homology_at(-1, 3)) == ((2, ()), (1, (2,)))
        for q_range in (None, (-4, 0), (0, 4)):
            with pytest.raises(WindowError, match=r"q-window \(-inf, -2\]"):
                cx.twisted.hom_complex(cx.z_jux, q_range)

    def test_covered_window_equals_the_full_build(self, builds):
        full, cx = builds
        hom = cx.twisted.hom_complex(cx.z_jux, (-6, -2))
        window = ((-2, 0), (-6, -2))
        assert hom.homology(*window) == full.truncated.homology(*window)
        assert hom.euler_series((-6, -2)) == full.truncated.euler_series((-6, -2))
        assert hom.certificate == full.truncated.certificate

    def test_shifts_and_cones_keep_the_bound(self, builds):
        _full, cx = builds
        tw = cx.twisted
        moved = tw.shifted(dh=1, dq=3)
        assert (moved.q_range, moved.floor_tangles) == ((None, 1), tw.floor_tangles)
        with pytest.raises(WindowError, match=r"q-window \(-inf, 1\]"):
            moved.hom_complex(cx.z_jux)
        ident = {h: {(j, j): identity_state(T) for j, (T, _s) in enumerate(obs)}
                 for h, obs in tw.objects.items()}
        cone = twisted_cone(tw, tw, ident)
        assert (cone.q_range, cone.floor_tangles) == ((None, -2), tw.floor_tangles)
        with pytest.raises(WindowError, match=r"q-window \(-inf, -2\]"):
            cone.hom_complex(cx.z_jux)


INF = float("inf")
END = st.one_of(st.none(), st.integers(-8, 8))
WINDOW = st.one_of(st.none(), st.tuples(END, END))


def extended(lo, hi):
    """(lo, hi) with None ends read as -inf and inf."""
    return (-INF if lo is None else lo, INF if hi is None else hi)


def holds(window, j1, j2):
    """Whether a complex with q_range window holds every q from j1 to j2."""
    a, b = extended(j1, j2)
    lo, hi = extended(*(window or (None, None)))
    return a > b or lo <= a and b <= hi


def met(w1, w2):
    """The intersection of two q-windows, each None for every degree."""
    ends = [extended(*w) for w in (w1, w2) if w is not None]
    if not ends:
        return None
    lo, hi = max(e[0] for e in ends), min(e[1] for e in ends)
    return (None if lo == -INF else lo, None if hi == INF else hi)


@functools.lru_cache(maxsize=None)
def twisted_builds():
    """The twisted complexes of the full and the (-4, -2)-windowed builds
    of ANNULUS CUPCAP2 -> THROUGH2 at depth 2, and the windowed build."""
    cx = windowed("ANNULUS CUPCAP2 THROUGH2", 2, (-4, -2))
    return full_build("ANNULUS CUPCAP2 THROUGH2", 2).twisted, cx.twisted, cx


def with_window(kind, window):
    """A complex of the given kind holding the q-window window."""
    if kind == "integer":
        return TruncatedComplex(
            {-1: (("a", 0), ("b", 2)), 0: (("c", 0), ("d", 2), ("e", 4))},
            {-1: {(0, 0): 1, (1, 1): 2}}, q_range=window)
    _full, tw, _cx = twisted_builds()
    return TwistedTangleComplex(tw.objects, tw.differentials, tw.h_min, tw.h_max, tw.complete,
                                tw.certificate, floor_tangles=tw.floor_tangles,
                                q_range=window)


def outcome(query, *args):
    """What query(*args) answers, or the TruncationError it raises."""
    try:
        return query(*args)
    except TruncationError as exc:
        return "refused", str(exc)


def refuses(cx, j1, j2):
    try:
        cx.require_window("probe", j1, j2)
    except WindowError as exc:
        lo, hi = cx.q_range
        assert str(exc).startswith("probe needs ")
        assert str(exc).endswith(f"q-window {'(-inf' if lo is None else f'[{lo}'}, "
                                 f"{'inf)' if hi is None else f'{hi}]'}")
        return True
    return False


class TestOneWindow:
    """One q-window per complex, SparseComplex.q_range, with closed or open
    ends, and one guard, SparseComplex.require_window."""

    KINDS = st.sampled_from(("integer", "twisted"))

    @settings(max_examples=200, deadline=None)
    @given(KINDS, WINDOW, END, END)
    def test_guard_refuses_exactly_the_ranges_off_the_window(self, kind, window, j1, j2):
        assert refuses(with_window(kind, window), j1, j2) == (not holds(window, j1, j2))

    @settings(max_examples=100, deadline=None)
    @given(KINDS, WINDOW, st.integers(-2, 2), st.integers(-5, 5), END, END)
    def test_shift_moves_both_ends(self, kind, window, dh, dq, j1, j2):
        cx = with_window(kind, window)
        moved = cx.shifted(dh=dh, dq=dq)
        assert moved.q_range == (None if window is None else
                                 tuple(None if e is None else e + dq for e in window))
        up = [None if j is None else j + dq for j in (j1, j2)]
        assert refuses(moved, *up) == refuses(cx, j1, j2)

    @settings(max_examples=100, deadline=None)
    @given(KINDS, WINDOW, WINDOW)
    def test_a_cone_holds_the_meet(self, kind, w1, w2):
        a, b = with_window(kind, w1), with_window(kind, w2)
        cone = ChainMap(a, b, {}).cone() if kind == "integer" else twisted_cone(a, b, {})
        assert cone.q_range == met(w1, w2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-12, 4), st.integers(-12, 4))
    def test_windowed_build_refuses_what_the_full_build_answers(self, j1, j2):
        # the twisted complex holds every object of shift at most -2, and
        # the hom floor from the closure is 0
        full, tw, cx = twisted_builds()
        assert tw.q_range == (None, -2) and tw._hom_floor(cx.z_jux) == 0
        T = full.objects[0][0][0]
        if j1 <= j2 and j2 > -2:
            with pytest.raises(WindowError, match=r"k0_series needs q \[.*q-window \(-inf, -2\]"):
                tw.k0_series(T, (j1, j2))
        else:
            assert outcome(tw.k0_series, T, (j1, j2)) == outcome(full.k0_series, T, (j1, j2))
        if j1 <= j2:
            if j2 > -2:
                with pytest.raises(WindowError, match=r"hom_complex needs q \(-inf, "):
                    tw.hom_complex(cx.z_jux, (j1, j2))
            else:
                assert tw.hom_complex(cx.z_jux, (j1, j2)).q_range == (j1, j2)
        with pytest.raises(WindowError, match="hom_complex needs every quantum degree"):
            tw.hom_complex(cx.z_jux)
