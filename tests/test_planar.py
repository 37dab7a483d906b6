import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinhom.errors import InvalidBoundary, OpenBoundary
from skeinhom.planar import (
    ClosedDiagram,
    PlanarTangle,
    bend_down,
    bend_up,
    compose,
    cup_over_cap,
    enumerate_matchings,
    identity_tangle,
    juxtapose,
    juxtaposition_points,
    stacking_points,
)

from .oracles import (brute_force_matchings, catalan, compose_by_encoded_walk,
                      count_circles_union_find, surger)


def from_stack(layers):
    """Glue a vertical stack of tangles; the stack must be closed."""
    if not layers or layers[0].bottom != 0 or layers[-1].top != 0:
        raise OpenBoundary("stack is not closed top and bottom")
    glue = {}
    for i in range(len(layers) - 1):
        if layers[i].top != layers[i + 1].bottom:
            raise OpenBoundary(
                f"layer {i} top has {layers[i].top} points, layer {i + 1} bottom {layers[i + 1].bottom}"
            )
        for p in range(layers[i].top):
            glue[(i, "t", p)] = (i + 1, "b", p)
            glue[(i + 1, "b", p)] = (i, "t", p)
    return ClosedDiagram.from_instances(dict(enumerate(layers)), glue)


E = cup_over_cap(2)
ID1 = identity_tangle(1)
ID2 = identity_tangle(2)
CUPS = PlanarTangle(0, 4, (1, 0, 3, 2))
CAPS = PlanarTangle(4, 0, (1, 0, 3, 2))


def small_splits(max_k=4):
    for m in range(2 * max_k + 1):
        for n in range(2 * max_k + 1 - m):
            if (m + n) % 2 == 0:
                yield m, n


def small_tangles(max_points=6):
    pool = []
    for m, n in small_splits():
        if 0 < m + n <= max_points:
            pool.extend(enumerate_matchings(m, n))
    return pool


tangle_strategy = st.sampled_from(small_tangles())


class TestValidation:
    def test_hash_is_the_field_hash(self):
        # cached at construction; repr, equality and order keys stay field-based
        for t in small_tangles() + [E.with_circles(2), CAPS.with_circles(1)]:
            assert hash(t) == hash((t.bottom, t.top, t.partner, t.circles))
            twin = PlanarTangle(t.bottom, t.top, t.partner, t.circles)
            assert twin == t and hash(twin) == hash(t) and twin is not t
            assert repr(t) == (f"PlanarTangle(bottom={t.bottom}, top={t.top}, "
                               f"partner={t.partner}, circles={t.circles})")
        assert E != E.with_circles(1)

    def test_rejects_crossing_chords(self):
        with pytest.raises(InvalidBoundary):
            PlanarTangle(4, 0, (2, 3, 0, 1))

    def test_rejects_fixed_points(self):
        with pytest.raises(InvalidBoundary):
            PlanarTangle(2, 0, (0, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidBoundary):
            PlanarTangle(2, 1, (1, 0))

    def test_identity_strands_do_not_cross(self):
        # vertical strands interleave in the point indexing but not on the
        # boundary circle
        assert identity_tangle(3).partner == (3, 4, 5, 0, 1, 2)

    def test_cup_over_cap_needs_an_even_strand_count(self):
        with pytest.raises(InvalidBoundary, match="^cup_over_cap needs an even strand count$"):
            cup_over_cap(3)

    def test_rejects_negative_circles(self):
        with pytest.raises(InvalidBoundary):
            PlanarTangle(2, 0, (1, 0), circles=-1)

    @pytest.mark.parametrize("bottom,top", [(-1, 1), (1, -1)])
    def test_rejects_negative_edge_sizes(self, bottom, top):
        with pytest.raises(InvalidBoundary,
                           match=rf"^negative edge size: bottom {bottom}, top {top}$"):
            PlanarTangle(bottom, top, ())


class TestEnumeration:
    @pytest.mark.parametrize("m,n", list(small_splits(3)))
    def test_counts_match_brute_force(self, m, n):
        ours = enumerate_matchings(m, n)
        ref = brute_force_matchings(m, n)
        assert len(ours) == len(ref) == catalan((m + n) // 2)
        as_sets = {frozenset(frozenset(c) for c in t.chords) for t in ours}
        assert as_sets == set(ref)

    def test_odd_point_count_is_empty(self):
        assert enumerate_matchings(2, 1) == ()

    @pytest.mark.parametrize("m,n", [(-1, 3), (-1, 1), (2, -2)])
    def test_negative_split_refused_as_planar_tangle_refuses_it(self, m, n):
        with pytest.raises(InvalidBoundary, match=rf"^negative edge size: bottom {m}, top {n}$"):
            enumerate_matchings(m, n)
        with pytest.raises(InvalidBoundary, match=rf"^negative edge size: bottom {m}, top {n}$"):
            PlanarTangle(m, n, ())

    def test_closed_form_catalan(self):
        assert [catalan(k) for k in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        assert len(enumerate_matchings(8, 8)) == catalan(8)

    def test_two_two_ring_objects(self):
        assert enumerate_matchings(2, 2) == (E, ID2)

    def test_deterministic_order(self):
        listed = enumerate_matchings(3, 3)
        assert listed == tuple(sorted(listed, key=lambda t: t.partner))


class TestCompose:
    def test_cups_then_caps_gives_two_circles(self):
        out = compose(CAPS, CUPS)
        assert out.points == 0 and out.circles == 2

    def test_nested_cup_against_caps_gives_one_circle(self):
        nested = PlanarTangle(0, 4, (3, 2, 1, 0))
        assert compose(CAPS, nested).circles == 1

    def test_cupcap_squares_to_itself_plus_circle(self):
        out = compose(E, E)
        assert out.strip_circles() == E
        assert out.circles == 1

    def test_identity_neutral(self):
        for t in small_tangles():
            assert compose(identity_tangle(t.top), t) == t
            assert compose(t, identity_tangle(t.bottom)) == t

    def test_boundary_mismatch(self):
        with pytest.raises(InvalidBoundary):
            compose(ID2, ID1)

    def test_associative_with_circles(self):
        pool = enumerate_matchings(2, 2)
        for a, b, c in itertools.product(pool, repeat=3):
            assert compose(a, compose(b, c)) == compose(compose(a, b), c)

    def test_circles_carried_through(self):
        assert compose(E.with_circles(1), E.with_circles(2)).circles == 4


def composable_pair(data, max_points=8, closable=False):
    """A lower (m, k)- and an upper (k, n)-matching, each edge at most
    max_points points, each factor carrying 0-2 free circles; closable
    makes m and n even, so that cups below and caps above close the stack."""
    k = data.draw(st.integers(0, max_points // 2)) * 2 if closable else \
        data.draw(st.integers(0, max_points))
    m = data.draw(st.integers(0, max_points).filter(lambda v: (v + k) % 2 == 0))
    n = data.draw(st.integers(0, max_points).filter(lambda v: (v + k) % 2 == 0))
    lower = data.draw(st.sampled_from(enumerate_matchings(m, k)))
    upper = data.draw(st.sampled_from(enumerate_matchings(k, n)))
    return (upper.with_circles(data.draw(st.integers(0, 2))),
            lower.with_circles(data.draw(st.integers(0, 2))))


class TestComposeOracle:
    """compose walks integer point indices; the first version, which
    walked tuple encodings through closures, is the oracle."""

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_encoded_walk(self, data):
        upper, lower = composable_pair(data)
        out, ref = compose(upper, lower), compose_by_encoded_walk(upper, lower)
        assert (out.bottom, out.top, out.partner, out.circles) == \
            (ref.bottom, ref.top, ref.partner, ref.circles)

    @given(st.data())
    @settings(max_examples=200)
    def test_closed_stack_counts_circles_as_union_find(self, data):
        upper, lower = composable_pair(data, closable=True)
        cups = data.draw(st.sampled_from(enumerate_matchings(0, lower.bottom)))
        caps = data.draw(st.sampled_from(enumerate_matchings(upper.top, 0)))
        closed = compose(caps, compose(upper, compose(lower, cups)))
        assert closed.points == 0
        assert closed.circles == count_circles_union_find([cups, lower, upper, caps])


class TestPointMaps:
    """Where a factor's boundary points land in a juxtaposition or a stack
    is planar's to say; the maps must agree with the tangles built."""

    @given(st.data())
    @settings(max_examples=200)
    def test_juxtaposition_points_carry_every_chord(self, data):
        factors = [t for _ in range(data.draw(st.integers(0, 3)))
                   for t in composable_pair(data, max_points=4)]
        whole = juxtapose(*factors)
        images = juxtaposition_points(factors)
        assert sorted(g for image in images for g in image) == list(range(whole.points))
        for t, image in zip(factors, images):
            assert [g < whole.bottom for g in image] == [p < t.bottom for p in range(t.points)]
            assert all(whole.partner[image[p]] == image[q] for p, q in enumerate(t.partner))
        assert whole.circles == sum(t.circles for t in factors)

    @given(st.data())
    @settings(max_examples=200)
    def test_stacking_points_carry_chords_off_the_interface(self, data):
        upper, lower = composable_pair(data)
        whole = compose(upper, lower)
        lo, up = stacking_points(upper, lower)
        assert sorted(g for g in lo + up if g is not None) == list(range(whole.points))
        # lower keeps the bottom edge, upper the top; the rest is glued
        assert [g is None for g in lo] == [p >= lower.bottom for p in range(lower.points)]
        assert [g is None for g in up] == [p < upper.bottom for p in range(upper.points)]
        assert all(g < whole.bottom for g in lo if g is not None)
        assert all(g >= whole.bottom for g in up if g is not None)
        for t, image in ((lower, lo), (upper, up)):
            for p, q in enumerate(t.partner):
                if image[p] is not None and image[q] is not None:
                    assert whole.partner[image[p]] == image[q]

    def test_stacking_points_refuse_mismatched_edges(self):
        with pytest.raises(InvalidBoundary, match="cannot glue"):
            stacking_points(ID2, ID1)


class TestSymmetries:
    @given(tangle_strategy)
    def test_reflections_are_involutions(self, t):
        assert t.reflect_x().reflect_x() == t
        assert t.reflect_y().reflect_y() == t

    @given(tangle_strategy)
    def test_reflections_commute(self, t):
        assert t.reflect_x().reflect_y() == t.reflect_y().reflect_x()

    @given(tangle_strategy, tangle_strategy)
    @settings(max_examples=40)
    def test_reflect_y_reverses_composition(self, a, b):
        if a.bottom != b.top:
            return
        assert compose(a, b).reflect_y() == compose(b.reflect_y(), a.reflect_y())

    def test_reflect_x_permutes_enumeration(self):
        pool = set(enumerate_matchings(3, 3))
        assert {t.reflect_x() for t in pool} == pool


class TestBending:
    def test_bend_identity_strand_pair(self):
        assert bend_down(ID1) == PlanarTangle(2, 0, (1, 0))
        assert bend_up(ID1) == PlanarTangle(0, 2, (1, 0))

    def test_bend_down_identity_two(self):
        assert bend_down(ID2).partner == (3, 2, 1, 0)

    def test_bends_preserve_validity(self):
        for t in small_tangles():
            bend_down(t)
            bend_up(t)

    def test_juxtapose_identities(self):
        assert juxtapose(ID1, ID1) == ID2


def matchings_up_to(points):
    """Every minimal tangle with at most points boundary points."""
    return [t for k in range(0, points + 1, 2) for m in range(k + 1)
            for t in enumerate_matchings(m, k - m)]


def rebuilt(t):
    """t run through every check of the validating constructor, the full
    noncrossing scan among them, which tangles derived from checked ones
    skip."""
    assert t._noncrossing()
    twin = PlanarTangle(t.bottom, t.top, t.partner, t.circles)
    assert twin == t and hash(twin) == hash(t)
    return twin


class TestDerivedTangles:
    """Mirrors, stacks and juxtapositions of checked tangles are built
    without rerunning the checks; over every matching of up to six points
    what they build passes them all."""

    POOL = matchings_up_to(6)

    def test_mirrors(self):
        for t in self.POOL + [t.with_circles(1) for t in self.POOL]:
            rebuilt(t.reflect_x())
            rebuilt(t.reflect_y())
            assert t.reflect_x() is t.reflect_x()
            assert t.reflect_x().reflect_x() == t

    def test_stacks(self):
        stacked = [compose(upper, lower) for upper, lower in itertools.product(self.POOL, repeat=2)
                   if lower.top == upper.bottom]
        assert len(stacked) > 200
        for t in stacked:
            rebuilt(t)

    def test_bends_and_rotations(self):
        for t in self.POOL + [t.with_circles(1) for t in self.POOL]:
            down, up = rebuilt(bend_down(t)), rebuilt(bend_up(t))
            assert bend_down(t) is bend_down(t) and bend_up(t) is bend_up(t)
            assert (down.circles, up.circles) == (t.circles, t.circles)

    def test_circle_counts_keep_the_checked_chords(self, monkeypatch):
        monkeypatch.setattr(PlanarTangle, "_noncrossing",
                            lambda self: pytest.fail("chords of a checked tangle rechecked"))
        loose = [t.with_circles(2) for t in self.POOL]
        stripped = [t.strip_circles() for t in loose]
        with pytest.raises(InvalidBoundary, match="negative circle count"):
            E.with_circles(-1)
        monkeypatch.undo()
        assert stripped == self.POOL
        for t in loose + stripped:
            rebuilt(t)

    def test_juxtapositions(self):
        for left, right in itertools.product(self.POOL, repeat=2):
            rebuilt(juxtapose(left, right))
            assert juxtapose(left, right) is juxtapose(left, right)

    def test_tangles_from_user_data_are_checked(self, capsys):
        from skeinhom.cli import run
        from skeinhom.surface import SurfaceTangle

        with pytest.raises(InvalidBoundary, match="cross"):
            SurfaceTangle.from_data({"regions": [{"counts": [4], "chords": [[0, 2], [1, 3]]}]})
        for tangle in ("[2, 3, 0, 1]", '{"partner": [3, 2, 1, 0], "top": 2}'):
            assert run(["kh", "eval", "--t", tangle, "--s", tangle]) == 3
            assert "cross" in capsys.readouterr().err


class TestClosedDiagram:
    def test_double_of_single_strand(self):
        d = ClosedDiagram.double(ID1, ID1)
        assert len(d) == 1

    def test_double_of_cupcap_with_itself(self):
        assert len(ClosedDiagram.double(E, E)) == 2

    def test_double_needs_equal_boundaries(self):
        with pytest.raises(InvalidBoundary, match="^tangles in a double must share boundary data$"):
            ClosedDiagram.double(ID1, E)

    def test_double_mixed(self):
        assert len(ClosedDiagram.double(ID2, E)) == 1

    def test_doubles_count_matches_chord_cycles(self):
        for m, n in small_splits(2):
            for a in enumerate_matchings(m, n):
                assert len(ClosedDiagram.double(a, a)) == (m + n) // 2

    def test_stack_matches_union_find(self):
        wide = juxtapose(E, E)
        layers_sets = [
            [CUPS, CAPS],
            [CUPS, wide, CAPS],
            [CUPS, wide, wide.with_circles(1), CAPS],
            [bend_up(ID2), identity_tangle(4), bend_down(ID2)],
        ]
        for layers in layers_sets:
            assert len(from_stack(layers)) == count_circles_union_find(layers)

    def test_stack_rejects_open_ends(self):
        with pytest.raises(OpenBoundary):
            from_stack([CUPS, E])
        with pytest.raises(OpenBoundary):
            from_stack([CUPS, identity_tangle(2)])

    def test_component_map_covers_arcs(self):
        d = from_stack([CUPS, juxtapose(E, E), CAPS])
        assert set(d.component_of) == set(d.arcs)
        for a, i in d.component_of.items():
            assert a in d.circles[i]

    def test_trace_deterministic(self):
        d1 = ClosedDiagram.double(E, ID2)
        d2 = ClosedDiagram.double(E, ID2)
        assert d1.circles == d2.circles

    def test_free_circles_become_components(self):
        d = ClosedDiagram.double(E.with_circles(1), E)
        assert len(d) == 3

    def test_surger_merges_separate_circles(self):
        d = ClosedDiagram.double(E, E)
        assert len(d) == 2
        a1, a2 = ("x", 0), ("x", 1)  # bottom cap and top cup of the x copy
        u1, v1 = d.arcs[a1]
        u2, v2 = d.arcs[a2]
        out = surger(d, a1, a2, ((u1, u2), (v1, v2)))
        assert len(out) == 1

    def test_surger_splits_one_circle(self):
        d = ClosedDiagram.double(ID2, ID2)
        # the double of two parallel strands: each strand pair closes into
        # its own circle; instead surger two arcs on one circle
        assert len(d) == 2
        d2 = ClosedDiagram.double(ID2, E)
        assert len(d2) == 1
        a1, a2 = ("x", 0), ("x", 1)
        u1, v1 = d2.arcs[a1]
        u2, v2 = d2.arcs[a2]
        out = surger(d2, a1, a2, ((u1, u2), (v1, v2)))
        assert len(out) == 2

    def test_surger_rejects_unknown_arcs(self):
        d = ClosedDiagram.double(E, E)
        with pytest.raises(KeyError):
            surger(d, ("x", 0), ("zzz", 9), ((None, None), (None, None)))
