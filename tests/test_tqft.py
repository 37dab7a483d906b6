import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom import memo, planar
from skeinhom.errors import GradingError, InvalidBoundary
from skeinhom.homalg import LaurentPoly, circle_poly
from skeinhom.planar import (ClosedDiagram, PlanarTangle, compose, cup_over_cap,
                             enumerate_matchings, identity_tangle, juxtapose)
from skeinhom.tqft import (ONE, X, StateVector, _composition_plan, _juxtaposition_plan, _Recorder,
                           _relabeled, _relabeling_plan, _whisker_plan, basis_state, graded_rank,
                           hom_double, hom_graded_rank, identity_state, juxtaposed, kh_basis, pair,
                           reflected_x, reflected_y, transposed, whisker)

from . import plan_oracles
from .optimized import error_under_optimize
from .oracles import (_capped, bent_down_by_transport, bent_up_by_transport, double_instances,
                      joint_terms, pair_by_surgery, reflected_x_by_transport,
                      reflected_y_by_transport, surger, transport, transposed_by_transport,
                      whisker_by_reglue)

ID1 = identity_tangle(1)
ID2 = identity_tangle(2)
E = cup_over_cap(2)


def circles_only(k):
    """A closed diagram that is just k free circles."""
    return ClosedDiagram.from_instances({"c": PlanarTangle(0, 0, (), k)}, {})


def hom_basis(a, b):
    d, off = hom_double(a, b)
    return [basis_state(a, b, lab) for lab, _ in kh_basis(d, off)]


class TestEvaluation:
    @pytest.mark.parametrize("k", range(7))
    def test_graded_rank_of_circles(self, k):
        assert graded_rank(circles_only(k), 0) == circle_poly(k)

    def test_offset_shifts_rank(self):
        assert graded_rank(circles_only(1), 3) == LaurentPoly({2: 1, 4: 1})

    def test_non_integral_offset_rejected(self):
        from fractions import Fraction
        with pytest.raises(GradingError):
            kh_basis(circles_only(2), Fraction(1, 2))

    def test_state_with_non_integral_offset_rejected(self):
        from fractions import Fraction
        d, _off = hom_double(ID1, ID1)
        with pytest.raises(GradingError, match="integral"):
            StateVector(d, Fraction(1, 2), {(ONE,): 1})
        with pytest.raises(GradingError, match="integral"):
            StateVector(d, 0.5, {})

    @pytest.mark.parametrize("offset", [None, "x", "3", 1.5, float("nan"), float("inf")])
    def test_non_number_offset_is_a_grading_error(self, offset):
        d, _off = hom_double(ID1, ID1)
        with pytest.raises(GradingError, match=r"^offset .* does not make degrees integral$"):
            StateVector(d, offset, {})
        assert StateVector(d, 2.0, {}).offset == 2

    def test_non_number_offset_is_refused_under_optimize(self):
        code = ("from skeinhom.planar import identity_tangle\n"
                "from skeinhom.tqft import StateVector, hom_double\n"
                "d, _off = hom_double(identity_tangle(1), identity_tangle(1))\n"
                "StateVector(d, None, {})\n")
        assert error_under_optimize(code) == (
            "skeinhom.errors.GradingError: offset None does not make degrees integral")

    def test_offsets_are_ints(self):
        from fractions import Fraction
        for a, b in [(ID1, ID1), (ID2, E), (E, E)]:
            _d, off = hom_double(a, b)
            assert type(off) is int and off == a.points // 2
        sv = StateVector(hom_double(ID1, ID1)[0], Fraction(4, 2), {(X,): 1})
        assert type(sv.offset) is int and sv.offset == 2

    def test_basis_enumeration_order(self):
        basis = kh_basis(circles_only(2), 0)
        assert [lab for lab, _ in basis] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [d for _, d in basis] == [-2, 0, 0, 2]


class TestFrobeniusStructure:
    """Hom(id1, id1) is the base algebra; its pairing is the multiplication."""

    def algebra(self):
        one = basis_state(ID1, ID1, (ONE,))
        x = basis_state(ID1, ID1, (X,))
        mul = lambda u, v: pair(ID1, ID1, ID1, u, v)
        return one, x, mul

    def test_multiplication_table(self):
        one, x, mul = self.algebra()
        assert mul(one, one) == one
        assert mul(one, x) == x
        assert mul(x, one) == x
        assert not mul(x, x)

    def test_two_dots_vanish(self):
        x = basis_state(ID1, ID1, (X,))
        arc = next(iter(x.diagram.arcs))
        assert not x.dotted(arc)

    def test_dot_raises_degree_by_two(self):
        one = basis_state(ID1, ID1, (ONE,))
        arc = next(iter(one.diagram.arcs))
        dotted = one.dotted(arc)
        assert dotted.degrees() == [one.degrees()[0] + 2]

    def test_comultiplication_through_the_saddle(self):
        # id2 -> e -> id2 factors the coproduct: 1 goes to 1(x)x + x(x)1
        sad = basis_state(ID2, E, (ONE,))
        back = basis_state(E, ID2, (ONE,))
        split = pair(ID2, E, ID2, sad, back)
        assert split.sorted_terms() == (((ONE, X), 1), ((X, ONE), 1))
        # and e -> id2 -> e merges then splits: a dot on either circle
        merge_split = pair(E, ID2, E, back, sad)
        assert merge_split.sorted_terms() == (((ONE, X), 1), ((X, ONE), 1))

    def test_saddle_degree_is_one(self):
        assert basis_state(ID2, E, (ONE,)).degrees() == [1]


class TestHomSpaces:
    def test_small_graded_dimensions(self):
        assert hom_graded_rank(ID1, ID1) == LaurentPoly({0: 1, 2: 1})
        assert hom_graded_rank(ID2, ID2) == LaurentPoly({0: 1, 2: 2, 4: 1})
        assert hom_graded_rank(ID2, E) == LaurentPoly({1: 1, 3: 1})
        assert hom_graded_rank(E, E) == LaurentPoly({0: 1, 2: 2, 4: 1})

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (0, 4), (1, 3), (3, 3)])
    def test_degrees_start_at_zero_only_for_identity(self, m, n):
        for a in enumerate_matchings(m, n):
            for b in enumerate_matchings(m, n):
                degs = [d for _, d in kh_basis(*hom_double(a, b))]
                if a == b:
                    assert min(degs) == 0
                    assert sorted(degs)[1] >= 2
                else:
                    assert min(degs) >= 1

    def test_identity_state_is_degree_zero(self):
        for a in enumerate_matchings(2, 2) + enumerate_matchings(3, 3):
            assert identity_state(a).degrees() == [0]

    def test_identity_with_free_circles(self):
        ec = E.with_circles(1)
        ident = identity_state(ec)
        assert ident.degrees() == [0]
        assert len(ident.terms) == 2

    def test_mismatched_boundaries_rejected(self):
        with pytest.raises(InvalidBoundary):
            hom_double(ID1, ID2)


class TestPairing:
    def test_identity_is_neutral_exhaustively(self):
        for a in enumerate_matchings(2, 2):
            for b in enumerate_matchings(2, 2):
                for f in hom_basis(a, b):
                    assert pair(a, a, b, identity_state(a), f) == f
                    assert pair(a, b, b, f, identity_state(b)) == f

    def test_associative_on_22_basis(self):
        objs = enumerate_matchings(2, 2)
        for a, b, c, d in itertools.product(objs, repeat=4):
            for f in hom_basis(a, b):
                for g in hom_basis(b, c):
                    for h in hom_basis(c, d):
                        assert pair(a, c, d, pair(a, b, c, f, g), h) == pair(
                            a, b, d, f, pair(b, c, d, g, h)
                        )

    def test_degrees_add_under_composition(self):
        objs = enumerate_matchings(1, 3)
        for a, b, c in itertools.product(objs, repeat=3):
            for f in hom_basis(a, b):
                for g in hom_basis(b, c):
                    fg = pair(a, b, c, f, g)
                    if fg:
                        assert fg.degrees() == [f.degrees()[0] + g.degrees()[0]]

    def test_pairing_through_free_circles(self):
        # routing through e + circle behaves like routing through e twice
        ec = E.with_circles(1)
        ident = identity_state(ec)
        for f in hom_basis(E, ec):
            assert pair(E, ec, ec, f, ident) == f

    def test_wrong_diagram_rejected(self):
        f = basis_state(ID2, E, (ONE,))
        with pytest.raises(InvalidBoundary):
            pair(ID2, ID2, E, f, f)


class TestStateArithmetic:
    def test_addition_collects_terms(self):
        one = basis_state(ID1, ID1, (ONE,))
        assert (one + one).sorted_terms() == (((ONE,), 2),)
        assert not (one - one)

    def test_mixed_offsets_rejected(self):
        d, off = hom_double(ID1, ID1)
        u = StateVector(d, off, {(ONE,): 1})
        v = StateVector(d, off + 1, {(ONE,): 1})
        with pytest.raises(GradingError):
            u + v

    def test_bad_labeling_rejected(self):
        d, off = hom_double(ID1, ID1)
        with pytest.raises(GradingError):
            StateVector(d, off, {(ONE, ONE): 1})

    def test_homogeneous_components(self):
        d, off = hom_double(ID2, ID2)
        s = StateVector(d, off, {(ONE, ONE): 1, (X, X): 3})
        assert s.degrees() == [0, 4]
        assert len(s.degrees()) > 1


class TestSurgeryBookkeeping:
    @given(st.sampled_from(enumerate_matchings(2, 2)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_saddles_preserve_total_degree(self, b, data):
        # any basis element, composed against any other, keeps its degree
        a = data.draw(st.sampled_from(enumerate_matchings(2, 2)))
        c = data.draw(st.sampled_from(enumerate_matchings(2, 2)))
        f = data.draw(st.sampled_from(hom_basis(a, b)))
        g = data.draw(st.sampled_from(hom_basis(b, c)))
        fg = pair(a, b, c, f, g)
        if fg:
            assert len(fg.degrees()) <= 1
            assert fg.degrees()[0] == f.degrees()[0] + g.degrees()[0]

    def test_kill_returns_offset_unit(self):
        # merging a circle in and capping it off is degree neutral overall
        ec = E.with_circles(1)
        f = basis_state(E, ec, (ONE, ONE, X))
        g = basis_state(ec, E, (X, ONE, ONE))
        fg = pair(E, ec, E, f, g)
        assert fg.offset == 2


class TestTransports:
    def test_reflections_are_involutive(self):
        for a in enumerate_matchings(1, 3):
            for b in enumerate_matchings(1, 3):
                for f in hom_basis(a, b):
                    rx = reflected_x(f, a, b)
                    assert reflected_x(rx, a.reflect_x(), b.reflect_x()) == f
                    ry = reflected_y(f, a, b)
                    assert reflected_y(ry, a.reflect_y(), b.reflect_y()) == f

    def test_transpose_is_involutive_and_antihomomorphic(self):
        objs = enumerate_matchings(2, 2)
        for a, b, c in itertools.product(objs, repeat=3):
            for f in hom_basis(a, b):
                assert transposed(transposed(f, a, b), b, a) == f
                for g in hom_basis(b, c):
                    lhs = transposed(pair(a, b, c, f, g), a, c)
                    rhs = pair(c, b, a, transposed(g, b, c), transposed(f, a, b))
                    assert lhs == rhs

    def test_reflection_rejects_a_state_off_its_double(self):
        f = basis_state(ID2, E, (ONE,))
        assert f.diagram.arcs != hom_double(E, E)[0].arcs
        with pytest.raises(InvalidBoundary, match="^state does not live on the expected double$"):
            reflected_x(f, E, E)

    def test_transpose_fixes_identity(self):
        for a in enumerate_matchings(2, 2):
            assert transposed(identity_state(a), a, a) == identity_state(a)


class TestWhisker:
    def test_whisker_sends_identity_to_identity(self):
        assert whisker(identity_state(ID2), ID2, ID2, E, above=True) == identity_state(
            compose(E, ID2)
        )
        assert whisker(identity_state(E), E, E, E, above=True) == identity_state(
            compose(E, E)
        )
        assert whisker(identity_state(E), E, E, E, above=False) == identity_state(
            compose(E, E)
        )

    def test_whisker_preserves_degree(self):
        for f in hom_basis(ID2, E):
            for above in (True, False):
                w = whisker(f, ID2, E, E, above=above)
                if w:
                    assert w.degrees() == f.degrees()

    def test_whisker_is_functorial(self):
        sad = basis_state(ID2, E, (ONE,))
        back = basis_state(E, ID2, (ONE,))
        for above in (True, False):
            w_comp = whisker(pair(ID2, E, ID2, sad, back), ID2, ID2, E, above=above)
            ws = whisker(sad, ID2, E, E, above=above)
            wb = whisker(back, E, ID2, E, above=above)
            if above:
                shapes = (compose(E, ID2), compose(E, E), compose(E, ID2))
            else:
                shapes = (compose(ID2, E), compose(E, E), compose(ID2, E))
            assert w_comp == pair(*shapes, ws, wb)

    def test_whisker_by_caps_closes_the_side(self):
        cap = PlanarTangle(2, 0, (1, 0))
        w = whisker(basis_state(ID2, E, (ONE,)), ID2, E, cap, above=True)
        # cap over id2 is one bare cap; cap over e grows a free circle
        assert w.diagram is not None
        assert w.offset == 1

    def test_wrong_edge_rejected(self):
        with pytest.raises(InvalidBoundary, match="^whisker tangle does not fit the top edge$"):
            whisker(identity_state(ID1), ID1, ID1, E, above=True)
        with pytest.raises(InvalidBoundary, match="^whisker tangle does not fit the bottom edge$"):
            whisker(identity_state(ID1), ID1, ID1, E, above=False)


class TestJuxtaposed:
    def test_identities_glue_to_identity(self):
        i1, ie = identity_state(ID1), identity_state(E)
        assert juxtaposed([(ID1, ID1, i1), (E, E, ie)]) == identity_state(juxtapose(ID1, E))

    def test_degrees_add(self):
        f = basis_state(ID2, E, (ONE,))
        g = basis_state(ID1, ID1, (X,))
        j = juxtaposed([(ID2, E, f), (ID1, ID1, g)])
        assert j.degrees() == [f.degrees()[0] + g.degrees()[0]]

    def test_accepts_any_iterable(self):
        i1, ie = identity_state(ID1), identity_state(E)
        factors = [(ID1, ID1, i1), (E, E, ie)]
        assert juxtaposed(iter(factors)) == juxtaposed(factors)

    def test_matches_whisker_for_identity_factor(self):
        # juxtaposing an identity strand equals whiskering by nothing new
        f = basis_state(ID2, E, (ONE,))
        j = juxtaposed([(ID2, E, f)])
        assert j == f


def seeded_state(rng, a, b):
    """A state on the double of (a, b) with random integer coefficients on
    one to four random labelings, of mixed degrees."""
    d, off = hom_double(a, b)
    labs = [lab for lab, _ in kh_basis(d, off)]
    picked = rng.sample(labs, rng.randint(1, min(4, len(labs))))
    return StateVector(d, off, {lab: rng.choice([-3, -2, -1, 1, 2, 5]) for lab in picked})


def juxtaposed_by_diagram(factors):
    """Juxtaposition traced on the union of the factor doubles and transported
    to the double of the juxtaposed tangles, state by state."""
    tangles, glue, states = {}, {}, {}
    for i, (a, b, sv) in enumerate(factors):
        double_instances(i, a, b, tangles, glue)
        states[i] = sv
    state = joint_terms(ClosedDiagram.from_instances(tangles, glue), states)
    arc_map = {}
    for side, pos in (("x", 0), ("y", 1)):
        whole = juxtapose(*(f[pos] for f in factors))
        off_b = off_t = off_o = 0
        for i, f in enumerate(factors):
            t = f[pos]
            glob = lambda p: off_b + p if p < t.bottom else whole.bottom + off_t + p - t.bottom
            for k, (p, q) in enumerate(t.chords):
                arc_map[((i, side), k)] = (side, whole.chords.index((glob(p), glob(q))))
            for k in range(t.circles):
                arc_map[((i, side), "o", k)] = (side, "o", off_o + k)
            off_b, off_t, off_o = off_b + t.bottom, off_t + t.top, off_o + t.circles
    canon, _ = hom_double(juxtapose(*(f[0] for f in factors)),
                          juxtapose(*(f[1] for f in factors)))
    return transport(state, canon, arc_map)


def small_objects(m, n):
    """Minimal (m, n)-tangles, the first also with one free circle and the
    last with two."""
    flat = enumerate_matchings(m, n)
    return flat + (flat[0].with_circles(1), flat[-1].with_circles(2))


class TestCompiledComposition:
    """pair and juxtaposed read cached tables; surgery on whole diagrams is
    the reference they must agree with."""

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 1), (0, 2), (2, 0), (2, 2), (1, 3),
                                     (3, 1), (0, 4), (4, 0)])
    def test_pair_matches_surgery_on_multiterm_states(self, m, n):
        rng = random.Random(1000 * m + n)
        objs = small_objects(m, n)
        for a, b, c in itertools.product(objs, repeat=3):
            sv1, sv2 = seeded_state(rng, a, b), seeded_state(rng, b, c)
            assert pair(a, b, c, sv1, sv2) == pair_by_surgery(a, b, c, sv1, sv2)

    @pytest.mark.parametrize("m,n", [(1, 1), (0, 2), (2, 2), (1, 3), (0, 4)])
    def test_pair_matches_surgery_through_free_circles(self, m, n):
        # b carries one or two free circles: merge-and-cap steps in the plan
        rng = random.Random(7 * m + n)
        objs = small_objects(m, n)
        for b in enumerate_matchings(m, n):
            for k in (1, 2):
                bk = b.with_circles(k)
                for a, c in itertools.product(objs, repeat=2):
                    for _ in range(2):
                        sv1, sv2 = seeded_state(rng, a, bk), seeded_state(rng, bk, c)
                        assert pair(a, bk, c, sv1, sv2) == pair_by_surgery(a, bk, c, sv1, sv2)

    def test_one_plan_per_distinct_triple(self):
        rng = random.Random(11)
        objs = small_objects(2, 2) + small_objects(1, 3)
        memo._forget()
        triples = set()
        for _ in range(300):
            a = rng.choice(objs)
            same = [t for t in objs if (t.bottom, t.top) == (a.bottom, a.top)]
            b, c = rng.choice(same), rng.choice(same)
            triples.add((a, b, c))
            pair(a, b, c, seeded_state(rng, a, b), seeded_state(rng, b, c))
        info = _composition_plan.cache_info()
        assert info.misses == len(triples)
        assert info.hits + info.misses == 300

    def test_new_labels_on_a_known_triple_build_no_diagram(self, monkeypatch):
        a, b, c = E, ID2.with_circles(1), E.with_circles(2)
        memo._forget()
        (d1, off1), (d2, off2) = hom_double(a, b), hom_double(b, c)
        basis1 = [lab for lab, _ in kh_basis(d1, off1)]
        basis2 = [lab for lab, _ in kh_basis(d2, off2)]
        first = pair(a, b, c, basis_state(a, b, basis1[0]), basis_state(b, c, basis2[0]))
        # every other labeling on each side: label pairs the table has not met
        sv1 = StateVector(d1, off1, {lab: i + 1 for i, lab in enumerate(basis1[1:])})
        sv2 = StateVector(d2, off2, {lab: (-1) ** i for i, lab in enumerate(basis2[1:])})
        built, misses = count_diagrams(monkeypatch), _composition_plan.cache_info().misses
        second = pair(a, b, c, sv1, sv2)
        assert not built and _composition_plan.cache_info().misses == misses
        monkeypatch.undo()
        assert first == pair_by_surgery(a, b, c, basis_state(a, b, basis1[0]),
                                        basis_state(b, c, basis2[0]))
        assert second == pair_by_surgery(a, b, c, sv1, sv2)
        assert second

    @pytest.mark.parametrize("count", [2, 3])
    def test_juxtaposed_matches_diagram_route(self, count):
        rng = random.Random(count)
        shapes = [(1, 1), (0, 2), (2, 2), (2, 0), (1, 3)]
        for _ in range(40):
            factors = []
            for m, n in rng.sample(shapes, count):
                objs = small_objects(m, n)
                a, b = rng.choice(objs), rng.choice(objs)
                factors.append((a, b, seeded_state(rng, a, b)))
            assert juxtaposed(factors) == juxtaposed_by_diagram(factors)

    def test_shared_doubles_are_not_mutated(self):
        d, _ = hom_double(E, ID2)
        arcs, circles = dict(d.arcs), d.circles
        f = basis_state(ID2, E, (ONE,))
        pair(ID2, E, ID2, f, basis_state(E, ID2, (X,)))
        juxtaposed([(E, ID2, basis_state(E, ID2, (ONE,))), (ID1, ID1, identity_state(ID1))])
        assert hom_double(E, ID2)[0] is d
        assert d.arcs == arcs and d.circles == circles


def whisker_tangles(k):
    """Tangles with k bottom points to whisker by: every flat tangle to
    k % 2 top points (caps) and to k, the first of each also with one free
    circle."""
    caps, flat = enumerate_matchings(k, k % 2), enumerate_matchings(k, k)
    return caps + flat + (caps[0].with_circles(1), flat[0].with_circles(1))


def count_diagrams(monkeypatch):
    """A list that grows by one for every ClosedDiagram built from now on."""
    built = []
    original = planar.ClosedDiagram.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(planar.ClosedDiagram, "__init__", counting)
    return built


def basis_labelings(a, b):
    return [lab for lab, _ in kh_basis(*hom_double(a, b))]


SPLITS_UP_TO_FOUR = [(0, 0), (1, 1), (0, 2), (2, 0), (2, 2), (1, 3), (3, 1), (0, 4), (4, 0)]


class TestRecorder:
    """The recorder follows only the circles each step touches; tracing the
    whole diagram again after every step is the reference."""

    @pytest.mark.parametrize("m,n", SPLITS_UP_TO_FOUR)
    @pytest.mark.parametrize("circles", [0, 1, 2])
    def test_composition_plan_matches_the_diagram_compiler(self, m, n, circles):
        flat = enumerate_matchings(m, n)
        for a, b, c in itertools.product(flat, repeat=3):
            b = b.with_circles(circles)
            plan, reference = _composition_plan(a, b, c)[4], plan_oracles.composition_plan(a, b, c)
            for lab1, lab2 in itertools.product(basis_labelings(a, b), basis_labelings(b, c)):
                assert plan.product(lab1, lab2) == reference.product(lab1, lab2)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_juxtaposition_plan_matches_the_diagram_compiler(self, count):
        rng = random.Random(50 + count)
        shapes = [(1, 1), (0, 2), (2, 2), (2, 0), (1, 3)]
        for _ in range(12):
            pairs = []
            for m, n in rng.sample(shapes, count):
                objs = small_objects(m, n)
                pairs.append((rng.choice(objs), rng.choice(objs)))
            pairs = tuple(pairs)
            plan = _juxtaposition_plan(pairs)[3]
            reference = plan_oracles.juxtaposition_plan(pairs)
            for labs in itertools.product(*(basis_labelings(a, b) for a, b in pairs)):
                assert plan.product(*labs) == reference.product(*labs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_circles_match_a_fresh_trace_after_random_steps(self, data):
        split = data.draw(st.sampled_from([(1, 1), (0, 2), (2, 2), (1, 3), (0, 4)]))
        objs = small_objects(*split)
        blocks = [(i, data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs)))
                  for i in range(data.draw(st.integers(1, 2)))]
        tangles, glue = {}, {}
        for i, a, b in blocks:
            double_instances(i, a, b, tangles, glue)
        diagram = ClosedDiagram.from_instances(tangles, glue)
        rec = _Recorder.on(diagram)
        for _ in range(data.draw(st.integers(1, 8))):
            arcs = sorted(diagram.arcs, key=repr)
            if not arcs:
                break
            if len(arcs) > 1 and data.draw(st.booleans()):
                arc1, arc2 = data.draw(st.lists(st.sampled_from(arcs), min_size=2, max_size=2,
                                                unique=True))
                (u1, v1), (u2, v2) = diagram.arcs[arc1], diagram.arcs[arc2]
                if data.draw(st.booleans()):
                    u1, v1 = v1, u1
                new = surger(diagram, arc1, arc2, ((u1, u2), (v1, v2)))
                same = diagram.component_of[arc1] == diagram.component_of[arc2]
                if same and len(new) == len(diagram):
                    # the other reconnection of one circle splits it
                    u1, v1 = v1, u1
                    new = surger(diagram, arc1, arc2, ((u1, u2), (v1, v2)))
                rec.surger(arc1, arc2, ((u1, u2), (v1, v2)))
                diagram = new
            else:
                arc = data.draw(st.sampled_from(arcs))
                diagram, _c = _capped(diagram, arc)
                rec.cap(arc)
            assert rec.arcs == diagram.arcs
            assert len(rec.circles) == len(diagram)
            assert set(map(frozenset, rec.circles)) == set(map(frozenset, diagram.circles))
            assert rec.circle_of == {a: i for i, c in enumerate(rec.circles) for a in c}

    def start(self):
        d = hom_double(ID2, E)[0]  # one circle through all four arcs
        return d, _Recorder.on(d)

    def test_refuses_a_saddle_that_leaves_one_circle_whole(self):
        d, rec = self.start()
        a1, a2 = ("x", 0), ("x", 1)
        (u1, v1), (u2, v2) = d.arcs[a1], d.arcs[a2]
        pairing = ((u1, u2), (v1, v2))
        if len(surger(d, a1, a2, pairing)) == 2:
            pairing = ((v1, u2), (u1, v2))
        with pytest.raises(GradingError):
            rec.surger(a1, a2, pairing)

    def test_refuses_equal_unknown_or_mismatched_arcs(self):
        d, rec = self.start()
        (u1, v1), (u2, v2) = d.arcs[("x", 0)], d.arcs[("x", 1)]
        for arc1, arc2, pairing in [(("x", 0), ("x", 0), ((u1, u1), (v1, v1))),
                                    (("x", 0), ("zzz", 9), ((u1, None), (v1, None))),
                                    (("x", 0), ("x", 1), ((u1, v2), (v1, v2)))]:
            with pytest.raises(KeyError):
                rec.surger(arc1, arc2, pairing)
        with pytest.raises(KeyError):
            rec.cap(("zzz", 9))

    def test_new_compiles_on_cached_doubles_build_no_diagram(self, monkeypatch):
        a, b, c, e = E, ID2.with_circles(1), E.with_circles(2), identity_tangle(2)
        cases = [(_composition_plan, (a, b, c)), (_whisker_plan, (a, b, e, True)),
                 (_whisker_plan, (b, a, e, False)), (_juxtaposition_plan, (((a, b), (ID1, ID1)),))]
        for compiler, args in cases:
            compiler(*args)  # caches every double the compiler reads
        for compiler, _args in cases:
            compiler.cache_clear()
        built = count_diagrams(monkeypatch)
        for compiler, args in cases:
            compiler(*args)
        assert not built
        assert all(compiler.cache_info().misses for compiler, _args in cases)


class TestCompiledMaps:
    """whisker and the relabelings replay plans compiled once per key;
    the diagram routes they replaced are the reference."""

    @pytest.mark.parametrize("above", [True, False])
    @pytest.mark.parametrize("m,n", [(1, 1), (0, 2), (2, 0), (2, 2), (1, 3), (0, 4)])
    def test_whisker_matches_reglue_route(self, m, n, above):
        rng = random.Random(100 * m + 10 * n + above)
        objs = small_objects(m, n)
        for e in whisker_tangles(n if above else m):
            if not above:
                e = e.reflect_y()
            for a, b in itertools.product(objs, repeat=2):
                sv = seeded_state(rng, a, b)
                assert whisker(sv, a, b, e, above) == whisker_by_reglue(sv, a, b, e, above)

    @pytest.mark.parametrize("m,n", [(0, 2), (1, 1), (2, 2), (1, 3), (3, 1), (0, 4)])
    def test_relabelings_match_transport(self, m, n):
        rng = random.Random(10 * m + n)
        objs = small_objects(m, n)
        for a, b in itertools.product(objs, repeat=2):
            sv = seeded_state(rng, a, b)
            assert reflected_x(sv, a, b) == reflected_x_by_transport(sv, a, b)
            assert reflected_y(sv, a, b) == reflected_y_by_transport(sv, a, b)
            assert transposed(sv, a, b) == transposed_by_transport(sv, a, b)
            assert _relabeled(sv, a, b, "bend_down") == bent_down_by_transport(sv, a, b)
            assert _relabeled(sv, a, b, "bend_up") == bent_up_by_transport(sv, a, b)

    def test_new_labels_on_known_keys_build_no_diagram(self, monkeypatch):
        a, b, e = ID2.with_circles(1), E, E.with_circles(1)
        d, off = hom_double(a, b)
        basis = [lab for lab, _ in kh_basis(d, off)]
        for above in (True, False):
            whisker(basis_state(a, b, basis[0]), a, b, e, above)
        reflected_x(basis_state(a, b, basis[0]), a, b)
        # every other labeling: label pairs the whisker tables have not met
        sv = StateVector(d, off, {lab: i + 2 for i, lab in enumerate(basis[1:])})
        built = count_diagrams(monkeypatch)
        misses = [f.cache_info().misses for f in (_whisker_plan, _relabeling_plan)]
        results = [whisker(sv, a, b, e, above) for above in (True, False)]
        mirrored = reflected_x(sv, a, b)
        assert not built
        assert [f.cache_info().misses for f in (_whisker_plan, _relabeling_plan)] == misses
        monkeypatch.undo()
        assert results == [whisker_by_reglue(sv, a, b, e, above) for above in (True, False)]
        assert mirrored == reflected_x_by_transport(sv, a, b)
        assert all(results)


class TestOffsetChecks:
    """A state off its double's hom offset is refused before any lookup."""

    def shifted_saddle(self, k):
        d, off = hom_double(ID2, E)
        return StateVector(d, off + k, {(ONE,): 1})

    @pytest.mark.parametrize("k", [1, -1])
    def test_pair_rejects_first_state_off_offset(self, k):
        with pytest.raises(GradingError):
            pair(ID2, E, E, self.shifted_saddle(k), identity_state(E))

    def test_pair_rejects_second_state_off_offset(self):
        with pytest.raises(GradingError):
            pair(ID2, ID2, E, identity_state(ID2), self.shifted_saddle(1))

    def test_pair_rejects_offsets_that_cancel(self):
        d, off = hom_double(E, ID2)
        back = StateVector(d, off - 1, {(ONE,): 1})
        with pytest.raises(GradingError):
            pair(ID2, E, ID2, self.shifted_saddle(1), back)

    @pytest.mark.parametrize("k", [1, -1])
    def test_juxtaposed_rejects_factor_off_offset(self, k):
        with pytest.raises(GradingError):
            juxtaposed([(ID2, E, self.shifted_saddle(k))])
        with pytest.raises(GradingError):
            juxtaposed([(ID1, ID1, identity_state(ID1)), (ID2, E, self.shifted_saddle(k))])

    def test_whisker_rejects_state_off_offset(self):
        with pytest.raises(GradingError):
            whisker(self.shifted_saddle(1), ID2, E, E, above=True)

    @pytest.mark.parametrize("relabel", [
        reflected_x, transposed, lambda sv, a, b: _relabeled(sv, a, b, "bend_down"),
    ], ids=["reflected_x", "transposed", "bend_down"])
    def test_relabelings_reject_state_off_offset(self, relabel):
        # the hom offset of (ID2, E) is 2; a relabeling keeps no other
        with pytest.raises(GradingError, match="^state sits at offset 4, not at the hom offset 2$"):
            relabel(self.shifted_saddle(2), ID2, E)
