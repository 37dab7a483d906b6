import itertools
import random

import pytest

from skeinhom import memo
from skeinhom.barproj import (SmallRing, TwistedTangleComplex, _compositions, _spelled, bar_ends,
                              bar_plan, bar_words, bottom_projector, counit_components, fold_entry,
                              fold_tangle, shuffle_words, signed_shuffles, small_ring, twisted_cone,
                              unit_complex, word_degree, word_ends)
from skeinhom.errors import ChainMapError, GradingError, InvalidBoundary, SpecError, TruncationError
from skeinhom.homalg import LaurentPoly
from skeinhom.planar import cup_over_cap, enumerate_matchings, identity_tangle
from skeinhom.surface import SurfaceComplex
from skeinhom.tqft import (ONE, X, StateVector, basis_state, hom_double, identity_state, kh_basis,
                           pair, reflected_x)

from .oracles import (all_shuffles, bottom_projector_by_faces, dense_block, fold_entry_by_circles,
                      hom_complex_by_pair, ring_mul_by_pair, words_of)
from .test_surface import ANNULUS, CUPCAP2, THROUGH2

ID1 = identity_tangle(1)
ID2 = identity_tangle(2)
E = cup_over_cap(2)
Q = LaurentPoly.q()


def homology_is_zero(hom):
    return all(b == 0 for b in hom.betti.values()) and all(
        t == () for t in hom.torsion.values()
    )


class TestSmallRing:
    def test_objects_are_the_minimal_matchings(self):
        ring = SmallRing(2, 2)
        assert ring.objects == enumerate_matchings(2, 2)

    def test_strand_gram(self):
        gram = SmallRing(1, 1).gram()
        assert gram[(ID1, ID1)] == LaurentPoly({0: 1, 2: 1})

    def test_two_strand_gram(self):
        gram = SmallRing(2, 2).gram()
        diag = LaurentPoly({0: 1, 2: 2, 4: 1})
        off = LaurentPoly({1: 1, 3: 1})
        assert gram[(ID2, ID2)] == diag
        assert gram[(E, E)] == diag
        assert gram[(ID2, E)] == off
        assert gram[(E, ID2)] == off

    def test_reduced_letters_have_positive_degree(self):
        ring = SmallRing(2, 2)
        for a in ring.objects:
            for b in ring.objects:
                floor = 2 if a == b else 1
                for lab in ring.reduced(a, b):
                    assert ring.degree(a, b, lab) >= floor

    def test_degree_is_the_state_degree(self):
        ring = SmallRing(2, 2)
        for a, b in itertools.product(ring.objects, repeat=2):
            for lab in itertools.product((ONE, X), repeat=len(hom_double(a, b)[0])):
                assert ring.degree(a, b, list(lab)) == ring.state(a, b, lab).degrees()[0]

    def test_degree_of_a_misfit_labeling_refused(self):
        ring = SmallRing(2, 2)
        n = len(hom_double(ID2, E)[0])
        for lab in [(ONE,) * (n + 1), (ONE,) * (n - 1), (2,) * n]:
            with pytest.raises(GradingError, match="does not fit"):
                ring.degree(ID2, E, lab)

    def test_min_letter_degree(self):
        assert SmallRing(1, 1).min_letter_degree == 2
        assert SmallRing(2, 2).min_letter_degree == 1

    def test_identity_is_neutral(self):
        ring = SmallRing(2, 2)
        for a, b in itertools.product(ring.objects, repeat=2):
            e_a = ring.identity_labeling(a)
            for lab, _ in ring.basis(a, b):
                assert ring.product(a, a, b, e_a, lab) == ring.state(a, b, lab).sorted_terms()


class TestBarWords:
    def test_single_strand_counts(self):
        ring = SmallRing(1, 1)
        for r in range(5):
            words = bar_words(ring, r)
            assert len(words) == 1
            assert word_degree(ring, words[0]) == 2 * r

    def test_two_strand_counts(self):
        ring = SmallRing(2, 2)
        assert [len(bar_words(ring, r)) for r in range(3)] == [2, 10, 50]

    def test_letters_connect_consecutive_objects(self):
        ring = SmallRing(2, 2)
        for objs, letters in bar_words(ring, 2):
            for i, lab in enumerate(letters):
                assert lab in ring.reduced(objs[i], objs[i + 1])


class TestFoldTangle:
    def test_single_strand_fold_is_cup_over_cap(self):
        assert fold_tangle(ID1, ID1) == E

    def test_folds_have_through_degree_zero(self):
        for a, b in itertools.product(enumerate_matchings(2, 2), repeat=2):
            T = fold_tangle(a, b)
            N = T.bottom
            for p, q in T.chords:
                assert (q < N) == (p < N)

    def test_fold_entry_of_identities_is_the_identity(self):
        for a, b in itertools.product(enumerate_matchings(2, 2), repeat=2):
            sv = fold_entry(a, b, a, b,
                            identity_state(a.reflect_x()), identity_state(b))
            assert sv == identity_state(fold_tangle(a, b))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 3), (3, 3)])
    def test_fold_entry_matches_circle_scan(self, m, n):
        rng = random.Random(m + 10 * n)
        objs = enumerate_matchings(m, n)

        def seeded(a, b):
            d, off = hom_double(a, b)
            labs = [lab for lab, _ in kh_basis(d, off)]
            picked = rng.sample(labs, rng.randint(1, min(3, len(labs))))
            return StateVector(d, off, {lab: rng.choice([-2, -1, 1, 3]) for lab in picked})

        for a0, ar, b0, br in itertools.product(objs, repeat=4):
            cap_sv, cup_sv = seeded(a0.reflect_x(), b0.reflect_x()), seeded(ar, br)
            assert (fold_entry(a0, ar, b0, br, cap_sv, cup_sv)
                    == fold_entry_by_circles(a0, ar, b0, br, cap_sv, cup_sv))


class TestBottomProjector:
    def test_odd_strand_count_rejected(self):
        with pytest.raises(InvalidBoundary):
            bottom_projector(3, depth=2)

    @pytest.mark.parametrize("strands", [-1, -2])
    def test_negative_strand_count_rejected_by_name(self, strands):
        with pytest.raises(InvalidBoundary, match=f"strand count must be non-negative, got {strands}"):
            bottom_projector(strands, depth=1)

    @pytest.mark.parametrize("strands", [0, 2])
    def test_negative_depth_rejected(self, strands):
        # one guard in bar_complex, not an empty complex with h_min above h_max
        with pytest.raises(SpecError, match="depth must be non-negative, got -1"):
            bottom_projector(strands, -1)

    def test_two_strand_objects(self):
        P = bottom_projector(2, depth=12)
        for s in range(13):
            (T, shift), = P.objects[-s]
            assert T == E
            assert shift == 2 * s + 1

    def test_two_strand_differential_never_vanishes(self):
        P = bottom_projector(2, depth=12)
        for s in range(1, 13):
            assert P.differentials[-s]

    def test_two_strand_mirror_symmetry(self):
        P = bottom_projector(2, depth=4)
        for d in P.differentials.values():
            for sv in d.values():
                assert reflected_x(sv, E, E) == sv

    def test_k0_series_is_geometric(self):
        P = bottom_projector(2, depth=12)
        series = P.k0_series(E, (0, 25))
        assert (series * LaurentPoly({0: 1, 2: 1})).truncated(0, 25) == Q

    def test_k0_series_respects_certificate(self):
        P = bottom_projector(2, depth=3)
        with pytest.raises(TruncationError):
            P.k0_series(E, (0, 9))

    def test_k0_series_over_an_empty_range_is_zero(self):
        P = bottom_projector(2, depth=2)
        assert P.k0_series(E, (9, 8)) == LaurentPoly.zero()
        with pytest.raises(TruncationError, match="series at q=9 needs degrees below -2"):
            P.k0_series(E, (9, 9))

    def test_four_strand_shifts_follow_word_degree(self):
        ring = SmallRing(2, 2)
        P = bottom_projector(4, depth=2)
        for r in range(3):
            words = bar_words(ring, r)
            assert len(P.objects[-r]) == len(words)
            for w, (T, s) in zip(words, P.objects[-r]):
                assert T == fold_tangle(w[0][0], w[0][-1])
                assert s == 2 + word_degree(ring, w)

    @pytest.mark.parametrize("N,depth,split", [(2, 4, None), (4, 3, None), (4, 2, (1, 3))])
    def test_matches_faces_written_out_on_folds(self, N, depth, split):
        P = bottom_projector(N, depth, split)
        objects, diffs = bottom_projector_by_faces(N, depth, split)
        assert P.objects == objects
        assert sorted(P.differentials) == sorted(diffs)
        for h, entries in diffs.items():
            assert list(P.differentials[h].items()) == [(k, sv) for k, sv in entries.items() if sv]

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("reduced", [True, False])
    def test_bar_words_match_direct_enumeration(self, m, n, reduced):
        ring = SmallRing(m, n)
        for r in range(4):
            assert bar_words(ring, r, reduced) == words_of(ring, r, reduced)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 3)])
    @pytest.mark.parametrize("reduced", [True, False])
    def test_degree_bound_keeps_exactly_the_low_words(self, m, n, reduced):
        # pruning prefixes letter by letter keeps every word of degree at
        # most the bound, in the order of the unbounded enumeration
        ring = SmallRing(m, n)
        for r in range(4):
            words = words_of(ring, r, reduced)
            for bound in range(-1, 2 * r + 3):
                assert _spelled(ring, r, reduced, bound) == [
                    (w, word_degree(ring, w)) for w in words if word_degree(ring, w) <= bound]

    def test_degree_bound_refuses_negative_letters(self, monkeypatch):
        ring = SmallRing(2, 2)
        a, b = ring.objects
        pool, real = ring.letters(a, b), ring.letters
        bent = ((pool[0][0], -1),) + pool[1:]
        monkeypatch.setattr(ring, "letters", lambda x, y, reduced=True: (
            bent if (x, y, reduced) == (a, b, True) else real(x, y, reduced)))
        assert _spelled(ring, 2, True, None)
        with pytest.raises(GradingError, match="negative degree"):
            _spelled(ring, 2, True, 3)

    @pytest.mark.parametrize("shape,depth", [(((1, 1),), 4), (((2, 2),), 4), (((1, 3),), 3),
                                             (((2, 2), (1, 1)), 3), (((1, 3), (2, 2)), 3)])
    @pytest.mark.parametrize("reduced", [True, False])
    def test_bar_ends_are_the_ends_of_all_word_tuples(self, shape, depth, reduced):
        rings = tuple(SmallRing(m, n) for m, n in shape)
        ends = set()
        for total in range(depth + 1):
            for comp in _compositions(total, len(rings)):
                pools = [words_of(ring, r, reduced) for ring, r in zip(rings, comp)]
                ends.update(word_ends(mw) for mw in itertools.product(*pools))
        assert bar_ends(rings, depth, reduced) == ends
        assert bar_ends((), depth, reduced) == {()}


class TestBarPlan:
    # the rings of the fixture surfaces: one seam of one or two points,
    # and two seams, equal or of different slopes
    SHAPES = (((1, 1),), ((2, 2),), ((1, 1), (1, 1)), ((2, 2), (1, 1)))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bound", [None, 0, 3, 5])
    def test_words_are_bar_words_within_the_bound(self, shape, bound):
        rings = tuple(small_ring(m, n) for m, n in shape)
        for depth in range(5):
            plan = bar_plan(rings, depth, True, bound)
            for r in range(depth + 1):
                want = []
                for comp in _compositions(r, len(rings)):
                    pools = [bar_words(ring, c) for ring, c in zip(rings, comp)]
                    for mw in itertools.product(*pools):
                        degree = sum(word_degree(ring, w) for ring, w in zip(rings, mw))
                        if bound is None or degree <= bound:
                            want.append((mw, degree))
                assert plan.words[-r] == tuple(mw for mw, _deg in want)
                assert plan.degrees[-r] == tuple(deg for _mw, deg in want)
                assert plan.ends[-r] == tuple(word_ends(mw) for mw, _deg in want)
                assert plan.index[-r] == {mw: i for i, (mw, _deg) in enumerate(want)}
            assert bar_plan(rings, depth, True, bound) is plan

    def test_surfaces_over_the_same_rings_share_one_plan(self):
        one = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=3)
        other = SurfaceComplex(ANNULUS, THROUGH2, THROUGH2, depth=3)
        plan = bar_plan((small_ring(2, 2),), 3, True, None)
        assert one.multiwords is other.multiwords is plan.words
        assert one.index is other.index is plan.index


class TestRingCaches:
    def test_identity_labeling_builds_one_state_per_object(self):
        # identity states are cached once per process, not per ring
        ring = SmallRing(2, 2)
        memo._forget()
        for _ in range(3):
            for a in ring.objects:
                (lab, _), = identity_state(a).sorted_terms()
                assert ring.identity_labeling(a) == lab
        assert identity_state.cache_info().misses == len(ring.objects)

    def test_letters_are_built_once(self):
        ring = SmallRing(2, 2)
        for a in ring.objects:
            for b in ring.objects:
                assert ring.letters(a, b) is ring.letters(a, b)
                assert ring.letters(a, b, False) is ring.letters(a, b, False)
                assert ring.reduced(a, b) == tuple(lab for lab, _ in ring.letters(a, b))


class TestValidation:
    """The state-level checks a TwistedTangleComplex runs on construction."""

    def rebuilt(self, P, h, key, sv):
        diffs = {g: dict(d) for g, d in P.differentials.items()}
        diffs[h][key] = sv
        return TwistedTangleComplex(P.objects, diffs, P.h_min, P.h_max,
                                    P.complete, P.certificate)

    def test_unperturbed_rebuild_passes(self):
        P = bottom_projector(2, depth=2)
        self.rebuilt(P, -2, (0, 0), P.differentials[-2][(0, 0)])

    def test_perturbed_entry_breaks_d_squared(self):
        # one object per degree: scaling a whole entry keeps d^2 = 0, so
        # scale one of its terms instead
        P = bottom_projector(2, depth=2)
        sv = P.differentials[-2][(0, 0)]
        (lab, c), *_ = sv.sorted_terms()
        bumped = sv + StateVector(sv.diagram, sv.offset, {lab: c})
        T = P.objects[-1][0][0]
        assert pair(T, T, T, bumped, P.differentials[-1][(0, 0)])
        with pytest.raises(ChainMapError):
            self.rebuilt(P, -2, (0, 0), bumped)

    def test_entry_on_the_wrong_double_rejected(self):
        P = bottom_projector(2, depth=2)
        d, off = hom_double(E, ID2)
        assert d.arcs != P.differentials[-2][(0, 0)].diagram.arcs
        with pytest.raises(GradingError,
                           match=r"^entry \(0, 0\) at degree -2 is on the wrong double$"):
            self.rebuilt(P, -2, (0, 0), StateVector(d, off, {(ONE,) * len(d): 1}))

    def test_inhomogeneous_entry_rejected(self):
        P = bottom_projector(2, depth=2)
        sv = P.differentials[-2][(0, 0)]
        mixed = sv + StateVector(sv.diagram, sv.offset, {(ONE,) * len(sv.diagram): 1})
        assert len(mixed.degrees()) == 2
        with pytest.raises(GradingError, match=r"^entry \(0, 0\) at degree -2 is inhomogeneous$"):
            self.rebuilt(P, -2, (0, 0), mixed)

    def test_wrong_degree_entry_rejected(self):
        P = bottom_projector(2, depth=2)
        sv = P.differentials[-2][(0, 0)]
        low = StateVector(sv.diagram, sv.offset, {(0,) * len(sv.diagram): 1})
        assert low.degrees() != sv.degrees()
        with pytest.raises(GradingError):
            self.rebuilt(P, -2, (0, 0), low)

    def test_entry_off_its_hom_offset_rejected(self):
        # same double and same degree, but two units above the hom offset:
        # refused when the complex is made, not later by hom_complex
        P = bottom_projector(2, depth=1)
        sv = P.differentials[-1][(0, 0)]
        shifted = StateVector(sv.diagram, sv.offset + 2, {(ONE,) * len(sv.diagram): 1})
        assert shifted.degrees() == sv.degrees()
        with pytest.raises(GradingError, match=r"^entry \(0, 0\) at degree -1 sits at offset 4, "
                                               r"not at the hom offset 2$"):
            self.rebuilt(P, -1, (0, 0), shifted)

    def test_entry_out_of_range_rejected(self):
        P = bottom_projector(2, depth=2)
        assert len(P.objects[0]) == 1
        with pytest.raises(GradingError, match=r"^entry \(7, 0\) at degree -1 is out of range$"):
            self.rebuilt(P, -1, (7, 0), P.differentials[-1][(0, 0)])

    def test_objects_above_h_max_rejected(self):
        P = bottom_projector(2, depth=2)
        objects = {**P.objects, 3: P.objects[0]}
        with pytest.raises(GradingError, match=r"^cells at degree 3 outside \[-2, 0\]$"):
            TwistedTangleComplex(objects, P.differentials, P.h_min, P.h_max,
                                 P.complete, P.certificate)


class TestConeComponents:
    """twisted_cone checks its components as ChainMap checks integer ones."""

    def cone_with(self, h, key, sv):
        P = bottom_projector(2, depth=2)
        comps = counit_components(P, 2)
        comps.setdefault(h, {})[key] = sv
        return twisted_cone(P, unit_complex(2), comps)

    def counit_entry(self):
        P = bottom_projector(2, depth=2)
        return counit_components(P, 2)[0][(0, 0)]

    def test_component_out_of_range_rejected(self):
        with pytest.raises(ChainMapError, match=r"^component \(5, 0\) at degree 0 is out of range$"):
            self.cone_with(0, (5, 0), self.counit_entry())

    def test_component_where_neither_side_has_objects_rejected(self):
        with pytest.raises(ChainMapError, match=r"^component \(0, 0\) at degree 1 is out of range$"):
            self.cone_with(1, (0, 0), self.counit_entry())

    def test_component_on_the_wrong_double_rejected(self):
        P = bottom_projector(2, depth=2)
        wrong = identity_state(ID2)
        assert wrong.diagram.arcs != hom_double(P.objects[0][0][0], ID2)[0].arcs
        with pytest.raises(ChainMapError,
                           match=r"^component \(0, 0\) at degree 0 is on the wrong double$"):
            self.cone_with(0, (0, 0), wrong)

    def test_component_of_the_wrong_degree_rejected(self):
        sv = self.counit_entry()
        with pytest.raises(ChainMapError, match=r"^component \(0, 0\) at degree 0 has degree 3, "
                                                r"expected 1$"):
            self.cone_with(0, (0, 0), StateVector(sv.diagram, sv.offset,
                                                 {(X,) * len(sv.diagram): 1}))


class TestCounit:
    def test_component_degrees(self):
        for N, depth in ((2, 3), (4, 1)):
            P = bottom_projector(N, depth)
            comps = counit_components(P, N)
            for (i, j), sv in comps[0].items():
                assert sv.degrees() == [N // 2]

    def test_chain_map_two_strands(self):
        P = bottom_projector(2, depth=6)
        twisted_cone(P, unit_complex(2), counit_components(P, 2))

    def test_chain_map_four_strands(self):
        P = bottom_projector(4, depth=2)
        twisted_cone(P, unit_complex(4), counit_components(P, 4))

    def test_left_and_right_absorption_collapse_equally(self):
        ring = SmallRing(2, 2)
        P = bottom_projector(4, depth=1)
        eps = counit_components(P, 4)[0]
        ID4 = identity_tangle(4)
        for j, _word in enumerate(bar_words(ring, 1)):
            total = None
            for (i, jj), sv in P.differentials[-1].items():
                if jj != j:
                    continue
                T_src = P.objects[-1][j][0]
                T_tgt = P.objects[0][i][0]
                step = pair(T_src, T_tgt, ID4, sv, eps[(0, i)])
                total = step if total is None else total + step
            assert total is not None
            assert not total


class TestConeAbsorption:
    @pytest.mark.parametrize("above", [True, False])
    def test_cone_of_counit_dies_after_gluing_e(self, above):
        P = bottom_projector(2, depth=6)
        cone = twisted_cone(P, unit_complex(2), counit_components(P, 2))
        glued = cone.stacked(E, above=above)
        for b in (ID2, E):
            hom = glued.hom_complex(b).homology((-3, 0), (0, 6))
            assert homology_is_zero(hom)


class TestHomComplex:
    def test_unit_complex_hom_is_one_column(self):
        U = unit_complex(2)
        for b in (ID2, E):
            hc = U.hom_complex(b)
            d, off = hom_double(b, ID2)
            assert len(hc.generators[0]) == len(kh_basis(d, off))
            assert not hc.differentials

    def test_homology_stable_under_deeper_truncation(self):
        shallow = bottom_projector(2, depth=6).hom_complex(ID2)
        deep = bottom_projector(2, depth=9).hom_complex(ID2)
        window = ((-4, 0), (0, 8))
        assert shallow.homology(*window) == deep.homology(*window)

    def test_truncation_barrier_raises(self):
        hc = bottom_projector(2, depth=3).hom_complex(ID2)
        assert hc.homology_at(-3, 5)
        with pytest.raises(TruncationError):
            hc.homology_at(-3, 20)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_truncation_boundary_is_exact(self, depth):
        # the last cell the certificate covers at h_min answers; the next raises
        for b in (ID2, E):
            hc = bottom_projector(2, depth).hom_complex(b)
            bound = hc.min_q_at(hc.h_min - 1)
            hc.homology_at(hc.h_min, bound - 1)
            with pytest.raises(TruncationError):
                hc.homology_at(hc.h_min, bound)

    def test_projector_hom_matches_hand_matrices(self):
        # On two strands both outer faces act as multiplication by x, the cap
        # one with sign +1 and the cup one with sign (-1)^s, so the induced
        # map on Hom(id2, -) is (1 + (-1)^s) x degree by degree.
        hc = bottom_projector(2, depth=5).hom_complex(ID2)
        for s in range(5):
            assert [q for _, q in hc.generators[-s]] == [2 * s + 2, 2 * s + 4]
        for s in range(1, 5):
            rows, n_src, n_tgt = dense_block(hc, -s, 2 * s + 2)
            assert (n_src, n_tgt) == (1, 1)
            assert rows == [[1 + (-1) ** s]]

    def test_projector_hom_torsion_pattern(self):
        hc = bottom_projector(2, depth=6).hom_complex(ID2)
        hom = hc.homology((-3, 0), (0, 10))
        assert {k: v for k, v in hom.betti.items() if v} == {
            (0, 2): 1, (0, 4): 1, (-1, 4): 1, (-2, 8): 1, (-3, 8): 1,
        }
        assert {k: v for k, v in hom.torsion.items() if v} == {
            (-1, 6): (2,), (-3, 10): (2,),
        }


def assert_same_evaluation(fast, slow):
    """Two integer complexes with equal generators and equal differentials,
    entries in the same order; True when the differential is nonzero."""
    assert fast.generators == slow.generators
    assert {h: list(d.items()) for h, d in fast.differentials.items()} == \
        {h: list(d.items()) for h, d in slow.differentials.items()}
    return any(fast.differentials.values())


def raised(call):
    """The type and text of the error call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestPlanDrivenEvaluation:
    """hom_complex and SmallRing.mul read the composition plans' tables;
    the routes through checked basis states and tqft.pair are the
    reference."""

    @pytest.mark.parametrize("N,depth", [(2, 1), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3)])
    def test_projector_hom_matches_pair_route(self, N, depth):
        rng = random.Random(10 * N + depth)
        P = bottom_projector(N, depth)
        flat = enumerate_matchings(N, N)
        fixed = rng.sample(flat, min(3, len(flat))) + [rng.choice(flat).with_circles(1)]
        assert any([assert_same_evaluation(P.hom_complex(b), hom_complex_by_pair(P, b))
                    for b in fixed])

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 0), (2, 2), (1, 3), (0, 4), (3, 3)])
    def test_ring_products_match_pair(self, m, n):
        ring = SmallRing(m, n)
        for a, b, c in itertools.product(ring.objects, repeat=3):
            for (lab1, _), (lab2, _) in itertools.product(ring.basis(a, b), ring.basis(b, c)):
                expected = ring_mul_by_pair(a, b, c, lab1, lab2)
                assert ring.product(a, b, c, lab1, lab2) == expected.sorted_terms()

    def test_ring_refuses_labelings_off_the_double(self):
        ring = SmallRing(2, 2)
        a, b = ring.objects
        for bad in [(0,) * 5, (0, 2)]:
            reference = raised(lambda: basis_state(a, b, bad))
            assert reference[0] is GradingError
            assert raised(lambda: ring.state(a, b, bad)) == reference
            assert raised(lambda: ring.product(a, b, a, bad, (0,))) == reference

    def perturbed(self, make):
        """bottom_projector(2, 2) with its first entry at degree -2
        replaced by make(entry), unchecked."""
        P = bottom_projector(2, depth=2)
        diffs = {h: dict(d) for h, d in P.differentials.items()}
        key, sv = next(iter(diffs[-2].items()))
        diffs[-2][key] = make(sv)
        return TwistedTangleComplex._trusted(P.objects, diffs, P.h_min, P.h_max,
                                             P.complete, P.certificate)

    @pytest.mark.parametrize("fault", ["double", "offset"])
    def test_faulty_entry_raises_as_the_pair_route_did(self, fault):
        def make(sv):
            if fault == "offset":
                return StateVector(sv.diagram, sv.offset + 1, sv.terms)
            d, off = hom_double(E, ID2)
            assert d.arcs != sv.diagram.arcs
            return StateVector(d, off, {(0,) * len(d): 1})

        P = self.perturbed(make)
        b = enumerate_matchings(2, 2)[0]
        reference = raised(lambda: hom_complex_by_pair(P, b))
        assert reference[0] is (InvalidBoundary if fault == "double" else GradingError)
        assert "second state" in reference[1]
        assert raised(lambda: P.hom_complex(b)) == reference


class TestShuffles:
    @pytest.mark.parametrize("r,s", [(0, 0), (1, 2), (2, 2), (3, 2)])
    def test_patterns_and_signs_match_oracle(self, r, s):
        got = {(pat, sign) for sign, pat in signed_shuffles(r, s)}
        want = {(tuple(1 if v == 0 else 2 for v in pat), sign)
                for pat, sign in all_shuffles(r, s)}
        assert got == want

    def test_empty_word_is_a_unit(self):
        w = ("a", "b")
        assert shuffle_words(w, ()) == [(1, w)]
        assert shuffle_words((), w) == [(1, w)]

    def test_shuffle_is_associative(self):
        u, v, w = ("a", "b"), ("c",), ("d", "e")

        def collect(pairs_of_words):
            out = {}
            for s1, mid in pairs_of_words[0]:
                for s2, full in shuffle_words(*pairs_of_words[1](mid)):
                    out[full] = out.get(full, 0) + s1 * s2
            return {k: c for k, c in out.items() if c}

        left = collect((shuffle_words(u, v), lambda mid: (mid, w)))
        right = collect((shuffle_words(v, w), lambda mid: (u, mid)))
        assert left == right

    def test_shuffle_is_graded_commutative(self):
        u, v = ("a", "b"), ("c", "d", "e")
        sign = (-1) ** (len(u) * len(v))
        flipped = {w: s * sign for s, w in shuffle_words(v, u)}
        assert {w: s for s, w in shuffle_words(u, v)} == flipped
