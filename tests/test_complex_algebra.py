"""The complex algebra that integer and twisted complexes share (sparse
product, d^2 = 0 check, chain-map check, mapping cone and its certificate),
checked against the nested scans and per-class cones in tests/oracles.py."""

import random
from types import SimpleNamespace

import pytest

from skeinhom import barproj, memo
from skeinhom.barproj import (TwistedTangleComplex, bottom_projector, counit_components,
                              twisted_cone, unit_complex)
from skeinhom.errors import ChainMapError, GradingError, TruncationError
from skeinhom.homalg import Certificate, ChainMap, TruncatedComplex, defect_degrees
from skeinhom.planar import cup_over_cap, identity_tangle
from skeinhom.surface import SurfaceComplex, coarsen
from skeinhom.tqft import StateVector, identity_state

from .oracles import (chain_map_cone_reference, nested_scan_chain_map_verify,
                      nested_scan_square_check, nested_scan_twisted_map_check,
                      twisted_cone_reference)
from .plan_oracles import square_check_by_sparse_product
from .test_surface import ANNULUS, ANNULUS2, CORE2, CUPCAP2, THROUGH2
from .test_windowed import CASES, full_build

ID2 = identity_tangle(2)


def outcome(check, *args):
    """"ok", or the message of the ChainMapError that check raises."""
    try:
        check(*args)
    except ChainMapError as exc:
        return str(exc)
    return "ok"


def perturbed(entry, kind):
    """An entry of the same degree as entry: doubled, negated, with one term
    doubled, or zero."""
    if kind == "double":
        return entry + entry
    if kind == "negate":
        return -entry
    if kind == "drop":
        return None
    if isinstance(entry, StateVector):
        (lab, c), *_ = entry.sorted_terms()
        return entry + StateVector(entry.diagram, entry.offset, {lab: c})
    return entry + 1


def perturbations(maps, rng, count):
    """count copies of the sparse maps {h: {key: entry}}, each with one
    seeded entry perturbed."""
    keys = [(h, k) for h, d in sorted(maps.items()) for k in d]
    for _ in range(count):
        h, k = rng.choice(keys)
        kind = rng.choice(("double", "negate", "term", "drop"))
        out = {g: dict(d) for g, d in maps.items()}
        entry = perturbed(out[h][k], kind)
        if entry is None:
            del out[h][k]
        else:
            out[h][k] = entry
        yield out


def rebuilt(cx, diffs):
    """cx with the differentials diffs, validated on construction."""
    return type(cx)(cx.cells, diffs, cx.h_min, cx.h_max, cx.complete, cx.certificate)


def unchecked(cx, diffs):
    """cx with the differentials diffs, stored without validation."""
    return type(cx)._trusted(cx.cells, diffs, cx.h_min, cx.h_max, cx.complete, cx.certificate)


def unverified(source, target, components):
    """The parts of a ChainMap, with no check that they make one."""
    return SimpleNamespace(source=source, target=target, components=components)


def surface_twisted(depth):
    return SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=depth).twisted


def identity_components(cx):
    """The identity chain map of a twisted complex."""
    return {h: {(j, j): identity_state(T) for j, (T, _s) in enumerate(obs)}
            for h, obs in cx.objects.items()}


def same_complex(new, old, radius=6):
    assert type(new) is type(old)
    assert new.cells == old.cells
    assert {h: list(d.items()) for h, d in new.differentials.items()} == \
        {h: list(d.items()) for h, d in old.differentials.items()}
    assert (new.h_min, new.h_max, new.complete) == (old.h_min, old.h_max, old.complete)
    assert (new.certificate is None) == (old.certificate is None)
    # what the program reads of a certificate: min_q_at below h_min
    degrees = range(new.h_min - radius, new.h_max + 2)
    assert [new.min_q_at(h) for h in degrees] == [old.min_q_at(h) for h in degrees]


class TestSquareCheck:
    @pytest.mark.parametrize("make,count", [
        (lambda: bottom_projector(2, 2), 12),
        (lambda: surface_twisted(1), 8),
        (lambda: surface_twisted(2), 8),
        (lambda: surface_twisted(3), 8),
    ], ids=["projector", "annulus1", "annulus2", "annulus3"])
    def test_matches_nested_scan_on_perturbed_complexes(self, make, count):
        cx = make()
        assert outcome(rebuilt, cx, cx.differentials) == "ok"
        assert outcome(nested_scan_square_check, cx) == "ok"
        failures = 0
        for diffs in perturbations(cx.differentials, random.Random(count), count):
            want = outcome(nested_scan_square_check, unchecked(cx, diffs))
            assert outcome(rebuilt, cx, diffs) == want
            failures += want != "ok"
        # at depth 1 there is one differential and nothing to compose
        assert failures or len(cx.differentials) < 2


class TestInternedEntries:
    """The d^2 = 0 check on interned entries (TwistedTangleComplex._square)
    against the sparse_product route it replaced, and the process tables."""

    @pytest.mark.parametrize("name", tuple(CASES))
    def test_routes_agree_on_every_windowed_case(self, name):
        cx = full_build(name, 3).twisted
        assert outcome(rebuilt, cx, cx.differentials) == "ok"
        assert outcome(square_check_by_sparse_product, cx) == "ok"
        for diffs in perturbations(cx.differentials, random.Random(name), 6):
            want = outcome(square_check_by_sparse_product, unchecked(cx, diffs))
            assert outcome(rebuilt, cx, diffs) == want

    def test_negated_entry_of_a_long_word_is_refused_alike(self):
        cx = surface_twisted(4)
        refused = 0
        # entries from word tuples of length 4 to ones of length 3; some
        # compose to zero with every next face, so their sign goes unseen
        for key in list(cx.differentials[-4])[:8]:
            diffs = {h: dict(d) for h, d in cx.differentials.items()}
            diffs[-4][key] = -diffs[-4][key]
            want = outcome(square_check_by_sparse_product, unchecked(cx, diffs))
            assert outcome(rebuilt, cx, diffs) == want
            refused += want.startswith("d^2 != 0 from degree -4: ")
        assert refused

    @pytest.mark.parametrize("last,want", [(-2, "ok"), (-1, "d^2 != 0 from degree 0: ")])
    def test_repeated_paths_count_with_their_multiplicity(self, last, want):
        # three equal middle objects: two equal paths from 0 to 0 and a
        # third that cancels both only when the two are counted twice
        one = identity_state(ID2)
        cx = TwistedTangleComplex._trusted(
            {0: ((ID2, 0),), 1: ((ID2, 0),) * 3, 2: ((ID2, 0),)},
            {0: {(k, 0): one for k in range(3)},
             1: {(0, 0): one, (0, 1): one, (0, 2): one.scaled(last)}}, 0, 2)
        for check in (square_check_by_sparse_product, lambda cx: rebuilt(cx, cx.differentials)):
            assert outcome(check, cx).startswith(want)

    def test_one_state_is_judged_per_source_shift(self):
        # the same interned state between two targets alike and sources of
        # different shifts: the fault table must not answer the second from
        # the first
        one = identity_state(ID2)
        TwistedTangleComplex({0: ((ID2, 0),), 1: ((ID2, 0),)}, {0: {(0, 0): one}}, 0, 1)
        with pytest.raises(GradingError, match="has degree 0, expected 2"):
            TwistedTangleComplex({0: ((ID2, 2),), 1: ((ID2, 0),)}, {0: {(0, 0): one}}, 0, 1)

    def test_one_state_is_judged_per_double(self):
        # the same interned state, judged right between objects of its
        # double, then placed between objects of another double: the fault
        # table must not answer the second from the first, so it keeps the
        # objects' tangles
        one, cap = identity_state(ID2), cup_over_cap(2)
        TwistedTangleComplex({0: ((ID2, 0),), 1: ((ID2, 0),)}, {0: {(0, 0): one}}, 0, 1)
        with pytest.raises(GradingError, match=r"entry \(0, 0\) at degree 0 is on the wrong"):
            TwistedTangleComplex({0: ((cap, 0),), 1: ((cap, 0),)}, {0: {(0, 0): one}}, 0, 1)

    def test_each_number_meets_one_pair_of_tangles(self, monkeypatch):
        # what keys the image and product tables on numbers alone: over
        # every windowed case, each entry number that hom_complex or _square
        # reads lies between one (source tangle, target tangle) pair
        met, last = {}, []
        real_sum, real_plan, real_check = (barproj._path_sum, barproj._composition_plan,
                                           barproj._check_on)

        def path_sum(compose, tangles, na, nc, paths):
            for nx, (nb, ny) in paths:
                met.setdefault(nx, set()).add((tangles[na], tangles[nb]))
                met.setdefault(ny, set()).add((tangles[nb], tangles[nc]))
            return real_sum(compose, tangles, na, nc, paths)

        def plan(b, src, tgt):
            last[:] = [(src, tgt)]
            return real_plan(b, src, tgt)

        def check(sv, double, what):
            # hom_complex checks each entry right after its plan lookup
            met.setdefault(barproj._entry_number(sv), set()).add(last[0])
            return real_check(sv, double, what)

        monkeypatch.setattr(barproj, "_path_sum", path_sum)
        monkeypatch.setattr(barproj, "_composition_plan", plan)
        monkeypatch.setattr(barproj, "_check_on", check)
        memo._forget()
        for spec, top, bottom in CASES.values():
            for q_range in (None, (0, 4)):
                SurfaceComplex(spec, top, bottom, depth=3, q_range=q_range)
        assert met and {n: pairs for n, pairs in met.items() if len(pairs) != 1} == {}

    def test_images_are_kept_per_tangle_b(self):
        # hom from two tangles over one complex: the image table tells them
        # apart, so the second evaluation equals a cold one
        first, second = cup_over_cap(2), ID2.with_circles(1)
        memo._forget()
        P = bottom_projector(2, 3)
        cold = P.hom_complex(second)
        memo._forget()
        P = bottom_projector(2, 3)
        P.hom_complex(first)
        warm = P.hom_complex(second)
        assert warm.generators == cold.generators and warm.differentials == cold.differentials
        numbers = {barproj._entry_number(sv) for d in P.differentials.values() for sv in d.values()}
        assert any(barproj._IMAGES[(first, n)] != barproj._IMAGES[(second, n)] for n in numbers)

    def test_equal_values_share_a_number_and_offsets_do_not(self):
        sv = next(iter(surface_twisted(1).differentials[-1].values()))
        n = barproj._entry_number(sv)
        copy = StateVector(sv.diagram, sv.offset, dict(sv.terms))
        assert copy is not sv
        assert barproj._entry_number(copy) == n and barproj._interned(copy) is sv
        moved = StateVector(sv.diagram, sv.offset + 2, dict(sv.terms))
        assert barproj._entry_number(moved) != n
        assert barproj._interned(moved) is moved

    def test_each_distinct_composite_and_fault_is_worked_once(self, monkeypatch):
        composed, judged = [], []
        real_pair, real_fault = barproj.pair, barproj._state_fault

        def pair(a, b, c, x, y):
            composed.append((a, b, c, barproj._entry_number(x), barproj._entry_number(y)))
            return real_pair(a, b, c, x, y)

        def fault(src, tgt, sv):
            judged.append((src, tgt, barproj._entry_number(sv)))
            return real_fault(src, tgt, sv)

        monkeypatch.setattr(barproj, "pair", pair)
        monkeypatch.setattr(barproj, "_state_fault", fault)
        memo._forget()
        first = surface_twisted(3)
        assert composed and judged
        assert len(set(composed)) == len(composed)
        assert len(set(judged)) == len(judged)
        # paths and entries repeat their values: far fewer composites than
        # paths, and fewer faults than entries
        paths = sum(1 for h, d in first.differentials.items()
                    for (k, _j) in d for (_i, k2) in first.differentials.get(h + 1, {})
                    if k2 == k)
        assert len(composed) * 2 < paths
        assert len(judged) < sum(map(len, first.differentials.values()))
        counts = len(composed), len(judged)
        surface_twisted(3)
        assert (len(composed), len(judged)) == counts


class TestChainMapCheck:
    @pytest.mark.parametrize("make,count", [
        (lambda: bottom_projector(2, 3), 12),
        (lambda: surface_twisted(2), 8),
    ], ids=["projector", "annulus2"])
    def test_twisted_matches_nested_scan(self, make, count):
        cx = make()
        rng = random.Random(count + 1)
        ident = identity_components(cx)
        assert outcome(twisted_cone, cx, cx, ident) == "ok"
        failures = 0
        for comps in perturbations(ident, rng, count):
            want = outcome(nested_scan_twisted_map_check, cx, cx, comps)
            assert outcome(twisted_cone, cx, cx, comps) == want
            failures += want != "ok"
        for diffs in perturbations(cx.differentials, rng, count):
            source = unchecked(cx, diffs)
            want = outcome(nested_scan_twisted_map_check, source, cx, ident)
            assert outcome(twisted_cone, source, cx, ident) == want
            failures += want != "ok"
        assert failures

    @pytest.mark.parametrize("seam", ["g1", "g2"])
    def test_integer_matches_nested_scan(self, seam):
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        tgt, cmap = coarsen(cx, seam)
        rng = random.Random(len(seam) + ord(seam[-1]))
        failures = 0
        for comps in perturbations(cmap.components, rng, 16):
            want = outcome(nested_scan_chain_map_verify,
                           unverified(cx.truncated, tgt.truncated, comps))
            assert outcome(ChainMap, cx.truncated, tgt.truncated, comps) == want
            failures += want != "ok"
        assert failures


class TestCones:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_integer_cone_of_coarsening(self, depth):
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=depth)
        for seam in ("g1", "g2"):
            _tgt, cmap = coarsen(cx, seam)
            same_complex(cmap.cone(), chain_map_cone_reference(cmap))

    def test_integer_cone_of_shifted_identity(self):
        cx = SurfaceComplex(ANNULUS, CUPCAP2, THROUGH2, depth=2).truncated
        for shift in ((0, 0), (-1, 2), (2, -1)):
            tc = cx.shifted(*shift)
            ident = {h: {(j, j): 1 for j in range(len(g))} for h, g in tc.generators.items()}
            cmap = ChainMap(tc, tc, ident)
            same_complex(cmap.cone(), chain_map_cone_reference(cmap))

    @pytest.mark.parametrize("N,depth", [(2, 1), (2, 2), (2, 3), (4, 1)])
    def test_twisted_cone_of_counit(self, N, depth):
        P = bottom_projector(N, depth)
        args = (P, unit_complex(N), counit_components(P, N))
        same_complex(twisted_cone(*args), twisted_cone_reference(*args))

    def test_twisted_cone_of_identity(self):
        for cx in (bottom_projector(2, 2), surface_twisted(1)):
            args = (cx, cx, identity_components(cx))
            same_complex(twisted_cone(*args), twisted_cone_reference(*args))


    def test_coarsening_cone_joins_both_certificates(self):
        # both sides are truncated: the cone takes the target's bounds as
        # they are and the source's one degree up
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        _tgt, cmap = coarsen(cx, "g2")
        src, tgt = cmap.source, cmap.target
        assert not (src.complete or tgt.complete)
        cone, ref = cmap.cone(), chain_map_cone_reference(cmap)
        assert cone.certificate == Certificate(
            tgt.certificate.bounds + src.certificate.shifted(dh=-1).bounds)
        below = range(cone.h_min - 8, cone.h_min)
        assert [cone.min_q_at(h) for h in below] == [ref.min_q_at(h) for h in below]

    def test_cone_of_an_uncertified_side_has_no_certificate(self):
        bare = TruncatedComplex({0: (("g", 1),)}, {}, h_min=0, h_max=0, complete=False)
        cone = ChainMap(bare, bare, {0: {(0, 0): 1}}).cone()
        assert cone.certificate is None
        with pytest.raises(TruncationError, match="no certificate"):
            cone.min_q_at(cone.h_min - 1)


class TestConeTruncationBoundary:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_twisted_cone_hom(self, depth):
        P = bottom_projector(2, depth)
        cone = twisted_cone(P, unit_complex(2), counit_components(P, 2))
        for b in (ID2, cup_over_cap(2)):
            hc = cone.hom_complex(b)
            bound = hc.min_q_at(hc.h_min - 1)
            hc.homology_at(hc.h_min, bound - 1)
            with pytest.raises(TruncationError):
                hc.homology_at(hc.h_min, bound)

    def test_integer_cone_of_coarsening(self):
        cx = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=2)
        _tgt, cmap = coarsen(cx, "g2")
        cone = cmap.cone()
        bound = cone.min_q_at(cone.h_min - 1)
        cone.homology_at(cone.h_min, bound - 1)
        with pytest.raises(TruncationError):
            cone.homology_at(cone.h_min, bound)


class TestShifted:
    def test_twisted_shift_negates_odd_and_moves_certificate(self):
        P = bottom_projector(2, 3)
        for dh, dq in ((1, 2), (-2, -1)):
            S = P.shifted(dh, dq)
            assert type(S) is TwistedTangleComplex
            assert S.objects == {h + dh: tuple((T, s + dq) for T, s in obs)
                                 for h, obs in P.objects.items()}
            sign = -1 if dh % 2 else 1
            assert S.differentials == {h + dh: {k: sv.scaled(sign) for k, sv in d.items()}
                                       for h, d in P.differentials.items()}
            assert (S.h_min, S.h_max) == (P.h_min + dh, P.h_max + dh)
            assert [S.certificate(r) for r in range(7)] == \
                [P.certificate(r + dh) + dq for r in range(7)]
            S._validate()


class TestMapDefectDegrees:
    """f d - d f is checked at every degree where either composite has both
    factors, also where source and target do not overlap."""

    def test_map_onto_fewer_degrees_is_checked(self):
        a = TruncatedComplex({-1: (("a", 0),), 0: (("b", 0),)}, {-1: {(0, 0): 1}})
        c = TruncatedComplex({0: (("c", 0),)}, {})
        comps = {0: {(0, 0): 1}}
        assert defect_degrees(a, c, comps) == [-1]
        with pytest.raises(ChainMapError):
            ChainMap(a, c, comps)
        assert outcome(nested_scan_chain_map_verify, unverified(a, c, comps)) != "ok"
        # without the differential the same component is a chain map
        ChainMap(TruncatedComplex({-1: (("a", 0),), 0: (("b", 0),)}, {}), c, comps)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_projector_counit_is_checked_and_passes(self, depth):
        P = bottom_projector(2, depth)
        args = (P, unit_complex(2), counit_components(P, 2))
        assert defect_degrees(*args) == [-1]
        assert outcome(nested_scan_twisted_map_check, *args) == "ok"
        twisted_cone(*args)

    def test_counit_on_perturbed_projectors_matches_nested_scan(self):
        # d_{-1} feeds the counit at degree 0, where the unit has no differential
        P = bottom_projector(2, 3)
        comps, unit = counit_components(P, 2), unit_complex(2)
        failures = 0
        for low in perturbations({-1: P.differentials[-1]}, random.Random(5), 12):
            source = unchecked(P, {**P.differentials, **low})
            want = outcome(nested_scan_twisted_map_check, source, unit, comps)
            assert outcome(twisted_cone, source, unit, comps) == want
            failures += want != "ok"
        assert failures
