"""End-to-end checks, one per advertised guarantee of the package.

Each test exercises a full slice of the library and, where a wall-clock
budget is part of the guarantee, enforces it so asymptotic regressions
fail loudly.  Expected values come from closed-form counts, independent
elimination oracles, or series identities, never from the code under test.
"""

import itertools
import json
import math
import random
import time

from skeinhom.barproj import (SmallRing, bar_words, bottom_projector, counit_components,
                              shuffle_words, twisted_cone, unit_complex, word_degree)
from skeinhom.homalg import LaurentPoly, TruncatedComplex
from skeinhom.planar import (ClosedDiagram, PlanarTangle, cup_over_cap,
                             enumerate_matchings, identity_tangle)
from skeinhom.spin import (RationalFunctionQ, SpinNetwork, admissible_triple,
                           cross_pairing_prediction, euler_crosscheck, quantum_integer,
                           theta, tl_closure, wenzl)
from skeinhom.surface import (SurfaceComplex, SurfaceElement, SurfaceSpec, SurfaceTangle,
                              arc, coarsen, compose, h0, identity_unit, seam_side)
from skeinhom.tqft import (ONE, X, basis_state, graded_rank, hom_double, hom_graded_rank,
                           identity_state, kh_basis, pair)

from .oracles import bareiss_rank, catalan, theta_by_pairs
from .test_homalg import random_shuffled_complex

ID1 = identity_tangle(1)
ID2 = identity_tangle(2)
E = cup_over_cap(2)

DISK = SurfaceSpec(arcs=(("a", 1),), seams=(), regions=((arc("a"),),))
DISK_ARC = SurfaceTangle.from_data({"regions": [{"counts": [2], "chords": [[0, 1]]}]})

ANNULUS = SurfaceSpec(
    arcs=(("a", 1), ("b", 1)),
    seams=("g",),
    regions=((seam_side("g", -1), arc("a"), seam_side("g", 1), arc("b")),),
)
CORE = SurfaceTangle.from_data(
    {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]}
)

ANNULUS2 = SurfaceSpec(
    arcs=(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
    seams=("g1", "g2"),
    regions=(
        (seam_side("g1", -1), arc("a0"), seam_side("g2", 1), arc("a1")),
        (seam_side("g2", -1), arc("a2"), seam_side("g1", 1), arc("a3")),
    ),
)
CORE2 = SurfaceTangle.from_data(
    {
        "regions": [
            {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
            {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
        ]
    }
)

TRI_ANNULUS = SurfaceSpec(
    arcs=(("a", 1), ("b", 1)),
    seams=("g1", "g2"),
    regions=(
        (arc("a"), seam_side("g1", 1), seam_side("g2", -1)),
        (arc("b"), seam_side("g2", 1), seam_side("g1", -1)),
    ),
)


def elapsed_under(started, budget):
    took = time.perf_counter() - started
    assert took < budget, f"took {took:.2f}s, budget {budget}s"


def circles_only(k):
    return ClosedDiagram.from_instances({"c": PlanarTangle(0, 0, (), k)}, {})


def hom_basis(a, b):
    d, off = hom_double(a, b)
    return [basis_state(a, b, lab) for lab, _ in kh_basis(d, off)]


def drop_zeros(table):
    return {k: v for k, v in table.items() if v}


def test_criterion_01_cap_tangle_counts():
    started = time.perf_counter()
    for k in range(9):
        assert len(enumerate_matchings(2 * k, 0)) == catalan(k)
    elapsed_under(started, 1.0)


def test_criterion_02_evaluation_and_frobenius_axioms():
    # k free circles evaluate to the k-th power of q + 1/q, expanded
    # independently through binomial coefficients
    for k in range(7):
        want = LaurentPoly({2 * i - k: math.comb(k, i) for i in range(k + 1)})
        assert graded_rank(circles_only(k), 0) == want

    # multiplication read off the strand endomorphism algebra
    mul = {}
    for u, v in itertools.product((ONE, X), repeat=2):
        sv = pair(ID1, ID1, ID1, basis_state(ID1, ID1, (u,)), basis_state(ID1, ID1, (v,)))
        mul[(u, v)] = {lab[0]: c for lab, c in sv.sorted_terms()}
    assert mul[(ONE, ONE)] == {ONE: 1}
    assert mul[(X, X)] == {}
    for u in (ONE, X):
        assert mul[(ONE, u)] == {u: 1}
        assert mul[(u, ONE)] == {u: 1}

    def mul_vec(left, right):
        out = {}
        for a, ca in left.items():
            for b, cb in right.items():
                for r, cr in mul[(a, b)].items():
                    out[r] = out.get(r, 0) + ca * cb * cr
        return drop_zeros(out)

    for u, v, w in itertools.product((ONE, X), repeat=3):
        assert mul_vec(mul[(u, v)], {w: 1}) == mul_vec({u: 1}, mul[(v, w)])

    # comultiplication read off the two saddles through the cap-cup tangle
    back = basis_state(E, ID2, (ONE,))
    delta = {}
    for u in (ONE, X):
        sad = basis_state(ID2, E, (ONE,))
        if u is X:
            sad = sad.dotted(next(iter(sad.diagram.arcs)))
        delta[u] = dict(pair(ID2, E, ID2, sad, back).sorted_terms())
    assert delta[ONE] == {(ONE, X): 1, (X, ONE): 1}
    assert delta[X] == {(X, X): 1}

    for u in (ONE, X):
        left, right = {}, {}
        for (a, b), c in delta[u].items():
            for (a1, a2), c2 in delta[a].items():
                key = (a1, a2, b)
                left[key] = left.get(key, 0) + c * c2
            for (b1, b2), c2 in delta[b].items():
                key = (a, b1, b2)
                right[key] = right.get(key, 0) + c * c2
        assert drop_zeros(left) == drop_zeros(right)

    for u, v in itertools.product((ONE, X), repeat=2):
        after = {}
        for w, cw in mul[(u, v)].items():
            for key, c in delta[w].items():
                after[key] = after.get(key, 0) + cw * c
        split_right = {}
        for (a, b), c in delta[v].items():
            for r, cr in mul[(u, a)].items():
                key = (r, b)
                split_right[key] = split_right.get(key, 0) + c * cr
        split_left = {}
        for (a, b), c in delta[u].items():
            for r, cr in mul[(b, v)].items():
                key = (a, r)
                split_left[key] = split_left.get(key, 0) + c * cr
        assert drop_zeros(after) == drop_zeros(split_right) == drop_zeros(split_left)

    # the trace functional is a two-sided counit for that comultiplication
    eps = {ONE: 0, X: 1}
    for u in (ONE, X):
        left, right = {}, {}
        for (a, b), c in delta[u].items():
            left[b] = left.get(b, 0) + c * eps[a]
            right[a] = right.get(a, 0) + c * eps[b]
        assert drop_zeros(left) == {u: 1}
        assert drop_zeros(right) == {u: 1}

    # a second dot on any component kills every basis morphism
    for m, n in ((1, 1), (2, 2)):
        for a in enumerate_matchings(m, n):
            for b in enumerate_matchings(m, n):
                for f in hom_basis(a, b):
                    for circle_arc in f.diagram.arcs:
                        assert not f.dotted(circle_arc).dotted(circle_arc)


def test_criterion_03_pairing_ring_structure():
    started = time.perf_counter()
    objs = enumerate_matchings(2, 2)
    for a in objs:
        for b in objs:
            for f in hom_basis(a, b):
                assert pair(a, a, b, identity_state(a), f) == f
                assert pair(a, b, b, f, identity_state(b)) == f
    for a, b, c, d in itertools.product(objs, repeat=4):
        for f in hom_basis(a, b):
            for g in hom_basis(b, c):
                for k in hom_basis(c, d):
                    left = pair(a, c, d, pair(a, b, c, f, g), k)
                    right = pair(a, b, d, f, pair(b, c, d, g, k))
                    assert left == right
    assert hom_graded_rank(ID1, ID1) == LaurentPoly({0: 1, 2: 1})
    assert hom_graded_rank(ID2, ID2) == LaurentPoly({0: 1, 2: 1}) ** 2
    elapsed_under(started, 10.0)


def test_criterion_04_projector_truncation_and_k_theory():
    started = time.perf_counter()
    # the strand endomorphism ring has a single degree-two letter, so the
    # reduced word count per length is one and the shifts are forced
    ring = SmallRing(1, 1)
    assert ring.objects == enumerate_matchings(1, 1)
    assert [ring.degree(ID1, ID1, lab) for lab in ring.reduced(ID1, ID1)] == [2]
    for s in range(13):
        words = bar_words(ring, s)
        assert len(words) == 1
        assert word_degree(ring, words[0]) == 2 * s

    projector = bottom_projector(2, depth=12)
    assert set(projector.objects) == {-s for s in range(13)}
    for s in range(13):
        assert projector.objects[-s] == ((E, 2 * s + 1),)

    series = projector.k0_series(E, (0, 25))
    target = RationalFunctionQ(LaurentPoly.q(), LaurentPoly({0: 1, 2: 1}))
    assert series == target.series_poly(0, 25)
    elapsed_under(started, 5.0)


def test_criterion_05_counit_cone_collapses_on_flat_tangles():
    started = time.perf_counter()
    projector = bottom_projector(2, depth=7)
    cone = twisted_cone(projector, unit_complex(2), counit_components(projector, 2))
    glued = cone.stacked(E, above=True)
    for b in (ID2, E):
        hom = glued.hom_complex(b).homology((-6, 0), (0, 10))
        assert hom.betti == {}
        assert hom.torsion == {}
    elapsed_under(started, 30.0)


def test_criterion_06_shuffle_product_associative_and_unital():
    ring = SmallRing(1, 1)
    words = {r: [letters for _objs, letters in bar_words(ring, r)] for r in range(4)}
    for r in range(4):
        for w in words[r]:
            assert shuffle_words(w, ()) == [(1, w)]
            assert shuffle_words((), w) == [(1, w)]

    def signed_sum(pairs, extend):
        out = {}
        for s1, mid in pairs:
            for s2, full in extend(mid):
                out[full] = out.get(full, 0) + s1 * s2
        return drop_zeros(out)

    for r1, r2, r3 in itertools.product(range(4), repeat=3):
        if r1 + r2 + r3 > 3:
            continue
        for u, v, w in itertools.product(words[r1], words[r2], words[r3]):
            left = signed_sum(shuffle_words(u, v), lambda mid: shuffle_words(mid, w))
            right = signed_sum(shuffle_words(v, w), lambda mid: shuffle_words(u, mid))
            assert left == right


def test_criterion_07_surface_composition_and_disk_hom():
    started = time.perf_counter()
    cx = SurfaceComplex(ANNULUS, CORE, CORE, depth=1)
    tgt = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)

    def lift(e):
        return SurfaceElement(tgt, e.h, dict(e.terms))

    elems = [lift(e) for h in (0, -1) for e in cx.basis_elements(h)]
    unit = lift(identity_unit(cx))
    for f in elems:
        assert compose(unit, f, target=tgt) == f
        assert compose(f, unit, target=tgt) == f
    for f, g, k in itertools.product(elems, repeat=3):
        left = compose(compose(f, g, target=tgt), k, target=tgt)
        right = compose(f, compose(g, k, target=tgt), target=tgt)
        assert left == right

    assert [h0(DISK, DISK_ARC, DISK_ARC, q) for q in range(5)] == [1, 0, 1, 0, 0]
    elapsed_under(started, 30.0)


def test_criterion_08_coarsening_induces_isomorphism():
    started = time.perf_counter()
    window = ((-2, 0), (0, 4))
    two_seams = SurfaceComplex(ANNULUS2, CORE2, CORE2, depth=4)
    one_seam = SurfaceComplex(ANNULUS, CORE, CORE, depth=4)
    hom_two = two_seams.homology(*window)
    hom_one = one_seam.homology(*window)
    assert hom_two.betti == hom_one.betti

    target, cmap = coarsen(two_seams, "g2")
    assert target.homology(*window) == hom_one
    cone = cmap.cone()
    hom_cone = cone.homology((-2, 0), (0, 4))
    assert hom_cone.betti == {}
    assert hom_cone.torsion == {}
    elapsed_under(started, 60.0)


def test_criterion_09_annular_endomorphism_homology():
    started = time.perf_counter()
    window = ((-3, 0), (0, 6))
    base = SurfaceComplex(ANNULUS, CORE, CORE, depth=5)
    hom = base.homology(*window)
    assert hom.betti == {(0, 0): 1, (0, 2): 1, (-1, 2): 1, (-2, 6): 1, (-3, 6): 1}
    assert hom.torsion == {(-1, 4): (2,)}

    deeper = SurfaceComplex(ANNULUS, CORE, CORE, depth=7)
    assert deeper.homology(*window) == hom

    unreduced = SurfaceComplex(ANNULUS, CORE, CORE, depth=5, reduced=False)
    for h in range(-3, 1):
        for q in range(0, 7):
            assert unreduced.truncated.homology_at(h, q) == base.truncated.homology_at(h, q)

    report = euler_crosscheck("annulus", 6)
    assert report.ok
    assert report.mismatches == ()
    elapsed_under(started, 120.0)


def test_criterion_10_skein_predictions():
    started = time.perf_counter()
    for n in range(6):
        assert tl_closure(wenzl(n)) == RationalFunctionQ(quantum_integer(n + 1))

    for a in range(5):
        for b in range(a, 5):
            for c in range(b, 5):
                # the oracle takes each ordering as given; theta rotates
                values = {theta_by_pairs(*perm) for perm in itertools.permutations((a, b, c))}
                assert values == {theta(a, b, c)}
                if not admissible_triple(a, b, c):
                    assert not values.pop()

    report = euler_crosscheck("triangle112", 10)
    assert report.ok
    assert report.mismatches == ()

    painted = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 1, "g2": 1})
    repainted = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 0, "g2": 0})
    assert not cross_pairing_prediction(painted, repainted)
    elapsed_under(started, 60.0)


def random_two_term_complex(rng):
    """A sparse differential between two rows of graded generators."""
    n_low = rng.randint(1, 15)
    n_high = rng.randint(1, 15)
    grades = (0, 1, 2)
    gens = {
        -1: tuple((f"s{i}", rng.choice(grades)) for i in range(n_low)),
        0: tuple((f"t{i}", rng.choice(grades)) for i in range(n_high)),
    }
    entries = {}
    for s in range(n_low):
        for t in range(n_high):
            if gens[-1][s][1] == gens[0][t][1] and rng.random() < 0.35:
                value = rng.randint(-4, 4)
                if value:
                    entries[(t, s)] = value
    return TruncatedComplex(gens, {-1: entries})


def rank_within_grade(cx, h, q):
    if h not in cx.differentials:
        return 0
    src = [i for i, (_, qq) in enumerate(cx.generators.get(h, ())) if qq == q]
    tgt = [i for i, (_, qq) in enumerate(cx.generators.get(h + 1, ())) if qq == q]
    if not src or not tgt:
        return 0
    d = cx.differentials[h]
    return bareiss_rank([[d.get((t, s), 0) for s in src] for t in tgt])


def betti_by_elimination(cx):
    out = {}
    for h, gens in cx.generators.items():
        for q in sorted({qq for _, qq in gens}):
            count = sum(1 for _, qq in gens if qq == q)
            betti = count - rank_within_grade(cx, h, q) - rank_within_grade(cx, h - 1, q)
            if betti:
                out[(h, q)] = betti
    return out


def test_criterion_11_homology_engine_against_rank_oracle():
    rng = random.Random(11)
    for trial in range(200):
        if trial % 2:
            cx = random_two_term_complex(rng)
        else:
            cx, _, _ = random_shuffled_complex(rng)
        grades = [q for gens in cx.generators.values() for _, q in gens]
        if not grades:
            continue
        window = ((cx.h_min, cx.h_max), (min(grades), max(grades)))
        assert cx.homology(*window).betti == betti_by_elimination(cx)

    cx, _, _ = random_shuffled_complex(random.Random(99))
    blobs = []
    for threads in (1, 2, 8):
        hom = cx.homology((cx.h_min, cx.h_max), (0, 2), threads=threads)
        payload = {
            "betti": sorted([h, q, b] for (h, q), b in hom.betti.items()),
            "torsion": sorted([h, q, list(t)] for (h, q), t in hom.torsion.items()),
        }
        blobs.append(json.dumps(payload, sort_keys=True).encode())
    assert blobs[0] == blobs[1] == blobs[2]
