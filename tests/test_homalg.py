import random

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom.errors import ChainMapError, GradingError, TruncationError
from skeinhom.homalg import (ChainMap, LaurentPoly, TruncatedComplex, circle_poly,
                             matrix_rank, smith_invariants, tensor)

from .optimized import error_under_optimize
from .oracles import bareiss_rank, rational_rank


class TestLaurentPoly:
    def test_arithmetic(self):
        p = LaurentPoly({-1: 1, 1: 1})
        assert p * p == LaurentPoly({-2: 1, 0: 2, 2: 1})
        assert p - p == LaurentPoly()
        assert (p + 1).coefficient(0) == 1
        assert 2 * p == LaurentPoly({-1: 2, 1: 2})
        assert p ** 3 == p * p * p

    def test_shift_and_bounds(self):
        p = LaurentPoly({0: 1, 2: -1})
        assert p.shifted(-2) == LaurentPoly({-2: 1, 0: -1})
        assert p.min_exp() == 0 and p.max_exp() == 2
        assert LaurentPoly().min_exp() is None

    def test_truncated(self):
        p = circle_poly(3)
        assert p.truncated(0, 3) == LaurentPoly({1: 3, 3: 1})

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ({}, "0"),
            ({0: 1}, "1"),
            ({-1: 1, 1: 1}, "q^-1 + q"),
            ({0: 1, 2: -1}, "1 - q^2"),
            ({3: 2}, "2q^3"),
            ({-2: -1, 0: 3}, "-q^-2 + 3"),
        ],
    )
    def test_str(self, coeffs, text):
        assert str(LaurentPoly(coeffs)) == text

    def test_immutable(self):
        p = LaurentPoly({0: 1})
        with pytest.raises(AttributeError):
            p.terms = ()


class TestIntegerLinearAlgebra:
    def test_known_invariants(self):
        assert smith_invariants([[2, 4], [6, 8]]) == [2, 4]
        assert smith_invariants([[1, 0], [0, 3]]) == [1, 3]
        assert smith_invariants([[0, 0], [0, 0]]) == []
        assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]

    def test_rank_matches_bareiss_oracle(self):
        rng = random.Random(7)
        for _ in range(80):
            rows = [
                [rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(rng.randint(1, 6))]
            ]
            cols = len(rows[0])
            for _ in range(rng.randint(0, 5)):
                rows.append([rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(cols)])
            assert matrix_rank(rows) == bareiss_rank(rows) == rational_rank(rows)
            assert len(smith_invariants(rows)) == rational_rank(rows)

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=5), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_invariants_divide_in_order(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        invs = smith_invariants(rows)
        assert all(b % a == 0 for a, b in zip(invs, invs[1:]))
        assert all(d > 0 for d in invs)


def random_shuffled_complex(rng, h_range=(-2, 1), q_values=(0, 1, 2), max_pieces=4):
    """A complex with homology known by construction.

    Within each quantum degree, elementary pieces (a surviving generator, or
    a pair joined by multiplication by k) are laid down and then mixed by
    integer row and column operations, which do not change the homology.
    """
    h_lo, h_hi = h_range
    gens = {h: [] for h in range(h_lo, h_hi + 1)}
    expected_betti = {}
    expected_torsion = {}
    blocks = {}
    for q in q_values:
        index = {h: [] for h in range(h_lo, h_hi + 1)}
        for h in range(h_lo, h_hi + 1):
            for _ in range(rng.randint(0, max_pieces)):
                kind = rng.random()
                if kind < 0.4 or h == h_hi:
                    index[h].append(len(gens[h]))
                    gens[h].append((f"s{h}.{q}.{len(gens[h])}", q))
                    expected_betti[(h, q)] = expected_betti.get((h, q), 0) + 1
                else:
                    k = rng.choice([1, 1, 2, 3, 4])
                    index[h].append(len(gens[h]))
                    gens[h].append((f"a{h}.{q}.{len(gens[h])}", q))
                    index[h + 1].append(len(gens[h + 1]))
                    gens[h + 1].append((f"b{h}.{q}.{len(gens[h + 1])}", q))
                    blocks.setdefault((h, q), []).append((index[h][-1], index[h + 1][-1], k))
                    if k > 1:
                        expected_torsion.setdefault((h + 1, q), []).append(k)
    diffs = {h: {} for h in range(h_lo, h_hi)}
    for (h, q), pieces in blocks.items():
        for src, tgt, k in pieces:
            diffs[h][(tgt, src)] = k
    # mix with elementary operations, separately per quantum degree
    for _ in range(40):
        h = rng.randint(h_lo, h_hi)
        same_q = {}
        for idx, (_, q) in enumerate(gens[h]):
            same_q.setdefault(q, []).append(idx)
        candidates = [v for v in same_q.values() if len(v) >= 2]
        if not candidates:
            continue
        group = rng.choice(candidates)
        i, j = rng.sample(group, 2)
        c = rng.choice([-2, -1, 1, 2])
        # basis change g_i += c * g_j : columns of d_h, rows of d_{h-1}
        if h in diffs:
            for (t, s), v in list(diffs[h].items()):
                if s == i:
                    diffs[h][(t, j)] = diffs[h].get((t, j), 0) - c * v
        if h - 1 in diffs:
            for (t, s), v in list(diffs[h - 1].items()):
                if t == j:
                    diffs[h - 1][(i, s)] = diffs[h - 1].get((i, s), 0) + c * v
    diffs = {h: {k: v for k, v in d.items() if v} for h, d in diffs.items()}
    gens = {h: tuple(g) for h, g in gens.items() if g}
    expected_torsion = {k: tuple(sorted(v)) for k, v in expected_torsion.items()}
    return TruncatedComplex(gens, diffs), expected_betti, expected_torsion


class TestRandomComplexes:
    def test_homology_matches_construction(self):
        rng = random.Random(2024)
        for _ in range(60):
            cx, betti, torsion = random_shuffled_complex(rng)
            hom = cx.homology((cx.h_min, cx.h_max), (0, 2))
            assert hom.betti == {k: v for k, v in betti.items() if v}
            got_torsion = {
                k: tuple(sorted(x for d in v for x in prime_powers(d)))
                for k, v in hom.torsion.items()
            }
            want_torsion = {
                k: tuple(sorted(x for d in v for x in prime_powers(d)))
                for k, v in torsion.items()
            }
            assert got_torsion == want_torsion

    def test_threaded_homology_is_identical(self):
        rng = random.Random(5)
        cx, _, _ = random_shuffled_complex(rng)
        base = cx.homology((cx.h_min, cx.h_max), (0, 2))
        for threads in (2, 8):
            again = cx.homology((cx.h_min, cx.h_max), (0, 2), threads=threads)
            assert again.betti == base.betti and again.torsion == base.torsion


def pairwise_d_squared_error(diffs):
    """The ChainMapError message of the first degree where d^2 != 0, found by
    pairing every entry of d_h with every entry of d_{h+1}; None if d^2 = 0."""
    for h in sorted(diffs):
        if h + 1 not in diffs:
            continue
        prod = {}
        for (i, j), c in diffs[h].items():
            for (k, i2), c2 in diffs[h + 1].items():
                if i2 == i:
                    prod[(k, j)] = prod.get((k, j), 0) + c * c2
        bad = {k: v for k, v in prod.items() if v}
        if bad:
            return f"d^2 != 0 from degree {h}: {sorted(bad.items())[:4]}"
    return None


def prime_powers(d):
    """Invariant-factor-free fingerprint of a finite cyclic group."""
    out = []
    p = 2
    while d > 1:
        while d % p == 0:
            k = 1
            d //= p
            while d % p == 0:
                k += 1
                d //= p
            out.append(p ** k)
        p += 1
    return out


class TestTruncatedComplex:
    def two_term(self, k, q=0):
        return TruncatedComplex({0: (("a", q),), 1: (("b", q),)}, {0: {(0, 0): k}})

    def test_torsion_of_multiplication(self):
        hom = self.two_term(6).homology((0, 1), (0, 0))
        assert hom.rows() == [(1, 0, 0, (6,))]

    def test_d_squared_checked(self):
        gens = {0: (("a", 0),), 1: (("b", 0),), 2: (("c", 0),)}
        with pytest.raises(ChainMapError):
            TruncatedComplex(gens, {0: {(0, 0): 1}, 1: {(0, 0): 1}})

    def test_d_squared_message(self):
        gens = {0: tuple((f"a{j}", 0) for j in range(3)), 1: (("b", 0),),
                2: (("c0", 0), ("c1", 0))}
        diffs = {0: {(0, j): 1 for j in range(3)}, 1: {(0, 0): 1, (1, 0): -2}}
        with pytest.raises(ChainMapError) as err:
            TruncatedComplex(gens, diffs)
        assert str(err.value) == (
            "d^2 != 0 from degree 0: [((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((1, 0), -2)]"
        )

    def test_perturbed_complex_message_matches_pairwise_scan(self):
        rng = random.Random(11)
        raised = 0
        for _ in range(40):
            cx, _, _ = random_shuffled_complex(rng)
            diffs = {h: dict(d) for h, d in cx.differentials.items()}
            hits = [(h, key) for h, d in diffs.items() if h + 1 in diffs
                    for key in d if any(i == key[0] for _k, i in diffs[h + 1])]
            if not hits:
                continue
            h, key = rng.choice(hits)
            diffs[h][key] += rng.choice([-1, 1]) if abs(diffs[h][key]) > 1 else 1
            if not diffs[h][key]:
                del diffs[h][key]
            want = pairwise_d_squared_error(diffs)
            if want is None:
                TruncatedComplex(cx.generators, diffs)
                continue
            with pytest.raises(ChainMapError) as err:
                TruncatedComplex(cx.generators, diffs)
            assert str(err.value) == want
            raised += 1
        assert raised >= 10

    def test_zero_entry_rejected(self):
        gens = {0: (("a", 0),), 1: (("b", 0),)}
        with pytest.raises(GradingError, match="zero differential entry"):
            TruncatedComplex(gens, {0: {(0, 0): 0}})
        line = error_under_optimize(
            "from skeinhom.homalg import TruncatedComplex\n"
            "TruncatedComplex({0: (('a', 0),), 1: (('b', 0),)}, {0: {(0, 0): 0}})\n"
        )
        assert line.startswith("skeinhom.errors.GradingError: zero differential entry")

    def test_quantum_preservation_checked(self):
        gens = {0: (("a", 0),), 1: (("b", 2),)}
        with pytest.raises(GradingError):
            TruncatedComplex(gens, {0: {(0, 0): 1}})

    def test_euler_series(self):
        cx = TruncatedComplex(
            {0: (("a", -1), ("b", 1)), 1: (("c", 1),)},
            {0: {(0, 1): 2}},
        )
        assert cx.euler_series((-2, 2)) == LaurentPoly({-1: 1})
        assert cx.euler_series((-2, 2), from_homology=True, h_range=(0, 1)) == LaurentPoly({-1: 1})

    def test_truncation_guard(self):
        cert = lambda r: 2 * r + 1
        cx = TruncatedComplex(
            {0: (("g", 1), ("h", 3)), -1: (("k", 3),)},
            {-1: {(1, 0): 2}},
            h_min=-1,
            h_max=0,
            complete=False,
            certificate=cert,
        )
        assert cx.homology_at(0, 1) == (1, ())
        assert cx.homology_at(-1, 3) == (0, ())
        with pytest.raises(TruncationError):
            cx.homology_at(-1, 5)
        assert cx.euler_series((0, 4)) == LaurentPoly({1: 1})
        with pytest.raises(TruncationError):
            cx.euler_series((0, 5))

    def test_truncated_without_certificate_refuses(self):
        cx = TruncatedComplex(
            {0: (("g", 1),)}, {}, h_min=0, h_max=0, complete=False, certificate=None
        )
        with pytest.raises(TruncationError):
            cx.homology_at(0, 1)

    def test_shift(self):
        cx = self.two_term(2).shifted(dh=-1, dq=3)
        hom = cx.homology((-1, 0), (3, 3))
        assert hom.rows() == [(0, 3, 0, (2,))]

    def test_chain_poincare(self):
        cx = self.two_term(1, q=2)
        assert cx.chain_poincare() == {(0, 2): 1, (1, 2): 1}


class TestTensorAndCone:
    def point(self, q):
        return TruncatedComplex({0: (("p", q),)}, {})

    def test_tensor_euler_multiplies(self):
        a = TruncatedComplex({0: (("u", -1), ("v", 1))}, {})
        t = tensor(a, a)
        assert t.euler_series((-2, 2)) == circle_poly(2)

    def test_tensor_with_acyclic_is_acyclic(self):
        acyclic = TruncatedComplex({0: (("a", 0),), 1: (("b", 0),)}, {0: {(0, 0): 1}})
        other = TruncatedComplex(
            {0: (("u", 0), ("v", 2)), 1: (("w", 2),)}, {0: {(0, 1): 3}}
        )
        t = tensor(acyclic, other)
        hom = t.homology((0, 2), (0, 4))
        assert hom.rows() == []

    def test_tensor_koszul_sign_gives_complex(self):
        two = TruncatedComplex({0: (("a", 0),), 1: (("b", 0),)}, {0: {(0, 0): 1}})
        # construction would raise if the sign convention broke d^2 = 0
        t = tensor(two, two)
        assert t.gen_count(1) == 2

    def test_cone_of_identity_is_acyclic(self):
        cx = TruncatedComplex({0: (("a", 0),), 1: (("b", 0),)}, {0: {(0, 0): 2}})
        cone = ChainMap(cx, cx, {0: {(0, 0): 1}, 1: {(0, 0): 1}}).cone()
        assert cone.homology((-1, 1), (0, 0)).rows() == []

    def test_cone_of_zero_is_sum_with_shift(self):
        a = TruncatedComplex({0: (("a", 3),)}, {})
        b = TruncatedComplex({0: (("b", 3),)}, {})
        cone = ChainMap(a, b, {}).cone()
        hom = cone.homology((-1, 0), (3, 3))
        assert hom.betti == {(-1, 3): 1, (0, 3): 1}

    def test_chain_map_verified(self):
        a = TruncatedComplex({0: (("a", 0),), 1: (("b", 0),)}, {0: {(0, 0): 2}})
        b = TruncatedComplex({0: (("c", 0),), 1: (("d", 0),)}, {0: {(0, 0): 3}})
        with pytest.raises(ChainMapError):
            ChainMap(a, b, {0: {(0, 0): 1}, 1: {(0, 0): 1}})

    def test_cone_exactness_for_multiplication(self):
        # cone of multiplication by 3 on a point: Z --3--> Z
        a = self_point = TruncatedComplex({0: (("p", 0),)}, {})
        f = ChainMap(a, a, {0: {(0, 0): 3}})
        hom = f.cone().homology((-1, 0), (0, 0))
        assert hom.rows() == [(0, 0, 0, (3,))]
