import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom.errors import (AdmissibilityError, InexactDivision, InvalidBoundary,
                             SpecError, TruncationError)
from skeinhom.homalg import LaurentPoly, circle_poly
from skeinhom.planar import (bend_down, bend_up, compose, cup_over_cap, enumerate_matchings,
                             identity_tangle)
from skeinhom.spin import (CrosscheckReport, RationalFunctionQ, SpinNetwork,
                           TLElement, admissible_triple, as_quantum_integer,
                           check_admissible, costandard_pairing_offset,
                           costandard_pairing_series, cross_pairing_prediction,
                           cup_cap_at, euler_crosscheck, identity_element, loop,
                           pairing_prediction, projector_truncation, quantum_integer, theta,
                           tl_closure, tl_compose, tl_tensor, wenzl)
from skeinhom.spin import _fraction_sum, _poly_div_exact, _poly_gcd
from skeinhom import memo, spin
from skeinhom.surface import SurfaceComplex, SurfaceSpec, arc, seam_side

from .optimized import error_under_optimize
from .oracles import (annular_trace_circles, fraction_reduced, pairing_by_steps, theta_by_pairs,
                      theta_by_sandwich, theta_formula, wenzl_two_sided)
from .plan_oracles import (costandard_series_by_pairs, pairing_by_one_reduction,
                           series_by_fractions, theta_by_one_reduction, theta_by_planar,
                           through_degree, tl_compose_termwise, wenzl_by_fractions)

RFQ = RationalFunctionQ

laurents = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5).map(LaurentPoly)
nonzero_laurents = laurents.filter(bool)

TRI_DISK = SurfaceSpec(
    arcs=(("ea", 1), ("eb", 1), ("ec", 1)),
    seams=(),
    regions=((arc("ea"), arc("eb"), arc("ec")),),
)

TRI_ANNULUS = SurfaceSpec(
    arcs=(("a", 1), ("b", 1)),
    seams=("g1", "g2"),
    regions=(
        (arc("a"), seam_side("g1", 1), seam_side("g2", -1)),
        (arc("b"), seam_side("g2", 1), seam_side("g1", -1)),
    ),
)


def disk_network(ea, eb, ec):
    return SpinNetwork(TRI_DISK, {"ea": ea, "eb": eb, "ec": ec})


def ring_surface(arcs, seams):
    """A ring of k triangles around an annulus: region t is [arc a_t,
    seam g_t +, seam g_(t-1) -], indices mod k.  k = 2 with arcs a, b and
    seams g1, g2 is TRI_ANNULUS."""
    return SurfaceSpec(
        arcs=tuple((name, 1) for name in arcs),
        seams=tuple(seams),
        regions=tuple((arc(arcs[t]), seam_side(seams[t], 1), seam_side(seams[t - 1], -1))
                      for t in range(len(arcs))),
    )


def ring_network(arc_colors, seam_colors):
    arcs = [f"a{t}" for t in range(len(arc_colors))]
    seams = [f"g{t}" for t in range(len(seam_colors))]
    return SpinNetwork(ring_surface(arcs, seams),
                       {**dict(zip(arcs, arc_colors)), **dict(zip(seams, seam_colors))})


def literal(value):
    """A rational function as its printed form and its stored terms."""
    return str(value), value.num.terms, value.den.terms


class TestQuantumInteger:
    def test_small_values(self):
        assert quantum_integer(0) == LaurentPoly.zero()
        assert quantum_integer(1) == LaurentPoly.one()
        assert quantum_integer(2) == LaurentPoly({-1: 1, 1: 1})
        assert quantum_integer(3) == LaurentPoly({-2: 1, 0: 1, 2: 1})

    def test_negative_rejected(self):
        with pytest.raises(InvalidBoundary):
            quantum_integer(-1)

    def test_recognizer(self):
        for k in range(7):
            assert as_quantum_integer(RFQ(quantum_integer(k))) == k
        assert as_quantum_integer(RFQ(LaurentPoly({0: 1, 1: 1}))) is None
        assert as_quantum_integer(RFQ(1, quantum_integer(2))) is None


class TestRationalFunctionQ:
    def test_normalization_cancels(self):
        two = quantum_integer(2)
        assert RFQ(two, two) == RFQ.one()
        assert RFQ(two * two, two) == RFQ(two)
        assert RFQ(two).den == LaurentPoly.one()

    def test_q_power_lives_in_numerator(self):
        f = RFQ(LaurentPoly.q(2), quantum_integer(2))
        assert f.den.min_exp() == 0
        assert f.den.coefficient(0) != 0
        assert f.num == LaurentPoly.q(3)

    def test_denominator_sign_and_content(self):
        f = RFQ(LaurentPoly({0: -2}), LaurentPoly({0: -4, 2: -4}))
        assert f.num == LaurentPoly.one()
        assert f.den == LaurentPoly({0: 2, 2: 2})

    def test_zero_and_bool(self):
        assert not RFQ.zero()
        assert RFQ.zero() == RFQ(0)
        assert RFQ.one()
        with pytest.raises(ZeroDivisionError):
            RFQ(1, LaurentPoly.zero())
        with pytest.raises(ZeroDivisionError):
            RFQ.one() / RFQ.zero()

    def test_arithmetic_identities(self):
        half = RFQ(1, quantum_integer(2))
        assert half * quantum_integer(2) == RFQ.one()
        assert half + half == RFQ(2, quantum_integer(2))
        assert half - half == RFQ.zero()
        assert -half + half == RFQ.zero()
        assert (half / half) == RFQ.one()
        assert 1 - half == RFQ(quantum_integer(2) - LaurentPoly.one(), quantum_integer(2))

    @settings(deadline=None, max_examples=80)
    @given(a=laurents, b=nonzero_laurents)
    def test_division_roundtrip(self, a, b):
        assert RFQ(a, b) * b == RFQ(a)

    @settings(deadline=None, max_examples=80)
    @given(a=laurents, b=nonzero_laurents, c=nonzero_laurents)
    def test_common_factor_cancels(self, a, b, c):
        assert RFQ(a * c, b * c) == RFQ(a, b)

    @settings(deadline=None, max_examples=80)
    @given(a=laurents, b=laurents, c=nonzero_laurents)
    def test_addition_over_common_denominator(self, a, b, c):
        assert RFQ(a, c) + RFQ(b, c) == RFQ(a + b, c)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(laurents, st.sampled_from(
        [LaurentPoly.one(), quantum_integer(2), quantum_integer(3), LaurentPoly({0: 2, 1: -1})]
    )), max_size=6))
    def test_fraction_sum_matches_termwise_sum(self, terms):
        want = RFQ.zero()
        for num, den in terms:
            want = want + RFQ(num, den)
        assert _fraction_sum(terms) == want

    @settings(deadline=None, max_examples=40)
    @given(a=laurents)
    def test_polynomial_series_is_identity(self, a):
        assert RFQ(a).series_poly(-10, 10) == a

    def test_series_of_inverse_quantum_two(self):
        half = RFQ(1, quantum_integer(2))
        assert half.series_poly(0, 8) == LaurentPoly({1: 1, 3: -1, 5: 1, 7: -1})

    @settings(deadline=None, max_examples=80)
    @given(num=laurents, c0=st.sampled_from([1, -1, 2, -3]),
           rest=st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=3),
           lo=st.integers(-6, 4), width=st.integers(0, 10))
    def test_series_matches_the_fraction_route(self, num, c0, rest, lo, width):
        value = RFQ(num, LaurentPoly({0: c0, **rest}))
        assert value.series(lo, lo + width) == series_by_fractions(value, lo, lo + width)

    @pytest.mark.parametrize("den,unit", [(LaurentPoly({0: 1, 1: 1}), True),
                                          (LaurentPoly({0: -1, 2: 1}), True),
                                          (LaurentPoly({0: 2, 1: 1}), False)])
    def test_series_routes_by_the_constant_term(self, den, unit):
        value = RFQ(LaurentPoly({-1: 3, 2: 1}), den)
        assert (value.den.terms[0][1] in (1, -1)) == unit
        got = value.series(-3, 9)
        assert got == series_by_fractions(value, -3, 9)
        assert got and all(type(c) is Fraction for c in got.values())
        assert all(c.denominator == 1 for c in got.values()) == unit

    def test_series_rejects_fractional_window(self):
        f = RFQ(1, LaurentPoly({0: 2}))
        with pytest.raises(ValueError, match="non-integer"):
            f.series_poly(0, 2)

    def test_str_forms(self):
        assert str(RFQ(quantum_integer(2))) == "q^-1 + q"
        assert str(RFQ(1, quantum_integer(2))) == "q / 1 + q^2"
        assert str(RFQ.zero()) == "0"

    def test_rejects_second_denominator(self):
        with pytest.raises(TypeError):
            RFQ(RFQ.one(), LaurentPoly.one())
        line = error_under_optimize(
            "from skeinhom.spin import RationalFunctionQ as R\n"
            "R(R(1), 2)\n"
        )
        assert line.startswith("TypeError:")


    @pytest.mark.parametrize("args", [(1.5,), (Fraction(1, 2),), ("1",), (None,),
                                      (1, 2.0), (LaurentPoly.one(), [1])])
    def test_refuses_unknown_types(self, args):
        # a float used to fail later with "no attribute 'terms'"
        bad = type(args[-1]).__name__
        with pytest.raises(TypeError, match=f"not {bad}$"):
            RFQ(*args)

    def test_mixed_with_laurent_polynomials(self):
        one, q = LaurentPoly.one(), LaurentPoly.q()
        assert one * RFQ.one() == RFQ.one() and isinstance(one * RFQ.one(), RFQ)
        assert one + RFQ.one() == RFQ(2) and isinstance(one + RFQ.one(), RFQ)
        assert q - RFQ(q) == RFQ.zero() and isinstance(q - RFQ(q), RFQ)
        assert q * RFQ(1, quantum_integer(2)) == RFQ(q, quantum_integer(2))
        assert one == RFQ.one() and RFQ.one() == one
        assert q != RFQ.one() and RFQ.one() != q
        with pytest.raises(TypeError):
            RFQ.one() * 2.5


    def test_equal_mixed_values_share_dict_keys(self):
        one, q = LaurentPoly.one(), LaurentPoly.q(1)
        assert {one: "x"}.get(1) == "x" and {1: "x"}.get(one) == "x"
        assert {RFQ.one(): "x"}.get(one) == "x" and {RFQ(q): "x"}.get(q) == "x"
        assert hash(LaurentPoly.zero()) == hash(0) == hash(RFQ.zero())
        assert hash(q) == hash(RFQ(q)) == hash(RFQ(q * quantum_integer(2), quantum_integer(2)))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_equal_values_hash_alike(self, data):
        # two views of one polynomial, or of two: an int where it is a
        # constant, the polynomial, or a rational function over any factor
        small = st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(LaurentPoly)
        base = data.draw(small)

        def view(p):
            kinds = ["poly", "rfq", "rfq over a factor"] + (["int"] if p == p.coefficient(0) else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind == "int":
                return p.coefficient(0)
            if kind == "poly":
                return p
            if kind == "rfq":
                return RFQ(p)
            d = data.draw(small.filter(bool))
            return RFQ(p * d, d)

        a = view(base)
        b = view(data.draw(st.sampled_from([base, data.draw(small)])))
        if a == b:
            assert b == a
            assert hash(a) == hash(b)


def reduced_pair(f):
    return dict(f.num.terms), dict(f.den.terms)


class TestNormalization:
    """Integer pseudo-remainder reduction against the Euclidean reduction over
    Fractions that it replaced (tests/oracles.py)."""

    @settings(deadline=None, max_examples=150)
    @given(a=nonzero_laurents, b=nonzero_laurents, c=nonzero_laurents)
    def test_matches_fraction_oracle(self, a, b, c):
        num, den = a * c, b * c
        assert reduced_pair(RFQ(num, den)) == fraction_reduced(dict(num.terms), dict(den.terms))

    @pytest.mark.parametrize(
        "num, den, want",
        [
            # content and a non-monic lead: (2q + 4) / (6q^2 - 6)
            ({0: 4, 1: 2}, {0: -6, 2: 6}, ({0: 2, 1: 1}, {0: -3, 2: 3})),
            # negative leads: (1 - q^2) / (-1 - q) = q - 1
            ({0: 1, 2: -1}, {0: -1, 1: -1}, ({0: -1, 1: 1}, {0: 1})),
            ({0: 3}, {0: 1, 1: -2}, ({0: -3}, {0: -1, 1: 2})),
            # a power of q in the denominator moves to the numerator
            ({0: 1}, {1: 1, 2: 1}, ({-1: 1}, {0: 1, 1: 1})),
            ({3: 2}, {-2: 4, 0: 2}, ({5: 1}, {0: 2, 2: 1})),
        ],
    )
    def test_reduced_forms(self, num, den, want):
        assert reduced_pair(RFQ(LaurentPoly(num), LaurentPoly(den))) == want
        assert fraction_reduced(num, den) == want

    @settings(deadline=None, max_examples=150)
    @given(a=laurents, d=nonzero_laurents.filter(lambda d: d != 1))
    def test_over_one_keeps_the_general_reduced_form(self, a, d):
        # a denominator of one returns at once; the general route through
        # the gcd must reach the same pair
        fast = RFQ(a, LaurentPoly.one())
        assert fast.num is a and fast.den == LaurentPoly.one()
        assert reduced_pair(fast) == reduced_pair(RFQ(a * d, d))
        if a:
            assert reduced_pair(fast) == fraction_reduced(dict(a.terms), {0: 1})

    def test_quantum_integer_quotients(self):
        qi = quantum_integer
        f = RFQ(qi(6) * qi(4), qi(4) * qi(3))
        assert f == RFQ(LaurentPoly({-3: 1, 3: 1}))
        for num, den in [(qi(6) * qi(4), qi(4) * qi(3)), (qi(5) * qi(2), qi(4) * qi(6)),
                         (qi(3) * qi(3) * qi(2), qi(6) * qi(4)), (qi(7), qi(5) * qi(5))]:
            assert reduced_pair(RFQ(num, den)) == fraction_reduced(dict(num.terms), dict(den.terms))

    def test_gcd_is_primitive_with_positive_lead(self):
        # (2q + 2)(q - 3) and (-4q - 4)(q^2 + 1) share q + 1
        assert _poly_gcd([-6, -4, 2], [-4, -4, -4, -4]) == [1, 1]
        assert _poly_gcd([5], [0, 3]) == [1]
        assert _poly_gcd([-2, 0, 2], [-3, 3]) == [-1, 1]

    def test_exact_division(self):
        assert _poly_div_exact([-1, 0, 1], [1, 1]) == [-1, 1]
        assert _poly_div_exact([4, 10, 4], [2, 1]) == [2, 4]

    @pytest.mark.parametrize(
        "a, g",
        [
            ([1, 0, 1], [1, 1]),  # q^2 + 1 leaves remainder 2 after q + 1
            ([1, 0, 1], [1, 2]),  # lead 1 is not a multiple of 2
            ([1], [1, 1]),  # divisor of higher degree
        ],
    )
    def test_inexact_division_raises(self, a, g):
        with pytest.raises(InexactDivision):
            _poly_div_exact(a, g)
        line = error_under_optimize(
            f"from skeinhom.spin import _poly_div_exact\n_poly_div_exact({a}, {g})\n"
        )
        assert line.startswith("skeinhom.errors.InexactDivision:")


class TestTLElement:
    def test_circles_fold_into_coefficients(self):
        e = cup_over_cap(2)
        x = TLElement(2, {e.with_circles(2): 1})
        assert x.coefficient(e) == RFQ(circle_poly(2))

    def test_boundary_mismatch_rejected(self):
        with pytest.raises(InvalidBoundary):
            TLElement(3, {identity_tangle(2): 1})
        with pytest.raises(InvalidBoundary):
            tl_compose(identity_element(2), identity_element(3))
        with pytest.raises(InvalidBoundary):
            identity_element(2) + identity_element(3)

    def test_zero_coefficients_drop(self):
        x = identity_element(2) - identity_element(2)
        assert not x
        assert identity_element(2).scaled(0) == x

    def test_generator_relation(self):
        e = TLElement(2, {cup_over_cap(2): 1})
        assert tl_compose(e, e) == e.scaled(quantum_integer(2))

    def test_cup_cap_range(self):
        with pytest.raises(InvalidBoundary):
            cup_cap_at(2, 1)
        with pytest.raises(InvalidBoundary):
            cup_cap_at(2, -1)
        assert cup_cap_at(2, 0) == cup_over_cap(2)

    def test_closure_of_identity_counts_strands(self):
        for n in range(4):
            assert tl_closure(identity_element(n)) == RFQ(circle_poly(n))

    def test_closure_multiplicative_under_tensor(self):
        e = TLElement(2, {cup_over_cap(2): 1})
        both = tl_tensor(e, identity_element(1))
        assert tl_closure(both) == tl_closure(e) * tl_closure(identity_element(1))

    @pytest.mark.parametrize("n", range(6))
    def test_closure_counts_circles_as_the_annular_walk(self, n):
        around = bend_up(identity_tangle(n))
        for d in enumerate_matchings(n, n):
            for c in range(3):
                walked = annular_trace_circles(d.with_circles(c))
                assert compose(bend_down(d.with_circles(c)), around).circles == walked
                x = TLElement(n, {d.with_circles(c): 1})
                assert tl_closure(x) == RFQ(circle_poly(walked))


def tl_elements(n, coefficients):
    """Elements on n strands with the drawn coefficients on some of the
    (n, n) Temperley-Lieb diagrams; possibly none."""
    diagrams = enumerate_matchings(n, n)
    return st.dictionaries(st.sampled_from(diagrams), coefficients,
                           max_size=len(diagrams)).map(lambda terms: TLElement(n, terms))


POLYNOMIAL = laurents.map(RFQ)
FRACTIONAL = st.tuples(laurents, st.sampled_from(
    [quantum_integer(2), quantum_integer(3), LaurentPoly({0: 2, 1: -1})])).map(lambda nd: RFQ(*nd))


class TestWenzl:
    def test_closure_gives_quantum_dimension(self):
        for n in range(8):
            assert tl_closure(wenzl(n)) == RFQ(quantum_integer(n + 1))
            assert loop(n) == RFQ(quantum_integer(n + 1))

    def test_two_strand_coefficients(self):
        p = wenzl(2)
        assert p.coefficient(identity_tangle(2)) == RFQ.one()
        assert p.coefficient(cup_over_cap(2)) == -RFQ(1, quantum_integer(2))

    def test_three_strand_coefficients(self):
        p = wenzl(3)
        frac = RFQ(quantum_integer(2), quantum_integer(3))
        assert p.coefficient(identity_tangle(3)) == RFQ.one()
        assert p.coefficient(cup_cap_at(3, 0)) == -frac
        assert p.coefficient(cup_cap_at(3, 1)) == -frac
        mixed = compose(cup_cap_at(3, 0), cup_cap_at(3, 1))
        assert p.coefficient(mixed) == RFQ(1, quantum_integer(3))
        assert p.coefficient(compose(cup_cap_at(3, 1), cup_cap_at(3, 0))) == RFQ(
            1, quantum_integer(3)
        )

    @pytest.mark.parametrize("n", range(7))
    def test_matches_two_sided_oracle(self, n):
        assert wenzl(n) == wenzl_two_sided(n)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_fraction_oracle(self, n):
        assert wenzl(n) == wenzl_by_fractions(n)

    @pytest.mark.parametrize("n", range(8))
    def test_cleared_idempotent_is_polynomial(self, n):
        cleared = spin._cleared_wenzl(n)
        assert cleared and all(c.den == LaurentPoly.one() for c in cleared.terms.values())
        factorial = LaurentPoly.one()
        for k in range(2, n + 1):
            factorial = factorial * quantum_integer(k)
        assert cleared == wenzl(n).scaled(factorial)

    def test_cold_chain_reduces_each_coefficient_once(self, monkeypatch):
        gcds = []
        real = spin._poly_gcd

        def counted(a, b):
            gcds.append((a, b))
            return real(a, b)

        monkeypatch.setattr(spin, "_poly_gcd", counted)
        memo._forget()
        for n in range(2, 7):
            wenzl(n)
        # one reduction per coefficient of each JW_n: Catalan(n) diagrams
        assert len(gcds) <= sum(math.comb(2 * n, n) // (n + 1) for n in range(2, 7)) == 195

    @pytest.mark.parametrize("n", range(4))
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_compose_matches_termwise_sum(self, n, data):
        coefficients = st.one_of(POLYNOMIAL, FRACTIONAL)
        x = data.draw(tl_elements(n, coefficients))
        y = data.draw(tl_elements(n, coefficients))
        assert tl_compose(x, y) == tl_compose_termwise(x, y)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_idempotent(self, n):
        p = wenzl(n)
        assert tl_compose(p, p) == p

    @pytest.mark.parametrize("n", range(2, 8))
    def test_kills_every_cup_cap(self, n):
        p = wenzl(n)
        for i in range(n - 1):
            hook = TLElement(n, {cup_cap_at(n, i): 1})
            assert not tl_compose(p, hook)
            assert not tl_compose(hook, p)

    def test_negative_strands_rejected(self):
        with pytest.raises(InvalidBoundary):
            wenzl(-1)


ADMISSIBLE_UP_TO_4 = [t for t in itertools.product(range(5), repeat=3) if admissible_triple(*t)]


class TestTheta:
    def test_admissible_ordered_triples_up_to_4(self):
        assert len(ADMISSIBLE_UP_TO_4) == 42

    @pytest.mark.parametrize("triple", ADMISSIBLE_UP_TO_4)
    def test_matches_sandwich_oracle(self, triple):
        assert theta(*triple) == theta_by_sandwich(*triple)

    @pytest.mark.parametrize("triple", ADMISSIBLE_UP_TO_4)
    def test_matches_pairs_oracle(self, triple):
        assert theta(*triple) == theta_by_pairs(*triple)

    def test_matches_factorial_formula(self):
        triples = list(itertools.product(range(7), repeat=3)) + [(7, 7, 6), (6, 7, 7)]
        for a, b, c in triples:
            num, den = theta_formula(a, b, c)
            val = theta(a, b, c)
            assert val.num * LaurentPoly(den) == val.den * LaurentPoly(num), (a, b, c)

    def test_matches_planar_oracle(self):
        triples = [t for t in itertools.combinations_with_replacement(range(8), 3)
                   if admissible_triple(*t)]
        for triple in triples:
            assert theta(*triple) == theta_by_planar(*triple), triple

    def test_formula_route_composes_no_diagram(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("theta evaluated a diagram")

        memo._forget()
        monkeypatch.setattr(spin, "wenzl", refuse)
        monkeypatch.setattr(spin, "compose", refuse)
        for triple in [(8, 8, 8), (7, 7, 6)]:
            num, den = theta_formula(*triple)
            assert theta(*triple) == RFQ(LaurentPoly(num), LaurentPoly(den)), triple

    def test_symmetric_in_colors(self):
        # theta evaluates every ordering at one rotation, so the symmetry
        # is checked on the oracle, which takes the colors as given
        for triple in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (0, 2, 2)]:
            vals = {theta_by_pairs(*p) for p in itertools.permutations(triple)}
            assert vals == {theta(*triple)}, triple

    def test_inadmissible_vanishes(self):
        assert not theta(1, 1, 1)
        assert not theta(0, 1, 2)
        assert not theta(1, 1, 4)
        assert not admissible_triple(1, 1, 1)
        assert not admissible_triple(1, 1, 4)
        assert admissible_triple(1, 1, 2)

    def test_closed_forms(self):
        assert theta(1, 1, 0) == RFQ(quantum_integer(2))
        assert theta(1, 1, 2) == RFQ(quantum_integer(3))
        assert theta(2, 1, 1) == RFQ(quantum_integer(3))
        for a in range(4):
            assert theta(a, a, 0) == RFQ(quantum_integer(a + 1))
            assert theta(a, 0, a) == RFQ(quantum_integer(a + 1))

    def test_two_two_two_is_not_polynomial(self):
        val = theta(2, 2, 2)
        assert val.den != LaurentPoly.one()
        num = quantum_integer(4) * quantum_integer(3)
        den = quantum_integer(2) * quantum_integer(2)
        assert val == RFQ(num, den)


MALFORMED_SKEIN_CALLS = [
    ("theta", (None, 1, 1), "theta: color a must be a non-negative integer, got None"),
    ("theta", (1.5, 1, 1), "theta: color a must be a non-negative integer, got 1.5"),
    ("theta", (True, 1, 1), "theta: color a must be a non-negative integer, got True"),
    ("theta", (-1, 1, 1), "theta: color a must be a non-negative integer, got -1"),
    ("theta", (1, 1, "2"), "theta: color c must be a non-negative integer, got '2'"),
    ("loop", (1.5,), "loop: color must be a non-negative integer, got 1.5"),
    ("loop", (None,), "loop: color must be a non-negative integer, got None"),
    ("loop", ("2",), "loop: color must be a non-negative integer, got '2'"),
    ("loop", (True,), "loop: color must be a non-negative integer, got True"),
    ("loop", (-1,), "loop: color must be a non-negative integer, got -1"),
    ("euler_crosscheck", ("annulus", 1.5),
     "crosscheck: order must be a non-negative integer, got 1.5"),
    ("euler_crosscheck", ("annulus", 2, 1.5),
     "crosscheck: depth must be a non-negative integer, got 1.5"),
    ("euler_crosscheck", ("annulus", 2, -1),
     "crosscheck: depth must be a non-negative integer, got -1"),
]


class TestMalformedArguments:
    """theta, loop and euler_crosscheck check each color, order and depth
    where it comes in, before any cache: an lru_cache would take True for 1."""

    @pytest.mark.parametrize("name, args, message", MALFORMED_SKEIN_CALLS)
    def test_refused_with_a_spec_error(self, name, args, message):
        # warm the caches that True would hit as 1
        theta(1, 1, 2)
        loop(1)
        with pytest.raises(SpecError) as info:
            getattr(spin, name)(*args)
        assert str(info.value) == message

    def test_refused_under_optimize(self):
        calls = "".join(f"check({name!r}, {args!r})\n"
                        for name, args, _message in MALFORMED_SKEIN_CALLS)
        line = error_under_optimize(
            "from skeinhom import spin\n"
            "from skeinhom.errors import SpecError\n"
            "def check(name, args):\n"
            "    try:\n"
            "        getattr(spin, name)(*args)\n"
            "    except SpecError:\n"
            "        return\n"
            "    raise SystemExit(f'{name}{args} was not refused')\n"
            + calls + "raise ValueError('all refused')\n")
        assert line == "ValueError: all refused"

    def test_well_formed_values_are_unchanged(self):
        assert not theta(1, 1, 1) and not theta(0, 0, 2)
        assert loop(0) == RFQ(1) and loop(2) == RFQ(quantum_integer(3))
        assert euler_crosscheck("strands0", 0, None).ok
        with pytest.raises(InvalidBoundary):
            wenzl(-1)


class TestThroughDegree:
    def test_identity_passes_every_strand(self):
        for n in range(6):
            assert through_degree(identity_tangle(n)) == n

    def test_cup_over_cap_passes_none(self):
        for m in (0, 2, 4, 6):
            assert through_degree(cup_over_cap(m)) == 0

    @given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3), st.data())
    def test_composite_passes_at_most_each_factor(self, k, i, j, data):
        m, n = 2 * i + k % 2, 2 * j + k % 2
        lower = data.draw(st.sampled_from(enumerate_matchings(k, m)))
        upper = data.draw(st.sampled_from(enumerate_matchings(m, n)))
        through = through_degree(compose(upper, lower))
        assert through <= min(through_degree(lower), through_degree(upper))


class TestSpinNetwork:
    def test_from_data_roundtrip(self):
        net = SpinNetwork.from_data(
            {
                "surface": {
                    "arcs": ["ea", "eb", "ec"],
                    "regions": [[{"arc": "ea"}, {"arc": "eb"}, {"arc": "ec"}]],
                },
                "coloring": {"ea": 1, "eb": 1, "ec": 2},
            }
        )
        assert net.surface == TRI_DISK
        assert net.coloring == {"ea": 1, "eb": 1, "ec": 2}

    def test_missing_and_extra_colors(self):
        with pytest.raises(SpecError, match="misses"):
            SpinNetwork(TRI_DISK, {"ea": 1, "eb": 1})
        with pytest.raises(SpecError, match="unknown"):
            SpinNetwork(TRI_DISK, {"ea": 1, "eb": 1, "ec": 0, "ed": 1})

    def test_missing_color_is_refused_under_optimize(self):
        line = error_under_optimize(
            "from skeinhom.spin import SpinNetwork\n"
            "from skeinhom.surface import SurfaceSpec, arc\n"
            "tri = SurfaceSpec((('ea', 1), ('eb', 1), ('ec', 1)), (),\n"
            "                  ((arc('ea'), arc('eb'), arc('ec')),))\n"
            "SpinNetwork(tri, {'ea': 1, 'eb': 1})\n")
        assert line == "skeinhom.errors.SpecError: coloring misses ['ec']"

    def test_network_is_frozen(self):
        net = disk_network(1, 1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.coloring = {"ea": 1, "eb": 1, "ec": 3}

    def test_negative_color_rejected(self):
        with pytest.raises(SpecError, match="non-negative"):
            SpinNetwork(TRI_DISK, {"ea": -1, "eb": 1, "ec": 0})

    @pytest.mark.parametrize("color", [1.5, 2.0, "2", None, True, [1]])
    def test_non_integer_color_rejected(self, color):
        with pytest.raises(SpecError, match=r"integers; bad at \['ec'\]"):
            SpinNetwork(TRI_DISK, {"ea": 1, "eb": 1, "ec": color})

    def test_non_triangular_region_rejected(self):
        square = SurfaceSpec(
            arcs=(("a", 1), ("b", 1)),
            seams=("g",),
            regions=((seam_side("g", -1), arc("a"), seam_side("g", 1), arc("b")),),
        )
        with pytest.raises(SpecError, match="triangles"):
            SpinNetwork(square, {"a": 0, "b": 0, "g": 0})

    def test_admissibility_names_the_region(self):
        with pytest.raises(AdmissibilityError, match="region 0"):
            check_admissible(disk_network(1, 1, 1))
        check_admissible(disk_network(1, 1, 2))

    def test_coloring_is_a_copy(self):
        coloring = {"ea": 1, "eb": 1, "ec": 2}
        net = SpinNetwork(TRI_DISK, coloring)
        coloring["ec"] = 0
        assert net.coloring == {"ea": 1, "eb": 1, "ec": 2}
        assert pairing_prediction(net) == RFQ(quantum_integer(3))

    def test_coloring_refuses_assignment(self):
        net = disk_network(1, 1, 2)
        with pytest.raises(TypeError, match="does not support item assignment"):
            net.coloring["ec"] = 2.0
        assert pairing_prediction(net) == RFQ(quantum_integer(3))

    def test_equal_networks_hash_alike(self):
        one = SpinNetwork(TRI_DISK, {"ea": 1, "eb": 1, "ec": 2})
        other = SpinNetwork(TRI_DISK, {"ec": 2, "eb": 1, "ea": 1})
        assert one == other and hash(one) == hash(other)
        assert len({one, other, disk_network(1, 1, 0)}) == 2

    def test_coloring_that_is_not_a_mapping_rejected(self):
        with pytest.raises(SpecError, match="coloring must be a mapping, got list"):
            SpinNetwork(TRI_DISK, [("ea", 1), ("eb", 1), ("ec", 2)])

    def test_disk_predictions(self):
        assert pairing_prediction(disk_network(1, 1, 0)) == RFQ(quantum_integer(2))
        assert pairing_prediction(disk_network(1, 1, 2)) == RFQ(quantum_integer(3))

    def test_annulus_prediction_divides_seam_loops(self):
        net = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 1, "g2": 1})
        assert pairing_prediction(net) == RFQ.one()
        net = SpinNetwork(TRI_ANNULUS, {"a": 2, "b": 2, "g1": 1, "g2": 1})
        expected = (
            theta(2, 1, 1) * theta(2, 1, 1) / (loop(1) * loop(1))
        )
        assert pairing_prediction(net) == expected

    def test_matches_stepwise_products(self):
        # one reduction of the multiplied-out product against a reduction
        # after every theta factor and loop division
        colorings = [c for c in itertools.product(range(6), repeat=4)
                     if admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])]
        assert len(colorings) == 155
        for c in colorings:
            net = SpinNetwork(TRI_ANNULUS, dict(zip(("a", "b", "g1", "g2"), c)))
            assert pairing_prediction(net) == pairing_by_steps(net), c

    def test_cross_pairing_same_coloring(self):
        net = disk_network(1, 1, 2)
        assert cross_pairing_prediction(net, net) == pairing_prediction(net)

    def test_cross_pairing_distinct_interiors_vanish(self):
        one = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 1, "g2": 1})
        other = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 0, "g2": 0})
        assert not cross_pairing_prediction(one, other)

    def test_cross_pairing_needs_matching_boundary(self):
        one = SpinNetwork(TRI_ANNULUS, {"a": 0, "b": 0, "g1": 1, "g2": 1})
        other = SpinNetwork(TRI_ANNULUS, {"a": 2, "b": 0, "g1": 1, "g2": 1})
        with pytest.raises(InvalidBoundary, match="arc"):
            cross_pairing_prediction(one, other)
        with pytest.raises(InvalidBoundary, match="surfaces"):
            cross_pairing_prediction(one, disk_network(1, 1, 2))

    @pytest.mark.parametrize("junk", [None, 3, "x"])
    def test_predictions_refuse_what_is_not_a_network(self, junk):
        net = disk_network(1, 1, 2)
        want = f"^a pairing needs a SpinNetwork, got {type(junk).__name__}$"
        for call in (lambda: pairing_prediction(junk), lambda: check_admissible(junk),
                     lambda: cross_pairing_prediction(junk, net),
                     lambda: cross_pairing_prediction(net, junk)):
            with pytest.raises(SpecError, match=want):
                call()


class TestProjectorTruncation:
    def test_small_strand_counts_are_identities(self):
        assert projector_truncation(0, 5) == ((identity_tangle(0), 0, 0),)
        assert projector_truncation(1, 5) == ((identity_tangle(1), 0, 0),)

    def test_two_strand_layout(self):
        objs = projector_truncation(2, 4)
        assert objs[0] == (identity_tangle(2), 0, 0)
        assert objs[1:] == tuple(
            (cup_over_cap(2), -s, 2 * s - 1) for s in range(1, 5)
        )

    def test_euler_terms_match_wenzl(self):
        # the alternating sum of shift monomials per tangle
        terms = {}
        for tangle, h, q in projector_truncation(2, 12):
            sign = LaurentPoly({q: (-1) ** (h % 2)})
            terms[tangle] = terms.get(tangle, LaurentPoly.zero()) + sign
        p = wenzl(2)
        assert terms[identity_tangle(2)] == LaurentPoly.one()
        e_series = p.coefficient(cup_over_cap(2)).series_poly(0, 23)
        assert terms[cup_over_cap(2)] == e_series

    def test_three_strands_unavailable(self):
        with pytest.raises(SpecError, match="2 strands"):
            projector_truncation(3, 4)


class TestCostandardPairing:
    @pytest.mark.parametrize(
        "colors,order",
        [((1, 1, 0), 10), ((1, 1, 2), 10), ((0, 2, 2), 10), ((2, 2, 2), 8)],
    )
    def test_series_matches_prediction(self, colors, order):
        series = costandard_pairing_series(colors, order)
        shift = LaurentPoly.q(costandard_pairing_offset(colors))
        lo = min(0, series.min_exp() or 0)
        predicted = (theta(*colors) * shift).series_poly(lo, order)
        assert series == predicted

    def test_explicit_values(self):
        assert costandard_pairing_series((1, 1, 0), 6) == LaurentPoly({0: 1, 2: 1})
        assert costandard_pairing_series((1, 1, 2), 6) == LaurentPoly({0: 1, 2: 1, 4: 1})
        assert costandard_pairing_series((2, 2, 2), 8) == LaurentPoly(
            {0: 1, 4: 2, 6: -1, 8: 2}
        )

    def test_matches_per_pair_route(self):
        colorings = [t for t in itertools.product(range(3), repeat=3) if admissible_triple(*t)]
        assert len(colorings) == 11
        for colors in colorings:
            for order in range(13):
                want = costandard_series_by_pairs(colors, order)
                assert costandard_pairing_series(colors, order) == want, (colors, order)

    def test_one_complex_per_tangle_pair(self, monkeypatch):
        built = []
        real = SurfaceComplex.__init__

        def counted(self, spec, top, bottom, *args, **kwargs):
            built.append((top, bottom))
            real(self, spec, top, bottom, *args, **kwargs)

        memo._forget()
        monkeypatch.setattr(SurfaceComplex, "__init__", counted)
        for order in range(25):
            assert euler_crosscheck("triangle112", order).ok
        assert built and len(built) == len(set(built))

    def test_inadmissible_colors_rejected(self):
        with pytest.raises(AdmissibilityError):
            costandard_pairing_series((1, 1, 1), 6)

    def test_large_colors_rejected(self):
        with pytest.raises(SpecError, match="2 strands"):
            costandard_pairing_series((3, 3, 2), 6)


class TestCrosscheck:
    @pytest.mark.parametrize(
        "scenario,order",
        [("strands0", 6), ("bproj2", 9), ("annulus", 6), ("triangle112", 10)],
    )
    def test_scenarios_agree(self, scenario, order):
        report = euler_crosscheck(scenario, order)
        assert report.scenario == scenario
        assert report.order == order
        assert report.ok
        assert report.mismatches == ()

    def test_shallow_depth_is_detected(self):
        with pytest.raises(TruncationError):
            euler_crosscheck("bproj2", 9, depth=2)
        with pytest.raises(TruncationError):
            euler_crosscheck("annulus", 9, depth=2)

    def test_unknown_scenario(self):
        with pytest.raises(SpecError, match="scenario"):
            euler_crosscheck("moebius", 4)
        with pytest.raises(SpecError, match="order"):
            euler_crosscheck("strands0", -1)

    def test_report_mismatch_summary(self):
        report = CrosscheckReport(
            "demo", 4, LaurentPoly({0: 1, 2: 2}), LaurentPoly({0: 1, 2: 1, 4: 1})
        )
        assert not report.ok
        assert report.mismatches == ((2, 2, 1), (4, 0, 1))


class TestCyclotomicExponents:
    """Theta values, pairings and bproj2's [1]/[2] built from exponents of
    cyclotomic polynomials, against the route that multiplied Laurent
    polynomials out and took one gcd (tests/plan_oracles.py)."""

    def test_cyclotomic_polynomials_divide_x_n_minus_one(self):
        for n in range(1, 41):
            product = LaurentPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * LaurentPoly(dict(enumerate(spin._cyclotomic(d))))
            assert product == LaurentPoly({0: -1, n: 1}), n
        assert spin._cyclotomic(7) == (1,) * 7
        assert spin._cyclotomic(12) == (1, 0, -1, 0, 1)
        # the first cyclotomic polynomial with a coefficient other than 0, +-1
        assert min(spin._cyclotomic(105)) == -2

    def test_cyclotomic_index_must_be_positive(self):
        for d in (0, -2):
            with pytest.raises(InvalidBoundary, match="cyclotomic"):
                RFQ.from_exponents(0, {d: 1})

    @settings(deadline=None, max_examples=150)
    @given(shift=st.integers(-12, 12),
           exponents=st.dictionaries(st.integers(1, 30), st.integers(-3, 3), max_size=5))
    def test_from_exponents_is_the_general_reduced_form(self, shift, exponents):
        def expanded(sign):
            out = LaurentPoly.one()
            for d, e in exponents.items():
                phi = LaurentPoly({2 * i: c for i, c in enumerate(spin._cyclotomic(d))})
                out = out * phi ** max(sign * e, 0)
            return out

        general = RFQ(LaurentPoly.q(shift) * expanded(1), expanded(-1))
        assert literal(RFQ.from_exponents(shift, exponents)) == literal(general)

    @settings(deadline=None, max_examples=150)
    @given(shift=st.integers(-12, 12),
           factors=st.lists(st.tuples(st.integers(1, 30), st.integers(-3, 3)), max_size=8))
    def test_equal_signatures_share_one_value(self, shift, factors):
        # a list of (d, e_d) factors may repeat a d, and its exponents may
        # add up to zero; the value depends on their sums alone
        exponents = {}
        for d, e in factors:
            exponents[d] = exponents.get(d, 0) + e

        def expanded(sign):
            out = LaurentPoly.one()
            for d, e in exponents.items():
                phi = LaurentPoly({2 * i: c for i, c in enumerate(spin._cyclotomic(d))})
                out = out * phi ** max(sign * e, 0)
            return out

        value = RFQ.from_exponents(shift, exponents)
        general = RFQ(LaurentPoly.q(shift) * expanded(1), expanded(-1))
        assert (value.num.terms, value.den.terms) == (general.num.terms, general.den.terms)
        reordered = {d: exponents[d] for d in reversed(list(exponents))}
        reordered[31] = 0
        assert RFQ.from_exponents(shift, reordered) is value

    def test_pairings_read_each_seam_color_once(self, monkeypatch):
        # the 61 colorings of the skein benchmark: colors up to 4, at most one 4
        colorings = [c for c in itertools.product(range(5), repeat=4)
                     if admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])
                     and c.count(4) <= 1]
        assert len(colorings) == 61
        reads = Counter()

        def counted(value):
            k = as_quantum_integer(value)
            reads[k] += 1
            return k

        memo._forget()
        monkeypatch.setattr(spin, "as_quantum_integer", counted)
        for c in colorings:
            pairing_prediction(SpinNetwork(TRI_ANNULUS, dict(zip(("a", "b", "g1", "g2"), c))))
        seam_colors = {color for c in colorings for color in c[2:]}
        assert reads == Counter({color + 1: 1 for color in seam_colors})

    def test_theta_matches_one_reduction(self):
        for triple in itertools.product(range(9), repeat=3):
            assert literal(theta(*triple)) == literal(theta_by_one_reduction(*triple)), triple

    def test_annulus_pairings_match_one_reduction(self):
        colorings = [c for c in itertools.product(range(7), repeat=4)
                     if admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])]
        assert len(colorings) == 274
        for c in colorings:
            net = SpinNetwork(TRI_ANNULUS, dict(zip(("a", "b", "g1", "g2"), c)))
            assert literal(pairing_prediction(net)) == literal(pairing_by_one_reduction(net)), c

    def test_two_triangle_ring_is_the_annulus(self):
        assert ring_surface(("a", "b"), ("g1", "g2")) == TRI_ANNULUS

    @pytest.mark.parametrize("k", range(3, 13))
    def test_ring_pairings_match_one_reduction(self, k):
        cycle = lambda colors: [colors[t % len(colors)] for t in range(k)]
        colorings = [([c] * k, [c] * k) for c in (0, 2, 4)]
        colorings += [(cycle((0, 2, 4)), [4] * k), (cycle((0, 2, 4)), [3] * k),
                      (cycle((0, 2)), [1] * k), (cycle((2, 4)), cycle((1, 3))),
                      (cycle((2, 4)), cycle((2, 4)))]
        for arc_colors, seam_colors in colorings:
            net = ring_network(arc_colors, seam_colors)
            assert literal(pairing_prediction(net)) == literal(pairing_by_one_reduction(net)), (
                arc_colors, seam_colors)

    def test_loop_that_is_not_a_quantum_integer_is_refused(self, monkeypatch):
        memo._forget()
        monkeypatch.setattr(spin, "loop", lambda c: RFQ(1, quantum_integer(c + 1)))
        net = SpinNetwork(TRI_ANNULUS, {"a": 2, "b": 2, "g1": 1, "g2": 1})
        with pytest.raises(InexactDivision, match=r"loop\(1\) = .* is not a quantum integer"):
            pairing_prediction(net)

    def test_skein_values_take_no_gcd(self, monkeypatch):
        colorings = [c for c in itertools.product(range(5), repeat=4)
                     if admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])]
        nets = [SpinNetwork(TRI_ANNULUS, dict(zip(("a", "b", "g1", "g2"), c))) for c in colorings]
        # the one-gcd oracle also warms the loop cache, which wenzl fills through gcds
        pairings = [literal(pairing_by_one_reduction(net)) for net in nets]
        theta888 = literal(theta_by_one_reduction(8, 8, 8))

        def refuse(*_args):
            raise AssertionError("a skein value took a gcd")

        monkeypatch.setattr(spin, "_poly_gcd", refuse)
        spin._from_signature.cache_clear()
        spin._loop_exponents.cache_clear()
        assert literal(theta(8, 8, 8)) == theta888
        assert [literal(pairing_prediction(net)) for net in nets] == pairings
        assert euler_crosscheck("bproj2", 9).ok
