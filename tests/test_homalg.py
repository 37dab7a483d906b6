import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinhom import homalg
from skeinhom.errors import (ChainMapError, GradingError, InvariantFactorError, SpecError,
                             TruncationError)
from skeinhom.homalg import (Certificate, ChainMap, LaurentPoly, TruncatedComplex,
                             circle_poly, matrix_rank, smith_invariants, unit_cancellation)

from .optimized import error_under_optimize
from .oracles import (bareiss_rank, block_index_by_entries, dense_homology_at,
                      homology_by_cells, rational_rank)
from .plan_oracles import unit_cancellation_by_scan


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


    @pytest.mark.parametrize("coeffs", [
        {0: 0.5}, {0: Fraction(3, 2)}, {1.7: 1}, {0: "1"}, {"0": 1}, {0: None},
        {0: float("inf")}, {0: float("nan")}, {0.5: 0},
    ])
    def test_refuses_non_integers(self, coeffs):
        # 0.5 used to become a stored zero coefficient and 3/2 a 1
        with pytest.raises(GradingError, match="must be an integer"):
            LaurentPoly(coeffs)

    def test_integral_values_become_ints(self):
        p = LaurentPoly({2.0: Fraction(4, 2), True: 0})
        assert p.terms == ((2, 2),)
        assert all(type(e) is int and type(c) is int for e, c in p.terms)

    def test_shift_refuses_non_integers(self):
        with pytest.raises(GradingError, match="exponent must be an integer"):
            LaurentPoly.one().shifted(0.5)
        assert LaurentPoly.one().shifted(2.0).terms == ((2, 1),)

    def test_unknown_operands_are_type_errors(self):
        one = LaurentPoly.one()
        for op in (lambda: one * 2.5, lambda: 2.5 * one, lambda: one + 0.5,
                   lambda: 0.5 + one, lambda: one - 0.5, lambda: 0.5 - one):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()
        assert one != 1.0 and one != "1"


def _dict_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _dict_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def is_canonical(p):
    exps = [e for e, _c in p.terms]
    return (all(type(e) is int and type(c) is int and c for e, c in p.terms)
            and exps == sorted(set(exps)))


term_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=6)
small_ints = st.integers(-3, 3)


class TestTrustedArithmetic:
    """Every arithmetic result is built through LaurentPoly._trusted; each
    must be canonical and equal the checked constructor applied to terms
    computed on plain dicts.  The dicts hold zero coefficients and the int
    operands include zero."""

    @settings(deadline=None, max_examples=200)
    @given(a=term_dicts, b=term_dicts, k=small_ints, n=st.integers(0, 3),
           lo=small_ints, width=st.integers(-1, 6))
    def test_results_match_the_checked_constructor(self, a, b, k, n, lo, width):
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        power = {0: 1}
        for _ in range(n):
            power = _dict_product(power, a)
        cases = [
            (pa + pb, _dict_sum(a, b)),
            (pa - pb, _dict_sum(a, b, -1)),
            (-pa, {e: -c for e, c in a.items()}),
            (pa * pb, _dict_product(a, b)),
            (pa * k, {e: c * k for e, c in a.items()}),
            (k * pa, {e: c * k for e, c in a.items()}),
            (pa + k, _dict_sum(a, {0: k})),
            (k + pa, _dict_sum(a, {0: k})),
            (pa - k, _dict_sum(a, {0: -k})),
            (k - pa, _dict_sum({0: k}, a, -1)),
            (pa ** n, power),
            (pa.shifted(k), {e + k: c for e, c in a.items()}),
            (pa.truncated(lo, lo + width), {e: c for e, c in a.items() if lo <= e <= lo + width}),
        ]
        for got, terms in cases:
            assert is_canonical(got), got.terms
            assert got == LaurentPoly(terms)
            assert got.terms == LaurentPoly(dict(got.terms)).terms
        assert (pa == k) == (pa == LaurentPoly({0: k}))


BOUNDS = st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 6)), min_size=1, max_size=3)


class TestCertificate:
    """Certificates as values agree with the closures they replace:
    q0 + slope * r per bound, shifted as r -> cert(r + dh) + dq."""

    @settings(max_examples=60, deadline=None)
    @given(BOUNDS, st.integers(-4, 4), st.integers(-10, 10))
    def test_call_and_shift_match_closures(self, bounds, dh, dq):
        cert = Certificate(tuple(bounds))
        closure = lambda r: min(q0 + slope * r for q0, slope in bounds)
        shifted = lambda r: closure(r + dh) + dq
        assert [cert(r) for r in range(9)] == [closure(r) for r in range(9)]
        assert [cert.shifted(dh, dq)(r) for r in range(9)] == [shifted(r) for r in range(9)]
        assert cert.shifted() == cert
        assert cert.shifted(dh, dq).shifted(-dh, -dq) == cert

    def test_compares_and_prints_as_a_value(self):
        assert Certificate(((1, 2),)) == Certificate(((1, 2),)) != Certificate(((1, 3),))
        assert repr(Certificate(((1, 2),)).shifted(dq=-3)) == "Certificate(bounds=((-2, 2),))"


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

    def test_non_dividing_factors_raise_under_optimize(self, monkeypatch):
        # A corrupted magnitude (|4| read as 3) leaves the diagonal 2, 3.
        monkeypatch.setattr(homalg, "abs", lambda x: 3 if x == 4 else abs(x), raising=False)
        with pytest.raises(InvariantFactorError, match="2 does not divide 3"):
            smith_invariants([[2, 0], [0, 4]])
        line = error_under_optimize(
            "from skeinhom import homalg\n"
            "homalg.abs = lambda x: 3 if x == 4 else abs(x)\n"
            "homalg.smith_invariants([[2, 0], [0, 4]])\n"
        )
        assert line.startswith("skeinhom.errors.InvariantFactorError: invariant factor 2 does not")


def dense(entries, n_rows, n_cols):
    rows = [[0] * n_cols for _ in range(n_rows)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return rows


def fill_in_block(rng, n):
    """n x (n + 1) entries whose only unit column is column 0, held by every
    row; row k also has an even entry in column k + 1.  Whichever row is the
    pivot, clearing column 0 writes its even entry into every other row."""
    entries = {}
    for k in range(n):
        entries[(k, 0)] = rng.choice((1, -1))
        entries[(k, k + 1)] = rng.choice((-4, -2, 2, 4))
    return entries


class TestUnitCancellation:
    def test_fill_in(self):
        assert unit_cancellation({(0, 0): 1, (0, 1): 2, (1, 0): 1}) == (1, [[-2]])

    def test_sign_of_row_update(self):
        # det [[1, 1], [1, -1]] = -2: the residual keeps a 2, not a 0
        assert unit_cancellation({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}) == (1, [[-2]])

    def test_even_block_is_left_alone(self):
        entries = {(0, 0): 2, (0, 2): -4, (1, 1): 6, (3, 2): 2}
        assert unit_cancellation(entries) == (0, [[2, 0, -4], [0, 6, 0], [0, 0, 2]])

    def test_unit_pivots_all_cancel(self):
        entries = {(0, 0): 1, (1, 0): -1, (1, 1): 1, (2, 2): -1}
        assert unit_cancellation(entries) == (3, [])
        assert unit_cancellation({}) == (0, [])

    def test_fill_in_blocks_keep_their_smith_form(self):
        rng = random.Random(13)
        for n in range(2, 7):
            entries = fill_in_block(rng, n)
            units, residual = unit_cancellation(entries)
            assert units == 1
            assert sum(1 for row in residual for v in row if v) == 2 * (n - 1)
            assert (smith_invariants(dense(entries, n, n + 1))
                    == [1] + smith_invariants(residual))

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=6), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_smith_form_splits_into_units_and_residual(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        entries = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v}
        units, residual = unit_cancellation(entries)
        assert smith_invariants(rows) == [1] * units + smith_invariants(residual)
        assert all(any(row) for row in residual)
        assert all(any(col) for col in zip(*residual))


@st.composite
def sparse_blocks(draw):
    """Sparse integer matrices up to 15 x 15 as {(row, col): value}, mostly
    +-1, some with a fill-in chain as in fill_in_block: rows that share a
    unit column, each with an even entry in a column of its own."""
    n_rows, n_cols = draw(st.integers(1, 15)), draw(st.integers(1, 15))
    cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    value = st.sampled_from((1, -1, 1, -1, 1, -1, 2, -2, 3, 4))
    entries = draw(st.dictionaries(cell, value, max_size=40))
    longest = min(n_rows, n_cols - 1)
    if longest >= 2 and draw(st.booleans()):
        length = draw(st.integers(2, longest))
        rows = draw(st.permutations(range(n_rows)))[:length]
        cols = draw(st.permutations(range(n_cols)))[:length + 1]
        for k, r in enumerate(rows):
            entries[(r, cols[0])] = draw(st.sampled_from((1, -1)))
            entries[(r, cols[k + 1])] = draw(st.sampled_from((-4, -2, 2, 4)))
    return entries, n_rows, n_cols


class TestSweepsAgainstScan:
    """homalg._cancel_units sweeps columns by length; the per-pivot scan it
    replaced (tests/plan_oracles.py) is the reference.  Pivots may differ,
    so the two are compared through Smith form and rank."""

    @given(sparse_blocks())
    @settings(max_examples=300, deadline=None)
    def test_units_and_residual_keep_smith_form_and_rank(self, block):
        entries, n_rows, n_cols = block
        rows = dense(entries, n_rows, n_cols)
        invs, rank = smith_invariants(rows), matrix_rank(rows)
        for cancel in (unit_cancellation, unit_cancellation_by_scan):
            units, residual = cancel(dict(entries))
            assert [1] * units + smith_invariants(residual) == invs
            assert units + matrix_rank(residual) == rank
            assert all(any(row) for row in residual)
            assert all(any(col) for col in zip(*residual))

    def test_fill_in_unit_behind_the_sweep_is_taken_by_the_next(self):
        # column 1 is walked first and holds no unit; pivoting on (0, 0)
        # then turns its entry in row 1 into 3 - 2 = 1
        entries = {(1, 1): 3, (0, 1): 2, (0, 0): 1, (1, 0): 1}
        assert unit_cancellation(entries) == (2, [])
        assert unit_cancellation_by_scan(entries) == (2, [])


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
        assert cx.homology((0, 1), (-2, 2)).euler_series() == LaurentPoly({-1: 1})

    def test_truncation_guard(self):
        cert = Certificate(((1, 2),))
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
        assert cx.euler_series((6, 5)) == LaurentPoly.zero()
        with pytest.raises(TruncationError, match="euler series at q=6 needs degrees below -1"):
            cx.euler_series((6, 6))

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


class TestCone:
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

    def test_zero_component_accepted(self):
        # summed components can cancel; a map stores what is left, zeros too
        a = TruncatedComplex({0: (("a", 0),)}, {})
        f = ChainMap(a, a, {0: {(0, 0): 0}})
        assert f.cone().homology((-1, 0), (0, 0)).betti == {(-1, 0): 1, (0, 0): 1}

    def test_cone_leaves_zero_components_out(self):
        # a differential stores no zeros, so the cone rebuilds as it is
        a = TruncatedComplex({0: (("a", 0),)}, {})
        cone = ChainMap(a, a, {0: {(0, 0): 0}}).cone()
        rebuilt = TruncatedComplex(cone.generators, cone.differentials, cone.h_min, cone.h_max,
                                   cone.complete, cone.certificate, q_range=cone.q_range)
        assert rebuilt.differentials == cone.differentials == {}

    def test_component_messages_name_the_entry(self):
        a = TruncatedComplex({0: (("a", 0),)}, {})
        b = TruncatedComplex({0: (("b", 2),)}, {})
        with pytest.raises(ChainMapError, match=r"^component \(0, 1\) at degree 0 is out of range$"):
            ChainMap(a, a, {0: {(0, 1): 1}})
        with pytest.raises(ChainMapError, match=r"^component \(0, 0\) at degree 0 does not "
                                                r"preserve the quantum degree: "):
            ChainMap(a, b, {0: {(0, 0): 1}})

    def test_map_between_classes_rejected(self):
        from skeinhom.barproj import unit_complex
        a = TruncatedComplex({0: (("a", 0),)}, {})
        with pytest.raises(ChainMapError, match="^a map from TruncatedComplex to "
                                                "TwistedTangleComplex$"):
            ChainMap(a, unit_complex(2), {})

    def test_cone_exactness_for_multiplication(self):
        # cone of multiplication by 3 on a point: Z --3--> Z
        a = self_point = TruncatedComplex({0: (("p", 0),)}, {})
        f = ChainMap(a, a, {0: {(0, 0): 3}})
        hom = f.cone().homology((-1, 0), (0, 0))
        assert hom.rows() == [(0, 0, 0, (3,))]


def assert_matches_dense_oracle(cx, h_range, q_range):
    hom = cx.homology(h_range, q_range)
    for i in range(h_range[0], h_range[1] + 1):
        for j in range(q_range[0], q_range[1] + 1):
            want = dense_homology_at(cx, i, j)
            assert cx.homology_at(i, j) == want
            assert (hom.betti.get((i, j), 0), hom.torsion.get((i, j), ())) == want


def full_window(cx):
    grades = [q for gens in cx.generators.values() for _, q in gens]
    return (cx.h_min - 1, cx.h_max + 1), (min(grades) - 1, max(grades) + 1)


class TestEngineAgainstDenseOracle:
    def test_shuffled_complexes_with_2_and_4_torsion(self):
        rng = random.Random(77)
        orders = set()
        for _ in range(80):
            cx, _, torsion = random_shuffled_complex(rng)
            found = {d for tor in torsion.values() for d in tor} & {2, 4}
            if not found:
                continue
            orders |= found
            assert_matches_dense_oracle(cx, *full_window(cx))
        assert orders == {2, 4}

    def test_even_blocks_cancel_nothing(self):
        rng = random.Random(78)
        for _ in range(30):
            base, _, _ = random_shuffled_complex(rng)
            cx = TruncatedComplex(base.generators, {
                h: {k: 2 * v for k, v in d.items()} for h, d in base.differentials.items()})
            if not cx.differentials:
                continue
            assert_matches_dense_oracle(cx, *full_window(cx))
            blocks = cx._index[1]
            assert blocks and all(block.units == 0 for block in blocks.values())

    def test_blocks_that_need_fill_in(self):
        rng = random.Random(79)
        for n in range(2, 7):
            entries = fill_in_block(rng, n)
            q = rng.randint(-2, 2)
            cx = TruncatedComplex(
                {0: tuple((f"s{k}", q) for k in range(n + 1)),
                 1: tuple((f"t{k}", q) for k in range(n))},
                {0: entries})
            assert_matches_dense_oracle(cx, (-1, 2), (q - 1, q + 1))
            # one unit pivot leaves n - 1 rows, each with its own column, so
            # the residual has full row rank n - 1 and the block rank n
            block = cx._index[1][(0, q)]
            assert block.units == 1 and block.rank == n and block.residual is None
            invs = smith_invariants(dense(entries, n, n + 1))
            assert block.torsion == tuple(d for d in invs if d > 1)


class TestBlockMemo:
    def test_answers_do_not_depend_on_query_order(self):
        rng = random.Random(41)
        for _ in range(12):
            cx, _, _ = random_shuffled_complex(rng)
            (h_lo, h_hi), (q_lo, q_hi) = full_window(cx)
            queries = [((h_lo, h_hi), (q_lo, q_hi)), ((h_lo, 0), (0, 1)),
                       ((-1, h_hi), (1, q_hi)), ((0, 0), (0, 2))]
            queries += [(i, j) for i in range(h_lo, h_hi + 1) for j in range(0, 3)]
            for order in (queries, queries[::-1], rng.sample(queries, len(queries))):
                warm = TruncatedComplex(cx.generators, cx.differentials)
                for query in order:
                    fresh = TruncatedComplex(cx.generators, cx.differentials)
                    if isinstance(query[0], tuple):
                        assert warm.homology(*query) == fresh.homology(*query)
                    else:
                        assert warm.homology_at(*query) == fresh.homology_at(*query)

    def test_reduced_blocks_leave_the_index(self):
        rng = random.Random(42)
        for _ in range(12):
            cx, _, _ = random_shuffled_complex(rng)
            window = full_window(cx)
            cx.homology(*window)
            # the index keeps each block's summary, not its entries
            _sizes, blocks = cx._index
            assert blocks and all(isinstance(b, homalg._BlockSummary) for b in blocks.values())
            assert all(block.residual is None
                       for block in blocks.values() if block.torsion is not None)
            assert_matches_dense_oracle(cx, *window)

    def test_first_query_summarises_every_block(self, monkeypatch):
        rng = random.Random(44)
        for _ in range(12):
            cx, _, _ = random_shuffled_complex(rng)
            nonzero = {(h, cx.generators[h][j][1])
                       for h, d in cx.differentials.items() for (_i, j), c in d.items() if c}
            (h_lo, h_hi), (q_lo, q_hi) = full_window(cx)
            calls = []
            for name in ("_cancel_units", "smith_invariants", "matrix_rank"):
                fn = getattr(homalg, name)
                monkeypatch.setattr(homalg, name,
                                    lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
            cx.homology_at(h_lo, q_lo)
            assert set(cx._index[1]) == nonzero
            assert calls.count("_cancel_units") == len(nonzero)
            # later queries cancel nothing, and blocks without entries reach
            # neither Smith form nor rank
            calls.clear()
            cx.homology((h_lo, h_hi), (q_lo, q_hi))
            monkeypatch.undo()
            assert "_cancel_units" not in calls
            assert len(calls) <= 2 * len(nonzero)
            assert homalg._ZERO_BLOCK.smith() == (0, ()) and homalg._ZERO_BLOCK.full_rank() == 0
            assert_matches_dense_oracle(cx, (h_lo, h_hi), (q_lo, q_hi))

    def test_each_block_reaches_smith_and_rank_at_most_once(self, monkeypatch):
        rng = random.Random(43)
        for _ in range(12):
            cx, _, _ = random_shuffled_complex(rng)
            h_range, q_range = full_window(cx)
            cells = [(i, j) for i in range(h_range[0], h_range[1] + 1)
                     for j in range(q_range[0], q_range[1] + 1)]
            want = {c: dense_homology_at(cx, *c) for c in cells}
            calls = {}

            def counted(name, fn):
                def wrapper(rows):
                    # a block's residual is its own list until its Smith form drops it
                    key = next(k for k, b in cx._index[1].items() if b.residual is rows)
                    calls[(name, key)] = calls.get((name, key), 0) + 1
                    return fn(rows)
                return wrapper

            monkeypatch.setattr(homalg, "smith_invariants",
                                counted("smith", homalg.smith_invariants))
            monkeypatch.setattr(homalg, "matrix_rank", counted("rank", homalg.matrix_rank))
            queries = [(h_range, q_range)] + cells + [(h_range, q_range)]
            rng.shuffle(queries)
            for query in queries:
                if isinstance(query[0], tuple):
                    hom = cx.homology(*query)
                    got = {c: (hom.betti.get(c, 0), hom.torsion.get(c, ())) for c in cells}
                    assert got == want
                else:
                    assert cx.homology_at(*query) == want[query]
            monkeypatch.undo()
            assert calls and max(calls.values()) == 1

    def test_refusals_fire_on_a_warmed_complex(self):
        cx = TruncatedComplex(
            {0: (("g", 1), ("h", 3)), -1: (("k", 3),)},
            {-1: {(1, 0): 2}},
            h_min=-1, h_max=0, complete=False, certificate=Certificate(((1, 2),)),
        )
        bound = cx.min_q_at(-2)
        assert bound == 5
        # degree 0 shares the blocks (-1, q) with degree -1
        for j in range(0, 9):
            cx.homology((0, 1), (j, j))
        assert cx.homology_at(-1, bound - 1) == (0, ())
        for j in range(bound, bound + 4):
            with pytest.raises(TruncationError):
                cx.homology_at(-1, j)
            with pytest.raises(TruncationError):
                cx.homology((-1, 0), (0, j))


def q_window(cx, lo, hi):
    """The summand of cx on the q-strands lo..hi, as a windowed build holds
    it: generators outside dropped, the rest renumbered within each degree."""
    keep = {h: [k for k, (_, q) in enumerate(gens) if lo <= q <= hi]
            for h, gens in cx.generators.items()}
    place = {h: {k: n for n, k in enumerate(ks)} for h, ks in keep.items()}
    gens = {h: tuple(cx.generators[h][k] for k in ks) for h, ks in keep.items()}
    diffs = {h: {(place[h + 1][i], place[h][j]): c for (i, j), c in d.items()
                 if j in place[h] and i in place.get(h + 1, {})}
             for h, d in cx.differentials.items()}
    return TruncatedComplex(gens, diffs, q_range=(lo, hi))


def with_stray_entries(cx, rng):
    """cx stored unchecked with entries homology must skip: a zero, indices
    out of range at either end, and a map between different q-strands."""
    diffs = {h: dict(d) for h, d in cx.differentials.items()}
    for h in sorted(diffs):
        d, src, tgt = diffs[h], cx.generators[h], cx.generators[h + 1]
        d[(rng.randrange(len(tgt)), rng.randrange(len(src)))] = 0
        d[(-1, 0)] = d[(0, len(src))] = d[(len(tgt), 0)] = 1
        cross = [(i, j) for i in range(len(tgt)) for j in range(len(src))
                 if tgt[i][1] != src[j][1]]
        if cross:
            d[rng.choice(cross)] = 3
    return TruncatedComplex._trusted(cx.generators, diffs)


def outcome(query):
    """What a query returns, or the type and message of what it raises."""
    try:
        return query()
    except Exception as err:  # compared, not swallowed
        return type(err), str(err)


def walk_order(cell):
    """The sort key of the order homology reads a window: q outside, h inside."""
    return cell[1], cell[0]


def with_flipped_entry(cx, rng):
    """cx stored unchecked, with all it holds, and one seeded differential
    entry negated, so that d^2 = 0 may fail."""
    diffs = {h: dict(d) for h, d in cx.differentials.items()}
    h, k = rng.choice([(h, k) for h, d in sorted(diffs.items()) for k in d])
    diffs[h][k] = -diffs[h][k]
    return TruncatedComplex._trusted(cx.generators, diffs, cx.h_min, cx.h_max, cx.complete,
                                     cx.certificate, q_range=cx.q_range)


class TestBlockIndexOracle:
    """The block index built straight into pivot rows and columns against
    the entries-based index and cell-by-cell route it replaced."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(("complete", "truncated", "windowed", "stray")),
           cert=st.tuples(st.integers(-3, 2), st.integers(0, 1)),
           window=st.tuples(st.integers(-1, 2), st.integers(0, 2)),
           h_span=st.tuples(st.integers(-3, 1), st.integers(-1, 3)),
           q_span=st.tuples(st.integers(-2, 3), st.integers(-1, 3)))
    @settings(max_examples=300, deadline=None)
    def test_matches_entries_route(self, seed, shape, cert, window, h_span, q_span):
        # a span (lo, width) with width -1 is an empty range
        h_range, q_range = [(lo, lo + width) for lo, width in (h_span, q_span)]
        rng = random.Random(seed)
        cx, _, _ = random_shuffled_complex(rng)
        if shape == "truncated":
            cx = TruncatedComplex(cx.generators, cx.differentials, h_min=-2, h_max=1,
                                  complete=False, certificate=Certificate((cert,)))
        elif shape == "windowed":
            cx = q_window(cx, window[0], window[0] + window[1])
        elif shape == "stray" and cx.differentials:
            cx = with_stray_entries(cx, rng)
        want_sizes, want_blocks = block_index_by_entries(cx)
        sizes, blocks = cx._block_index()
        assert sizes == want_sizes
        # a block of zeros alone cancels to (0, []) and needs no summary
        assert ({key: (b.units, b.residual) for key, b in blocks.items()}
                == {key: v for key, v in want_blocks.items() if v != (0, [])})
        assert (outcome(lambda: cx.homology(h_range, q_range))
                == outcome(lambda: homology_by_cells(cx, h_range, q_range)))


class TestOnePassWindow:
    """homology reads a clean window's cells with generators alone, and any
    other window cell by cell, as homology_by_cells does."""

    def test_clean_window_reads_only_cells_with_generators(self, monkeypatch):
        read = []
        cell = TruncatedComplex.homology_at

        def counted(self, i, j):
            read.append((i, j))
            return cell(self, i, j)

        monkeypatch.setattr(TruncatedComplex, "homology_at", counted)
        rng = random.Random(34)
        windows = [((-2, 1), (0, 2)), ((-3, 2), (-1, 3)), ((-1, 0), (1, 1)),
                   ((0, 1), (0, 0)), ((-2, -1), (1, 2)), ((1, 0), (0, 2)), ((-2, 1), (2, 1))]
        for _ in range(30):
            cx, _, _ = random_shuffled_complex(rng)
            sizes, _ = cx._block_index()
            for h_range, q_range in windows:
                read.clear()
                hom = cx.homology(h_range, q_range)
                want = [(i, j) for j in range(q_range[0], q_range[1] + 1)
                        for i in range(h_range[0], h_range[1] + 1) if (i, j) in sizes]
                # once per cell with generators, in walk order, none for an
                # empty cell
                assert read == want
                assert hom == homology_by_cells(cx, h_range, q_range)
                assert list(hom.betti) == sorted(hom.betti, key=walk_order)
                assert list(hom.torsion) == sorted(hom.torsion, key=walk_order)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(("windowed", "truncated", "both")),
           cert=st.tuples(st.integers(-3, 2), st.integers(0, 1)),
           window=st.tuples(st.integers(0, 2), st.integers(0, 1)),
           h_lo=st.integers(-4, 0), h_width=st.integers(0, 3),
           q_lo=st.integers(-2, 2), q_width=st.integers(0, 4), flip=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_straddling_window_matches_cell_route(self, seed, shape, cert, window,
                                                  h_lo, h_width, q_lo, q_width, flip):
        # windows that may reach below h_min = -2 or past the q-window edges,
        # of a valid complex or of one with a flipped entry, whose d^2 fault
        # the window names at the cell the walk meets first
        h_range, q_range = (h_lo, h_lo + h_width), (q_lo, q_lo + q_width)
        rng = random.Random(seed)
        cx, _, _ = random_shuffled_complex(rng)
        if shape != "truncated":
            cx = q_window(cx, window[0], window[0] + window[1])
        if shape != "windowed":
            cx = TruncatedComplex(cx.generators, cx.differentials, h_min=-2, h_max=1,
                                  complete=False, certificate=Certificate((cert,)),
                                  q_range=cx.q_range)
        if flip and cx.differentials:
            cx = with_flipped_entry(cx, rng)
        assert (outcome(lambda: cx.homology(h_range, q_range))
                == outcome(lambda: homology_by_cells(cx, h_range, q_range)))

    def test_refusable_window_that_answers_reads_each_cell_once(self, monkeypatch):
        # below h_min = -2 the certificate bounds q from 3 + 1 = 4 up, so a
        # window from h = -2 can be refused but answers for q in 0..2
        read = []
        cell = TruncatedComplex.homology_at

        def counted(self, i, j):
            read.append((i, j))
            return cell(self, i, j)

        monkeypatch.setattr(TruncatedComplex, "homology_at", counted)
        rng = random.Random(36)
        h_range, q_range = (-2, 1), (0, 2)
        every = [(i, j) for j in range(0, 3) for i in range(-2, 2)]
        for _ in range(20):
            cx, _, _ = random_shuffled_complex(rng)
            cx = TruncatedComplex(cx.generators, cx.differentials, h_min=-2, h_max=1,
                                  complete=False, certificate=Certificate(((3, 1),)))
            read.clear()
            hom = cx.homology(h_range, q_range)
            assert read == every
            assert hom == homology_by_cells(cx, h_range, q_range)

    def test_first_d_squared_fault_is_named_q_outside_h_inside(self):
        # d^2 != 0 along the q = 5 strand at h = 1 and the q = 3 strand at
        # h = 2; q = 3 comes first in the window's order, h = 1 in the table's
        gens = {0: (("a", 5),), 1: (("b", 5), ("x", 3)), 2: (("c", 5), ("y", 3)),
                3: (("z", 3),)}
        diffs = {0: {(0, 0): 1}, 1: {(0, 0): 1, (1, 1): 1}, 2: {(0, 1): 1}}
        cx = TruncatedComplex._trusted(gens, diffs)
        for query in (lambda: cx.homology((0, 3), (3, 5)),
                      lambda: homology_by_cells(cx, (0, 3), (3, 5))):
            with pytest.raises(ChainMapError, match=r"^d\^2 != 0 at \(h=2, q=3\)"):
                query()


class TestErrorsUnderOptimize:
    @pytest.mark.parametrize("h_range, q_range, message", [
        ((1,), (0, 4), "h_range must be a pair of integers, got (1,)"),
        (None, (0, 4), "h_range must be a pair of integers, got None"),
        ((0, 1), (0, 4.0), "q_range must be a pair of integers, got (0, 4.0)"),
        ((0, 1), (True, 4), "q_range must be a pair of integers, got (True, 4)"),
        ((0, 1, 2), "04", "h_range must be a pair of integers, got (0, 1, 2)"),
    ])
    def test_misshapen_window_is_a_spec_error(self, h_range, q_range, message):
        cx = TruncatedComplex({0: (("a", 0),)}, {})
        with pytest.raises(SpecError) as err:
            cx.homology(h_range, q_range)
        assert str(err.value) == message

    @pytest.mark.parametrize("window, message", [
        ("(1,), (0, 4)", "h_range must be a pair of integers, got (1,)"),
        ("None, (0, 4)", "h_range must be a pair of integers, got None"),
    ])
    def test_misshapen_window_under_optimize(self, window, message):
        line = error_under_optimize(
            "from skeinhom.homalg import TruncatedComplex\n"
            "cx = TruncatedComplex({0: (('a', 0),)}, {})\n"
            f"cx.homology({window})\n"
        )
        assert line == "skeinhom.errors.SpecError: " + message

    @pytest.mark.parametrize("cell", [(0, None), (0.5, 0), (True, 0), (None, 0), ("a", 0),
                                      (0, 1.0), (0, False)])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_misshapen_cell_is_a_spec_error(self, cell, windowed):
        # on a truncated complex with a q-window too, whose checks come after
        extra = dict(h_min=0, h_max=0, complete=False, q_range=(0, 4)) if windowed else {}
        cx = TruncatedComplex({0: (("a", 0),)}, {}, **extra)
        with pytest.raises(SpecError) as err:
            cx.homology_at(*cell)
        assert str(err.value) == f"a homology cell must be a pair of integers, got {cell!r}"

    def test_misshapen_cell_under_optimize(self):
        line = error_under_optimize(
            "from skeinhom.homalg import TruncatedComplex\n"
            "TruncatedComplex({0: (('a', 0),)}, {}).homology_at(True, 0)\n"
        )
        assert line == ("skeinhom.errors.SpecError: "
                        "a homology cell must be a pair of integers, got (True, 0)")

    def test_negative_betti_is_a_chain_map_error(self):
        gens = {0: (("a", 0),), 1: (("b", 0),), 2: (("c", 0),)}
        cx = TruncatedComplex._trusted(gens, {0: {(0, 0): 1}, 1: {(0, 0): 1}})
        with pytest.raises(ChainMapError, match=r"d\^2 != 0 at \(h=1, q=0\)"):
            cx.homology_at(1, 0)
        line = error_under_optimize(
            "from skeinhom.homalg import TruncatedComplex\n"
            "gens = {0: (('a', 0),), 1: (('b', 0),), 2: (('c', 0),)}\n"
            "cx = TruncatedComplex._trusted(gens, {0: {(0, 0): 1}, 1: {(0, 0): 1}})\n"
            "cx.homology_at(1, 0)\n"
        )
        assert line.startswith("skeinhom.errors.ChainMapError: d^2 != 0 at (h=1, q=0)")

    def test_negative_power_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative exponent"):
            circle_poly() ** -1
        line = error_under_optimize(
            "from skeinhom.homalg import circle_poly\ncircle_poly() ** -1\n")
        assert line.startswith("ValueError: LaurentPoly power needs a non-negative exponent")
