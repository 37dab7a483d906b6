"""Replaced routes kept as references, apart from oracles.py, which the
benchmark imports and so compiles in every worker process.

The surgery-plan compilers as they ran before tqft._Recorder kept its
circles itself: each saddle or cap builds and re-traces a whole
ClosedDiagram through the whole-diagram route of tests/oracles.py, the
start diagram is the union of the input doubles traced from their
instances, and a pick places its circles in the concatenated input
labelings.

The unit cancellation as it ran before homalg._cancel_units swept its
columns: every pivot rescans every column for the shortest one holding a
unit (unit_cancellation_by_scan).

The theta graph as spin.theta evaluated it diagrammatically before it took
the quantum-factorial formula (theta_by_planar, with the through_degree
of a tangle that it filters halves by), and the costandard
pairing series as it was accumulated before its ranks were cached and its
monomials grouped: one complex per tangle pair per call, one product per
pair of objects (costandard_series_by_pairs).

The d^2 = 0 check of a twisted complex as SparseComplex._validate ran it
before the twisted class composed each distinct pair of interned entries
once: sparse_product, with one pair per path j -> k -> i and one state
vector sum per (i, j) (square_check_by_sparse_product).

The theta graph and the network self-pairing as spin evaluated them before
it read their reduced forms off cyclotomic exponents: both products
multiplied out as Laurent polynomials and reduced by one gcd
(theta_by_one_reduction, pairing_by_one_reduction).

The command line as cli.run ran it before it read well-formed argvs off
the leaf parsers' options: build_parser().parse_args on every argv, then
the handler (run_by_argparse).

The Temperley-Lieb arithmetic as spin ran it before the idempotents were
computed with their denominators cleared: the single-clasp recursion with
rational coefficients, every product reduced as it is formed
(wenzl_by_fractions); composition as a termwise sum of RationalFunctionQ
products (tl_compose_termwise); and the power series of a rational
function with its inverse-series recurrence in Fractions
(series_by_fractions).
"""

import functools
import itertools
from fractions import Fraction

from .oracles import _capped, _carry, _circle_map, _local_arc, _saddle, double_instances


class SurgeryPlanByDiagram:
    """A compiled cobordism: pick takes each start circle to its position in
    the concatenated input labelings, steps are _frobenius_terms arguments
    and end circle j takes the label of circle perm[j] after them."""

    def __init__(self, pick, steps, perm):
        self.pick, self.steps, self.perm = pick, steps, perm

    def product(self, *labs):
        from skeinhom.tqft import _frobenius_terms

        joint = sum(labs, ())
        terms = {tuple(joint[p] for p in self.pick): 1}
        for step in self.steps:
            terms = _frobenius_terms(terms, *step)
        return tuple(sorted((tuple(lab[i] for i in self.perm), k)
                            for lab, k in terms.items() if k))


class RecorderByDiagram:
    """Surgery on whole diagrams, one new diagram per saddle or cap."""

    def __init__(self, diagram):
        self.diagram, self.steps = diagram, []

    def surger(self, arc1, arc2, pairing):
        new, c1, c2, t0, t1 = _saddle(self.diagram, arc1, arc2, pairing)
        self.steps.append((_carry(self.diagram, new, {t0, t1}), c1, c2, t0, t1))
        self.diagram = new

    def cap(self, arc):
        new, c = _capped(self.diagram, arc)
        self.steps.append((_carry(self.diagram, new, ()), c))
        self.diagram = new

    def plan(self, pick, target, arc_map):
        perm = [None] * len(target)
        for i, j in _circle_map(self.diagram, target, arc_map).items():
            perm[j] = i
        return SurgeryPlanByDiagram(pick, tuple(self.steps), tuple(perm))


def union_of_doubles(blocks):
    """The diagram traced from the doubles of blocks, (block id, a, b)
    triples glued to nothing, and the position of each of its circles in
    the concatenated labelings of the doubles."""
    from skeinhom.planar import ClosedDiagram
    from skeinhom.tqft import hom_double

    tangles, glue, start, doubles, n = {}, {}, {}, {}, 0
    for block, a, b in blocks:
        double_instances(block, a, b, tangles, glue)
        start[block], doubles[block] = n, hom_double(a, b)[0]
        n += len(doubles[block])
    big = ClosedDiagram.from_instances(tangles, glue)
    pick = []
    for circ in big.circles:
        block, local = _local_arc(circ[0])
        pick.append(start[block] + doubles[block].component_of[local])
    return big, tuple(pick)


def composition_plan(a, b, c):
    """The plan of tqft._composition_plan(a, b, c)."""
    from skeinhom.tqft import _carried_arcs, hom_double

    union, pick = union_of_doubles(((1, a, b), (2, b, c)))
    rec = RecorderByDiagram(union)
    for k, (p, q) in enumerate(b.chords):
        n1p, n1q, n2p, n2q = (union.node_of_port((inst,) + b.port_of_point(x))
                              for inst in ((1, "y"), (2, "x")) for x in (p, q))
        rec.surger(((1, "y"), k), ((2, "x"), k), ((n1p, n2p), (n1q, n2q)))
    for k in range(b.circles):
        arc1, arc2 = ((1, "y"), "o", k), ((2, "x"), "o", k)
        l1, l2 = rec.diagram.arcs[arc1][0], rec.diagram.arcs[arc2][0]
        rec.surger(arc1, arc2, ((l1, l2), (l1, l2)))
        rec.cap(("srg", arc1, arc2, 0))
    arc_map = {**_carried_arcs((1, "x"), a, range(a.points), "x", a),
               **_carried_arcs((2, "y"), c, range(c.points), "y", c)}
    return rec.plan(pick, hom_double(a, c)[0], arc_map)


def juxtaposition_plan(shapes):
    """The step-free plan of tqft._juxtaposition_plan(shapes)."""
    from skeinhom.planar import juxtapose, juxtaposition_points
    from skeinhom.tqft import _carried_arcs, hom_double

    big, pick = union_of_doubles([(i, a, b) for i, (a, b) in enumerate(shapes)])
    xs, ys = tuple(a for a, _b in shapes), tuple(b for _a, b in shapes)
    ja, jb = juxtapose(*xs), juxtapose(*ys)
    images = juxtaposition_points(xs)
    arc_map = {}
    for side, factors, jt in (("x", xs, ja), ("y", ys, jb)):
        circles = 0
        for i, (t, image) in enumerate(zip(factors, images)):
            arc_map.update(_carried_arcs((i, side), t, image, side, jt, circles))
            circles += t.circles
    return RecorderByDiagram(big).plan(pick, hom_double(ja, jb)[0], arc_map)


def stacking_plan(z1, m1, z2, m2, zt):
    """The plan of surface._stacking_plan(z1, m1, z2, m2, zt)."""
    from skeinhom.planar import compose as stack
    from skeinhom.planar import stacking_points
    from skeinhom.tqft import _carried_arcs, _chord_index, _glued, hom_double

    m_out = stack(m1, m2)
    union, pick = union_of_doubles(((1, z1, m1), (2, z2, m2)))
    rec = RecorderByDiagram(union)
    z_lower, z_upper = stacking_points(z1, z2)
    twin = {u: l for l, u in _glued(z_lower, z_upper)}

    def nodes(p):
        return (union.node_of_port(((1, "x"),) + z1.port_of_point(p)),
                union.node_of_port(((2, "x"),) + z2.port_of_point(twin[p])))

    for k, (p, q) in enumerate(z1.chords):
        if p in twin:
            rec.surger(((1, "x"), k), ((2, "x"), _chord_index(z2, twin[p])), (nodes(p), nodes(q)))
    m_lower, m_upper = stacking_points(m1, m2)
    arc_map = {**_carried_arcs((2, "x"), z2, z_lower, "x", zt),
               **_carried_arcs((1, "x"), z1, z_upper, "x", zt),
               **_carried_arcs((2, "y"), m2, m_lower, "y", m_out),
               **_carried_arcs((1, "y"), m1, m_upper, "y", m_out)}
    return rec.plan(pick, hom_double(zt, m_out)[0], arc_map)


def coarsening_plan(z_src, m_src, z_tgt, m_tgt, sites, arc_map):
    """The plan of surface._coarsening_plan, with the same arguments."""
    from skeinhom.tqft import hom_double

    d_src, _ = hom_double(z_src, m_src)
    rec = RecorderByDiagram(d_src)
    for arc1, arc2, pairing in sites:
        rec.surger(arc1, arc2, pairing)
    return rec.plan(tuple(range(len(d_src))), hom_double(z_tgt, m_tgt)[0], dict(arc_map))


def cancel_units_by_scan(rows, cols):
    """homalg._cancel_units with a scan of every column per pivot: the
    first unit of the first shortest column holding one, in the insertion
    order of cols and of each column."""
    units = 0
    while True:
        best = None
        for c, col in cols.items():
            if best is not None and len(col) >= best[0]:
                continue
            r = next((r for r, v in col.items() if v == 1 or v == -1), None)
            if r is not None:
                best = (len(col), r, c)
                if len(col) == 1:
                    break
        if best is None:
            break
        _, pr, pc = best
        units += 1
        pivot_row = rows.pop(pr)
        p = pivot_row.pop(pc)
        for c in pivot_row:
            col = cols[c]
            del col[pr]
            if not col:
                del cols[c]
        for r, a in cols.pop(pc).items():
            if r == pr:
                continue
            row = rows[r]
            del row[pc]
            f = a * p
            for c, b in pivot_row.items():
                v = row.get(c, 0) - f * b
                if v:
                    row[c] = v
                    cols.setdefault(c, {})[r] = v
                else:
                    del row[c]
                    col = cols[c]
                    del col[r]
                    if not col:
                        del cols[c]
            if not row:
                del rows[r]
    pos = {c: k for k, c in enumerate(sorted(cols))}
    residual = []
    for r in sorted(rows):
        dense = [0] * len(pos)
        for c, v in rows[r].items():
            dense[pos[c]] = v
        residual.append(dense)
    return units, residual


def unit_cancellation_by_scan(entries):
    """homalg.unit_cancellation(entries) through cancel_units_by_scan."""
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    return cancel_units_by_scan(rows, cols)


def through_degree(t):
    """The number of chords of t joining a bottom point to a top point."""
    m = t.bottom
    return sum(1 for q in t.partner[:m] if q >= m)


def _identity_halves(terms, half, c):
    """(half(d), coefficient) over the terms of an idempotent, keeping the
    halves with all c strands of the c edge passing through: a composite
    has through-degree at most that of each factor."""
    out = []
    for d, coeff in terms.items():
        t = half(d)
        if through_degree(t) == c:
            out.append((t, coeff))
    return out


def theta_by_planar(a, b, c):
    """The theta graph evaluated on diagrams, with the largest color on the
    c edge.  The c edge's idempotent kills every non-identity (c, c)
    diagram, which has a turnback at both ends, so X * JW_c = coeff_id(X) *
    JW_c and the graph is coeff_id(X) * loop(c) for the sandwich X of
    JW_a (x) JW_b between the two vertices.  The middle is
    (da (x) 1_b) o (1_a (x) db): the upper vertex is composed with each
    da (x) 1_b and each 1_a (x) db with the lower vertex once, halves that
    cannot reach the identity are dropped, and each surviving pair costs
    one compose.  Only the identity coefficient is summed."""
    from skeinhom.homalg import circle_poly
    from skeinhom.planar import compose, identity_tangle, juxtapose
    from skeinhom.spin import (RationalFunctionQ, _fraction_sum, _vertex_tangle,
                               admissible_triple, loop, wenzl)

    a, b, c = sorted((a, b, c))
    if not admissible_triple(a, b, c):
        return RationalFunctionQ.zero()
    vertex = _vertex_tangle(a, b, c)
    mirror = vertex.reflect_y()
    id_a, id_b = identity_tangle(a), identity_tangle(b)
    uppers = _identity_halves(wenzl(a).terms, lambda d: compose(vertex, juxtapose(d, id_b)), c)
    lowers = _identity_halves(wenzl(b).terms, lambda d: compose(juxtapose(id_a, d), mirror), c)
    ident = identity_tangle(c).partner

    def identity_terms():
        for du, cu in uppers:
            for dl, cl in lowers:
                t = compose(du, dl)
                if t.partner == ident:
                    yield cu.num * cl.num * circle_poly(t.circles), cu.den * cl.den

    return _fraction_sum(identity_terms()) * loop(c)


def costandard_series_by_pairs(colors, order):
    """spin.costandard_pairing_series with a depth-0 SurfaceComplex built
    for every tangle pair on every call, and one multiply, shift and add
    per pair of objects."""
    from skeinhom.homalg import LaurentPoly, circle_poly
    from skeinhom.planar import bend_down, compose, juxtapose
    from skeinhom.spin import _TRIANGLE, _vertex_tangle, projector_truncation
    from skeinhom.surface import SurfaceComplex, SurfaceTangle

    base = bend_down(_vertex_tangle(*colors))
    counts = (tuple(colors),)
    objects = []
    plugs = [projector_truncation(col, (order + 1) // 2) for col in colors]
    for combo in itertools.product(*plugs):
        plugged = compose(base, juxtapose(*(plug for plug, _h, _q in combo)))
        objects.append((plugged.strip_circles(), plugged.circles,
                        sum(h for _p, h, _q in combo), sum(q for _p, _h, q in combo)))

    tangles = {o[0] for o in objects}
    ranks = {}
    for t1 in tangles:
        for t2 in tangles:
            cx = SurfaceComplex(_TRIANGLE, SurfaceTangle((t2,), counts),
                                SurfaceTangle((t1,), counts), depth=0)
            poly = LaurentPoly.zero()
            for _label, qq in cx.truncated.generators[0]:
                poly = poly + LaurentPoly.q(qq)
            ranks[(t1, t2)] = poly
    max_circles = max(o[1] for o in objects)
    floor = min(r.min_exp() for r in ranks.values()) - 2 * max_circles

    series = LaurentPoly.zero()
    for (t1, c1, h1, q1), (t2, c2, h2, q2) in itertools.product(objects, objects):
        if q1 + q2 + floor > order:
            continue
        contrib = ranks[(t1, t2)] * circle_poly(c1 + c2)
        sign = (-1) ** ((h1 + h2) % 2)
        series = series + contrib.shifted(q1 + q2) * sign
    return series.truncated(series.min_exp() or 0, order)


def _laurent_quantum_factorial(n):
    """[n]! = [1][2]...[n] as a LaurentPoly."""
    from skeinhom.homalg import LaurentPoly
    from skeinhom.spin import quantum_integer

    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * quantum_integer(k)
    return out


def theta_by_one_reduction(a, b, c):
    """Theta graph as the ratio of quantum factorials with both products
    multiplied out as Laurent polynomials and reduced by one gcd; the route
    spin.theta took before it read the reduced form off cyclotomic
    exponents."""
    from skeinhom.spin import RationalFunctionQ, admissible_triple

    a, b, c = sorted((a, b, c))
    if not admissible_triple(a, b, c):
        return RationalFunctionQ.zero()
    i, j, k = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    num = _laurent_quantum_factorial(i + j + k + 1)
    for t in (i, j, k):
        num = num * _laurent_quantum_factorial(t)
    den = (_laurent_quantum_factorial(i + j) * _laurent_quantum_factorial(j + k)
           * _laurent_quantum_factorial(k + i))
    return RationalFunctionQ(num, den)


def pairing_by_one_reduction(net):
    """Predicted self-pairing of a network with the theta numerators times
    the loop denominators, and the theta denominators times the loop
    numerators, multiplied out as Laurent polynomials and reduced by one
    gcd; the route spin.pairing_prediction took before it summed cyclotomic
    exponents.  Thetas come from theta_by_one_reduction."""
    from skeinhom.homalg import LaurentPoly
    from skeinhom.spin import RationalFunctionQ, check_admissible, loop, region_colors

    check_admissible(net)
    num = den = LaurentPoly.one()
    for ri in range(len(net.surface.regions)):
        value = theta_by_one_reduction(*region_colors(net, ri))
        num, den = num * value.num, den * value.den
    for seam in net.surface.seams:
        value = loop(net.coloring[seam])
        num, den = num * value.den, den * value.num
    return RationalFunctionQ(num, den)


def square_check_by_sparse_product(cx):
    """Raise ChainMapError unless d^2 = 0 on the twisted complex cx, with
    the message SparseComplex._validate gives."""
    from skeinhom.errors import ChainMapError
    from skeinhom.homalg import sparse_product

    cells, diffs = cx.cells, cx.differentials
    for h in sorted(diffs):
        if h + 1 in diffs:
            prod = sparse_product(diffs[h], diffs[h + 1], cx.compose,
                                  cells[h], cells[h + 1], cells[h + 2])
            bad = {k: x for k, x in prod.items() if x}
            if bad:
                raise ChainMapError(f"d^2 != 0 from degree {h}: {sorted(bad.items())[:4]}")


def run_by_argparse(argv=None):
    """cli.run with every argv parsed by build_parser().parse_args."""
    import sys

    from skeinhom import cli
    from skeinhom.errors import AdmissibilityError, InvalidBoundary, SpecError, TruncationError

    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "spec", None) is not None:
            args._spec, args._top, args._bottom = cli._load_surface_inputs(args)
        return args.handler(args)
    except TruncationError as exc:
        print(f"TruncationError: {exc}", file=sys.stderr)
        return 2
    except (SpecError, InvalidBoundary, AdmissibilityError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


@functools.lru_cache(maxsize=None)
def wenzl_by_fractions(n):
    """The n-strand Jones-Wenzl idempotent by the single-clasp recursion
    with rational coefficients: P = JW_{n-1} (x) 1 composed with each
    word E_i = e_{n-1} ... e_i, each term scaled by (-1)^{n-i} [i]/[n],
    and every diagram's terms summed and reduced once."""
    from skeinhom.spin import (TLElement, _fraction_sum, cup_cap_at, identity_element,
                               quantum_integer, tl_compose, tl_tensor)

    if n <= 1:
        return identity_element(n)
    p = tl_tensor(wenzl_by_fractions(n - 1), identity_element(1))
    qn = quantum_integer(n)
    sums = {d: [(c.num, c.den)] for d, c in p.terms.items()}
    word = None
    for i in range(n - 1, 0, -1):
        e = TLElement(n, {cup_cap_at(n, i - 1): 1})
        word = e if word is None else tl_compose(word, e)
        num = quantum_integer(i) * (-1) ** ((n - i) % 2)
        for d, c in tl_compose(p, word).terms.items():
            sums.setdefault(d, []).append((c.num * num, c.den * qn))
    return TLElement(n, {d: _fraction_sum(terms) for d, terms in sums.items()})


def tl_compose_termwise(x, y):
    """y stacked on x as a sum of RationalFunctionQ products, one per pair
    of terms, each circle a factor of [2]."""
    from skeinhom.homalg import circle_poly
    from skeinhom.planar import compose
    from skeinhom.spin import RationalFunctionQ, TLElement

    out = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            d = compose(dy, dx)
            key = d.strip_circles()
            out[key] = out.get(key, RationalFunctionQ.zero()) + cx * cy * circle_poly(d.circles)
    return TLElement(x.strands, out)


def series_by_fractions(value, lo, hi):
    """RationalFunctionQ.series with the inverse series of the denominator
    computed in Fractions whatever its constant term."""
    if not value.num:
        return {}
    length = hi - value.num.min_exp() + 1
    if length <= 0:
        return {}
    dcs = dict(value.den.terms)
    inv = [Fraction(1, dcs[0])]
    for m in range(1, length):
        acc = Fraction(0)
        for t, c in dcs.items():
            if 1 <= t <= m:
                acc += c * inv[m - t]
        inv.append(-acc / dcs[0])
    out = {}
    for e, c in value.num.terms:
        for m, ic in enumerate(inv):
            if lo <= e + m <= hi:
                out[e + m] = out.get(e + m, Fraction(0)) + c * ic
    return {e: c for e, c in out.items() if c}
