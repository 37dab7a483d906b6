"""The rank-two Frobenius algebra acting on labeled circle diagrams.

Circles carry labels from the basis {1, x} of Z[x]/(x^2), stored as the
integers 0 and 1.  The label 1 sits in quantum degree -1 and x in degree +1.
A state vector owns a global offset, so a generator's quantum degree is
offset + #x - #1 over its labels.  Merging and splitting circles raises the
label degree by one, and the offset drops by one to compensate; capping a
circle off returns that unit.  Composition pairings of hom elements are
therefore exactly degree preserving, with no bookkeeping left to callers.

Composite tangles carry their free circles in a fixed order: the lower
factor's own circles, then the upper factor's, then circles formed at the
interface ordered by their smallest interface point.  Juxtaposition
concatenates circle lists left to right.  All transports here respect that
order, so states produced by different routes can be composed safely.

Composition and juxtaposition depend only on the tangles.  Surgery runs
once per triple of tangles, on diagrams, and compiles a plan of saddles
and caps that pair replays on labels, filling a table of basis products on
first use; juxtaposed reads a circle map compiled once per tuple of
shapes.  Doubles, plans, products and maps are cached for the life of the
process.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import GradingError, InvalidBoundary
from .homalg import LaurentPoly
from .planar import ClosedDiagram, compose, juxtapose

ONE, X = 0, 1


class StateVector:
    """An integer combination of circle labelings of one closed diagram."""

    __slots__ = ("diagram", "offset", "terms")

    def __init__(self, diagram, offset, terms):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "offset", Fraction(offset))
        n = len(diagram)
        clean = {}
        for lab, coeff in terms.items():
            lab = tuple(lab)
            if len(lab) != n or any(l not in (ONE, X) for l in lab):
                raise GradingError(f"labeling {lab!r} does not fit a {n}-circle diagram")
            if coeff:
                clean[lab] = int(coeff)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("StateVector is immutable")

    @classmethod
    def zero(cls, diagram, offset):
        return cls(diagram, offset, {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, StateVector)
            and self.diagram.arcs == other.diagram.arcs
            and self.offset == other.offset
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.offset, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        body = ", ".join(f"{c}*{''.join('x' if l else '1' for l in lab)}"
                         for lab, c in sorted(self.terms.items()))
        return f"StateVector(q^{self.offset}; {body or '0'})"

    def _compatible(self, other):
        if self.diagram.arcs != other.diagram.arcs or self.offset != other.offset:
            raise GradingError("state vectors live on different diagrams or offsets")

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for lab, c in other.terms.items():
            terms[lab] = terms.get(lab, 0) + c
        return StateVector(self.diagram, self.offset, terms)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        return StateVector(self.diagram, self.offset, {lab: k * c for lab, c in self.terms.items()})

    def degree_of(self, lab):
        return self.offset + sum(1 if l == X else -1 for l in lab)

    def degrees(self):
        return sorted({self.degree_of(lab) for lab in self.terms})

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def sorted_terms(self):
        return tuple(sorted(self.terms.items()))

    @classmethod
    def _trusted(cls, diagram, offset, terms):
        """A state from terms this module produced: every labeling fits the
        diagram, no coefficient is zero and offset is already a Fraction."""
        sv = object.__new__(cls)
        object.__setattr__(sv, "diagram", diagram)
        object.__setattr__(sv, "offset", offset)
        object.__setattr__(sv, "terms", terms)
        return sv

    def _saddle_terms(self, new_diag, c1, c2, t0, t1):
        """Label bookkeeping shared by arc surgery and port regluing."""
        if c1 == c2:
            assert t0 != t1, "a planar saddle on one circle must split it"
        return _frobenius_terms(self.terms, _carry(self.diagram, new_diag, {t0, t1}),
                                c1, c2, t0, t1)

    def surgered(self, arc1, arc2, pairing):
        """Saddle joining the two arcs, reconnected as prescribed.

        Distinct circles merge with the product; a single circle splits with
        the coproduct.  The offset drops by one either way.
        """
        new_diag, c1, c2, t0, t1 = _saddle(self.diagram, arc1, arc2, pairing)
        if c1 != c2:
            assert t0 == t1
        terms = self._saddle_terms(new_diag, c1, c2, t0, t1)
        return StateVector(new_diag, self.offset - 1, terms)

    def dotted(self, arc):
        """Multiply the label on the circle through arc by x."""
        c = self.diagram.component_of[arc]
        terms = {}
        for lab, coeff in self.terms.items():
            if lab[c] == X:
                continue
            new_lab = lab[:c] + (X,) + lab[c + 1:]
            terms[new_lab] = terms.get(new_lab, 0) + coeff
        return StateVector(self.diagram, self.offset, terms)

    def killed(self, arc):
        """Cap off the circle through arc with the counit."""
        new_diag, c = _capped(self.diagram, arc)
        terms = _frobenius_terms(self.terms, _carry(self.diagram, new_diag, ()), c)
        return StateVector(new_diag, self.offset + 1, terms)


def _saddle(diagram, arc1, arc2, pairing):
    """The diagram after a saddle joining arc1 and arc2, reconnected as
    prescribed, with the circles c1, c2 of the two arcs before it and the
    circles t0, t1 of the two new arcs after it."""
    new_diag = diagram.surger(arc1, arc2, pairing)
    t0 = new_diag.component_of[("srg", arc1, arc2, 0)]
    t1 = new_diag.component_of[("srg", arc1, arc2, 1)]
    return new_diag, diagram.component_of[arc1], diagram.component_of[arc2], t0, t1


def _capped(diagram, arc):
    """The diagram without the circle through arc, and that circle."""
    c = diagram.component_of[arc]
    gone = set(diagram.circles[c])
    remaining = {a: uv for a, uv in diagram.arcs.items() if a not in gone}
    return ClosedDiagram(remaining, diagram.port_node), c


def _carry(old, new, made):
    """For each circle of new, the circle of old it continues, or None for
    the circles in made, which a cobordism between the two created."""
    of = old.component_of
    return tuple(None if i in made else of[next(a for a in circ if a in of)]
                 for i, circ in enumerate(new.circles))


def _frobenius_terms(terms, carry, c1, c2=None, t0=None, t1=None):
    """Labelings after one saddle or cap, by the rules of Z[x]/(x^2).

    A circle i after the step keeps the label of circle carry[i] before it,
    except the circles the step made.  A saddle on circles c1 != c2 merges
    them into t0 == t1 (1.1 = 1, 1.x = x.1 = x, x.x = 0); a saddle with
    c1 == c2 splits it into t0 and t1 (1 -> 1.x + x.1, x -> x.x); a cap
    (c2 None) removes circle c1 by the counit (1 -> 0, x -> 1).
    """
    out = {}
    for lab, coeff in terms.items():
        l1 = lab[c1]
        if c2 is None:
            made = () if l1 == ONE else ((None, None),)
        elif c1 != c2:
            l2 = lab[c2]
            made = () if l1 == l2 == X else ((X, X),) if X in (l1, l2) else ((ONE, ONE),)
        else:
            made = ((X, X),) if l1 == X else ((ONE, X), (X, ONE))
        for h0, h1 in made:
            new_lab = tuple(h0 if i == t0 else h1 if i == t1 else lab[k]
                            for i, k in enumerate(carry))
            out[new_lab] = out.get(new_lab, 0) + coeff
    return out


def _circle_map(src, target, arc_map):
    """The bijection of circles, source index to target index, that arc_map
    induces between two homeomorphic diagrams."""
    circle_map = {}
    for a_src, a_tgt in arc_map.items():
        i = src.component_of[a_src]
        j = target.component_of[a_tgt]
        if circle_map.setdefault(i, j) != j:
            raise GradingError("arc map does not descend to circles")
    if (
        len(circle_map) != len(src)
        or len(src) != len(target)
        or len(set(circle_map.values())) != len(target)
    ):
        raise GradingError("arc map does not cover circles bijectively")
    return circle_map


def transport(state, target, arc_map):
    """Reinterpret a state on a homeomorphic diagram.

    arc_map sends source arcs to target arcs and must determine a bijection
    of circles; it does not need to mention every arc.
    """
    circle_map = _circle_map(state.diagram, target, arc_map)
    terms = {}
    for lab, coeff in state.terms.items():
        new_lab = [None] * len(target)
        for i, j in circle_map.items():
            new_lab[j] = lab[i]
        terms[tuple(new_lab)] = coeff
    return StateVector(target, state.offset, terms)


def kh_basis(diagram, offset):
    """All labelings of the diagram with their quantum degrees."""
    off = Fraction(offset)
    if off.denominator != 1:
        raise GradingError(f"offset {off} does not make degrees integral")
    off = int(off)
    out = []
    for lab in itertools.product((ONE, X), repeat=len(diagram)):
        out.append((lab, off + sum(1 if l == X else -1 for l in lab)))
    return tuple(out)


def graded_rank(diagram, offset):
    counts = {}
    for _, d in kh_basis(diagram, offset):
        counts[d] = counts.get(d, 0) + 1
    return LaurentPoly(counts)


@lru_cache(maxsize=None)
def hom_double(a, b):
    """The circle diagram and offset presenting morphisms from a to b.

    Cached for the life of the process: every state on Hom(a, b) shares one
    diagram, which nothing may mutate.
    """
    if (a.bottom, a.top) != (b.bottom, b.top):
        raise InvalidBoundary("hom spaces need matching boundary data")
    return ClosedDiagram.double(a, b), Fraction(a.points, 2)


def hom_graded_rank(a, b):
    return graded_rank(*hom_double(a, b))


def identity_state(a):
    """The identity morphism of a, as a state on its self-double.

    Chord circles are labeled 1; each carried free circle appears twice in
    the double and contributes the two-term coproduct of 1.
    """
    d, off = hom_double(a, a)
    base = [None] * len(d)
    for k in range(len(a.chords)):
        base[d.component_of[("x", k)]] = ONE
    loops = [
        (d.component_of[("x", "o", k)], d.component_of[("y", "o", k)])
        for k in range(a.circles)
    ]
    terms = {}
    for picks in itertools.product((0, 1), repeat=len(loops)):
        lab = list(base)
        for (cx, cy), pick in zip(loops, picks):
            lab[cx], lab[cy] = (ONE, X) if pick == 0 else (X, ONE)
        lab = tuple(lab)
        terms[lab] = terms.get(lab, 0) + 1
    return StateVector(d, off, terms)


def basis_state(a, b, lab):
    d, off = hom_double(a, b)
    return StateVector(d, off, {tuple(lab): 1})


def _local_arc(arc):
    """Split a block-tagged arc ((i, side), ...) into block and local arc."""
    (block, side), *rest = arc
    return block, (side, *rest)


def _joint_pick(big, diagrams):
    """The (block, local circle) behind each circle of big.

    diagrams maps a block id to its diagram; arcs of big must have the form
    ((block, side), ...) with (side, ...) an arc of that block's diagram.
    """
    pick = []
    for circ in big.circles:
        block, local = _local_arc(circ[0])
        pick.append((block, diagrams[block].component_of[local]))
    return tuple(pick)


def _product_terms(pick, states):
    """Product labelings: circle i takes the label of circle pick[i][1] in
    the state states[pick[i][0]]."""
    blocks = sorted(states)
    terms = {}
    for combo in itertools.product(*(states[b].sorted_terms() for b in blocks)):
        labs = dict(zip(blocks, (lab for lab, _ in combo)))
        coeff = 1
        for _, c in combo:
            coeff *= c
        lab = tuple(labs[b][i] for b, i in pick)
        terms[lab] = terms.get(lab, 0) + coeff
    return terms


def _joint_terms(big, states):
    """Product labelings on a diagram whose circles come from per-block states.

    states maps a block id to its StateVector; see _joint_pick for the arcs.
    """
    pick = _joint_pick(big, {b: sv.diagram for b, sv in states.items()})
    offset = sum((sv.offset for sv in states.values()), Fraction(0))
    return StateVector(big, offset, _product_terms(pick, states))


def _double_instances(block, a, b, tangles, glue):
    """Register the double of (a, b) as instances (block, "x"), (block, "y")."""
    tangles[(block, "x")] = a
    tangles[(block, "y")] = b
    _glue_all(glue, (block, "x"), "b", (block, "y"), "b", a.bottom)
    _glue_all(glue, (block, "x"), "t", (block, "y"), "t", a.top)


def _glue_all(glue, inst1, side1, inst2, side2, count):
    for i in range(count):
        glue[(inst1, side1, i)] = (inst2, side2, i)
        glue[(inst2, side2, i)] = (inst1, side1, i)


def _check_hom_state(sv, a, b, what):
    """Raise unless sv lies on the double of (a, b) at its hom offset."""
    d, off = hom_double(a, b)
    if sv.diagram is not d and sv.diagram.arcs != d.arcs:
        raise InvalidBoundary(f"{what} does not live on the expected double")
    if sv.offset != off:
        raise GradingError(f"{what} sits at offset {sv.offset}, not at the hom offset {off}")


def pair(a, b, c, sv1, sv2):
    """Compose sv1 in Hom(a, b) with sv2 in Hom(b, c).

    The bilinear extension of the basis products of _composition_plan.  The
    result lives on the double of a and c, at its own hom offset.
    """
    _check_hom_state(sv1, a, b, "first state")
    _check_hom_state(sv2, b, c, "second state")
    plan = _composition_plan(a, b, c)
    terms = {}
    for lab1, c1 in sv1.terms.items():
        for lab2, c2 in sv2.terms.items():
            for lab, k in plan.product(lab1, lab2):
                terms[lab] = terms.get(lab, 0) + c1 * c2 * k
    return StateVector._trusted(plan.canon, plan.offset,
                                {lab: k for lab, k in terms.items() if k})


class _CompositionPlan:
    """Composition from Hom(a, b) x Hom(b, c) to Hom(a, c), as steps on labels.

    pick takes a circle of the union of the two doubles to its position in
    the concatenated labelings lab1 + lab2; steps are the arguments, after
    the terms, of one _frobenius_terms call per saddle or cap; and circle j
    of the double of (a, c) takes the label of circle perm[j] after them.
    """

    __slots__ = ("canon", "offset", "pick", "steps", "perm", "products")

    def __init__(self, canon, offset, pick, steps, perm):
        self.canon, self.offset = canon, offset
        self.pick, self.steps, self.perm = pick, steps, perm
        self.products = {}

    def product(self, lab1, lab2):
        """Composite of two basis labelings, as sorted (labeling,
        coefficient) pairs; replayed on first use and kept."""
        key = (lab1, lab2)
        out = self.products.get(key)
        if out is None:
            joint = lab1 + lab2
            terms = {tuple(joint[p] for p in self.pick): 1}
            for step in self.steps:
                terms = _frobenius_terms(terms, *step)
            out = self.products[key] = tuple(sorted(
                (tuple(lab[i] for i in self.perm), k) for lab, k in terms.items() if k))
        return out


@lru_cache(maxsize=None)
def _composition_plan(a, b, c):
    """Compile composition through b once, on diagrams.

    On the union of the doubles of (a, b) and (b, c): one saddle per chord
    of b, then each free circle of b is merged across the two copies and
    capped off.  Only what labels need is kept; the plan, and the products
    it fills, live as long as the process.
    """
    d1, _ = hom_double(a, b)
    d2, _ = hom_double(b, c)
    canon, off = hom_double(a, c)
    tangles, glue = {}, {}
    _double_instances(1, a, b, tangles, glue)
    _double_instances(2, b, c, tangles, glue)
    diag = ClosedDiagram.from_instances(tangles, glue)
    start = {1: 0, 2: len(d1)}
    pick = tuple(start[block] + i for block, i in _joint_pick(diag, {1: d1, 2: d2}))
    steps = []
    for k, (p, q) in enumerate(b.chords):
        arc1, arc2 = ((1, "y"), k), ((2, "x"), k)
        n1p, n1q, n2p, n2q = (diag.node_of_port((inst,) + b.port_of_point(x))
                              for inst in ((1, "y"), (2, "x")) for x in (p, q))
        new, c1, c2, t0, t1 = _saddle(diag, arc1, arc2, ((n1p, n2p), (n1q, n2q)))
        steps.append((_carry(diag, new, {t0, t1}), c1, c2, t0, t1))
        diag = new
    for k in range(b.circles):
        arc1, arc2 = ((1, "y"), "o", k), ((2, "x"), "o", k)
        l1, l2 = diag.arcs[arc1][0], diag.arcs[arc2][0]
        new, c1, c2, t0, t1 = _saddle(diag, arc1, arc2, ((l1, l2), (l1, l2)))
        steps.append((_carry(diag, new, {t0, t1}), c1, c2, t0, t1))
        diag = new
        new, capped = _capped(diag, ("srg", arc1, arc2, 0))
        steps.append((_carry(diag, new, ()), capped))
        diag = new
    arc_map = {}
    for side, block, t in (("x", 1, a), ("y", 2, c)):
        for k in range(len(t.chords)):
            arc_map[((block, side), k)] = (side, k)
        for k in range(t.circles):
            arc_map[((block, side), "o", k)] = (side, "o", k)
    perm = [None] * len(canon)
    for i, j in _circle_map(diag, canon, arc_map).items():
        perm[j] = i
    return _CompositionPlan(canon, off, pick, tuple(steps), tuple(perm))


def _chord_index(t, p):
    """Index into t.chords of the chord through point p."""
    q = t.partner[p]
    return t.chords.index((min(p, q), max(p, q)))


def _arc_at_port(instances, port):
    inst, side, i = port
    t = instances[inst]
    p = i if side == "b" else t.bottom + i
    return (inst, _chord_index(t, p))


def _point_map_state(state, a, b, f, fa, fb):
    """Transport along a boundary relabeling applied to both hom factors."""
    canon, _ = hom_double(fa, fb)
    arc_map = {}
    for p, _q in a.chords:
        arc_map[("x", _chord_index(a, p))] = ("x", _chord_index(fa, f(p)))
    for p, _q in b.chords:
        arc_map[("y", _chord_index(b, p))] = ("y", _chord_index(fb, f(p)))
    for k in range(a.circles):
        arc_map[("x", "o", k)] = ("x", "o", k)
    for k in range(b.circles):
        arc_map[("y", "o", k)] = ("y", "o", k)
    return transport(state, canon, arc_map)


def reflected_x(state, a, b):
    """Left-right mirror on both factors of a hom element."""
    m, n = a.bottom, a.top
    f = lambda p: (m - 1 - p) if p < m else m + (n - 1 - (p - m))
    return _point_map_state(state, a, b, f, a.reflect_x(), b.reflect_x())


def reflected_y(state, a, b):
    """Top-bottom mirror on both factors of a hom element."""
    m, n = a.bottom, a.top
    f = lambda p: (n + p) if p < m else p - m
    return _point_map_state(state, a, b, f, a.reflect_y(), b.reflect_y())


def transposed(state, a, b):
    """The same underlying labeling read as a morphism from b to a."""
    canon, _ = hom_double(b, a)
    arc_map = {}
    for k in range(len(a.chords)):
        arc_map[("x", k)] = ("y", k)
    for k in range(len(b.chords)):
        arc_map[("y", k)] = ("x", k)
    for k in range(a.circles):
        arc_map[("x", "o", k)] = ("y", "o", k)
    for k in range(b.circles):
        arc_map[("y", "o", k)] = ("x", "o", k)
    return transport(state, canon, arc_map)


def _interface_points(upper, lower):
    """Smallest interface index of each circle formed by composing two
    tangles, in increasing order."""
    mid = lower.top
    kb = lower.bottom

    def step(enc):
        side, p = enc
        if side == "L":
            q = lower.partner[p]
            return ("U", q - kb) if q >= kb else ("L", q)
        q = upper.partner[p]
        return ("L", kb + q) if q < mid else ("U", q)

    def twin(enc):
        side, p = enc
        return ("U", p - kb) if side == "L" else ("L", kb + p)

    def at_boundary(enc):
        side, p = enc
        return (side == "L" and p < kb) or (side == "U" and p >= mid)

    touched = set()
    starts = [("L", p) for p in range(kb)] + [("U", p) for p in range(mid, mid + upper.top)]
    for start in starts:
        cur = step(start)
        while not at_boundary(cur):
            touched.add(cur)
            touched.add(twin(cur))
            cur = step(cur)
    points = []
    for i in range(mid):
        enc = ("L", kb + i)
        if enc in touched:
            continue
        points.append(i)
        cur = enc
        while cur not in touched:
            touched.add(cur)
            touched.add(twin(cur))
            cur = step(cur)
    return tuple(points)


def _reglue(state, instances, glue, p1, p2):
    """Saddle re-pairing ports: {p1-q1, p2-q2} becomes {p1-p2, q1-q2}."""
    q1, q2 = glue[p1], glue[p2]
    new_glue = dict(glue)
    new_glue[p1], new_glue[p2] = p2, p1
    new_glue[q1], new_glue[q2] = q2, q1
    new_diag = ClosedDiagram.from_instances(instances, new_glue)
    old = state.diagram
    a1 = _arc_at_port(instances, p1)
    a2 = _arc_at_port(instances, p2)
    c1, c2 = old.component_of[a1], old.component_of[a2]
    t0 = new_diag.component_of[a1]
    if c1 != c2:
        assert new_diag.component_of[a2] == t0
        t1 = t0
    else:
        # the daughters meet the new nodes {p1, p2} and {q1, q2}
        t1 = new_diag.component_of[_arc_at_port(instances, q1)]
    terms = state._saddle_terms(new_diag, c1, c2, t0, t1)
    return StateVector(new_diag, state.offset - 1, terms), new_glue


def whisker(state, a, b, e, above=True):
    """Horizontal composition with the identity of e.

    Sends a hom element from a to b to one from e*a to e*b (gluing e onto
    the top edge) or from a*e to b*e (bottom edge).  One saddle per glued
    boundary point.
    """
    _check_hom_state(state, a, b, "state")
    if above:
        if e.bottom != a.top:
            raise InvalidBoundary("whisker tangle does not fit the top edge")
        fa, fb = compose(e, a), compose(e, b)
    else:
        if e.top != a.bottom:
            raise InvalidBoundary("whisker tangle does not fit the bottom edge")
        fa, fb = compose(a, e), compose(b, e)
    id_e = identity_state(e)
    tangles, glue = {}, {}
    _double_instances("m", a, b, tangles, glue)
    _double_instances("e", e, e, tangles, glue)
    start = ClosedDiagram.from_instances(tangles, glue)
    cur = _joint_terms(start, {"m": state, "e": id_e})
    if above:
        pairs = [((("m", "x"), "t", i), (("e", "x"), "b", i)) for i in range(a.top)]
    else:
        pairs = [((("m", "x"), "b", i), (("e", "x"), "t", i)) for i in range(a.bottom)]
    for p1, p2 in pairs:
        cur, glue = _reglue(cur, tangles, glue, p1, p2)
    canon, off = hom_double(fa, fb)
    assert cur.offset == off
    final_map = {}
    for side in ("x", "y"):
        f = fa if side == "x" else fb
        mid_t = a if side == "x" else b
        m_inst, e_inst = ("m", side), ("e", side)
        lo_inst, lo_t = (m_inst, mid_t) if above else (e_inst, e)
        up_inst, up_t = (e_inst, e) if above else (m_inst, mid_t)
        interface = _interface_points(up_t, lo_t)
        for j, (p, _q) in enumerate(f.chords):
            if p < f.bottom:
                port = (lo_inst, "b", p)
            else:
                port = (up_inst, "t", p - f.bottom)
            final_map[_arc_at_port(tangles, port)] = (side, j)
        idx = 0
        for k in range(lo_t.circles):
            final_map[(lo_inst, "o", k)] = (side, "o", idx)
            idx += 1
        for k in range(up_t.circles):
            final_map[(up_inst, "o", k)] = (side, "o", idx)
            idx += 1
        for i in interface:
            final_map[_arc_at_port(tangles, (lo_inst, "t", i))] = (side, "o", idx)
            idx += 1
        assert idx == f.circles
    return transport(cur, canon, final_map)


def juxtaposed(factors):
    """Side-by-side union of hom elements.

    factors is a sequence of (a_i, b_i, state_i); the result is a hom
    element from juxtapose(*a) to juxtapose(*b).  No saddles are involved:
    each circle of the result carries the label of one factor's circle, as
    compiled by _juxtaposition_plan.
    """
    shapes, states = [], {}
    for i, (a, b, sv) in enumerate(factors):
        _check_hom_state(sv, a, b, f"factor {i}")
        shapes.append((a, b))
        states[i] = sv
    canon, off, pick = _juxtaposition_plan(tuple(shapes))
    return StateVector._trusted(canon, off, _product_terms(pick, states))


@lru_cache(maxsize=None)
def _juxtaposition_plan(shapes):
    """The double of the juxtaposed (a_i, b_i) in shapes, its hom offset,
    and the (factor, local circle) behind each of its circles."""
    tangles, glue = {}, {}
    doubles = {}
    for i, (a, b) in enumerate(shapes):
        _double_instances(i, a, b, tangles, glue)
        doubles[i], _ = hom_double(a, b)
    big = ClosedDiagram.from_instances(tangles, glue)
    ja = juxtapose(*(a for a, _b in shapes))
    jb = juxtapose(*(b for _a, b in shapes))
    canon, off = hom_double(ja, jb)
    arc_map = {}
    for side, get in (("x", lambda f: f[0]), ("y", lambda f: f[1])):
        jt = ja if side == "x" else jb
        off_b = off_t = off_o = 0
        for i, fac in enumerate(shapes):
            t = get(fac)
            for k, (p, _q) in enumerate(t.chords):
                gp = (off_b + p) if p < t.bottom else (jt.bottom + off_t + p - t.bottom)
                arc_map[((i, side), k)] = (side, _chord_index(jt, gp))
            for k in range(t.circles):
                arc_map[((i, side), "o", k)] = (side, "o", off_o + k)
            off_b += t.bottom
            off_t += t.top
            off_o += t.circles
    pick = _joint_pick(big, doubles)
    to_canon = _circle_map(big, canon, arc_map)
    plan = [None] * len(canon)
    for i, j in to_canon.items():
        plan[j] = pick[i]
    return canon, off, tuple(plan)
