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
concatenates circle lists left to right.  All maps here respect that
order, so states produced by different routes can be composed safely.

Every map this module applies to labels (composition, whiskering,
juxtaposition, the mirrors and bends of planar.MOVES, and transposition)
is a _SurgeryPlan compiled once per key of tangles: a _Recorder runs the
saddles and caps once, on circles, and keeps only how labels cross them.
It starts from the circles of cached doubles, listed block after block
in input order, and each step updates only the circles it touches: a
saddle merges two circles or walks one to split it, and a cap drops one.
The arc map that names the circles a plan ends on is built by
_carried_arcs from a point map of planar (a move, juxtaposition_points or
stacking_points), which alone knows how a composite numbers its boundary
points; no plan compiler does offset arithmetic of its own.
Replaying a plan touches labels alone; a plan with steps keeps the basis
products it has replayed.  Doubles and plans are cached for the life of
the process, and diagrams are built and traced only by hom_double, once
per pair of tangles.
"""

from __future__ import annotations

import itertools

from . import memo
from .errors import GradingError, InvalidBoundary
from .homalg import LaurentPoly
from .planar import (MOVES, ClosedDiagram, compose, juxtapose, juxtaposition_points, moved,
                     stacking_points)

ONE, X = 0, 1


class StateVector:
    """An integer combination of circle labelings of one closed diagram."""

    __slots__ = ("diagram", "offset", "terms")

    def __init__(self, diagram, offset, terms):
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "offset", integral_offset(offset))
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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, StateVector)
            and _on_diagram(self, other.diagram)
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
        if not _on_diagram(self, other.diagram) or self.offset != other.offset:
            raise GradingError("state vectors live on different diagrams or offsets")

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for lab, c in other.terms.items():
            terms[lab] = terms.get(lab, 0) + c
        return StateVector._trusted(self.diagram, self.offset,
                                    {lab: c for lab, c in terms.items() if c})

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, k):
        """The state times the integer k."""
        terms = {lab: k * c for lab, c in self.terms.items()} if k else {}
        return StateVector._trusted(self.diagram, self.offset, terms)

    def degree_of(self, lab):
        return label_degree(self.offset, lab)

    def degrees(self):
        return sorted({self.degree_of(lab) for lab in self.terms})

    def sorted_terms(self):
        return tuple(sorted(self.terms.items()))

    @classmethod
    def _trusted(cls, diagram, offset, terms):
        """A state from terms this module produced: every labeling fits the
        diagram, no coefficient is zero and offset is already an int."""
        sv = object.__new__(cls)
        object.__setattr__(sv, "diagram", diagram)
        object.__setattr__(sv, "offset", offset)
        object.__setattr__(sv, "terms", terms)
        return sv

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


def integral_offset(offset):
    """offset as an int; raise GradingError unless it is a whole number."""
    try:
        off = int(offset)
    except (TypeError, ValueError, OverflowError):
        off = None
    if off is None or off != offset:
        raise GradingError(f"offset {offset} does not make degrees integral")
    return off


def label_degree(offset, lab):
    """The quantum degree of labeling lab at offset: each circle labeled 1
    (stored as 0) adds -1 and each labeled x (stored as 1) adds +1."""
    return offset + 2 * sum(lab) - len(lab)


def kh_basis(diagram, offset):
    """All labelings of the diagram with their quantum degrees."""
    off = integral_offset(offset)
    return tuple((lab, label_degree(off, lab))
                 for lab in itertools.product((ONE, X), repeat=len(diagram)))


def graded_rank(diagram, offset):
    counts = {}
    for _, d in kh_basis(diagram, offset):
        counts[d] = counts.get(d, 0) + 1
    return LaurentPoly(counts)


@memo.cache
def hom_double(a, b):
    """The circle diagram and offset presenting morphisms from a to b.

    Cached for the life of the process: every state on Hom(a, b) shares one
    diagram, which nothing may mutate.  The offset is half the boundary
    point count, an int because every tangle pairs its points off.
    """
    if (a.bottom, a.top) != (b.bottom, b.top):
        raise InvalidBoundary("hom spaces need matching boundary data")
    return ClosedDiagram.double(a, b), a.points // 2


def hom_graded_rank(a, b):
    return graded_rank(*hom_double(a, b))


@memo.cache
def identity_state(a):
    """The identity morphism of a, as a state on its self-double.

    Chord circles are labeled 1; each carried free circle appears twice in
    the double and contributes the two-term coproduct of 1.  Cached for the
    life of the process, like hom_double: nothing may mutate the state.
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


def _on_diagram(sv, diagram):
    """Whether state sv lies on diagram: the same object, or equal arcs."""
    return sv.diagram is diagram or sv.diagram.arcs == diagram.arcs


def _check_on(sv, double, what):
    """Raise unless sv lies on double, a (diagram, hom offset) pair from
    hom_double, at that offset."""
    d, off = double
    if not _on_diagram(sv, d):
        raise InvalidBoundary(f"{what} does not live on the expected double")
    if sv.offset != off:
        raise GradingError(f"{what} sits at offset {sv.offset}, not at the hom offset {off}")


class _SurgeryPlan:
    """A cobordism between closed diagrams, compiled to steps on labels.

    The start diagram's circles are the input diagrams' circles in input
    order, so one labeling per input diagram, concatenated, labels it;
    steps are the arguments, after the terms, of one _frobenius_terms call
    per saddle or cap; and circle j of the end diagram takes the label of
    circle perm[j] after them.  A plan without steps keeps no table of
    products.
    """

    __slots__ = ("steps", "perm", "products")

    def __init__(self, steps, perm):
        self.steps, self.perm = steps, perm
        self.products = {} if steps else None

    def product(self, *labs):
        """The image of one basis labeling per input diagram, as sorted
        (labeling, coefficient) pairs; replayed on first use and, when the
        plan has steps, kept."""
        if not self.steps:
            joint = sum(labs, ())
            return ((tuple(joint[p] for p in self.perm), 1),)
        out = self.products.get(labs)
        if out is None:
            terms = {sum(labs, ()): 1}
            for step in self.steps:
                terms = _frobenius_terms(terms, *step)
            out = self.products[labs] = tuple(sorted(
                (tuple(lab[i] for i in self.perm), k) for lab, k in terms.items() if k))
        return out


def _replayed(plan, factors):
    """Terms of the plan applied to a tensor product of states, each factor
    given as its (labeling, coefficient) pairs: the multilinear extension
    of plan.product."""
    terms = {}
    for combo in itertools.product(*factors):
        coeff, labs = 1, []
        for lab, c in combo:
            coeff *= c
            labs.append(lab)
        for lab, k in plan.product(*labs):
            terms[lab] = terms.get(lab, 0) + coeff * k
    return {lab: k for lab, k in terms.items() if k}


class _Recorder:
    """Surgery on circles, recorded as steps on labels for a _SurgeryPlan.

    It keeps the circles of its current state itself: the two end nodes of
    each arc, each circle as a set of arcs, and the circle of each arc.  A
    saddle on two circles merges their sets, a saddle on one circle walks
    that circle alone to split it, and a cap drops its circle; a step
    renumbers only the circles it touches and the last circle, which moves
    into a slot a step frees.  No diagram is built or traced per step.
    """

    def __init__(self, arcs, circles, circle_of, blocks=None):
        self.arcs, self.circles, self.circle_of = arcs, circles, circle_of
        self.blocks, self.steps = blocks, []

    @classmethod
    def on(cls, diagram):
        """A recorder starting on diagram, with its names and circle order."""
        return cls(dict(diagram.arcs), [set(c) for c in diagram.circles],
                   dict(diagram.component_of))

    @classmethod
    def on_union(cls, blocks):
        """A recorder starting on the disjoint union of the diagrams of
        blocks, (block id, diagram) pairs, their circles listed in block
        order: arc (side, *rest) of block i is renamed ((i, side), *rest)
        and node u is renamed (i, u)."""
        arcs, circles, circle_of = {}, [], {}
        for i, d in blocks:
            for circ in d.circles:
                here, n = set(), len(circles)
                for side, *rest in circ:
                    a = ((i, side), *rest)
                    u, v = d.arcs[(side, *rest)]
                    arcs[a] = ((i, u), (i, v))
                    circle_of[a] = n
                    here.add(a)
                circles.append(here)
        return cls(arcs, circles, circle_of, dict(blocks))

    def node(self, block, port):
        """The node at port of the diagram of block, as this recorder names it."""
        return (block, self.blocks[block].node_of_port(port))

    def surger(self, arc1, arc2, pairing):
        """Cut arc1 and arc2 and reconnect their ends as prescribed.

        pairing is ((u1, u2), (v1, v2)) with {u1, v1} the nodes of arc1 and
        {u2, v2} those of arc2; the new arcs ("srg", arc1, arc2, 0) and
        ("srg", arc1, arc2, 1) run u1-u2 and v1-v2.
        """
        arcs = self.arcs
        if arc1 not in arcs or arc2 not in arcs or arc1 == arc2:
            raise KeyError((arc1, arc2))
        (u1, u2), (v1, v2) = pairing
        if set(arcs[arc1]) != {u1, v1} or set(arcs[arc2]) != {u2, v2}:
            raise KeyError(f"pairing does not match arc endpoints for {arc1!r}, {arc2!r}")
        made = ("srg", arc1, arc2, 0), ("srg", arc1, arc2, 1)
        of, circles = self.circle_of, self.circles
        c1, c2 = of[arc1], of[arc2]
        for a, c in ((arc1, c1), (arc2, c2)):
            del arcs[a], of[a]
            circles[c].remove(a)
        arcs[made[0]], arcs[made[1]] = (u1, u2), (v1, v2)
        for a in made:
            of[a] = c1
            circles[c1].add(a)
        self._saddle(c1, c2, *made)

    def reglue(self, node1, node2, at1, at2):
        """A saddle at two nodes: at1 holds the two arcs that meet at node1
        and at2 those at node2; afterwards the first arcs of at1 and at2
        meet at one new node and the second arcs at another."""
        arcs = self.arcs
        (a1, b1), (a2, b2) = at1, at2
        if node1 == node2 or a1 == b1 or a2 == b2 or not all(
                node in arcs[a] for node, ends in ((node1, at1), (node2, at2)) for a in ends):
            raise KeyError(f"arcs {at1!r}, {at2!r} do not meet at nodes {node1!r}, {node2!r}")
        for arc, old, k in ((a1, node1, 0), (b1, node1, 1), (a2, node2, 0), (b2, node2, 1)):
            u, v = arcs[arc]
            new = ("rg", node1, node2, k)
            arcs[arc] = (new, v) if u == old else (u, new)
        self._saddle(self.circle_of[a1], self.circle_of[a2], a1, b1)

    def _saddle(self, c1, c2, first, second):
        """Record a saddle on circles c1 and c2 whose arcs are already
        reconnected, first and second lying on different new circles when
        it splits c1 == c2."""
        circles, of = self.circles, self.circle_of
        n = len(circles)
        if c1 != c2:
            t0, drop = min(c1, c2), max(c1, c2)
            for a in circles[drop]:
                of[a] = t0
            circles[t0] |= circles[drop]
            carry = self._vacate(drop)
            carry[t0] = None
            self.steps.append((tuple(carry), c1, c2, t0, t0))
            return
        arcs = self.arcs
        at_node = {}
        for a in circles[c1]:
            for u in arcs[a]:
                at_node.setdefault(u, []).append(a)
        walked, prev, node = {first}, first, arcs[first][1]
        while True:
            x, y = at_node[node]
            a = y if x == prev else x
            if a == first:
                break
            walked.add(a)
            u, v = arcs[a]
            prev, node = a, (v if u == node else u)
        if second in walked:
            raise GradingError("a saddle on one circle must split it in two")
        circles[c1] -= walked
        circles.append(walked)
        for a in walked:
            of[a] = n
        carry = list(range(n + 1))
        carry[c1] = carry[n] = None
        self.steps.append((tuple(carry), c1, c1, n, c1))

    def _vacate(self, c):
        """Free circle slot c by moving the last circle into it; the carry,
        as a list, of the circles left."""
        circles, of = self.circles, self.circle_of
        last = circles.pop()
        carry = list(range(len(circles)))
        if c < len(circles):
            circles[c] = last
            for a in last:
                of[a] = c
            carry[c] = len(circles)
        return carry

    def cap(self, arc):
        """Cap off the circle through arc with the counit."""
        c = self.circle_of[arc]
        for a in self.circles[c]:
            del self.arcs[a], self.circle_of[a]
        self.steps.append((tuple(self._vacate(c)), c))

    def plan(self, target, arc_map):
        """The plan from the start circles to the circles of target, which
        arc_map names through the arcs of the current state."""
        circle_map = {}
        for a_src, a_tgt in arc_map.items():
            j = target.component_of[a_tgt]
            if circle_map.setdefault(self.circle_of[a_src], j) != j:
                raise GradingError("arc map does not descend to circles")
        if (len(circle_map) != len(self.circles) or len(self.circles) != len(target)
                or len(set(circle_map.values())) != len(target)):
            raise GradingError("arc map does not cover circles bijectively")
        perm = [None] * len(target)
        for i, j in circle_map.items():
            perm[j] = i
        return _SurgeryPlan(tuple(self.steps), tuple(perm))


def pair(a, b, c, sv1, sv2):
    """Compose sv1 in Hom(a, b) with sv2 in Hom(b, c).

    The bilinear extension of the plan of _composition_plan.  The result
    lives on the double of a and c, at its own hom offset.
    """
    first, second, canon, off, plan = _composition_plan(a, b, c)
    _check_on(sv1, first, "first state")
    _check_on(sv2, second, "second state")
    return StateVector._trusted(canon, off,
                                _replayed(plan, (sv1.terms.items(), sv2.terms.items())))


@memo.cache
def _composition_plan(a, b, c):
    """Compile composition through b once, on circles.

    On the union of the doubles of (a, b) and (b, c): one saddle per chord
    of b, then each free circle of b is merged across the two copies and
    capped off.  Returns the doubles of (a, b) and (b, c) with their hom
    offsets, as hom_double gives them, the double of (a, c), its hom offset
    and the plan, which takes a labeling of each of the two input doubles.
    """
    first, second = hom_double(a, b), hom_double(b, c)
    canon, off = hom_double(a, c)
    rec = _Recorder.on_union(((1, first[0]), (2, second[0])))
    for k, (p, q) in enumerate(b.chords):
        n1p, n1q, n2p, n2q = (rec.node(block, (side,) + b.port_of_point(x))
                              for block, side in ((1, "y"), (2, "x")) for x in (p, q))
        rec.surger(((1, "y"), k), ((2, "x"), k), ((n1p, n2p), (n1q, n2q)))
    for k in range(b.circles):
        arc1, arc2 = ((1, "y"), "o", k), ((2, "x"), "o", k)
        l1, l2 = rec.arcs[arc1][0], rec.arcs[arc2][0]
        rec.surger(arc1, arc2, ((l1, l2), (l1, l2)))
        rec.cap(("srg", arc1, arc2, 0))
    arc_map = {**_carried_arcs((1, "x"), a, range(a.points), "x", a),
               **_carried_arcs((2, "y"), c, range(c.points), "y", c)}
    return first, second, canon, off, rec.plan(canon, arc_map)


def _chord_index(t, p):
    """Index into t.chords of the chord through point p."""
    return t.chord_at[p]


def _carried_arcs(src, t, image, side, target, circles=0):
    """Arc map entries carrying instance src of tangle t onto one side of a
    double of target, along image, a point map of planar (a move, a
    juxtaposition or a stack) from t's points to target's, None at points
    off target's boundary.  Each chord of t with an end on target's
    boundary goes to target's chord there; t's carried circle k goes to
    target's circle circles + k."""
    arcs = {}
    for k, (p, q) in enumerate(t.chords):
        g = image[q] if image[p] is None else image[p]
        if g is not None:
            arcs[(src, k)] = (side, _chord_index(target, g))
    for k in range(t.circles):
        arcs[(src, "o", k)] = (side, "o", circles + k)
    return arcs


def _glued(lower, upper):
    """The (lower point, upper point) pairs a stack glues, in interface
    order, from the two point maps of planar.stacking_points."""
    return tuple(zip((p for p, g in enumerate(lower) if g is None),
                     (p for p, g in enumerate(upper) if g is None)))


@memo.cache
def _relabeling_plan(a, b, kind):
    """Compile a relabeling of Hom(a, b) once: one move of planar.MOVES on
    both factors (a mirror or a bend), or reading it as Hom(b, a) (kind
    "t").  Returns the double it ends on and the step-free plan."""
    if kind == "t":
        image, ends, sides = range(a.points), {"x": b, "y": a}, "yx"
    else:
        image = tuple(map(MOVES[kind](a.bottom, a.top)[2], range(a.points)))
        ends, sides = {"x": moved(a, kind), "y": moved(b, kind)}, "xy"
    arc_map = {}
    for src, t, side in zip("xy", (a, b), sides):
        arc_map.update(_carried_arcs(src, t, image, side, ends[side]))
    canon, _ = hom_double(ends["x"], ends["y"])
    return canon, _Recorder.on(hom_double(a, b)[0]).plan(canon, arc_map)


def _relabeled(state, a, b, kind):
    """A state on the double of (a, b), at its hom offset, carried along
    _relabeling_plan: kind names a move of planar.MOVES, or "t"."""
    _check_on(state, hom_double(a, b), "state")
    canon, plan = _relabeling_plan(a, b, kind)
    return StateVector._trusted(canon, state.offset, _replayed(plan, (state.terms.items(),)))


def reflected_x(state, a, b):
    """Left-right mirror on both factors of a hom element."""
    return _relabeled(state, a, b, "reflect_x")


def reflected_y(state, a, b):
    """Top-bottom mirror on both factors of a hom element."""
    return _relabeled(state, a, b, "reflect_y")


def transposed(state, a, b):
    """The same underlying labeling read as a morphism from b to a."""
    return _relabeled(state, a, b, "t")


def whisker(state, a, b, e, above=True):
    """Horizontal composition with the identity of e.

    Sends a hom element from a to b to one from e*a to e*b (gluing e onto
    the top edge) or from a*e to b*e (bottom edge).  One saddle per glued
    boundary point, as compiled by _whisker_plan.
    """
    _check_on(state, hom_double(a, b), "state")
    if above:
        if e.bottom != a.top:
            raise InvalidBoundary("whisker tangle does not fit the top edge")
    elif e.top != a.bottom:
        raise InvalidBoundary("whisker tangle does not fit the bottom edge")
    canon, off, plan = _whisker_plan(a, b, e, above)
    factors = (state.terms.items(), identity_state(e).terms.items())
    return StateVector._trusted(canon, off, _replayed(plan, factors))


@memo.cache
def _whisker_plan(a, b, e, above):
    """Compile whiskering Hom(a, b) by the identity of e once, on circles.

    On the union of the doubles of (a, b) and (e, e), each saddle re-pairs
    the ports {p1-q1, p2-q2} of one glued boundary point into {p1-p2,
    q1-q2}.  Returns the double of the glued tangles, its hom offset and
    the plan, which takes a labeling of each of the two doubles.
    """
    if above:
        fa, fb = compose(e, a), compose(e, b)
        lower, upper = stacking_points(e, a)
    else:
        fa, fb = compose(a, e), compose(b, e)
        lower, upper = stacking_points(a, e)
    rec = _Recorder.on_union((("m", hom_double(a, b)[0]), ("e", hom_double(e, e)[0])))
    # the (a, b) factor is the lower one above, the upper one below
    for pl, pu in _glued(lower, upper):
        pm, pe = (pl, pu) if above else (pu, pl)
        ca, cb, ce = _chord_index(a, pm), _chord_index(b, pm), _chord_index(e, pe)
        rec.reglue(rec.node("m", ("x",) + a.port_of_point(pm)),
                   rec.node("e", ("x",) + e.port_of_point(pe)),
                   ((("m", "x"), ca), (("m", "y"), cb)), ((("e", "x"), ce), (("e", "y"), ce)))
    canon, off = hom_double(fa, fb)
    end = rec.circle_of
    final_map = {}
    for side, f, mid in (("x", fa, a), ("y", fb, b)):
        m_inst, e_inst = (("m", side), mid), (("e", side), e)
        (lo, lo_t), (up, up_t) = (m_inst, e_inst) if above else (e_inst, m_inst)
        final_map.update(_carried_arcs(lo, lo_t, lower, side, f))
        final_map.update(_carried_arcs(up, up_t, upper, side, f, lo_t.circles))
        # then the circles closed at the interface, by smallest interface point
        seen = {end[arc] for arc in final_map}
        k = lo_t.circles + up_t.circles
        for p, _q in _glued(lower, upper):
            arc = (lo, _chord_index(lo_t, p))
            if end[arc] not in seen:
                seen.add(end[arc])
                final_map[arc] = (side, "o", k)
                k += 1
    return canon, off, rec.plan(canon, final_map)


def juxtaposed(factors):
    """Side-by-side union of hom elements.

    factors is a sequence of (a_i, b_i, state_i); the result is a hom
    element from juxtapose(*a) to juxtapose(*b).  No saddles are involved:
    each circle of the result carries the label of one factor's circle, as
    compiled by _juxtaposition_plan.
    """
    factors = tuple(factors)
    doubles, canon, off, plan = _juxtaposition_plan(tuple((a, b) for a, b, _sv in factors))
    for i, (double, (_a, _b, sv)) in enumerate(zip(doubles, factors)):
        _check_on(sv, double, f"factor {i}")
    return StateVector._trusted(canon, off, _replayed(plan, [sv.terms.items()
                                                             for _a, _b, sv in factors]))


@memo.cache
def _juxtaposition_plan(shapes):
    """The doubles of the (a_i, b_i) in shapes with their hom offsets, as
    hom_double gives them, the double of the juxtaposed pairs, its hom
    offset, and the step-free plan onto it, which takes a labeling of each
    factor's double."""
    doubles = tuple(hom_double(a, b) for a, b in shapes)
    xs, ys = tuple(a for a, _b in shapes), tuple(b for _a, b in shapes)
    ja, jb = juxtapose(*xs), juxtapose(*ys)
    canon, off = hom_double(ja, jb)
    # a and b of a factor share their boundary, so one map places both
    images = juxtaposition_points(xs)
    arc_map = {}
    for side, factors, jt in (("x", xs, ja), ("y", ys, jb)):
        circles = 0
        for i, (t, image) in enumerate(zip(factors, images)):
            arc_map.update(_carried_arcs((i, side), t, image, side, jt, circles))
            circles += t.circles
    rec = _Recorder.on_union([(i, d) for i, (d, _off) in enumerate(doubles)])
    return doubles, canon, off, rec.plan(canon, arc_map)
