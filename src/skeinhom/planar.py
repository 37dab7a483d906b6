"""Crossingless planar tangles in a rectangle, and closed diagrams.

Boundary points of an (m, n)-tangle are indexed 0..m-1 along the bottom edge
left to right, then m..m+n-1 along the top edge left to right.  Chords are
noncrossing with respect to the boundary circle of the rectangle, which is
traversed bottom left-to-right and then top right-to-left.

A ClosedDiagram is a finite collection of tangle instances whose boundary
ports are completely glued in pairs.  Its circles are traced once at
construction time and listed in a deterministic order, so that everything
downstream (labelings, matrices, CLI output) is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

from . import memo
from .errors import InvalidBoundary, OpenBoundary, SpecError


def _sort_key(x):
    # total order on heterogeneous tuple ids
    return repr(x)


# the tangles PlanarTangle._trusted has built, by their fields; weak, so a
# derived tangle nothing else holds (a cache key, a complex) is freed
_DERIVED = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class PlanarTangle:
    """A crossingless (bottom, top)-tangle plus a count of free circles."""

    bottom: int
    top: int
    partner: tuple
    circles: int = 0

    def __post_init__(self):
        if not (type(self.bottom) is int and type(self.top) is int and type(self.circles) is int
                and type(self.partner) is tuple and all(type(q) is int for q in self.partner)):
            raise SpecError(f"a tangle needs integer bottom, top and circles and a tuple of "
                            f"integer partners, got {self!r}")
        if self.bottom < 0 or self.top < 0:
            raise InvalidBoundary(f"negative edge size: bottom {self.bottom}, top {self.top}")
        k = self.bottom + self.top
        if len(self.partner) != k:
            raise InvalidBoundary(f"partner array has length {len(self.partner)}, expected {k}")
        for p, q in enumerate(self.partner):
            if not (0 <= q < k) or q == p or self.partner[q] != p:
                raise InvalidBoundary(f"partner array {self.partner} is not a fixed-point-free involution")
        if self.circles < 0:
            raise InvalidBoundary("negative circle count")
        if not self._noncrossing():
            raise InvalidBoundary(f"chords of {self.partner} cross")
        # every cache keyed on tangles hashes them; the value is the field
        # hash the dataclass would compute, taken once
        object.__setattr__(self, "_hash", hash((self.bottom, self.top, self.partner, self.circles)))

    @classmethod
    def _trusted(cls, bottom, top, partner, circles):
        """A tangle derived from tangles already checked (a mirror, a stack
        or a juxtaposition), whose partner array is a noncrossing
        fixed-point-free involution by construction: no check is rerun.

        Derived tangles are interned, so equal ones alive at the same time
        are the same object and the caches keyed on them hit by identity.
        """
        key = (bottom, top, partner, circles)
        t = _DERIVED.get(key)
        if t is None:
            t = object.__new__(cls)
            t.__dict__.update(bottom=bottom, top=top, partner=partner, circles=circles,
                              _hash=hash(key))
            _DERIVED[key] = t
        return t

    def __hash__(self):
        return self._hash

    def _cyclic_position(self, p):
        if p < self.bottom:
            return p
        return self.bottom + (self.bottom + self.top - 1 - p)

    def _noncrossing(self):
        pos = [self._cyclic_position(p) for p in range(self.points)]
        for (a, b), (c, d) in itertools.combinations(self.chords, 2):
            a, b = sorted((pos[a], pos[b]))
            c, d = sorted((pos[c], pos[d]))
            if (a < c < b < d) or (c < a < d < b):
                return False
        return True

    # chords and chord_at are derived from partner once per tangle and kept
    # in its __dict__, beside the four fields equality and hashing read

    @cached_property
    def chords(self):
        """The chords as (p, q) with p < q, in order of p."""
        return tuple((p, q) for p, q in enumerate(self.partner) if p < q)

    @cached_property
    def chord_at(self):
        """Point -> index into chords of the chord through it."""
        at = [0] * len(self.partner)
        for k, (p, q) in enumerate(self.chords):
            at[p] = at[q] = k
        return tuple(at)

    @property
    def points(self):
        return self.bottom + self.top

    def port_of_point(self, p):
        """Point index -> ("b"|"t", position) port name."""
        assert 0 <= p < self.points
        return ("b", p) if p < self.bottom else ("t", p - self.bottom)

    def is_identity(self):
        return (
            self.circles == 0
            and self.bottom == self.top
            and all(self.partner[i] == self.bottom + i for i in range(self.bottom))
        )

    def with_circles(self, circles):
        """The same chords with circles free circles; the chords were checked
        already, so only the count is."""
        if circles < 0:
            raise InvalidBoundary("negative circle count")
        return PlanarTangle._trusted(self.bottom, self.top, self.partner, circles)

    def strip_circles(self):
        return self.with_circles(0)

    def reflect_x(self):
        """Left-right mirror, built once and remembered on both tangles."""
        mirror = self.__dict__.get("_mirror_x")
        if mirror is None:
            mirror = moved(self, "reflect_x")
            object.__setattr__(self, "_mirror_x", mirror)
            object.__setattr__(mirror, "_mirror_x", self)
        return mirror

    def reflect_y(self):
        """Top-bottom mirror; swaps the roles of the two edges."""
        return moved(self, "reflect_y")


# The moves of an (m, n)-tangle along its boundary circle, by name: each
# gives the (bottom, top) it ends on and the image of boundary point p.
# The mirrors reverse each edge (reflect_x) or swap the two (reflect_y);
# bend_down sweeps the top edge clockwise down to the right of the bottom
# edge, bend_up sweeps the bottom edge counterclockwise up to the left of
# the top edge.
MOVES = {
    "reflect_x": lambda m, n: (m, n, lambda p: m - 1 - p if p < m else 2 * m + n - 1 - p),
    "reflect_y": lambda m, n: (n, m, lambda p: n + p if p < m else p - m),
    "bend_down": lambda m, n: (m + n, 0, lambda p: p if p < m else 2 * m + n - 1 - p),
    "bend_up": lambda m, n: (0, m + n, lambda p: m - 1 - p if p < m else p),
}


def moved(t, move):
    """t carried along the named move of MOVES.  The image of a checked
    tangle is a noncrossing fixed-point-free involution, so it is built
    through _trusted and interned."""
    bottom, top, image = MOVES[move](t.bottom, t.top)
    partner = [0] * len(t.partner)
    for p, q in enumerate(t.partner):
        partner[image(p)] = image(q)
    return PlanarTangle._trusted(bottom, top, tuple(partner), t.circles)


def identity_tangle(n):
    return PlanarTangle(n, n, tuple(list(range(n, 2 * n)) + list(range(n))))


def cup_over_cap(m=2):
    """The through-degree-zero (m, m)-tangle: nested caps below, nested cups above."""
    if m % 2:
        raise InvalidBoundary("cup_over_cap needs an even strand count")
    partner = [0] * (2 * m)
    for i in range(m // 2):
        partner[i], partner[m - 1 - i] = m - 1 - i, i
        partner[m + i], partner[2 * m - 1 - i] = 2 * m - 1 - i, m + i
    return PlanarTangle(m, m, tuple(partner))


def compose(upper, lower):
    """Stack upper onto lower, gluing lower's top edge to upper's bottom edge.

    Closed components created at the interface are added to the carried
    circle count.  The walk runs over one integer index for the points of
    both tangles: lower's point p is p, upper's point p is kb + mid + p, so
    that lower's top point q is glued to upper's bottom point q + mid.
    """
    _check_glue(upper, lower)
    kb, mid, nt = lower.bottom, lower.top, upper.top
    top = kb + 2 * mid  # upper's top point i is top + i
    chord = [*lower.partner, *[kb + mid + q for q in upper.partner]]
    seen = bytearray(top)  # interface points walked
    partner = [-1] * (kb + nt)
    for i in range(kb + nt):
        if partner[i] >= 0:
            continue
        q = chord[i if i < kb else i + 2 * mid]
        while kb <= q < top:
            seen[q] = 1
            q = q + mid if q < kb + mid else q - mid
            seen[q] = 1
            q = chord[q]
        j = q if q < kb else q - 2 * mid
        partner[i], partner[j] = j, i

    circles = lower.circles + upper.circles
    for q in range(kb, kb + mid):
        if not seen[q]:
            circles += 1
            while not seen[q]:
                r = chord[q + mid] - mid
                seen[q] = seen[r] = 1
                q = chord[r]
    return PlanarTangle._trusted(kb, nt, tuple(partner), circles)


def _check_glue(upper, lower):
    if lower.top != upper.bottom:
        raise InvalidBoundary(
            f"cannot glue a {lower.top}-point top edge to a {upper.bottom}-point bottom edge"
        )


def stacking_points(upper, lower):
    """Where the factors' boundary points land in compose(upper, lower): a
    tuple for lower and one for upper, giving the composite's point for
    each factor point on its boundary (lower's bottom point p stays p,
    upper's top point i follows lower's bottom edge) and None for each
    point glued at the interface."""
    _check_glue(upper, lower)
    kb = lower.bottom
    return ((*range(kb), *[None] * lower.top),
            (*[None] * upper.bottom, *range(kb, kb + upper.top)))


def juxtaposition_points(tangles):
    """Where each factor's boundary points land in juxtapose(*tangles): one
    tuple per factor, its point p going to point images[i][p]."""
    b, t = 0, sum(f.bottom for f in tangles)
    images = []
    for f in tangles:
        images.append((*range(b, b + f.bottom), *range(t, t + f.top)))
        b, t = b + f.bottom, t + f.top
    return images


def juxtapose(*tangles):
    """Place tangles side by side, left to right."""
    images = juxtaposition_points(tangles)
    partner = [0] * sum(map(len, images))
    for f, image in zip(tangles, images):
        for p, q in zip(image, f.partner):
            partner[p] = image[q]
    bottom = sum(f.bottom for f in tangles)
    return PlanarTangle._trusted(bottom, len(partner) - bottom, tuple(partner),
                                 sum(f.circles for f in tangles))


def bend_down(t):
    """Flatten an (m, n)-tangle to an (m+n, 0)-cap tangle by sweeping the top
    edge clockwise down to the right of the bottom edge."""
    return moved(t, "bend_down")


def bend_up(t):
    """Flatten an (m, n)-tangle to a (0, m+n)-cup tangle, sweeping the bottom
    edge counterclockwise up to the left of the top edge."""
    return moved(t, "bend_up")


@memo.cache
def enumerate_matchings(m, n):
    """All minimal (m, n)-tangles (no free circles), sorted by partner array.

    Empty when m + n is odd; otherwise there are Catalan((m+n)/2) of them.
    A negative m or n is refused as PlanarTangle refuses it.
    """
    if m < 0 or n < 0:
        raise InvalidBoundary(f"negative edge size: bottom {m}, top {n}")
    k = m + n
    if k % 2:
        return ()
    order = list(range(m)) + list(range(m + n - 1, m - 1, -1))  # boundary circle

    def rec(points):
        if not points:
            yield []
            return
        first = points[0]
        for j in range(1, len(points), 2):
            inside, outside = points[1:j], points[j + 1:]
            for mi in rec(inside):
                for mo in rec(outside):
                    yield [(first, points[j])] + mi + mo

    tangles = []
    for chords in rec(order):
        partner = [0] * k
        for a, b in chords:
            partner[a], partner[b] = b, a
        tangles.append(PlanarTangle(m, n, tuple(partner)))
    return tuple(sorted(tangles, key=lambda t: t.partner))


class ClosedDiagram:
    """A fully glued collection of tangles; a disjoint union of circles.

    Arcs are identified by (instance, chord_index) for tangle chords and by
    (instance, "o", k) for carried free circles.  Nodes are glued port pairs,
    a port being (instance, "b"|"t", position).
    """

    def __init__(self, arcs, port_node=None):
        self.arcs = dict(arcs)
        self.port_node = dict(port_node or {})
        degree = {}
        for a, (u, v) in self.arcs.items():
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        bad = [x for x, d in degree.items() if d != 2]
        if bad:
            raise OpenBoundary(f"nodes without exactly two arc ends: {sorted(map(repr, bad))[:4]}")
        self.circles = self._trace()
        self.component_of = {}
        for i, circ in enumerate(self.circles):
            for a in circ:
                self.component_of[a] = i

    def __len__(self):
        return len(self.circles)

    def _trace(self):
        at_node = {}
        for a, (u, v) in self.arcs.items():
            at_node.setdefault(u, []).append(a)
            at_node.setdefault(v, []).append(a)
        key = {a: _sort_key(a) for a in self.arcs}
        unseen = set(self.arcs)
        circles = []
        for start in sorted(self.arcs, key=key.__getitem__):
            if start not in unseen:
                continue
            circ = [start]
            unseen.discard(start)
            u, v = self.arcs[start]
            node = v
            while True:
                nxt = [a for a in at_node[node] if a in unseen]
                if not nxt:
                    break
                step = min(nxt, key=key.__getitem__)
                circ.append(step)
                unseen.discard(step)
                a, b = self.arcs[step]
                node = b if a == node else a
            circles.append(tuple(circ))
        return tuple(sorted(circles, key=lambda c: key[c[0]]))

    @classmethod
    def from_instances(cls, tangles, glue):
        """Build from tangle instances and a complete pairing of their ports.

        Ports are (instance, "b"|"t", position); glue must be a symmetric
        involution covering every port exactly once.
        """
        pairing = dict(glue)
        for p, q in pairing.items():
            if pairing.get(q) != p:
                raise OpenBoundary(f"gluing is not symmetric at {p!r}")
        ports = set()
        for inst, t in tangles.items():
            for i in range(t.bottom):
                ports.add((inst, "b", i))
            for j in range(t.top):
                ports.add((inst, "t", j))
        if set(pairing) != ports:
            missing = ports ^ set(pairing)
            raise OpenBoundary(f"gluing does not cover ports exactly: {sorted(map(repr, missing))[:4]}")

        port_node = {}
        for p, q in pairing.items():
            port_node[p] = tuple(sorted((p, q), key=_sort_key))

        arcs = {}
        for inst, t in tangles.items():
            for k, (p, q) in enumerate(t.chords):
                pp = (inst,) + t.port_of_point(p)
                qq = (inst,) + t.port_of_point(q)
                arcs[(inst, k)] = (port_node[pp], port_node[qq])
            for k in range(t.circles):
                loop = ("loop", inst, k)
                arcs[(inst, "o", k)] = (loop, loop)
        return cls(arcs, port_node)

    @classmethod
    def double(cls, x, y):
        """Glue two (m, n)-tangles along their whole boundary, point to point."""
        if (x.bottom, x.top) != (y.bottom, y.top):
            raise InvalidBoundary("tangles in a double must share boundary data")
        glue = {}
        for side, count in (("b", x.bottom), ("t", x.top)):
            for p in range(count):
                glue[("x", side, p)] = ("y", side, p)
                glue[("y", side, p)] = ("x", side, p)
        return cls.from_instances({"x": x, "y": y}, glue)

    def node_of_port(self, port):
        return self.port_node[port]
