"""Hom complexes of flat tangles glued over seamed surfaces.

A surface is described combinatorially: named boundary arcs, named cutting
seams, and disk regions whose boundary cycles interleave segments of both
kinds.  A tangle assigns to every region a cap matching, partitioned by that
region's segments.  The hom complex between two tangles rides on a twisted
complex: each region contributes a fixed closure pairing the two caps, and
bar words at the seams vary the middle layer through plug tangles.  The bar
construction (words, faces with Koszul signs over the seam order, and the
truncation certificate) is barproj.bar_complex; this module supplies the
middle-layer tangle of a word tuple and how an end letter is absorbed into
its seam slot, from the word ends and the new end object, which
bar_complex calls once per end face of a build; the face itself is
built once per process (_slot_face), and so are a surface's slot table,
rings and region closures (SurfaceLayout, by _layout).  Evaluating states
against the closure produces an integer complex with a certified
truncation.

Composition stacks region states through the shared caps and shuffles the
seam words, units are the all-ones states on identity words, and coarsening
deletes one seam by surgering its two plugs into each other.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from . import memo
from .barproj import bar_complex, signed_shuffles, small_ring, word_ends
from .errors import GradingError, InvalidBoundary, SpecError, TruncationError, expect
from .homalg import ChainMap
from .planar import (MOVES, PlanarTangle, identity_tangle, juxtapose, juxtaposition_points,
                     stacking_points)
from .planar import compose as stack
from .tqft import (ONE, _carried_arcs, _chord_index, _glued, _Recorder, hom_double,
                   identity_state, juxtaposed, kh_basis, whisker)


@dataclass(frozen=True)
class Segment:
    """One piece of a region's boundary cycle."""

    kind: str
    name: str
    side: int = 1


def arc(name):
    return Segment("arc", name)


def _frozen(value):
    """value with every list and tuple in it, nested ones included, a tuple."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _freeze(obj, *fields):
    """Store the fields of a frozen dataclass built in code with lists as
    tuples, so that it cannot change after its checks and it hashes."""
    for name in fields:
        object.__setattr__(obj, name, _frozen(getattr(obj, name)))


def seam_side(name, side):
    return Segment("seam", name, side)


@dataclass(frozen=True)
class SurfaceSpec:
    """Boundary arcs, cutting seams, and disk regions of a marked surface.

    arcs is a tuple of (name, sign) pairs, seams a tuple of names, and each
    region a tuple of Segments read around its boundary.  The first listed
    segment of a region starts its linear order; other starts give the same
    homology.  Lists given for any of these are stored as tuples.
    """

    arcs: tuple
    seams: tuple
    regions: tuple

    @classmethod
    def from_data(cls, data):
        """The spec of {"arcs": [...], "seams": [...], "regions": [[segment, ...], ...]};
        SpecError names the JSON path of anything malformed."""
        expect(data, "an object", "spec")
        arcs = []
        for ai, a in enumerate(expect(data.get("arcs", ()), "a list", "spec: arcs")):
            if isinstance(expect(a, "a name or an object with an id", f"arc {ai}"), str):
                arcs.append((a, 1))
            else:
                arcs.append((expect(a.get("id"), "a string", f"arc {ai}: id"),
                             expect(a.get("sign", 1), "+1 or -1", f"arc {ai}: sign")))
        seams = expect(data.get("seams", ()), "a list", "spec: seams")
        for gi, name in enumerate(seams):
            expect(name, "a string", f"seam {gi}")
        regions = []
        for ri, region in enumerate(expect(data.get("regions", ()), "a list", "spec: regions")):
            segs = []
            for si, seg in enumerate(expect(region, "a list", f"region {ri}")):
                loc = f"region {ri}, segment {si}"
                expect(seg, "an object", loc)
                if "arc" in seg:
                    segs.append(Segment("arc", expect(seg["arc"], "a string", f"{loc}: arc")))
                elif "seam" in seg:
                    name = expect(seg["seam"], "a string", f"{loc}: seam")
                    side = expect(seg.get("side"), "'+' or '-'", f"{loc}: seam side")
                    segs.append(Segment("seam", name, 1 if side in ("+", 1) else -1))
                else:
                    raise SpecError(f"{loc}: segment needs an 'arc' or 'seam' key")
            regions.append(tuple(segs))
        return cls(tuple(arcs), tuple(seams), tuple(regions))

    def __post_init__(self):
        """Refuse a malformed spec: SpecError names the first fault found."""
        for ai, a in enumerate(expect(self.arcs, "a tuple", "arcs")):
            expect(a, "a (string, +1 or -1) pair", f"arc {ai}")
        for gi, name in enumerate(expect(self.seams, "a tuple", "seams")):
            expect(name, "a string", f"seam {gi}")
        for ri, region in enumerate(expect(self.regions, "a tuple", "regions")):
            expect(region, "a tuple", f"region {ri}")
        _freeze(self, "arcs", "seams", "regions")
        names = [n for n, _ in self.arcs]
        if len(set(names)) != len(names):
            raise SpecError("duplicate arc ids")
        if len(set(self.seams)) != len(self.seams):
            raise SpecError("duplicate seam ids")
        seen_arcs = {}
        sides = {n: {} for n in self.seams}
        for ri, region in enumerate(self.regions):
            for si, seg in enumerate(region):
                loc = f"region {ri}, segment {si}"
                if not isinstance(seg, Segment):
                    raise SpecError(f"{loc} must be a Segment, got {seg!r}")
                if seg.kind == "arc":
                    if seg.name not in names:
                        raise SpecError(f"{loc}: unknown arc {seg.name!r}")
                    if seg.name in seen_arcs:
                        raise SpecError(f"{loc}: arc {seg.name!r} already used at {seen_arcs[seg.name]}")
                    seen_arcs[seg.name] = loc
                elif seg.kind == "seam":
                    if seg.name not in sides:
                        raise SpecError(f"{loc}: unknown seam {seg.name!r}")
                    if seg.side not in (1, -1):
                        raise SpecError(f"{loc}: seam side must be +1 or -1")
                    if seg.side in sides[seg.name]:
                        raise SpecError(
                            f"{loc}: side {'+' if seg.side > 0 else '-'} of seam "
                            f"{seg.name!r} appears twice"
                        )
                    sides[seg.name][seg.side] = ri
                else:
                    raise SpecError(f"{loc}: unknown segment kind {seg.kind!r}")
        for n, d in sides.items():
            for s, label in ((1, "+"), (-1, "-")):
                if s not in d:
                    raise SpecError(f"seam {n!r} is missing its {label} side")
        unused = sorted(set(names) - set(seen_arcs))
        if unused:
            raise SpecError(f"arcs never referenced: {unused}")
        if self.regions:
            parent = list(range(len(self.regions)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for d in sides.values():
                parent[find(d[1])] = find(d[-1])
            roots = {find(r) for r in range(len(self.regions))}
            if len(roots) > 1:
                raise SpecError("regions do not glue into a connected surface")

    def seam_sides(self, name):
        """(region, segment) of the minus and plus side of a seam."""
        out = {}
        for ri, region in enumerate(self.regions):
            for si, seg in enumerate(region):
                if seg.kind == "seam" and seg.name == name:
                    out[seg.side] = (ri, si)
        return out[-1], out[1]


@dataclass(frozen=True)
class SurfaceTangle:
    """A crossingless tangle in a seamed surface, one cap matching per region.

    caps[i] is a (k, 0)-tangle on region i's boundary points; counts[i]
    splits those k points among the region's segments, in order.  Lists
    given for either are stored as tuples.
    """

    caps: tuple
    counts: tuple

    def __post_init__(self):
        _freeze(self, "caps", "counts")

    @classmethod
    def from_data(cls, data):
        """The tangle of {"regions": [{"counts": [...], "chords": [[p, q], ...]}, ...]};
        SpecError names the region and field of anything malformed."""
        expect(data, "an object", "tangle")
        caps, counts = [], []
        for ri, reg in enumerate(expect(data.get("regions", ()), "a list", "tangle: regions")):
            expect(reg, "an object with counts and chords", f"region {ri}")
            cnt = expect(reg.get("counts", ()), "a list of non-negative integers",
                         f"region {ri}: counts")
            chords = expect(reg.get("chords", ()), "a list", f"region {ri}: chords")
            for ci, chord in enumerate(chords):
                expect(chord, "a pair of integer points", f"region {ri}: chord {ci}")
            cnt = tuple(cnt)
            k = sum(cnt)
            partner = [None] * k
            for p, q in chords:
                if not (0 <= p < k and 0 <= q < k) or p == q:
                    raise SpecError(f"region {ri}: chord ({p}, {q}) is out of range")
                if partner[p] is not None or partner[q] is not None:
                    raise SpecError(f"region {ri}: point reused by chord ({p}, {q})")
                partner[p], partner[q] = q, p
            if any(v is None for v in partner):
                raise SpecError(f"region {ri}: chords do not cover all {k} points")
            caps.append(PlanarTangle(k, 0, tuple(partner)))
            counts.append(cnt)
        return cls(tuple(caps), tuple(counts))


@memo.cache
def _decoded(cls, text):
    """cls.from_data of a JSON text, for cls SurfaceSpec or SurfaceTangle:
    decoded once per process per text.  A text that raises, as invalid
    JSON or as a malformed spec or tangle, is not kept."""
    return cls.from_data(json.loads(text))


def validate_tangle(spec, tangle, who="tangle"):
    if len(tangle.caps) != len(spec.regions):
        raise SpecError(
            f"{who}: {len(tangle.caps)} regions against {len(spec.regions)} in the spec"
        )
    for ri, region in enumerate(spec.regions):
        cap, cnt = tangle.caps[ri], tangle.counts[ri]
        if len(cnt) != len(region):
            raise SpecError(f"{who}: region {ri} splits {len(cnt)} segments, spec has {len(region)}")
        if cap.top != 0:
            raise SpecError(f"{who}: region {ri} cap has points on top")
        if cap.circles:
            raise SpecError(f"{who}: region {ri} cap must be minimal")
        if cap.bottom != sum(cnt):
            raise SpecError(f"{who}: region {ri} cap has {cap.bottom} points, counts give {sum(cnt)}")
    for name in spec.seams:
        (ri, si), (rj, sj) = spec.seam_sides(name)
        if tangle.counts[ri][si] != tangle.counts[rj][sj]:
            raise SpecError(
                f"{who}: seam {name!r} meets {tangle.counts[ri][si]} points on one side "
                f"and {tangle.counts[rj][sj]} on the other"
            )
    return tangle


class SurfaceLayout:
    """What a surface complex derives from its spec, tangles and arc
    inserts alone, whatever its depth and window: the slot table of the
    middle layer, the seam positions and rings, the region closures and
    their juxtaposition, and the quantum shift.  Built once per process
    per key by _layout, and shared by every build over that key, so its
    pieces are read-only: tuples and MappingProxyTypes.

    inserts is a tuple of (arc name, PlanarTangle) pairs in spec.arcs
    order, checked by the caller; SpecError refuses an insert of the
    wrong shape, and region boundary points that leave the quantum
    grading non-integral.
    """

    def __init__(self, spec, top, bottom, inserts):
        arc_sign = dict(spec.arcs)
        inserts = dict(inserts)
        self.seam_names = tuple(spec.seams)
        self.seam_pos = MappingProxyType({n: g for g, n in enumerate(self.seam_names)})
        slots, slot_pos, slot_global = [], [], {}
        seam_slots = {n: {} for n in self.seam_names}
        for ri, region in enumerate(spec.regions):
            for si, seg in enumerate(region):
                k = len(slots)
                slot_pos.append((ri, si))
                slot_global[(ri, si)] = k
                nb, nt = bottom.counts[ri][si], top.counts[ri][si]
                if seg.kind == "arc":
                    v = inserts.get(seg.name)
                    if v is None:
                        if nb != nt:
                            raise SpecError(
                                f"arc {seg.name!r}: {nt} top points against {nb} bottom "
                                "points with no insert tangle"
                            )
                        v = identity_tangle(nt)
                    elif arc_sign[seg.name] < 0:
                        v = v.reflect_x()
                    if (v.bottom, v.top) != (nb, nt):
                        raise SpecError(
                            f"arc {seg.name!r}: insert is ({v.bottom}, {v.top}), "
                            f"boundary needs ({nb}, {nt})"
                        )
                    if v.circles:
                        raise SpecError(f"arc {seg.name!r}: insert tangles must be minimal")
                    slots.append(("arc", v))
                else:
                    seam_slots[seg.name][seg.side] = k
                    slots.append(("seam", seg.name, seg.side))
        self.slots, self.slot_pos = tuple(slots), tuple(slot_pos)
        self.slot_global = MappingProxyType(slot_global)
        self.seam_slots = MappingProxyType({n: MappingProxyType(d) for n, d in seam_slots.items()})

        rings = {}
        for name in self.seam_names:
            (ri, si), _ = spec.seam_sides(name)
            rings[name] = small_ring(bottom.counts[ri][si], top.counts[ri][si])
        self.rings = MappingProxyType(rings)

        self.z_regions = tuple(stack(tc.reflect_y(), sc) for sc, tc in zip(bottom.caps, top.caps))
        self.z_jux = juxtapose(*self.z_regions)
        boundary_points = self.z_jux.points
        if boundary_points % 4:
            raise SpecError(
                f"{boundary_points} region boundary points leave the quantum "
                "grading non-integral"
            )
        self.q_base = boundary_points // 4

    def slot_tangles(self, ends):
        """The tangle in each slot of the middle layer of word tuples with
        these end objects."""
        out = []
        for slot in self.slots:
            if slot[0] == "arc":
                out.append(slot[1])
            else:
                _, name, side = slot
                first, last = ends[self.seam_pos[name]]
                out.append(first.reflect_x() if side < 0 else last)
        return tuple(out)

    @memo.cache
    def middle(self, ends):
        """The middle-layer tangle of word tuples with these end objects."""
        return juxtapose(*self.slot_tangles(ends))

    def slot_entry(self, ends, g, side, new_end, sv):
        """An end face at seam g: sv acts on the slot of that side, which
        now holds new_end (mirrored on the minus side), and identities on
        every other slot."""
        k = self.seam_slots[self.seam_names[g]][side]
        tgt = new_end.reflect_x() if side < 0 else new_end
        return _slot_face(self.slot_tangles(ends), k, tgt, sv)


@memo.cache
def _layout(spec, top, bottom, inserts):
    """The SurfaceLayout of a spec, its two tangles and its arc inserts,
    built once per process per key; a build that raises is not kept."""
    return SurfaceLayout(spec, top, bottom, inserts)


class SurfaceComplex:
    """The glued hom complex between two surface tangles, truncated at a depth.

    Chain objects in homological degree -r are indexed by tuples of bar
    words, one per seam, with lengths summing to r; each carries the
    middle-layer tangle whose seam slots hold the word's end plugs.  The
    evaluated integer complex sits in .truncated.

    With q_range = (qmin, qmax), two ints (SpecError otherwise), only the
    quantum degrees of that window are built: the word tuples whose
    objects can reach a degree at most qmax, and of those only the
    generators in the window.  The differential
    preserves the quantum degree, so homology on the window and the
    truncation certificate are those of the full build.  The integer
    complex keeps the window as its q_range, and everything that needs the
    whole complex (elements, and so the differential; units, compose,
    transfer, coarsen) asks it, so that a windowed build refuses them with
    WindowError, as it does quantum degrees off the window.

    What the spec, the two tangles and the inserts alone determine (the
    slot table, seams, rings, region closures and quantum shift) is read
    from .layout, the one SurfaceLayout per process of that key
    (_layout), after the tangles, depth, window and inserts are checked
    on every build; seam_names, rings, z_regions, z_jux and q_base are
    its pieces, shared and read-only.
    """

    def __init__(self, spec, top, bottom, depth, inserts=None, reduced=True, q_range=None):
        validate_tangle(spec, top, "top tangle")
        validate_tangle(spec, bottom, "bottom tangle")
        expect(depth, "an integer", "depth")
        if q_range is not None:
            expect(q_range, "a pair of integers", "q_range")
        if not isinstance(inserts, Mapping | None):
            raise SpecError(f"inserts must be a mapping, got {type(inserts).__name__}")
        self.spec, self.top, self.bottom = spec, top, bottom
        self.depth, self.reduced = depth, reduced
        self.inserts = dict(inserts or {})
        arc_sign = dict(spec.arcs)
        for name, v in self.inserts.items():
            if name not in arc_sign:
                raise SpecError(f"insert references unknown arc {name!r}")
            if not isinstance(v, PlanarTangle):
                raise SpecError(f"insert for arc {name!r} must be a PlanarTangle, got {v!r}")
        key = (spec, top, bottom,
               tuple((n, self.inserts[n]) for n, _s in spec.arcs if n in self.inserts))
        self.layout = layout = _layout(*key)
        self.seam_names, self.rings = layout.seam_names, layout.rings
        self.z_regions, self.z_jux, self.q_base = layout.z_regions, layout.z_jux, layout.q_base

        self.multiwords, self.index, self.twisted = bar_complex(
            tuple(self.rings[n] for n in self.seam_names), depth, -self.q_base,
            layout.middle, layout.slot_entry, reduced,
            None if q_range is None else (self.z_jux, q_range[1]))
        self.truncated = self.twisted.hom_complex(self.z_jux, q_range)
        self._positions = {
            h: {lbl: idx for idx, (lbl, _q) in enumerate(gens)}
            for h, gens in self.truncated.generators.items()
        }

    def slot_tangles(self, mw):
        return self.layout.slot_tangles(word_ends(mw))

    def m_tangle(self, mw):
        return self.layout.middle(word_ends(mw))

    def homology(self, h_range, q_range):
        return self.truncated.homology(h_range, q_range)

    def basis_elements(self, h):
        self.truncated.require_window("basis_elements")
        out = []
        for (i, lab), _q in self.truncated.generators.get(h, ()):
            out.append(SurfaceElement(self, h, {(self.multiwords[h][i], lab): 1}))
        return tuple(out)

    def arcs_are_identities(self):
        return all(slot[0] != "arc" or slot[1].is_identity() for slot in self.layout.slots)

    def _row(self, h, mw, lab):
        """The index in .truncated.generators[h] of word tuple mw with
        labeling lab; GradingError if that term is no generator there."""
        row = self._positions.get(h, {}).get((self.index.get(h, {}).get(mw), lab))
        if row is None:
            raise GradingError(f"term {(mw, lab)!r} is not a generator at degree {h}")
        return row

    def differential(self, elem):
        """Apply the integer differential to an element."""
        if elem.owner is not self:
            raise InvalidBoundary("element does not live in this complex")
        return _applied(elem, self.truncated.differentials.get(elem.h, {}), self, elem.h + 1)


@dataclass
class SurfaceElement:
    """A homogeneous chain of a surface hom complex.

    terms maps (word tuple, labeling) pairs, each a generator of the
    owner's .truncated at degree h, to integer coefficients; h is the
    homological degree, minus the total bar length of each word tuple.
    """

    owner: SurfaceComplex
    h: int
    terms: dict

    def __post_init__(self):
        self.owner.truncated.require_window("SurfaceElement")
        for mw, lab in self.terms:
            self.owner._row(self.h, mw, lab)

    def _clean(self):
        return {k: v for k, v in sorted(self.terms.items()) if v}

    def __eq__(self, other):
        if not isinstance(other, SurfaceElement):
            return NotImplemented
        return (self.owner is other.owner and self.h == other.h
                and self._clean() == other._clean())

    def __bool__(self):
        return any(self.terms.values())

    def __add__(self, other):
        if self.owner is not other.owner or self.h != other.h:
            raise InvalidBoundary("cannot add elements of different degrees or complexes")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return SurfaceElement(self.owner, self.h, {k: v for k, v in terms.items() if v})

    def scaled(self, k):
        return SurfaceElement(self.owner, self.h, {key: k * v for key, v in self.terms.items()})

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def quantum_degrees(self):
        """The degrees of the generators the element's nonzero terms hold."""
        owner, h = self.owner, self.h
        gens = owner.truncated.generators[h]
        return sorted({gens[owner._row(h, mw, lab)][1] for (mw, lab), c in self.terms.items() if c})


def identity_unit(cx):
    """The unit of an endomorphism complex: identity plugs, all-ones state."""
    cx.truncated.require_window("identity_unit")
    if cx.top != cx.bottom:
        raise InvalidBoundary("units need equal top and bottom tangles")
    if not cx.arcs_are_identities():
        raise InvalidBoundary("units need identity insert tangles on every arc")
    mw = tuple(
        ((identity_tangle(cx.rings[n].n),), ()) for n in cx.seam_names
    )
    d, _off = hom_double(cx.z_jux, cx.m_tangle(mw))
    lab = (ONE,) * len(d)
    return SurfaceElement(cx, 0, {(mw, lab): 1})


@memo.cache
def _slot_face(slot_tangles, k, tgt, sv):
    """The end face on the middle layer of slot_tangles whose slot k goes
    to tgt by sv, every other slot by its identity: built once per process
    per key, for every surface whose middle layer holds those slots."""
    return juxtaposed([(t, tgt, sv) if i == k else (t, t, identity_state(t))
                       for i, t in enumerate(slot_tangles)])


@memo.cache
def _stacking_plan(z1, m1, z2, m2, zt):
    """Compile stacking Hom(z1, m1) x Hom(z2, m2) through the shared middle
    caps once, on circles.

    On the union of the two doubles, one saddle per bottom chord of z1
    joins it to the chord of z2 through the same middle point.  The plan
    takes a labeling of each double and ends on the double of zt and the
    stacked middle layer.
    """
    m_out = stack(m1, m2)
    if m_out.circles:
        raise SpecError("stacked middle layers acquire free circles; out of scope")
    rec = _Recorder.on_union(((1, hom_double(z1, m1)[0]), (2, hom_double(z2, m2)[0])))
    z_lower, z_upper = stacking_points(z1, z2)
    twin = {u: l for l, u in _glued(z_lower, z_upper)}  # z1's bottom point -> z2's top point

    def nodes(p):
        """The nodes of z1's bottom point p and of z2's top point under it."""
        return (rec.node(1, ("x",) + z1.port_of_point(p)),
                rec.node(2, ("x",) + z2.port_of_point(twin[p])))

    for k, (p, q) in enumerate(z1.chords):
        if p in twin:
            rec.surger(((1, "x"), k), ((2, "x"), _chord_index(z2, twin[p])), (nodes(p), nodes(q)))
    canon, _off = hom_double(zt, m_out)
    m_lower, m_upper = stacking_points(m1, m2)
    arc_map = {**_carried_arcs((2, "x"), z2, z_lower, "x", zt),
               **_carried_arcs((1, "x"), z1, z_upper, "x", zt),
               **_carried_arcs((2, "y"), m2, m_lower, "y", m_out),
               **_carried_arcs((1, "y"), m1, m_upper, "y", m_out)}
    return rec.plan(canon, arc_map)


def _shuffle_compose(ring_f, ring_g, w1, w2):
    """Signed composite-ring words from interleaving two seam words.

    Letters of the first word are widened by the current plug of the second
    underneath, and vice versa on top; each widened letter is expanded in
    the standard basis of the stacked hom space.
    """
    objs1, lets1 = w1
    objs2, lets2 = w2

    def stacked_obj(i, j):
        t = stack(objs1[i], objs2[j])
        if t.circles:
            raise SpecError("composite seam plugs acquire free circles; out of scope")
        return t

    out = []
    for sign, pattern in signed_shuffles(len(lets1), len(lets2)):
        i = j = 0
        objs = [stacked_obj(0, 0)]
        expansions = []
        for v in pattern:
            if v == 1:
                sv = whisker(ring_f.state(objs1[i], objs1[i + 1], lets1[i]),
                             objs1[i], objs1[i + 1], objs2[j], above=False)
                i += 1
            else:
                sv = whisker(ring_g.state(objs2[j], objs2[j + 1], lets2[j]),
                             objs2[j], objs2[j + 1], objs1[i], above=True)
                j += 1
            objs.append(stacked_obj(i, j))
            expansions.append([(lab, c) for lab, c in sv.sorted_terms() if c])
        for combo in itertools.product(*expansions):
            coeff = sign
            letters = []
            for lab, c in combo:
                coeff *= c
                letters.append(lab)
            out.append((coeff, (tuple(objs), tuple(letters))))
    return out


def compose(f, g, target=None):
    """Compose two elements; f after g, through the shared middle tangle."""
    fc, gc = f.owner, g.owner
    if fc.spec != gc.spec:
        raise InvalidBoundary("elements live over different surfaces")
    if fc.bottom != gc.top:
        raise InvalidBoundary("middle tangles do not match")
    if target is None:
        if not (fc.arcs_are_identities() and gc.arcs_are_identities()):
            raise InvalidBoundary("provide a target complex when arc inserts are present")
        target = SurfaceComplex(fc.spec, fc.top, gc.bottom, fc.depth + gc.depth,
                                reduced=fc.reduced)
    target.truncated.require_window("compose")
    if target.top != fc.top or target.bottom != gc.bottom:
        raise InvalidBoundary("target complex has the wrong boundary tangles")
    h_out = f.h + g.h
    if -h_out > target.depth:
        raise TruncationError(
            f"composite sits at degree {h_out}, below the target depth {target.depth}"
        )
    names = fc.seam_names
    result = {}
    shuffles = {}
    for (wf, labf), cf in f.terms.items():
        if not cf:
            continue
        rf = [len(w[1]) for w in wf]
        for (wg, labg), cg in g.terms.items():
            if not cg:
                continue
            rg = [len(w[1]) for w in wg]
            cross = sum(rg[s] * rf[t] for s in range(len(names))
                        for t in range(s + 1, len(names)))
            sign_cross = -1 if cross % 2 else 1
            st = _stacking_plan(fc.z_jux, fc.m_tangle(wf), gc.z_jux, gc.m_tangle(wg),
                                target.z_jux).product(labf, labg)
            per_seam = []
            for s, name in enumerate(names):
                key = (name, wf[s], wg[s])
                if key not in shuffles:
                    shuffles[key] = _shuffle_compose(fc.rings[name], gc.rings[name],
                                                     wf[s], wg[s])
                per_seam.append(shuffles[key])
            for combo in itertools.product(*per_seam):
                w_out = tuple(w for _c, w in combo)
                coeff = cf * cg * sign_cross
                for c, _w in combo:
                    coeff *= c
                if not coeff:
                    continue
                for lab_out, c_out in st:
                    key = (w_out, lab_out)
                    result[key] = result.get(key, 0) + coeff * c_out
    return SurfaceElement(target, h_out, {k: v for k, v in result.items() if v})


def _splice_caps(tangle, ri, si, rj, sj, order):
    """Merge region rj's cap into region ri's across one seam.

    Seam points are identified end to end (point t on the minus side against
    point n-1-t on the plus side) and chords are followed through the
    identification.  Returns the merged cap, its counts and where each old
    (region, point) lands: a point off the seam at its merged point, a seam
    point at one end of the merged chord its chain of chords becomes.
    """
    counts = tangle.counts
    n = counts[ri][si]
    start_old = {}
    for r in (ri, rj):
        acc = 0
        for s, c in enumerate(counts[r]):
            start_old[(r, s)] = acc
            acc += c
    point_map = {}
    acc = 0
    new_counts = []
    for r, s in order:
        for t in range(counts[r][s]):
            point_map[(r, start_old[(r, s)] + t)] = acc + t
        acc += counts[r][s]
        new_counts.append(counts[r][s])
    gi, gj = start_old[(ri, si)], start_old[(rj, sj)]
    ident = {}
    for t in range(n):
        ident[(ri, gi + t)] = (rj, gj + n - 1 - t)
        ident[(rj, gj + n - 1 - t)] = (ri, gi + t)

    partner = [None] * acc
    image = dict(point_map)
    for (r, p), u in point_map.items():
        if partner[u] is not None:
            continue
        q = tangle.caps[r].partner[p]
        while (r, q) in ident:
            image[(r, q)] = u
            r, p = ident[(r, q)]
            image[(r, p)] = u
            q = tangle.caps[r].partner[p]
        v = point_map[(r, q)]
        partner[u], partner[v] = v, u
    # a seam point no chain reached lies on a component closed off the boundary
    if len(image) < tangle.caps[ri].points + tangle.caps[rj].points:
        raise SpecError("coarsening would close a tangle component off the boundary")
    return PlanarTangle(acc, 0, tuple(partner)), tuple(new_counts), image


def removable_seam(spec, seam, tangles=()):
    """The (region, segment) of the minus and plus side of a seam that
    coarsening can delete, and the segments of the merged region in order,
    as (region, segment) pairs.

    Raises SpecError unless the seam exists and joins two regions, and
    unless splicing each of tangles across it leaves every component on
    the boundary; it needs only the spec and the tangles, so callers can
    refuse a seam before building anything.
    """
    if seam not in spec.seams:
        raise SpecError(f"unknown seam {seam!r}")
    (ri, si), (rj, sj) = spec.seam_sides(seam)
    if ri == rj:
        raise SpecError(
            f"seam {seam!r} has both sides on one region; removing it does not leave disks"
        )
    order = ([(ri, s) for s in range(si)]
             + [(rj, s) for s in range(sj + 1, len(spec.regions[rj]))]
             + [(rj, s) for s in range(sj)]
             + [(ri, s) for s in range(si + 1, len(spec.regions[ri]))])
    for tangle in tangles:
        _splice_caps(tangle, ri, si, rj, sj, order)
    return (ri, si), (rj, sj), order


def coarsen(cx, seam):
    """Delete one seam, collapsing its plugs into each other.

    Returns the complex over the coarsened surface and the chain map from
    cx.truncated onto its truncated complex.  Words with letters at the
    removed seam map to zero; length-zero words map by one saddle per plug
    chord, replayed from a plan compiled once per word's tangles and sites.
    """
    cx.truncated.require_window("coarsen")
    target, z_arc_map, m_arc_map = _coarsened(cx, seam)
    z_items = tuple(z_arc_map.items())
    g_idx = cx.layout.seam_pos[seam]
    comps = {}
    for h, mws in cx.multiwords.items():
        mat = {}
        for j, mw in enumerate(mws):
            objs, letters = mw[g_idx]
            if letters:
                continue
            mw_t = mw[:g_idx] + mw[g_idx + 1:]
            i_t = target.index[h][mw_t]
            m_src = cx.m_tangle(mw)
            d_src, off_src = hom_double(cx.z_jux, m_src)
            sites = _plug_surgeries(cx, seam, mw, objs[0], m_src, d_src)
            plan = _coarsening_plan(cx.z_jux, m_src, target.z_jux, target.m_tangle(mw_t),
                                    tuple(sites), z_items + tuple(m_arc_map[mw].items()))
            for lab, _raw in kh_basis(d_src, off_src):
                col = cx._positions[h][(j, lab)]
                for lab2, c2 in plan.product(lab):
                    row = target._positions[h][(i_t, lab2)]
                    mat[(row, col)] = mat.get((row, col), 0) + c2
        comps[h] = mat
    return target, ChainMap(cx.truncated, target.truncated, comps)


@memo.cache
def _coarsening_plan(z_src, m_src, z_tgt, m_tgt, sites, arc_map):
    """Compile the collapse of one length-zero seam word once, on circles.

    One saddle per site (arc1, arc2, pairing) on the double of (z_src,
    m_src), then its circles carried onto the double of (z_tgt, m_tgt)
    along arc_map, given as (source arc, target arc) pairs.
    """
    rec = _Recorder.on(hom_double(z_src, m_src)[0])
    for arc1, arc2, pairing in sites:
        rec.surger(arc1, arc2, pairing)
    return rec.plan(hom_double(z_tgt, m_tgt)[0], dict(arc_map))


def _coarsened(cx, seam):
    """The complex over the surface without seam, and the arc maps that
    carry closure chords and, per length-zero word, middle chords onto it."""
    spec = cx.spec
    (ri, si), (rj, sj), order = removable_seam(spec, seam)
    merged_segs = tuple(spec.regions[r][s] for r, s in order)
    new_regions = []
    region_pos = {}
    for r in range(len(spec.regions)):
        if r == rj:
            continue
        region_pos[r] = len(new_regions)
        new_regions.append(merged_segs if r == ri else spec.regions[r])
    region_pos[rj] = region_pos[ri]
    new_spec = SurfaceSpec(spec.arcs, tuple(n for n in spec.seams if n != seam),
                           tuple(new_regions))
    seg_pos = {}
    for r in range(len(spec.regions)):
        if r in (ri, rj):
            continue
        for s in range(len(spec.regions[r])):
            seg_pos[(r, s)] = (region_pos[r], s)
    for new_s, (r, s) in enumerate(order):
        seg_pos[(r, s)] = (region_pos[ri], new_s)

    def splice(tangle):
        merged, new_counts, image = _splice_caps(tangle, ri, si, rj, sj, order)
        caps, counts = [], []
        for r in range(len(spec.regions)):
            if r == rj:
                continue
            if r == ri:
                caps.append(merged)
                counts.append(new_counts)
            else:
                caps.append(tangle.caps[r])
                counts.append(tangle.counts[r])
        return SurfaceTangle(tuple(caps), tuple(counts)), image

    new_top, top_image = splice(cx.top)
    new_bot, bot_image = splice(cx.bottom)
    target = SurfaceComplex(new_spec, new_top, new_bot, cx.depth,
                            inserts=cx.inserts, reduced=cx.reduced)

    z_arc_map = _closure_arc_map(cx, target, region_pos, bot_image, top_image)
    m_arc_map = _middle_arc_map(cx, target, seg_pos, seam)
    return target, z_arc_map, m_arc_map


def _closure_points(cx):
    """Where each region's bottom and top cap points land in cx.z_jux: a
    pair of tuples per region."""
    out = []
    jux = juxtaposition_points(cx.z_regions)
    for image, sc, tc in zip(jux, cx.bottom.caps, cx.top.caps):
        lower, upper = stacking_points(tc.reflect_y(), sc)
        flip = MOVES["reflect_y"](tc.bottom, tc.top)[2]
        out.append((tuple(image[lower[p]] for p in range(sc.points)),
                    tuple(image[upper[flip(p)]] for p in range(tc.points))))
    return out


def _closure_arc_map(cx, target, region_pos, bot_image, top_image):
    """Old closure chord arcs to new ones, following the cap splice:
    bot_image and top_image place the spliced regions' cap points."""
    new = _closure_points(target)
    image = [None] * cx.z_jux.points
    for r, olds in enumerate(_closure_points(cx)):
        for old, tgt, spliced in zip(olds, new[region_pos[r]], (bot_image, top_image)):
            for p, g in enumerate(old):
                image[g] = tgt[spliced.get((r, p), p)]
    return _carried_arcs("x", cx.z_jux, image, "x", target.z_jux)


def _middle_arc_map(cx, target, seg_pos, seam):
    """Per word tuple, old middle chord arcs to new ones away from the seam."""
    g_idx = cx.layout.seam_pos[seam]
    out = {}
    for mws in cx.multiwords.values():
        for mw in mws:
            if mw[g_idx][1]:
                continue
            mw_t = mw[:g_idx] + mw[g_idx + 1:]
            m_src = cx.m_tangle(mw)
            new = juxtaposition_points(target.slot_tangles(mw_t))
            image = [None] * m_src.points
            for k, old in enumerate(juxtaposition_points(cx.slot_tangles(mw))):
                pos = seg_pos.get(cx.layout.slot_pos[k])
                if pos is not None:
                    for g, g_new in zip(old, new[target.layout.slot_global[pos]]):
                        image[g] = g_new
            out[mw] = _carried_arcs("y", m_src, image, "y", target.m_tangle(mw_t))
    return out


def transfer(elem, cmap, target):
    """Push an element through a chain map onto the target surface complex."""
    target.truncated.require_window("transfer")
    owner = elem.owner
    if cmap.source is not owner.truncated or cmap.target is not target.truncated:
        raise InvalidBoundary("chain map does not connect these complexes")
    return _applied(elem, cmap.components.get(elem.h, {}), target, elem.h)


def _applied(elem, matrix, target, h):
    """The image of elem under the integer map {(row, col): coeff} from its
    owner's truncated complex at degree elem.h to target's at degree h."""
    owner = elem.owner
    by_col = {}
    for (row, col), c in matrix.items():
        by_col.setdefault(col, []).append((row, c))
    vec = {}
    for (mw, lab), c in elem.terms.items():
        if not c:
            continue
        col = owner._row(elem.h, mw, lab)
        for row, c2 in by_col.get(col, ()):
            vec[row] = vec.get(row, 0) + c * c2
    terms = {}
    for row, c in vec.items():
        if not c:
            continue
        (i, lab), _q = target.truncated.generators[h][row]
        terms[(target.multiwords[h][i], lab)] = c
    return SurfaceElement(target, h, terms)


def h0(spec, top, bottom, q_degree):
    """Rank of the degree-zero homology in one quantum degree.

    Exact: only bar lengths zero and one enter, so no truncation is needed.
    Only that quantum degree is built.
    """
    cx = SurfaceComplex(spec, top, bottom, depth=1, q_range=(q_degree, q_degree))
    return cx.truncated.homology_at(0, q_degree)[0]


def window_depth(depth, hmin):
    """The bar depth to build for homology from degree hmin up of a complex
    truncated at depth, or, with depth None, at the least depth it needs.

    Homology at degree i reads degrees i - 1 to i + 1, and truncating
    deeper changes no degree above -depth, so the build stops at degree
    hmin - 1.  Where depth does not reach below that, the truncation
    certificate is read and the build is the full one, refusals included.
    """
    floor = max(0, 1 - hmin)
    return floor if depth is None else min(depth, floor)


def symmetrized_pairing(spec, x, y, h_range, q_range, depth=None):
    """Homology of the hom complex pairing two surface tangles.

    Reflecting the second factor is the identity on cap matchings, so the
    pairing complex is the hom complex from y to x; the symmetry in x and y
    holds at the level of homology, not of chains.  The complex is truncated
    at depth (by default just below h_range), and only the quantum degrees
    of q_range and the bar degrees window_depth gives are built.
    """
    expect(h_range, "a pair of integers", "h_range")
    if depth is not None:
        expect(depth, "an integer", "depth")
    cx = SurfaceComplex(spec, x, y, depth=window_depth(depth, h_range[0]), q_range=q_range)
    return cx.truncated.homology(h_range, q_range)


def _plug_surgeries(cx, seam, mw, a0, m_src, d_src):
    """Saddle data joining the two plug copies of a length-zero seam word.

    The minus-side slot holds a0 reflected; point t there is glued to point
    count-1-t on the plus side, separately along the bottom and the top.
    One surgery per chord of a0.
    """
    images = juxtaposition_points(cx.slot_tangles(mw))
    neg, pos = (images[cx.layout.seam_slots[seam][side]] for side in (-1, 1))
    mir = MOVES["reflect_x"](a0.bottom, a0.top)[2]

    def node(g):
        return d_src.node_of_port(("y",) + m_src.port_of_point(g))

    out = []
    for u, v in a0.chords:
        gnu, gnv, gpu, gpv = neg[mir(u)], neg[mir(v)], pos[u], pos[v]
        arc1 = ("y", _chord_index(m_src, gnu))
        arc2 = ("y", _chord_index(m_src, gpu))
        out.append((arc1, arc2, ((node(gnu), node(gpu)), (node(gnv), node(gpv)))))
    return out
