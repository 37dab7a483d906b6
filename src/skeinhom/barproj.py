"""Projector complexes of flat tangles via the reduced bar construction.

The ring of a strand split (m, n) collects the hom spaces among all minimal
flat (m, n)-tangles.  Words in its reduced letters (basis elements other than
identities) index the chain objects of the bottom projector: a word from a0
to ar contributes the through-degree-zero tangle that folds a0 down onto the
bottom edge and ar up onto the top edge, shifted by the word's total letter
degree plus half the strand count.  Face maps absorb the outer letters into
the folds and compose adjacent inner letters, with alternating signs.

The bar construction itself lives here once, in two halves.  bar_plan is
the half that reads no tangle: the word tuples (one word per ring, for
several rings), their degrees and every face with its Koszul sign, compiled
once per process per rings, depth and degree bound (bar_words and bar_faces
spell and face the words of one ring).  bar_complex turns a plan into a
complex: it builds each end face once per key of word ends, seam, side, new
end object and letter, and certifies the truncation by the smallest letter
degree.  bottom_projector runs it over one ring with fold objects, a fold
tangle being its bent-down caps beside its bent-up cups, so that an end
face juxtaposes two bent states; surface.SurfaceComplex runs it over one
ring per seam, supplying only its object tangles and how an end letter is
absorbed into a seam slot.

TwistedTangleComplex is the common carrier: a complex whose objects are
shifted flat tangles (free circles allowed) and whose differentials are
state vectors between their doubles.  Its entries are interned, so that the
checks on construction and hom evaluation do their work once per distinct
value.  Evaluating hom from a fixed tangle turns it into an integer complex
for the homological algebra layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import memo
from .errors import GradingError, InvalidBoundary, SpecError, expect
from .homalg import Certificate, ChainMap, LaurentPoly, SparseComplex, TruncatedComplex
from .planar import bend_down, bend_up, compose, enumerate_matchings, identity_tangle, juxtapose
from .tqft import (ONE, StateVector, _check_on, _composition_plan, _on_diagram, _relabeled,
                   hom_double, hom_graded_rank, identity_state, juxtaposed, kh_basis, pair,
                   reflected_x, transposed, whisker)


class SmallRing:
    """Hom spaces among the minimal flat (m, n)-tangles, with composition."""

    def __init__(self, m, n):
        self.m = expect(m, "an integer", "small ring: m")
        self.n = expect(n, "an integer", "small ring: n")
        self.objects = enumerate_matchings(m, n)
        if not self.objects:
            raise InvalidBoundary(f"no flat ({m}, {n})-tangles exist")

    def basis(self, a, b):
        return self._basis(a, b)[0]

    @memo.cache
    def _basis(self, a, b):
        """The basis of Hom(a, b) as (labeling, degree) pairs, and as a dict."""
        basis = kh_basis(*hom_double(a, b))
        return basis, dict(basis)

    def _labeling(self, a, b, lab):
        """lab as a tuple; GradingError unless it labels the double of (a, b)."""
        lab = tuple(lab)
        if lab not in self._basis(a, b)[1]:
            raise GradingError(
                f"labeling {lab!r} does not fit a {len(hom_double(a, b)[0])}-circle diagram")
        return lab

    def degree(self, a, b, lab):
        return self._basis(a, b)[1][self._labeling(a, b, lab)]

    def state(self, a, b, lab):
        d, off = hom_double(a, b)
        return StateVector._trusted(d, off, {self._labeling(a, b, lab): 1})

    def identity_labeling(self, a):
        (lab, _), = identity_state(a).sorted_terms()
        return lab

    def reduced(self, a, b):
        """Letter labelings: every basis element except the identity."""
        return tuple(lab for lab, _ in self.letters(a, b, True))

    @memo.cache
    def letters(self, a, b, reduced=True):
        """The letters from a to b with their degrees, as (labeling, degree)
        pairs in basis order: every basis element, or with reduced every
        one except the identity.  Cached on the arguments as passed."""
        pool = self.basis(a, b)
        if reduced and a == b:
            ident = self.identity_labeling(a)
            pool = tuple((lab, deg) for lab, deg in pool if lab != ident)
        return pool

    @memo.cache
    def end_letter(self, a, b, lab, side):
        """The letter lab from a to b as an end face absorbs it: reflected
        onto the mirrored objects on the left (side -1), transposed on the
        right (side +1)."""
        relabel = reflected_x if side < 0 else transposed
        return relabel(self.state(a, b, lab), a, b)

    def product(self, a, b, c, lab1, lab2):
        """The product of the basis elements lab1 of Hom(a, b) and lab2 of
        Hom(b, c), as sorted (labeling, coefficient) pairs on Hom(a, c):
        one entry of the composition plan's table."""
        return self._product(a, b, c, self._labeling(a, b, lab1), self._labeling(b, c, lab2))

    @staticmethod
    def _product(a, b, c, lab1, lab2):
        """product of two labeling tuples known to fit, such as letters."""
        return _composition_plan(a, b, c)[-1].product(lab1, lab2)

    def gram(self):
        """Graded dimensions of all hom spaces, keyed on (a, b)."""
        return {(a, b): hom_graded_rank(a, b) for a in self.objects for b in self.objects}

    @cached_property
    def min_letter_degree(self):
        """Smallest degree of a non-identity letter, or None if there are none."""
        return min((deg for a in self.objects for b in self.objects
                    for _lab, deg in self.letters(a, b, True)), default=None)


def small_ring(m, n):
    """The SmallRing of the split (m, n), one per process, so that its
    caches serve every complex built over it.  The split is checked before
    the cache, which would take True for 1."""
    return _small_ring(expect(m, "an integer", "small ring: m"),
                       expect(n, "an integer", "small ring: n"))


@memo.cache
def _small_ring(m, n):
    return SmallRing(m, n)


def bar_words(ring, r, reduced=True):
    """All words of length r, as (objects, letters) pairs.

    Objects is a tuple of r+1 ring objects and letters a tuple of r basis
    labelings, letter i mapping objects[i] to objects[i+1].  Letters are
    reduced, or with reduced=False any basis labeling, identities included.
    """
    return tuple(word for word, _deg in _spelled(ring, r, reduced, None))


def _spelled(ring, r, reduced, max_degree):
    """The words of bar_words with their degrees, as (word, degree) pairs.

    Words are spelled letter by letter, objects in product order first and
    then letters in product order; with max_degree a prefix is dropped as
    soon as its degree exceeds the bound, which is exact because no letter
    has negative degree (GradingError otherwise).
    """
    out = []
    if max_degree is not None:
        # identities, the only letters reduced words leave out, have degree 0
        if (ring.min_letter_degree or 0) < 0:
            raise GradingError("a letter of negative degree: words cannot be pruned by degree")
        if max_degree < 0:
            return out

    def spell(objs, pools, letters, degree):
        i = len(letters)
        if i == r:
            out.append(((objs, letters), degree))
            return
        for lab, deg in pools[i]:
            if max_degree is None or degree + deg <= max_degree:
                spell(objs, pools, letters + (lab,), degree + deg)

    for objs in itertools.product(ring.objects, repeat=r + 1):
        spell(objs, [ring.letters(objs[i], objs[i + 1], reduced) for i in range(r)], (), 0)
    return out


@memo.cache
def bar_ends(rings, depth, reduced=True):
    """The end objects of every word tuple up to total length depth, one
    word per ring, as a frozenset of tuples of (first, last) object pairs,
    computed once per process per (rings, depth, reduced).

    No word is enumerated.  Per ring, the end pairs of words of length 0
    are the diagonal, those of length 1 the pairs with a letter, and those
    of length r+1 the composites of length r and length 1 pairs; reach[r]
    collects the lengths up to r, and stops growing once a length adds
    nothing new.
    """
    reach = []
    for ring in rings:
        step = {a: [b for b in ring.objects if ring.letters(a, b, reduced)]
                for a in ring.objects}
        last = {(a, a) for a in ring.objects}
        levels = [frozenset(last)]
        for _ in range(depth):
            last = {(a, c) for a, b in last for c in step[b]}
            if last <= levels[-1]:
                break
            levels.append(levels[-1] | last)
        reach.append(levels)
    # a last, unused part takes up the slack of tuples shorter than depth
    lengths = {tuple(min(r, len(levels) - 1) for r, levels in zip(comp, reach))
               for comp in _compositions(depth, len(rings) + 1)}
    ends = set()
    for comp in lengths:
        ends.update(itertools.product(*(levels[r] for levels, r in zip(reach, comp))))
    return frozenset(ends)


def word_ends(mw):
    """The (first, last) object pair of each word of a word tuple."""
    return tuple((objs[0], objs[-1]) for objs, _letters in mw)


def bar_faces(ring, word):
    """The faces of one word as _spelled spells it (its letters are the
    ring's own), as (side, target word, state, sign).

    The left absorption (side -1) carries the first letter, reflected onto
    the mirrored first object, with sign +1; each term of the product of
    letters i-1 and i gives an inner face (side 0, state None) with sign
    coeff*(-1)^i; the right absorption (side +1) carries the last letter,
    transposed, with sign (-1)^r.
    """
    objs, letters = word
    r = len(letters)
    first = ring.end_letter(objs[0], objs[1], letters[0], -1)
    yield -1, (objs[1:], letters[1:]), first, 1
    for i in range(1, r):
        prod = ring._product(objs[i - 1], objs[i], objs[i + 1], letters[i - 1], letters[i])
        for lab, coeff in prod:
            wi = (objs[:i] + objs[i + 1:], letters[:i - 1] + (lab,) + letters[i + 1:])
            yield 0, wi, None, coeff * (-1) ** (i % 2)
    last = ring.end_letter(objs[-2], objs[-1], letters[-1], 1)
    yield 1, (objs[:-1], letters[:-1]), last, (-1) ** (r % 2)


def word_degree(ring, word):
    objs, letters = word
    return sum(ring.degree(objs[i], objs[i + 1], lab) for i, lab in enumerate(letters))


@memo.cache
def fold_tangle(a0, ar):
    """The (N, N) through-degree-zero tangle with a0 folded down and ar up."""
    if a0.points != ar.points:
        raise InvalidBoundary("folded tangles need matching strand counts")
    return juxtapose(bend_down(a0.reflect_x()), bend_up(ar))


def fold_entry(a0, ar, b0, br, cap_sv, cup_sv):
    """A morphism between fold tangles acting separately on caps and cups.

    cap_sv lives on the double of reflect_x(a0) and reflect_x(b0); cup_sv on
    the double of ar and br.  A fold tangle is its caps bent down beside
    its cups bent up, so the entry is the two states, bent the same way,
    juxtaposed.
    """
    u0, v0 = a0.reflect_x(), b0.reflect_x()
    return juxtaposed(((bend_down(u0), bend_down(v0), _relabeled(cap_sv, u0, v0, "bend_down")),
                       (bend_up(ar), bend_up(br), _relabeled(cup_sv, ar, br, "bend_up"))))


# The entry values of every twisted complex built in this process,
# interned the way PlanarTangle._trusted interns tangles: equal states on
# one diagram object are one StateVector, numbered in order of first
# appearance.  _ENTRY_IDS maps the id() of each interned state to its
# number, so a lookup hashes no state; _ENTRY_STATES holds the states, so
# an id() in it is never reused.  The work tables below are keyed on those
# numbers, hold values and never complexes, and live until memo._forget().
# A number fixes its diagram, a cached double that compares by identity,
# and so both tangles of that double: once _check_on or the fault pass has
# put each state on its objects' double, images and products are keyed on
# numbers alone.  A fault judges a placement, so it keeps the objects.
_ENTRY_NUMBERS = memo.table(dict)  # (diagram, offset, frozenset of terms) -> number
_ENTRY_STATES = memo.table(list)   # number -> interned state
_ENTRY_IDS = memo.table(dict)      # id(interned state) -> number
_FAULTS = memo.table(dict)         # (source object, target object, number) -> fault or None
_PRODUCTS = memo.table(dict)       # (number x, number y) -> terms of compose(a, b, c, x, y)
_IMAGES = memo.table(dict)         # (b, number) -> {labeling: column}
_SIGNED = memo.table(dict)         # (number, coefficient) -> number of coefficient * state
_UNJUDGED = object()


def _entry_number(sv):
    """The number of the interned state equal to sv on its diagram,
    interning sv itself if no such state exists yet."""
    n = _ENTRY_IDS.get(id(sv))
    if n is None:
        key = (sv.diagram, sv.offset, frozenset(sv.terms.items()))
        n = _ENTRY_NUMBERS.get(key)
        if n is None:
            n = _ENTRY_NUMBERS[key] = len(_ENTRY_STATES)
            _ENTRY_STATES.append(sv)
            _ENTRY_IDS[id(sv)] = n
    return n


def _interned(entry):
    """The interned state equal to entry; anything but a state is left to
    _entry_fault to refuse."""
    if type(entry) is not StateVector:
        return entry
    return _ENTRY_STATES[_entry_number(entry)]


def _signed(sv, coeff):
    """coeff times the state sv, interned: scaled once per process per
    (sv, coeff), with 1 taking sv as it is."""
    if coeff == 1:
        return sv
    key = (_entry_number(sv), coeff)
    n = _SIGNED.get(key)
    if n is None:
        n = _SIGNED[key] = _entry_number(sv.scaled(coeff))
    return _ENTRY_STATES[n]


def _state_fault(src, tgt, sv):
    """An entry lives on the double of its objects at its hom offset and is
    homogeneous of degree s_src - s_tgt."""
    (T_src, s_src), (T_tgt, s_tgt) = src, tgt
    diagram, offset = hom_double(T_src, T_tgt)
    if not _on_diagram(sv, diagram):
        return "is on the wrong double"
    if sv.offset != offset:
        return f"sits at offset {sv.offset}, not at the hom offset {offset}"
    degrees = sv.degrees()
    if len(degrees) > 1:
        return "is inhomogeneous"
    if degrees and degrees[0] != s_src - s_tgt:
        return f"has degree {degrees[0]}, expected {s_src - s_tgt}"
    return None


def _path_sum(compose, tangles, na, nc, paths):
    """The terms of the sum, over the paths (x, (b, y)) of entry numbers and
    tangle numbers, of compose(a, b, c, x, y) from a = tangles[na] to
    c = tangles[nc]; each distinct composite is composed once per process."""
    counts = {}
    for path in paths:
        counts[path] = counts.get(path, 0) + 1
    a, c = tangles[na], tangles[nc]
    acc = {}
    for (nx, (nb, ny)), count in counts.items():
        key = (nx, ny)
        terms = _PRODUCTS.get(key)
        if terms is None:
            terms = _PRODUCTS[key] = tuple(compose(
                a, tangles[nb], c, _ENTRY_STATES[nx], _ENTRY_STATES[ny]).terms.items())
        for lab, k in terms:
            acc[lab] = acc.get(lab, 0) + count * k
    return {lab: k for lab, k in acc.items() if k}


class TwistedTangleComplex(SparseComplex):
    """A complex of grading-shifted flat tangles with state-vector entries.

    objects: {h: ((tangle, qshift), ...)}; differentials: {h: {(i, j): sv}}
    with sv a morphism from object j of degree h to object i of degree h+1,
    homogeneous of raw degree qshift_j - qshift_i so that hom evaluation
    preserves the quantum grading.  Degrees below h_min may be truncated
    away, in which case a certificate bounds the shifts living there; the
    tangles down there are assumed to repeat floor_tangles, by default the
    tangles of the objects present.  The q of an object is its shift, so a
    windowed build, which keeps only the subcomplex of low shifts, holds
    the q-window (None, largest shift kept).

    Every entry is stored as its interned state, one StateVector per value
    and diagram in the process with a small number, and the work on
    entries is kept in process tables keyed on those numbers: _entry_fault
    judges an entry once per (source object, target object, number), the
    d^2 = 0 check (_square) composes once per (number, number), and
    hom_complex computes a labeling's column once per (b, number).
    """

    def _build(self, objects, differentials, h_min=None, h_max=None,
               complete=True, certificate=None, floor_tangles=None, q_range=None):
        nonzero = {h: {k: _interned(sv) for k, sv in d.items() if sv}
                   for h, d in differentials.items()}
        super()._build(objects, nonzero, h_min, h_max, complete, certificate, q_range)
        if floor_tangles is None:
            floor_tangles = {T for obs in self.objects.values() for T, _ in obs}
        self.floor_tangles = frozenset(floor_tangles)

    @property
    def objects(self):
        return self.cells

    @staticmethod
    def compose(a, b, c, x, y):
        """Entries compose as cobordisms, x in Hom(a, b) then y in Hom(b, c)."""
        return pair(a, b, c, x, y)

    @staticmethod
    def _entry_fault(src, tgt, sv):
        """_state_fault, judged once per process per (src, tgt, interned
        state); a state that is not interned (a chain map's component) is
        judged on every call."""
        n = _ENTRY_IDS.get(id(sv))
        if n is None:
            return _state_fault(src, tgt, sv)
        key = (src, tgt, n)
        fault = _FAULTS.get(key, _UNJUDGED)
        if fault is _UNJUDGED:
            fault = _FAULTS[key] = _state_fault(src, tgt, sv)
        return fault

    @staticmethod
    def _square(first, second, compose, a, b, c):
        """The nonzero entries of sparse_product(first, second, compose, a,
        b, c), from the entries' numbers.

        Source by source, the paths j -> k -> i are listed per target i as
        (number of the entry at (k, j), (tangle of k, number of the entry
        at (i, k))), tangles numbered within the call.  The sum of (i, j)
        depends only on its list and the tangles of a_j and c_i, so each
        distinct such key is summed once per call (_path_sum): integer
        multiplicities per path times compose(a, b, c, x, y), which runs
        once per process per distinct (x, y).
        """
        numbers = {}
        na, nb, nc = ([numbers.setdefault(T, len(numbers)) for T, _s in cells]
                      for cells in (a, b, c))
        tangles = tuple(numbers)
        by_source, columns = {}, {}
        for (i, k), y in second.items():
            by_source.setdefault(k, []).append((i, (nb[k], _entry_number(y))))
        for (k, j), x in first.items():
            columns.setdefault(j, []).append((k, _entry_number(x)))
        sums, out = {}, {}
        for j, column in columns.items():
            paths = {}
            for k, nx in column:
                for i, ky in by_source.get(k, ()):
                    path = (nx, ky)
                    at = paths.get(i)
                    if at is None:
                        paths[i] = [path]
                    else:
                        at.append(path)
            for i, at in paths.items():
                key = (na[j], nc[i], tuple(at))
                terms = sums.get(key)
                if terms is None:
                    terms = sums[key] = _path_sum(compose, tangles, *key)
                if terms:
                    out[(i, j)] = StateVector._trusted(*hom_double(a[j][0], c[i][0]), terms)
        return out

    def stacked(self, e, above=True):
        """Glue the fixed tangle e onto every object, whiskering entries."""
        objects = {
            h: tuple((compose(e, T) if above else compose(T, e), s) for T, s in obs)
            for h, obs in self.objects.items()
        }
        diffs = {}
        for h, d in self.differentials.items():
            new = {}
            for (i, j), sv in d.items():
                T_src = self.objects[h][j][0]
                T_tgt = self.objects[h + 1][i][0]
                new[(i, j)] = whisker(sv, T_src, T_tgt, e, above=above)
            diffs[h] = new
        return TwistedTangleComplex._trusted(
            objects, diffs, self.h_min, self.h_max, self.complete, self.certificate,
            floor_tangles=[compose(e, T) if above else compose(T, e) for T in self.floor_tangles],
            q_range=self.q_range)

    def shifted(self, dh=0, dq=0):
        out = super().shifted(dh, dq)
        out.floor_tangles = self.floor_tangles
        return out

    def _hom_floor(self, b):
        return hom_floor(b, self.floor_tangles)

    def hom_complex(self, b, q_range=None):
        """Evaluate hom from the fixed tangle b, object by object.

        An entry sv from T_src to T_tgt sends the basis labeling lab of
        Hom(b, T_src) to the sum over the terms c * lab2 of sv of c times
        the product of lab and lab2 in the plan composing through T_src:
        one plan lookup and one check of sv per entry, then table reads.
        That column is computed once per process per (b, number of sv,
        lab) and kept in the image table of its key.
        With q_range = (qmin, qmax) only the labelings of quantum degree in
        that window are generators, and entries from objects without one are
        skipped: the differential preserves the quantum degree, so the
        result is the direct summand of the full evaluation on the window,
        and it refuses queries outside the window (WindowError).  On a
        windowed complex the window is required, and it must lie below the
        window's top shift plus the hom floor from b: the objects left out
        have nothing there.
        """
        qmin, qmax = q_range if q_range is not None else (None, None)
        floor = self._hom_floor(b)
        self.require_window("hom_complex", None, None if qmax is None else qmax - floor)
        gens, rows = {}, {}
        for h, obs in sorted(self.objects.items()):
            bucket, at = [], []
            for i, (T, s) in enumerate(obs):
                index = {}
                for lab, raw in _hom_basis(b, T):
                    if q_range is None or qmin <= s + raw <= qmax:
                        index[lab] = len(bucket)
                        bucket.append(((i, lab), s + raw))
                at.append(index)
            gens[h] = tuple(bucket)
            rows[h] = at
        diffs = {}
        for h, d in sorted(self.differentials.items()):
            src, tgt = self.objects[h], self.objects[h + 1]
            entries = {}
            for (i, j), sv in d.items():
                cols = rows[h][j]
                if not cols:
                    continue
                T_src, T_tgt = src[j][0], tgt[i][0]
                _first, second, _canon, _off, plan = _composition_plan(b, T_src, T_tgt)
                _check_on(sv, second, "second state")
                image = _IMAGES.setdefault((b, _entry_number(sv)), {})
                row_of = rows[h + 1][i]
                for lab, col in cols.items():
                    column = image.get(lab)
                    if column is None:
                        acc = {}
                        for lab2, c in sv.terms.items():
                            for lab_out, k in plan.product(lab, lab2):
                                acc[lab_out] = acc.get(lab_out, 0) + c * k
                        column = image[lab] = tuple(sorted(
                            (lab_out, c) for lab_out, c in acc.items() if c))
                    for lab_out, c in column:
                        row = row_of.get(lab_out)
                        if row is None:
                            raise GradingError(
                                f"entry ({i}, {j}) at degree {h} leaves the quantum "
                                f"degree of labeling {lab!r}")
                        entries[(row, col)] = c
            diffs[h] = entries
        cert = None if self.certificate is None else self.certificate.shifted(dq=floor)
        return TruncatedComplex(gens, diffs, self.h_min, self.h_max,
                                self.complete, cert, q_range=q_range)

    def k0_series(self, tangle, q_range):
        """Alternating sum of shift monomials over objects equal to tangle."""
        j1, j2 = q_range
        self.require_window("k0_series", j1, j2)
        self.require_series(j1, j2, "series")
        out = {}
        for h, obs in self.objects.items():
            for T, s in obs:
                if T == tangle:
                    out[s] = out.get(s, 0) + (-1) ** (h % 2)
        return LaurentPoly(out).truncated(j1, j2)


@memo.cache
def _hom_basis(b, T):
    """kh_basis of the double of (b, T), once per process."""
    return kh_basis(*hom_double(b, T))


def hom_floor(b, tangles):
    """The least quantum degree min(0, offset - circles) of Hom(b, T) over
    the tangles T: every labeling of those spaces has degree at least this."""
    floor = 0
    for T in tangles:
        d, off = hom_double(b, T)
        floor = min(floor, off - len(d))
    return floor


def unit_complex(N):
    return TwistedTangleComplex({0: ((identity_tangle(N), 0),)}, {})


def _compositions(total, parts):
    """Tuples of parts nonnegative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class BarPlan:
    """What the bar construction over some rings is before any tangle.

    Keyed on the bar degree h = -r, r the total length of a word tuple:
    words[h] lists the word tuples (one word per ring), index[h] their
    positions, degrees[h] their letter degrees and ends[h] their word_ends.
    faces[h], for h < 0, lists the faces from degree h to h + 1 as records
    (i, j, g, side, new_end, letter, state, coeff): the face of word tuple
    j at the word of ring g lands on word tuple i.  An end face (side -1,
    the first letter, or +1, the last) leaves new_end in place of the end
    object it absorbs, the letter with its state as bar_faces gives it; an
    inner face has side 0 and None in the three.  coeff is the face's sign
    from bar_faces times the Koszul sign of the words before g.  Records
    come source by source, then ring by ring, in bar_faces order, which is
    the order the entries of a complex first meet their keys.  A plan is
    shared by every complex over its rings: read it, never change it.
    """

    words: dict
    index: dict
    degrees: dict
    ends: dict
    faces: dict


@memo.cache
def bar_plan(rings, depth, reduced=True, max_degree=None):
    """The BarPlan of the word tuples over rings up to total length depth,
    one word per ring, of letter degree at most max_degree (no bound with
    None), compiled once per process per (rings, depth, reduced,
    max_degree).  Rings are process singletons (small_ring), so every
    complex over the same rings and bound reads one plan.

    A face that leaves the degree bound is a GradingError; none does when
    no letter has negative degree, which _spelled requires of a bound.
    """
    spelled = [{r: _spelled(ring, r, reduced, max_degree) for r in range(depth + 1)}
               for ring in rings]
    words, index, degrees, ends = {}, {}, {}, {}
    for total in range(depth + 1):
        bucket, at = [], []
        for comp in _compositions(total, len(rings)):
            for combo in itertools.product(*(pool[r] for pool, r in zip(spelled, comp))):
                degree = sum(deg for _w, deg in combo)
                if max_degree is None or degree <= max_degree:
                    bucket.append(tuple(w for w, _deg in combo))
                    at.append(degree)
        words[-total] = tuple(bucket)
        index[-total] = {mw: i for i, mw in enumerate(bucket)}
        degrees[-total] = tuple(at)
        ends[-total] = tuple(word_ends(mw) for mw in bucket)
    faces = {}
    for h in range(-depth, 0):
        records = []
        targets = index[h + 1]
        for j, mw in enumerate(words[h]):
            koszul = 1
            for g, ring in enumerate(rings):
                word = mw[g]
                if not word[1]:
                    continue
                for side, w_tgt, state, sign in bar_faces(ring, word):
                    i = targets.get(mw[:g] + (w_tgt,) + mw[g + 1:])
                    if i is None:
                        raise GradingError(
                            f"a face of the word tuple at position {j} of degree {h} "
                            f"leaves the degree bound {max_degree}")
                    if side:
                        end = 0 if side < 0 else -1
                        records.append((i, j, g, side, w_tgt[0][end], word[1][end], state,
                                        koszul * sign))
                    else:
                        records.append((i, j, g, 0, None, None, None, koszul * sign))
                koszul *= (-1) ** (len(word[1]) % 2)
        faces[h] = tuple(records)
    return BarPlan(words, index, degrees, ends, faces)


def bar_complex(rings, depth, q0, tangle_of, absorb, reduced=True, hom_bound=None):
    """The bar construction over rings, one word per ring, truncated at
    total length depth.

    Returns (words, index, complex): words[-r] lists the word tuples of
    total length r and index[-r] their positions, both read from the
    process-wide bar_plan, so shared and not to be changed.  The object of
    a word tuple mw is tangle_of(word_ends(mw)), shifted by q0 plus the
    degrees of its words.  Each face of word g carries the Koszul sign of
    the words before it: an inner face is the identity of the source
    object, an end face is absorb(word_ends(mw), g, side, new_end, state),
    with side, new_end and state from the plan's face records.  Those and
    the letter absorbed determine the face, so within one build it is
    built once per (word ends, g, side, new_end, letter); a caller may
    cache it across builds too (surface does).  The certificate slope is
    the smallest letter degree of any ring (0 with reduced=False); with
    no letter in any ring the complex is complete.  The truncated degrees
    repeat the tangles of every word tuple, which bar_ends finds without
    spelling a word.

    With hom_bound = (b, qmax) only what hom from the fixed tangle b needs
    up to quantum degree qmax is built: the word tuples of shift at most
    qmax - F, F the hom floor from b over those tangles, which the complex
    records as its q-window (None, qmax - F).  An end face drops a letter,
    of degree at least 0, and an inner face keeps the degree, so they span
    a subcomplex, and it holds every object whose hom from b can reach a
    quantum degree at most qmax.
    """
    if depth < 0:
        raise SpecError(f"depth must be non-negative, got {depth}")
    rings = tuple(rings)
    floor_tangles = {tangle_of(ends) for ends in bar_ends(rings, depth, reduced)}
    window = max_degree = None
    if hom_bound is not None:
        b, qmax = hom_bound
        window = (None, qmax - hom_floor(b, floor_tangles))
        max_degree = window[1] - q0
    plan = bar_plan(rings, depth, reduced, max_degree)
    objects = {h: tuple((tangle_of(e), q0 + deg) for e, deg in zip(ends, plan.degrees[h]))
               for h, ends in plan.ends.items()}
    diffs, end_faces = {}, {}
    for h, records in plan.faces.items():
        ends, src = plan.ends[h], objects[h]
        entries = {}
        for i, j, g, side, new_end, letter, state, coeff in records:
            if side:
                face = (ends[j], g, side, new_end, letter)
                sv = end_faces.get(face)
                if sv is None:
                    sv = end_faces[face] = absorb(ends[j], g, side, new_end, state)
            else:
                sv = identity_state(src[j][0])
            sv = _signed(sv, coeff)
            key = (i, j)
            entries[key] = entries[key] + sv if key in entries else sv
        diffs[h] = entries
    slopes = [c for c in (ring.min_letter_degree if reduced else 0 for ring in rings)
              if c is not None]
    cert = Certificate(((q0, min(slopes)),)) if slopes else None
    twisted = TwistedTangleComplex(objects, diffs, -depth, 0, not slopes, cert,
                                   floor_tangles=floor_tangles, q_range=window)
    return plan.words, plan.index, twisted


def bottom_projector(N, depth, split=None):
    """The bar-resolution projector on N strands, truncated at bar degree depth.

    Chain objects at degree -r are fold tangles of reduced words of length r,
    shifted by N/2 plus the word degree.
    """
    expect(N, "an integer", "bottom_projector: strand count")
    expect(depth, "an integer", "bottom_projector: depth")
    if split is not None:
        expect(split, "a pair of integers", "bottom_projector: split")
    if N < 0:
        raise InvalidBoundary(f"strand count must be non-negative, got {N}")
    if N % 2:
        raise InvalidBoundary("an odd strand count admits no flat fold objects")
    if split is None:
        split = (N // 2, N // 2)
    m, n = split
    if m + n != N:
        raise InvalidBoundary(f"split {split} does not sum to {N}")

    def fold_of(ends):
        (a0, ar), = ends
        return fold_tangle(a0, ar)

    def absorb(ends, _g, side, new_end, sv):
        # the first letter acts on the bottom caps, the last on the top cups
        (a0, ar), = ends
        if side < 0:
            return fold_entry(a0, ar, new_end, ar, sv, identity_state(ar))
        return fold_entry(a0, ar, a0, new_end, identity_state(a0.reflect_x()), sv)

    _words, _index, projector = bar_complex((small_ring(m, n),), depth, N // 2, fold_of, absorb)
    return projector


def counit_components(projector, N):
    """The fold-collapse map onto the identity tangle, at chain degree zero."""
    comps = {}
    ident = identity_tangle(N)
    entries = {}
    for j, (T, s) in enumerate(projector.objects[0]):
        D, off = hom_double(T, ident)
        all_ones = StateVector(D, off, {(ONE,) * len(D): 1})
        if all_ones.degrees()[0] != s:
            raise GradingError("fold collapse has unexpected degree")
        entries[(0, j)] = all_ones
    comps[0] = entries
    return comps


def twisted_cone(source, target, components):
    """Mapping cone of a degree-zero map between twisted complexes, whose
    truncated degrees repeat the floor tangles of both."""
    cone = ChainMap(source, target, components).cone()
    cone.floor_tangles = source.floor_tangles | target.floor_tangles
    return cone


def signed_shuffles(r, s):
    """All interleavings of r left slots and s right slots with shuffle signs."""
    out = []
    for positions in itertools.combinations(range(r + s), r):
        pattern = [2] * (r + s)
        for p in positions:
            pattern[p] = 1
        inv = sum(1 for p in positions for idx2, v in enumerate(pattern)
                  if v == 2 and p > idx2)
        out.append(((-1) ** (inv % 2), tuple(pattern)))
    return tuple(out)


def shuffle_words(w1, w2):
    """Signed interleavings of two letter tuples."""
    out = []
    for sign, pattern in signed_shuffles(len(w1), len(w2)):
        it1, it2 = iter(w1), iter(w2)
        merged = tuple(next(it1) if v == 1 else next(it2) for v in pattern)
        out.append((sign, merged))
    return out
