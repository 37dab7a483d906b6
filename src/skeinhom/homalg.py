"""Exact homological algebra over the integers for bigraded complexes.

A TruncatedComplex stores generators per cohomological degree (differentials
raise that degree by one and preserve the quantum degree) together with an
honest account of what is known: degrees above h_max are genuinely zero,
degrees below h_min are either zero (complete complexes) or merely not
computed, in which case a Certificate bounds the quantum degrees living
there.  Requests that the stored data cannot answer raise TruncationError
rather than returning something quietly wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import (ChainMapError, GradingError, InvariantFactorError, SpecError,
                     TruncationError, WindowError, expect)


def _integral(x, what):
    """x as an int; GradingError if int() would change it (a float, a
    fraction or a string), so no value is rounded on the way in."""
    if type(x) is int:
        return x
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise GradingError(f"LaurentPoly {what} must be an integer, got {x!r}")
    return n


class LaurentPoly:
    """Integer Laurent polynomial in q, immutable.

    terms is canonical: (exponent, coefficient) pairs sorted by exponent,
    int exponents and coefficients, no zero coefficient.  The public
    constructor checks and sorts outside values; every arithmetic result is
    canonical by construction and is built through _trusted."""

    __slots__ = ("terms",)

    def __init__(self, coeffs=None):
        terms = {}
        for e, c in dict(coeffs or {}).items():
            e, c = _integral(e, "exponent"), _integral(c, "coefficient")
            if c:
                terms[e] = c
        object.__setattr__(self, "terms", tuple(sorted(terms.items())))

    @classmethod
    def _trusted(cls, terms):
        """A polynomial from a terms tuple that is already canonical;
        nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def _summed(cls, acc):
        """The polynomial of an exponent -> int coefficient dict that may
        still hold zero coefficients."""
        return cls._trusted(tuple(sorted(t for t in acc.items() if t[1])))

    @classmethod
    def _constant(cls, n):
        n = int(n)
        return cls._trusted(((0, n),) if n else ())

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls._trusted(())

    @classmethod
    def one(cls):
        return cls._trusted(((0, 1),))

    @classmethod
    def q(cls, exp=1):
        return cls({exp: 1})

    def coefficient(self, exp):
        return dict(self.terms).get(exp, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == LaurentPoly._constant(other).terms
        return NotImplemented

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return hash(self.terms[0][1])
        return hash(self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly._constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms:
            out[e] = get(e, 0) + c
        return LaurentPoly._summed(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly._constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = int(other)
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly._trusted(tuple((e, c * other) for e, c in self.terms))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        get = out.get
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._summed(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"LaurentPoly power needs a non-negative exponent, got {k}")
        out = LaurentPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, exp):
        exp = _integral(exp, "exponent")
        return LaurentPoly._trusted(tuple((e + exp, c) for e, c in self.terms))

    def min_exp(self):
        return self.terms[0][0] if self.terms else None

    def max_exp(self):
        return self.terms[-1][0] if self.terms else None

    def truncated(self, lo, hi):
        """Keep exponents in [lo, hi]."""
        return LaurentPoly._trusted(tuple(t for t in self.terms if lo <= t[0] <= hi))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({dict(self.terms)!r})"


def circle_poly(k=1):
    """(q^-1 + q)^k, the graded rank contributed by k unlabeled circles."""
    return LaurentPoly({-1: 1, 1: 1}) ** k


def smith_invariants(rows):
    """Invariant factors (positive, each dividing the next) of an integer matrix."""
    m = [list(map(int, r)) for r in rows]
    R = len(m)
    C = len(m[0]) if R else 0
    t = 0
    while t < min(R, C):
        # locate a nonzero entry of minimal magnitude in the lower-right block
        best = None
        for i in range(t, R):
            for j in range(t, C):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        pivot = m[t][t]
        dirty = False
        for i in range(t + 1, R):
            q, r = divmod(m[i][t], pivot)
            if q:
                for j in range(t, C):
                    m[i][j] -= q * m[t][j]
            if r:
                dirty = True
        for j in range(t + 1, C):
            q, r = divmod(m[t][j], pivot)
            if q:
                for i in range(t, R):
                    m[i][j] -= q * m[i][t]
            if r:
                dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block for true invariant factors;
        # fold a bad row in and redo this pivot
        offender = None
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if m[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, C):
                m[t][j] += m[offender][j]
            continue
        t += 1
    invs = [abs(m[i][i]) for i in range(t)]
    for a, b in zip(invs, invs[1:]):
        if b % a:
            raise InvariantFactorError(f"invariant factor {a} does not divide {b} in {invs}")
    return invs


def matrix_rank(rows):
    """Rank over Q via fraction-free (Bareiss) elimination."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    R, C = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(C):
        piv = next((i for i in range(r, R) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, R):
            for j in range(c + 1, C):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == R:
            break
    return rank


def unit_cancellation(entries):
    """Eliminate the +-1 pivots of a sparse integer matrix {(row, col): value}.

    Sweeps over the columns, shortest first, take the first unit entry of
    each column that holds one, clear its column with row operations and
    drop its row and column (Bar-Natan, "Fast Khovanov homology
    computations", JKTR 16, 2007).  Returns (units, residual): the number of
    pivots eliminated and what is left, as dense rows without empty rows or
    columns.  The Smith form of the matrix is units ones followed by the
    Smith form of residual, whichever units were taken as pivots.
    """
    rows, cols = {}, {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = v
    return _cancel_units(rows, cols)


def _cancel_units(rows, cols):
    """unit_cancellation on a matrix held twice, as rows {r: {c: v}} and
    columns {c: {r: v}} of the same nonzero entries; both are consumed.

    Each sweep sorts the columns once by their length at its start (stably,
    so equal lengths keep the insertion order of cols) and walks them in
    that order, pivoting on the first unit, in insertion order, of each
    column still present; fill-in can give a column a unit, so sweeps repeat
    until one cancels nothing.  Pivots depend only on lengths and insertion
    orders, and the residual keeps its rows and columns in key order, so
    equal insertion orders, with keys that sort alike, give equal units and
    residual.
    """
    units = 0
    swept = None
    while swept != units:
        swept = units
        for pc in sorted(cols, key=lambda c: len(cols[c])):
            col = cols.get(pc)
            if col is None:
                continue
            for pr, v in col.items():
                if v == 1 or v == -1:
                    break
            else:
                continue
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


class _BlockSummary:
    """What homology reads of one (h, q) block of a differential, made from
    its rows and columns (_cancel_units): the number of unit pivots, then
    the block's rank and its torsion (invariant factors above 1), each
    computed at most once, when first asked for.

    The residual the pivots leave stays only until its invariant factors
    are known, since they give the rank too.
    """

    __slots__ = ("units", "residual", "rank", "torsion")

    def __init__(self, rows, cols):
        self.units, self.residual = _cancel_units(rows, cols)
        self.rank = self.torsion = None

    def smith(self):
        """(rank, torsion) of the block, as homology at its target needs."""
        if self.torsion is None:
            invs = smith_invariants(self.residual)
            self.rank = self.units + len(invs)
            self.torsion = tuple(d for d in invs if d > 1)
            self.residual = None
        return self.rank, self.torsion

    def full_rank(self):
        """The block's rank, as homology at its source needs."""
        if self.rank is None:
            self.rank = self.units + matrix_rank(self.residual)
        return self.rank


# The summary of a block without entries: rank 0, no torsion, already known.
_ZERO_BLOCK = _BlockSummary({}, {})
_ZERO_BLOCK.rank, _ZERO_BLOCK.torsion, _ZERO_BLOCK.residual = 0, (), None


@dataclass(frozen=True)
class Certificate:
    """A lower bound on the quantum degrees at degree -r of a complex
    truncated below: the least of q0 + slope * r over the (q0, slope)
    pairs of bounds.  Bar resolutions shift by a fixed least letter degree
    per bar letter, so one affine bound per resolution certifies them."""

    bounds: tuple

    def __call__(self, r):
        return min(q0 + slope * r for q0, slope in self.bounds)

    def shifted(self, dh=0, dq=0):
        """The certificate of the complex shifted by dh homological and dq
        quantum degrees: r -> self(r + dh) + dq."""
        return Certificate(tuple((q0 + slope * dh + dq, slope) for q0, slope in self.bounds))


@dataclass(frozen=True)
class BigradedHomology:
    """Free ranks and torsion of a complex on a bidegree window."""

    betti: dict
    torsion: dict
    window: tuple

    def euler_series(self):
        """Alternating sum of the free ranks over homological degrees, per
        quantum degree of the window."""
        out = {}
        for (i, j), b in self.betti.items():
            out[j] = out.get(j, 0) + (-1) ** (i % 2) * b
        return LaurentPoly._summed(out)

    def rows(self):
        keys = sorted(set(self.betti) | set(self.torsion))
        out = []
        for i, j in keys:
            b = self.betti.get((i, j), 0)
            tor = self.torsion.get((i, j), ())
            if b or tor:
                out.append((i, j, b, tuple(tor)))
        return out


def sparse_product(first, second, compose, a, b, c):
    """The composite of two sparse maps {(row, col): entry}: first from the
    cells a to the cells b, then second from b to c.

    second is indexed by source once.  The entry x of first at (k, j) and
    the entry y of second at (i, k) multiply as compose(a[j][0], b[k][0],
    c[i][0], x, y) into (i, j).  Keys enter the result in the order a
    nested scan, over first outside and second inside, first reaches them.
    """
    by_source = {}
    for (i, k), y in second.items():
        by_source.setdefault(k, []).append((i, y))
    out = {}
    for (k, j), x in first.items():
        for i, y in by_source.get(k, ()):
            p = compose(a[j][0], b[k][0], c[i][0], x, y)
            out[(i, j)] = out[(i, j)] + p if (i, j) in out else p
    return out


class SparseComplex:
    """A cochain complex of graded cells with sparse differentials.

    cells: {h: ((payload, qdeg), ...)}; differentials: {h: {(i, j): entry}}
    with entry the map from cell j of degree h to cell i of degree h+1.
    Entries negate as -x and compose by the class's compose(a, b, c, x, y),
    x from payload a to b and y from b to c.  Degrees above h_max are zero;
    degrees below h_min are zero (complete complexes) or merely not
    computed, in which case the Certificate certificate(r) bounds from
    below the quantum degrees at degree -r.  q_range = (lo, hi), when set,
    is the window of quantum degrees the stored cells hold, None at an
    unbounded end: the complex is then only the direct summand of those
    q-strands, and require_window refuses (WindowError) what needs more.

    Every construction stores its arguments (_build, a subclass's with its
    own parameters) and then validates them (_validate: cells in [h_min,
    h_max], entries in range, nonzero and accepted by the class's
    _entry_fault, d^2 = 0 by the class's _square), so a complex that exists
    is a complex; only _trusted skips the second step.  ChainMap asks the
    same _entry_fault of each map component.
    """

    def __init__(self, *args, **kwargs):
        self._build(*args, **kwargs)
        self._validate()

    @classmethod
    def _trusted(cls, *args, **kwargs):
        """cls(*args, **kwargs) without _validate: only for derivations of
        validated complexes whose checks theirs imply (shifted,
        ChainMap.cone, TwistedTangleComplex.stacked)."""
        cx = cls.__new__(cls)
        cx._build(*args, **kwargs)
        return cx

    def _build(self, cells, differentials, h_min, h_max, complete, certificate,
               q_range=None):
        self.cells = {h: tuple(cc) for h, cc in cells.items() if cc}
        self.differentials = {h: dict(d) for h, d in differentials.items() if d}
        degrees = sorted(self.cells)
        self.h_min = h_min if h_min is not None else (degrees[0] if degrees else 0)
        self.h_max = h_max if h_max is not None else (degrees[-1] if degrees else 0)
        self.complete = complete
        self.certificate = certificate
        self.q_range = None if q_range is None else tuple(q_range)

    @staticmethod
    def _entry_fault(src, tgt, entry):
        """Why entry cannot map the cell src to the cell tgt, a phrase after
        "entry (i, j) at degree h", or None; each class says what fits."""
        return None

    # The composite d_{h+1} d_h that _validate requires to vanish, with
    # sparse_product's signature and nonzero entries: by default
    # sparse_product itself; a class whose entries repeat may compose each
    # distinct pair once instead.
    _square = staticmethod(sparse_product)

    def _misfit(self, entries, src, tgt):
        """(key, phrase) for the first entry of the sparse map entries from
        the cells src to tgt that is out of range or that _entry_fault
        refuses, or None."""
        fault_of = self._entry_fault
        n_src, n_tgt = len(src), len(tgt)
        for (i, j), x in entries.items():
            if not (0 <= j < n_src and 0 <= i < n_tgt):
                return (i, j), "is out of range"
            fault = fault_of(src[j], tgt[i], x)
            if fault:
                return (i, j), fault
        return None

    def _validate(self):
        cells, diffs = self.cells, self.differentials
        for h in cells:
            if not (self.h_min <= h <= self.h_max):
                raise GradingError(f"cells at degree {h} outside [{self.h_min}, {self.h_max}]")
        for h, d in diffs.items():
            misfit = self._misfit(d, cells.get(h, ()), cells.get(h + 1, ()))
            if misfit:
                raise GradingError(f"entry {misfit[0]} at degree {h} {misfit[1]}")
            if not all(d.values()):
                zero = next(k for k, x in d.items() if not x)
                raise GradingError(f"zero differential entry stored at degree {h}: {zero}")
        for h in sorted(diffs):
            if h + 1 in diffs:
                prod = self._square(diffs[h], diffs[h + 1], self.compose,
                                    cells[h], cells[h + 1], cells[h + 2])
                bad = {k: x for k, x in prod.items() if x}
                if bad:
                    raise ChainMapError(f"d^2 != 0 from degree {h}: {sorted(bad.items())[:4]}")

    def require_window(self, what, j1=None, j2=None):
        """Raise WindowError unless the quantum degrees j1..j2 lie in the
        window q_range.  None at an end of either range is unbounded, so
        by default the query needs every quantum degree; an empty query
        (j1 > j2) needs none."""
        window = self.q_range
        if window is None or (j1 is not None and j2 is not None and j1 > j2):
            return
        lo, hi = window
        if ((lo is None or j1 is not None and lo <= j1)
                and (hi is None or j2 is not None and j2 <= hi)):
            return
        span = "every quantum degree" if j1 is None and j2 is None else f"q {_interval(j1, j2)}"
        raise WindowError(f"{what} needs {span}; this complex holds only "
                          f"the q-window {_interval(lo, hi)}")

    def min_q_at(self, h):
        """Smallest quantum degree that can occur at degree h, or None if empty."""
        if h > self.h_max:
            return None
        if h >= self.h_min:
            self.require_window(f"min_q_at({h})")
            return min((q for _, q in self.cells.get(h, ())), default=None)
        if self.complete:
            return None
        if self.certificate is None:
            raise TruncationError(f"degree {h} lies below the truncation and no certificate is stored")
        return self.certificate(-h)

    def require_series(self, j1, j2, what):
        """Raise TruncationError if the degrees below h_min, which are not
        stored, can reach a quantum degree at most j2: a series over the
        quantum degrees j1..j2 would need them.  An empty query (j1 > j2)
        needs none."""
        if j1 > j2:
            return
        bound = self.min_q_at(self.h_min - 1)
        if bound is not None and bound <= j2:
            raise TruncationError(f"{what} at q={max(j1, bound)} needs degrees below "
                                  f"{self.h_min} (certificate bound {bound})")

    def shifted(self, dh=0, dq=0):
        cells = {h + dh: tuple((p, q + dq) for p, q in cc) for h, cc in self.cells.items()}
        diffs = {h + dh: {k: -x if dh % 2 else x for k, x in d.items()}
                 for h, d in self.differentials.items()}
        cert = None if self.certificate is None else self.certificate.shifted(dh, dq)
        window = None if self.q_range is None else tuple(None if e is None else e + dq
                                                         for e in self.q_range)
        return type(self)._trusted(cells, diffs, self.h_min + dh, self.h_max + dh,
                                   self.complete, cert, q_range=window)

    @staticmethod
    def _cone_cell(side, cell):
        """How a mapping cone stores a cell of its source ("src") or target
        ("tgt") side."""
        return cell


def _interval(lo, hi):
    """[lo, hi], with an open infinite end where lo or hi is None."""
    left = "(-inf" if lo is None else f"[{lo}"
    right = "inf)" if hi is None else f"{hi}]"
    return f"{left}, {right}"


def _meet(a, b):
    """The intersection of two q-windows, None meaning every quantum degree."""
    if a is None or b is None:
        return b if a is None else a
    los = [e for e in (a[0], b[0]) if e is not None]
    his = [e for e in (a[1], b[1]) if e is not None]
    return max(los, default=None), min(his, default=None)


def defect_degrees(source, target, components):
    """The degrees h from which f d or d f can be nonzero: those where
    components f has f_{h+1} and source a d_h, or f has f_h and target a
    d_h, in increasing order."""
    return sorted({h for h, d in source.differentials.items() if d and components.get(h + 1)}
                  | {h for h, f in components.items() if f and target.differentials.get(h)})


class TruncatedComplex(SparseComplex):
    """Bigraded cochain complex of free abelian groups, possibly truncated below.

    generators: {h: ((label, qdeg), ...)}
    differentials: {h: {(target_index, source_index): coeff}} for the map from
    degree h to degree h+1.

    Neither may be mutated after construction: the first homology query
    indexes the differential by (h, q) block and keeps one _BlockSummary
    per block, in place of the block, for every later query.  shifted and
    cone build new complexes; a cone labels its generators ("tgt", label)
    and ("src", label).
    """

    def _build(self, generators, differentials, h_min=None, h_max=None,
               complete=True, certificate=None, q_range=None):
        super()._build(generators, differentials, h_min, h_max, complete, certificate,
                       q_range)
        self._index = None

    @property
    def generators(self):
        return self.cells

    @staticmethod
    def compose(a, b, c, x, y):
        return x * y

    @staticmethod
    def _cone_cell(side, cell):
        return (side, cell[0]), cell[1]

    @staticmethod
    def _entry_fault(src, tgt, c):
        if src[1] != tgt[1]:
            return f"does not preserve the quantum degree: {src} -> {tgt}"
        return None

    def _block_index(self):
        """(sizes, blocks): generators per (h, q), in the order homology
        walks a window (q outside, h inside), and the _BlockSummary of each
        nonzero block of the differential from h to h+1 in quantum degree
        q, keyed on (h, q).  Built in one pass on first use, unit
        cancellation of every block included, so the first query on a
        complex pays for all of it and what a later query costs does not
        depend on the queries before it.

        Each in-range, q-preserving nonzero entry goes straight into its
        block's rows {i: {j: c}} and columns {j: {i: c}}, keyed by the
        generators' indices in their degrees.  Those sort as the
        generators' places within the block do, so a block's units and
        residual are those of its entries renumbered by place."""
        if self._index is None:
            qs = {h: [q for _, q in gens] for h, gens in self.generators.items()}
            counts = [((h, q), n) for h, col in qs.items() for q, n in Counter(col).items()]
            sizes = dict(sorted(counts, key=lambda c: (c[0][1], c[0][0])))
            blocks = {}
            for h, d in self.differentials.items():
                src, tgt = qs.get(h, ()), qs.get(h + 1, ())
                n_src, n_tgt = len(src), len(tgt)
                by_q = {}
                for (i, j), c in d.items():
                    if c and 0 <= i < n_tgt and 0 <= j < n_src and src[j] == tgt[i]:
                        block = by_q.get(src[j])
                        if block is None:
                            block = by_q[src[j]] = ({}, {})
                        rows, cols = block
                        row = rows.get(i)
                        if row is None:
                            rows[i] = {j: c}
                        else:
                            row[j] = c
                        col = cols.get(j)
                        if col is None:
                            cols[j] = {i: c}
                        else:
                            col[i] = c
                for q, (rows, cols) in by_q.items():
                    blocks[(h, q)] = _BlockSummary(rows, cols)
            self._index = sizes, blocks
        return self._index

    def _require_known(self, h, j):
        """Raise unless the chain group at (h, j) is fully stored or provably
        zero; the caller has checked j against the q-window."""
        if h > self.h_max or h >= self.h_min or self.complete:
            return
        bound = self.min_q_at(h)
        if bound is None or j < bound:
            return
        raise TruncationError(
            f"chain group at (h={h}, q={j}) is beyond the truncation (certificate bound {bound})"
        )

    def homology_at(self, i, j):
        """(betti, torsion) of H^{i, j}; exact, or WindowError outside the
        q-window, TruncationError beyond the truncation, and SpecError for
        a cell that is not two ints.  The one reader of a cell: homology
        reads each cell of its window through it."""
        if type(i) is not int or type(j) is not int:
            raise SpecError(f"a homology cell must be a pair of integers, got {(i, j)!r}")
        if self.q_range is not None:
            self.require_window("a chain group", j, j)
        # _require_known passes every degree at or above h_min at once
        if i - 1 < self.h_min and not self.complete:
            self._require_known(i - 1, j)
            self._require_known(i, j)
            self._require_known(i + 1, j)
        sizes, blocks = self._block_index()
        rank_in, torsion = blocks.get((i - 1, j), _ZERO_BLOCK).smith()
        rank_out = blocks.get((i, j), _ZERO_BLOCK).full_rank()
        n_i = sizes.get((i, j), 0)
        betti = n_i - rank_in - rank_out
        if betti < 0:
            raise ChainMapError(f"d^2 != 0 at (h={i}, q={j}): incoming rank {rank_in} "
                                f"and outgoing rank {rank_out} exceed {n_i} generators")
        return betti, torsion

    def homology(self, h_range, q_range, threads=None):
        """Homology on the window; threads is accepted for compatibility and
        does not change how or what is computed.

        Each cell is read once, through homology_at, q outside and h inside,
        so a window raises what its first refused or faulty cell raises.
        No cell of a clean window can be refused: it lies inside the
        q-window, and the complex is complete or i1 - 1 >= h_min.  A clean
        window reads only its cells that hold generators, since a cell
        without them has no block into or out of it and is (0, ()); any
        other window reads every cell."""
        i1, i2 = expect(h_range, "a pair of integers", "h_range")
        j1, j2 = expect(q_range, "a pair of integers", "q_range")
        lo, hi = self.q_range or (None, None)
        if ((lo is None or lo <= j1) and (hi is None or j2 <= hi)
                and (self.complete or i1 - 1 >= self.h_min)):
            cells = [c for c in self._block_index()[0]
                     if i1 <= c[0] <= i2 and j1 <= c[1] <= j2]
        else:
            cells = [(i, j) for j in range(j1, j2 + 1) for i in range(i1, i2 + 1)]
        betti, torsion = {}, {}
        for i, j in cells:
            b, tor = self.homology_at(i, j)
            if b:
                betti[(i, j)] = b
            if tor:
                torsion[(i, j)] = tor
        return BigradedHomology(betti, torsion, (h_range, q_range))

    def euler_series(self, q_range):
        """Alternating sum of the generator counts over homological degrees,
        per quantum degree of q_range."""
        j1, j2 = q_range
        self.require_window("euler_series", j1, j2)
        self.require_series(j1, j2, "euler series")
        out = {}
        for h, gens in self.generators.items():
            for _, j in gens:
                if j1 <= j <= j2:
                    out[j] = out.get(j, 0) + (-1) ** (h % 2)
        return LaurentPoly._summed(out)


class ChainMap:
    """A degree-(0,0) map of complexes of one class, stored sparsely per
    degree; its entries pass the class's _entry_fault but may be zero."""

    def __init__(self, source, target, components):
        if type(source) is not type(target):
            raise ChainMapError(f"a map from {type(source).__name__} to {type(target).__name__}")
        self.source = source
        self.target = target
        self.components = {h: dict(d) for h, d in components.items() if d}
        self.verify()

    def verify(self):
        source, target, f = self.source, self.target, self.components
        for h, comp in f.items():
            misfit = target._misfit(comp, source.cells.get(h, ()), target.cells.get(h, ()))
            if misfit:
                raise ChainMapError(f"component {misfit[0]} at degree {h} {misfit[1]}")
        # f d - d f from degree h of source to degree h+1 of target
        for h in defect_degrees(source, target, f):
            a, c = source.cells.get(h, ()), target.cells.get(h + 1, ())
            defect = sparse_product(source.differentials.get(h, {}), f.get(h + 1, {}),
                                    source.compose, a, source.cells.get(h + 1, ()), c)
            df = sparse_product(f.get(h, {}), target.differentials.get(h, {}),
                                source.compose, a, target.cells.get(h, ()), c)
            for k, x in df.items():
                defect[k] = defect[k] - x if k in defect else -x
            bad = [k for k, x in defect.items() if x]
            if bad:
                raise ChainMapError(
                    f"does not commute with differentials at degree {h}: {sorted(bad)[:4]}")

    def cone(self):
        """Mapping cone, a complex of the target's class whose degree h
        holds target^h, then source^{h+1}."""
        a, b, f = self.source, self.target, self.components
        cells, diffs, offs = {}, {}, {}
        h_lo = min(a.h_min - 1, b.h_min)
        h_hi = max(a.h_max - 1, b.h_max)
        for h in range(h_lo, h_hi + 1):
            bucket = [b._cone_cell("tgt", cell) for cell in b.cells.get(h, ())]
            offs[h] = len(bucket)
            bucket.extend(b._cone_cell("src", cell) for cell in a.cells.get(h + 1, ()))
            cells[h] = bucket
        for h in range(h_lo, h_hi):
            d = dict(b.differentials.get(h, {}))
            # a map may hold zeros (coarsen sums cancel); a differential may not
            for (i, j), x in f.get(h + 1, {}).items():
                if x:
                    d[(i, offs[h] + j)] = x
            for (i, j), x in a.differentials.get(h + 1, {}).items():
                d[(offs[h + 1] + i, offs[h] + j)] = -x
            diffs[h] = d
        complete = a.complete and b.complete
        # cone degree -r holds target^{-r} and source^{-r + 1}
        sides = [(side.certificate, dh) for side, dh in ((b, 0), (a, -1)) if not side.complete]
        cert = None
        if sides and all(c is not None for c, _dh in sides):
            cert = Certificate(tuple(bound for c, dh in sides for bound in c.shifted(dh=dh).bounds))
        # the cone of the q-strand summands is the cone's q-strand summand
        return type(b)._trusted(cells, diffs, h_lo, h_hi, complete, cert,
                                q_range=_meet(a.q_range, b.q_range))
