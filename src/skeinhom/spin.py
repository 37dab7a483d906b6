"""Skein-level arithmetic in the Temperley-Lieb category and cross-checks
against truncated Euler series of the categorified complexes.

Coefficients are exact rational functions in q.  The module provides
Jones-Wenzl idempotents, closed evaluations (a loop as the closure of its
idempotent, a colored theta graph by the quantum-factorial formula),
admissibly colored networks on triangulated surfaces with their predicted
self-pairings, and crosscheck reports comparing those closed forms against
Euler series computed from the chain level.  Theta values and pairings are
products of quantum integers, so they are built from exponents of
cyclotomic polynomials, reduced with no gcd.  The diagrammatic theta
evaluation is kept as a test oracle.
"""

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import memo
from .barproj import bottom_projector
from .errors import (AdmissibilityError, InexactDivision, InvalidBoundary, SpecError,
                     TruncationError, expect)
from .homalg import LaurentPoly, circle_poly
from .planar import (PlanarTangle, bend_down, bend_up, compose, cup_over_cap, identity_tangle,
                     juxtapose)
from .surface import SurfaceComplex, SurfaceSpec, SurfaceTangle, arc, seam_side
from .tqft import hom_double


def quantum_integer(k):
    """[k] = q^{k-1} + q^{k-3} + ... + q^{1-k} as a Laurent polynomial."""
    if k < 0:
        raise InvalidBoundary(f"quantum integer of negative index {k}")
    return LaurentPoly({k - 1 - 2 * i: 1 for i in range(k)})


def _primitive(coeffs):
    """Integer coefficients divided by their content, with positive lead."""
    content = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _prem(a, b):
    """Pseudo-remainder of dense ascending integer lists: an integer multiple
    of the remainder of a by b over the rationals, trailing zeros dropped."""
    a = list(a)
    lb, db = b[-1], len(b) - 1
    while len(a) > db:
        la = a.pop()
        if not la:
            continue
        g = math.gcd(la, lb)
        ma, mb = lb // g, la // g
        if ma != 1:
            a = [ma * c for c in a]
        shift = len(a) - db
        for i in range(db):
            a[shift + i] -= mb * b[i]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(a, b):
    """Primitive gcd with positive lead of two nonzero integer lists, by the
    primitive polynomial remainder sequence; a constant remainder ends it
    with gcd 1."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        a, b = b, _prem(a, b)
        if not b:
            return a
        b = _primitive(b)
    return [1]


def _poly_div_exact(a, g):
    """Quotient of integer lists when g divides a over the integers."""
    r = list(a)
    lg, dg = g[-1], len(g) - 1
    out = [0] * max(len(r) - dg, 0)
    for deg in range(len(out) - 1, -1, -1):
        lead, rem = divmod(r[deg + dg], lg)
        if rem:
            raise InexactDivision(f"{g} does not divide {a} over the integers")
        out[deg] = lead
        if lead:
            for i in range(dg):
                r[deg + i] -= lead * g[i]
    if any(r[:dg]):
        raise InexactDivision(f"{g} does not divide {a}: remainder {r[:dg]}")
    return out


@memo.cache
def _cyclotomic(d):
    """Ascending integer coefficients of the d-th cyclotomic polynomial
    Phi_d(x): x^d - 1 divided exactly by Phi_k for every proper divisor k
    of d."""
    if type(d) is not int or d < 1:
        raise InvalidBoundary(f"no cyclotomic polynomial of index {d!r}")
    out = [-1] + [0] * (d - 1) + [1]
    for k in range(1, d):
        if d % k == 0:
            out = _poly_div_exact(out, _cyclotomic(k))
    return tuple(out)


def _times_power(a, factor, e):
    """a * factor^e for dense ascending integer lists."""
    terms = [(i, c) for i, c in enumerate(factor) if c]
    for _ in range(e):
        out = [0] * (len(a) + len(factor) - 1)
        for i, c in terms:
            for j, x in enumerate(a, i):
                out[j] += c * x
        a = out
    return a


# A value q^shift * prod Phi_d(q^2)^e_d is kept as (shift, signature): the
# signature is the tuple of its (d, e_d) with e_d nonzero, sorted by d, so
# equal values have equal signatures.

def _signature(exponents):
    """The signature of a mapping {d: e_d}."""
    return tuple(sorted((d, e) for d, e in exponents.items() if e))


def _quantum_integer_exponents(n):
    """[n] = q^(1-n) * prod_{d | n, d > 1} Phi_d(q^2), for n >= 1, as
    (shift, signature)."""
    return 1 - n, tuple((d, 1) for d in range(2, n + 1) if n % d == 0)


def _factorial_exponents(n):
    """[n]! = [1][2]...[n] as (shift, signature): the shifts 1 - m add up,
    and Phi_d comes from each of the floor(n/d) multiples of d."""
    return -n * (n - 1) // 2, tuple((d, n // d) for d in range(2, n + 1))


def _sum_exponents(factors):
    """(shift, signature) of a product of values, from ((shift, signature),
    sign) pairs; sign -1 divides by the value."""
    shift, total = 0, {}
    for (s, signature), sign in factors:
        shift += sign * s
        for d, e in signature:
            total[d] = total.get(d, 0) + sign * e
    return shift, _signature(total)


def _coeff_list(poly):
    lo, hi = poly.min_exp(), poly.max_exp()
    coeffs = [0] * (hi - lo + 1)
    for e, c in poly.terms:
        coeffs[e - lo] = c
    return lo, coeffs


_ONE = LaurentPoly.one()


def _is_one(poly):
    return poly.terms == _ONE.terms


def _laurent(value):
    """An int or a LaurentPoly as a LaurentPoly; TypeError for anything else."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    raise TypeError(f"a RationalFunctionQ is built from ints and LaurentPolys, "
                    f"not {type(value).__name__}")


class RationalFunctionQ:
    """Quotient of integer Laurent polynomials in q, kept in reduced form.

    The denominator is a genuine polynomial with a nonzero constant term,
    positive leading coefficient, and no common factor (content or
    polynomial) with the numerator; any power of q is carried by the
    numerator.  Equality of reduced forms is literal equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RationalFunctionQ):
            if den is not None:
                raise TypeError("a RationalFunctionQ takes no separate denominator")
            object.__setattr__(self, "num", num.num)
            object.__setattr__(self, "den", num.den)
            return
        num = _laurent(num)
        den = _ONE if den is None else _laurent(den)
        if _is_one(den):
            # over one, every numerator is already reduced
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", _ONE)
            return
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            object.__setattr__(self, "num", LaurentPoly.zero())
            object.__setattr__(self, "den", _ONE)
            return
        nlo, ncs = _coeff_list(num)
        dlo, dcs = _coeff_list(den)
        g = _poly_gcd(ncs, dcs)
        ncs = _poly_div_exact(ncs, g)
        dcs = _poly_div_exact(dcs, g)
        content = math.gcd(math.gcd(*(abs(c) for c in ncs)), math.gcd(*(abs(c) for c in dcs)))
        sign = 1 if dcs[-1] > 0 else -1
        shift = nlo - dlo
        object.__setattr__(self, "num", LaurentPoly._trusted(
            tuple((shift + i, sign * c // content) for i, c in enumerate(ncs) if c)))
        object.__setattr__(self, "den", LaurentPoly._trusted(
            tuple((i, sign * c // content) for i, c in enumerate(dcs) if c)))

    @classmethod
    def from_exponents(cls, shift, exponents):
        """q^shift * prod Phi_d(q^2)^e_d over the d with e_d > 0, divided by
        prod Phi_d(q^2)^(-e_d) over the d with e_d < 0, for exponents a
        mapping {d: e_d}.  Distinct cyclotomic polynomials are coprime
        irreducibles with lead 1 and constant term +-1, so this quotient is
        already the reduced form: no gcd is taken.  Equal signatures (the
        shift and the sorted nonzero (d, e_d)) give one shared value, built
        on first use."""
        return _from_signature(shift, _signature(exponents))

    def __setattr__(self, *a):
        raise AttributeError("RationalFunctionQ is immutable")

    @classmethod
    def zero(cls):
        return cls(0)

    @classmethod
    def one(cls):
        return cls(1)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalFunctionQ(other)
        return (
            isinstance(other, RationalFunctionQ)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # over one it equals its numerator, so it hashes as that
        if _is_one(self.den):
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RationalFunctionQ(other)
        return RationalFunctionQ(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionQ(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunctionQ(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFunctionQ(other)
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunctionQ(other)
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunctionQ(self.num * other.den, self.den * other.num)

    def series(self, lo, hi):
        """Coefficients of the q-power-series expansion on [lo, hi], as a
        dict of nonzero Fractions.  The inverse series of the denominator
        divides by its constant term c at each step; when c is +-1, as for
        every product of cyclotomic polynomials, 1/c is the int c and the
        whole recurrence runs in integers."""
        if not self.num:
            return {}
        nlo = self.num.min_exp()
        length = hi - nlo + 1
        if length <= 0:
            return {}
        (_e0, c0), *tail = self.den.terms
        unit = c0 if c0 in (1, -1) else Fraction(1, c0)
        inv = [unit]
        for m in range(1, length):
            acc = 0
            for t, c in tail:
                if t > m:
                    break
                acc += c * inv[m - t]
            inv.append(-acc * unit)
        out = {}
        for e, c in self.num.terms:
            for m in range(max(lo - e, 0), min(hi - e + 1, length)):
                out[e + m] = out.get(e + m, 0) + c * inv[m]
        return {e: Fraction(c) for e, c in out.items() if c}

    def series_poly(self, lo, hi):
        """Series on [lo, hi] as a LaurentPoly; the window must be integral."""
        coeffs = self.series(lo, hi)
        bad = {e: c for e, c in coeffs.items() if c.denominator != 1}
        if bad:
            raise ValueError(f"series has non-integer coefficients at {sorted(bad)}")
        return LaurentPoly({e: int(c) for e, c in coeffs.items()})

    def __str__(self):
        if _is_one(self.den):
            return str(self.num)
        return f"{self.num} / {self.den}"

    def __repr__(self):
        return f"RationalFunctionQ({self.num!r}, {self.den!r})"


@memo.cache
def _from_signature(shift, signature):
    """RationalFunctionQ.from_exponents for a (shift, signature)."""
    num, den = [1], [1]
    for d, e in signature:
        if e > 0:
            num = _times_power(num, _cyclotomic(d), e)
        else:
            den = _times_power(den, _cyclotomic(d), -e)
    value = object.__new__(RationalFunctionQ)
    object.__setattr__(value, "num", LaurentPoly({shift + 2 * i: c for i, c in enumerate(num)}))
    object.__setattr__(value, "den", LaurentPoly({2 * i: c for i, c in enumerate(den)}))
    return value


def _times(a, b):
    """a * b, with no product when either is one."""
    if _is_one(b):
        return a
    if _is_one(a):
        return b
    return a * b


def _fraction_sum(terms):
    """Sum of (numerator, denominator) pairs of Laurent polynomials, reduced
    once: numerators over equal denominators are added, the groups are
    brought over the product of their denominators, starting from the
    first group, and only the total becomes a RationalFunctionQ.  Terms
    all over one therefore take no product and no gcd."""
    by_den = {}
    for num, den in terms:
        acc = by_den.get(den)
        by_den[den] = num if acc is None else acc + num
    groups = iter(by_den.items())
    den, num = next(groups, (_ONE, LaurentPoly.zero()))
    for d, n in groups:
        num, den = _times(num, d) + _times(n, den), _times(den, d)
    return RationalFunctionQ(num, den)


def as_quantum_integer(value):
    """The k with value = [k], or None."""
    if not isinstance(value, RationalFunctionQ):
        value = RationalFunctionQ(value)
    if not _is_one(value.den):
        return None
    if not value.num:
        return 0
    k = value.num.max_exp() + 1
    return k if k >= 1 and value.num == quantum_integer(k) else None


class TLElement:
    """Formal sum of crossingless (n, n)-tangles with rational-function
    coefficients; free circles are folded into the coefficients as [2]."""

    __slots__ = ("strands", "terms")

    def __init__(self, strands, terms=None):
        clean = {}
        for d, coeff in (terms or {}).items():
            if d.bottom != strands or d.top != strands:
                raise InvalidBoundary(
                    f"({d.bottom}, {d.top})-tangle in an element on {strands} strands"
                )
            coeff = RationalFunctionQ(coeff)
            if d.circles:
                coeff = coeff * circle_poly(d.circles)
                d = d.strip_circles()
            if coeff:
                acc = clean.get(d)
                coeff = coeff if acc is None else acc + coeff
                if coeff:
                    clean[d] = coeff
                else:
                    clean.pop(d, None)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TLElement is immutable")

    def coefficient(self, tangle):
        return self.terms.get(tangle.strip_circles(), RationalFunctionQ.zero())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, TLElement)
            and self.strands == other.strands
            and self.terms == other.terms
        )

    def __add__(self, other):
        if self.strands != other.strands:
            raise InvalidBoundary("cannot add elements on different strand counts")
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, RationalFunctionQ.zero()) + c
        return TLElement(self.strands, out)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, coeff):
        coeff = RationalFunctionQ(coeff)
        return TLElement(self.strands, {d: c * coeff for d, c in self.terms.items()})

    def __repr__(self):
        body = "; ".join(f"({c})*{d.partner}" for d, c in sorted(self.terms.items(), key=repr))
        return f"TLElement({self.strands}: {body or '0'})"


def identity_element(n):
    return TLElement(n, {identity_tangle(n): 1})


def cup_cap_at(n, i):
    """The tangle joining strands i, i+1 by a cup below and a cap above."""
    if not 0 <= i <= n - 2:
        raise InvalidBoundary(f"no strand pair at {i} on {n} strands")
    partner = list(range(n, 2 * n)) + list(range(n))
    partner[i], partner[i + 1] = i + 1, i
    partner[n + i], partner[n + i + 1] = n + i + 1, n + i
    return PlanarTangle(n, n, tuple(partner))


def tl_compose(x, y):
    """Stack y on top of x; closed circles become factors of [2].  The
    products of each resulting diagram are summed and reduced once
    (_fraction_sum): a denominator that is one takes no product and a
    stack that closes no circle no circle factor, so elements with
    polynomial coefficients compose with no gcd."""
    if x.strands != y.strands:
        raise InvalidBoundary(
            f"composing elements on {x.strands} and {y.strands} strands"
        )
    out = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            d = compose(dy, dx)
            num = cx.num * cy.num
            if d.circles:
                num = num * circle_poly(d.circles)
                d = d.strip_circles()
            out.setdefault(d, []).append((num, _times(cx.den, cy.den)))
    return TLElement(x.strands, {d: _fraction_sum(terms) for d, terms in out.items()})


def tl_tensor(x, y):
    out = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            out[juxtapose(dx, dy)] = cx * cy
    return TLElement(x.strands + y.strands, out)


def tl_closure(x):
    """Annular trace: every strand is closed off and each circle gives [2]."""
    around = bend_up(identity_tangle(x.strands))
    return _fraction_sum(
        (c.num * circle_poly(compose(bend_down(d), around).circles), c.den)
        for d, c in x.terms.items()
    )


@memo.cache
def wenzl(n):
    """The n-strand Jones-Wenzl idempotent JW_n = W_n / [n]!, each
    coefficient of the cleared idempotent W_n (_cleared_wenzl) reduced
    once."""
    if n < 0:
        raise InvalidBoundary(f"negative strand count {n}")
    factorial = math.prod(map(quantum_integer, range(2, n + 1)), start=_ONE)
    return TLElement(n, {d: RationalFunctionQ(c.num, factorial)
                         for d, c in _cleared_wenzl(n).terms.items()})


@memo.cache
def _cleared_wenzl(n):
    """W_n = [n]! JW_n, whose coefficients are Laurent polynomials, by the
    single-clasp recursion (S. Morrison, arXiv:1503.00384)

        JW_n = P (1 + sum_{i=1}^{n-1} (-1)^{n-i} [i]/[n] E_i),
        P = JW_{n-1} (x) 1,  E_i = e_{n-1} e_{n-2} ... e_i,

    where e_k joins strands k-1, k, with its denominators cleared:

        W_n = (W_{n-1} (x) 1) ([n] + sum_{i=1}^{n-1} (-1)^{n-i} [i] E_i).

    Each step composes P with one element of n single diagrams, and every
    product and sum stays polynomial, so no step takes a gcd."""
    if n <= 1:
        return identity_element(n)
    clasp = {identity_tangle(n): quantum_integer(n)}
    word = None
    for i in range(n - 1, 0, -1):
        e = cup_cap_at(n, i - 1)
        word = e if word is None else compose(e, word)
        clasp[word] = quantum_integer(i) * (-1) ** ((n - i) % 2)
    return tl_compose(tl_tensor(_cleared_wenzl(n - 1), identity_element(1)),
                      TLElement(n, clasp))


def admissible_triple(a, b, c):
    """Even total and triangle inequalities; the condition for a trivalent
    vertex joining colors a, b, c to exist."""
    if min(a, b, c) < 0 or (a + b + c) % 2:
        return False
    return a + b >= c and b + c >= a and c + a >= b


def _vertex_tangle(a, b, c):
    """The trivalent vertex as an (a+b, c)-tangle: i cups between the a and
    b groups, the remaining strands passing through."""
    i = (a + b - c) // 2
    j = (b + c - a) // 2
    k = (c + a - b) // 2
    partner = [None] * (a + b + c)

    def pair(p, q):
        partner[p], partner[q] = q, p

    for t in range(i):
        pair(a - 1 - t, a + t)
    for t in range(k):
        pair(t, a + b + t)
    for u in range(j):
        pair(a + i + u, a + b + k + u)
    return PlanarTangle(a + b, c, tuple(partner))


def loop(a):
    """Closure of the a-strand Jones-Wenzl idempotent; equals [a+1].  A color
    that is not a non-negative int is a SpecError."""
    return _loop(expect(a, "a non-negative integer", "loop: color"))


@memo.cache
def _loop(a):
    return tl_closure(wenzl(a))


@memo.cache
def _loop_exponents(c):
    """(shift, signature) of loop(c), read back as a quantum integer [k] once
    per color; InexactDivision if it is not one."""
    value = loop(c)
    k = as_quantum_integer(value)
    if not k:
        raise InexactDivision(f"loop({c}) = {value} is not a quantum integer [k], k >= 1")
    return _quantum_integer_exponents(k)


def theta(a, b, c):
    """Evaluation of the theta graph with edges colored a, b, c, each edge
    carrying its Jones-Wenzl idempotent; zero when inadmissible, and a
    SpecError for a color that is not a non-negative int.

    With the internal colors i, j, k (the strands each pair of edges
    shares), the graph is the ratio of quantum factorials

        [i+j+k+1]! [i]! [j]! [k]! / ([i+j]! [j+k]! [k+i]!)

    (Kauffman-Lins, Temperley-Lieb Recoupling Theory, 1994; Masbaum-Vogel,
    Pacific J. Math. 164, 1994).  It is symmetric in the edges, so its
    exponents are cached per sorted triple."""
    expect(a, "a non-negative integer", "theta: color a")
    expect(b, "a non-negative integer", "theta: color b")
    expect(c, "a non-negative integer", "theta: color c")
    a, b, c = sorted((a, b, c))
    if not admissible_triple(a, b, c):
        return RationalFunctionQ.zero()
    return _from_signature(*_theta_exponents(a, b, c))


@memo.cache
def _theta_exponents(a, b, c):
    """(shift, signature) of theta(a, b, c) for an admissible a <= b <= c:
    the exponents of its four numerator factorials less those of its three
    denominator factorials."""
    i, j, k = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    return _sum_exponents(
        (_factorial_exponents(n), sign) for n, sign in (
            (i + j + k + 1, 1), (i, 1), (j, 1), (k, 1), (i + j, -1), (j + k, -1), (k + i, -1)))


@dataclass(frozen=True)
class SpinNetwork:
    """A triangulated surface together with a coloring of its arcs and seams.

    The coloring is kept as a read-only copy, so a checked network stays
    checked; networks hash by their surface and the set of their colors."""

    surface: SurfaceSpec
    coloring: Mapping

    @classmethod
    def from_data(cls, data):
        """The network of {"surface": spec, "coloring": {segment: color}};
        SpecError names the field of anything malformed."""
        expect(data, "an object", "network")
        spec = data.get("surface")
        if not isinstance(spec, SurfaceSpec):
            spec = SurfaceSpec.from_data(expect(spec, "an object", "network: field 'surface'"))
        coloring = expect(data.get("coloring"), "an object", "network: field 'coloring'")
        return cls(spec, {str(k): v for k, v in coloring.items()})

    def __post_init__(self):
        """Refuse a coloring that misses or invents a segment, or uses a color
        other than a non-negative int, and a surface with a non-triangle."""
        if not isinstance(self.coloring, Mapping):
            raise SpecError(f"coloring must be a mapping, got {type(self.coloring).__name__}")
        object.__setattr__(self, "coloring", MappingProxyType(dict(self.coloring)))
        names = {name for name, _sign in self.surface.arcs} | set(self.surface.seams)
        missing = sorted(names - set(self.coloring))
        if missing:
            raise SpecError(f"coloring misses {missing}")
        extra = sorted(set(self.coloring) - names)
        if extra:
            raise SpecError(f"coloring mentions unknown segments {extra}")
        bad = sorted(k for k, v in self.coloring.items() if type(v) is not int or v < 0)
        if bad:
            raise SpecError(f"colors must be non-negative integers; bad at {bad}")
        for ri, region in enumerate(self.surface.regions):
            if len(region) != 3:
                raise SpecError(
                    f"region {ri} has {len(region)} sides; networks need triangles"
                )

    def __hash__(self):
        return hash((self.surface, frozenset(self.coloring.items())))


def region_colors(net, ri):
    return tuple(net.coloring[seg.name] for seg in net.surface.regions[ri])


def check_admissible(net):
    """net, if it is a SpinNetwork whose every region carries an admissible
    triple of colors; SpecError for anything but a network, and
    AdmissibilityError naming the first region that fails."""
    if not isinstance(net, SpinNetwork):
        raise SpecError(f"a pairing needs a SpinNetwork, got {type(net).__name__}")
    for ri in range(len(net.surface.regions)):
        triple = region_colors(net, ri)
        if not admissible_triple(*triple):
            raise AdmissibilityError(
                f"region {ri} carries colors {triple}, which fail the parity "
                "or triangle conditions"
            )
    return net


def pairing_prediction(net):
    """Predicted Euler characteristic of the symmetrized self-pairing of the
    network: the product of vertex theta values over loop values of the
    internal edges.  Each loop is a quantum integer, read as one once per
    color, so the product is a sum of cyclotomic exponents, built with no
    gcd."""
    check_admissible(net)
    factors = [(_theta_exponents(*sorted(region_colors(net, ri))), 1)
               for ri in range(len(net.surface.regions))]
    factors += [(_loop_exponents(net.coloring[seam]), -1) for seam in net.surface.seams]
    return _from_signature(*_sum_exponents(factors))


def cross_pairing_prediction(net_a, net_b):
    """Predicted pairing of two networks on the same triangulated surface
    with equal boundary colors; distinct colorings pair to zero."""
    check_admissible(net_a)
    check_admissible(net_b)
    if net_a.surface != net_b.surface:
        raise InvalidBoundary("networks live on different surfaces")
    for name, _sign in net_a.surface.arcs:
        if net_a.coloring[name] != net_b.coloring[name]:
            raise InvalidBoundary(f"boundary colors differ on arc {name!r}")
    if net_a.coloring == net_b.coloring:
        return pairing_prediction(net_a)
    return RationalFunctionQ.zero()


def projector_truncation(n, depth):
    """Chain objects (tangle, homological degree, q-shift) of the n-strand
    categorified idempotent, truncated at the given depth; available for
    n at most 2."""
    if n in (0, 1):
        return ((identity_tangle(n), 0, 0),)
    if n == 2:
        cap = cup_over_cap(2)
        return ((identity_tangle(2), 0, 0),
                *((cap, -s, 2 * s - 1) for s in range(1, depth + 1)))
    raise SpecError(f"categorified idempotent data stops at 2 strands, got {n}")


_TRIANGLE = SurfaceSpec(
    arcs=(("ea", 1), ("eb", 1), ("ec", 1)),
    seams=(),
    regions=((arc("ea"), arc("eb"), arc("ec")),),
)


@memo.cache
def _graded_rank(t1, t2, counts):
    """Graded rank of the depth-0 hom space from t2 to t1 on the triangle,
    read from a SurfaceComplex built (and checked) once per process."""
    cx = SurfaceComplex(_TRIANGLE, SurfaceTangle((t2,), counts), SurfaceTangle((t1,), counts),
                        depth=0)
    return LaurentPoly(Counter(qq for _label, qq in cx.truncated.generators[0]))


def costandard_pairing_series(colors, order):
    """Euler series, exact through q^order, of the symmetrized self-pairing
    of the costandard object on the one-triangle disk with the given edge
    colors; edge colors are capped at 2 by the available idempotent data.
    The base is composed with each distinct combination of plug tangles
    once per call."""
    a, b, c = colors
    if not admissible_triple(a, b, c):
        raise AdmissibilityError(f"colors {colors} fail parity or triangle conditions")
    if max(colors) > 2:
        raise SpecError(f"categorified idempotent data stops at 2 strands, got {colors}")
    base = bend_down(_vertex_tangle(a, b, c))
    counts = ((a, b, c),)
    objects = []
    plugged = {}
    plugs = [projector_truncation(col, (order + 1) // 2) for col in colors]
    for combo in itertools.product(*plugs):
        lower = tuple(plug for plug, _h, _q in combo)
        closed = plugged.get(lower)
        if closed is None:
            t = compose(base, juxtapose(*lower))
            closed = plugged[lower] = (t.strip_circles(), t.circles)
        objects.append((*closed, sum(h for _p, h, _q in combo), sum(q for _p, _h, q in combo)))

    tangles = {o[0] for o in objects}
    ranks = {(t1, t2): _graded_rank(t1, t2, counts) for t1 in tangles for t2 in tangles}
    max_circles = max(o[1] for o in objects)
    floor = min(r.min_exp() for r in ranks.values()) - 2 * max_circles

    # sign * q^(q1+q2) summed per (t1, t2, circles) before any product
    groups = {}
    for (t1, c1, h1, q1), (t2, c2, h2, q2) in itertools.product(objects, objects):
        if q1 + q2 + floor > order:
            continue
        shifts = groups.setdefault((t1, t2, c1 + c2), {})
        shifts[q1 + q2] = shifts.get(q1 + q2, 0) + (-1) ** ((h1 + h2) % 2)
    series = LaurentPoly.zero()
    for (t1, t2, circles), shifts in groups.items():
        series = series + ranks[(t1, t2)] * circle_poly(circles) * LaurentPoly(shifts)
    return series.truncated(series.min_exp() or 0, order)


def costandard_pairing_offset(colors):
    """Power of q separating the assembled pairing from the network
    prediction: half the number of boundary points."""
    return sum(colors) // 2


# the annulus crosscheck's surface, one seam between two arcs, and its core
_ANNULUS = SurfaceSpec(arcs=(("a", 1), ("b", 1)), seams=("g",),
                       regions=((seam_side("g", -1), arc("a"), seam_side("g", 1), arc("b")),))
_ANNULUS_CORE = SurfaceTangle.from_data({"regions": [{"counts": [1, 0, 1, 0],
                                                      "chords": [[0, 1]]}]})


def _word_euler_series(cx, order):
    """Euler series of an assembled complex by direct circle counting of the
    plugged closures of its objects, each at the shift the build stored; no
    homology is computed."""
    cx.truncated.require_series(0, order, "series")
    out = LaurentPoly.zero()
    for h, objs in cx.twisted.objects.items():
        sign = (-1) ** (h % 2)
        for tangle, shift in objs:
            d, off = hom_double(cx.z_jux, tangle)
            out = out + circle_poly(len(d)).shifted(shift + off) * sign
    return out.truncated(out.min_exp() or 0, order)


@dataclass
class CrosscheckReport:
    scenario: str
    order: int
    lhs: LaurentPoly
    rhs: LaurentPoly

    @property
    def mismatches(self):
        exps = {e for e, _c in self.lhs.terms} | {e for e, _c in self.rhs.terms}
        out = []
        for e in sorted(exps):
            lc, rc = self.lhs.coefficient(e), self.rhs.coefficient(e)
            if lc != rc:
                out.append((e, lc, rc))
        return tuple(out)

    @property
    def ok(self):
        return not self.mismatches


def euler_crosscheck(scenario, order, depth=None):
    """Compare a truncated Euler series from the chain level against the
    closed-form prediction, coefficientwise through q^order.  depth is the
    bar-resolution depth (default: enough for order); triangle112 truncates
    its projectors by order alone, but refuses a negative depth all the same."""
    expect(order, "a non-negative integer", "crosscheck: order")
    if depth is not None:
        expect(depth, "a non-negative integer", "crosscheck: depth")
    if scenario == "strands0":
        proj = bottom_projector(0, depth if depth is not None else 1)
        lhs = proj.k0_series(identity_tangle(0), (0, order))
        rhs = RationalFunctionQ.one().series_poly(0, order)
    elif scenario == "bproj2":
        proj = bottom_projector(2, depth if depth is not None else order // 2 + 1)
        lhs = proj.k0_series(cup_over_cap(2), (0, order))
        # [1]/[2] = q / Phi_2(q^2)
        rhs = RationalFunctionQ.from_exponents(1, {2: -1}).series_poly(0, order)
    elif scenario == "annulus":
        d = depth if depth is not None else order // 2 + 2
        cx = SurfaceComplex(_ANNULUS, _ANNULUS_CORE, _ANNULUS_CORE, depth=d)
        t = cx.truncated
        bound = t.min_q_at(t.h_min)
        if bound is not None and bound <= order:
            raise TruncationError(
                f"series at q={order} gets contributions at degree {t.h_min}, "
                f"outside the homology window (first quantum degree {bound})"
            )
        lhs = t.homology((t.h_min + 1, 0), (0, order)).euler_series()
        rhs = _word_euler_series(cx, order)
    elif scenario == "triangle112":
        lhs = costandard_pairing_series((1, 1, 2), order)
        shift = LaurentPoly.q(costandard_pairing_offset((1, 1, 2)))
        rhs = (theta(1, 1, 2) * shift).series_poly(lhs.min_exp() or 0, order)
    else:
        raise SpecError(f"unknown crosscheck scenario {scenario!r}")
    return CrosscheckReport(scenario, order, lhs, rhs)
