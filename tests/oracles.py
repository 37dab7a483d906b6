"""Independent brute-force reference computations used by the test suite.

Everything here is deliberately written with different algorithms from the
package (stack-based crossing checks, union-find circle tracing, naive
enumeration, fraction-free elimination) so agreement is meaningful.
"""

import functools
import itertools
import math
from fractions import Fraction


def catalan(k):
    # closed form (2k)! / (k! (k+1)!)
    import math

    return math.factorial(2 * k) // (math.factorial(k) * math.factorial(k + 1))


def brute_force_matchings(m, n):
    """All noncrossing perfect matchings of m bottom + n top points, found by
    filtering every perfect matching with a parenthesis test."""
    k = m + n
    if k % 2:
        return []
    # boundary order: bottom left-to-right, then top right-to-left
    order = list(range(m)) + list(range(k - 1, m - 1, -1))
    position = {p: i for i, p in enumerate(order)}

    def all_matchings(points):
        if not points:
            yield []
            return
        a = points[0]
        for idx in range(1, len(points)):
            b = points[idx]
            rest = points[1:idx] + points[idx + 1:]
            for mm in all_matchings(rest):
                yield [(a, b)] + mm

    def noncrossing(chords):
        # scan the boundary circle with a stack of open chords
        opened = {}
        for p in order:
            mate = partner_of(chords, p)
            if position[mate] > position[p]:
                opened[p] = True
            else:
                # must close the most recently opened chord
                if not opened or next(reversed(opened)) != mate:
                    return False
                opened.pop(mate)
        return True

    def partner_of(chords, p):
        for a, b in chords:
            if a == p:
                return b
            if b == p:
                return a
        raise AssertionError

    out = []
    for chords in all_matchings(list(range(k))):
        if noncrossing(chords):
            out.append(frozenset(frozenset(c) for c in chords))
    assert len(set(out)) == len(out)
    return out


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def component_count(self, items):
        return len({self.find(x) for x in items})


def count_circles_union_find(layers):
    """Circle count of a closed vertical stack, by union-find on points."""
    uf = UnionFind()
    pts = []
    for li, t in enumerate(layers):
        for p, q in enumerate(t.partner):
            uf.union((li, p), (li, q))
            pts.append((li, p))
    for li in range(len(layers) - 1):
        lower, upper = layers[li], layers[li + 1]
        for i in range(lower.top):
            uf.union((li, lower.bottom + i), (li + 1, i))
    loops = sum(t.circles for t in layers)
    if not pts:
        return loops
    return uf.component_count(pts) + loops


def compose_by_encoded_walk(upper, lower):
    """planar.compose as it was first written: each point is encoded as
    ("L"|"U", p), a point of lower or of upper, and the walk steps through
    closures over those encodings, collecting visited points in a set."""
    from skeinhom.errors import InvalidBoundary
    from skeinhom.planar import PlanarTangle

    if lower.top != upper.bottom:
        raise InvalidBoundary(
            f"cannot glue a {lower.top}-point top edge to a {upper.bottom}-point bottom edge"
        )
    mid = lower.top
    kb, nt = lower.bottom, upper.top

    def step(enc):
        side, p = enc
        if side == "L":
            q = lower.partner[p]
            return ("U", q - kb) if q >= kb else ("L", q)
        q = upper.partner[p]
        return ("L", kb + q) if q < mid else ("U", q)

    def result_index(enc):
        side, p = enc
        if side == "L" and p < kb:
            return p
        if side == "U" and p >= mid:
            return kb + (p - mid)
        return None

    def twin(enc):
        side, p = enc
        return ("U", p - kb) if side == "L" else ("L", kb + p)

    partner = [None] * (kb + nt)
    touched = set()
    starts = [("L", p) for p in range(kb)] + [("U", p) for p in range(mid, mid + nt)]
    for start in starts:
        if partner[result_index(start)] is not None:
            continue
        cur = step(start)
        while result_index(cur) is None:
            touched.add(cur)
            touched.add(twin(cur))
            cur = step(cur)
        a, b = result_index(start), result_index(cur)
        assert a != b
        partner[a], partner[b] = b, a

    new_circles = 0
    for i in range(mid):
        enc = ("L", kb + i)
        if enc in touched:
            continue
        cur = enc
        while cur not in touched:
            touched.add(cur)
            touched.add(twin(cur))
            cur = step(cur)
        new_circles += 1

    return PlanarTangle(kb, nt, tuple(partner), lower.circles + upper.circles + new_circles)


def annular_trace_circles(d):
    """Circles formed when an (n, n)-tangle is closed around an annulus,
    walking the partner array and the bottom-to-top identification in turn."""
    n = d.bottom
    seen = set()
    count = 0
    for start in range(2 * n):
        if start in seen:
            continue
        count += 1
        p = start
        while True:
            seen.add(p)
            q = d.partner[p]
            seen.add(q)
            p = q + n if q < n else q - n
            if p == start:
                break
    return count + d.circles


def bareiss_rank(rows):
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    rows_n, cols_n = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols_n):
        pivot = None
        for i in range(r, rows_n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows_n):
            for j in range(c + 1, cols_n):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == rows_n:
            break
    return rank


def rational_rank(rows):
    """Rank over Q by straightforward row reduction with Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def quantum_int(k):
    """[k] as a dict exponent -> coefficient."""
    return {k - 1 - 2 * i: 1 for i in range(k)}


def _laurent_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _quantum_factorial(k):
    out = {0: 1}
    for i in range(1, k + 1):
        out = _laurent_mul(out, quantum_int(i))
    return out


def theta_formula(a, b, c):
    """Colored theta evaluation by the classical quantum-factorial formula,
    returned as an unreduced (numerator, denominator) pair of Laurent dicts."""
    if (a + b + c) % 2:
        return {}, {0: 1}
    i, j, k = (a + b - c) // 2, (b + c - a) // 2, (c + a - b) // 2
    if min(i, j, k) < 0:
        return {}, {0: 1}
    num = _quantum_factorial(i + j + k + 1)
    for t in (i, j, k):
        num = _laurent_mul(num, _quantum_factorial(t))
    den = _laurent_mul(
        _laurent_mul(_quantum_factorial(i + j), _quantum_factorial(j + k)),
        _quantum_factorial(k + i),
    )
    return num, den


@functools.lru_cache(maxsize=None)
def wenzl_two_sided(n):
    """The n-strand Jones-Wenzl idempotent by the two-sided recursion
    JW_n = P - [n-1]/[n] * P e_{n-1} P with P = JW_{n-1} (x) 1, which
    composes every pair of terms of P; the route spin.wenzl took before the
    single-clasp recursion."""
    from skeinhom.spin import (RationalFunctionQ, TLElement, cup_cap_at, identity_element,
                               quantum_integer, tl_compose, tl_tensor)

    if n <= 1:
        return identity_element(n)
    p = tl_tensor(wenzl_two_sided(n - 1), identity_element(1))
    hook = TLElement(n, {cup_cap_at(n, n - 2): 1})
    coeff = RationalFunctionQ(quantum_integer(n - 1), quantum_integer(n))
    return p - tl_compose(tl_compose(p, hook), p).scaled(coeff)


def theta_by_sandwich(a, b, c):
    """Theta graph as the annular closure of the full sandwich of
    JW_a (x) JW_b between the two vertices, composed with JW_c; idempotents
    from wenzl_two_sided.  The route spin.theta took before it summed only
    the identity coefficient."""
    from skeinhom.homalg import circle_poly
    from skeinhom.planar import compose
    from skeinhom.spin import (RationalFunctionQ, TLElement, _vertex_tangle,
                               admissible_triple, tl_closure, tl_compose, tl_tensor)

    if not admissible_triple(a, b, c):
        return RationalFunctionQ.zero()
    vertex = _vertex_tangle(a, b, c)
    mirror = vertex.reflect_y()
    mid = tl_tensor(wenzl_two_sided(a), wenzl_two_sided(b))
    sandwich = {}
    for d, coeff in mid.terms.items():
        t = compose(vertex, compose(d, mirror))
        coeff = coeff * circle_poly(t.circles)
        t = t.strip_circles()
        sandwich[t] = sandwich.get(t, RationalFunctionQ.zero()) + coeff
    return tl_closure(tl_compose(TLElement(c, sandwich), wenzl_two_sided(c)))


def theta_by_pairs(a, b, c):
    """Theta graph as the identity coefficient of the sandwich, summed over
    every ordered pair of terms of JW_a and JW_b with the colors in the
    order given, no rotation and no cache; the route spin.theta took before
    it composed each vertex with its half once."""
    from skeinhom.homalg import circle_poly
    from skeinhom.planar import compose, identity_tangle, juxtapose
    from skeinhom.spin import (RationalFunctionQ, _fraction_sum, _vertex_tangle,
                               admissible_triple, loop, wenzl)

    if not admissible_triple(a, b, c):
        return RationalFunctionQ.zero()
    vertex = _vertex_tangle(a, b, c)
    mirror = vertex.reflect_y()
    ident = identity_tangle(c)
    terms = []
    for da, ca in wenzl(a).terms.items():
        for db, cb in wenzl(b).terms.items():
            t = compose(vertex, compose(juxtapose(da, db), mirror))
            if t.strip_circles() == ident:
                terms.append((ca.num * cb.num * circle_poly(t.circles), ca.den * cb.den))
    return _fraction_sum(terms) * loop(c)


def pairing_by_steps(net):
    """Predicted self-pairing of a network as a running product of
    RationalFunctionQ values, one reduction per theta value and one per loop
    division; the route spin.pairing_prediction took before it multiplied
    the Laurent numerators and denominators out and reduced once."""
    from skeinhom.spin import RationalFunctionQ, check_admissible, loop, region_colors, theta

    check_admissible(net)
    value = RationalFunctionQ.one()
    for ri in range(len(net.surface.regions)):
        value = value * theta(*region_colors(net, ri))
    for seam in net.surface.seams:
        value = value / loop(net.coloring[seam])
    return value


def all_shuffles(r, s):
    """(r, s)-shuffles as interleaving patterns: tuples over {0, 1} with the
    sign given by inversion parity."""
    out = []
    for positions in itertools.combinations(range(r + s), r):
        pattern = [1] * (r + s)
        for p in positions:
            pattern[p] = 0
        inversions = 0
        seen_ones = 0
        for x in pattern:
            if x == 1:
                seen_ones += 1
            else:
                inversions += seen_ones
        out.append((tuple(pattern), (-1) ** inversions))
    return out


# Euclidean reduction of a quotient of Laurent polynomials over Fractions:
# the normalization RationalFunctionQ used before it moved to integer
# pseudo-remainders.

def _poly_rem(a, b):
    """Remainder of dense ascending coefficient lists over the rationals."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 < db:
            break
        lead = Fraction(a[-1], 1) / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= lead * c
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(coeffs):
    """Scale rational coefficients to coprime integers with positive lead."""
    if not any(coeffs):
        return []
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * denom) for c in coeffs]
    content = math.gcd(*(abs(c) for c in ints))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _poly_gcd(a, b):
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        a, b = b, _poly_rem(a, b)
    return _primitive(a)


def _poly_div_exact(a, g):
    """Quotient of integer lists when g divides a; exactness is asserted."""
    a = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(g) + 1)
    while any(a):
        while a and not a[-1]:
            a.pop()
        deg = len(a) - len(g)
        assert deg >= 0, "inexact polynomial division"
        lead = a[-1] / g[-1]
        out[deg] = lead
        for i, c in enumerate(g):
            a[deg + i] -= lead * c
        a.pop()
    assert all(c.denominator == 1 for c in out)
    return [int(c) for c in out]


def fraction_reduced(num, den):
    """Reduced form of num/den, both nonzero Laurent dicts exponent ->
    coefficient, as a (numerator, denominator) pair of dicts: the
    denominator has a nonzero constant term, positive lead and no content in
    common with the numerator, which carries any power of q."""
    nlo, dlo = min(num), min(den)
    ncs = [num.get(e, 0) for e in range(nlo, max(num) + 1)]
    dcs = [den.get(e, 0) for e in range(dlo, max(den) + 1)]
    g = _poly_gcd(ncs, dcs)
    ncs = _poly_div_exact(ncs, g)
    dcs = _poly_div_exact(dcs, g)
    content = math.gcd(math.gcd(*(abs(c) for c in ncs)), math.gcd(*(abs(c) for c in dcs)))
    sign = 1 if dcs[-1] > 0 else -1
    ncs = [sign * c // content for c in ncs]
    dcs = [sign * c // content for c in dcs]
    return (
        {nlo - dlo + i: c for i, c in enumerate(ncs) if c},
        {i: c for i, c in enumerate(dcs) if c},
    )


def dense_block(cx, h, j):
    """The differential of cx from degree h to h+1 in quantum degree j, as
    dense rows, found by scanning every generator and every entry."""
    src = [idx for idx, g in enumerate(cx.generators.get(h, ())) if g[1] == j]
    tgt = [idx for idx, g in enumerate(cx.generators.get(h + 1, ())) if g[1] == j]
    pos_s = {g: k for k, g in enumerate(src)}
    pos_t = {g: k for k, g in enumerate(tgt)}
    rows = [[0] * len(src) for _ in range(len(tgt))]
    for (i, jj), c in cx.differentials.get(h, {}).items():
        if i in pos_t and jj in pos_s:
            rows[pos_t[i]][pos_s[jj]] = c
    return rows, len(src), len(tgt)


def dense_homology_at(cx, i, j):
    """(betti, torsion) of H^{i, j} of cx from its full dense blocks: the
    Smith form of the incoming block and the Bareiss rank of the outgoing
    one, with no unit cancellation, index or memo."""
    from skeinhom.homalg import matrix_rank, smith_invariants

    for h in (i - 1, i, i + 1):
        require_known_by_cell(cx, h, j)
    rows_in, n_src_in, _ = dense_block(cx, i - 1, j)
    rows_out, n_i, _ = dense_block(cx, i, j)
    invs = smith_invariants(rows_in) if rows_in and rows_in[0] else []
    rank_in = len([d for d in invs if d])
    rank_out = matrix_rank(rows_out) if rows_out and rows_out[0] else 0
    betti = n_i - rank_in - rank_out
    assert betti >= 0
    torsion = tuple(d for d in invs if d > 1)
    return betti, torsion


# The homology route TruncatedComplex took before it built each block
# straight into the rows and columns unit cancellation works on: every
# block gathered as entries {(place, place): c} through (q, place) slots and
# handed to unit_cancellation, and every cell checked against the q-window
# and the truncation once for each of its three degrees.

def block_index_by_entries(cx):
    """(sizes, blocks): generators of cx per (h, q), and the (units,
    residual) of unit_cancellation on each block of the differential from
    h to h+1 in quantum degree q, its entries keyed by the generators'
    places within the block."""
    from skeinhom.homalg import unit_cancellation

    sizes, slots = {}, {}
    for h, gens in cx.generators.items():
        where = slots[h] = []
        for _, q in gens:
            k = sizes.get((h, q), 0)
            sizes[(h, q)] = k + 1
            where.append((q, k))
    blocks = {}
    for h, d in cx.differentials.items():
        src, tgt = slots.get(h, ()), slots.get(h + 1, ())
        for (i, j), c in d.items():
            if 0 <= i < len(tgt) and 0 <= j < len(src) and src[j][0] == tgt[i][0]:
                blocks.setdefault((h, src[j][0]), {})[(tgt[i][1], src[j][1])] = c
    return sizes, {key: unit_cancellation(entries) for key, entries in blocks.items()}


def require_known_by_cell(cx, h, j):
    """Raise unless the chain group of cx at (h, j) lies in its q-window and
    is fully stored or provably zero."""
    from skeinhom.errors import TruncationError

    if cx.q_range is not None:
        cx.require_window("a chain group", j, j)
    if h > cx.h_max or h >= cx.h_min or cx.complete:
        return
    bound = cx.min_q_at(h)
    if bound is None or j < bound:
        return
    raise TruncationError(
        f"chain group at (h={h}, q={j}) is beyond the truncation (certificate bound {bound})"
    )


def homology_by_cells(cx, h_range, q_range):
    """BigradedHomology of cx on the window from block_index_by_entries,
    cell by cell (q outside, h inside), each cell checking its three
    degrees with require_known_by_cell first; raises what the first bad
    cell raises."""
    from skeinhom.errors import ChainMapError
    from skeinhom.homalg import BigradedHomology, matrix_rank, smith_invariants

    sizes, blocks = block_index_by_entries(cx)
    betti, torsion = {}, {}
    for j in range(q_range[0], q_range[1] + 1):
        for i in range(h_range[0], h_range[1] + 1):
            for h in (i - 1, i, i + 1):
                require_known_by_cell(cx, h, j)
            units, residual = blocks.get((i - 1, j), (0, []))
            invs = smith_invariants(residual)
            rank_in = units + len(invs)
            units, residual = blocks.get((i, j), (0, []))
            rank_out = units + matrix_rank(residual)
            n_i = sizes.get((i, j), 0)
            b = n_i - rank_in - rank_out
            if b < 0:
                raise ChainMapError(f"d^2 != 0 at (h={i}, q={j}): incoming rank {rank_in} "
                                    f"and outgoing rank {rank_out} exceed {n_i} generators")
            if b:
                betti[(i, j)] = b
            tor = tuple(d for d in invs if d > 1)
            if tor:
                torsion[(i, j)] = tor
    return BigradedHomology(betti, torsion, (h_range, q_range))


# The complex algebra as twisted and integer complexes each did it before
# they shared one sparse product, defect check and mapping cone: nested
# scans that pair every entry of one map with every entry of the next, and
# a cone laid out and certified per class.

def nested_scan_square_check(self):
    """Raise ChainMapError unless d^2 = 0 on the twisted complex self."""
    from skeinhom.errors import ChainMapError
    from skeinhom.tqft import pair

    for h in sorted(self.differentials):
        if h + 1 not in self.differentials:
            continue
        first, second = self.differentials[h], self.differentials[h + 1]
        acc = {}
        for (k, j), sv1 in first.items():
            for (i, k2), sv2 in second.items():
                if k2 != k:
                    continue
                T_j = self.objects[h][j][0]
                T_k = self.objects[h + 1][k][0]
                T_i = self.objects[h + 2][i][0]
                prod = pair(T_j, T_k, T_i, sv1, sv2)
                if (i, j) in acc:
                    acc[(i, j)] = acc[(i, j)] + prod
                else:
                    acc[(i, j)] = prod
        bad = {k: sv for k, sv in acc.items() if sv}
        if bad:
            raise ChainMapError(f"d^2 != 0 from degree {h}: {sorted(bad.items())[:4]}")


def nested_scan_twisted_map_check(source, target, components):
    """Raise ChainMapError unless components is a chain map of twisted complexes."""
    from skeinhom.errors import ChainMapError
    from skeinhom.tqft import pair

    # every degree where either complex has a differential
    lo = min(source.h_min, target.h_min)
    hi = max(source.h_max, target.h_max)
    for h in range(lo, hi):
        acc = {}
        for (k, j), sv in source.differentials.get(h, {}).items():
            for (i, k2), f in components.get(h + 1, {}).items():
                if k2 != k:
                    continue
                prod = pair(source.objects[h][j][0], source.objects[h + 1][k][0],
                            target.objects[h + 1][i][0], sv, f)
                acc[(i, j)] = acc[(i, j)] + prod if (i, j) in acc else prod
        for (k, j), f in components.get(h, {}).items():
            for (i, k2), sv in target.differentials.get(h, {}).items():
                if k2 != k:
                    continue
                prod = pair(source.objects[h][j][0], target.objects[h][k][0],
                            target.objects[h + 1][i][0], f, sv)
                prod = prod.scaled(-1)
                acc[(i, j)] = acc[(i, j)] + prod if (i, j) in acc else prod
        bad = [key for key, sv in acc.items() if sv]
        if bad:
            raise ChainMapError(f"does not commute with differentials at degree {h}: {sorted(bad)[:4]}")


def twisted_cone_reference(source, target, components):
    """Mapping cone of a degree-zero map between twisted complexes."""
    from skeinhom.barproj import TwistedTangleComplex

    nested_scan_twisted_map_check(source, target, components)
    objects, diffs = {}, {}
    offs = {}
    h_lo = min(source.h_min - 1, target.h_min)
    h_hi = max(source.h_max - 1, target.h_max)
    for h in range(h_lo, h_hi + 1):
        bucket = list(target.objects.get(h, ()))
        offs[h] = len(bucket)
        bucket.extend(source.objects.get(h + 1, ()))
        if bucket:
            objects[h] = tuple(bucket)
    for h in range(h_lo, h_hi):
        d = {}
        for (i, j), sv in target.differentials.get(h, {}).items():
            d[(i, j)] = sv
        for (i, j), sv in components.get(h + 1, {}).items():
            d[(i, offs[h] + j)] = sv
        for (i, j), sv in source.differentials.get(h + 1, {}).items():
            d[(offs[h + 1] + i, offs[h] + j)] = sv.scaled(-1)
        if d:
            diffs[h] = d
    complete = source.complete and target.complete
    cert = None
    if not complete:
        def cert(r):
            vals = []
            for cx, shift in ((target, 0), (source, 1)):
                h = -r + shift
                if h > cx.h_max:
                    continue
                if h >= cx.h_min:
                    vals.extend(s for _, s in cx.objects.get(h, ()))
                elif not cx.complete:
                    vals.append(cx.certificate(-h))
            return min(vals) if vals else 10 ** 9
    return TwistedTangleComplex(objects, diffs, h_lo, h_hi, complete, cert)


def nested_scan_chain_map_verify(self):
    """Raise ChainMapError unless the ChainMap self is a chain map."""
    from skeinhom.errors import ChainMapError

    for h, comp in self.components.items():
        src = self.source.generators.get(h, ())
        tgt = self.target.generators.get(h, ())
        for (i, j), c in comp.items():
            if not (0 <= j < len(src) and 0 <= i < len(tgt)):
                raise ChainMapError(f"component {(i, j)} at degree {h} is out of range")
            if src[j][1] != tgt[i][1]:
                raise ChainMapError(f"component {(i, j)} at degree {h} does not preserve the "
                                    f"quantum degree: {src[j]} -> {tgt[i]}")
    # every degree where either complex has a differential
    lo = min(self.source.h_min, self.target.h_min)
    hi = max(self.source.h_max, self.target.h_max)
    for h in range(lo, hi):
        lhs = {}
        for (i, j), c in self.source.differentials.get(h, {}).items():
            for (k, i2), c2 in self.components.get(h + 1, {}).items():
                if i2 == i:
                    lhs[(k, j)] = lhs.get((k, j), 0) + c * c2
        rhs = {}
        for (i, j), c in self.components.get(h, {}).items():
            for (k, i2), c2 in self.target.differentials.get(h, {}).items():
                if i2 == i:
                    rhs[(k, j)] = rhs.get((k, j), 0) + c * c2
        keys = set(lhs) | set(rhs)
        bad = [k for k in keys if lhs.get(k, 0) != rhs.get(k, 0)]
        if bad:
            raise ChainMapError(f"does not commute with differentials at degree {h}: {sorted(bad)[:4]}")


def chain_map_cone_reference(self):
    """Mapping cone of the ChainMap self; degree h holds target^h then source^{h+1}."""
    from skeinhom.homalg import TruncatedComplex

    a, b, f = self.source, self.target, self.components
    gens, diffs = {}, {}
    offs_b, offs_a = {}, {}
    h_lo = min(a.h_min - 1, b.h_min)
    h_hi = max(a.h_max - 1, b.h_max)
    for h in range(h_lo, h_hi + 1):
        bucket = []
        for lbl, q in b.generators.get(h, ()):
            bucket.append((("tgt", lbl), q))
        offs_a[h] = len(bucket)
        for lbl, q in a.generators.get(h + 1, ()):
            bucket.append((("src", lbl), q))
        if bucket:
            gens[h] = tuple(bucket)
    for h in range(h_lo, h_hi):
        d = {}
        for (i, j), c in b.differentials.get(h, {}).items():
            d[(i, j)] = c
        for (i, j), c in f.get(h + 1, {}).items():
            d[(i, offs_a[h] + j)] = c
        for (i, j), c in a.differentials.get(h + 1, {}).items():
            d[(offs_a[h + 1] + i, offs_a[h] + j)] = -c
        if d:
            diffs[h] = d
    complete = a.complete and b.complete
    cert = None
    if not complete:
        def cert(r):
            # cone degree -r holds target^{-r} and source^{-r + 1}
            vals = [v for v in (b.min_q_at(-r), a.min_q_at(-r + 1)) if v is not None]
            return min(vals) if vals else 10 ** 9
    return TruncatedComplex(gens, diffs, h_lo, h_hi, complete, cert)


def pair_by_surgery(a, b, c, sv1, sv2):
    """Compose states on the doubles of (a, b) and (b, c) diagram by diagram.

    One saddle per chord of b, then each free circle of b is merged across
    the two copies and capped off.  States must sit at their hom offsets.
    The route tqft.pair took, one surgery per pair of labelings, before
    composition was compiled once per triple of tangles.
    """
    from skeinhom.planar import ClosedDiagram
    from skeinhom.tqft import hom_double

    tangles, glue = {}, {}
    double_instances(1, a, b, tangles, glue)
    double_instances(2, b, c, tangles, glue)
    union = ClosedDiagram.from_instances(tangles, glue)
    state = joint_terms(union, {1: sv1, 2: sv2})
    for k, (p, q) in enumerate(b.chords):
        arc1, arc2 = ((1, "y"), k), ((2, "x"), k)
        n1p = union.node_of_port(((1, "y"),) + b.port_of_point(p))
        n1q = union.node_of_port(((1, "y"),) + b.port_of_point(q))
        n2p = union.node_of_port(((2, "x"),) + b.port_of_point(p))
        n2q = union.node_of_port(((2, "x"),) + b.port_of_point(q))
        state = surgered(state, arc1, arc2, ((n1p, n2p), (n1q, n2q)))
    for k in range(b.circles):
        arc1, arc2 = ((1, "y"), "o", k), ((2, "x"), "o", k)
        l1 = state.diagram.arcs[arc1][0]
        l2 = state.diagram.arcs[arc2][0]
        state = surgered(state, arc1, arc2, ((l1, l2), (l1, l2)))
        state = killed(state, ("srg", arc1, arc2, 0))
    canon, _ = hom_double(a, c)
    arc_map = {}
    for k in range(len(a.chords)):
        arc_map[((1, "x"), k)] = ("x", k)
    for k in range(a.circles):
        arc_map[((1, "x"), "o", k)] = ("x", "o", k)
    for k in range(len(c.chords)):
        arc_map[((2, "y"), k)] = ("y", k)
    for k in range(c.circles):
        arc_map[((2, "y"), "o", k)] = ("y", "o", k)
    return transport(state, canon, arc_map)


def ring_mul_by_pair(a, b, c, lab1, lab2):
    """The product of the basis labelings lab1 of Hom(a, b) and lab2 of
    Hom(b, c), composing checked basis states with tqft.pair: the route
    SmallRing.mul took before it read the composition plan's table."""
    from skeinhom.tqft import basis_state, pair

    return pair(a, b, c, basis_state(a, b, lab1), basis_state(b, c, lab2))


def hom_complex_by_pair(cx, b):
    """Hom from the fixed tangle b into the twisted complex cx, with one
    checked basis state and one tqft.pair call per (entry, source labeling):
    the route TwistedTangleComplex.hom_complex took before it read the
    composition plans' tables."""
    from skeinhom.homalg import TruncatedComplex
    from skeinhom.tqft import basis_state, hom_double, kh_basis, pair

    gens, diffs, positions = {}, {}, {}
    for h, obs in sorted(cx.objects.items()):
        bucket = []
        for i, (T, s) in enumerate(obs):
            for lab, raw in kh_basis(*hom_double(b, T)):
                positions[(h, i, lab)] = len(bucket)
                bucket.append(((i, lab), s + raw))
        gens[h] = tuple(bucket)
    for h, d in sorted(cx.differentials.items()):
        entries = {}
        for (i, j), sv in d.items():
            T_src, _ = cx.objects[h][j]
            T_tgt, _ = cx.objects[h + 1][i]
            for lab, _raw in kh_basis(*hom_double(b, T_src)):
                out = pair(b, T_src, T_tgt, basis_state(b, T_src, lab), sv)
                col = positions[(h, j, lab)]
                for lab_out, coeff in out.sorted_terms():
                    row = positions[(h + 1, i, lab_out)]
                    entries[(row, col)] = entries.get((row, col), 0) + coeff
        diffs[h] = {k: v for k, v in entries.items() if v}
    cert = None
    if cx.certificate is not None:
        floor = cx._hom_floor(b)
        cert = lambda r: cx.certificate(r) + floor
    return TruncatedComplex(gens, diffs, cx.h_min, cx.h_max, cx.complete, cert)


# Cobordisms on labeled diagrams, surgery by surgery: the routes the package
# took for every call before each map became a plan compiled once per key
# of tangles.  States are rebuilt and their diagrams re-traced at every
# saddle, so agreement with the compiled plans is meaningful.

def _glue_all(glue, inst1, side1, inst2, side2, count):
    for i in range(count):
        glue[(inst1, side1, i)] = (inst2, side2, i)
        glue[(inst2, side2, i)] = (inst1, side1, i)


def double_instances(block, a, b, tangles, glue):
    """Register the double of (a, b) as instances (block, "x"), (block, "y")."""
    tangles[(block, "x")] = a
    tangles[(block, "y")] = b
    _glue_all(glue, (block, "x"), "b", (block, "y"), "b", a.bottom)
    _glue_all(glue, (block, "x"), "t", (block, "y"), "t", a.top)


def surger(diagram, arc1, arc2, pairing):
    """The diagram with arc1 and arc2 cut and their ends reconnected as
    prescribed, traced from scratch.

    pairing is ((u1, u2), (v1, v2)) with {u1, v1} the nodes of arc1 and
    {u2, v2} those of arc2; the new arcs run u1-u2 and v1-v2.
    """
    from skeinhom.planar import ClosedDiagram

    if arc1 not in diagram.arcs or arc2 not in diagram.arcs or arc1 == arc2:
        raise KeyError((arc1, arc2))
    (u1, u2), (v1, v2) = pairing
    if set(diagram.arcs[arc1]) != {u1, v1} or set(diagram.arcs[arc2]) != {u2, v2}:
        raise KeyError(f"pairing does not match arc endpoints for {arc1!r}, {arc2!r}")
    arcs = dict(diagram.arcs)
    del arcs[arc1], arcs[arc2]
    arcs[("srg", arc1, arc2, 0)] = (u1, u2)
    arcs[("srg", arc1, arc2, 1)] = (v1, v2)
    return ClosedDiagram(arcs, diagram.port_node)


def _saddle(diagram, arc1, arc2, pairing):
    """The diagram after a saddle joining arc1 and arc2, reconnected as
    prescribed, with the circles c1, c2 of the two arcs before it and the
    circles t0, t1 of the two new arcs after it."""
    new_diag = surger(diagram, arc1, arc2, pairing)
    t0 = new_diag.component_of[("srg", arc1, arc2, 0)]
    t1 = new_diag.component_of[("srg", arc1, arc2, 1)]
    return new_diag, diagram.component_of[arc1], diagram.component_of[arc2], t0, t1


def _capped(diagram, arc):
    """The diagram without the circle through arc, traced from scratch, and
    that circle."""
    from skeinhom.planar import ClosedDiagram

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


def _circle_map(src, target, arc_map):
    """The bijection of circles, source index to target index, that arc_map
    induces between two homeomorphic diagrams."""
    from skeinhom.errors import GradingError

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


def _saddle_terms(state, new_diag, c1, c2, t0, t1):
    """Label bookkeeping shared by arc surgery and port regluing."""
    from skeinhom.tqft import _frobenius_terms

    if c1 == c2:
        assert t0 != t1, "a planar saddle on one circle must split it"
    return _frobenius_terms(state.terms, _carry(state.diagram, new_diag, {t0, t1}),
                            c1, c2, t0, t1)


def surgered(state, arc1, arc2, pairing):
    """Saddle joining the two arcs, reconnected as prescribed.

    Distinct circles merge with the product; a single circle splits with
    the coproduct.  The offset drops by one either way.
    """
    from skeinhom.tqft import StateVector

    new_diag, c1, c2, t0, t1 = _saddle(state.diagram, arc1, arc2, pairing)
    if c1 != c2:
        assert t0 == t1
    terms = _saddle_terms(state, new_diag, c1, c2, t0, t1)
    return StateVector(new_diag, state.offset - 1, terms)


def killed(state, arc):
    """Cap off the circle through arc with the counit."""
    from skeinhom.tqft import StateVector, _frobenius_terms

    new_diag, c = _capped(state.diagram, arc)
    terms = _frobenius_terms(state.terms, _carry(state.diagram, new_diag, ()), c)
    return StateVector(new_diag, state.offset + 1, terms)


def transport(state, target, arc_map):
    """Reinterpret a state on a homeomorphic diagram.

    arc_map sends source arcs to target arcs and must determine a bijection
    of circles; it does not need to mention every arc.
    """
    from skeinhom.tqft import StateVector

    circle_map = _circle_map(state.diagram, target, arc_map)
    terms = {}
    for lab, coeff in state.terms.items():
        new_lab = [None] * len(target)
        for i, j in circle_map.items():
            new_lab[j] = lab[i]
        terms[tuple(new_lab)] = coeff
    return StateVector(target, state.offset, terms)


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


def joint_terms(big, states):
    """Product labelings on a diagram whose circles come from per-block states.

    states maps a block id to its StateVector; see _joint_pick for the arcs.
    """
    from skeinhom.tqft import StateVector

    pick = _joint_pick(big, {b: sv.diagram for b, sv in states.items()})
    offset = sum((sv.offset for sv in states.values()), Fraction(0))
    return StateVector(big, offset, _product_terms(pick, states))


def _point_map_state(state, a, b, f, fa, fb):
    """Transport along a boundary relabeling applied to both hom factors."""
    from skeinhom.tqft import _chord_index, hom_double

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


def reflected_x_by_transport(state, a, b):
    """Left-right mirror on both factors of a hom element."""
    m, n = a.bottom, a.top
    f = lambda p: (m - 1 - p) if p < m else m + (n - 1 - (p - m))
    return _point_map_state(state, a, b, f, a.reflect_x(), b.reflect_x())


def reflected_y_by_transport(state, a, b):
    """Top-bottom mirror on both factors of a hom element."""
    m, n = a.bottom, a.top
    f = lambda p: (n + p) if p < m else p - m
    return _point_map_state(state, a, b, f, a.reflect_y(), b.reflect_y())


def bent_down_by_transport(state, a, b):
    """Both factors of a hom element bent down onto cap tangles."""
    from skeinhom.planar import bend_down

    m, n = a.bottom, a.top
    f = lambda p: p if p < m else m + (m + n - 1 - p)
    return _point_map_state(state, a, b, f, bend_down(a), bend_down(b))


def bent_up_by_transport(state, a, b):
    """Both factors of a hom element bent up onto cup tangles."""
    from skeinhom.planar import bend_up

    m = a.bottom
    f = lambda p: (m - 1 - p) if p < m else p
    return _point_map_state(state, a, b, f, bend_up(a), bend_up(b))


def transposed_by_transport(state, a, b):
    """The same underlying labeling read as a morphism from b to a."""
    from skeinhom.tqft import hom_double

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


def _arc_at_port(instances, port):
    """The chord arc of a tangle instance through one of its ports."""
    from skeinhom.tqft import _chord_index

    inst, side, i = port
    t = instances[inst]
    p = i if side == "b" else t.bottom + i
    return (inst, _chord_index(t, p))


def _reglue(state, instances, glue, p1, p2):
    """Saddle re-pairing ports: {p1-q1, p2-q2} becomes {p1-p2, q1-q2}."""
    from skeinhom.planar import ClosedDiagram
    from skeinhom.tqft import StateVector

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
    terms = _saddle_terms(state, new_diag, c1, c2, t0, t1)
    return StateVector(new_diag, state.offset - 1, terms), new_glue


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


def whisker_by_reglue(state, a, b, e, above=True):
    """Horizontal composition with the identity of e.

    Sends a hom element from a to b to one from e*a to e*b (gluing e onto
    the top edge) or from a*e to b*e (bottom edge).  One saddle per glued
    boundary point.
    """
    from skeinhom.errors import InvalidBoundary
    from skeinhom.planar import ClosedDiagram, compose
    from skeinhom.tqft import _check_on, hom_double, identity_state

    _check_on(state, hom_double(a, b), "state")
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
    double_instances("m", a, b, tangles, glue)
    double_instances("e", e, e, tangles, glue)
    start = ClosedDiagram.from_instances(tangles, glue)
    cur = joint_terms(start, {"m": state, "e": id_e})
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


def stacked_state_by_surgery(fc, gc, tc, m1, m2, labf, labg):
    """Pair a state of fc with one of gc through the shared middle caps.

    Returns the state on tc's double of the stacked middle layer; the
    declared offset is the target's own hom offset.
    """
    from skeinhom.errors import SpecError
    from skeinhom.planar import ClosedDiagram
    from skeinhom.planar import compose as stack
    from skeinhom.tqft import StateVector, _chord_index, hom_double

    z1, z2, zt = fc.z_jux, gc.z_jux, tc.z_jux
    tangles, glue = {}, {}
    double_instances(1, z1, m1, tangles, glue)
    double_instances(2, z2, m2, tangles, glue)
    union = ClosedDiagram.from_instances(tangles, glue)
    d1, off1 = hom_double(z1, m1)
    d2, off2 = hom_double(z2, m2)
    state = joint_terms(union, {1: StateVector(d1, off1, {labf: 1}),
                                2: StateVector(d2, off2, {labg: 1})})
    kr = z2.bottom
    for k, (p, q) in enumerate(z1.chords):
        if p >= z1.bottom:
            break
        arc1 = ((1, "x"), k)
        arc2 = ((2, "x"), _chord_index(z2, kr + p))
        n1p = union.node_of_port(((1, "x"), "b", p))
        n1q = union.node_of_port(((1, "x"), "b", q))
        n2p = union.node_of_port(((2, "x"), "t", p))
        n2q = union.node_of_port(((2, "x"), "t", q))
        state = surgered(state, arc1, arc2, ((n1p, n2p), (n1q, n2q)))
    m_out = stack(m1, m2)
    if m_out.circles:
        raise SpecError("stacked middle layers acquire free circles; out of scope")
    canon, off_t = hom_double(zt, m_out)
    arc_map = {}
    for k, (p, q) in enumerate(zt.chords):
        if q < zt.bottom:
            arc_map[((2, "x"), _chord_index(z2, p))] = ("x", k)
        else:
            local = p - zt.bottom
            arc_map[((1, "x"), _chord_index(z1, z1.bottom + local))] = ("x", k)
    for k, (p, q) in enumerate(m_out.chords):
        if p < m_out.bottom:
            port = ((2, "y"), "b", p)
        else:
            port = ((1, "y"), "t", p - m_out.bottom)
        arc_map[_arc_at_port(tangles, port)] = ("y", k)
    out = transport(state, canon, arc_map)
    return StateVector(canon, off_t, dict(out.terms))


def _point_offsets(tangles):
    """Cumulative bottom and top point offsets of tangles set side by side."""
    boff, toff = [], []
    b = t = 0
    for tangle in tangles:
        boff.append(b)
        toff.append(t)
        b += tangle.bottom
        t += tangle.top
    return boff, toff


def _spliced_chords(tangle, ri, si, rj, sj, order):
    """(region, chord index) -> chord index in the merged cap, for the two
    regions a seam splice joins: each chain of chords is walked across the
    seam (point t on the minus side against point n-1-t on the plus side)
    from one end off the seam to the other."""
    counts = tangle.counts
    start = {}
    for r in (ri, rj):
        acc = 0
        for s, c in enumerate(counts[r]):
            start[(r, s)] = acc
            acc += c
    merged_point, acc = {}, 0
    for r, s in order:
        for t in range(counts[r][s]):
            merged_point[(r, start[(r, s)] + t)] = acc + t
        acc += counts[r][s]
    n = counts[ri][si]
    across = {}
    for t in range(n):
        a, b = (ri, start[(ri, si)] + t), (rj, start[(rj, sj)] + n - 1 - t)
        across[a], across[b] = b, a
    chains, done = [], set()
    for (r, p), u in merged_point.items():
        if u in done:
            continue
        chain = []
        while True:
            cap = tangle.caps[r]
            q = cap.partner[p]
            chain.append((r, cap.chords.index((min(p, q), max(p, q)))))
            if (r, q) not in across:
                break
            r, p = across[(r, q)]
        v = merged_point[(r, q)]
        done |= {u, v}
        chains.append((min(u, v), chain))
    # merged chords are sorted by their first point
    firsts = sorted(first for first, _chain in chains)
    return {rc: firsts.index(first) for first, chain in chains for rc in chain}


def _closure_arc_map(cx, target, region_pos, ri, rj, bot_chords, top_chords):
    """Old closure chord arcs to new ones, following the cap splice."""
    from skeinhom.tqft import _chord_index

    src_b, src_t = _point_offsets(cx.z_regions)
    tgt_b, tgt_t = _point_offsets(target.z_regions)
    out = {}
    for r in range(len(cx.spec.regions)):
        nr = region_pos[r]
        sc, tc = cx.bottom.caps[r], cx.top.caps[r]
        for k in range(len(sc.chords)):
            if r in (ri, rj):
                nk = bot_chords[(r, k)]
                p_new = target.bottom.caps[nr].chords[nk][0]
            else:
                p_new = sc.chords[k][0]
            old_arc = ("x", _chord_index(cx.z_jux, src_b[r] + sc.chords[k][0]))
            out[old_arc] = ("x", _chord_index(target.z_jux, tgt_b[nr] + p_new))
        for k in range(len(tc.chords)):
            if r in (ri, rj):
                nk = top_chords[(r, k)]
                p_new = target.top.caps[nr].chords[nk][0]
            else:
                p_new = tc.chords[k][0]
            old_arc = ("x", _chord_index(cx.z_jux, cx.z_jux.bottom + src_t[r] + tc.chords[k][0]))
            out[old_arc] = ("x", _chord_index(target.z_jux,
                                              target.z_jux.bottom + tgt_t[nr] + p_new))
    return out


def _middle_arc_map(cx, target, seg_pos, seam):
    """Per word tuple, old middle chord arcs to new ones away from the seam."""
    from skeinhom.tqft import _chord_index

    g_idx = cx.layout.seam_pos[seam]
    out = {}
    for h, mws in cx.multiwords.items():
        for mw in mws:
            if mw[g_idx][1]:
                continue
            mw_t = mw[:g_idx] + mw[g_idx + 1:]
            m_src, m_tgt = cx.m_tangle(mw), target.m_tangle(mw_t)
            slots = cx.slot_tangles(mw)
            src_b, src_t = _point_offsets(slots)
            tgt_b, tgt_t = _point_offsets(target.slot_tangles(mw_t))
            amap = {}
            for k_old, tangle in enumerate(slots):
                r, s = cx.layout.slot_pos[k_old]
                pos = seg_pos.get((r, s))
                if pos is None:
                    continue
                k_new = target.layout.slot_global[pos]
                for p, _q in tangle.chords:
                    if p < tangle.bottom:
                        gp_old = src_b[k_old] + p
                        gp_new = tgt_b[k_new] + p
                    else:
                        gp_old = m_src.bottom + src_t[k_old] + (p - tangle.bottom)
                        gp_new = m_tgt.bottom + tgt_t[k_new] + (p - tangle.bottom)
                    amap[("y", _chord_index(m_src, gp_old))] = ("y", _chord_index(m_tgt, gp_new))
            out[mw] = amap
    return out


def coarsening_arc_maps(cx, seam, target):
    """The arc maps that carry closure chords and, per length-zero word,
    middle chords of cx onto target, the coarsening of cx at seam, placed
    by explicit point offsets and the chord chains of the cap splice:
    (closure map, {word tuple: middle map})."""
    from skeinhom.surface import removable_seam

    spec = cx.spec
    (ri, si), (rj, sj), order = removable_seam(spec, seam)
    kept = [r for r in range(len(spec.regions)) if r != rj]
    region_pos = {r: i for i, r in enumerate(kept)}
    region_pos[rj] = region_pos[ri]
    seg_pos = {(r, s): (region_pos[r], s) for r in kept if r != ri
               for s in range(len(spec.regions[r]))}
    seg_pos.update({rs: (region_pos[ri], new_s) for new_s, rs in enumerate(order)})
    z_map = _closure_arc_map(cx, target, region_pos, ri, rj,
                             _spliced_chords(cx.bottom, ri, si, rj, sj, order),
                             _spliced_chords(cx.top, ri, si, rj, sj, order))
    return z_map, _middle_arc_map(cx, target, seg_pos, seam)


def _plug_sites(cx, seam, mw, a0, m_src, d_src):
    """Saddle data joining the two plug copies of a length-zero seam word,
    placed by explicit point offsets: the minus-side slot holds a0
    reflected, so its point m-1-u (bottom) or 2m+n-1-u (top) of an
    (m, n)-plug faces point u on the plus side."""
    from skeinhom.tqft import _chord_index

    neg = cx.layout.seam_slots[seam][-1]
    pos = cx.layout.seam_slots[seam][1]
    src_b, src_t = _point_offsets(cx.slot_tangles(mw))
    m, n = a0.bottom, a0.top

    def mirrored(u):
        return m - 1 - u if u < m else 2 * m + n - 1 - u

    def glob(slot, p):
        if p < m:
            return src_b[slot] + p
        return m_src.bottom + src_t[slot] + (p - m)

    def node(gp):
        if gp < m_src.bottom:
            return d_src.node_of_port(("y", "b", gp))
        return d_src.node_of_port(("y", "t", gp - m_src.bottom))

    out = []
    for u, v in a0.chords:
        gnu, gnv = glob(neg, mirrored(u)), glob(neg, mirrored(v))
        gpu, gpv = glob(pos, u), glob(pos, v)
        arc1 = ("y", _chord_index(m_src, gnu))
        arc2 = ("y", _chord_index(m_src, gpu))
        out.append((arc1, arc2, ((node(gnu), node(gpu)), (node(gnv), node(gpv)))))
    return out


def coarsen_by_surgery(cx, seam):
    """The coarsening of cx at seam, its chain map surgered label by label
    along the saddles of _plug_sites and the arc maps of
    coarsening_arc_maps: (target complex, components by degree)."""
    from skeinhom.surface import _coarsened
    from skeinhom.tqft import StateVector, hom_double, kh_basis

    target = _coarsened(cx, seam)[0]
    z_arc_map, m_arc_map = coarsening_arc_maps(cx, seam, target)
    g_idx = cx.layout.seam_pos[seam]
    comps = {}
    for h, mws in cx.multiwords.items():
        mat = {}
        for j, mw in enumerate(mws):
            objs, letters = mw[g_idx]
            if letters:
                continue
            a0 = objs[0]
            mw_t = mw[:g_idx] + mw[g_idx + 1:]
            i_t = target.index[h][mw_t]
            m_src = cx.m_tangle(mw)
            d_src, off_src = hom_double(cx.z_jux, m_src)
            d_tgt, _off_tgt = hom_double(target.z_jux, target.m_tangle(mw_t))
            surgeries = _plug_sites(cx, seam, mw, a0, m_src, d_src)
            arc_map = dict(z_arc_map)
            arc_map.update(m_arc_map[mw])
            for lab, _raw in kh_basis(d_src, off_src):
                col = cx._positions[h][(j, lab)]
                sv = StateVector(d_src, off_src, {lab: 1})
                for arc1, arc2, pairing in surgeries:
                    sv = surgered(sv, arc1, arc2, pairing)
                image = transport(sv, d_tgt, arc_map)
                for lab2, c2 in image.terms.items():
                    if not c2:
                        continue
                    row = target._positions[h][(i_t, lab2)]
                    mat[(row, col)] = mat.get((row, col), 0) + c2
        comps[h] = mat
    return target, comps


def _cap_chord_index(a0, p, q):
    """Chord index in reflect_x(a0) folding onto the cap chord (p, q)."""
    u = a0.reflect_x()
    m, n = u.bottom, u.top

    def inv(v):
        return v if v < m else m + n - 1 - (v - m)

    s, t = sorted((inv(p), inv(q)))
    return u.chords.index((s, t))


def _cup_chord_index(ar, p, q):
    """Chord index in ar folding onto the cup chord at positions (p, q)."""
    m = ar.bottom

    def inv(w):
        return m - 1 - w if w < m else w

    s, t = sorted((inv(p), inv(q)))
    return ar.chords.index((s, t))


def fold_entry_by_circles(a0, ar, b0, br, cap_sv, cup_sv):
    """A morphism between fold tangles acting separately on caps and cups.

    cap_sv lives on the double of reflect_x(a0) and reflect_x(b0); cup_sv on
    the double of ar and br.  Their labels are carried onto the bottom and
    top circle families of the fold double, its circles read on every call.
    """
    from skeinhom.barproj import fold_tangle
    from skeinhom.tqft import StateVector, hom_double

    Ta, Tb = fold_tangle(a0, ar), fold_tangle(b0, br)
    D, off = hom_double(Ta, Tb)
    N = Ta.bottom
    assignment = []
    for circ in D.circles:
        arc = next(a for a in circ if a[0] == "x")
        p, q = Ta.chords[arc[1]]
        if q < N:
            k0 = _cap_chord_index(a0, p, q)
            assignment.append((0, cap_sv.diagram.component_of[("x", k0)]))
        else:
            k0 = _cup_chord_index(ar, p - N, q - N)
            assignment.append((1, cup_sv.diagram.component_of[("x", k0)]))
    terms = {}
    for lab_cap, c1 in cap_sv.sorted_terms():
        for lab_cup, c2 in cup_sv.sorted_terms():
            lab = tuple((lab_cap, lab_cup)[w][i] for w, i in assignment)
            terms[lab] = terms.get(lab, 0) + c1 * c2
    return StateVector(D, off, terms)


def words_of(ring, r, reduced=True):
    """All words of length r over ring, letters reduced or any basis
    labeling, enumerated directly."""
    def pool(a, b):
        if reduced:
            return ring.reduced(a, b)
        return tuple(lab for lab, _ in ring.basis(a, b))

    if r == 0:
        return tuple(((a,), ()) for a in ring.objects)
    out = []
    for objs in itertools.product(ring.objects, repeat=r + 1):
        pools = [pool(objs[i], objs[i + 1]) for i in range(r)]
        for letters in itertools.product(*pools):
            out.append((objs, letters))
    return tuple(out)


def surface_multiwords(cx):
    """The word tuples of a surface hom complex by degree, one pool of
    words per seam: (multiwords, index)."""
    from skeinhom.barproj import _compositions

    word_pool = {}
    for name in cx.seam_names:
        ring = cx.rings[name]
        word_pool[name] = {r: words_of(ring, r, cx.reduced) for r in range(cx.depth + 1)}
    multiwords, index = {}, {}
    for total in range(cx.depth + 1):
        bucket = []
        for comp in _compositions(total, len(cx.seam_names)):
            pools = [word_pool[n][r] for n, r in zip(cx.seam_names, comp)]
            bucket.extend(itertools.product(*pools))
        multiwords[-total] = tuple(bucket)
        index[-total] = {w: i for i, w in enumerate(bucket)}
    return multiwords, index


def _slot_entry(cx, slots_src, k, tgt_slot, sv):
    from skeinhom.tqft import identity_state, juxtaposed

    factors = []
    for idx, t in enumerate(slots_src):
        if idx == k:
            factors.append((t, tgt_slot, sv))
        else:
            factors.append((t, t, identity_state(t)))
    return juxtaposed(factors)


def surface_faces(cx, mw):
    """Bar faces of a word tuple of a surface hom complex, with alternating
    and Koszul signs, written out seam by seam."""
    from skeinhom.tqft import basis_state, identity_state, reflected_x, transposed

    def replace(mw, g, word):
        return mw[:g] + (word,) + mw[g + 1:]

    slots_src = cx.slot_tangles(mw)
    koszul = 1
    for g, name in enumerate(cx.seam_names):
        objs, letters = mw[g]
        r = len(letters)
        if r:
            neg = cx.layout.seam_slots[name][-1]
            pos = cx.layout.seam_slots[name][1]
            first = basis_state(objs[0], objs[1], letters[0])
            sv = reflected_x(first, objs[0], objs[1])
            w0 = (objs[1:], letters[1:])
            yield (replace(mw, g, w0),
                   _slot_entry(cx, slots_src, neg, objs[1].reflect_x(), sv).scaled(koszul))
            for i in range(1, r):
                prod = ring_mul_by_pair(objs[i - 1], objs[i], objs[i + 1],
                                        letters[i - 1], letters[i])
                ident = identity_state(cx.m_tangle(mw))
                for lab, coeff in prod.sorted_terms():
                    if not coeff:
                        continue
                    wi = (objs[:i] + objs[i + 1:],
                          letters[:i - 1] + (lab,) + letters[i + 1:])
                    yield (replace(mw, g, wi),
                           ident.scaled(koszul * coeff * (-1) ** (i % 2)))
            last = basis_state(objs[-2], objs[-1], letters[-1])
            sv = transposed(last, objs[-2], objs[-1])
            wr = (objs[:-1], letters[:-1])
            yield (replace(mw, g, wr),
                   _slot_entry(cx, slots_src, pos, objs[-2], sv).scaled(koszul * (-1) ** (r % 2)))
        koszul *= (-1) ** (r % 2)


def surface_differentials(cx):
    """The twisted differential of a surface hom complex, face by face over
    surface_multiwords: {h: {(row, col): state}}, zero entries kept."""
    multiwords, index = surface_multiwords(cx)
    diffs = {}
    for h in range(-cx.depth, 0):
        entries = {}
        for j, mw in enumerate(multiwords[h]):
            for mw_tgt, sv in surface_faces(cx, mw):
                key = (index[h + 1][mw_tgt], j)
                if key in entries:
                    entries[key] = entries[key] + sv
                else:
                    entries[key] = sv
        diffs[h] = entries
    return diffs


def bottom_projector_by_faces(N, depth, split=None):
    """Objects and differentials of the bar-resolution projector on N
    strands, its faces written out on fold tangles: (objects, diffs)."""
    from skeinhom.barproj import SmallRing, fold_entry, fold_tangle, word_degree
    from skeinhom.tqft import basis_state, identity_state, reflected_x, transposed

    if split is None:
        split = (N // 2, N // 2)
    m, n = split
    ring = SmallRing(m, n)
    words = {r: words_of(ring, r) for r in range(depth + 1)}
    index = {r: {w: i for i, w in enumerate(ws)} for r, ws in words.items()}
    objects = {}
    for r, ws in words.items():
        objects[-r] = tuple(
            (fold_tangle(w[0][0], w[0][-1]), N // 2 + word_degree(ring, w)) for w in ws
        )
    diffs = {}
    for r in range(1, depth + 1):
        entries = {}
        for j, (objs, letters) in enumerate(words[r]):
            a0, ar = objs[0], objs[-1]
            faces = []
            # left absorption: the first letter acts on the bottom caps
            w0 = (objs[1:], letters[1:])
            f1 = basis_state(objs[0], objs[1], letters[0])
            sv0 = fold_entry(a0, ar, objs[1], ar,
                             reflected_x(f1, objs[0], objs[1]), identity_state(ar))
            faces.append((w0, sv0))
            # inner compositions
            for i in range(1, r):
                prod = ring_mul_by_pair(objs[i - 1], objs[i], objs[i + 1],
                                        letters[i - 1], letters[i])
                ident = identity_state(fold_tangle(a0, ar))
                for lab, coeff in prod.sorted_terms():
                    wi = (objs[:i] + objs[i + 1:],
                          letters[:i - 1] + (lab,) + letters[i + 1:])
                    sv = ident.scaled(coeff * (-1) ** (i % 2))
                    faces.append((wi, sv))
            # right absorption: the last letter acts on the top cups
            wr = (objs[:-1], letters[:-1])
            fr = basis_state(objs[-2], objs[-1], letters[-1])
            svr = fold_entry(a0, ar, a0, objs[-2],
                             identity_state(a0.reflect_x()),
                             transposed(fr, objs[-2], objs[-1]))
            faces.append((wr, svr.scaled((-1) ** (r % 2))))
            for w_tgt, sv in faces:
                i_tgt = index[r - 1][w_tgt]
                key = (i_tgt, j)
                if key in entries:
                    entries[key] = entries[key] + sv
                else:
                    entries[key] = sv
        diffs[-r] = entries
    return objects, diffs
