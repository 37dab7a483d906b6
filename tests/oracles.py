"""Independent brute-force reference computations used by the test suite.

Everything here is deliberately written with different algorithms from the
package (stack-based crossing checks, union-find circle tracing, naive
enumeration, fraction-free elimination) so agreement is meaningful.
"""

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

    cx._require_known(i - 1, j)
    cx._require_known(i, j)
    cx._require_known(i + 1, j)
    rows_in, n_src_in, _ = dense_block(cx, i - 1, j)
    rows_out, n_i, _ = dense_block(cx, i, j)
    invs = smith_invariants(rows_in) if rows_in and rows_in[0] else []
    rank_in = len([d for d in invs if d])
    rank_out = matrix_rank(rows_out) if rows_out and rows_out[0] else 0
    betti = n_i - rank_in - rank_out
    assert betti >= 0
    torsion = tuple(d for d in invs if d > 1)
    return betti, torsion


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
        bad = [k for k, sv in acc.items() if sv]
        if bad:
            raise ChainMapError(f"differential does not square to zero from degree {h}: {bad[:3]}")


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
            raise ChainMapError(f"components do not commute with differentials at {h}: {bad[:3]}")


def twisted_cone_reference(source, target, components, check=True):
    """Mapping cone of a degree-zero map between twisted complexes."""
    from skeinhom.barproj import TwistedTangleComplex

    if check:
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
    return TwistedTangleComplex(objects, diffs, h_lo, h_hi, complete, cert, check=False)


def nested_scan_chain_map_verify(self):
    """Raise ChainMapError unless the ChainMap self is a chain map."""
    from skeinhom.errors import ChainMapError

    for h, comp in self.components.items():
        src = self.source.generators.get(h, ())
        tgt = self.target.generators.get(h, ())
        for (i, j), c in comp.items():
            if not (0 <= j < len(src) and 0 <= i < len(tgt)):
                raise ChainMapError(f"component out of range at degree {h}")
            if src[j][1] != tgt[i][1]:
                raise ChainMapError(f"component changes quantum degree at {h}")
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
    return TruncatedComplex(gens, diffs, h_lo, h_hi, complete, cert, check=False)


def pair_by_surgery(a, b, c, sv1, sv2):
    """Compose states on the doubles of (a, b) and (b, c) diagram by diagram.

    One saddle per chord of b, then each free circle of b is merged across
    the two copies and capped off.  States must sit at their hom offsets.
    The route tqft.pair took, one surgery per pair of labelings, before
    composition was compiled once per triple of tangles.
    """
    from skeinhom.planar import ClosedDiagram
    from skeinhom.tqft import _double_instances, _joint_terms, hom_double, transport

    tangles, glue = {}, {}
    _double_instances(1, a, b, tangles, glue)
    _double_instances(2, b, c, tangles, glue)
    union = ClosedDiagram.from_instances(tangles, glue)
    state = _joint_terms(union, {1: sv1, 2: sv2})
    for k, (p, q) in enumerate(b.chords):
        arc1, arc2 = ((1, "y"), k), ((2, "x"), k)
        n1p = union.node_of_port(((1, "y"),) + b.port_of_point(p))
        n1q = union.node_of_port(((1, "y"),) + b.port_of_point(q))
        n2p = union.node_of_port(((2, "x"),) + b.port_of_point(p))
        n2q = union.node_of_port(((2, "x"),) + b.port_of_point(q))
        state = state.surgered(arc1, arc2, ((n1p, n2p), (n1q, n2q)))
    for k in range(b.circles):
        arc1, arc2 = ((1, "y"), "o", k), ((2, "x"), "o", k)
        l1 = state.diagram.arcs[arc1][0]
        l2 = state.diagram.arcs[arc2][0]
        state = state.surgered(arc1, arc2, ((l1, l2), (l1, l2)))
        state = state.killed(("srg", arc1, arc2, 0))
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
