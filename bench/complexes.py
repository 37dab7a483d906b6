"""Integer complexes for the homology workload, and an elimination check.

`known_answer_complex` lays down elementary pieces (a surviving generator,
or a pair joined by a unit or by 2 or 4) cell by cell and then mixes them
with unimodular basis changes, the construction of
``tests/test_homalg.py::random_shuffled_complex``, so the homology is known
without computing it.  Its cell sizes follow a profile taken from a real
surface hom complex, and mixing runs until there are about 1.7 nonzeros
per generator, as in that complex.  Torsion orders are powers of 2, so
the invariant factors of a cell are its piece orders, sorted.
"""

from skeinhom.homalg import TruncatedComplex
from tests.oracles import bareiss_rank

# Generators per (h, q) of the ANNULUS complexes CUPCAP2 -> THROUGH2 at
# depth 3 (1,408 generators, largest block 373 x 50) and CUPCAP2 -> CUPCAP2
# at depth 2 (564 generators).
PROFILE_DEPTH3 = {
    -3: {3: 8, 5: 81, 7: 256, 9: 373, 11: 280, 13: 108, 15: 19, 17: 1},
    -2: {1: 1, 3: 18, 5: 61, 7: 82, 9: 50, 11: 13, 13: 1},
    -1: {1: 4, 3: 15, 5: 18, 7: 8, 9: 1},
    0: {-1: 1, 1: 4, 3: 4, 5: 1},
}
PROFILE_DEPTH2 = {
    -2: {0: 1, 2: 19, 4: 79, 6: 143, 8: 132, 10: 63, 12: 14, 14: 1},
    -1: {0: 4, 2: 19, 4: 33, 6: 26, 8: 9, 10: 1},
    0: {-2: 1, 0: 5, 2: 8, 4: 5, 6: 1},
}
NONZEROS_PER_GENERATOR = 1.7


def known_answer_complex(rng, profile):
    """(complex, betti, torsion) with betti and torsion known by construction."""
    hs = sorted(profile)
    gens = {h: [] for h in hs}
    diffs = {h: {} for h in hs[:-1]}
    betti, torsion = {}, {}
    for q in sorted({q for h in hs for q in profile[h]}):
        free = {}
        for h in hs:
            start = len(gens[h])
            gens[h].extend((f"g{h}.{q}.{k}", q) for k in range(profile[h].get(q, 0)))
            free[h] = list(range(start, len(gens[h])))
        for a, h in enumerate(hs[:-1]):
            src, tgt = free[h], free[hs[a + 1]]
            pairs = min(len(src), len(tgt))
            if pairs and rng.random() < 0.3:
                pairs -= 1
            for _ in range(pairs):
                s, t = src.pop(), tgt.pop(0)
                order = rng.choice((2, 4)) if rng.random() < 0.03 else 1
                if order > 1:
                    torsion.setdefault((h + 1, q), []).append(order)
                diffs[h][(t, s)] = order * rng.choice((1, -1))
        for h in hs:
            if free[h]:
                betti[(h, q)] = len(free[h])

    cells = {}
    for h in hs:
        for i, (_label, q) in enumerate(gens[h]):
            cells.setdefault((h, q), []).append(i)
    mixable = [c for c, idx in cells.items() if len(idx) >= 2]
    weights = [len(cells[c]) for c in mixable]
    target = NONZEROS_PER_GENERATOR * sum(len(g) for g in gens.values())
    nonzeros = sum(len(d) for d in diffs.values())
    while nonzeros < target:
        h, q = rng.choices(mixable, weights)[0]
        i, j = rng.sample(cells[(h, q)], 2)
        c = rng.choice((1, -1))
        # basis change g_i += c * g_j: columns of d_h, rows of d_{h-1}
        if h in diffs:
            d = diffs[h]
            for (t, s), v in [(k, v) for k, v in d.items() if k[1] == i]:
                nonzeros += _add(d, (t, j), -c * v)
        if h - 1 in diffs:
            d = diffs[h - 1]
            for (t, s), v in [(k, v) for k, v in d.items() if k[0] == j]:
                nonzeros += _add(d, (i, s), c * v)
    cx = TruncatedComplex({h: tuple(g) for h, g in gens.items()}, diffs)
    return cx, betti, {k: tuple(sorted(v)) for k, v in torsion.items()}


def _add(d, key, value):
    """d[key] += value, dropping zeros; returns the change in nonzero count."""
    old = d.get(key, 0)
    new = old + value
    if new:
        d[key] = new
    else:
        d.pop(key, None)
    return bool(new) - bool(old)


def betti_by_elimination(cx, h_range, q_range):
    """Free ranks on a window, from fraction-free elimination on the blocks."""
    cells = {}
    for h, gens in cx.generators.items():
        for i, (_label, q) in enumerate(gens):
            cells.setdefault((h, q), []).append(i)

    def rank(h, q):
        src, tgt = cells.get((h, q)), cells.get((h + 1, q))
        if not src or not tgt:
            return 0
        col = {g: k for k, g in enumerate(src)}
        row = {g: k for k, g in enumerate(tgt)}
        rows = [[0] * len(src) for _ in tgt]
        for (i, j), c in cx.differentials.get(h, {}).items():
            if i in row and j in col:
                rows[row[i]][col[j]] = c
        return bareiss_rank(rows)

    out = {}
    for i in range(h_range[0], h_range[1] + 1):
        for j in range(q_range[0], q_range[1] + 1):
            b = len(cells.get((i, j), ())) - rank(i - 1, j) - rank(i, j)
            if b:
                out[(i, j)] = b
    return out
