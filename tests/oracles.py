"""Independent brute-force oracles, deliberately written against plain
tables (dicts/tuples) rather than the package's own abstractions, so that
expected values are computed by a second route."""

from itertools import combinations_with_replacement, product

from squanta.downset import normalize
from squanta.errors import FragmentExceeded, IllDefined
from squanta.modact import POSET, is_module_hom
from squanta.multiupset import Multiupset
from squanta.nucleus import AddConsequence, Nucleus, QuantCongruence, _failures
from squanta.order import _bits
from squanta.projective import (enumerate_module_homs, self_module,
                                submodule_on_orbit)


# -- presentations on a finite quantale table ----------------------------------


def brute_nuclei(els, leq, plus):
    """All maps that are monotone, expansive, idempotent and satisfy the sum
    law, by scanning every self-map table."""
    out = []
    for values in product(els, repeat=len(els)):
        g = dict(zip(els, values))
        if any(not leq(x, g[x]) for x in els):
            continue
        if any(leq(x, y) and not leq(g[x], g[y]) for x in els for y in els):
            continue
        if any(g[g[x]] != g[x] for x in els):
            continue
        if any(not leq(plus(g[x], g[y]), g[plus(x, y)]) for x in els for y in els):
            continue
        out.append(tuple(sorted(g.items())))
    return out


def _is_consequence(els, leq, plus, join, rel):
    """Whether a relation holds every >=-pair, is transitive, holds the join
    of each successor set, and is compatible with + on either side."""
    if any((x, y) not in rel for x in els for y in els if leq(y, x)):
        return False
    if any((x, z) not in rel
           for (x, y) in rel for (y2, z) in rel if y == y2):
        return False
    for x in els:
        succ = [y for y in els if (x, y) in rel]
        acc = succ[0]
        for s in succ[1:]:
            acc = join(acc, s)
        if (x, acc) not in rel:
            return False
    return not any(((plus(x, z), plus(y, z)) not in rel
                    or (plus(z, x), plus(z, y)) not in rel)
                   for (x, y) in rel for z in els)


def brute_consequences(els, leq, plus, join):
    """All additive consequence relations, scanning every binary relation."""
    pairs = [(x, y) for x in els for y in els]
    out = []
    for bits in product([False, True], repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if _is_consequence(els, leq, plus, join, rel):
            out.append(frozenset(rel))
    return out


def scan_consequences(els, leq, plus, join):
    """All additive consequence relations, scanning only the relations that
    hold every >=-pair: the free pairs are the others, in sorted order, the
    first one most significant."""
    forced = {(x, y) for x in els for y in els if leq(y, x)}
    free = sorted({(x, y) for x in els for y in els} - forced)
    out = []
    for bits in product([False, True], repeat=len(free)):
        rel = forced | {p for p, b in zip(free, bits) if b}
        if _is_consequence(els, leq, plus, join, rel):
            out.append(frozenset(rel))
    return out


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def congruence_failures(els, plus, join, part):
    """(law, witness) for every instance of the congruence laws that the
    partition `part` of `els` fails, scanning (a, b, c, d) in product order."""
    cls = {x: i for i, c in enumerate(part) for x in c}
    out = []
    for a, b, c, d in product(els, repeat=4):
        if cls[a] == cls[b] and cls[c] == cls[d]:
            if cls[plus(a, c)] != cls[plus(b, d)]:
                out.append(("congruence-sum", (a, b, c, d)))
            if cls[join(a, c)] != cls[join(b, d)]:
                out.append(("congruence-join", (a, b, c, d)))
    return out


def brute_congruences(els, leq, plus, join):
    return [tuple(sorted(tuple(sorted(c)) for c in part))
            for part in set_partitions(list(els))
            if not congruence_failures(els, plus, join, part)]


# -- the presentation enumerators as scans of every candidate -----------------
#
# The package's enumerators before they pruned their candidates: each
# candidate is walked through nucleus._failures, and the three lists come in
# the order the package's enumerators must keep.


def product_nuclei(q):
    """All nuclei by the lexicographic scan over every expansive map."""
    up = q.pomonoid.poset.up_rows
    candidates = (Nucleus(q, values)
                  for values in product(*[list(_bits(row)) for row in up]))
    return [g for g in candidates if next(_failures(g), None) is None]


def partition_congruences(q):
    """All congruences by the scan over set_partitions, each partition held
    by the least position of each class."""
    out = []
    for part in set_partitions(range(len(q.elements))):
        reps = [0] * len(q.elements)
        for block in part:  # ascending: block[0] is its least position
            for x in block:
                reps[x] = block[0]
        c = QuantCongruence(q, tuple(reps))
        if next(_failures(c), None) is None:
            out.append(c)
    return out


def round_robin_consequences(q):
    """All additive consequence relations by NextClosure over the free pairs
    (the first one most significant), each closure computed by sweeping
    every row until a sweep changes nothing: the rows' own joins and
    successors, then + z on either side of every row's whole set."""
    n = len(q.elements)
    plus = q.plus_op.rows
    members = [list(_bits(s)) for s in range(1 << n)]
    join_of = [None] + [q.join_of(_bits(s)) for s in range(1, 1 << n)]
    right = [[sum({1 << plus[y][z] for y in ys}) for ys in members]
             for z in range(n)]
    left = [[sum({1 << plus[z][y] for y in ys}) for ys in members]
            for z in range(n)]
    ge = q.pomonoid.poset.down_rows
    free = [(x, y) for x in range(n) for y in range(n) if not ge[x] >> y & 1]
    m = len(free)

    def close(a):
        rows = list(ge)
        for i, (x, y) in enumerate(free):
            if a >> (m - 1 - i) & 1:
                rows[x] |= 1 << y
        while True:
            before = list(rows)
            for x in range(n):
                s = rows[x] | rows[join_of[rows[x]]]
                for y in members[s]:
                    s |= rows[y]
                rows[x] = s
            for x in range(n):
                s = rows[x]
                for z in range(n):
                    rows[plus[x][z]] |= right[z][s]
                    rows[plus[z][x]] |= left[z][s]
            if rows == before:
                return rows

    def bits(rows):
        return sum(1 << (m - 1 - i) for i, (x, y) in enumerate(free)
                   if rows[x] >> y & 1)

    out = []
    rows = close(0)
    a = bits(rows)
    while True:
        c = AddConsequence(q, tuple(rows))
        assert next(_failures(c), None) is None, c
        out.append(c)
        for p in range(m):
            if a >> p & 1:
                continue
            rows = close((a >> p + 1 << p + 1) | 1 << p)
            b = bits(rows)
            if (b & ~a) >> p + 1 == 0:
                a = b
                break
        else:
            return out


# -- the Galatos-Tsinakis case: presentations of an order alone ----------------


def order_joins(els, leq):
    """{(x, y): x v y} on a lattice, each the least upper bound found by
    scanning the order."""
    joins = {}
    for x, y in product(els, repeat=2):
        uppers = [z for z in els if leq(x, z) and leq(y, z)]
        joins[(x, y)] = next(z for z in uppers
                             if all(leq(z, w) for w in uppers))
    return joins


def closure_operators(els, leq):
    """All monotone, expansive, idempotent self-maps, by scanning every
    self-map table."""
    out = []
    for values in product(els, repeat=len(els)):
        g = dict(zip(els, values))
        if all(leq(x, g[x]) and g[g[x]] == g[x] for x in els) and all(
                leq(g[x], g[y]) for x in els for y in els if leq(x, y)):
            out.append(tuple(sorted(g.items())))
    return out


def join_closed_preorders(els, leq):
    """All transitive relations that hold every >=-pair and the join of each
    successor set, scanning the relations that hold every >=-pair."""
    joins = order_joins(els, leq)
    forced = {(x, y) for x in els for y in els if leq(y, x)}
    free = sorted({(x, y) for x in els for y in els} - forced)
    out = []
    for bits in product([False, True], repeat=len(free)):
        rel = forced | {p for p, b in zip(free, bits) if b}
        if any((x, z) not in rel
               for (x, y) in rel for (y2, z) in rel if y == y2):
            continue
        if all((x, _fold(joins, [y for y in els if (x, y) in rel])) in rel
               for x in els):
            out.append(frozenset(rel))
    return out


def _fold(joins, xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = joins[(acc, x)]
    return acc


def semilattice_congruences(els, leq):
    """All partitions whose classes the join of the order respects, as
    sorted tuples of sorted classes."""
    joins = order_joins(els, leq)
    out = []
    for part in set_partitions(list(els)):
        cls = {x: i for i, c in enumerate(part) for x in c}
        if all(cls[joins[(a, c)]] == cls[joins[(b, d)]]
               for a, b, c, d in product(els, repeat=4)
               if cls[a] == cls[b] and cls[c] == cls[d]):
            out.append(tuple(sorted(tuple(sorted(c)) for c in part)))
    return out


def presentation_leq(p, r):
    """Whether p lies below r, two presentations of one kind on one space:
    pointwise for nuclei, by inclusion for consequence relations and by
    refinement for congruences."""
    if isinstance(p, Nucleus):
        up = p.space.pomonoid.poset.up_rows
        return all(up[x] >> y & 1 for x, y in zip(p.values, r.values))
    if isinstance(p, AddConsequence):
        return all(a & ~b == 0 for a, b in zip(p.rows, r.rows))
    return all(r.reps[x] == r.reps[c] for x, c in enumerate(p.reps))


# -- the search enumerators, by scanning every candidate table ----------------


def brute_labeled_posets(n):
    """All partial orders on 0..n-1 as strict-pair sets, by scanning every
    relation on the off-diagonal pairs (i, j) in row order, the first pair
    most significant."""
    nonrefl = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in product([False, True], repeat=len(nonrefl)):
        rel = {p for p, b in zip(nonrefl, bits) if b}
        if any((j, i) in rel for (i, j) in rel):
            continue
        if any((i, k) not in rel
               for (i, j) in rel for (jj, k) in rel if j == jj and i != k):
            continue
        out.append(rel)
    return out


def _join_table(n, leq):
    join = {}
    for a, b in product(range(n), repeat=2):
        uppers = [c for c in range(n) if leq(a, c) and leq(b, c)]
        lubs = [c for c in uppers if all(leq(c, d) for d in uppers)]
        if len(lubs) != 1:
            return None
        join[(a, b)] = lubs[0]
    return join


def brute_quantale_descriptions(size):
    """Descriptions of every c.d.i. generalized quantale on at most `size`
    labeled elements: for each order from brute_labeled_posets with a bottom
    and all binary joins, every commutative + table with the bottom as unit
    and x + y above x v y, scanned in product order and kept when it is
    associative, monotone and distributes over binary joins."""
    out = []
    for n in range(1, size + 1):
        for rel in brute_labeled_posets(n):
            leq = lambda a, b, rel=rel: a == b or (a, b) in rel
            join = _join_table(n, leq)
            if join is None:
                continue
            bottoms = [b for b in range(n) if all(leq(b, x) for x in range(n))]
            if not bottoms:
                continue
            zero = bottoms[0]
            nonzero = [x for x in range(n) if x != zero]
            free_pairs = list(combinations_with_replacement(nonzero, 2))
            choice_sets = [[z for z in range(n) if leq(join[(x, y)], z)]
                           for x, y in free_pairs]
            for values in product(*choice_sets):
                op = {}
                for x in range(n):
                    op[(zero, x)] = op[(x, zero)] = x
                for (x, y), z in zip(free_pairs, values):
                    op[(x, y)] = op[(y, x)] = z
                triples = list(product(range(n), repeat=3))
                if any(op[(op[(a, b)], c)] != op[(a, op[(b, c)])]
                       for a, b, c in triples):
                    continue
                if any(leq(a, b) and not leq(op[(a, c)], op[(b, c)])
                       for a, b, c in triples):
                    continue
                if any(op[(a, join[(b, c)])] != join[(op[(a, b)], op[(a, c)])]
                       for a, b, c in triples):
                    continue
                out.append({
                    "poset": {
                        "elements": [str(i) for i in range(n)],
                        "leq": [[str(i), str(j)] for (i, j) in sorted(rel)],
                    },
                    "monoid": {
                        "op": [[str(x), str(y), str(z)]
                               for (x, y), z in sorted(op.items())],
                        "unit": str(zero),
                    },
                })
    return out


def brute_commutative_mults(els, leq, plus, join, zero):
    """(unit, table) for every commutative multiplication on a finite
    quantale that makes a monotone monoid, distributes over + and binary
    joins, and is absorbed by the additive zero: for each unit in element
    order, every commutative table with the unit's row fixed, scanned in
    product order over the other cells."""
    out = []
    for one in els:
        others = [x for x in els if x != one]
        free_pairs = list(combinations_with_replacement(others, 2))
        for values in product(els, repeat=len(free_pairs)):
            m = {}
            for x in els:
                m[(one, x)] = m[(x, one)] = x
            for (x, y), z in zip(free_pairs, values):
                m[(x, y)] = m[(y, x)] = z
            triples = list(product(els, repeat=3))
            if any(m[(m[(x, y)], z)] != m[(x, m[(y, z)])]
                   for x, y, z in triples):
                continue
            if any(leq(x, y) and not leq(m[(x, z)], m[(y, z)])
                   for x, y, z in triples):
                continue
            if any(m[(join(x, y), z)] != join(m[(x, z)], m[(y, z)])
                   or m[(plus(x, y), z)] != plus(m[(x, z)], m[(y, z)])
                   for x, y, z in triples):
                continue
            if any(m[(zero, x)] != zero for x in els):
                continue
            out.append((one, m))
    return out


# -- the endomorphism construction, over label tables ---------------------------


def brute_exp_end(els, leq, plus, join, zero, bottom):
    """The endomorphisms of a finite quantale and their closure under
    pointwise + and binary joins, as tuples of values in element order.

    Every self-map table is scanned and kept when it is monotone, preserves
    binary joins and +, and fixes the zero and the bottom (None when there
    is none). The closure combines every pair of maps found so far until a
    round adds nothing."""
    endos = []
    for values in product(els, repeat=len(els)):
        f = dict(zip(els, values))
        if any(leq(x, y) and not leq(f[x], f[y]) for x in els for y in els):
            continue
        if any(f[join(x, y)] != join(f[x], f[y]) for x in els for y in els):
            continue
        if any(f[plus(x, y)] != plus(f[x], f[y]) for x in els for y in els):
            continue
        if f[zero] != zero or bottom is not None and f[bottom] != bottom:
            continue
        endos.append(values)
    gen = set(endos)
    grew = True
    while grew:
        grew = False
        for f, g in product(list(gen), repeat=2):
            for h in (tuple(plus(a, b) for a, b in zip(f, g)),
                      tuple(join(a, b) for a, b in zip(f, g))):
                if h not in gen:
                    gen.add(h)
                    grew = True
    return endos, gen


# -- module actions, over labels -----------------------------------------------


def brute_check_action(ma):
    """The module laws of an action with finite scalars on a finite
    quantale, scanned over labels: every failing (law, witness) in scan
    order, and the number of instances checked."""
    aqm, sp, star = ma.scalars, ma.space, ma.star
    q = aqm.quant
    scalars, points = list(q.elements), list(sp.elements)
    failures = []
    checked = 0

    def eq(law, witness, lhs, rhs):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            failures.append((law, witness))

    for x in points:
        eq("unit", x, star(aqm.one, x), x)
        eq("zero-scalar", x, star(q.zero, x), sp.zero)
    for s, t in product(scalars, repeat=2):
        for x in points:
            eq("compose", (s, t, x), star(aqm.mult(s, t), x), star(s, star(t, x)))
            eq("scalar-plus", (s, t, x), star(q.plus(s, t), x),
               sp.plus(star(s, x), star(t, x)))
            eq("scalar-join", (s, t, x), star(q.join([s, t]), x),
               sp.join([star(s, x), star(t, x)]))
    for i in [aqm.iota(d) for d in aqm.dist.elements]:
        for x, y in product(points, repeat=2):
            eq("iota-join-dist", (i, x, y), star(i, sp.join([x, y])),
               sp.join([star(i, x), star(i, y)]))
            eq("iota-plus-dist", (i, x, y), star(i, sp.plus(x, y)),
               sp.plus(star(i, x), star(i, y)))
        eq("iota-zero", i, star(i, sp.zero), sp.zero)
    return failures, checked


def brute_check_poset_act(am):
    """The laws of a poset action or an act, each instance evaluated on its
    own over scalar_universe() x space_universe(): the set of failing
    (law, witness) pairs and the (checked, skipped) counts, an instance
    that leaves the fragment counting as skipped."""
    mon, sp, star = am.scalars, am.space, am.star
    scalars, points = am.scalar_universe(), am.space_universe()
    failures, counts = set(), [0, 0]  # checked, skipped

    def holds(law, witness, test):
        try:
            ok = test()
        except FragmentExceeded:
            counts[1] += 1
            return
        counts[0] += 1
        if not ok:
            failures.add((law, witness))

    for x in points:
        holds("unit", x, lambda: star(mon.unit, x) == x)
    for a, b, x in product(scalars, scalars, points):
        holds("compose", (a, b, x),
              lambda: star(mon.apply(a, b), x) == star(a, star(b, x)))
        if mon.leq(a, b):
            holds("scalar-monotone", (a, b, x),
                  lambda: sp.leq(star(a, x), star(b, x)))
    if am.level == POSET:
        for a, x, y in product(scalars, points, points):
            if sp.leq(x, y):
                holds("point-monotone", (a, x, y),
                      lambda: sp.leq(star(a, x), star(a, y)))
        return failures, tuple(counts)
    for a, x in product(scalars, points):
        holds("zero", (a, x), lambda: star(a, sp.zero) == sp.zero)
    for a, x, y in product(scalars, points, points):
        holds("join-dist", (a, x, y), lambda: star(a, sp.join([x, y]))
              == sp.join([star(a, x), star(a, y)]))
        holds("plus-dist", (a, x, y), lambda: star(a, sp.plus(x, y))
              == sp.plus(star(a, x), star(a, y)))
    return failures, tuple(counts)


def brute_structural_over(p, ma, scalars):
    """Whether a nucleus, consequence relation or congruence p on the space
    of an action with finite scalars is structural for every scalar in
    `scalars`, scanned over labels: (True, None), or (False, witness) for
    the first failing instance, scalar by scalar, then x (and y) in element
    order."""
    els, star = ma.space.elements, ma.star
    kind = type(p).__name__
    for a in scalars:
        for x in els:
            if kind == "Nucleus":
                if not ma.space.leq(star(a, p.apply(x)), p.apply(star(a, x))):
                    return False, (a, x)
                continue
            for y in els:
                if kind == "AddConsequence":
                    bad = p.holds(x, y) and not p.holds(star(a, x), star(a, y))
                else:
                    bad = p.related(x, y) and not p.related(star(a, x),
                                                            star(a, y))
                if bad:
                    return False, (a, x, y)
    return True, None


def brute_residual(y, x, ma):
    """y/x over labels for an action with finite scalars: (value,
    certificate), or (message, witness) of the first check that fails."""
    q, sp, star = ma.scalars.quant, ma.space, ma.star
    certificate = tuple(b for b in q.elements if sp.leq(star(b, x), y))
    if not certificate:
        return "no scalar sends x below y", (y, x)
    value = q.join(certificate)
    if not sp.leq(star(value, x), y):
        return "join of the certificate set escapes the bound", (value, x, y)
    for a in q.elements:
        if q.leq(a, value) != sp.leq(star(a, x), y):
            return "adjunction fails", (a, value, x, y)
    return value, certificate


# -- module homomorphisms over labels -------------------------------------------


def scan_iso(m1, m2):
    """The first module isomorphism m1 -> m2 among all homomorphisms, in
    enumeration order."""
    for h in enumerate_module_homs(m1, m2):
        if sorted(h.values()) == sorted(m2.space.elements):
            if is_module_hom({v: k for k, v in h.items()}, m2, m1):
                return h
    return None


def brute_condition_ii(ma):
    """The scalars u, sorted, that are idempotent, dividing in the
    self-module (every residual y/u exists, by brute_residual), and whose
    orbit submodule of the self-module scan_iso finds isomorphic to ma."""
    aqm = ma.scalars
    selfm, els = self_module(aqm), aqm.quant.elements
    return sorted(
        u for u in els if aqm.mult(u, u) == u
        and all(brute_residual(y, u, selfm)[0] in els for y in els)
        and scan_iso(ma, submodule_on_orbit(selfm, u)) is not None)


def label_hom_from_generator_image(p_mod, u, q_mod, w):
    """The module homomorphism from a u-cyclic module determined by sending
    the generator to w, by a scan over the scalar labels: a*u = b*u must
    force a*w = b*w. Raises IllDefined as
    modact.hom_from_generator_image does."""
    images = {}
    for a in p_mod.scalar_universe():
        x = p_mod.star(a, u)
        y = q_mod.star(a, w)
        if x in images and images[x] != y:
            prev = next(b for b in p_mod.scalar_universe()
                        if p_mod.star(b, u) == x and q_mod.star(b, w) == images[x])
            raise IllDefined(
                "generator image does not induce a map", witness=(prev, a)
            )
        images[x] = y
    missing = [x for x in p_mod.space.elements if x not in images]
    if missing:
        raise IllDefined("module is not u-cyclic", witness=missing[0])
    if not is_module_hom(images, p_mod, q_mod):
        raise IllDefined("induced map is not a module homomorphism",
                         witness=sorted(images.items()))
    return images


# -- multiupsets as raw count tables -------------------------------------------


def eval_gens(elements, leq, gens):
    """Pointwise evaluation of a generator multiset: count generators below
    each element."""
    return tuple(sum(1 for a in gens if leq(a, x)) for x in elements)


def all_gen_multisets(elements, max_size):
    for size in range(max_size + 1):
        yield from combinations_with_replacement(elements, size)


def multiupset_universe(elements, leq, max_size):
    """All distinct evaluation tables of generator multisets up to a size."""
    return {eval_gens(elements, leq, g) for g in all_gen_multisets(elements, max_size)}


# -- downsets as explicit element sets -----------------------------------------


def full_downset(universe, leq_vec, gens):
    """The denoted downset inside an explicit universe of eval-tables."""
    return frozenset(v for v in universe if any(leq_vec(v, g) for g in gens))


def downset_sum_oracle(universe, leq_vec, add_vec, p_set, q_set):
    """Down-closure of all pairwise sums over the *full* downsets."""
    sums = {add_vec(a, b) for a in p_set for b in q_set}
    return frozenset(v for v in universe if any(leq_vec(v, s) for s in sums))


def naive_elementwise_product(m, p, q):
    """The elementwise multiset product on downsets, kept as a foil: it does
    not in general agree with the free product of aqm.free_aqm."""
    base = p.base
    gens = [
        Multiupset(m.poset, tuple(m.apply(a, b) for a in f.gens for b in g.gens))
        for f in p.maxgens
        for g in q.maxgens
    ]
    return normalize(base, gens)
