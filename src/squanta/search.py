"""Enumeration of small c.d.i. generalized quantales and the check suites
the CLI `search` command runs over them: the correspondence counts, the
left-distributivity counterexample hunt inside the endomorphism closure,
and the classification of cyclic quotients by projectivity. The labeled
lattices under the quantales are built as the orbits of one lattice per
isomorphism class, whose + tables and multiplications are searched once."""

from functools import cache
from itertools import combinations_with_replacement, permutations, product

from .aqm import exp_end, make_quantale, table_aqm
from .errors import NotStructural
from .nucleus import (KINDS, convert, enumerate_congruences,
                      enumerate_consequences, enumerate_nuclei, quotient)
from .order import join_positions, poset_from_rows, row_mismatches
from .projective import cyclic_projective_check, self_module

__all__ = [
    "SEARCH_MAX_SIZE",
    "quantale_descriptions",
    "correspondence",
    "suite_correspond",
    "suite_leftdist",
    "suite_projective",
    "SUITES",
]


def _strict_pair_key(n):
    """Up-rows on 0..n-1 -> their strict-pair bit vector over (0, 1), (0, 2),
    ..., (n-1, n-2) as an integer, the first pair most significant."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    # (i, the bit of j, the weight of the pair (i, j) in the integer key)
    weights = [(i, 1 << j, 1 << b) for b, (i, j) in enumerate(reversed(pairs))]
    return lambda up: sum(w for i, m, w in weights if up[i] & m)


def _orbit(up):
    """The distinct relabelings of the order with up-rows `up` (bit j of
    up[i] set when i <= j), each with the first permutation s, in
    `permutations` order, that reaches it; s renames each x to s[x]."""
    n, orbit = len(up), {}
    above = [[y for y in range(n) if row >> y & 1] for row in up]
    for s in permutations(range(n)):
        rows = [0] * n
        for x, ys in enumerate(above):
            rows[s[x]] = sum(1 << s[y] for y in ys)
        orbit.setdefault(tuple(rows), s)
    return orbit


def _order_classes(k):
    """One labeled copy of each partial order on k points, up to isomorphism.
    Removing a maximal point leaves an order on one point fewer, so every
    order on m + 1 points is one on m points plus a maximal point m above
    an order ideal d (which holds everything below its members); a
    candidate is kept unless the orbit of a kept one holds it."""
    classes = [()]
    for m in range(k):
        seen, grown = set(), []
        for up in classes:
            for d in range(1 << m):
                if any(up[i] & d and not d >> i & 1 for i in range(m)):
                    continue  # i is below a member of d but not in it
                new = tuple(r | 1 << m if d >> i & 1 else r
                            for i, r in enumerate(up)) + (1 << m,)
                if new not in seen:
                    seen.update(_orbit(new))
                    grown.append(new)
        classes = grown
    return classes


def _lattice_classes(n):
    """One labeled copy of each lattice on n points, up to isomorphism, the
    rep, mapped to its orbit: each copy with a relabeling s that reaches it
    from the rep. The rep is the copy that _strict_pair_key puts first. For
    n >= 2 a lattice is an order on the n - 2 points other than its bottom
    and its top, and two lattices are isomorphic exactly when those orders
    are; an order class with a bottom and a top added is kept when every
    pair has a join. Its orbit is computed once, from that order: the copy
    s reaches from it is reached by s after the inverse of s_rep from the
    rep, where s_rep reaches the rep."""
    if n == 1:
        return {(1,): {(1,): (0,)}}
    key, top, classes = _strict_pair_key(n), 1 << n - 1, {}
    for mid in _order_classes(n - 2):
        # bottom 0, top n - 1, and the order's point i renamed i + 1
        up = (2 * top - 1,) + tuple(r << 1 | top for r in mid) + (top,)
        if None not in join_positions(up):
            orbit = _orbit(up)
            rep = min(orbit, key=key)
            inv = sorted(range(n), key=orbit[rep].__getitem__)
            classes[rep] = {c: tuple(s[i] for i in inv) for c, s in orbit.items()}
    return classes


def _commutative_tables(n, leq, unit, over=(), zero=None):
    """Every commutative, associative table t on 0..n-1 (x*y = t[x*n + y])
    with `unit` neutral and `zero` (if given) absorbing, both translations
    monotone for the 0/1 matrix `leq`, and distributing over each flat
    table op in `over`: a*op(b, c) = op(a*b, a*c), one side being enough as
    t is commutative.

    The unit's and the zero's rows are preset and decided once. The other
    cells are filled in `combinations_with_replacement` order, trying values
    in ascending order, so the tables come out in `product` order over those
    cells. A value is cut as soon as it breaks monotonicity against an
    assigned cell, associativity on a triple whose four cells are assigned,
    or distributivity on the row it completes."""
    t = [-1] * (n * n)
    preset = [unit] if zero is None else [unit, zero]
    for p, x in product(preset, range(n)):
        t[p * n + x] = t[x * n + p] = zero if p == zero else x
    free = [x for x in range(n) if x not in preset]
    cells = list(combinations_with_replacement(free, 2))

    def assoc(a, b, c):
        ab, bc = t[a * n + b], t[b * n + c]
        if ab < 0 or bc < 0:
            return True
        lhs, rhs = t[ab * n + c], t[a * n + bc]
        return lhs < 0 or rhs < 0 or lhs == rhs

    def fits(x, y, z):
        for a in range(n):  # monotone against the cells (a, y) and (a, x)
            for other, w in ((x, t[a * n + y]), (y, t[a * n + x])):
                if w >= 0 and (leq[a][other] and not leq[w][z]
                               or leq[other][a] and not leq[z][w]):
                    return False
        # with t commutative, (a*b)*c = a*(b*c) is the same equation as
        # (c*b)*a = c*(b*a), so (x, y) need only be tried as a*b and as the
        # outer cell of (a*b)*c
        for a in range(n):
            if not (assoc(x, y, a) and assoc(y, x, a)):
                return False
        for p in range(n):
            for q in range(n):
                v = t[p * n + q]
                if (v == x and not assoc(p, q, y)
                        or v == y and not assoc(p, q, x)):
                    return False
        return True

    def distributes(a):  # row a, complete: a*op(b, c) = op(a*b, a*c)
        row = t[a * n:a * n + n]
        return all(row[bc] == op[row[i // n] * n + row[i % n]]
                   for op in over for i, bc in enumerate(op))

    # the preset cells, decided as searched ones (zero = unit clashes, n > 1)
    if any(t[unit * n + x] != x or not fits(p, x, t[p * n + x])
           for p in preset for x in range(n)) \
            or not all(map(distributes, preset)):
        return
    # depth-first without recursion: a nested generator calling itself
    # would hold itself through its closure cell, a cycle left per call
    tried = [-1] * len(cells)  # the value of each assigned cell
    k = 0
    while k >= 0:
        if k == len(cells):
            yield tuple(t)
            k -= 1
            continue
        x, y = cells[k]
        for z in range(tried[k] + 1, n):
            t[x * n + y] = t[y * n + x] = z
            # row x is complete once its last free cell is set
            if fits(x, y, z) and (y != free[-1] or distributes(x)):
                tried[k] = z
                k += 1
                break
        else:
            t[x * n + y] = t[y * n + x] = tried[k] = -1
            k -= 1


def _relabeled(block, s, n):
    """The tables t of `block` (n * n bytes each) as t'[s(x)*n + s(y)] =
    s(t[x*n + y]), sorted: one strided slice per cell and one translate."""
    nn, inv = n * n, sorted(range(n), key=s.__getitem__)
    out = bytearray(len(block))
    for a, b in product(range(n), repeat=2):
        out[a * n + b::nn] = block[inv[a] * n + inv[b]::nn]
    out = bytes(out).translate(bytes(s).ljust(256, b"\0"))  # s, as a table
    return sorted(out[i:i + nn] for i in range(0, len(out), nn))


def _lattice_tables(n):
    """Each labeled lattice on 0..n-1, in ascending order of
    _strict_pair_key, with its bottom and the sorted list of the + tables
    (as from _commutative_tables, each as bytes) that make it a c.d.i.
    generalized quantale with the bottom as unit.

    The labeled lattices are the orbits of the _lattice_classes. The tables
    are searched once per class, on its rep, which keeps them as one block
    of bytes with the relabeling s onto each copy in its orbit (_relabeled).
    Relabeling keeps every law, so these are all the tables of the copy,
    whichever s reaches it: two differ by an automorphism of the rep.
    Two tables first differ on a cell (x, y), x <= y, off the unit's row,
    so sorting puts them in the order _commutative_tables emits them."""
    key, full = _strict_pair_key(n), (1 << n) - 1  # full: the bottom's up-set
    copies = []  # (up-rows, its class's block, s from the class's rep)
    for rep, orbit in _lattice_classes(n).items():
        leq = poset_from_rows(tuple(range(n)), rep).leq_table.rows
        block = b"".join(map(bytes, _commutative_tables(
            n, leq, rep.index(full), [join_positions(rep)])))
        copies += [(up, block, s) for up, s in orbit.items()]
    for up, block, s in sorted(copies, key=lambda c: key(c[0])):
        yield up, up.index(full), _relabeled(block, s, n)


def quantale_descriptions(size):
    """Raw structure descriptions of every c.d.i. generalized quantale on at
    most `size` labeled elements (no isomorphism pruning): by size, then one
    per labeled lattice and + table in _lattice_tables' order.

    Each description has its own three dicts, and every value in them is a
    tuple shared with other descriptions: one `elements` tuple per size, one
    `leq` tuple per labeled lattice, and one `op` tuple per distinct + table
    within a size (2,980 for the 6,040 tables at size 5), made of one
    (x, y, x+y) triple per cell and value. CPython's collector stops
    tracking a tuple of strings after its first pass over it, so a long
    list of descriptions is not rescanned."""
    out = []
    for n in range(1, size + 1):
        names = tuple(str(i) for i in range(n))
        cells = [(a, b) for a in names for b in names]
        triples = [[(a, b, z) for z in names] for a, b in cells]
        ops = {}  # table bytes -> its op tuple
        for up, zero, tables in _lattice_tables(n):
            leq = tuple(cells[i * n + j] for i in range(n) for j in range(n)
                        if i != j and up[i] >> j & 1)
            for t in tables:
                op = ops.get(t) or ops.setdefault(
                    t, tuple(map(list.__getitem__, triples, t)))
                out.append({"poset": {"elements": names, "leq": leq},
                            "monoid": {"op": op, "unit": names[zero]}})
    return out


def _order_rows(ps):
    """Row i is the bitmask of the j with ps[i] <= ps[j], for presentations
    of one kind on one space. Each is read as a set of cells (x, y), held as
    one mask with bit x*n + y of its `rows`: y <= gamma(x) for a nucleus,
    x |- y for a consequence relation, x ~ y for a congruence. The pointwise
    order, inclusion and refinement are each the inclusion of these sets."""
    n = len(ps[0].space.elements)
    masks = [sum(row << x * n for x, row in enumerate(p.rows)) for p in ps]
    return tuple(sum(1 << j for j, r in enumerate(masks) if not m & ~r)
                 for m in masks)


def correspondence(q):
    """The correspondence verdict on q: the counts of its nuclei, consequence
    relations and congruences, each converted once into each of the KINDS;
    whether the lists give one set of image triples (then the conversions
    are mutually inverse bijections); and whether the conversions preserve
    and reflect order on the nuclei's triples (pointwise order on nuclei,
    inclusion on relations, refinement on partitions)."""
    triples = [[tuple(convert(p, kind) for kind in KINDS) for p in ps]
               for ps in (enumerate_nuclei(q), enumerate_consequences(q),
                          enumerate_congruences(q))]
    tables = [{(g.values, c.rows, r.reps) for g, c, r in ts} for ts in triples]
    round_ok = tables[0] == tables[1] == tables[2]
    # one list of order rows per kind over the nuclei's triples, each
    # computed within its kind
    monotone_ok = len({_order_rows(ps) for ps in zip(*triples[0])}) <= 1
    counts = tuple(map(len, triples))
    agree = len(set(counts)) == 1
    return {
        "counts": counts,
        "counts_agree": agree,
        "round_trips": round_ok,
        "order_preserving": monotone_ok,
        "ok": agree and round_ok and monotone_ok,
    }


def suite_correspond(desc):
    """The correspondence verdict on the quantale of desc, with its size."""
    q = make_quantale(desc)
    return {"size": len(q.elements), **correspondence(q)}


def suite_leftdist(desc):
    """Hunt for g, h1, h2 in the endomorphism closure with
    g(h1 v h2) != g(h1) v g(h2) under composition."""
    q = make_quantale(desc)
    a = exp_end(q)
    gen = a.quant.elements
    n = len(gen)
    join = a.quant.join_op
    witnesses = []
    for g, mg in enumerate(a.mult_op.rows):
        # instance (g, h1, h2) at h1 * n + h2
        for j, _ in row_mismatches([(None, join.after(mg), join.pairs(mg))]):
            witnesses.append((gen[g], gen[j // n], gen[j % n]))
    return {
        "size": len(q.elements),
        "gen_size": len(gen),
        "witnesses": witnesses[:3],
        "found": bool(witnesses),
        "ok": True,  # absence of a counterexample is not a violation
    }


@cache
def _copies(n):
    """Each labeled lattice on 0..n-1 -> (its class's rep, s from the rep)."""
    return {up: (rep, s) for rep, orbit in _lattice_classes(n).items()
            for up, s in orbit.items()}


@cache
def _class_mults(rep, unit):
    """_commutative_tables on the lattice class rep `rep`, distributing
    over joins with its bottom as zero, as one block of bytes."""
    n = len(rep)
    leq = poset_from_rows(tuple(range(n)), rep).leq_table.rows
    return b"".join(map(bytes, _commutative_tables(
        n, leq, unit, [join_positions(rep)], rep.index((1 << n) - 1))))


def _commutative_mults(q):
    """The AQMs of q's commutative, monotone, unital multiplications that
    distribute over + and binary joins and that 0 annihilates, for each unit
    in element order, as _commutative_tables emits them. Every quantale
    `search` yields has zero = bottom (any other q raises ValueError), so
    the tables are searched once per lattice class and unit (_class_mults),
    relabeled onto q's copy, and kept when every row distributes over +."""
    if q.zero != q.bottom:
        raise ValueError(f"{q!r}: the zero is not the bottom of a lattice")
    els, plus, n = q.elements, q.plus_op, len(q.elements)
    rep, s = _copies(n)[q.pomonoid.poset.up_rows]
    return [table_aqm(q, t, els[one]) for one in range(n)
            for t in _relabeled(_class_mults(rep, s.index(one)), s, n)
            if all(plus.after(r) == plus.pairs(r)
                   for r in (t[i:i + n] for i in range(0, n * n, n)))]


def suite_projective(desc):
    """Classify the cyclic quotients of every commutative AQM on this
    quantale; report the first two without a dividing-idempotent witness."""
    q = make_quantale(desc)
    nonprojective, n_quotients = [], 0
    nucs, aqms = enumerate_nuclei(q), _commutative_mults(q)
    for aqm in aqms:
        selfm = self_module(aqm)
        for nuc in nucs:
            try:
                qm = quotient(selfm, nuc)
            except NotStructural:
                continue
            # the unit image generates: its orbit holds every point
            points = qm.module.space.pomonoid.poset
            gen, n = points.index_of(nuc.apply(aqm.one)), len(points.elements)
            if len(set(qm.module.column(gen))) != n:
                raise ArithmeticError("self-module quotient must be cyclic "
                                      "at the unit image")
            n_quotients += 1
            rep = cyclic_projective_check(qm.module)
            if len(nonprojective) < 2 and not any(rep.data["conditions"].values()):
                nonprojective.append(
                    {
                        "one": aqm.one,
                        "mult": sorted((f"{x}*{y}", aqm.mult(x, y))
                                       for x in q.elements for y in q.elements),
                        "nucleus": dict(nuc.table),
                        "carrier": qm.module.space.elements,
                    }
                )
    return {
        "size": len(q.elements),
        "aqms": len(aqms),
        "cyclic_quotients": n_quotients,
        "nonprojective": nonprojective,
        "found": bool(nonprojective),
        "ok": True,
    }


SEARCH_MAX_SIZE = 6  # `search --size`'s bound: 318,487 descriptions at 6
SUITES = {
    "correspond": suite_correspond,
    "leftdist": suite_leftdist,
    "projective": suite_projective,
}
