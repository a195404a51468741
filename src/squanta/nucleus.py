"""Additive consequence relations, nuclei, and quantale congruences over a
finite generalized quantale, with the pairwise conversions between them,
structurality checks over a module action, and quotient modules.

Each presentation is held on the element positions of its space (see the
classes), and gives its cells as `rows`, one successor bitmask per element;
the constructors `nucleus`, `consequence` and `congruence` parse labels, and
every scan here runs on positions."""

from dataclasses import dataclass
from functools import cache
from itertools import product

from .aqm import FinGenQuantale, check_aqm
from .errors import (
    BaseMismatch,
    LawViolated,
    NoProgress,
    NotDistributivelyGenerated,
    NotStructural,
)
from .modact import ActionMap, check_action, cut_module, hom_on_positions
from .order import _bits, order_breaks
from .reporting import LawScan, Report

__all__ = [
    "Nucleus",
    "AddConsequence",
    "QuantCongruence",
    "QuotientModule",
    "nucleus",
    "consequence",
    "congruence",
    "validate_presentation",
    "convert",
    "structural_check",
    "quotient",
    "enumerate_nuclei",
    "enumerate_consequences",
    "enumerate_congruences",
]


@dataclass(eq=True)
class Nucleus:
    """gamma(elements[i]) = elements[values[i]] on the positions of the
    space's elements; None where the map given to `nucleus` has no value."""

    space: FinGenQuantale
    values: tuple

    @property
    def rows(self):  # bit y of rows[x] is set when y <= gamma(x)
        down = self.space.pomonoid.poset.down_rows
        return tuple(down[v] for v in self.values)

    @property
    def table(self):  # ((x, gamma(x)), ...) in element order
        els = self.space.elements
        return tuple((els[i], els[v]) for i, v in enumerate(self.values)
                     if v is not None)

    def apply(self, x):
        return self.space.elements[self.values[_index(self.space, x)]]

    def as_dict(self):
        return dict(self.table)

    def image(self):
        return [self.space.elements[v] for v in sorted(set(self.values) - {None})]

    def __repr__(self):
        return "Nucleus(" + ",".join(f"{x}>{y}" for x, y in self.table) + ")"


@dataclass(eq=True)
class AddConsequence:
    """x |- y when bit j of rows[i] is set, for the positions i, j of x, y."""

    space: FinGenQuantale
    rows: tuple

    @property
    def pairs(self):
        els = self.space.elements
        return frozenset((els[x], els[y]) for x, row in enumerate(self.rows)
                         for y in _bits(row))

    def holds(self, x, y):
        return bool(self.rows[_index(self.space, x)] >> _index(self.space, y) & 1)

    def __repr__(self):
        return "Consequence(" + ",".join(f"{x}|-{y}" for x, y in sorted(self.pairs)) + ")"


@dataclass(eq=True)
class QuantCongruence:
    """reps[i] is the position of the least element of the class of the
    element at position i."""

    space: FinGenQuantale
    reps: tuple

    @property
    def rows(self):  # bit y of rows[x] is set when x ~ y: the class masks
        masks = [0] * len(self.reps)
        for y, r in enumerate(self.reps):
            masks[r] |= 1 << y
        return tuple(masks[r] for r in self.reps)

    @property
    def classes(self):  # sorted tuple of sorted tuples
        els, rows = self.space.elements, self.rows
        return tuple(tuple(els[y] for y in _bits(rows[r]))
                     for r in sorted(set(self.reps)))

    def related(self, x, y):
        return self.reps[_index(self.space, x)] == self.reps[_index(self.space, y)]

    def __repr__(self):
        return "Congruence(" + "|".join(",".join(c) for c in self.classes) + ")"


def _index(space, x):
    return space.pomonoid.poset.index_of(x)


def _joins(q, masks):
    """The position of the join of the elements whose bits are set in each
    of `masks`; the quantale keeps each join it is asked for."""
    known = q.derive("mask-joins", dict)
    return [known[s] if s in known else known.setdefault(s, q.join_of(_bits(s)))
            for s in masks]


def nucleus(space, mapping):
    """The nucleus {x: gamma(x)} of labels, a dict or pairs; an element
    outside the space raises UnknownElement, one without a value is None."""
    values = [None] * len(space.elements)
    for x, y in dict(mapping).items():
        values[_index(space, x)] = _index(space, y)
    return Nucleus(space, tuple(values))


def consequence(space, pairs):
    """The consequence relation holding exactly at the (x, y) label pairs."""
    rows = [0] * len(space.elements)
    for x, y in pairs:
        rows[_index(space, x)] |= 1 << _index(space, y)
    return AddConsequence(space, tuple(rows))


def congruence(space, classes):
    """The congruence with the given classes of labels; classes that do not
    partition the space raise LawViolated("partition-cover")."""
    classes = [sorted(_index(space, x) for x in c) for c in classes]
    flat = sorted(x for c in classes for x in c)
    if flat != list(range(len(space.elements))):
        raise LawViolated("partition-cover",
                          witness=[space.elements[x] for x in flat])
    reps = [0] * len(flat)
    for c in classes:
        for x in c:
            reps[x] = c[0]
    return QuantCongruence(space, tuple(reps))


def _failures(p):
    """(law, witness) for every failing instance of the presentation's
    defining laws, lazily, law by law in a fixed order."""
    q = p.space
    els = q.elements
    n = len(els)
    up, plus = q.pomonoid.poset.up_rows, q.plus_table
    if isinstance(p, Nucleus):
        g = p.values
        if None in g:
            yield "nucleus-total", [els[x] for x in range(n) if g[x] is None]
            return
        for x, y in product(range(n), repeat=2):
            if up[x] >> y & 1 and not up[g[x]] >> g[y] & 1:
                yield "nucleus-monotone", (els[x], els[y])
        for x in range(n):
            if not up[x] >> g[x] & 1:
                yield "nucleus-expansive", els[x]
            if g[g[x]] != g[x]:
                yield "nucleus-idempotent", els[x]
        for x, y in product(range(n), repeat=2):
            if not up[plus[g[x] * n + g[y]]] >> g[plus[x * n + y]] & 1:
                yield "nucleus-sum", (els[x], els[y])
    elif isinstance(p, AddConsequence):
        rows = p.rows
        for x, y in product(range(n), repeat=2):
            if up[y] >> x & 1 and not rows[x] >> y & 1:
                yield "consequence-reflexive", (els[x], els[y])
        for x in range(n):
            for y in _bits(rows[x]):
                for z in _bits(rows[y] & ~rows[x]):
                    yield "consequence-transitive", (els[x], els[y], els[z])
        for x, j in enumerate(_joins(q, rows)):
            if not rows[x] >> j & 1:
                yield "consequence-join-closed", els[x]
        for x in range(n):
            for y in _bits(rows[x]):
                for z in range(n):
                    if not rows[plus[x * n + z]] >> plus[y * n + z] & 1:
                        yield "consequence-sum-right", (els[x], els[y], els[z])
                    if not rows[plus[z * n + x]] >> plus[z * n + y] & 1:
                        yield "consequence-sum-left", (els[x], els[y], els[z])
    else:  # every (a, b, c, d) with a ~ b and c ~ d, in product order
        cid, join = p.reps, q.join_table
        related = [(a, b) for a, b in product(range(n), repeat=2)
                   if cid[a] == cid[b]]
        for a, b in related:
            an, bn = a * n, b * n
            for c, d in related:
                if cid[plus[an + c]] != cid[plus[bn + d]]:
                    yield "congruence-sum", (els[a], els[b], els[c], els[d])
                if cid[join[an + c]] != cid[join[bn + d]]:
                    yield "congruence-join", (els[a], els[b], els[c], els[d])


def _closure(q, g):
    """Whether the values g (bytes) are a closure operator on q's order:
    expansive, idempotent, and monotone (no x <= y without g(x) <= g(y))."""
    poset, up = q.pomonoid.poset, q.pomonoid.poset.up_rows
    return (all(up[x] >> v & 1 for x, v in enumerate(g))
            and g.translate(g.ljust(256, b"\0")) == g
            and not order_breaks(poset, poset, g))


def _holds(p):
    """Whether p satisfies every law that _failures scans, decided on rows
    and byte tables without naming an instance."""
    q, plus = p.space, p.space.plus_op
    if isinstance(p, QuantCongruence):  # a ~ b, c ~ d: a+c ~ b+c ~ b+d, so
        # x and its class's least element r agree in class ids on the rows
        # of + and v and the columns of + (each translation keeps ~)
        n, ids = len(p.reps), bytes(p.reps).ljust(256, b"\0")
        s, j = plus.flat.translate(ids), q.join_table.translate(ids)
        return all(t[x * n:x * n + n] == t[r * n:r * n + n] and s[x::n] == s[r::n]
                   for x, r in enumerate(p.reps) if r != x for t in (s, j))
    if isinstance(p, Nucleus):  # a closure operator g keeps + exactly when
        # g(g(x) + g(y)) = g(x + y)
        if None in p.values:
            return False
        g = bytes(p.values)
        return _closure(q, g) and (
            plus.pairs(g).translate(g.ljust(256, b"\0")) == plus.after(g))
    # consequence rows that are reflexive, transitive and join-closed are
    # the down-sets of their joins t, a closure operator; then + z keeps them
    # on the right when t(t(x) + z) = t(x + z), and likewise on the left
    rows, down = tuple(p.rows), q.pomonoid.poset.down_rows
    if any(d & ~r for d, r in zip(down, rows)):
        return False
    t = bytes(_joins(q, rows))
    to_t = t.ljust(256, b"\0")
    return (rows == tuple(down[v] for v in t) and _closure(q, t)
            and b"".join(map(plus.rows.__getitem__, t)).translate(to_t)
            == plus.after(t) == plus.each(t).translate(to_t))


def validate_presentation(p, strict=True):
    """Scan every defining invariant of the presentation; witness on failure.
    A presentation is walked through _failures only when _holds fails it;
    anything else raises TypeError."""
    if type(p) not in KIND_OF:
        raise TypeError(f"not a presentation: {p!r}")
    rep = LawScan(f"presentation {type(p).__name__}", strict=strict)
    for law, witness in () if _holds(p) else _failures(p):
        rep.fail(law, witness)
    rep.note("all invariants hold" if rep.ok else "violations found")
    return rep


KINDS = {"nucleus": Nucleus, "consequence": AddConsequence, "congruence": QuantCongruence}
KIND_OF = {cls: kind for kind, cls in KINDS.items()}


def convert(p, target):
    """Convert between the three presentations along the canonical maps:
    gamma(x) is the join of the successors or of the class of x, x |- y
    when y <= gamma(x), and x ~ y when gamma(x) = gamma(y). A congruence's
    classes are convex and closed under joins, so x v y ~ x exactly when
    y <= gamma(x)."""
    q = p.space
    if isinstance(p, KINDS[target]):
        return p
    if not isinstance(p, Nucleus):
        g = Nucleus(q, tuple(_joins(q, p.rows)))
        return g if target == "nucleus" else convert(g, target)
    if target == "consequence":
        return AddConsequence(q, p.rows)
    first = {}
    return QuantCongruence(q, tuple(first.setdefault(v, x)
                                    for x, v in enumerate(p.values)))


def _star_rows(am, scalars):
    """(a, [position of a * x for the points x in element order]) for each
    scalar a: a row of the star table, or, for fragment scalars, a * x by
    the action. The points form a finite quantale, so no value leaves a
    fragment."""
    if am.on_tables:
        rows = am.star_op().rows
        for a in scalars:
            yield a, rows[_index(am.scalars.quant, a)]
    else:
        for a in scalars:
            yield a, [_index(am.space, am.star(a, x)) for x in am.space.elements]


def _structural_over(p, am, scalars):
    """Whether p is structural w.r.t. every scalar in `scalars`: (True,
    None), or (False, witness) for the first failing instance, scalar by
    scalar, then by x (and y) in element order."""
    els = am.space.elements
    if isinstance(p, Nucleus):  # a * gamma(x) <= gamma(a * x)
        g, up = p.values, am.space.pomonoid.poset.up_rows
        for a, ax in _star_rows(am, scalars):
            for x, gx in enumerate(g):
                if not up[ax[gx]] >> g[ax[x]] & 1:
                    return False, (a, els[x])
        return True, None
    # x R y implies a * x R a * y, R the relation or the congruence
    rel = p.rows
    for a, ax in _star_rows(am, scalars):
        for x, row in enumerate(rel):
            for y in _bits(row):
                if not rel[ax[x]] >> ax[y] & 1:
                    return False, (a, els[x], els[y])
    return True, None


def structural_check(p, am, scope="all"):
    """Check structurality of a presentation over a module action.

    scope="generators" quantifies only over distributive scalars and requires
    the module's AQM to be distributively generated; scope="all" quantifies
    over the (fragment-bounded, when applicable) full scalar universe. The
    report also cross-validates that the two scopes agree, and that
    structurality transfers across all conversions. A presentation on
    another space than the module's raises BaseMismatch before any scan.
    """
    kind = KIND_OF[type(p)]
    if p.space != am.space:
        raise BaseMismatch(f"{kind} is not on the module's space",
                           witness=(p.space, am.space))
    validate_presentation(p)
    rep = Report(f"structural {kind} / {am.name or 'module'}")
    aqm = am.scalars
    if aqm.is_finite and aqm.distributively_generated is None:
        check_aqm(aqm)
    generated = aqm.distributively_generated or not aqm.is_finite
    if scope == "generators" and not generated:
        raise NotDistributivelyGenerated(
            "generator scope requires a distributively generated AQM",
            witness=aqm.name)
    gen_ok, gen_wit = _structural_over(p, am, am.iota_scalars())
    # both scopes are always computed so the report can cross-validate the
    # generators-suffice lemma, which holds on distributively generated AQMs
    all_ok, all_wit = _structural_over(p, am, am.scalar_universe())
    rep.data["generators_pass"] = gen_ok
    rep.data["all_pass"] = all_ok
    rep.data["structural"] = all_ok if scope == "all" else gen_ok
    if generated:
        rep.verdict("generator-scope agrees with all-scope", gen_ok == all_ok,
                    f"both {gen_ok}", witness=(gen_wit, all_wit))
    else:
        rep.note("scopes not compared: the AQM is not distributively generated")
    if rep.data["structural"]:
        rep.passed("structural", f"scope={scope}")
        for target in [t for t in KINDS if t != kind]:
            t_ok, t_wit = _structural_over(convert(p, target), am,
                                           am.scalar_universe())
            rep.verdict(f"transfer to {target}", t_ok, witness=t_wit)
    else:
        witness = all_wit if scope == "all" else gen_wit
        rep.data["witness"] = witness
        rep.failed("structural", witness=witness)
    return rep


# -- enumeration ---------------------------------------------------------------


def enumerate_nuclei(q):
    """All nuclei, in the lexicographic order of their value tuples: the
    cells are set in element order, each to the elements above it in turn,
    a partial map is dropped as soon as a monotone or idempotent instance
    among its cells fails, and the sum law is decided on complete maps
    (`_holds`)."""
    up, down = q.pomonoid.poset.up_rows, q.pomonoid.poset.down_rows

    def allowed(g):
        """The values above x = len(g) that the cells g before it allow: x
        alone when a cell maps to x; above g(w) for each w <= x and below
        it for each w >= x; and w only when g fixes w."""
        x = len(g)
        mask = up[x] & (1 << x if x in g else -1)
        for w, v in enumerate(g):
            mask &= ((up[v] if down[x] >> w & 1 else -1)
                     & (down[v] if up[x] >> w & 1 else -1)
                     & (-1 if v == w else ~(1 << w)))
        return mask

    maps = [()]
    for _ in up:
        maps = [g + (v,) for g in maps for v in _bits(allowed(g))]
    return [g for g in (Nucleus(q, values) for values in maps) if _holds(g)]


@cache
def _members(n):
    """The bit lists of all 2^n masks, built once per n on first use."""
    return tuple(tuple(_bits(s)) for s in range(1 << n))


def enumerate_consequences(q):
    """All additive consequence relations, in the order of a scan over the
    relations on the pairs not forced by >=, the first free pair (in element
    order, which is sorted) most significant.

    They are the closed sets of the Horn rules: every >=-pair, transitivity,
    closure of each successor set under binary joins, and + on either side,
    each held as one bitmask row of successors per element. Close-by-One
    (Kuznetsov 1993) grows each closed set A, reached by adding the free
    pair at bit p, by each lower bit not in A, from A's rows, and keeps the
    closure when it adds no bit above the one added, so each closed set is
    reached once (`NoProgress` otherwise). As in FCbO (Outrata and Vychodil
    2012), a closure of bit p that fails the test is handed down to A's
    descendants: one that lacks a bit of it above p fails the test of p
    too, and computes no closure for it. The closed sets, sorted by their
    masks of free pairs, come in the scan's (lectic) order."""
    n = len(q.elements)
    # sums[x]: x + z, then z + x, for z in element order
    sums = [r + c for r, c in zip(q.plus_op.rows, q.plus_op.transposed().rows)]
    members = _members(n)
    joins = [None] + _joins(q, range(1, 1 << n))
    ge = q.pomonoid.poset.down_rows
    # (x, bit y) for the pair (x, y) at bit i of a set of free pairs
    free = [(x, 1 << y) for x in range(n) for y in range(n)
            if not ge[x] >> y & 1][::-1]

    def close(rows, i):
        """The least consequence relation containing the closed `rows` and
        the free pair at bit i, as successor rows. A worklist holds the rows
        that grew, from that pair's row on: each pulls the rows of its new
        successors and of its join j, then pushes itself to the rows that
        hold it and, being the down-set of j, j + z and z + j to the rows of
        x + z and z + x."""
        rows, done = list(rows), list(rows)
        x, y = free[i]
        rows[x] |= y
        work = {x}
        while work:
            x = work.pop()
            s, t = done[x], rows[x]
            while t != s:
                new, s = t & ~s, t
                for y in members[new]:
                    t |= rows[y]
                t |= rows[joins[t]]
            rows[x] = done[x] = t
            for w in range(n):
                if rows[w] >> x & 1 and t & ~rows[w]:
                    rows[w] |= t
                    work.add(w)
            for w, v in zip(sums[x], sums[joins[t]]):
                if not rows[w] >> v & 1:
                    rows[w] |= 1 << v
                    work.add(w)
        return rows

    # closed sets to grow: (rows, mask, the bit added last, failed closures)
    found, todo = {}, [(ge, 0, len(free), [0] * len(free))]
    while todo:
        rows, a, top, failed = todo.pop()
        if a in found:
            raise NoProgress("Close-by-One reached a closed set twice", witness=a)
        found[a] = rows
        failed = failed[:]  # this node's, shared by its children
        for p in range(top):
            if a >> p & 1 or (failed[p] & ~a) >> p + 1:
                continue
            rows_p = close(rows, p)
            b = sum(1 << i for i, (x, y) in enumerate(free) if rows_p[x] & y)
            if (b & ~a) >> p + 1:
                failed[p] = b
            else:
                todo.append((rows_p, b, p, failed))
    out = []
    for a in sorted(found):
        c = AddConsequence(q, tuple(found[a]))
        validate_presentation(c)
        out.append(c)
    return out


@cache
def _partitions(n):
    """The partitions of 0..n-1, each as the tuple of the least element of
    each point's class, built once per n on first use: in the order of a
    walk that places the last element first, then each earlier one into
    each class so far (newest first) and then alone."""
    parts = [[]]
    for x in reversed(range(n)):  # the partitions of the elements from x on
        parts = [r for p in parts for r in [
            *(p[:i] + [[x] + k] + p[i + 1:] for i, k in enumerate(p)), [[x]] + p]]
    # k[0] is the least element of the class k
    return tuple(tuple(r for _, r in sorted((y, k[0]) for k in p for y in k))
                 for p in parts)


def enumerate_congruences(q):
    """All congruences (decided by `_holds`), in the order of the partitions
    of _partitions(n), which depend on n alone."""
    return [c for c in (QuantCongruence(q, reps)
                        for reps in _partitions(len(q.elements))) if _holds(c)]


# -- quotients -----------------------------------------------------------------


@dataclass
class QuotientModule:
    parent: ActionMap
    nucleus: Nucleus
    module: ActionMap
    report: Report


def quotient(ma, nuc, strict=True):
    """The quotient module on the image of a structural nucleus, with the
    inherited operations; verified against the congruence quotient. Needs
    finite scalars (ActionMap.on_tables), as module homomorphisms do, and a
    nucleus on the module's space (BaseMismatch otherwise).

    The nucleus's validation, the quotient quantale and the order and sum
    half of the isomorphism check depend on the space and the nucleus alone,
    so the space keeps them (see aqm.Derives); the rest is checked for each
    module."""
    ma.require_tables()
    q, g = ma.space, nuc.values
    if nuc.space != q:
        raise BaseMismatch("nucleus is not on the module's space",
                           witness=(nuc.space, q))
    q.derive(("nucleus", g), lambda: validate_presentation(nuc))
    structural, witness = _structural_over(nuc, ma, ma.scalar_universe())
    if not structural:
        raise NotStructural("nucleus is not structural for this action",
                            witness=witness)
    image = sorted(set(g))
    module = cut_module(ma, ("quotient", g), image, bytes(g), (
        f"{q.name}/nucleus" if q.name else "quotient",
        f"{ma.name}/nucleus" if ma.name else "quotient-module"))
    rep = Report(f"quotient of {ma.name or 'module'}")
    rep.merge(check_action(module, strict=strict))

    # gamma is a surjective module homomorphism onto the quotient
    rep.verdict("nucleus is a surjective module homomorphism",
                hom_on_positions(bytes(map(image.index, g)), ma, module))

    # isomorphic to the quotient by the kernel congruence, on class ids (the
    # least position in each class): the image meets every class once, and
    # x -> its class carries order, sum and action on the image to those on
    # the classes, computed at their least elements. The order and sum half
    # is kept with the classes it was checked against.
    cid = convert(nuc, "congruence").reps
    fwd = [cid[x] for x in image]
    iso_ok = q.derive(("kernel-iso", g, cid),
                      lambda: _order_and_sum_iso(q, module.space, fwd, cid))
    for row, ax in zip(module.star_op().rows, ma.star_op().rows):
        iso_ok &= all(fwd[z] == cid[ax[c]] for z, c in zip(row, fwd))
    rep.verdict("isomorphic to the congruence quotient", iso_ok)
    if strict and not rep.ok:
        raise LawViolated("quotient", witness=rep.lines)
    return QuotientModule(ma, nuc, module, rep)


def _order_and_sum_iso(q, quant, fwd, cid):
    """Whether x -> fwd[x], the class ids of the elements of the quotient
    quantale `quant` of q, is a bijection onto the classes cid that carries
    the order and the sum of `quant` to those of the classes."""
    f = bytes(fwd)  # byte i * len(f) + j of each row below is for (i, j)
    joins = map(cid.__getitem__, q.join_op.pairs(f))  # class of fwd[i] v fwd[j]
    return (sorted(fwd) == sorted(set(cid))  # i <= j: that class is fwd[j]
            and quant.pomonoid.poset.leq_table.flat
            == bytes(c == d for c, d in zip(joins, f * len(f)))
            and quant.plus_op.after(f)
            == bytes(map(cid.__getitem__, q.plus_op.pairs(f))))
