"""Additive consequence relations, nuclei, and quantale congruences over a
finite generalized quantale, with the pairwise conversions between them,
structurality checks over a module action, and quotient modules."""

from dataclasses import dataclass
from itertools import product

from .aqm import FinGenQuantale
from .errors import (
    FragmentExceeded,
    LawViolated,
    NotDistributivelyGenerated,
    NotStructural,
)
from .modact import MODULE, ActionMap, check_action
from .reporting import Report

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
    "congruence_quotient",
    "enumerate_nuclei",
    "enumerate_consequences",
    "enumerate_congruences",
]


@dataclass(eq=True)
class Nucleus:
    space: FinGenQuantale
    table: tuple  # sorted ((x, gamma(x)), ...)

    def __post_init__(self):
        self._map = dict(self.table)

    def apply(self, x):
        return self._map[x]

    def as_dict(self):
        return dict(self.table)

    def image(self):
        return sorted({y for _, y in self.table})

    def __repr__(self):
        return "Nucleus(" + ",".join(f"{x}>{y}" for x, y in self.table) + ")"


@dataclass(eq=True)
class AddConsequence:
    space: FinGenQuantale
    pairs: frozenset

    def holds(self, x, y):
        return (x, y) in self.pairs

    def __repr__(self):
        return "Consequence(" + ",".join(f"{x}|-{y}" for x, y in sorted(self.pairs)) + ")"


@dataclass(eq=True)
class QuantCongruence:
    space: FinGenQuantale
    classes: tuple  # sorted tuple of sorted tuples

    def __post_init__(self):
        # x -> position of the first class holding x
        self._class_id = {}
        for i, c in enumerate(self.classes):
            for x in c:
                self._class_id.setdefault(x, i)

    def class_id(self, x):
        try:
            return self._class_id[x]
        except (KeyError, TypeError):
            raise LawViolated("partition-cover", witness=x) from None

    def class_of(self, x):
        return self.classes[self.class_id(x)]

    def related(self, x, y):
        return self.class_id(x) == self.class_id(y)

    def __repr__(self):
        return "Congruence(" + "|".join(",".join(c) for c in self.classes) + ")"


def nucleus(space, mapping):
    return Nucleus(space, tuple(sorted(mapping.items())))


def consequence(space, pairs):
    return AddConsequence(space, frozenset(tuple(p) for p in pairs))


def congruence(space, classes):
    return QuantCongruence(
        space, tuple(sorted(tuple(sorted(c)) for c in classes))
    )


def validate_presentation(p, strict=True):
    """Scan every defining invariant of the presentation; witness on failure."""
    rep = Report(f"presentation {type(p).__name__}")
    q = p.space
    els = q.elements

    def fail(law, witness):
        if strict:
            raise LawViolated(law, witness=witness)
        rep.failed(law, witness)

    if isinstance(p, Nucleus):
        g = p.as_dict()
        if sorted(g) != sorted(els):
            fail("nucleus-total", sorted(set(els) ^ set(g)))
        for x, y in product(els, repeat=2):
            if q.leq(x, y) and not q.leq(g[x], g[y]):
                fail("nucleus-monotone", (x, y))
        for x in els:
            if not q.leq(x, g[x]):
                fail("nucleus-expansive", x)
            if g[g[x]] != g[x]:
                fail("nucleus-idempotent", x)
        for x, y in product(els, repeat=2):
            if not q.leq(q.plus(g[x], g[y]), g[q.plus(x, y)]):
                fail("nucleus-sum", (x, y))
    elif isinstance(p, AddConsequence):
        for x, y in product(els, repeat=2):
            if q.leq(y, x) and not p.holds(x, y):
                fail("consequence-reflexive", (x, y))
        for x, y, z in product(els, repeat=3):
            if p.holds(x, y) and p.holds(y, z) and not p.holds(x, z):
                fail("consequence-transitive", (x, y, z))
        for x in els:
            succ = [y for y in els if p.holds(x, y)]
            if not p.holds(x, q.join(succ)):
                fail("consequence-join-closed", x)
        for (x, y), z in product(sorted(p.pairs), els):
            if not p.holds(q.plus(x, z), q.plus(y, z)):
                fail("consequence-sum-right", (x, y, z))
            if not p.holds(q.plus(z, x), q.plus(z, y)):
                fail("consequence-sum-left", (x, y, z))
    elif isinstance(p, QuantCongruence):
        flat = sorted(x for c in p.classes for x in c)
        if flat != sorted(els):
            fail("partition-cover", flat)
        # every (a, b, c, d) with a ~ b and c ~ d, in product order, on
        # class ids and the flat tables
        n = len(els)
        cid = [p.class_id(x) for x in els]
        related = [(a, b) for a, b in product(range(n), repeat=2)
                   if cid[a] == cid[b]]
        plus, join = q.plus_table, q.join_table
        for a, b in related:
            for c, d in related:
                if cid[plus[a * n + c]] != cid[plus[b * n + d]]:
                    fail("congruence-sum", (els[a], els[b], els[c], els[d]))
                if cid[join[a * n + c]] != cid[join[b * n + d]]:
                    fail("congruence-join", (els[a], els[b], els[c], els[d]))
    else:
        raise TypeError(f"not a presentation: {p!r}")
    rep.note("all invariants hold" if rep.ok else "violations found")
    return rep


KINDS = {"nucleus": Nucleus, "consequence": AddConsequence, "congruence": QuantCongruence}


def convert(p, target):
    """Convert between the three presentations along the canonical maps."""
    q = p.space
    els = q.elements
    if isinstance(p, KINDS[target]):
        return p
    if isinstance(p, Nucleus):
        g = p.as_dict()
        if target == "consequence":
            return consequence(
                q, [(x, y) for x, y in product(els, repeat=2) if q.leq(y, g[x])]
            )
        if target == "congruence":
            kernel = {}
            for x in els:
                kernel.setdefault(g[x], []).append(x)
            return congruence(q, kernel.values())
    if isinstance(p, AddConsequence):
        if target == "nucleus":
            return nucleus(
                q, {x: q.join([y for y in els if p.holds(x, y)]) for x in els}
            )
        if target == "congruence":
            return convert(convert(p, "nucleus"), "congruence")
    if isinstance(p, QuantCongruence):
        if target == "nucleus":
            return nucleus(q, {x: q.join(list(p.class_of(x))) for x in els})
        if target == "consequence":
            return consequence(
                q,
                [
                    (x, y)
                    for x, y in product(els, repeat=2)
                    if p.related(q.join([x, y]), x)
                ],
            )
    raise ValueError(f"unknown target {target!r}")


def _kind(p):
    return {Nucleus: "nucleus", AddConsequence: "consequence",
            QuantCongruence: "congruence"}[type(p)]


def _structural_over(p, am, scalar_set, skip_counter):
    """Whether p is structural w.r.t. every scalar in the set; returns a
    witness on failure. Instances are scanned scalar by scalar, then by x
    (and y) in element order; on a fragment, a scalar instance that leaves
    the fragment is skipped and recorded in skip_counter."""
    if am.on_tables:
        return _structural_on_tables(p, am, scalar_set)
    q = p.space
    els = q.elements
    for a in scalar_set:
        for x in els:
            try:
                if isinstance(p, Nucleus):
                    lhs = am.star(a, p.apply(x))
                    rhs = p.apply(am.star(a, x))
                    if not q.leq(lhs, rhs):
                        return False, (a, x)
                elif isinstance(p, AddConsequence):
                    for y in els:
                        if p.holds(x, y) and not p.holds(am.star(a, x), am.star(a, y)):
                            return False, (a, x, y)
                else:
                    for y in els:
                        if p.related(x, y) and not p.related(am.star(a, x), am.star(a, y)):
                            return False, (a, x, y)
            except FragmentExceeded:
                skip_counter.append(a)
    return True, None


def _structural_on_tables(p, am, scalar_set):
    """_structural_over for a module on tables (see ActionMap.star_table):
    a nucleus as its values' positions, a consequence relation as bit rows
    of successors and a congruence as class ids, scanned in the same order
    with the same witness."""
    els = am.space.elements
    n = len(els)
    poset = am.space.pomonoid.poset
    star, s_index = am.star_table(), am.scalars.quant.pomonoid.poset.index_of
    rows = [(a, star[s_index(a) * n:(s_index(a) + 1) * n]) for a in scalar_set]
    if isinstance(p, Nucleus):
        g = [poset.index[p.apply(x)] for x in els]
        up = poset.up_rows
        for a, ax in rows:
            for x in range(n):
                if not up[ax[g[x]]] >> g[ax[x]] & 1:
                    return False, (a, els[x])
    elif isinstance(p, AddConsequence):
        succ = [0] * n
        for x, y in p.pairs:
            if x in poset.index and y in poset.index:
                succ[poset.index[x]] |= 1 << poset.index[y]
        for a, ax in rows:
            for x in range(n):
                for y in range(n):
                    if succ[x] >> y & 1 and not succ[ax[x]] >> ax[y] & 1:
                        return False, (a, els[x], els[y])
    else:
        cid = [p.class_id(x) for x in els]
        for a, ax in rows:
            for x in range(n):
                for y in range(n):
                    if cid[x] == cid[y] and cid[ax[x]] != cid[ax[y]]:
                        return False, (a, els[x], els[y])
    return True, None


def structural_check(p, am, scope="all"):
    """Check structurality of a presentation over a module action.

    scope="generators" quantifies only over distributive scalars and requires
    the module's AQM to be distributively generated; scope="all" quantifies
    over the (fragment-bounded, when applicable) full scalar universe. The
    report also cross-validates that the two scopes agree, and that
    structurality transfers across all conversions.
    """
    validate_presentation(p)
    rep = Report(f"structural {_kind(p)} / {am.name or 'module'}")
    aqm = am.scalars
    if scope == "generators" and aqm.is_finite:
        from .aqm import check_aqm

        if aqm.distributively_generated is None:
            check_aqm(aqm)
        if not aqm.distributively_generated:
            raise NotDistributivelyGenerated(
                "generator scope requires a distributively generated AQM",
                witness=aqm.name,
            )
    gens = am.iota_scalars()
    skip = []
    gen_ok, gen_wit = _structural_over(p, am, gens, skip)
    # both scopes are always computed so the report can cross-validate the
    # generators-suffice lemma
    all_ok, all_wit = _structural_over(p, am, am.scalar_universe(), skip)
    rep.data["generators_pass"] = gen_ok
    rep.data["all_pass"] = all_ok
    rep.data["structural"] = all_ok if scope == "all" else gen_ok
    if gen_ok == all_ok:
        rep.passed("generator-scope agrees with all-scope", f"both {gen_ok}")
    else:
        rep.failed("generator-scope agrees with all-scope",
                   witness=(gen_wit, all_wit))
    if skip:
        rep.note(f"{len(skip)} scalar instances left the fragment")
    verdict = rep.data["structural"]
    if verdict:
        rep.passed("structural", f"scope={scope}")
        for target in KINDS:
            if target == _kind(p):
                continue
            image = convert(p, target)
            t_ok, t_wit = _structural_over(image, am, am.scalar_universe(), skip)
            if t_ok:
                rep.passed(f"transfer to {target}")
            else:
                rep.failed(f"transfer to {target}", witness=t_wit)
    else:
        witness = all_wit if scope == "all" else gen_wit
        rep.data["witness"] = witness
        rep.failed("structural", witness=witness)
    return rep


# -- enumeration oracles -------------------------------------------------------


def enumerate_nuclei(q):
    """All nuclei by lexicographic scan over expansive monotone tables."""
    els = q.elements
    out = []
    choices = [[y for y in els if q.leq(x, y)] for x in els]
    for values in product(*choices):
        g = dict(zip(els, values))
        if any(q.leq(x, y) and not q.leq(g[x], g[y])
               for x, y in product(els, repeat=2)):
            continue
        if any(g[g[x]] != g[x] for x in els):
            continue
        if any(not q.leq(q.plus(g[x], g[y]), g[q.plus(x, y)])
               for x, y in product(els, repeat=2)):
            continue
        out.append(nucleus(q, g))
    return out


def enumerate_consequences(q):
    """All additive consequence relations, in the order of a scan over the
    relations on the pairs not forced by >=, the first free pair (in element
    order, which is sorted) most significant.

    They are the closed sets of the Horn rules: every >=-pair, transitivity,
    closure of each successor set under binary joins, and + on either side.
    NextClosure (Ganter 2010) walks the closed sets in exactly that order
    (the lectic order), with the relation held as one bitmask row of
    successors per element."""
    els = q.elements
    n = len(els)
    idx = {x: i for i, x in enumerate(els)}
    plus = [[idx[q.plus(x, y)] for y in els] for x in els]
    members = [[y for y in range(n) if s >> y & 1] for s in range(1 << n)]
    # for every nonempty set of elements: its join, and its images under + z
    # on either side
    join_of = [None] + [idx[q.join([els[y] for y in ys])] for ys in members[1:]]
    right = [[sum({1 << plus[y][z] for y in ys}) for ys in members]
             for z in range(n)]
    left = [[sum({1 << plus[z][y] for y in ys}) for ys in members]
            for z in range(n)]
    ge = [sum(1 << y for y in range(n) if q.leq(els[y], x)) for x in els]
    free = [(x, y) for x in range(n) for y in range(n) if not ge[x] >> y & 1]
    m = len(free)

    def close(a):
        """The least consequence relation containing the free pairs whose
        bits are set in a (free[i] at bit m-1-i), as successor rows."""
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
        c = AddConsequence(q, frozenset((els[x], els[y]) for x in range(n)
                                        for y in members[rows[x]]))
        validate_presentation(c)
        out.append(c)
        # NextClosure: the next closed set in lectic order adds the lowest
        # bit p it can without adding a bit above p
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


def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_congruences(q):
    out = []
    for part in _partitions(q.elements):
        c = congruence(q, part)
        try:
            validate_presentation(c)
        except LawViolated:
            continue
        out.append(c)
    return out


# -- quotients -----------------------------------------------------------------


@dataclass
class QuotientModule:
    parent: ActionMap
    nucleus: Nucleus
    module: ActionMap
    report: Report


def quotient(ma, nuc, strict=True):
    """The quotient module on the image of a structural nucleus, with the
    inherited operations; verified against the congruence quotient."""
    sc = structural_check(nuc, ma, scope="all")
    if not sc.data["structural"]:
        raise NotStructural("nucleus is not structural for this action",
                            witness=sc.data.get("witness"))
    q = ma.space
    g = nuc.as_dict()
    index_of = q.pomonoid.poset.index_of
    gi = [index_of(g[x]) for x in q.elements]  # gamma over element positions
    image = sorted(set(gi))
    plus, n = q.plus_table, len(gi)
    quant = q.restrict(image, lambda i, j: gi[plus[i * n + j]],
                       gi[index_of(q.zero)],
                       name=f"{q.name}/nucleus" if q.name else "quotient")
    carrier = list(quant.elements)

    def star(a, x):
        return g[ma.star(a, x)]

    table = None
    if ma.on_tables:
        local = {p: k for k, p in enumerate(image)}
        st = ma.star_table()
        table = tuple(local[gi[st[row + x]]]
                      for row in range(0, len(st), n) for x in image)
    module = ActionMap(MODULE, ma.scalars, quant, star, table=table,
                       name=f"{ma.name}/nucleus" if ma.name else "quotient-module")
    rep = Report(f"quotient of {ma.name or 'module'}")
    rep.merge(check_action(module, strict=strict))

    # gamma is a surjective module homomorphism onto the quotient
    from .projective import is_module_hom

    if is_module_hom(g, ma, module):
        rep.passed("nucleus is a surjective module homomorphism")
    else:
        rep.failed("nucleus is a surjective module homomorphism")

    # isomorphic to the congruence quotient
    cong = convert(nuc, "congruence")
    cq, cstar = congruence_quotient(ma, cong)
    iso_ok = True
    class_of = {x: cong.class_of(x) for x in q.elements}
    fwd = {x: class_of[x] for x in carrier}
    if sorted(fwd.values()) != sorted(cq.elements_raw):
        iso_ok = False
    for x, y in product(carrier, repeat=2):
        if quant.leq(x, y) != cq.leq_raw(fwd[x], fwd[y]):
            iso_ok = False
        if fwd[quant.plus(x, y)] != cq.plus_raw(fwd[x], fwd[y]):
            iso_ok = False
    for a in ma.scalar_universe():
        for x in carrier:
            if fwd[star(a, x)] != cstar(a, fwd[x]):
                iso_ok = False
    if iso_ok:
        rep.passed("isomorphic to the congruence quotient")
    else:
        rep.failed("isomorphic to the congruence quotient")
    if strict and not rep.ok:
        raise LawViolated("quotient", witness=rep.lines)
    return QuotientModule(ma, nuc, module, rep)


class _ClassQuantale:
    """Quotient-by-congruence carrier, kept raw (classes as tuples)."""

    def __init__(self, q, cong):
        self.q = q
        self.cong = cong
        self.elements_raw = sorted({cong.class_of(x) for x in q.elements})

    def plus_raw(self, c, d):
        return self.cong.class_of(self.q.plus(c[0], d[0]))

    def join_raw(self, cs):
        return self.cong.class_of(self.q.join([c[0] for c in cs]))

    def leq_raw(self, c, d):
        return self.cong.related(self.q.join([c[0], d[0]]), d[0])


def congruence_quotient(ma, cong):
    """Module structure on congruence classes (well-definedness is implied by
    the compatibility conditions, which were validated)."""
    validate_presentation(cong)
    cq = _ClassQuantale(ma.space, cong)

    def star(a, c):
        return cong.class_of(ma.star(a, c[0]))

    return cq, star
