"""Pins of the action and AQM law scans on failing inputs, recorded before
the scans shared one failure and fragment-skip bookkeeping: for each mutant,
the non-strict report lines, the (checked, skipped) pair and the first
(law, witness) of the strict scan. A change that alters any of them has
changed what a law scan says about a broken structure."""

import hashlib

from squanta import fixtures as fx
from squanta.aqm import AQM, check_aqm, free_aqm
from squanta.errors import LawViolated
from squanta.modact import (
    ACT,
    MODULE,
    POSET,
    ActionMap,
    check_action,
    extend_act_to_module,
    extend_poset_action_to_dm,
    restrict_module_to_act,
)


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _record(lines, scan, obj):
    rep = scan(obj, strict=False)
    lines.extend(rep.lines)
    lines.append(repr((rep.data.get("checked"), rep.data.get("skipped"))))
    try:
        scan(obj, strict=True)
        lines.append("strict: no violation")
    except LawViolated as exc:
        lines.append(f"strict: {exc.law} {exc.witness!r}")


def _table_mutants(am, level):
    """The action with each cell of its star table set to each point."""
    table = {(a, x): am.star(a, x)
             for a in am.scalars.elements for x in am.space.elements}
    for cell in table:
        for z in am.space.elements:
            star = {**table, cell: z}
            yield ActionMap(level, am.scalars, am.space,
                            lambda a, x, star=star: star[a, x])


def _changed(f, at, value):
    """f with the value at the argument pair `at` replaced."""
    return lambda s, x: value if (s, x) == at else f(s, x)


def _other(value, candidates):
    return next(c for c in candidates if c != value)


def _fragment_mutant(am):
    """The action with its value at the middle scalar and point of its
    universes changed."""
    scalars, points = am.scalar_universe(), am.space_universe()
    at = (scalars[len(scalars) // 2], points[len(points) // 2])
    wrong = _other(am.star(*at), [am.space.zero] + points)
    return ActionMap(am.level, am.scalars, am.space,
                     _changed(am.star, at, wrong), name=am.name)


def test_poset_action_mutants_as_pinned():
    lines = []
    for am in _table_mutants(fx.m2_on_d2(), POSET):
        _record(lines, check_action, am)
    assert _sha(lines) == POSET_MUTANTS


def test_finite_act_mutants_as_pinned():
    lines = []
    for am in _table_mutants(restrict_module_to_act(fx.a3_self_module()), ACT):
        _record(lines, check_action, am)
    assert _sha(lines) == ACT_MUTANTS


def test_fragment_mutants_as_pinned():
    lines = []
    aa = extend_poset_action_to_dm(fx.m2_on_d2())
    ma = extend_act_to_module(aa)
    for am in (aa, ma):
        _record(lines, check_action, _fragment_mutant(am))
    a = free_aqm(fx.m2(), k=3)
    els = a.quant.enumerate(a.quant.scan_bounds())
    at = (els[2], els[3])
    wrong = _other(a.mult(*at), [a.quant.zero] + els)
    _record(lines, check_aqm, AQM(a.dist, a.quant, _changed(a.mult, at, wrong),
                                  a.one, a.iota, name=a.name))
    assert _sha(lines) == FRAGMENT_MUTANTS



def _broken_n3():
    """N3's product with three cells changed, at the scalars 1, 2 and 3: as
    an action of N3 on its quantale and as an AQM, both on that table."""
    a = fx.n3()
    q, n = a.quant, len(a.quant.elements)
    t = bytearray(a.mult_op.flat)
    for s, x, z in ((1, 2, 0), (2, 3, 1), (3, 1, 3)):
        t[s * n + x] = z
    at, els = q.pomonoid.poset.index_of, q.elements
    ma = ActionMap(MODULE, a, q, lambda s, x: els[t[at(s) * n + at(x)]],
                   name="broken", table=bytes(t))
    return ma, AQM(a.dist, q, bytes(t), a.one, a.iota, name="broken")


def test_module_laws_on_a_table_broken_for_several_scalars():
    """compose, scalar-plus and scalar-join fail at several scalars of one
    table: their FAIL lines come by (s, t, x), laws in MODULE_LAWS order at
    one instance, in check_action and check_aqm alike."""
    ma, a = _broken_n3()
    lines = check_action(ma, strict=False).lines
    assert [ln for ln in lines if ln.split(":")[0]
            in ("compose", "scalar-plus", "scalar-join")] == [
        f"{law}: FAIL [witness: {w!r}]" for law, w in [
            ("scalar-plus", ("1", "1", "2")), ("scalar-plus", ("1", "1", "3")),
            ("compose", ("1", "2", "1")), ("scalar-join", ("1", "2", "3")),
            ("compose", ("2", "1", "2")), ("scalar-join", ("2", "1", "3")),
            ("compose", ("2", "2", "2")), ("compose", ("2", "2", "3")),
            ("scalar-plus", ("2", "2", "3")), ("compose", ("2", "3", "1")),
            ("compose", ("2", "3", "2")), ("compose", ("2", "3", "3")),
            ("compose", ("3", "1", "2"))]]
    assert (len(lines), _sha(lines)) == (33, BROKEN_N3_ACTION)
    lines = check_aqm(a, strict=False).lines
    assert (len(lines), _sha(lines)) == (36, BROKEN_N3_AQM)


POSET_MUTANTS = (
    "8efd44bdb556a35848d745efbffbb84bd9c275d476648e2d1d4282ad60a117a7")
ACT_MUTANTS = (
    "8fe136d0d0d2b5f4c75a9eb4a17d6cd689ca292ed7afb0393c2e2ccff3dc8379")
FRAGMENT_MUTANTS = (
    "eefcc187e16280834e207417cad2e484f6ca5155d5e57ab054262a0e9b5f4e16")
BROKEN_N3_ACTION = (
    "510308c3bafab0252b7edae84b84985156f9861ef24d9ad84af15c6debfdd6f2")
BROKEN_N3_AQM = (
    "dc920fca7384993bf927c7f4397ea8a4e9a73a56a8ddd4c70af983d04c1a68b7")
