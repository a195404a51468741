"""The position encodings, read through the classes that hold them: each
presentation's `rows` and a module's `ActionMap.column` agree with the label
definitions they encode."""

from itertools import product

from squanta import fixtures as fx
from squanta import search
from squanta.aqm import make_quantale
from squanta.nucleus import (enumerate_congruences, enumerate_consequences,
                             enumerate_nuclei)
from squanta.search import quantale_descriptions, suite_projective


def _cells(rows):
    return {(x, y) for x, row in enumerate(rows) for y in range(len(rows))
            if row >> y & 1}


def test_presentation_rows_match_their_labels():
    # every presentation of every quantale of size <= 4: bit y of row x is
    # y <= gamma(x), x |- y and x ~ y
    seen = 0
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        els = q.elements
        pairs = list(product(range(len(els)), repeat=2))
        definitions = [
            (enumerate_nuclei(q), lambda g, x, y: q.leq(y, g.apply(x))),
            (enumerate_consequences(q), lambda c, x, y: c.holds(x, y)),
            (enumerate_congruences(q), lambda r, x, y: r.related(x, y)),
        ]
        for ps, holds in definitions:
            for p in ps:
                assert len(p.rows) == len(els)
                assert _cells(p.rows) == {
                    (x, y) for x, y in pairs if holds(p, els[x], els[y])}
                seen += 1
    assert seen == 3 * 1151  # 1,151 of each kind


def _assert_columns(ma):
    pels = ma.space.elements
    index_of = ma.space.pomonoid.poset.index_of
    for u, x in enumerate(pels):
        assert isinstance(ma.column(u), bytes)
        assert ma.column(u) == bytes(index_of(ma.star(a, x))
                                     for a in ma.scalars.quant.elements)


def test_columns_match_the_action(monkeypatch):
    for ma in fx.module_family() + [fx.n3_self_module(), fx.b3_self_module()]:
        _assert_columns(ma)
    # every cyclic quotient the projective suite builds at size 3
    quotients = []
    check = search.cyclic_projective_check
    monkeypatch.setattr(search, "cyclic_projective_check",
                        lambda ma: quotients.append(ma) or check(ma))
    descs = [d for d in quantale_descriptions(3)
             if len(d["poset"]["elements"]) == 3]
    assert sum(suite_projective(d)["cyclic_quotients"] for d in descs) \
        == len(quotients) > 0
    for ma in quotients:
        _assert_columns(ma)
