"""The shared desk-scale fixtures used across tests and the CLI prelude.

D2: discrete two-element poset. C2: two-element chain. N2: the three-element
truncated-addition quantale. M2: the two-element monoid with an absorbing
element, acting on D2. A3: N2 with truncated multiplication as a self-acting
two-sorted structure. N3: the four-chain analogue of A3, whose quotient by
the nucleus fixing {0,1,3} is cyclic but not projective.
"""

from functools import lru_cache

from .aqm import make_quantale, table_aqm
from .modact import POSET, ActionMap
from .order import validate_structure
from .projective import self_module, submodule_on_orbit

__all__ = [
    "d2", "c2", "n2", "m2", "a3", "n3", "b3",
    "n2_quantale", "n3_quantale", "truncated_mult",
    "m2_on_d2", "a3_self_module", "a3_sub2_module", "n3_self_module",
    "b3_self_module",
    "trivial_module", "module_family",
    "broken_descriptions",
]


@lru_cache(maxsize=None)
def d2():
    return validate_structure({"poset": {"elements": ["p", "q"], "leq": []}})


@lru_cache(maxsize=None)
def c2():
    return validate_structure({"poset": {"elements": ["a", "b"], "leq": [["a", "b"]]}})


def _chain_add_description(n, cap):
    els = [str(i) for i in range(n)]
    return {
        "poset": {
            "elements": els,
            "leq": [[str(i), str(j)] for i in range(n) for j in range(n) if i <= j],
        },
        "monoid": {
            "op": [
                [str(i), str(j), str(min(i + j, cap))]
                for i in range(n)
                for j in range(n)
            ],
            "unit": "0",
            "notation": "additive",
        },
    }


@lru_cache(maxsize=None)
def n2():
    return validate_structure(_chain_add_description(3, 2))


@lru_cache(maxsize=None)
def n2_quantale():
    return make_quantale(n2(), name="N2")


@lru_cache(maxsize=None)
def m2():
    return validate_structure(
        {
            "poset": {"elements": ["c", "e"], "leq": []},
            "monoid": {
                "op": [["e", "e", "e"], ["e", "c", "c"], ["c", "e", "c"],
                       ["c", "c", "c"]],
                "unit": "e",
                "notation": "multiplicative",
            },
        }
    )


def truncated_mult(q):
    """The product min(x * y, cap) of a quantale whose elements are
    numerals, cap the largest, as a dict {(x, y): x * y} over labels."""
    cap = max(int(x) for x in q.elements)
    return {(x, y): str(min(int(x) * int(y), cap))
            for x in q.elements for y in q.elements}


@lru_cache(maxsize=None)
def a3():
    q = n2_quantale()
    return table_aqm(q, truncated_mult(q), "1", name="A3")


@lru_cache(maxsize=None)
def n3_quantale():
    return make_quantale(validate_structure(_chain_add_description(4, 3)), name="N3")


@lru_cache(maxsize=None)
def n3():
    q = n3_quantale()
    return table_aqm(q, truncated_mult(q), "1", name="N3")


@lru_cache(maxsize=None)
def b3():
    """Three-element AQM (order 2 < 1 < 0, join as sum) carrying the natural
    non-structural nucleus 1 -> 0: 1*gamma(1) = 1 is not below
    gamma(1*1) = 2."""
    q = make_quantale(
        validate_structure(
            {
                "poset": {
                    "elements": ["0", "1", "2"],
                    "leq": [["1", "0"], ["2", "0"], ["2", "1"]],
                },
                "monoid": {
                    "op": [["0", "0", "0"], ["0", "1", "0"], ["0", "2", "0"],
                           ["1", "0", "0"], ["1", "1", "1"], ["1", "2", "1"],
                           ["2", "0", "0"], ["2", "1", "1"], ["2", "2", "2"]],
                    "unit": "2",
                },
            }
        ),
        name="B3",
    )
    mult = {("0", "0"): "0", ("0", "1"): "1", ("0", "2"): "2",
            ("1", "0"): "1", ("1", "1"): "2", ("1", "2"): "2",
            ("2", "0"): "2", ("2", "1"): "2", ("2", "2"): "2"}
    return table_aqm(q, mult, "0", name="B3")


@lru_cache(maxsize=None)
def b3_self_module():
    return self_module(b3(), name="B3")


@lru_cache(maxsize=None)
def m2_on_d2():
    act = {("e", "p"): "p", ("e", "q"): "q", ("c", "p"): "p", ("c", "q"): "p"}
    return ActionMap(POSET, m2(), d2(), lambda a, x: act[(a, x)], name="M2/D2")


@lru_cache(maxsize=None)
def a3_self_module():
    return self_module(a3(), name="A3")


@lru_cache(maxsize=None)
def a3_sub2_module():
    return submodule_on_orbit(a3_self_module(), "2", name="A·2")


@lru_cache(maxsize=None)
def n3_self_module():
    return self_module(n3(), name="N3")


@lru_cache(maxsize=None)
def trivial_module():
    return submodule_on_orbit(a3_self_module(), "0", name="A·0")


def module_family():
    """The A3 fixture family used for exhaustive lifting."""
    return [trivial_module(), a3_sub2_module(), a3_self_module()]


def broken_descriptions():
    """Deliberately broken fixtures for negative controls, keyed by name."""
    n2_desc = _chain_add_description(3, 2)
    bad_sum = {
        "poset": n2_desc["poset"],
        "monoid": {
            "op": [
                [x, y, ("0" if (x, y) == ("1", "1") else z)]
                for x, y, z in n2_desc["monoid"]["op"]
            ],
            "unit": "0",
        },
    }
    return {"N2-broken": bad_sum}
