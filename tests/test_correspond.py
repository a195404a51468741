"""The correspondence suite converts each presentation once into each kind,
and it and the `correspond` command fail when a conversion breaks a round
trip or the order."""

from oracles import presentation_leq
from squanta import fixtures as fx
from squanta import search
from squanta.cli import EXIT_VIOLATION, main
from squanta.nucleus import (
    KINDS,
    convert,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
)
from squanta.search import quantale_descriptions, suite_correspond


def test_each_presentation_converted_once_per_kind(monkeypatch):
    calls = []

    def spy(p, target):
        calls.append(target)
        return convert(p, target)

    monkeypatch.setattr(search, "convert", spy)
    for desc in quantale_descriptions(3):
        calls.clear()
        result = suite_correspond(desc)
        assert result["ok"]
        assert len(calls) <= 3 * sum(result["counts"])


def _comparable_pair(kind="consequence"):
    """The presentations of one kind of two distinct nuclei g <= h of N2."""
    q = fx.n2_quantale()
    g, h = next((g, h) for g in enumerate_nuclei(q) for h in enumerate_nuclei(q)
                if g != h and presentation_leq(g, h))
    return convert(g, kind), convert(h, kind)


def _trade(monkeypatch, trade):
    """Patch search.convert to replace each presentation a of the (a, b)
    pairs in `trade` by b, on the way in and on the way out."""
    def swap(p):
        return next((b for a, b in trade if a == p), p)

    monkeypatch.setattr(search, "convert",
                        lambda p, target: swap(convert(swap(p), target)))


def test_broken_round_trip_fails(monkeypatch):
    c, d = _comparable_pair()
    _trade(monkeypatch, [(c, d)])  # c no longer has a preimage
    result = suite_correspond(fx.n2())
    assert result["counts"] == (3, 3, 3)
    assert not result["round_trips"]
    assert not result["ok"]


def test_bijection_that_reverses_the_order_fails(monkeypatch):
    # trading the images of g <= h keeps every round trip, but sends g to
    # a relation that is not contained in the image of h
    c, d = _comparable_pair()
    _trade(monkeypatch, [(c, d), (d, c)])
    result = suite_correspond(fx.n2())
    assert result["counts_agree"] and result["round_trips"]
    assert not result["order_preserving"]
    assert not result["ok"]


def test_trading_both_images_fails_on_the_nuclei_order(monkeypatch):
    # trading the consequence and the congruence images of g <= h together
    # keeps every round trip, and those two orders agree with each other:
    # only the nuclei's order shows that the images were permuted
    (c, d), (r, s) = map(_comparable_pair, ("consequence", "congruence"))
    _trade(monkeypatch, [(c, d), (d, c), (r, s), (s, r)])
    result = suite_correspond(fx.n2())
    assert result["counts_agree"] and result["round_trips"]
    assert not result["order_preserving"]
    assert not result["ok"]


def test_correspond_command_fails_on_the_reversed_order(monkeypatch, capsys):
    c, d = _comparable_pair()
    _trade(monkeypatch, [(c, d), (d, c)])
    assert main(["correspond", "N2"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "round-trips: PASS" in out
    assert "order-preserving: FAIL" in out


def test_order_rows_match_the_pairwise_order():
    # on every quantale of size <= 4, for each kind: over the nuclei's
    # triples and over that kind's own enumeration
    for desc in quantale_descriptions(4):
        q = search.make_quantale(desc)
        nucs = enumerate_nuclei(q)
        lists = [[convert(g, kind) for g in nucs] for kind in KINDS]
        lists += [enumerate_consequences(q), enumerate_congruences(q)]
        for ps in lists:
            rows = search._order_rows(ps)
            assert rows == tuple(
                sum(1 << j for j, r in enumerate(ps) if presentation_leq(p, r))
                for p in ps)
