"""Posets of critical points, chains and chain combinatorics."""

import gc

import pytest

from strataglue import (
    Chain,
    CriticalPoint,
    CriticalPoset,
    InputError,
    concat_chains,
    enumerate_chains,
    is_chain,
    is_subchain,
    pair_length,
)


def total_order(n):
    ids = [f"p{i}" for i in range(n)]
    return CriticalPoset(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)])


# -- construction ------------------------------------------------------


def test_transitive_closure():
    poset = total_order(4)
    assert poset.precedes("p0", "p3")
    assert poset.precedes("p1", "p2")
    assert not poset.precedes("p3", "p0")
    assert poset.below("p0") == frozenset({"p1", "p2", "p3"})


def test_pairs_sorted():
    poset = total_order(3)
    assert poset.pairs() == [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]


def test_incomparable_elements():
    poset = CriticalPoset(["a", "b", "x"], [("a", "b")])
    assert not poset.precedes("a", "x")
    assert not poset.precedes("x", "a")


def test_duplicate_id_rejected():
    with pytest.raises(InputError):
        CriticalPoset(["a", "a"])


def test_reflexive_relation_rejected():
    with pytest.raises(InputError):
        CriticalPoset(["a"], [("a", "a")])


def test_cycle_rejected():
    with pytest.raises(InputError):
        CriticalPoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_unknown_id_in_relation_rejected():
    with pytest.raises(InputError):
        CriticalPoset(["a"], [("a", "zzz")])


def test_negative_index_rejected():
    with pytest.raises(InputError):
        CriticalPoint("a", index=-1)


def test_point_lookup():
    poset = CriticalPoset([CriticalPoint("a", index=2)])
    assert poset.point("a").index == 2
    assert "a" in poset and "b" not in poset
    with pytest.raises(InputError):
        poset.point("b")


# -- chains ------------------------------------------------------------


def test_chain_basic_accessors():
    c = Chain(("a", "b", "c", "d"))
    assert c.head == "a"
    assert c.tail == "d"
    assert c.interior == ("b", "c")
    assert c.length == 2
    assert c.pair == ("a", "d")
    assert list(c) == ["a", "b", "c", "d"]
    assert len(c) == 4


def test_chain_needs_two_points():
    with pytest.raises(InputError):
        Chain(("a",))


def test_chain_rejects_repeats():
    with pytest.raises(InputError):
        Chain(("a", "b", "a"))


def test_is_chain_and_checked_builder():
    poset = total_order(4)
    assert is_chain(poset, ["p0", "p2", "p3"])
    assert not is_chain(poset, ["p2", "p0"])
    assert not is_chain(poset, ["p0"])
    assert poset.chain(["p0", "p1"]) == Chain(("p0", "p1"))
    with pytest.raises(InputError):
        poset.chain(["p1", "p0"])


def test_is_subchain():
    outer = Chain(("a", "b", "c", "d"))
    assert is_subchain(Chain(("a", "d")), outer)
    assert is_subchain(Chain(("a", "c", "d")), outer)
    assert is_subchain(outer, outer)
    assert not is_subchain(Chain(("a", "c")), outer)  # different tail
    assert not is_subchain(Chain(("b", "d")), outer)  # different head


def test_concat_chains():
    first = Chain(("a", "b", "c"))
    second = Chain(("c", "d"))
    joined = concat_chains(first, second)
    assert joined == Chain(("a", "b", "c", "d"))
    assert joined.length == first.length + second.length + 1
    with pytest.raises(InputError):
        concat_chains(second, first)


def test_enumerate_chains_counts():
    poset = total_order(4)
    chains = enumerate_chains(poset, "p0", "p3")
    # one chain per subset of the two intermediate points
    assert len(chains) == 4
    assert chains == sorted(chains, key=lambda c: c.points)
    assert Chain(("p0", "p3")) in chains
    assert Chain(("p0", "p1", "p2", "p3")) in chains
    with pytest.raises(InputError):
        enumerate_chains(poset, "p3", "p0")


def test_enumerate_chains_leaves_no_garbage_cycles():
    poset = total_order(5)
    gc.collect()
    gc.disable()
    try:
        chains = enumerate_chains(poset, "p0", "p4")
        assert gc.collect() == 0
    finally:
        gc.enable()
    # one chain per subset of the three intermediate points, sorted
    assert len(chains) == 8
    assert chains == sorted(chains, key=lambda c: c.points)


def test_enumerate_chains_diamond():
    # two incomparable middle elements: top > {l, r} > bottom
    poset = CriticalPoset(
        ["t", "l", "r", "b"],
        [("t", "l"), ("t", "r"), ("l", "b"), ("r", "b")],
    )
    chains = enumerate_chains(poset, "t", "b")
    assert len(chains) == 3  # direct, through l, through r
    assert pair_length(poset, "t", "b") == 1


def test_pair_length():
    poset = total_order(5)
    assert pair_length(poset, "p0", "p4") == 3
    assert pair_length(poset, "p0", "p1") == 0
    assert pair_length(poset, "p4", "p0") == -1
