"""Decomposition, factor-criticality, and closures."""

import random

import pytest

from conftest import (
    frozen_corpus,
    naive_d_set,
    naive_factor_critical,
    naive_mu,
    random_graph,
)
from locturan.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
    star_graph,
)
from locturan.matching import gallai_edmonds, is_factor_critical, k_closure
from locturan.stats import matching_number


def k5_minus_edge() -> Graph:
    return Graph(5, [e for e in complete_graph(5).edges if e != (3, 4)])


# ---------------------------------------------------------------------------
# factor-criticality


def test_factor_critical_examples():
    assert is_factor_critical(Graph(1))
    assert is_factor_critical(cycle_graph(5))
    assert not is_factor_critical(path_graph(3))
    assert not is_factor_critical(complete_graph(4))
    assert is_factor_critical(complete_graph(5))


def test_factor_critical_past_the_table_cap():
    # an even order is never factor-critical, and no table is built for it
    assert not is_factor_critical(complete_graph(14))
    with pytest.raises(ValueError, match="n <= 12"):
        is_factor_critical(complete_graph(13))


def test_factor_critical_against_naive_n6():
    for g in frozen_corpus(6):
        assert is_factor_critical(g) == naive_factor_critical(g)


# ---------------------------------------------------------------------------
# the D/A/C decomposition


def test_ge_examples():
    dec = gallai_edmonds(star_graph(4))
    assert dec.d == (1, 2, 3)
    assert dec.a == (0,)
    assert dec.c == ()
    assert len(dec.d_components) == 3

    dec = gallai_edmonds(complete_graph(4))
    assert dec.d == () and dec.a == ()
    assert dec.c == (0, 1, 2, 3)

    dec = gallai_edmonds(disjoint_union(complete_graph(3), Graph(1)))
    assert dec.d == (0, 1, 2, 3)
    assert dec.a == () and dec.c == ()
    assert sorted(len(c) for c in dec.d_components) == [1, 3]


def test_ge_against_brute_force_n6():
    for g in frozen_corpus(6):
        dec = gallai_edmonds(g)
        assert list(dec.d) == naive_d_set(g)
        assert sorted(dec.d + dec.a + dec.c) == list(range(g.n))
        for comp in dec.d_components:
            assert is_factor_critical(induced_subgraph(g, comp))
        mu = naive_mu(g)
        assert g.n - 2 * mu == len(dec.d_components) - len(dec.a)


def test_ge_deficiency_identity_with_nonempty_a():
    hits = 0
    for g in frozen_corpus(6):
        dec = gallai_edmonds(g)
        if dec.a:
            hits += 1
            mu = matching_number(g)
            assert g.n - 2 * mu == len(dec.d_components) - len(dec.a)
    assert hits > 0


# ---------------------------------------------------------------------------
# closures


def test_closure_examples():
    res = k_closure(k5_minus_edge(), 5)
    assert res.graph == complete_graph(5)
    assert res.added_edges == ((3, 4),)

    res = k_closure(path_graph(4), 5)
    assert res.graph == path_graph(4)
    assert res.added_edges == ()

    for g in (path_graph(3), cycle_graph(4), Graph(2)):
        assert k_closure(g, 0).graph == complete_graph(g.n)


def test_closure_invariant_and_replay():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        k = rng.randrange(0, 12)
        res = k_closure(g, k)
        h = res.graph
        for u in range(h.n):
            for v in range(u + 1, h.n):
                if not h.has_edge(u, v):
                    assert h.degree(u) + h.degree(v) < k
        replay = g
        for e in res.added_edges:
            assert not replay.has_edge(*e)
            assert replay.degree(e[0]) + replay.degree(e[1]) >= k
            replay = replay.with_edges([e])
        assert replay == h


def random_order_closure(g: Graph, k: int, rng: random.Random) -> Graph:
    cur = g
    while True:
        eligible = [
            (u, v)
            for u in range(cur.n)
            for v in range(u + 1, cur.n)
            if not cur.has_edge(u, v) and cur.degree(u) + cur.degree(v) >= k
        ]
        if not eligible:
            return cur
        cur = cur.with_edges([rng.choice(eligible)])


def test_closure_unique_under_randomized_orders():
    rng = random.Random(9)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 7), rng.random())
        k = rng.randrange(0, 10)
        want = k_closure(g, k).graph
        for _ in range(3):
            assert random_order_closure(g, k, rng) == want
