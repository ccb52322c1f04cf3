"""Subset-DP statistics against naive enumeration oracles plus pinned values."""

import hashlib
import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_matchings,
    frozen_corpus,
    naive_c_edge,
    naive_induced,
    naive_l_v,
    naive_longest_path,
    naive_max_weight_cycle,
    naive_max_weight_path,
    naive_mu,
    naive_mu_edge,
    naive_p_clique,
    naive_p_edge,
    naive_pv_edge,
    naive_s_clique,
    naive_wp_edge,
    all_paths,
    path_edges,
    random_graph,
    random_weights,
)
from locturan.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    cut_edges_and_2ec_pieces,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    is_connected,
    join_graphs,
    parse_graph6,
    path_graph,
    seeded_weights,
    star_graph,
    write_graph6,
)
from locturan.stats import (
    PathEngine,
    clique_count,
    clique_path_profile,
    clique_star_profile,
    cycle_profile,
    enumerate_cliques,
    f_edge_set,
    longest_cycle_through_edge,
    longest_path,
    longest_path_through_edge,
    longest_path_with_consecutive_clique,
    longest_vpath,
    longest_vpath_through_edge,
    matching_number,
    matching_profile,
    max_matching,
    max_matching_containing_edge,
    max_star_over_clique,
    max_weight_cycle,
    max_weight_path,
    max_weight_path_through_edge,
    path_profile,
    star_profile,
    star_size_through_edge,
    vpath_profile,
    weighted_path_profile,
    weighted_path_ratios,
    _engine,
)


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


# ---------------------------------------------------------------------------
# pinned worked examples


def test_longest_path_examples():
    assert longest_path(complete_graph(4)) == 3
    assert longest_path(cycle_graph(5)) == 4
    assert longest_path(Graph(3)) == 0


def test_p_edge_examples():
    assert longest_path_through_edge(complete_graph(2), (0, 1)) == 1
    for e in complete_graph(3).edges:
        assert longest_path_through_edge(complete_graph(3), e) == 2
    for e in path_graph(4).edges:
        assert longest_path_through_edge(path_graph(4), e) == 3


def test_c_edge_examples():
    for e in path_graph(5).edges:
        assert longest_cycle_through_edge(path_graph(5), e) == 2
    for e in cycle_graph(4).edges:
        assert longest_cycle_through_edge(cycle_graph(4), e) == 4
    for e in complete_graph(4).edges:
        assert longest_cycle_through_edge(complete_graph(4), e) == 4


def test_vpath_examples():
    for v in range(4):
        assert longest_vpath(complete_graph(4), v) == 3
    assert longest_vpath(path_graph(4), 0) == 3
    assert longest_vpath(path_graph(4), 1) == 2
    assert longest_vpath(disjoint_union(complete_graph(2), Graph(1)), 2) == 0


def test_pv_edge_examples():
    k3 = complete_graph(3)
    for e in k3.edges:
        assert longest_vpath_through_edge(k3, 0, e) == 2
    p3 = path_graph(3)
    assert longest_vpath_through_edge(p3, 0, (0, 1)) == 2
    assert longest_vpath_through_edge(p3, 0, (1, 2)) == 2
    bt = bowtie()
    for e in bt.edges:
        assert longest_vpath_through_edge(bt, 2, e) == 2


def test_pv_requires_connected():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    with pytest.raises(ValueError):
        longest_vpath_through_edge(g, 0, (0, 1))


def test_star_examples():
    k15 = star_graph(6)
    for e in k15.edges:
        assert star_size_through_edge(k15, e) == 5
    for e in complete_graph(4).edges:
        assert star_size_through_edge(complete_graph(4), e) == 3


def test_matching_examples():
    assert matching_number(complete_graph(4)) == 2
    assert matching_number(star_graph(4)) == 1
    assert matching_number(cycle_graph(7)) == 3
    m = max_matching(complete_graph(4))
    assert len(m) == 2
    used = [v for e in m for v in e]
    assert len(set(used)) == len(used)


def test_mu_edge_examples():
    for e in complete_graph(3).edges:
        assert max_matching_containing_edge(complete_graph(3), e) == 1
    j = join_graphs(complete_graph(2), Graph(4))
    assert max_matching_containing_edge(j, (0, 1)) == 1
    for e in j.edges:
        if e != (0, 1):
            assert max_matching_containing_edge(j, e) == 2


def test_f_edge_set_examples():
    j = join_graphs(complete_graph(2), Graph(4))
    assert f_edge_set(j) == [(0, 1)]
    assert f_edge_set(cycle_graph(5)) == []
    k4 = complete_graph(4)
    assert f_edge_set(k4) == []


def test_clique_enumeration_examples():
    assert len(enumerate_cliques(complete_graph(4), 3)) == 4
    assert enumerate_cliques(path_graph(4), 3) == []
    k5e = Graph(5, [e for e in complete_graph(5).edges if e != (3, 4)])
    assert clique_count(k5e, 3) == 7
    assert clique_count(complete_graph(4), 1) == 4
    assert clique_count(complete_graph(4), 2) == 6


def test_p_clique_examples():
    k4 = complete_graph(4)
    for tri in enumerate_cliques(k4, 3):
        assert longest_path_with_consecutive_clique(k4, tri) == 3
    assert longest_path_with_consecutive_clique(complete_graph(3), (0, 1, 2)) == 2
    paw = Graph(4, [(1, 2), (1, 3), (2, 3), (0, 3)])
    assert longest_path_with_consecutive_clique(paw, (1, 2, 3)) == 3


def test_s_clique_examples():
    k4 = complete_graph(4)
    for tri in enumerate_cliques(k4, 3):
        assert max_star_over_clique(k4, tri) == 3
    assert max_star_over_clique(complete_graph(3), (0, 1, 2)) == 2
    wheel = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
    for tri in enumerate_cliques(wheel, 3):
        assert max_star_over_clique(wheel, tri) == 5


def test_clique_stat_rejects_non_clique():
    with pytest.raises(ValueError):
        longest_path_with_consecutive_clique(path_graph(4), (0, 1, 2))
    with pytest.raises(ValueError):
        max_star_over_clique(path_graph(4), (0, 2))


def test_weighted_examples():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    wg = WeightedGraph(tri, {(0, 1): 1, (0, 2): 1, (1, 2): 0})
    assert max_weight_path(wg) == 2
    assert max_weight_path_through_edge(wg, (1, 2)) == 1
    assert max_weight_path_through_edge(wg, (0, 1)) == 2
    zero = WeightedGraph(tri, {e: 0 for e in tri.edges})
    assert max_weight_path(zero) == 0
    k4 = WeightedGraph.unit(complete_graph(4))
    assert max_weight_path(k4) == 3
    assert max_weight_cycle(k4) == 4
    single = WeightedGraph(Graph(2, [(0, 1)]), {(0, 1): Fraction(5, 2)})
    assert max_weight_path_through_edge(single, (0, 1)) == Fraction(5, 2)
    assert max_weight_cycle(single) is None


def test_edge_arguments_validated():
    with pytest.raises(ValueError):
        longest_path_through_edge(path_graph(3), (0, 2))
    with pytest.raises(ValueError):
        longest_cycle_through_edge(path_graph(3), (9, 2))
    with pytest.raises(ValueError):
        max_matching_containing_edge(path_graph(3), (0, 2))


# ---------------------------------------------------------------------------
# exhaustive oracle comparisons (every graph, n <= 5)


def test_edge_stats_match_naive_n5():
    for g in frozen_corpus(5):
        pp = path_profile(g).values
        cp = cycle_profile(g).values
        sp = star_profile(g).values
        mp = matching_profile(g).values
        assert longest_path(g) == naive_longest_path(g)
        for e in g.edges:
            assert pp[e] == naive_p_edge(g, e)
            assert cp[e] == naive_c_edge(g, e)
            assert sp[e] == max(g.degree(e[0]), g.degree(e[1]))
            assert mp[e] == naive_mu_edge(g, e)


def test_rooted_stats_match_naive_n5():
    for g in frozen_corpus(5, connected_only=True):
        for v in range(g.n):
            assert longest_vpath(g, v) == naive_l_v(g, v)
            vp = vpath_profile(g, v).values
            for e in g.edges:
                assert vp[e] == naive_pv_edge(g, v, e)


def test_clique_stats_match_naive_n5():
    for g in frozen_corpus(5):
        for s in (1, 2, 3, 4):
            pcp = clique_path_profile(g, s).values
            scp = clique_star_profile(g, s).values
            for clique in enumerate_cliques(g, s):
                assert pcp[clique] == naive_p_clique(g, clique)
                assert scp[clique] == naive_s_clique(g, clique)
    # p(S) bans S minus the block's two ends only when s >= 3
    for g in enumerate_graphs(6):
        for s in (3, 4, 5, 6):
            pcp = clique_path_profile(g, s).values
            for clique in enumerate_cliques(g, s):
                assert pcp[clique] == naive_p_clique(g, clique)


def test_rooted_and_clique_profiles_share_one_engine(monkeypatch):
    built = []
    init = PathEngine.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(PathEngine, "__init__", counting_init)
    _engine.cache_clear()
    g = parse_graph6("FCZbg")
    assert is_connected(g) and clique_count(g, 3) == 2
    clique_path_profile(g, 3)
    vpath_profile(g, 0)
    assert built == [g]


def test_matching_numbers_match_naive_n5():
    for g in frozen_corpus(5):
        assert matching_number(g) == naive_mu(g)
        wit = max_matching(g)
        assert len(wit) == naive_mu(g)
        used = [v for e in wit for v in e]
        assert len(set(used)) == len(used)
        for e in wit:
            assert g.has_edge(*e)


def test_weighted_stats_match_naive():
    rng = random.Random(31)
    for g in frozen_corpus(4):
        for _ in range(6):
            wg = random_weights(rng, g)
            assert max_weight_path(wg) == naive_max_weight_path(wg)
            assert max_weight_cycle(wg) == naive_max_weight_cycle(wg)
            wp = weighted_path_profile(wg).values
            for e in g.edges:
                assert wp[e] == naive_wp_edge(wg, e)


def test_weighted_stats_match_naive_n5():
    rng = random.Random(37)
    for g in frozen_corpus(5, connected_only=True):
        wg = random_weights(rng, g)
        assert max_weight_path(wg) == naive_max_weight_path(wg)
        assert max_weight_cycle(wg) == naive_max_weight_cycle(wg)
        for e in g.edges:
            assert max_weight_path_through_edge(wg, e) == naive_wp_edge(wg, e)


def test_weighted_stats_match_naive_n6():
    """Every class with n <= 6 under one seeded weighting, against the
    oracles; the corpus includes zero-weight edges, which the live-state
    tables must carry like any other."""
    zero_edges = 0
    for g in frozen_corpus(6):
        wg = seeded_weights(g, zlib.crc32(write_graph6(g).encode()))
        zero_edges += sum(1 for w in wg.weights.values() if w == 0)
        assert weighted_path_profile(wg).values == {e: naive_wp_edge(wg, e) for e in g.edges}
        assert max_weight_path(wg) == naive_max_weight_path(wg)
        assert max_weight_cycle(wg) == naive_max_weight_cycle(wg)
    assert zero_edges == 131


# ---------------------------------------------------------------------------
# randomized cross-checks at n in {6, 7}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 15 - 1))
def test_random_n6_stats_vs_naive(mask):
    pairs = [(i, j) for j in range(6) for i in range(j)]
    g = Graph(6, [pairs[i] for i in range(15) if mask >> i & 1])
    pp = path_profile(g).values
    cp = cycle_profile(g).values
    mp = matching_profile(g).values
    for e in g.edges:
        assert pp[e] == naive_p_edge(g, e)
        assert cp[e] == naive_c_edge(g, e)
        assert mp[e] == naive_mu_edge(g, e)


def test_random_n7_longest_path_vs_naive():
    rng = random.Random(41)
    for _ in range(15):
        g = random_graph(rng, 7, 0.45)
        assert longest_path(g) == naive_longest_path(g)
        assert matching_number(g) == naive_mu(g)


def path_stats_digest(graphs) -> str:
    """SHA-256 over the reprs of every unweighted path statistic: longest
    path, ell(v) and p_v(e) at every root (of the connected graphs), p(e),
    c(e) and p(S) for s = 2, 3, 4."""
    h = hashlib.sha256()
    for g in graphs:
        rows = [longest_path(g), [longest_vpath(g, v) for v in range(g.n)],
                path_profile(g), cycle_profile(g)]
        if is_connected(g):
            rows += [vpath_profile(g, v) for v in range(g.n)]
        rows += [clique_path_profile(g, s) for s in (2, 3, 4)]
        h.update(f"{write_graph6(g)} {rows!r}\n".encode("ascii"))
    return h.hexdigest()


def test_path_stats_digest_n7():
    """Every class with n <= 7, pinned per edge, per root and per clique;
    the golden `verify` digests pin only the sums of these values."""
    assert path_stats_digest(frozen_corpus(7)) == (
        "e3948e399d7de8fd2e482dc988e3844b7d8a1049b3e5b4543051514171b428d3"
    )


# ---------------------------------------------------------------------------
# structural invariants


def test_monotone_domination_n5():
    for g in frozen_corpus(5, connected_only=True):
        lp = longest_path(g)
        pp = path_profile(g).values
        for v in range(g.n):
            vp = vpath_profile(g, v).values
            for e in g.edges:
                assert vp[e] <= pp[e] <= lp


def test_cut_edge_convention_n6():
    for g in frozen_corpus(6):
        cuts = set(cut_edges_and_2ec_pieces(g)[0])
        cp = cycle_profile(g).values
        for e in g.edges:
            assert (cp[e] == 2) == (e in cuts)


def test_mu_edge_deletion_identity_n5():
    for g in frozen_corpus(5):
        mp = matching_profile(g).values
        for u, v in g.edges:
            rest = [x for x in range(g.n) if x not in (u, v)]
            assert mp[(u, v)] == 1 + matching_number(naive_induced(g, rest))


def test_saturation_property_of_f_edges():
    """With mu >= 3, F-edge endpoints are saturated in every maximum matching
    and their partners are nonadjacent."""
    checked = 0
    for n in (6, 7):
        for g in enumerate_graphs(n):
            mu = matching_number(g)
            if mu < 3:
                continue
            fset = set(f_edge_set(g))
            if not fset:
                continue
            maxima = [m for m in all_matchings(g) if len(m) == mu]
            for m in maxima:
                partner = {}
                for a, b in m:
                    partner[a] = b
                    partner[b] = a
                for x, y in fset:
                    assert x in partner and y in partner
                    px, py = partner[x], partner[y]
                    assert not g.has_edge(px, py)
            checked += 1
    assert checked > 0


def test_terminus_property_n6():
    """Every edge at the terminus of a longest root path attains p_v(e)."""
    for g in frozen_corpus(6, connected_only=True):
        if g.n < 2:
            continue
        paths = all_paths(g)
        for v in range(g.n):
            best = naive_l_v(g, v)
            if best == 0:
                continue
            termini = set()
            for p in paths:
                if len(p) - 1 == best:
                    if p[0] == v:
                        termini.add(p[-1])
                    if p[-1] == v:
                        termini.add(p[0])
            vp = vpath_profile(g, v).values
            for u in termini:
                for w in g.neighbors(u):
                    e = (min(u, w), max(u, w))
                    assert vp[e] == best


def test_weighted_unit_reduction():
    # with n <= 5, and on a dense n = 12 graph (38 edges) whose maximal
    # paths are too many to list
    for g in [*frozen_corpus(5, connected_only=True), parse_graph6("KH|^LmDN@dn]")]:
        wg = WeightedGraph.unit(g)
        pp = path_profile(g).values
        wp = weighted_path_profile(wg).values
        assert max_weight_path(wg) == longest_path(g)
        circumference = max(cycle_profile(g).values.values(), default=2)
        assert max_weight_cycle(wg) == (circumference if circumference > 2 else None)
        for e in g.edges:
            assert wp[e] == pp[e]


def test_weighted_path_ratios_give_zero_on_zero_weight_edges():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    wg = WeightedGraph(tri, {(0, 1): 1, (0, 2): 2, (1, 2): 0})
    assert weighted_path_ratios(wg) == {
        (0, 1): Fraction(1, 3), (0, 2): Fraction(2, 3), (1, 2): 0,
    }
    # an all-zero weighting has w(p(e)) = 0 on every edge
    zero = WeightedGraph(tri, {e: 0 for e in tri.edges})
    assert weighted_path_ratios(zero) == {e: 0 for e in tri.edges}


def test_equal_weighted_graphs_hash_equal_and_share_one_profile():
    g = complete_graph(4)
    a = seeded_weights(g, 11)
    b = WeightedGraph(Graph(4, g.edges), dict(a.weights))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, WeightedGraph.unit(g)}) == 2
    assert weighted_path_profile(a) is weighted_path_profile(b)


def test_weighted_stats_reject_over_cap_graph():
    wg = WeightedGraph.unit(path_graph(13))
    for stat in (weighted_path_profile, max_weight_path, max_weight_cycle):
        with pytest.raises(ValueError, match="n <= 12, got 13"):
            stat(wg)


def test_profiles_cover_exactly_the_edge_set():
    for g in frozen_corpus(4):
        for prof in (path_profile(g), cycle_profile(g), star_profile(g),
                     matching_profile(g)):
            assert tuple(sorted(prof.values)) == g.edges


def test_stat_floor_invariants_n5():
    for g in frozen_corpus(5):
        pp = path_profile(g).values
        cp = cycle_profile(g).values
        sp = star_profile(g).values
        mp = matching_profile(g).values
        for e in g.edges:
            assert pp[e] >= 1
            assert cp[e] >= 2
            assert sp[e] >= 1
            assert mp[e] >= 1


def test_weight_floor_invariant():
    rng = random.Random(43)
    for g in frozen_corpus(4, connected_only=True):
        wg = random_weights(rng, g)
        wp = weighted_path_profile(wg).values
        for e in g.edges:
            assert wp[e] >= wg.weights[e]
