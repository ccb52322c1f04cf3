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
import locturan.cli
import locturan.graphs
import locturan.stats as stats
import locturan.verify
from locturan.stats import (
    PathEngine,
    TabledGraph,
    clique_count,
    clique_path_profile,
    clique_star_profile,
    cycle_profile,
    enumerate_cliques,
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
    _heaviest_cycle,
    _heaviest_through_edges,
)
from locturan.verify import ALL_THEOREMS, CorpusConfig, reports_for_graph, verify_corpus


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
    with pytest.raises(ValueError, match="not a clique"):
        max_star_over_clique(path_graph(4), (0, 2))
    # repeated, out-of-range and missing vertices, on a graph where any
    # set of distinct vertices is a clique
    for bad in ((0, 0, 1), (0, 4), (-1, 0), ()):
        with pytest.raises(ValueError):
            max_star_over_clique(complete_graph(4), bad)


def test_rooted_join_names_an_unreached_edge():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    with pytest.raises(ValueError, match=r"^no path from 0 through edge \(2, 3\); "
                       "input must be connected$"):
        PathEngine(g).vpath_edges(0, g.edges)


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


def test_edge_arguments_validated(monkeypatch):
    with pytest.raises(ValueError):
        longest_path_through_edge(path_graph(3), (0, 2))
    with pytest.raises(ValueError):
        longest_cycle_through_edge(path_graph(3), (9, 2))
    with pytest.raises(ValueError):
        max_matching_containing_edge(path_graph(3), (0, 2))
    # each per-edge form checks its edge before it builds anything: past the
    # table cap, and on a holder, where no engine is built for a bad edge
    built = engine_builds(monkeypatch)
    for g in (path_graph(13), TabledGraph(complete_graph(6))):
        forms = [lambda e, form=form: form(g, e) for form, _ in EDGE_FORMS]
        forms.append(lambda e: longest_vpath_through_edge(g, 0, e))
        forms.append(lambda e: max_weight_path_through_edge(WeightedGraph.unit(g), e))
        for form in forms:
            with pytest.raises(ValueError, match=r"\(0, 9\) is not an edge"):
                form((0, 9))
    assert built == []


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


# each per-item form, with the profile it reads
EDGE_FORMS = (
    (longest_path_through_edge, path_profile),
    (longest_cycle_through_edge, cycle_profile),
    (star_size_through_edge, star_profile),
    (max_matching_containing_edge, matching_profile),
)


def test_per_item_forms_equal_their_profiles_n6():
    """Over every class with n <= 6, on a plain Graph and on a TabledGraph,
    each per-edge and per-clique form gives its profile's value on every
    edge, in either orientation, and on every clique, in any order."""
    for plain in frozen_corpus(6):
        for g in (plain, TabledGraph(plain)):
            for form, profile in EDGE_FORMS:
                values = profile(g).values
                assert {(a, b): form(g, (b, a)) for a, b in g.edges} == values
            for v in range(g.n) if is_connected(g) else ():
                values = vpath_profile(g, v).values
                assert {e: longest_vpath_through_edge(g, v, e[::-1]) for e in g.edges} == values
            for s in range(1, g.n + 1):
                for strict in (False, True):
                    values = clique_star_profile(g, s, strict).values
                    assert {k: max_star_over_clique(g, k[::-1], strict) for k in values} == values


def engine_builds(monkeypatch) -> list:
    """The graphs that PathEngines are built on from now on."""
    built = []
    init = PathEngine.__init__

    def counting_init(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(PathEngine, "__init__", counting_init)
    return built


def test_rooted_and_clique_profiles_share_one_engine(monkeypatch):
    built = engine_builds(monkeypatch)
    g = parse_graph6("FCZbg")
    assert is_connected(g) and clique_count(g, 3) == 2
    cfg = CorpusConfig(("gt-path", "local-bbrs"), s_values=(3,))
    assert all(r.status == "ok" for r in reports_for_graph(g, cfg))
    assert built == [g]
    # a plain Graph keeps nothing, so each profile builds its own engine
    clique_path_profile(g, 3)
    vpath_profile(g, 0)
    assert built == [g, g, g]


def test_mt_and_unit_weighted_mt_read_equal_path_sums(monkeypatch):
    built = engine_builds(monkeypatch)
    g = join_graphs(complete_graph(2), cycle_graph(5))
    reports = reports_for_graph(g, CorpusConfig(("mt", "weighted-mt")))
    assert [r.status for r in reports] == ["ok", "ok"]
    assert reports[0].lhs == reports[1].lhs
    assert built == [g]


def test_every_verifier_of_a_class_shares_one_engine_and_matching_table(monkeypatch):
    """Each graph's verifiers share one TabledGraph: over the 208 classes
    with n <= 6, each engine and matching table is built once."""
    built = engine_builds(monkeypatch)
    tables = []
    real = stats.match_table
    monkeypatch.setattr(stats, "match_table", lambda g: tables.append(g) or real(g))
    assert verify_corpus(ALL_THEOREMS, ns=range(1, 7)).ok
    assert len(built) == len(tables) == 208
    assert all(isinstance(g, TabledGraph) for g in built + tables)


def test_each_table_of_a_class_is_built_once(monkeypatch):
    """Over the 208 classes with n <= 6, reports_for_graph builds one path
    engine, one matching table, one p(e) profile and one c(e) profile per
    graph, tests connectivity inside the statistics at most once, and wraps
    the graph without constructing it again."""
    engines = engine_builds(monkeypatch)
    built = []

    def counting(name, key=lambda *args: ()):
        real = getattr(stats, name)

        def counted(*args, **kwargs):
            built.append((name, *key(*args)))
            return real(*args, **kwargs)

        monkeypatch.setattr(stats, name, counted)

    counting("match_table")
    counting("is_connected")
    counting("EdgeStatProfile", lambda kind, *rest: (kind,))
    counting("CliqueStatProfile", lambda kind, s, *rest: (kind, s))
    holders = []
    monkeypatch.setattr("locturan.verify.TabledGraph",
                        lambda g: holders.append(TabledGraph(g)) or holders[-1])
    wrapped = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        wrapped.append(isinstance(self, TabledGraph))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(graphs) == 208
    cfg = CorpusConfig(ALL_THEOREMS)
    for g in graphs:
        engines.clear()
        built.clear()
        holders.clear()
        assert all(r.status != "violated" for r in reports_for_graph(g, cfg))
        assert len(engines) == 1
        assert built.count(("match_table",)) == 1
        assert built.count(("EdgeStatProfile", "p")) == 1
        assert built.count(("EdgeStatProfile", "c")) == 1
        assert built.count(("is_connected",)) <= 1
        # the profiles that no reader reads twice: built once per use, not kept
        assert built.count(("EdgeStatProfile", "p_v")) == (g.n if is_connected(g) else 0)
        assert built.count(("EdgeStatProfile", "mu")) == (g.m > 0)
        assert built.count(("EdgeStatProfile", "s")) == 1
        assert all(built.count(("CliqueStatProfile", "s_K", s)) == 2 for s in cfg.s_values)
        [holder] = holders
        kept = {getattr(table, "kind", None) for table in holder.tables.values()}
        assert not kept & {"p_v", "mu", "s", "s_K"}
    assert not any(wrapped)


def test_each_hypothesis_is_decided_once_per_graph(monkeypatch):
    """Over the 208 classes with n <= 6, reports_for_graph tests
    2-edge-connectivity once per graph with n >= 3 and connectivity once,
    plus the test inside 2-edge-connectivity: every module's binding of
    each is wrapped.  p(S) validates its cliques only at s >= 3, since at
    s = 2 it reads the kept p(e)."""
    calls, checked = [], []
    modules = (locturan.graphs, stats, locturan.verify, locturan.cli)
    for name in ("is_connected", "is_two_edge_connected"):
        real = getattr(locturan.graphs, name)

        def counted(g, name=name, real=real):
            calls.append(name)
            return real(g)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    check = stats._check_clique
    monkeypatch.setattr(stats, "_check_clique",
                        lambda g, k: checked.append(len(k)) or check(g, k))
    cfg = CorpusConfig(ALL_THEOREMS)
    for g in (g for n in range(1, 7) for g in enumerate_graphs(n)):
        calls.clear()
        checked.clear()
        assert all(r.status != "violated" for r in reports_for_graph(g, cfg))
        assert calls.count("is_two_edge_connected") == (g.n >= 3)
        assert calls.count("is_connected") == 1 + (g.n >= 3)
        assert sorted(checked) == [3] * clique_count(g, 3) + [4] * clique_count(g, 4)


def test_per_item_reads_after_the_profile_build_nothing(monkeypatch):
    """On a TabledGraph, once the kept p(e) or c(e) profile is built, reading
    every edge through its per-edge form builds no PathEngine or
    EdgeStatProfile: each read is a lookup."""
    built = engine_builds(monkeypatch)
    real = stats.EdgeStatProfile
    monkeypatch.setattr(stats, "EdgeStatProfile",
                        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
    kept = ((longest_path_through_edge, path_profile),
            (longest_cycle_through_edge, cycle_profile))
    for g in map(TabledGraph, frozen_corpus(6)):
        for form, profile in kept:
            profile(g)
            built.clear()
            for a, b in g.edges:
                form(g, (b, a))
            assert built == []


def test_clique_verifiers_share_one_listing_per_order(monkeypatch):
    """gt-path, gt-star and delta at s = 2, 3, 4 ask for orders 1 to 5; each
    (graph, order) listing is built once."""
    orders = []
    real = stats._cliques
    monkeypatch.setattr(stats, "_cliques", lambda g, s: orders.append(s) or real(g, s))
    g = join_graphs(complete_graph(2), cycle_graph(5))
    cfg = CorpusConfig(("gt-path", "gt-star", "delta"), s_values=(2, 3, 4))
    reports = reports_for_graph(g, cfg)
    assert [r.status for r in reports] == ["ok"] * 9
    assert sorted(orders) == [1, 2, 3, 4, 5]


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


def test_clique_stats_digest_n7():
    """Every class with n <= 7 at every clique order s = 1..n, pinned per
    clique: the listing, p(S), and s(K) with free and with clique centers."""
    h = hashlib.sha256()
    for g in frozen_corpus(7):
        for s in range(1, g.n + 1):
            rows = [enumerate_cliques(g, s), clique_path_profile(g, s),
                    clique_star_profile(g, s),
                    clique_star_profile(g, s, require_center_in_clique=True)]
            h.update(f"{write_graph6(g)} {s} {rows!r}\n".encode("ascii"))
    assert h.hexdigest() == (
        "fabc2762202fd6f594c1ea744a4c033e5cf7e56fa467f513613e7b820adc0119"
    )


def test_path_stats_digest_n9_to_n12():
    """Seeded G(n, p) graphs with 9 <= n <= 12, pinned per vertex and per
    edge: ell(v), p(e), c(e) and, on the connected ones, p_v(e) at root 0.
    The path tables hold 2^n bits per source, wider than any n <= 8 run."""
    rng = random.Random(53)
    h = hashlib.sha256()
    for n in range(9, 13):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8):
            g = random_graph(rng, n, p)
            rows = [[longest_vpath(g, v) for v in range(n)], path_profile(g),
                    cycle_profile(g)]
            if is_connected(g):
                rows.append(vpath_profile(g, 0))
            h.update(f"{write_graph6(g)} {rows!r}\n".encode("ascii"))
    assert h.hexdigest() == (
        "ebee45d60b40649bf80e850a2524274549a6afbc3275bcd9c8568f9074535eb8"
    )


def seeded_n8_to_n12() -> list[Graph]:
    """40 seeded G(8, p) graphs and the graphs of
    test_path_stats_digest_n9_to_n12."""
    rng8 = random.Random(8)
    graphs = [random_graph(rng8, 8, p)
              for p in (0.3, 0.45, 0.6, 0.75) for _ in range(10)]
    rng = random.Random(53)
    return graphs + [random_graph(rng, n, p)
                     for n in range(9, 13) for p in (0.2, 0.35, 0.5, 0.65, 0.8)]


def test_vpath_profile_digest_every_root_n8_to_n12():
    """p_v(e) at every root of the connected ones among seeded_n8_to_n12(),
    where test_path_stats_digest_n9_to_n12 pins only root 0 above n = 7."""
    h = hashlib.sha256()
    for g in seeded_n8_to_n12():
        if is_connected(g):
            rows = [vpath_profile(g, v) for v in range(g.n)]
            h.update(f"{write_graph6(g)} {rows!r}\n".encode("ascii"))
    assert h.hexdigest() == (
        "cfd8939ce2f1d0e122979b204e7179085bed624e723e64f1f943833617ee1ef8"
    )


def test_size_reads_agree_with_the_joins():
    """ell(v) and the longest path are size reads of the path tables, and
    p_v(e) and p(e) joins over their level sets.  A longest path from v has
    an edge when v has a neighbour, and a longest path has one when G does,
    so the largest join must equal the size read."""
    for g in (*frozen_corpus(7), *seeded_n8_to_n12()):
        if not g.edges:
            continue
        assert longest_path(g) == max(path_profile(g).values.values())
        if is_connected(g):
            for v in range(g.n):
                assert longest_vpath(g, v) == max(vpath_profile(g, v).values.values())


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
    """With mu >= 3, the endpoints of an F-edge (an edge in no maximum
    matching) are saturated in every maximum matching and their partners
    are nonadjacent."""
    checked = 0
    for n in (6, 7):
        for g in enumerate_graphs(n):
            mu = matching_number(g)
            if mu < 3:
                continue
            fset = {e for e in g.edges if max_matching_containing_edge(g, e) == mu - 1}
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
    """Under a uniform weighting c, the heaviest path through e weighs
    c p(e) and the heaviest cycle c times the circumference.  The public
    weighted statistics read those from the path engine, so the subset DP
    that serves every other weighting is run here directly: on unit, 3/2
    and all-zero weights, over every class with n <= 7 and a dense n = 12
    graph (38 edges) whose maximal paths are too many to list."""
    for g in [*frozen_corpus(7), parse_graph6("KH|^LmDN@dn]")]:
        pp = path_profile(g).values
        circumference = max(cycle_profile(g).values.values(), default=2)
        for c in (Fraction(1), Fraction(3, 2), Fraction(0)):
            wg = WeightedGraph(g, {e: c for e in g.edges})
            expected = {e: c * pp[e] for e in g.edges}
            assert _heaviest_through_edges(wg) == expected
            assert weighted_path_profile(wg).values == expected
            cycle = c * circumference if circumference > 2 else None
            assert _heaviest_cycle(wg) == cycle
            assert max_weight_cycle(wg) == cycle
        assert max_weight_path(WeightedGraph.unit(g)) == longest_path(g)


def test_uniform_weightings_run_no_subset_dp(monkeypatch):
    """Equal weights are read from the path engine; any other weighting
    runs the subset DP."""
    runs = []
    real = stats._heaviest

    def counted(nbrs, roots):
        runs.append(len(nbrs))
        return real(nbrs, roots)

    monkeypatch.setattr(stats, "_heaviest", counted)
    g = complete_graph(5)
    for c in (1, Fraction(3, 2), 0):
        wg = WeightedGraph(g, {e: c for e in g.edges})
        assert set(weighted_path_profile(wg).values.values()) == {4 * c}
        assert max_weight_cycle(wg) == 5 * c
    assert runs == []
    mixed = WeightedGraph(g, {e: 2 if e == (0, 1) else 1 for e in g.edges})
    assert max_weight_path(mixed) == 5 and max_weight_cycle(mixed) == 6
    assert runs[0] == 5  # the all-roots profile, then one run per cycle root


def test_weighted_path_ratios_give_zero_on_zero_weight_edges():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    wg = WeightedGraph(tri, {(0, 1): 1, (0, 2): 2, (1, 2): 0})
    assert weighted_path_ratios(wg) == {
        (0, 1): Fraction(1, 3), (0, 2): Fraction(2, 3), (1, 2): 0,
    }
    # an all-zero weighting has w(p(e)) = 0 on every edge
    zero = WeightedGraph(tri, {e: 0 for e in tri.edges})
    assert weighted_path_ratios(zero) == {e: 0 for e in tri.edges}


def test_equal_weightings_of_one_graph_share_one_profile(monkeypatch):
    """A TabledGraph keeps one heaviest-path profile per weighting, equal
    weightings included, and the driver puts a file weighting on it; a
    plain Graph keeps none."""
    roots = []
    real = stats._heaviest
    monkeypatch.setattr(stats, "_heaviest", lambda nbrs, r: roots.append(r) or real(nbrs, r))
    g = TabledGraph(complete_graph(4))
    a = seeded_weights(g, 11)
    b = WeightedGraph(g, dict(a.weights))
    assert a == b and a is not b
    assert weighted_path_profile(a) is weighted_path_profile(b)
    assert roots == [range(4)]
    plain = seeded_weights(complete_graph(4), 11)
    assert weighted_path_profile(plain) == weighted_path_profile(a)
    assert weighted_path_profile(plain) is not weighted_path_profile(plain)
    assert roots == [range(4)] * 4
    cfg = CorpusConfig(("weighted-mt", "fmr"), weights=plain)
    assert [r.weights for r in reports_for_graph(complete_graph(4), cfg)] == ["file"] * 2
    assert roots == [range(4)] * 5


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
