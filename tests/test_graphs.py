"""Graph type, graph6 codec, canonical forms, enumeration, connectivity."""

import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_canonical_key,
    brute_iso_classes,
    find_isomorphism,
    frozen_corpus,
    independent_graph6_decode,
    iter_labeled_graphs,
    labeled_key,
    naive_components,
    naive_connected,
    naive_induced,
    random_graph,
    relabel,
)
from locturan.graphs import (
    Graph,
    WeightedGraph,
    canonical_form,
    complete_graph,
    connected_components,
    cut_edges_and_2ec_pieces,
    cut_vertices,
    cycle_graph,
    disjoint_union,
    enumerate_graphs,
    induced_subgraph,
    is_connected,
    is_two_edge_connected,
    join_graphs,
    parse_graph6,
    parse_weighted_graph,
    path_graph,
    permute_graph,
    seeded_weights,
    star_graph,
    write_graph6,
    write_weighted_graph,
)
from locturan import graphs


# ---------------------------------------------------------------------------
# Graph basics


def test_graph_normalizes_and_sorts_edges():
    g = Graph(4, [(3, 1), (0, 2), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.m == 2
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert g.neighbors(3) == (1,)
    assert g.degree(0) == 1


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(33, [])


def test_constructors():
    assert complete_graph(4).m == 6
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(4).m == 4
    assert star_graph(5).degree(0) == 4
    both = disjoint_union(complete_graph(3), complete_graph(2))
    assert both.n == 5 and both.m == 4
    j = join_graphs(complete_graph(2), Graph(4))
    assert j.n == 6 and j.m == 1 + 8


def test_permute_matches_direct_relabeling():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        assert permute_graph(g, perm) == relabel(g, perm)


def test_induced_subgraph_keeps_sorted_order():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub = induced_subgraph(g, [4, 2, 3])
    assert sub.n == 3
    assert sub.edges == ((0, 1), (1, 2))


# ---------------------------------------------------------------------------
# graph6 codec


def test_parse_known_strings():
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("Bw") == complete_graph(3)
    g = parse_graph6("D?{")
    assert g.n == 5
    assert write_graph6(g) == "D?{"


def test_write_known_strings():
    assert write_graph6(complete_graph(3)) == "Bw"
    assert write_graph6(Graph(1)) == "@"
    p4 = path_graph(4)
    assert parse_graph6(write_graph6(p4)) == p4


def test_header_and_bytes_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    assert parse_graph6(b"Bw") == complete_graph(3)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("B")  # truncated body
    with pytest.raises(ValueError):
        parse_graph6("Bww")  # trailing garbage
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(20))  # char below the graph6 alphabet
    with pytest.raises(ValueError):
        parse_graph6("~??")  # long-form length prefix: n > 62 unsupported
    # padding bits beyond the triangle must be zero: for n=2 the body byte
    # packs 1 data bit + 5 pad bits, so only '?' (0) and '_' (100000) are legal
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 1))


def test_round_trip_on_enumeration():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_codec_against_independent_decoder():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            line = write_graph6(g)
            dn, dedges = independent_graph6_decode(line)
            assert dn == g.n
            assert tuple(sorted(dedges)) == g.edges


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 28 - 1), st.integers(1, 8))
def test_round_trip_random_masks(mask, n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    g = Graph(n, edges)
    assert parse_graph6(write_graph6(g)) == g


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_invariant_under_all_permutations_n4():
    for g in enumerate_graphs(4):
        want = canonical_form(g)
        for perm in permutations(range(4)):
            assert canonical_form(relabel(g, list(perm))) == want


def test_canonical_distinguishes_path_and_star():
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(4))


def test_canonical_counts_all_labeled_graphs_n4():
    forms = {canonical_form(g) for g in iter_labeled_graphs(4)}
    assert len(forms) == 11


def test_canonical_form_is_a_graph6_record():
    g = parse_graph6("Ch")
    cf = canonical_form(g)
    assert isinstance(cf, bytes)
    back = parse_graph6(cf)
    assert canonical_form(back) == cf


def canonical_key(g: Graph) -> int:
    return labeled_key(parse_graph6(canonical_form(g)))


def test_canonical_key_matches_brute_force_through_n6():
    rng = random.Random(6)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            h = relabel(g, rng.sample(range(n), n))
            assert canonical_key(h) == brute_canonical_key(h) == labeled_key(g)


def _wagner() -> Graph:
    return cycle_graph(8).with_edges((i, i + 4) for i in range(4))


def _cube() -> Graph:
    return Graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3)
                     if not u >> b & 1])


def _k(*parts: int) -> Graph:
    """Complete multipartite graph with the given part sizes."""
    g = Graph(parts[0])
    for size in parts[1:]:
        g = join_graphs(g, Graph(size))
    return g


SYMMETRIC_7 = [complete_graph(7), Graph(7), cycle_graph(7), _k(3, 4)]
SYMMETRIC_8 = [complete_graph(8), cycle_graph(8), _cube(), _k(4, 4),
               disjoint_union(complete_graph(4), complete_graph(4)),
               _k(2, 2, 2, 2), _wagner()]


def test_canonical_key_on_twin_heavy_and_vertex_transitive_graphs():
    rng = random.Random(7)
    for g in SYMMETRIC_7:
        h = relabel(g, rng.sample(range(7), 7))
        assert canonical_key(h) == brute_canonical_key(h)
    for g in SYMMETRIC_8:
        forms = {canonical_form(relabel(g, rng.sample(range(8), 8)))
                 for _ in range(3)}
        assert len(forms) == 1
        assert find_isomorphism(g, parse_graph6(forms.pop())) is not None


N8_CANONICAL_DIGEST = (
    "c885038f539fff600dede594aa32bc259341940a26656df9110d87fcbe8d0c28")


def test_canonical_form_digest_n8():
    """Pins the canonical bytes at n = 8, where no brute force is cheap:
    seeded G(8, p) graphs, each under two relabelings, and SYMMETRIC_8."""
    rng = random.Random(8)
    lines = []
    for p in (0.3, 0.5, 0.7):
        for _ in range(100):
            g = random_graph(rng, 8, p)
            lines += [canonical_form(relabel(g, rng.sample(range(8), 8)))
                      for _ in range(2)]
    for g in SYMMETRIC_8:
        lines += [canonical_form(relabel(g, rng.sample(range(8), 8)))
                  for _ in range(2)]
    assert all(a == b for a, b in zip(lines[::2], lines[1::2]))
    digest = hashlib.sha256(b"\n".join(lines)).hexdigest()
    assert digest == N8_CANONICAL_DIGEST


def _children(parent: Graph):
    """Each one-column extension of parent, with its key."""
    n = parent.n + 1
    for col in range(1 << parent.n):
        child = Graph(n, parent.edges + tuple(
            (i, n - 1) for i in range(n - 1) if col >> (n - 2 - i) & 1))
        yield child, labeled_key(child)


def test_bounded_min_key_is_exact_on_every_candidate_through_n7():
    """_min_key(adj, k) is k iff k is the least key, and below k otherwise,
    on every candidate orderly generation tests through order 7: against
    brute force through order 5, against the unbounded search above."""
    for parent in frozen_corpus(7):
        if parent.n >= 7:
            continue
        for child, k in _children(parent):
            got = graphs._min_key(child.adj, k)
            least = (brute_canonical_key(child) if child.n <= 5
                     else graphs._min_key(child.adj))
            assert got == k if least == k else got < k


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_brute_force():
    for n in range(1, 5):
        assert sum(1 for _ in enumerate_graphs(n)) == brute_iso_classes(n)
        assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == (
            brute_iso_classes(n, connected_only=True)
        )


def test_enumeration_counts_frozen():
    totals = [sum(1 for _ in enumerate_graphs(n)) for n in range(1, 8)]
    assert totals == [1, 2, 4, 11, 34, 156, 1044]
    connected = [
        sum(1 for _ in enumerate_graphs(n, connected_only=True))
        for n in range(1, 8)
    ]
    assert connected == [1, 1, 2, 6, 21, 112, 853]


@pytest.mark.n8
def test_enumeration_count_n8():
    """A000088(8): 12,346 classes of graphs on 8 vertices."""
    assert sum(1 for _ in enumerate_graphs(8)) == 12346


def test_enumeration_count_n5_connected_vs_oracle():
    assert brute_iso_classes(5, connected_only=True) == 21


def test_enumeration_is_canonical_and_deterministic():
    first = [write_graph6(g) for g in enumerate_graphs(5)]
    second = [write_graph6(g) for g in enumerate_graphs(5)]
    assert first == second
    for g in enumerate_graphs(5):
        assert canonical_form(g).decode("ascii") == write_graph6(g)
    assert len(set(first)) == len(first)


def test_enumeration_keys_strictly_increase():
    keys = [labeled_key(g) for g in enumerate_graphs(7)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_first_class_of_order_8_streams_before_any_order_is_complete(monkeypatch):
    calls = []
    min_key = graphs._min_key

    def counting_min_key(adj, bound=None):
        calls.append(len(adj))
        return min_key(adj, bound)

    monkeypatch.setattr(graphs, "_min_key", counting_min_key)
    assert write_graph6(next(enumerate_graphs(8))) == "G?????"
    # one test per order 2..8 of the empty graph's one new (empty) column
    assert calls == [2, 3, 4, 5, 6, 7, 8]


def test_enumeration_range_checks():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))


# ---------------------------------------------------------------------------
# connectivity structure


def test_components_examples():
    g = disjoint_union(complete_graph(3), Graph(1))
    assert sorted(len(c) for c in connected_components(g)) == [1, 3]
    assert len(connected_components(complete_graph(4))) == 1
    g = disjoint_union(complete_graph(3), complete_graph(3), Graph(2))
    assert sorted(len(c) for c in connected_components(g)) == [1, 1, 3, 3]


def test_is_connected_against_naive():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert is_connected(g) == naive_connected(g)


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_cut_vertices_examples():
    assert cut_vertices(bowtie()) == [2]
    assert cut_vertices(complete_graph(5)) == []
    assert cut_vertices(path_graph(4)) == [1, 2]


def check_cut_vertices_by_removal(g: Graph) -> None:
    before = len(naive_components(g))
    expect = [
        v for v in range(g.n)
        if len(naive_components(naive_induced(g, [u for u in range(g.n) if u != v])))
        > before
    ]
    assert cut_vertices(g) == expect


def test_cut_vertices_against_removal_oracle():
    rng = random.Random(13)
    for _ in range(40):
        check_cut_vertices_by_removal(random_graph(rng, rng.randrange(2, 8), rng.random()))


def test_cut_vertices_removal_oracle_every_class_n7():
    for g in frozen_corpus(7):
        check_cut_vertices_by_removal(g)


def test_cut_edges_examples():
    cuts, pieces = cut_edges_and_2ec_pieces(path_graph(5))
    assert len(cuts) == 4
    assert sorted(len(p) for p in pieces) == [1, 1, 1, 1, 1]
    cuts, pieces = cut_edges_and_2ec_pieces(cycle_graph(5))
    assert cuts == []
    assert len(pieces) == 1
    two_tri = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    cuts, pieces = cut_edges_and_2ec_pieces(two_tri)
    assert cuts == [(2, 3)]
    assert sorted(len(p) for p in pieces) == [3, 3]


def check_cut_edges_by_removal(g: Graph) -> None:
    expect = []
    for e in g.edges:
        h = Graph(g.n, [d for d in g.edges if d != e])
        if not any(set(e) <= comp for comp in naive_components(h)):
            expect.append(e)
    cuts, pieces = cut_edges_and_2ec_pieces(g)
    assert cuts == expect
    assert is_two_edge_connected(g) == (len(naive_components(g)) <= 1 and not expect)
    # deleting exactly the cut edges yields exactly the pieces
    h = Graph(g.n, [d for d in g.edges if d not in cuts])
    assert sorted(sorted(c) for c in naive_components(h)) == sorted(pieces)
    for p in pieces:
        assert cut_edges_and_2ec_pieces(naive_induced(h, p))[0] == []


def test_cut_edges_against_removal_oracle():
    rng = random.Random(17)
    for _ in range(40):
        check_cut_edges_by_removal(random_graph(rng, rng.randrange(2, 8), rng.random()))


def test_cut_edges_removal_oracle_every_class_n7():
    for g in frozen_corpus(7):
        check_cut_edges_by_removal(g)


def test_two_edge_connected():
    assert is_two_edge_connected(cycle_graph(5))
    assert is_two_edge_connected(complete_graph(4))
    assert not is_two_edge_connected(path_graph(3))
    assert not is_two_edge_connected(disjoint_union(cycle_graph(3), cycle_graph(3)))


# ---------------------------------------------------------------------------
# weighted graphs and their file format


def test_weighted_graph_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): 1, (0, 2): 1})  # missing an edge
    with pytest.raises(ValueError):
        WeightedGraph(g, {(0, 1): 1, (0, 2): 1, (1, 2): -1})
    wg = WeightedGraph.unit(g)
    assert wg.total_weight == 3
    assert wg.weight(2, 1) == 1


def test_weighted_round_trip():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, 5)
        wg = seeded_weights(g, rng.randrange(10 ** 6))
        back = parse_weighted_graph(write_weighted_graph(wg))
        assert back == wg


def test_weighted_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_weighted_graph("nope\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_weighted_graph("3 1\n0 1 x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_weighted_graph("3 2\n0 1 1/2\n0 9 1\n")


def test_weighted_parse_splits_lines_only_at_newline():
    # a separator inside the header joins it with the edge line
    with pytest.raises(ValueError, match="^line 1: expected header"):
        parse_weighted_graph("2 1\x1c0 1 1\n")
    # a form feed ending a comment does not add a line before the bad edge
    with pytest.raises(ValueError, match="^line 3: "):
        parse_weighted_graph("# c\f\n3 1\n0 1 x\n")
    wg = parse_weighted_graph("2 1\r\n0 1 1/2\f\r\n")
    assert wg.weights == {(0, 1): Fraction(1, 2)}


def test_seeded_weights_reproducible():
    g = complete_graph(4)
    assert seeded_weights(g, 99) == seeded_weights(g, 99)
