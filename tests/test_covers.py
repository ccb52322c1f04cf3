"""Path double covers: validation, construction, certified bound chain."""

import hashlib
import itertools
import random
import signal
import zlib
from fractions import Fraction

import pytest

from conftest import frozen_corpus, path_edges, random_weights
from locturan.covers import (
    CoverVerdict,
    PathDoubleCover,
    bound_from_cover,
    find_spdc,
    validate_pdc,
    write_cover,
)
from locturan.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    parse_graph6,
    path_graph,
    seeded_weights,
    star_graph,
    write_graph6,
)
from locturan.stats import weighted_path_profile, weighted_path_ratios


def test_validate_accepts_hand_cover():
    k3 = complete_graph(3)
    cover = PathDoubleCover(((0, 1, 2), (1, 0, 2), (0, 2, 1)))
    verdict = validate_pdc(k3, cover)
    assert verdict.valid
    assert set(verdict.edge_counts.values()) == {2}
    assert len(cover) == 3


def test_validate_rejects_bad_paths():
    k3 = complete_graph(3)
    # repeated vertex
    v = validate_pdc(k3, PathDoubleCover(((0, 1, 0),)))
    assert not v.valid and 0 in v.bad_paths
    # non-edge step
    p4 = path_graph(4)
    v = validate_pdc(p4, PathDoubleCover(((0, 2),)))
    assert not v.valid
    # vertex out of range
    v = validate_pdc(k3, PathDoubleCover(((0, 5),)))
    assert not v.valid


def test_validate_flags_coverage_errors():
    k3 = complete_graph(3)
    v = validate_pdc(k3, PathDoubleCover(((0, 1, 2),)))
    assert not v.valid
    assert v.bad_edges
    # triple coverage also flagged
    v = validate_pdc(
        k3, PathDoubleCover(((0, 1), (0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))
    )
    assert not v.valid
    assert (0, 1) in v.bad_edges


def test_spdc_small_examples():
    for g in (complete_graph(3), path_graph(4), star_graph(5), cycle_graph(5)):
        cover = find_spdc(g)
        assert validate_pdc(g, cover).valid
        assert len(cover) <= g.n


def test_spdc_whole_corpus_n5():
    for g in frozen_corpus(5):
        cover = find_spdc(g)
        assert validate_pdc(g, cover).valid
        assert len(cover) <= g.n


# SHA-256 of one "graph6 path|path|..." line per class with n <= 7, in
# enumeration order.  Before the per-vertex demand bound and the failed-state
# memo went in, the unpruned search gave the same covers on every class.
SPDC_N7_DIGEST = "aa3bff04c38294c80f0d4968b78e1a8b70466b6f034de569e00305fbf871349f"

# the dense n = 7 classes on which the unpruned search took 0.6 s to 52 s
FORMER_RUNAWAYS = ("FJ~vw", "FNznw", "FJ~~w", "FNz~w", "FN~~w", "F]~~w", "F~~~w")


def test_spdc_every_class_through_n7_is_pinned():
    lines = []
    for g in frozen_corpus(7):
        cover = find_spdc(g)
        assert validate_pdc(g, cover).valid and len(cover) <= g.n, write_graph6(g)
        paths = "|".join("-".join(map(str, p)) for p in cover.paths)
        lines.append(f"{write_graph6(g)} {paths}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SPDC_N7_DIGEST


# The same digest over K8, K9, three dense n = 10 graphs on which an earlier
# search took seconds, and every 16th class with n = 8 in enumeration order.
SPDC_BEYOND_N7_DIGEST = "45012608a2b5ebf60e132da9fb1be92d30fe896c648788349a9457d2d41de6e7"
DENSE_N10 = ("IYujO}v~g", "IUl^n~lvg", "Ify}~WVmw")


def test_spdc_covers_beyond_n7_are_pinned():
    graphs = (complete_graph(8), complete_graph(9), *map(parse_graph6, DENSE_N10),
              *itertools.islice(enumerate_graphs(8), 0, None, 16))
    lines = []
    for g in graphs:
        cover = find_spdc(g)
        assert validate_pdc(g, cover).valid and len(cover) <= g.n, write_graph6(g)
        paths = "|".join("-".join(map(str, p)) for p in cover.paths)
        lines.append(f"{write_graph6(g)} {paths}\n")
    assert len(lines) == 5 + 772
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SPDC_BEYOND_N7_DIGEST


class CpuBudgetExceeded(Exception):
    pass


def test_spdc_former_runaways_within_cpu_budget():
    """All seven together get 2 s of process CPU, about 30 times what they
    need, so a search that runs away again fails here instead of hanging."""

    def expire(signum, frame):
        raise CpuBudgetExceeded("find_spdc exceeded its 2 s CPU budget")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, 2)
    try:
        for g6 in FORMER_RUNAWAYS:
            g = parse_graph6(g6)
            cover = find_spdc(g)
            assert validate_pdc(g, cover).valid, g6
            assert len(cover) <= g.n, g6
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def test_spdc_seeded_random_up_to_n10():
    for seed, n, p in ((3, 9, 0.3), (4, 10, 0.25), (5, 10, 0.4)):
        rng = random.Random(seed)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        cover = find_spdc(g)
        assert validate_pdc(g, cover).valid
        assert len(cover) <= n


def test_spdc_handles_disconnected_and_edgeless():
    g = Graph(4, [(0, 1), (2, 3)])
    cover = find_spdc(g)
    assert validate_pdc(g, cover).valid
    assert len(cover) <= 4
    assert find_spdc(Graph(3)).paths == ()


def test_bound_chain_unit_weights():
    g = complete_graph(4)
    cover = find_spdc(g)
    bound = bound_from_cover(WeightedGraph.unit(g), cover)
    assert sum(bound.path_sums, Fraction(0)) == 2 * bound.edge_sum
    assert all(ps <= 1 for ps in bound.path_sums)
    assert bound.certified_bound == Fraction(bound.path_count, 2)
    assert bound.edge_sum <= bound.certified_bound <= bound.vertex_bound


def test_bound_chain_random_weights():
    rng = random.Random(7)
    for g in frozen_corpus(5, connected_only=True):
        cover = find_spdc(g)
        wg = random_weights(rng, g)
        bound = bound_from_cover(wg, cover)
        assert sum(bound.path_sums, Fraction(0)) == 2 * bound.edge_sum
        assert all(ps <= 1 for ps in bound.path_sums)
        # the certified chain dominates the weighted edge sum
        wp = weighted_path_profile(wg).values
        direct = sum(
            (wg.weights[e] / wp[e] for e in g.edges if wg.weights[e]),
            Fraction(0),
        )
        assert direct == bound.edge_sum
        assert bound.edge_sum <= bound.certified_bound <= bound.vertex_bound


def test_integer_cover_chain_matches_fraction_definitions():
    """bound_from_cover sums integer numerators over one denominator; on
    every class with n <= 6 its sums equal the Fraction sums of
    w(e)/w(p(e)) taken edge by edge and path by path."""
    for g in frozen_corpus(6):
        cover = find_spdc(g)
        for wg in (WeightedGraph.unit(g), seeded_weights(g, zlib.crc32(write_graph6(g).encode()))):
            wp = weighted_path_profile(wg).values
            term = {e: w / wp[e] if w else Fraction(0) for e, w in wg.weights.items()}
            assert weighted_path_ratios(wg) == term
            bound = bound_from_cover(wg, cover)
            assert bound.edge_sum == sum(weighted_path_ratios(wg).values(), Fraction(0))
            assert bound.path_sums == tuple(
                sum((term[e] for e in path_edges(seq)), Fraction(0)) for seq in cover.paths
            )


def test_corrupt_ratio_trips_the_per_path_cap(monkeypatch):
    import locturan.covers as covers

    g = complete_graph(4)
    cover = find_spdc(g)
    real = covers.weighted_ratio_terms

    def inflated(wg):
        den, x = real(wg)
        return den, x | {(0, 1): x[(0, 1)] + den}

    monkeypatch.setattr(covers, "weighted_ratio_terms", inflated)
    with pytest.raises(RuntimeError, match="per-path sum exceeds 1"):
        bound_from_cover(WeightedGraph.unit(g), cover)


def test_single_cover_trips_the_doubling_identity(monkeypatch):
    """A cover that gets past a stubbed validation but covers two of the
    triangle's edges once breaks the integer doubling identity."""
    import locturan.covers as covers

    g = complete_graph(3)
    monkeypatch.setattr(covers, "validate_pdc", lambda g, cover: CoverVerdict(True, {}, (), ()))
    with pytest.raises(RuntimeError, match="doubling identity failed"):
        bound_from_cover(WeightedGraph.unit(g), PathDoubleCover(((0, 1, 2), (0, 2))))


def test_bound_rejects_invalid_cover():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        bound_from_cover(WeightedGraph.unit(g), PathDoubleCover(((0, 1, 2),)))


def test_cover_round_trip_and_comments():
    cover = PathDoubleCover(((0, 1, 2), (2, 0), (1, 0)))
    assert write_cover(cover) == "0 1 2\n2 0\n1 0\n"
    assert write_cover(PathDoubleCover(())) == "\n"
