"""Acceptance gate: eight exhaustive criteria, one test (and one report line) each.

Everything here is exact rational arithmetic with zero tolerance.  The
corpora are complete isomorph-free enumerations, so a pass is a proof for
the covered orders, not a sample.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from conftest import (
    DigestSink,
    frozen_corpus,
    independent_graph6_decode,
    naive_d_set,
    naive_factor_critical,
    naive_induced,
    random_weights,
    relabel,
)
from locturan.cli import main
from locturan.covers import bound_from_cover, find_spdc, validate_pdc
from locturan.graphs import (
    Graph,
    WeightedGraph,
    canonical_form,
    complete_graph,
    disjoint_union,
    enumerate_graphs,
    join_graphs,
    parse_graph6,
    star_graph,
    write_graph6,
)
from locturan.matching import gallai_edmonds, k_closure
from locturan.rationals import parse_rational
from locturan.stats import (
    cycle_profile,
    matching_number,
    matching_profile,
    path_profile,
    star_profile,
)
from locturan.graphs import induced_subgraph
from locturan.verify import (
    verify_bondy_fan,
    verify_corpus,
    verify_eg_cycle,
    verify_eg_path,
    verify_fmr,
    verify_gt_path,
    verify_gt_star,
    verify_local_matching,
    verify_mt_path,
    verify_star_prop,
    verify_weighted_mt,
    verify_zz_cycle,
)

UNWEIGHTED = (
    "eg-path", "eg-cycle", "eg-matching", "bbrs", "mt", "zz",
    "local-bbrs", "local-matching", "gt-path", "gt-star",
    "ning-vpath", "star", "delta",
)


def test_criterion_1_exhaustive_nonviolation_through_n7(proof_n7_json):
    """Every unweighted bound has slack >= 0 on every graph with n <= 7,
    every root for the rooted bounds, and clique orders 2, 3, 4, as the
    aggregate line of `verify --theorem all --n 1-7 --format json` says."""
    assert proof_n7_json.code == 0
    result = json.loads(proof_n7_json.last_line)["aggregate"]
    assert result["ok"], result["failures"][:5]
    for thm in UNWEIGHTED:
        summary = result["summaries"][thm]
        assert summary["violated"] == 0, thm
        assert summary["checked"] > 0, thm
        min_slack = summary["min_slack"]
        assert min_slack is None or parse_rational(min_slack) >= 0, thm


@pytest.mark.n8
def test_exhaustive_proof_through_n8(monkeypatch):
    """Every registered theorem on every class with n <= 8 (about 100 MB of
    JSON reports, pinned by digest): the n <= 7 gate of criterion 1 and the
    golden digests, one order further."""
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["verify", "--theorem", "all", "--n", "1-8", "--format", "json"]) == 0
    assert sink.hash.hexdigest() == (
        "2b322d39f0c87695a377e1c86857fddd004b9ede1f667ab4e86a7441dfad1d92"
    )


def test_criterion_2_equality_families_are_biconditional_through_n6():
    """On the n <= 6 corpus the zero-slack sets equal the structural family
    sets exactly (per root where rooted), and the divergence between the two
    boundary readings of the matching bound is surfaced, not hidden."""
    result = verify_corpus(
        ("bbrs", "local-bbrs", "local-matching"), ns=range(1, 7), roots="all"
    )
    assert result.ok, result.failures[:5]
    for thm in ("bbrs", "local-bbrs", "local-matching"):
        summary = result.summaries[thm]
        assert summary.family_mismatches == [], thm
        assert summary.equality_count > 0, thm
    divergences = result.summaries["local-matching"].reading_divergences
    assert {
        "graph6": "D~{", "statement_reading": True, "boundary_reading": False
    } in divergences


def test_criterion_3_known_equality_witnesses():
    """Complete graphs are tight for both localized sums (their edge profiles
    pin to n-1 path edges and n cycle edges), every tree is tight for the
    cycle sum via the cut-edge convention, and the printed equality rows of
    the matching bound all reproduce."""
    for n in range(2, 8):
        g = complete_graph(n)
        assert set(path_profile(g).values.values()) == {n - 1}
        assert verify_mt_path(g).equality, n
        if n >= 3:
            assert set(cycle_profile(g).values.values()) == {n}
        assert verify_zz_cycle(g).equality, n
    for n in range(2, 8):
        for g in enumerate_graphs(n, connected_only=True):
            if g.m == n - 1:
                assert set(cycle_profile(g).values.values()) == {2}
                assert verify_zz_cycle(g).equality
    rep = verify_local_matching(complete_graph(3))
    assert rep.equality and rep.family_match
    rep = verify_local_matching(disjoint_union(complete_graph(3), Graph(1)))
    assert rep.equality and rep.family_match
    for n in range(4, 8):
        rep = verify_local_matching(star_graph(n))
        assert rep.equality and rep.family_match, n
    for mu, n in ((2, 6), (2, 7), (2, 8), (3, 9)):
        rep = verify_local_matching(join_graphs(complete_graph(mu), Graph(n - mu)))
        assert rep.equality and rep.family_match, (mu, n)


def test_criterion_4_weighted_bounds_under_seeded_and_unit_weights():
    """100 seeded random weightings per connected graph with n <= 5 satisfy
    the weighted path-sum, heaviest-path, and heaviest-cycle bounds; unit
    weights reproduce the unweighted reports field for field."""
    theorems = ("weighted-mt", "fmr", "bondy-fan")
    result = verify_corpus(
        theorems, ns=range(1, 6), connected_only=True,
        weights="random", seed=20260823, trials=100,
    )
    assert result.ok, result.failures[:5]
    for thm in theorems:
        summary = result.summaries[thm]
        assert summary.violated == 0, thm
        assert summary.min_slack is None or summary.min_slack >= 0, thm
    for g in frozen_corpus(5, connected_only=True):
        unit = WeightedGraph.unit(g)
        pairs = (
            (verify_weighted_mt(unit), verify_mt_path(g)),
            (verify_fmr(unit), verify_eg_path(g)),
            (verify_bondy_fan(unit), verify_eg_cycle(g)),
        )
        for weighted, plain in pairs:
            assert weighted.status == plain.status
            assert weighted.lhs == plain.lhs
            assert weighted.rhs == plain.rhs
            assert weighted.equality == plain.equality


def test_criterion_5_small_path_double_covers_with_doubling_identity():
    """Every connected graph with n <= 7 gets a validator-passing path double
    cover of at most n paths, and summing edge contributions path by path
    doubles the per-edge sum exactly, under unit and seeded random weights."""
    rng = random.Random(95417)
    for g in frozen_corpus(7, connected_only=True):
        cover = find_spdc(g)
        verdict = validate_pdc(g, cover)
        assert verdict.valid, write_graph6(g)
        assert len(cover.paths) <= g.n, write_graph6(g)
        for wg in (WeightedGraph.unit(g), random_weights(rng, g)):
            bound = bound_from_cover(wg, cover)
            assert sum(bound.path_sums, Fraction(0)) == 2 * bound.edge_sum


def test_criterion_6_matching_structure_against_brute_force():
    """The canonical matching partition agrees with brute-force matching
    enumeration on all graphs with n <= 7 (missed-vertex set, factor-critical
    pieces, full partition), and the matching number survives the
    (2*mu + 1)-closure."""
    for g in frozen_corpus(7):
        dec = gallai_edmonds(g)
        assert list(dec.d) == naive_d_set(g), write_graph6(g)
        for comp in dec.d_components:
            assert naive_factor_critical(naive_induced(g, list(comp)))
        assert sorted(dec.d + dec.a + dec.c) == list(range(g.n))
        mu = matching_number(g)
        assert matching_number(k_closure(g, 2 * mu + 1).graph) == mu, write_graph6(g)
        assert g.n - 2 * mu == len(dec.d_components) - len(dec.a)


def test_criterion_7_reduction_identities_through_n6():
    """Clique order 2 collapses the clique-localized bounds onto the edge
    bounds exactly, the star statistic equals the endpoint degree maximum,
    and the matching statistic equals one plus the matching number of the
    graph with the edge's endpoints removed."""
    for g in frozen_corpus(6):
        via_clique = verify_gt_path(g, 2)
        plain = verify_mt_path(g)
        assert (via_clique.lhs, via_clique.rhs) == (plain.lhs, plain.rhs)
        assert via_clique.status == plain.status
        via_clique = verify_gt_star(g, 2)
        plain = verify_star_prop(g)
        assert (via_clique.lhs, via_clique.rhs) == (plain.lhs, plain.rhs)
        assert via_clique.status == plain.status
        for (u, v), size in star_profile(g).values.items():
            assert size == max(g.degree(u), g.degree(v))
        for (u, v), m in matching_profile(g).values.items():
            rest = [w for w in range(g.n) if w not in (u, v)]
            assert m == 1 + matching_number(induced_subgraph(g, rest))


def test_criterion_8_codec_round_trip_and_canonical_invariance():
    """Encoding then decoding is the identity on the whole n <= 7 corpus
    (cross-checked against an independent decoder), and the canonical form
    is unchanged by 50 seeded random relabelings per graph with n <= 6."""
    for g in frozen_corpus(7):
        line = write_graph6(g)
        back = parse_graph6(line)
        assert back == g
        assert write_graph6(back) == line
        dec_n, dec_edges = independent_graph6_decode(line)
        assert dec_n == g.n and sorted(dec_edges) == list(g.edges)
    rng = random.Random(48151623)
    for g in frozen_corpus(6):
        base = canonical_form(g)
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base
