"""Verifier behavior: worked examples, statuses, equality families, corpus driver.

Each bound gets at least one equality witness checked by hand, one strict
case, and its skip or error behavior.  The corpus driver tests cover
aggregation, family cross-checks, streaming order, and label formats.
"""

import zlib
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    frozen_corpus,
    naive_cliques_sharing_vertex,
    naive_disjoint_union_of_cliques,
    naive_join_clique_empty,
)
from locturan.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    join_graphs,
    path_graph,
    star_graph,
    write_graph6,
)
from locturan import verify
from locturan.rationals import format_rational
from locturan.stats import EdgeStatProfile, longest_path
from locturan.verify import (
    ALL_THEOREMS,
    CSV_FIELDS,
    CorpusConfig,
    VerificationReport,
    _bound,
    _recip_sum,
    is_counterexample,
    report_csv_row,
    reports_for_graph,
    verify_bbrs,
    verify_bondy_fan,
    verify_corpus,
    verify_delta_lemma,
    verify_eg_cycle,
    verify_eg_matching,
    verify_eg_path,
    verify_fmr,
    verify_gt_path,
    verify_gt_star,
    verify_local_bbrs,
    verify_local_matching,
    verify_mt_path,
    verify_ning_vpath,
    verify_star_prop,
    verify_weighted_mt,
    verify_zz_cycle,
    is_cliques_sharing_vertex,
    is_disjoint_union_of_cliques,
    is_join_clique_empty,
    weightings,
)


def bowtie() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def paw() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def diamond() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# ---------------------------------------------------------------------------
# average-degree path bound (longest path >= 2e/n)


def test_eg_path_complete_equality():
    rep = verify_eg_path(complete_graph(4))
    assert rep.status == "ok"
    assert rep.lhs == 3 and rep.rhs == 3
    assert rep.equality and rep.slack == 0


def test_eg_path_strict_on_path():
    rep = verify_eg_path(path_graph(4))
    assert (rep.lhs, rep.rhs) == (Fraction(3, 2), 3)
    assert not rep.equality


def test_eg_path_skips_empty_graph():
    rep = verify_eg_path(Graph(0))
    assert rep.status == "hypothesis-not-met"
    assert rep.reason == "empty graph"
    assert rep.slack is None and rep.equality is False


# ---------------------------------------------------------------------------
# average-degree cycle bound (circumference >= 2e/(n-1), 2-edge-connected)


def test_eg_cycle_complete_equality():
    rep = verify_eg_cycle(complete_graph(4))
    assert rep.lhs == 4 and rep.rhs == 4 and rep.equality


def test_eg_cycle_on_cycle():
    rep = verify_eg_cycle(cycle_graph(5))
    assert (rep.lhs, rep.rhs) == (Fraction(5, 2), 5)
    assert rep.status == "ok"


def test_eg_cycle_skips_non_2ec():
    for g in (path_graph(3), complete_graph(1), disjoint_union(cycle_graph(3), cycle_graph(3))):
        rep = verify_eg_cycle(g)
        assert rep.status == "hypothesis-not-met"
        assert rep.reason == "not 2-edge-connected with n >= 3"


# ---------------------------------------------------------------------------
# edge-count bound from matching number


def test_eg_matching_star_equality():
    rep = verify_eg_matching(star_graph(5))
    assert rep.lhs == 4 and rep.rhs == 4 and rep.equality


def test_eg_matching_cycle_strict():
    rep = verify_eg_matching(cycle_graph(5))
    assert (rep.lhs, rep.rhs) == (5, 10)


def test_eg_matching_skips_small_n():
    rep = verify_eg_matching(complete_graph(4))
    assert rep.status == "hypothesis-not-met"
    assert rep.reason == "needs n >= 2*mu+1 = 5"


# ---------------------------------------------------------------------------
# edge count vs rooted-path sum, equality iff disjoint union of cliques


def test_bbrs_clique_union_equality():
    rep = verify_bbrs(disjoint_union(complete_graph(3), complete_graph(2)))
    assert rep.lhs == 4 and rep.rhs == 4
    assert rep.equality and rep.family_match is True


def test_bbrs_path_strict_no_family():
    rep = verify_bbrs(path_graph(4))
    assert (rep.lhs, rep.rhs) == (3, 5)
    assert not rep.equality and rep.family_match is False


def test_bbrs_edgeless_counts_as_clique_union():
    rep = verify_bbrs(Graph(5))
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.equality and rep.family_match is True


# ---------------------------------------------------------------------------
# localized path bound: sum of 1/p(e) <= n/2


def test_mt_complete_equality():
    for n in range(2, 7):
        rep = verify_mt_path(complete_graph(n))
        assert rep.equality, n
        assert rep.rhs == Fraction(n, 2)


def test_mt_path_strict():
    rep = verify_mt_path(path_graph(3))
    assert (rep.lhs, rep.rhs) == (1, Fraction(3, 2))


def test_mt_skips_empty():
    assert verify_mt_path(Graph(0)).reason == "empty graph"


# ---------------------------------------------------------------------------
# localized cycle bound: sum of 1/c(e) <= (n-1)/2, cut edges at 1/2


def test_zz_tree_equality():
    for tree in (path_graph(4), star_graph(6), path_graph(2)):
        rep = verify_zz_cycle(tree)
        assert rep.lhs == Fraction(tree.n - 1, 2)
        assert rep.equality


def test_zz_complete_equality():
    rep = verify_zz_cycle(complete_graph(4))
    assert rep.lhs == Fraction(3, 2) and rep.equality


def test_zz_cycle_strict():
    rep = verify_zz_cycle(cycle_graph(6))
    assert (rep.lhs, rep.rhs) == (1, Fraction(5, 2))


def test_zz_skips_empty():
    assert verify_zz_cycle(Graph(0)).status == "hypothesis-not-met"


# ---------------------------------------------------------------------------
# rooted localized path bound at a vertex


def test_local_bbrs_triangle_equality():
    rep = verify_local_bbrs(complete_graph(3), 0)
    assert rep.lhs == 1 and rep.rhs == 1
    assert rep.equality and rep.family_match is True
    assert rep.witness == {"chain_lower_bound": "1"}


def test_local_bbrs_glued_cliques_equality_at_center_only():
    rep = verify_local_bbrs(bowtie(), 0)
    assert rep.lhs == 2 and rep.rhs == 2
    assert rep.equality and rep.family_match is True
    rep = verify_local_bbrs(bowtie(), 1)
    assert rep.lhs == Fraction(31, 24)
    assert not rep.equality and rep.family_match is False


def test_local_bbrs_path_end_strict():
    rep = verify_local_bbrs(path_graph(3), 0)
    assert (rep.lhs, rep.rhs) == (Fraction(3, 4), 1)
    assert rep.witness["chain_lower_bound"] == "3/4"


def test_local_bbrs_single_edge_equality():
    rep = verify_local_bbrs(path_graph(2), 0)
    assert rep.lhs == Fraction(1, 2) and rep.equality
    assert rep.family_match is True


def test_local_bbrs_root_validation():
    with pytest.raises(ValueError):
        verify_local_bbrs(complete_graph(3), 3)
    with pytest.raises(ValueError):
        verify_local_bbrs(complete_graph(3), -1)


def test_local_bbrs_skips_disconnected():
    rep = verify_local_bbrs(disjoint_union(path_graph(2), path_graph(2)), 0)
    assert rep.status == "hypothesis-not-met"
    assert rep.reason == "disconnected"
    assert rep.root == 0


# ---------------------------------------------------------------------------
# localized matching bound: sum of 1/mu(e) <= case bound


def test_local_matching_small_complete_cases():
    rep = verify_local_matching(complete_graph(3))
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality
    assert rep.family_match is True


def test_local_matching_triangle_plus_isolated():
    rep = verify_local_matching(disjoint_union(complete_graph(3), Graph(1)))
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality
    assert rep.family_match is True


def test_local_matching_star_equality():
    rep = verify_local_matching(star_graph(5))
    assert rep.lhs == 4 and rep.rhs == 4 and rep.equality
    assert rep.family_match is True


def test_local_matching_join_family_equality():
    g = join_graphs(complete_graph(2), Graph(4))
    rep = verify_local_matching(g)
    assert rep.lhs == 5 and rep.rhs == 5 and rep.equality
    assert rep.family_match is True
    assert rep.witness["family_strict_boundary_reading"] is True


def test_local_matching_clique_below_boundary_readings_diverge():
    rep = verify_local_matching(complete_graph(5))
    (named,) = reports_for_graph(complete_graph(5), CorpusConfig(("local-matching",)))
    assert named.graph6 == "D~{"
    assert rep.lhs == 5 and rep.rhs == 5 and rep.equality
    assert rep.family_match is True
    assert rep.witness["family_strict_boundary_reading"] is False


def test_local_matching_perfect_matching_case_complete():
    rep = verify_local_matching(complete_graph(4))
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality
    assert rep.family_match is True
    assert "perfect_matching_family" not in rep.witness


def test_local_matching_perfect_matching_case_paw():
    rep = verify_local_matching(paw())
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality
    assert rep.family_match is True
    assert rep.witness["perfect_matching_family"] == "paw"


def test_local_matching_perfect_matching_case_diamond():
    rep = verify_local_matching(diamond())
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality
    assert rep.family_match is True
    assert rep.witness["perfect_matching_family"] == "diamond"


def test_local_matching_perfect_matching_case_strict():
    rep = verify_local_matching(cycle_graph(6))
    assert (rep.lhs, rep.rhs) == (2, 5)
    assert not rep.equality and rep.family_match is False


def test_local_matching_skips_edgeless():
    rep = verify_local_matching(Graph(3))
    assert rep.status == "hypothesis-not-met"
    assert rep.reason == "no edges"


# ---------------------------------------------------------------------------
# weighted localized path bound and weighted path/cycle averages


def test_weighted_mt_unit_matches_unweighted():
    for g in (complete_graph(4), path_graph(5), bowtie()):
        plain = verify_mt_path(g)
        weighted = verify_weighted_mt(WeightedGraph.unit(g))
        assert (weighted.lhs, weighted.rhs) == (plain.lhs, plain.rhs)
        assert weighted.status == plain.status
        (named,) = reports_for_graph(g, CorpusConfig(("weighted-mt",)))
        assert named.weights == "unit"


def test_weighted_mt_zero_weight_edges_drop_out():
    wg = WeightedGraph(complete_graph(3), {(0, 1): 1, (1, 2): 1, (0, 2): 0})
    rep = verify_weighted_mt(wg)
    assert (rep.lhs, rep.rhs) == (1, Fraction(3, 2))
    (named,) = reports_for_graph(wg.graph, CorpusConfig(("weighted-mt",), weights=wg))
    assert named.weights == "file"


def test_weighted_mt_skips_empty():
    rep = verify_weighted_mt(WeightedGraph.unit(Graph(0)))
    assert rep.status == "hypothesis-not-met"


def test_fmr_weighted_cycle_example():
    wg = WeightedGraph(cycle_graph(4), {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 4})
    rep = verify_fmr(wg)
    assert (rep.lhs, rep.rhs) == (5, 9)


def test_fmr_unit_matches_eg_path():
    for g in (complete_graph(5), path_graph(4), star_graph(4)):
        plain = verify_eg_path(g)
        weighted = verify_fmr(WeightedGraph.unit(g))
        assert (weighted.lhs, weighted.rhs) == (plain.lhs, plain.rhs)


def test_bondy_fan_weighted_cycle_example():
    wg = WeightedGraph(cycle_graph(4), {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 4})
    rep = verify_bondy_fan(wg)
    assert (rep.lhs, rep.rhs) == (Fraction(20, 3), 10)


def test_bondy_fan_skips_non_2ec():
    rep = verify_bondy_fan(WeightedGraph.unit(path_graph(3)))
    assert rep.status == "hypothesis-not-met"
    assert rep.reason == "not 2-edge-connected with n >= 3"


# ---------------------------------------------------------------------------
# rooted path floor from degree-adjusted average


def test_ning_vpath_complete_equality():
    rep = verify_ning_vpath(complete_graph(4), 2)
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality


def test_ning_vpath_star_center_equality():
    rep = verify_ning_vpath(star_graph(5), 0)
    assert rep.lhs == 1 and rep.rhs == 1 and rep.equality
    rep = verify_ning_vpath(star_graph(5), 1)
    assert (rep.lhs, rep.rhs) == (Fraction(7, 4), 2)


def test_ning_vpath_path_end():
    rep = verify_ning_vpath(path_graph(4), 0)
    assert (rep.lhs, rep.rhs) == (Fraction(5, 3), 3)


def test_ning_vpath_root_validation():
    with pytest.raises(ValueError):
        verify_ning_vpath(path_graph(3), 5)


def test_ning_vpath_skips():
    rep = verify_ning_vpath(disjoint_union(path_graph(2), Graph(1)), 1)
    assert rep.reason == "disconnected"
    rep = verify_ning_vpath(Graph(1), 0)
    assert rep.reason == "needs n >= 2"


# ---------------------------------------------------------------------------
# clique-localized path and star bounds


def test_gt_path_complete_equality():
    rep = verify_gt_path(complete_graph(4), 3)
    assert rep.lhs == 2 and rep.rhs == 2 and rep.equality
    assert rep.s == 3


def test_gt_path_no_cliques_gives_zero_sum():
    rep = verify_gt_path(cycle_graph(4), 3)
    assert (rep.lhs, rep.rhs) == (0, Fraction(4, 3))


def test_gt_path_order_two_matches_edge_bound():
    for g in (bowtie(), path_graph(5), complete_graph(4)):
        via_clique = verify_gt_path(g, 2)
        plain = verify_mt_path(g)
        assert (via_clique.lhs, via_clique.rhs) == (plain.lhs, plain.rhs)


def test_gt_star_complete_equality():
    rep = verify_gt_star(complete_graph(4), 3)
    assert rep.lhs == 2 and rep.rhs == 2 and rep.equality
    assert rep.witness["free_center_lhs"] == "2"
    assert rep.witness["readings_agree"] is True


def test_gt_star_order_two_matches_star_bound():
    for g in (bowtie(), path_graph(5), complete_graph(4), paw()):
        via_clique = verify_gt_star(g, 2)
        plain = verify_star_prop(g)
        assert (via_clique.lhs, via_clique.rhs) == (plain.lhs, plain.rhs)


def test_gt_star_free_center_reading_diverges_on_paw():
    """A triangle vertex of higher degree can center a larger star over an
    edge than either endpoint, so the free-center sum is strictly smaller."""
    rep = verify_gt_star(paw(), 2)
    assert rep.lhs == Fraction(3, 2)
    assert rep.witness["free_center_lhs"] == "4/3"
    assert rep.witness["readings_agree"] is False


def test_gt_validation():
    with pytest.raises(ValueError):
        verify_gt_path(complete_graph(4), 1)
    with pytest.raises(ValueError):
        verify_gt_star(complete_graph(4), 0)


# ---------------------------------------------------------------------------
# star bound: sum of 1/s(e) <= n/2


def test_star_complete_equality():
    for n in (2, 4, 6):
        rep = verify_star_prop(complete_graph(n))
        assert rep.equality and rep.rhs == Fraction(n, 2)


def test_star_on_star_graph():
    rep = verify_star_prop(star_graph(5))
    assert (rep.lhs, rep.rhs) == (1, Fraction(5, 2))


def test_star_skips_empty():
    assert verify_star_prop(Graph(0)).status == "hypothesis-not-met"


# ---------------------------------------------------------------------------
# max-degree floor from clique-count ratios, with path companion


def test_delta_complete_equality():
    rep = verify_delta_lemma(complete_graph(5), 2)
    assert rep.lhs == 4 and rep.rhs == 4 and rep.equality
    assert rep.witness == {"path_form_rhs": 4, "path_form_ok": True}
    rep = verify_delta_lemma(complete_graph(4), 3)
    assert rep.lhs == 3 and rep.rhs == 3 and rep.equality


def test_delta_star_strict():
    rep = verify_delta_lemma(star_graph(6), 2)
    assert (rep.lhs, rep.rhs) == (1, 5)
    assert rep.witness["path_form_ok"] is True


def test_delta_validation():
    with pytest.raises(ValueError):
        verify_delta_lemma(complete_graph(3), 0)
    rep = verify_delta_lemma(cycle_graph(4), 3)
    assert rep.status == "hypothesis-not-met" and rep.s == 3
    assert rep.reason == "no cliques of order 3"


# ---------------------------------------------------------------------------
# report serialization


def test_report_to_dict_renders_rationals():
    d = verify_eg_cycle(cycle_graph(5)).to_dict()
    assert d["lhs"] == "5/2" and d["rhs"] == "5" and d["slack"] == "5/2"
    assert d["equality"] is False and d["status"] == "ok"
    d = verify_mt_path(path_graph(3)).to_dict()
    assert d["lhs"] == "1"


def test_format_rational_renders_every_accepted_input():
    assert format_rational(7) == "7" and format_rational(-2) == "-2"
    assert format_rational(True) == "1" and format_rational(False) == "0"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-8, 4)) == "-2"


def test_bound_stores_fractions_whatever_the_verifier_passes():
    rep = _bound("mt", 1, 2)
    assert type(rep.lhs) is Fraction and type(rep.rhs) is Fraction
    row = dict(zip(CSV_FIELDS, report_csv_row(rep)))
    assert (row["status"], row["lhs"], row["rhs"], row["slack"]) == ("ok", "1", "2", "1")
    third = Fraction(1, 3)
    rep = _bound("mt", third, True)
    assert rep.lhs is third and type(rep.rhs) is Fraction
    assert rep.to_dict()["rhs"] == "1" and rep.to_dict()["slack"] == "2/3"


def test_report_to_dict_skipped_fields():
    d = verify_eg_cycle(path_graph(3)).to_dict()
    assert d["status"] == "hypothesis-not-met"
    assert d["lhs"] is None and d["slack"] is None and d["equality"] is None
    assert d["reason"] == "not 2-edge-connected with n >= 3"


def test_report_csv_row_shape():
    rep = verify_local_bbrs(complete_graph(3), 1)
    row = report_csv_row(rep)
    assert len(row) == len(CSV_FIELDS)
    assert row[CSV_FIELDS.index("theorem")] == "local-bbrs"
    assert row[CSV_FIELDS.index("root")] == "1"
    assert row[CSV_FIELDS.index("lhs")] == "1"
    skip = report_csv_row(verify_eg_cycle(path_graph(3)))
    assert skip[CSV_FIELDS.index("lhs")] == ""
    assert skip[CSV_FIELDS.index("reason")] == "not 2-edge-connected with n >= 3"


def test_is_counterexample_logic():
    good = verify_mt_path(complete_graph(3))
    assert not is_counterexample(good)
    bad = VerificationReport("mt", "Bw", "violated", Fraction(2), Fraction(1))
    assert is_counterexample(bad)
    mismatch = VerificationReport(
        "bbrs", "Bw", "ok", Fraction(1), Fraction(1), family_match=False
    )
    assert is_counterexample(mismatch)
    harmless = VerificationReport(
        "mt", "Bw", "ok", Fraction(1), Fraction(1), family_match=None
    )
    assert not is_counterexample(harmless)


# ---------------------------------------------------------------------------
# relations between theorems


def test_rooted_reports_cross_check_the_unrooted_bounds_n7():
    """On each connected class with 2 <= n <= 7, exact relations between
    verifiers that read different engine queries:
    (i) bbrs.slack = (1/2) sum_v ning-vpath.slack_v, because
        sum_v (2m - d(v))/(n - 1) = 2m;
    (ii) mt.slack >= (1/(n - 1)) sum_v local-bbrs.slack_v, because
        p_v(e) <= p(e) and each edge has two ends;
    (iii) mt.lhs >= m / longest path, because p(e) <= the longest path."""
    cfg = CorpusConfig(("bbrs", "mt", "local-bbrs", "ning-vpath"))
    classes = tight = 0
    for g in frozen_corpus(7):
        if g.n < 2 or not is_connected(g):
            continue
        by = defaultdict(list)
        for rep in reports_for_graph(g, cfg):
            by[rep.theorem].append(rep)
        (bbrs,), (mt,) = by["bbrs"], by["mt"]
        assert bbrs.slack == sum(r.slack for r in by["ning-vpath"]) / 2, g
        rooted = sum(r.slack for r in by["local-bbrs"]) / (g.n - 1)
        assert mt.slack >= rooted, g
        assert mt.lhs >= Fraction(g.m, longest_path(g)), g
        classes += 1
        tight += mt.slack == rooted
    assert (classes, tight) == (995, 200)


# ---------------------------------------------------------------------------
# corpus driver


def test_corpus_all_theorems_clean_through_n5():
    result = verify_corpus(
        (
            "eg-path", "eg-cycle", "eg-matching", "bbrs", "mt", "zz",
            "local-bbrs", "local-matching", "weighted-mt", "gt-path",
            "gt-star", "fmr", "bondy-fan", "ning-vpath", "star", "delta",
        ),
        ns=range(1, 6),
    )
    assert result.ok and result.failures == []
    for summary in result.summaries.values():
        assert summary.violated == 0
        assert summary.checked == summary.ok + summary.hypothesis_not_met
    # one report per graph for the plain verifiers: 1+2+4+11+34 graphs
    assert result.summaries["mt"].checked == 52
    # rooted verifiers fan out over every vertex
    assert result.summaries["ning-vpath"].checked == sum(
        n * c for n, c in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34))
    )
    # clique verifiers fan out over s = 2, 3, 4
    assert result.summaries["gt-path"].checked == 3 * 52


def test_corpus_equality_census_contains_known_witnesses():
    result = verify_corpus(("mt", "bbrs"), ns=(4,))
    mt = result.summaries["mt"]
    assert {"graph6": write_graph6(complete_graph(4))} in mt.equalities
    assert mt.equality_count == len(mt.equalities)
    census = {e["graph6"] for e in result.summaries["bbrs"].equalities}
    from locturan.graphs import enumerate_graphs

    expected = {
        write_graph6(g) for g in enumerate_graphs(4) if is_disjoint_union_of_cliques(g)
    }
    assert census == expected


def test_corpus_family_checks_are_biconditional_through_n5():
    result = verify_corpus(("bbrs", "local-bbrs", "local-matching"), ns=range(1, 6))
    assert result.ok
    for thm in ("bbrs", "local-bbrs", "local-matching"):
        assert result.summaries[thm].family_mismatches == []


def test_family_matchers_against_subset_definitions_n6():
    for g in frozen_corpus(6):
        assert is_disjoint_union_of_cliques(g) == naive_disjoint_union_of_cliques(g)
        for v in range(g.n):
            assert is_cliques_sharing_vertex(g, v) == naive_cliques_sharing_vertex(g, v)
        for mu in range(g.n + 2):
            expect = naive_join_clique_empty(g, mu)
            if mu == g.n - 1 and g.m == g.n * (g.n - 1) // 2:
                # K_n is K_{n-1} joined to one vertex, but the matcher
                # counts all n vertices as hubs; local-matching calls it
                # only with n >= 2 mu + 1, where the split is unique
                assert expect and not is_join_clique_empty(g, mu)
                continue
            assert is_join_clique_empty(g, mu) == expect


def test_corpus_reading_divergence_recorded_for_clique_below_boundary():
    result = verify_corpus(("local-matching",), ns=(5,))
    assert result.ok
    divergences = result.summaries["local-matching"].reading_divergences
    assert {"graph6": "D~{", "statement_reading": True, "boundary_reading": False} in divergences


def test_corpus_min_slack_tracking():
    result = verify_corpus(("eg-path",), graphs=[path_graph(4), complete_graph(4)])
    summary = result.summaries["eg-path"]
    assert summary.min_slack == 0
    assert summary.min_slack_witness == {"graph6": write_graph6(complete_graph(4))}


def test_corpus_single_root_out_of_range_becomes_skip():
    result = verify_corpus(("local-bbrs",), ns=(2, 3), roots=2)
    summary = result.summaries["local-bbrs"]
    assert result.ok
    assert summary.hypothesis_not_met >= 2  # both n=2 graphs lack vertex 2
    reports = reports_for_graph(path_graph(2), CorpusConfig(("local-bbrs",), roots=2))
    assert [(r.status, r.root) for r in reports] == [("hypothesis-not-met", 2)]


def test_corpus_rejects_negative_root():
    for roots in (-1, "-3"):
        with pytest.raises(ValueError, match="root must be 'all' or >= 0"):
            CorpusConfig(("local-bbrs",), roots=roots)
        with pytest.raises(ValueError, match="root must be 'all' or >= 0"):
            verify_corpus(("local-bbrs",), ns=(3,), roots=roots)


def test_corpus_rejects_trials_below_one():
    """Zero trials would give every weighted theorem nothing to check."""
    for trials in (0, -2):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            CorpusConfig(("weighted-mt", "fmr"), weights="random", seed=1, trials=trials)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_corpus(["weighted-mt", "fmr"], [3], weights="random", seed=1,
                          trials=trials)


def test_corpus_delta_skips_when_no_clique_of_that_order():
    cfg = CorpusConfig(theorems=("delta",), s_values=(3,))
    reports = reports_for_graph(path_graph(3), cfg)
    assert len(reports) == 1
    assert reports[0].status == "hypothesis-not-met"
    assert reports[0].reason == "no cliques of order 3"
    assert reports[0].s == 3


def test_corpus_report_order_is_config_order():
    cfg = CorpusConfig(theorems=("ning-vpath", "mt"), roots="all")
    reports = reports_for_graph(complete_graph(3), cfg)
    assert [(r.theorem, r.root) for r in reports] == [
        ("ning-vpath", 0), ("ning-vpath", 1), ("ning-vpath", 2), ("mt", None),
    ]


def test_self_check_failure_names_theorem_graph_and_weighting(monkeypatch):
    monkeypatch.setattr("locturan.verify.max_weight_cycle", lambda wg: None)
    cfg = CorpusConfig(theorems=("bondy-fan",), weights="random", seed=7)
    rng = zlib.crc32(b"7|Bw|0")
    with pytest.raises(RuntimeError) as info:
        reports_for_graph(complete_graph(3), cfg)
    assert str(info.value) == (
        f"bondy-fan on Bw, weights seed=7;trial=0;rng={rng}: "
        "2-edge-connected graph with no cycle; cycle search is corrupt"
    )


def test_local_bbrs_chain_check_fires_on_inflated_rooted_paths(monkeypatch):
    """p_v(e) one too large everywhere shrinks the rooted path sum below
    its chain bound (2m - d(v)) / (2 ell(v)), already at the triangle's
    root 0, where the two are equal."""
    real = verify.vpath_profile
    monkeypatch.setattr(
        verify, "vpath_profile",
        lambda g, v: EdgeStatProfile("p_v", {e: p + 1 for e, p in real(g, v).values.items()},
                                     root=v),
    )
    with pytest.raises(RuntimeError) as info:
        reports_for_graph(complete_graph(3), CorpusConfig(("local-bbrs",)))
    assert str(info.value) == (
        "local-bbrs on Bw, root 0: internal chain inequality failed for rooted path sum"
    )


def test_gt_star_reading_check_fires_when_the_readings_swap(monkeypatch):
    """On the paw the edge 01 has the degree-3 vertex 2 as a common
    neighbour, so its free-center star is larger than its clique-centered
    one; with the two readings swapped the check fires at s = 2."""
    real = verify.clique_star_profile
    monkeypatch.setattr(
        verify, "clique_star_profile",
        lambda g, s, require_center_in_clique=False: real(g, s, not require_center_in_clique),
    )
    with pytest.raises(RuntimeError) as info:
        reports_for_graph(paw(), CorpusConfig(("gt-star",)))
    assert str(info.value) == (
        f"gt-star on {write_graph6(paw())}, s 2: "
        "free-center star smaller than clique-centered star"
    )


def test_corpus_random_weight_labels_are_reproducible():
    g = complete_graph(3)
    reports = []
    verify_corpus(
        ("fmr",), graphs=[g], weights="random", seed=7, trials=2,
        on_report=reports.append,
    )
    labels = [r.weights for r in reports]
    expected = [
        f"seed=7;trial={t};rng={zlib.crc32(f'7|Bw|{t}'.encode())}" for t in (0, 1)
    ]
    assert labels == expected
    again = []
    verify_corpus(("fmr",), graphs=[g], weights="random", seed=7, trials=2,
                  on_report=again.append)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]


def test_corpus_random_weights_require_seed():
    with pytest.raises(ValueError):
        verify_corpus(("fmr",), graphs=[complete_graph(3)], weights="random")
    with pytest.raises(ValueError):
        verify_corpus(("fmr",), graphs=[complete_graph(3)], weights="nonsense")


def test_weightings_fixed_graph_is_labelled_file_and_must_match():
    wg = WeightedGraph.unit(complete_graph(3))
    assert weightings(complete_graph(3), wg, trials=3) == [(wg, "file")]
    with pytest.raises(ValueError):
        weightings(path_graph(3), wg)


def test_corpus_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        verify_corpus(("no-such-bound",), ns=(3,))


def test_corpus_config_rejects_unknown_theorem():
    with pytest.raises(ValueError, match="no-such-bound"):
        CorpusConfig(theorems=("no-such-bound",))


def test_corpus_rejects_repeated_theorem():
    with pytest.raises(ValueError, match="repeated"):
        CorpusConfig(theorems=("mt", "star", "mt"))
    with pytest.raises(ValueError):
        verify_corpus(("mt", "mt"), ns=(3,))


def test_corpus_config_rejects_repeated_clique_order():
    with pytest.raises(ValueError, match="repeated clique order"):
        CorpusConfig(theorems=("delta",), s_values=(2, 2))
    with pytest.raises(ValueError):
        verify_corpus(("delta",), ns=(3,), s_values=(3, 2, 3))


def all_roots_dp_runs(monkeypatch) -> list:
    """The order of the graph of each all-roots heaviest-path DP from now on."""
    import locturan.stats as stats

    runs = []
    real = stats._heaviest

    def counted(nbrs, roots):
        if isinstance(roots, range):
            runs.append(len(nbrs))
        return real(nbrs, roots)

    monkeypatch.setattr(stats, "_heaviest", counted)
    return runs


def test_weighted_verifiers_share_one_heaviest_path_run_per_weighting(monkeypatch):
    """weighted-mt and fmr read one kept profile per weighting, so the
    all-roots forward DP runs once per weighting, not once per theorem."""
    runs = all_roots_dp_runs(monkeypatch)
    cfg = CorpusConfig(("weighted-mt", "fmr"), weights="random", seed=5, trials=2)
    reports = reports_for_graph(complete_graph(5), cfg)
    assert [r.theorem for r in reports] == ["weighted-mt"] * 2 + ["fmr"] * 2
    assert runs == [5, 5]


def test_many_weightings_of_one_graph_run_the_dp_once_each(monkeypatch):
    """No cache size bounds the weightings of a graph: 65 random weightings
    of K6 run the all-roots DP 65 times, for weighted-mt and fmr together."""
    runs = all_roots_dp_runs(monkeypatch)
    cfg = CorpusConfig(("weighted-mt", "fmr"), weights="random", seed=5, trials=65)
    reports = reports_for_graph(complete_graph(6), cfg)
    assert [r.status for r in reports] == ["ok"] * 130
    assert runs == [6] * 65


def test_driver_encodes_graph6_and_derives_weightings_once(monkeypatch):
    """One graph6 for the reports (and one inside the crc32 seed of the
    weightings), and one seeded weighting per trial shared by every
    weighted theorem."""
    calls = {"write_graph6": 0, "seeded_weights": 0}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    counted("write_graph6")
    counted("seeded_weights")
    cfg = CorpusConfig(ALL_THEOREMS, weights="random", seed=7, trials=2)
    reports = reports_for_graph(complete_graph(4), cfg)
    assert calls["write_graph6"] <= 2
    assert calls["seeded_weights"] == 2
    assert {r.graph6 for r in reports} == {"C~"}
    weighted = [r for r in reports if r.theorem in ("weighted-mt", "fmr", "bondy-fan")]
    assert len(weighted) == 6 and all(r.weights.startswith("seed=7;") for r in weighted)


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=30))
@example([])
def test_recip_sum_matches_fraction_sum(xs):
    assert _recip_sum(xs) == sum((Fraction(1, x) for x in xs), Fraction(0))


def test_corpus_on_report_streams_every_report():
    from locturan.graphs import enumerate_graphs

    seen = []
    result = verify_corpus(("mt", "star"), ns=(3,), on_report=seen.append)
    cfg = CorpusConfig(theorems=("mt", "star"))
    expected = [rep for g in enumerate_graphs(3) for rep in reports_for_graph(g, cfg)]
    assert len(seen) == len(expected) == 8
    assert [r.to_dict() for r in seen] == [r.to_dict() for r in expected]
    assert result.summaries["mt"].checked == 4


def test_corpus_streams_reports_before_drawing_the_next_graph():
    """The first graph's reports are passed on before a second graph is
    drawn from the corpus, and the corpus is drawn exactly once."""
    from locturan.graphs import enumerate_graphs

    drawn = []

    def corpus():
        for g in enumerate_graphs(4):
            drawn.append(g)
            yield g

    pulled_at_report = []
    result = verify_corpus(
        ("mt",), graphs=corpus(), on_report=lambda rep: pulled_at_report.append(len(drawn))
    )
    assert pulled_at_report[0] == 1
    assert pulled_at_report == list(range(1, 12))
    assert result.summaries["mt"].checked == 11


def test_corpus_connected_only_restricts_pool():
    full = verify_corpus(("mt",), ns=(4,))
    conn = verify_corpus(("mt",), ns=(4,), connected_only=True)
    assert full.summaries["mt"].checked == 11
    assert conn.summaries["mt"].checked == 6
