"""Exhaustive verifiers for localized path, cycle, matching, and clique bounds.

Every verifier normalizes its inequality to LHS <= RHS and states both sides
as integer numerators over one positive integer denominator.  The report
keeps those integers: status, equality (slack = RHS - LHS == 0, zero
tolerance, no floats) and the minimum-slack fold compare them by
cross-multiplication, and a value is reduced by gcd only when it is
rendered; lhs, rhs and slack read back as Fractions.  Statuses: "ok"
(hypothesis held, bound checked), "violated" (negative slack; a
counterexample), "hypothesis-not-met" (bound not applicable, reason
recorded).

Bounds covered, with their equality families where one is known:

  eg-path         longest path >= 2e/n.
  eg-cycle        longest cycle >= 2e/(n-1) on 2-edge-connected graphs.
  eg-matching     e <= max{C(2mu+1,2), C(mu,2)+(n-mu)mu} when n >= 2mu+1.
  bbrs            e <= (1/2) sum_v ell(v); equality iff components complete.
  mt              sum_e 1/p(e) <= n/2.
  zz              sum_e 1/c(e) <= (n-1)/2, cut edges counting 1/2.
  local-bbrs      (1/2) sum_{e at v} 1/p_v(e) + sum_{e not at v} 1/p_v(e)
                  <= (n-1)/2 on connected graphs; equality iff the graph is
                  a union of cliques pairwise meeting exactly at v.
  local-matching  sum_e 1/mu(e) <= the case bound; equality families per
                  case (complete / K_3 / K_3+K_1 / star / K_{2mu+1}+bar /
                  K_mu join bar).
  weighted-mt     sum_e w(e)/w(p(e)) <= n/2, zero-weight edges contributing 0.
  fmr             heaviest path >= 2 w(G)/n.
  bondy-fan       heaviest cycle >= 2 w(G)/(n-1) on 2-edge-connected graphs.
  ning-vpath      ell(v) >= (2e - d(v))/(n-1) on connected graphs, n >= 2.
  gt-path         sum_{S in N_s} 1/(p(S)-s+2) <= n_{s-1}/s.
  gt-star         sum_{K in N_s} 1/(s(K)-s+2) <= n_{s-1}/s, the star
                  centered on a clique vertex so that s = 2 collapses onto
                  the star bound; the free-center sum (centers outside K
                  admitted) is recorded in the report witness.
  star            sum_e 1/s(e) <= n/2.
  delta           max degree >= (s+1) n_{s+1}/n_s + s - 1 when n_s >= 1.

The theorem registry (_REGISTRY) is the one place a theorem is declared:
its id, its kind (how the driver calls it) and its verifier.  A verifier
whose theorem has a known equality family (bbrs, local-bbrs,
local-matching) sets family_match on its reports; no other does.
verify_corpus runs any set of these over enumerated or supplied graphs,
under the weightings that `weightings` derives, tracks minimum slack with a
witness, censuses equality cases, cross-checks equality against
family_match in both directions wherever it is set, and hard-fails on any
negative slack or family mismatch.

A verifier computes only its bound.  The driver, reports_for_graph, sets
graph6 on every report and the weighting label on weighted ones; a verifier
called directly leaves graph6 as "".  Called on a plain Graph, a verifier
builds its tables and decides its hypothesis anew; the driver wraps g in one
stats.TabledGraph, so all its verifiers share one set of tables and one
answer to "connected?" and "2-edge-connected?".  Wrap g the same way before
calling verifiers directly.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import comb, lcm
from typing import Callable, Iterable, Sequence

from .graphs import (
    Graph,
    WeightedGraph,
    component_masks,
    enumerate_graphs,
    is_clique,
    is_connected,
    is_two_edge_connected,
    mask_vertices,
    seeded_weights,
    write_graph6,
)
from .rationals import format_ratio, format_rational
from .stats import (
    TabledGraph,
    clique_count,
    clique_path_profile,
    clique_star_profile,
    cycle_profile,
    kept,
    longest_path,
    longest_vpath,
    matching_number,
    matching_profile,
    max_weight_cycle,
    max_weight_path,
    path_profile,
    star_profile,
    vpath_profile,
    weighted_ratio_terms,
)

OK = "ok"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VIOLATED = "violated"


# The fields of a report, in the order of its repr and its equality test.
_REPORT_FIELDS = (
    "theorem", "graph6", "status", "lhs", "rhs", "root", "s", "weights",
    "family_match", "witness", "reason", "slack",
)


class VerificationReport:
    """One verifier's verdict on one graph.

    A checked bound lhs <= rhs is kept as two integer numerators over one
    positive denominator, so that status, equality and slack order are
    integer comparisons; lhs, rhs and slack read back as Fractions.  The
    constructor takes rational (int or Fraction) lhs and rhs."""

    def __init__(
        self,
        theorem: str,
        graph6: str,
        status: str,
        lhs: Fraction | int | None = None,
        rhs: Fraction | int | None = None,
        root: int | None = None,
        s: int | None = None,
        weights: str | None = None,
        family_match: bool | None = None,
        witness: dict | None = None,
        reason: str | None = None,
    ) -> None:
        self.theorem, self.graph6, self.status = theorem, graph6, status
        self.root, self.s, self.weights = root, s, weights
        self.family_match, self.witness, self.reason = family_match, witness, reason
        self._lnum = self._rnum = None
        self._den = 1
        if lhs is not None or rhs is not None:
            den = self._den = lcm(*(x.denominator for x in (lhs, rhs) if x is not None))
            if lhs is not None:
                self._lnum = lhs.numerator * (den // lhs.denominator)
            if rhs is not None:
                self._rnum = rhs.numerator * (den // rhs.denominator)

    @property
    def lhs(self) -> Fraction | None:
        return None if self._lnum is None else Fraction(self._lnum, self._den)

    @property
    def rhs(self) -> Fraction | None:
        return None if self._rnum is None else Fraction(self._rnum, self._den)

    @property
    def slack(self) -> Fraction | None:
        if self._lnum is None or self._rnum is None:
            return None
        return Fraction(self._rnum - self._lnum, self._den)

    @property
    def equality(self) -> bool:
        return (
            self.status != HYPOTHESIS_NOT_MET
            and self._lnum is not None
            and self._lnum == self._rnum
        )

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in _REPORT_FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(_REPORT_FIELDS, self._fields()))
        return f"VerificationReport({body})"

    def _rendered(self) -> tuple[str | None, str | None, str | None]:
        """lhs, rhs and slack as format_ratio renders them, None where unset."""
        ln, rn, den = self._lnum, self._rnum, self._den
        return (
            None if ln is None else format_ratio(ln, den),
            None if rn is None else format_ratio(rn, den),
            None if ln is None or rn is None else format_ratio(rn - ln, den),
        )

    def to_dict(self) -> dict:
        lhs, rhs, slack = self._rendered()
        out = {
            "theorem": self.theorem,
            "graph6": self.graph6,
            "status": self.status,
            "lhs": lhs,
            "rhs": rhs,
            "slack": slack,
            "equality": self.equality if self.status != HYPOTHESIS_NOT_MET else None,
            "root": self.root,
            "s": self.s,
            "weights": self.weights,
            "family_match": self.family_match,
            "reason": self.reason,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


CSV_FIELDS = (
    "theorem", "graph6", "status", "root", "s", "weights",
    "lhs", "rhs", "slack", "equality", "family_match", "reason",
)


def report_csv_row(rep: VerificationReport) -> list[str]:
    d = rep.to_dict()
    return ["" if d.get(k) is None else str(d.get(k)) for k in CSV_FIELDS]


def report_json(rep: VerificationReport) -> str:
    """json.dumps(rep.to_dict()), written from the report's integers; each
    field holds a value of its annotated type."""
    lhs, rhs, slack = ("null" if x is None else f'"{x}"' for x in rep._rendered())
    equality = "null" if rep.status == HYPOTHESIS_NOT_MET else "true" if rep.equality else "false"
    root, s, weights, family, reason = rep.root, rep.s, rep.weights, rep.family_match, rep.reason
    witness = "" if rep.witness is None else f', "witness": {json.dumps(rep.witness)}'
    return (
        f'{{"theorem": {_json_str(rep.theorem)}, "graph6": {_json_str(rep.graph6)}, '
        f'"status": {_json_str(rep.status)}, "lhs": {lhs}, "rhs": {rhs}, '
        f'"slack": {slack}, "equality": {equality}, '
        f'"root": {"null" if root is None else root}, '
        f'"s": {"null" if s is None else s}, '
        f'"weights": {"null" if weights is None else _json_str(weights)}, '
        f'"family_match": {"null" if family is None else "true" if family else "false"}, '
        f'"reason": {"null" if reason is None else _json_str(reason)}{witness}}}'
    )


def _bound(
    theorem: str, lhs: tuple[int, int], rhs: tuple[int, int], **kw
) -> VerificationReport:
    """The report on lhs <= rhs, each a (numerator, positive denominator)
    pair of ints, kept over one denominator."""
    (lnum, lden), (rnum, rden) = lhs, rhs
    if lden != rden:
        den = lcm(lden, rden)
        lnum, rnum, lden = lnum * (den // lden), rnum * (den // rden), den
    rep = VerificationReport(theorem, "", OK if lnum <= rnum else VIOLATED, **kw)
    rep._lnum, rep._rnum, rep._den = lnum, rnum, lden
    return rep


def _skipped(theorem: str, reason: str, **kw) -> VerificationReport:
    return VerificationReport(theorem, "", HYPOTHESIS_NOT_MET, reason=reason, **kw)


def _recip_sum(values: Iterable[int]) -> tuple[int, int]:
    """Sum of 1/x over positive integers x, as (numerator, lcm of the x)."""
    xs = list(values)
    den = lcm(*xs)
    return sum(den // x for x in xs), den


# ---------------------------------------------------------------------------
# equality-family matchers (structure inspection only)


def is_complete_graph(g: Graph) -> bool:
    return g.m == comb(g.n, 2)


def is_disjoint_union_of_cliques(g: Graph) -> bool:
    return all(is_clique(g, comp) for comp in component_masks(g))


def is_cliques_sharing_vertex(g: Graph, v: int) -> bool:
    """Union of cliques pairwise intersecting exactly in v (vacuous for K_1).

    Equivalent structural test: every component of G - v, together with v,
    induces a complete graph.  That forces each component vertex adjacent
    to v, and cross-clique edges cannot exist between components.
    """
    rest = ((1 << g.n) - 1) ^ (1 << v)
    return all(is_clique(g, comp | 1 << v) for comp in component_masks(g, rest))


def is_clique_union_isolated(g: Graph, r: int) -> bool:
    """K_r plus isolated vertices."""
    support = [v for v in range(g.n) if g.degree(v) > 0]
    if r == 1:
        return g.m == 0 and g.n >= 1
    return len(support) == r and g.m == comb(r, 2)


def is_join_clique_empty(g: Graph, mu: int) -> bool:
    """K_mu joined to an independent set on the remaining vertices."""
    hubs = sum(1 << v for v in range(g.n) if g.degree(v) == g.n - 1)
    rest = ((1 << g.n) - 1) ^ hubs
    return hubs.bit_count() == mu and not any(g.adj[u] & rest for u in mask_vertices(rest))


def is_star(g: Graph) -> bool:
    if g.n < 2 or g.m != g.n - 1:
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs == [1] * (g.n - 1) + [g.n - 1]


def is_triangle_plus_isolated(g: Graph) -> bool:
    return g.n == 4 and is_clique_union_isolated(g, 3)


def is_paw(g: Graph) -> bool:
    """Triangle with one pendant edge: the unique graph with degrees 1,2,2,3."""
    return g.n == 4 and sorted(g.degree(v) for v in range(4)) == [1, 2, 2, 3]


def is_diamond(g: Graph) -> bool:
    """K_4 minus one edge: the unique 4-vertex graph with five edges."""
    return g.n == 4 and g.m == 5


# ---------------------------------------------------------------------------
# individual verifiers


def verify_eg_path(g: Graph) -> VerificationReport:
    if g.n == 0:
        return _skipped("eg-path", "empty graph")
    return _bound("eg-path", (2 * g.m, g.n), (longest_path(g), 1))


def verify_eg_cycle(g: Graph) -> VerificationReport:
    if g.n < 3 or not kept(g, is_two_edge_connected):
        return _skipped("eg-cycle", "not 2-edge-connected with n >= 3")
    circumference = max(cycle_profile(g).values.values())
    return _bound("eg-cycle", (2 * g.m, g.n - 1), (circumference, 1))


def verify_eg_matching(g: Graph) -> VerificationReport:
    mu = matching_number(g)
    if g.n < 2 * mu + 1:
        return _skipped("eg-matching", f"needs n >= 2*mu+1 = {2 * mu + 1}")
    rhs = max(comb(2 * mu + 1, 2), comb(mu, 2) + (g.n - mu) * mu)
    return _bound("eg-matching", (g.m, 1), (rhs, 1))


def verify_bbrs(g: Graph) -> VerificationReport:
    total = sum(longest_vpath(g, v) for v in range(g.n))
    rep = _bound("bbrs", (g.m, 1), (total, 2))
    rep.family_match = is_disjoint_union_of_cliques(g)
    return rep


def verify_mt_path(g: Graph) -> VerificationReport:
    if g.n == 0:
        return _skipped("mt", "empty graph")
    lhs = _recip_sum(path_profile(g).values.values())
    return _bound("mt", lhs, (g.n, 2))


def verify_zz_cycle(g: Graph) -> VerificationReport:
    if g.n == 0:
        return _skipped("zz", "empty graph")
    lhs = _recip_sum(cycle_profile(g).values.values())
    return _bound("zz", lhs, (g.n - 1, 2))


def verify_local_bbrs(g: Graph, v: int) -> VerificationReport:
    if not 0 <= v < g.n:
        raise ValueError(f"root {v} out of range")
    if not kept(g, is_connected):
        return _skipped("local-bbrs", "disconnected", root=v)
    # an edge at v counts 1/(2p), any other edge 1/p
    profile = vpath_profile(g, v).values
    num, den = _recip_sum(2 * p if v in e else p for e, p in profile.items())
    rep = _bound("local-bbrs", (num, den), (g.n - 1, 2), root=v)
    rep.family_match = is_cliques_sharing_vertex(g, v)
    if g.n >= 2:
        # chain = (2m - d(v)) / (2 ell)
        chain, chain_den = 2 * g.m - g.degree(v), 2 * longest_vpath(g, v)
        if num * chain_den < chain * den:
            raise RuntimeError("internal chain inequality failed for rooted path sum")
        rep.witness = {"chain_lower_bound": format_ratio(chain, chain_den)}
    return rep


def verify_local_matching(g: Graph) -> VerificationReport:
    mu = matching_number(g)
    if mu == 0:
        return _skipped("local-matching", "no edges")
    lhs = _recip_sum(matching_profile(g).values.values())
    n = g.n
    complete = is_complete_graph(g)
    if n == 2 * mu:
        rhs = (n - 1, 1)
        # For mu >= 3 equality forces a complete graph: the count of edges
        # whose best containing matching has size mu - 1 injects into the
        # non-edges, and 1/(mu*(mu-1)) < 1/mu is strict.  At mu = 2 the two
        # coefficients coincide, so the bound is also tight on the two
        # non-complete 4-vertex graphs where that injection is a bijection:
        # the paw and the diamond.  Verified exhaustively in the test suite.
        exceptional = mu == 2 and (is_paw(g) or is_diamond(g))
        family_a = family_b = complete or exceptional
    elif mu == 1:
        rhs = (max(3, n - 1), 1)
        family_a = family_b = (
            (n == 3 and is_complete_graph(g))
            or (n == 4 and is_triangle_plus_isolated(g))
            or (n >= 4 and is_star(g))
        )
    else:
        # rhs = max(2mu + 1, n - mu/2); n is compared with the case
        # boundary 5mu/2 + 1 as 2n with 5mu + 2
        rhs = (max(4 * mu + 2, 2 * n - mu), 2)
        twice_n, boundary = 2 * n, 5 * mu + 2
        in_union = is_clique_union_isolated(g, 2 * mu + 1)
        in_join = is_join_clique_empty(g, mu)
        family_a = (twice_n <= boundary and in_union) or (twice_n >= boundary and in_join)
        family_b = (twice_n == boundary and in_union) or (twice_n >= boundary and in_join)
    rep = _bound("local-matching", lhs, rhs)
    rep.family_match = family_a
    rep.witness = {"family_strict_boundary_reading": family_b}
    if n == 2 * mu and family_a and not complete:
        rep.witness["perfect_matching_family"] = (
            "paw" if is_paw(g) else "diamond"
        )
    return rep


def verify_weighted_mt(wg: WeightedGraph) -> VerificationReport:
    g = wg.graph
    if g.n == 0:
        return _skipped("weighted-mt", "empty graph")
    den, terms = weighted_ratio_terms(wg)
    return _bound("weighted-mt", (sum(terms.values()), den), (g.n, 2))


def verify_fmr(wg: WeightedGraph) -> VerificationReport:
    g = wg.graph
    if g.n == 0:
        return _skipped("fmr", "empty graph")
    heaviest = max_weight_path(wg)
    lhs = (2 * sum(wg.numerators.values()), wg.denominator * g.n)
    return _bound("fmr", lhs, (heaviest.numerator, heaviest.denominator))


def verify_bondy_fan(wg: WeightedGraph) -> VerificationReport:
    g = wg.graph
    if g.n < 3 or not kept(g, is_two_edge_connected):
        return _skipped("bondy-fan", "not 2-edge-connected with n >= 3")
    heaviest = max_weight_cycle(wg)
    if heaviest is None:
        raise RuntimeError("2-edge-connected graph with no cycle; cycle search is corrupt")
    lhs = (2 * sum(wg.numerators.values()), wg.denominator * (g.n - 1))
    return _bound("bondy-fan", lhs, (heaviest.numerator, heaviest.denominator))


def verify_ning_vpath(g: Graph, v: int) -> VerificationReport:
    if not 0 <= v < g.n:
        raise ValueError(f"root {v} out of range")
    if not kept(g, is_connected):
        return _skipped("ning-vpath", "disconnected", root=v)
    if g.n < 2:
        return _skipped("ning-vpath", "needs n >= 2", root=v)
    lhs = (2 * g.m - g.degree(v), g.n - 1)
    return _bound("ning-vpath", lhs, (longest_vpath(g, v), 1), root=v)


def verify_gt_path(g: Graph, s: int) -> VerificationReport:
    if s < 2:
        raise ValueError("clique order s must be >= 2")
    lhs = _recip_sum(p - s + 2 for p in clique_path_profile(g, s).values.values())
    return _bound("gt-path", lhs, (clique_count(g, s - 1), s), s=s)


def verify_gt_star(g: Graph, s: int) -> VerificationReport:
    if s < 2:
        raise ValueError("clique order s must be >= 2")
    centered = clique_star_profile(g, s, require_center_in_clique=True).values
    free = clique_star_profile(g, s).values
    if any(free[k] < c for k, c in centered.items()):
        raise RuntimeError("free-center star smaller than clique-centered star")
    num, den = _recip_sum(c - s + 2 for c in centered.values())
    free_num, free_den = _recip_sum(f - s + 2 for f in free.values())
    rep = _bound("gt-star", (num, den), (clique_count(g, s - 1), s), s=s)
    rep.witness = {
        "free_center_lhs": format_ratio(free_num, free_den),
        "readings_agree": free_num * den == num * free_den,
    }
    return rep


def verify_star_prop(g: Graph) -> VerificationReport:
    if g.n == 0:
        return _skipped("star", "empty graph")
    lhs = _recip_sum(star_profile(g).values.values())
    return _bound("star", lhs, (g.n, 2))


def verify_delta_lemma(g: Graph, s: int) -> VerificationReport:
    if s < 1:
        raise ValueError("clique order s must be >= 1")
    ns = clique_count(g, s)
    if ns == 0:
        return _skipped("delta", f"no cliques of order {s}", s=s)
    # lhs = (s+1) n_{s+1}/n_s + s - 1, over n_s
    num = (s + 1) * clique_count(g, s + 1) + (s - 1) * ns
    delta = max(g.degree(v) for v in range(g.n))
    rep = _bound("delta", (num, ns), (delta, 1), s=s)
    # the same clique-ratio quantity also lower-bounds the longest path
    lp = longest_path(g)
    path_ok = num <= lp * ns
    rep.witness = {"path_form_rhs": lp, "path_form_ok": path_ok}
    if rep.status == OK and not path_ok:
        rep.status = VIOLATED
        rep.reason = "companion path form failed"
    return rep


# ---------------------------------------------------------------------------
# corpus driver

# How the driver calls a verifier: once per graph, once per root, once per
# clique order s, or once per weighting.
PLAIN, ROOTED, CLIQUE, WEIGHTED = "plain", "rooted", "clique", "weighted"

# The theorem registry: the one place a theorem is declared, with its kind
# and its verifier.  `all` runs the theorems in this order.
_REGISTRY: tuple[tuple[str, str, Callable[..., VerificationReport]], ...] = (
    ("eg-path", PLAIN, verify_eg_path),
    ("eg-cycle", PLAIN, verify_eg_cycle),
    ("eg-matching", PLAIN, verify_eg_matching),
    ("bbrs", PLAIN, verify_bbrs),
    ("mt", PLAIN, verify_mt_path),
    ("zz", PLAIN, verify_zz_cycle),
    ("local-bbrs", ROOTED, verify_local_bbrs),
    ("local-matching", PLAIN, verify_local_matching),
    ("weighted-mt", WEIGHTED, verify_weighted_mt),
    ("gt-path", CLIQUE, verify_gt_path),
    ("gt-star", CLIQUE, verify_gt_star),
    ("fmr", WEIGHTED, verify_fmr),
    ("bondy-fan", WEIGHTED, verify_bondy_fan),
    ("ning-vpath", ROOTED, verify_ning_vpath),
    ("star", PLAIN, verify_star_prop),
    ("delta", CLIQUE, verify_delta_lemma),
)

ALL_THEOREMS: tuple[str, ...] = tuple(thm for thm, _, _ in _REGISTRY)
ROOTED_THEOREMS = tuple(thm for thm, kind, _ in _REGISTRY if kind == ROOTED)
WEIGHTED_THEOREMS = tuple(thm for thm, kind, _ in _REGISTRY if kind == WEIGHTED)
_KIND: dict[str, str] = {thm: kind for thm, kind, _ in _REGISTRY}
# The driver calls each verifier through this dict, so that an entry can be
# rebound in place (perfbench/trace_job.py wraps each one to time it).
_VERIFIERS: dict[str, Callable[..., VerificationReport]] = {
    thm: fn for thm, _, fn in _REGISTRY
}


def check_weights(weights: str | WeightedGraph, seed: int | None, trials: int = 1) -> None:
    """Random weights come with a seed and nothing else does, and trials is
    >= 1 and other than 1 only for random weights: no setting goes unread."""
    rand = weights == "random"
    if rand and seed is None:
        raise ValueError("--weights random requires --seed")
    if seed is not None and not rand:
        raise ValueError("--seed requires --weights random")
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if trials != 1 and not rand:
        raise ValueError("--trials requires --weights random")


@dataclass(frozen=True)
class CorpusConfig:
    """What a verify run checks.  The constructor is the one rule set for a
    run: it raises ValueError with the message that the CLI prints."""

    theorems: tuple[str, ...]
    roots: str | int = "all"
    s_values: tuple[int, ...] = (2, 3, 4)
    weights: str | WeightedGraph = "unit"
    seed: int | None = None
    trials: int = 1

    def __post_init__(self) -> None:
        for i, thm in enumerate(self.theorems):
            if thm not in _KIND:
                raise ValueError(f"unknown theorem {thm!r}; known: {', '.join(ALL_THEOREMS)}")
            if thm in self.theorems[:i]:
                raise ValueError(f"theorem {thm!r} given more than once")
        s_values, s_list = self.s_values, ",".join(map(str, self.s_values))
        if not s_values or min(s_values) < 1 or len(set(s_values)) < len(s_values):
            raise ValueError(f"bad --s list {s_list!r}; expected distinct orders >= 1")
        if {"gt-path", "gt-star"} & set(self.theorems) and min(s_values) < 2:
            raise ValueError(f"gt-path and gt-star need --s values >= 2, got {s_list}")
        if self.roots != "all" and int(self.roots) < 0:
            raise ValueError(f"--roots must be 'all' or >= 0, got {self.roots}")
        check_weights(self.weights, self.seed, self.trials)
        if self.weights == "random" and not set(WEIGHTED_THEOREMS) & set(self.theorems):
            weighted = ", ".join(WEIGHTED_THEOREMS)
            raise ValueError(f"--weights random needs a weighted theorem: {weighted}")


def weightings(
    g: Graph,
    weights: str | WeightedGraph = "unit",
    seed: int | None = None,
    trials: int = 1,
) -> list[tuple[WeightedGraph, str]]:
    """The weightings of g that the weighted verifiers run on, with labels.

    "unit" gives unit weights; "random" gives `trials` seeded weightings,
    trial t drawn from crc32(f"{seed}|{graph6}|{t}"); a WeightedGraph on a
    graph equal to g gives its weights to g, labelled "file".
    """
    if isinstance(weights, WeightedGraph):
        if weights.graph != g:
            raise ValueError("weighted graph differs from input graph")
        return [(WeightedGraph(g, weights.weights), "file")]
    if weights == "unit":
        return [(WeightedGraph.unit(g), "unit")]
    if weights != "random":
        raise ValueError(f"unknown weight mode {weights!r}")
    check_weights(weights, seed, trials)
    g6 = write_graph6(g)
    out = []
    for t in range(trials):
        derived = zlib.crc32(f"{seed}|{g6}|{t}".encode())
        out.append((seeded_weights(g, derived), f"seed={seed};trial={t};rng={derived}"))
    return out


def reports_for_graph(g: Graph, cfg: CorpusConfig) -> list[VerificationReport]:
    """Every report of the configured theorems on g.

    This is the one place that names a report: g is encoded in graph6
    once, and its weightings are derived once (only if a weighted theorem
    is configured); every report gets that graph6 and every weighted report
    its weighting's label.  The verifiers get g as one TabledGraph, so they
    share its tables.  A failed self-check (RuntimeError) is re-raised
    naming the theorem, g and its root, s or weighting, so that the failing
    case can be replayed."""
    g, g6 = TabledGraph(g), write_graph6(g)
    weighted = []
    if any(_KIND[thm] == WEIGHTED for thm in cfg.theorems):
        weighted = weightings(g, cfg.weights, cfg.seed, cfg.trials)
    out: list[VerificationReport] = []
    for thm in cfg.theorems:
        kind, fn = _KIND[thm], _VERIFIERS[thm]
        where = ""
        try:
            if kind == PLAIN:
                out.append(fn(g))
            elif kind == ROOTED:
                roots = range(g.n) if cfg.roots == "all" else [int(cfg.roots)]
                for v in roots:
                    if v >= g.n:
                        out.append(
                            _skipped(thm, f"root {v} out of range for n={g.n}", root=v)
                        )
                        continue
                    where = f", root {v}"
                    out.append(fn(g, v))
            elif kind == CLIQUE:
                for s in cfg.s_values:
                    where = f", s {s}"
                    out.append(fn(g, s))
            else:
                for wg, label in weighted:
                    where = f", weights {label}"
                    rep = fn(wg)
                    rep.weights = label
                    out.append(rep)
        except RuntimeError as exc:
            raise RuntimeError(f"{thm} on {g6}{where}: {exc}") from exc
    for rep in out:
        rep.graph6 = g6
    return out


@dataclass
class TheoremSummary:
    theorem: str
    checked: int = 0
    ok: int = 0
    hypothesis_not_met: int = 0
    violated: int = 0
    equality_count: int = 0
    min_slack: Fraction | None = None
    min_slack_witness: dict | None = None
    equalities: list[dict] = field(default_factory=list)
    family_mismatches: list[dict] = field(default_factory=list)
    reading_divergences: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "checked": self.checked,
            "ok": self.ok,
            "hypothesis_not_met": self.hypothesis_not_met,
            "violated": self.violated,
            "equality_count": self.equality_count,
            "min_slack": None if self.min_slack is None else format_rational(self.min_slack),
            "min_slack_witness": self.min_slack_witness,
            "equality_census_size": len(self.equalities),
            "family_mismatches": self.family_mismatches,
            "reading_divergences": self.reading_divergences,
        }


@dataclass
class CorpusResult:
    summaries: dict[str, TheoremSummary]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failures": self.failures,
            "summaries": {k: v.to_dict() for k, v in self.summaries.items()},
        }


def _witness_of(rep: VerificationReport) -> dict:
    w = {"graph6": rep.graph6}
    for k in ("root", "s", "weights"):
        val = getattr(rep, k)
        if val is not None:
            w[k] = val
    return w


def _family_mismatch(rep: VerificationReport) -> bool:
    """True when a report's equality flag disagrees with family_match,
    which only the family-checked verifiers set."""
    return rep.family_match is not None and rep.equality != rep.family_match


def is_counterexample(rep: VerificationReport) -> bool:
    """True when a report falsifies a claimed bound or equality family."""
    return rep.status == VIOLATED or _family_mismatch(rep)


def _absorb(summary: TheoremSummary, rep: VerificationReport, failures: list[str]) -> None:
    summary.checked += 1
    if rep.status == HYPOTHESIS_NOT_MET:
        summary.hypothesis_not_met += 1
        return
    slack, den = rep._rnum - rep._lnum, rep._den
    if rep.status == VIOLATED:
        summary.violated += 1
        failures.append(
            f"{rep.theorem}: bound violated on {rep.graph6} "
            f"(slack {format_ratio(slack, den)}, witness {_witness_of(rep)})"
        )
    else:
        summary.ok += 1
    # slack/den < low, both denominators positive
    low = summary.min_slack
    if low is None or slack * low.denominator < low.numerator * den:
        summary.min_slack = Fraction(slack, den)
        summary.min_slack_witness = _witness_of(rep)
    if slack == 0:
        summary.equality_count += 1
        summary.equalities.append(_witness_of(rep))
    if _family_mismatch(rep):
        entry = _witness_of(rep) | {
            "equality": rep.equality, "family_match": rep.family_match
        }
        summary.family_mismatches.append(entry)
        failures.append(f"{rep.theorem}: equality/family mismatch {entry}")
    if rep.witness is not None:
        strict = rep.witness.get("family_strict_boundary_reading")
        if strict is not None and strict != rep.family_match:
            summary.reading_divergences.append(
                _witness_of(rep) | {"statement_reading": rep.family_match,
                                    "boundary_reading": strict}
            )


def verify_corpus(
    theorems: Sequence[str],
    ns: Sequence[int] = (),
    *,
    connected_only: bool = False,
    roots: str | int = "all",
    s_values: Sequence[int] = (2, 3, 4),
    weights: str | WeightedGraph = "unit",
    seed: int | None = None,
    trials: int = 1,
    graphs: Iterable[Graph] | None = None,
    on_report: Callable[[VerificationReport], None] | None = None,
) -> CorpusResult:
    """Run verifiers over a corpus; aggregate slack, equalities, and failures.

    The corpus is either `graphs` or every graph with n in `ns` (optionally
    connected only), in enumeration order.  `weights`, `seed` and `trials`
    select the weightings of each graph, as in `weightings`.  Graphs are
    drawn one at a time and each graph's reports go to `on_report` before
    the next is drawn; neither the corpus nor its reports are held.  A run
    that CorpusConfig refuses raises its ValueError before any graph is
    drawn; a failed self-check (RuntimeError) propagates after the earlier
    graphs' reports have been passed on.  Output is deterministic.
    """
    cfg = CorpusConfig(
        theorems=tuple(theorems),
        roots=roots,
        s_values=tuple(s_values),
        weights=weights,
        seed=seed,
        trials=trials,
    )
    if graphs is None:
        graphs = (
            g for n in ns for g in enumerate_graphs(n, connected_only=connected_only)
        )
    summaries = {thm: TheoremSummary(thm) for thm in cfg.theorems}
    failures: list[str] = []
    for g in graphs:
        for rep in reports_for_graph(g, cfg):
            _absorb(summaries[rep.theorem], rep, failures)
            if on_report is not None:
                on_report(rep)
    return CorpusResult(summaries, failures)
