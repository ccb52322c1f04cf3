"""Matching structure: factor-criticality, the canonical D/A/C decomposition,
degree-sum closures, and the clique-anchored edge-count bound.

The decomposition computes D = {v : deleting v leaves the matching number
unchanged}, A = N(D) \\ D, C = V \\ (D u A), then re-verifies the structure
it promises before returning: every component of G[D] is factor-critical,
G[C] has a perfect matching, A can be matched into |A| distinct components
of G[D], and the deficiency identity n - 2*mu == (#components of D) - |A|
holds.  A verification failure raises rather than returning bad structure.

The k-closure repeatedly joins the lexicographically least nonadjacent pair
with degree sum >= k.  With k = 2*mu(G) + 1 the closure preserves the
matching number, which is what makes the clique-anchored bound f(s) =
C(s,2) + (2k - s + 1)(n - s) checkable on the closed graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import Graph, component_masks, induced_subgraph, mask_vertices
from .stats import enumerate_cliques, match_table, matching_number


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph.

    The empty graph is vacuously factor-critical; even orders never are.
    """
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    table = match_table(g)
    full = (1 << g.n) - 1
    half = (g.n - 1) // 2
    return all(table[full ^ (1 << v)] == half for v in range(g.n))


@dataclass(frozen=True)
class GEDecomposition:
    """D/A/C vertex partition plus the components of G[D]."""

    d: tuple[int, ...]
    a: tuple[int, ...]
    c: tuple[int, ...]
    d_components: tuple[tuple[int, ...], ...]


def _a_matches_into_components(g: Graph, a: tuple[int, ...], comp_masks: list[int]) -> bool:
    """Can A be matched to |A| distinct D-components it sends edges to?"""
    matched: dict[int, int] = {}

    def augment(x: int, seen: set[int]) -> bool:
        for ci, m in enumerate(comp_masks):
            if ci in seen or not g.adj[x] & m:
                continue
            seen.add(ci)
            if ci not in matched or augment(matched[ci], seen):
                matched[ci] = x
                return True
        return False

    return all(augment(x, set()) for x in a)


def gallai_edmonds(g: Graph) -> GEDecomposition:
    """The D/A/C decomposition, structurally re-verified before returning."""
    table = match_table(g)
    full = (1 << g.n) - 1
    mu = table[full] if g.n else 0
    dmask = 0
    for v in range(g.n):
        if table[full ^ (1 << v)] == mu:
            dmask |= 1 << v
    amask = 0
    for v in range(g.n):
        if not dmask >> v & 1 and g.adj[v] & dmask:
            amask |= 1 << v
    cmask = full & ~dmask & ~amask
    comp_masks = component_masks(g, dmask)
    d = tuple(mask_vertices(dmask))
    a = tuple(mask_vertices(amask))
    c = tuple(mask_vertices(cmask))

    for m in comp_masks:
        if not is_factor_critical(induced_subgraph(g, mask_vertices(m))):
            raise RuntimeError("decomposition re-verification failed: D component not factor-critical")
    csub = induced_subgraph(g, c)
    if 2 * matching_number(csub) != csub.n:
        raise RuntimeError("decomposition re-verification failed: C side not perfectly matchable")
    if not _a_matches_into_components(g, a, comp_masks):
        raise RuntimeError("decomposition re-verification failed: A not matchable into distinct D components")
    if g.n - 2 * mu != len(comp_masks) - len(a):
        raise RuntimeError("decomposition re-verification failed: deficiency identity broken")

    return GEDecomposition(d, a, c, tuple(tuple(mask_vertices(m)) for m in comp_masks))


# ---------------------------------------------------------------------------
# degree-sum closure


@dataclass(frozen=True)
class ClosureResult:
    graph: Graph
    added_edges: tuple[tuple[int, int], ...]
    k: int


def k_closure(g: Graph, k: int) -> ClosureResult:
    """Repeatedly join the lex-least nonadjacent pair with degree sum >= k."""
    if k < 0:
        raise ValueError("closure threshold must be >= 0")
    cur = g
    added: list[tuple[int, int]] = []
    while True:
        pick = None
        for u in range(cur.n):
            for v in range(u + 1, cur.n):
                if not cur.has_edge(u, v) and cur.degree(u) + cur.degree(v) >= k:
                    pick = (u, v)
                    break
            if pick:
                break
        if pick is None:
            return ClosureResult(cur, tuple(added), k)
        cur = cur.with_edges([pick])
        added.append(pick)


def closure_preserves_matching_number(g: Graph, k: int | None = None) -> bool:
    """Whether the (2*mu+1)-closure keeps the matching number unchanged."""
    mu = matching_number(g)
    if k is None:
        k = mu
    elif k != mu:
        raise ValueError(f"k must equal the matching number {mu}, got {k}")
    closed = k_closure(g, 2 * k + 1).graph
    return matching_number(closed) == mu


def nw_bound(s: int, k: int, n: int) -> int:
    """f(s) = C(s,2) + (2k - s + 1)(n - s)."""
    if s < 0 or n < 0:
        raise ValueError("s and n must be nonnegative")
    return comb(s, 2) + (2 * k - s + 1) * (n - s)


@dataclass(frozen=True)
class CliqueBoundReport:
    """Edge-count check of the closed graph against f(s) case analysis."""

    applicable: bool
    reason: str | None
    mu: int
    closure_edges: int
    core: tuple[int, ...]
    clique: tuple[int, ...] | None
    s: int | None
    checks: tuple[tuple[str, int, bool], ...]  # (label, bound, satisfied)
    ok: bool


def nw_bound_check(g: Graph) -> CliqueBoundReport:
    """Check e(closure) against f(s) on the high-degree core's clique.

    Gamma is the (2k+1)-closure for k = mu(G); the core is the set of
    vertices of Gamma-degree >= k+1.  When the core is a clique of Gamma,
    S is the lex-least largest clique containing it (so maximal), and the case
    analysis says: s <= k implies e(Gamma) <= f(k); k+1 <= s <= 2k+1
    implies e(Gamma) <= max{f(t), f(k+1)} for every t in [s, 2k+1].
    """
    k = matching_number(g)
    gamma = k_closure(g, 2 * k + 1).graph
    e_gamma = gamma.m
    core = tuple(v for v in range(gamma.n) if gamma.degree(v) >= k + 1)
    if any(not gamma.has_edge(u, v) for i, u in enumerate(core) for v in core[i + 1:]):
        return CliqueBoundReport(False, "core is not a clique of the closure", k, e_gamma,
                                 core, None, None, (), True)
    # the first clique containing the core, by size descending and then lex
    clique = next((c for s in range(gamma.n, 0, -1) for c in enumerate_cliques(gamma, s)
                   if set(core).issubset(c)), None)
    if clique is None:
        # only possible when the graph is empty of vertices
        return CliqueBoundReport(False, "no clique contains the core", k, e_gamma,
                                 core, None, None, (), True)
    s = len(clique)
    checks: list[tuple[str, int, bool]] = []
    if s <= k:
        bound = nw_bound(k, k, gamma.n)
        checks.append((f"f({k})", bound, e_gamma <= bound))
    elif s <= 2 * k + 1:
        for t in range(s, 2 * k + 2):
            bound = max(nw_bound(t, k, gamma.n), nw_bound(k + 1, k, gamma.n))
            checks.append((f"max(f({t}),f({k + 1}))", bound, e_gamma <= bound))
    else:
        return CliqueBoundReport(False, f"clique order {s} exceeds 2k+1", k, e_gamma,
                                 core, clique, s, (), False)
    return CliqueBoundReport(
        True, None, k, e_gamma, core, clique, s, tuple(checks),
        all(c[2] for c in checks),
    )


def stability_check(g: Graph) -> bool:
    """Implication: n <= (5*mu+1)/2 and e > 2*mu^2 force the edges onto at
    most 2*mu+1 vertices.  True when the hypothesis fails or the conclusion
    holds."""
    mu = matching_number(g)
    n = g.n
    e = g.m
    if Fraction(n) > Fraction(5 * mu + 1, 2) or e <= 2 * mu * mu:
        return True
    support = sum(1 for v in range(n) if g.degree(v) > 0)
    return support <= 2 * mu + 1
