"""Matching structure: factor-criticality, the canonical D/A/C decomposition,
and degree-sum closures.

The decomposition computes D = {v : deleting v leaves the matching number
unchanged}, A = N(D) \\ D, C = V \\ (D u A), then re-verifies the structure
it promises, reading each induced subgraph from the matching table of G:
every component of G[D] is factor-critical, G[C] has a perfect matching, A
can be matched into |A| distinct components of G[D], and the deficiency
identity n - 2*mu == (#components of D) - |A| holds.  A verification
failure raises rather than returning bad structure.

The k-closure repeatedly joins the lexicographically least nonadjacent pair
with degree sum >= k; with k = 2*mu(G) + 1 it keeps the matching number.
The `ge` and `closure` subcommands print these two structures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, component_masks, mask_vertices
from .stats import match_table


def is_factor_critical(g: Graph) -> bool:
    """True iff deleting any one vertex leaves a perfectly matchable graph.

    The empty graph is vacuously factor-critical; even orders never are.
    """
    if g.n % 2 == 0:
        return g.n == 0
    return _factor_critical(match_table(g), (1 << g.n) - 1)


def _factor_critical(table: tuple[int, ...], m: int) -> bool:
    """Whether each G[m - v] has a perfect matching, by G's matching table."""
    return all(2 * table[m ^ 1 << v] == m.bit_count() - 1 for v in mask_vertices(m))


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
    mu = table[full]
    dmask = sum(1 << v for v in range(g.n) if table[full ^ 1 << v] == mu)
    amask = sum(1 << v for v in range(g.n) if not dmask >> v & 1 and g.adj[v] & dmask)
    cmask = full & ~dmask & ~amask
    comp_masks = component_masks(g, dmask)
    d = tuple(mask_vertices(dmask))
    a = tuple(mask_vertices(amask))
    c = tuple(mask_vertices(cmask))

    if not all(_factor_critical(table, m) for m in comp_masks):
        raise RuntimeError("decomposition re-verification failed: D component not factor-critical")
    if 2 * table[cmask] != len(c):
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
