"""Exact per-edge, rooted, clique, and weighted longest-path statistics.

The unweighted statistics run on one subset dynamic program packed into big
integers.  The bits of each integer form n blocks of 2^n, one per source s,
and bit s 2^n + mask of F[u] is set iff some simple path from s covering
exactly the vertices of `mask` ends at u.  One transition round ORs neighbor
tables, keeps only masks missing u, and shifts by 2^u to add u, which never
carries into the next block; so every source grows in the same rounds, and
a fixpoint is reached in at most n of them.  A statistic of one path is
then a size read, the largest |mask| in a slice of the tables: ell(v) reads
block v of their OR, the longest path all of it, p({v}) its masks with v,
and c(ab) the paths from a that end at b, one of which is the edge ab.  A
statistic of two joined paths, p(e), p(S) or p_v(e), is a join.  For each
vertex y, the level set S_y[j] has bit M set iff some path from y avoids M
and has j - |M| vertices, so the largest |M1| + |M2| over masks M1 of a
given set and paths M2 from y disjoint from them is the largest j where the
set meets S_y[j].  All S_y come from one packed pass on the first join: the
bit-reversed OR of the tables holds full ^ M2 in block n-1-y for each path
mask M2 from y, n shift-OR steps close each path size under subsets, and
levels[j] holds S_y[j] in block n-1-y.  A join moves its masks into that
block.  p(ab) joins the paths from a with b, and p_v(ab) the paths from v
that end at one end of ab with the other end; p(S) first shifts the masks
that avoid the rest of S onto it.  No path from v has more than ell(v) + 1
vertices, so the p_v(e) of a root come from one pass over its edges that
scans the levels from that cap down and joins the second orientation of an
edge only if the first falls short of it.  An engine is n tables, their OR
and n + 1 level integers; no per-edge, per-root or per-clique tables.

When every edge weighs the same c, the heaviest path through e weighs
c p(e) and the heaviest cycle c times the circumference, so the weighted
statistics read those from the graph's engine.  Any other weighting runs on
the numerators over the one denominator d that WeightedGraph keeps, in one
max-weight subset DP (Bellman 1962; Held & Karp 1962) over reached states
only: t[mask] is None, or maps each end v of a path from a root on exactly
the vertices of mask to the heaviest such path.  Rooted at every vertex,
with the heaviest continuation from each state, it gives w(p(e)) for every
edge: one profile that yields the heaviest path and each w(e)/w(p(e)) as an
integer over one denominator.  Rooted at a cycle's least vertex r, on the
vertices >= r, it gives the heaviest cycle.  Each result is divided by d once.

clique_count and both clique profiles read the listing of the s-vertex
cliques.  p(S) takes one size read if |S| = 1, p(e) if |S| = 2 (the
2-cliques are the edges, in the same order), else one engine join per pair
of S; s(K) is the largest degree over K, or over K and its common neighbours.

The edge profiles read their tables in place: p(e) and c(e) the engine,
mu(e) = 1 + mu(G - u - v) the matching table, and s(e) the two degrees.
Each profile is the one builder of its statistic: the per-edge forms and
s(K) of one clique check their item and read it there.  A TabledGraph keeps
only what some reader reads twice, through kept(g, build), connectivity and
2-edge-connectivity included; the other profiles cost one build per call.

Everything returns ints or Fractions; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce, wraps
from itertools import combinations
from math import lcm
from operator import and_, or_
from typing import Iterable

from .graphs import Graph, WeightedGraph, is_clique, is_connected, mask_vertices

TABLE_CAP = 12


@dataclass(frozen=True)
class EdgeStatProfile:
    """One statistic evaluated on every edge of a graph."""

    kind: str
    values: dict
    root: int | None = None


@dataclass(frozen=True)
class CliqueStatProfile:
    """One statistic evaluated on every clique of a fixed order s."""

    kind: str
    s: int
    values: dict


# ---------------------------------------------------------------------------
# packed mask sets, cached per n


# Every PathEngine of order n reads these, one set per n <= TABLE_CAP.
@lru_cache(maxsize=None)
def _lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Mask sets over n blocks of 2^n bits, where bit s 2^n + mask stands for
    mask in block s: sizes[k] holds every mask with |mask| == k, and
    without[v] every mask missing v, in each block; blocks[s] is block s."""
    size = 1 << n
    spread = sum(1 << (s << n) for s in range(n))  # one copy per block
    sizes = [0] * (n + 1)
    for m in range(size):
        sizes[m.bit_count()] |= 1 << m
    # the masks missing v come in runs of 2^v, one every 2^(v+1)
    without = [sum(((1 << (1 << v)) - 1) << base for base in range(0, size, 2 << v))
               for v in range(n)]
    return (
        tuple(x * spread for x in sizes),
        tuple(x * spread for x in without),
        tuple(((1 << size) - 1) << (s << n) for s in range(n)),
    )


class PathEngine:
    """Per-graph subset-DP tables answering exact path queries."""

    def __init__(self, g: Graph):
        if g.n > TABLE_CAP:
            raise ValueError(f"subset-DP statistics support n <= {TABLE_CAP}, got {g.n}")
        n = self.n = g.n
        self._sizes, self._without, self._blocks = _lattice(n)
        nbrs = [[v for v in range(n) if g.adj[u] >> v & 1] for u in range(n)]
        # table[u]: bit s 2^n + mask set iff a path from s on exactly mask
        # ends at u.  Adding u to a mask without u stays inside its block.
        table = [1 << (u << n | 1 << u) for u in range(n)]
        changed = True
        while changed:
            changed = False
            for u in range(n):
                acc = 0
                for v in nbrs[u]:
                    acc |= table[v]
                grown = table[u] | (acc & self._without[u]) << (1 << u)
                if grown != table[u]:
                    table[u] = grown
                    changed = True
        self._tables = table
        self._union = reduce(or_, table, 0)

    @cached_property  # built on an engine's first join, read by every join
    def _levels(self) -> list[int]:
        """levels[j]: bit (n-1-y) 2^n + M set iff some path mask M2 from y is
        disjoint from M and |M| + |M2| = j.  Only the joins read them."""
        n = self.n
        # Reversed, the union holds full ^ M2 in block n-1-y for each path
        # mask M2 from y; the masks avoiding M2 are the subsets of full ^ M2.
        rev = int(format(self._union, f"0{n << n}b")[::-1], 2)
        levels = [0] * (n + 1)
        for size in range(1, n + 1):
            avoid = rev & self._sizes[n - size]
            for v in range(n):
                avoid |= avoid >> (1 << v) & self._without[v]
            for k in range(n + 1 - size):
                levels[k + size] |= self._sizes[k] & avoid
        return levels

    def _top(self, masks: int, levels: list[int] | tuple[int, ...]) -> int:
        """The largest j with masks & levels[j] nonzero, or 0."""
        for j in range(self.n, 0, -1):
            if masks & levels[j]:
                return j
        return 0

    # -- queries ------------------------------------------------------------

    def longest_path(self) -> int:
        return self._top(self._union, self._sizes) - 1

    def vpath(self, v: int) -> int:
        return self._top(self._union & self._blocks[v], self._sizes) - 1

    def vertex_path(self, v: int) -> int:  # p({v})
        return self._top(self._union & ~self._without[v], self._sizes) - 1

    def edge_path(self, a: int, b: int, banned: int = 0) -> int:
        """p(ab) in G - banned.  One shift moves the masks from a that avoid
        banned to b's level sets, in block n-1-b, and adds banned to each, so
        the join keeps b's half off it."""
        masks = self._union & self._blocks[a]
        for v in range(banned.bit_length()):
            if banned >> v & 1:
                masks &= self._without[v]
        shift = ((self.n - 1 - b - a) << self.n) + banned
        masks = masks << shift if shift >= 0 else masks >> -shift
        return self._top(masks, self._levels) - banned.bit_count() - 1

    def edge_cycle(self, a: int, b: int) -> int:
        """The largest path mask from a to b; the edge ab is one of 2."""
        return self._top(self._tables[b] & self._blocks[a], self._sizes)

    def vpath_edges(self, v: int, edges: Iterable[tuple[int, int]]) -> list[int]:
        """p_v(ab) for each edge ab of edges, in order: one join of the paths
        from v ending at x with the paths from y, for xy = ab and ba.  No
        path from v has more than cap = ell(v) + 1 vertices, so each scan
        starts at cap, and once ab reaches cap, ba is not joined.  The scans
        are edge_path's, inline: a call per join costs about a third more."""
        n, levels = self.n, self._levels
        cap = self.vpath(v) + 1
        block = self._blocks[v]
        ends = [t & block for t in self._tables]
        out = []
        for a, b in edges:
            best = 0
            for x, y in ((a, b), (b, a)):
                if y != v and best < cap:
                    shift = (n - 1 - y - v) << n
                    masks = ends[x] << shift if shift >= 0 else ends[x] >> -shift
                    for j in range(cap, best, -1):
                        if masks & levels[j]:
                            best = j
                            break
            if best == 0:
                raise ValueError(
                    f"no path from {v} through edge ({a}, {b}); input must be connected"
                )
            out.append(best - 1)
        return out


class TabledGraph(Graph):
    """A Graph that keeps what the statistics read twice, each built on its
    first read: the path engine, the matching table, the p(e) and c(e) profiles,
    whether the graph is connected or 2-edge-connected, the clique listing of
    each order and the heaviest-path profile of each weighting.  It shares g's
    vertex count, adjacency and edges as built.  On a plain Graph each call
    builds what it reads, and nothing is kept."""

    __slots__ = ("tables",)

    def __init__(self, g: Graph):
        self.n, self.adj, self.edges, self.tables = g.n, g.adj, g.edges, {}


def kept(g: Graph, build, *args, key=None):
    """build(g, *args), kept on a TabledGraph g under key or (build, *args)."""
    if not isinstance(g, TabledGraph):
        return build(g, *args)
    key = key or (build, *args)
    value = g.tables.get(key)  # no kept value is None
    if value is None:
        value = g.tables[key] = build(g, *args)
    return value


def _tabled(build):
    """build(g), kept on a TabledGraph g by kept."""
    return wraps(build)(lambda g: kept(g, build))


# ---------------------------------------------------------------------------
# unweighted path and cycle statistics


def longest_path(g: Graph) -> int:
    """Number of edges of a longest simple path (0 for edgeless graphs)."""
    return kept(g, PathEngine).longest_path() if g.n else 0


def longest_vpath(g: Graph, v: int) -> int:
    """ell_G(v): edges of a longest simple path starting at v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return kept(g, PathEngine).vpath(v)


def longest_path_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """p(e): edges of a longest simple path using e.  Always >= 1."""
    e = g.check_edge(e)
    return path_profile(g).values[e]


def longest_cycle_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """c(e): vertices of a longest cycle using e, with c(e) = 2 for cut edges."""
    e = g.check_edge(e)
    return cycle_profile(g).values[e]


def longest_vpath_through_edge(g: Graph, v: int, e: tuple[int, int]) -> int:
    """p_v(e): edges of a longest simple path starting at v and using e."""
    _check_root(g, v)
    e = g.check_edge(e)
    return _vpath_profile(g, v).values[e]


@_tabled
def path_profile(g: Graph) -> EdgeStatProfile:
    eng = kept(g, PathEngine)
    return EdgeStatProfile("p", {(a, b): eng.edge_path(a, b) for a, b in g.edges})


@_tabled
def cycle_profile(g: Graph) -> EdgeStatProfile:
    eng = kept(g, PathEngine)
    return EdgeStatProfile("c", {(a, b): eng.edge_cycle(a, b) for a, b in g.edges})


def vpath_profile(g: Graph, v: int) -> EdgeStatProfile:
    _check_root(g, v)
    return _vpath_profile(g, v)


def _check_root(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not kept(g, is_connected):
        raise ValueError("p_v(e) requires a connected graph")


def _vpath_profile(g: Graph, v: int) -> EdgeStatProfile:
    values = dict(zip(g.edges, kept(g, PathEngine).vpath_edges(v, g.edges)))
    return EdgeStatProfile("p_v", values, root=v)


def star_size_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """s(e): leaves of a largest star subgraph containing e."""
    e = g.check_edge(e)
    return star_profile(g).values[e]


def star_profile(g: Graph) -> EdgeStatProfile:
    return EdgeStatProfile("s", {(u, v): max(g.degree(u), g.degree(v)) for u, v in g.edges})


# ---------------------------------------------------------------------------
# matchings


def match_table(g: Graph) -> tuple[int, ...]:
    """table[mask]: maximum matching size of the induced subgraph on mask."""
    if g.n > TABLE_CAP:
        raise ValueError(f"matching tables support n <= {TABLE_CAP}, got {g.n}")
    size = 1 << g.n
    table = [0] * size
    adj = g.adj
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        best = table[rest]
        nb = adj[v] & rest
        while nb:
            ul = nb & -nb
            nb ^= ul
            cand = 1 + table[rest ^ ul]
            if cand > best:
                best = cand
        table[mask] = best
    return tuple(table)


def matching_number(g: Graph) -> int:
    return kept(g, match_table)[(1 << g.n) - 1]


def max_matching(g: Graph) -> list[tuple[int, int]]:
    """One maximum matching, reconstructed deterministically from the table."""
    table = kept(g, match_table)
    mask = (1 << g.n) - 1
    out: list[tuple[int, int]] = []
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if table[mask] == table[rest]:
            mask = rest
            continue
        nb = g.adj[v] & rest
        while nb:
            ul = nb & -nb
            nb ^= ul
            if 1 + table[rest ^ ul] == table[mask]:
                out.append((v, ul.bit_length() - 1))
                mask = rest ^ ul
                break
    return sorted((min(a, b), max(a, b)) for a, b in out)


def max_matching_containing_edge(g: Graph, e: tuple[int, int]) -> int:
    """mu(e): size of a largest matching that uses e; equals 1 + mu(G - u - v)."""
    e = g.check_edge(e)
    return matching_profile(g).values[e]


def matching_profile(g: Graph) -> EdgeStatProfile:
    table, full = kept(g, match_table), (1 << g.n) - 1
    return EdgeStatProfile("mu", {(u, v): 1 + table[full ^ 1 << u ^ 1 << v] for u, v in g.edges})


# ---------------------------------------------------------------------------
# cliques


def _cliques(g: Graph, s: int) -> tuple[tuple[int, ...], ...]:
    if s < 1:
        raise ValueError("clique order must be >= 1")
    # Each clique comes with its common neighbours above its last vertex;
    # growing by those in ascending order keeps every level in lex order.
    above = [g.adj[v] & -(2 << v) for v in range(g.n)]
    level = [((v,), above[v]) for v in range(g.n)]
    while level and len(level[0][0]) < s:  # no clique outgrows an empty level
        level = [(k + (v,), common & above[v])
                 for k, common in level for v in mask_vertices(common)]
    return tuple(k for k, _ in level)


def enumerate_cliques(g: Graph, s: int) -> list[tuple[int, ...]]:
    """All cliques on exactly s vertices, as sorted tuples in lex order."""
    return list(kept(g, _cliques, s))


def clique_count(g: Graph, s: int) -> int:
    """n_s(G): number of s-vertex cliques."""
    return len(kept(g, _cliques, s))


def _check_clique(g: Graph, vertices) -> tuple[tuple[int, ...], int]:
    """The clique as a sorted tuple and as a vertex mask."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("clique must be nonempty")
    if len(set(vs)) != len(vs):
        raise ValueError("clique has repeated vertices")
    if not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("clique vertices out of range")
    kmask = sum(1 << v for v in vs)
    if not is_clique(g, kmask):
        raise ValueError(f"vertices {vs} are not a clique")
    return vs, kmask


def longest_path_with_consecutive_clique(g: Graph, clique) -> int:
    """p(S): edges of a longest path whose vertex sequence contains all of S
    as one consecutive block (any internal order).  At least len(S) - 1."""
    vs, kmask = _check_clique(g, clique)
    eng = kept(g, PathEngine)
    s = len(vs)
    if s == 1:
        return eng.vertex_path(vs[0])
    # S is a block x ... y: a path through xy in G - (S - x - y), with the
    # other s - 2 vertices of S put between x and y.
    return max(
        eng.edge_path(x, y, kmask ^ 1 << x ^ 1 << y) + s - 2
        for x, y in combinations(vs, 2)
    )


def max_star_over_clique(g: Graph, clique, require_center_in_clique: bool = False) -> int:
    """s(K): leaves of a largest star whose leaf set covers the clique K.

    Centers may sit inside K, or outside K when adjacent to all of K; the
    strict variant restricts centers to K.
    """
    vs, _ = _check_clique(g, clique)
    return clique_star_profile(g, len(vs), require_center_in_clique).values[vs]


def clique_path_profile(g: Graph, s: int) -> CliqueStatProfile:
    if s == 2 and g.edges:  # the 2-cliques are the edges, in the same order
        return CliqueStatProfile("p_S", 2, dict(path_profile(g).values))
    g = g if isinstance(g, TabledGraph) else TabledGraph(g)  # one engine for every clique
    values = {
        k: longest_path_with_consecutive_clique(g, k) for k in kept(g, _cliques, s)
    }
    return CliqueStatProfile("p_S", s, values)


def clique_star_profile(
    g: Graph, s: int, require_center_in_clique: bool = False
) -> CliqueStatProfile:
    """s(K) of each s-clique K: the largest degree over K, or over K and the
    common neighbours of K."""
    values = {}
    for k in kept(g, _cliques, s):
        common = 0 if require_center_in_clique else reduce(and_, (g.adj[v] for v in k))
        values[k] = max(g.degree(c) for c in (*k, *mask_vertices(common)))
    return CliqueStatProfile("s_K", s, values)


# ---------------------------------------------------------------------------
# weighted statistics


def _scaled(wg: WeightedGraph) -> list[list[tuple[int, int]]]:
    """Per vertex v, the pairs (u, numerators[uv]) over the neighbours u of v."""
    g = wg.graph
    if g.n > TABLE_CAP:
        raise ValueError(f"subset-DP statistics support n <= {TABLE_CAP}, got {g.n}")
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (a, b), w in wg.numerators.items():
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return nbrs


def _heaviest(
    nbrs: list[list[tuple[int, int]]], roots: range | tuple[int, ...]
) -> list[dict[int, int] | None]:
    """t[mask]: {v: the heaviest path from a root to v whose vertex set is
    exactly mask} over the ends v reached, or None if no path has vertex set
    mask.  Only reached states are built.  Weights must be nonnegative."""
    t: list[dict[int, int] | None] = [None] * (1 << len(nbrs))
    for r in roots:
        t[1 << r] = {r: 0}
    for mask, row in enumerate(t):
        if row is not None:
            for v, val in row.items():
                for u, w in nbrs[v]:
                    grown = mask | 1 << u
                    if grown != mask:
                        nxt = t[grown]
                        if nxt is None:
                            t[grown] = {u: val + w}
                        elif val + w > nxt.get(u, -1):
                            nxt[u] = val + w
    return t


def max_weight_path(wg: WeightedGraph) -> Fraction:
    """Largest total weight of a simple path (0 for empty or edgeless graphs).
    Weights are nonnegative, so some heaviest path runs through an edge."""
    return max(weighted_path_profile(wg).values.values(), default=Fraction(0))


def weighted_ratio_terms(wg: WeightedGraph) -> tuple[int, dict[tuple[int, int], int]]:
    """D and integers x_e with w(e)/w(p(e)) = x_e/D, and x_e = 0 on a
    zero-weight edge, so any sum of these ratios is one integer over D."""
    wp, d = weighted_path_profile(wg).values, wg.denominator
    # w(e)/w(p(e)) = a/b with the integers a = d w(e) and b = d w(p(e))
    ab = {e: (a, wp[e].numerator * d // wp[e].denominator) for e, a in wg.numerators.items()}
    den = lcm(*(b for a, b in ab.values() if a))
    return den, {e: a * (den // b) if a else 0 for e, (a, b) in ab.items()}


def weighted_path_ratios(wg: WeightedGraph) -> dict[tuple[int, int], Fraction]:
    """w(e)/w(p(e)) for every edge, and 0 on a zero-weight edge."""
    den, terms = weighted_ratio_terms(wg)
    return {e: Fraction(x, den) for e, x in terms.items()}


def _uniform_weight(wg: WeightedGraph) -> Fraction | None:
    """c when every edge weighs c, else None (also on edgeless graphs).
    Then the heaviest path or cycle through an edge is a longest one."""
    return wg.weights[wg.graph.edges[0]] if len(set(wg.numerators.values())) == 1 else None


def weighted_path_profile(wg: WeightedGraph) -> EdgeStatProfile:
    """w(p(e)) for every edge: the heaviest path through e."""
    key = ("w_p", wg.denominator, *wg.numerators.values())
    return kept(wg.graph, _weighted_path_profile, wg, key=key)


def _weighted_path_profile(g: Graph, wg: WeightedGraph) -> EdgeStatProfile:
    c = _uniform_weight(wg)
    if c is None:
        return EdgeStatProfile("w_p", _heaviest_through_edges(wg))
    lengths = path_profile(g).values
    return EdgeStatProfile("w_p", {e: c * p for e, p in lengths.items()})


def _heaviest_through_edges(wg: WeightedGraph) -> dict[tuple[int, int], Fraction]:
    """w(p(e)) for every edge, by the subset DP rooted at every vertex."""
    g = wg.graph
    nbrs = _scaled(wg)
    f = _heaviest(nbrs, range(g.n))
    # The heaviest path through ab is a path ending at a with vertex set L,
    # the edge ab, and a path from b that avoids L.  From the full mask down,
    # each live f[mask][a] is read, then overwritten by the heaviest path from
    # a through vertices outside mask, which is what smaller masks read.
    best = [[0] * g.n for _ in range(g.n)]
    for mask in range((1 << g.n) - 1, 0, -1):
        row = f[mask]
        if row is not None:
            for a, val in row.items():
                cont = 0
                for b, w in nbrs[a]:
                    grown = mask | 1 << b
                    if grown != mask:
                        x = w + f[grown][b]
                        if x > cont:
                            cont = x
                        if val + x > best[a][b]:
                            best[a][b] = val + x
                row[a] = cont
    return {(a, b): Fraction(best[a][b], wg.denominator) for a, b in g.edges}


def max_weight_path_through_edge(wg: WeightedGraph, e: tuple[int, int]) -> Fraction:
    e = wg.graph.check_edge(e)
    return weighted_path_profile(wg).values[e]


def max_weight_cycle(wg: WeightedGraph) -> Fraction | None:
    """Largest total weight of a cycle, or None if the graph has no cycle."""
    c = _uniform_weight(wg)
    if c is None:
        return _heaviest_cycle(wg)
    circumference = max(cycle_profile(wg.graph).values.values())
    return c * circumference if circumference > 2 else None


def _heaviest_cycle(wg: WeightedGraph) -> Fraction | None:
    """The heaviest cycle by the subset DP.  For each choice of the cycle's
    least vertex r, grow paths from r through vertices > r and close those
    of at least 3 vertices back to r."""
    nbrs = _scaled(wg)
    best = -1
    for r in range(len(nbrs)):
        sub = [[(u - r, w) for u, w in nbrs[v] if u >= r] for v in range(r, len(nbrs))]
        for mask, row in enumerate(_heaviest(sub, (0,))):
            if row is not None and mask.bit_count() >= 3:
                for u, w in sub[0]:
                    if u in row and row[u] + w > best:
                        best = row[u] + w
    return None if best < 0 else Fraction(best, wg.denominator)
