"""Exact per-edge, rooted, clique, and weighted longest-path statistics.

The unweighted statistics run on a subset dynamic program packed into big
integers: for a fixed source s, F[u] is an integer whose bit at position
`mask` is set iff some simple path from s covering exactly the vertices of
`mask` ends at u.  One transition round ORs neighbor tables, keeps only
masks missing u, and shifts by 2^u to add u; a fixpoint is reached in at
most n rounds.  Every path query is then one join.  For each vertex y, the
level set S_y[j] has bit M set iff some path from y avoids M and has
j - |M| vertices, so the largest |M1| + |M2| over masks M1 of a given set and
paths M2 from y disjoint from them is the largest j where the set meets
S_y[j].  p(ab) joins the paths from a with b, p_v(ab) the paths from v that
end at one end of ab with the other end, and ell(v) the empty mask with v;
p(S) first shifts the masks that avoid the rest of S onto it.  c(ab) is the
largest path mask from a to b with at least 3 vertices, or 2.  The level
sets are built once per vertex; no per-edge, per-root or per-clique tables
are built.

Weighted statistics scale the weights to integers by the lcm d of their
denominators and run one max-weight subset DP (Bellman 1962; Held & Karp
1962) over reached states only: t[mask] is None, or maps each end v of a path
from a root on exactly the vertices of mask to the heaviest such path.  Rooted
at every vertex, with the heaviest continuation from each state, it gives
w(p(e)) for every edge: one profile, cached per weighting as the PathEngine is
per graph, that yields the heaviest path and each w(e)/w(p(e)) as an integer
over one denominator.  Rooted at a cycle's least vertex r, on the vertices
>= r, it gives the heaviest cycle.  Each result is divided by d once.

Everything returns ints or Fractions; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm
from operator import or_

from .graphs import Graph, WeightedGraph, is_connected

TABLE_CAP = 12

EDGE_STAT_KINDS = ("p", "c", "p_v", "mu", "s", "w_p")
CLIQUE_STAT_KINDS = ("p_S", "s_K")


@dataclass(frozen=True)
class EdgeStatProfile:
    """One statistic evaluated on every edge of a graph."""

    kind: str
    values: dict
    root: int | None = None

    def __post_init__(self):
        if self.kind not in EDGE_STAT_KINDS:
            raise ValueError(f"unknown edge statistic kind {self.kind!r}")
        if (self.kind == "p_v") != (self.root is not None):
            raise ValueError("root is required for p_v and disallowed otherwise")


@dataclass(frozen=True)
class CliqueStatProfile:
    """One statistic evaluated on every clique of a fixed order s."""

    kind: str
    s: int
    values: dict

    def __post_init__(self):
        if self.kind not in CLIQUE_STAT_KINDS:
            raise ValueError(f"unknown clique statistic kind {self.kind!r}")
        if self.s < 1:
            raise ValueError("clique order must be >= 1")


# ---------------------------------------------------------------------------
# mask-lattice constants, cached per n


@lru_cache(maxsize=None)
def _size_masks(n: int) -> tuple[int, ...]:
    """out[k]: bit at position mask set iff |mask| == k."""
    out = [0] * (n + 1)
    for m in range(1 << n):
        out[m.bit_count()] |= 1 << m
    return tuple(out)


@lru_cache(maxsize=None)
def _without_vertex(n: int) -> tuple[int, ...]:
    """out[v]: bit at position mask set iff v not in mask."""
    out = []
    for v in range(n):
        block = (1 << (1 << v)) - 1
        period = 1 << (v + 1)
        val = 0
        for base in range(0, 1 << n, period):
            val |= block << base
        out.append(val)
    return tuple(out)


@lru_cache(maxsize=None)
def _subset_closure(n: int) -> tuple[int, ...]:
    """out[m]: bit at position x set iff x is a subset of m."""
    size = 1 << n
    sub = [0] * size
    sub[0] = 1
    for m in range(1, size):
        lb = m & -m
        prev = sub[m ^ lb]
        sub[m] = prev | (prev << lb)
    return tuple(sub)


class PathEngine:
    """Per-graph subset-DP tables answering exact path queries."""

    def __init__(self, g: Graph):
        if g.n > TABLE_CAP:
            raise ValueError(f"subset-DP statistics support n <= {TABLE_CAP}, got {g.n}")
        self.g = g
        self.n = g.n
        self.full = (1 << g.n) - 1
        self._sizes = _size_masks(g.n)
        self._wo = _without_vertex(g.n)
        self._from = [self._table_from(s) for s in range(g.n)]
        self._union = [reduce(or_, t, 0) for t in self._from]
        self._levels: dict[int, list[int]] = {}

    def _table_from(self, s: int) -> list[int]:
        adj = self.g.adj
        table = [0] * self.n
        table[s] = 1 << (1 << s)
        changed = True
        while changed:
            changed = False
            for u in range(self.n):
                acc = 0
                nb = adj[u]
                while nb:
                    low = nb & -nb
                    nb ^= low
                    acc |= table[low.bit_length() - 1]
                grown = (acc & self._wo[u]) << (1 << u) & ~table[u]
                if grown:
                    table[u] |= grown
                    changed = True
        return table

    def _level_sets(self, y: int) -> list[int]:
        """S[j]: bit M set iff some path mask M2 from y is disjoint from M
        and |M| + |M2| = j.  Bit 0 of S[j] (M empty) says a path from y has
        j vertices."""
        if y not in self._levels:
            sub = _subset_closure(self.n)
            levels = [0] * (self.n + 1)
            for size in range(1, self.n + 1):
                x = self._union[y] & self._sizes[size]
                avoid = 0  # bit M set iff M avoids some path mask of this size
                while x:
                    low = x & -x
                    x ^= low
                    avoid |= sub[self.full ^ (low.bit_length() - 1)]
                for k in range(self.n + 1 - size):
                    levels[k + size] |= self._sizes[k] & avoid
            self._levels[y] = levels
        return self._levels[y]

    def _top(self, masks: int, levels: list[int] | tuple[int, ...]) -> int:
        """The largest j with masks & levels[j] nonzero, or 0 if none."""
        for j in range(self.n, 0, -1):
            if masks & levels[j]:
                return j
        return 0

    def _join(self, masks: int, y: int) -> int:
        """max |M1| + |M2| over M1 in masks, M2 a path mask from y, disjoint."""
        return self._top(masks, self._level_sets(y))

    # -- queries ------------------------------------------------------------

    def longest_path(self) -> int:
        return max((self.vpath(v) for v in range(self.n)), default=0)

    def vpath(self, v: int) -> int:
        return self._join(1, v) - 1

    def edge_path(self, a: int, b: int, banned: int = 0) -> int:
        """p(ab) in G - banned.  Shifting the masks from a that avoid banned
        by `banned` adds banned to each, so the join keeps b's half off it."""
        masks = self._union[a] & _subset_closure(self.n)[self.full ^ banned]
        return self._join(masks << banned, b) - banned.bit_count() - 1

    def edge_cycle(self, a: int, b: int) -> int:
        """The largest path mask of at least 3 vertices from a to b, or 2."""
        return self._top(self._from[a][b] & ~self._sizes[2], self._sizes) or 2

    def vpath_edge(self, v: int, a: int, b: int) -> int:
        best = max(
            self._join(self._from[v][x], y) for x, y in ((a, b), (b, a)) if y != v
        )
        if best == 0:
            raise ValueError(
                f"no path from {v} through edge ({a}, {b}); input must be connected"
            )
        return best - 1


@lru_cache(maxsize=512)
def _engine(g: Graph) -> PathEngine:
    return PathEngine(g)


# ---------------------------------------------------------------------------
# unweighted path and cycle statistics


def longest_path(g: Graph) -> int:
    """Number of edges of a longest simple path (0 for edgeless graphs)."""
    return _engine(g).longest_path() if g.n else 0


def longest_vpath(g: Graph, v: int) -> int:
    """ell_G(v): edges of a longest simple path starting at v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _engine(g).vpath(v)


def longest_path_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """p(e): edges of a longest simple path using e.  Always >= 1."""
    a, b = g.check_edge(e)
    return _engine(g).edge_path(a, b)


def longest_cycle_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """c(e): vertices of a longest cycle using e, with c(e) = 2 for cut edges."""
    a, b = g.check_edge(e)
    return _engine(g).edge_cycle(a, b)


def longest_vpath_through_edge(g: Graph, v: int, e: tuple[int, int]) -> int:
    """p_v(e): edges of a longest simple path starting at v and using e."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not is_connected(g):
        raise ValueError("p_v(e) requires a connected graph")
    a, b = g.check_edge(e)
    return _engine(g).vpath_edge(v, a, b)


def path_profile(g: Graph) -> EdgeStatProfile:
    eng = _engine(g)
    return EdgeStatProfile("p", {e: eng.edge_path(*e) for e in g.edges})


def cycle_profile(g: Graph) -> EdgeStatProfile:
    eng = _engine(g)
    return EdgeStatProfile("c", {e: eng.edge_cycle(*e) for e in g.edges})


def vpath_profile(g: Graph, v: int) -> EdgeStatProfile:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not is_connected(g):
        raise ValueError("p_v(e) requires a connected graph")
    eng = _engine(g)
    return EdgeStatProfile("p_v", {e: eng.vpath_edge(v, *e) for e in g.edges}, root=v)


def star_size_through_edge(g: Graph, e: tuple[int, int]) -> int:
    """s(e): leaves of a largest star subgraph containing e."""
    u, v = g.check_edge(e)
    return max(g.degree(u), g.degree(v))


def star_profile(g: Graph) -> EdgeStatProfile:
    return EdgeStatProfile("s", {e: star_size_through_edge(g, e) for e in g.edges})


# ---------------------------------------------------------------------------
# matchings


@lru_cache(maxsize=2048)
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
    return match_table(g)[(1 << g.n) - 1] if g.n else 0


def max_matching(g: Graph) -> list[tuple[int, int]]:
    """One maximum matching, reconstructed deterministically from the table."""
    table = match_table(g)
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
    u, v = g.check_edge(e)
    table = match_table(g)
    return 1 + table[((1 << g.n) - 1) ^ (1 << u) ^ (1 << v)]


def matching_profile(g: Graph) -> EdgeStatProfile:
    return EdgeStatProfile("mu", {e: max_matching_containing_edge(g, e) for e in g.edges})


def f_edge_set(g: Graph) -> list[tuple[int, int]]:
    """Edges contained in no maximum matching."""
    mu = matching_number(g)
    return [e for e in g.edges if max_matching_containing_edge(g, e) == mu - 1]


# ---------------------------------------------------------------------------
# cliques


def enumerate_cliques(g: Graph, s: int) -> list[tuple[int, ...]]:
    """All cliques on exactly s vertices, as sorted tuples in lex order."""
    if s < 1:
        raise ValueError("clique order must be >= 1")
    if s == 1:
        return [(v,) for v in range(g.n)]
    out: list[tuple[int, ...]] = []
    adj = g.adj

    def extend(members: list[int], common: int) -> None:
        if len(members) == s:
            out.append(tuple(members))
            return
        c = common
        while c:
            low = c & -c
            c ^= low
            v = low.bit_length() - 1
            members.append(v)
            extend(members, common & adj[v] & ~((1 << (v + 1)) - 1))
            members.pop()

    for v in range(g.n):
        extend([v], adj[v] & ~((1 << (v + 1)) - 1))
    return out


def clique_count(g: Graph, s: int) -> int:
    """n_s(G): number of s-vertex cliques."""
    return len(enumerate_cliques(g, s))


def _check_clique(g: Graph, vertices) -> tuple[int, ...]:
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("clique must be nonempty")
    if len(set(vs)) != len(vs):
        raise ValueError("clique has repeated vertices")
    if not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("clique vertices out of range")
    for a, b in combinations(vs, 2):
        if not g.has_edge(a, b):
            raise ValueError(f"vertices {vs} are not a clique: ({a}, {b}) missing")
    return vs


def longest_path_with_consecutive_clique(g: Graph, clique) -> int:
    """p(S): edges of a longest path whose vertex sequence contains all of S
    as one consecutive block (any internal order).  At least len(S) - 1."""
    vs = _check_clique(g, clique)
    s = len(vs)
    if s == 1:
        v = vs[0]
        if g.degree(v) == 0:
            return 0
        eng = _engine(g)
        return max(eng.edge_path(*g.check_edge((v, w))) for w in g.neighbors(v))
    # S is a block x ... y: a path through xy in G - (S - x - y), with the
    # other s - 2 vertices of S put between x and y.
    kmask = sum(1 << v for v in vs)
    eng = _engine(g)
    return max(
        eng.edge_path(x, y, kmask ^ 1 << x ^ 1 << y) + s - 2
        for x, y in combinations(vs, 2)
    )


def max_star_over_clique(g: Graph, clique, require_center_in_clique: bool = False) -> int:
    """s(K): leaves of a largest star whose leaf set covers the clique K.

    Centers may sit inside K, or outside K when adjacent to all of K; the
    strict variant restricts centers to K.
    """
    vs = _check_clique(g, clique)
    kmask = 0
    for v in vs:
        kmask |= 1 << v
    best = max(g.degree(c) for c in vs)
    if not require_center_in_clique:
        for c in range(g.n):
            if kmask >> c & 1:
                continue
            if g.adj[c] & kmask == kmask:
                best = max(best, g.degree(c))
    return best


def clique_path_profile(g: Graph, s: int) -> CliqueStatProfile:
    values = {
        k: longest_path_with_consecutive_clique(g, k) for k in enumerate_cliques(g, s)
    }
    return CliqueStatProfile("p_S", s, values)


def clique_star_profile(
    g: Graph, s: int, require_center_in_clique: bool = False
) -> CliqueStatProfile:
    values = {
        k: max_star_over_clique(g, k, require_center_in_clique)
        for k in enumerate_cliques(g, s)
    }
    return CliqueStatProfile("s_K", s, values)


# ---------------------------------------------------------------------------
# weighted statistics


def _scaled(wg: WeightedGraph) -> tuple[int, list[list[tuple[int, int]]]]:
    """d, the lcm of the weight denominators, and per vertex v the pairs
    (u, d * w(vu)) over the neighbours u of v."""
    g = wg.graph
    if g.n > TABLE_CAP:
        raise ValueError(f"subset-DP statistics support n <= {TABLE_CAP}, got {g.n}")
    d = lcm(*(w.denominator for w in wg.weights.values()))
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (a, b), w in wg.weights.items():
        w = w.numerator * (d // w.denominator)
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    return d, nbrs


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
    wp = weighted_path_profile(wg).values
    d = lcm(*(w.denominator for w in wg.weights.values()))
    # w(e)/w(p(e)) = a/b with the integers a = d w(e) and b = d w(p(e))
    ab = {e: (w.numerator * d // w.denominator, wp[e].numerator * d // wp[e].denominator)
          for e, w in wg.weights.items()}
    den = lcm(*(b for a, b in ab.values() if a))
    return den, {e: a * (den // b) if a else 0 for e, (a, b) in ab.items()}


def weighted_path_ratios(wg: WeightedGraph) -> dict[tuple[int, int], Fraction]:
    """w(e)/w(p(e)) for every edge, and 0 on a zero-weight edge."""
    den, terms = weighted_ratio_terms(wg)
    return {e: Fraction(x, den) for e, x in terms.items()}


# reports_for_graph runs weighted-mt on every weighting of a graph before fmr
# reads the same profiles, so up to 64 trials per graph share one DP run each.
@lru_cache(maxsize=64)
def weighted_path_profile(wg: WeightedGraph) -> EdgeStatProfile:
    """w(p(e)) for every edge: the heaviest path through e."""
    g = wg.graph
    d, nbrs = _scaled(wg)
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
    return EdgeStatProfile("w_p", {(a, b): Fraction(best[a][b], d) for a, b in g.edges})


def max_weight_path_through_edge(wg: WeightedGraph, e: tuple[int, int]) -> Fraction:
    return weighted_path_profile(wg).values[wg.graph.check_edge(e)]


def max_weight_cycle(wg: WeightedGraph) -> Fraction | None:
    """Largest total weight of a cycle, or None if the graph has no cycle.

    For each choice of the cycle's least vertex r, grow paths from r through
    vertices > r and close those of at least 3 vertices back to r.
    """
    d, nbrs = _scaled(wg)
    best = -1
    for r in range(len(nbrs)):
        sub = [[(u - r, w) for u, w in nbrs[v] if u >= r] for v in range(r, len(nbrs))]
        for mask, row in enumerate(_heaviest(sub, (0,))):
            if row is not None and mask.bit_count() >= 3:
                for u, w in sub[0]:
                    if u in row and row[u] + w > best:
                        best = row[u] + w
    return None if best < 0 else Fraction(best, d)
