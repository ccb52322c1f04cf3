"""Exact per-edge, rooted, clique, and weighted longest-path statistics.

The unweighted statistics run on a subset dynamic program packed into big
integers: for a fixed source s, F[u] is an integer whose bit at position
`mask` is set iff some simple path from s covering exactly the vertices of
`mask` ends at u.  One transition round ORs neighbor tables, keeps only
masks missing u, and shifts by 2^u to add u; a fixpoint is reached in at
most n rounds.  Per-size mask filters, per-vertex "mask avoids v" filters,
and a subset-closure table then answer every through-edge question with a
handful of big-integer AND/OR operations, which is what makes exhaustive
n <= 7 corpora cheap.

Weighted statistics use the graph's weight-independent skeleton instead:
all maximal simple paths are enumerated once per graph and cached, and each
weighting is an exact Fraction scan over them.  With nonnegative weights a
maximum-weight path can always be extended to a maximal one, so the scan is
exact.  Maximum-weight cycles get a small Fraction-valued subset DP rooted
at each cycle's minimum vertex.

Everything returns ints or Fractions; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from .graphs import Graph, WeightedGraph, induced_subgraph, is_connected

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
def _popcounts(n: int) -> tuple[int, ...]:
    return tuple(m.bit_count() for m in range(1 << n))


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
        self._pop = _popcounts(g.n)
        self._from = [self._table_from(s) for s in range(g.n)]
        self._union = [reduce(or_, t, 0) for t in self._from]
        self._lmax = [self._max_size(u) for u in self._union]
        self._tdis: dict[int, list[int]] = {}
        self._avoid: dict[tuple[int, int], list[int]] = {}

    def _max_size(self, maskset: int) -> int:
        for k in range(self.n, 0, -1):
            if maskset & self._sizes[k]:
                return k
        return 0

    def _table_from(self, s: int, banned: int = 0) -> list[int]:
        adj = self.g.adj
        table = [0] * self.n
        if banned >> s & 1:
            return table
        table[s] = 1 << (1 << s)
        changed = True
        while changed:
            changed = False
            for u in range(self.n):
                if banned >> u & 1:
                    continue
                acc = 0
                nb = adj[u] & ~banned
                while nb:
                    low = nb & -nb
                    nb ^= low
                    acc |= table[low.bit_length() - 1]
                grown = (acc & self._wo[u]) << (1 << u) & ~table[u]
                if grown:
                    table[u] |= grown
                    changed = True
        return table

    def _avoid_table(self, s: int, banned_vertex: int) -> list[int]:
        key = (s, banned_vertex)
        if key not in self._avoid:
            self._avoid[key] = self._table_from(s, 1 << banned_vertex)
        return self._avoid[key]

    def _tdisjoint(self, y: int) -> list[int]:
        """T[l]: bit M set iff some path-mask from y of size l is disjoint from M."""
        if y not in self._tdis:
            sub = _subset_closure(self.n)
            t = [0] * (self.n + 1)
            x = self._union[y]
            while x:
                low = x & -x
                x ^= low
                m = low.bit_length() - 1
                t[self._pop[m]] |= sub[self.full ^ m]
            self._tdis[y] = t
        return self._tdis[y]

    def _join_best(self, a_masks: int, y: int) -> int:
        """max |M1| + |M2| over M1 in a_masks, M2 a path-mask from y, disjoint."""
        tdis = self._tdisjoint(y)
        lmax = self._lmax[y]
        best = 0
        for k in range(self.n, 0, -1):
            if k + lmax <= best:
                break
            ak = a_masks & self._sizes[k]
            if not ak:
                continue
            for l in range(lmax, 0, -1):
                if k + l <= best:
                    break
                if ak & tdis[l]:
                    best = k + l
                    break
        return best

    # -- queries ------------------------------------------------------------

    def longest_path(self) -> int:
        if self.n == 0:
            return 0
        return self._max_size(reduce(or_, self._union, 0)) - 1

    def vpath(self, v: int) -> int:
        return self._lmax[v] - 1

    def edge_path(self, a: int, b: int) -> int:
        masks = self._union[a] & self._wo[b]
        return self._join_best(masks, b) - 1

    def edge_cycle(self, a: int, b: int) -> int:
        masks = self._from[a][b]
        for k in range(self.n, 2, -1):
            if masks & self._sizes[k]:
                return k
        return 2

    def vpath_edge(self, v: int, a: int, b: int) -> int:
        best = 0
        for x, y in ((a, b), (b, a)):
            if y == v:
                continue
            masks = self._avoid_table(v, y)[x]
            if masks:
                best = max(best, self._join_best(masks, y))
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
    best = s - 1
    inner = set(vs)
    for x, y in combinations(vs, 2):
        keep = [w for w in range(g.n) if w not in inner or w in (x, y)]
        sub = induced_subgraph(g, keep)
        xi, yi = keep.index(x), keep.index(y)
        best = max(best, longest_path_through_edge(sub, (xi, yi)) + s - 2)
    return best


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


@lru_cache(maxsize=512)
def _maximal_paths(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every maximal simple path, once (lex-min orientation kept)."""
    out: list[tuple[int, ...]] = []
    adj = g.adj

    def extend(seq: list[int], mask: int) -> None:
        ext = adj[seq[-1]] & ~mask
        if not ext:
            if not adj[seq[0]] & ~mask:
                t = tuple(seq)
                if t <= t[::-1]:
                    out.append(t)
            return
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            seq.append(w)
            extend(seq, mask | low)
            seq.pop()

    for v in range(g.n):
        extend([v], 1 << v)
    return tuple(out)


def _path_weight(wg: WeightedGraph, seq: tuple[int, ...]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(seq, seq[1:]):
        total += wg.weights[(a, b) if a < b else (b, a)]
    return total


def max_weight_path(wg: WeightedGraph) -> Fraction:
    """Largest total weight of a simple path (0 for empty or edgeless graphs)."""
    best = Fraction(0)
    for seq in _maximal_paths(wg.graph):
        w = _path_weight(wg, seq)
        if w > best:
            best = w
    return best


def weighted_path_profile(wg: WeightedGraph) -> EdgeStatProfile:
    """w(p(e)) for every edge: the heaviest path through e."""
    g = wg.graph
    best = dict(wg.weights)
    for seq in _maximal_paths(g):
        w = _path_weight(wg, seq)
        for a, b in zip(seq, seq[1:]):
            e = (a, b) if a < b else (b, a)
            if w > best[e]:
                best[e] = w
    return EdgeStatProfile("w_p", best)


def max_weight_path_through_edge(wg: WeightedGraph, e: tuple[int, int]) -> Fraction:
    e = wg.graph.check_edge(e)
    return weighted_path_profile(wg).values[e]


def max_weight_cycle(wg: WeightedGraph) -> Fraction | None:
    """Largest total weight of a cycle, or None if the graph has no cycle.

    Fraction-valued subset DP: for each choice of the cycle's minimum vertex
    r, grow paths from r through vertices > r and close back to r.
    """
    g = wg.graph
    n = g.n
    if n > TABLE_CAP:
        raise ValueError(f"subset-DP statistics support n <= {TABLE_CAP}, got {n}")
    best: Fraction | None = None
    for r in range(n):
        tables: dict[int, dict[int, Fraction]] = {1 << r: {r: Fraction(0)}}
        for k in range(1 << (n - r - 1)):
            mask = (1 << r) | (k << (r + 1))
            ends = tables.get(mask)
            if not ends:
                continue
            for end, val in ends.items():
                nb = g.adj[end] & ~mask & ~((1 << r) - 1)
                if end != r and g.adj[end] >> r & 1 and mask.bit_count() >= 3:
                    cand = val + wg.weight(end, r)
                    if best is None or cand > best:
                        best = cand
                while nb:
                    low = nb & -nb
                    nb ^= low
                    w = low.bit_length() - 1
                    nxt = val + wg.weight(end, w)
                    bucket = tables.setdefault(mask | low, {})
                    if w not in bucket or nxt > bucket[w]:
                        bucket[w] = nxt
            del tables[mask]
    return best
