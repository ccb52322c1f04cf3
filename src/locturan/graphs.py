"""Core graph types, graph6 codec, canonical forms, and small-graph enumeration.

Graphs are simple, undirected, on vertices 0..n-1 with n <= 32, stored
immutably as per-vertex adjacency bitsets (Python ints).  Edge lists are
always reported in canonical order: (min(u, v), max(u, v)), lexicographic.

The graph6 codec follows the standard format: a length byte N(n) = n + 63,
then the upper triangle of the adjacency matrix read column by column
((0,1); (0,2),(1,2); (0,3),...), packed into 6-bit groups, most significant
bit first, each group + 63.  Padding bits must be zero.

Canonical forms (n <= 8) come from brute-force minimization of that same
bit sequence over all n! relabelings, so equal canonical forms mean
isomorphic, exactly.  The minimization is one integer matrix product over a
precomputed permutation weight table, which keeps exhaustive n = 7 and n = 8
corpora cheap.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .rationals import format_rational, parse_rational

MAX_VERTICES = 32
_CANON_CAP = 8


class Graph:
    """Immutable simple graph with bitset adjacency."""

    __slots__ = ("n", "adj", "edges", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in [0, {MAX_VERTICES}], got {n}")
        self.n = n
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self.edges = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1
        )
        self._hash = hash((n, self.adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w in range(self.n) if self.adj[v] >> w & 1)

    def check_edge(self, e: tuple[int, int]) -> tuple[int, int]:
        """Normalize an edge to (min, max) order; error if absent."""
        u, v = e
        if not 0 <= u < self.n or not 0 <= v < self.n or not self.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of this graph")
        return (u, v) if u < v else (v, u)

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n, self.edges + tuple(extra))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges)})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star K_{1,n-1} with center 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def disjoint_union(*graphs: Graph) -> Graph:
    edges: list[tuple[int, int]] = []
    off = 0
    for g in graphs:
        edges.extend((u + off, v + off) for u, v in g.edges)
        off += g.n
    return Graph(off, edges)


def join_graphs(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts."""
    base = disjoint_union(g, h)
    cross = [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return base.with_edges(cross)


def permute_graph(g: Graph, perm: Iterable[int]) -> Graph:
    p = tuple(perm)
    if sorted(p) != list(range(g.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return Graph(g.n, [(p[u], p[v]) for u, v in g.edges])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertices out of range")
    pos = {v: i for i, v in enumerate(vs)}
    return Graph(
        len(vs), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    )


# ---------------------------------------------------------------------------
# graph6 codec


def _edge_order(n: int) -> list[tuple[int, int]]:
    # column-major upper triangle, the bit order graph6 uses
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(line: str | bytes) -> Graph:
    if isinstance(line, bytes):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"graph6 input is not ASCII: {exc}") from None
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 record")
    if s[0] == "~":
        raise ValueError("graph6 record with n > 62: vertex counts above 32 unsupported")
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"malformed graph6 length byte {s[0]!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 record has n={n}; vertex counts above {MAX_VERTICES} unsupported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise ValueError(
            f"malformed graph6 record: expected {need} body characters for n={n}, got {len(body)}"
        )
    bits: list[int] = []
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("malformed graph6 record: nonzero padding bits")
    edges = [e for e, b in zip(_edge_order(n), bits) if b]
    return Graph(n, edges)


def write_graph6(g: Graph, header: bool = False) -> str:
    if g.n > MAX_VERTICES:
        raise ValueError("graph too large for this writer")
    bits = [1 if g.has_edge(i, j) else 0 for i, j in _edge_order(g.n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    prefix = ">>graph6<<" if header else ""
    return prefix + "".join(chars)


# ---------------------------------------------------------------------------
# canonical forms and isomorph-free enumeration


@lru_cache(maxsize=None)
def _perm_weights(n: int) -> np.ndarray:
    """Row p, column e: the packed-key weight edge e contributes under perm p."""
    edges = _edge_order(n)
    ecount = len(edges)
    eidx = {e: t for t, e in enumerate(edges)}
    perms = list(itertools.permutations(range(n)))
    w = np.zeros((len(perms), ecount), dtype=np.int64)
    for pi, p in enumerate(perms):
        for t, (i, j) in enumerate(edges):
            a, b = p[i], p[j]
            if a > b:
                a, b = b, a
            w[pi, eidx[(a, b)]] = 1 << (ecount - 1 - t)
    return w


def canonical_key(g: Graph) -> int:
    """Minimum packed upper-triangle bit sequence over all relabelings."""
    if g.n > _CANON_CAP:
        raise ValueError(f"canonical forms support n <= {_CANON_CAP}, got {g.n}")
    edges = _edge_order(g.n)
    eidx = {e: t for t, e in enumerate(edges)}
    bits = np.zeros(len(edges), dtype=np.int64)
    for e in g.edges:
        bits[eidx[e]] = 1
    if not len(edges):
        return 0
    return int((_perm_weights(g.n) @ bits).min())


def _graph_from_key(n: int, key: int) -> Graph:
    edges = _edge_order(n)
    ecount = len(edges)
    return Graph(n, [e for t, e in enumerate(edges) if key >> (ecount - 1 - t) & 1])


def canonical_form(g: Graph) -> bytes:
    """graph6 record of the canonically relabeled graph; equal iff isomorphic."""
    return write_graph6(_graph_from_key(g.n, canonical_key(g))).encode("ascii")


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    keys: set[int] = set()
    for base in _representatives(n - 1):
        for nb in range(1 << (n - 1)):
            extra = [(i, n - 1) for i in range(n - 1) if nb >> i & 1]
            keys.add(canonical_key(Graph(n, base.edges + tuple(extra))))
    return tuple(_graph_from_key(n, k) for k in sorted(keys))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Isomorph-free stream of all graphs on n vertices, 1 <= n <= 8.

    Each (n-1)-vertex representative is extended by every possible
    neighborhood of a new vertex; deleting any vertex of any n-vertex graph
    lands back on some representative, so every isomorphism class appears.
    Deduplication and output order are by canonical key, so the emitted
    graph6 records are already canonical forms.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"enumeration supports 1 <= n <= 8, got {n}")
    for g in _representatives(n):
        if connected_only and not is_connected(g):
            continue
        yield g


# ---------------------------------------------------------------------------
# connectivity and cut structure


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Vertex masks of the components of g, or of g[within] for a vertex
    mask `within`, in order of their least vertex."""
    if within is None:
        within = (1 << g.n) - 1
    seen = 0
    out = []
    for v in range(g.n):
        if not within >> v & 1 or seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= g.adj[low.bit_length() - 1] & within
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(comp)
    return out


def mask_vertices(mask: int) -> list[int]:
    """The vertices in a vertex mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def connected_components(g: Graph) -> list[list[int]]:
    return [mask_vertices(m) for m in component_masks(g)]


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) <= 1


def cut_vertices(g: Graph) -> list[int]:
    """Articulation points, by DFS lowpoints."""
    disc = [-1] * g.n
    low = [0] * g.n
    cut: set[int] = set()
    counter = itertools.count()

    def dfs(u: int, parent: int) -> None:
        disc[u] = low[u] = next(counter)
        children = 0
        for w in g.neighbors(u):
            if disc[w] == -1:
                children += 1
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if parent != -1 and low[w] >= disc[u]:
                    cut.add(u)
            elif w != parent:
                low[u] = min(low[u], disc[w])
        if parent == -1 and children >= 2:
            cut.add(u)

    for v in range(g.n):
        if disc[v] == -1:
            dfs(v, -1)
    return sorted(cut)


def cut_edges_and_2ec_pieces(g: Graph) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Bridges of g, plus the components left after deleting them.

    Deleting exactly the returned cut edges yields the returned pieces as
    components, and no piece has a cut edge of its own.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    bridges: list[tuple[int, int]] = []
    counter = itertools.count()

    def dfs(u: int, parent_edge: tuple[int, int] | None) -> None:
        disc[u] = low[u] = next(counter)
        for w in g.neighbors(u):
            if disc[w] == -1:
                dfs(w, (u, w))
                low[u] = min(low[u], low[w])
                if low[w] > disc[u]:
                    bridges.append((min(u, w), max(u, w)))
            elif parent_edge is None or w != parent_edge[0]:
                low[u] = min(low[u], disc[w])

    for v in range(g.n):
        if disc[v] == -1:
            dfs(v, None)
    bridges.sort()
    stripped = Graph(g.n, [e for e in g.edges if e not in set(bridges)])
    pieces = connected_components(stripped)
    return bridges, pieces


def is_two_edge_connected(g: Graph) -> bool:
    """Connected with no cut edge."""
    if not is_connected(g):
        return False
    return not cut_edges_and_2ec_pieces(g)[0]


# ---------------------------------------------------------------------------
# weighted graphs


class WeightedGraph:
    """A Graph plus one nonnegative rational weight per edge."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: Graph, weights: dict[tuple[int, int], Fraction | int]):
        norm: dict[tuple[int, int], Fraction] = {}
        for (u, v), w in weights.items():
            e = graph.check_edge((u, v))
            if e in norm:
                raise ValueError(f"duplicate weight for edge {e}")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"negative weight {w} on edge {e}")
            norm[e] = w
        missing = [e for e in graph.edges if e not in norm]
        if missing:
            raise ValueError(f"missing weights for edges {missing}")
        self.graph = graph
        self.weights = {e: norm[e] for e in graph.edges}

    @classmethod
    def unit(cls, graph: Graph) -> "WeightedGraph":
        return cls(graph, {e: Fraction(1) for e in graph.edges})

    def weight(self, u: int, v: int) -> Fraction:
        return self.weights[self.graph.check_edge((u, v))]

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightedGraph)
            and self.graph == other.graph
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"WeightedGraph({self.graph!r}, {self.weights!r})"


def seeded_weights(g: Graph, seed: int) -> WeightedGraph:
    """Deterministic random weights a/b, a in [0,9], b in [1,4], per edge."""
    rng = random.Random(seed)
    return WeightedGraph(
        g, {e: Fraction(rng.randint(0, 9), rng.randint(1, 4)) for e in g.edges}
    )


def write_weighted_graph(wg: WeightedGraph) -> str:
    lines = [f"{wg.graph.n} {wg.graph.m}"]
    lines.extend(
        f"{u} {v} {format_rational(wg.weights[(u, v)])}" for u, v in wg.graph.edges
    )
    return "\n".join(lines) + "\n"


def parse_weighted_graph(text: str) -> WeightedGraph:
    """Parse the "n m" header plus "u v p/q" line format."""
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not rows:
        raise ValueError("empty weighted graph input")
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"line {lineno}: expected header 'n m'") from None
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], Fraction] = {}
    for lineno, row in rows[1:]:
        parts = row.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v weight'")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = parse_rational(parts[2])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: expected 'u v weight'") from None
        if not 0 <= u < n or not 0 <= v < n or u == v:
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        e = (min(u, v), max(u, v))
        if e in weights:
            raise ValueError(f"line {lineno}: duplicate edge {e}")
        edges.append(e)
        weights[e] = w
    return WeightedGraph(Graph(n, edges), weights)
