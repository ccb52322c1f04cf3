"""Core graph types, graph6 codec, canonical forms, and small-graph enumeration.

Graphs are simple, undirected, on vertices 0..n-1 with n <= 32, stored
immutably as per-vertex adjacency bitsets (Python ints).  Edge lists are
always reported in canonical order: (min(u, v), max(u, v)), lexicographic.

The graph6 codec follows the standard format: a length byte N(n) = n + 63,
then the upper triangle of the adjacency matrix read column by column
((0,1); (0,2),(1,2); (0,3),...), packed into 6-bit groups, most significant
bit first, each group + 63.  Padding bits must be zero.

Canonical forms (n <= 9) minimize that same bit sequence, the key, over all
n! relabelings, so equal canonical forms mean isomorphic, exactly.  The
search is a depth-first branch and bound over labels 0, 1, ...: label j may
go to any vertex of the cell of unplaced vertices whose column (edges to
labels 0..j-1) is least, which bitset refinement finds, and a branch is
followed only while its columns equal the best ones found so far, label by
label.  Twins (same neighbours apart from each other) take labels in index
order, since permuting twins is an automorphism.  Enumeration is orderly: a
canonical (n-1)-vertex key plus one new column is kept iff the search,
bounded by that key, finds no relabeling with a smaller column where all
earlier ones tie; it stops at the first one it finds.

Connectivity and cut structure come from bitset reachability alone, one
vertex mask grown along the adjacency bitsets: components, cut vertices
(whose deletion leaves more components) and bridges (edges uv whose
deletion leaves v unreachable from u).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rationals import format_rational, parse_rational

MAX_VERTICES = 32
CANON_CAP = 9  # largest order for canonical forms and enumeration


class Graph:
    """Immutable simple graph with bitset adjacency."""

    __slots__ = ("n", "adj", "edges")

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
        return hash((self.n, self.adj))

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


def write_graph6(g: Graph) -> str:
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
    return "".join(chars)


# ---------------------------------------------------------------------------
# canonical forms and isomorph-free enumeration


def _min_key(adj: Sequence[int], bound: int | None = None) -> int:
    """Least key over all relabelings of the graph with adjacency bitsets
    adj.  Given the key of some relabeling as bound, it returns bound iff
    bound is the least key, and otherwise a smaller number, as soon as one
    column of a relabeling falls below the bound's."""
    n = len(adj)
    if n < 2:
        return 0
    full = (1 << n) - 1
    # twins_before[v]: the lower-index twins of v, which take labels first
    # (equal open neighbourhoods if they are not adjacent, equal closed
    # ones if they are), found by grouping on both in one pass
    twins_before = []
    groups: dict[int, int] = {}
    for v, a in enumerate(adj):
        bit = 1 << v
        same_open = groups.get(a, 0)
        same_closed = groups.get(a | bit, 0)
        twins_before.append(same_open | same_closed)
        groups[a] = same_open | bit
        groups[a | bit] = same_closed | bit
    # best[j]: column j of the bound, or of the least key found so far
    # (2^j while there is none)
    if bound is None:
        best = [0] + [1 << j for j in range(1, n)]
    else:
        best, rest = [0] * n, bound
        for j in range(n - 1, 0, -1):
            best[j], rest = rest & ((1 << j) - 1), rest >> j
    labels = [0] * n

    def search(j: int, placed: int, cell: int, c: int) -> int | None:
        # labels 0..j-1 are placed; cell holds the unplaced vertices whose
        # column c (their edges to labels 0..j-1) is least, so label j goes
        # to one of them
        if c > best[j]:
            return None
        if c < best[j]:
            if bound is not None:
                after = n * (n - 1) // 2 - j * (j + 1) // 2  # bits after column j
                return (bound >> after + j << j | c) << after
            best[j] = c
            best[j + 1 :] = [1 << i for i in range(j + 1, n)]
        if j == n - 1:
            return None
        todo = cell
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            if twins_before[v] & ~placed:
                continue
            labels[j] = v
            # the least column after label j: split the rest of this cell by
            # adjacency to v or, if v was its last vertex, refine afresh
            sub, col, refine = cell ^ low, c, (v,)
            if not sub:
                sub, col, refine = full & ~(placed | low), 0, labels[: j + 1]
            for w in refine:
                t = sub & ~adj[w]
                if t:
                    sub, col = t, col << 1
                else:
                    col = col << 1 | 1
            found = search(j + 1, placed | low, sub, col)
            if found is not None:
                return found
        return None

    found = search(0, 0, full, 0)
    if bound is not None:
        return bound if found is None else found
    key = 0
    for j in range(1, n):
        key = key << j | best[j]
    return key


def _graph_from_key(n: int, key: int) -> Graph:
    return Graph(n, [e for t, e in enumerate(reversed(_edge_order(n))) if key >> t & 1])


def canonical_form(g: Graph) -> bytes:
    """graph6 record of the canonically relabeled graph; equal iff isomorphic."""
    if g.n > CANON_CAP:
        raise ValueError(f"canonical forms support n <= {CANON_CAP}, got {g.n}")
    return write_graph6(_graph_from_key(g.n, _min_key(g.adj))).encode("ascii")


def _representatives(n: int) -> Iterator[tuple[int, list[int]]]:
    """Canonical keys of the n-vertex classes, ascending, each with its
    adjacency bitsets.  A child's key is parent << (n-1) | col with
    col < 2^(n-1), so the children of ascending parents come out ascending;
    its adjacency is the parent's plus vertex n-1, adjacent to vertex i iff
    bit n-2-i of col is set.  The child is kept iff the depth-first search
    bounded by its key finds no relabeling that undercuts one of the key's
    columns where all earlier columns tie; it rejects at the first such
    relabeling.  Only the n open generators are kept."""
    if n == 1:
        yield 0, [0]
        return
    top = n - 1
    # nbrs[col]: the neighbour bitset of vertex n-1 given column col
    nbrs = [sum((col >> (top - 1 - i) & 1) << i for i in range(top))
            for col in range(1 << top)]
    for parent, padj in _representatives(top):
        for col, nb in enumerate(nbrs):
            k = parent << top | col
            adj = [a | (nb >> i & 1) << top for i, a in enumerate(padj)]
            adj.append(nb)
            if _min_key(adj, k) == k:
                yield k, adj


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Isomorph-free stream of all graphs on n vertices, 1 <= n <= CANON_CAP,
    as canonical forms in ascending key order.  Orderly generation (Read
    1978; Faradzev 1978): each class is found once, as a canonical
    (n-1)-vertex key plus the one new column that no relabeling undercuts."""
    if not 1 <= n <= CANON_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {CANON_CAP}, got {n}")
    for key, _ in _representatives(n):
        g = _graph_from_key(n, key)
        if connected_only and not is_connected(g):
            continue
        yield g


# ---------------------------------------------------------------------------
# connectivity and cut structure


def _reach(adj: tuple[int, ...], v: int, within: int) -> int:
    """Mask of the vertices that v reaches in the graph with adjacency
    bitsets adj, through vertices of the vertex mask `within` only."""
    comp = frontier = 1 << v
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def component_masks(g: Graph, within: int | None = None) -> list[int]:
    """Vertex masks of the components of g, or of g[within] for a vertex
    mask `within`, in order of their least vertex."""
    full = (1 << g.n) - 1
    within = full if within is None else within & full
    out = []
    while within:
        comp = _reach(g.adj, (within & -within).bit_length() - 1, within)
        within ^= comp
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


def is_clique(g: Graph, mask: int) -> bool:
    """Whether the vertices of a vertex mask are pairwise adjacent."""
    return all((g.adj[u] | 1 << u) & mask == mask for u in mask_vertices(mask))


def connected_components(g: Graph) -> list[list[int]]:
    return [mask_vertices(m) for m in component_masks(g)]


def is_connected(g: Graph) -> bool:
    return len(component_masks(g)) <= 1


def cut_vertices(g: Graph) -> list[int]:
    """Articulation points: the vertices whose deletion leaves more
    components."""
    full = (1 << g.n) - 1
    k = len(component_masks(g))
    return [v for v in range(g.n) if len(component_masks(g, full ^ 1 << v)) > k]


def _is_bridge(g: Graph, u: int, v: int) -> bool:
    """Whether v is unreachable from u once the edge uv is deleted, that is,
    whether no other neighbour of u is reachable from v in g - u."""
    rest = ((1 << g.n) - 1) ^ (1 << u)
    return not _reach(g.adj, v, rest) & g.adj[u] & ~(1 << v)


def cut_edges_and_2ec_pieces(g: Graph) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """Bridges of g, plus the components left after deleting them.

    Deleting exactly the returned cut edges yields the returned pieces as
    components, and no piece has a cut edge of its own.
    """
    bridges = [e for e in g.edges if _is_bridge(g, *e)]
    stripped = Graph(g.n, [e for e in g.edges if e not in bridges])
    return bridges, connected_components(stripped)


def is_two_edge_connected(g: Graph) -> bool:
    """Connected with no cut edge."""
    return is_connected(g) and not any(_is_bridge(g, u, v) for u, v in g.edges)


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
        for i, line in enumerate(text.split("\n"))
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
