"""Naive enumeration oracles shared by the test suite.

Everything here recomputes statistics by explicit exhaustive enumeration
(paths, cycles, matchings, labeled graphs) using only the Graph adjacency
accessors.  None of it shares code with the package's subset-DP engines,
so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from locturan.graphs import Graph, WeightedGraph


def pytest_collection_modifyitems(config, items):
    """The n9 tests run only when -m names them, as in `pytest -m n9`: a
    plain `pytest` or `pytest -m 'not n8'` leaves them out."""
    if "n9" in config.getoption("markexpr"):
        return
    opt_in = [item for item in items if item.get_closest_marker("n9")]
    if opt_in:
        config.hook.pytest_deselected(items=opt_in)
        items[:] = [item for item in items if not item.get_closest_marker("n9")]


# ---------------------------------------------------------------------------
# path and cycle enumeration


def all_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every simple path on >= 2 vertices, one orientation per path."""
    out: list[tuple[int, ...]] = []

    def extend(seq: tuple[int, ...], used: frozenset[int]) -> None:
        for w in g.neighbors(seq[-1]):
            if w not in used:
                nxt = seq + (w,)
                if nxt[0] < nxt[-1]:
                    out.append(nxt)
                extend(nxt, used | {w})

    for v in range(g.n):
        extend((v,), frozenset((v,)))
    return out


def all_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle (>= 3 vertices), one rotation and direction each."""
    out: list[tuple[int, ...]] = []

    def extend(seq: tuple[int, ...], used: frozenset[int]) -> None:
        for w in g.neighbors(seq[-1]):
            if w == seq[0] and len(seq) >= 3:
                if seq[1] < seq[-1]:
                    out.append(seq)
            elif w not in used and w > seq[0]:
                extend(seq + (w,), used | {w})

    for v in range(g.n):
        extend((v,), frozenset((v,)))
    return out


def path_edges(seq: tuple[int, ...]) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])}


def cycle_edges(seq: tuple[int, ...]) -> set[tuple[int, int]]:
    closed = seq + (seq[0],)
    return path_edges(closed)


def naive_longest_path(g: Graph) -> int:
    return max((len(p) - 1 for p in all_paths(g)), default=0)


def naive_p_edge(g: Graph, e: tuple[int, int]) -> int:
    return max(len(p) - 1 for p in all_paths(g) if e in path_edges(p))


def naive_c_edge(g: Graph, e: tuple[int, int]) -> int:
    best = max((len(c) for c in all_cycles(g) if e in cycle_edges(c)), default=2)
    return best


def naive_l_v(g: Graph, v: int) -> int:
    return max((len(p) - 1 for p in all_paths(g) if v in (p[0], p[-1])), default=0)


def naive_pv_edge(g: Graph, v: int, e: tuple[int, int]) -> int:
    return max(
        len(p) - 1
        for p in all_paths(g)
        if v in (p[0], p[-1]) and e in path_edges(p)
    )


def naive_p_clique(g: Graph, block: tuple[int, ...]) -> int:
    """Longest path holding the clique's vertices in consecutive positions."""
    want = set(block)
    best = len(block) - 1 if len(block) > 1 else 0
    for p in all_paths(g):
        if not want <= set(p):
            continue
        idx = [i for i, x in enumerate(p) if x in want]
        if idx[-1] - idx[0] == len(block) - 1:
            best = max(best, len(p) - 1)
    return best


def naive_s_clique(g: Graph, block: tuple[int, ...], center_inside: bool = False) -> int:
    """Largest star whose vertex set contains the clique."""
    best = 0
    members = set(block)
    for c in range(g.n):
        leaves = set(g.neighbors(c))
        if c in members:
            needed = members - {c}
        elif center_inside:
            continue
        else:
            needed = members
        if needed <= leaves:
            best = max(best, g.degree(c))
    return best


# ---------------------------------------------------------------------------
# matchings


def all_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    edges = g.edges
    out: list[frozenset[tuple[int, int]]] = []

    def extend(i: int, used: frozenset[int], cur: tuple) -> None:
        out.append(frozenset(cur))
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                extend(j + 1, used | {u, v}, cur + (edges[j],))

    extend(0, frozenset(), ())
    return out


def naive_mu(g: Graph) -> int:
    return max(len(m) for m in all_matchings(g))


def naive_mu_edge(g: Graph, e: tuple[int, int]) -> int:
    return max(len(m) for m in all_matchings(g) if e in m)


def naive_d_set(g: Graph) -> list[int]:
    """Vertices missed by at least one maximum matching."""
    ms = all_matchings(g)
    mu = max(len(m) for m in ms)
    missed: set[int] = set()
    everyone = set(range(g.n))
    for m in ms:
        if len(m) == mu:
            covered = {x for edge in m for x in edge}
            missed |= everyone - covered
    return sorted(missed)


def naive_factor_critical(g: Graph) -> bool:
    if g.n == 0:
        return True
    if g.n % 2 == 0:
        return False
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        sub = naive_induced(g, rest)
        if naive_mu(sub) * 2 != sub.n:
            return False
    return True


def naive_induced(g: Graph, vertices: list[int]) -> Graph:
    remap = {v: i for i, v in enumerate(sorted(vertices))}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    ]
    return Graph(len(vertices), edges)


# ---------------------------------------------------------------------------
# weighted statistics


def naive_max_weight_path(wg: WeightedGraph) -> Fraction:
    best = Fraction(0)
    for p in all_paths(wg.graph):
        w = sum((wg.weights[e] for e in path_edges(p)), Fraction(0))
        best = max(best, w)
    return best


def naive_wp_edge(wg: WeightedGraph, e: tuple[int, int]) -> Fraction:
    best = wg.weights[e]
    for p in all_paths(wg.graph):
        if e in path_edges(p):
            w = sum((wg.weights[d] for d in path_edges(p)), Fraction(0))
            best = max(best, w)
    return best


def naive_max_weight_cycle(wg: WeightedGraph) -> Fraction | None:
    cycles = all_cycles(wg.graph)
    if not cycles:
        return None
    return max(
        sum((wg.weights[e] for e in cycle_edges(c)), Fraction(0)) for c in cycles
    )


# ---------------------------------------------------------------------------
# labeled-graph enumeration and connectivity


def naive_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n


def naive_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the components, by depth-first search over neighbors."""
    out: list[frozenset[int]] = []
    seen: set[int] = set()
    for v in range(g.n):
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            for w in g.neighbors(frontier.pop()):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def iter_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Graph(n, edges)


def brute_iso_classes(n: int, connected_only: bool = False) -> int:
    """Count isomorphism classes by min-over-permutations edge signatures."""
    perms = list(permutations(range(n)))
    seen = set()
    for g in iter_labeled_graphs(n):
        if connected_only and not naive_connected(g):
            continue
        sig = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
            for p in perms
        )
        seen.add(sig)
    return len(seen)


def labeled_key(g: Graph, perm: tuple[int, ...] | None = None) -> int:
    """Upper-triangle bits of g with label i on vertex perm[i], read column
    by column ((0,1); (0,2),(1,2); ...), most significant bit first."""
    p = perm or range(g.n)
    key = 0
    for j in range(1, g.n):
        for i in range(j):
            key = key << 1 | g.has_edge(p[i], p[j])
    return key


def brute_canonical_key(g: Graph) -> int:
    """Least labeled key over all n! relabelings."""
    return min(labeled_key(g, p) for p in permutations(range(g.n)))


def find_isomorphism(g: Graph, h: Graph) -> list[int] | None:
    """A vertex map m with uv an edge of g iff m[u]m[v] is one of h, found
    by backtracking over degree-matched images; None if there is none."""
    if g.n != h.n or g.m != h.m:
        return None
    m: list[int] = []

    def extend() -> bool:
        u = len(m)
        if u == g.n:
            return True
        for x in range(h.n):
            if x in m or g.degree(u) != h.degree(x):
                continue
            if all(g.has_edge(u, w) == h.has_edge(x, m[w]) for w in range(u)):
                m.append(x)
                if extend():
                    return True
                m.pop()
        return False

    return m if extend() else None


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Direct edge-list relabeling, independent of the package helper."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def independent_graph6_decode(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Second-opinion graph6 reader built on string bit twiddling."""
    data = [ord(ch) - 63 for ch in line]
    n = data[0]
    if n > 62:
        raise ValueError("only short-form records supported here")
    bits = "".join(format(x, "06b") for x in data[1:])
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k] == "1":
                edges.append((i, j))
            k += 1
    return n, edges


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if rng.random() < p
    ]
    return Graph(n, edges)


def random_weights(rng: random.Random, g: Graph) -> WeightedGraph:
    return WeightedGraph(
        g,
        {
            e: Fraction(rng.randrange(0, 10), rng.randrange(1, 5))
            for e in g.edges
        },
    )


@lru_cache(maxsize=None)
def frozen_corpus(max_n: int, connected_only: bool = False) -> tuple[Graph, ...]:
    """Every class with n <= max_n, enumerated once per test session:
    enumeration streams and keeps nothing, so the many tests that read
    these corpora share one run instead of each enumerating again."""
    from locturan.graphs import enumerate_graphs

    return tuple(
        g for n in range(1, max_n + 1)
        for g in enumerate_graphs(n, connected_only=connected_only)
    )


# ---------------------------------------------------------------------------
# equality families and cliques, by subset enumeration


def naive_is_clique(g: Graph, vertices) -> bool:
    return all(g.has_edge(a, b) for a, b in combinations(vertices, 2))


def set_partitions(items: list[int]):
    """Every partition of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _split_into_cliques(g: Graph, vertices: list[int], hub: tuple[int, ...]) -> bool:
    """Some partition of vertices into blocks B makes every B + hub a clique
    and leaves no edge between two blocks."""
    for part in set_partitions(vertices):
        owner = {v: i for i, block in enumerate(part) for v in block}
        if all(naive_is_clique(g, list(block) + list(hub)) for block in part) and all(
            owner[u] == owner[v] for u, v in g.edges if u in owner and v in owner
        ):
            return True
    return False


def naive_disjoint_union_of_cliques(g: Graph) -> bool:
    """G is a union of vertex-disjoint cliques with no other edges."""
    return _split_into_cliques(g, list(range(g.n)), ())


def naive_cliques_sharing_vertex(g: Graph, v: int) -> bool:
    """G is a union of cliques that pairwise meet exactly in v."""
    return _split_into_cliques(g, [u for u in range(g.n) if u != v], (v,))


def naive_join_clique_empty(g: Graph, mu: int) -> bool:
    """Some mu vertices are each adjacent to every other vertex and the
    remaining vertices span no edge."""
    return any(
        all(g.degree(h) == g.n - 1 for h in hub)
        and not any(u not in hub and v not in hub for u, v in g.edges)
        for hub in combinations(range(g.n), mu)
    )


# ---------------------------------------------------------------------------
# the n <= 7 proof run, shared by the golden digest and acceptance criterion 1


PROOF_N7_ARGV = ("verify", "--theorem", "all", "--n", "1-7", "--format", "json")


class DigestSink:
    """A text stream that keeps only the SHA-256 of what is written, its
    line count and its last complete line."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.lines = 0
        self.last_line = ""
        self._partial = ""

    def write(self, text):
        self.hash.update(text.encode("ascii"))
        self.lines += text.count("\n")
        *done, self._partial = (self._partial + text).split("\n")
        if done:
            self.last_line = done[-1]
        return len(text)

    def flush(self):
        pass


@dataclass(frozen=True)
class ProofRun:
    code: int
    sha256: str
    last_line: str


@pytest.fixture(scope="session")
def proof_n7_json() -> ProofRun:
    """`verify --theorem all --n 1-7 --format json`, run once per session:
    its exit code, the SHA-256 of its stdout, and its last (aggregate) line."""
    from locturan.cli import main

    sink = DigestSink()
    old = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(), sink
    try:
        code = main(list(PROOF_N7_ARGV))
    finally:
        sys.stdin, sys.stdout = old
    return ProofRun(code, sink.hash.hexdigest(), sink.last_line)
