"""Small path double covers and the certificate chain they yield.

A path double cover is a multiset of simple paths covering every edge
exactly twice.  find_spdc searches for one with at most n paths by
backtracking: branch on the least edge ab still needing coverage, try every
simple path through it that stays on edges with remaining demand, longest
candidates first.  Each candidate is a half path from a, reversed, then a
half path grown from b around it, so no overlapping pair is built.  As a
comes right before b in every candidate, no candidate is the reverse of
another, and the order (longer first, then the lesser of a path and its
reverse) is total: the search tries the candidates in the same order
however they are listed, and repeated runs emit the same cover.

Two prunes keep it fast on dense graphs (K7 in milliseconds).  A path
passes through a vertex at most once, so it covers at most two edges there:
a state in which the demand left on the edges at some vertex exceeds twice
the number of paths still allowed cannot be completed.  And the rest of the
search depends only on the number of paths chosen and the demand left on
each edge, so a state whose subtree has failed once is not searched again.
Both cut only branches that hold no cover, so the search visits the
successful branches in the same order and returns the same first cover as
it does without them.

bound_from_cover turns a cover into the certificate chain for the weighted
path-sum bound: with t the number of paths carrying at least one edge,

    sum_e w(e)/w(p(e))  ==  (1/2) sum_i sum_{e in P_i} w(e)/w(p(e))
                        <=  t/2  <=  n/2,

because each per-path inner sum is at most 1 (every edge of P_i lies on the
path P_i, so w(p(e)) >= w(P_i)).  The doubling identity and the per-path
caps are recomputed and checked on integer numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, WeightedGraph, mask_vertices
from .stats import weighted_ratio_terms


@dataclass(frozen=True)
class PathDoubleCover:
    """Paths as vertex tuples; a single vertex is a degenerate path."""

    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class CoverVerdict:
    valid: bool
    edge_counts: dict
    bad_paths: tuple[int, ...]
    bad_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CoverBound:
    """Exact pieces of the certificate chain for one weighted cover."""

    edge_sum: Fraction
    path_sums: tuple[Fraction, ...]
    path_count: int           # paths carrying at least one edge
    certified_bound: Fraction  # path_count / 2
    vertex_bound: Fraction     # n / 2


def _path_edges(seq: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(a, b) if a < b else (b, a) for a, b in zip(seq, seq[1:])]


def validate_pdc(g: Graph, cover: PathDoubleCover) -> CoverVerdict:
    """Verdict true iff every path is a simple path of g and every edge is
    covered exactly twice.  Failures report the offending paths and edges."""
    counts = {e: 0 for e in g.edges}
    bad_paths = []
    for i, seq in enumerate(cover.paths):
        if (not seq or len(set(seq)) != len(seq) or not all(0 <= v < g.n for v in seq)
                or not all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))):
            bad_paths.append(i)
            continue
        for e in _path_edges(seq):
            counts[e] += 1
    bad_edges = tuple(e for e, c in counts.items() if c != 2)
    valid = not bad_paths and not bad_edges
    return CoverVerdict(valid, counts, tuple(bad_paths), bad_edges)


def find_spdc(g: Graph) -> PathDoubleCover:
    """A path double cover with at most g.n paths (empty for edgeless graphs).

    The candidates through ab are a's half paths avoiding b, reversed, each
    followed by b's half paths avoiding it; their sort key is total, so the
    search order does not depend on how they are listed.  A state is cut
    when some vertex has more demand left than 2 x (paths left), or when the
    same (paths chosen, demand per edge) state has failed before.  Neither
    cut loses a cover, so the first cover found is the one the search
    without them finds.
    """
    if not g.edges:
        return PathDoubleCover(())
    n = g.n
    demand = {e: 2 for e in g.edges}
    load = [2 * g.degree(v) for v in range(n)]  # demand left on the edges at v
    alive = list(g.adj)
    chosen: list[tuple[int, ...]] = []
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def half_paths(start: int, banned: int) -> list[tuple[tuple[int, ...], int]]:
        """Every path from start on live edges avoiding banned, with its mask."""
        out = [((start,), 1 << start)]
        for seq, mask in out:  # breadth first: out grows as it is read
            for w in mask_vertices(alive[seq[-1]] & ~mask & ~banned):
                out.append((seq + (w,), mask | 1 << w))
        return out

    def shift(seq: tuple[int, ...], step: int) -> None:
        """Take the path's edges (step -1) or give them back (step +1)."""
        for a, b in zip(seq, seq[1:]):
            e = (a, b) if a < b else (b, a)
            demand[e] += step
            load[a] += step
            load[b] += step
            if demand[e] == max(step, 0):  # e just ran out of demand or got it back
                alive[a] ^= 1 << b
                alive[b] ^= 1 << a

    def search() -> bool:
        target = next((e for e in g.edges if demand[e] > 0), None)
        if target is None:
            return True
        left = n - len(chosen)
        if max(load) > 2 * left:
            return False
        state = (len(chosen), tuple(demand.values()))
        if state in failed:
            return False
        a, b = target
        cands = [ls[::-1] + rs for ls, lm in half_paths(a, 1 << b)
                 for rs, _ in half_paths(b, lm)]
        cands.sort(key=lambda p: (-len(p), min(p, p[::-1])))
        for path in cands:
            shift(path, -1)
            chosen.append(path)
            if search():
                return True
            chosen.pop()
            shift(path, 1)
        failed.add(state)
        return False

    if not search():
        raise RuntimeError("internal search exhaustion: no path double cover within n paths")
    return PathDoubleCover(tuple(min(p, p[::-1]) for p in chosen))


def bound_from_cover(wg: WeightedGraph, cover: PathDoubleCover) -> CoverBound:
    """Evaluate and check the certificate chain on a validated cover."""
    g = wg.graph
    verdict = validate_pdc(g, cover)
    if not verdict.valid:
        raise ValueError(
            f"invalid path double cover: bad paths {list(verdict.bad_paths)}, "
            f"mis-covered edges {list(verdict.bad_edges)}"
        )
    den, x = weighted_ratio_terms(wg)
    edge_x = sum(x.values())
    path_x = [sum(x[e] for e in _path_edges(seq)) for seq in cover.paths]
    if sum(path_x) != 2 * edge_x:
        raise RuntimeError("doubling identity failed; cover or profile is corrupt")
    if any(px > den for px in path_x):
        raise RuntimeError("per-path sum exceeds 1; weight profile is corrupt")
    t = sum(1 for seq in cover.paths if len(seq) > 1)
    return CoverBound(
        edge_sum=Fraction(edge_x, den),
        path_sums=tuple(Fraction(px, den) for px in path_x),
        path_count=t,
        certified_bound=Fraction(t, 2),
        vertex_bound=Fraction(g.n, 2),
    )


def write_cover(cover: PathDoubleCover) -> str:
    """One path per line, space-separated vertex ids."""
    return "\n".join(" ".join(str(v) for v in seq) for seq in cover.paths) + "\n"
