"""Independent oracles and the output checks of every workload.

Nothing here imports locturan.  The graph6 codec, the brute-force path,
cycle and matching searches, the isomorphism test and the weight recipe
are written from the published definitions (the graph6 format, the README
and the `seeded_weights` docstring), so a fault in the program cannot hide
in a check that shares its code.  Graphs are `(n, adj)` with `adj[v]` a
bitmask of the neighbours of v.  Every check raises `CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import zlib
from fractions import Fraction
from itertools import combinations
from math import comb

# OEIS A000088: isomorphism classes of graphs on n vertices, n = 0..8.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

WEIGHTED_THEOREMS = ("weighted-mt", "fmr", "bondy-fan")


class CheckFailed(Exception):
    """The program's output contradicts an oracle or a required property."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# graph6 and small-graph oracles


def g6_decode(s: str) -> tuple[int, list[int]]:
    n = ord(s[0]) - 63
    require(0 <= n <= 62, f"bad graph6 length byte in {s!r}")
    bits = []
    for ch in s[1:]:
        v = ord(ch) - 63
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    require(len(bits) >= len(pairs), f"truncated graph6 record {s!r}")
    adj = [0] * n
    for (i, j), b in zip(pairs, bits):
        if b:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n, adj


def g6_encode(n: int, adj: list[int]) -> str:
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def edges_of(n: int, adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def degree(adj: list[int], v: int) -> int:
    return bin(adj[v]).count("1")


def simple_paths(n: int, adj: list[int]):
    """Every simple path with at least one edge, in both orientations."""

    def extend(seq: list[int], used: int):
        for w in range(n):
            if adj[seq[-1]] >> w & 1 and not used >> w & 1:
                seq.append(w)
                yield tuple(seq)
                yield from extend(seq, used | 1 << w)
                seq.pop()

    for v in range(n):
        yield from extend([v], 1 << v)


def path_stats(n: int, adj: list[int], weight=None) -> tuple[Fraction, dict]:
    """Heaviest path, and the heaviest path through each edge (unit weights
    when `weight` is None, so both count edges)."""
    best = Fraction(0)
    through = {e: Fraction(0) for e in edges_of(n, adj)}
    for seq in simple_paths(n, adj):
        es = [(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])]
        w = sum((Fraction(1) if weight is None else weight[e] for e in es), Fraction(0))
        best = max(best, w)
        for e in es:
            if w > through[e]:
                through[e] = w
    return best, through


def circumference(n: int, adj: list[int]) -> int:
    """Vertices (= edges) of a longest cycle; 0 for a forest."""
    best = 0
    for seq in simple_paths(n, adj):
        if len(seq) >= 3 and seq[0] == min(seq) and adj[seq[-1]] >> seq[0] & 1:
            best = max(best, len(seq))
    return best


def matching_number(adj: list[int], mask: int) -> int:
    """Maximum matching of the subgraph induced on `mask`, by brute force."""
    memo: dict[int, int] = {}

    def nu(m: int) -> int:
        if not m:
            return 0
        if m not in memo:
            v = (m & -m).bit_length() - 1
            rest = m & ~(1 << v)
            best = nu(rest)
            for w in range(len(adj)):
                if rest >> w & 1 and adj[v] >> w & 1:
                    best = max(best, 1 + nu(rest & ~(1 << w)))
            memo[m] = best
        return memo[m]

    return nu(mask)


def _vertex_invariant(n: int, adj: list[int], v: int) -> tuple:
    nbrs = [w for w in range(n) if adj[v] >> w & 1]
    triangles = sum(1 for a, b in combinations(nbrs, 2) if adj[a] >> b & 1)
    return (len(nbrs), tuple(sorted(degree(adj, w) for w in nbrs)), triangles)


def graph_invariant(n: int, adj: list[int]) -> tuple:
    return (n, tuple(sorted(_vertex_invariant(n, adj, v) for v in range(n))))


def isomorphic(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> bool:
    """Backtracking search for an adjacency-preserving bijection."""
    n, adj_a = a
    m, adj_b = b
    if n != m or graph_invariant(n, adj_a) != graph_invariant(m, adj_b):
        return False
    inv_a = [_vertex_invariant(n, adj_a, v) for v in range(n)]
    inv_b = [_vertex_invariant(n, adj_b, v) for v in range(n)]
    image = [-1] * n

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or inv_a[v] != inv_b[w]:
                continue
            if all((adj_a[v] >> u & 1) == (adj_b[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                if place(v + 1, used | 1 << w):
                    return True
        return False

    return place(0, 0)


def check_classes(g6s: list[str], max_n: int) -> None:
    """The list holds A000088(n) pairwise non-isomorphic graphs for each
    n = 1..max_n, which makes it a complete set of classes."""
    graphs = [g6_decode(s) for s in g6s]
    counts = [0] * (max_n + 1)
    for n, _ in graphs:
        require(1 <= n <= max_n, f"graph with n={n} outside 1..{max_n}")
        counts[n] += 1
    require(
        counts[1:] == list(A000088[1:max_n + 1]),
        f"class counts {counts[1:]} differ from A000088 {list(A000088[1:max_n + 1])}",
    )
    buckets: dict[tuple, list[int]] = {}
    for i, (n, adj) in enumerate(graphs):
        buckets.setdefault(graph_invariant(n, adj), []).append(i)
    for members in buckets.values():
        for i, j in combinations(members, 2):
            require(
                not isomorphic(graphs[i], graphs[j]),
                f"duplicated class: {g6s[i]} and {g6s[j]} are isomorphic",
            )


# ---------------------------------------------------------------------------
# inputs


def binomial_quantiles(trials: int, count: int) -> list[int]:
    """Edge counts at the (i + 1/2)/count quantiles of Binomial(trials, 1/2)."""
    cdf, acc = [], 0
    for k in range(trials + 1):
        acc += comb(trials, k)
        cdf.append(Fraction(acc, 2 ** trials))
    return [
        next(k for k in range(trials + 1) if cdf[k] >= Fraction(2 * i + 1, 2 * count))
        for i in range(count)
    ]


def gnp_sample(rng: random.Random, n: int, count: int) -> list[str]:
    """`count` graphs of G(n, 1/2), with the edge counts fixed to the
    binomial quantiles so that every seed gets the same density profile."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    sizes = binomial_quantiles(len(pairs), count)
    rng.shuffle(sizes)
    return [g6_encode(n, from_edges(n, rng.sample(pairs, m))) for m in sizes]


def relabel(g6: str, perm: list[int]) -> str:
    n, adj = g6_decode(g6)
    return g6_encode(n, from_edges(n, [(perm[u], perm[v]) for u, v in edges_of(n, adj)]))


def seeded_weights(n: int, adj: list[int], seed: int) -> dict:
    """The documented recipe: per edge in lexicographic order, a/b with a
    uniform in [0, 9] and then b uniform in [1, 4], from Random(seed)."""
    rng = random.Random(seed)
    out = {}
    for e in edges_of(n, adj):
        a = rng.randint(0, 9)
        out[e] = Fraction(a, rng.randint(1, 4))
    return out


def tools_weight_seed(seed: int, g6: str) -> int:
    """Seed of the random weighting the tools workload gives each graph."""
    return zlib.crc32(f"{seed}|{g6}".encode())


# ---------------------------------------------------------------------------
# report-level checks shared by the json and csv outputs


def _frac(text):
    return None if text in (None, "") else Fraction(text)


def check_report(rep: dict) -> None:
    """Status, exact slack and the equality flag of one report."""
    where = f"{rep.get('theorem')} on {rep.get('graph6')}"
    status = rep["status"]
    require(status in ("ok", "hypothesis-not-met"), f"{where}: status {status}")
    lhs, rhs, slack = _frac(rep["lhs"]), _frac(rep["rhs"]), _frac(rep["slack"])
    if status == "hypothesis-not-met":
        require(slack is None and rep["equality"] in (None, ""), f"{where}: skipped with a slack")
        return
    require(lhs is not None and rhs is not None, f"{where}: missing lhs/rhs")
    require(slack == rhs - lhs, f"{where}: slack {slack} != rhs - lhs = {rhs - lhs}")
    require(slack >= 0, f"{where}: negative slack {slack}")
    equality = rep["equality"] in (True, "True")
    require(equality == (slack == 0), f"{where}: equality flag {rep['equality']} with slack {slack}")


def reports_per_graph(n: int, trials: int) -> int:
    """8 plain, 2 rooted at each vertex, 3 clique bounds at s = 2, 3, 4,
    and 3 weighted bounds per weighting."""
    return 8 + 2 * n + 9 + 3 * trials


def _group_by_graph(reports: list[dict], trials: int) -> list[tuple[str, list[dict]]]:
    groups: list[tuple[str, list[dict]]] = []
    i = 0
    while i < len(reports):
        g6 = reports[i]["graph6"]
        size = reports_per_graph(ord(g6[0]) - 63, trials)
        block = reports[i:i + size]
        require(
            len(block) == size and all(r["graph6"] == g6 for r in block),
            f"reports of {g6} are not one block of {size}",
        )
        groups.append((g6, block))
        i += size
    return groups


def _first(block: list[dict], theorem: str) -> dict:
    return next(r for r in block if r["theorem"] == theorem)


# ---------------------------------------------------------------------------
# workload checks


def check_proof_output(text: str, seed: int, max_n: int = 7, sample: int = 40) -> int:
    """`verify --theorem all --n 1-max_n --format json`; returns the graph count."""
    lines = text.splitlines()
    require(len(lines) >= 2, "proof output is empty")
    agg = json.loads(lines[-1]).get("aggregate")
    require(agg is not None, "last line is not the aggregate")
    require(agg["ok"] is True and agg["failures"] == [], f"failures: {agg['failures'][:3]}")
    for thm, summ in agg["summaries"].items():
        require(summ["violated"] == 0, f"{thm}: {summ['violated']} violated")
        require(summ["family_mismatches"] == [], f"{thm}: family mismatches")
    reports = [json.loads(line) for line in lines[:-1]]
    for rep in reports:
        check_report(rep)
    groups = _group_by_graph(reports, trials=1)
    check_classes([g6 for g6, _ in groups], max_n)
    for g6, block in random.Random(seed).sample(groups, min(sample, len(groups))):
        n, adj = g6_decode(g6)
        longest, through = path_stats(n, adj)
        eg_path = _first(block, "eg-path")
        if n:
            require(Fraction(eg_path["rhs"]) == longest, f"eg-path rhs on {g6} != {longest}")
            mt = sum((1 / p for p in through.values()), Fraction(0))
            require(Fraction(_first(block, "mt")["lhs"]) == mt, f"mt lhs on {g6} != {mt}")
        eg_cycle = _first(block, "eg-cycle")
        if eg_cycle["status"] == "ok":
            c = circumference(n, adj)
            require(Fraction(eg_cycle["rhs"]) == c, f"eg-cycle rhs on {g6} != {c}")
    return len(groups)


def check_weighted_output(text: str, sample_g6: list[str], seed: int, trials: int,
                          sample: int = 12) -> int:
    """`verify --input SAMPLE --theorem all --weights random --format csv`."""
    reports = list(csv.DictReader(io.StringIO(text)))
    for rep in reports:
        check_report(rep)
    groups = _group_by_graph(reports, trials)
    require([g6 for g6, _ in groups] == sample_g6, "graphs differ from the input sample")
    for g6, block in groups:
        for thm in WEIGHTED_THEOREMS:
            labels = [r["weights"] for r in block if r["theorem"] == thm]
            want = [
                f"seed={seed};trial={t};rng={zlib.crc32(f'{seed}|{g6}|{t}'.encode())}"
                for t in range(trials)
            ]
            require(labels == want, f"{thm} on {g6}: weight seeds {labels} != {want}")
    for g6, block in random.Random(seed).sample(groups, min(sample, len(groups))):
        n, adj = g6_decode(g6)
        fmr = [r for r in block if r["theorem"] == "fmr"]
        wmt = [r for r in block if r["theorem"] == "weighted-mt"]
        for t in range(trials):
            w = seeded_weights(n, adj, zlib.crc32(f"{seed}|{g6}|{t}".encode()))
            heaviest, through = path_stats(n, adj, w)
            require(Fraction(fmr[t]["rhs"]) == heaviest,
                    f"fmr rhs on {g6} trial {t} != heaviest path {heaviest}")
            lhs = sum((w[e] / through[e] for e in w if w[e]), Fraction(0))
            require(Fraction(wmt[t]["lhs"]) == lhs, f"weighted-mt lhs on {g6} trial {t} != {lhs}")
    return len(groups)


def check_cover(n: int, adj: list[int], paths: list[list[int]]) -> None:
    """Simple paths of the graph, every edge covered exactly twice, <= n paths."""
    require(len(paths) <= n, f"{len(paths)} paths for n={n}")
    count = {e: 0 for e in edges_of(n, adj)}
    for p in paths:
        require(len(p) >= 1 and len(set(p)) == len(p), f"path {p} is not simple")
        for a, b in zip(p, p[1:]):
            e = (min(a, b), max(a, b))
            require(e in count, f"path {p} uses non-edge {e}")
            count[e] += 1
    bad = [e for e, c in count.items() if c != 2]
    require(not bad, f"edges not covered exactly twice: {bad}")


def check_ge(n: int, adj: list[int], d: list[int], a: list[int], c: list[int]) -> None:
    """D = {v : nu(G - v) = nu(G)}, A = N(D) minus D, C = the rest."""
    full = (1 << n) - 1
    nu = matching_number(adj, full)
    want_d = [v for v in range(n) if matching_number(adj, full & ~(1 << v)) == nu]
    require(sorted(d) == want_d, f"D = {sorted(d)}, expected {want_d}")
    dmask = sum(1 << v for v in want_d)
    want_a = [v for v in range(n) if not dmask >> v & 1 and adj[v] & dmask]
    require(sorted(a) == want_a, f"A = {sorted(a)}, expected {want_a}")
    want_c = [v for v in range(n) if v not in want_d and v not in want_a]
    require(sorted(c) == want_c, f"C = {sorted(c)}, expected {want_c}")


def check_closure(n: int, adj: list[int], k: int, closed_g6: str, added: list) -> None:
    """k = 2 nu + 1; the closure adds exactly `added`, and no nonadjacent
    pair of the closure has degree sum >= k."""
    nu = matching_number(adj, (1 << n) - 1)
    require(k == 2 * nu + 1, f"closure threshold {k} != 2*{nu}+1")
    cn, cadj = g6_decode(closed_g6)
    require(cn == n, "closure changed the vertex count")
    old, new = set(edges_of(n, adj)), set(edges_of(cn, cadj))
    require(old <= new and new - old == {tuple(e) for e in added},
            f"closure edges differ from the input plus {added}")
    for u, v in combinations(range(n), 2):
        require(cadj[u] >> v & 1 or degree(cadj, u) + degree(cadj, v) < k,
                f"eligible pair ({u}, {v}) left after closure")


def check_tools_output(records: list[dict], g6_small: list[str], canon_groups: list[list[str]],
                       seed: int, sample: int = 20) -> int:
    """Results of `tools_job.py`; returns how many find_spdc calls ran out of time."""
    small = [r for r in records if "cover" in r]
    require([r["g6"] for r in small] == g6_small, "tools records differ from the n <= 7 input")
    timed_out = 0
    rng = random.Random(seed)
    audit = set(rng.sample(range(len(small)), min(sample, len(small))))
    for i, rec in enumerate(small):
        n, adj = g6_decode(rec["g6"])
        check_ge(n, adj, *rec["ge"])
        check_closure(n, adj, rec["closure"]["k"], rec["closure"]["graph6"], rec["closure"]["added"])
        if rec["cover"] is None:
            timed_out += 1
            continue
        check_cover(n, adj, rec["cover"])
        carrying = sum(1 for p in rec["cover"] if len(p) > 1)
        for b in rec["bounds"]:
            require(b["path_count"] == carrying, f"path count on {rec['g6']}")
            require(Fraction(b["certified_bound"]) == Fraction(carrying, 2),
                    f"certified bound on {rec['g6']}")
            require(Fraction(b["vertex_bound"]) == Fraction(n, 2), f"vertex bound on {rec['g6']}")
            require(Fraction(b["edge_sum"]) <= Fraction(carrying, 2), f"edge sum above bound on {rec['g6']}")
        if i in audit and any(adj):
            for b, w in zip(rec["bounds"], (None, seeded_weights(n, adj, tools_weight_seed(seed, rec["g6"])))):
                _, through = path_stats(n, adj, w)
                weight = w or {e: Fraction(1) for e in through}
                want = sum((weight[e] / through[e] for e in through if weight[e]), Fraction(0))
                require(Fraction(b["edge_sum"]) == want, f"edge sum on {rec['g6']} != {want}")
    forms = {r["g6"]: r["canon"] for r in records if "canon" in r}
    for group in canon_groups:
        base = g6_decode(group[0])
        got = {forms[g] for g in group}
        require(len(got) == 1, f"relabelled copies of {group[0]} get forms {sorted(got)}")
        require(isomorphic(base, g6_decode(got.pop())), f"canonical form of {group[0]} not isomorphic")
    return timed_out


# ---------------------------------------------------------------------------
# command line, so that a check runs in its own process


def _lines(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def _text(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def main(argv: list[str]) -> int:
    """checks.py proof OUTPUT SEED | weighted OUTPUT SAMPLE SEED TRIALS |
    tools RESULT SMALL CANON_GROUPS_JSON SEED | classes G6_FILE MAX_N.
    Prints {"failed": count}; a failed check exits 1."""
    kind, *args = argv
    try:
        failed = 0
        if kind == "proof":
            check_proof_output(_text(args[0]), int(args[1]))
        elif kind == "weighted":
            check_weighted_output(_text(args[0]), _lines(args[1]), int(args[2]), int(args[3]))
        elif kind == "tools":
            records = [json.loads(line) for line in _lines(args[0])]
            with open(args[2], encoding="ascii") as fh:
                groups = json.load(fh)
            failed = check_tools_output(records, _lines(args[1]), groups, int(args[3]))
        elif kind == "classes":
            check_classes(_lines(args[0]), int(args[1]))
        else:
            raise SystemExit(f"unknown check {kind!r}")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
