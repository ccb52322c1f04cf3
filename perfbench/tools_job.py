"""The `tools` workload: one process that calls the library directly.

    python3 perfbench/tools_job.py SMALL_G6 CANON_G6 SEED OUT_JSONL

For every graph in SMALL_G6 (every class with n <= 7) it runs find_spdc
under a per-call CPU-time limit, then validate_pdc and bound_from_cover
with unit and with seeded weights, gallai_edmonds, and
k_closure(g, 2 mu + 1).  For every graph in CANON_G6 (an n = 8 sample and
relabellings of it) it runs canonical_form.  One JSON record per input goes
to OUT_JSONL, for checks.check_tools_output.  Library functions are looked
up on the package at call time, so a tracer can wrap them.
"""

from __future__ import annotations

import json
import signal
import sys
import zlib

import locturan

# find_spdc backtracks without bound on seven dense 7-vertex classes: the
# fastest of them needs 0.56 s of CPU, the slowest other class 0.016 s.  A
# limit between the two, on CPU time rather than wall time, classifies
# every class the same way on every run, however loaded the machine is.
SPDC_CPU_LIMIT_S = 0.1


class SpdcTimeout(Exception):
    pass


def _expire(signum, frame):
    raise SpdcTimeout()


def _bound_record(b) -> dict:
    return {
        "edge_sum": locturan.format_rational(b.edge_sum),
        "path_count": b.path_count,
        "certified_bound": locturan.format_rational(b.certified_bound),
        "vertex_bound": locturan.format_rational(b.vertex_bound),
    }


def spdc_within_limit(g):
    """find_spdc(g), or None when it needs more than the CPU-time limit."""
    signal.setitimer(signal.ITIMER_PROF, SPDC_CPU_LIMIT_S)
    try:
        return locturan.find_spdc(g)
    except SpdcTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)


def run(small: list[str], canon: list[str], seed: int, out) -> None:
    previous = signal.signal(signal.SIGPROF, _expire)
    try:
        for g6 in small:
            g = locturan.parse_graph6(g6)
            rec = {"g6": g6, "cover": None}
            cover = spdc_within_limit(g)
            if cover is not None:
                if not locturan.validate_pdc(g, cover).valid:
                    raise RuntimeError(f"{g6}: find_spdc returned an invalid cover")
                weighted = locturan.seeded_weights(g, zlib.crc32(f"{seed}|{g6}".encode()))
                rec["cover"] = [list(p) for p in cover.paths]
                rec["bounds"] = [
                    _bound_record(locturan.bound_from_cover(wg, cover))
                    for wg in (locturan.WeightedGraph.unit(g), weighted)
                ]
            ge = locturan.gallai_edmonds(g)
            rec["ge"] = [list(ge.d), list(ge.a), list(ge.c)]
            k = 2 * locturan.matching_number(g) + 1
            closed = locturan.k_closure(g, k)
            rec["closure"] = {
                "k": k,
                "graph6": locturan.write_graph6(closed.graph),
                "added": [list(e) for e in closed.added_edges],
            }
            out.write(json.dumps(rec) + "\n")
    finally:
        signal.signal(signal.SIGPROF, previous)
    for g6 in canon:
        form = locturan.canonical_form(locturan.parse_graph6(g6)).decode("ascii")
        out.write(json.dumps({"g6": g6, "canon": form}) + "\n")


def read_lines(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def main(argv: list[str]) -> int:
    small_path, canon_path, seed, out_path = argv
    with open(out_path, "w", encoding="ascii") as out:
        run(read_lines(small_path), read_lines(canon_path), int(seed), out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
