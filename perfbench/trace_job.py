"""Replay one workload in-process, with each layer timed from outside.

    python3 perfbench/trace_job.py LAYERS_JSON SPANS_JSONL cli ARG...
    python3 perfbench/trace_job.py LAYERS_JSON SPANS_JSONL tools SMALL CANON SEED OUT

`cli` runs `locturan.cli.main(ARG...)`, the code path of the command line;
`tools` runs tools_job.run.  Before the replay, every traced public
function of the modules graphs, stats, verify, covers, matching and cli is
replaced, wherever the package refers to it, by a wrapper that records a
span (name, start, end, parent).  The verifiers are found through the
module-level dicts of `locturan.verify` that map theorem ids to functions.
Spans stay in memory and are written to SPANS_JSONL at the end; the
per-name totals (calls, inclusive and self seconds, items listed) go to
LAYERS_JSON.
"""

from __future__ import annotations

import csv
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import locturan
import locturan.cli
import locturan.covers
import locturan.graphs
import locturan.matching
import locturan.stats
import locturan.verify

import tools_job

MODULES = (
    locturan, locturan.graphs, locturan.stats, locturan.verify,
    locturan.covers, locturan.matching, locturan.cli,
)

TRACED = {
    locturan.graphs: ("canonical_form", "parse_graph6"),
    locturan.stats: (
        "path_profile", "cycle_profile", "vpath_profile", "matching_profile",
        "longest_path_with_consecutive_clique", "weighted_path_profile",
        "max_weight_path", "max_weight_cycle",
    ),
    locturan.verify: ("verify_corpus", "report_csv_row"),
    locturan.covers: ("find_spdc", "validate_pdc", "bound_from_cover"),
    locturan.matching: ("gallai_edmonds", "k_closure"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.items: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, listing: bool = False):
        """A timed stand-in for fn; with listing, fn is a generator function
        whose items are drawn inside the span and counted."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if listing:
                    result = list(result)
                    self.items[name] += len(result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = [start, end]

        return timed

    def totals(self) -> dict:
        out: dict[str, dict] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["incl_s"] += end - start
            t["self_s"] += end - start - child[i]
        for name, count in self.items.items():
            out[name]["items"] = count
        return out


def replace_everywhere(fn, stand_in) -> None:
    """Point every module-level name and module-level dict entry of the
    package that refers to fn at stand_in."""
    for module in MODULES:
        for attr, val in list(vars(module).items()):
            if val is fn:
                setattr(module, attr, stand_in)
            elif isinstance(val, dict):
                for key, entry in val.items():
                    if entry is fn:
                        val[key] = stand_in


class _Proxy:
    """A module or object whose named attributes are replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    for module, names in TRACED.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            fn = getattr(module, name)
            replace_everywhere(fn, tracer.wrap(f"{short}.{name}", fn))
    enum = locturan.graphs.enumerate_graphs
    replace_everywhere(enum, tracer.wrap("graphs.enumerate_graphs", enum, listing=True))
    verify = locturan.verify
    found = {}
    for val in list(vars(verify).values()):
        if isinstance(val, dict):
            for key, fn in val.items():
                if key in verify.ALL_THEOREMS and callable(fn) and key not in found:
                    found[key] = fn
    missing = set(verify.ALL_THEOREMS) - set(found)
    if missing:
        raise SystemExit(f"no verifier found for {sorted(missing)}")
    for key, fn in found.items():
        replace_everywhere(fn, tracer.wrap(f"verify.{key}", fn))
    engine = locturan.stats.PathEngine
    engine.__init__ = tracer.wrap("stats.PathEngine", engine.__init__)
    report = verify.VerificationReport
    report.to_dict = tracer.wrap("verify.VerificationReport.to_dict", report.to_dict)

    def writer(*args, **kwargs):
        real = csv.writer(*args, **kwargs)
        return _Proxy(real, writerow=tracer.wrap("cli.csv.writerow", real.writerow))

    cli = locturan.cli
    cli.json = _Proxy(json, dumps=tracer.wrap("cli.json.dumps", json.dumps))
    cli.csv = _Proxy(csv, writer=writer)


def canon_table_s(tracer: Tracer) -> float | None:
    """First canonical_form call minus the median later one: the lazily
    built relabelling table that the first call pays for."""
    calls = [end - start for name, start, end, _ in tracer.spans if name == "graphs.canonical_form"]
    if len(calls) < 2:
        return None
    return calls[0] - statistics.median(calls[1:])


def main(argv: list[str]) -> int:
    layers_path, spans_path, kind, *rest = argv
    tracer = Tracer()
    install(tracer)
    if kind == "cli":
        code = locturan.cli.main(rest)
    elif kind == "tools":
        small, canon, seed, out_path = rest
        with open(out_path, "w", encoding="ascii") as out:
            tools_job.run(tools_job.read_lines(small), tools_job.read_lines(canon), int(seed), out)
        code = 0
    else:
        raise SystemExit(f"unknown replay kind {kind!r}")
    with open(spans_path, "w", encoding="ascii") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    with open(layers_path, "w", encoding="ascii") as fh:
        json.dump({"layers": tracer.totals(), "canon_table_s": canon_table_s(tracer)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
