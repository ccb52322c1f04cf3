"""Command-line front end for the exact graph-statistics toolkit.

Commands:
  enumerate   stream one canonical graph6 line per isomorphism class
  stats       dump a per-edge or per-clique statistic for each input graph
  verify      run theorem verifiers over a corpus, exit 1 on a counterexample
  spdc        build and certify a small path double cover per input graph
  closure     compute the k-closure and list the added edges
  ge          emit the Gallai-Edmonds partition (D, A, C)

Input is a stream of graph6 lines ("-" or omitted means standard input;
blank lines and "#" comments are skipped).  Output goes to --output or
standard output.  All arithmetic is exact; rationals render as "p/q".
Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 verification counterexample, 2 usage or I/O error,
3 internal error (a self-check failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence, TextIO

from .covers import bound_from_cover, find_spdc, write_cover
from .graphs import (
    CANON_CAP,
    Graph,
    WeightedGraph,
    enumerate_graphs,
    is_connected,
    parse_graph6,
    parse_weighted_graph,
    write_graph6,
)
from .matching import gallai_edmonds, k_closure
from .rationals import format_rational
from .stats import (
    TABLE_CAP,
    clique_path_profile,
    clique_star_profile,
    cycle_profile,
    matching_profile,
    path_profile,
    star_profile,
    vpath_profile,
    weighted_path_profile,
)
from .verify import (
    ALL_THEOREMS,
    CSV_FIELDS,
    ROOTED_THEOREMS,
    WEIGHTED_THEOREMS,
    is_counterexample,
    report_csv_row,
    verify_corpus,
    weightings,
)


class UsageError(Exception):
    """Bad flags, bad input, or bad files; maps to exit code 2."""


# ---------------------------------------------------------------------------
# shared I/O helpers


def _read_text(path: str | None) -> str:
    name = "stdin" if path in (None, "-") else path
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise UsageError(f"cannot read {name}: byte {bad:#04x} is not ASCII") from None


def _read_graphs(path: str | None, capped: bool = False) -> list[Graph]:
    graphs = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
        graphs.append(_capped(g, f"line {lineno}: {line}") if capped else g)
    return graphs


def _capped(g: Graph, where: str) -> Graph:
    """g, if it is within the n <= TABLE_CAP reach of the subset-DP engines."""
    if g.n > TABLE_CAP:
        raise UsageError(
            f"{where} has {g.n} vertices; this command supports n <= {TABLE_CAP}"
        )
    return g


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Standard output for None or "-", flushed on exit, else the file at
    path, closed on exit.  An OSError from opening, writing, flushing or
    closing it is a UsageError; a broken pipe is left to main."""
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="ascii") as fh:
                yield fh
    except BrokenPipeError:
        raise
    except OSError as exc:
        if to_stdout:
            # the unwritten data would fail again at the flush on exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        name = "stdout" if to_stdout else path
        raise UsageError(f"cannot write {name}: {exc.strerror}") from None


def _parse_n_spec(spec: str) -> list[int]:
    try:
        if "-" in spec:
            lo_s, hi_s = spec.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise UsageError(f"bad --n value {spec!r}; expected N or LO-HI") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad --n range {spec!r}")
    if hi > CANON_CAP:
        raise UsageError(f"enumeration supports n <= {CANON_CAP}")
    return list(range(lo, hi + 1))


def _parse_theorems(values: list[str]) -> list[str]:
    names: list[str] = []
    for chunk in values:
        names.extend(tok.strip() for tok in chunk.split(",") if tok.strip())
    if values and not names:
        raise UsageError("--theorem names no theorem; give ids or 'all'")
    if not names or names == ["all"]:
        return list(ALL_THEOREMS)
    for i, name in enumerate(names):
        if name not in ALL_THEOREMS:
            known = ", ".join(ALL_THEOREMS)
            raise UsageError(f"unknown theorem {name!r}; known: {known}")
        if name in names[:i]:
            raise UsageError(f"theorem {name!r} given more than once")
    return names


def _parse_s_list(spec: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"bad --s list {spec!r}") from None
    if not vals or any(s < 1 for s in vals) or len(set(vals)) != len(vals):
        raise UsageError(f"bad --s list {spec!r}; expected distinct orders >= 1")
    return vals


def _check_seed(args: argparse.Namespace) -> None:
    """--weights random and --seed come together, or neither is given."""
    if args.weights == "random" and args.seed is None:
        raise UsageError("--weights random requires --seed")
    if args.seed is not None and args.weights != "random":
        raise UsageError("--seed requires --weights random")


def _load_weights(args: argparse.Namespace) -> str | WeightedGraph:
    """--weights as `weightings` takes it: the mode name, or for "file" the
    weighted graph read from --weights-file."""
    path = args.weights_file
    if args.weights != "file":
        if path is not None:
            raise UsageError("--weights-file requires --weights file")
        return args.weights
    if path is None:
        raise UsageError("--weights file requires --weights-file")
    try:
        return parse_weighted_graph(_read_text(path))
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _weighting(
    g: Graph, weights: str | WeightedGraph, seed: int | None
) -> tuple[WeightedGraph, str]:
    """The one weighting of g that `stats --stat w_p` and `spdc` report on."""
    if isinstance(weights, WeightedGraph) and weights.graph != g:
        raise UsageError("--weights-file graph differs from input graph")
    return weightings(g, weights, seed)[0]


def _item_label(item: tuple[int, ...]) -> str:
    return "-".join(map(str, item))


def _emit_records(
    records: Iterator[dict] | Sequence[dict],
    fields: Sequence[str],
    fmt: str,
    out: TextIO,
) -> None:
    """Stream dict records as json lines, csv rows, or aligned text."""
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        for rec in records:
            writer.writerow(["" if rec.get(k) is None else rec[k] for k in fields])
    else:
        for rec in records:
            parts = [f"{k}={rec[k]}" for k in fields if rec.get(k) is not None]
            out.write(" ".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args: argparse.Namespace) -> int:
    ns = _parse_n_spec(args.n)
    with _output(args.output) as out:
        for n in ns:
            for g in enumerate_graphs(n, connected_only=args.connected):
                out.write(write_graph6(g) + "\n")
    return 0


_EDGE_STATS = {
    "p": path_profile,
    "c": cycle_profile,
    "s": star_profile,
    "mu": matching_profile,
}


def _stat_records(
    args: argparse.Namespace, graphs: list[Graph], weights: str | WeightedGraph
) -> Iterator[dict]:
    for g in graphs:
        base = {"graph6": write_graph6(g), "stat": args.stat}
        extra = {}
        if args.stat in ("p_S", "s_K"):
            prof_fn = clique_path_profile if args.stat == "p_S" else clique_star_profile
            prof, extra = prof_fn(g, args.s), {"s": args.s}
        elif args.stat == "p_v":
            prof, extra = vpath_profile(g, args.root), {"root": args.root}
        elif args.stat == "w_p":
            wg, label = _weighting(g, weights, args.seed)
            prof, extra = weighted_path_profile(wg), {"weights": label}
        else:
            prof = _EDGE_STATS[args.stat](g)
        for item, value in prof.values.items():
            yield base | {"item": _item_label(item)} | extra | {"value": format_rational(value)}


def cmd_stats(args: argparse.Namespace) -> int:
    if args.s < 1:
        raise UsageError(f"--s must be >= 1, got {args.s}")
    if args.stat == "p_v" and args.root is None:
        raise UsageError("stat p_v requires --root")
    if args.weights == "random" and args.stat != "w_p":
        raise UsageError("--weights random applies only to --stat w_p")
    if args.stat == "w_p" or args.seed is not None:
        _check_seed(args)
    if args.input is not None and args.weights == "file":
        raise UsageError("stats takes one graph source, got --input and --weights file")
    weights = _load_weights(args)
    if isinstance(weights, WeightedGraph):
        graphs = [_capped(weights.graph, args.weights_file)]
    else:
        graphs = _read_graphs(args.input, capped=True)
    if args.stat == "p_v":
        # every graph is checked before the first record is written
        for g in graphs:
            if not 0 <= args.root < g.n:
                raise UsageError(f"root {args.root} out of range for {write_graph6(g)}")
            if not is_connected(g):
                raise UsageError(f"{write_graph6(g)}: p_v(e) requires a connected graph")
    fields = ("graph6", "stat", "item", "root", "s", "weights", "value")
    with _output(args.output) as out:
        _emit_records(_stat_records(args, graphs, weights), fields, args.format, out)
    return 0


def _check_corpus_source(args: argparse.Namespace) -> None:
    """verify checks exactly one corpus: --n, --input, or --weights file."""
    sources = {
        "--n": args.n is not None,
        "--input": args.input is not None,
        "--weights file": args.weights == "file",
    }
    given = [flag for flag, on in sources.items() if on]
    if not given:
        raise UsageError("verify needs --n, --input, or --weights file")
    if len(given) > 1:
        raise UsageError(f"verify takes one corpus source, got {' and '.join(given)}")
    if args.connected and args.n is None:
        raise UsageError("--connected applies only to --n")


def cmd_verify(args: argparse.Namespace) -> int:
    _check_corpus_source(args)
    theorems = _parse_theorems(args.theorem)
    roots: str | int = args.roots
    if roots != "all":
        try:
            roots = int(roots)
        except ValueError:
            raise UsageError(f"bad --roots value {args.roots!r}") from None
        if roots < 0:
            raise UsageError(f"--roots must be 'all' or >= 0, got {roots}")
    _check_seed(args)
    s_values = _parse_s_list(args.s)
    if {"gt-path", "gt-star"} & set(theorems) and min(s_values) < 2:
        raise UsageError(f"gt-path and gt-star need --s values >= 2, got {args.s}")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.trials != 1 and args.weights != "random":
        raise UsageError("--trials requires --weights random")
    weights = _load_weights(args)
    if isinstance(weights, WeightedGraph):
        corpus = dict(graphs=[_capped(weights.graph, args.weights_file)])
    elif args.input is not None:
        corpus = dict(graphs=_read_graphs(args.input, capped=True))
    else:
        corpus = dict(ns=_parse_n_spec(args.n), connected_only=args.connected)
    # a root past every graph's last vertex would make every rooted report a skip
    top = max(corpus.get("ns") or [g.n for g in corpus["graphs"]], default=0)
    if roots != "all" and roots >= top and set(ROOTED_THEOREMS) & set(theorems):
        raise UsageError(f"--roots {roots} fits no graph; the largest order is {top}")
    if args.weights == "random" and not set(WEIGHTED_THEOREMS) & set(theorems):
        raise UsageError("--weights random needs a weighted theorem: " + ", ".join(WEIGHTED_THEOREMS))

    first_bad: list[str] = []
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n") if args.format == "csv" else None
        if writer is not None:
            writer.writerow(CSV_FIELDS)

        def sink(rep) -> None:
            if is_counterexample(rep) and not first_bad:
                first_bad.append(rep.graph6)
            if args.format == "json":
                out.write(json.dumps(rep.to_dict()) + "\n")
            elif writer is not None:
                writer.writerow(report_csv_row(rep))

        result = verify_corpus(
            theorems,
            roots=roots,
            s_values=s_values,
            weights=weights,
            seed=args.seed,
            trials=args.trials,
            on_report=sink,
            **corpus,
        )

        if args.format == "json":
            out.write(json.dumps({"aggregate": result.to_dict()}) + "\n")
        elif args.format == "text":
            header = ["theorem", "checked", "ok", "skipped", "violated",
                      "equalities", "min-slack"]
            out.write(" ".join(header) + "\n")
            for thm in theorems:
                s = result.summaries[thm]
                slack = "" if s.min_slack is None else format_rational(s.min_slack)
                out.write(
                    f"{thm} {s.checked} {s.ok} {s.hypothesis_not_met} "
                    f"{s.violated} {s.equality_count} {slack}\n"
                )
            if result.ok:
                out.write("PASS\n")
            else:
                out.write(f"FAIL {first_bad[0]}\n")

    if not result.ok:
        for line in result.failures[:20]:
            print(f"counterexample: {line}", file=sys.stderr)
        print(f"FAIL {first_bad[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_spdc(args: argparse.Namespace) -> int:
    _check_seed(args)
    weights = _load_weights(args)
    graphs = _read_graphs(args.input, capped=True)
    records = []
    covers = []
    for g in graphs:
        g6 = write_graph6(g)
        wg, label = _weighting(g, weights, args.seed)
        try:
            cover = find_spdc(g)
            bound = bound_from_cover(wg, cover)  # ValueError: invalid cover
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"{g6}: {exc}") from exc
        covers.append(cover)
        records.append(
            {
                "graph6": g6,
                "paths": "|".join("-".join(map(str, p)) for p in cover.paths),
                "path_count": bound.path_count,
                "weights": label,
                "edge_sum": format_rational(bound.edge_sum),
                "certified_bound": format_rational(bound.certified_bound),
                "vertex_bound": format_rational(bound.vertex_bound),
            }
        )
    fields = ("graph6", "paths", "path_count", "weights", "edge_sum",
              "certified_bound", "vertex_bound")
    with _output(args.output) as out:
        if args.format == "text":
            for rec, cover in zip(records, covers):
                out.write(f"# {rec['graph6']}\n")
                out.write(write_cover(cover))
                out.write(
                    f"# certified {rec['certified_bound']}"
                    f" <= {rec['vertex_bound']}\n"
                )
        else:
            _emit_records(records, fields, args.format, out)
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    graphs = _read_graphs(args.input)
    records = []
    for g in graphs:
        res = k_closure(g, args.k)
        records.append(
            {
                "graph6": write_graph6(g),
                "k": args.k,
                "closure": write_graph6(res.graph),
                "added": "|".join(map(_item_label, res.added_edges)),
            }
        )
    with _output(args.output) as out:
        _emit_records(records, ("graph6", "k", "closure", "added"), args.format, out)
    return 0


def cmd_ge(args: argparse.Namespace) -> int:
    graphs = _read_graphs(args.input, capped=True)
    records = []
    for g in graphs:
        dec = gallai_edmonds(g)
        deficiency = len(dec.d_components) - len(dec.a)  # verified by gallai_edmonds
        records.append(
            {
                "graph6": write_graph6(g),
                "d": "-".join(map(str, dec.d)) or None,
                "a": "-".join(map(str, dec.a)) or None,
                "c": "-".join(map(str, dec.c)) or None,
                "components": "|".join(
                    "-".join(map(str, comp)) for comp in dec.d_components
                )
                or None,
                "matching_number": (g.n - deficiency) // 2,
                "deficiency": deficiency,
            }
        )
    fields = ("graph6", "d", "a", "c", "components", "matching_number", "deficiency")
    with _output(args.output) as out:
        _emit_records(records, fields, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="PATH", default=None,
                   help="graph6 lines; '-' or omitted reads standard input")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write here instead of standard output")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")


def _add_weight_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weights", choices=("unit", "random", "file"), default="unit")
    p.add_argument("--seed", type=int, default=None,
                   help="required with --weights random")
    p.add_argument("--weights-file", metavar="PATH", default=None,
                   help="weighted-graph file for --weights file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locturan",
        description="Exact verifiers and statistics for localized path, cycle, "
        "matching, and clique bounds on small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream canonical graph6, one class per line")
    p.add_argument("--n", required=True, help="vertex count N or range LO-HI")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--output", metavar="PATH", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="dump one exact statistic per edge or clique")
    p.add_argument("--stat", required=True,
                   choices=("p", "c", "s", "mu", "p_v", "w_p", "p_S", "s_K"))
    p.add_argument("--root", type=int, default=None, help="root vertex for p_v")
    p.add_argument("--s", type=int, default=2, help="clique order for p_S / s_K")
    _add_weight_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="check theorem bounds over a corpus")
    p.add_argument("--theorem", action="append", default=[],
                   help="theorem id, comma list, or 'all' (repeatable)")
    p.add_argument("--n", default=None, help="corpus vertex count N or range LO-HI")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--roots", default="all", help="'all' or a single root vertex")
    p.add_argument("--s", default="2,3,4", help="comma list of clique orders")
    p.add_argument("--trials", type=int, default=1,
                   help="random weightings per graph")
    _add_weight_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spdc", help="construct and certify a small path double cover")
    _add_weight_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_spdc)

    p = sub.add_parser("closure", help="compute the k-closure and added edges")
    p.add_argument("--k", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("ge", help="emit the Gallai-Edmonds partition")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ge)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
