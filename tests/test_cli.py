"""Command-line behavior: formats, exit codes, determinism, error paths.

Commands run in-process through main(argv) with captured streams; one
subprocess test runs the module entry point (python -m locturan) and pins
the console-script mapping in pyproject.toml.  Where the console script is
installed, it is run as well.
"""

import ast
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import locturan
from locturan import verify
from locturan.cli import main
from locturan.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    enumerate_graphs,
    parse_graph6,
    star_graph,
    write_graph6,
    write_weighted_graph,
)
from locturan.stats import EdgeStatProfile, clique_count, enumerate_cliques
from locturan.verify import (
    CSV_FIELDS,
    CorpusResult,
    TheoremSummary,
    VerificationReport,
    _absorb,
)


def run_cli(argv, stdin=""):
    """Run main(argv) with captured stdio; returns (code, stdout, stderr)."""
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


TRI_WEIGHTS = write_weighted_graph(
    WeightedGraph(complete_graph(3), {(0, 1): 1, (1, 2): 1, (0, 2): 0})
)

# a valid graph6 line: 13 vertices and the one edge 0-1, one vertex past
# the n <= 12 reach of the subset-DP engines
OVER_CAP = "L_????????????"


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_counts_per_order():
    code, out, _ = run_cli(["enumerate", "--n", "1-3"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 + 4
    code, out, _ = run_cli(["enumerate", "--n", "4"])
    assert len(out.splitlines()) == 11
    code, out, _ = run_cli(["enumerate", "--n", "4", "--connected"])
    assert len(out.splitlines()) == 6


def test_enumerate_lines_are_canonical_graph6():
    _, out, _ = run_cli(["enumerate", "--n", "1"])
    assert out == "@\n"
    _, out, _ = run_cli(["enumerate", "--n", "3"])
    assert out.splitlines() == ["B?", "BG", "BW", "Bw"]


def test_enumerate_to_file(tmp_path):
    target = tmp_path / "graphs.g6"
    code, out, _ = run_cli(["enumerate", "--n", "2", "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == "A?\nA_\n"


def test_enumerate_rejects_bad_ranges():
    for spec in ("0", "3-2", "x", "1-99"):
        code, _, err = run_cli(["enumerate", "--n", spec])
        assert code == 2 and "error:" in err


def test_enumerate_gates_slow_order():
    code, _, err = run_cli(["enumerate", "--n", "10"])
    assert code == 2 and "n <= 9" in err
    # the removed --allow-slow flag is an unknown argument
    code, _, err = run_cli(["enumerate", "--n", "3", "--allow-slow"])
    assert code == 2 and "--allow-slow" in err


# ---------------------------------------------------------------------------
# stats


def test_stats_edge_profile_text():
    code, out, _ = run_cli(["stats", "--stat", "p"], stdin="Bw\n")
    assert code == 0
    assert out == (
        "graph6=Bw stat=p item=0-1 value=2\n"
        "graph6=Bw stat=p item=0-2 value=2\n"
        "graph6=Bw stat=p item=1-2 value=2\n"
    )


def test_stats_edge_profile_json_and_csv():
    _, out, _ = run_cli(["stats", "--stat", "p", "--format", "json"], stdin="Bw\n")
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0] == {"graph6": "Bw", "stat": "p", "item": "0-1", "value": "2"}
    _, out, _ = run_cli(["stats", "--stat", "p", "--format", "csv"], stdin="Bw\n")
    lines = out.splitlines()
    assert lines[0] == "graph6,stat,item,root,s,weights,value"
    assert lines[1] == "Bw,p,0-1,,,,2"


def test_stats_rooted_profile():
    code, out, _ = run_cli(
        ["stats", "--stat", "p_v", "--root", "0", "--format", "json"], stdin="Bw\n"
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert all(r["root"] == 0 and r["value"] == "2" for r in recs)


def test_stats_rooted_requires_root():
    code, _, err = run_cli(["stats", "--stat", "p_v"], stdin="Bw\n")
    assert code == 2 and "requires --root" in err
    code, _, err = run_cli(["stats", "--stat", "p_v", "--root", "7"], stdin="Bw\n")
    assert code == 2 and "out of range" in err


@pytest.mark.parametrize("stdin", ["Bw\n", ""], ids=["one-graph", "empty"])
@pytest.mark.parametrize("flags", [
    ["--stat", "p_v"],
    ["--stat", "w_p", "--weights", "random"],
], ids=["p_v-without-root", "w_p-random-without-seed"])
def test_stats_flag_errors_come_before_any_output(flags, stdin):
    code, out, err = run_cli(["stats", *flags, "--format", "csv"], stdin=stdin)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("stdin, root, message", [
    ("Bw\nA_\n", "2", "error: root 2 out of range for A_\n"),
    ("Bw\nB?\n", "0", "error: B?: p_v(e) requires a connected graph\n"),
], ids=["root-out-of-range", "disconnected"])
def test_stats_rooted_input_errors_come_before_any_output(stdin, root, message):
    """A bad later graph stops the run before the earlier graphs' rows."""
    code, out, err = run_cli(
        ["stats", "--stat", "p_v", "--root", root, "--format", "csv"], stdin=stdin
    )
    assert (code, out, err) == (2, "", message)


def test_stats_clique_profile_sorted_items():
    _, out, _ = run_cli(
        ["stats", "--stat", "p_S", "--s", "2", "--format", "json"], stdin="Bw\n"
    )
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["item"] for r in recs] == ["0-1", "0-2", "1-2"]
    assert all(r["s"] == 2 and r["value"] == "2" for r in recs)


@pytest.mark.parametrize("s", ["0", "-1"])
def test_stats_rejects_clique_order_below_one(s):
    code, out, err = run_cli(["stats", "--stat", "p_S", "--s", s], stdin="Bw\n")
    assert code == 2 and out == ""
    assert err == f"error: --s must be >= 1, got {s}\n"


def test_stats_weighted_profile_from_file(tmp_path):
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, _ = run_cli(
        ["stats", "--stat", "w_p", "--weights", "file",
         "--weights-file", str(wfile), "--format", "json"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["item"], r["value"]) for r in recs] == [
        ("0-1", "2"), ("0-2", "1"), ("1-2", "2"),
    ]
    assert all(r["weights"] == "file" for r in recs)


@pytest.mark.parametrize("stat", ["p", "mu", "s_K"])
def test_stats_weights_file_is_a_graph_source_for_other_stats(tmp_path, stat):
    """--weights file names a graph source, as it does for verify: a stat
    other than w_p reads the file's graph and no weight, like --input."""
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, err = run_cli(["stats", "--stat", stat, "--weights", "file",
                              "--weights-file", str(wfile)])
    assert (code, err) == (0, "")
    assert out == run_cli(["stats", "--stat", stat], stdin="Bw\n")[1]


@pytest.mark.parametrize("argv", [["stats", "--stat", "w_p"], ["verify", "--theorem", "fmr"]],
                         ids=["stats", "verify"])
def test_weights_file_with_digit_group_underscores_is_refused(tmp_path, argv):
    """A weight written 1_0 is not read as 10: the command exits 2 with the
    line's message and writes nothing to stdout."""
    wfile = tmp_path / "tri.wg"
    wfile.write_text("3 3\n0 1 1\n0 2 1_0\n1 2 1\n")
    code, out, err = run_cli([*argv, "--weights", "file", "--weights-file", str(wfile)])
    assert (code, out) == (2, "")
    assert err == f"error: {wfile}: line 3: expected 'u v weight'\n"


def test_stats_input_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n\n# fine\nA\n")
    code, _, err = run_cli(["stats", "--stat", "p", "--input", str(bad)])
    assert code == 2 and "line 4" in err


@pytest.mark.parametrize("stdin, message", [
    ("Bw\x1cBw\n", "line 1"),
    ("Bw\fBw\nBx\n", "line 1"),
    ("Bw\f\nBx\n", "line 2"),
    ("Bw\r\nBx\r\n", "line 2"),
], ids=["separator", "form-feed-in-line", "form-feed-at-end", "crlf"])
def test_stats_input_lines_end_only_at_newline(stdin, message):
    """A separator or form feed inside a line does not split it: the line
    is one bad graph6 string, and a later bad line keeps its number."""
    code, out, err = run_cli(["stats", "--stat", "p"], stdin=stdin)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}: ")


def test_stats_rejects_over_cap_graph():
    for stat in ("p", "mu"):
        code, out, err = run_cli(["stats", "--stat", stat], stdin=f"Bw\n{OVER_CAP}\n")
        assert code == 2 and out == ""
        assert err == f"error: line 2: {OVER_CAP} has 13 vertices; " \
            "this command supports n <= 12\n"


def test_stats_missing_input_file():
    code, _, err = run_cli(["stats", "--stat", "p", "--input", "/no/such/file"])
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("command", [
    ["stats", "--stat", "p"], ["verify", "--theorem", "mt"], ["spdc"],
    ["closure", "--k", "2"], ["ge"],
], ids=lambda cmd: cmd[0])
def test_non_ascii_input_file_is_a_usage_error(tmp_path, command):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"B\xffw\n")
    code, out, err = run_cli([*command, "--input", str(bad)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {bad}: byte 0xff is not ASCII\n"


def test_non_utf8_stdin_is_a_usage_error(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"B\xffw\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["ge"]) == 2
    assert capsys.readouterr() == ("", "error: cannot read stdin: byte 0xff is not ASCII\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_text_summary_passes():
    code, out, err = run_cli(["verify", "--theorem", "mt", "--n", "3"])
    assert code == 0 and err == ""
    assert out == (
        "theorem checked ok skipped violated equalities min-slack\n"
        "mt 4 4 0 0 1 0\n"
        "PASS\n"
    )


def test_verify_requires_a_corpus_source():
    code, _, err = run_cli(["verify", "--theorem", "mt"])
    assert code == 2
    assert "--n, --input, or --weights file" in err


@pytest.mark.parametrize("flags, message", [
    (["--n", "1-5", "--input", "{g6}"], "verify takes one corpus source, got --n and --input"),
    (["--n", "3", "--weights", "file", "--weights-file", "{wg}"],
     "verify takes one corpus source, got --n and --weights file"),
    (["--input", "{g6}", "--weights", "file", "--weights-file", "{wg}"],
     "verify takes one corpus source, got --input and --weights file"),
    (["--input", "{g6}", "--connected"], "--connected applies only to --n"),
    (["--weights", "file", "--weights-file", "{wg}", "--connected"],
     "--connected applies only to --n"),
], ids=["n-input", "n-weights-file", "input-weights-file",
        "connected-input", "connected-weights-file"])
def test_verify_rejects_conflicting_corpus_sources(tmp_path, flags, message):
    """A run checks exactly the corpus its flags name, or none at all."""
    g6 = tmp_path / "one.g6"
    g6.write_text("Bw\n")
    wg = tmp_path / "tri.wg"
    wg.write_text(TRI_WEIGHTS)
    argv = ["verify", "--theorem", "mt"] + [
        f.format(g6=g6, wg=wg) for f in flags
    ]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_json_streams_reports_then_aggregate():
    code, out, _ = run_cli(
        ["verify", "--theorem", "mt,star", "--n", "1-3", "--format", "json"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    reports, aggregate = lines[:-1], lines[-1]
    assert len(reports) == 2 * 7
    assert {r["theorem"] for r in reports} == {"mt", "star"}
    assert aggregate["aggregate"]["ok"] is True
    assert aggregate["aggregate"]["summaries"]["mt"]["checked"] == 7


def test_verify_csv_has_header_and_rows():
    code, out, _ = run_cli(
        ["verify", "--theorem", "zz", "--n", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 1 + 4


def test_verify_reads_graphs_from_input_file(tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_text("Bw\nCs\n")
    code, out, _ = run_cli(
        ["verify", "--theorem", "mt", "--input", str(corpus), "--format", "json"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [r["graph6"] for r in lines[:-1]] == ["Bw", "Cs"]


def test_verify_random_weights_echo_seed():
    code, out, _ = run_cli(
        ["verify", "--theorem", "fmr", "--n", "3", "--weights", "random",
         "--seed", "11", "--format", "json"]
    )
    assert code == 0
    for rec in map(json.loads, out.splitlines()):
        if "aggregate" in rec:
            continue
        assert rec["weights"].startswith("seed=11;trial=0;rng=")


def test_verify_random_weights_require_seed():
    code, _, err = run_cli(
        ["verify", "--theorem", "fmr", "--n", "3", "--weights", "random"]
    )
    assert code == 2 and "--seed" in err


def test_verify_rejects_clique_order_below_two_for_gt():
    code, out, err = run_cli(
        ["verify", "--n", "3", "--s", "1", "--theorem", "gt-path"]
    )
    assert code == 2 and out == ""
    assert err == "error: gt-path and gt-star need --s values >= 2, got 1\n"
    code, out, _ = run_cli(["verify", "--n", "3", "--s", "1", "--theorem", "delta"])
    assert code == 0 and out.endswith("PASS\n")


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_rejects_trials_below_one(trials):
    code, out, err = run_cli(
        ["verify", "--n", "3", "--weights", "random", "--seed", "1",
         "--trials", trials, "--theorem", "fmr"]
    )
    assert code == 2 and out == ""
    assert err == f"error: --trials must be >= 1, got {trials}\n"


def test_verify_single_root_and_bad_root():
    code, out, _ = run_cli(
        ["verify", "--theorem", "local-bbrs", "--n", "3", "--roots", "0",
         "--format", "json"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()][:-1]
    assert len(recs) == 4
    assert all(r["root"] == 0 for r in recs)
    code, _, err = run_cli(
        ["verify", "--theorem", "local-bbrs", "--n", "3", "--roots", "x"]
    )
    assert code == 2 and "bad --roots" in err


@pytest.mark.parametrize("root", ["-1", "-7"])
def test_verify_rejects_negative_root(root):
    code, out, err = run_cli(
        ["verify", "--theorem", "local-bbrs", "--n", "3", "--roots", root]
    )
    assert code == 2 and out == ""
    assert err == f"error: --roots must be 'all' or >= 0, got {root}\n"


def test_verify_out_of_range_root_names_the_root():
    """A root beyond a smaller graph's last vertex is skipped with the root
    in its row, so the case can be replayed from the CSV."""
    code, out, _ = run_cli(
        ["verify", "--theorem", "local-bbrs", "--n", "1-3", "--roots", "2",
         "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7 and all(row["root"] == "2" for row in rows)
    skipped = [(row["graph6"], row["reason"]) for row in rows
               if row["reason"].startswith("root")]
    assert skipped == [
        ("@", "root 2 out of range for n=1"),
        ("A?", "root 2 out of range for n=2"),
        ("A_", "root 2 out of range for n=2"),
    ]


@pytest.mark.parametrize("flags, top", [
    (["--n", "1-3", "--roots", "5"], 3),
    (["--n", "1-3", "--roots", "3"], 3),
    (["--n", "2-4", "--connected", "--roots", "4"], 4),
    (["--input", "{g6}", "--roots", "4"], 4),
    (["--weights", "file", "--weights-file", "{wg}", "--roots", "3"], 3),
], ids=["n-past", "n-at", "connected", "input", "weights-file"])
def test_verify_root_that_fits_no_graph_is_a_usage_error(tmp_path, flags, top):
    """A rooted run whose root is past the largest order would check
    nothing, so it stops before any output."""
    g6 = tmp_path / "two.g6"
    g6.write_text("Bw\nCs\n")
    wg = tmp_path / "tri.wg"
    wg.write_text(TRI_WEIGHTS)
    argv = ["verify", "--theorem", "local-bbrs,ning-vpath"] + [
        f.format(g6=g6, wg=wg) for f in flags
    ]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    root = flags[-1]
    assert err == f"error: --roots {root} fits no graph; the largest order is {top}\n"


def test_verify_root_is_checked_only_for_rooted_theorems():
    code, out, _ = run_cli(["verify", "--theorem", "mt", "--n", "1-3", "--roots", "5"])
    assert code == 0 and out.endswith("PASS\n")


def test_verify_rejects_over_cap_graph():
    code, out, err = run_cli(
        ["verify", "--theorem", "mt", "--input", "-"], stdin=f"{OVER_CAP}\n"
    )
    assert code == 2 and out == ""
    assert err == f"error: line 1: {OVER_CAP} has 13 vertices; " \
        "this command supports n <= 12\n"


def test_verify_weights_file_and_input_share_one_path(tmp_path):
    """A unit-weight file takes the same driver path as the graph itself."""
    g = parse_graph6("Cz")  # the diamond: every kind of theorem runs on it
    wfile = tmp_path / "paw.wg"
    wfile.write_text(write_weighted_graph(WeightedGraph.unit(g)))
    order = ["fmr", "mt", "local-bbrs", "weighted-mt", "delta", "bondy-fan"]
    common = ["verify", "--theorem", ",".join(order), "--format", "json"]
    code, by_file, _ = run_cli(
        common + ["--weights", "file", "--weights-file", str(wfile)]
    )
    assert code == 0
    code, by_input, _ = run_cli(common + ["--input", "-"], stdin=write_graph6(g) + "\n")
    assert code == 0
    file_recs = [json.loads(line) for line in by_file.splitlines()[:-1]]
    input_recs = [json.loads(line) for line in by_input.splitlines()[:-1]]
    assert [r.pop("weights") for r in file_recs] == [
        "file" if r["theorem"] in ("fmr", "weighted-mt", "bondy-fan") else None
        for r in file_recs
    ]
    for r in input_recs:
        r.pop("weights")
    assert file_recs == input_recs
    theorems = [r["theorem"] for r in file_recs]
    assert [t for i, t in enumerate(theorems) if t not in theorems[:i]] == order


def test_package_modules_start_no_processes_and_read_no_environment():
    """The package runs in one process and takes its settings from flags
    only: no module imports a process or thread pool or reads os.environ."""
    package = Path(locturan.__file__).resolve().parent
    pools = ("concurrent", "multiprocessing")
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}" for name in names
                if name.split(".")[0] in pools or name in ("os.environ", "os.getenv")
            ]
    assert offenders == []


@pytest.mark.parametrize("spec", ["2,2", "3,2,3"])
def test_verify_rejects_repeated_clique_order(spec):
    code, out, err = run_cli(["verify", "--theorem", "delta", "--n", "3", "--s", spec])
    assert (code, out) == (2, "")
    assert err == f"error: bad --s list {spec!r}; expected distinct orders >= 1\n"


def test_verify_rejects_unknown_theorem():
    code, _, err = run_cli(["verify", "--theorem", "nope", "--n", "3"])
    assert code == 2 and "unknown theorem" in err


@pytest.mark.parametrize("flags", [
    ["--theorem", "mt,mt"],
    ["--theorem", "mt", "--theorem", "star,mt"],
], ids=["comma-list", "repeated-flag"])
def test_verify_rejects_repeated_theorem(flags):
    code, out, err = run_cli(["verify", *flags, "--n", "1-3"])
    assert (code, out) == (2, "")
    assert err == "error: theorem 'mt' given more than once\n"


def test_verify_weighted_graph_file_route(tmp_path):
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, _ = run_cli(
        ["verify", "--theorem", "mt,weighted-mt", "--weights", "file",
         "--weights-file", str(wfile), "--format", "json"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    weighted = [r for r in recs[:-1] if r["theorem"] == "weighted-mt"]
    assert weighted[0]["weights"] == "file"
    assert weighted[0]["lhs"] == "1"
    assert recs[-1]["aggregate"]["ok"] is True


def test_verify_counterexample_exits_one(monkeypatch):
    bad = VerificationReport("mt", "Cr", "violated", Fraction(9), Fraction(1))

    def fake_corpus(theorems, ns=(), **kwargs):
        sink = kwargs.get("on_report")
        if sink is not None:
            sink(bad)
        summaries = {t: TheoremSummary(t) for t in theorems}
        failures: list[str] = []
        _absorb(summaries["mt"], bad, failures)
        return CorpusResult(summaries, failures)

    monkeypatch.setattr("locturan.cli.verify_corpus", fake_corpus)
    code, out, err = run_cli(["verify", "--theorem", "mt", "--n", "3"])
    assert code == 1
    assert out.splitlines()[-1] == "FAIL Cr"
    assert "counterexample: mt: bound violated on Cr" in err
    assert err.splitlines()[-1] == "FAIL Cr"

    code, out, err = run_cli(
        ["verify", "--theorem", "mt", "--n", "3", "--format", "json"]
    )
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["status"] == "violated"
    assert lines[-1]["aggregate"]["ok"] is False
    assert "FAIL Cr" in err


NO_CYCLE = (
    "internal error: bondy-fan on Bw, weights unit: "
    "2-edge-connected graph with no cycle; cycle search is corrupt\n"
)


@pytest.fixture
def cycle_search_finds_none(monkeypatch):
    """The heaviest-cycle search reports no cycle: in --n 1-3 order bondy-fan
    skips @, A?, A_, B?, BG and BW, then its cycle-existence check fails on
    Bw, the first 2-edge-connected graph."""
    monkeypatch.setattr("locturan.verify.max_weight_cycle", lambda wg: None)


def test_internal_self_check_failure_exits_three(cycle_search_finds_none):
    """A failed self-check is an internal error, not a counterexample."""
    code, out, err = run_cli(["verify", "--theorem", "bondy-fan", "--n", "3"])
    assert (code, out, err) == (3, "", NO_CYCLE)


def test_internal_error_leaves_earlier_reports_on_stdout(cycle_search_finds_none):
    """Reports stream, so a self-check failure on a later graph leaves the
    earlier graphs' report lines in place, with no aggregate line."""
    code, out, err = run_cli(
        ["verify", "--theorem", "bondy-fan", "--n", "1-3", "--format", "json"]
    )
    assert code == 3
    assert err == NO_CYCLE
    lines = [json.loads(line) for line in out.splitlines()]
    assert all("aggregate" not in rec for rec in lines)
    assert [rec["graph6"] for rec in lines] == ["@", "A?", "A_", "B?", "BG", "BW"]


def test_internal_error_leaves_earlier_csv_rows_in_the_output_file(
    cycle_search_finds_none, tmp_path
):
    """--output is closed on the internal-error path too, holding the header
    and the rows written before the failing graph."""
    target = tmp_path / "reports.csv"
    code, out, err = run_cli(["verify", "--theorem", "bondy-fan", "--n", "1-3",
                              "--format", "csv", "--output", str(target)])
    assert (code, out, err) == (3, "", NO_CYCLE)
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[0] == list(CSV_FIELDS)
    assert [row[1] for row in rows[1:]] == ["@", "A?", "A_", "B?", "BG", "BW"]


# ---------------------------------------------------------------------------
# spdc


def test_spdc_json_record():
    code, out, _ = run_cli(["spdc", "--format", "json"], stdin="Bw\n")
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "graph6": "Bw",
        "paths": "0-1-2|1-0-2|0-2-1",
        "path_count": 3,
        "weights": "unit",
        "edge_sum": "3/2",
        "certified_bound": "3/2",
        "vertex_bound": "3/2",
    }


def test_spdc_text_certificate():
    code, out, _ = run_cli(["spdc", "--format", "text"], stdin="Bw\n")
    assert code == 0
    assert out == "# Bw\n0 1 2\n1 0 2\n0 2 1\n# certified 3/2 <= 3/2\n"


@pytest.mark.parametrize("stdin", ["Bw\n", ""], ids=["one-graph", "empty"])
def test_spdc_random_weights_require_seed(stdin):
    code, out, err = run_cli(["spdc", "--weights", "random"], stdin=stdin)
    assert (code, out) == (2, "")
    assert err == "error: --weights random requires --seed\n"


def test_spdc_internal_error_names_graph(monkeypatch):
    def exhausted(g):
        raise RuntimeError("internal search exhaustion")

    monkeypatch.setattr("locturan.cli.find_spdc", exhausted)
    code, out, err = run_cli(["spdc"], stdin="Bw\n")
    assert (code, out) == (3, "")
    assert err == "internal error: Bw: internal search exhaustion\n"


def exhausted_on_second_graph(real):
    """real, except that its second call raises a RuntimeError."""
    calls = []

    def wrapped(g):
        calls.append(g)
        if len(calls) == 2:
            raise RuntimeError("internal search exhaustion")
        return real(g)

    return wrapped


def test_spdc_internal_error_leaves_the_earlier_records(monkeypatch):
    """Each record is written as soon as it is computed, so an internal error
    on the second graph leaves the csv header and the first graph's row."""
    real = locturan.cli.find_spdc
    monkeypatch.setattr("locturan.cli.find_spdc", exhausted_on_second_graph(real))
    code, out, err = run_cli(["spdc", "--format", "csv"], stdin="Bw\nCr\nCs\n")
    assert code == 3
    assert err == "internal error: Cr: internal search exhaustion\n"
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["graph6", "paths", "path_count", "weights", "edge_sum",
                     "certified_bound", "vertex_bound"],
                    ["Bw", "0-1-2|1-0-2|0-2-1", "3", "unit", "3/2", "3/2", "3/2"]]


def test_spdc_checks_the_output_file_before_any_cover_search(monkeypatch, tmp_path):
    searched, real = [], locturan.cli.find_spdc
    monkeypatch.setattr("locturan.cli.find_spdc", lambda g: searched.append(g) or real(g))
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(["spdc", "--output", str(target)], stdin="Bw\nCr\n")
    assert (code, out, searched) == (2, "", [])
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_spdc_validates_each_cover_once_and_names_an_invalid_one(monkeypatch):
    """bound_from_cover is the one validation of a constructed cover; an
    invalid cover is an internal error (exit 3) naming the graph."""
    import locturan.covers as covers

    validated = []
    real = covers.validate_pdc

    def counted(g, cover):
        validated.append(write_graph6(g))
        return real(g, cover)

    monkeypatch.setattr(covers, "validate_pdc", counted)
    code, _, _ = run_cli(["spdc", "--format", "csv"], stdin="Bw\nCr\n")
    assert code == 0 and validated == ["Bw", "Cr"]
    validated.clear()
    # covers 01 and 02 twice, and misses the triangle's edge 12
    missing = covers.PathDoubleCover(((0, 1), (1, 0), (0, 2), (2, 0)))
    monkeypatch.setattr("locturan.cli.find_spdc", lambda g: missing)
    code, out, err = run_cli(["spdc"], stdin="Bw\n")
    assert (code, out) == (3, "")
    assert err == (
        "internal error: Bw: invalid path double cover: "
        "bad paths [], mis-covered edges [(1, 2)]\n"
    )
    assert validated == ["Bw"]


@pytest.mark.parametrize("argv", [
    ["stats", "--stat", "p"],
    ["stats", "--stat", "w_p", "--weights", "random", "--seed", "1"],
    ["verify", "--theorem", "mt", "--n", "3"],
    ["spdc"],
], ids=["stats", "stats-random", "verify", "spdc"])
def test_weights_file_without_file_weights_is_rejected(tmp_path, argv):
    """--weights-file is read only by --weights file; alone it would be
    dropped without a word."""
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, err = run_cli(argv + ["--weights-file", str(wfile)], stdin="Bw\n")
    assert (code, out) == (2, "")
    assert err == "error: --weights-file requires --weights file\n"


@pytest.mark.parametrize("argv", [
    ["--theorem", "weighted-mt", "--trials", "3"],
    ["--theorem", "fmr", "--weights", "unit", "--trials", "2"],
], ids=["default-unit", "unit"])
def test_trials_without_random_weights_is_rejected(argv):
    """Only random weights draw one weighting per trial; under unit weights
    --trials would be dropped and each graph checked once."""
    code, out, err = run_cli(["verify", "--n", "3"] + argv)
    assert (code, out) == (2, "")
    assert err == "error: --trials requires --weights random\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "weighted-mt", "--n", "3", "--seed", "5"],
    ["stats", "--stat", "w_p", "--seed", "5"],
    ["stats", "--stat", "p", "--weights", "unit", "--seed", "5"],
    ["spdc", "--seed", "5"],
], ids=["verify", "stats-w_p", "stats-p", "spdc"])
def test_seed_without_random_weights_is_rejected(argv):
    """Only random weights read a seed; under unit weights --seed would be
    dropped.  The error comes before any output, even on empty input."""
    code, out, err = run_cli(argv, stdin="")
    assert (code, out) == (2, "")
    assert err == "error: --seed requires --weights random\n"


@pytest.mark.parametrize("stdin", ["Bw\n", ""], ids=["one-graph", "empty"])
@pytest.mark.parametrize("argv", [
    ["--stat", "p", "--weights", "random", "--seed", "5"],
    ["--stat", "p", "--weights", "random"],
    ["--stat", "s_K", "--weights", "random", "--seed", "5"],
    ["--stat", "p_v", "--root", "0", "--weights", "random", "--seed", "5"],
], ids=["p-seed", "p", "s_K", "p_v"])
def test_random_weights_without_weighted_stat_are_rejected(argv, stdin):
    """Only --stat w_p reads a weighting; any other statistic would drop
    the random weights unread.  The error comes before any output."""
    code, out, err = run_cli(["stats", *argv], stdin=stdin)
    assert (code, out) == (2, "")
    assert err == "error: --weights random applies only to --stat w_p\n"


@pytest.mark.parametrize("argv", [
    ["--theorem", "mt", "--seed", "1"],
    ["--theorem", "local-bbrs,star", "--seed", "1", "--trials", "2"],
    ["--theorem", "gt-path", "--s", "3", "--seed", "1", "--format", "json"],
], ids=["mt", "trials", "json"])
def test_verify_random_weights_without_weighted_theorem_are_rejected(argv):
    """Only weighted-mt, fmr and bondy-fan read a weighting; without one of
    them the seed would be dropped unread.  The error comes before any
    output."""
    code, out, err = run_cli(["verify", "--n", "3", "--weights", "random", *argv])
    assert (code, out) == (2, "")
    assert err == (
        "error: --weights random needs a weighted theorem: weighted-mt, fmr, bondy-fan\n"
    )


@pytest.mark.parametrize("theorems", [[","], [""], [" , ", ""]],
                         ids=["comma", "empty", "two-flags"])
def test_empty_theorem_list_is_rejected(theorems):
    """An explicitly empty --theorem list names no theorem; it does not
    stand for all of them."""
    argv = ["verify", "--n", "3"]
    for chunk in theorems:
        argv += ["--theorem", chunk]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == "error: --theorem names no theorem; give ids or 'all'\n"


def test_stats_rejects_input_beside_weights_file(tmp_path):
    """stats reports on one graph source; the weights file's graph would
    silently replace the --input graphs."""
    g6 = tmp_path / "one.g6"
    g6.write_text("Bw\n")
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, err = run_cli(["stats", "--stat", "p", "--input", str(g6),
                              "--weights", "file", "--weights-file", str(wfile)])
    assert (code, out) == (2, "")
    assert err == "error: stats takes one graph source, got --input and --weights file\n"


def test_spdc_weights_file_must_match_graph(tmp_path):
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, _, err = run_cli(
        ["spdc", "--weights", "file", "--weights-file", str(wfile)], stdin="Cs\n"
    )
    assert code == 2 and "differs from input graph" in err


def test_spdc_weights_file_mismatch_on_a_later_graph_writes_nothing(tmp_path):
    """The weights file is checked against every input graph before the first
    record is written, so a mismatch on the second graph leaves stdout empty."""
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, out, err = run_cli(["spdc", "--weights", "file", "--weights-file", str(wfile),
                              "--format", "csv"], stdin="Bw\nCs\n")
    assert (code, out) == (2, "")
    assert err == "error: --weights-file graph differs from input graph\n"


def test_spdc_rejects_over_cap_graph():
    path13 = "LhCGGC@?G?_@?@"  # the path on 13 vertices; it has a cover
    assert parse_graph6(path13).n == 13
    code, out, err = run_cli(["spdc"], stdin=f"{path13}\n")
    assert code == 2 and out == ""
    assert err == f"error: line 1: {path13} has 13 vertices; " \
        "this command supports n <= 12\n"


# ---------------------------------------------------------------------------
# closure


def test_closure_reports_added_edges():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                  if (u, v) != (3, 4)])
    code, out, _ = run_cli(
        ["closure", "--k", "5", "--format", "json"], stdin=write_graph6(g) + "\n"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {"graph6": "D~w", "k": 5, "closure": "D~{", "added": "3-4"}


def test_closure_rejects_negative_k():
    code, _, err = run_cli(["closure", "--k", "-1"], stdin="Bw\n")
    assert code == 2 and "nonnegative" in err


# ---------------------------------------------------------------------------
# ge


def test_ge_partition_record():
    code, out, _ = run_cli(
        ["ge", "--format", "json"], stdin=write_graph6(star_graph(4)) + "\n"
    )
    assert code == 0
    assert json.loads(out) == {
        "graph6": "Cs",
        "d": "1-2-3",
        "a": "0",
        "c": None,
        "components": "1|2|3",
        "matching_number": 1,
        "deficiency": 2,
    }


def test_ge_builds_one_matching_table_per_graph(monkeypatch):
    """ge reads the matching number and deficiency from the decomposition
    that gallai_edmonds verifies, so each graph gets one matching table."""
    built = []
    real = locturan.stats.match_table

    def counted(g):
        built.append(g)
        return real(g)

    monkeypatch.setattr("locturan.stats.match_table", counted)
    monkeypatch.setattr("locturan.matching.match_table", counted)
    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    code, out, _ = run_cli(["ge", "--format", "csv"],
                           stdin="".join(write_graph6(g) + "\n" for g in graphs))
    assert code == 0 and len(out.splitlines()) == len(graphs) + 1
    assert built == graphs


def test_ge_internal_error_leaves_the_earlier_records(monkeypatch):
    real = locturan.cli.gallai_edmonds
    monkeypatch.setattr("locturan.cli.gallai_edmonds", exhausted_on_second_graph(real))
    code, out, err = run_cli(["ge", "--format", "json"], stdin="Cs\nBw\nBW\n")
    assert (code, err) == (3, "internal error: internal search exhaustion\n")
    assert [json.loads(line)["graph6"] for line in out.splitlines()] == ["Cs"]


def test_ge_rejects_over_cap_graph():
    code, out, err = run_cli(["ge"], stdin=f"# comment\n{OVER_CAP}\n")
    assert code == 2 and out == ""
    assert err == f"error: line 2: {OVER_CAP} has 13 vertices; " \
        "this command supports n <= 12\n"


def test_ge_text_omits_empty_parts():
    code, out, _ = run_cli(["ge"], stdin=write_graph6(star_graph(4)) + "\n")
    assert code == 0
    assert out == (
        "graph6=Cs d=1-2-3 a=0 components=1|2|3 matching_number=1 deficiency=2\n"
    )


# ---------------------------------------------------------------------------
# output files


# one run of each subcommand that writes at least one line
EVERY_COMMAND = [
    (["enumerate", "--n", "2"], ""),
    (["stats", "--stat", "p"], "Bw\n"),
    (["verify", "--theorem", "star", "--n", "1-3"], ""),
    (["spdc"], "Bw\n"),
    (["closure", "--k", "2"], "Bw\n"),
    (["ge"], "Bw\n"),
]
COMMAND_IDS = ["enumerate", "stats", "verify", "spdc", "closure", "ge"]


@pytest.mark.parametrize("argv, stdin", EVERY_COMMAND)
def test_unwritable_output_is_a_usage_error(tmp_path, argv, stdin):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(argv + ["--output", str(target)], stdin=stdin)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)


def run_module(argv, stdin, stdout=subprocess.PIPE):
    """Run python -m locturan with buffered stdout; returns (exit code,
    stdout, stderr), with stdout None when it went to the given file."""
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run(
        [sys.executable, "-m", "locturan", *argv], input=stdin, stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env,
    )
    return out.returncode, out.stdout, out.stderr


@needs_dev_full
@pytest.mark.parametrize("argv, stdin", EVERY_COMMAND, ids=COMMAND_IDS)
def test_full_output_device_exits_two(argv, stdin):
    """A write that fails, here or when the file is closed, is an I/O error
    with one line on stderr, not a traceback and exit 1."""
    code, out, err = run_module(argv + ["--output", "/dev/full"], stdin)
    assert (code, out) == (2, "")
    assert err == "error: cannot write /dev/full: No space left on device\n"


@needs_dev_full
def test_full_stdout_exits_two():
    """Two lines fit the stdout buffer, so the error surfaces on the final
    flush, which must come before the interpreter's exit."""
    with open("/dev/full", "w") as full:
        code, _, err = run_module(["stats", "--stat", "p"], "Bw\n", stdout=full)
    assert (code, err) == (2, "error: cannot write stdout: No space left on device\n")


# ---------------------------------------------------------------------------
# entry points

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def module_env(**extra):
    """Environment whose PYTHONPATH leads with the directory holding the
    imported locturan package, so a child process imports the code under
    test from any working directory."""
    package_parent = str(Path(locturan.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = package_parent + (os.pathsep + inherited if inherited else "")
    return os.environ | {"PYTHONPATH": path} | extra


def assert_script_mapping():
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the table's literal line
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert 'locturan = "locturan.cli:main"' in table.splitlines()
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
        assert scripts["locturan"] == "locturan.cli:main"


def test_console_script_and_module_entry(tmp_path):
    assert_script_mapping()

    out = subprocess.run(
        [sys.executable, "-m", "locturan", "enumerate", "--n", "3"],
        capture_output=True, text=True, cwd=tmp_path, env=module_env(),
    )
    assert out.returncode == 0
    assert out.stdout == "B?\nBG\nBW\nBw\n"


@pytest.mark.skipif(shutil.which("locturan") is None,
                    reason="locturan console script not installed")
def test_installed_console_script_enumerates():
    out = subprocess.run(
        ["locturan", "enumerate", "--n", "3"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout == "B?\nBG\nBW\nBw\n"


def test_perfbench_trace_replays_a_verify_run(tmp_path):
    """perfbench/trace_job.py finds each traced function by name; a renamed
    or moved function would break the traced benchmark replay."""
    script = Path(__file__).resolve().parents[1] / "perfbench" / "trace_job.py"
    layers, spans = tmp_path / "layers.json", tmp_path / "spans.jsonl"
    out = subprocess.run(
        [sys.executable, str(script), str(layers), str(spans), "cli", "verify",
         "--theorem", "all", "--n", "1-4", "--weights", "random", "--seed", "1",
         "--format", "json"],
        capture_output=True, text=True, cwd=tmp_path, env=module_env(),
    )
    assert out.returncode == 0, out.stderr
    traced = json.loads(layers.read_text())["layers"]
    assert {"stats.weighted_path_profile", "verify.fmr"} <= set(traced)


HUGE_S = [
    (["verify", "--n", "3", "--theorem", "delta"], ""),
    (["verify", "--n", "3", "--theorem", "gt-path,gt-star"], ""),
    (["stats", "--stat", "s_K"], "Bw\n"),
    (["stats", "--stat", "p_S"], "Bw\n"),
]


def test_huge_clique_order_returns_at_once():
    """The clique listing stops at its last nonempty level, so an order far
    past n answers as fast as any order past the clique number."""
    for argv, stdin in HUGE_S:
        out = subprocess.run(
            [sys.executable, "-m", "locturan", *argv, "--s", "1000000000"],
            input=stdin, capture_output=True, text=True, env=module_env(), timeout=5,
        )
        assert (out.returncode, out.stdout) == run_cli(argv + ["--s", "99"], stdin)[:2]
    g = complete_graph(3)
    assert clique_count(g, 10**12) == 0
    assert enumerate_cliques(g, 10**12) == []


def test_cli_import_loads_no_numpy(tmp_path):
    """The package has no third-party runtime dependency."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import locturan.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=module_env(),
    )
    assert out.returncode == 0
    assert out.stdout == "False\n"


# ---------------------------------------------------------------------------
# one rule set for a verify run

KNOWN = ", ".join(verify.ALL_THEOREMS)

# (CorpusConfig arguments, the verify flags that ask for the same run, the
# message of both), one row per rule of CorpusConfig
CONFIG_RULES = [
    (dict(theorems=("nope",)), ["--theorem", "nope"],
     f"unknown theorem 'nope'; known: {KNOWN}"),
    (dict(theorems=("mt", "star", "mt")), ["--theorem", "mt,star", "--theorem", "mt"],
     "theorem 'mt' given more than once"),
    (dict(theorems=("delta",), s_values=(2, 2)), ["--theorem", "delta", "--s", "2, 2"],
     "bad --s list '2,2'; expected distinct orders >= 1"),
    (dict(theorems=("delta",), s_values=(3, 0)), ["--theorem", "delta", "--s", "3,0"],
     "bad --s list '3,0'; expected distinct orders >= 1"),
    (dict(theorems=("gt-star",), s_values=(2, 1)), ["--theorem", "gt-star", "--s", "2,1"],
     "gt-path and gt-star need --s values >= 2, got 2,1"),
    (dict(theorems=("local-bbrs",), roots=-2), ["--theorem", "local-bbrs", "--roots", "-2"],
     "--roots must be 'all' or >= 0, got -2"),
    (dict(theorems=("fmr",), weights="random"), ["--theorem", "fmr", "--weights", "random"],
     "--weights random requires --seed"),
    (dict(theorems=("fmr",), seed=4), ["--theorem", "fmr", "--seed", "4"],
     "--seed requires --weights random"),
    (dict(theorems=("fmr",), weights="random", seed=4, trials=0),
     ["--theorem", "fmr", "--weights", "random", "--seed", "4", "--trials", "0"],
     "--trials must be >= 1, got 0"),
    (dict(theorems=("fmr",), trials=2), ["--theorem", "fmr", "--trials", "2"],
     "--trials requires --weights random"),
    (dict(theorems=("mt",), weights="random", seed=4),
     ["--theorem", "mt", "--weights", "random", "--seed", "4"],
     "--weights random needs a weighted theorem: weighted-mt, fmr, bondy-fan"),
]


@pytest.mark.parametrize("config, flags, message", CONFIG_RULES, ids=[
    "unknown-theorem", "repeated-theorem", "repeated-s", "s-below-one", "gt-s-below-two",
    "negative-root", "random-without-seed", "seed-without-random", "trials-below-one",
    "trials-without-random", "random-without-weighted-theorem",
])
def test_verify_flags_and_corpus_config_share_each_rule(tmp_path, config, flags, message):
    """CorpusConfig refuses a run with a message, and verify refuses the same
    run with that message before it opens its output file."""
    with pytest.raises(ValueError) as info:
        verify.CorpusConfig(**config)
    assert str(info.value) == message
    target = tmp_path / "kept.txt"
    target.write_text("earlier bytes\n")
    code, out, err = run_cli(["verify", "--n", "3", *flags, "--output", str(target)])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert target.read_text() == "earlier bytes\n"


@pytest.mark.parametrize("argv, stdin", [
    (["verify", "--theorem", "mt", "--n", "٣"], ""),
    (["verify", "--theorem", "mt", "--n", "1-1_0"], ""),
    (["verify", "--theorem", "fmr", "--n", "3", "--weights", "random", "--seed", "١"], ""),
    (["verify", "--theorem", "fmr", "--n", "3", "--weights", "random", "--seed", "1",
      "--trials", "٢"], ""),
    (["verify", "--theorem", "delta", "--n", "3", "--s", "٢"], ""),
    (["verify", "--theorem", "local-bbrs", "--n", "3", "--roots", "1_0"], ""),
    (["stats", "--stat", "p_v", "--root", "٠"], "Bw\n"),
    (["stats", "--stat", "p_S", "--s", "٢"], "Bw\n"),
    (["closure", "--k", "٢"], "Bw\n"),
    (["enumerate", "--n", "1_0"], ""),
], ids=["verify-n", "verify-n-range", "seed", "trials", "verify-s", "roots",
        "stats-root", "stats-s", "closure-k", "enumerate-n"])
def test_every_command_line_integer_is_plain_decimal(argv, stdin):
    """int() would read Unicode digits and underscores; a flag takes only
    an optional sign and the digits 0-9, and the error names the text."""
    code, out, err = run_cli(argv, stdin)
    assert (code, out) == (2, "")
    assert repr(argv[-1]) in err


@pytest.mark.parametrize("flags, message", [
    (["--stat", "p", "--root", "3"], "--root applies only to --stat p_v"),
    (["--stat", "p_S", "--root", "0"], "--root applies only to --stat p_v"),
    (["--stat", "p", "--s", "3"], "--s applies only to --stat p_S or s_K"),
    (["--stat", "p_v", "--root", "0", "--s", "2"], "--s applies only to --stat p_S or s_K"),
], ids=["p-root", "p_S-root", "p-s", "p_v-s"])
def test_stats_refuses_a_flag_its_stat_does_not_read(flags, message):
    code, out, err = run_cli(["stats", *flags], "Bw\n")
    assert (code, out, err) == (2, "", f"error: {message}\n")
