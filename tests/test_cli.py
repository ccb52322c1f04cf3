"""Command-line behavior: formats, exit codes, determinism, error paths.

Commands run in-process through main(argv) with captured streams; one
subprocess test runs the module entry point (python -m locturan), confirms
output does not depend on the worker-count environment variable, and pins
the console-script mapping in pyproject.toml.  Where the console script is
installed, it is run as well.
"""

import ast
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
from locturan.cli import main
from locturan.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    parse_graph6,
    star_graph,
    write_graph6,
    write_weighted_graph,
)
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
    code, _, err = run_cli(["enumerate", "--n", "8"])
    assert code == 2 and "--allow-slow" in err
    code, _, err = run_cli(["enumerate", "--n", "9", "--allow-slow"])
    assert code == 2 and "n <= 8" in err


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


def test_stats_clique_profile_sorted_items():
    _, out, _ = run_cli(
        ["stats", "--stat", "p_S", "--s", "2", "--format", "json"], stdin="Bw\n"
    )
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["item"] for r in recs] == ["0-1", "0-2", "1-2"]
    assert all(r["s"] == 2 and r["value"] == "2" for r in recs)


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


def test_stats_input_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n\n# fine\nA\n")
    code, _, err = run_cli(["stats", "--stat", "p", "--input", str(bad)])
    assert code == 2 and "line 4" in err


def test_stats_rejects_over_cap_graph():
    for stat in ("p", "mu"):
        code, out, err = run_cli(["stats", "--stat", stat], stdin=f"Bw\n{OVER_CAP}\n")
        assert code == 2 and out == ""
        assert err == f"error: line 2: {OVER_CAP} has 13 vertices; " \
            "this command supports n <= 12\n"


def test_stats_missing_input_file():
    code, _, err = run_cli(["stats", "--stat", "p", "--input", "/no/such/file"])
    assert code == 2 and "cannot read" in err


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


def test_verify_rejects_over_cap_graph():
    code, out, err = run_cli(
        ["verify", "--theorem", "mt", "--input", "-"], stdin=f"{OVER_CAP}\n"
    )
    assert code == 2 and out == ""
    assert err == f"error: line 1: {OVER_CAP} has 13 vertices; " \
        "this command supports n <= 12\n"


@pytest.mark.parametrize("value", ["abc", ""])
def test_verify_rejects_non_integer_worker_count(monkeypatch, value):
    monkeypatch.setenv("LOCTURAN_THREADS", value)
    code, out, err = run_cli(["verify", "--theorem", "mt", "--n", "3"])
    assert code == 2 and out == ""
    assert err == f"error: LOCTURAN_THREADS must be an integer, got {value!r}\n"


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


def test_package_modules_import_no_private_names():
    """No module of the package imports an underscore name from a sibling."""
    package = Path(locturan.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("locturan")
            offenders += [
                f"{path.name}: {alias.name}" for alias in node.names
                if sibling and alias.name.startswith("_")
            ]
    assert offenders == []


def test_verify_rejects_unknown_theorem():
    code, _, err = run_cli(["verify", "--theorem", "nope", "--n", "3"])
    assert code == 2 and "unknown theorem" in err


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


def test_verify_output_identical_across_worker_counts(tmp_path, monkeypatch):
    argv = ["verify", "--theorem", "mt,bbrs,local-bbrs", "--n", "1-4",
            "--format", "json"]
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LOCTURAN_THREADS", threads)
        target = tmp_path / f"t{threads}.json"
        code, out, _ = run_cli(argv + ["--output", str(target)])
        assert code == 0 and out == ""
        runs.append(target.read_bytes())
    assert runs[0] == runs[1]


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


def test_spdc_weights_file_must_match_graph(tmp_path):
    wfile = tmp_path / "tri.wg"
    wfile.write_text(TRI_WEIGHTS)
    code, _, err = run_cli(
        ["spdc", "--weights", "file", "--weights-file", str(wfile)], stdin="Cs\n"
    )
    assert code == 2 and "differs from input graph" in err


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
# entry points

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def module_env(**extra):
    """Environment whose PYTHONPATH leads with the directory holding the
    imported locturan package, so a child process and its pool workers
    import the code under test from any working directory."""
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


def test_console_script_and_worker_env(tmp_path):
    assert_script_mapping()

    cli = [sys.executable, "-m", "locturan"]
    out = subprocess.run(
        cli + ["enumerate", "--n", "3"], capture_output=True, text=True,
        cwd=tmp_path, env=module_env(),
    )
    assert out.returncode == 0
    assert out.stdout == "B?\nBG\nBW\nBw\n"

    argv = cli + ["verify", "--theorem", "mt,zz", "--n", "1-4",
                  "--format", "json"]
    captured = []
    for threads in ("1", "2"):
        env = module_env(LOCTURAN_THREADS=threads)
        res = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env)
        assert res.returncode == 0
        captured.append(res.stdout)
    assert captured[0] == captured[1]


@pytest.mark.skipif(shutil.which("locturan") is None,
                    reason="locturan console script not installed")
def test_installed_console_script_enumerates():
    out = subprocess.run(
        ["locturan", "enumerate", "--n", "3"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout == "B?\nBG\nBW\nBw\n"
