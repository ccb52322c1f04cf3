"""The benchmark's checks must pass real output and fail corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json

import pytest

import checks
from locturan import enumerate_graphs, write_graph6
from locturan.cli import main as locturan_main


@pytest.fixture(scope="module")
def proof_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("proof") / "verify.json"
    code = locturan_main(["verify", "--theorem", "all", "--n", "1-3", "--format", "json",
                          "--output", str(out)])
    assert code == 0
    return out.read_text().splitlines()


def test_proof_output_passes(proof_lines):
    assert checks.check_proof_output("\n".join(proof_lines), seed=1, max_n=3) == 7


def test_corrupted_slack_fails(proof_lines):
    lines = list(proof_lines)
    i = next(i for i, line in enumerate(lines) if '"slack": "0"' in line)
    rep = json.loads(lines[i])
    rep["slack"] = "1/2"
    lines[i] = json.dumps(rep)
    with pytest.raises(checks.CheckFailed, match="slack"):
        checks.check_proof_output("\n".join(lines), seed=1, max_n=3)


def test_duplicated_class_fails():
    classes = [write_graph6(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    checks.check_classes(classes, 4)
    n4 = [i for i, g6 in enumerate(classes) if checks.g6_decode(g6)[0] == 4]
    duplicated = list(classes)
    duplicated[n4[1]] = checks.relabel(classes[n4[-1]], [3, 1, 0, 2])
    with pytest.raises(checks.CheckFailed, match="duplicated class"):
        checks.check_classes(duplicated, 4)


def test_cover_missing_an_edge_fails():
    n, adj = 3, checks.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    checks.check_cover(n, adj, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(checks.CheckFailed, match="exactly twice"):
        checks.check_cover(n, adj, [[0, 1, 2], [1, 2, 0], [2, 0]])


def test_wrong_d_set_fails():
    n, adj = 3, checks.from_edges(3, [(0, 1), (1, 2)])
    checks.check_ge(n, adj, [0, 2], [1], [])
    with pytest.raises(checks.CheckFailed, match="D ="):
        checks.check_ge(n, adj, [0], [1], [2])
