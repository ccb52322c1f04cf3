"""Golden outputs: SHA-256 digests of the stdout of each subcommand.

The stdout of every subcommand is the behaviour spec, so a refactor of the
driver, the CLI or the engines must leave these bytes unchanged.  The
digests were taken from the implementation before the theorem registry
replaced the per-kind verifier dicts.  The one intended change since then
is `verify --weights file`, whose reports now follow --theorem order (they
used to put the weighted theorems last); its lines as a set are pinned to
the earlier output.  To print the digests of the current code, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import sys

import pytest

from locturan.cli import main

# every sixth isomorphism class of order 1..6, the last class of each
# order, and four relabelled (non-canonical) graphs of order 5 and 6
GRAPHS = (
    "@ A? A_ B? Bw C? CL C~ D?? D@O DBW DFw DJ{ DN{ D~{ E??? E?CW E?Dw "
    "E?LO E?NO E?]o E@Kw E@NG E@QW E@Tw E@V_ E@]w E@^w E@rw E@vw EBZw "
    "EB^g EBjg EBz_ EFz_ EJ]G EJaw EJfo EJnw ELv_ ENzw E~~w DuC Ds{ E}zg "
    "ETh?"
).split()
GRAPH_LINES = "".join(g + "\n" for g in GRAPHS)
# the connected ones, for the rooted statistic
CONNECTED_LINES = "".join(
    g + "\n" for g in GRAPHS if g not in ("A?", "B?", "C?", "D??", "D@O", "DBW",
                                          "E???", "E?CW", "E?Dw", "E?LO", "E@Kw",
                                          "E@Tw", "ETh?")
)

# a 5-vertex weighted graph with zero, integer and fractional weights
WEIGHTED = "5 7\n0 1 3/2\n0 2 1\n0 3 0\n1 2 5/4\n1 3 2\n2 3 7/3\n3 4 1/2\n"

CASES = {
    "verify-all-n6-json": (
        ["verify", "--theorem", "all", "--n", "1-6", "--format", "json"],
        "432842e0b3047e04d56bceab227d6fb42194cad972c6e583234745b546c402fa",
    ),
    "verify-all-n6-csv": (
        ["verify", "--theorem", "all", "--n", "1-6", "--format", "csv"],
        "b60e40e1e0d83e332467e4b9dccb9143d164ab993d4d5f296de9123bcc89d496",
    ),
    "verify-weighted-random-n5-csv": (
        ["verify", "--theorem", "weighted-mt,fmr,bondy-fan", "--n", "1-5",
         "--weights", "random", "--seed", "3", "--trials", "2", "--format", "csv"],
        "e3a259710119a28742f759b279a03359101b70154c3c27d6462f31b8372f52d6",
    ),
    "stats-p": (
        ["stats", "--stat", "p", "--format", "json"],
        "447d80447585642ee8b7bb36310269ba037e460d15751965fe1d8c879e7648ee",
    ),
    "stats-c": (
        ["stats", "--stat", "c", "--format", "json"],
        "8afa1f33af47f054422c389dc330c385919283b7f5e5d026ba6962274f6e8158",
    ),
    "stats-s": (
        ["stats", "--stat", "s", "--format", "json"],
        "b0ad16eafcc8ad10ab62a225cdf8d3f29d7ce65efc3d3a8bb30e650482fec8e5",
    ),
    "stats-mu": (
        ["stats", "--stat", "mu", "--format", "json"],
        "b9e51a28ca13860b4b7dd48258d73b8882babd4bef9c888ec08a8b1843f08a63",
    ),
    "stats-p_v": (
        ["stats", "--stat", "p_v", "--root", "0", "--format", "json"],
        "14c5cc84f1f5ba60579a4f744f35547fd9e24fdc47751b6db35bf10bf40b1f0b",
    ),
    "stats-w_p-unit": (
        ["stats", "--stat", "w_p", "--format", "json"],
        "7bc7ac9e60c7d911499017a98adbd3ff38548b43adf033cf9acc746434770394",
    ),
    "stats-w_p-random": (
        ["stats", "--stat", "w_p", "--weights", "random", "--seed", "5",
         "--format", "csv"],
        "9e8798889c1e65ad864a22439928883ae83cdab58ada281355d1220aae1ee4c8",
    ),
    "stats-p_S": (
        ["stats", "--stat", "p_S", "--s", "3", "--format", "json"],
        "dfef51663865059505f67134fc5badd8dc6303067931a9a2dfcad0fda73d0226",
    ),
    "stats-s_K": (
        ["stats", "--stat", "s_K", "--format", "csv"],
        "e59b8ab2afe0a4456c4f2b87b7c253966f4cb794ff968307f1d011a258555c35",
    ),
    "spdc-unit": (
        ["spdc", "--format", "json"],
        "5dfd5614c9e5b2f4ccb580c3f0861ea82658da0b7587d1cc39b59ec950b77ec0",
    ),
    "spdc-random": (
        ["spdc", "--weights", "random", "--seed", "5", "--format", "csv"],
        "0148c7d55ad4a9bc968774e9b483e050e71efd64e9886b0b37726ee89028ffbb",
    ),
    "ge": (
        ["ge", "--format", "json"],
        "eb5a0c188ea9465ab2c2e932942f6cd08604690e47ad0ede0370649e4b5f0296",
    ),
    "closure-k5": (
        ["closure", "--k", "5", "--format", "csv"],
        "3f47bd37c11742d33d19682c67ee90847a7598a5263161e712ac0e4f7bdaacec",
    ),
    "verify-weights-file": (
        ["verify", "--theorem", "all", "--weights", "file", "--weights-file",
         "{wfile}", "--format", "json"],
        "e00f63c5e7212a189ad49532905ce53f376d8932ff54d4cc0643ea5c4ddab11a",
    ),
}


def run_stdout(argv, stdin):
    old = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old


def case_digest(name, wfile, sort_lines=False):
    argv, _ = CASES[name]
    argv = [a.replace("{wfile}", str(wfile)) for a in argv]
    if "--n" in argv or "file" in argv:
        stdin = ""
    else:
        stdin = CONNECTED_LINES if "p_v" in argv else GRAPH_LINES
    code, out = run_stdout(argv, stdin)
    assert code == 0, name
    if sort_lines:
        out = "".join(sorted(out.splitlines(keepends=True)))
    return hashlib.sha256(out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch):
    monkeypatch.delenv("LOCTURAN_THREADS", raising=False)
    wfile = tmp_path / "w.wg"
    wfile.write_text(WEIGHTED)
    assert case_digest(name, wfile) == CASES[name][1]


def test_weights_file_report_lines_as_a_set(tmp_path, monkeypatch):
    """The set of report lines of `verify --weights file`, in sorted order."""
    monkeypatch.delenv("LOCTURAN_THREADS", raising=False)
    wfile = tmp_path / "w.wg"
    wfile.write_text(WEIGHTED)
    assert case_digest("verify-weights-file", wfile, sort_lines=True) == (
        "f990e94db16521a60da559a6447aec6f189e1384ce3f4cc2fdedbbe5a431d73f"
    )


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("LOCTURAN_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.wg")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(WEIGHTED)
        for case in CASES:
            print(f"{case} {case_digest(case, path)}")
