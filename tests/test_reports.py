"""Reports on integers: the direct JSON line and CSV row against the
to_dict renderings, the integer minimum-slack fold against a Fraction fold,
and a count of the Fractions that verify.py builds over the n <= 7 proof.

The references are the renderings the CLI used before reports kept integer
numerators (json.dumps of to_dict, and str of each to_dict value); their
digests over the complete corpora are pinned as well, so that to_dict
itself cannot drift with the writers.
"""

import hashlib
import json
import sys
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from conftest import DigestSink
from locturan import verify
from locturan.cli import main
from locturan.rationals import format_rational
from locturan.verify import (
    ALL_THEOREMS,
    CSV_FIELDS,
    HYPOTHESIS_NOT_MET,
    OK,
    VIOLATED,
    TheoremSummary,
    VerificationReport,
    _absorb,
    report_csv_row,
    report_json,
    verify_corpus,
)


def test_json_line_equals_json_dumps_of_to_dict_through_n7():
    digest, count, differ = hashlib.sha256(), 0, []

    def check(rep):
        nonlocal count
        line = json.dumps(rep.to_dict())
        digest.update((line + "\n").encode("ascii"))
        count += 1
        if report_json(rep) != line and len(differ) < 3:
            differ.append(line)

    assert verify_corpus(ALL_THEOREMS, ns=range(1, 8), on_report=check).ok
    assert differ == []
    assert count == 41990
    assert digest.hexdigest() == (
        "5ca215d39adf1f8b38b493700a8763512ba173f1a3e185c6ed9e9a2776ff9917"
    )


def test_csv_row_equals_the_to_dict_row_under_random_weights_through_n6():
    digest, count, differ = hashlib.sha256(), 0, []

    def check(rep):
        nonlocal count
        d = rep.to_dict()
        row = ["" if d.get(k) is None else str(d.get(k)) for k in CSV_FIELDS]
        digest.update(("\x1f".join(row) + "\n").encode("ascii"))
        count += 1
        if report_csv_row(rep) != row and len(differ) < 3:
            differ.append(row)

    result = verify_corpus(
        ALL_THEOREMS, ns=range(1, 7), weights="random", seed=1, trials=2, on_report=check
    )
    assert result.ok and differ == []
    assert count == 7118
    assert digest.hexdigest() == (
        "6db399d05d52d1b551d7ed63a32a3c8c118ac29649dbf331ad2003ef3f5747aa"
    )


def test_json_line_renders_every_field_type_as_json_dumps():
    reps = [
        VerificationReport("mt", "A\\", OK, Fraction(1, 3), 1),
        VerificationReport("mt", "A_", VIOLATED, 2, Fraction(3, 2), root=0, s=2,
                           weights="file", family_match=True, reason='a "b"',
                           witness={"k": [1, 2], "nested": {"x": None, "y": False}}),
        VerificationReport("eg-cycle", "Bw", HYPOTHESIS_NOT_MET, reason="skip"),
        VerificationReport("mt", "Bw", OK, Fraction(2, 4)),
    ]
    for rep in reps:
        assert report_json(rep) == json.dumps(rep.to_dict())


def test_report_repr_and_equality_read_the_rational_fields():
    rep = VerificationReport("mt", "Cr", VIOLATED, Fraction(9), Fraction(1))
    assert repr(rep) == (
        "VerificationReport(theorem='mt', graph6='Cr', status='violated', "
        "lhs=Fraction(9, 1), rhs=Fraction(1, 1), root=None, s=None, weights=None, "
        "family_match=None, witness=None, reason=None, slack=Fraction(-8, 1))"
    )
    assert rep == VerificationReport("mt", "Cr", VIOLATED, 9, Fraction(3, 3))
    assert rep != VerificationReport("mt", "Cr", VIOLATED, 9, Fraction(3, 2))
    assert rep != VerificationReport("mt", "Cr", VIOLATED, 9, 1, root=0)


# ---------------------------------------------------------------------------
# the minimum-slack fold


def reference_fold(reps):
    """min slack (first of equal minima), its graph6, the equality count and
    the failure lines, from the reports' Fraction sides."""
    low = witness = None
    equalities, failures = 0, []
    for rep in reps:
        if rep.status == HYPOTHESIS_NOT_MET:
            continue
        slack = rep.rhs - rep.lhs
        if rep.status == VIOLATED:
            failures.append(
                f"mt: bound violated on {rep.graph6} "
                f"(slack {format_rational(slack)}, witness {{'graph6': '{rep.graph6}'}})"
            )
        if low is None or slack < low:
            low, witness = slack, rep.graph6
        equalities += slack == 0
    return low, witness, equalities, failures


ratio = st.tuples(st.integers(-12, 12), st.integers(1, 12))


@given(st.lists(st.one_of(st.none(), st.tuples(ratio, ratio)), max_size=25))
@example([((1, 3), (5, 6)), ((0, 1), (1, 2)), ((2, 3), (1, 6)), ((1, 1), (1, 2))])
@example([((1, 2), (1, 2)), ((3, 6), (2, 4)), None])
def test_integer_fold_matches_a_fraction_fold(sides):
    reps = []
    for i, pair in enumerate(sides):
        g6 = f"G{i}"
        if pair is None:
            reps.append(VerificationReport("mt", g6, HYPOTHESIS_NOT_MET, reason="skip"))
            continue
        lhs, rhs = Fraction(*pair[0]), Fraction(*pair[1])
        reps.append(VerificationReport("mt", g6, OK if lhs <= rhs else VIOLATED, lhs, rhs))
    summary, failures = TheoremSummary("mt"), []
    for rep in reps:
        _absorb(summary, rep, failures)
    low, witness, equalities, expected = reference_fold(reps)
    assert summary.min_slack == low
    assert low is None or type(summary.min_slack) is Fraction
    assert summary.min_slack_witness == (None if witness is None else {"graph6": witness})
    assert summary.equality_count == equalities
    assert failures == expected
    assert summary.checked == len(reps)


def test_proof_builds_a_fraction_only_when_the_minimum_moves(monkeypatch):
    """Over the n <= 7 JSON proof, verify.py builds exactly one Fraction per
    move of some theorem's minimum slack, and none in its verifiers, its
    report writer or the rest of the fold."""
    built = moves = 0
    real = verify.Fraction

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    class Summary(TheoremSummary):
        def __setattr__(self, name, value):
            nonlocal moves
            moves += name == "min_slack" and value is not None
            super().__setattr__(name, value)

    monkeypatch.setattr(verify, "Fraction", counting)
    monkeypatch.setattr(verify, "TheoremSummary", Summary)
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["verify", "--theorem", "all", "--n", "1-7", "--format", "json"]) == 0
    assert sink.hash.hexdigest() == (
        "f1cd01a6be2e932fadf787fcf74068b57e44007b48c437d6cc2ecfd5805676b1"
    )
    assert built == moves == 21
