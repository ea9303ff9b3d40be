"""The MATPOWER reader against a plain one: `parse_case_text` reads each
table as one array, `oracle_utils.reference_case` one float() per token and
one record per row.  Every kept field must agree exactly, on every network
the package ships or benchmarks and on rows holding non-finite numbers."""

import glob
import os
import re

import pytest

import oracle_utils
from conftest import BUNDLED, CASES_DIR, bench_ladder_text, pglib_path
from dcattack.case_ingest import case_to_json, parse_case_text
from dcattack.errors import CaseError

from test_case_ingest import BRANCH, BUS2, TWO_BUS


def _same_case(text, name):
    """parse_case_text and the reference agree: == on every record, and
    the same canonical JSON (which tells -0.0 from 0.0)."""
    got = parse_case_text(text, name)
    want = oracle_utils.reference_case(text, name)
    assert got == want
    assert case_to_json(got) == case_to_json(want)
    return got


@pytest.mark.parametrize("path", sorted(
    {pglib_path(stem) for stem in BUNDLED}
    | set(glob.glob(os.path.join(CASES_DIR, "*.m")))),
    ids=os.path.basename)
def test_every_case_file_reads_as_the_reference_reads_it(path):
    with open(path) as fh:
        _same_case(fh.read(), "case")


@pytest.mark.parametrize("n, degenerate", [
    (30, False), (60, False), (120, False), (30, True), (60, True),
    (90, True)], ids=lambda v: str(v))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_bench_ladder_reads_as_the_reference_reads_it(n, degenerate,
                                                            seed):
    _same_case(*reversed(bench_ladder_text(n, seed, degenerate)))


def _edit(old, new):
    assert TWO_BUS.count(old) == 1
    return TWO_BUS.replace(old, new)


GEN = "\t1\t0\t0\t30\t-30\t1\t100\t1\t200\t0;"


@pytest.mark.parametrize("text", [
    _edit(BUS2, "\t2\t1\t50\tnan\tInf\t-Inf\t1\t1e999\t0\t230\t1\t1.1\t0.9;"),
    _edit(GEN, "\t1\tNaN\t-inf\t1e999\t-1e999\t1\t100\t1\t200\t0;"),
    _edit(BRANCH, "\t1\t2\tnan\t0.1\tInf\t100\t1e999\t-1e999\t0\t0\t1\t"
                  "-Inf\tNAN;"),
    _edit(BRANCH, "\t1\t2\t0\t0.1\t0\t-0\t0\t0\t0\t0\t1\t-30\t30;"),
    _edit(BRANCH, "\t1\t2\t1e-400\t0.1\t0\t1e-400\t0\t0\t0\t0\t1\t-30\t30;"),
    _edit(BUS2, "\t2,\t1,\t50,\t10,\t0,\t0,\t1,\t1,\t0,\t230,\t1,\t1.1,\t0.9;"),
    _edit(BUS2 + "\n", BUS2 + " % a comment ]; x = 1\n\n"),
    _edit(GEN + "\n", GEN + "\n\t2\t0\t0\t30\t-30\t1\t100\t0\t200\t0;\n"),
], ids=["bus-unused-non-finite", "gen-unused-non-finite",
        "branch-unused-non-finite", "rating-minus-zero", "underflow",
        "commas", "comment-and-blank", "out-of-service-unit"])
def test_non_finite_and_odd_rows_read_as_the_reference_reads_them(text):
    """nan, Inf and 1e999 in columns no bound reads, a rating of -0
    (unlimited), numbers that underflow to 0, comma separators, trailing
    comments and blank lines."""
    _same_case(text, "desk2")


@pytest.mark.parametrize("text", [
    _edit(BUS2, "\t2\t1\tnan\t10\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;"),
    _edit(BUS2, "\t2\t1\t1e999\t10\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;"),
    _edit(BRANCH, "\t1\t2\t0\t1e999\t0\t100\t0\t0\t0\t0\t1\t-30\t30;"),
    _edit(BRANCH, "\t1\t2\t0\t0.1\t0\t1e999\t0\t0\t0\t0\t1\t-30\t30;"),
    _edit(BRANCH, "\t1\t2\t0\t1e-320\t0\t100\t0\t0\t0\t0\t1\t-30\t30;"),
    _edit(GEN, "\t1\t0\t0\t30\t-30\t1\t100\t1\tInf\t0;"),
], ids=["load-nan", "load-1e999", "x-1e999", "rating-1e999", "b-overflow",
        "p_max-inf"])
def test_non_finite_kept_fields_fail_as_the_reference_fails(text):
    """A non-finite value in a kept field, or a susceptance 1/x that
    overflows, is rejected with the same message."""
    with pytest.raises(CaseError) as want:
        oracle_utils.reference_case(text)
    with pytest.raises(CaseError, match=f"^{re.escape(str(want.value))}$"):
        parse_case_text(text)
