"""Byte-for-byte guards on canonical JSON reports and refusals: one test per
case of ``golden.CASES``, each run in process and compared with its pinned
file under tests/data/."""

import json

import pytest

from golden import CASES, DATA, diff


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_pinned_file(name):
    assert diff(name) == []


def test_every_report_is_exactly_one_case():
    # A report is an .err or .csv file, or a .json object with a "command"
    # key; the other .json files are the weight specs the cases read.  So a
    # report no case checks, and a case whose file is missing, both fail.
    reports = sorted(
        path.name
        for path in DATA.iterdir()
        if path.suffix in (".err", ".csv")
        or (path.suffix == ".json" and "command" in json.loads(path.read_text()))
    )
    assert reports == sorted(CASES)
