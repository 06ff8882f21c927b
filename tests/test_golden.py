"""Byte-for-byte guards on canonical JSON reports.

Each file under tests/data/ is the exact stdout of one CLI invocation.  A
change that is meant to move these numbers (closed-form radial bases, error
budgets) regenerates the files and says why, e.g.

    PYTHONPATH=src python -m hypershift.cli example45 --eval-degree 40 \\
        > tests/data/example45_eval40.json
"""

from pathlib import Path

import pytest

from hypershift.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "example45_eval40.json": ["example45", "--eval-degree", "40"],
    "curvature_pair_2x4_eval60.json": [
        "curvature",
        "--weights",
        str(DATA / "poly_a.json"),
        "--weights",
        str(DATA / "poly_b.json"),
        "--grid",
        "radial:2x4",
        "--eval-degree",
        "60",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_pinned_file(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()
