"""Byte-for-byte guards on canonical JSON reports and refusals.

Each ``.json`` file under tests/data/ named in CASES is the exact stdout of
one CLI invocation and each ``.err`` file its exact stderr; every case also
pins its exit code.  A change that is meant to move these numbers (closed-form
radial bases, error budgets) regenerates the files and says why, e.g.

    PYTHONPATH=src python -m hypershift.cli example45 --eval-degree 40 \\
        > tests/data/example45_eval40.json
"""

from pathlib import Path

import pytest

from hypershift.cli import main

DATA = Path(__file__).parent / "data"


def _scan(command, weight, *args):
    return [command, "--weights", str(DATA / weight), *args]


CASES = {
    "example45_eval40.json": (0, ["example45", "--eval-degree", "40"]),
    "curvature_pair_2x4_eval60.json": (
        0,
        [
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
    ),
    "curvature_pair_2x4_eval60.csv": (
        0,
        [
            "curvature",
            "--weights",
            str(DATA / "poly_a.json"),
            "--weights",
            str(DATA / "poly_b.json"),
            "--grid",
            "radial:2x4",
            "--eval-degree",
            "60",
            "--format",
            "csv",
        ],
    ),
    "curvature_poly_a_2x4_eval60.json": (
        0,
        _scan("curvature", "poly_a.json", "--grid", "radial:2x4", "--eval-degree", "60"),
    ),
    "curvature_poly_a_2x4_eval60.csv": (
        0,
        _scan(
            "curvature", "poly_a.json", "--grid", "radial:2x4", "--eval-degree", "60",
            "--format", "csv",
        ),
    ),
    # power(1,2) against power(3,2): the ray ratios keep widening with the
    # ray length, so the scan flags growth and the report carries a witness.
    "similarity_scan_power12_power32.json": (
        1,
        [
            "similarity-scan",
            "--weights",
            str(DATA / "power12.json"),
            "--weights",
            str(DATA / "power32.json"),
            "--degree",
            "4",
            "--ray-length",
            "8",
        ],
    ),
    "similarity_scan_poly_ab.csv": (
        0,
        [
            "similarity-scan",
            "--weights",
            str(DATA / "poly_a.json"),
            "--weights",
            str(DATA / "poly_b.json"),
            "--degree",
            "2",
            "--ray-length",
            "2",
            "--format",
            "csv",
        ],
    ),
    # The neighbour-sum condition at one index: violated at the midpoint of
    # the counterexample's last block, and holding with equality below it.
    "necessary_perturbed45_alpha_2_511.json": (
        1,
        _scan("necessary", "perturbed45.json", "--n", "2", "--alpha", "2,511"),
    ),
    "necessary_perturbed45_alpha_1_510.json": (
        0,
        _scan("necessary", "perturbed45.json", "--n", "2", "--alpha", "1,510"),
    ),
    "verify_identities.json": (0, ["verify-identities"]),
    # A power:2 table with rho(2,3) halved: the scan stops at a witness.
    "check_hyper_table_halved.json": (
        1,
        _scan("check-hyper", "table_power2_halved.json", "--n", "2", "--degree", "8"),
    ),
    "check_hyper_power33.json": (
        0,
        _scan("check-hyper", "power33.json", "--n", "3", "--degree", "12"),
    ),
    "necessary_cubic_m3.json": (
        0,
        _scan("necessary", "cubic_m3.json", "--n", "2", "--degree", "15"),
    ),
    # The counterexample's defect and neighbour-sum witnesses at (2, 511),
    # and a clean scan of its m = 3 form past the perturbed ray.
    "check_hyper_perturbed45.json": (
        1,
        _scan("check-hyper", "perturbed45.json", "--n", "2", "--degree", "514"),
    ),
    "necessary_perturbed45.json": (
        1,
        _scan("necessary", "perturbed45.json", "--n", "2", "--degree", "514"),
    ),
    "check_hyper_perturbed45_m3.json": (
        0,
        _scan("check-hyper", "perturbed45_m3.json", "--n", "2", "--degree", "60"),
    ),
    # The matrix model: exact defect and decay through composed column maps,
    # with commutator_float and float_deviation from the float64 cross-check
    # pinned byte for byte.
    "truncate_power22_d40.json": (
        0,
        _scan(
            "truncate", "power22.json", "--degree", "40", "--defect-order", "3",
            "--alpha", "2,4", "--k-max", "8",
        ),
    ),
    "truncate_power33_d14.json": (
        0,
        _scan(
            "truncate", "power33.json", "--degree", "14", "--defect-order", "2",
            "--alpha", "1,2,3",
        ),
    ),
    "truncate_power22_decay.csv": (
        0,
        _scan(
            "truncate", "power22.json", "--degree", "12", "--alpha", "3,2",
            "--k-max", "7", "--format", "csv",
        ),
    ),
    # perturbed45 is power(2,2) below its ray at degree 512, so this pins the
    # perturbed45 spec path through a model small enough for a quick test.
    "truncate_perturbed45_d30.json": (
        0,
        _scan(
            "truncate", "perturbed45.json", "--degree", "30", "--defect-order", "2",
            "--alpha", "5,20",
        ),
    ),
    # Both radial bases fail at the start of degree layer 3, after layers
    # 0..2 passed: an explicit list of three terms, and a cubic with a(3) = 0.
    "check_hyper_explicit3.err": (
        2,
        _scan("check-hyper", "explicit3.json", "--n", "2", "--degree", "5"),
    ),
    "necessary_explicit3.err": (
        2,
        _scan("necessary", "explicit3.json", "--n", "2", "--degree", "5"),
    ),
    "check_hyper_poly_drop.err": (
        2,
        _scan("check-hyper", "poly_drop.json", "--n", "2", "--degree", "5"),
    ),
    "necessary_poly_drop.err": (
        2,
        _scan("necessary", "poly_drop.json", "--n", "2", "--degree", "5"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_pinned_file(capsys, name):
    code, argv = CASES[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    if name.endswith(".err"):
        assert (captured.out, captured.err) == ("", (DATA / name).read_text())
    else:
        assert captured.out == (DATA / name).read_text()
