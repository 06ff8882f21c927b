"""The golden cases: every byte-pinned report under tests/data/.

``CASES`` maps each pinned file to the exit code and the argv of the one
CLI invocation that produces it.  A ``.json`` or ``.csv`` file is that
invocation's exact stdout; an ``.err`` file is its exact stderr, and its
stdout must be empty.  ``diff(name)`` runs one case in process through
``hypershift.cli.main`` and lists what differs from its pinned file.

This module imports only the standard library, so the runtime can be
checked where numpy and mpmath are absent:

    PYTHONPATH=src python tests/golden.py

makes both unimportable, checks every case, prints how many it checked,
and exits 1 if any case differs (or there is none).  It checks whichever
``hypershift`` the interpreter imports, so an installed package is checked
the same way without ``PYTHONPATH``.
"""

import contextlib
import io
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _scan(command, weight, *args):
    return [command, "--weights", str(DATA / weight), *args]


def _curvature(*names, grid="radial:2x4"):
    argv = ["curvature", "--grid", grid]
    for name in names:
        argv += ["--weights", str(DATA / f"{name}.json")]
    return argv


# Weights whose metric the numerics refuse past the origin: an explicit list
# of three terms (exit 2), a table without a fallback and a polynomial with a
# negative coefficient (exit 3, no tail bound).  Each refuses alone, as the
# first and as the second weight of a pair; between two refusing weights the
# first one's refusal wins.
_CURVATURE_REFUSALS = {
    "curvature_" + "_".join(names) + ".err": (code, _curvature(*names))
    for names, code in [
        (("explicit3",), 2),
        (("explicit3", "power22"), 2),
        (("power22", "explicit3"), 2),
        (("table_nofallback",), 3),
        (("table_nofallback", "power22"), 3),
        (("power22", "table_nofallback"), 3),
        (("poly_nobound",), 3),
        (("poly_nobound", "power22"), 3),
        (("power22", "poly_nobound"), 3),
        (("explicit3", "table_nofallback"), 2),
        (("table_nofallback", "explicit3"), 3),
    ]
}

# A power:1 table with rho = 1/1000 on degrees 1 to 6: truncated at degree
# 0, its base series no longer outweighs the negative corrections, and h is
# -3.25 at |w| = 0.95.  That is no metric, so it is refused (exit 3) alone
# and as either weight of a pair.
_NONPOSITIVE_REFUSALS = {
    "curvature_" + "_".join(names) + ".err": (
        3, _curvature(*names, grid="radial:2x1") + ["--eval-degree", "0"]
    )
    for names in [("table_thin",), ("table_thin", "power12"), ("power12", "table_thin")]
}

# Ray scans that reach an undefined weight value exit 2 with the first
# failing cell's error: an explicit list of three terms and a cubic with
# a(3) = 0 both fail at degree 3 on the ray from the origin (the first
# weight's error wins between the two), and a table without a fallback at
# (2, 0).
_SIMILARITY_REFUSALS = {
    f"similarity_scan_{a}_{b}.err": (
        2,
        [
            "similarity-scan", "--weights", str(DATA / f"{a}.json"),
            "--weights", str(DATA / f"{b}.json"), "--degree", "2", "--ray-length", "3",
        ],
    )
    for a, b in [
        ("explicit3", "power22"),
        ("poly_drop", "power22"),
        ("explicit3", "poly_drop"),
        ("poly_drop", "explicit3"),
        ("table_nofallback", "power22"),
    ]
}


CASES = {
    "example45_eval40.json": (0, ["example45", "--eval-degree", "40"]),
    # Three blocks: the only report where a divisor reaches 3, on the ray
    # over (0, 4095).
    "example45_blocks3_eval40.json": (0, ["example45", "--blocks", "3", "--eval-degree", "40"]),
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
    # The counterexample against its power base on a grid and degree where
    # the ray corrections move the jets, its m = 3 form, and the perturbed
    # weight alone.
    "curvature_perturbed45_power22_6x4_eval120.json": (
        0,
        _scan(
            "curvature", "perturbed45.json", "--weights", str(DATA / "power22.json"),
            "--grid", "radial:6x4", "--eval-degree", "120",
        ),
    ),
    "curvature_perturbed45_m3_power23_2x4.json": (0, _curvature("perturbed45_m3", "power23")),
    # An m = 3 cubic alone: 4 of its 11 class matrices have nonzero
    # off-diagonal entries, so their spectra take Jacobi rotations, where
    # every class matrix of the m = 3 pair above is diagonal at 80 bits.
    "curvature_cubic_m3_2x4.json": (0, _curvature("cubic_m3")),
    "curvature_perturbed45_3x4.json": (
        0,
        _scan("curvature", "perturbed45.json", "--grid", "radial:3x4"),
    ),
    # A geometric base, a(d) = 2^-d: its tails read the ratio bound r = 1/2.
    "curvature_geometric_half_2x4.json": (0, _curvature("geometric_half")),
    **_CURVATURE_REFUSALS,
    **_NONPOSITIVE_REFUSALS,
    # Truncated at degree 0, power(2,2)'s tail ratio bound 2 at |w|^2 =
    # 0.9025 puts x = r t past 1: the geometric tail has no sum (exit 3).
    "curvature_power22_1x1_eval0.err": (
        3, _curvature("power22", grid="radial:1x1") + ["--eval-degree", "0"]
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
    **_SIMILARITY_REFUSALS,
    # The geometric base a(d) = 2^-d against power(2,2), every cell.
    "similarity_scan_geometric_half_power22.csv": (
        1,
        _scan(
            "similarity-scan", "geometric_half.json", "--weights", str(DATA / "power22.json"),
            "--degree", "2", "--ray-length", "2", "--format", "csv",
        ),
    ),
    # Rays through the halved table entry (2, 3) against the power base,
    # every cell in scan order.
    "similarity_scan_table_halved_power22.csv": (
        0,
        _scan(
            "similarity-scan", "table_power2_halved.json", "--weights",
            str(DATA / "power22.json"), "--degree", "6", "--ray-length", "6", "--format", "csv",
        ),
    ),
    # The counterexample against its base: the ray from (2, 0) in direction
    # 1 tops out at the halved entry (2, 511), where the ratio is 2.
    "similarity_scan_perturbed45_power22_l520.json": (
        1,
        _scan(
            "similarity-scan", "perturbed45.json", "--weights", str(DATA / "power22.json"),
            "--degree", "3", "--ray-length", "520",
        ),
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
    # The geometric base a(d) = 2^-d: rho(0, 1) = rho(0, 0) / 2, so d_1 = -1
    # at (0, 1).
    "check_hyper_geometric_half.json": (
        1,
        _scan("check-hyper", "geometric_half.json", "--n", "2", "--degree", "4"),
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
    # The truncation: exact defect from the defect engine and decay from
    # rho_ratio, with commutator_float and float_deviation from the float64
    # step products pinned byte for byte.
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
    # A power:2 table with rho(2,3) halved: the truncation reads
    # rho_ratio at every basis index, the halved entry and its neighbours
    # included.
    "truncate_table_halved_d8.json": (
        0,
        _scan(
            "truncate", "table_power2_halved.json", "--degree", "8", "--defect-order", "2",
            "--alpha", "2,3", "--k-max", "6",
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


def _first_difference(stream: str, got: str, pinned: str) -> str:
    i = next((i for i, (a, b) in enumerate(zip(got, pinned)) if a != b), min(len(got), len(pinned)))
    return f"{stream} differs at character {i}: {got[i : i + 40]!r}, pinned {pinned[i : i + 40]!r}"


def diff(name: str) -> list[str]:
    """Run case ``name`` through ``hypershift.cli.main`` in this process and
    list how it differs from the pinned file: the exit code, and the stdout,
    plus the stderr for an ``.err`` file.  An empty list means it matches."""
    # Imported here, so that the __main__ check installs its blocker first.
    from hypershift.cli import main

    code, argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        returned = main(argv)
    pinned = (DATA / name).read_text()
    expected = {"stdout": "", "stderr": pinned} if name.endswith(".err") else {"stdout": pinned}
    got = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    differences = [] if returned == code else [f"exit code {returned}, pinned {code}"]
    differences += [
        _first_difference(stream, got[stream], text)
        for stream, text in expected.items()
        if got[stream] != text
    ]
    return differences


class _BlockNumerics:
    """A meta-path finder under which numpy and mpmath cannot be imported."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("mpmath", "numpy"):
            raise ImportError(f"{name} is blocked")
        return None


def _check_all() -> int:
    sys.meta_path.insert(0, _BlockNumerics())
    for blocked in ("mpmath", "numpy"):
        try:
            __import__(blocked)
        except ImportError:
            continue
        print(f"{blocked} imported past the blocker", file=sys.stderr)
        return 1
    failed = 0
    for name in sorted(CASES):
        differences = diff(name)
        for line in differences:
            print(f"{name}: {line}", file=sys.stderr)
        failed += bool(differences)
    print(f"{len(CASES)} golden cases checked with numpy and mpmath unimportable, {failed} differ")
    return 1 if failed or not CASES else 0


if __name__ == "__main__":
    sys.exit(_check_all())
