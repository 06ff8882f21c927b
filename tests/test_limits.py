"""Large inputs within their time limits, and a run out of memory.

Each case runs the CLI in a fresh interpreter, as ``python -m
hypershift.cli``, and must exit with its code before its limit, which
counts the interpreter's start-up.  Every input here took at most ~1 s on
a 2-vCPU machine (Python 3.11.7), against limits of 10 s and more, so a
limit fails on a slowdown of an order of magnitude, not on scheduler noise.
"""

import json
import resource

import pytest

from helpers import python

# Each case: argv, exit code, limit in seconds.  A dict in argv is a weight
# spec, written to a file whose path takes its place.
LARGE = {
    # perturbed45 with (n, L) = (3, 2) has its defect witness (2, 1726) past
    # 1.49M indices of the scan.
    "perturbed45-n3-degree-1800": (
        ["check-hyper", "--weights", "tests/data/perturbed45_n3.json", "--n", "3", "--degree", "1800"],
        1,
        60,
    ),
    # A read at degree 262148: a radial value takes |alpha|!/alpha! as a
    # product of binomials, not a quotient of factorials with millions of
    # bits, so the bound's failure comes quickly.
    "perturbed45-l5-alpha-5-262143": (
        [
            "necessary", "--weights", {"kind": "perturbed45", "n": 2, "m": 2, "L": 5},
            "--n", "2", "--alpha", "5,262143",
        ],
        1,
        10,
    ),
    # One ratio per (degree, length) off the correction set: 760k cells,
    # 12k of them computed.
    "similarity-760k-cells": (
        [
            "similarity-scan", "--weights", "tests/data/power22.json",
            "--weights", "tests/data/poly_a.json", "--degree", "60", "--ray-length", "200",
        ],
        0,
        10,
    ),
    # Each unit step read once and the defect from the cone engine, with no
    # matrices: 5,151 dimensions and an order-4 defect.
    "truncate-5151-dimensions": (
        ["truncate", "--weights", "tests/data/power22.json", "--degree", "100", "--defect-order", "4"],
        0,
        30,
    ),
    "example45-eval-120": (["example45", "--eval-degree", "120"], 0, 60),
    # One jet, psi and spectrum per modulus class: the CLI-default
    # radial:6x8 pair (1,505 points, 235 classes) and the m = 3 pair on
    # radial:2x8 (753 points).
    "curvature-6x8-eval-240": (
        [
            "curvature", "--weights", "tests/data/perturbed45.json",
            "--weights", "tests/data/power22.json", "--eval-degree", "240",
        ],
        0,
        10,
    ),
    "curvature-m3-2x8": (
        [
            "curvature", "--weights", "tests/data/perturbed45_m3.json",
            "--weights", "tests/data/power23.json", "--grid", "radial:2x8",
        ],
        0,
        10,
    ),
    # Index sets are enumerated without recursion: the correction cone of a
    # table over m = 1200 coordinates is enumerate_leq_degree(1200, 1).
    "table-m1200": (
        [
            "check-hyper",
            "--weights",
            {"kind": "table", "m": 1200, "fallback": "power:2", "entries": [{"alpha": [0] * 1200, "rho": "2"}]},
            "--n", "1", "--degree", "2",
        ],
        0,
        60,
    ),
}


@pytest.mark.parametrize("argv, code, limit", list(LARGE.values()), ids=list(LARGE))
def test_large_input_exits_within_its_limit(tmp_path, argv, code, limit):
    def spec_file(spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    argv = [spec_file(a) if isinstance(a, dict) else a for a in argv]
    proc = python("-m", "hypershift.cli", *argv, timeout=limit)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_running_out_of_address_space_exits_3():
    # 4.6M indices under a 600 MB address space (`ulimit -v 600000`), set
    # on the child alone: the allocator's MemoryError is a refusal, exit 3
    # with one JSON line, no traceback and nothing on stdout.
    limit = 600_000 * 1024
    argv = ["truncate", "--weights", "tests/data/power33.json", "--degree", "300"]
    proc = python(
        "-m",
        "hypershift.cli",
        *argv,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    refusal = json.loads(proc.stderr)
    assert refusal["kind"] == "MemoryError" and refusal["error"]
