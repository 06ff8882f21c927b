"""Import hygiene: each CLI call loads only the numerics its subcommand runs,
and no subcommand needs numpy.

Every case runs in a fresh interpreter, because this test process has
long since imported numpy and mpmath.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# Prints the exit code of main(argv) and which numeric libraries it loaded.
CLI_PROBE = """
import contextlib, io, json, sys
from hypershift.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": [m for m in ("mpmath", "numpy") if m in sys.modules]}))
"""

# Runs main(argv) with numpy made unimportable and prints its exit code and
# stdout.
NO_NUMPY_PROBE = """
import contextlib, io, json, sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("numpy imported past the blocker")
from hypershift.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "stdout": out.getvalue()}))
"""


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_numerics():
    # Encoding a report, complex entries included, loads nothing either: the
    # encoder recognises mpmath numbers without importing mpmath.
    out = run_python(
        "import json, sys, hypershift.cli\n"
        "from fractions import Fraction\n"
        "from hypershift.report import canonical_json\n"
        "text = canonical_json({'x': Fraction(1, 3), 'w': (0.5j, 1.0)})\n"
        "assert text == '{\"w\":[[0.0,0.5],1.0],\"x\":\"1/3\"}\\n', text\n"
        "print(json.dumps([m for m in ('mpmath', 'numpy') if m in sys.modules]))"
    )
    assert json.loads(out) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["verify-identities", "--n-max", "2", "--beta-max", "2", "--dims", "2"], []),
        (["check-hyper", "--weights", "power33.json", "--n", "3", "--degree", "4"], []),
        (["necessary", "--weights", "cubic_m3.json", "--n", "2", "--degree", "6"], []),
        (
            [
                "similarity-scan",
                "--weights",
                "poly_a.json",
                "--weights",
                "poly_b.json",
                "--degree",
                "3",
                "--ray-length",
                "2",
            ],
            [],
        ),
        (["truncate", "--weights", "poly_a.json", "--degree", "4", "--defect-order", "2"], []),
        (["curvature", "--weights", "power22.json", "--grid", "radial:1x2"], ["mpmath"]),
        (["example45", "--eval-degree", "20"], ["mpmath"]),
    ],
    ids=[
        "verify-identities",
        "check-hyper",
        "necessary",
        "similarity-scan",
        "truncate",
        "curvature",
        "example45",
    ],
)
def test_subcommand_loads_only_its_numerics(argv, loaded):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    result = json.loads(run_python(CLI_PROBE, json.dumps(argv)))
    assert result["code"] in (0, 1)
    assert result["loaded"] == loaded


@pytest.mark.parametrize(
    "name", ["example45_eval40.json", "curvature_perturbed45_m3_power23_2x4.json"]
)
def test_golden_report_without_numpy(name):
    # The m = 3 pair takes the general eigenvalue path, example45 the m = 2
    # closed form.
    code, argv = CASES[name]
    result = json.loads(run_python(NO_NUMPY_PROBE, json.dumps(argv)))
    assert result["code"] == code
    assert result["stdout"] == (DATA / name).read_text()


def test_every_exported_name_resolves():
    out = run_python(
        "import hypershift\n"
        "missing = [n for n in hypershift.__all__ if getattr(hypershift, n, None) is None]\n"
        "unlisted = sorted(set(hypershift.__all__) - set(dir(hypershift)))\n"
        "ns = {}\n"
        "exec('from hypershift import *', ns)\n"
        "unstarred = sorted(set(hypershift.__all__) - set(ns))\n"
        "print(len(hypershift.__all__), missing, unlisted, unstarred)"
    )
    count, rest = out.split(" ", 1)
    # 34 names of the exact core and 28 resolved on first use.
    assert int(count) == 62
    assert rest.strip() == "[] [] []"
