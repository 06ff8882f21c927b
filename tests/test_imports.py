"""Import hygiene: each CLI call loads only the numerics its subcommand runs.

Every case runs in a fresh interpreter, because this test process has
long since imported numpy and mpmath.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    out = run_python(
        "import json, sys, hypershift.cli\n"
        "print(json.dumps([m for m in ('mpmath', 'numpy') if m in sys.modules]))"
    )
    assert json.loads(out) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
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
    ],
    ids=["check-hyper", "necessary", "similarity-scan", "truncate"],
)
def test_subcommand_loads_only_its_numerics(argv, loaded):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    result = json.loads(run_python(CLI_PROBE, json.dumps(argv)))
    assert result["code"] in (0, 1)
    assert result["loaded"] == loaded


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
    # 38 names of the exact core and 31 resolved on first use.
    assert int(count) == 69
    assert rest.strip() == "[] [] []"
