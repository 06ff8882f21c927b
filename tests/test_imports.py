"""Import hygiene: each CLI call loads only the numerics its subcommand runs,
and no subcommand needs numpy or mpmath: the runtime is the standard
library alone.  No subcommand loads ``dataclasses`` (or ``inspect``, which
it pulls in), and the package modules a subcommand loads are pinned.

Every case runs in a fresh interpreter, because this test process has
long since imported numpy and mpmath.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import CASES

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# Prints the exit code of main(argv), which of numpy, mpmath, dataclasses and
# inspect it loaded, and the hypershift modules it loaded.
CLI_PROBE = """
import contextlib, io, json, sys
from hypershift.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "loaded": [m for m in ("mpmath", "numpy", "dataclasses", "inspect") if m in sys.modules],
    "package": sorted(m for m in sys.modules if m.startswith("hypershift.")),
}))
"""

# The modules every CLI call loads: the package core and the CLI itself.
# The metric numerics in ``curvature``, with their working-precision
# arithmetic, load only with the subcommands that evaluate a metric.
CORE = ["cli", "errors", "multiindex", "report", "weights"]


def python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def run_python(*argv: str) -> str:
    proc = python(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_no_numerics():
    # Encoding a report, complex entries included, loads nothing either: the
    # encoder recognises numbers by their __complex__ method.
    out = run_python(
        "-c",
        "import json, sys, hypershift.cli\n"
        "from fractions import Fraction\n"
        "from hypershift.report import canonical_json\n"
        "text = canonical_json({'x': Fraction(1, 3), 'w': (0.5j, 1.0)})\n"
        "assert text == '{\"w\":[[0.0,0.5],1.0],\"x\":\"1/3\"}\\n', text\n"
        "print(json.dumps([m for m in ('mpmath', 'numpy') if m in sys.modules]))"
    )
    assert json.loads(out) == []


def test_importing_the_cli_loads_no_tempfile():
    # write_atomic imports tempfile (with shutil and random) only when a
    # report goes to a file.  With -S no site .pth file can load it first.
    out = run_python(
        "-S",
        "-c",
        "import json, sys, hypershift.cli\n"
        "print(json.dumps([m for m in ('tempfile', 'shutil', 'random') if m in sys.modules]))",
    )
    assert json.loads(out) == []


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["verify-identities", "--n-max", "2", "--beta-max", "2", "--dims", "2"], []),
        (
            ["check-hyper", "--weights", "power33.json", "--n", "3", "--degree", "4"],
            ["hypercontraction"],
        ),
        (
            ["necessary", "--weights", "cubic_m3.json", "--n", "2", "--degree", "6"],
            ["hypercontraction"],
        ),
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
                "--format",
                "csv",
            ],
            ["similarity"],
        ),
        (
            ["truncate", "--weights", "poly_a.json", "--degree", "4", "--defect-order", "2"],
            ["hypercontraction", "truncation"],
        ),
        (
            ["curvature", "--weights", "power22.json", "--grid", "radial:1x2"],
            ["curvature"],
        ),
        (
            ["example45", "--eval-degree", "20"],
            ["curvature", "hypercontraction", "similarity"],
        ),
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
def test_subcommand_loads_only_its_numerics(argv, layers):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    result = json.loads(run_python("-c", CLI_PROBE, json.dumps(argv)))
    assert result["code"] in (0, 1)
    # No numeric library, and no dataclasses (nor the inspect it imports).
    assert result["loaded"] == []
    assert result["package"] == sorted(f"hypershift.{m}" for m in CORE + layers)


@pytest.fixture(scope="module")
def numpy_free_golden_run():
    # golden.py checks every golden case in one interpreter where numpy and
    # mpmath cannot be imported, printing the count last and each case that
    # differs as "<name>: <difference>" on stderr.
    return python(str(ROOT / "tests" / "golden.py"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_without_numpy(numpy_free_golden_run, name):
    proc = numpy_free_golden_run
    assert proc.stdout.startswith(
        f"{len(CASES)} golden cases checked with numpy and mpmath unimportable, "
    ), proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith(f"{name}: ")] == []


def test_every_exported_name_resolves():
    out = run_python(
        "-c",
        "import hypershift\n"
        "missing = [n for n in hypershift.__all__ if getattr(hypershift, n, None) is None]\n"
        "unlisted = sorted(set(hypershift.__all__) - set(dir(hypershift)))\n"
        "ns = {}\n"
        "exec('from hypershift import *', ns)\n"
        "unstarred = sorted(set(hypershift.__all__) - set(ns))\n"
        "print(len(hypershift.__all__), missing, unlisted, unstarred)"
    )
    count, rest = out.split(" ", 1)
    # 18 names of the core and 24 resolved on first use.
    assert int(count) == 42
    assert rest.strip() == "[] [] []"


def test_dir_lists_the_lazy_names_without_importing_them(monkeypatch):
    # With the lazy modules unloaded and their names not yet resolved, dir()
    # still lists every lazy name, sorted, and loads nothing.
    import hypershift

    modules = {f"hypershift.{module}" for module in hypershift._LAZY.values()}
    for module in modules:
        monkeypatch.delitem(sys.modules, module, raising=False)
    for name in hypershift._LAZY:
        monkeypatch.delitem(vars(hypershift), name, raising=False)
    names = dir(hypershift)
    assert names == sorted(names)
    assert set(hypershift._LAZY) <= set(names)
    assert set(hypershift.__all__) <= set(names)
    assert modules.isdisjoint(sys.modules)


def test_every_exported_name_has_a_caller():
    # A public name stays only while package code outside __init__ refers
    # to it (a call, an annotation, an isinstance) or the benchmark imports
    # it from the package; a name defined and never used is deleted.
    import ast

    import hypershift

    used = set()
    for path in (ROOT / "src" / "hypershift").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypershift"):
                used.update(alias.name for alias in node.names)
    assert sorted(set(hypershift.__all__) - used) == []


def test_weights_module_holds_no_rounding():
    # The weights state exact Fraction facts; every rounding lives with the
    # metric numerics in ``curvature``, so weights imports neither decimal
    # nor ``curvature``.
    import ast

    tree = ast.parse((ROOT / "src" / "hypershift" / "weights.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported.isdisjoint({"decimal", ".curvature", "hypershift.curvature"})
    assert {".multiindex", ".report", "fractions"} <= imported
