"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload but ``counterexample`` once at a tiny size, untraced
   and traced, and requires every invocation to pass its check.  The
   counterexample's witness sits at degree 513 at any size, so its ~20 s
   invocation runs once, for step 2, where its untampered output must pass.
2. Proves each checker rejects a tampered report: for one invocation per
   check family it alters a single field of a real output (a witness value,
   a ratio, a Hessian entry or psi moved by 1e-6, a decay value, a CSV
   cell) and requires the check to fail.
3. Requires ``BENCHMARK.json`` to name exactly the workloads and metrics the
   runner reports.
4. Requires ``run.py`` to exit non-zero, printing no result, in a directory
   that holds only ``BENCHMARK.json`` and ``perfbench/``.

Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

def _nudge_first(text: str, prefix: str) -> str:
    """Move the first number after ``prefix`` by 1e-6 of max(1, |value|)."""
    def nudge(match):
        x = float(match.group(1))
        return prefix + repr(x + 1e-6 * max(1.0, abs(x)))

    pattern = re.escape(prefix) + r"(-?[0-9.]+(?:e[-+]?[0-9]+)?)"
    return re.sub(pattern, nudge, text, count=1)


# (workload, invocation label, tamper) with tamper: stdout -> altered stdout.
TAMPERS = (
    ("counterexample", "example45", lambda s: s.replace('"-256/257"', '"-255/257"')),
    ("counterexample", "example45", lambda s: s.replace('"ratio_sq":"2/1"', '"ratio_sq":"3/1"')),
    ("exact-scan", "check-hyper-power33", lambda s: s.replace("no-violation-up-to-6", "no-violation-up-to-7")),
    ("exact-scan", "check-hyper-table", lambda s: re.sub(r'"value":"-?\d+/\d+"', '"value":"-1/2"', s)),
    ("exact-scan", "necessary-poly3", lambda s: re.sub(r'"checked":\d+', '"checked":3', s)),
    ("exact-scan", "similarity-poly", lambda s: re.sub(r'"max_ratio_sq":"(\d+)/', r'"max_ratio_sq":"1\1/', s)),
    ("exact-scan", "similarity-poly-csv", lambda s: s.replace("\n0,0,0,", "\n0,0,0,9", 1)),
    ("metric-grid", "curvature-single", lambda s: _nudge_first(s, '"hessian":[[[')),
    ("metric-grid", "curvature-psi", lambda s: _nudge_first(s, '"psi":')),
    ("matrix-model", "truncate-power22", lambda s: s.replace('"0/1"]', '"1/7"]')),
    ("matrix-model", "truncate-power33", lambda s: s.replace('"dimension":', '"dimension":1')),
)


def tiny_runs(problems: list[str], outcomes: dict) -> None:
    for name in workloads.WORKLOADS:
        if name == "counterexample":
            continue
        for trace in (False, True):
            t0 = time.monotonic()
            res = run.run_workload(name, workloads.DEFAULT_SEED, 0.0, trace, tiny=True)
            print(f"tiny {name} trace={int(trace)}: attempted={res['attempted']} "
                  f"failed={res['failed']} ({time.monotonic() - t0:.1f} s)")
            for f in res["failures"]:
                problems.append(f"tiny {name}: {f['invocation']}: {f['problem']}")
            expected = set(dict(run.PER_LAYER if trace else run.END_TO_END))
            if set(res["metrics"]) != expected:
                problems.append(f"tiny {name} trace={int(trace)}: metric names differ")

    # Keep real outputs for the tamper checks.
    for name in {t[0] for t in TAMPERS}:
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir, tiny=True)
            runner = run.Runner(wl, workdir, time.monotonic() + run.RUN_DEADLINE_S)
            for inv in wl.invocations:
                res = run.run_child(
                    [sys.executable, "-m", "hypershift.cli", *inv.args], runner.env, workdir, 120
                )
                outcomes[(name, inv.label)] = (inv, runner.outcome(inv, res))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def tamper_checks(problems: list[str], outcomes: dict) -> None:
    for name, label, tamper in TAMPERS:
        inv, out = outcomes[(name, label)]
        try:
            inv.check(out)
        except workloads.CheckFailed as exc:
            problems.append(f"untampered {label} rejected: {exc}")
            continue
        altered = tamper(out.stdout)
        if altered == out.stdout:
            problems.append(f"tamper of {label} changed nothing")
            continue
        bad = workloads.Outcome(out.code, altered, out.stderr, out.out_file and altered)
        try:
            inv.check(bad)
        except (workloads.CheckFailed, KeyError, ValueError) as exc:
            print(f"tampered {label} rejected: {str(exc)[:100]}")
        else:
            problems.append(f"tampered {label} accepted")


def benchmark_json(problems: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")


def bare_directory(problems: list[str]) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    outcomes: dict = {}
    benchmark_json(problems)
    bare_directory(problems)
    tiny_runs(problems, outcomes)
    tamper_checks(problems, outcomes)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
