"""hypershift benchmark: seeded CLI workloads, end-to-end metrics, and a traced
per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (``src/hypershift`` must exist).
Each workload is a list of real ``hypershift`` CLI invocations, each run as a
child process (``python3 -m hypershift.cli``) with ``src`` on PYTHONPATH and
the BLAS thread variables fixed to 1.  A pass runs the list once; the run
starts passes until ``--seconds`` have elapsed (so at least one), checks
every output, and reports medians over passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass (each invocation under ``perfbench/tracer.py``) and
prints the per-layer metrics, including the tracing overhead.  ``--workload
all`` runs every workload and prints each metric with unit and sample count.
The last stdout line is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw samples, the environment
stamp and the spans go to ``.perfbench-out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
HERE = Path(__file__).resolve().parent

RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 9
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = "1"

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

# Layer functions whose calls and self time are reported.
_CALLS_AND_SELF = (
    "hypercontraction.defect_diag",
    "hypercontraction.necessary_condition",
    "weights.rho_ratio",
    "weights.rho",
    "multiindex.multinomial",
    "multiindex.enumerate_leq_degree",
    "weights.metric_jet",
    "weights.eval_metric",
    "curvature.log_metric_hessian",
    "curvature.curvature_difference",
    "curvature.eigenvalues",
    "curvature.psd_check",
    "similarity.ray_ratio_sq",
    "truncation.compose",
    "truncation.gram",
    "truncation.m_power_diag",
    "report.canonical_json",
)
_SELF_ONLY = (
    "hypercontraction.is_n_hyper_up_to",
    "curvature.psh_boundedness_report",
    "similarity.similarity_scan",
    "truncation.build_truncated",
    "truncation.commutator_defect",
    "truncation.commutator_float_norm",
    "truncation.defect_operator",
    "truncation.defect_operator_dense",
    "truncation.decay_curve",
    "report.write_atomic",
    "report.render_csv",
    "cli.main",
    "cli.run_example45",
    "weights.weight_from_dict",
)
# Multiindex helpers outside the two named above (sub, degree, unit, ...).
_MI_NAMED = ("multiindex.multinomial", "multiindex.enumerate_leq_degree")

# (name, unit) of every per-layer metric.
PER_LAYER = (
    tuple((f"{f}.calls", "count") for f in _CALLS_AND_SELF)
    + tuple((f"{f}.self_s", "s") for f in _CALLS_AND_SELF + _SELF_ONLY)
    + (
        ("multiindex.helpers.self_s", "s"),
        ("hypercontraction.indices_scanned", "count"),
        ("hypercontraction.rho_ratio_per_defect", "ratio"),
        ("weights.metric_jet.series_terms", "count"),
        ("weights.metric_jet.per_point", "ratio"),
        ("curvature.grid_points", "count"),
        ("similarity.ray_ratio_sq.per_cell", "ratio"),
        ("report.canonical_json.bytes", "bytes"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


# ---------------------------------------------------------------------------
# Child processes


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = workdir
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict, workdir: str, timeout: float) -> dict:
    """Run one child; return exit code, output, wall and rusage figures.

    The child is reaped with ``os.wait4`` so its own CPU time and peak RSS
    are read, not the cumulative figures of all children."""
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=str(ROOT))
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "code": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, workload, workdir: str, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env(workdir)
        self.checked: dict[tuple, str | None] = {}
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def _timeout(self) -> float:
        return self.deadline - time.monotonic()

    def setup_sample(self) -> float:
        argv = [sys.executable, str(HERE / "setup_probe.py"), *self.workload.weight_files]
        res = run_child(argv, self.env, self.workdir, self._timeout())
        if res["code"] != 0:
            raise RuntimeError(f"setup probe failed: {res['stderr'][-500:]}")
        return res["wall_s"]

    @staticmethod
    def outcome(inv, res: dict):
        from workloads import Outcome

        out_file = None
        if inv.out_path and os.path.exists(inv.out_path):
            with open(inv.out_path) as fh:
                out_file = fh.read()
        return Outcome(res["code"], res["stdout"], res["stderr"], out_file)

    def check(self, inv, res: dict) -> str | None:
        from workloads import CheckFailed

        outcome = self.outcome(inv, res)
        key = (inv.label, hashlib.sha256(repr(outcome).encode()).hexdigest())
        if key not in self.checked:
            try:
                inv.check(outcome)
                self.checked[key] = None
            except CheckFailed as exc:
                self.checked[key] = str(exc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.checked[key] = f"malformed report: {type(exc).__name__}: {exc}"
        return self.checked[key]

    def run_pass(self, traced: bool) -> dict:
        samples = []
        traces = []
        for i, inv in enumerate(self.workload.invocations):
            if inv.out_path and os.path.exists(inv.out_path):
                os.unlink(inv.out_path)
            if traced:
                trace_path = os.path.join(self.workdir, f"trace-{i}.json")
                argv = [sys.executable, str(HERE / "tracer.py"), trace_path, inv.label, "--", *inv.args]
            else:
                argv = [sys.executable, "-m", "hypershift.cli", *inv.args]
            res = run_child(argv, self.env, self.workdir, self._timeout())
            problem = self.check(inv, res)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.failures.append({"invocation": inv.label, "problem": problem, "code": res["code"]})
            if traced and os.path.exists(trace_path):
                with open(trace_path) as fh:
                    traces.append(json.load(fh))
            samples.append(
                {
                    "invocation": inv.label,
                    "code": res["code"],
                    "ok": problem is None,
                    "wall_s": res["wall_s"],
                    "cpu_s": res["cpu_s"],
                    "rss_mb": res["rss_mb"],
                }
            )
        return {
            "wall_s": sum(s["wall_s"] for s in samples),
            "cpu_s": sum(s["cpu_s"] for s in samples),
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
            "failed": sum(not s["ok"] for s in samples),
            "invocations": samples,
            "traces": traces,
        }


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    counts = {"wall_s": len(passes), "cpu_s": len(passes), "setup_s": len(setup),
              "peak_rss_mb": len(passes), "ok_frac": attempted}
    return {name: {"value": values[name], "unit": unit, "n": counts[name]} for name, unit in END_TO_END}


def merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    layers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        for name, st in tr["layers"].items():
            agg = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in agg:
                agg[key] += st[key]
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return layers, counters


def layer_metrics(layers: dict, counters: dict, traced_wall: float, untraced_wall: float) -> dict:
    def stat(name: str, key: str):
        return layers.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {f"{f}.calls": stat(f, "calls") for f in _CALLS_AND_SELF}
    values.update({f"{f}.self_s": stat(f, "self_s") for f in _CALLS_AND_SELF + _SELF_ONLY})
    values["multiindex.helpers.self_s"] = sum(
        st["self_s"] for name, st in layers.items()
        if name.startswith("multiindex.") and name not in _MI_NAMED
    )
    values["hypercontraction.indices_scanned"] = counters.get("hypercontraction.indices_scanned", 0)
    values["hypercontraction.rho_ratio_per_defect"] = ratio(
        counters.get("weights.rho_ratio@hypercontraction.is_n_hyper_up_to", 0),
        counters.get("hypercontraction.defect_entries", 0),
    )
    values["weights.metric_jet.series_terms"] = counters.get("weights.sequence_value@weights.metric_jet", 0)
    values["curvature.grid_points"] = counters.get("curvature.grid_points", 0)
    values["weights.metric_jet.per_point"] = ratio(
        stat("weights.metric_jet", "calls"), values["curvature.grid_points"]
    )
    values["similarity.ray_ratio_sq.per_cell"] = ratio(
        stat("similarity.ray_ratio_sq", "calls"), counters.get("similarity.scan_cells", 0)
    )
    values["report.canonical_json.bytes"] = counters.get("report.canonical_json.bytes", 0)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Environment stamp


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment_stamp() -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hypershift").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_children": {v: BLAS_THREADS for v in BLAS_VARS},
        "blas_threads_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
    }


# ---------------------------------------------------------------------------
# Running a workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import workloads

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        wl = workloads.build(name, seed, workdir, tiny=tiny)
        runner = Runner(wl, workdir, deadline)
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "tiny": tiny, "inputs": wl.inputs,
                  "invocations": [inv.args for inv in wl.invocations]}
        if trace:
            plain = runner.run_pass(traced=False)
            traced = runner.run_pass(traced=True)
            layers, counters = merge_traces(traced["traces"])
            metrics = layer_metrics(layers, counters, traced["wall_s"], plain["wall_s"])
            result["passes"] = [
                {k: v for k, v in p.items() if k != "traces"} for p in (plain, traced)
            ]
            result.update(trace_layers=layers, trace_counters=counters,
                          spans=[s for tr in traced["traces"] for s in tr["spans"]],
                          intent=intent(name, metrics, layers))
        else:
            # Half the set-up probes run before the passes and half after, so
            # their median sees the same machine as the passes do.
            setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES // 2)]
            passes = []
            t0 = time.monotonic()
            while True:
                passes.append(runner.run_pass(traced=False))
                typical = statistics.median(p["wall_s"] for p in passes)
                now = time.monotonic()
                if now - t0 >= seconds or now + typical > deadline - 5:
                    break
            setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
            metrics = end_to_end_metrics(passes, setup)
            result["setup_samples"] = setup
            result["passes"] = [{k: v for k, v in p.items() if k != "traces"} for p in passes]
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            failures=runner.failures,
            metrics=metrics,
            environment=environment_stamp(),
            elapsed_s=time.monotonic() - start,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1))
    result["results_file"] = str(path.relative_to(ROOT))
    return result


def intent(workload: str, metrics: dict, layers: dict) -> list[tuple[str, bool]]:
    """What a traced run must show for each workload to do what it is for."""
    def v(name):
        return metrics[name]["value"]

    out = []
    if workload in ("exact-scan", "matrix-model"):
        out.append(("weights.metric_jet.calls == 0", v("weights.metric_jet.calls") == 0))
    if workload == "metric-grid":
        out.append(("hypercontraction.defect_diag.calls == 0",
                    v("hypercontraction.defect_diag.calls") == 0))
    if workload != "matrix-model":
        out.append(("truncation.compose.calls == 0", v("truncation.compose.calls") == 0))
    if workload == "counterexample":
        share = sum(
            st["self_s"] for name, st in layers.items()
            if name.startswith(("hypercontraction.", "weights."))
        ) / v("trace.wall_s")
        out.append((f"hypercontraction+weights self_s / trace.wall_s = {share:.2f} >= 0.5",
                    share >= 0.5))
    return out


def print_result(res: dict) -> None:
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"attempted={res['attempted']} failed={res['failed']} -> {res['results_file']}")
    for name, m in res["metrics"].items():
        n = f" n={m['n']}" if "n" in m else ""
        print(f"  {name:45s} {m['value']:<22.12g} {m['unit']}{n}")
    for text, ok in res.get("intent", []):
        print(f"  intent {'ok' if ok else 'NOT MET'}: {text}")
    for f in res["failures"][:5]:
        print(f"  FAILED {f['invocation']}: {f['problem']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypershift" / "cli.py").is_file():
        print(f"error: no hypershift sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    results = []
    for name in names:
        res = run_workload(name, seed, args.seconds, bool(args.trace))
        print_result(res)
        results.append(res)
    # A single workload reports its metrics by name; "all" prefixes each
    # name with its workload.
    metrics = {
        (name if len(results) == 1 else f"{res['workload']}.{name}"): {
            "value": m["value"], "unit": m["unit"]
        }
        for res in results
        for name, m in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
