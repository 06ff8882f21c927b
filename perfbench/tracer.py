"""Run one hypershift CLI invocation with its layers traced in-process.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py TRACE_OUT.json TRACE_ID -- <hypershift args>

Every public function of every hypershift module is wrapped from outside the
package, at every module attribute that binds it (``hypershift.cli.
is_n_hyper_up_to`` as well as ``hypershift.hypercontraction.
is_n_hyper_up_to``).  ``rho``, ``rho_ratio`` and ``shift_weight_sq`` are
wrapped on each ``WeightFunction`` subclass that defines them, and ``value``
on each ``RadialSequence`` subclass, because the families override them.

Each layer keeps in-memory aggregate counters: ``calls`` (entries into the
layer from outside it, so a subclass delegating to its base counts once),
``self_s`` (time inside the layer minus time in other wrapped layers it
called) and ``total_s``.  Coarse layers, called a handful of times per
invocation, also record one span per call, tied to their parent span and to
TRACE_ID.  Everything stays in memory and is written to TRACE_OUT.json when
the invocation ends.  The CLI's stdout and exit code pass through unchanged.

Generators (``multiindex.dominated_by``) are timed only for their creation;
the time spent iterating them lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from math import comb

# Layers called O(1) times per invocation: these get one span per call.
SPAN_LAYERS = frozenset(
    {
        "hypercontraction.is_n_hyper_up_to",
        "hypercontraction.defect_diagonal",
        "similarity.similarity_scan",
        "similarity.metric_ratio_report",
        "curvature.psh_boundedness_report",
        "curvature.radial_grid",
        "curvature.default_grid",
        "truncation.build_truncated",
        "truncation.commutator_defect",
        "truncation.commutator_float_norm",
        "truncation.defect_operator",
        "truncation.defect_operator_dense",
        "truncation.decay_curve",
        "report.canonical_json",
        "report.write_atomic",
        "report.render_csv",
        "weights.weight_from_dict",
    }
)
MAX_SPANS = 20000

# (layer, enclosing layer) pairs whose calls are also counted separately
# while the enclosing layer is active anywhere up the stack.
SCOPED = {
    "weights.rho_ratio": ("hypercontraction.is_n_hyper_up_to",),
    "weights.sequence_value": ("weights.metric_jet",),
}

MODULES = (
    "multiindex",
    "weights",
    "hypercontraction",
    "similarity",
    "curvature",
    "truncation",
    "report",
    "cli",
)
WEIGHT_METHODS = ("rho", "rho_ratio", "shift_weight_sq")


class Tracer:
    """Aggregate counters, scoped counters and capped spans for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.stack: list[list] = []  # [layer, child_time, span_id]
        self.spans: list[dict] = []
        self.spans_dropped = 0
        self.t0 = time.perf_counter()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, layer: str, fn, after=None):
        """Return a wrapper of fn that accounts its calls to ``layer``."""
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self.stack
        active = self.active
        clock = time.perf_counter
        scopes = SCOPED.get(layer, ())
        for scope in scopes:
            active.setdefault(scope, 0)
        tracks_scope = any(layer in s for s in SCOPED.values())
        if tracks_scope:
            active.setdefault(layer, 0)
        with_span = layer in SPAN_LAYERS or layer.startswith("cli.")
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if with_span:
                if len(tracer.spans) < MAX_SPANS:
                    span_id = len(tracer.spans)
                    tracer.spans.append(
                        {
                            "id": span_id,
                            "trace": tracer.trace_id,
                            "name": layer,
                            "parent": tracer._span_parent(),
                            "start": clock() - tracer.t0,
                        }
                    )
                else:
                    tracer.spans_dropped += 1
            outer = parent is None or parent[0] != layer
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            if tracks_scope:
                active[layer] += 1
            if outer:
                for scope in scopes:
                    if active[scope]:
                        key = f"{layer}@{scope}"
                        tracer.counters[key] = tracer.counters.get(key, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if tracks_scope:
                    active[layer] -= 1
                stats[1] += elapsed - frame[1]
                if outer:
                    stats[0] += 1
                    stats[2] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if span_id is not None:
                    tracer.spans[span_id]["end"] = clock() - tracer.t0
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_parent(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def dump(self) -> dict:
        return {
            "trace": self.trace_id,
            "layers": {
                k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                for k, v in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


# ---------------------------------------------------------------------------
# Post-call counters derived from arguments and results.  They count work by
# what the call covered, so a faster engine that covers the same indices or
# cells reports the same count.


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_scan(originals):
    enumerate_exact_degree = originals["multiindex.enumerate_exact_degree"]
    scan = originals["hypercontraction.is_n_hyper_up_to"]

    def after(tracer, args, kwargs, result):
        a = _bind(scan, args, kwargs)
        m, n = a["W"].m, a["n"]
        wit = result.witness
        if wit is None:
            indices = comb(result.max_degree + m, m)
            entries = indices * n
        else:
            N = sum(wit.alpha)
            below = comb(N - 1 + m, m) if N else 0
            indices = below + enumerate_exact_degree(m, N).index(tuple(wit.alpha)) + 1
            entries = (indices - 1) * n + wit.order
        tracer.count("hypercontraction.indices_scanned", indices)
        tracer.count("hypercontraction.defect_entries", entries)

    return after


def _after_grid(tracer, args, kwargs, result):
    # radial_grid delegates to default_grid; count the outermost call only.
    if not any(f[0].startswith("curvature.") and f[0].endswith("_grid") for f in tracer.stack):
        tracer.count("curvature.grid_points", len(result))


def _after_similarity(originals):
    scan = originals["similarity.similarity_scan"]

    def after(tracer, args, kwargs, result):
        a = _bind(scan, args, kwargs)
        m = a["W1"].m
        cells = comb(a["base_degree"] + m, m) * m * (a["ray_length"] + 1)
        tracer.count("similarity.scan_cells", cells)

    return after


def _after_json(tracer, args, kwargs, result):
    tracer.count("report.canonical_json.bytes", len(result.encode()))


# ---------------------------------------------------------------------------
# Installation


def install(tracer: Tracer):
    """Wrap every public hypershift function and the weight methods."""
    import importlib

    mods = {name: importlib.import_module(f"hypershift.{name}") for name in MODULES}
    originals: dict[str, object] = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                originals[f"{short}.{name}"] = obj

    hooks = {
        "hypercontraction.is_n_hyper_up_to": _after_scan(originals),
        "curvature.radial_grid": _after_grid,
        "curvature.default_grid": _after_grid,
        "similarity.similarity_scan": _after_similarity(originals),
        "report.canonical_json": _after_json,
    }
    replacement = {}
    for layer, fn in originals.items():
        replacement[id(fn)] = tracer.wrap(layer, fn, after=hooks.get(layer))

    # Rebind at every attribute of every hypershift module that holds an
    # original function.
    targets = [m for k, m in sys.modules.items() if k.split(".")[0] == "hypershift"]
    for mod in targets:
        for name, obj in list(vars(mod).items()):
            new = replacement.get(id(obj))
            if new is not None and inspect.isfunction(obj):
                setattr(mod, name, new)

    weights = mods["weights"]
    for cls in vars(weights).values():
        if not inspect.isclass(cls) or cls.__module__ != weights.__name__:
            continue
        if issubclass(cls, weights.WeightFunction):
            for meth in WEIGHT_METHODS:
                if meth in cls.__dict__:
                    setattr(cls, meth, tracer.wrap(f"weights.{meth}", cls.__dict__[meth]))
        elif issubclass(cls, weights.RadialSequence) and "value" in cls.__dict__:
            setattr(cls, "value", tracer.wrap("weights.sequence_value", cls.__dict__["value"]))
    return mods["cli"]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py TRACE_OUT.json TRACE_ID -- <hypershift args>", file=sys.stderr)
        return 2
    out_path, trace_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(trace_id)
    cli = install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
