"""Command line interface.

An adapter: ``main`` parses the arguments and checks the count of --weights
against the subcommand's allowed counts; each handler refuses its own bad
flag combinations before it reads a weight file, calls one layer, and hands
its params and body to ``_report``, which gives every report the envelope
{"schema_version", "command", "params", ...body}.  Reports are canonical
JSON on stdout, optionally written to --out atomically.  Handlers put
result values (Fractions, index tuples, Hessian entries, grid points) into
the report as they are, often through ``report.pick``;
``report.canonical_json`` alone decides how each is written.  Exit codes: 0
for a clean run, 1 when the emitted report contains a witness object (a
violation, growth flag, or failed stage), 2 for malformed input or usage
errors (a --tol that is negative or not finite among them), 3 when the
numerics refuse to give an answer (no rigorous tail bound, a truncated
metric that is not positive, another internal RuntimeError, a value past
float64 range, in JSON and in CSV, or running out of memory); exit 3 prints
one JSON line {"error": ..., "kind": ...} on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import multiindex as mi
from . import report as rpt
from .errors import WeightSpecError
from .weights import parse_fraction, parse_natural, weight_from_dict

# The hypercontraction, similarity, curvature, truncation and
# counterexample layers are imported in the handlers that use them, so each
# call loads only what its subcommand runs; every layer needs only the
# standard library.


class UsageError(Exception):
    """Input problems that should exit with code 2."""


def _load_weight(path: str):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read weight file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"weight file {path} is not valid JSON: {exc}") from exc
    try:
        return weight_from_dict(spec)
    except WeightSpecError as exc:
        raise UsageError(f"weight file {path}: {exc}") from exc


def _parse_alpha(text: str, m: int) -> tuple[int, ...]:
    parts = text.split(",")
    if any(part.startswith("-") for part in parts):
        raise UsageError(f"multi-index entries must be nonnegative: {text!r}")
    try:
        alpha = tuple(parse_natural(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"cannot parse multi-index {text!r}") from exc
    if len(alpha) != m:
        raise UsageError(f"multi-index {text!r} has {len(alpha)} entries, the weight has m = {m}")
    return alpha


def _int_flag(text: str) -> int:
    """The type of every integer flag: ASCII digits with an optional leading
    "-" (the handlers check the range); ``int`` would also take "_", "+",
    spaces and other scripts' digits."""
    try:
        return -parse_natural(text[1:]) if text.startswith("-") else parse_natural(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _float_flag(text: str) -> float:
    """--tol: ``float`` on ASCII text without "_"; ``check_tol`` judges the
    value, so nan, inf and negative numbers reach it."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _parse_grid(text: str, m: int):
    from .curvature import radial_grid

    if text.startswith("radial:"):
        body = text[len("radial:"):]
        try:
            steps, angles = body.split("x")
            return radial_grid(m, parse_natural(steps), parse_natural(angles))
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r}, expected radial:<steps>x<angles>") from exc
    raise UsageError(f"unknown grid spec {text!r}")


# The ray of a similarity extreme, without its value.
_RAY = ("alpha", "direction", "length")  # RayWitness


def _report(command: str, params: dict, body: dict) -> dict:
    """Every report: the envelope, then the subcommand's body."""
    return {"schema_version": rpt.SCHEMA_VERSION, "command": command, "params": params, **body}


def _emit(args, report: dict, csv_text: str | None = None) -> int:
    """Print (and optionally write) the report, or ``csv_text`` when the
    handler built it for --format csv; return the exit code."""
    text = rpt.canonical_json(report) if csv_text is None else csv_text
    if args.out:
        rpt.write_atomic(args.out, text)
    sys.stdout.write(text)
    return 1 if "witness" in report else 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify_identities(args) -> int:
    # Each identity family must check at least one case.
    if args.dims < 1:
        raise UsageError(f"--dims must be >= 1, got {args.dims}")
    if args.n_max < 2:
        raise UsageError(f"--n-max must be >= 2, got {args.n_max}")
    dims = range(1, args.dims + 1)
    families = {
        "vandermonde": (
            (mi.verify_vandermonde(beta, i), {"beta": beta, "i": i})
            for m in dims
            for beta in mi.enumerate_leq_degree(m, args.beta_max)
            for i in range(mi.degree(beta) + 1)
        ),
        "negative-binomial-convolution": (
            (mi.verify_negative_binomial_convolution(n, j), {"n": n, "j": j})
            for n in range(2, args.n_max + 1)
            for j in range(2, 3 * n + 1)
        ),
        "alternating-sum": (
            (mi.verify_alternating_sum(n, stop), {"n": n, "stop": stop})
            for n in range(1, args.n_max + 1)
            for stop in range(n + 1)
        ),
        "multinomial-theorem": (
            (
                sum(mi.multinomial(k, a) for a in mi.enumerate_exact_degree(m, k)) == m**k,
                {"m": m, "k": k},
            )
            for m in dims
            for k in range(min(args.beta_max, 10) + 1)
        ),
    }
    checks = {}
    failures = []
    for identity, cases in families.items():
        count = 0
        for holds, case in cases:
            count += 1
            if not holds:
                failures.append({"identity": identity, **case})
        checks[identity.replace("-", "_")] = count
    body = {"checks": checks, "pass": not failures}
    if failures:
        body["witness"] = failures[0]
    params = {"n_max": args.n_max, "beta_max": args.beta_max, "dims": args.dims}
    return _emit(args, _report(args.command, params, body))


def cmd_check_hyper(args) -> int:
    from .hypercontraction import is_n_hyper_up_to

    W = _load_weight(args.weights[0])
    res = is_n_hyper_up_to(W, args.n, args.degree)
    body = {"verdict": res.verdict}
    if res.witness is not None:
        body["witness"] = res.witness._asdict()
    params = {"weight": W.spec_dict(), "order": args.n, "degree": args.degree}
    return _emit(args, _report(args.command, params, body))


def cmd_necessary(args) -> int:
    if (args.degree is None) == (args.alpha is None):
        raise UsageError("necessary needs exactly one of --degree or --alpha")
    from .hypercontraction import necessary_condition, necessary_scan

    W = _load_weight(args.weights[0])
    params = {"weight": W.spec_dict(), "order": args.n}
    if args.alpha is not None:
        params["alpha"] = alpha = _parse_alpha(args.alpha, W.m)
        chk = necessary_condition(W, args.n, alpha)
        body = rpt.pick(chk, "lhs", "rhs", "holds")
        witness = None if chk.holds else chk
    else:
        params["degree"] = args.degree
        res = necessary_scan(W, args.n, args.degree)
        body = rpt.pick(res, "checked", "verdict")
        witness = res.witness
    if witness is not None:
        body["witness"] = witness._asdict()
    return _emit(args, _report(args.command, params, body))


def cmd_similarity_scan(args) -> int:
    from .similarity import similarity_scan

    W1 = _load_weight(args.weights[0])
    W2 = _load_weight(args.weights[1])
    growth = parse_fraction(args.growth_factor)
    res = similarity_scan(W1, W2, args.degree, args.ray_length, growth_factor=growth)
    params = {
        "weight1": W1.spec_dict(),
        "weight2": W2.spec_dict(),
        "degree": args.degree,
        "ray_length": args.ray_length,
        "growth_factor": growth,
    }
    body = {
        **rpt.pick(res, "min_ratio_sq", "max_ratio_sq", "spread", "spread_half", "verdict"),
        "argmin": rpt.pick(res.argmin, *_RAY),
        "argmax": rpt.pick(res.argmax, *_RAY),
    }
    if res.verdict == "growth-flagged":
        body["witness"] = res.argmax._asdict()
    csv_text = None
    if args.format == "csv":
        # Each stored ratio is formatted once; its cells share the text.
        csv_text = "".join(
            ["degree,direction,length,ratio_sq\n"]
            + [
                f"{mi.degree(alpha)},{i},{l},{text}\n"
                for alpha, i, l, text in res.cells(rpt.float_str)
            ]
        )
    return _emit(args, _report(args.command, params, body), csv_text)


def cmd_curvature(args) -> int:
    from .curvature import check_tol, curvature_points, psd_check, psh_boundedness_report

    weights = [_load_weight(p) for p in args.weights]
    grid = _parse_grid(args.grid, weights[0].m)
    check_tol(args.tol)  # before any jet runs
    prec = args.precision_bits
    deg = args.eval_degree
    points = curvature_points(weights, grid, max_degree=deg, precision_bits=prec)
    params = {"grid": args.grid, "eval_degree": deg, "precision_bits": prec, "tol": args.tol}
    csv_text = None
    if len(weights) == 1:
        records = [
            {
                **rpt.pick(p, "w", "eigenvalues", "min_eig"),
                "hessian": p.hessian.entries,
                "psd": psd_check(p.hessian, tol=args.tol),
            }
            for p in points
        ]
        params["weight"] = weights[0].spec_dict()
        body = {
            "n_points": len(records),
            "all_psd": all(r["psd"] for r in records),
            "min_eig": min(r["min_eig"] for r in records),
            "records": records,
        }
        if args.format == "csv":
            def point_cell(w):
                return ";".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in w)

            csv_text = rpt.render_csv(
                ["index", "point", "min_eig", "psd"],
                [[i, point_cell(r["w"]), r["min_eig"], r["psd"]] for i, r in enumerate(records)],
            )
    else:
        res = psh_boundedness_report(points, psd_tol=args.tol)
        params.update(weight1=weights[0].spec_dict(), weight2=weights[1].spec_dict())
        body = {
            **res._asdict(),
            "records": [
                {**rpt.pick(p, "w", "eigenvalues", "psi"), "hessian": p.hessian.entries}
                for p in points
            ],
        }
        if args.format == "csv":
            csv_text = rpt.render_csv(["radius", "max_abs_psi"], [[r, v] for r, v in res.shells])
    return _emit(args, _report(args.command, params, body), csv_text)


def cmd_truncate(args) -> int:
    if args.alpha is None:
        if args.k_max is not None:
            raise UsageError("truncate --k-max needs --alpha")
        if args.format == "csv":
            raise UsageError("truncate --format csv needs --alpha")
    from .truncation import Truncation

    W = _load_weight(args.weights[0])
    model = Truncation(W, args.degree)
    params = {"weight": W.spec_dict(), "degree": args.degree}
    body = rpt.pick(model, "dimension", "commutator_exact", "commutator_float")
    csv_text = None
    if args.defect_order is not None:
        body["defect"] = model.defect(args.defect_order)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, W.m)
        k_max = args.k_max if args.k_max is not None else mi.degree(alpha) + 1
        curve = model.decay(alpha, k_max)
        body["decay"] = {"alpha": alpha, "values": curve}
        if args.format == "csv":
            csv_text = rpt.render_csv(["k", "value"], [[k, float(v)] for k, v in enumerate(curve)])
    return _emit(args, _report(args.command, params, body), csv_text)


def run_example45(**kwargs) -> dict:
    """The ``example45`` report: the params and body of
    ``counterexample.example45(**kwargs)`` in the envelope.  It stays a CLI
    function because the benchmark's tracer times ``cli.run_example45``."""
    from .counterexample import example45

    return _report("example45", *example45(**kwargs))


def cmd_example45(args) -> int:
    report = run_example45(
        n=args.n,
        m=args.m,
        blocks=args.blocks,
        scan_degree=args.scan_degree,
        eval_degree=args.eval_degree,
        precision_bits=args.precision_bits,
    )
    return _emit(args, report)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypershift",
        description="Hypercontraction and similarity diagnostics for weighted shift tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, n_weights=(1,), csv: bool = False):
        """--weights, --out and --format, and the handler with the counts
        of --weights it takes ((0,) for none)."""
        if n_weights != (0,):
            p.add_argument(
                "--weights",
                action="append",
                required=True,
                metavar="FILE",
                help="JSON weight specification (repeatable)",
            )
        p.add_argument("--out", help="also write the report to this path (atomic)")
        p.add_argument("--format", choices=["json", "csv"] if csv else ["json"], default="json")
        p.set_defaults(func=func, n_weights=n_weights)

    p = sub.add_parser("verify-identities", help="run the combinatorial identity suite")
    p.add_argument("--n-max", type=_int_flag, default=8)
    p.add_argument("--beta-max", type=_int_flag, default=8)
    p.add_argument("--dims", type=_int_flag, default=3)
    common(p, cmd_verify_identities, n_weights=(0,))

    p = sub.add_parser("check-hyper", help="scan defect diagonals for negativity")
    common(p, cmd_check_hyper)
    p.add_argument("--n", type=_int_flag, required=True, help="hypercontraction order")
    p.add_argument("--degree", type=_int_flag, required=True, help="scan bound on |alpha|")

    p = sub.add_parser("necessary", help="check the neighbour-sum necessary condition")
    common(p, cmd_necessary)
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--degree", type=_int_flag, help="scan all 0 < |alpha| <= degree")
    p.add_argument("--alpha", help="single multi-index, comma separated")

    p = sub.add_parser("similarity-scan", help="scan squared ray ratios for two weights")
    common(p, cmd_similarity_scan, n_weights=(2,), csv=True)
    p.add_argument("--degree", type=_int_flag, required=True, help="base point degree bound")
    p.add_argument("--ray-length", type=_int_flag, required=True)
    p.add_argument("--growth-factor", default="2", help="flag threshold, rational")

    p = sub.add_parser("curvature", help="log-metric Hessians on a grid")
    common(p, cmd_curvature, n_weights=(1, 2), csv=True)
    p.add_argument("--grid", default="radial:6x8", help="grid spec, radial:<steps>x<angles>")
    p.add_argument("--eval-degree", type=_int_flag, default=40)
    p.add_argument("--precision-bits", type=_int_flag, default=80)
    p.add_argument("--tol", type=_float_flag, default=1e-10)

    p = sub.add_parser("truncate", help="finite matrix model diagnostics")
    common(p, cmd_truncate, csv=True)
    p.add_argument("--degree", type=_int_flag, required=True)
    p.add_argument("--defect-order", type=_int_flag)
    p.add_argument("--alpha", help="basis index for the decay curve")
    p.add_argument("--k-max", type=_int_flag)

    p = sub.add_parser("example45", help="reproduce the perturbed-kernel counterexample")
    common(p, cmd_example45, n_weights=(0,))
    p.add_argument("--n", type=_int_flag, default=2)
    p.add_argument("--m", type=_int_flag, default=2)
    p.add_argument("--blocks", type=_int_flag, default=2)
    p.add_argument("--scan-degree", type=_int_flag)
    p.add_argument("--eval-degree", type=_int_flag, default=240)
    p.add_argument("--precision-bits", type=_int_flag, default=80)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    allowed = args.n_weights
    given = len(getattr(args, "weights", ()))
    try:
        if given not in allowed:
            counts = " or ".join(map(str, allowed))
            if len(allowed) == 1:
                counts = f"exactly {counts}"
            raise UsageError(f"{args.command} takes {counts} --weights, got {given}")
        return args.func(args)
    except (RuntimeError, OverflowError, MemoryError) as exc:
        # The allocator's MemoryError carries no message.
        message = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else repr(exc))
        sys.stderr.write(rpt.canonical_json({"error": message, "kind": type(exc).__name__}))
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
