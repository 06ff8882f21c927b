"""Command line interface.

Subcommands emit canonical JSON reports on stdout, optionally writing the
same bytes to --out atomically.  Handlers put result values (Fractions,
index tuples, Hessian entries, grid points) into the report dicts as they
are, often through ``report.pick``; ``report.canonical_json`` alone decides
how each is written.  Exit codes: 0 for a clean run, 1 when the emitted
report contains a witness object (a violation, growth flag, or failed
stage), 2 for malformed input or usage errors (a --tol that is negative or
not finite among them), 3 when the numerics refuse to give an answer (no
rigorous tail bound, a non-Hermitian Hessian, or another internal
RuntimeError); exit 3 prints one JSON line {"error": ..., "kind": ...} on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import multiindex as mi
from . import report as rpt
from .errors import NonHermitianError, WeightSpecError
from .hypercontraction import is_n_hyper_up_to, necessary_condition, necessary_scan
from .weights import PerturbedPower, parse_fraction, weight_from_dict

# The curvature, similarity and truncation layers are imported in the
# handlers that use them, so each call loads only what its subcommand runs:
# mpmath comes in with curvature and example45 alone, and no subcommand loads
# numpy.


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
    try:
        alpha = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse multi-index {text!r}") from exc
    if any(x < 0 for x in alpha):
        raise UsageError(f"multi-index entries must be nonnegative: {text!r}")
    if len(alpha) != m:
        raise UsageError(f"multi-index {text!r} has {len(alpha)} entries, the weight has m = {m}")
    return alpha


def _parse_grid(text: str, m: int, max_radius: float = 0.95):
    from .curvature import radial_grid

    if text.startswith("radial:"):
        body = text[len("radial:"):]
        try:
            steps, angles = body.split("x")
            return radial_grid(m, int(steps), int(angles), max_radius=max_radius)
        except ValueError as exc:
            raise UsageError(f"bad grid spec {text!r}, expected radial:<steps>x<angles>") from exc
    raise UsageError(f"unknown grid spec {text!r}")


# Report blocks read straight off result objects.
_DEFECT_WITNESS = ("order", "alpha", "value")  # HyperWitness
_CONDITION = ("alpha", "lhs", "rhs")  # ConditionCheck
_RAY = ("alpha", "direction", "length")  # RayWitness
_PSH = ("psi_min", "psi_max", "hessian_min_eig", "all_psd", "unbounded_trend", "n_points")


def _emit(report: dict, args, csv_text: str | None = None) -> int:
    """Print (and optionally write) the report; return the exit code."""
    if getattr(args, "format", "json") == "csv":
        if csv_text is None:
            raise UsageError("csv output is not available for this subcommand")
        text = csv_text
    else:
        text = rpt.canonical_json(report)
    if getattr(args, "out", None):
        rpt.write_atomic(args.out, text)
    sys.stdout.write(text)
    return 1 if "witness" in report else 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify_identities(args) -> int:
    checks = {}
    failures = []
    count = 0
    for m in range(1, args.dims + 1):
        for beta in mi.enumerate_leq_degree(m, args.beta_max):
            for i in range(mi.degree(beta) + 1):
                count += 1
                if not mi.verify_vandermonde(beta, i):
                    failures.append({"identity": "vandermonde", "beta": beta, "i": i})
    checks["vandermonde"] = count

    count = 0
    for n in range(2, args.n_max + 1):
        for j in range(2, 3 * n + 1):
            count += 1
            if not mi.verify_negative_binomial_convolution(n, j):
                failures.append(
                    {"identity": "negative-binomial-convolution", "n": n, "j": j}
                )
    checks["negative_binomial_convolution"] = count

    count = 0
    for n in range(1, args.n_max + 1):
        for stop in range(0, n + 1):
            count += 1
            if not mi.verify_alternating_sum(n, stop):
                failures.append({"identity": "alternating-sum", "n": n, "stop": stop})
    checks["alternating_sum"] = count

    count = 0
    for m in range(1, args.dims + 1):
        for k in range(0, min(args.beta_max, 10) + 1):
            total = sum(mi.multinomial(k, a) for a in mi.enumerate_exact_degree(m, k))
            count += 1
            if total != m**k:
                failures.append({"identity": "multinomial-theorem", "m": m, "k": k})
    checks["multinomial_theorem"] = count

    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "verify-identities",
        "params": {"n_max": args.n_max, "beta_max": args.beta_max, "dims": args.dims},
        "checks": checks,
        "pass": not failures,
    }
    if failures:
        report["witness"] = failures[0]
    return _emit(report, args)


def cmd_check_hyper(args) -> int:
    W = _load_weight(args.weights[0])
    res = is_n_hyper_up_to(W, args.n, args.degree)
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "check-hyper",
        "params": {
            "weight": W.spec_dict(),
            "order": args.n,
            "degree": args.degree,
        },
        "verdict": res.verdict,
    }
    if res.witness is not None:
        report["witness"] = rpt.pick(res.witness, *_DEFECT_WITNESS)
    return _emit(report, args)


def cmd_necessary(args) -> int:
    W = _load_weight(args.weights[0])
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "necessary",
        "params": {"weight": W.spec_dict(), "order": args.n},
    }
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, W.m)
        chk = necessary_condition(W, args.n, alpha)
        report["params"]["alpha"] = alpha
        report.update(rpt.pick(chk, "lhs", "rhs", "holds"))
        if not chk.holds:
            report["witness"] = rpt.pick(chk, *_CONDITION)
        return _emit(report, args)
    report["params"]["degree"] = args.degree
    res = necessary_scan(W, args.n, args.degree)
    report["checked"] = res.checked
    report["verdict"] = res.verdict
    if res.witness is not None:
        report["witness"] = rpt.pick(res.witness, *_CONDITION)
    return _emit(report, args)


def cmd_similarity_scan(args) -> int:
    from .similarity import similarity_scan

    W1 = _load_weight(args.weights[0])
    W2 = _load_weight(args.weights[1])
    growth = parse_fraction(args.growth_factor)
    res = similarity_scan(W1, W2, args.degree, args.ray_length, growth_factor=growth)
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "similarity-scan",
        "params": {
            "weight1": W1.spec_dict(),
            "weight2": W2.spec_dict(),
            "degree": args.degree,
            "ray_length": args.ray_length,
            "growth_factor": growth,
        },
        **rpt.pick(res, "min_ratio_sq", "max_ratio_sq", "spread", "spread_half", "verdict"),
        "argmin": rpt.pick(res.argmin, *_RAY),
        "argmax": rpt.pick(res.argmax, *_RAY),
    }
    if res.verdict == "growth-flagged":
        report["witness"] = rpt.pick(res.argmax, *_RAY, "value")
    csv_text = None
    if args.format == "csv":
        csv_text = rpt.render_csv(
            ["degree", "direction", "length", "ratio_sq"],
            [[mi.degree(c.alpha), c.direction, c.length, float(c.value)] for c in res.cells],
        )
    return _emit(report, args, csv_text=csv_text)


def cmd_curvature(args) -> int:
    from .curvature import (
        check_tol,
        eigenvalues,
        log_metric_hessians,
        psd_check,
        psh_boundedness_report,
    )

    weights = [_load_weight(p) for p in args.weights]
    m = weights[0].m
    grid = _parse_grid(args.grid, m)
    prec = args.precision_bits
    deg = args.eval_degree
    if len(weights) == 1:
        W = weights[0]
        check_tol(args.tol)  # before the grid's jets, as the pair report does
        records = []
        for w, H in zip(grid, log_metric_hessians(W, grid, max_degree=deg, precision_bits=prec)):
            eigs = eigenvalues(H)
            records.append(
                {
                    "w": w,
                    "hessian": H.entries,
                    "eigenvalues": eigs,
                    "min_eig": eigs[0],
                    "psd": psd_check(H, tol=args.tol),
                }
            )
        report = {
            "schema_version": rpt.SCHEMA_VERSION,
            "command": "curvature",
            "params": {
                "weight": W.spec_dict(),
                "grid": args.grid,
                "eval_degree": deg,
                "precision_bits": prec,
                "tol": args.tol,
            },
            "n_points": len(records),
            "all_psd": all(r["psd"] for r in records),
            "min_eig": min(r["min_eig"] for r in records),
            "records": records,
        }
        csv_text = None
        if args.format == "csv":
            def point_cell(w):
                return ";".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in w)

            csv_text = rpt.render_csv(
                ["index", "point", "min_eig", "psd"],
                [[i, point_cell(r["w"]), r["min_eig"], r["psd"]] for i, r in enumerate(records)],
            )
        return _emit(report, args, csv_text=csv_text)

    W1, W2 = weights
    res = psh_boundedness_report(
        W1, W2, grid, max_degree=deg, precision_bits=prec, psd_tol=args.tol
    )
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "curvature",
        "params": {
            "weight1": W1.spec_dict(),
            "weight2": W2.spec_dict(),
            "grid": args.grid,
            "eval_degree": deg,
            "precision_bits": prec,
            "tol": args.tol,
        },
        **rpt.pick(res, *_PSH, "shells"),
        "records": [
            {**rpt.pick(p, "w", "eigenvalues", "psi"), "hessian": p.hessian.entries}
            for p in res.points
        ],
    }
    csv_text = None
    if args.format == "csv":
        csv_text = rpt.render_csv(
            ["radius", "max_abs_psi"], [[r, v] for r, v in res.shells]
        )
    return _emit(report, args, csv_text=csv_text)


def cmd_truncate(args) -> int:
    from .truncation import (
        build_truncated,
        commutator_defect,
        commutator_float_norm,
        decay_curve,
        defect_operator,
        defect_operator_dense,
    )

    W = _load_weight(args.weights[0])
    tt = build_truncated(W, args.degree)
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "truncate",
        "params": {"weight": W.spec_dict(), "degree": args.degree},
        "dimension": tt.dimension,
        "commutator_exact": commutator_defect(tt),
        "commutator_float": commutator_float_norm(tt),
    }
    csv_text = None
    if args.defect_order is not None:
        k = args.defect_order
        op = defect_operator(tt, k)
        dense = defect_operator_dense(tt, k)
        # The largest entry of |dense - diag(exact)|; the entries left out
        # of the float operator are 0 and cannot raise it.
        dev = max(
            [abs(d - float(e)) for d, e in zip(dense.diagonal, op.diagonal)]
            + [abs(v) for v in dense.off_diagonal.values()]
        )
        report["defect"] = {
            "order": k,
            "min": min(op.diagonal),
            "max": max(op.diagonal),
            "off_diagonal_entries": len(op.off_diagonal),
            "float_deviation": dev,
        }
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, W.m)
        k_max = args.k_max if args.k_max is not None else mi.degree(alpha) + 1
        curve = decay_curve(tt, alpha, k_max)
        report["decay"] = {"alpha": alpha, "values": curve}
        if args.format == "csv":
            csv_text = rpt.render_csv(
                ["k", "value"], [[k, float(v)] for k, v in enumerate(curve)]
            )
    return _emit(report, args, csv_text=csv_text)


def run_example45(
    n: int = 2,
    m: int = 2,
    blocks: int = 2,
    scan_degree: int | None = None,
    grid_steps: int = 6,
    grid_angles: int = 4,
    eval_degree: int = 240,
    precision_bits: int = 80,
) -> dict:
    """Reproduce the perturbed-kernel counterexample end to end.

    Stages: (a) certify sup_w |K(w,w)(1-|w|^2)^n - 1| stays inside
    (7/8, 9/8) on a radial grid, with exact perturbation sums; (b) exhibit
    the neighbour-sum violation at the last block midpoint and find a
    negative defect entry by scan; (c) verify the ray ratio witness equals
    the block index l for each block; (d) run the curvature comparison
    against the unperturbed kernel on a default grid.  Stages (a)-(c) are
    pass/fail; (d) is informational.
    """
    from .curvature import psh_boundedness_report, radial_grid
    from .similarity import ray_ratio_sq

    if blocks < 2:
        raise UsageError("the counterexample needs at least 2 blocks")
    W = PerturbedPower(n, m, blocks)
    base = W.base
    stages: dict = {}

    # (a) kernel bound.  For the unperturbed kernel K(w,w)(1-|w|^2)^n = 1
    # exactly; each ray perturbation moves it by at most
    # |delta(alpha)| sup_{|w|^2=t} |w^alpha|^2 (1-t)^n, and the supremum
    # over the sphere is t^N prod alpha_i^alpha_i / N^N.
    t_grid = [Fraction(k, 20) for k in range(20)] + [Fraction(99, 100)]
    max_dev = Fraction(0)
    worst_t = t_grid[0]
    for t in t_grid:
        dev = Fraction(0)
        for alpha, d in W.perturbed_entries():
            N = mi.degree(alpha)
            mono_sup = Fraction(1)
            for a in alpha:
                if a:
                    mono_sup *= Fraction(a) ** a
            mono_sup /= Fraction(N) ** N
            delta = base.rho(alpha) * (1 - Fraction(1, d))
            dev += delta * t**N * mono_sup * (1 - t) ** n
        if dev > max_dev:
            max_dev = dev
            worst_t = t
    margin = Fraction(1, 8) - max_dev
    stages["kernel_bound"] = {
        "pass": margin > 0,
        "max_deviation": float(max_dev),
        "margin": float(margin),
        "worst_t": worst_t,
        "t_grid_size": len(t_grid),
        "base_degrees": W.base_degrees,
    }

    # (b) necessary-condition violation at the last block midpoint, then a
    # defect witness by graded scan.
    b_last = W.base_degrees[-1]
    mid = (blocks, b_last) + (0,) * (m - 2)
    chk = necessary_condition(W, n, mid)
    if scan_degree is None:
        scan_degree = b_last + blocks + 1
    scan = is_n_hyper_up_to(W, n, scan_degree)
    stage_b = {
        "pass": (not chk.holds) and scan.witness is not None and scan.witness.value < 0,
        **rpt.pick(chk, *_CONDITION),
        "scan_degree": scan_degree,
        "verdict": scan.verdict,
    }
    if scan.witness is not None:
        stage_b["defect_witness"] = rpt.pick(scan.witness, *_DEFECT_WITNESS)
    stages["necessary_violation"] = stage_b

    # (c) ray ratio witnesses: going up the first coordinate from each block
    # base point, the squared ratio against the unperturbed kernel is l.
    witnesses = []
    all_match = True
    for l in range(2, blocks + 1):
        base_pt = (0, W.base_degrees[l - 1]) + (0,) * (m - 2)
        r = ray_ratio_sq(W, base, base_pt, 0, l - 1)
        witnesses.append({"block": l, "alpha": base_pt, "length": l - 1, "ratio_sq": r})
        if r != l:
            all_match = False
    stages["ray_ratio"] = {"pass": all_match, "witnesses": witnesses}

    # (d) curvature comparison, informational.
    grid = radial_grid(m, grid_steps, grid_angles, max_radius=0.95)
    psh = psh_boundedness_report(
        W, base, grid, max_degree=eval_degree, precision_bits=precision_bits
    )
    stages["curvature"] = {"pass": True, **rpt.pick(psh, *_PSH)}

    ok = all(s["pass"] for s in stages.values())
    report = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "example45",
        "params": {
            "n": n,
            "m": m,
            "blocks": blocks,
            "scan_degree": scan_degree,
            "eval_degree": eval_degree,
            "precision_bits": precision_bits,
        },
        "stages": stages,
        "pass": ok,
    }
    if not ok:
        failed = sorted(name for name, s in stages.items() if not s["pass"])
        report["witness"] = {"stage": failed[0]}
    return report


def cmd_example45(args) -> int:
    report = run_example45(
        n=args.n,
        m=args.m,
        blocks=args.blocks,
        scan_degree=args.scan_degree,
        eval_degree=args.eval_degree,
        precision_bits=args.precision_bits,
    )
    return _emit(report, args)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypershift",
        description="Hypercontraction and similarity diagnostics for weighted shift tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights: int | None = 1):
        if weights:
            p.add_argument(
                "--weights",
                action="append",
                required=True,
                metavar="FILE",
                help="JSON weight specification (repeatable)",
            )
        p.add_argument("--out", help="also write the report to this path (atomic)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify-identities", help="run the combinatorial identity suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--beta-max", type=int, default=8)
    p.add_argument("--dims", type=int, default=3)
    common(p, weights=None)
    p.set_defaults(func=cmd_verify_identities, n_weights=0)

    p = sub.add_parser("check-hyper", help="scan defect diagonals for negativity")
    common(p)
    p.add_argument("--n", type=int, required=True, help="hypercontraction order")
    p.add_argument("--degree", type=int, required=True, help="scan bound on |alpha|")
    p.set_defaults(func=cmd_check_hyper, n_weights=1)

    p = sub.add_parser("necessary", help="check the neighbour-sum necessary condition")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, help="scan all 0 < |alpha| <= degree")
    p.add_argument("--alpha", help="single multi-index, comma separated")
    p.set_defaults(func=cmd_necessary, n_weights=1)

    p = sub.add_parser("similarity-scan", help="scan squared ray ratios for two weights")
    common(p)
    p.add_argument("--degree", type=int, required=True, help="base point degree bound")
    p.add_argument("--ray-length", type=int, required=True)
    p.add_argument("--growth-factor", default="2", help="flag threshold, rational")
    p.set_defaults(func=cmd_similarity_scan, n_weights=2)

    p = sub.add_parser("curvature", help="log-metric Hessians on a grid")
    common(p)
    p.add_argument("--grid", default="radial:6x8", help="grid spec, radial:<steps>x<angles>")
    p.add_argument("--eval-degree", type=int, default=40)
    p.add_argument("--precision-bits", type=int, default=80)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_curvature, n_weights=(1, 2))

    p = sub.add_parser("truncate", help="finite matrix model diagnostics")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--defect-order", type=int)
    p.add_argument("--alpha", help="basis index for the decay curve")
    p.add_argument("--k-max", type=int)
    p.set_defaults(func=cmd_truncate, n_weights=1)

    p = sub.add_parser("example45", help="reproduce the perturbed-kernel counterexample")
    common(p, weights=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--scan-degree", type=int)
    p.add_argument("--eval-degree", type=int, default=240)
    p.add_argument("--precision-bits", type=int, default=80)
    p.set_defaults(func=cmd_example45, n_weights=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    expected = args.n_weights
    given = len(getattr(args, "weights", []) or [])
    try:
        if isinstance(expected, tuple):
            if given not in expected:
                raise UsageError(
                    f"{args.command} takes {' or '.join(map(str, expected))} --weights, got {given}"
                )
        elif expected and given != expected:
            raise UsageError(f"{args.command} takes exactly {expected} --weights, got {given}")
        if args.command == "necessary" and (args.degree is None) == (args.alpha is None):
            raise UsageError("necessary needs exactly one of --degree or --alpha")
        if args.command == "truncate" and args.k_max is not None and args.alpha is None:
            raise UsageError("truncate --k-max needs --alpha")
        return args.func(args)
    except (NonHermitianError, RuntimeError) as exc:
        # NonHermitianError is a ValueError: it must be caught before exit 2.
        sys.stderr.write(rpt.canonical_json({"error": str(exc), "kind": type(exc).__name__}))
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
