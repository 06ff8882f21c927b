"""Seeded workloads for the hypershift benchmark: inputs, CLI invocations and
the output check of every invocation.

``build(name, seed, workdir)`` writes the workload's weight JSON files into
``workdir`` and returns the invocations to run.  The seed only picks input
values; the amount of work is fixed by the sizes below (fixed total degree of
the halved table entry, fixed polynomial degree, fixed grids and truncation
degrees), so every seed costs the same.

Checks compare report fields, never byte digests, so a later report field is
not a failure.  Each check uses an oracle the package ships (``defect_diag``,
``radial_necessary``, ``ray_ratio_sq_literal``) or an analytic value, and the
float curvature fields are compared with an independent numpy float64
evaluation of the same truncated series (see ``CURVATURE_RTOL``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from hypershift import multiindex as mi
from hypershift.curvature import radial_grid
from hypershift.hypercontraction import defect_diag, radial_necessary
from hypershift.similarity import ray_ratio_sq_literal
from hypershift.weights import PerturbedPower, weight_from_dict

WORKLOADS = ("counterexample", "exact-scan", "metric-grid", "matrix-model")

# The seed used when none is given; any seed does the same amount of work.
DEFAULT_SEED = 1

# Curvature fields must agree with the float64 reference to this relative
# tolerance (scaled by max(1, |reference|)).  The report is computed at 80
# bits and the reference sums the same truncated series in float64, so the
# gap is rounding only, far below 1e-9.
CURVATURE_RTOL = 1e-9

# Sizes.  "full" is what the benchmark measures; "tiny" is the self-test.
SIZES = {
    "full": {
        "example45_eval_degree": 120,
        "power33_scan_degree": 20,
        "table_degree": 50,
        "necessary_degree": 20,
        "similarity_degree": 14,
        "ray_length": 10,
        "curvature_grid": (5, 4),
        "curvature_eval_degree": 100,
        "psi_grid": (2, 4),
        "psi_eval_degree": 100,
        "truncate_degree": 40,
        "decay_alpha_degree": 6,
        "truncate33_degree": 14,
    },
    "tiny": {
        "example45_eval_degree": 20,
        "power33_scan_degree": 6,
        "table_degree": 10,
        "necessary_degree": 6,
        "similarity_degree": 4,
        "ray_length": 4,
        "curvature_grid": (2, 2),
        "curvature_eval_degree": 30,
        "psi_grid": (2, 2),
        "psi_eval_degree": 30,
        "truncate_degree": 8,
        "decay_alpha_degree": 3,
        "truncate33_degree": 4,
    },
}


class CheckFailed(Exception):
    """An invocation's output does not pass its check."""


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced."""

    code: int
    stdout: str
    stderr: str
    out_file: str | None = None


@dataclass
class Invocation:
    label: str
    args: list[str]
    check: Callable[[Outcome], None]
    out_path: str | None = None


@dataclass
class Workload:
    weight_files: list[str]
    invocations: list[Invocation]
    inputs: dict  # the seeded input values, recorded with the results


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _report(out: Outcome, command: str, codes=(0, 1)) -> dict:
    _expect("Traceback" not in out.stderr, f"traceback on stderr: {out.stderr[-300:]!r}")
    _expect(out.code in codes, f"exit code {out.code}, expected one of {codes}")
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    _expect(report.get("command") == command, f"command field {report.get('command')!r}")
    _expect(
        (out.code == 1) == ("witness" in report),
        f"exit code {out.code} disagrees with witness presence",
    )
    return report


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write(workdir: str, name: str, spec: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def _cubic(rng: random.Random) -> list[Fraction]:
    """Positive integer cubic coefficients with c1 >= c0.

    For a(i) = sum c_p i^p this makes i a(i) - (i+1) a(i-1) = (c1 - c0) +
    positive terms, so the order-2 neighbour-sum bound holds at every degree
    and ``necessary`` always scans the full window.  Integer coefficients
    keep the cost of the exact arithmetic the same for every seed.
    """
    c0 = rng.randint(1, 4)
    return [Fraction(c) for c in (c0, c0 + rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 4))]


def _poly_spec(m: int, coeffs: list[Fraction]) -> dict:
    return {
        "kind": "radial",
        "m": m,
        "a": {"generator": "polynomial", "coefficients": [_frac(c) for c in coeffs]},
    }


# ---------------------------------------------------------------------------
# counterexample


def _check_example45(n_points: int) -> Callable[[Outcome], None]:
    W = PerturbedPower(2, 2, 2)
    # Every ray correction delta |w^alpha|^2 and its first two derivatives are
    # bounded by |delta| N^2 t^(N-2) at |w|^2 = t; h >= 1 for the base, so
    # psi and the Hessian difference must stay below this bound.
    t_max = Fraction(95, 100) ** 2
    pert_bound = sum(
        float(abs(W.base.rho(a) * (1 - Fraction(1, d))) * sum(a) ** 2 * t_max ** (sum(a) - 2))
        for a, d in W.perturbed_entries()
    ) * 8 + 1e-12

    def check(out: Outcome) -> None:
        r = _report(out, "example45", codes=(0,))
        _expect(r["pass"] is True, "example45 did not pass")
        st = r["stages"]
        kb = st["kernel_bound"]
        _expect(kb["pass"] and kb["margin"] > 0, f"kernel bound {kb}")
        nv = st["necessary_violation"]
        _expect(nv["alpha"] == [2, 511], f"midpoint {nv['alpha']}")
        _expect(nv["lhs"] == "513/257", f"neighbour sum {nv['lhs']}")
        _expect(nv["rhs"] == "513/514", f"bound {nv['rhs']}")
        _expect(
            nv["defect_witness"] == {"order": 1, "alpha": [2, 511], "value": "-256/257"},
            f"defect witness {nv.get('defect_witness')}",
        )
        _expect(
            st["ray_ratio"]["witnesses"]
            == [{"block": 2, "alpha": [0, 511], "length": 1, "ratio_sq": "2/1"}],
            f"ray witnesses {st['ray_ratio']['witnesses']}",
        )
        cv = st["curvature"]
        _expect(cv["n_points"] == n_points, f"curvature points {cv['n_points']}")
        for key in ("psi_min", "psi_max", "hessian_min_eig"):
            _expect(abs(cv[key]) <= pert_bound, f"curvature {key}={cv[key]} > {pert_bound}")

    return check


def _build_counterexample(rng, workdir, size) -> tuple[list, list, dict]:
    # The construction is fixed; the seed is unused.
    spec = {"kind": "perturbed45", "n": 2, "m": 2, "L": 2}
    wfile = _write(workdir, "perturbed45.json", spec)
    deg = size["example45_eval_degree"]
    inv = Invocation(
        "example45",
        ["example45", "--eval-degree", str(deg)],
        _check_example45(len(radial_grid(2, 6, 4, max_radius=0.95))),
    )
    return [wfile], [inv], {"eval_degree": deg}


# ---------------------------------------------------------------------------
# exact-scan


def _check_clean_scan(degree: int) -> Callable[[Outcome], None]:
    def check(out: Outcome) -> None:
        r = _report(out, "check-hyper", codes=(0,))
        _expect(r["verdict"] == f"no-violation-up-to-{degree}", f"verdict {r['verdict']}")

    return check


def _check_table_scan(alpha: tuple[int, int]) -> Callable[[Outcome], None]:
    N = sum(alpha)
    # Halving rho at alpha doubles the power:2 neighbour sum N/(N+1) there,
    # so d_1(alpha) = 1 - 2N/(N+1) = (1-N)/(N+1); nothing before alpha in
    # graded order depends on rho(alpha).
    expected = {"order": 1, "alpha": list(alpha), "value": _frac(Fraction(1 - N, N + 1))}

    def check(out: Outcome) -> None:
        r = _report(out, "check-hyper", codes=(1,))
        _expect(r["verdict"] == "violation", f"verdict {r['verdict']}")
        _expect(r["witness"] == expected, f"witness {r['witness']} != {expected}")

    return check


def _check_necessary(W, n: int, degree: int) -> Callable[[Outcome], None]:
    seq = W.radial_sequence()
    fail = next((d for d in range(1, degree + 1) if not radial_necessary(seq, n, d)), None)

    def check(out: Outcome) -> None:
        r = _report(out, "necessary")
        if fail is None:
            _expect(r["verdict"] == "all-hold", f"verdict {r['verdict']}")
            _expect(r["checked"] == math.comb(degree + W.m, W.m) - 1, f"checked {r['checked']}")
            return
        alpha = mi.enumerate_exact_degree(W.m, fail)[0]
        lhs = seq.value(fail - 1) / seq.value(fail)
        want = {"alpha": list(alpha), "lhs": _frac(lhs), "rhs": _frac(Fraction(fail, fail + n - 1))}
        _expect(r["verdict"] == "violated" and r["witness"] == want, f"witness {r.get('witness')}")

    return check


def _check_similarity(W1, W2, flagged: bool | None):
    def check(out: Outcome) -> None:
        r = _report(out, "similarity-scan")
        for ext in ("min", "max"):
            arg = r[f"arg{ext}"]
            lit = ray_ratio_sq_literal(W1, W2, tuple(arg["alpha"]), arg["direction"], arg["length"])
            _expect(
                r[f"{ext}_ratio_sq"] == _frac(lit),
                f"{ext}_ratio_sq {r[f'{ext}_ratio_sq']} != literal {_frac(lit)}",
            )
        lo, hi = Fraction(r["min_ratio_sq"]), Fraction(r["max_ratio_sq"])
        _expect(r["spread"] == _frac(hi / lo), "spread is not max/min")
        is_flagged = hi / lo >= 2 * Fraction(r["spread_half"])
        _expect(
            r["verdict"] == ("growth-flagged" if is_flagged else "bounded-in-scan"),
            f"verdict {r['verdict']}",
        )
        if flagged is not None:
            _expect(is_flagged == flagged, f"expected growth-flagged={flagged}")

    return check


def _check_similarity_csv(W1, W2, degree: int, ray_length: int):
    cells = [
        (alpha, i, l)
        for alpha in mi.enumerate_leq_degree(W1.m, degree)
        for i in range(W1.m)
        for l in range(ray_length + 1)
    ]
    step = max(1, len(cells) // 25)
    sample = {k: cells[k] for k in list(range(0, len(cells), step)) + [len(cells) - 1]}
    expected = {
        k: float(ray_ratio_sq_literal(W1, W2, alpha, i, l)) for k, (alpha, i, l) in sample.items()
    }

    def check(out: Outcome) -> None:
        _expect("Traceback" not in out.stderr, "traceback on stderr")
        _expect(out.code in (0, 1), f"exit code {out.code}")
        rows = list(csv.reader(io.StringIO(out.stdout)))
        _expect(rows and rows[0] == ["degree", "direction", "length", "ratio_sq"], "csv header")
        _expect(len(rows) - 1 == len(cells), f"{len(rows) - 1} csv rows, expected {len(cells)}")
        for k, want in expected.items():
            alpha, i, l = cells[k]
            row = rows[k + 1]
            _expect(
                row[:3] == [str(sum(alpha)), str(i), str(l)] and float(row[3]) == want,
                f"csv row {k} = {row}, expected ratio {want!r}",
            )

    return check


def _build_exact_scan(rng, workdir, size):
    files = []
    invs = []
    # Clean full scan, no early stop, wide m=3 layers.  Seed unused.
    p33 = _write(workdir, "power33.json", {"kind": "power", "n": 3, "m": 3})
    D = size["power33_scan_degree"]
    files.append(p33)
    invs.append(
        Invocation(
            "check-hyper-power33",
            ["check-hyper", "--weights", p33, "--n", "3", "--degree", str(D)],
            _check_clean_scan(D),
        )
    )

    # Table weight: power:2 fallback with one entry halved at a seeded (a, b)
    # of fixed total degree N, through the generic cached rho() path.
    N = size["table_degree"]
    a = rng.randint(1, N - 1)
    alpha = (a, N - a)
    value = Fraction(math.factorial(N + 1), math.factorial(a) * math.factorial(N - a)) / 2
    table = _write(
        workdir,
        "table.json",
        {"kind": "table", "m": 2, "fallback": "power:2", "entries": [{"alpha": list(alpha), "rho": _frac(value)}]},
    )
    files.append(table)
    invs.append(
        Invocation(
            "check-hyper-table",
            ["check-hyper", "--weights", table, "--n", "2", "--degree", str(N)],
            _check_table_scan(alpha),
        )
    )

    # necessary --degree on a seeded positive cubic radial weight, m = 3.
    nspec = _poly_spec(3, _cubic(rng))
    nfile = _write(workdir, "poly3.json", nspec)
    files.append(nfile)
    ND = size["necessary_degree"]
    invs.append(
        Invocation(
            "necessary-poly3",
            ["necessary", "--weights", nfile, "--n", "2", "--degree", str(ND)],
            _check_necessary(weight_from_dict(nspec), 2, ND),
        )
    )

    # similarity-scan of power(2,2) against a seeded cubic and a seeded
    # geometric weight; the geometric ratio r > 1 makes the squared ray
    # ratio (N+1)/(N+l+2) r^(l+1) grow with l, so that scan is flagged.
    p22spec = {"kind": "power", "n": 2, "m": 2}
    p22 = _write(workdir, "power22.json", p22spec)
    sspec = _poly_spec(2, _cubic(rng))
    sfile = _write(workdir, "poly2.json", sspec)
    r = Fraction(rng.randint(3, 7), 2)
    gspec = {"kind": "radial", "m": 2, "a": {"generator": "geometric", "r": _frac(r)}}
    gfile = _write(workdir, "geometric2.json", gspec)
    files += [p22, sfile, gfile]
    SD, L = size["similarity_degree"], size["ray_length"]
    W1, Ws, Wg = (weight_from_dict(s) for s in (p22spec, sspec, gspec))
    scan = ["--degree", str(SD), "--ray-length", str(L)]
    invs += [
        Invocation(
            "similarity-poly",
            ["similarity-scan", "--weights", p22, "--weights", sfile, *scan],
            _check_similarity(W1, Ws, None),
        ),
        Invocation(
            "similarity-poly-csv",
            ["similarity-scan", "--weights", p22, "--weights", sfile, *scan, "--format", "csv"],
            _check_similarity_csv(W1, Ws, SD, L),
        ),
        Invocation(
            "similarity-geometric",
            ["similarity-scan", "--weights", p22, "--weights", gfile, *scan],
            _check_similarity(W1, Wg, True),
        ),
    ]
    inputs = {"table_alpha": list(alpha), "geometric_r": _frac(r), "necessary": nspec, "similarity": sspec}
    return files, invs, inputs


# ---------------------------------------------------------------------------
# metric-grid


def _series(coeffs: list[Fraction], degree: int, t: float) -> tuple[float, float, float]:
    """g, g', g'' of sum_{d <= degree} a(d) t^d in float64."""
    d = np.arange(degree + 1, dtype=float)
    a = np.zeros_like(d)
    for p, c in enumerate(coeffs):
        a += float(c) * d**p
    g = float(np.sum(a * t**d))
    gp = float(np.sum(d[1:] * a[1:] * t ** (d[1:] - 1)))
    gpp = float(np.sum(d[2:] * (d[2:] - 1) * a[2:] * t ** (d[2:] - 2)))
    return g, gp, gpp


def _log_hessian(coeffs, degree: int, w: np.ndarray) -> tuple[float, np.ndarray]:
    """log h and the mixed Hessian of log h for a radial series metric:
    H = (g g'' - g'^2)/g^2 conj(w) w^T + (g'/g) I."""
    t = float(np.sum(np.abs(w) ** 2))
    g, gp, gpp = _series(coeffs, degree, t)
    H = (g * gpp - gp * gp) / (g * g) * np.outer(np.conj(w), w) + gp / g * np.eye(len(w))
    return math.log(g), H


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= CURVATURE_RTOL * max(1.0, abs(ref))


def _point(w_json) -> np.ndarray:
    return np.array([complex(re, im) for re, im in w_json])


def _check_matrix(name: str, got, ref: np.ndarray) -> None:
    for i, row in enumerate(got):
        for j, (re, im) in enumerate(row):
            _expect(
                _close(re, ref[i, j].real) and _close(im, ref[i, j].imag),
                f"{name}[{i}][{j}] = {re}+{im}j, reference {ref[i, j]}",
            )


def _check_eigs(name: str, got, H: np.ndarray) -> None:
    ref = np.linalg.eigvalsh((H + H.conj().T) / 2)
    _expect(len(got) == len(ref), f"{name} length")
    for x, y in zip(got, ref):
        _expect(_close(x, float(y)), f"{name} {x} vs reference {float(y)}")


def _check_curvature_single(coeffs, degree: int, n_points: int):
    def check(out: Outcome) -> None:
        r = _report(out, "curvature", codes=(0,))
        _expect(out.out_file == out.stdout, "--out file differs from stdout")
        recs = r["records"]
        _expect(r["n_points"] == n_points == len(recs), f"n_points {r['n_points']}")
        for k, rec in enumerate(recs):
            _, H = _log_hessian(coeffs, degree, _point(rec["w"]))
            _check_matrix(f"record {k} hessian", rec["hessian"], H)
            _check_eigs(f"record {k} eigenvalues", rec["eigenvalues"], H)
            _expect(rec["min_eig"] == rec["eigenvalues"][0], f"record {k} min_eig")
            # Both eigenvalues g'/g and (t g'/g)' are positive for positive
            # coefficients, so every point is PSD.
            _expect(rec["psd"] is True, f"record {k} not PSD")
        _expect(r["all_psd"] is True, "all_psd")
        _expect(r["min_eig"] == min(rec["min_eig"] for rec in recs), "min_eig summary")

    return check


def _check_curvature_psi(c1, c2, degree: int, n_points: int, tol: float):
    def check(out: Outcome) -> None:
        r = _report(out, "curvature", codes=(0,))
        recs = r["records"]
        _expect(r["n_points"] == n_points == len(recs), f"n_points {r['n_points']}")
        for k, rec in enumerate(recs):
            w = _point(rec["w"])
            l1, H1 = _log_hessian(c1, degree, w)
            l2, H2 = _log_hessian(c2, degree, w)
            _expect(_close(rec["psi"], l1 - l2), f"record {k} psi {rec['psi']} vs {l1 - l2}")
            _check_matrix(f"record {k} hessian", rec["hessian"], H1 - H2)
            _check_eigs(f"record {k} eigenvalues", rec["eigenvalues"], H1 - H2)
        _expect(r["psi_min"] == min(x["psi"] for x in recs), "psi_min summary")
        _expect(r["psi_max"] == max(x["psi"] for x in recs), "psi_max summary")
        worst = min(x["eigenvalues"][0] for x in recs)
        _expect(r["hessian_min_eig"] == worst, "hessian_min_eig summary")
        _expect(r["all_psd"] == (worst >= -tol), "all_psd summary")

    return check


def _build_metric_grid(rng, workdir, size):
    c_single, c_a, c_b = _cubic(rng), _cubic(rng), _cubic(rng)
    f_single = _write(workdir, "grid_single.json", _poly_spec(2, c_single))
    f_a = _write(workdir, "grid_a.json", _poly_spec(2, c_a))
    f_b = _write(workdir, "grid_b.json", _poly_spec(2, c_b))
    out_path = os.path.join(workdir, "curvature_single.json")
    (s1, a1), (s2, a2) = size["curvature_grid"], size["psi_grid"]
    d1, d2 = size["curvature_eval_degree"], size["psi_eval_degree"]
    n1, n2 = len(radial_grid(2, s1, a1)), len(radial_grid(2, s2, a2))
    tol = 1e-10
    invs = [
        Invocation(
            "curvature-single",
            ["curvature", "--weights", f_single, "--grid", f"radial:{s1}x{a1}",
             "--eval-degree", str(d1), "--out", out_path],
            _check_curvature_single(c_single, d1, n1),
            out_path=out_path,
        ),
        Invocation(
            "curvature-psi",
            ["curvature", "--weights", f_a, "--weights", f_b, "--grid", f"radial:{s2}x{a2}",
             "--eval-degree", str(d2), "--tol", repr(tol)],
            _check_curvature_psi(c_a, c_b, d2, n2, tol),
        ),
    ]
    inputs = {"single": [_frac(c) for c in c_single], "psi": [[_frac(c) for c in c_a], [_frac(c) for c in c_b]]}
    return [f_single, f_a, f_b], invs, inputs


# ---------------------------------------------------------------------------
# matrix-model


def _check_truncate(W, degree: int, order: int | None, alpha, k_max: int | None):
    dim = math.comb(degree + W.m, W.m)
    expected_defect = None
    if order is not None:
        diag = [defect_diag(W, order, a) for a in mi.enumerate_leq_degree(W.m, degree)]
        expected_defect = (_frac(min(diag)), _frac(max(diag)))
    expected_decay = None
    if alpha is not None:
        curve = []
        for k in range(k_max + 1):
            total = Fraction(0)
            for beta in mi.enumerate_exact_degree(W.m, k):
                if mi.leq(beta, alpha):
                    total += mi.multinomial(k, beta) * W.rho_ratio(alpha, beta)
            curve.append(_frac(total))
        expected_decay = curve

    def check(out: Outcome) -> None:
        r = _report(out, "truncate", codes=(0,))
        _expect(r["dimension"] == dim, f"dimension {r['dimension']} != {dim}")
        _expect(r["commutator_exact"] == "0/1", f"commutator {r['commutator_exact']}")
        _expect(abs(r["commutator_float"]) <= 1e-12, f"float commutator {r['commutator_float']}")
        if expected_defect is not None:
            d = r["defect"]
            _expect((d["min"], d["max"]) == expected_defect, f"defect {d} vs defect_diag {expected_defect}")
            _expect(d["off_diagonal_entries"] == 0, "off-diagonal defect entries")
            _expect(d["float_deviation"] <= 1e-9, f"float deviation {d['float_deviation']}")
        if expected_decay is not None:
            vals = r["decay"]["values"]
            _expect(vals == expected_decay, f"decay {vals} vs {expected_decay}")
            _expect(all(v == "0/1" for v in vals[sum(alpha) + 1:]), "decay beyond |alpha| not 0")

    return check


def _build_matrix_model(rng, workdir, size):
    p22spec = {"kind": "power", "n": 2, "m": 2}
    p33spec = {"kind": "power", "n": 3, "m": 3}
    p22 = _write(workdir, "power22.json", p22spec)
    p33 = _write(workdir, "power33.json", p33spec)
    D, D33 = size["truncate_degree"], size["truncate33_degree"]
    A = size["decay_alpha_degree"]
    a = rng.randint(0, A)
    alpha = (a, A - a)
    k_max = A + 2
    invs = [
        Invocation(
            "truncate-power22",
            ["truncate", "--weights", p22, "--degree", str(D), "--defect-order", "3",
             "--alpha", f"{alpha[0]},{alpha[1]}", "--k-max", str(k_max)],
            _check_truncate(weight_from_dict(p22spec), D, 3, alpha, k_max),
        ),
        Invocation(
            "truncate-power33",
            ["truncate", "--weights", p33, "--degree", str(D33)],
            _check_truncate(weight_from_dict(p33spec), D33, None, None, None),
        ),
    ]
    return [p22, p33], invs, {"decay_alpha": list(alpha)}


_FACTORIES = {
    "counterexample": _build_counterexample,
    "exact-scan": _build_exact_scan,
    "metric-grid": _build_metric_grid,
    "matrix-model": _build_matrix_model,
}


def build(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    """Write the workload's inputs for ``seed`` into workdir."""
    rng = random.Random(f"{name}:{seed}")
    files, invs, inputs = _FACTORIES[name](rng, workdir, SIZES["tiny" if tiny else "full"])
    return Workload(weight_files=files, invocations=invs, inputs=inputs)
