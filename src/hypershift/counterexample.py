"""The ray-perturbed power kernel that breaks n-hypercontractivity, and the
four stages of ``example45`` that reproduce it.

``PerturbedPower(n, m, L)`` divides the values of ``PowerKernel(n, m)`` by
small integers along L rays; ``kernel_bound`` certifies that the kernel
stays within 1/8 of the power kernel's on the whole ball; ``example45``
runs the four stages and returns the report's params and body, which the
CLI puts in its envelope.

Only ``example45``, a ``perturbed45`` weight spec and the name
``PerturbedPower`` load this module.  The numerics the stages run
(hypercontraction, similarity, curvature) are imported inside
``example45``, so a call loads them only when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import multiindex as mi
from . import report as rpt
from .multiindex import MultiIndex
from .weights import PowerKernel, WeightFunction, _graded

# Stage (d) reports the pair summary without its shells.
_PSH = ("psi_min", "psi_max", "hessian_min_eig", "all_psd", "unbounded_trend", "n_points")


class PerturbedPower(WeightFunction):
    """A power kernel divided by small integers along finitely many rays:
    the entries base.rho(alpha) / d over the sequence of ``base =
    PowerKernel(n, m)``, at the finitely many indices with divisor d > 1.

    Block l (l = 1 .. blocks) sits over the base point (0, b_l, 0, ..., 0)
    where b_l is the smallest admissible base degree

        b_l  >  max(n^n 2^{3l+1} / (n-1)! - n,  n - 2),
        b_l  >  b_{l-1} + 2(l-1),

    and divides rho at the ray points base + j e_0 (1 <= j <= 2l-1) by
    min(j, 2l-j).  The divisor profile rises to l at the midpoint and falls
    back to 1, so each block injects a bounded ray distortion of size l while
    every kernel-level quantity moves by at most a fixed factor of 2.
    Requires m >= 2 and n >= 2.

    With x_l = n^n 2^{3l+1} / (n-1)!, b_l is the closed form
    floor(x_l) - n + 1, the smallest integer above x_l - n, and both bounds
    hold for it: n^n / (n-1)! >= n gives x_1 - n >= 15n > n - 2, and
    b_l - b_{l-1} >= x_l - x_{l-1} - 1 >= 7 2^{3l-2} n - 1 > 2(l-1).
    """

    def __init__(self, n: int, m: int, blocks: int):
        if m < 2:
            raise ValueError("perturbed family needs m >= 2")
        if n < 2:
            raise ValueError("perturbed family needs n >= 2")
        if blocks < 1:
            raise ValueError("block count must be >= 1")
        self.base = PowerKernel(n, m)
        self.base_degrees = [
            n**n * 2 ** (3 * l + 1) // factorial(n - 1) - n + 1 for l in range(1, blocks + 1)
        ]
        entries = {}
        for l, b in enumerate(self.base_degrees, start=1):
            for j in range(2, 2 * l - 1):
                alpha = (j, b) + (0,) * (m - 2)
                entries[alpha] = self.base.rho(alpha) / min(j, 2 * l - j)
        spec = {"kind": "perturbed45", "n": n, "m": m, "L": blocks}
        super().__init__(m, self.base.sequence, entries, spec)

    def perturbed_entries(self) -> list[tuple[MultiIndex, int]]:
        """All (alpha, divisor) pairs with divisor > 1, graded order; each
        divisor is the base value over the entry."""
        return [
            (alpha, int(self.base.rho(alpha) / value))
            for alpha, value in sorted(self.entries.items(), key=_graded)
        ]


def kernel_bound(corrections, n: int) -> dict:
    """Stage (a) of ``example45`` for a power kernel of order n plus exact
    corrections (alpha, delta).

    For the power kernel K(w,w)(1-|w|^2)^n = 1 exactly; each correction
    moves it by at most |delta| sup_{|w|^2=t} |w^alpha|^2 (1-t)^n, and the
    supremum over the sphere is t^N prod alpha_i^alpha_i / N^N with
    N = |alpha|.  t^N (1-t)^n peaks at t* = N/(N+n), so ``sup_bound``, the
    sum of the per-term sups at t*, bounds the deviation on the whole ball
    and decides ``pass``; the exact maximum on a grid of t is reported
    beside it.
    """
    terms = []
    for alpha, delta in corrections:
        N = mi.degree(alpha)
        mono_sup = Fraction(1)
        for a in alpha:
            if a:
                mono_sup *= Fraction(a) ** a
        terms.append((N, -delta * mono_sup / Fraction(N) ** N))
    t_grid = [Fraction(k, 20) for k in range(20)] + [Fraction(99, 100)]
    max_dev = Fraction(0)
    worst_t = t_grid[0]
    for t in t_grid:
        dev = sum(c * t**N * (1 - t) ** n for N, c in terms)
        if dev > max_dev:
            max_dev = dev
            worst_t = t
    sup_bound = sum(abs(c) * Fraction(N, N + n) ** N * Fraction(n, N + n) ** n for N, c in terms)
    return {
        "pass": Fraction(1, 8) - sup_bound > 0,
        "sup_bound": float(sup_bound),
        "max_deviation": float(max_dev),
        "margin": float(Fraction(1, 8) - max_dev),
        "worst_t": worst_t,
        "t_grid_size": len(t_grid),
    }


def example45(
    n: int = 2,
    m: int = 2,
    blocks: int = 2,
    scan_degree: int | None = None,
    eval_degree: int = 240,
    precision_bits: int = 80,
) -> tuple[dict, dict]:
    """Reproduce the perturbed-kernel counterexample end to end; return the
    report's params and body.

    Stages: (a) certify sup_w |K(w,w)(1-|w|^2)^n - 1| < 1/8 on the whole
    ball by the exact ``sup_bound``, the sum of each correction's exact
    supremum, and report the exact maximum on a grid of t beside it; (b) exhibit
    the neighbour-sum violation at the last block midpoint and find a
    negative defect entry by scan; (c) verify the ray ratio witness equals
    the block index l for each block; (d) run the curvature comparison
    against the unperturbed kernel on the grid radial:6x4.  Stages (a)-(c)
    are pass/fail; (d) is informational.  Bad arguments raise
    ``ValueError`` before any stage runs.
    """
    from .curvature import check_jet_args, curvature_points, psh_boundedness_report, radial_grid
    from .hypercontraction import is_n_hyper_up_to, necessary_condition
    from .similarity import ray_ratio_sq

    if blocks < 2:
        raise ValueError("the counterexample needs at least 2 blocks")
    check_jet_args(eval_degree, precision_bits)  # stage (d)'s refusals, before stage (a)
    if scan_degree is not None and scan_degree < 0:  # and stage (b)'s
        raise ValueError("max_degree must be >= 0")
    W = PerturbedPower(n, m, blocks)
    base = W.base
    stages: dict = {}

    # (a) kernel bound.
    stages["kernel_bound"] = {**kernel_bound(W.corrections, n), "base_degrees": W.base_degrees}

    # (b) necessary-condition violation at the last block midpoint, then a
    # defect witness by graded scan; a scan witness is a negative defect.
    b_last = W.base_degrees[-1]
    mid = (blocks, b_last) + (0,) * (m - 2)
    chk = necessary_condition(W, n, mid)
    if scan_degree is None:
        scan_degree = b_last + blocks + 1
    scan = is_n_hyper_up_to(W, n, scan_degree)
    stage_b = {
        "pass": (not chk.holds) and scan.witness is not None,
        **chk._asdict(),
        "scan_degree": scan_degree,
        "verdict": scan.verdict,
    }
    if scan.witness is not None:
        stage_b["defect_witness"] = scan.witness._asdict()
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
    points = curvature_points(
        [W, base], radial_grid(m, 6, 4), max_degree=eval_degree, precision_bits=precision_bits
    )
    psh = psh_boundedness_report(points)
    stages["curvature"] = {"pass": True, **rpt.pick(psh, *_PSH)}

    ok = all(s["pass"] for s in stages.values())
    body = {"stages": stages, "pass": ok}
    if not ok:
        body["witness"] = {"stage": min(name for name, s in stages.items() if not s["pass"])}
    params = {
        "n": n,
        "m": m,
        "blocks": blocks,
        "scan_degree": scan_degree,
        "eval_degree": eval_degree,
        "precision_bits": precision_bits,
    }
    return params, body
