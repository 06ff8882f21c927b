"""Ray-product similarity diagnostics for pairs of diagonal shift tuples.

Two diagonal shift tuples are similar via a diagonal intertwiner iff the
squared ratios of their weight products along coordinate rays are bounded
above and below; the scan here tabulates those ratios over a finite window
and flags spread growth.  The ratio along the ray from alpha, direction i,
through l + 1 steps telescopes to a single quotient of weight ratios:

    R(alpha, i, l) = [rho_1(alpha)/rho_1(alpha + (l+1) e_i)]
                   / [rho_2(alpha)/rho_2(alpha + (l+1) e_i)].

Exact rational arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import multiindex as mi
from .multiindex import MultiIndex
from .weights import WeightFunction, eval_metric


def _check_pair(W1: WeightFunction, W2: WeightFunction) -> None:
    if W1.m != W2.m:
        raise ValueError(f"weights have dimensions {W1.m} and {W2.m}")


def ray_ratio_sq(
    W1: WeightFunction,
    W2: WeightFunction,
    alpha: MultiIndex,
    direction: int,
    length: int,
) -> Fraction:
    """Squared ray product ratio over l + 1 shift steps (length = l >= 0),
    telescoped to two weight quotients."""
    _check_pair(W1, W2)
    if length < 0:
        raise ValueError("ray length must be >= 0")
    alpha = tuple(alpha)
    step = mi.scale(mi.unit(W1.m, direction), length + 1)
    top = mi.add(alpha, step)
    return W1.rho_ratio(top, step) / W2.rho_ratio(top, step)


def ray_ratio_sq_literal(
    W1: WeightFunction,
    W2: WeightFunction,
    alpha: MultiIndex,
    direction: int,
    length: int,
) -> Fraction:
    """The same ratio as a literal product of squared step weights; kept as
    an independent cross-check of the telescoped form."""
    _check_pair(W1, W2)
    if length < 0:
        raise ValueError("ray length must be >= 0")
    out = Fraction(1)
    cur = tuple(alpha)
    e = mi.unit(W1.m, direction)
    for _ in range(length + 1):
        out *= W1.shift_weight_sq(cur, direction) / W2.shift_weight_sq(cur, direction)
        cur = mi.add(cur, e)
    return out


@dataclass(frozen=True)
class RayWitness:
    alpha: MultiIndex
    direction: int
    length: int
    value: Fraction


@dataclass(frozen=True)
class RatioScanReport:
    """Extremes of ray_ratio_sq over all base points |alpha| <= base_degree,
    directions, and lengths 0..ray_length.

    ``spread`` is max/min over the full scan and ``spread_half`` the same
    over lengths 0..ray_length//2; the verdict is "growth-flagged" when
    spread >= growth_factor * spread_half, else "bounded-in-scan".  The flag
    is a heuristic: a finite scan cannot certify unboundedness, it can only
    notice the window extremes still widening with ray length.  ``cells``
    holds every scanned ratio in scan order.
    """

    base_degree: int
    ray_length: int
    growth_factor: Fraction
    min_ratio_sq: Fraction
    max_ratio_sq: Fraction
    argmin: RayWitness
    argmax: RayWitness
    spread: Fraction
    spread_half: Fraction
    verdict: str
    cells: tuple  # RayWitness per (alpha, direction, length), scan order


def similarity_scan(
    W1: WeightFunction,
    W2: WeightFunction,
    base_degree: int,
    ray_length: int,
    growth_factor: Fraction = Fraction(2),
) -> RatioScanReport:
    """Tabulate ray_ratio_sq over the finite window and report extremes.

    Base points run in graded lexicographic order, directions ascending,
    lengths ascending, so witnesses are the first extreme in that order.
    """
    _check_pair(W1, W2)
    if base_degree < 0 or ray_length < 0:
        raise ValueError("scan bounds must be >= 0")
    growth_factor = Fraction(growth_factor)
    if growth_factor <= 1:
        raise ValueError("growth_factor must exceed 1")
    half = ray_length // 2
    lo = hi = None
    lo_half = hi_half = None
    cells = []
    for alpha in mi.enumerate_leq_degree(W1.m, base_degree):
        for i in range(W1.m):
            for l in range(ray_length + 1):
                r = ray_ratio_sq(W1, W2, alpha, i, l)
                wit = RayWitness(alpha=alpha, direction=i, length=l, value=r)
                cells.append(wit)
                if lo is None or r < lo.value:
                    lo = wit
                if hi is None or r > hi.value:
                    hi = wit
                if l <= half:
                    if lo_half is None or r < lo_half:
                        lo_half = r
                    if hi_half is None or r > hi_half:
                        hi_half = r
    spread = hi.value / lo.value
    spread_half = hi_half / lo_half
    flagged = spread >= growth_factor * spread_half
    return RatioScanReport(
        base_degree=base_degree,
        ray_length=ray_length,
        growth_factor=growth_factor,
        min_ratio_sq=lo.value,
        max_ratio_sq=hi.value,
        argmin=lo,
        argmax=hi,
        spread=spread,
        spread_half=spread_half,
        verdict="growth-flagged" if flagged else "bounded-in-scan",
        cells=tuple(cells),
    )


@dataclass(frozen=True)
class MetricRatioReport:
    """Extremes of h_1(w)/h_2(w) over a finite point sample."""

    minimum: float
    maximum: float
    argmin: tuple
    argmax: tuple
    n_points: int


def metric_ratio_report(
    W1: WeightFunction,
    W2: WeightFunction,
    points,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> MetricRatioReport:
    """Evaluate the metric quotient at each sample point.

    Similar tuples have quotients pinched between positive constants; this
    report gives the observed range, not a certificate.
    """
    import mpmath as mp

    _check_pair(W1, W2)
    points = list(points)
    if not points:
        raise ValueError("need at least one sample point")
    lo = hi = None
    lo_w = hi_w = None
    with mp.workprec(precision_bits):
        for w in points:
            h1 = eval_metric(W1, w, max_degree=max_degree, precision_bits=precision_bits)
            h2 = eval_metric(W2, w, max_degree=max_degree, precision_bits=precision_bits)
            q = h1.value / h2.value
            if lo is None or q < lo:
                lo, lo_w = q, tuple(w)
            if hi is None or q > hi:
                hi, hi_w = q, tuple(w)
    return MetricRatioReport(
        minimum=float(lo), maximum=float(hi), argmin=lo_w, argmax=hi_w, n_points=len(points)
    )
