"""Ray-product similarity diagnostics for pairs of diagonal shift tuples.

Two diagonal shift tuples are similar via a diagonal intertwiner iff the
squared ratios of their weight products along coordinate rays are bounded
above and below; the scan here tabulates those ratios over a finite window
and flags spread growth.  The ratio along the ray from alpha, direction i,
through l + 1 steps telescopes to a single quotient of weight ratios:

    R(alpha, i, l) = [rho_1(alpha)/rho_1(alpha + (l+1) e_i)]
                   / [rho_2(alpha)/rho_2(alpha + (l+1) e_i)].

Off the finitely many corrected indices C of two weights with radial
sequences a_1 and a_2 (each weight's ``sequence`` and ``corrections``),
rho_k(alpha) = a_k(|alpha|) |alpha|!/alpha! and the multinomial factors
cancel, so with N = |alpha|

    R(alpha, i, l) = q(N + l + 1) / q(N),    q = a_2 / a_1,

a function of (N, l) alone.  ``similarity_scan`` therefore decides each
cell (alpha, i, l) by one rule: it is computed exactly when either weight's
``corrections`` is None (no radial split) or when alpha or its top
alpha + (l+1) e_i lies in C, and every other cell reads one table entry per
(N, l), computed at the first such cell in scan order.  A scan over
|alpha| <= D and lengths 0..L thus makes at most (D + 1)(L + 1) table calls
to ``ray_ratio_sq`` plus one per cell touching C, instead of one per cell,
C(D + m, m) m (L + 1); the remaining per-cell work is an int set lookup of
the top's degree N + l + 1, and a lookup of the top itself only when that
degree is corrected.  Without a split every cell is computed, as a per-cell
scan would, so a weight that fails fails at the same cell with the same
error.  The extremes are ``min`` and ``max`` over the list of computed
cells in scan order, each the first extreme it meets, and the half-window
extremes the same over the lengths l <= L // 2.

Exact rational arithmetic throughout.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import multiindex as mi
from .errors import DimensionMismatch
from .multiindex import MultiIndex
from .weights import WeightFunction


def _check_pair(W1: WeightFunction, W2: WeightFunction) -> None:
    if W1.m != W2.m:
        raise DimensionMismatch(f"weights have dimensions {W1.m} and {W2.m}")


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
        cur = mi.add(cur, e)
        out *= W1.rho_ratio(cur, e) / W2.rho_ratio(cur, e)
    return out


class RayWitness(NamedTuple):
    alpha: MultiIndex
    direction: int
    length: int
    value: Fraction


class RatioScanReport(NamedTuple):
    """Extremes of ray_ratio_sq over all base points |alpha| <= base_degree,
    directions, and lengths 0..ray_length.

    ``spread`` is max/min over the full scan and ``spread_half`` the same
    over lengths 0..ray_length//2; the verdict is "growth-flagged" when
    spread >= growth_factor * spread_half, else "bounded-in-scan".  The flag
    is a heuristic: a finite scan cannot certify unboundedness, it can only
    notice the window extremes still widening with ray length.

    The scanned ratios are kept as ``table`` ((|alpha|, length) -> ratio,
    shared by every cell off the corrections) and ``exact`` ((alpha,
    direction, length) -> ratio, every other cell); ``cells()`` expands
    them in scan order.
    """

    m: int
    base_degree: int
    ray_length: int
    min_ratio_sq: Fraction
    max_ratio_sq: Fraction
    argmin: RayWitness
    argmax: RayWitness
    spread: Fraction
    spread_half: Fraction
    verdict: str
    table: dict
    exact: dict

    def cells(self, convert=None) -> Iterator[tuple[MultiIndex, int, int, Fraction]]:
        """(alpha, direction, length, ratio) for every scanned cell, in scan
        order.  With ``convert``, each cell carries convert(ratio) instead,
        computed once per stored ratio and shared by the cells that read
        it."""
        table, exact = self.table, self.exact
        if convert is not None:
            table = {key: convert(r) for key, r in table.items()}
            exact = {key: convert(r) for key, r in exact.items()}
        for alpha in mi.enumerate_leq_degree(self.m, self.base_degree):
            N = mi.degree(alpha)
            for i in range(self.m):
                for l in range(self.ray_length + 1):
                    r = exact.get((alpha, i, l))
                    yield alpha, i, l, table[N, l] if r is None else r


def similarity_scan(
    W1: WeightFunction,
    W2: WeightFunction,
    base_degree: int,
    ray_length: int,
    growth_factor: Fraction = Fraction(2),
) -> RatioScanReport:
    """Tabulate ray_ratio_sq over the finite window and report extremes.

    Base points run in graded lexicographic order, directions ascending,
    lengths ascending.  ``min`` and ``max`` over the computed cells, kept in
    that order, return the first extreme they meet, so witnesses are the
    first extremes in scan order: a cell read from the table repeats a value
    computed before it and cannot be a first extreme.
    """
    _check_pair(W1, W2)
    if base_degree < 0 or ray_length < 0:
        raise ValueError("scan bounds must be >= 0")
    growth_factor = Fraction(growth_factor)
    if growth_factor <= 1:
        raise ValueError("growth_factor must exceed 1")
    tabled = W1.corrections is not None and W2.corrections is not None
    corrected = {alpha for W in (W1, W2) for alpha, _ in W.corrections or ()}
    degrees = {mi.degree(c) for c in corrected}
    table: dict[tuple[int, int], Fraction] = {}
    exact: dict[tuple[MultiIndex, int, int], Fraction] = {}
    cells = []  # (alpha, direction, length, ratio) for every computed cell
    for alpha in mi.enumerate_leq_degree(W1.m, base_degree):
        N = mi.degree(alpha)
        base_exact = not tabled or alpha in corrected
        for i in range(W1.m):
            for l in range(ray_length + 1):
                # The top's degree first: an int lookup, cheaper than forming the top.
                if base_exact or (
                    N + l + 1 in degrees
                    and alpha[:i] + (alpha[i] + l + 1,) + alpha[i + 1 :] in corrected
                ):
                    r = exact[alpha, i, l] = ray_ratio_sq(W1, W2, alpha, i, l)
                elif (N, l) not in table:
                    r = table[N, l] = ray_ratio_sq(W1, W2, alpha, i, l)
                else:
                    continue
                cells.append((alpha, i, l, r))
    lo = RayWitness(*min(cells, key=itemgetter(3)))
    hi = RayWitness(*max(cells, key=itemgetter(3)))
    half = [r for _, _, l, r in cells if l <= ray_length // 2]
    spread = hi.value / lo.value
    spread_half = max(half) / min(half)
    flagged = spread >= growth_factor * spread_half
    return RatioScanReport(
        m=W1.m,
        base_degree=base_degree,
        ray_length=ray_length,
        min_ratio_sq=lo.value,
        max_ratio_sq=hi.value,
        argmin=lo,
        argmax=hi,
        spread=spread,
        spread_half=spread_half,
        verdict="growth-flagged" if flagged else "bounded-in-scan",
        table=table,
        exact=exact,
    )
