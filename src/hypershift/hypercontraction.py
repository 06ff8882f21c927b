"""Hereditary defect diagonals and hypercontraction tests.

For a commuting diagonal shift tuple T with weight rho, the order-k defect
operator (I - M_T)^k (I) is diagonal with entries

    d_k(alpha) = sum_{beta <= alpha, |beta| <= k}
                 (-1)^|beta| k! / (beta! (k - |beta|)!) rho(alpha-beta)/rho(alpha).

T is an n-hypercontraction iff d_k >= 0 for all alpha and all 1 <= k <= n.
Everything in this module is exact rational arithmetic.

The scans (``is_n_hyper_up_to``, ``defect_diagonal``, ``necessary_scan``)
share one engine that never evaluates the multinomial sum.  Writing
(I - M_T)^k (I) = (I - M_T)((I - M_T)^{k-1} (I)) and
[M_T(X)]_alpha = sum_i s_i(alpha) X_{alpha - e_i} with
s_i(alpha) = rho(alpha - e_i)/rho(alpha) gives the backward-difference
recurrence

    d_0 = 1,    d_k(alpha) = d_{k-1}(alpha) - sum_{i: alpha_i > 0} s_i(alpha) d_{k-1}(alpha - e_i),

so degree layer N needs only layer N - 1.  Each index costs n*m exact
multiply-adds, and the engine holds two layers at a time.  The unit steps
come from the weight's ``metric_decomposition``: off its finitely many
corrections rho is the radial base a(|alpha|) |alpha|!/alpha!, where

    s_i(alpha) = alpha_i a(N - 1) / (N a(N)),    N = |alpha|,

so one exact factor per degree layer serves every index, and ``rho_ratio``
is called only where alpha or alpha - e_i is a correction (or everywhere,
for a weight with no radial base).  ``defect_diag`` keeps the multinomial
sum as the independent oracle the tests compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterator

from . import multiindex as mi
from .errors import DimensionMismatch, TailUnreliableError, WeightDomainError
from .multiindex import MultiIndex
from .weights import RadialSequence, WeightFunction


def defect_diag(W: WeightFunction, k: int, alpha: MultiIndex) -> Fraction:
    """The diagonal entry of (I - M_T)^k (I) at e_alpha, exact."""
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    alpha = tuple(alpha)
    total = Fraction(0)
    for beta in mi.dominated_by(alpha, k):
        b = mi.degree(beta)
        coeff = mi.multinomial(k, beta)
        term = Fraction(coeff) * W.rho_ratio(alpha, beta)
        total += term if b % 2 == 0 else -term
    return total


def _defect_layers(
    W: WeightFunction, n: int, max_degree: int
) -> Iterator[tuple[MultiIndex, list[tuple[int, int]]]]:
    """Yield (alpha, row) for every |alpha| <= max_degree in graded-lex
    order, where row[k - 1] = (p, q) is d_k(alpha) = p/q for k = 1..n.

    Entries are reduced integer pairs with q > 0: each entry is accumulated
    over one common denominator and reduced by a single gcd, which is much
    cheaper than a Fraction per multiply-add.  Only the previous degree
    layer is kept, so a caller may stop anywhere in a layer.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    m = W.m
    units = [mi.unit(m, i) for i in range(m)]
    # Indices in `exact` (a correction or one step above one) take
    # W.rho_ratio; all others take alpha_i times the layer factor
    # c = a(N-1)/(N a(N)).  A weight with no base, or a table whose fallback
    # is undefined at one of its entries, takes W.rho_ratio everywhere and
    # so fails, if at all, at the same index as a per-index scan.
    try:
        base, corrections = W.metric_decomposition()
    except (TailUnreliableError, WeightDomainError):
        base, corrections = None, []
    exact = {alpha for alpha, _ in corrections}
    exact |= {mi.add(alpha, e) for alpha in exact for e in units}
    prev: dict[MultiIndex, list[tuple[int, int]]] = {}
    for degree in range(max_degree + 1):
        if base is not None and degree:
            c = base.value(degree - 1) / (degree * base.value(degree))
            cn, cd = c.numerator, c.denominator
        layer = {}
        for alpha in mi.enumerate_exact_degree(m, degree):
            on_base = base is not None and alpha not in exact
            # (s_i(alpha) numerator, denominator, row of alpha - e_i)
            terms = []
            for i, a in enumerate(alpha):
                if a:
                    if on_base:
                        g = gcd(a, cd)
                        sn, sd = a // g * cn, cd // g
                    else:
                        s = W.rho_ratio(alpha, units[i])
                        sn, sd = s.numerator, s.denominator
                    below = alpha[:i] + (a - 1,) + alpha[i + 1 :]
                    terms.append((sn, sd, prev[below]))
            row = []
            p, q = 1, 1
            for k in range(n):
                # p/q holds d_k(alpha); subtract s_i(alpha) d_k(alpha - e_i).
                for sn, sd, below_row in terms:
                    bp, bq = below_row[k - 1] if k else (1, 1)
                    tn, tq = sn * bp, sd * bq
                    if tq == q:
                        p -= tn
                    else:
                        p, q = p * tq - tn * q, q * tq
                g = gcd(p, q)
                p, q = p // g, q // g
                row.append((p, q))
            layer[alpha] = row
            yield alpha, row
        prev = layer


@dataclass(frozen=True)
class DefectDiagonal:
    """All order-k defect entries up to a degree, in graded-lex order."""

    order: int
    max_degree: int
    entries: dict[MultiIndex, Fraction]

    def minimum(self) -> tuple[MultiIndex, Fraction]:
        best = None
        for alpha, v in self.entries.items():
            if best is None or v < best[1]:
                best = (alpha, v)
        return best


def defect_diagonal(W: WeightFunction, k: int, max_degree: int) -> DefectDiagonal:
    """Tabulate d_k over all |alpha| <= max_degree."""
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    entries = {
        alpha: Fraction(*row[k - 1]) if k else Fraction(1)
        for alpha, row in _defect_layers(W, k, max_degree)
    }
    return DefectDiagonal(order=k, max_degree=max_degree, entries=entries)


def defect_diag_radial(sequence: RadialSequence, k: int, degree: int) -> Fraction:
    """Radial reduction of the defect diagonal: for rho(alpha) =
    a(|alpha|) |alpha|!/alpha! the entry depends only on N = |alpha| and

        d_k(N) = (1 / a(N)) sum_{i=0}^{min(k,N)} (-1)^i C(k, i) a(N - i).
    """
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    total = Fraction(0)
    for i in range(min(k, degree) + 1):
        term = Fraction(comb(k, i)) * sequence.value(degree - i)
        total += term if i % 2 == 0 else -term
    return total / sequence.value(degree)


@dataclass(frozen=True)
class HyperWitness:
    order: int
    alpha: MultiIndex
    value: Fraction


@dataclass(frozen=True)
class HyperReport:
    """Result of scanning d_k >= 0 for 1 <= k <= n over |alpha| <= D.

    ``verdict`` is "violation" or "no-violation-up-to-D" with the concrete
    scan bound substituted; a finite scan can only ever certify the bounded
    part of the hypercontraction condition.
    """

    order: int
    max_degree: int
    verdict: str
    witness: HyperWitness | None


def is_n_hyper_up_to(W: WeightFunction, n: int, max_degree: int) -> HyperReport:
    """Scan all defect orders 1..n over |alpha| <= max_degree.

    Indices are visited in graded lexicographic order and orders k
    ascending within an index, so the reported witness is the first
    violation in that order; the scan stops at it.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    for alpha, row in _defect_layers(W, n, max_degree):
        for k, (p, q) in enumerate(row, start=1):
            if p < 0:
                return HyperReport(
                    order=n,
                    max_degree=max_degree,
                    verdict="violation",
                    witness=HyperWitness(order=k, alpha=alpha, value=Fraction(p, q)),
                )
    return HyperReport(
        order=n,
        max_degree=max_degree,
        verdict=f"no-violation-up-to-{max_degree}",
        witness=None,
    )


@dataclass(frozen=True)
class ConditionCheck:
    """One instance of the first-order necessary bound

        sum_{beta <= alpha, |alpha - beta| = 1} rho(beta)/rho(alpha)
            <= |alpha| / (|alpha| + n - 1),

    which every n-hypercontractive diagonal shift tuple satisfies."""

    alpha: MultiIndex
    order: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def necessary_condition(W: WeightFunction, n: int, alpha: MultiIndex) -> ConditionCheck:
    """Evaluate the neighbour-sum bound at alpha != 0, exact."""
    alpha = tuple(alpha)
    if n < 1:
        raise ValueError("order n must be >= 1")
    if len(alpha) != W.m:
        raise DimensionMismatch(f"multi-index has length {len(alpha)}, weight has m = {W.m}")
    d = mi.degree(alpha)
    if d == 0:
        raise ValueError("the condition is only defined for alpha != 0")
    lhs = Fraction(0)
    for i in range(W.m):
        if alpha[i] >= 1:
            lhs += W.rho_ratio(alpha, mi.unit(W.m, i))
    return ConditionCheck(alpha=alpha, order=n, lhs=lhs, rhs=Fraction(d, d + n - 1))


@dataclass(frozen=True)
class NecessaryScan:
    """Result of checking the neighbour-sum bound at every
    0 < |alpha| <= max_degree in graded-lex order.

    ``verdict`` is "violated" or "all-hold"; ``checked`` counts the indices
    evaluated, including the witness, at which the scan stops.
    """

    order: int
    max_degree: int
    verdict: str
    checked: int
    witness: ConditionCheck | None


def necessary_scan(W: WeightFunction, n: int, max_degree: int) -> NecessaryScan:
    """Scan the neighbour-sum bound over 0 < |alpha| <= max_degree.

    The neighbour sum is 1 - d_1(alpha), so the scan runs on the defect
    engine at order 1 and agrees with ``necessary_condition`` index by index.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    checked = 0
    for alpha, row in _defect_layers(W, 1, max_degree):
        d = mi.degree(alpha)
        if d == 0:
            continue
        checked += 1
        chk = ConditionCheck(
            alpha=alpha, order=n, lhs=1 - Fraction(*row[0]), rhs=Fraction(d, d + n - 1)
        )
        if not chk.holds:
            return NecessaryScan(
                order=n, max_degree=max_degree, verdict="violated", checked=checked, witness=chk
            )
    return NecessaryScan(
        order=n, max_degree=max_degree, verdict="all-hold", checked=checked, witness=None
    )


def radial_necessary(sequence: RadialSequence, n: int, degree: int) -> bool:
    """Radial form of the neighbour-sum bound: a(i-1)/a(i) <= i/(i+n-1),
    exact; for rho(alpha) = a(|alpha|)|alpha|!/alpha! the neighbour sum
    collapses to a single coefficient ratio independent of the dimension.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    lhs = sequence.value(degree - 1) / sequence.value(degree)
    return lhs <= Fraction(degree, degree + n - 1)


def subnormality_obstruction(W: WeightFunction, alpha: MultiIndex) -> int:
    """The smallest n >= 1 at which the neighbour-sum bound fails at alpha.

    The right side |alpha|/(|alpha|+n-1) decreases to 0 in n while the
    neighbour sum L is a fixed positive rational, so a violation always
    occurs at some finite order: n = 1 when L > 1, otherwise the smallest
    integer exceeding |alpha|(1-L)/L + 1, i.e. floor(|alpha|(1-L)/L) + 2.
    Monotonicity makes a two-point evaluation at n and n-1 a proof of
    minimality, which is asserted before returning.
    """
    alpha = tuple(alpha)
    d = mi.degree(alpha)
    if d == 0:
        raise ValueError("the condition is only defined for alpha != 0")
    lhs = necessary_condition(W, 1, alpha).lhs
    if lhs > 1:
        return 1
    x = Fraction(d) * (1 - lhs) / lhs
    n_min = x.numerator // x.denominator + 2
    if necessary_condition(W, n_min, alpha).holds or not necessary_condition(
        W, n_min - 1, alpha
    ).holds:
        raise RuntimeError("internal inconsistency locating the obstruction order")
    return n_min


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Extremes of the normalised coefficients a(k)/k^(n-1) over a window,
    with a divergence flag when the spread max/min exceeds
    ``divergence_ratio``."""

    order: int
    k_min: int
    k_max: int
    minimum: Fraction
    maximum: Fraction
    divergent: bool


def growth_diagnostic(
    sequence: RadialSequence,
    n: int,
    k_min: int,
    k_max: int,
    divergence_ratio: Fraction = Fraction(10**6),
) -> GrowthDiagnostic:
    """Compare a(k) against the reference growth rate k^(n-1).

    Order-n hypercontractive behaviour pins the radial coefficients between
    constant multiples of k^(n-1); a huge spread in a(k)/k^(n-1) over the
    window is cheap evidence that no such bracketing exists.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    lo = hi = None
    for k in range(k_min, k_max + 1):
        r = sequence.value(k) / Fraction(k) ** (n - 1)
        if lo is None or r < lo:
            lo = r
        if hi is None or r > hi:
            hi = r
    return GrowthDiagnostic(
        order=n,
        k_min=k_min,
        k_max=k_max,
        minimum=lo,
        maximum=hi,
        divergent=hi / lo > divergence_ratio,
    )
