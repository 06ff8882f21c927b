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

so degree layer N needs only layer N - 1.  The unit steps come from the
weight's ``metric_decomposition``: off its finitely many corrections C, rho
is the radial base a(|alpha|) |alpha|!/alpha!, where

    s_i(alpha) = alpha_i c_N,    c_N = a(N - 1) / (N a(N)),    N = |alpha|.

An entry d_k(alpha) with k <= n reads rho only at alpha - beta, |beta| <= k,
so outside the cone C + {beta : |beta| <= n} it depends only on N:

    d_k(N) = d_{k-1}(N) - N c_N d_{k-1}(N - 1),

the closed sum of ``defect_diag_radial``.  Each degree layer therefore
carries one radial row and exact rows only on its part of the finite cone,
computed in lex order with the recurrence above; a lower neighbour outside
the cone reads the previous radial row, and ``rho_ratio`` is called only
where alpha or alpha - e_i is a correction.  A weight with no radial base
puts every index in the cone and calls ``rho_ratio`` at each.  A scan costs O(n) per layer plus n*m exact
multiply-adds per cone index, whatever the number of indices.

The scans take the graded-lex-first witness of a layer from two candidates:
the first violating cone entry (no cone row past it is computed), and the
first index outside the cone when the radial row violates.
``defect_diagonal`` expands the radial rows to every index.  ``defect_diag``
keeps the multinomial sum as the independent oracle the tests compare the
engine against, and ``defect_diag_radial`` the oracle for the radial row.
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


def _cone_layers(W: WeightFunction, n: int, max_degree: int) -> Iterator[tuple]:
    """Yield (N, radial, cone, rows) for each degree layer N <= max_degree.

    A row is [(p, q)] with row[k - 1] = d_k = p/q for k = 1..n, a reduced
    integer pair with q > 0.  ``radial`` is the row of every index of layer
    N outside the cone, or None for a weight with no radial base.  ``cone``
    lists the layer's cone indices in lex order (every index when there is
    no base) and ``rows`` yields (alpha, row) for them lazily in that order,
    so a caller that stops early computes no row past its stop.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    m = W.m
    units = [mi.unit(m, i) for i in range(m)]
    # Cone indices in `exact` (a correction or one step above one) take
    # W.rho_ratio; all others take alpha_i times the layer factor
    # c = a(N-1)/(N a(N)).  A weight with no base, or a table whose fallback
    # is undefined at one of its entries, puts every index in the cone and
    # takes W.rho_ratio everywhere, so it fails, if at all, at the same
    # index as a per-index scan.
    try:
        base, corrections = W.metric_decomposition()
    except (TailUnreliableError, WeightDomainError):
        base, corrections = None, []
    exact = {alpha for alpha, _ in corrections}
    cones: dict[int, set[MultiIndex]] = {}
    for alpha in exact:
        for beta in mi.enumerate_leq_degree(m, n):
            gamma = mi.add(alpha, beta)
            cones.setdefault(mi.degree(gamma), set()).add(gamma)
    exact |= {mi.add(alpha, e) for alpha in exact for e in units}

    def rows(cone, cn, cd, prev, prev_radial, layer):
        # A lower neighbour missing from `prev` lies outside the cone.
        for alpha in cone:
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
                    terms.append((sn, sd, prev.get(below, prev_radial)))
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

    prev: dict[MultiIndex, list[tuple[int, int]]] = {}
    prev_radial = None
    cn = cd = 1
    for degree in range(max_degree + 1):
        radial = None
        if base is None:
            cone = mi.enumerate_exact_degree(m, degree)
        else:
            cone = sorted(cones.get(degree, ()))
            radial = [(1, 1)] * n
            if degree:
                # d_k(N) = d_{k-1}(N) - (a(N-1)/a(N)) d_{k-1}(N-1)
                step = base.value(degree - 1) / base.value(degree)
                c = step / degree
                cn, cd = c.numerator, c.denominator
                value = Fraction(1)
                for k in range(n):
                    value -= step * (Fraction(*prev_radial[k - 1]) if k else 1)
                    radial[k] = (value.numerator, value.denominator)
        layer: dict[MultiIndex, list[tuple[int, int]]] = {}
        layer_rows = rows(cone, cn, cd, prev, prev_radial, layer)
        yield degree, radial, cone, layer_rows
        for _ in layer_rows:  # finish the layer when the caller stopped early
            pass
        prev, prev_radial = layer, radial


def _defect_layers(
    W: WeightFunction, n: int, max_degree: int
) -> Iterator[tuple[MultiIndex, list[tuple[int, int]]]]:
    """Yield (alpha, row) for every |alpha| <= max_degree in graded-lex
    order, where row[k - 1] = (p, q) is d_k(alpha) = p/q for k = 1..n.

    Indices outside the cone share their layer's radial row.  Only the
    previous degree layer is kept, so a caller may stop anywhere in a layer.
    """
    for degree, radial, _, rows in _cone_layers(W, n, max_degree):
        hit = next(rows, None)
        for alpha in mi.enumerate_exact_degree(W.m, degree):
            if hit is not None and hit[0] == alpha:
                yield hit
                hit = next(rows, None)
            else:
                yield alpha, radial


def _first_violation(
    W: WeightFunction, n: int, max_degree: int, violates
) -> tuple[MultiIndex, list[tuple[int, int]]] | None:
    """The graded-lex-first (alpha, row) with ``violates(|alpha|, row)``.

    In each layer the witness is the earlier of two candidates: the first
    violating cone entry, and the first index outside the cone when the
    radial row violates.  Cone rows past the second candidate are never
    computed, so ``rho_ratio`` is not called beyond the witness.
    """
    for degree, radial, cone, rows in _cone_layers(W, n, max_degree):
        outside = None
        if radial is not None and violates(degree, radial):
            inside = set(cone)
            outside = next((a for a in mi._compositions(degree, W.m) if a not in inside), None)
        for alpha, row in rows:
            if outside is not None and alpha > outside:
                break
            if violates(degree, row):
                return alpha, row
        if outside is not None:
            return outside, radial
    return None


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
    hit = _first_violation(W, n, max_degree, lambda degree, row: any(p < 0 for p, q in row))
    if hit is None:
        return HyperReport(
            order=n,
            max_degree=max_degree,
            verdict=f"no-violation-up-to-{max_degree}",
            witness=None,
        )
    alpha, row = hit
    k, (p, q) = next((k, e) for k, e in enumerate(row, start=1) if e[0] < 0)
    return HyperReport(
        order=n,
        max_degree=max_degree,
        verdict="violation",
        witness=HyperWitness(order=k, alpha=alpha, value=Fraction(p, q)),
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
    ``checked`` is the witness's graded-lex rank, which counts the nonzero
    indices up to and including it.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")

    def violates(degree, row):
        # 1 - p/q > N/(N + n - 1), cleared of its positive denominators.
        p, q = row[0]
        return degree > 0 and (q - p) * (degree + n - 1) > degree * q

    hit = _first_violation(W, 1, max_degree, violates)
    if hit is None:
        checked = comb(max_degree + W.m, W.m) - 1
        return NecessaryScan(
            order=n, max_degree=max_degree, verdict="all-hold", checked=checked, witness=None
        )
    alpha, row = hit
    d = mi.degree(alpha)
    chk = ConditionCheck(
        alpha=alpha, order=n, lhs=1 - Fraction(*row[0]), rhs=Fraction(d, d + n - 1)
    )
    return NecessaryScan(
        order=n,
        max_degree=max_degree,
        verdict="violated",
        checked=mi.graded_lex_rank(alpha),
        witness=chk,
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
