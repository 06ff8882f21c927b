"""Hereditary defect diagonals and hypercontraction tests.

For a commuting diagonal shift tuple T with weight rho, the order-k defect
operator (I - M_T)^k (I) is diagonal with entries

    d_k(alpha) = sum_{beta <= alpha, |beta| <= k}
                 (-1)^|beta| k! / (beta! (k - |beta|)!) rho(alpha-beta)/rho(alpha).

T is an n-hypercontraction iff d_k >= 0 for all alpha and all 1 <= k <= n.
Everything in this module is exact rational arithmetic.

That is Agler's (I - M_T)^k (I) = sum_j (-1)^j C(k, j) M_T^j (I) on the
diagonal.  ``moments`` gives [M_T^j(I)]_{alpha,alpha} for j <= k from the
one walk over the beta <= alpha, and it is the only one: ``defect_diag``,
``necessary_condition`` ([M_T(I)]_{alpha,alpha}, the neighbour sum) and
``Truncation.decay`` read it.

The scans (``is_n_hyper_up_to``, ``necessary_scan``) share one engine that
never evaluates the multinomial sum.  Writing
(I - M_T)^k (I) = (I - M_T)((I - M_T)^{k-1} (I)) and
[M_T(X)]_alpha = sum_i s_i(alpha) X_{alpha - e_i} with
s_i(alpha) = rho(alpha - e_i)/rho(alpha) gives the backward-difference
recurrence

    d_0 = 1,    d_k(alpha) = d_{k-1}(alpha) - sum_{i: alpha_i > 0} s_i(alpha) d_{k-1}(alpha - e_i),

so degree layer N needs only layer N - 1.  The weight's ``sequence`` a and
``corrections`` (the split the similarity scan shares) place the work: off
the finitely many corrected indices C, rho is the radial value
a(|alpha|) |alpha|!/alpha! and s_i(alpha) = alpha_i a(N - 1) / (N a(N)) with
N = |alpha|.  An entry d_k(alpha) with k <= n reads rho only at
alpha - beta, |beta| <= k, so outside the cone C + {beta : |beta| <= n} it
depends only on N:

    d_k(N) = d_{k-1}(N) - (a(N - 1) / a(N)) d_{k-1}(N - 1),

the recurrence above with one term, and the recurrence form of
d_k(N) = sum_i (-1)^i C(k, i) a(N - i) / a(N).  So each degree layer holds
one radial row, read from a, and exact rows only on its part of the finite
cone, all from one row update on reduced integer pairs (``_row``).  A cone
row reads each of its unit steps from ``rho_ratio``, which holds the one
rule for a step (the quotient of two values at an entry, else the cached
radial closed form); a lower neighbour outside the cone reads the previous
radial row.  A weight with no split (``corrections`` is None) puts every
index in the cone.  A scan costs O(n) per layer plus, per cone index, one
``rho_ratio`` call and n exact multiply-adds per nonzero coordinate,
whatever the number of indices.

The scans take the graded-lex-first witness of a layer from two candidates:
the first violating cone entry (no cone row past it is computed), and the
first index outside the cone when the radial row violates.
``defect_diag`` keeps the multinomial sum, read through ``moments``, as the
independent oracle the tests compare the engine against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import Iterator, NamedTuple

from . import multiindex as mi
from .errors import DimensionMismatch
from .multiindex import MultiIndex
from .weights import RadialSequence, WeightFunction


def moments(W: WeightFunction, alpha: MultiIndex, k_max: int) -> list[Fraction]:
    """[M_T^k(I)]_{alpha,alpha} = sum_{beta <= alpha, |beta| = k} (k!/beta!)
    rho(alpha-beta)/rho(alpha) for k = 0..k_max, exactly 0 past |alpha|; the
    k = 0 entry is 1 and reads no weight value."""
    alpha = tuple(alpha)
    if len(alpha) != W.m:
        raise DimensionMismatch(f"multi-index has length {len(alpha)}, weight has m = {W.m}")
    out = [Fraction(1)] + [Fraction(0)] * k_max
    for beta in mi.dominated_by(alpha, k_max):
        k = mi.degree(beta)
        if k:
            out[k] += mi.multinomial(k, beta) * W.rho_ratio(alpha, beta)
    return out


def defect_diag(W: WeightFunction, k: int, alpha: MultiIndex) -> Fraction:
    """The diagonal entry of (I - M_T)^k (I) at e_alpha, exact: the
    binomial sum sum_j (-1)^j C(k, j) [M_T^j(I)]_{alpha,alpha}."""
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    return sum((-1) ** j * comb(k, j) * x for j, x in enumerate(moments(W, alpha, k)))


def _row(terms, n: int) -> list[tuple[int, int]]:
    """The row d_1..d_n of an index from its terms (s_i numerator, s_i
    denominator, row of alpha - e_i), by the recurrence, one gcd per order."""
    row = []
    p, q = 1, 1
    for k in range(n):
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
    return row


def _cone_layers(W: WeightFunction, n: int, max_degree: int) -> Iterator[tuple]:
    """Yield (N, radial, cone, rows) for each degree layer N <= max_degree.

    A row is [(p, q)] with row[k - 1] = d_k = p/q for k = 1..n, a reduced
    integer pair with q > 0.  ``radial`` is the row of every index of layer
    N outside the cone, or None for a weight with no split.  ``cone``
    lists the layer's cone indices in lex order (every index when there is
    no split) and ``rows`` yields (alpha, row) for them lazily in that order,
    so a caller that stops early computes no row past its stop.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    m = W.m
    units = [mi.unit(m, i) for i in range(m)]
    base = None if W.corrections is None else W.sequence
    cones: dict[int, set[MultiIndex]] = {}
    for alpha, _ in W.corrections or ():
        for beta in mi.enumerate_leq_degree(m, n):
            gamma = mi.add(alpha, beta)
            cones.setdefault(mi.degree(gamma), set()).add(gamma)

    def rows(cone, prev, prev_radial, layer):
        # A lower neighbour missing from `prev` lies outside the cone.
        for alpha in cone:
            terms = []
            for i, a in enumerate(alpha):
                if a:
                    s = W.rho_ratio(alpha, units[i])
                    below = alpha[:i] + (a - 1,) + alpha[i + 1 :]
                    terms.append((s.numerator, s.denominator, prev.get(below, prev_radial)))
            row = layer[alpha] = _row(terms, n)
            yield alpha, row

    prev: dict[MultiIndex, list[tuple[int, int]]] = {}
    prev_radial = None
    for degree in range(max_degree + 1):
        radial = None
        if base is None:
            cone = mi.enumerate_exact_degree(m, degree)
        else:
            cone = sorted(cones.get(degree, ()))
            terms = []
            if degree:  # one term: s = a(N-1)/a(N) on the row of N - 1
                step = base.value(degree - 1) / base.value(degree)
                terms = [(step.numerator, step.denominator, prev_radial)]
            radial = _row(terms, n)
        layer: dict[MultiIndex, list[tuple[int, int]]] = {}
        layer_rows = rows(cone, prev, prev_radial, layer)
        yield degree, radial, cone, layer_rows
        for _ in layer_rows:  # finish the layer when the caller stopped early
            pass
        prev, prev_radial = layer, radial


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


class HyperWitness(NamedTuple):
    order: int
    alpha: MultiIndex
    value: Fraction


class HyperReport(NamedTuple):
    """Result of scanning d_k >= 0 for 1 <= k <= n over |alpha| <= D.

    ``verdict`` is "violation" or "no-violation-up-to-D" with the concrete
    scan bound substituted; a finite scan can only ever certify the bounded
    part of the hypercontraction condition.
    """

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
        return HyperReport(max_degree, f"no-violation-up-to-{max_degree}", None)
    alpha, row = hit
    k, (p, q) = next((k, e) for k, e in enumerate(row, start=1) if e[0] < 0)
    return HyperReport(max_degree, "violation", HyperWitness(k, alpha, Fraction(p, q)))


class ConditionCheck(NamedTuple):
    """One instance of the first-order necessary bound

        sum_{beta <= alpha, |alpha - beta| = 1} rho(beta)/rho(alpha)
            <= |alpha| / (|alpha| + n - 1),

    which every n-hypercontractive diagonal shift tuple satisfies."""

    alpha: MultiIndex
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
    return ConditionCheck(alpha, moments(W, alpha, 1)[1], Fraction(d, d + n - 1))


class NecessaryScan(NamedTuple):
    """Result of checking the neighbour-sum bound at every
    0 < |alpha| <= max_degree in graded-lex order.

    ``verdict`` is "violated" or "all-hold"; ``checked`` counts the indices
    evaluated, including the witness, at which the scan stops.
    """

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
        return NecessaryScan("all-hold", comb(max_degree + W.m, W.m) - 1, None)
    alpha, row = hit
    d = mi.degree(alpha)
    chk = ConditionCheck(alpha, 1 - Fraction(*row[0]), Fraction(d, d + n - 1))
    return NecessaryScan("violated", mi.graded_lex_rank(alpha), chk)


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

