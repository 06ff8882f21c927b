"""Multi-index arithmetic and the combinatorial identities the rest of the
package leans on.

A multi-index is a plain tuple of nonnegative ints.  Everything here is exact
integer arithmetic; no floats enter at any point.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
import operator
from typing import Iterator

from .errors import DimensionMismatch

MultiIndex = tuple[int, ...]


def validate(alpha: tuple[int, ...]) -> MultiIndex:
    """Check that alpha is a nonempty tuple of nonnegative ints."""
    alpha = tuple(alpha)
    if len(alpha) == 0:
        raise ValueError("multi-index must have at least one coordinate")
    for x in alpha:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise ValueError(f"multi-index entries must be nonnegative ints, got {alpha!r}")
    return alpha


def degree(alpha: MultiIndex) -> int:
    """|alpha| = sum of the coordinates."""
    return sum(alpha)


def _check_dims(alpha: MultiIndex, beta: MultiIndex) -> None:
    if len(alpha) != len(beta):
        raise DimensionMismatch(f"multi-indices have lengths {len(alpha)} and {len(beta)}")


def leq(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """Componentwise alpha <= beta."""
    _check_dims(alpha, beta)
    return all(a <= b for a, b in zip(alpha, beta))


def add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    _check_dims(alpha, beta)
    return tuple(a + b for a, b in zip(alpha, beta))


def sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """alpha - beta; requires beta <= alpha."""
    _check_dims(alpha, beta)
    if not all(b <= a for a, b in zip(alpha, beta)):
        raise ValueError(f"{beta!r} is not dominated by {alpha!r}")
    return tuple(a - b for a, b in zip(alpha, beta))


def unit(m: int, i: int) -> MultiIndex:
    """The i-th coordinate multi-index e_i in dimension m (0-based i)."""
    if not 0 <= i < m:
        raise ValueError(f"direction {i} out of range for dimension {m}")
    return tuple(1 if j == i else 0 for j in range(m))


def scale(alpha: MultiIndex, c: int) -> MultiIndex:
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    return tuple(c * a for a in alpha)


def _compositions(d: int, m: int) -> Iterator[MultiIndex]:
    """All alpha with |alpha| = d in ascending lexicographic order, without
    recursion: the m - 1 cuts 0 <= x_1 <= ... <= x_{m-1} <= d give
    alpha_i = x_{i+1} - x_i (x_0 = 0, x_m = d), and the cuts come in lex
    order exactly when the compositions do."""
    end = (d,)
    for cuts in combinations_with_replacement(range(d + 1), m - 1):
        yield tuple(map(operator.sub, cuts + end, (0,) + cuts))


def enumerate_exact_degree(m: int, d: int) -> list[MultiIndex]:
    """All multi-indices of dimension m with |alpha| = d, lexicographic."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if d < 0:
        raise ValueError("degree must be >= 0")
    return list(_compositions(d, m))


def enumerate_leq_degree(m: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| <= max_degree in graded lexicographic
    order: ascending by degree, lexicographic within a degree."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[MultiIndex] = []
    for d in range(max_degree + 1):
        out.extend(_compositions(d, m))
    return out


def graded_lex_rank(alpha: MultiIndex) -> int:
    """The position of alpha in ``enumerate_leq_degree(len(alpha), |alpha|)``,
    counted from 0, without enumerating: the C(N - 1 + m, m) indices of lower
    degree plus, coordinate by coordinate, the compositions of the rest that
    start with a smaller entry (a hockey-stick sum of binomials)."""
    alpha = validate(alpha)
    m = len(alpha)
    rest = degree(alpha)
    rank = comb(rest - 1 + m, m)
    for i, a in enumerate(alpha[:-1]):
        tail = m - 1 - i
        rank += comb(rest + tail, tail) - comb(rest - a + tail, tail)
        rest -= a
    return rank


def dominated_by(alpha: MultiIndex, max_degree: int | None = None) -> Iterator[MultiIndex]:
    """All beta <= alpha, optionally restricted to |beta| <= max_degree.

    Order is ascending lexicographic, by an odometer that carries out of a
    coordinate once it reaches alpha_i or the degree budget; callers that
    sum exact terms do not depend on the order.
    """
    bound = degree(alpha) if max_degree is None else max_degree
    if bound < 0:
        return
    beta = [0] * len(alpha)
    total = 0  # |beta|
    while True:
        yield tuple(beta)
        i = len(beta) - 1
        while i >= 0 and (beta[i] == alpha[i] or total >= bound):
            total -= beta[i]
            beta[i] = 0
            i -= 1
        if i < 0:
            return
        beta[i] += 1
        total += 1


def multinomial(k: int, alpha: MultiIndex) -> int:
    """k! / (alpha! * (k - |alpha|)!); requires |alpha| <= k.  A product of
    binomials: choose alpha_1 of the k places, then alpha_2 of the k - alpha_1
    left, and so on."""
    d = degree(alpha)
    if d > k:
        raise ValueError(f"multinomial undefined: |alpha| = {d} exceeds k = {k}")
    out = 1
    for x in alpha:
        out *= comb(k, x)
        k -= x
    return out


def verify_vandermonde(beta: MultiIndex, i: int) -> bool:
    """Check the multi-variate Vandermonde convolution

        sum_{alpha <= beta, |alpha| = i}  beta! / (alpha! (beta-alpha)!)
            = binomial(|beta|, i).

    Returns True when the identity holds (it always should; the point is an
    executable certificate).
    """
    if not 0 <= i <= degree(beta):
        raise ValueError(f"layer {i} out of range 0..{degree(beta)}")
    total = 0
    for alpha in dominated_by(beta, i):
        if degree(alpha) == i:
            term = 1
            for b, a in zip(beta, alpha):
                term *= comb(b, a)
            total += term
    return total == comb(degree(beta), i)


def verify_negative_binomial_convolution(n: int, j: int) -> bool:
    """Check that the degree-j coefficient of (1-x)^n * (1-x)^-(n-1) vanishes
    for j >= 2, in both its plain and index-weighted forms:

        sum_i (-1)^i C(n-2+i, i) C(n, j-i)     = 0
        sum_i (-1)^i C(n-2+i, i) C(n, j-i) * i = 0

    where i runs over max(0, j-n) .. j.  Requires n >= 2 and j >= 2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if j < 2:
        raise ValueError("j must be >= 2")
    plain = 0
    weighted = 0
    for i in range(max(0, j - n), j + 1):
        term = (-1) ** i * comb(n - 2 + i, i) * comb(n, j - i)
        plain += term
        weighted += term * i
    return plain == 0 and weighted == 0


def verify_alternating_sum(n: int, stop: int) -> bool:
    """Check the truncated alternating binomial sum

        sum_{i=0}^{stop} (-1)^i C(n, i) = (-1)^stop C(n-1, stop)

    for 0 <= stop <= n, n >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= stop <= n:
        raise ValueError(f"stop must lie in 0..{n}")
    total = sum((-1) ** i * comb(n, i) for i in range(stop + 1))
    return total == (-1) ** stop * comb(n - 1, stop)
