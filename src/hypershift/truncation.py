"""The shift tuple compressed to span{e_alpha : |alpha| <= D}, as ``truncate``
reports it.

The adjoint tuple maps e_alpha to sqrt(s_i(alpha)) e_{alpha - e_i}, with the
unit steps s_i(alpha) = rho(alpha - e_i)/rho(alpha) read from ``rho_ratio``,
and to 0 on alpha_i = 0.  So every T^beta sends distinct basis vectors to
distinct ones, every T^{*beta} T^beta is diagonal, and each reported field
has a direct form:

- the commutator T_i T_j - T_j T_i at e_alpha compares
  s_i(alpha - e_j) s_j(alpha) with s_j(alpha - e_i) s_i(alpha), exactly and
  in float64;
- the order-k defect (I - M_T)^k (I) has the entries d_k(alpha) that the
  defect engine of ``hypercontraction`` computes layer by layer;
- the decay entry [M_T^k(I)]_{alpha,alpha} is ``hypercontraction.moments``,
  sum_{beta <= alpha, |beta| = k} (k choose beta) rho(alpha - beta)/rho(alpha).

The float64 fields repeat the dense matrix products entry by entry: the
entry x_beta(alpha) of T^beta at e_alpha is the product of the float steps
sqrt(p/q), multiplied out from its first factor with coordinate 0's steps
first and each new factor on the left, and the defect adds
(x_beta(alpha)^2) c_beta to 1.0 over beta in ``enumerate_leq_degree``
order.  Every column of such a product has a single nonzero term, so these
are bit for bit the float64 values of the dense numpy matrices; the tests
keep those matrices as their reference, and the column-map matrix model as
the oracle of the exact fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

from . import multiindex as mi
from .hypercontraction import _cone_layers, moments
from .multiindex import MultiIndex
from .weights import WeightFunction


def _lower(alpha: MultiIndex, i: int) -> MultiIndex:
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]


class Truncation:
    """The compression of the tuple of W to degrees <= ``degree``, built
    from its unit steps.

    ``steps[alpha][i]`` is None on alpha_i = 0 and otherwise (p, q, x):
    s_i(alpha) = p/q as a reduced integer pair and x = sqrt(p / q).
    Construction checks that the commutators vanish exactly, raising
    RuntimeError otherwise; ``commutator_exact`` and ``commutator_float``
    are their largest entries.
    """

    __slots__ = ("weight", "degree", "dimension", "steps", "commutator_exact", "commutator_float")

    def __init__(self, W: WeightFunction, degree: int):
        if degree < 0:
            raise ValueError("max_degree must be >= 0")
        steps = {alpha: [None] * W.m for alpha in mi.enumerate_leq_degree(W.m, degree)}
        # One direction at a time, so a weight that cannot give some step
        # fails at the same index as the column-map model.
        for i in range(W.m):
            e = mi.unit(W.m, i)
            for alpha, row in steps.items():
                if alpha[i]:
                    s = W.rho_ratio(alpha, e)
                    p, q = s.numerator, s.denominator
                    row[i] = (p, q, sqrt(p / q))
        self.weight, self.degree, self.steps = W, degree, steps
        self.dimension = len(steps)

        # T_i T_j e_alpha and T_j T_i e_alpha, both nonzero only where
        # alpha_i, alpha_j > 0; the float products multiply the left factor
        # first, as the matrix products do.
        worst_p, worst_q, worst_x = 0, 1, 0.0
        for alpha, row in steps.items():
            for j in range(W.m):
                if row[j] is None:
                    continue
                pj, qj, xj = row[j]
                below_j = steps[_lower(alpha, j)]
                for i in range(j):
                    if row[i] is None:
                        continue
                    pi, qi, xi = row[i]
                    pij, qij, xij = below_j[i]  # s_i(alpha - e_j)
                    pji, qji, xji = steps[_lower(alpha, i)][j]  # s_j(alpha - e_i)
                    a, b = pij * pj, qij * qj
                    c, d = pji * pi, qji * qi
                    p, q = abs(a * d - c * b), b * d
                    if p * worst_q > worst_p * q:
                        worst_p, worst_q = p, q
                    worst_x = max(worst_x, abs(xij * xj - xji * xi))
        self.commutator_exact = Fraction(worst_p, worst_q)
        self.commutator_float = worst_x
        if worst_p:
            raise RuntimeError(f"truncated tuple fails to commute: defect {self.commutator_exact}")

    def _defect_entries(self, k: int):
        """Yield (alpha, (p, q)) with d_k(alpha) = p/q for every basis
        index in graded-lex order: the engine's cone row where alpha has
        one, else its layer's radial row."""
        if k == 0:
            for alpha in self.steps:
                yield alpha, (1, 1)
            return
        for degree, radial, _, rows in _cone_layers(self.weight, k, self.degree):
            cone = dict(rows)
            for alpha in mi.enumerate_exact_degree(self.weight.m, degree):
                yield alpha, cone.get(alpha, radial)[k - 1]

    def defect(self, k: int) -> dict:
        """The ``defect`` block: the extremes of d_k over the basis, the
        off-diagonal entry count (0: the operator is diagonal), and the
        largest gap between the float64 defect and the exact one."""
        if k < 0:
            raise ValueError("defect order k must be >= 0")
        zero = (0,) * self.weight.m
        # (beta, last nonzero coordinate j, beta - e_j, signed coefficient)
        terms = []
        for beta in mi.enumerate_leq_degree(self.weight.m, k)[1:]:
            j = max(i for i, b in enumerate(beta) if b)
            sign = -1.0 if mi.degree(beta) % 2 else 1.0
            terms.append((beta, j, _lower(beta, j), sign * mi.multinomial(k, beta)))
        lo = hi = None
        deviation = 0.0
        for alpha, (p, q) in self._defect_entries(k):
            if lo is None or p * lo[1] < lo[0] * q:
                lo = (p, q)
            if hi is None or p * hi[1] > hi[0] * q:
                hi = (p, q)
            # x_beta(alpha) = x_j(alpha - beta + e_j) x_{beta - e_j}(alpha),
            # kept as beta -> (alpha - beta, x_beta(alpha)) for beta <= alpha
            x = {zero: (alpha, 1.0)}
            dense = 1.0
            for beta, j, prev, c in terms:
                parent = x.get(prev)
                if parent is not None and parent[0][j]:
                    at, xp = parent
                    xb = self.steps[at][j][2] * xp
                    x[beta] = (_lower(at, j), xb)
                    dense += xb * xb * c
            deviation = max(deviation, abs(dense - p / q))
        return {
            "order": k,
            "min": Fraction(*lo),
            "max": Fraction(*hi),
            "off_diagonal_entries": 0,
            "float_deviation": deviation,
        }

    def decay(self, alpha: MultiIndex, k_max: int) -> list[Fraction]:
        """[M_T^k(I)]_{alpha,alpha} for k = 0..k_max, from
        ``hypercontraction.moments``; exactly 0 once k exceeds |alpha|."""
        alpha = tuple(alpha)
        if alpha not in self.steps:
            raise ValueError(f"{alpha!r} is outside the truncation")
        if k_max < 0:
            raise ValueError("k_max must be >= 0")
        return moments(self.weight, alpha, k_max)
