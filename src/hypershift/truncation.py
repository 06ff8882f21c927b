"""Finite matrix models of diagonal shift tuples, used as an independent
oracle for the closed-form defect diagonals.

The compression of the adjoint tuple to span{e_alpha : |alpha| <= D} maps
each basis vector to at most one other, so every T_i is stored as a column
map  col -> (row, p, q)  whose squared matrix entry is the rational p/q, kept
as a reduced integer pair.  Operator products are computed by generic
composition of these maps and T^{*alpha} T^{alpha} by a generic gram
construction that does not assume diagonality; that the result comes out
diagonal is a checked output, not an input assumption.  Every product or sum
of pairs takes one gcd, and entries become ``Fraction``s only in the public
results: defect and power diagonals, decay curves and the commutator defect.

The powers T^beta are built one degree layer at a time,
T^{beta + e_i} = T_i o T^beta, from the previous layer alone, and only that
layer is kept, so an order-k defect or a decay curve to k_max costs one
composition per monomial.  The weight enters only through ``rho_ratio`` at
construction; nothing here calls the defect engine or
``metric_decomposition``, which is what makes the model an independent
oracle.

A float64 path cross-checks the exact one on float column maps
col -> (row, x), where x = sqrt(p/q) is the real matrix entry.  Every column
of a product of such maps has a single nonzero term, so multiplying the
entries in the order of the dense products (each power from its first
factor) gives bit for bit the float64 matrices that numpy would form; the
tests keep the dense matrices as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, sqrt
from typing import Iterator

from . import multiindex as mi
from .multiindex import MultiIndex
from .weights import WeightFunction

# col -> (row, p, q): the squared matrix entry is p/q with gcd(p, q) = 1 and
# q > 0; absent columns map to zero.
ColumnMap = dict[int, tuple[int, int, int]]
# col -> (row, x): the float64 matrix entry x = sqrt(p/q) of a ColumnMap.
FloatColumnMap = dict[int, tuple[int, float]]


def compose(f: ColumnMap, g: ColumnMap) -> ColumnMap:
    """The map f o g (apply g first)."""
    out: ColumnMap = {}
    for col, (row_g, p_g, q_g) in g.items():
        hit = f.get(row_g)
        if hit is not None:
            row_f, p_f, q_f = hit
            p = p_f * p_g
            q = q_f * q_g
            r = gcd(p, q)
            out[col] = (row_f, p // r, q // r)
    return out


@dataclass(frozen=True)
class GramResult:
    """f* f computed entry by entry: exact diagonal as reduced pairs
    col -> (p, q), plus any off-diagonal float entries that appeared (none
    do for monomial maps, and tests pin that down)."""

    diagonal: dict[int, tuple[int, int]]
    off_diagonal: dict[tuple[int, int], float]


def gram(f: ColumnMap) -> GramResult:
    """Compute f* f without assuming structure: entry (c1, c2) sums
    conj(f[r, c1]) f[r, c2] over rows r, i.e. columns of f sharing a row."""
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for col, (row, p, q) in f.items():
        by_row.setdefault(row, []).append((col, p, q))
    diagonal: dict[int, tuple[int, int]] = {}
    off: dict[tuple[int, int], float] = {}
    for cols in by_row.values():
        for c1, p1, q1 in cols:
            diagonal[c1] = (p1, q1)
            for c2, p2, q2 in cols:
                if c2 != c1:
                    off[(c1, c2)] = sqrt(p1 * p2 / (q1 * q2))
    return GramResult(diagonal=diagonal, off_diagonal=off)


def _add(a: int, b: int, c: int, p: int, q: int) -> tuple[int, int]:
    """a/b + c p/q as a reduced pair."""
    x = a * q + c * p * b
    y = b * q
    r = gcd(x, y)
    return x // r, y // r


def _accumulate(num: list[int], den: list[int], diagonal: dict[int, tuple[int, int]], c: int) -> None:
    """num/den += c * diagonal, column by column."""
    for col, (p, q) in diagonal.items():
        num[col], den[col] = _add(num[col], den[col], c, p, q)


def _monomial_gram(f: ColumnMap) -> dict[int, tuple[int, int]]:
    """The diagonal of gram(f), refusing any off-diagonal entry."""
    g = gram(f)
    if g.off_diagonal:
        raise RuntimeError("monomial gram produced off-diagonal entries")
    return g.diagonal


@dataclass(frozen=True)
class TruncatedTuple:
    """The compression of the adjoint shift tuple to degrees <= max_degree."""

    weight: WeightFunction
    max_degree: int
    basis: tuple[MultiIndex, ...]
    position: dict[MultiIndex, int]
    maps: tuple[ColumnMap, ...]  # one per direction

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def power_map(self, alpha: MultiIndex) -> ColumnMap:
        """T^alpha composed factor by factor from the identity."""
        if len(alpha) != self.weight.m:
            raise ValueError("multi-index dimension mismatch")
        out: ColumnMap = {p: (p, 1, 1) for p in range(self.dimension)}
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = compose(self.maps[i], out)
        return out


def build_truncated(W: WeightFunction, max_degree: int) -> TruncatedTuple:
    """Build the truncated adjoint tuple; T_i e_alpha =
    sqrt(rho(alpha - e_i)/rho(alpha)) e_{alpha - e_i}, zero on alpha_i = 0.

    Construction verifies that all pairwise commutators vanish exactly in
    the column-map representation.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    basis = tuple(mi.enumerate_leq_degree(W.m, max_degree))
    position = {alpha: p for p, alpha in enumerate(basis)}
    maps: list[ColumnMap] = []
    for i in range(W.m):
        e = mi.unit(W.m, i)
        f: ColumnMap = {}
        for col, alpha in enumerate(basis):
            a_i = alpha[i]
            if a_i == 0:
                continue
            lower = alpha[:i] + (a_i - 1,) + alpha[i + 1 :]
            w = W.rho_ratio(alpha, e)
            f[col] = (position[lower], w.numerator, w.denominator)
        maps.append(f)
    tt = TruncatedTuple(
        weight=W,
        max_degree=max_degree,
        basis=basis,
        position=position,
        maps=tuple(maps),
    )
    worst = commutator_defect(tt)
    if worst != 0:
        raise RuntimeError(f"truncated tuple fails to commute: defect {worst}")
    return tt


def power_layers(tt: TruncatedTuple, k_max: int) -> Iterator[dict[MultiIndex, ColumnMap]]:
    """Yield, for d = 0..k_max, the layer {beta: T^beta : |beta| = d} with
    its betas in lexicographic order.

    Layer 0 is the identity and layer 1 the T_i; every later T^beta is
    T_i o T^{beta - e_i} for the first nonzero coordinate i of beta, read
    from the previous layer, which is then dropped.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m = tt.weight.m
    layer: dict[MultiIndex, ColumnMap] = {(0,) * m: {p: (p, 1, 1) for p in range(tt.dimension)}}
    yield layer
    for d in range(1, k_max + 1):
        nxt: dict[MultiIndex, ColumnMap] = {}
        for beta in mi.enumerate_exact_degree(m, d):
            i = next(j for j, b in enumerate(beta) if b)
            if d == 1:
                nxt[beta] = tt.maps[i]
            else:
                prev = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
                nxt[beta] = compose(tt.maps[i], layer[prev])
        layer = nxt
        yield layer


def commutator_defect(tt: TruncatedTuple) -> Fraction:
    """Largest squared-entry discrepancy between T_i T_j and T_j T_i over
    all pairs; exactly zero for any diagonal weight."""
    worst_p, worst_q = 0, 1
    for i in range(tt.weight.m):
        for j in range(i + 1, tt.weight.m):
            ab = compose(tt.maps[i], tt.maps[j])
            ba = compose(tt.maps[j], tt.maps[i])
            for col in set(ab) | set(ba):
                x = ab.get(col)
                y = ba.get(col)
                if x == y:
                    continue
                if x is None or y is None or x[0] != y[0]:
                    # A structural mismatch counts as the full entry.
                    _, p, q = x or y
                else:
                    p, q = abs(x[1] * y[2] - y[1] * x[2]), x[2] * y[2]
                if p * worst_q > worst_p * q:
                    worst_p, worst_q = p, q
    return Fraction(worst_p, worst_q)


def _float_maps(tt: TruncatedTuple) -> list[FloatColumnMap]:
    """The T_i as float column maps, x = sqrt(p/q) at (row, col)."""
    return [{col: (row, sqrt(p / q)) for col, (row, p, q) in f.items()} for f in tt.maps]


def _compose_float(f: FloatColumnMap, g: FloatColumnMap) -> FloatColumnMap:
    """The float map f o g (apply g first)."""
    out: FloatColumnMap = {}
    for col, (row_g, x_g) in g.items():
        hit = f.get(row_g)
        if hit is not None:
            out[col] = (hit[0], hit[1] * x_g)
    return out


def commutator_float_norm(tt: TruncatedTuple) -> float:
    """Max-entry norm of the float64 commutators T_i T_j - T_j T_i."""
    maps = _float_maps(tt)
    worst = 0.0
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            ab = _compose_float(maps[i], maps[j])
            ba = _compose_float(maps[j], maps[i])
            for col in ab.keys() | ba.keys():
                x = ab.get(col)
                y = ba.get(col)
                if x is not None and y is not None and x[0] == y[0]:
                    worst = max(worst, abs(x[1] - y[1]))
                else:
                    # Column col of the difference holds both entries apart.
                    for hit in (x, y):
                        if hit is not None:
                            worst = max(worst, abs(hit[1]))
    return worst


@dataclass(frozen=True)
class DefectOperator:
    """The order-k defect of the truncated tuple, assembled from generic
    gram products: the diagonal in basis order plus whatever off-diagonal
    entries the generic path produced (always none for a shift tuple, and
    checked).  The diagonal is exact on the ``defect_operator`` path and
    float64 on the ``defect_operator_dense`` path."""

    order: int
    diagonal: tuple[Fraction, ...] | tuple[float, ...]
    off_diagonal: dict[tuple[int, int], float]


def defect_operator(tt: TruncatedTuple, k: int) -> DefectOperator:
    """sum_{|beta| <= k} (-1)^|beta| (k choose beta) T^{*beta} T^{beta},
    computed through composed column maps rather than weight ratios.

    This is the oracle path: per-step squared weights are multiplied along
    rays by compose(), so agreement with the closed-form defect diagonal is
    a real telescoping check.
    """
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    num = [0] * tt.dimension
    den = [1] * tt.dimension
    off: dict[tuple[int, int], float] = {}
    for d, layer in enumerate(power_layers(tt, k)):
        for beta, f in layer.items():
            c = mi.multinomial(k, beta)
            if d % 2 == 1:
                c = -c
            g = gram(f)
            _accumulate(num, den, g.diagonal, c)
            for key, v in g.off_diagonal.items():
                off[key] = off.get(key, 0.0) + float(c) * v
    diagonal = tuple(Fraction(p, q) for p, q in zip(num, den))
    return DefectOperator(order=k, diagonal=diagonal, off_diagonal=off)


def defect_operator_dense(tt: TruncatedTuple, k: int) -> DefectOperator:
    """The same operator on the float64 path, entry for entry the dense
    numpy sum: each T^beta multiplied out from its first factor, its gram
    formed generically and scaled, and the terms added to the identity in
    ``enumerate_leq_degree`` order.  Off-diagonal entries that no gram
    reaches are 0 and are not stored."""
    if k < 0:
        raise ValueError("defect order k must be >= 0")
    maps = _float_maps(tt)
    diag = [1.0] * tt.dimension  # the beta = 0 term
    off: dict[tuple[int, int], float] = {}
    for beta in mi.enumerate_leq_degree(tt.weight.m, k)[1:]:
        c = (-1.0 if mi.degree(beta) % 2 else 1.0) * mi.multinomial(k, beta)
        M = None
        for i, b in enumerate(beta):
            for _ in range(b):
                M = maps[i] if M is None else _compose_float(maps[i], M)
        by_row: dict[int, list[tuple[int, float]]] = {}
        for col, (row, x) in M.items():
            by_row.setdefault(row, []).append((col, x))
        for cols in by_row.values():
            for c1, x1 in cols:
                diag[c1] += x1 * x1 * c
                for c2, x2 in cols:
                    if c2 != c1:
                        off[(c1, c2)] = off.get((c1, c2), 0.0) + x1 * x2 * c
    return DefectOperator(order=k, diagonal=tuple(diag), off_diagonal=off)


def m_power_diag(tt: TruncatedTuple, k: int) -> tuple[Fraction, ...]:
    """Diagonal of M_T^k(I) = sum_{|beta| = k} (k!/beta!) T^{*beta} T^{beta}
    on the truncated model, exact, in basis order."""
    if k < 0:
        raise ValueError("power k must be >= 0")
    for layer in power_layers(tt, k):
        pass  # walk to layer k; each earlier layer is dropped on the way
    num = [0] * tt.dimension
    den = [1] * tt.dimension
    for beta, f in layer.items():
        _accumulate(num, den, _monomial_gram(f), mi.multinomial(k, beta))
    return tuple(Fraction(p, q) for p, q in zip(num, den))


def decay_curve(tt: TruncatedTuple, alpha: MultiIndex, k_max: int) -> list[Fraction]:
    """[M_T^k(I)]_{alpha,alpha} for k = 0..k_max, from one walk over the
    power layers; reaches exactly 0 once k exceeds |alpha| because every
    monomial T^beta then annihilates e_alpha."""
    alpha = tuple(alpha)
    pos = tt.position.get(alpha)
    if pos is None:
        raise ValueError(f"{alpha!r} is outside the truncation")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    curve = []
    for k, layer in enumerate(power_layers(tt, k_max)):
        a, b = 0, 1
        for beta, f in layer.items():
            w = _monomial_gram(f).get(pos)
            if w is not None:
                a, b = _add(a, b, mi.multinomial(k, beta), *w)
        curve.append(Fraction(a, b))
    return curve
