"""Shared builders for randomized test weights, the hypothesis strategy
``single_entry_tables`` and the scaled weight ``scaled`` that the
metamorphic tests draw from, the ratio bound of each closed-form family by
its own rule (``family_ratio_sup``), the dense numpy references the float
paths are tested against, the column-map matrix model that
``truncate`` is tested against (``build_truncated`` and its operators), the
per-cell similarity scan the tabled one is tested against, the full-table
view ``defect_layers`` of the defect engine, the modulus classes of a grid,
the exact oracles ``defect_diag_radial``, ``subnormality_obstruction``,
``power_map`` and ``m_power_diag``, and the mpmath oracles the
working-precision decimal numerics are checked against: ``to_mp``, the
Wirtinger derivatives ``wirtinger`` of a real metric jet and the
finite-difference stencil ``finite_diff_check``.

The random builders take an explicit random.Random so tests stay
reproducible; no module-level RNG state.  numpy and mpmath are test
dependencies only: the package itself imports neither.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, sqrt
from types import SimpleNamespace
from typing import Iterator, NamedTuple

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from hypershift import (
    ExplicitSequence,
    GeometricSequence,
    MetricJet,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialSequence,
    RadialWeight,
    RayWitness,
    TableWeight,
    curvature_points,
    necessary_condition,
    ray_ratio_sq,
)
from hypershift import multiindex as mi
from hypershift.curvature import EXACT, DecimalComplex, metric_jets, working_context
from hypershift.hypercontraction import _cone_layers
from hypershift.multiindex import MultiIndex
from hypershift.weights import WeightFunction


def random_fraction(rng, lo=1, hi=16) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def random_table_weight(rng, m=2, degree=8) -> TableWeight:
    """Positive rational values on every |alpha| <= degree, no fallback."""
    entries = {
        alpha: random_fraction(rng) for alpha in mi.enumerate_leq_degree(m, degree)
    }
    return TableWeight(m, entries)


def random_radial_sequence(rng, needed_length=32):
    kind = rng.choice(["power", "geometric", "polynomial", "explicit"])
    if kind == "power":
        return PowerSequence(rng.randint(1, 5))
    if kind == "geometric":
        return GeometricSequence(random_fraction(rng, 1, 4))
    if kind == "polynomial":
        coeffs = [random_fraction(rng) for _ in range(rng.randint(1, 3))]
        return PolynomialSequence(coeffs)
    return ExplicitSequence([random_fraction(rng) for _ in range(needed_length)])


def random_weight(rng, m=2, degree=10):
    """A weight usable on all |alpha| <= degree + a few shift steps."""
    kind = rng.choice(["power", "radial", "table"])
    if kind == "power":
        return PowerKernel(rng.randint(1, 5), m)
    if kind == "radial":
        return RadialWeight(m, random_radial_sequence(rng, needed_length=degree + 24))
    return random_table_weight(rng, m=m, degree=degree)


@st.composite
def single_entry_tables(draw, m: int) -> WeightFunction:
    """A power(n) base on m coordinates, n <= 3, with one entry: the base
    value at an index of degree <= 4 times a factor from 1/4 to 2."""
    base = PowerKernel(draw(st.integers(1, 3)), m)
    alpha = draw(st.sampled_from(mi.enumerate_leq_degree(m, 4)))
    factor = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(2)]))
    return TableWeight(m, {alpha: factor * base.rho(alpha)}, base)


class ScaledSequence(RadialSequence):
    """c a(i) for a radial sequence a and a rational c > 0, with a's ratio
    bound and last index."""

    def __init__(self, base: RadialSequence, c: Fraction):
        self.base, self.c = base, c

    def value(self, i: int) -> Fraction:
        return self.c * self.base.value(i)

    def ratio_sup(self, start: int) -> Fraction | None:
        return self.base.ratio_sup(start)

    def max_index(self) -> int | None:
        return self.base.max_index()


def scaled(W: WeightFunction, c: Fraction) -> WeightFunction:
    """The weight c rho: W's sequence and entries, each times c > 0."""
    entries = {alpha: c * v for alpha, v in W.entries.items()}
    return WeightFunction(W.m, ScaledSequence(W.sequence, c), entries, None)


def family_ratio_sup(spec: dict, start: int) -> Fraction | None:
    """The ratio bound of a closed-form sequence by its family's own rule,
    read from its spec: (n+s)/(s+1) for power(n), r for a geometric base,
    and for a polynomial of degree k with nonnegative coefficients
    max(a(1)/a(0), 2^k) at s = 0 and ((s+1)/s)^k from s = 1 on (None with a
    negative coefficient)."""
    if spec["generator"] == "power":
        return Fraction(spec["n"] + start, start + 1)
    if spec["generator"] == "geometric":
        return Fraction(spec["r"])
    coeffs = [Fraction(c) for c in spec["coefficients"]]
    if any(c < 0 for c in coeffs):
        return None
    k = len(coeffs) - 1
    if start == 0:
        return max(sum(coeffs) / coeffs[0], Fraction(2) ** k)
    return Fraction(start + 1, start) ** k


def as_array(H):
    """A CurvatureMatrix as a complex128 numpy array, entry by entry."""
    return np.array([[complex(x) for x in row] for row in H.entries], dtype=complex)


def dense_matrices(tt):
    """float64 numpy matrices of the T_i of a TruncatedTuple: the dense
    reference that the float fields of ``truncate`` are tested against."""
    mats = []
    for f in tt.maps:
        A = np.zeros((tt.dimension, tt.dimension))
        for col, (row, p, q) in f.items():
            A[row, col] = sqrt(p / q)
        mats.append(A)
    return mats


def commutator_float_norm(tt) -> float:
    """max |T_i T_j - T_j T_i| over all pairs and entries, with dense numpy
    products of ``dense_matrices``."""
    mats = dense_matrices(tt)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]))))
    return worst


# ---------------------------------------------------------------------------
# The column-map matrix model: the oracle of ``hypershift.truncation``.
#
# The compression of the adjoint tuple to span{e_alpha : |alpha| <= D} maps
# each basis vector to at most one other, so every T_i is stored as a column
# map  col -> (row, p, q)  whose squared matrix entry is the rational p/q,
# kept as a reduced integer pair.  Operator products are computed by generic
# composition of these maps and T^{*alpha} T^{alpha} by a generic gram
# construction that does not assume diagonality; that the result comes out
# diagonal is a checked output, not an input assumption.  The powers T^beta
# are built one degree layer at a time, T^{beta + e_i} = T_i o T^beta, from
# the previous layer alone.  The weight enters only through ``rho_ratio`` at
# construction; nothing here calls the defect engine or reads the weight's
# ``sequence`` or ``corrections``, which is what makes the model independent
# of the closed forms ``truncate`` reports from (a poisoned ``corrections``
# moves the engine and leaves the model, ``tests/test_truncation.py``).

# col -> (row, p, q): the squared matrix entry is p/q with gcd(p, q) = 1 and
# q > 0; absent columns map to zero.
ColumnMap = dict[int, tuple[int, int, int]]


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


class GramResult(NamedTuple):
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


class TruncatedTuple(NamedTuple):
    """The compression of the adjoint shift tuple to degrees <= max_degree."""

    weight: WeightFunction
    max_degree: int
    basis: tuple[MultiIndex, ...]
    position: dict[MultiIndex, int]
    maps: tuple[ColumnMap, ...]  # one per direction

    @property
    def dimension(self) -> int:
        return len(self.basis)


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


class DefectOperator(NamedTuple):
    """The order-k defect of the truncated tuple, assembled from generic
    gram products: the exact diagonal in basis order plus whatever
    off-diagonal entries the generic path produced (always none for a shift
    tuple, and checked)."""

    order: int
    diagonal: tuple[Fraction, ...]
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


def reference_similarity_scan(W1, W2, base_degree, ray_length, growth_factor=Fraction(2)):
    """The per-cell similarity scan: ``ray_ratio_sq`` at every cell in scan
    order (graded-lex base points, directions, lengths), keeping the first
    extremes.  ``cells`` lists every cell as a RayWitness."""
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
    return SimpleNamespace(
        min_ratio_sq=lo.value,
        max_ratio_sq=hi.value,
        argmin=lo,
        argmax=hi,
        spread=spread,
        spread_half=spread_half,
        verdict="growth-flagged" if flagged else "bounded-in-scan",
        cells=cells,
    )


def defect_layers(W, n: int, max_degree: int):
    """Yield (alpha, row) for every |alpha| <= max_degree in graded-lex
    order, where row[k - 1] = (p, q) is d_k(alpha) = p/q for k = 1..n: the
    engine's cone rows, and its radial row at every index outside the
    cone."""
    for degree, radial, _, rows in _cone_layers(W, n, max_degree):
        cone = dict(rows)
        for alpha in mi.enumerate_exact_degree(W.m, degree):
            yield alpha, cone.get(alpha, radial)


def defect_diag_radial(sequence, k: int, degree: int) -> Fraction:
    """The defect entry of the radial weight rho(alpha) =
    a(|alpha|) |alpha|!/alpha! on degree N, where it depends only on N:

        d_k(N) = (1 / a(N)) sum_{i=0}^{min(k,N)} (-1)^i C(k, i) a(N - i).
    """
    total = Fraction(0)
    for i in range(min(k, degree) + 1):
        term = Fraction(comb(k, i)) * sequence.value(degree - i)
        total += term if i % 2 == 0 else -term
    return total / sequence.value(degree)


def subnormality_obstruction(W, alpha) -> int:
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


def power_map(tt, alpha):
    """T^alpha on the truncated model, composed factor by factor from the
    identity: the reference that ``power_layers`` is tested against."""
    out = {p: (p, 1, 1) for p in range(tt.dimension)}
    for i, a in enumerate(alpha):
        for _ in range(a):
            out = compose(tt.maps[i], out)
    return out


def m_power_diag(tt, k: int) -> tuple:
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


def modulus_class(w, bits=80) -> tuple:
    """The exact s = (|w_1|^2, ..., |w_m|^2) of a point, each s_i summed in
    Fractions and rounded once to the working digits of ``bits``."""
    with localcontext(working_context(bits)):
        return tuple(
            Decimal(q.numerator) / Decimal(q.denominator)
            for q in (Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in w)
        )


def modulus_classes(grid, bits=80) -> set:
    """The distinct modulus classes of a grid at the working precision
    ``bits``."""
    return {modulus_class(w, bits) for w in grid}


def to_mp(x):
    """A working-precision value as mpmath: a Decimal as mpf, a
    DecimalComplex as mpc, and tuples and the fields of a MetricJet
    entrywise, each rounded at the current mpmath precision."""
    if x is None:
        return None
    if isinstance(x, MetricJet):
        return x._replace(**{f: to_mp(getattr(x, f)) for f in x._fields})
    if isinstance(x, tuple):
        return tuple(to_mp(v) for v in x)
    if isinstance(x, DecimalComplex):
        return mp.mpc(to_mp(x.real), to_mp(x.imag))
    if isinstance(x, Decimal):
        return mp.mpf(str(x))
    return mp.mpmathify(x)


def wirtinger(jet, w) -> tuple:
    """(grad, hess) of h at the point w from the real jet of its modulus
    class, in mpmath at the current precision:

        grad_i = F_i conj(w_i),   hess_ij = F_ij conj(w_i) w_j + delta_ij F_i.
    """
    wv = [mp.mpc(to_mp(x)) for x in w]
    ds, dss = to_mp(jet.ds), to_mp(jet.dss)
    grad = tuple(f * mp.conj(x) for f, x in zip(ds, wv))
    hess = tuple(
        tuple(
            dss[i][j] * mp.conj(wv[i]) * wv[j] + (ds[i] if i == j else 0) for j in range(len(wv))
        )
        for i in range(len(wv))
    )
    return grad, hess


def point_jet(W, w, **kwargs):
    """The real metric jet of W at the single point w."""
    ((jet,),) = metric_jets([W], [w], **kwargs)
    return jet


def _displace(w, coord: int, part: str, step: float):
    """w with ``step`` added to the real or imaginary part of one
    coordinate, exactly."""
    out = [DecimalComplex(Decimal(x.real), Decimal(x.imag)) for x in w]
    x = out[coord]
    if part == "re":
        out[coord] = DecimalComplex(EXACT.add(x.real, Decimal(step)), x.imag)
    else:
        out[coord] = DecimalComplex(x.real, EXACT.add(x.imag, Decimal(step)))
    return out


def finite_diff_check(W, w, step=1e-4, max_degree=60, precision_bits=120) -> float:
    """Maximum absolute deviation between the analytic Hessian of log h and
    a second-order central finite-difference stencil at w, in mpmath.

    Writing w_j = x_j + i y_j, the mixed Wirtinger derivative is

        d^2 f / dw_i dconj(w_j)
            = (f_{x_i x_j} + f_{y_i y_j} + i (f_{x_i y_j} - f_{y_i x_j})) / 4,

    each real second derivative taken with the usual central stencils on
    log h of ``metric_jets`` at exactly displaced points.  The deviation is
    O(step^2) plus series truncation error.
    """
    m = W.m

    def f(pt):
        return mp.log(to_mp(point_jet(W, pt, max_degree=max_degree, precision_bits=precision_bits).h))

    with mp.workprec(precision_bits):
        h = mp.mpf(step)
        f0 = f(w)

        def second(ci, pi, cj, pj):
            if (ci, pi) == (cj, pj):
                up = f(_displace(w, ci, pi, step))
                dn = f(_displace(w, ci, pi, -step))
                return (up - 2 * f0 + dn) / (h * h)
            pp = f(_displace(_displace(w, ci, pi, step), cj, pj, step))
            pm = f(_displace(_displace(w, ci, pi, step), cj, pj, -step))
            mp_ = f(_displace(_displace(w, ci, pi, -step), cj, pj, step))
            mm = f(_displace(_displace(w, ci, pi, -step), cj, pj, -step))
            return (pp - pm - mp_ + mm) / (4 * h * h)

        (analytic,) = curvature_points(
            [W], [w], max_degree=max_degree, precision_bits=precision_bits
        )
        worst = mp.mpf(0)
        for i in range(m):
            for j in range(m):
                fd = (
                    second(i, "re", j, "re")
                    + second(i, "im", j, "im")
                    + mp.mpc(0, 1) * (second(i, "re", j, "im") - second(i, "im", j, "re"))
                ) / 4
                dev = abs(fd - to_mp(analytic.hessian.entries[i][j]))
                if dev > worst:
                    worst = dev
        return float(worst)
