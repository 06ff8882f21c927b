"""Curvature-style diagnostics for diagonal metrics on the unit ball.

The central object is the mixed Wirtinger Hessian of log h.  A diagonal
metric is h(w) = F(s) with s_i = |w_i|^2, so with L = log F

    H_ij(w) = d^2 log h / dw_i dconj(w_j) = L_ij(s) conj(w_i) w_j + delta_ij L_i(s),

computed from the real jets of F that ``metric_jets`` evaluates.  This
module is where the metric is rounded: ``weights`` holds only the exact
facts it reads (sequence values, ratio bounds, the radial base and its
exact corrections), and ``metric_jets`` sums the radial base series,
truncated at ``max_degree`` with geometric tail bounds, plus every
correction in full, at a working precision of p bits.  Points of
one modulus class s share the jet, L, psi and the spectrum, which are
computed once per class; H itself is formed per point and is exactly
Hermitian.  A grid call gives, bit for bit, the values of per-point calls.
The curvature form of the associated Hermitian line bundle is -H; sign
conventions are kept explicit at the call sites rather than baked in.  For
two metrics, psi = log(h1/h2) is plurisubharmonic iff H(h1) - H(h2) is
positive semidefinite, which is what the grid reports check with
``psd_check``.  ``curvature_points`` is the one place these matrices are
built, for one metric or for a pair.

Every series, jet, Hessian and spectrum is computed in one ``decimal``
context (``working_context``) of P significant digits, the fewest whose
unit roundoff 5 10^-P is at most the binary 2^-p, with the widest exponent
range (exact corrections reach 1e-807) and the default traps.  Python's
``decimal`` is libmpdec, in C, so these numerics need no third-party
package.  Complex values are ``DecimalComplex`` pairs; the products
conj(x) y of two exact inputs (grid coordinates) and the squared moduli
|x|^2 are formed exactly and rounded once, as a binary multiprecision
complex product is.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, cos, isfinite, isinf, log10, pi, sin
from typing import NamedTuple

from . import multiindex as mi
from .errors import BallDomainError, DimensionMismatch, SequenceExhausted, TailUnreliableError
from .weights import RadialSequence, WeightFunction

# ---------------------------------------------------------------------------
# Working precision

# Products and sums of exact operands, never rounded.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
ZERO = Decimal(0)
HALF = Decimal("0.5")


@lru_cache(maxsize=None)
def working_context(precision_bits: int) -> Context:
    """The context of the fewest digits P with unit roundoff 5 10^-P <= 2^-p
    for p = precision_bits, that is 10^P >= 5 2^p (at least one digit, so a
    bad p is refused where it is checked)."""
    p = max(0, precision_bits)
    bound = 5 << p
    digits = max(1, ceil(p * log10(2) + log10(5)))
    # The float estimate can be off by one either way; settle it exactly.
    while digits > 1 and 10 ** (digits - 1) >= bound:
        digits -= 1
    while 10**digits < bound:
        digits += 1
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def to_float(x) -> float:
    """x rounded to the nearest float, a zero written as 0.0, never -0.0.
    A finite x past float64 range raises OverflowError, as ``float`` of a
    Fraction does, where ``float`` of a Decimal would give an infinity."""
    f = float(x) + 0.0
    if isinf(f):
        raise OverflowError(f"{x:.6e} is past float64 range")
    return f


def to_decimal(x: Fraction) -> Decimal:
    """The exact rational x rounded once in the current context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def parts(z) -> tuple[Decimal, Decimal]:
    """The exact real and imaginary parts of a number (int, float, complex,
    Decimal or DecimalComplex)."""
    return Decimal(z.real), Decimal(z.imag)


def abs_sq(x: tuple[Decimal, Decimal]) -> Decimal:
    """|x|^2 of exact parts, rounded once in the current context."""
    a, b = x
    return EXACT.multiply(a, a) + EXACT.multiply(b, b)


def conj_mul(x: tuple[Decimal, Decimal], y: tuple[Decimal, Decimal]) -> DecimalComplex:
    """conj(x) y of exact parts, each part rounded once in the current
    context."""
    (a, b), (c, d) = x, y
    mul = EXACT.multiply
    return DecimalComplex(mul(a, c) + mul(b, d), mul(a, d) - mul(b, c))


class DecimalComplex:
    """A complex number held as two Decimals.  ``complex()`` rounds each
    part to the nearest float and writes a zero as 0.0, never -0.0.
    Arithmetic is written out where it is needed, so each rounding shows."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Decimal, imag: Decimal = ZERO):
        self.real = real
        self.imag = imag

    def conjugate(self) -> DecimalComplex:
        return DecimalComplex(self.real, self.imag.copy_negate())

    def scaled(self, c: Decimal) -> DecimalComplex:
        """c times self for a real c, each part rounded once."""
        return DecimalComplex(c * self.real, c * self.imag)

    def __complex__(self) -> complex:
        return complex(to_float(self.real), to_float(self.imag))

    def __eq__(self, other) -> bool:
        """Equal to any number with equal real and imaginary parts."""
        try:
            return self.real == other.real and self.imag == other.imag
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        # The hash of an equal int, float, Decimal or complex.
        return hash(complex(self)) if self.imag else hash(self.real)

    def __repr__(self) -> str:
        return f"DecimalComplex({self.real!r}, {self.imag!r})"


# ---------------------------------------------------------------------------
# Spectra

# Cyclic Jacobi sweeps before a spectrum is refused; at 80 bits an m = 4
# class matrix settles in under ten.
_MAX_SWEEPS = 60


class CurvatureMatrix(NamedTuple):
    """The mixed Hessian of log h (or of a difference of two logs) at a
    point: ``entries``, m x m nested tuples of DecimalComplex at the working
    precision, and their eigenvalues ``spectrum`` as Decimals, ascending:
    those of the real class matrix M that it is unitarily similar to."""

    entries: tuple
    spectrum: tuple


def _spectrum(M: list) -> tuple:
    """Ascending eigenvalues of the real symmetric matrix M (rows of
    Decimals, which ``_jacobi`` overwrites) in the current context.

    For m = 2 the closed form: with mu = (a + d)/2 and
    r = sqrt(((a - d)/2)^2 + b^2), the eigenvalue far from 0 is mu + r
    taken with the sign of mu, and the near one is det/far with det formed
    exactly, which avoids the cancellation in mu - r.  Other sizes go
    through ``_jacobi``.
    """
    if len(M) != 2:
        return _jacobi(M)
    mul, add, sub = EXACT.multiply, EXACT.add, EXACT.subtract
    (a, b), (_, d) = M
    mu = +mul(add(a, d), HALF)
    u = mul(sub(a, d), HALF)
    r = add(mul(u, u), mul(b, b)).sqrt()
    far = mu + r if mu >= 0 else mu - r
    if not far:
        return (far, far)
    near = sub(mul(a, d), mul(b, b)) / far
    return (near, far) if near <= far else (far, near)


def _jacobi(A: list) -> tuple:
    """Ascending eigenvalues of the real symmetric matrix A (rows of
    Decimals, overwritten) by cyclic Jacobi rotations in the current
    context.  An off-diagonal entry below a hundredth of an ulp of both its
    diagonal entries is set to zero; the sweeps end when one makes no
    rotation.  Raises RuntimeError if that takes more than ``_MAX_SWEEPS``.
    """
    n = len(A)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p][q]
                if not apq:
                    continue
                app, aqq = A[p][p], A[q][q]
                g = 100 * abs(apq)
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    A[p][q] = A[q][p] = ZERO
                    continue
                rotated = True
                theta = (aqq - app) / (2 * apq)
                t = 1 / (abs(theta) + (theta * theta + 1).sqrt())
                if theta < 0:
                    t = -t
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                tau = s / (1 + c)
                A[p][p] = app - t * apq
                A[q][q] = aqq + t * apq
                A[p][q] = A[q][p] = ZERO
                for r in range(n):
                    if r != p and r != q:
                        arp, arq = A[r][p], A[r][q]
                        A[r][p] = A[p][r] = arp - s * (arq + tau * arp)
                        A[r][q] = A[q][r] = arq + s * (arp - tau * arq)
        if not rotated:
            return tuple(sorted(A[i][i] for i in range(n)))
    raise RuntimeError(f"Jacobi eigenvalue iteration did not settle in {_MAX_SWEEPS} sweeps")


class PshPoint(NamedTuple):
    """psi and its mixed Hessian at the grid point w; the eigenvalues are
    rounded from the Hessian's spectrum on each read."""

    w: tuple
    psi: float
    hessian: CurvatureMatrix

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return eigenvalues(self.hessian)

    @property
    def min_eig(self) -> float:
        return self.eigenvalues[0]


# ---------------------------------------------------------------------------
# Diagonal metric jets


class MetricJet(NamedTuple):
    """The diagonal metric as a real jet in s = (|w_1|^2, ..., |w_m|^2).

    h(w) = sum_alpha rho(alpha) |w^alpha|^2 = F(s) depends on w only through
    s, so one jet serves every point of the modulus class ``s``: ``h`` = F,
    ``ds`` = (dF/ds_i) and ``dss`` = (d^2F/ds_i ds_j), a symmetric m x m
    nested tuple, all Decimals at the working precision.  The tails bound
    what the truncated radial base series leaves out of F, of each dF/ds_i
    and of each d^2F/ds_i ds_j.  At s = 0 ``dss`` is stored as zeros: every
    Wirtinger term it enters carries a factor conj(w_i) w_j.
    """

    s: tuple
    h: Decimal
    ds: tuple
    dss: tuple
    tail_h: Decimal
    tail_grad: Decimal
    tail_hess: Decimal


def _geometric_tails(a_last: Decimal, t: Decimal, d: int, r: Decimal):
    """Tail bounds for sum a(j) t^j, its first, and its second t-derivative
    beyond degree d, assuming a(j+1)/a(j) <= r for j >= d.

    With a(d+i) <= a(d) r^i all three reduce to geometric series in
    x = r t.  Each derivative takes one factor r out of the sum instead of
    dividing by t, so no negative power of t appears for d <= 1; writing
    j(j-1) = d(d-1) + 2di + i(i-1) for j = d+i, the bounds are exact when
    a(j+1)/a(j) = r:
        sum_{j>d} a(j) t^j          <= a(d) t^d x/(1-x)
        sum_{j>d} j a(j) t^{j-1}    <= a(d) r t^d [d/(1-x) + 1/(1-x)^2]
        sum_{j>d} j(j-1) a(j) t^{j-2}
            <= a(d) r [d t^{d-1} ((d-1)/(1-x) + 2/(1-x)^2) + 2 r t^d/(1-x)^3]
    """
    x = r * t
    if x >= 1:
        raise TailUnreliableError(
            f"series ratio bound {float(x):.6f} >= 1 at truncation degree {d}; "
            "increase the truncation degree or shrink the radius"
        )
    u = 1 / (1 - x)
    td = t**d
    # d t^{d-1} is 0 at d = 0; t^{-1} is never formed.
    dtd1 = d * t ** (d - 1) if d else ZERO
    tail0 = a_last * td * x * u
    tail1 = a_last * r * td * u * (d + u)
    tail2 = a_last * r * u * (dtd1 * (d - 1 + 2 * u) + 2 * r * td * u * u)
    return tail0, tail1, tail2


def _coefficients(seq: RadialSequence, max_degree: int) -> tuple:
    """The triples (a_d, d a_d, d (d-1) a_d) for d <= max_degree and the
    ratio bound beyond max_degree, each rounded once in the current context.
    Raises SequenceExhausted when the sequence ends before max_degree and
    TailUnreliableError when no ratio bound is known."""
    limit = seq.max_index()
    if limit is not None and limit < max_degree:
        raise SequenceExhausted(
            f"radial sequence ends at index {limit}, truncation degree {max_degree} requested"
        )
    coeffs = []
    for d in range(max_degree + 1):
        a_d = to_decimal(seq.value(d))
        coeffs.append((a_d, d * a_d, d * (d - 1) * a_d))
    ratio = seq.ratio_sup(max_degree)
    if ratio is None:
        raise TailUnreliableError(
            "no ratio bound available for this radial sequence; tail is unreliable"
        )
    return coeffs, to_decimal(ratio)


def _series(coeffs: list, ratio: Decimal, t: Decimal) -> tuple:
    """g(t), g'(t), g''(t) of g(t) = sum_d a(d) t^d over the coefficient
    triples of ``_coefficients`` and the geometric tail bounds of the three
    series beyond the last degree, in the current context."""
    # Running powers of t: p = t^d, p1 = t^(d-1), p2 = t^(d-2).  The terms
    # d a_d p1 and d (d-1) a_d p2 are exact zeros while p1 or p2 is.
    g = gp = gpp = p1 = p2 = ZERO
    p = Decimal(1)
    for a_d, da_d, dda_d in coeffs:
        g += a_d * p
        gp += da_d * p1
        gpp += dda_d * p2
        p2 = p1
        p1 = p
        p *= t
    return (g, gp, gpp) + _geometric_tails(coeffs[-1][0], t, len(coeffs) - 1, ratio)


def _sequence_key(seq: RadialSequence):
    """Equal keys mark radial sequences with bit-identical series: the same
    instance, or the same class with the same spec."""
    spec = seq.spec_dict()
    return seq if spec is None else (type(seq), repr(spec))


def _correction_table(W: WeightFunction) -> tuple:
    """(base, base key, terms) for the metric of W at the working precision.

    A correction delta at alpha adds delta s^alpha to F, delta alpha_i
    s^(alpha - e_i) to F_i and delta alpha_i (alpha_j - delta_ij)
    s^(alpha - e_i - e_j) to F_ij.  Each term (slot, c, e) adds c s^e at the
    slot () for F, (i,) for F_i or (i, j) with i <= j for F_ij; c is the
    exact coefficient rounded once, and the exponents e are already shifted,
    so no negative power of s is formed and s_i = 0 needs no special case.
    """
    if W.corrections is None:
        raise TailUnreliableError(
            "table weight without fallback has no series tail bound"
            if W.sequence is None
            else "radial sequence is undefined at a table entry; no series tail bound"
        )
    base, m = W.sequence, W.m
    terms = []
    for alpha, delta in W.corrections:
        terms.append(((), to_decimal(delta), alpha))
        for i, a in enumerate(alpha):
            if not a:
                continue
            lower = mi.sub(alpha, mi.unit(m, i))
            terms.append(((i,), to_decimal(delta * a), lower))
            for j in range(i, m):
                c = a * lower[j]
                if c:
                    terms.append(((i, j), to_decimal(delta * c), mi.sub(lower, mi.unit(m, j))))
    return base, _sequence_key(base), terms


def _origin_jet(W: WeightFunction, s: tuple) -> MetricJet:
    """The jet at s = 0, exact from two weight layers: F = rho(0) and
    F_i = rho(e_i)."""
    m = W.m
    return MetricJet(
        s=s,
        h=to_decimal(W.rho((0,) * m)),
        ds=tuple(to_decimal(W.rho(mi.unit(m, i))) for i in range(m)),
        dss=((ZERO,) * m,) * m,
        tail_h=ZERO,
        tail_grad=ZERO,
        tail_hess=ZERO,
    )


def _class_jet(table: tuple, s: tuple, t, max_degree: int, cache: dict) -> MetricJet:
    """The real jet at the modulus class s (with t = sum s_i > 0): the base
    series g, g', g'' at t plus every correction term in full.  ``cache``
    holds the series at (base key, t) and the coefficients at the base key,
    so equal sequences and classes of equal t share them."""
    base, key, terms = table
    series = cache.get((key, t))
    if series is None:
        if key not in cache:
            cache[key] = _coefficients(base, max_degree)
        series = cache[(key, t)] = _series(*cache[key], t)
    g, gp, gpp, tail0, tail1, tail2 = series
    m = len(s)
    jet = {(): g}
    for i in range(m):
        jet[(i,)] = gp
        for j in range(i, m):
            jet[(i, j)] = gpp
    for slot, c, e in terms:
        power = Decimal(1)
        for x, k in zip(s, e):
            if k:
                power *= x**k
        jet[slot] += c * power
    if jet[()] <= 0:
        raise TailUnreliableError(
            f"truncated metric h = {float(jet[()]):.6g} is not positive at "
            f"|w|^2 = {float(t):.6f}; increase the truncation degree"
        )
    return MetricJet(
        s=s,
        h=jet[()],
        ds=tuple(jet[(i,)] for i in range(m)),
        dss=tuple(tuple(jet[(min(i, j), max(i, j))] for j in range(m)) for i in range(m)),
        tail_h=tail0,
        tail_grad=tail1,
        tail_hess=tail2,
    )


def metric_jets(
    weights,
    points,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> list[tuple[MetricJet, ...]]:
    """Evaluate h(w) = sum_alpha rho(alpha) |w^alpha|^2 = F(s) as a real
    jet in s_i = |w_i|^2 (``MetricJet``) for every weight at every point,
    truncating the radial base series at ``max_degree`` and summing every
    exact correction term in full, in ``working_context(precision_bits)``.
    Returns one tuple per point holding the jet of each weight in order.

    The jet depends on the point only through its exact modulus class, the
    tuple of the s_i, each formed exactly from the coordinate and rounded
    once at the working precision, so each class is evaluated once and all
    its points share the same jet objects.  Within a call each weight's
    correction table is built once, at the first point off the origin, and
    one cache serves every base series: each radial sequence (up to equal
    specs) is rounded once and summed once per t = sum s_i.  Every jet is
    bit for bit the jet of that weight at that point alone, and the errors
    come in the order of evaluating the points one by one and, at each
    point, the weights in order.

    Raises ValueError for a negative ``max_degree``, fewer than 53
    ``precision_bits`` or a point of the wrong dimension, BallDomainError
    if |w| >= 1, and TailUnreliableError when no rigorous tail bound exists
    at this truncation degree or the truncated h is not positive (negative
    corrections outweighing a short base series), since such a value is not
    a metric.
    """
    check_jet_args(max_degree, precision_bits)
    weights = list(weights)
    tables: list[tuple | None] = [None] * len(weights)
    moduli: dict = {}  # coordinate as given -> |x|^2
    classes: dict[tuple, tuple] = {}  # exact s -> the jets of the weights
    cache: dict = {}  # base key -> coefficients; (base key, t) -> series
    out = []
    with localcontext(working_context(precision_bits)):
        for w in points:
            for W in weights:
                if len(w) != W.m:
                    raise DimensionMismatch(f"point has dimension {len(w)}, weight has m = {W.m}")
            for x in w:
                if x not in moduli:
                    moduli[x] = abs_sq(parts(x))
            s = tuple(moduli[x] for x in w)
            jets = classes.get(s)
            if jets is None:
                t = sum(s, ZERO)
                if t >= 1:
                    raise BallDomainError(f"|w|^2 = {float(t):.6f} is not inside the unit ball")
                jets = []
                for k, W in enumerate(weights):
                    if t == 0:
                        jets.append(_origin_jet(W, s))
                        continue
                    if tables[k] is None:
                        tables[k] = _correction_table(W)
                    jets.append(_class_jet(tables[k], s, t, max_degree, cache))
                jets = classes[s] = tuple(jets)
            out.append(jets)
    return out


def _log_class(jets) -> tuple:
    """(psi, diagonal, L_ij, spectrum) of one modulus class s, where psi is
    L = log F (one weight) or log F1 - log F2 (a pair), L_i = F_i/F and
    L_ij = (F F_ij - F_i F_j)/F^2, in the current context.  Each point w of
    the class has H = P* M P with P = diag(w_i/|w_i|) and
    M_ij = L_ij sqrt(s_i s_j) + delta_ij L_i, so M's diagonal and spectrum
    serve the whole class; the diagonal is returned as DecimalComplex
    entries, shared by the class's matrices."""
    s = jets[0].s
    m = len(s)
    psi = ZERO
    d1 = [ZERO] * m
    d2 = [[ZERO] * m for _ in range(m)]
    for sign, jet in zip((1, -1), jets):
        F = jet.h
        FF = F * F
        psi += sign * F.ln()
        for i, fi in enumerate(jet.ds):
            d1[i] += sign * (fi / F)
            for j, fj in enumerate(jet.ds):
                d2[i][j] += sign * ((F * jet.dss[i][j] - fi * fj) / FF)
    diagonal = [d2[i][i] * s[i] + d1[i] for i in range(m)]
    M = [
        [diagonal[i] if i == j else d2[i][j] * EXACT.multiply(s[i], s[j]).sqrt() for j in range(m)]
        for i in range(m)
    ]
    return (
        to_float(psi),
        [DecimalComplex(x) for x in diagonal],
        d2,
        _spectrum(M),
    )


def curvature_points(
    weights,
    grid,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> list[PshPoint]:
    """psi and its mixed Hessian at every grid point, in grid order, from
    one ``metric_jets`` call over the grid, in
    ``working_context(precision_bits)``.

    For one weight psi = log h, whose Hessian at w = 0 is exactly
    diag(rho(e_i)/rho(0)).  For a pair (W1, W2), psi = log h1 - log h2 and
    its Hessian is H(h1) - H(h2); the sign convention is carried by the
    argument order alone, so swapping the weights negates both.  psi, L and
    the spectrum are computed once per modulus class; at each point only
    H_ij = L_ij conj(w_i) w_j for i < j is formed, with conj(w_i) w_j exact
    before its one rounding, H_ji = conj(H_ij) and the real class diagonal,
    so H is exactly Hermitian.  Raises ValueError unless there are one or
    two weights of one dimension.
    """
    weights = list(weights)
    if len(weights) not in (1, 2):
        raise ValueError(f"curvature needs one or two weights, got {len(weights)}")
    if weights[0].m != weights[-1].m:
        raise DimensionMismatch(f"weights have dimensions {weights[0].m} and {weights[1].m}")
    grid = list(grid)
    points = []
    classes: dict[tuple, tuple] = {}
    jets = metric_jets(weights, grid, max_degree=max_degree, precision_bits=precision_bits)
    with localcontext(working_context(precision_bits)):
        for w, row in zip(grid, jets):
            cls = classes.get(row[0].s)
            if cls is None:
                cls = classes[row[0].s] = _log_class(row)
            psi, diagonal, d2, spectrum = cls
            wv = [parts(x) for x in w]
            rows = [[d] * len(wv) for d in diagonal]
            for i, j in combinations(range(len(wv)), 2):
                rows[i][j] = conj_mul(wv[i], wv[j]).scaled(d2[i][j])
                rows[j][i] = rows[i][j].conjugate()
            H = CurvatureMatrix(tuple(map(tuple, rows)), spectrum)
            points.append(PshPoint(tuple(w), psi, H))
    return points


def check_jet_args(max_degree: int, precision_bits: int) -> None:
    """Raise ValueError for a negative truncation degree or fewer than 53
    precision bits, the arguments ``metric_jets`` refuses."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")


def check_tol(tol: float) -> None:
    """Raise ValueError for a psd tolerance that is negative or not finite."""
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"psd tolerance must be finite and >= 0, got {tol}")


def psd_check(H: CurvatureMatrix, tol: float = 1e-10) -> bool:
    """True iff the least eigenvalue of H is at least -tol.  Raises
    ValueError for a tolerance that is negative or not finite."""
    check_tol(tol)
    return eigenvalues(H)[0] >= -tol


def eigenvalues(H: CurvatureMatrix) -> tuple[float, ...]:
    """Eigenvalues of H, ascending, rounded to float from ``H.spectrum``
    (a -0.0 is written as 0.0)."""
    return tuple(to_float(x) for x in H.spectrum)


def radial_grid(m: int, steps: int, angles: int, max_radius: float = 0.95) -> list[tuple]:
    """Deterministic sample of the ball: each coordinate ranges over
    r * exp(2 pi i k / angles) for the ``steps`` equally spaced radii
    r = max_radius (j + 1) / steps, keeping points with |w| <= max_radius.
    Always contains the origin.  The angles on the axes give exactly
    (+-r, 0) and (0, +-r), so their |x|^2 is r^2 at every working
    precision; float cos and sin would leave ~1e-16 r in the other part."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if steps < 1:
        raise ValueError("need at least one radial step")
    if angles < 1:
        raise ValueError("need at least one angle")
    coords = [(0.0, 0.0)]
    for j in range(steps):
        r = max_radius * (j + 1) / steps
        for k in range(angles):
            quarter, off_axis = divmod(4 * k, angles)
            if off_axis:
                theta = 2 * pi * k / angles
                coords.append((r * cos(theta), r * sin(theta)))
            else:
                coords.append(((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r))[quarter])
    pts = []

    def rec(prefix, budget_sq):
        if len(prefix) == m:
            pts.append(tuple(complex(re, im) for re, im in prefix))
            return
        for re, im in coords:
            rr = re * re + im * im
            if rr <= budget_sq + 1e-15:
                rec(prefix + [(re, im)], budget_sq - rr)

    rec([], max_radius * max_radius)
    return pts


class PshReport(NamedTuple):
    """Grid summary for psi = log(h1/h2): value range, worst Hessian
    eigenvalue, and a radial trend heuristic.

    ``unbounded_trend`` fires when max|psi| per radius shell is strictly
    increasing over the three outermost shells and grows by at least 25%
    from first to last of those; it marks suspicion, not proof.
    """

    psi_min: float
    psi_max: float
    hessian_min_eig: float
    all_psd: bool
    unbounded_trend: bool
    shells: tuple  # (radius, max |psi|) pairs, ascending radius
    n_points: int


def psh_boundedness_report(records, psd_tol: float = 1e-10) -> PshReport:
    """Summarise the ``PshPoint`` records of a pair that ``curvature_points``
    gave.  Raises ValueError for no records and, from ``psd_check``, for a
    psd_tol that is negative or not finite.
    """
    if not records:
        raise ValueError("grid must be nonempty")

    worst = min(records, key=lambda r: r.min_eig)

    shells: dict[float, float] = {}
    for r in records:
        rad = round(sum(abs(complex(x)) ** 2 for x in r.w) ** 0.5, 9)
        shells[rad] = max(shells.get(rad, 0.0), abs(r.psi))
    shell_list = sorted(shells.items())
    trend = False
    if len(shell_list) >= 3:
        tail = [v for _, v in shell_list[-3:]]
        trend = tail[0] < tail[1] < tail[2] and tail[2] >= 1.25 * tail[0]

    return PshReport(
        psi_min=min(r.psi for r in records),
        psi_max=max(r.psi for r in records),
        hessian_min_eig=worst.min_eig,
        all_psd=psd_check(worst.hessian, psd_tol),
        unbounded_trend=trend,
        shells=tuple(shell_list),
        n_points=len(records),
    )
