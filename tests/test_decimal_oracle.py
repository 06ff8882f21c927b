"""The working-precision decimal numerics against mpmath at 200 bits.

Each class jet (F, F_i, F_ij), each psi and each class spectrum that the
package computes in P = ceil(p log10 2) digits is compared with the same
truncated quantity computed in binary at 200 bits from the exact weight
values, on hypothesis-drawn weights, points, truncation degrees and
precisions.  The bounds are a priori: u = 10^(1 - P)/2 is the unit
roundoff of the working digits, and every bound is a modest multiple of u
times the magnitude of the terms that are summed, so a wrong formula or a
lost rounding shows as an error many orders of magnitude above it.  The
Jacobi spectra of real symmetric m = 3 and m = 4 matrices, the class
matrices of those dimensions, are compared with ``mp.eighe`` the same way.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypershift import (
    GeometricSequence,
    PolynomialSequence,
    PowerSequence,
    RadialWeight,
    TableWeight,
    curvature_points,
)
from hypershift import multiindex as mi
import hypershift.curvature as curvature_module
from hypershift.curvature import DecimalComplex, _spectrum, metric_jets, working_context
from helpers import to_mp

F = Fraction
REF_BITS = 200

ORACLE_SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def unit_roundoff(bits: int) -> mp.mpf:
    return mp.mpf(10) ** (1 - working_context(bits).prec) / 2


@st.composite
def weights(draw, m):
    """A radial weight, or a table over one with up to two corrections."""
    kind = draw(st.sampled_from(["power", "geometric", "polynomial"]))
    if kind == "power":
        seq = PowerSequence(draw(st.integers(1, 4)))
    elif kind == "geometric":
        seq = GeometricSequence(F(draw(st.integers(1, 3)), draw(st.integers(2, 3))))
    else:
        seq = PolynomialSequence(
            [F(draw(st.integers(1, 9)), draw(st.integers(1, 5))) for _ in range(draw(st.integers(1, 3)))]
        )
    base = RadialWeight(m, seq)
    alphas = draw(st.lists(st.sampled_from(list(mi.enumerate_leq_degree(m, 4))), max_size=2, unique=True))
    if not alphas:
        return base
    factors = [F(1, 2), F(3, 2), F(3)]
    return TableWeight(m, {a: base.rho(a) * draw(st.sampled_from(factors)) for a in alphas}, base)


@st.composite
def cases(draw, count):
    """(weights, point, truncation degree, precision bits)."""
    m = draw(st.integers(1, 3))
    ws = [draw(weights(m)) for _ in range(count)]
    coord = st.floats(min_value=-0.45, max_value=0.45, allow_nan=False)
    w = tuple(complex(draw(coord), draw(coord)) for _ in range(m))
    assume(0 < sum(abs(x) ** 2 for x in w) <= 0.6)
    return ws, w, draw(st.sampled_from([10, 40, 80])), draw(st.sampled_from([53, 80, 120]))


def reference_class_jet(W, w, max_degree):
    """(s, slots) at the current mpmath precision, where slots maps () to
    [F, magnitude], (i,) to [F_i, magnitude] and (i, j) to
    [F_ij, magnitude], each magnitude the sum of the absolute values of the
    terms of that quantity."""
    m = W.m
    base, corrections = W.sequence, W.corrections
    s = [mp.mpf(x.real) ** 2 + mp.mpf(x.imag) ** 2 for x in w]
    t = sum(s)
    a = [mp.mpf(base.value(d).numerator) / base.value(d).denominator for d in range(max_degree + 1)]
    g = sum(a[d] * t**d for d in range(max_degree + 1))
    g1 = sum(d * a[d] * t ** (d - 1) for d in range(1, max_degree + 1))
    g2 = sum(d * (d - 1) * a[d] * t ** (d - 2) for d in range(2, max_degree + 1))
    val = {(): [g, g]}
    for i in range(m):
        val[(i,)] = [g1, g1]
        for j in range(m):
            val[(i, j)] = [g2, g2]

    def monomial(e):
        out = mp.mpf(1)
        for x, k in zip(s, e):
            out *= x**k
        return out

    for alpha, delta in corrections:
        dv = mp.mpf(delta.numerator) / delta.denominator
        terms = [((), dv * monomial(alpha))]
        for i in range(m):
            if alpha[i]:
                lower = mi.sub(alpha, mi.unit(m, i))
                terms.append(((i,), dv * alpha[i] * monomial(lower)))
                for j in range(m):
                    if lower[j]:
                        c = alpha[i] * lower[j]
                        terms.append(((i, j), dv * c * monomial(mi.sub(lower, mi.unit(m, j)))))
        for slot, v in terms:
            val[slot][0] += v
            val[slot][1] += abs(v)
    return s, val


def _jet_bound(m, max_degree, u):
    # Term d of the series carries the roundings of a(d), of t^d (d of
    # them) and of t itself (m + 1, each scaled by d), and the sums one
    # more per term.
    return 2 * (max_degree * (m + 3) + 10) * u


@ORACLE_SETTINGS
@given(cases(1))
def test_class_jets_match_mpmath(case):
    (W,), w, deg, bits = case
    ((jet,),) = metric_jets([W], [w], max_degree=deg, precision_bits=bits)
    with mp.workprec(REF_BITS):
        _, ref = reference_class_jet(W, w, deg)
        u = unit_roundoff(bits)
        c = _jet_bound(W.m, deg, u)
        got = {(): jet.h}
        for i in range(W.m):
            got[(i,)] = jet.ds[i]
            for j in range(W.m):
                got[(i, j)] = jet.dss[i][j]
        for slot, (value, magnitude) in ref.items():
            assert abs(to_mp(got[slot]) - value) <= c * magnitude, slot


def reference_log_class(ws, w, deg, u):
    """psi, the class matrix M and a bound on each of their errors, from
    the 200-bit jets of each weight and their error bounds."""
    m = len(w)
    psi = mp.mpf(0)
    psi_err = mp.mpf(0)
    L1 = [mp.mpf(0)] * m
    L2 = [[mp.mpf(0)] * m for _ in range(m)]
    e1 = [mp.mpf(0)] * m
    e2 = [[mp.mpf(0)] * m for _ in range(m)]
    c = _jet_bound(m, deg, u)
    for sign, W in zip((1, -1), ws):
        s, val = reference_class_jet(W, w, deg)
        Fv, Fm = val[()]
        eF = c * Fm / Fv  # relative error of F
        psi += sign * mp.log(Fv)
        psi_err += eF + 2 * u * (1 + abs(mp.log(Fv)))
        for i in range(m):
            fi, fim = val[(i,)]
            L1[i] += sign * fi / Fv
            e1[i] += (c * fim + abs(fi) * eF) / Fv + 2 * u * abs(fi / Fv)
            for j in range(m):
                fj, fjm = val[(j,)]
                fij, fijm = val[(i, j)]
                L2[i][j] += sign * (Fv * fij - fi * fj) / Fv**2
                big = abs(Fv * fij) + abs(fi * fj)
                e2[i][j] += (
                    abs(Fv) * c * fijm + abs(fij) * Fv * eF + c * (fim * abs(fj) + fjm * abs(fi))
                ) / Fv**2 + (2 * eF + 6 * u) * big / Fv**2
    M = mp.matrix(m, m)
    err = mp.mpf(0)
    for i in range(m):
        for j in range(m):
            root = mp.sqrt(s[i] * s[j])
            M[i, j] = L2[i][j] * root + (L1[i] if i == j else 0)
            entry_err = (e2[i][j] + 4 * u * abs(L2[i][j])) * root
            if i == j:
                entry_err += e1[i] + 2 * u * abs(M[i, j])
            err += entry_err**2
    return psi, psi_err, M, mp.sqrt(err)


@ORACLE_SETTINGS
@given(st.one_of(cases(1), cases(2)))
def test_psi_and_class_spectra_match_mpmath(case):
    ws, w, deg, bits = case
    (p,) = curvature_points(ws, [w], max_degree=deg, precision_bits=bits)
    with mp.workprec(REF_BITS):
        u = unit_roundoff(bits)
        psi, psi_err, M, entry_err = reference_log_class(ws, w, deg, u)
        # psi is reported as a float.
        assert abs(p.psi - psi) <= psi_err + abs(psi) * mp.mpf(2) ** -52
        ref = sorted(mp.eighe(M, eigvals_only=True)) if len(w) > 1 else [M[0, 0]]
        scale = mp.mnorm(M, "f")
        # Weyl: the entry errors move each eigenvalue by at most their
        # Frobenius norm; the spectrum itself adds a few roundings.
        bound = entry_err + 16 * len(w) * u * scale
        got = to_mp(p.hessian.spectrum)
        assert all(abs(g - r) <= bound for g, r in zip(got, ref))


_entry = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_rows(draw):
    """m = 3 or 4: a generic real symmetric matrix, or one with a tiny
    coupling between nearly equal diagonal entries."""
    m = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        d = draw(_entry)
        eps = draw(st.floats(min_value=1e-12, max_value=1e-6))
        return [
            [d + eps * (i + 1) if i == j else eps * eps + eps * abs(j - i) for j in range(m)]
            for i in range(m)
        ]
    B = [[draw(_entry) for _ in range(m)] for _ in range(m)]
    return [[B[i][j] + B[j][i] for j in range(m)] for i in range(m)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(symmetric_rows(), st.sampled_from([53, 80, 120]))
def test_jacobi_spectrum_matches_eighe(rows, bits):
    # The entries as the class matrix holds them: each rounded once to the
    # working digits.  The reference takes the floats exactly.
    with localcontext(working_context(bits)):
        got = _spectrum([[+Decimal(x) for x in row] for row in rows])
    assert list(got) == sorted(got)
    with mp.workprec(REF_BITS):
        A = mp.matrix([[mp.mpf(x) for x in row] for row in rows])
        ref = mp.eighe(A, eigvals_only=True)
        scale = mp.mnorm(A, "f")
        u = unit_roundoff(bits)
        assert all(abs(to_mp(g) - r) <= 16 * len(rows) * u * scale for g, r in zip(got, ref))


def test_working_digits_carry_the_working_bits():
    # P is the fewest digits whose unit roundoff 5 10^-P is no coarser
    # than the binary 2^-p.
    for p in [*range(4001), 100000]:
        P = working_context(p).prec
        assert 10 ** (P - 1) < 5 * 2**p <= 10**P


def test_working_digits_settle_a_float_estimate_off_by_one(monkeypatch):
    # The float estimate ceil(p log10 2 + log10 5) is right for every p up
    # to 3,000,000; moved one digit either way, the exact loops restore P.
    real = curvature_module.ceil
    for off in (-1, 1):
        monkeypatch.setattr(curvature_module, "ceil", lambda x: real(x) + off)
        for p in (2, 53, 80, 4000):
            P = working_context.__wrapped__(p).prec
            assert 10 ** (P - 1) < 5 * 2**p <= 10**P


def test_decimal_complex_equality_and_repr():
    z = DecimalComplex(Decimal("0.25"), Decimal("-1.5"))
    assert z == complex(0.25, -1.5) and z == DecimalComplex(Decimal("0.25"), Decimal("-1.5"))
    assert z != DecimalComplex(Decimal("0.25"))
    # A non-number has no real and imag parts: __eq__ defers, and == is False.
    assert z.__eq__("0.25-1.5j") is NotImplemented
    assert (z == "0.25-1.5j") is False
    assert repr(z) == "DecimalComplex(Decimal('0.25'), Decimal('-1.5'))"
    assert repr(DecimalComplex(Decimal(3))) == "DecimalComplex(Decimal('3'), Decimal('0'))"
