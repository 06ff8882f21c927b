"""Grid-level metric jets against a per-point complex reference.

``reference_jet`` is the per-point metric jet as it was written before jets
were evaluated a grid at a time and as real jets: it sums the radial series
term by term with no memo, converts every correction, takes every complex
coordinate power afresh and assembles the Wirtinger gradient and Hessian
directly, in mpmath at the working precision in bits.  ``metric_jets``
evaluates one real jet in s_i = |w_i|^2 per modulus class in decimal
working digits, and ``helpers.wirtinger`` derives the Wirtinger derivatives
at w from it, so they round in another radix and order: h, grad, hess and
the series tails agree with the reference within 2^-(bits - 8) relative.  A
grid call and per-point calls give the same bits, and one call sums each
base series once per t = sum s_i.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import hypershift.curvature as curvature_module
from hypershift import (
    GeometricSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    RadialSequence,
    RadialWeight,
    TableWeight,
    radial_grid,
    weight_from_dict,
)
from hypershift import multiindex as mi
from hypershift.errors import TailUnreliableError
from hypershift.curvature import metric_jets
from helpers import modulus_classes, point_jet, to_mp, wirtinger

F = Fraction


@dataclass(frozen=True)
class MetricJet:
    """The complex jet as the reference writes it: h with its Wirtinger
    gradient and mixed Hessian at one point."""

    h: mp.mpf
    grad: tuple
    hess: tuple
    tail_h: mp.mpf
    tail_grad: mp.mpf
    tail_hess: mp.mpf


def _to_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _geometric_tails(a_last, t, d: int, ratio: Fraction):
    """The package's geometric tail bounds beyond degree d, in mpmath."""
    r = _to_mpf(ratio)
    x = r * t
    if x >= 1:
        raise TailUnreliableError(f"series ratio bound {float(x):.6f} >= 1")
    u = 1 / (1 - x)
    td = t**d
    dtd1 = d * t ** (d - 1) if d else mp.mpf(0)
    tail0 = a_last * td * x * u
    tail1 = a_last * r * td * u * (d + u)
    tail2 = a_last * r * u * (dtd1 * (d - 1 + 2 * u) + 2 * r * td * u * u)
    return tail0, tail1, tail2


def reference_series(seq, t, max_degree):
    """g, g', g'' of the truncated radial series and their tail bounds."""
    g = mp.mpf(0)
    gp = mp.mpf(0)
    gpp = mp.mpf(0)
    p = mp.mpf(1)
    p1 = p2 = mp.mpf(0)
    for d in range(max_degree + 1):
        a_d = _to_mpf(seq.value(d))
        g += a_d * p
        if d >= 1:
            gp += d * a_d * p1
        if d >= 2:
            gpp += d * (d - 1) * a_d * p2
        p2 = p1
        p1 = p
        p *= t
    a_last = _to_mpf(seq.value(max_degree))
    return (g, gp, gpp) + _geometric_tails(a_last, t, max_degree, seq.ratio_sup(max_degree))


def _reference_shifted_power(wv, alpha, i):
    out = mp.mpf(1)
    for k, (x, a) in enumerate(zip(wv, alpha)):
        e = a - 1 if k == i else a
        if e:
            out *= x**e
    return out


def reference_jet(W, w, max_degree, precision_bits):
    m = W.m
    with mp.workprec(precision_bits):
        wv = [mp.mpc(x) for x in w]
        t = mp.mpf(0)
        for wi in wv:
            t += abs(mp.mpc(wi)) ** 2
        zero = mp.mpf(0)

        if t == 0:
            theta = (0,) * m
            h0 = _to_mpf(W.rho(theta))
            hess0 = tuple(
                tuple(
                    _to_mpf(W.rho(mi.unit(m, i))) if i == j else zero for j in range(m)
                )
                for i in range(m)
            )
            return MetricJet(
                h=h0,
                grad=(zero,) * m,
                hess=hess0,
                tail_h=zero,
                tail_grad=zero,
                tail_hess=zero,
            )

        base, corrections = W.sequence, W.corrections
        g, gp, gpp, tail0, tail1, tail2 = reference_series(base, t, max_degree)

        h = g
        grad = [gp * mp.conj(wv[i]) for i in range(m)]
        hess = [
            [gpp * mp.conj(wv[i]) * wv[j] + (gp if i == j else zero) for j in range(m)]
            for i in range(m)
        ]

        for alpha, delta in corrections:
            dv = _to_mpf(delta)
            wpow = mp.mpf(1)  # w^alpha
            for x, a in zip(wv, alpha):
                if a:
                    wpow *= x**a
            h += dv * (abs(wpow) ** 2)
            shifted = [
                _reference_shifted_power(wv, alpha, i) if alpha[i] else None for i in range(m)
            ]
            for i in range(m):
                if shifted[i] is not None:
                    grad[i] += dv * alpha[i] * shifted[i] * mp.conj(wpow)
            for i in range(m):
                if shifted[i] is None:
                    continue
                for j in range(m):
                    if shifted[j] is None:
                        continue
                    hess[i][j] += dv * alpha[i] * alpha[j] * shifted[i] * mp.conj(shifted[j])

        return MetricJet(
            h=h,
            grad=tuple(grad),
            hess=tuple(tuple(row) for row in hess),
            tail_h=tail0,
            tail_grad=tail1,
            tail_hess=tail2,
        )


def _fields(jet):
    """The fields of a real jet, which a grid call and a per-point call must
    give bit for bit."""
    return (jet.s, jet.h, jet.ds, jet.dss, jet.tail_h, jet.tail_grad, jet.tail_hess)


def _wirtinger(jet, w=None):
    """h, grad, hess and the tails: the reference's own, or those of a real
    jet at the point w."""
    grad, hess = (jet.grad, jet.hess) if w is None else wirtinger(jet, w)
    return (jet.h, grad, hess, jet.tail_h, jet.tail_grad, jet.tail_hess)


def _assert_close(got, ref, bits):
    """Each entry of got within 2^-(bits - 8) of the reference entry,
    relative to its magnitude."""
    if isinstance(ref, tuple):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_close(g, r, bits)
        return
    with mp.workprec(2 * bits):
        assert abs(to_mp(got) - ref) <= mp.mpf(2) ** (8 - bits) * abs(ref)


def _grid(m):
    # The origin, points with zero coordinates and, off the radial grid,
    # repeated coordinates at new radii and off-axis angles.
    extra = [
        (0.3 + 0.2j,) + (0.5j,) * (m - 1),
        (0.0,) * (m - 1) + (-0.61 + 0.1j,),
        (0.2 - 0.7j,) + (0.0,) * (m - 1),
    ]
    return radial_grid(m, 2, 4) + extra


def _with_base(W):
    return W, W.base


def _table_and_power():
    # At (3, 7) and (7, 3), (delta alpha_i) alpha_j and delta (alpha_i alpha_j)
    # round differently at 80 or 120 bits, so the order of the products shows.
    P = PowerKernel(2, 2)
    entries = {(2, 3): F(30), (1, 1): F(5), (0, 4): F(7), (3, 7): F(1, 3), (7, 3): F(2, 7)}
    return TableWeight(2, entries, fallback=P), P


class ThirdsSequence(RadialSequence):
    """a(i) = (i + 1)/3, a sequence with no spec: shared only as one instance."""

    def value(self, i):
        return F(i + 1, 3)

    def ratio_sup(self, start):
        return F(start + 2, start + 1)


def _unspecified_sequences():
    a = ThirdsSequence()
    return RadialWeight(2, a), TableWeight(2, {(1, 2): F(5, 3)}, fallback=RadialWeight(2, a))


PAIRS = {
    "perturbed45_base": lambda: _with_base(PerturbedPower(2, 2, 2)),
    "perturbed45_m3_base": lambda: _with_base(PerturbedPower(2, 3, 2)),
    "perturbed45_power_specs": lambda: (
        weight_from_dict({"kind": "perturbed45", "n": 2, "m": 2, "L": 2}),
        weight_from_dict({"kind": "power", "n": 2, "m": 2}),
    ),
    "table_power_fallback": _table_and_power,
    "polynomials": lambda: (
        RadialWeight(2, PolynomialSequence([F(1), F(2), F(1)])),
        RadialWeight(2, PolynomialSequence([F(3), F(1, 2), F(0), F(1)])),
    ),
    # Coefficients that are not dyadic, so the series products round.
    "nondyadic": lambda: (
        RadialWeight(2, GeometricSequence(F(2, 3))),
        RadialWeight(2, PolynomialSequence([F(1, 3), F(2, 7), F(1, 5)])),
    ),
    "unspecified_sequences": _unspecified_sequences,
}


@pytest.mark.parametrize("bits", [80, 120])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_metric_jets_are_bit_identical_to_the_reference(pair, bits):
    # Bit for bit between the grid call and per-point calls; within
    # 2^-(bits - 8) relative of the complex mpmath reference.
    deg = 60
    W1, W2 = PAIRS[pair]()
    grid = _grid(W1.m)
    jets = metric_jets([W1, W2], grid, max_degree=deg, precision_bits=bits)
    assert len(jets) == len(grid)
    for w, (jet1, jet2) in zip(grid, jets):
        for W, jet in ((W1, jet1), (W2, jet2)):
            one = point_jet(W, w, max_degree=deg, precision_bits=bits)
            assert _fields(one) == _fields(jet)
            ref = reference_jet(W, w, deg, bits)
            with mp.workprec(2 * bits):
                _assert_close(_wirtinger(one, w), _wirtinger(ref), bits)


def _count_series(monkeypatch):
    """Record the sequence of every ``_coefficients`` call and the t of
    every ``_series`` call: what one metric_jets call rounds and sums."""
    rounded, summed = [], []
    real_coefficients = curvature_module._coefficients
    real_series = curvature_module._series

    def coefficients(seq, max_degree):
        rounded.append(seq)
        return real_coefficients(seq, max_degree)

    def series(coeffs, ratio, t):
        summed.append(t)
        return real_series(coeffs, ratio, t)

    monkeypatch.setattr(curvature_module, "_coefficients", coefficients)
    monkeypatch.setattr(curvature_module, "_series", series)
    return rounded, summed


def test_base_series_is_shared_by_equal_sequences_only(monkeypatch):
    # Spec-equal bases share one series per t: the second weight's own
    # sequence is never rounded or summed.  Different sequences each sum
    # their own.
    rounded, summed = _count_series(monkeypatch)
    W1, W2 = PAIRS["perturbed45_power_specs"]()
    metric_jets([W1, W2], _grid(2))
    assert rounded == [W1.base.sequence]
    assert len(summed) == len(set(summed))
    rounded.clear()
    W1, W2 = PAIRS["polynomials"]()
    metric_jets([W1, W2], _grid(2))
    assert rounded == [W1.sequence, W2.sequence]


def test_base_series_is_summed_once_per_t(monkeypatch):
    # Classes of equal t = sum s_i share one base series: example45's pair
    # on radial:6x4 has 34 classes off the origin and 19 values of t, and
    # the CLI-default radial:6x8 pair of perturbed45.json and power22.json
    # has 234 and 123.  Each count is one sum per t for both weights.
    rounded, summed = _count_series(monkeypatch)
    W = PerturbedPower(2, 2, 2)
    grid = radial_grid(2, 6, 4)
    metric_jets([W, W.base], grid, max_degree=120, precision_bits=80)
    assert len(modulus_classes(grid)) - 1 == 34
    assert (len(rounded), len(summed), len(set(summed))) == (1, 19, 19)

    rounded.clear()
    summed.clear()
    data = Path(__file__).parent / "data"
    W1, W2 = (
        weight_from_dict(json.loads((data / name).read_text()))
        for name in ("perturbed45.json", "power22.json")
    )
    grid = radial_grid(2, 6, 8)
    metric_jets([W1, W2], grid, max_degree=40, precision_bits=80)
    assert len(modulus_classes(grid)) - 1 == 234
    assert (len(rounded), len(summed), len(set(summed))) == (1, 123, 123)


def test_metric_jets_serve_weights_in_order_at_every_point():
    W1, W2 = _table_and_power()
    grid = _grid(2)
    forward = metric_jets([W1, W2], grid, max_degree=30)
    backward = metric_jets([W2, W1, W2], grid, max_degree=30)
    for (a1, a2), (b2, b1, c2) in zip(forward, backward):
        assert _fields(a1) == _fields(b1)
        assert _fields(a2) == _fields(b2) == _fields(c2)
    assert metric_jets([W1, W2], [], max_degree=30) == []
    assert metric_jets([], grid, max_degree=30) == [()] * len(grid)


def test_metric_jets_refuse_in_point_then_weight_order():
    # No tail bound for the table without fallback: the origin is exact, so
    # the refusal comes at the first point off it, whichever weight is first.
    bare = TableWeight(2, {(0, 0): F(1), (1, 0): F(2), (0, 1): F(3)})
    P = PowerKernel(2, 2)
    origin = metric_jets([bare, P], [(0j, 0j)])
    one = point_jet(bare, (0j, 0j))
    assert _fields(origin[0][0]) == _fields(one)
    assert to_mp(_wirtinger(one, (0j, 0j))) == _wirtinger(reference_jet(bare, (0j, 0j), 40, 80))
    for weights in ([bare, P], [P, bare]):
        with pytest.raises(TailUnreliableError, match="table weight without fallback"):
            metric_jets(weights, [(0j, 0j), (0.1, 0.2)])
    # The degree and the precision are checked once per call, before any
    # point; each point's dimension comes before the ball, and both before
    # the weight's decomposition is needed.
    for points in ([], [(0.5,)], [(2.0, 0.0)]):
        with pytest.raises(ValueError, match="max_degree"):
            metric_jets([P], points, max_degree=-1)
        with pytest.raises(ValueError, match="precision_bits"):
            metric_jets([P], points, precision_bits=52)
    with pytest.raises(ValueError, match="point has dimension 1"):
        metric_jets([bare, P], [(0j, 0j), (2.0,)])
    with pytest.raises(ValueError, match="unit ball"):
        metric_jets([bare, P], [(0j, 0j), (0.8, 0.7)])


def test_one_jet_per_modulus_class(monkeypatch):
    # Points whose s agree at the working precision share one jet object
    # per weight, and each class is evaluated once per weight: 35 classes on
    # example45's radial:6x4 grid, 235 on the CLI default radial:6x8.
    calls = []
    for name in ("_class_jet", "_origin_jet"):
        real = getattr(curvature_module, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(curvature_module, name, counting)
    W = PerturbedPower(2, 2, 2)
    for steps, angles, classes in ((6, 4, 35), (6, 8, 235)):
        calls.clear()
        grid = radial_grid(2, steps, angles)
        jets = metric_jets([W, W.base], grid, max_degree=40, precision_bits=80)
        assert len(modulus_classes(grid, 80)) == classes
        assert len(calls) == 2 * classes
        assert len({id(jet) for row in jets for jet in row}) == 2 * classes
        first = {}
        for row in jets:
            assert all(a is b for a, b in zip(first.setdefault(row[0].s, row), row))
