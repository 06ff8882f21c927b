"""Weight families, serialization, and the diagonal metric evaluator."""

import random
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from hypershift import (
    BallDomainError,
    ExplicitSequence,
    GeometricSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    SequenceExhausted,
    TableWeight,
    TailUnreliableError,
    WeightDomainError,
    WeightSpecError,
    metric_jet,
    parse_fraction,
    weight_from_dict,
)
from hypershift import multiindex as mi

from helpers import random_radial_sequence, random_table_weight, random_weight

F = Fraction


# -- radial sequences -------------------------------------------------------


def test_power_sequence_is_binomial():
    a = PowerSequence(3)
    assert [a.value(i) for i in range(5)] == [1, 3, 6, 10, 15]
    # a(i+1)/a(i) = (n+i)/(i+1) is what ratio_sup promises, exactly.
    for start in range(6):
        assert a.value(start + 1) / a.value(start) == a.ratio_sup(start)


def test_geometric_and_polynomial_values():
    g = GeometricSequence(F(3, 2))
    assert g.value(3) == F(27, 8)
    p = PolynomialSequence([F(2), F(1)])
    assert [p.value(i) for i in range(4)] == [2, 3, 4, 5]


def test_polynomial_sequence_positivity_is_enforced():
    with pytest.raises(ValueError):
        PolynomialSequence([F(-1)])
    dipping = PolynomialSequence([F(1), F(-1)])  # 1 - i
    with pytest.raises(WeightDomainError):
        dipping.value(2)
    assert dipping.ratio_sup(0) is None


def test_polynomial_ratio_sup_bounds_actual_ratios():
    p = PolynomialSequence([F(1), F(1)])  # a(i) = i + 1
    for start in range(0, 8):
        bound = p.ratio_sup(start)
        for i in range(start, start + 20):
            assert p.value(i + 1) / p.value(i) <= bound


def test_explicit_sequence_exhaustion():
    a = ExplicitSequence([F(1), F(2)])
    assert a.max_index() == 1
    assert a.value(1) == 2
    with pytest.raises(SequenceExhausted):
        a.value(2)
    with pytest.raises(ValueError):
        ExplicitSequence([])
    with pytest.raises(ValueError):
        ExplicitSequence([F(0)])


# -- weight families --------------------------------------------------------


def test_power_kernel_values():
    W = PowerKernel(2, 2)
    assert W.rho((0, 0)) == 1
    assert W.rho((1, 0)) == 2
    assert W.rho((2, 3)) == 60  # 6!/(2! 3! 1!)
    assert W.rho_ratio((2, 3), (1, 1)) == F(1, 5)


def test_power_kernel_matches_radial_form():
    rng = random.Random(11)
    for n in (1, 2, 4):
        for m in (1, 2, 3):
            W = PowerKernel(n, m)
            R = RadialWeight(m, PowerSequence(n))
            for alpha in mi.enumerate_leq_degree(m, 6):
                assert W.rho(alpha) == R.rho(alpha)
            for _ in range(20):
                alpha = tuple(rng.randint(0, 5) for _ in range(m))
                beta = tuple(rng.randint(0, a) for a in alpha)
                assert W.rho_ratio(alpha, beta) == R.rho_ratio(alpha, beta)


def test_rho_ratio_agrees_with_quotient_of_values():
    rng = random.Random(12)
    for _ in range(25):
        W = random_weight(rng, m=2, degree=10)
        for _ in range(10):
            alpha = (rng.randint(0, 5), rng.randint(0, 5))
            beta = tuple(rng.randint(0, a) for a in alpha)
            assert W.rho_ratio(alpha, beta) == W.rho(mi.sub(alpha, beta)) / W.rho(alpha)


def test_radial_rho_ratio_is_the_quotient_cold_and_warm():
    # The radial factor a(N - b)/(a(N) (N)_b) is cached per (N, b) and shared
    # by every shape of alpha and beta with those degrees.
    rng = random.Random(13)
    for _ in range(6):
        W = RadialWeight(3, random_radial_sequence(rng, needed_length=12))
        for alpha in mi.enumerate_leq_degree(3, 6):
            for beta in mi.dominated_by(alpha):
                expected = W.rho(mi.sub(alpha, beta)) / W.rho(alpha)
                assert W.rho_ratio(alpha, beta) == expected
                assert W.rho_ratio(alpha, beta) == expected


def test_rho_ratio_rejects_undominated():
    W = PowerKernel(2, 2)
    with pytest.raises(ValueError):
        W.rho_ratio((1, 0), (2, 0))


def test_shift_weight_sq_is_the_step_quotient():
    W = PowerKernel(3, 2)
    for alpha in mi.enumerate_leq_degree(2, 4):
        for i in range(2):
            e = mi.unit(2, i)
            assert W.shift_weight_sq(alpha, i) == W.rho(alpha) / W.rho(mi.add(alpha, e))


def test_table_weight_lookup_and_fallback():
    W = TableWeight(2, {(1, 0): F(5)}, fallback=PowerKernel(2, 2))
    assert W.rho((1, 0)) == 5
    assert W.rho((0, 1)) == 2  # falls through
    bare = TableWeight(2, {(0, 0): F(1)})
    with pytest.raises(WeightDomainError):
        bare.rho((1, 0))
    with pytest.raises(ValueError):
        TableWeight(2, {(0, 0): F(0)})
    with pytest.raises(ValueError):
        TableWeight(2, {(0, 0, 0): F(1)})


def test_weight_positivity_guard():
    class Broken(PowerKernel):
        def _rho(self, alpha):
            return F(-1)

    W = Broken(2, 1)
    with pytest.raises(WeightDomainError):
        W.rho((1,))


# -- the perturbed counterexample family ------------------------------------


def test_perturbed_block_base_degrees():
    assert PerturbedPower(2, 2, 1).base_degrees == [63]
    assert PerturbedPower(2, 2, 2).base_degrees == [63, 511]
    # Blocks must stay separated: b_l > b_{l-1} + 2(l-1).
    degrees = PerturbedPower(2, 2, 4).base_degrees
    for l in range(1, len(degrees)):
        assert degrees[l] > degrees[l - 1] + 2 * l


def test_perturbed_entries_desk_scale():
    W = PerturbedPower(2, 2, 2)
    assert W.perturbed_entries() == [((2, 511), 2)]
    assert W.divisor((2, 511)) == 2
    assert W.divisor((1, 511)) == 1
    assert W.divisor((3, 511)) == 1
    assert W.divisor((2, 510)) == 1
    assert W.rho((2, 511)) == PowerKernel(2, 2).rho((2, 511)) / 2


def test_perturbed_divisor_profile_rises_to_block_index():
    W = PerturbedPower(2, 2, 3)
    b3 = W.base_degrees[2]
    profile = [W.divisor((j, b3)) for j in range(0, 7)]
    assert profile == [1, 1, 2, 3, 2, 1, 1]


def test_perturbed_rho_ratio_matches_quotient():
    rng = random.Random(13)
    W = PerturbedPower(2, 2, 2)
    b = W.base_degrees[-1]
    for _ in range(60):
        alpha = (rng.randint(0, 6), b + rng.randint(-2, 2))
        beta = (rng.randint(0, alpha[0]), rng.randint(0, 2))
        if not mi.leq(beta, alpha):
            continue
        assert W.rho_ratio(alpha, beta) == W.rho(mi.sub(alpha, beta)) / W.rho(alpha)


@pytest.mark.parametrize("m", [2, 3])
def test_perturbed_rho_ratio_near_and_off_the_rays(m):
    # The divisors change only on the perturbed entries, so check those,
    # every index one unit step away, and random indices elsewhere, with
    # unit steps and random dominated betas.
    rng = random.Random(17 + m)
    W = PerturbedPower(2, m, 2)
    units = [mi.unit(m, i) for i in range(m)]
    points = set()
    for alpha, _ in W.perturbed_entries():
        points.add(alpha)
        for e in units:
            points.add(mi.add(alpha, e))
            if mi.leq(e, alpha):
                points.add(mi.sub(alpha, e))
    top = W.base_degrees[-1] + 4
    points.update(tuple(rng.randint(0, top) for _ in range(m)) for _ in range(40))
    for alpha in sorted(points):
        betas = [e for e in units if mi.leq(e, alpha)]
        betas.append(tuple(rng.randint(0, min(a, 3)) for a in alpha))
        for beta in betas:
            assert W.rho_ratio(alpha, beta) == W.rho(mi.sub(alpha, beta)) / W.rho(alpha)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        W.rho_ratio((1,) * (m + 1), units[0])
    with pytest.raises(ValueError, match="^dimension mismatch in rho_ratio$"):
        W.rho_ratio((1,) * m, (1,) * (m + 1))
    with pytest.raises(ValueError, match="is not dominated by"):
        W.rho_ratio((0,) * m, units[0])


def test_perturbed_requires_two_dimensions_and_order_two():
    with pytest.raises(ValueError):
        PerturbedPower(1, 2, 2)
    with pytest.raises(ValueError):
        PerturbedPower(2, 1, 2)
    with pytest.raises(ValueError):
        PerturbedPower(2, 2, 0)


# -- serialization ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [("3/4", F(3, 4)), ("7", F(7)), (" 2/6 ", F(1, 3)), (5, F(5))],
)
def test_parse_fraction(text, expected):
    assert parse_fraction(text) == expected


@pytest.mark.parametrize("bad", ["abc", "1/0", None, 1.5, True])
def test_parse_fraction_rejects(bad):
    with pytest.raises(WeightSpecError):
        parse_fraction(bad)


def test_weight_dict_round_trip():
    rng = random.Random(14)
    weights = [
        PowerKernel(3, 2),
        RadialWeight(1, PowerSequence(2)),
        RadialWeight(2, GeometricSequence(F(1, 2))),
        RadialWeight(2, PolynomialSequence([F(2), F(1)])),
        RadialWeight(1, ExplicitSequence([F(1), F(3, 2), F(2)])),
        TableWeight(2, {(1, 1): F(7, 3)}, fallback=PowerKernel(2, 2)),
        PerturbedPower(2, 2, 2),
    ]
    for W in weights:
        clone = weight_from_dict(W.spec_dict())
        assert clone.m == W.m
        for _ in range(10):
            alpha = tuple(rng.randint(0, 2) for _ in range(W.m))
            assert clone.rho(alpha) == W.rho(alpha)


def test_weight_dict_rejects_malformed():
    with pytest.raises(WeightSpecError):
        weight_from_dict({"kind": "nope"})
    with pytest.raises(WeightSpecError):
        weight_from_dict({"kind": "power"})
    with pytest.raises(WeightSpecError):
        weight_from_dict({"kind": "radial", "m": 1, "a": {"generator": "unknown"}})
    with pytest.raises(WeightSpecError):
        weight_from_dict({"kind": "table", "m": 2, "entries": [], "fallback": "hardy"})
    with pytest.raises(WeightSpecError):
        weight_from_dict([1, 2])


def test_table_weight_only_serializes_power_fallbacks():
    W = TableWeight(1, {(0,): F(2)}, fallback=RadialWeight(1, PowerSequence(1)))
    with pytest.raises(WeightSpecError):
        W.spec_dict()


# -- metric evaluation ------------------------------------------------------


def test_eval_metric_at_origin_is_rho_theta():
    # Exact for every family, including a table with no fallback.
    W = TableWeight(2, {(0, 0): F(5, 3), (1, 0): F(1), (0, 1): F(2)})
    got = metric_jet(W, (0.0, 0.0))
    with mp.workprec(80):
        assert abs(got.h - mp.mpf(5) / 3) < mp.mpf(10) ** -20
    assert got.tail_h == 0


def test_metric_jet_at_origin_is_exact():
    W = TableWeight(2, {(0, 0): F(1), (1, 0): F(5), (0, 1): F(7)})
    jet = metric_jet(W, (0.0, 0.0))
    assert jet.h == 1
    assert jet.grad == (0, 0)
    assert jet.hess[0][0] == 5 and jet.hess[1][1] == 7
    assert jet.hess[0][1] == 0 and jet.hess[1][0] == 0
    assert jet.tail_h == jet.tail_grad == jet.tail_hess == 0


def test_eval_metric_power_kernel_closed_form():
    # h(w) = (1 - |w|^2)^(-n); at m=1, w=0.5, n=1 this is 4/3.
    got = metric_jet(PowerKernel(1, 1), (0.5,), max_degree=120, precision_bits=120)
    with mp.workprec(120):
        assert abs(got.h - mp.mpf(4) / 3) <= got.tail_h + mp.mpf(10) ** -30
    assert got.tail_h < 1e-20

    with mp.workprec(120):
        for n, m, w in [(2, 2, (0.3, 0.4j)), (3, 2, (0.5, 0.1)), (2, 1, (0.7j,))]:
            got = metric_jet(PowerKernel(n, m), w, max_degree=150, precision_bits=120)
            t = sum(abs(mp.mpc(x)) ** 2 for x in w)
            assert abs(got.h - (1 - t) ** (-n)) <= got.tail_h + mp.mpf(10) ** -30


def test_metric_jet_matches_closed_form_derivatives():
    # For h = (1-t)^(-n): dh/dw_i = n (1-t)^(-n-1) conj(w_i),
    # d^2 h / dw_i dconj(w_j) = n(n+1)(1-t)^(-n-2) conj(w_i) w_j + n(1-t)^(-n-1) delta_ij.
    n, w = 2, (0.3, 0.2 + 0.4j)
    jet = metric_jet(PowerKernel(n, 2), w, max_degree=150, precision_bits=120)
    with mp.workprec(120):
        wv = [mp.mpc(x) for x in w]
        t = sum(abs(x) ** 2 for x in wv)
        g1 = n * (1 - t) ** (-n - 1)
        g2 = n * (n + 1) * (1 - t) ** (-n - 2)
        for i in range(2):
            assert abs(jet.grad[i] - g1 * mp.conj(wv[i])) <= jet.tail_grad + mp.mpf(10) ** -25
            for j in range(2):
                expected = g2 * mp.conj(wv[i]) * wv[j] + (g1 if i == j else 0)
                assert abs(jet.hess[i][j] - expected) <= jet.tail_hess + mp.mpf(10) ** -25


def test_metric_corrections_enter_exactly():
    # Halving rho at (1,1) subtracts (rho/2) |w1 w2|^2 from the base metric.
    base = PowerKernel(2, 2)
    W = TableWeight(2, {(1, 1): base.rho((1, 1)) / 2}, fallback=base)
    w = (0.5, 0.4)
    with mp.workprec(120):
        h_base = metric_jet(base, w, max_degree=150, precision_bits=120)
        h_pert = metric_jet(W, w, max_degree=150, precision_bits=120)
        delta = -mp.mpf(3) * mp.mpf(0.5) ** 2 * mp.mpf(0.4) ** 2  # rho((1,1)) = 6
        assert abs((h_pert.h - h_base.h) - delta) < 1e-25


def test_metric_decomposition_merges_and_sorts():
    base = PowerKernel(2, 2)
    W = TableWeight(
        2,
        {(0, 2): base.rho((0, 2)) * 2, (1, 0): base.rho((1, 0)), (2, 0): F(1)},
        fallback=base,
    )
    seq, corrections = W.metric_decomposition()
    # The untouched (1,0) entry drops out; the rest arrive in graded order.
    assert [alpha for alpha, _ in corrections] == [(0, 2), (2, 0)]
    assert corrections[0][1] == base.rho((0, 2))
    assert isinstance(seq, PowerSequence) and seq.n == 2


def test_perturbed_metric_decomposition():
    W = PerturbedPower(2, 2, 2)
    seq, corrections = W.metric_decomposition()
    rho = PowerKernel(2, 2).rho((2, 511))
    assert corrections == [((2, 511), rho / 2 - rho)]
    assert isinstance(seq, PowerSequence) and seq.n == 2


def test_metric_domain_errors():
    W = PowerKernel(2, 2)
    with pytest.raises(BallDomainError):
        metric_jet(W, (1.0, 0.0))
    with pytest.raises(BallDomainError):
        metric_jet(W, (0.8, 0.7))
    with pytest.raises(ValueError):
        metric_jet(W, (0.5,))
    with pytest.raises(ValueError):
        metric_jet(W, (0.1, 0.1), precision_bits=32)


def test_metric_tail_refusals():
    # Geometric growth 2 at |w|^2 = 0.64 has ratio * t > 1: no usable tail.
    W = RadialWeight(1, GeometricSequence(F(2)))
    with pytest.raises(TailUnreliableError):
        metric_jet(W, (0.8,))
    # ... but converges fine well inside the ball.
    got = metric_jet(W, (0.5,), max_degree=80)
    with mp.workprec(80):
        assert abs(got.h - 1 / (1 - mp.mpf(0.5))) <= got.tail_h + mp.mpf(10) ** -18

    nobound = RadialWeight(1, PolynomialSequence([F(1), F(-1), F(1)]))
    with pytest.raises(TailUnreliableError):
        metric_jet(nobound, (0.3,))

    bare = TableWeight(1, {(0,): F(1)})
    with pytest.raises(TailUnreliableError):
        metric_jet(bare, (0.3,))

    short = RadialWeight(1, ExplicitSequence([F(1), F(1)]))
    with pytest.raises(SequenceExhausted):
        metric_jet(short, (0.3,), max_degree=40)


def test_metric_truncation_degree_controls_tail():
    W = PowerKernel(2, 1)
    coarse = metric_jet(W, (0.6,), max_degree=30)
    fine = metric_jet(W, (0.6,), max_degree=90)
    assert fine.tail_h < coarse.tail_h / 1e10
    assert abs(fine.h - coarse.h) <= coarse.tail_h


@pytest.mark.parametrize("d", [0, 1, 2])
def test_metric_jet_tails_match_geometric_closed_forms(d):
    # PowerKernel(1, 1) has h = g(t) = 1/(1-t) with a(j) = 1 and ratio bound
    # 1, so the geometric tail bounds are exact: beyond degree d the series
    # of g, g' = 1/(1-t)^2 and g'' = 2/(1-t)^3 leave exactly these tails.
    jet = metric_jet(PowerKernel(1, 1), (0.5,), max_degree=d, precision_bits=120)
    with mp.workprec(120):
        t = mp.mpf(1) / 4
        tails = (
            1 / (1 - t) - sum(t**j for j in range(d + 1)),
            1 / (1 - t) ** 2 - sum(j * t ** (j - 1) for j in range(1, d + 1)),
            2 / (1 - t) ** 3 - sum(j * (j - 1) * t ** (j - 2) for j in range(2, d + 1)),
        )
        for got, want in zip((jet.tail_h, jet.tail_grad, jet.tail_hess), tails):
            assert abs(got - want) <= mp.mpf(10) ** -30


# -- the memoized radial series -----------------------------------------------


def test_series_memo_matches_a_fresh_sequence():
    # One t at two precisions and two truncation degrees, each asked twice:
    # every answer equals that of a sequence that was never asked before.
    seq = PolynomialSequence([F(1), F(2), F(1)])
    answers = {}
    for _ in range(2):
        for bits in (80, 120):
            for d in (30, 90):
                with mp.workprec(bits):
                    t = mp.mpf(0.37)
                    fresh = PolynomialSequence([F(1), F(2), F(1)]).series(t, d)
                    got = seq.series(t, d)
                assert got == fresh
                answers.setdefault((bits, d), got)
                assert got is answers[(bits, d)]
    # The precision is part of the key: the two precisions round differently.
    assert answers[(80, 90)][0] != answers[(120, 90)][0]


def test_weights_share_their_radial_sequence():
    W = PerturbedPower(2, 2, 2)
    seq = W.base.radial_sequence()
    assert W.base.radial_sequence() is seq
    assert W.metric_decomposition()[0] is seq
    base = PowerKernel(2, 2)
    T = TableWeight(2, {(1, 1): F(1)}, fallback=base)
    assert T.metric_decomposition()[0] is base.radial_sequence()


def decomposition_families():
    base = PowerKernel(2, 2)
    table = TableWeight(
        2,
        {(1, 1): F(7, 3), (2, 1): F(5), (2, 2): base.rho((2, 2)), (0, 3): F(1, 2)},
        fallback=base,
    )
    radial = [
        RadialWeight(2, seq)
        for seq in (
            PowerSequence(3),
            GeometricSequence(F(2, 3)),
            PolynomialSequence([F(1), F(1, 2), F(3)]),
            ExplicitSequence([F(k * k + 1, k + 2) for k in range(8)]),
        )
    ]
    window = [(j, b) for j in range(5) for b in range(509, 514)]
    small = mi.enumerate_leq_degree(2, 7)
    yield PowerKernel(3, 3), mi.enumerate_leq_degree(3, 5)
    for W in radial:
        yield W, small
    yield PerturbedPower(2, 2, 2), window
    yield table, small


def test_unit_steps_follow_the_metric_decomposition():
    # rho is the radial base exactly off the listed corrections, so every
    # unit step with neither end listed is alpha_i a(N-1) / (N a(N)).
    for W, indices in decomposition_families():
        base, corrections = W.metric_decomposition()
        delta = dict(corrections)
        for alpha in indices:
            N = mi.degree(alpha)
            radial = base.value(N) * F(factorial(N), mi.factorial(alpha))
            assert W.rho(alpha) == radial + delta.get(alpha, 0)
            for i, a in enumerate(alpha):
                below = mi.sub(alpha, mi.unit(W.m, i)) if a else None
                if below is None or alpha in delta or below in delta:
                    continue
                step = a * base.value(N - 1) / (N * base.value(N))
                assert step == W.rho(below) / W.rho(alpha) == W.rho_ratio(alpha, mi.unit(W.m, i))

