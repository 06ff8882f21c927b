"""Weight families, serialization, and the diagonal metric evaluator."""

import json
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypershift import (
    BallDomainError,
    DimensionMismatch,
    ExplicitSequence,
    GeometricSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialSequence,
    RadialWeight,
    SequenceExhausted,
    TableWeight,
    TailUnreliableError,
    WeightDomainError,
    WeightFunction,
    WeightSpecError,
    curvature_points,
    parse_fraction,
    ray_ratio_sq,
    ray_ratio_sq_literal,
    weight_from_dict,
)
import hypershift.curvature as curvature_module
from hypershift import multiindex as mi
from hypershift.curvature import metric_jets

from helpers import (
    family_ratio_sup,
    point_jet,
    random_radial_sequence,
    random_table_weight,
    random_weight,
    to_mp,
    wirtinger,
)

F = Fraction


# -- radial sequences -------------------------------------------------------


def test_power_sequence_is_binomial():
    a = PowerSequence(3)
    assert [a.value(i) for i in range(5)] == [1, 3, 6, 10, 15]
    # a(i+1)/a(i) = (n+i)/(i+1) is what ratio_sup promises, exactly.
    for n in range(1, 13):
        a = PowerSequence(n)
        for start in range(301):
            step = a.value(start + 1) / a.value(start)
            assert a.ratio_sup(start) == step == F(n + start, start + 1)


def test_geometric_and_polynomial_values():
    g = GeometricSequence(F(3, 2))
    assert g.value(3) == F(27, 8)
    p = PolynomialSequence([F(2), F(1)])
    assert [p.value(i) for i in range(4)] == [2, 3, 4, 5]


def test_polynomial_sequence_positivity_is_enforced():
    with pytest.raises(ValueError):
        PolynomialSequence([F(-1)])
    dipping = PolynomialSequence([F(1), F(-1)])  # 1 - i
    # The memo keeps values only: the same error on every request.
    for _ in range(2):
        with pytest.raises(WeightDomainError, match="not positive at index 2"):
            dipping.value(2)
    assert dipping.value(0) == 1
    with pytest.raises(ValueError, match="index must be >= 0"):
        dipping.value(-1)
    assert dipping.ratio_sup(0) is None


def test_polynomial_ratio_sup_bounds_actual_ratios():
    p = PolynomialSequence([F(1), F(1)])  # a(i) = i + 1
    for start in range(0, 8):
        bound = p.ratio_sup(start)
        for i in range(start, start + 20):
            assert p.value(i + 1) / p.value(i) <= bound


_positive = st.builds(F, st.integers(1, 9), st.integers(1, 9))
_nonnegative_cubics = st.tuples(
    _positive, st.lists(st.builds(F, st.integers(0, 9), st.integers(1, 9)), max_size=3)
).map(lambda t: [t[0], *t[1]])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.one_of(
        st.integers(1, 12).map(PowerSequence),
        _positive.map(GeometricSequence),
        _nonnegative_cubics.map(PolynomialSequence),
        # p(d) r^d with p a cubic: no family has a rule for it.
        st.tuples(_nonnegative_cubics, _positive).map(lambda t: PolynomialSequence(*t)),
    ),
    st.integers(0, 300),
)
@example(PolynomialSequence([F(1), F(1)]), 9)  # power(2) written as i + 1
@example(PolynomialSequence([F(1), F(1)], F(3, 2)), 0)
def test_one_ratio_bound_for_every_closed_form_base(a, start):
    # Equal to the power and geometric rules, never above the polynomial
    # rule, and above every actual step in a window past the start.
    bound = a.ratio_sup(start)
    spec = a.spec_dict()
    if spec is not None:
        oracle = family_ratio_sup(spec, start)
        assert bound <= oracle if spec["generator"] == "polynomial" else bound == oracle
    for i in range(start, start + 24):
        assert a.value(i + 1) / a.value(i) <= bound


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


_P2, _P3 = PowerKernel(2, 2), PowerKernel(2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _P2.rho((1,)), "multi-index has length 1, weight has m = 2"),
        (lambda: _P2.rho_ratio((1,), (0, 0)), "dimension mismatch"),
        (lambda: _P2.rho_ratio((1, 1), (1,)), "dimension mismatch in rho_ratio"),
        (lambda: TableWeight(2, {(1,): 1}), "table entry (1,) has wrong dimension"),
        (lambda: TableWeight(2, {}, _P3), "fallback weight has mismatched dimension"),
        (lambda: metric_jets([_P2], [(0.5,)]), "point has dimension 1, weight has m = 2"),
        (lambda: curvature_points([_P2, _P3], [(0.0, 0.0)]), "weights have dimensions 2 and 3"),
        (lambda: ray_ratio_sq(_P2, _P3, (0, 0), 0, 1), "weights have dimensions 2 and 3"),
    ],
    ids=[
        "rho",
        "rho_ratio-alpha",
        "rho_ratio-beta",
        "table-entry",
        "table-fallback",
        "metric_jets-point",
        "curvature_points-pair",
        "similarity-pair",
    ],
)
def test_every_dimension_check_raises_dimension_mismatch(call, message):
    # A DimensionMismatch is a ValueError, so the CLI still exits 2 with the
    # same message.
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mi.enumerate_exact_degree(0, 1), "dimension must be >= 1"),
        (lambda: mi.enumerate_exact_degree(2, -1), "degree must be >= 0"),
        (lambda: mi.enumerate_leq_degree(0, 1), "dimension must be >= 1"),
        (lambda: mi.verify_alternating_sum(0, 0), "n must be >= 1"),
        (lambda: ray_ratio_sq_literal(_P2, _P2, (0, 0), 0, -1), "ray length must be >= 0"),
        (lambda: PowerSequence(0), "kernel power n must be >= 1"),
        (lambda: GeometricSequence(0), "geometric ratio must be positive"),
        (lambda: PolynomialSequence([]), "polynomial sequence needs at least one coefficient"),
        (lambda: PowerSequence(2).value(-1), "sequence index must be >= 0"),
        (lambda: GeometricSequence(F(1, 2)).value(-1), "sequence index must be >= 0"),
        (lambda: ExplicitSequence([1]).value(-1), "sequence index must be >= 0"),
        (lambda: PowerKernel(2, 0), "dimension m must be >= 1"),
    ],
    ids=[
        "exact-degree-m",
        "exact-degree-d",
        "leq-degree-m",
        "alternating-sum-n",
        "ray-literal-length",
        "power-sequence-n",
        "geometric-sequence-r",
        "polynomial-sequence-empty",
        "power-value-index",
        "geometric-value-index",
        "explicit-value-index",
        "power-kernel-m",
    ],
)
def test_every_refusal_keeps_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_rho_ratio_rejects_undominated():
    W = PowerKernel(2, 2)
    with pytest.raises(ValueError):
        W.rho_ratio((1, 0), (2, 0))


def test_shift_weight_sq_is_the_step_quotient():
    W = PowerKernel(3, 2)
    for alpha in mi.enumerate_leq_degree(2, 4):
        for i in range(2):
            e = mi.unit(2, i)
            # The squared shift weight rho(alpha) / rho(alpha + e_i).
            assert W.rho_ratio(mi.add(alpha, e), e) == W.rho(alpha) / W.rho(mi.add(alpha, e))


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
    class Negative(RadialSequence):
        def value(self, i):
            return F(-1)

    W = RadialWeight(1, Negative())
    with pytest.raises(WeightDomainError):
        W.rho((1,))
    # A sequence that is not positive at an entry gives no split.
    assert TableWeight(1, {(1,): F(1)}, fallback=W).corrections is None


# -- the perturbed counterexample family ------------------------------------


def test_perturbed_block_base_degrees():
    assert PerturbedPower(2, 2, 1).base_degrees == [63]
    assert PerturbedPower(2, 2, 2).base_degrees == [63, 511]
    # Blocks must stay separated: b_l > b_{l-1} + 2(l-1).
    degrees = PerturbedPower(2, 2, 4).base_degrees
    for l in range(1, len(degrees)):
        assert degrees[l] > degrees[l - 1] + 2 * l


def test_block_base_degrees_are_the_smallest_admissible():
    # b_l is the smallest integer above n^n 2^{3l+1}/(n-1)! - n, and it meets
    # the docstring's two bounds with no adjustment.
    for n in range(2, 13):
        for L in range(1, 9):
            degrees = PerturbedPower(n, 2, L).base_degrees
            for l, b in enumerate(degrees, start=1):
                assert b - 1 <= F(n**n * 2 ** (3 * l + 1), factorial(n - 1)) - n < b
                assert b > n - 2
                if l > 1:
                    assert b > degrees[l - 2] + 2 * (l - 1)


def test_perturbed_entries_desk_scale():
    W = PerturbedPower(2, 2, 2)
    assert W.perturbed_entries() == [((2, 511), 2)]
    assert W.rho((2, 511)) == PowerKernel(2, 2).rho((2, 511)) / 2


def test_perturbed_divisor_profile_rises_to_block_index():
    W = PerturbedPower(2, 2, 3)
    b3 = W.base_degrees[2]
    divisors = dict(W.perturbed_entries())
    profile = [divisors.get((j, b3), 1) for j in range(0, 7)]
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


def assert_rho_ratio_is_the_quotient(W, entries, top, rng):
    """rho_ratio(alpha, beta) == rho(alpha - beta) / rho(alpha) at every
    index in ``entries``, every index one unit step away, and 40 random
    indices with coordinates <= top, for unit steps and a random dominated
    beta.  Where a value is undefined, rho_ratio raises the quotient's error
    at the same index.  Both length errors and a non-dominated beta are
    refused as for the perturbed family."""
    m = W.m
    units = [mi.unit(m, i) for i in range(m)]
    points = set()
    for alpha in entries:
        points.add(alpha)
        for e in units:
            points.add(mi.add(alpha, e))
            if mi.leq(e, alpha):
                points.add(mi.sub(alpha, e))
    points.update(tuple(rng.randint(0, top) for _ in range(m)) for _ in range(40))
    for alpha in sorted(points):
        betas = [e for e in units if mi.leq(e, alpha)]
        betas.append(tuple(rng.randint(0, min(a, 3)) for a in alpha))
        for beta in betas:
            try:
                expected = W.rho(mi.sub(alpha, beta)) / W.rho(alpha)
            except WeightDomainError as exc:
                with pytest.raises(type(exc)) as caught:
                    W.rho_ratio(alpha, beta)
                assert str(caught.value) == str(exc)
                continue
            assert W.rho_ratio(alpha, beta) == expected
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        W.rho_ratio((1,) * (m + 1), units[0])
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        W.rho_ratio((1,) * (m - 1), units[0])
    with pytest.raises(ValueError, match="^dimension mismatch in rho_ratio$"):
        W.rho_ratio((1,) * m, (1,) * (m + 1))
    with pytest.raises(ValueError, match="is not dominated by"):
        W.rho_ratio((0,) * m, units[0])


@pytest.mark.parametrize("m", [2, 3])
def test_perturbed_rho_ratio_near_and_off_the_rays(m):
    # The divisors change only on the perturbed entries, so check those,
    # every index one unit step away, and random indices elsewhere.
    W = PerturbedPower(2, m, 2)
    entries = [alpha for alpha, _ in W.perturbed_entries()]
    assert_rho_ratio_is_the_quotient(W, entries, W.base_degrees[-1] + 4, random.Random(17 + m))


def _power_fallback_table(m):
    # Entries off and equal to the power:2 values, two of them unit-step
    # neighbours; (1, 1, ...) carries its fallback value.
    fallback = PowerKernel(2, m)
    corner = (1,) * m
    scaled = {(2, 3) + (0,) * (m - 2): F(1, 2), (3, 3) + (0,) * (m - 2): F(3, 5)}
    entries = {alpha: c * fallback.rho(alpha) for alpha, c in scaled.items()}
    entries[corner] = fallback.rho(corner)
    return TableWeight(m, entries, fallback)


def _table_over_undefined_table():
    # The inner table has no fallback and skips (2, 2); the outer one
    # overrides (1, 1) and (2, 3) and reads the inner one elsewhere.
    inner = TableWeight(
        2, {a: F(sum(a) + 1, a[0] + 2) for a in mi.enumerate_leq_degree(2, 6) if a != (2, 2)}
    )
    return TableWeight(2, {(1, 1): F(5), (2, 3): F(7, 3)}, fallback=inner)


_RATIO_CASES = {
    "power": lambda: PowerKernel(3, 2),
    "radial-power": lambda: RadialWeight(2, PowerSequence(2)),
    "radial-geometric": lambda: RadialWeight(2, GeometricSequence(F(3, 2))),
    "radial-polynomial": lambda: RadialWeight(3, PolynomialSequence([F(1), F(0), F(1, 2)])),
    # 16 terms: indices of degree > 15 raise SequenceExhausted.
    "radial-explicit": lambda: RadialWeight(2, ExplicitSequence([F(k + 1, 2) for k in range(16)])),
    "table-power-fallback-m2": lambda: _power_fallback_table(2),
    "table-power-fallback-m3": lambda: _power_fallback_table(3),
    # Defined up to degree 6 only.
    "table-no-fallback": lambda: random_table_weight(random.Random(5), m=2, degree=6),
    "table-over-undefined-table": _table_over_undefined_table,
}


@pytest.mark.parametrize("kind", sorted(_RATIO_CASES))
def test_rho_ratio_near_and_off_the_entries(kind):
    # Tables hand rho_ratio to their fallback off their entries, so every
    # kind is checked against the quotient of two rho values, near its
    # entries and at random indices, undefined values included.
    W = _RATIO_CASES[kind]()
    entries = sorted(getattr(W, "entries", {}))
    assert_rho_ratio_is_the_quotient(W, entries, 9, random.Random(len(kind)))


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


@pytest.mark.parametrize(
    "bad",
    ["abc", "1/0", None, 1.5, True, "1_0/3", "\uff12/3", "0.5", "1e-5000", "1E3", "+3", "inf"],
)
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


def _report_weights():
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        report = json.loads(path.read_text())
        for key, spec in report.get("params", {}).items():
            if key.startswith("weight"):
                yield f"{path.name}:{key}", spec


@pytest.mark.parametrize(
    "spec, canonical",
    [
        (
            {
                "kind": "table",
                "m": 2,
                "entries": [
                    {"alpha": [1, 1], "rho": "6/4"},
                    {"alpha": [0, 0], "rho": "1"},
                    {"alpha": [2, 0], "rho": "5"},
                ],
                "fallback": "none",
            },
            {
                "kind": "table",
                "m": 2,
                "entries": [
                    {"alpha": [0, 0], "rho": "1/1"},
                    {"alpha": [1, 1], "rho": "3/2"},
                    {"alpha": [2, 0], "rho": "5/1"},
                ],
            },
        ),
        (
            {
                "kind": "table",
                "m": 2,
                "entries": [{"alpha": [0, 3], "rho": "6/4"}, {"alpha": [2, 0], "rho": "2/2"}],
                "fallback": "power:2",
            },
            {
                "kind": "table",
                "m": 2,
                "entries": [{"alpha": [2, 0], "rho": "1/1"}, {"alpha": [0, 3], "rho": "3/2"}],
                "fallback": "power:2",
            },
        ),
        (
            {"kind": "radial", "m": 1, "a": {"generator": "polynomial", "coefficients": ["2/2"]}},
            {"kind": "radial", "m": 1, "a": {"generator": "polynomial", "coefficients": ["1/1"]}},
        ),
        (
            {"kind": "radial", "m": 2, "a": {"generator": "geometric", "r": "4/6"}},
            {"kind": "radial", "m": 2, "a": {"generator": "geometric", "r": "2/3"}},
        ),
        (
            {"kind": "radial", "m": 2, "a": {"list": ["2/2", "3"]}},
            {"kind": "radial", "m": 2, "a": {"list": ["1/1", "3/1"]}},
        ),
        *(pytest.param(spec, spec, id=name) for name, spec in _report_weights()),
    ],
)
def test_spec_dict_is_the_canonical_form(spec, canonical):
    # A weight's spec is rebuilt from its parsed values, not echoed: reduced
    # rationals, entries in graded order, no "fallback": "none"; and every
    # weight a golden report lists in its params is already canonical.
    assert weight_from_dict(spec).spec_dict() == canonical


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


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "radial", "m": 2, "a": "xyz"}, "radial sequence spec must be an object"),
        ({"kind": "radial", "m": 2, "a": ["list"]}, "radial sequence spec must be an object"),
        ({"kind": "power", "n": 2.9, "m": 2}, "n must be an integer, got 2.9"),
        ({"kind": "power", "n": 2, "m": True}, "m must be an integer, got True"),
        ({"kind": "power", "n": "2", "m": 2}, "n must be an integer, got '2'"),
        ({"kind": "radial", "m": 1.0, "a": {"generator": "power", "n": 2}}, "m must be an"),
        ({"kind": "radial", "m": 1, "a": {"generator": "power", "n": 2.0}}, "n must be an"),
        ({"kind": "perturbed45", "n": 2, "m": 2, "L": 2.5}, "L must be an integer"),
        ({"kind": "radial", "m": 1, "a": {"list": "123"}}, "list must be an array, got '123'"),
        (
            {"kind": "radial", "m": 1, "a": {"generator": "polynomial", "coefficients": "12"}},
            "coefficients must be an array",
        ),
        ({"kind": "table", "m": 1, "entries": {"alpha": [0], "rho": "1"}}, "entries must be"),
        ({"kind": "table", "m": 1, "entries": [{"alpha": 0, "rho": "1"}]}, "alpha must be"),
        (
            {"kind": "table", "m": 2, "entries": [{"alpha": [1.7, 0], "rho": "1"}]},
            "alpha entry must be an integer, got 1.7",
        ),
        (
            {"kind": "table", "m": 2, "entries": [{"alpha": [1, False], "rho": "1"}]},
            "alpha entry must be an integer, got False",
        ),
        (
            {
                "kind": "table",
                "m": 2,
                "entries": [{"alpha": [1, 0], "rho": "1"}, {"alpha": [1, 0], "rho": "2"}],
            },
            "alpha .1, 0. is listed twice",
        ),
        # A fallback order is ASCII digits alone: "power:2_0" used to build
        # power(20), and a sign or a space was taken too.
        *(
            (
                {"kind": "table", "m": 1, "entries": [], "fallback": f"power:{n}"},
                re.escape(f"not a nonnegative integer: {n!r}"),
            )
            for n in ("2_0", " 2", "+2", "2 ", "\u00b2", "\uff12", "")
        ),
        # The dimension is checked before any table entry is held against it.
        (
            {"kind": "table", "m": 0, "entries": [{"alpha": [1], "rho": "1"}]},
            "dimension m must be >= 1",
        ),
    ],
)
def test_weight_dict_is_strict(spec, message):
    # Integers are JSON integers and lists are JSON arrays: nothing is
    # truncated, coerced or read character by character.
    with pytest.raises(WeightSpecError, match=message):
        weight_from_dict(spec)


def test_table_weight_only_serializes_power_fallbacks():
    W = TableWeight(1, {(0,): F(2)}, fallback=RadialWeight(1, PowerSequence(1)))
    with pytest.raises(WeightSpecError):
        W.spec_dict()


# -- metric evaluation ------------------------------------------------------


def test_eval_metric_at_origin_is_rho_theta():
    # Exact for every family, including a table with no fallback.
    W = TableWeight(2, {(0, 0): F(5, 3), (1, 0): F(1), (0, 1): F(2)})
    got = point_jet(W, (0.0, 0.0))
    with mp.workprec(80):
        assert abs(to_mp(got.h) - mp.mpf(5) / 3) < mp.mpf(10) ** -20
    assert got.tail_h == 0


def test_metric_jet_at_origin_is_exact():
    W = TableWeight(2, {(0, 0): F(1), (1, 0): F(5), (0, 1): F(7)})
    jet = point_jet(W, (0.0, 0.0))
    assert jet.h == 1
    assert jet.ds == (5, 7) and jet.dss == ((0, 0), (0, 0))
    grad, hess = wirtinger(jet, (0.0, 0.0))
    assert grad == (0, 0)
    assert hess[0][0] == 5 and hess[1][1] == 7
    assert hess[0][1] == 0 and hess[1][0] == 0
    assert jet.tail_h == jet.tail_grad == jet.tail_hess == 0


def test_eval_metric_power_kernel_closed_form():
    # h(w) = (1 - |w|^2)^(-n); at m=1, w=0.5, n=1 this is 4/3.
    got = point_jet(PowerKernel(1, 1), (0.5,), max_degree=120, precision_bits=120)
    with mp.workprec(120):
        assert abs(to_mp(got.h) - mp.mpf(4) / 3) <= to_mp(got.tail_h) + mp.mpf(10) ** -30
    assert got.tail_h < Decimal("1e-20")

    with mp.workprec(120):
        for n, m, w in [(2, 2, (0.3, 0.4j)), (3, 2, (0.5, 0.1)), (2, 1, (0.7j,))]:
            got = to_mp(point_jet(PowerKernel(n, m), w, max_degree=150, precision_bits=120))
            t = sum(abs(mp.mpc(x)) ** 2 for x in w)
            assert abs(got.h - (1 - t) ** (-n)) <= got.tail_h + mp.mpf(10) ** -30


def test_metric_jet_matches_closed_form_derivatives():
    # For h = (1-t)^(-n): dh/dw_i = n (1-t)^(-n-1) conj(w_i),
    # d^2 h / dw_i dconj(w_j) = n(n+1)(1-t)^(-n-2) conj(w_i) w_j + n(1-t)^(-n-1) delta_ij.
    n, w = 2, (0.3, 0.2 + 0.4j)
    with mp.workprec(120):
        jet = to_mp(point_jet(PowerKernel(n, 2), w, max_degree=150, precision_bits=120))
        grad, hess = wirtinger(jet, w)
        wv = [mp.mpc(x) for x in w]
        t = sum(abs(x) ** 2 for x in wv)
        g1 = n * (1 - t) ** (-n - 1)
        g2 = n * (n + 1) * (1 - t) ** (-n - 2)
        for i in range(2):
            assert abs(grad[i] - g1 * mp.conj(wv[i])) <= jet.tail_grad + mp.mpf(10) ** -25
            for j in range(2):
                expected = g2 * mp.conj(wv[i]) * wv[j] + (g1 if i == j else 0)
                assert abs(hess[i][j] - expected) <= jet.tail_hess + mp.mpf(10) ** -25


def test_metric_corrections_enter_exactly():
    # Halving rho at (1,1) subtracts (rho/2) |w1 w2|^2 from the base metric.
    base = PowerKernel(2, 2)
    W = TableWeight(2, {(1, 1): base.rho((1, 1)) / 2}, fallback=base)
    w = (0.5, 0.4)
    with mp.workprec(120):
        h_base = to_mp(point_jet(base, w, max_degree=150, precision_bits=120))
        h_pert = to_mp(point_jet(W, w, max_degree=150, precision_bits=120))
        delta = -mp.mpf(3) * mp.mpf(0.5) ** 2 * mp.mpf(0.4) ** 2  # rho((1,1)) = 6
        assert abs((h_pert.h - h_base.h) - delta) < 1e-25


def test_metric_decomposition_merges_and_sorts():
    # The metric reads W.sequence and W.corrections.
    base = PowerKernel(2, 2)
    W = TableWeight(
        2,
        {(0, 2): base.rho((0, 2)) * 2, (1, 0): base.rho((1, 0)), (2, 0): F(1)},
        fallback=base,
    )
    # The untouched (1,0) entry drops out; the rest arrive in graded order.
    assert [alpha for alpha, _ in W.corrections] == [(0, 2), (2, 0)]
    assert W.corrections[0][1] == base.rho((0, 2))
    assert W.sequence is base.sequence
    assert W.sequence.spec_dict() == {"generator": "power", "n": 2}
    # A table over a table lists the merged differences from the sequence.
    T = TableWeight(2, {(2, 0): F(5), (1, 1): base.rho((1, 1))}, fallback=W)
    assert T.corrections == [((0, 2), base.rho((0, 2))), ((2, 0), 5 - base.rho((2, 0)))]


def test_perturbed_metric_decomposition():
    P = PerturbedPower(2, 2, 2)
    rho = PowerKernel(2, 2).rho((2, 511))
    assert P.corrections == [((2, 511), rho / 2 - rho)]
    assert P.sequence.spec_dict() == {"generator": "power", "n": 2}


def test_metric_domain_errors():
    W = PowerKernel(2, 2)
    with pytest.raises(BallDomainError):
        point_jet(W, (1.0, 0.0))
    with pytest.raises(BallDomainError):
        point_jet(W, (0.8, 0.7))
    with pytest.raises(ValueError):
        point_jet(W, (0.5,))
    with pytest.raises(ValueError):
        point_jet(W, (0.1, 0.1), precision_bits=32)


def test_metric_tail_refusals():
    # Geometric growth 2 at |w|^2 = 0.64 has ratio * t > 1: no usable tail.
    W = RadialWeight(1, GeometricSequence(F(2)))
    with pytest.raises(TailUnreliableError):
        point_jet(W, (0.8,))
    # ... but converges fine well inside the ball.
    with mp.workprec(80):
        got = to_mp(point_jet(W, (0.5,), max_degree=80))
        assert abs(got.h - 1 / (1 - mp.mpf(0.5))) <= got.tail_h + mp.mpf(10) ** -18

    nobound = RadialWeight(1, PolynomialSequence([F(1), F(-1), F(1)]))
    with pytest.raises(TailUnreliableError):
        point_jet(nobound, (0.3,))

    bare = TableWeight(1, {(0,): F(1)})
    with pytest.raises(TailUnreliableError):
        point_jet(bare, (0.3,))

    short = RadialWeight(1, ExplicitSequence([F(1), F(1)]))
    with pytest.raises(SequenceExhausted):
        point_jet(short, (0.3,), max_degree=40)


def test_metric_truncation_degree_controls_tail():
    W = PowerKernel(2, 1)
    coarse = point_jet(W, (0.6,), max_degree=30)
    fine = point_jet(W, (0.6,), max_degree=90)
    assert fine.tail_h < coarse.tail_h / 10**10
    assert abs(fine.h - coarse.h) <= coarse.tail_h


@pytest.mark.parametrize("d", [0, 1, 2])
def test_metric_jet_tails_match_geometric_closed_forms(d):
    # PowerKernel(1, 1) has h = g(t) = 1/(1-t) with a(j) = 1 and ratio bound
    # 1, so the geometric tail bounds are exact: beyond degree d the series
    # of g, g' = 1/(1-t)^2 and g'' = 2/(1-t)^3 leave exactly these tails.
    with mp.workprec(120):
        jet = to_mp(point_jet(PowerKernel(1, 1), (0.5,), max_degree=d, precision_bits=120))
        t = mp.mpf(1) / 4
        tails = (
            1 / (1 - t) - sum(t**j for j in range(d + 1)),
            1 / (1 - t) ** 2 - sum(j * t ** (j - 1) for j in range(1, d + 1)),
            2 / (1 - t) ** 3 - sum(j * (j - 1) * t ** (j - 2) for j in range(2, d + 1)),
        )
        for got, want in zip((jet.tail_h, jet.tail_grad, jet.tail_hess), tails):
            assert abs(got - want) <= mp.mpf(10) ** -30


# -- the cached radial series -------------------------------------------------


def test_series_memo_matches_a_fresh_sequence(monkeypatch):
    # One metric_jets call sums the base series once per (sequence, t): the
    # classes s = (t, 0) and (0, t) share one t, and the two spec-equal
    # sequences share one key.  At two precisions and two truncation degrees
    # every jet equals that of a sequence evaluated alone at that point.
    sums = []
    real = curvature_module._series

    def counting(*args):
        sums.append(args[-1])
        return real(*args)

    monkeypatch.setattr(curvature_module, "_series", counting)
    points = [(0.6, 0.0), (0.0, 0.6)]

    def weight():
        return RadialWeight(2, PolynomialSequence([F(1), F(2), F(1)]))

    h = {}
    for bits in (80, 120):
        for d in (30, 90):
            sums.clear()
            jets = metric_jets([weight(), weight()], points, max_degree=d, precision_bits=bits)
            assert len(sums) == 1
            for w, row in zip(points, jets):
                fresh = point_jet(weight(), w, max_degree=d, precision_bits=bits)
                assert row == (fresh, fresh)
            h[bits, d] = jets[0][0].h
    # The precision enters the sums: the two precisions round differently.
    assert h[80, 90] != h[120, 90]


def test_weights_share_their_radial_sequence():
    W = PerturbedPower(2, 2, 2)
    seq = W.base.radial_sequence()
    assert W.base.radial_sequence() is seq is W.base.sequence
    assert W.sequence is seq
    base = PowerKernel(2, 2)
    T = TableWeight(2, {(1, 1): F(1)}, fallback=base)
    assert T.sequence is base.radial_sequence()


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
    # rho is the radial value exactly off the listed corrections, so every
    # unit step with neither end listed is alpha_i a(N-1) / (N a(N)).
    for W, indices in decomposition_families():
        base, delta = W.sequence, dict(W.corrections)
        for alpha in indices:
            N = mi.degree(alpha)
            radial = base.value(N) * F(factorial(N), prod(map(factorial, alpha)))
            assert W.rho(alpha) == radial + delta.get(alpha, 0)
            for i, a in enumerate(alpha):
                below = mi.sub(alpha, mi.unit(W.m, i)) if a else None
                if below is None or alpha in delta or below in delta:
                    continue
                step = a * base.value(N - 1) / (N * base.value(N))
                assert step == W.rho(below) / W.rho(alpha) == W.rho_ratio(alpha, mi.unit(W.m, i))


def test_radial_split_lists_corrections_or_no_base():
    P = PerturbedPower(2, 2, 2)
    assert P.sequence.spec_dict() == {"generator": "power", "n": 2}
    assert [alpha for alpha, _ in P.corrections] == [(2, 511)]
    # No fallback: no split.  A fallback undefined at a table entry (an
    # explicit list of three terms below an entry of degree 3): no split
    # either, rather than the fallback's error.
    K = PowerKernel(2, 2)
    bare = TableWeight(2, {(0, 0): F(1)})
    assert (bare.sequence, bare.corrections) == (None, None)
    short = RadialWeight(2, ExplicitSequence([1, 2, 3]))
    assert TableWeight(2, {(3, 0): F(1)}, short).corrections is None
    same = TableWeight(2, {(1, 1): K.rho((1, 1))}, K)
    assert (same.sequence, same.corrections) == (K.sequence, [])


def test_a_weight_with_only_a_rule_for_values_has_no_base():
    # A subclass that states rho alone, over no sequence, has no split: the
    # metric refuses it, and the exact ratios read its values at every index.
    class Values(WeightFunction):
        def _rho(self, alpha):
            return F(1 + sum(alpha))

    W = Values(2, None, {}, None)
    assert W.rho((1, 2)) == 4
    assert W.corrections is None
    assert W.rho_ratio((1, 2), (1, 1)) == F(2, 4)
    with pytest.raises(TailUnreliableError, match="no series tail bound"):
        point_jet(W, (0.1, 0.1))


def _fractions(hi=6):
    return st.builds(F, st.integers(1, hi), st.integers(1, hi))


@st.composite
def split_cases(draw):
    """(W, a): a weight and the sequence its values split against, with a
    None where W has no split."""
    kind = draw(st.sampled_from(["radial", "bare", "short", "perturbed"]))
    if kind == "perturbed":
        W = PerturbedPower(draw(st.integers(2, 3)), 2, draw(st.integers(1, 2)))
        return W, W.base.sequence
    m = draw(st.integers(1, 3))
    alphas = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m), unique=True, max_size=4))
    values = [draw(_fractions()) for _ in alphas]
    if kind == "bare":
        return TableWeight(m, dict(zip(alphas, values))), None
    if kind == "short":
        # An explicit list that ends below the degree of an entry.
        top = (draw(st.integers(1, 4)),) + (0,) * (m - 1)
        entries = {**dict(zip(alphas, values)), top: F(1)}
        short = ExplicitSequence(draw(st.lists(_fractions(), min_size=1, max_size=top[0])))
        return TableWeight(m, entries, RadialWeight(m, short)), None
    a = draw(
        st.one_of(
            st.integers(1, 5).map(PowerSequence),
            _fractions(4).map(GeometricSequence),
            st.lists(_fractions(), min_size=1, max_size=3).map(PolynomialSequence),
        )
    )
    P = RadialWeight(m, a)
    if alphas:  # one entry keeps its radial value
        values[0] = P.rho(alphas[0])
    return TableWeight(m, dict(zip(alphas, values)), P), a


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(split_cases())
def test_split_matches_the_values(case):
    # Off the corrections rho is the radial value; at each listed index it
    # differs from it by the listed nonzero delta; the list is in graded
    # order; and there is no list exactly when some value has no radial
    # counterpart.
    W, a = case
    if a is None:
        assert W.corrections is None
        return
    assert W.sequence is a and W.corrections is not None

    def radial(alpha):
        d = mi.degree(alpha)
        return a.value(d) * mi.multinomial(d, alpha)

    listed = dict(W.corrections)
    assert len(listed) == len(W.corrections)
    assert W.corrections == sorted(W.corrections, key=lambda p: (mi.degree(p[0]), p[0]))
    for alpha, delta in W.corrections:
        assert delta != 0 and W.rho(alpha) - radial(alpha) == delta
    for alpha in [*mi.enumerate_leq_degree(W.m, 8), *W.entries]:
        if alpha not in listed:
            assert W.rho(alpha) == radial(alpha)
