"""Ray-product ratio diagnostics and the similarity scan."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypershift import (
    ExplicitSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    defect_diag,
    necessary_condition,
    ray_ratio_sq,
    ray_ratio_sq_literal,
    similarity_scan,
    weight_from_dict,
)
from hypershift import multiindex as mi
from hypershift import similarity

from helpers import (
    defect_layers,
    random_radial_sequence,
    random_table_weight,
    random_weight,
    reference_similarity_scan,
    scaled,
    single_entry_tables,
)

F = Fraction
DATA = Path(__file__).parent / "data"
POWER22 = PowerKernel(2, 2)


def data_weight(name):
    return weight_from_dict(json.loads((DATA / f"{name}.json").read_text()))


def hardy_line():
    return RadialWeight(1, PolynomialSequence([F(1)]))


def bergman_line():
    return PowerKernel(2, 1)


# -- pointwise ray ratios ----------------------------------------------------


def test_perturbed_ray_hits_the_marked_entry():
    W = PerturbedPower(2, 2, 2)
    P = PowerKernel(2, 2)
    # The ray from (0,511) in direction 0 with two steps passes through the
    # halved entry at (2,511), doubling the squared ratio.
    assert ray_ratio_sq(W, P, (0, 511), 0, 1) == 2
    assert ray_ratio_sq(P, W, (0, 511), 0, 1) == F(1, 2)
    # Shorter or shifted rays miss it.
    assert ray_ratio_sq(W, P, (0, 511), 0, 0) == 1
    assert ray_ratio_sq(W, P, (0, 510), 0, 1) == 1


def test_ray_ratio_reciprocity_and_identity():
    rng = random.Random(41)
    for _ in range(15):
        W1 = RadialWeight(2, random_radial_sequence(rng, needed_length=40))
        W2 = PowerKernel(rng.randint(1, 4), 2)
        alpha = (rng.randint(0, 4), rng.randint(0, 4))
        i = rng.randint(0, 1)
        l = rng.randint(0, 12)
        r = ray_ratio_sq(W1, W2, alpha, i, l)
        assert r > 0
        assert ray_ratio_sq(W2, W1, alpha, i, l) == 1 / r
        assert ray_ratio_sq(W1, W1, alpha, i, l) == 1


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.tuples(single_entry_tables(2), st.sampled_from([F(1, 3), F(1, 2), F(2), F(7, 3), F(1000)]))
    .map(lambda case: (scaled(*case), case[0]))
)
@example((TableWeight(2, {a: 3 * POWER22.rho(a) for a in mi.enumerate_leq_degree(2, 12)}), POWER22))
def test_ray_ratio_ignores_overall_scaling(pair):
    # W1 = c W2 for a constant c > 0: every ray ratio between them is 1, and
    # the defects and neighbour sums, quotients of W's values, agree.
    W1, W2 = pair
    cells = [((0, 0), 0, 5), ((2, 1), 1, 8), ((3, 3), 0, 0)]
    cells += [(a, i, l) for a in mi.enumerate_leq_degree(2, 3) for i in (0, 1) for l in (0, 2, 5)]
    for alpha, i, l in cells:
        assert ray_ratio_sq(W1, W2, alpha, i, l) == 1
    assert list(defect_layers(W1, 3, 6)) == list(defect_layers(W2, 3, 6))
    for alpha in mi.enumerate_leq_degree(2, 6)[1:]:
        for k in range(4):
            assert defect_diag(W1, k, alpha) == defect_diag(W2, k, alpha)
        assert necessary_condition(W1, 1, alpha).lhs == necessary_condition(W2, 1, alpha).lhs


def test_telescoped_equals_literal_product():
    rng = random.Random(43)
    for _ in range(20):
        m = rng.choice([1, 2])
        W1 = RadialWeight(m, random_radial_sequence(rng, needed_length=40))
        W2 = PowerKernel(rng.randint(1, 3), m)
        alpha = tuple(rng.randint(0, 5) for _ in range(m))
        i = rng.randint(0, m - 1)
        l = rng.randint(0, 20)
        assert ray_ratio_sq(W1, W2, alpha, i, l) == ray_ratio_sq_literal(
            W1, W2, alpha, i, l
        )


def test_hardy_bergman_ray_closed_form():
    H, B = hardy_line(), bergman_line()
    for a in range(0, 8):
        for l in range(0, 15):
            assert ray_ratio_sq(H, B, (a,), 0, l) == F(a + l + 2, a + 1)


def test_ray_ratio_input_errors():
    with pytest.raises(ValueError):
        ray_ratio_sq(PowerKernel(2, 2), PowerKernel(2, 1), (0, 0), 0, 1)
    with pytest.raises(ValueError):
        ray_ratio_sq(PowerKernel(2, 1), PowerKernel(3, 1), (0,), 0, -1)


# -- the scan ----------------------------------------------------------------


def test_scan_of_identical_weights_is_flat():
    W = PowerKernel(2, 2)
    report = similarity_scan(W, W, 3, 4)
    assert report.min_ratio_sq == report.max_ratio_sq == 1
    assert report.spread == report.spread_half == 1
    assert report.verdict == "bounded-in-scan"
    # Deterministic first witness: origin, direction 0, length 0.
    for wit in (report.argmin, report.argmax):
        assert (wit.alpha, wit.direction, wit.length, wit.value) == ((0, 0), 0, 0, F(1))


def test_hardy_bergman_scan_flags_growth():
    H, B = hardy_line(), bergman_line()
    report = similarity_scan(H, B, 10, 20, growth_factor=F(3, 2))
    assert report.max_ratio_sq == 22
    assert (report.argmax.alpha, report.argmax.direction, report.argmax.length) == (
        (0,),
        0,
        20,
    )
    assert report.min_ratio_sq == F(12, 11)
    assert (report.argmin.alpha, report.argmin.direction, report.argmin.length) == (
        (10,),
        0,
        0,
    )
    assert report.spread == F(121, 6)
    assert report.spread_half == 11  # half-window max 12 at ((0,), 0, 10)
    assert report.verdict == "growth-flagged"
    # The default factor of 2 is too blunt for this pair: the spread only
    # grows linearly in the window, never doubling against its half-window.
    assert similarity_scan(H, B, 10, 20).verdict == "bounded-in-scan"


def test_alternating_perturbation_stays_bounded():
    # rho_2 = rho_1 (1 + (-1)^|alpha| / 2): ratios live in [1/3, 3].
    base = PowerSequence(2)
    wob = ExplicitSequence(
        [base.value(i) * (F(3, 2) if i % 2 == 0 else F(1, 2)) for i in range(40)]
    )
    W1 = RadialWeight(2, base)
    W2 = RadialWeight(2, wob)
    report = similarity_scan(W1, W2, 6, 12)
    assert F(1, 3) <= report.min_ratio_sq <= report.max_ratio_sq <= 3
    assert report.verdict == "bounded-in-scan"


def test_perturbed_scan_reaches_the_halved_entry():
    W = PerturbedPower(2, 2, 2)
    P = PowerKernel(2, 2)
    report = similarity_scan(P, W, 2, 3)
    # Rays from |alpha| <= 2 with <= 4 steps cannot reach degree 513.
    assert report.min_ratio_sq == report.max_ratio_sq == 1


def test_scan_input_errors():
    W = PowerKernel(2, 1)
    with pytest.raises(ValueError):
        similarity_scan(W, W, -1, 3)
    with pytest.raises(ValueError):
        similarity_scan(W, W, 3, 3, growth_factor=F(1))
    with pytest.raises(ValueError):
        similarity_scan(W, PowerKernel(2, 2), 3, 3)


# -- the tabled scan against the per-cell reference -------------------------


def assert_matches_reference(W1, W2, base_degree, ray_length, growth_factor=F(2)):
    """Run both scans and compare them cell for cell and on every field the
    CLI reports; return the tabled report."""
    want = reference_similarity_scan(W1, W2, base_degree, ray_length, growth_factor)
    got = similarity_scan(W1, W2, base_degree, ray_length, growth_factor=growth_factor)
    assert list(got.cells()) == [(c.alpha, c.direction, c.length, c.value) for c in want.cells]
    assert (got.argmin, got.argmax) == (want.argmin, want.argmax)
    assert (got.min_ratio_sq, got.max_ratio_sq) == (want.min_ratio_sq, want.max_ratio_sq)
    assert (got.spread, got.spread_half, got.verdict) == (
        want.spread,
        want.spread_half,
        want.verdict,
    )
    return got


def cubic(m):
    return RadialWeight(m, PolynomialSequence([F(3), F(1, 2), F(0), F(2)]))


def both_orders(W1, W2):
    return [(W1, W2), (W2, W1)]


@pytest.mark.parametrize("swap", [False, True])
def test_tabled_scan_power_against_cubic(swap):
    W1, W2 = both_orders(PowerKernel(2, 2), cubic(2))[swap]
    report = assert_matches_reference(W1, W2, 6, 7)
    # No corrections: one table entry per (degree, length), no exact cell.
    assert report.exact == {}
    assert sorted(report.table) == [(N, l) for N in range(7) for l in range(8)]


@pytest.mark.parametrize("swap", [False, True])
def test_tabled_scan_through_a_table_entry(swap):
    W1, W2 = both_orders(data_weight("table_power2_halved"), data_weight("power22"))[swap]
    report = assert_matches_reference(W1, W2, 6, 6)
    # The exact cells are the 2 * 7 cells of the rays from the corrected index
    # (2, 3) and the rays into it: from (2, 0), (2, 1), (2, 2) in direction 1
    # and from (0, 3), (1, 3) in direction 0.
    for alpha, i, l in report.exact:
        top = mi.add(alpha, mi.scale(mi.unit(2, i), l + 1))
        assert (2, 3) in (alpha, top)
    assert len(report.exact) == 14 + 3 + 2
    assert ((2, 0), 1, 2) in report.exact and ((0, 3), 0, 1) in report.exact


@pytest.mark.parametrize("swap", [False, True])
def test_tabled_scan_reaches_the_counterexample_ray(swap):
    W1, W2 = both_orders(PerturbedPower(2, 2, 2), PowerKernel(2, 2))[swap]
    report = assert_matches_reference(W1, W2, 3, 520)
    # The ray from (2, 0) in direction 1 tops out at the halved entry
    # (2, 511) after 511 steps.
    assert ((2, 0), 1, 510) in report.exact
    wit = report.argmin if swap else report.argmax
    assert (wit.alpha, wit.direction, wit.length) == ((2, 0), 1, 510)
    assert wit.value == (F(1, 2) if swap else 2)


@pytest.mark.parametrize("swap", [False, True])
def test_scan_without_a_base_computes_every_cell(swap):
    rng = random.Random(53)
    T = random_table_weight(rng, m=2, degree=9)
    W1, W2 = both_orders(T, PowerKernel(2, 2))[swap]
    report = assert_matches_reference(W1, W2, 3, 4)
    assert report.table == {}
    assert len(report.exact) == 10 * 2 * 5
    # table_nofallback is defined up to degree 1 only.
    W1, W2 = both_orders(data_weight("table_nofallback"), data_weight("power22"))[swap]
    assert len(assert_matches_reference(W1, W2, 0, 0).exact) == 2
    # A fallback undefined at a table entry gives no base either.
    short = RadialWeight(2, ExplicitSequence([1, 2, 3]))
    W1, W2 = both_orders(TableWeight(2, {(3, 0): F(1)}, short), PowerKernel(2, 2))[swap]
    assert len(assert_matches_reference(W1, W2, 0, 1).exact) == 4


@pytest.mark.parametrize("swap", [False, True])
def test_tabled_scan_in_three_variables(swap):
    P = PowerKernel(2, 3)
    T = TableWeight(3, {(1, 0, 2): 2 * P.rho((1, 0, 2)), (0, 2, 1): F(1, 3)}, P)
    W1, W2 = both_orders(T, cubic(3))[swap]
    report = assert_matches_reference(W1, W2, 3, 5)
    assert report.exact and report.table


@pytest.mark.parametrize("base_degree, ray_length", [(0, 0), (0, 6), (5, 0)])
def test_tabled_scan_edge_windows(base_degree, ray_length):
    for W1, W2 in both_orders(data_weight("table_power2_halved"), cubic(2)):
        assert_matches_reference(W1, W2, base_degree, ray_length)
    H, B = hardy_line(), bergman_line()
    assert_matches_reference(H, B, base_degree, ray_length)


def test_tabled_scan_matches_reference_on_random_pairs():
    rng = random.Random(59)
    for _ in range(12):
        W1, W2 = random_weight(rng), random_weight(rng)
        assert_matches_reference(W1, W2, rng.randint(0, 4), rng.randint(0, 5))


@pytest.mark.parametrize(
    "names", [("explicit3", "power22"), ("poly_drop", "power22"), ("explicit3", "poly_drop"),
              ("poly_drop", "explicit3"), ("table_nofallback", "power22")],
)
def test_failing_weights_fail_at_the_reference_cell(names):
    W1, W2 = (data_weight(n) for n in names)
    with pytest.raises(ValueError) as want:
        reference_similarity_scan(W1, W2, 2, 3)
    with pytest.raises(ValueError) as got:
        similarity_scan(W1, W2, 2, 3)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_tabled_scan_computes_one_ratio_per_degree_and_length(monkeypatch):
    calls = []
    inner = similarity.ray_ratio_sq

    def counted(*args):
        calls.append(args[2:])
        return inner(*args)

    monkeypatch.setattr(similarity, "ray_ratio_sq", counted)
    similarity_scan(PowerKernel(2, 2), cubic(2), 14, 10)
    assert len(calls) == 15 * 11  # instead of C(16, 2) * 2 * 11 = 2640 cells
    # Each entry is filled at the first cell of its (degree, length): the
    # first base point of the degree, direction 0.
    assert calls[:2] == [((0, 0), 0, 0), ((0, 0), 0, 1)]
    assert ((0, 1), 0, 0) in calls and ((1, 0), 1, 0) not in calls


def test_polynomial_values_are_evaluated_once_per_index(monkeypatch):
    # The scan asks for a(N) and a(N - b) of poly_a many times per index;
    # each Horner sum runs once, a(0)'s at construction.  power22's base is
    # a PolynomialSequence too, so only poly_a's instance is counted.
    indices = []
    inner = PolynomialSequence._horner
    power22 = data_weight("power22")

    def counted(self, i):
        if self is not power22.sequence:
            indices.append(i)
        return inner(self, i)

    monkeypatch.setattr(PolynomialSequence, "_horner", counted)
    res = similarity_scan(power22, data_weight("poly_a"), 14, 10)
    assert len(indices) == len(set(indices)) == 26
    ref = reference_similarity_scan(data_weight("power22"), data_weight("poly_a"), 14, 10)
    fields = ("min_ratio_sq", "max_ratio_sq", "verdict")
    assert [getattr(res, f) for f in fields] == [getattr(ref, f) for f in fields]
