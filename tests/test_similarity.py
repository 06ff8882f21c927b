"""Ray-product ratio diagnostics and the similarity scan."""

import random
from fractions import Fraction

import pytest

from hypershift import (
    ExplicitSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    ray_ratio_sq,
    ray_ratio_sq_literal,
    similarity_scan,
)
from hypershift import multiindex as mi

from helpers import random_radial_sequence

F = Fraction


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


def test_ray_ratio_ignores_overall_scaling():
    base = PowerKernel(2, 2)
    scaled = TableWeight(
        2, {alpha: 3 * base.rho(alpha) for alpha in mi.enumerate_leq_degree(2, 12)}
    )
    for alpha, i, l in [((0, 0), 0, 5), ((2, 1), 1, 8), ((3, 3), 0, 0)]:
        assert ray_ratio_sq(scaled, base, alpha, i, l) == 1


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
