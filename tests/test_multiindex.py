"""Multi-index arithmetic and the combinatorial identity certificates."""

import random
from itertools import product
from math import comb, factorial, prod

import pytest

from hypershift import multiindex as mi
from hypershift.errors import DimensionMismatch


def test_validate_accepts_plain_tuples():
    assert mi.validate((0, 3, 1)) == (0, 3, 1)
    assert mi.validate([2, 0]) == (2, 0)


@pytest.mark.parametrize("bad", [(), (-1,), (1.5,), (True, 0), ("1",)])
def test_validate_rejects_non_multiindices(bad):
    with pytest.raises(ValueError):
        mi.validate(bad)


def test_degree_and_factorial():
    assert mi.degree((2, 0, 3)) == 5
    # |alpha|!/alpha!, the factor a radial weight reads.
    assert mi.multinomial(5, (2, 0, 3)) == factorial(5) // (factorial(2) * factorial(3))
    assert mi.multinomial(0, (0, 0)) == 1


def test_componentwise_order_and_arithmetic():
    assert mi.leq((1, 2), (1, 3))
    assert not mi.leq((2, 0), (1, 3))
    assert mi.add((1, 2), (3, 0)) == (4, 2)
    assert mi.sub((3, 2), (1, 2)) == (2, 0)
    with pytest.raises(ValueError):
        mi.sub((1, 0), (0, 1))
    with pytest.raises(DimensionMismatch):
        mi.add((1,), (1, 2))


def test_unit_and_scale():
    assert mi.unit(3, 1) == (0, 1, 0)
    assert mi.scale((1, 2), 3) == (3, 6)
    with pytest.raises(ValueError):
        mi.unit(2, 2)
    with pytest.raises(ValueError):
        mi.scale((1,), -1)


def test_enumerate_leq_degree_is_graded_lex():
    got = mi.enumerate_leq_degree(2, 2)
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 5, 8])
def test_enumeration_counts(m, d):
    assert len(mi.enumerate_exact_degree(m, d)) == comb(d + m - 1, m - 1)
    assert len(mi.enumerate_leq_degree(m, d)) == comb(d + m, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_graded_lex_rank_is_the_enumeration_position(m):
    order = mi.enumerate_leq_degree(m, 8)
    for D in range(9):
        prefix = order[: comb(D + m, m)]
        assert prefix == mi.enumerate_leq_degree(m, D)
        for alpha in prefix:
            assert mi.graded_lex_rank(alpha) == prefix.index(alpha)
    with pytest.raises(ValueError):
        mi.graded_lex_rank((1, -1))


def test_dominated_by_is_the_product_order_box():
    got = set(mi.dominated_by((2, 1)))
    assert got == {(a, b) for a in range(3) for b in range(2)}
    assert set(mi.dominated_by((2, 1), 1)) == {(0, 0), (0, 1), (1, 0)}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumerations_equal_a_filtered_product(m):
    # Neither enumeration recurses; each equals the sorted, filtered box.
    for d in range(7):
        box = list(product(range(d + 1), repeat=m))
        assert mi.enumerate_exact_degree(m, d) == sorted(a for a in box if sum(a) == d)
        leq = sorted((a for a in box if sum(a) <= d), key=lambda a: (sum(a), a))
        assert mi.enumerate_leq_degree(m, d) == leq
        for alpha in mi.enumerate_exact_degree(m, d):
            below = list(product(*(range(a + 1) for a in alpha)))
            for k in (None, -1, 0, 1, 2, 3, d + 1):
                bound = d if k is None else k
                want = sorted(beta for beta in below if sum(beta) <= bound)
                assert list(mi.dominated_by(alpha, k)) == want


def test_enumerations_past_the_recursion_limit():
    # One frame per coordinate refused every index set past ~990
    # coordinates with a RecursionError.
    m = 1200
    units = mi.enumerate_exact_degree(m, 1)
    assert units == sorted(mi.unit(m, i) for i in range(m))
    assert len(mi.enumerate_leq_degree(m, 1)) == m + 1
    top = mi.unit(m, m - 1)
    assert list(mi.dominated_by(top, 1)) == [(0,) * m, top]


def test_multinomial_matches_factorial_formula():
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 4)
        alpha = tuple(rng.randint(0, 4) for _ in range(m))
        k = mi.degree(alpha) + rng.randint(0, 3)
        expected = factorial(k) // (prod(map(factorial, alpha)) * factorial(k - mi.degree(alpha)))
        assert mi.multinomial(k, alpha) == expected
    with pytest.raises(ValueError):
        mi.multinomial(1, (2,))


def test_vandermonde_frozen_instance():
    # beta = (2, 3), layer 2: C(2,0)C(3,2) + C(2,1)C(3,1) + C(2,2)C(3,0) = 10.
    total = sum(
        comb(2, a) * comb(3, b) for a in range(3) for b in range(4) if a + b == 2
    )
    assert total == 10 == comb(5, 2)
    assert mi.verify_vandermonde((2, 3), 2)


def test_vandermonde_property():
    rng = random.Random(202)
    for _ in range(100):
        m = rng.randint(1, 4)
        beta = tuple(rng.randint(0, 4) for _ in range(m))
        for i in range(mi.degree(beta) + 1):
            assert mi.verify_vandermonde(beta, i)
    with pytest.raises(ValueError):
        mi.verify_vandermonde((1, 1), 3)


def test_negative_binomial_convolution_smallest_case():
    # n = 2, j = 2: 1*C(2,2) - C(1,1)*C(2,1) + C(2,2)*C(2,0) = 1 - 2 + 1.
    assert mi.verify_negative_binomial_convolution(2, 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_negative_binomial_convolution_range(n):
    for j in range(2, 3 * n + 1):
        assert mi.verify_negative_binomial_convolution(n, j)


def test_negative_binomial_convolution_domain():
    with pytest.raises(ValueError):
        mi.verify_negative_binomial_convolution(1, 2)
    with pytest.raises(ValueError):
        mi.verify_negative_binomial_convolution(2, 1)


def test_alternating_sum_frozen_instance():
    # n = 4, stop = 2: 1 - 4 + 6 = 3 = (+1) C(3, 2).
    assert mi.verify_alternating_sum(4, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_alternating_sum_range(n):
    for stop in range(n + 1):
        assert mi.verify_alternating_sum(n, stop)
    with pytest.raises(ValueError):
        mi.verify_alternating_sum(n, n + 1)
