"""Truncated matrix models: column maps, defects, and decay curves."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypershift import (
    PerturbedPower,
    PowerKernel,
    TableWeight,
    WeightFunction,
    build_truncated,
    commutator_defect,
    commutator_float_norm,
    compose,
    decay_curve,
    defect_diag,
    defect_operator,
    defect_operator_dense,
    gram,
    m_power_diag,
)
from hypershift import hypercontraction, truncation
from hypershift import multiindex as mi
from hypershift.truncation import power_layers

from helpers import dense_matrices, random_table_weight, random_weight

F = Fraction


# -- column-map primitives ---------------------------------------------------


def test_compose_applies_right_map_first():
    f = {0: (1, 2, 1)}
    g = {5: (0, 3, 1), 6: (2, 7, 1)}
    assert compose(f, g) == {5: (1, 6, 1)}


def test_gram_catches_row_collisions():
    # Two columns hitting the same row produce genuine off-diagonal entries.
    f = {0: (0, 1, 1), 1: (0, 4, 1)}
    result = gram(f)
    assert result.diagonal == {0: (1, 1), 1: (4, 1)}
    assert result.off_diagonal == {(0, 1): 2.0, (1, 0): 2.0}


def test_gram_of_monomial_map_is_diagonal():
    tt = build_truncated(PowerKernel(2, 2), 4)
    g = gram(tt.power_map((1, 2)))
    assert g.off_diagonal == {}
    for col, w in g.diagonal.items():
        alpha = tt.basis[col]
        r = tt.weight.rho_ratio(alpha, (1, 2))
        assert w == (r.numerator, r.denominator)


# -- construction ------------------------------------------------------------


def test_line_model_is_the_unit_superdiagonal():
    tt = build_truncated(PowerKernel(1, 1), 3)
    assert tt.dimension == 4
    assert tt.basis == ((0,), (1,), (2,), (3,))
    assert tt.maps[0] == {1: (0, 1, 1), 2: (1, 1, 1), 3: (2, 1, 1)}
    A = dense_matrices(tt)[0]
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 2] = expected[2, 3] = 1.0
    assert np.array_equal(A, expected)


def test_degree_zero_model_is_a_single_zero():
    tt = build_truncated(PowerKernel(2, 2), 0)
    assert tt.dimension == 1
    assert tt.maps == ({}, {})
    assert all(np.array_equal(A, np.zeros((1, 1))) for A in dense_matrices(tt))
    with pytest.raises(ValueError):
        build_truncated(PowerKernel(2, 2), -1)


def test_plane_model_at_degree_one():
    tt = build_truncated(PowerKernel(1, 2), 1)
    assert tt.basis == ((0, 0), (0, 1), (1, 0))
    p = tt.position
    assert tt.maps[0] == {p[(1, 0)]: (p[(0, 0)], 1, 1)}
    assert tt.maps[1] == {p[(0, 1)]: (p[(0, 0)], 1, 1)}


def test_power_map_validates_dimension():
    tt = build_truncated(PowerKernel(2, 2), 3)
    with pytest.raises(ValueError):
        tt.power_map((1,))


def test_truncations_commute():
    rng = random.Random(67)
    for _ in range(10):
        W = random_weight(rng, m=2, degree=8)
        tt = build_truncated(W, 5)
        assert commutator_defect(tt) == 0
        assert commutator_float_norm(tt) < 1e-12


# -- defect operators --------------------------------------------------------


def test_defect_operator_matches_weight_ratio_formula():
    # The gram path multiplies per-step weights along rays; the closed-form
    # diagonal divides two weight values. Agreement is a telescoping check.
    rng = random.Random(71)
    for _ in range(12):
        m = rng.choice([1, 2])
        W = random_weight(rng, m=m, degree=8)
        D = rng.randint(2, 6)
        k = rng.randint(0, 4)
        tt = build_truncated(W, D)
        op = defect_operator(tt, k)
        assert op.off_diagonal == {}
        assert op.order == k
        for pos, alpha in enumerate(tt.basis):
            assert op.diagonal[pos] == defect_diag(W, k, alpha)


def test_defect_operator_dense_path_agrees():
    rng = random.Random(73)
    for _ in range(6):
        W = random_table_weight(rng, m=2, degree=6)
        tt = build_truncated(W, 4)
        k = rng.randint(1, 3)
        dense = _expand(defect_operator_dense(tt, k))
        exact = defect_operator(tt, k)
        assert np.max(np.abs(dense - np.diag([float(x) for x in exact.diagonal]))) < 1e-10


def test_top_order_defect_of_power_kernel_is_a_rank_one_projection():
    for n, m in [(1, 1), (2, 2), (3, 1)]:
        tt = build_truncated(PowerKernel(n, m), 4)
        op = defect_operator(tt, n)
        assert op.diagonal[0] == 1
        assert all(v == 0 for v in op.diagonal[1:])


def test_defect_operator_rejects_negative_order():
    tt = build_truncated(PowerKernel(1, 1), 2)
    with pytest.raises(ValueError):
        defect_operator(tt, -1)
    with pytest.raises(ValueError):
        defect_operator_dense(tt, -1)


# -- power diagonals and decay -----------------------------------------------


def test_power_diag_order_zero_is_identity():
    tt = build_truncated(PowerKernel(2, 2), 3)
    assert m_power_diag(tt, 0) == (F(1),) * tt.dimension


def test_power_diag_on_the_half_line():
    tt = build_truncated(PowerKernel(1, 1), 5)
    for k in range(0, 4):
        diag = m_power_diag(tt, k)
        assert diag == tuple(F(1) if j >= k else F(0) for j in range(6))

    tt2 = build_truncated(PowerKernel(2, 1), 5)
    diag = m_power_diag(tt2, 2)
    assert diag == tuple(F(max(j - 1, 0), j + 1) for j in range(6))


def test_power_diag_complements_first_defect():
    rng = random.Random(79)
    for _ in range(8):
        W = random_weight(rng, m=2, degree=8)
        tt = build_truncated(W, 4)
        ones = m_power_diag(tt, 1)
        for pos, alpha in enumerate(tt.basis):
            assert ones[pos] == 1 - defect_diag(W, 1, alpha)


def test_decay_curve_reaches_zero_past_the_degree():
    tt = build_truncated(PowerKernel(2, 1), 6)
    assert decay_curve(tt, (3,), 4) == [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    assert decay_curve(tt, (0,), 1) == [F(1), F(0)]
    rng = random.Random(83)
    for _ in range(5):
        W = random_weight(rng, m=2, degree=8)
        tt = build_truncated(W, 4)
        alpha = rng.choice(tt.basis)
        curve = decay_curve(tt, alpha, mi.degree(alpha) + 2)
        assert curve[0] == 1
        assert curve[mi.degree(alpha) + 1] == 0
        assert curve[mi.degree(alpha) + 2] == 0


def test_decay_curve_domain_errors():
    tt = build_truncated(PowerKernel(2, 1), 4)
    with pytest.raises(ValueError):
        decay_curve(tt, (5,), 2)
    with pytest.raises(ValueError):
        decay_curve(tt, (1,), -1)


# -- the counterexample at full size -----------------------------------------


def test_perturbed_model_defect_at_scale():
    # Degree 514 keeps the marked index (2,511) and its full defect stencil
    # inside the truncation; the negative entry appears on the oracle path.
    W = PerturbedPower(2, 2, 2)
    tt = build_truncated(W, 514)
    assert tt.dimension == 516 * 515 // 2
    op = defect_operator(tt, 1)
    assert op.off_diagonal == {}
    pos = tt.position[(2, 511)]
    assert op.diagonal[pos] == F(-256, 257)
    assert min(op.diagonal) == F(-256, 257)


# -- layered powers and their independence -----------------------------------


def _weights_up_to_three_variables(rng, count):
    for _ in range(count):
        m = rng.randint(1, 3)
        yield random_weight(rng, m=m, degree=8)


def test_power_layers_equal_powers_composed_from_the_identity():
    rng = random.Random(89)
    for W in _weights_up_to_three_variables(rng, 12):
        tt = build_truncated(W, rng.randint(2, 5))
        k_max = rng.randint(0, 6)
        layers = list(power_layers(tt, k_max))
        assert len(layers) == k_max + 1
        for d, layer in enumerate(layers):
            assert list(layer) == mi.enumerate_exact_degree(W.m, d)
            for beta, f in layer.items():
                assert f == tt.power_map(beta)
    with pytest.raises(ValueError):
        next(power_layers(tt, -1))


def test_power_diag_equals_the_sum_over_powers_from_the_identity():
    rng = random.Random(97)
    for W in _weights_up_to_three_variables(rng, 8):
        tt = build_truncated(W, 4)
        k = rng.randint(0, 5)
        expected = [F(0)] * tt.dimension
        for beta in mi.enumerate_exact_degree(W.m, k):
            for col, w in gram(tt.power_map(beta)).diagonal.items():
                expected[col] += mi.multinomial(k, beta) * F(*w)
        assert m_power_diag(tt, k) == tuple(expected)


def _decay_formula(W, alpha, k_max):
    # [M_T^k(I)]_{alpha,alpha} = sum_{|beta| = k, beta <= alpha} (k choose beta)
    # rho(alpha - beta)/rho(alpha), zero once k exceeds |alpha|.
    return [
        sum(
            (
                mi.multinomial(k, beta) * W.rho_ratio(alpha, beta)
                for beta in mi.enumerate_exact_degree(W.m, k)
                if mi.leq(beta, alpha)
            ),
            F(0),
        )
        for k in range(k_max + 1)
    ]


def test_decay_curve_is_the_dominated_multinomial_sum():
    rng = random.Random(101)
    for W in _weights_up_to_three_variables(rng, 12):
        tt = build_truncated(W, 4)
        alpha = rng.choice(tt.basis)
        k_max = mi.degree(alpha) + 2
        assert decay_curve(tt, alpha, k_max) == _decay_formula(W, alpha, k_max)


def _expand(op):
    # A float DefectOperator as the dense matrix it stands for.
    out = np.diag(np.array(op.diagonal, dtype=float))
    for (c1, c2), v in op.off_diagonal.items():
        out[c1, c2] = v
    return out


def _dense_defect_reference(tt, k):
    # The dense defect as first written: every power multiplied out from the
    # identity, each term scaled before it is added.
    mats = dense_matrices(tt)
    dim = tt.dimension
    out = np.zeros((dim, dim))
    for beta in mi.enumerate_leq_degree(tt.weight.m, k):
        M = np.eye(dim)
        for i, b in enumerate(beta):
            for _ in range(b):
                M = mats[i] @ M
        sign = -1.0 if mi.degree(beta) % 2 else 1.0
        out += sign * mi.multinomial(k, beta) * (M.T @ M)
    return out


def test_dense_defect_is_bitwise_the_reference_formula():
    rng = random.Random(103)
    for W in _weights_up_to_three_variables(rng, 10):
        tt = build_truncated(W, rng.randint(1, 4))
        k = rng.randint(0, 3)
        dense = _expand(defect_operator_dense(tt, k))
        assert np.array_equal(dense, _dense_defect_reference(tt, k))


def _dense_commutator_reference(tt):
    # max |T_i T_j - T_j T_i| over all pairs, with dense numpy products.
    mats = dense_matrices(tt)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]))))
    return worst


def test_float_commutator_is_bitwise_the_dense_reference():
    rng = random.Random(109)
    for W in _weights_up_to_three_variables(rng, 12):
        tt = build_truncated(W, rng.randint(0, 5))
        assert commutator_float_norm(tt) == _dense_commutator_reference(tt)


def _colliding_tuple():
    # Not a shift tuple: each map sends two columns to one row, so the
    # powers have grams with off-diagonal entries, and the maps do not
    # commute.  Only the generic float path and the dense reference apply.
    W = PowerKernel(1, 2)
    basis = tuple(mi.enumerate_leq_degree(2, 2))
    maps = (
        {1: (0, 1, 1), 2: (0, 4, 3), 4: (1, 2, 5), 5: (2, 7, 2)},
        {3: (0, 3, 1), 4: (0, 1, 2), 5: (3, 5, 7), 1: (4, 9, 4)},
    )
    position = {alpha: p for p, alpha in enumerate(basis)}
    return truncation.TruncatedTuple(W, 2, basis, position, maps)


def test_float_defect_keeps_off_diagonal_entries_of_colliding_maps():
    tt = _colliding_tuple()
    assert commutator_float_norm(tt) == _dense_commutator_reference(tt) > 0
    for k in range(4):
        op = defect_operator_dense(tt, k)
        assert op.order == k
        if k:
            assert any(v != 0 for v in op.off_diagonal.values())
        assert np.array_equal(_expand(op), _dense_defect_reference(tt, k))


def test_compose_runs_once_per_monomial_past_degree_one(monkeypatch):
    calls = []
    real = truncation.compose

    def counting(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(truncation, "compose", counting)

    def composed(m, k):
        # Layer d holds C(d + m - 1, m - 1) monomials; layers 0 and 1 are
        # the identity and the T_i, which need no composition.
        return sum(comb(d + m - 1, m - 1) for d in range(2, k + 1))

    for m in (1, 2, 3):
        calls.clear()
        tt = build_truncated(PowerKernel(2, m), 6)
        assert len(calls) == m * (m - 1)  # both orders of every pair
        calls.clear()
        defect_operator(tt, 3)
        assert len(calls) == composed(m, 3)
        calls.clear()
        m_power_diag(tt, 4)
        assert len(calls) == composed(m, 4)
        calls.clear()
        decay_curve(tt, (1,) * m, 8)
        assert len(calls) == composed(m, 8)


def test_matrix_model_never_calls_the_defect_engine(monkeypatch):
    # The model reads the weight only through rho_ratio, so it still agrees
    # with the multinomial formula when every engine entry point refuses.
    rng = random.Random(107)
    weights = list(_weights_up_to_three_variables(rng, 6))
    weights.append(TableWeight(2, {(1, 2): F(1, 5), (0, 3): F(7)}, fallback=PowerKernel(2, 2)))
    cases = []
    for W in weights:
        D = rng.randint(2, 4)
        k = rng.randint(0, 3)
        basis = mi.enumerate_leq_degree(W.m, D)
        defect = [defect_diag(W, k, alpha) for alpha in basis]
        ones = [1 - defect_diag(W, 1, alpha) for alpha in basis]
        cases.append((W, D, k, defect, ones, _decay_formula(W, basis[-1], D + 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("the matrix model called the defect engine")

    for cls in (WeightFunction, TableWeight, PerturbedPower):
        monkeypatch.setattr(cls, "metric_decomposition", refuse)
    for name, obj in list(vars(hypercontraction).items()):
        if callable(obj) and getattr(obj, "__module__", None) == hypercontraction.__name__:
            monkeypatch.setattr(hypercontraction, name, refuse)
    for W, D, k, defect, ones, decay in cases:
        tt = build_truncated(W, D)
        op = defect_operator(tt, k)
        assert list(op.diagonal) == defect
        assert op.off_diagonal == {}
        assert list(m_power_diag(tt, 1)) == ones
        assert decay_curve(tt, tt.basis[-1], D + 1) == decay
