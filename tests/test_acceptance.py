"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each criterion prints a single summary line on success so a verbose run
reads as a checklist.  Everything exact is compared as Fractions with zero
tolerance; float comparisons carry their tolerance inline.
"""

import json
import random
from fractions import Fraction

import pytest

from hypershift import (
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    ExplicitSequence,
    defect_diag,
    curvature_points,
    necessary_condition,
    ray_ratio_sq,
    ray_ratio_sq_literal,
    similarity_scan,
)
from hypershift import multiindex as mi
from hypershift.cli import run_example45
from hypershift.report import canonical_json

from helpers import (
    build_truncated,
    commutator_defect,
    commutator_float_norm,
    decay_curve,
    defect_operator,
    finite_diff_check,
    random_table_weight,
    random_weight,
)

F = Fraction


def test_criterion_1_identity_suite():
    # Vandermonde convolution: all |beta| <= 8, m <= 4, every split index.
    checked = 0
    for m in range(1, 5):
        for beta in mi.enumerate_leq_degree(m, 8):
            for i in range(mi.degree(beta) + 1):
                assert mi.verify_vandermonde(beta, i)
                checked += 1
    assert checked > 3000

    # Negative-binomial convolution, plain and index-weighted, 2 <= n <= 8.
    for n in range(2, 9):
        for j in range(2, 3 * n + 1):
            assert mi.verify_negative_binomial_convolution(n, j)

    # Truncated alternating binomial sum, n <= 10, every stopping point.
    for n in range(1, 11):
        for stop in range(0, n + 1):
            assert mi.verify_alternating_sum(n, stop)

    print("criterion 1: combinatorial identity suite exact over full ranges PASS")


def test_criterion_2_power_kernel_positivity():
    for n in range(1, 6):
        for m in (1, 2, 3):
            W = PowerKernel(n, m)
            for alpha in mi.enumerate_leq_degree(m, 20):
                for k in range(1, n + 1):
                    v = defect_diag(W, k, alpha)
                    assert v >= 0
                    if k == n:
                        assert v == (1 if mi.degree(alpha) == 0 else 0)
    print(
        "criterion 2: order-n kernel defects nonnegative and top order "
        "vanishing, n<=5 m<=3 |alpha|<=20 PASS"
    )


def test_criterion_3_necessary_condition_is_sharp():
    for n in range(1, 6):
        for m in (1, 2, 3):
            W = PowerKernel(n, m)
            for alpha in mi.enumerate_leq_degree(m, 20):
                if mi.degree(alpha) == 0:
                    continue
                chk = necessary_condition(W, n, alpha)
                assert chk.lhs == chk.rhs
    print("criterion 3: neighbour-sum bound exactly attained on order-n kernels PASS")


def test_criterion_4_violations_are_witnessed_by_defects():
    rng = random.Random(2026)
    violations = 0
    for _ in range(200):
        W = random_table_weight(rng, m=2, degree=8)
        for n in (1, 2, 3):
            for alpha in mi.enumerate_leq_degree(2, 8):
                if mi.degree(alpha) == 0:
                    continue
                if necessary_condition(W, n, alpha).holds:
                    continue
                violations += 1
                assert any(
                    defect_diag(W, n, dominated) < 0
                    for dominated in mi.dominated_by(alpha, mi.degree(alpha))
                ), (W.spec_dict(), n, alpha)
    assert violations > 1000  # the property is exercised, not vacuous
    print(
        f"criterion 4: every neighbour-sum violation ({violations} instances) "
        "has a negative defect below it PASS"
    )


def test_criterion_5_counterexample_reproduction():
    # The report as the CLI writes it: rationals as "p/q", tuples as lists.
    report = json.loads(canonical_json(run_example45()))
    assert report["pass"] is True
    assert "witness" not in report
    stages = report["stages"]

    bound = stages["kernel_bound"]
    assert bound["pass"] is True
    assert bound["base_degrees"] == [63, 511]
    assert bound["t_grid_size"] == 21
    assert bound["worst_t"] == "99/100"
    assert bound["max_deviation"] == pytest.approx(4.0186199886992406e-05, rel=1e-12)
    assert bound["margin"] == pytest.approx(0.12495981380011301, rel=1e-12)
    # pass rests on the exact sup over the whole ball, which the grid
    # maximum cannot exceed: one term for L = 2, the sum of three more
    # per-term sups for L = 3.
    assert bound["sup_bound"] == 1.4281290357868898e-4
    assert bound["sup_bound"] >= bound["max_deviation"]
    bound3 = run_example45(blocks=3, eval_degree=40)["stages"]["kernel_bound"]
    assert bound3["pass"] is True
    assert bound3["sup_bound"] == 1.9333163157336924e-4
    assert bound3["sup_bound"] >= bound3["max_deviation"]

    nec = stages["necessary_violation"]
    assert nec["pass"] is True
    assert nec["alpha"] == [2, 511]
    assert nec["lhs"] == "513/257"
    assert nec["rhs"] == "513/514"
    assert nec["scan_degree"] == 514
    assert nec["verdict"] == "violation"
    assert nec["defect_witness"] == {"order": 1, "alpha": [2, 511], "value": "-256/257"}

    ray = stages["ray_ratio"]
    assert ray["pass"] is True
    assert ray["witnesses"] == [
        {"block": 2, "alpha": [0, 511], "length": 1, "ratio_sq": "2/1"}
    ]

    curv = stages["curvature"]
    assert curv["pass"] is True
    assert curv["n_points"] > 0
    # At double precision the perturbation is metrically invisible: the
    # quotient against the unperturbed kernel stays flat on the grid.
    assert abs(curv["psi_min"]) < 1e-12
    assert abs(curv["psi_max"]) < 1e-12
    assert curv["unbounded_trend"] is False

    print(
        "criterion 5: counterexample pipeline (kernel bound margin "
        f"{bound['margin']:.6f}, lhs 513/257, ray ratio 2, defect -256/257) PASS"
    )


def test_criterion_6_curvature_numerics():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            (p,) = curvature_points([PowerKernel(n, m)], [(0.0,) * m], max_degree=40)
            H = p.hessian
            for i in range(m):
                for j in range(m):
                    expected = n if i == j else 0
                    assert abs(complex(H.entries[i][j]) - expected) < 1e-9

    for n in (1, 2, 3):
        (p,) = curvature_points(
            [PowerKernel(n, 1)], [(0.5,)], max_degree=100, precision_bits=100
        )
        H = p.hessian
        assert abs(complex(H.entries[0][0]) - 16 * n / 9) < 1e-8

    rng = random.Random(4045)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        w = tuple(
            complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(m)
        )
        while sum(abs(x) ** 2 for x in w) > 0.45:
            w = tuple(
                complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                for _ in range(m)
            )
        dev = finite_diff_check(
            PowerKernel(n, m), w, step=1e-4, max_degree=60, precision_bits=120
        )
        assert dev < 1e-6

    print(
        "criterion 6: Hessian n*I at 0 (1e-9), 16n/9 at 0.5 (1e-8), "
        "finite differences at 20 random points (1e-6) PASS"
    )


def test_criterion_7_truncation_oracle_equivalence():
    rng = random.Random(7071)
    for _ in range(50):
        m = rng.choice([1, 2])
        W = random_weight(rng, m=m, degree=10)
        D = rng.randint(2, 10)
        k = rng.randint(0, 4)
        tt = build_truncated(W, D)
        assert commutator_defect(tt) == 0
        assert commutator_float_norm(tt) < 1e-12
        op = defect_operator(tt, k)
        assert op.off_diagonal == {}
        for pos, alpha in enumerate(tt.basis):
            assert op.diagonal[pos] == defect_diag(W, k, alpha)
        alpha = rng.choice(tt.basis)
        if mi.degree(alpha) < D:
            curve = decay_curve(tt, alpha, mi.degree(alpha) + 1)
            assert curve[mi.degree(alpha) + 1] == 0
    print(
        "criterion 7: matrix-model defect diagonals match the exact formula "
        "on 50 random weights, commutators zero PASS"
    )


def test_criterion_8_ray_ratio_regression():
    rng = random.Random(8081)
    for _ in range(20):
        W1 = RadialWeight(1, PowerSequence(rng.randint(1, 4)))
        W2 = random_weight(rng, m=1, degree=40)
        a = rng.randint(0, 6)
        l = rng.randint(0, 20)
        assert ray_ratio_sq(W1, W2, (a,), 0, l) == ray_ratio_sq_literal(
            W1, W2, (a,), 0, l
        )

    hardy = RadialWeight(1, PolynomialSequence([F(1)]))
    bergman = PowerKernel(2, 1)
    L = 20
    report = similarity_scan(hardy, bergman, 10, L, growth_factor=F(3, 2))
    assert report.max_ratio_sq == L + 2
    assert report.verdict == "growth-flagged"

    base = PowerSequence(2)
    wobble = ExplicitSequence(
        [base.value(i) * (F(3, 2) if i % 2 == 0 else F(1, 2)) for i in range(40)]
    )
    bounded = similarity_scan(RadialWeight(1, base), RadialWeight(1, wobble), 6, 12)
    assert F(1, 3) <= bounded.min_ratio_sq <= bounded.max_ratio_sq <= 3
    assert bounded.verdict == "bounded-in-scan"

    print(
        "criterion 8: telescoped ray products exact, Hardy/Bergman max ratio "
        f"{L + 2} flagged, bounded perturbation within [1/3, 3] PASS"
    )
