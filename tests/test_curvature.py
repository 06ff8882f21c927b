"""Mixed Hessians of log-metrics, PSD checks, and grid reports."""

import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import hypershift.curvature as curvature_module
from hypershift import (
    CurvatureMatrix,
    NonHermitianError,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    RadialWeight,
    TableWeight,
    curvature_difference,
    default_grid,
    eigenvalues,
    finite_diff_check,
    log_metric_hessian,
    metric_jet,
    psd_check,
    psh_boundedness_report,
    radial_grid,
)

F = Fraction


def hermitian_dev(H):
    A = H.as_array()
    return float(np.max(np.abs(A - A.conj().T)))


# -- closed forms ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_hessian_at_origin_is_n_times_identity(n, m):
    H = log_metric_hessian(PowerKernel(n, m), (0.0,) * m)
    A = H.as_array()
    assert np.max(np.abs(A - n * np.eye(m))) < 1e-25


def test_hessian_at_origin_reads_degree_one_weights():
    W = TableWeight(2, {(0, 0): F(1), (1, 0): F(5), (0, 1): F(7)})
    A = log_metric_hessian(W, (0.0, 0.0)).as_array()
    assert np.max(np.abs(A - np.diag([5.0, 7.0]))) < 1e-25


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_on_the_line_matches_closed_form(n):
    # For h = (1-t)^(-n) in one variable, H = n/(1-t)^2; at w = 0.5, 16n/9.
    H = log_metric_hessian(
        PowerKernel(n, 1), (0.5,), max_degree=120, precision_bits=120
    )
    assert abs(complex(H.entries[0][0]) - 16 * n / 9) < 1e-10


def test_hessian_matches_radial_closed_form_at_complex_point():
    # H_ij = n [delta_ij / (1-t) + conj(w_i) w_j / (1-t)^2].
    n, w = 2, (0.3 + 0.1j, -0.2 + 0.4j)
    H = log_metric_hessian(PowerKernel(n, 2), w, max_degree=150, precision_bits=120)
    t = sum(abs(x) ** 2 for x in w)
    for i in range(2):
        for j in range(2):
            expected = n * ((i == j) / (1 - t) + w[i].conjugate() * w[j] / (1 - t) ** 2)
            assert abs(complex(H.entries[i][j]) - expected) < 1e-12


def test_hessian_is_hermitian_and_point_recorded():
    w = (0.25 - 0.3j, 0.1 + 0.2j)
    H = log_metric_hessian(PowerKernel(3, 2), w, max_degree=80, precision_bits=100)
    assert hermitian_dev(H) < 1e-20
    assert H.m == 2
    assert tuple(complex(x) for x in H.point) == w


# -- PSD machinery -----------------------------------------------------------


def test_psd_check_accepts_and_rejects():
    I2 = CurvatureMatrix(point=(0, 0), entries=((mp.mpc(2), mp.mpc(0)), (mp.mpc(0), mp.mpc(2))))
    assert psd_check(I2)
    indef = CurvatureMatrix(
        point=(0, 0), entries=((mp.mpc(1), mp.mpc(0)), (mp.mpc(0), mp.mpc(-1)))
    )
    assert not psd_check(indef)
    assert eigenvalues(indef) == (-1.0, 1.0)
    assert eigenvalues(indef)[0] == -1.0


def test_psd_check_requires_hermitian():
    bad = CurvatureMatrix(
        point=(0, 0), entries=((mp.mpc(0), mp.mpc(1)), (mp.mpc(0), mp.mpc(0)))
    )
    with pytest.raises(NonHermitianError):
        psd_check(bad)


def test_eigenvalues_are_ascending():
    rng = random.Random(47)
    for _ in range(10):
        m = rng.choice([2, 3])
        B = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)] for _ in range(m)]
        )
        A = B + B.conj().T
        H = CurvatureMatrix(
            point=(0,) * m, entries=tuple(tuple(mp.mpc(x) for x in row) for row in A)
        )
        eigs = eigenvalues(H)
        assert list(eigs) == sorted(eigs)
        assert np.allclose(eigs, np.linalg.eigvalsh(A))


# -- differences -------------------------------------------------------------


def test_difference_of_equal_weights_vanishes():
    W = PowerKernel(2, 2)
    D = curvature_difference(W, W, (0.2, 0.3j), max_degree=80, precision_bits=100)
    assert float(np.max(np.abs(D.as_array()))) < 1e-20


def test_difference_at_origin_counts_kernel_orders():
    D = curvature_difference(PowerKernel(2, 1), PowerKernel(1, 1), (0.0,))
    assert abs(complex(D.entries[0][0]) - 1.0) < 1e-25


def test_difference_is_antisymmetric_in_arguments():
    W1, W2 = PowerKernel(3, 2), PowerKernel(1, 2)
    w = (0.3, 0.2 - 0.1j)
    D12 = curvature_difference(W1, W2, w, max_degree=80, precision_bits=100)
    D21 = curvature_difference(W2, W1, w, max_degree=80, precision_bits=100)
    assert float(np.max(np.abs(D12.as_array() + D21.as_array()))) < 1e-20


def test_constant_rescaling_has_zero_difference():
    # a(i) = 2(i+1) is twice the order-2 line kernel: log difference constant.
    W1 = RadialWeight(1, PolynomialSequence([F(2), F(2)]))
    W2 = PowerKernel(2, 1)
    for w in [(0.0,), (0.5,), (0.4j,)]:
        D = curvature_difference(W1, W2, w, max_degree=120, precision_bits=120)
        assert abs(complex(D.entries[0][0])) < 1e-20


def test_kernel_order_gap_is_psd_on_the_ball():
    # H(log h_2) - H(log h_1) = 1/(1-t)^2 > 0 on the line.
    W2, W1 = PowerKernel(2, 1), PowerKernel(1, 1)
    for r in [0.0, 0.3, 0.6, 0.9]:
        D = curvature_difference(W2, W1, (r,), max_degree=250, precision_bits=120)
        assert psd_check(D)
        assert abs(complex(D.entries[0][0]) - 1 / (1 - r * r) ** 2) < 1e-8


def test_difference_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        curvature_difference(PowerKernel(2, 1), PowerKernel(2, 2), (0.1,))


# -- covariance and finite differences ---------------------------------------


def seeded_unitary(m: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    B = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)] for _ in range(m)]
    )
    Q, R = np.linalg.qr(B)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@pytest.mark.parametrize("m,seed", [(2, 53), (2, 59), (3, 61)])
def test_unitary_covariance_of_radial_hessians(m, seed):
    # For a radial metric, H(Uw) = conj(U) H(w) U^T in the d w_i dconj(w_j)
    # index convention used here.
    U = seeded_unitary(m, seed)
    assert np.max(np.abs(U @ U.conj().T - np.eye(m))) < 1e-12
    W = PowerKernel(2, m)
    rng = random.Random(seed + 1)
    w = np.array([complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(m)])
    H_w = log_metric_hessian(W, tuple(w), max_degree=40, precision_bits=100).as_array()
    H_Uw = log_metric_hessian(W, tuple(U @ w), max_degree=40, precision_bits=100).as_array()
    assert np.max(np.abs(H_Uw - U.conj() @ H_w @ U.T)) < 1e-9


def test_finite_difference_agrees_on_the_line():
    dev = finite_diff_check(
        PowerKernel(1, 1), (0.3,), step=1e-4, max_degree=60, precision_bits=120
    )
    assert dev < 1e-6


def test_finite_difference_error_scales_quadratically():
    coarse = finite_diff_check(
        PowerKernel(2, 1), (0.5,), step=2e-3, max_degree=80, precision_bits=160
    )
    fine = finite_diff_check(
        PowerKernel(2, 1), (0.5,), step=1e-3, max_degree=80, precision_bits=160
    )
    assert 1e-6 < fine < 1e-4
    assert 3.5 < coarse / fine < 4.5


def test_finite_difference_at_origin():
    dev = finite_diff_check(
        PowerKernel(3, 2), (0.0, 0.0), step=1e-5, max_degree=40, precision_bits=120
    )
    assert dev < 1e-8


def test_finite_difference_on_perturbed_table():
    base = PowerKernel(2, 2)
    W = TableWeight(2, {(1, 1): base.rho((1, 1)) / 2}, fallback=base)
    dev = finite_diff_check(W, (0.4, 0.3j), step=1e-4, max_degree=60, precision_bits=120)
    assert dev < 1e-6


# -- grids -------------------------------------------------------------------


def test_default_grid_on_the_line():
    pts = default_grid(1)
    assert len(pts) == 81  # origin + 10 radii x 8 angles
    assert pts[0] == (0j,)
    assert all(abs(p[0]) <= 0.95 + 1e-12 for p in pts)
    with pytest.raises(ValueError):
        default_grid(0)
    # No angle leaves only the origin, which must not pass for a grid.
    for angles in (0, -1):
        with pytest.raises(ValueError, match="at least one angle"):
            default_grid(2, angles=angles)


def test_radial_grid_respects_the_ball_budget():
    pts = radial_grid(2, steps=3, angles=4)
    assert pts[0] == (0j, 0j)
    assert len(pts) == len(set(pts)) > 1
    for p in pts:
        assert sum(abs(x) ** 2 for x in p) <= 0.95**2 + 1e-12
    for steps, angles in ((0, 4), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            radial_grid(2, steps=steps, angles=angles)


# -- grid reports ------------------------------------------------------------


def test_psh_report_of_identical_weights():
    W = PowerKernel(2, 1)
    report = psh_boundedness_report(W, W, radial_grid(1, 3, 4))
    assert report.psi_min == report.psi_max == 0.0
    assert report.all_psd
    assert not report.unbounded_trend
    assert report.n_points == len(report.points)
    p0 = report.points[0]
    assert p0.w == (0j,) and p0.psi == 0.0
    assert p0.min_eig == p0.eigenvalues[0]
    assert len(p0.eigenvalues) == 1


def test_psh_report_flags_the_unbounded_quotient():
    # psi = log(h_1/h_2) = log(1 - t) for the order-1/order-2 pair: unbounded
    # below, Hessian negative definite.
    report = psh_boundedness_report(
        PowerKernel(1, 1),
        PowerKernel(2, 1),
        default_grid(1),
        max_degree=400,
        precision_bits=100,
    )
    assert report.unbounded_trend
    assert not report.all_psd
    assert report.hessian_min_eig < -1
    assert abs(report.psi_min - float(mp.log(1 - 0.95**2))) < 1e-6
    assert abs(report.psi_max) < 1e-12  # attained at the origin
    radii = [r for r, _ in report.shells]
    assert radii == sorted(radii)


def test_psh_report_bounded_quotient_shows_no_trend():
    # a(i) = i + 2 against the order-2 line kernel: psi = log(2 - t), bounded
    # in (0, log 2] on the ball; |psi| shrinks outward so no trend fires.
    W1 = RadialWeight(1, PolynomialSequence([F(2), F(1)]))
    report = psh_boundedness_report(
        W1,
        PowerKernel(2, 1),
        default_grid(1),
        max_degree=400,
        precision_bits=100,
    )
    assert not report.unbounded_trend
    assert 0 < report.psi_min
    assert report.psi_max <= float(mp.log(2)) + 1e-12
    assert abs(report.psi_min - float(mp.log(2 - 0.95**2))) < 1e-6
    assert not report.all_psd  # log(2 - t) is strictly superharmonic here


def test_psh_report_input_validation():
    W = PowerKernel(2, 1)
    with pytest.raises(ValueError):
        psh_boundedness_report(W, PowerKernel(2, 2), [(0.0,)])
    with pytest.raises(ValueError):
        psh_boundedness_report(W, W, [])


# -- one metric jet per weight per point --------------------------------------


def _psh_pair(kind):
    if kind == "perturbed45":
        W = PerturbedPower(2, 2, 2)
        return W, W.base
    return (
        RadialWeight(2, PolynomialSequence([F(1), F(2), F(1)])),
        RadialWeight(2, PolynomialSequence([F(3), F(1, 2), F(0), F(1)])),
    )


@pytest.mark.parametrize("bits", [80, 120])
@pytest.mark.parametrize("kind", ["perturbed45", "polynomial"])
def test_psh_report_equals_the_four_jet_composition(kind, bits):
    # The report takes psi and the Hessian from one jet per weight and a
    # shared series memo.  The reference composes two metric jets and
    # curvature_difference on freshly built weights, so no memo is warm.
    deg = 60
    grid = radial_grid(2, 2, 4)
    report = psh_boundedness_report(*_psh_pair(kind), grid, max_degree=deg, precision_bits=bits)
    assert report.n_points == len(grid)
    for p, w in zip(report.points, grid):
        with mp.workprec(bits):
            h1 = metric_jet(_psh_pair(kind)[0], w, max_degree=deg, precision_bits=bits)
            h2 = metric_jet(_psh_pair(kind)[1], w, max_degree=deg, precision_bits=bits)
            psi = float(mp.log(h1.h) - mp.log(h2.h))
        H = curvature_difference(*_psh_pair(kind), w, max_degree=deg, precision_bits=bits)
        assert p.psi == psi
        assert p.hessian.entries == H.entries
        assert p.hessian.point == H.point


def test_psh_report_takes_one_jet_per_weight_per_point(monkeypatch):
    real = curvature_module.metric_jet
    calls = []

    def counting(W, w, *args, **kwargs):
        calls.append(W)
        return real(W, w, *args, **kwargs)

    monkeypatch.setattr(curvature_module, "metric_jet", counting)
    W = PerturbedPower(2, 2, 2)
    grid = radial_grid(2, 2, 4)
    psh_boundedness_report(W, W.base, grid, max_degree=40)
    assert len(calls) == 2 * len(grid)
    assert calls.count(W) == calls.count(W.base) == len(grid)
