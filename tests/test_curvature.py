"""Mixed Hessians of log-metrics, PSD checks, and grid reports."""

import json
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypershift.curvature as curvature_module
import hypershift.weights as weights_module
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
from hypershift.cli import main
from helpers import as_array

F = Fraction


def hermitian_dev(H):
    A = as_array(H)
    return float(np.max(np.abs(A - A.conj().T)))


# -- closed forms ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_hessian_at_origin_is_n_times_identity(n, m):
    H = log_metric_hessian(PowerKernel(n, m), (0.0,) * m)
    A = as_array(H)
    assert np.max(np.abs(A - n * np.eye(m))) < 1e-25


def test_hessian_at_origin_reads_degree_one_weights():
    W = TableWeight(2, {(0, 0): F(1), (1, 0): F(5), (0, 1): F(7)})
    A = as_array(log_metric_hessian(W, (0.0, 0.0)))
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


# -- spectrum ----------------------------------------------------------------

# Hypothesis runs derandomized and without an example database, so every run
# draws the same examples.
SPECTRUM_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

_real = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_magnitude = st.floats(min_value=1e-6, max_value=1e3)
_phase = st.floats(min_value=0.0, max_value=6.3)


@st.composite
def hermitian_2x2(draw):
    """(a, b, d) of [[a, b], [conj b, d]]: generic, diagonal, zero,
    negative definite, or nearly singular (a d close to |b|^2)."""
    kind = draw(st.sampled_from(["generic", "diagonal", "zero", "negative", "singular"]))
    if kind == "zero":
        return 0.0, 0j, 0.0
    a, d = draw(_real), draw(_real)
    if kind == "diagonal":
        return a, 0j, d
    if kind == "generic":
        return a, complex(draw(_real), draw(_real)), d
    a, d = draw(_magnitude), draw(_magnitude)
    b = complex(mp.rect(mp.sqrt(a * d), draw(_phase)))
    if kind == "negative":
        # |b|^2 < a d: both eigenvalues of -[[a, b], [conj b, d]] negative.
        return -a, -b * draw(st.floats(min_value=0.0, max_value=0.99)), -d
    return a, b * (1 + draw(st.floats(min_value=-1e-12, max_value=1e-12))), d


def _matrix(rows, precision_bits=53):
    return CurvatureMatrix(
        point=(0,) * len(rows),
        entries=tuple(tuple(mp.mpc(x) for x in row) for row in rows),
        precision_bits=precision_bits,
    )


@SPECTRUM_SETTINGS
@given(hermitian_2x2(), st.sampled_from([53, 80, 120]))
def test_closed_form_spectrum_matches_eighe(abd, prec):
    # mu and r carry a few roundings in units of scale = max |entry|; the
    # near eigenvalue det/far carries the roundings of a d and |b|^2, at most
    # scale^2 2^-prec each, divided by |far| = ||A||_2 >= scale.  Together
    # they stay below 8 scale 2^-prec.
    a, b, d = abd
    H = _matrix(((a, b), (b.conjugate(), d)), precision_bits=prec)
    got = H.spectrum
    with mp.workprec(200):
        ref = mp.eighe(mp.matrix([[mp.mpc(x) for x in row] for row in H.entries]), eigvals_only=True)
        scale = max(abs(mp.mpc(x)) for row in H.entries for x in row)
        bound = 8 * scale * mp.mpf(2) ** -prec
        assert got[0] <= got[1]
        assert all(abs(g - r) <= bound for g, r in zip(got, ref))


@st.composite
def hermitian_rows(draw):
    m = draw(st.sampled_from([1, 3]))
    B = [[complex(draw(_real), draw(_real)) for _ in range(m)] for _ in range(m)]
    return [[B[i][j] + B[j][i].conjugate() for j in range(m)] for i in range(m)]


@SPECTRUM_SETTINGS
@given(hermitian_rows())
def test_general_spectrum_matches_numpy(rows):
    # mp.eighe at 80 bits against LAPACK in float64, whose own error grows
    # with m: on 6000 seeded 3 x 3 matrices it reached 8.7 ulp * scale, so
    # the bound is 4 m ulp * scale (exactly 4 ulp * scale for m = 1).
    m = len(rows)
    got = eigenvalues(_matrix(rows, precision_bits=80))
    ref = np.linalg.eigvalsh(np.array(rows))
    scale = max(abs(x) for row in rows for x in row)
    assert list(got) == sorted(got)
    assert all(abs(g - r) <= 4 * m * 2.0**-52 * scale for g, r in zip(got, ref))


def test_eigenvalues_write_an_underflowing_negative_as_zero():
    # mpmath has no float range: an eigenvalue below it rounds to a float
    # zero, which is written as 0.0 and never as -0.0.
    eigs = eigenvalues(_matrix([[mp.mpf("-1e-400")]]))
    assert eigs == (0.0,)
    assert str(eigs[0]) == "0.0"


def test_one_spectrum_per_grid_point(monkeypatch, capsys, tmp_path):
    # The single-weight report reads eigenvalues and psd from one spectrum
    # per record, and psh_boundedness_report one per point.
    calls = []
    real = curvature_module._spectrum

    def counting(entries, precision_bits):
        calls.append(precision_bits)
        return real(entries, precision_bits)

    monkeypatch.setattr(curvature_module, "_spectrum", counting)
    grid = radial_grid(2, 2, 4)
    spec = tmp_path / "w.json"
    spec.write_text('{"kind": "power", "n": 2, "m": 2}')
    assert main(["curvature", "--weights", str(spec), "--grid", "radial:2x4"]) == 0
    assert json.loads(capsys.readouterr().out)["n_points"] == len(grid)
    assert calls == [80] * len(grid)
    calls.clear()
    W = PerturbedPower(2, 2, 2)
    psh_boundedness_report(W, W.base, grid, max_degree=40)
    assert calls == [80] * len(grid)


# -- differences -------------------------------------------------------------


def test_difference_of_equal_weights_vanishes():
    W = PowerKernel(2, 2)
    D = curvature_difference(W, W, (0.2, 0.3j), max_degree=80, precision_bits=100)
    assert float(np.max(np.abs(as_array(D)))) < 1e-20


def test_difference_at_origin_counts_kernel_orders():
    D = curvature_difference(PowerKernel(2, 1), PowerKernel(1, 1), (0.0,))
    assert abs(complex(D.entries[0][0]) - 1.0) < 1e-25


def test_difference_is_antisymmetric_in_arguments():
    W1, W2 = PowerKernel(3, 2), PowerKernel(1, 2)
    w = (0.3, 0.2 - 0.1j)
    D12 = curvature_difference(W1, W2, w, max_degree=80, precision_bits=100)
    D21 = curvature_difference(W2, W1, w, max_degree=80, precision_bits=100)
    assert float(np.max(np.abs(as_array(D12) + as_array(D21)))) < 1e-20


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
    H_w = as_array(log_metric_hessian(W, tuple(w), max_degree=40, precision_bits=100))
    H_Uw = as_array(log_metric_hessian(W, tuple(U @ w), max_degree=40, precision_bits=100))
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


@pytest.mark.parametrize("kind", ["perturbed45", "polynomial"])
def test_grid_log_hessians_equal_the_per_point_ones(kind):
    grid = radial_grid(2, 2, 4)
    W = _psh_pair(kind)[0]
    got = curvature_module.log_metric_hessians(W, grid, max_degree=60, precision_bits=120)
    assert len(got) == len(grid)
    for H, w in zip(got, grid):
        ref = log_metric_hessian(_psh_pair(kind)[0], w, max_degree=60, precision_bits=120)
        assert (H.point, H.entries) == (ref.point, ref.entries)


def test_psh_report_takes_one_jet_per_weight_per_point(monkeypatch):
    # One metric_jets call per report yields one jet per weight per point.
    # Within it, each coordinate power is taken once per distinct (coordinate,
    # exponent) and each weight's correction table is built once.
    real_jets = curvature_module.metric_jets
    real_power = weights_module._coordinate_power
    real_table = weights_module._correction_table
    calls, powers, tables = [], [], []

    def counting_jets(weights, points, *args, **kwargs):
        out = real_jets(weights, points, *args, **kwargs)
        calls.append((list(weights), [len(jets) for jets in out]))
        return out

    def counting_power(x, e):
        powers.append((x, e))
        return real_power(x, e)

    def counting_table(W):
        tables.append(W)
        return real_table(W)

    monkeypatch.setattr(curvature_module, "metric_jets", counting_jets)
    monkeypatch.setattr(weights_module, "_coordinate_power", counting_power)
    monkeypatch.setattr(weights_module, "_correction_table", counting_table)
    W = PerturbedPower(2, 2, 2)
    grid = radial_grid(2, 2, 4)
    psh_boundedness_report(W, W.base, grid, max_degree=40)
    assert calls == [([W, W.base], [2] * len(grid))]
    assert len(powers) == len(set(powers))
    # The correction at (2, 511) needs w_1^511 and w_1^510 at every second
    # coordinate of a grid point off the origin, zero included.
    second = {w[1] for w in grid if any(w)}
    assert len(second) == 9
    assert sorted(e for _, e in powers if e >= 510) == [510] * len(second) + [511] * len(second)
    assert tables == [W, W.base]


def test_psh_report_at_the_origin_needs_no_tail_bound():
    # At w = 0 every jet is exact from three weight layers, so a table
    # without a fallback has a report there although it has no tail bound.
    bare = TableWeight(2, {(0, 0): F(1), (1, 0): F(2), (0, 1): F(3)})
    P = PowerKernel(2, 2)
    expected = {
        (bare, P): (0.0, (0.0, 1.0), True),
        (P, bare): (-1.0, (-1.0, 0.0), False),
        (bare, bare): (0.0, (0.0, 0.0), True),
    }
    for (W1, W2), (min_eig, eigs, psd) in expected.items():
        report = psh_boundedness_report(W1, W2, [(0j, 0j)])
        assert (report.psi_min, report.psi_max) == (0.0, 0.0)
        assert report.hessian_min_eig == min_eig
        assert report.points[0].eigenvalues == eigs
        assert report.all_psd is psd
        assert report.unbounded_trend is False
        assert report.shells == ((0.0, 0.0),)
        assert report.n_points == 1
