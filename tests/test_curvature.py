"""Mixed Hessians of log-metrics, PSD checks, and grid reports."""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypershift.curvature as curvature_module
from hypershift import (
    ConditionCheck,
    CurvatureMatrix,
    HyperReport,
    NecessaryScan,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PshPoint,
    PshReport,
    RadialWeight,
    RatioScanReport,
    TableWeight,
    curvature_points,
    eigenvalues,
    psd_check,
    psh_boundedness_report,
    radial_grid,
)
from hypershift.cli import main
from hypershift.curvature import working_context
from helpers import (
    as_array,
    finite_diff_check,
    modulus_class,
    modulus_classes,
    point_jet,
    scaled,
    single_entry_tables,
    to_mp,
)

F = Fraction


def log_metric_hessian(W, w, **kwargs):
    """The Hessian of log h at the single point w."""
    (point,) = curvature_points([W], [w], **kwargs)
    return point.hessian


def curvature_difference(W1, W2, w, **kwargs):
    """The Hessian of log(h1/h2) at the single point w."""
    (point,) = curvature_points([W1, W2], [w], **kwargs)
    return point.hessian


def class_matrix(rows, precision_bits=53):
    """A CurvatureMatrix of the real symmetric rows, each entry rounded to
    the working precision, with the spectrum ``_spectrum`` gives them."""
    with localcontext(working_context(precision_bits)):
        M = [[+Decimal(x) for x in row] for row in rows]
        entries = tuple(map(tuple, M))
        spectrum = curvature_module._spectrum(M)
    return CurvatureMatrix(entries, spectrum)


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
    (p,) = curvature_points([PowerKernel(3, 2)], [w], max_degree=80, precision_bits=100)
    assert hermitian_dev(p.hessian) < 1e-20
    assert len(p.hessian.entries) == 2
    assert p.w == w


# -- PSD machinery -----------------------------------------------------------


def test_psd_check_accepts_and_rejects():
    I2 = class_matrix(((2, 0), (0, 2)))
    assert psd_check(I2)
    indef = class_matrix(((1, 0), (0, -1.0)))
    assert not psd_check(indef)
    assert eigenvalues(indef) == (-1.0, 1.0)
    assert eigenvalues(indef)[0] == -1.0
    # One rule for every matrix: the least eigenvalue against -tol, with no
    # scale from the entries.
    big = class_matrix(((Decimal(10) ** 6, 0), (0, Decimal("-2e-10"))))
    assert not psd_check(big, tol=1e-10) and psd_check(big, tol=2e-10)
    edge = class_matrix(((1, 0), (0, -1e-10)))
    assert psd_check(edge, tol=1e-10) and not psd_check(edge, tol=0.0)
    coupled = class_matrix(((0, 0.5), (0.5, 0)))
    assert eigenvalues(coupled) == (-0.5, 0.5) and not psd_check(coupled)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="psd tolerance"):
            psd_check(I2, tol=tol)


def test_curvature_records_are_named_tuples(monkeypatch):
    # Both records are their fields and nothing else: == and hash take every
    # field, the spectrum among them, and a point keeps no rounded
    # eigenvalues; each read goes through eigenvalues().
    assert CurvatureMatrix._fields == ("entries", "spectrum")
    assert PshPoint._fields == ("w", "psi", "hessian")
    entries, spectrum = ((2, 0), (0, 3)), (Decimal(2), Decimal(3))
    H = CurvatureMatrix(entries, spectrum)
    assert tuple(H) == (entries, spectrum)
    assert H == CurvatureMatrix(entries, spectrum) and hash(H) == hash((entries, spectrum))
    G = H._replace(spectrum=(Decimal(7),))
    assert G != H and G.entries == H.entries
    p = PshPoint((0, 0), 0.0, H)
    assert tuple(p) == ((0, 0), 0.0, H)
    assert p == PshPoint((0, 0), 0.0, H) and p != PshPoint((0, 0), 0.0, G)
    assert not hasattr(p, "__dict__")
    calls = []
    real = curvature_module.eigenvalues

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(curvature_module, "eigenvalues", counting)
    assert p.eigenvalues == (2.0, 3.0) and p.min_eig == 2.0
    assert p.eigenvalues == (2.0, 3.0)
    assert calls == [H, H, H]


def test_result_records_echo_no_input():
    # A result holds what the run found, not the arguments its caller
    # already holds: no order, growth factor or per-point records.  The scan
    # bound stays in HyperReport, where the benchmark's scan counter reads
    # it, and a ray scan keeps the window that cells() expands.
    assert HyperReport._fields == ("max_degree", "verdict", "witness")
    assert NecessaryScan._fields == ("verdict", "checked", "witness")
    assert ConditionCheck._fields == ("alpha", "lhs", "rhs")
    assert RatioScanReport._fields == (
        "m",
        "base_degree",
        "ray_length",
        "min_ratio_sq",
        "max_ratio_sq",
        "argmin",
        "argmax",
        "spread",
        "spread_half",
        "verdict",
        "table",
        "exact",
    )
    assert PshReport._fields == (
        "psi_min",
        "psi_max",
        "hessian_min_eig",
        "all_psd",
        "unbounded_trend",
        "shells",
        "n_points",
    )


def test_eigenvalues_are_ascending():
    rng = random.Random(47)
    for _ in range(10):
        m = rng.choice([2, 3])
        B = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(m)])
        A = B + B.T
        eigs = eigenvalues(class_matrix(A.tolist()))
        assert list(eigs) == sorted(eigs)
        assert np.allclose(eigs, np.linalg.eigvalsh(A))


# -- spectrum ----------------------------------------------------------------

# Hypothesis runs derandomized and without an example database, so every run
# draws the same examples.
SPECTRUM_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

_real = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_magnitude = st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def symmetric_2x2(draw):
    """(a, b, d) of [[a, b], [b, d]]: generic, diagonal, zero, negative
    definite, or nearly singular (a d close to b^2)."""
    kind = draw(st.sampled_from(["generic", "diagonal", "zero", "negative", "singular"]))
    if kind == "zero":
        return 0.0, 0.0, 0.0
    a, d = draw(_real), draw(_real)
    if kind == "diagonal":
        return a, 0.0, d
    if kind == "generic":
        return a, draw(_real), d
    a, d = draw(_magnitude), draw(_magnitude)
    b = float(mp.sqrt(a * d)) * draw(st.sampled_from([1, -1]))
    if kind == "negative":
        # b^2 < a d: both eigenvalues of -[[a, b], [b, d]] negative.
        return -a, -b * draw(st.floats(min_value=0.0, max_value=0.99)), -d
    return a, b * (1 + draw(st.floats(min_value=-1e-12, max_value=1e-12))), d


@SPECTRUM_SETTINGS
@given(symmetric_2x2(), st.sampled_from([53, 80, 120]))
def test_closed_form_spectrum_matches_eighe(abd, prec):
    # mu and r carry a few roundings in units of scale = max |entry|; the
    # near eigenvalue det/far is one rounding of the exact det of the
    # rounded entries, whose error is at most 2 scale^2 u, divided by
    # |far| = ||A||_2 >= scale.  The working digits' unit roundoff u is at
    # most 2^-prec, so together they stay below 8 scale 2^-prec.
    a, b, d = abd
    H = class_matrix(((a, b), (b, d)), precision_bits=prec)
    got = H.spectrum
    with mp.workprec(200):
        ref = mp.eighe(mp.matrix([[to_mp(x) for x in row] for row in H.entries]), eigvals_only=True)
        scale = max(abs(to_mp(x)) for row in H.entries for x in row)
        bound = 8 * scale * mp.mpf(2) ** -prec
        assert got[0] <= got[1]
        assert all(abs(to_mp(g) - r) <= bound for g, r in zip(got, ref))


@st.composite
def symmetric_rows(draw):
    m = draw(st.sampled_from([1, 3]))
    B = [[draw(_real) for _ in range(m)] for _ in range(m)]
    return [[B[i][j] + B[j][i] for j in range(m)] for i in range(m)]


@SPECTRUM_SETTINGS
@given(symmetric_rows())
def test_general_spectrum_matches_numpy(rows):
    # Jacobi at 80 bits against LAPACK in float64, whose own error grows
    # with m: on 6000 seeded 3 x 3 matrices it reached 8.7 ulp * scale, so
    # the bound is 4 m ulp * scale (exactly 4 ulp * scale for m = 1).
    m = len(rows)
    got = eigenvalues(class_matrix(rows, precision_bits=80))
    ref = np.linalg.eigvalsh(np.array(rows))
    scale = max(abs(x) for row in rows for x in row)
    assert list(got) == sorted(got)
    assert all(abs(g - r) <= 4 * m * 2.0**-52 * scale for g, r in zip(got, ref))


def test_eigenvalues_write_an_underflowing_negative_as_zero():
    # Decimal has no float range: an eigenvalue below it rounds to a float
    # zero, which is written as 0.0 and never as -0.0.
    eigs = eigenvalues(class_matrix(((Decimal("-1e-400"),),)))
    assert eigs == (0.0,)
    assert str(eigs[0]) == "0.0"


def test_one_spectrum_per_modulus_class(monkeypatch, capsys, tmp_path):
    # H(w) = P* M(s) P with P diagonal unitary, so the single-weight report
    # and psh_boundedness_report compute one spectrum per class of equal
    # s = (|w_i|^2): 6 classes for the 33 points of radial:2x4.
    calls = []
    real = curvature_module._spectrum

    def counting(M):
        calls.append(len(M))
        return real(M)

    monkeypatch.setattr(curvature_module, "_spectrum", counting)
    grid = radial_grid(2, 2, 4)
    assert (len(grid), len(modulus_classes(grid))) == (33, 6)
    spec = tmp_path / "w.json"
    spec.write_text('{"kind": "power", "n": 2, "m": 2}')
    assert main(["curvature", "--weights", str(spec), "--grid", "radial:2x4"]) == 0
    assert json.loads(capsys.readouterr().out)["n_points"] == len(grid)
    assert calls == [2] * 6
    calls.clear()
    W = PerturbedPower(2, 2, 2)
    psh_boundedness_report(curvature_points([W, W.base], grid, max_degree=40))
    assert calls == [2] * 6


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


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    st.tuples(single_entry_tables(2), st.sampled_from([F(1, 3), F(2), F(1000)])).map(
        lambda case: (scaled(*case), case[0], case[1])
    )
)
# a(i) = 2(i+1) is twice the order-2 line kernel.
@example((RadialWeight(1, PolynomialSequence([F(2), F(2)])), PowerKernel(2, 1), F(2)))
def test_constant_rescaling_has_zero_difference(case):
    # W1 = c W2: log h1 - log h2 = log c, so H is the same for both.
    W1, W2, c = case
    m = W1.m
    kwargs = {"max_degree": 120, "precision_bits": 120}
    for w in [(0.0,) * m, (0.5,) + (0.1,) * (m - 1), (0.4j,) + (0.3,) * (m - 1)]:
        (pair,) = curvature_points([W1, W2], [w], **kwargs)
        (p1,), (p2,) = (curvature_points([W], [w], **kwargs) for W in (W1, W2))
        assert abs(pair.psi - math.log(c)) < 1e-14
        assert abs(p1.psi - p2.psi - math.log(c)) < 1e-14
        assert all(abs(complex(x)) < 1e-20 for row in pair.hessian.entries for x in row)


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


def test_radial_grid_on_the_line():
    pts = radial_grid(1, 10, 8)
    assert len(pts) == 81  # origin + 10 radii x 8 angles
    assert pts[0] == (0j,)
    assert all(abs(p[0]) <= 0.95 + 1e-12 for p in pts)
    with pytest.raises(ValueError):
        radial_grid(0, 10, 8)
    # No angle leaves only the origin, which must not pass for a grid.
    for angles in (0, -1):
        with pytest.raises(ValueError, match="at least one angle"):
            radial_grid(2, 10, angles)


@pytest.mark.parametrize("bits", [80, 120])
def test_axis_angles_share_classes_at_every_precision(bits):
    # The axis angles are exact (r, 0), (0, r), (-r, 0) and (0, -r), so the
    # 401 points of radial:6x4 fall into 35 modulus classes at any working
    # precision.  With float cos and sin, a ~6e-17 r in the other part split
    # them into 401 classes from 110 bits on.
    grid = radial_grid(2, 6, 4)
    r = 0.95 / 6
    assert grid[1:5] == [(0j, complex(r, 0.0)), (0j, complex(0.0, r)), (0j, complex(-r, 0.0)), (0j, complex(0.0, -r))]
    assert (len(grid), len(modulus_classes(grid, bits))) == (401, 35)
    W = PerturbedPower(2, 2, 2)
    points = curvature_points([W, W.base], grid, max_degree=40, precision_bits=bits)
    assert len({id(p.hessian.spectrum) for p in points}) == 35


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
    records = curvature_points([W, W], radial_grid(1, 3, 4))
    report = psh_boundedness_report(records)
    assert report.psi_min == report.psi_max == 0.0
    assert report.all_psd
    assert not report.unbounded_trend
    assert report.n_points == len(records)
    p0 = records[0]
    assert p0.w == (0j,) and p0.psi == 0.0
    assert p0.min_eig == p0.eigenvalues[0]
    assert len(p0.eigenvalues) == 1


def test_psh_report_flags_the_unbounded_quotient():
    # psi = log(h_1/h_2) = log(1 - t) for the order-1/order-2 pair: unbounded
    # below, Hessian negative definite.
    records = curvature_points(
        [PowerKernel(1, 1), PowerKernel(2, 1)],
        radial_grid(1, 10, 8),
        max_degree=400,
        precision_bits=100,
    )
    report = psh_boundedness_report(records)
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
    records = curvature_points(
        [W1, PowerKernel(2, 1)],
        radial_grid(1, 10, 8),
        max_degree=400,
        precision_bits=100,
    )
    report = psh_boundedness_report(records)
    assert not report.unbounded_trend
    assert 0 < report.psi_min
    assert report.psi_max <= float(mp.log(2)) + 1e-12
    assert abs(report.psi_min - float(mp.log(2 - 0.95**2))) < 1e-6
    assert not report.all_psd  # log(2 - t) is strictly superharmonic here


def test_psh_report_input_validation():
    W = PowerKernel(2, 1)
    with pytest.raises(ValueError):
        psh_boundedness_report(curvature_points([W, PowerKernel(2, 2)], [(0.0,)]))
    with pytest.raises(ValueError):
        psh_boundedness_report(curvature_points([W, W], []))
    records = curvature_points([W, W], [(0.0,)])
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="psd tolerance"):
            psh_boundedness_report(records, psd_tol=tol)


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
    # The grid records take psi and the Hessian from one jet per weight and
    # one series cache for the grid.  The reference composes two metric jets
    # and a single-point curvature_points call, each a call of its own on
    # freshly built weights, so no cache is shared.
    deg = 60
    grid = radial_grid(2, 2, 4)
    records = curvature_points(_psh_pair(kind), grid, max_degree=deg, precision_bits=bits)
    report = psh_boundedness_report(records)
    assert report.n_points == len(grid)
    for p, w in zip(records, grid):
        h1 = point_jet(_psh_pair(kind)[0], w, max_degree=deg, precision_bits=bits)
        h2 = point_jet(_psh_pair(kind)[1], w, max_degree=deg, precision_bits=bits)
        with localcontext(working_context(bits)):
            psi = float(h1.h.ln() - h2.h.ln())
        (ref,) = curvature_points(_psh_pair(kind), [w], max_degree=deg, precision_bits=bits)
        assert p.psi == psi
        assert p.hessian.entries == ref.hessian.entries
        assert p.w == ref.w == w


@pytest.mark.parametrize("kind", ["perturbed45", "polynomial"])
def test_grid_log_hessians_equal_the_per_point_ones(kind):
    grid = radial_grid(2, 2, 4)
    W = _psh_pair(kind)[0]
    got = curvature_points([W], grid, max_degree=60, precision_bits=120)
    assert len(got) == len(grid)
    for p, w in zip(got, grid):
        (ref,) = curvature_points([_psh_pair(kind)[0]], [w], max_degree=60, precision_bits=120)
        assert (p.w, p.hessian.entries) == (ref.w, ref.hessian.entries)


def test_pair_point_is_the_difference_of_the_single_points():
    grid = radial_grid(2, 2, 4)
    for kind in ("perturbed45", "polynomial"):
        W1, W2 = _psh_pair(kind)
        pair = curvature_points([W1, W2], grid, max_degree=60, precision_bits=120)
        ones = curvature_points([W1], grid, max_degree=60, precision_bits=120)
        twos = curvature_points([W2], grid, max_degree=60, precision_bits=120)
        assert len(pair) == len(grid)
        for p, p1, p2, w in zip(pair, ones, twos, grid):
            h1 = point_jet(W1, w, max_degree=60, precision_bits=120).h
            h2 = point_jet(W2, w, max_degree=60, precision_bits=120).h
            with localcontext(working_context(120)):
                assert p.psi == float(h1.ln() - h2.ln())
                assert p1.psi == float(h1.ln())
            with mp.workprec(240):
                E, E1, E2 = (to_mp(q.hessian.entries) for q in (p, p1, p2))
                diff = tuple(
                    tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(E1, E2)
                )
                scale = max(abs(x) for q in (E1, E2) for row in q for x in row)
                for got, want in zip(sum(E, ()), sum(diff, ())):
                    assert abs(got - want) <= mp.mpf(2) ** -112 * scale
            assert p.w == p1.w == p2.w == w
    W = PowerKernel(2, 2)
    for weights, message in (
        ([], "one or two weights, got 0"),
        ([W, W, W], "one or two weights, got 3"),
        ([W, PowerKernel(2, 1)], "weights have dimensions 2 and 1"),
    ):
        with pytest.raises(ValueError, match=message):
            curvature_points(weights, [(0.0, 0.0)])


def test_psh_report_takes_one_jet_per_weight_per_point(monkeypatch):
    # One metric_jets call per grid yields one jet per weight per point.
    # Within it each weight's correction table is built once, and each
    # weight's jet is evaluated once per modulus class.
    real_jets = curvature_module.metric_jets
    real_table = curvature_module._correction_table
    real_class = curvature_module._class_jet
    calls, tables, class_jets = [], [], []

    def counting_jets(weights, points, *args, **kwargs):
        out = real_jets(weights, points, *args, **kwargs)
        calls.append((list(weights), [len(jets) for jets in out]))
        return out

    def counting_table(W):
        tables.append(W)
        return real_table(W)

    def counting_class(table, s, *args):
        class_jets.append(s)
        return real_class(table, s, *args)

    monkeypatch.setattr(curvature_module, "metric_jets", counting_jets)
    monkeypatch.setattr(curvature_module, "_correction_table", counting_table)
    monkeypatch.setattr(curvature_module, "_class_jet", counting_class)
    W = PerturbedPower(2, 2, 2)
    grid = radial_grid(2, 2, 4)
    psh_boundedness_report(curvature_points([W, W.base], grid, max_degree=40))
    assert calls == [([W, W.base], [2] * len(grid))]
    assert tables == [W, W.base]
    # Every class but the origin's, once for each weight.
    assert len(class_jets) == 2 * (len(modulus_classes(grid)) - 1)


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
        records = curvature_points([W1, W2], [(0j, 0j)])
        report = psh_boundedness_report(records)
        assert (report.psi_min, report.psi_max) == (0.0, 0.0)
        assert report.hessian_min_eig == min_eig
        assert records[0].eigenvalues == eigs
        assert report.all_psd is psd
        assert report.unbounded_trend is False
        assert report.shells == ((0.0, 0.0),)
        assert report.n_points == 1


@pytest.mark.parametrize("bits", [80, 120])
@pytest.mark.parametrize("kind", ["perturbed45", "polynomial"])
def test_equal_moduli_share_psi_and_spectrum(kind, bits):
    # Points with equal exact s share psi and the eigenvalues; every H is
    # exactly Hermitian with an exactly real diagonal, so its spectrum is
    # that of H itself.  The dyadic points all have s = (25/64, 1/16) at any
    # precision, and so do the grid's exact axis points.
    W1, W2 = _psh_pair(kind)
    grid = radial_grid(2, 3, 4) + [(0.375 + 0.5j, 0.25), (0.625j, -0.25), (-0.5 + 0.375j, 0.25j)]
    for weights in ([W1], [W1, W2]):
        points = curvature_points(weights, grid, max_degree=60, precision_bits=bits)
        first = {}
        for p in points:
            q = first.setdefault(modulus_class(p.w, bits), p)
            assert (p.psi, p.eigenvalues, p.hessian.spectrum) == (
                q.psi, q.eigenvalues, q.hessian.spectrum
            )
            E = p.hessian.entries
            for i in range(2):
                assert E[i][i].imag == 0
                for j in range(2):
                    assert E[i][j] == E[j][i].conjugate()
            assert psd_check(p.hessian, tol=0.0) == (p.min_eig >= 0)
        assert len(first) == len(modulus_classes(grid, bits)) < len(grid)
