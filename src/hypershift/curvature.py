"""Curvature-style diagnostics for diagonal metrics on the unit ball.

The central object is the mixed Wirtinger Hessian of log h,

    H_ij(w) = d^2 log h / dw_i dconj(w_j)
            = (h * d_i dbar_j h - d_i h * dbar_j h) / h^2,

computed from high-precision series jets.  The curvature form of the
associated Hermitian line bundle is -H; sign conventions are kept explicit
at the call sites rather than baked in.  For two metrics, psi = log(h1/h2)
is plurisubharmonic iff H(h1) - H(h2) is positive semidefinite, which is
what the grid reports check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, pi, sin

import mpmath as mp
import numpy as np

from .errors import NonHermitianError
from .weights import WeightFunction, metric_jet, metric_jets


@dataclass(frozen=True)
class CurvatureMatrix:
    """The mixed Hessian of log h (or of a difference of two logs) at a
    point, stored at working precision."""

    point: tuple
    entries: tuple  # m x m nested tuples of mpc

    @property
    def m(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(
            [[complex(x) for x in row] for row in self.entries], dtype=complex
        )


def _hessian_from_jet(jet) -> list[list[mp.mpc]]:
    m = len(jet.grad)
    h = jet.h
    hh = h * h
    cgrad = [mp.conj(g) for g in jet.grad]
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            num = h * jet.hess[i][j] - jet.grad[i] * cgrad[j]
            row.append(num / hh)
        out.append(row)
    return out


def _hessian_difference(w, jet1, jet2) -> CurvatureMatrix:
    """H(h1) - H(h2) at w from the two metric jets there."""
    rows = tuple(
        tuple(x - y for x, y in zip(ra, rb))
        for ra, rb in zip(_hessian_from_jet(jet1), _hessian_from_jet(jet2))
    )
    return CurvatureMatrix(point=tuple(mp.mpc(x) for x in w), entries=rows)


def _log_hessian(w, jet) -> CurvatureMatrix:
    """H(h) at w from the metric jet there."""
    return CurvatureMatrix(
        point=tuple(mp.mpc(x) for x in w),
        entries=tuple(tuple(row) for row in _hessian_from_jet(jet)),
    )


def log_metric_hessian(
    W: WeightFunction,
    w,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> CurvatureMatrix:
    """Mixed Hessian of log h at w; exact at w = 0 where it equals
    diag(rho(e_i)/rho(0))."""
    with mp.workprec(precision_bits):
        jet = metric_jet(W, w, max_degree=max_degree, precision_bits=precision_bits)
        return _log_hessian(w, jet)


def log_metric_hessians(
    W: WeightFunction,
    grid,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> list[CurvatureMatrix]:
    """``log_metric_hessian`` at every grid point, in grid order, from one
    ``metric_jets`` call over the grid."""
    grid = list(grid)
    with mp.workprec(precision_bits):
        jets = metric_jets([W], grid, max_degree=max_degree, precision_bits=precision_bits)
        return [_log_hessian(w, jet) for w, (jet,) in zip(grid, jets)]


def curvature_difference(
    W1: WeightFunction,
    W2: WeightFunction,
    w,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> CurvatureMatrix:
    """Hessian of log(h1/h2) = H(h1) - H(h2) at w, in this argument order.

    The sign convention is carried by the argument order alone; swapping
    the weights negates the result.
    """
    if W1.m != W2.m:
        raise ValueError(f"weights have dimensions {W1.m} and {W2.m}")
    with mp.workprec(precision_bits):
        jet1 = metric_jet(W1, w, max_degree=max_degree, precision_bits=precision_bits)
        jet2 = metric_jet(W2, w, max_degree=max_degree, precision_bits=precision_bits)
        return _hessian_difference(w, jet1, jet2)


def _check_tol(tol: float) -> None:
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"psd tolerance must be finite and >= 0, got {tol}")


def psd_check(H: CurvatureMatrix, tol: float = 1e-10) -> bool:
    """True iff the matrix is positive semidefinite up to tolerance.

    The matrix must be Hermitian within tol * scale (scale = largest entry
    magnitude, floored at 1); the test is min eigenvalue >= -tol * scale.
    Raises ValueError for a tolerance that is negative or not finite.
    """
    _check_tol(tol)
    A = H.as_array()
    scale = max(float(np.max(np.abs(A))), 1.0)
    dev = float(np.max(np.abs(A - A.conj().T)))
    if dev > tol * scale:
        raise NonHermitianError(
            f"matrix deviates from Hermitian by {dev:.3e} (scale {scale:.3e})"
        )
    eigs = np.linalg.eigvalsh((A + A.conj().T) / 2)
    return bool(eigs[0] >= -tol * scale)


def eigenvalues(H: CurvatureMatrix) -> tuple[float, ...]:
    """Eigenvalues of the Hermitian part, ascending."""
    A = H.as_array()
    return tuple(float(x) for x in np.linalg.eigvalsh((A + A.conj().T) / 2))


def _displace(w, coord: int, part: str, step: float):
    out = [mp.mpc(x) for x in w]
    if part == "re":
        out[coord] += mp.mpf(step)
    else:
        out[coord] += mp.mpc(0, 1) * mp.mpf(step)
    return out


def finite_diff_check(
    W: WeightFunction,
    w,
    step: float = 1e-4,
    max_degree: int = 60,
    precision_bits: int = 120,
) -> float:
    """Maximum absolute deviation between the analytic Hessian of log h and
    a second-order central finite-difference stencil at w.

    Writing w_j = x_j + i y_j, the mixed Wirtinger derivative is

        d^2 f / dw_i dconj(w_j)
            = (f_{x_i x_j} + f_{y_i y_j} + i (f_{x_i y_j} - f_{y_i x_j})) / 4,

    each real second derivative taken with the usual central stencils.  The
    deviation is O(step^2) plus series truncation error.
    """
    m = W.m

    def f(pt) -> mp.mpf:
        return mp.log(metric_jet(W, pt, max_degree=max_degree, precision_bits=precision_bits).h)

    with mp.workprec(precision_bits):
        h = mp.mpf(step)
        f0 = f(w)

        def second(ci: int, pi: str, cj: int, pj: str) -> mp.mpf:
            if (ci, pi) == (cj, pj):
                up = f(_displace(w, ci, pi, step))
                dn = f(_displace(w, ci, pi, -step))
                return (up - 2 * f0 + dn) / (h * h)
            pp = f(_displace(_displace(w, ci, pi, step), cj, pj, step))
            pm = f(_displace(_displace(w, ci, pi, step), cj, pj, -step))
            mp_ = f(_displace(_displace(w, ci, pi, -step), cj, pj, step))
            mm = f(_displace(_displace(w, ci, pi, -step), cj, pj, -step))
            return (pp - pm - mp_ + mm) / (4 * h * h)

        analytic = log_metric_hessian(
            W, w, max_degree=max_degree, precision_bits=precision_bits
        )
        worst = mp.mpf(0)
        for i in range(m):
            for j in range(m):
                fd = (
                    second(i, "re", j, "re")
                    + second(i, "im", j, "im")
                    + mp.mpc(0, 1) * (second(i, "re", j, "im") - second(i, "im", j, "re"))
                ) / 4
                dev = abs(fd - analytic.entries[i][j])
                if dev > worst:
                    worst = dev
        return float(worst)


def default_grid(
    m: int,
    radii=None,
    angles: int = 8,
    max_radius: float = 0.95,
) -> list[tuple]:
    """Deterministic sample of the ball: each coordinate ranges over
    r * exp(2 pi i k / angles) for r in radii, keeping points with
    |w| <= max_radius.  Always contains the origin."""
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if angles < 1:
        raise ValueError("need at least one angle")
    if radii is None:
        radii = [0.1 * k for k in range(1, 10)] + [0.95]
    coords = [(0.0, 0.0)]
    for r in radii:
        if r <= 0:
            continue
        for k in range(angles):
            theta = 2 * pi * k / angles
            coords.append((r * cos(theta), r * sin(theta)))
    pts = []

    def rec(prefix, budget_sq):
        if len(prefix) == m:
            pts.append(tuple(complex(re, im) for re, im in prefix))
            return
        for re, im in coords:
            rr = re * re + im * im
            if rr <= budget_sq + 1e-15:
                rec(prefix + [(re, im)], budget_sq - rr)

    rec([], max_radius * max_radius)
    return pts


def radial_grid(m: int, steps: int, angles: int, max_radius: float = 0.95) -> list[tuple]:
    """Grid with `steps` equally spaced radii up to max_radius."""
    if steps < 1:
        raise ValueError("need at least one radial step")
    radii = [max_radius * (k + 1) / steps for k in range(steps)]
    return default_grid(m, radii=radii, angles=angles, max_radius=max_radius)


@dataclass(frozen=True)
class PshPoint:
    w: tuple
    psi: float
    hessian: CurvatureMatrix
    eigenvalues: tuple

    @property
    def min_eig(self) -> float:
        return self.eigenvalues[0]


@dataclass(frozen=True)
class PshReport:
    """Grid summary for psi = log(h1/h2): value range, worst Hessian
    eigenvalue, and a radial trend heuristic.

    ``unbounded_trend`` fires when max|psi| per radius shell is strictly
    increasing over the three outermost shells and grows by at least 25%
    from first to last of those; it marks suspicion, not proof.
    """

    psi_min: float
    psi_max: float
    psi_argmin: tuple
    psi_argmax: tuple
    hessian_min_eig: float
    hessian_argmin: tuple
    all_psd: bool
    unbounded_trend: bool
    shells: tuple  # (radius, max |psi|) pairs, ascending radius
    points: tuple  # per-point PshPoint records, grid order
    n_points: int


def psh_boundedness_report(
    W1: WeightFunction,
    W2: WeightFunction,
    grid,
    max_degree: int = 40,
    precision_bits: int = 80,
    psd_tol: float = 1e-10,
) -> PshReport:
    """Evaluate psi = log(h1/h2) and its Hessian over the grid.

    One ``metric_jets`` call yields one jet per weight per point: psi comes
    from the jets' values and the Hessian of psi from the same jets.  A
    psd_tol that is negative or not finite raises ValueError before any jet
    runs.
    """
    _check_tol(psd_tol)
    if W1.m != W2.m:
        raise ValueError(f"weights have dimensions {W1.m} and {W2.m}")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    records: list[PshPoint] = []
    with mp.workprec(precision_bits):
        jets = metric_jets([W1, W2], grid, max_degree=max_degree, precision_bits=precision_bits)
        for w, (jet1, jet2) in zip(grid, jets):
            psi = float(mp.log(jet1.h) - mp.log(jet2.h))
            H = _hessian_difference(w, jet1, jet2)
            records.append(
                PshPoint(w=tuple(w), psi=psi, hessian=H, eigenvalues=eigenvalues(H))
            )

    lo = min(records, key=lambda r: r.psi)
    hi = max(records, key=lambda r: r.psi)
    worst = min(records, key=lambda r: r.min_eig)

    shells: dict[float, float] = {}
    for r in records:
        rad = round(sum(abs(complex(x)) ** 2 for x in r.w) ** 0.5, 9)
        shells[rad] = max(shells.get(rad, 0.0), abs(r.psi))
    shell_list = sorted(shells.items())
    trend = False
    if len(shell_list) >= 3:
        tail = [v for _, v in shell_list[-3:]]
        trend = tail[0] < tail[1] < tail[2] and tail[2] >= 1.25 * tail[0]

    return PshReport(
        psi_min=lo.psi,
        psi_max=hi.psi,
        psi_argmin=lo.w,
        psi_argmax=hi.w,
        hessian_min_eig=worst.min_eig,
        hessian_argmin=worst.w,
        all_psd=worst.min_eig >= -psd_tol,
        unbounded_trend=trend,
        shells=tuple(shell_list),
        points=tuple(records),
        n_points=len(records),
    )
