"""Shared builders for randomized test weights, the dense numpy references
the float paths are tested against, the per-cell similarity scan the
tabled one is tested against, and the modulus classes of a grid.

Everything takes an explicit random.Random so tests stay reproducible; no
module-level RNG state.  numpy is a test dependency only: the package itself
never imports it.
"""

from fractions import Fraction
from math import sqrt
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from hypershift import (
    ExplicitSequence,
    GeometricSequence,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    RayWitness,
    TableWeight,
    ray_ratio_sq,
)
from hypershift import multiindex as mi


def random_fraction(rng, lo=1, hi=16) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def random_table_weight(rng, m=2, degree=8) -> TableWeight:
    """Positive rational values on every |alpha| <= degree, no fallback."""
    entries = {
        alpha: random_fraction(rng) for alpha in mi.enumerate_leq_degree(m, degree)
    }
    return TableWeight(m, entries)


def random_radial_sequence(rng, needed_length=32):
    kind = rng.choice(["power", "geometric", "polynomial", "explicit"])
    if kind == "power":
        return PowerSequence(rng.randint(1, 5))
    if kind == "geometric":
        return GeometricSequence(random_fraction(rng, 1, 4))
    if kind == "polynomial":
        coeffs = [random_fraction(rng) for _ in range(rng.randint(1, 3))]
        return PolynomialSequence(coeffs)
    return ExplicitSequence([random_fraction(rng) for _ in range(needed_length)])


def random_weight(rng, m=2, degree=10):
    """A weight usable on all |alpha| <= degree + a few shift steps."""
    kind = rng.choice(["power", "radial", "table"])
    if kind == "power":
        return PowerKernel(rng.randint(1, 5), m)
    if kind == "radial":
        return RadialWeight(m, random_radial_sequence(rng, needed_length=degree + 24))
    return random_table_weight(rng, m=m, degree=degree)


def as_array(H):
    """A CurvatureMatrix as a complex128 numpy array, entry by entry."""
    return np.array([[complex(x) for x in row] for row in H.entries], dtype=complex)


def dense_matrices(tt):
    """float64 numpy matrices of the T_i of a TruncatedTuple: the dense
    reference that the float column-map path is tested against."""
    mats = []
    for f in tt.maps:
        A = np.zeros((tt.dimension, tt.dimension))
        for col, (row, p, q) in f.items():
            A[row, col] = sqrt(p / q)
        mats.append(A)
    return mats


def reference_similarity_scan(W1, W2, base_degree, ray_length, growth_factor=Fraction(2)):
    """The per-cell similarity scan: ``ray_ratio_sq`` at every cell in scan
    order (graded-lex base points, directions, lengths), keeping the first
    extremes.  ``cells`` lists every cell as a RayWitness."""
    half = ray_length // 2
    lo = hi = None
    lo_half = hi_half = None
    cells = []
    for alpha in mi.enumerate_leq_degree(W1.m, base_degree):
        for i in range(W1.m):
            for l in range(ray_length + 1):
                r = ray_ratio_sq(W1, W2, alpha, i, l)
                wit = RayWitness(alpha=alpha, direction=i, length=l, value=r)
                cells.append(wit)
                if lo is None or r < lo.value:
                    lo = wit
                if hi is None or r > hi.value:
                    hi = wit
                if l <= half:
                    if lo_half is None or r < lo_half:
                        lo_half = r
                    if hi_half is None or r > hi_half:
                        hi_half = r
    spread = hi.value / lo.value
    spread_half = hi_half / lo_half
    flagged = spread >= growth_factor * spread_half
    return SimpleNamespace(
        min_ratio_sq=lo.value,
        max_ratio_sq=hi.value,
        argmin=lo,
        argmax=hi,
        spread=spread,
        spread_half=spread_half,
        verdict="growth-flagged" if flagged else "bounded-in-scan",
        cells=cells,
    )


def modulus_classes(grid, bits=80) -> set:
    """The distinct exact s = (|w_1|^2, ..., |w_m|^2) of a grid at the
    working precision ``bits``."""
    with mp.workprec(bits):
        return {tuple(abs(mp.mpc(x)) ** 2 for x in w) for w in grid}
