"""Shared builders for randomized test weights, and the dense numpy
references the float paths are tested against.

Everything takes an explicit random.Random so tests stay reproducible; no
module-level RNG state.  numpy is a test dependency only: the package itself
never imports it.
"""

from fractions import Fraction
from math import sqrt

import numpy as np

from hypershift import (
    ExplicitSequence,
    GeometricSequence,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
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
