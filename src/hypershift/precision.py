"""Working-precision arithmetic for the metric and curvature numerics.

Every series, jet, Hessian and spectrum is computed in one ``decimal``
context of P significant digits for a working precision of p bits: the
fewest digits whose unit roundoff 5 10^-P is at most the binary 2^-p, so
no rounding is coarser than at p bits.  The context has the widest
exponent range (exact corrections reach 1e-807) and the default traps.
Python's ``decimal`` is libmpdec, in C, and the standard library loads it
anyway, so these numerics need no third-party package.

Complex values are ``DecimalComplex`` pairs.  The products conj(x) y of two
exact inputs (grid coordinates) and the squared moduli |x|^2 are formed
exactly and rounded once, as a binary multiprecision complex product is.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import ceil, isinf, log10

# Products and sums of exact operands, never rounded.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
ZERO = Decimal(0)
HALF = Decimal("0.5")


@lru_cache(maxsize=None)
def working_context(precision_bits: int) -> Context:
    """The context of the fewest digits P with unit roundoff 5 10^-P <= 2^-p
    for p = precision_bits, that is 10^P >= 5 2^p (at least one digit, so a
    bad p is refused where it is checked)."""
    p = max(0, precision_bits)
    bound = 5 << p
    digits = max(1, ceil(p * log10(2) + log10(5)))
    # The float estimate can be off by one either way; settle it exactly.
    while digits > 1 and 10 ** (digits - 1) >= bound:
        digits -= 1
    while 10**digits < bound:
        digits += 1
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def to_float(x) -> float:
    """x rounded to the nearest float, a zero written as 0.0, never -0.0.
    A finite x past float64 range raises OverflowError, as ``float`` of a
    Fraction does, where ``float`` of a Decimal would give an infinity."""
    f = float(x) + 0.0
    if isinf(f):
        raise OverflowError(f"{x:.6e} is past float64 range")
    return f


def to_decimal(x: Fraction) -> Decimal:
    """The exact rational x rounded once in the current context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def parts(z) -> tuple[Decimal, Decimal]:
    """The exact real and imaginary parts of a number (int, float, complex,
    Decimal or DecimalComplex)."""
    return Decimal(z.real), Decimal(z.imag)


def abs_sq(x: tuple[Decimal, Decimal]) -> Decimal:
    """|x|^2 of exact parts, rounded once in the current context."""
    a, b = x
    return EXACT.multiply(a, a) + EXACT.multiply(b, b)


def conj_mul(x: tuple[Decimal, Decimal], y: tuple[Decimal, Decimal]) -> DecimalComplex:
    """conj(x) y of exact parts, each part rounded once in the current
    context."""
    (a, b), (c, d) = x, y
    mul = EXACT.multiply
    return DecimalComplex(mul(a, c) + mul(b, d), mul(a, d) - mul(b, c))


class DecimalComplex:
    """A complex number held as two Decimals.  ``complex()`` rounds each
    part to the nearest float and writes a zero as 0.0, never -0.0.
    Arithmetic is written out where it is needed, so each rounding shows."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Decimal, imag: Decimal = ZERO):
        self.real = real
        self.imag = imag

    def conjugate(self) -> DecimalComplex:
        return DecimalComplex(self.real, self.imag.copy_negate())

    def scaled(self, c: Decimal) -> DecimalComplex:
        """c times self for a real c, each part rounded once."""
        return DecimalComplex(c * self.real, c * self.imag)

    def __complex__(self) -> complex:
        return complex(to_float(self.real), to_float(self.imag))

    def __eq__(self, other) -> bool:
        """Equal to any number with equal real and imaginary parts."""
        try:
            return self.real == other.real and self.imag == other.imag
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        # The hash of an equal int, float, Decimal or complex.
        return hash(complex(self)) if self.imag else hash(self.real)

    def __repr__(self) -> str:
        return f"DecimalComplex({self.real!r}, {self.imag!r})"
