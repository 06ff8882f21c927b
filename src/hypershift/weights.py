"""Diagonal reproducing-kernel weights on the unit ball and their shift
realizations.

A weight function rho assigns a positive rational to every multi-index; the
associated kernel is K(z, w) = sum_alpha rho(alpha) z^alpha conj(w)^alpha and
the adjoint shift tuple acts on the orthonormal diagonal basis by

    T_i e_alpha = sqrt(rho(alpha - e_i) / rho(alpha)) e_{alpha - e_i}.

Every weight is one ``WeightFunction``: a radial coefficient sequence a
(or none) and a finite map of exact values,

    rho(alpha) = the entry at alpha, else a(|alpha|) |alpha|! / alpha!,

with its ``corrections``, the entries' differences from the radial values,
computed once at construction.  The constructors name the shapes a spec
can build:

* ``RadialWeight(m, a)``: no entries.  ``PowerKernel(n, m)`` is the radial
  weight on a(i) = C(n + i - 1, i), i.e.
  rho_n(alpha) = (n + |alpha| - 1)! / (alpha! (n-1)!), the coefficient family
  of (1 - <z, w>)^{-n}.
* ``TableWeight(m, entries, fallback)``: finitely many explicit values over
  the fallback's sequence and entries, or over nothing.

The counterexample family ``PerturbedPower(n, m, L)``, whose entries divide
the values of ``PowerKernel(n, m)`` along finitely many rays by small
integers, lives with the rest of the counterexample in ``counterexample``;
a ``perturbed45`` spec loads it.

A radial sequence is a finite ``ExplicitSequence`` or the one closed form
``PolynomialSequence``, a(d) = p(d) r^d, which ``PowerSequence`` and
``GeometricSequence`` build with their own specs.

``rho`` and ``rho_ratio`` check their indices' lengths once and read the two
rules: a value is the entry, else the radial value; a ratio is the quotient
of two values where either index is an entry, else the radial ratio in
closed form.  Neither reads ``corrections``, so the checks that read
rho_ratio stay independent of the split the exact scans and the metric
read.

All weight values are exact ``Fraction``s and nothing here rounds: a
sequence states its values, its ratio bound ``ratio_sup`` and its last index
``max_index``, and a weight its ``sequence`` and ``corrections``;
``curvature`` sums the truncated metric series from these at a working
precision.  Instances are immutable after construction apart from two
memos, the radial factors of ``WeightFunction._ratio`` and the values p(d)
of a ``PolynomialSequence``, so they are safe to share across threads for
reading.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, perm

from . import multiindex as mi
from .errors import (
    DimensionMismatch,
    SequenceExhausted,
    WeightDomainError,
    WeightSpecError,
)
from .multiindex import MultiIndex
from .report import frac_str

# ---------------------------------------------------------------------------
# Radial coefficient sequences


class RadialSequence:
    """A positive sequence a(0), a(1), ... of exact rationals.

    ``ratio_sup(d)`` returns an upper bound for sup_{j >= d} a(j+1)/a(j), or
    None when no rigorous bound is known; tail estimates refuse to run in the
    latter case rather than guess.
    """

    def value(self, i: int) -> Fraction:
        raise NotImplementedError

    def ratio_sup(self, start: int) -> Fraction | None:
        return None

    def max_index(self) -> int | None:
        """Largest defined index, or None when the sequence is unbounded."""
        return None

    def spec_dict(self) -> dict | None:
        """The JSON-level spec, or None when no spec describes the sequence."""
        return None


class PolynomialSequence(RadialSequence):
    """a(d) = p(d) r^d for p(d) = c_0 + c_1 d + ... + c_k d^k with rational
    coefficients and a rational r > 0, the one closed-form sequence; its
    spec is the polynomial one for r = 1 unless ``spec`` is given.

    p(d) is evaluated by Horner's rule on integer numerators over one
    common denominator and memoized (r^d is not: its bit length grows with
    d); a non-positive p(d) raises on every request.
    """

    def __init__(self, coefficients: list[Fraction], r: Fraction = 1, spec: dict | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if not coeffs:
            raise ValueError("polynomial sequence needs at least one coefficient")
        r = Fraction(r)
        if r <= 0:
            raise ValueError("geometric ratio must be positive")
        self.r = r
        den = lcm(*(c.denominator for c in coeffs))
        # Highest degree first, for Horner's rule, from the degree of p on.
        nums = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
        while len(nums) > 1 and not nums[0]:
            del nums[0]
        self._numerators = nums
        self._denominator = den
        if spec is None and r == 1:
            spec = {"generator": "polynomial", "coefficients": [frac_str(c) for c in coeffs]}
        self.spec = spec
        self._p: dict[int, Fraction] = {}
        self.value(0)  # raises WeightDomainError unless a(0) > 0

    def value(self, i: int) -> Fraction:
        p = self._p.get(i)
        if p is None:
            if i < 0:
                raise ValueError("sequence index must be >= 0")
            numerator = self._horner(i)
            if numerator <= 0:
                raise WeightDomainError(f"polynomial sequence is not positive at index {i}")
            p = self._p[i] = Fraction(numerator, self._denominator)
        if self.r == 1:
            return p
        return p * self.r**i

    def _horner(self, i: int) -> int:
        """p(i) times the common denominator."""
        out = 0
        for c in self._numerators:
            out = out * i + c
        return out

    def ratio_sup(self, start: int) -> Fraction | None:
        """The larger of the k = deg p exact steps a(i+1)/a(i), s <= i < s+k,
        and r ((s+k+1)/(s+k))^k, which bounds every later step termwise;
        None unless every coefficient is nonnegative."""
        if any(c < 0 for c in self._numerators):
            return None
        k = len(self._numerators) - 1
        bound = self.r * Fraction((start + k + 1) ** k, (start + k) ** k)
        for i in range(start, start + k):
            bound = max(bound, self.value(i + 1) / self.value(i))
        return bound

    def spec_dict(self) -> dict | None:
        return self.spec


def PowerSequence(n: int) -> PolynomialSequence:
    """a(d) = C(n + d - 1, d) = (d + 1) ... (d + n - 1) / (n - 1)!, the radial
    profile of PowerKernel(n).

    Building p and each ``ratio_sup`` cost O(n^2) big-integer work, so n is
    capped at 512 (~0.1 s) and a spec with a huge n is refused, not run."""
    if n < 1:
        raise ValueError("kernel power n must be >= 1")
    if n > 512:
        raise ValueError("kernel power n must be <= 512")
    coeffs = [1]
    for j in range(1, n):
        # Times (d + j), on integers: the new c_t is j c_t + c_{t-1}.
        coeffs = [j * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]
    den = factorial(n - 1)
    coeffs = [Fraction(c, den) for c in coeffs]
    return PolynomialSequence(coeffs, spec={"generator": "power", "n": n})


def GeometricSequence(r: Fraction) -> PolynomialSequence:
    """a(d) = r^d for a positive rational ratio r."""
    r = Fraction(r)
    return PolynomialSequence([1], r, {"generator": "geometric", "r": frac_str(r)})


class ExplicitSequence(RadialSequence):
    """A finite explicit list of positive rationals."""

    def __init__(self, values: list[Fraction]):
        vals = [Fraction(v) for v in values]
        if not vals:
            raise ValueError("explicit sequence must be nonempty")
        if any(v <= 0 for v in vals):
            raise ValueError("explicit sequence values must be positive")
        self.values = vals

    def value(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        if i >= len(self.values):
            raise SequenceExhausted(
                f"explicit sequence has {len(self.values)} terms, index {i} requested"
            )
        return self.values[i]

    def max_index(self) -> int:
        return len(self.values) - 1

    def spec_dict(self) -> dict:
        return {"list": [frac_str(v) for v in self.values]}


# ---------------------------------------------------------------------------
# Weight functions


def _dimension(m: int) -> int:
    if m < 1:
        raise ValueError("dimension m must be >= 1")
    return m


def _graded(item: tuple) -> tuple:
    """The graded order of (alpha, ...) pairs: degree, then alpha."""
    return mi.degree(item[0]), item[0]


class WeightFunction:
    """A positive rational weight on multi-indices of dimension m: the finite
    map ``entries`` of exact values over the radial ``sequence`` a,

        rho(alpha) = entries[alpha]                 at an entry,
        rho(alpha) = a(|alpha|) |alpha|! / alpha!   elsewhere,

    and no value off the entries when ``sequence`` is None.

    ``corrections``, computed once here, lists the pairs (alpha, rho(alpha)
    - a(|alpha|) |alpha|!/alpha!) with a nonzero difference, sorted by
    degree and then alpha.  The diagonal metric is then

        h(w) = sum_d a(d) |w|^{2d} + sum_corr delta * |w^alpha|^2

    and only the radial series needs a tail bound; the exact scans read
    ``rho_ratio`` only near the listed indices, and a elsewhere.  It is
    None when there is no sequence, or
    when the sequence is undefined at an entry: the scans then read rho at
    every index, and the metric refuses the weight.

    ``spec`` is the canonical JSON-level spec that ``spec_dict`` returns, or
    None when no spec describes the weight.  ``entries`` holds positive
    ``Fraction``s at indices of length m; ``TableWeight`` checks them.
    """

    def __init__(
        self,
        m: int,
        sequence: RadialSequence | None,
        entries: dict[MultiIndex, Fraction],
        spec: dict | None,
    ):
        self.m = _dimension(m)
        self.sequence = sequence
        self.entries = entries
        self.spec = spec
        # (N, b) -> a(N - b) / (a(N) (N)_b), the radial factor of _ratio.
        self._radial_factor: dict[tuple[int, int], Fraction] = {}
        self.corrections = self._split()

    def _split(self) -> list[tuple[MultiIndex, Fraction]] | None:
        if self.sequence is None:
            return None
        corrections = []
        for alpha, value in self.entries.items():
            try:
                delta = value - self._radial(alpha)
            except WeightDomainError:
                return None
            if delta:
                corrections.append((alpha, delta))
        return sorted(corrections, key=_graded)

    # -- exact values ------------------------------------------------------

    def rho(self, alpha: MultiIndex) -> Fraction:
        alpha = tuple(alpha)
        if len(alpha) != self.m:
            raise DimensionMismatch(f"multi-index has length {len(alpha)}, weight has m = {self.m}")
        return self._rho(mi.validate(alpha))

    def _rho(self, alpha: MultiIndex) -> Fraction:
        """rho at an index of length m: the entry, else the radial value."""
        if self.entries:
            value = self.entries.get(alpha)
            if value is not None:
                return value
        return self._radial(alpha)

    def _radial(self, alpha: MultiIndex) -> Fraction:
        """a(|alpha|) multinomial(|alpha|, alpha), refused unless positive."""
        if self.sequence is None:
            raise WeightDomainError(f"no table entry for {alpha!r} and no fallback")
        d = mi.degree(alpha)
        value = self.sequence.value(d) * mi.multinomial(d, alpha)
        if value <= 0:
            raise WeightDomainError(f"weight is not positive at {alpha!r}")
        return value

    def rho_ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        """rho(alpha - beta) / rho(alpha) for beta <= alpha, read by
        ``_ratio`` once both lengths are checked."""
        if len(alpha) != self.m:
            raise DimensionMismatch("dimension mismatch")
        if len(beta) != self.m:
            raise DimensionMismatch("dimension mismatch in rho_ratio")
        return self._ratio(tuple(alpha), tuple(beta))

    def _ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        """The quotient of two values where alpha or alpha - beta is an
        entry (or there is no sequence), else the radial ratio in closed
        form."""
        if self.entries or self.sequence is None:
            below = mi.sub(alpha, beta)
            if self.sequence is None or alpha in self.entries or below in self.entries:
                return self._rho(below) / self._rho(alpha)
        num = 1
        b_deg = 0
        for a, b in zip(alpha, beta):
            if b > a:
                raise ValueError(f"{beta!r} is not dominated by {alpha!r}")
            num *= perm(a, b)
            b_deg += b
        d = mi.degree(alpha)
        factor = self._radial_factor.get((d, b_deg))
        if factor is None:
            factor = self.sequence.value(d - b_deg) / (self.sequence.value(d) * perm(d, b_deg))
            self._radial_factor[(d, b_deg)] = factor
        return factor * num

    def radial_sequence(self) -> RadialSequence | None:
        return self.sequence

    def spec_dict(self) -> dict:
        """The canonical spec, shared with the weight: callers read it."""
        if self.spec is None:
            raise WeightSpecError(
                "no spec describes this weight: a table serializes only over a "
                "power-kernel fallback, a radial weight only over a sequence with a spec"
            )
        return self.spec


def RadialWeight(m: int, sequence: RadialSequence) -> WeightFunction:
    """rho(alpha) = a(|alpha|) |alpha|! / alpha! for a coefficient sequence a."""
    a = sequence.spec_dict()
    spec = None if a is None else {"kind": "radial", "m": m, "a": a}
    return WeightFunction(m, sequence, {}, spec)


def PowerKernel(n: int, m: int) -> WeightFunction:
    """rho_n(alpha) = (n + |alpha| - 1)! / (alpha! (n - 1)!), the radial
    weight on ``PowerSequence(n)``."""
    return WeightFunction(m, PowerSequence(n), {}, {"kind": "power", "n": n, "m": m})


def TableWeight(
    m: int,
    entries: dict[MultiIndex, Fraction],
    fallback: WeightFunction | None = None,
) -> WeightFunction:
    """Explicit values on finitely many multi-indices over an optional
    fallback weight covering everything else: the fallback's sequence, and
    these entries over the fallback's own.  The spec lists the entries in
    graded order and a power-kernel fallback as ``power:<n>``; over any
    other fallback the weight has no spec."""
    _dimension(m)  # before any entry is checked against it
    exact: dict[MultiIndex, Fraction] = {}
    for alpha, value in entries.items():
        alpha = mi.validate(tuple(alpha))
        if len(alpha) != m:
            raise DimensionMismatch(f"table entry {alpha!r} has wrong dimension")
        value = Fraction(value)
        if value <= 0:
            raise ValueError(f"table entry at {alpha!r} must be positive")
        exact[alpha] = value
    spec: dict | None = {
        "kind": "table",
        "m": m,
        "entries": [
            {"alpha": list(a), "rho": frac_str(v)} for a, v in sorted(exact.items(), key=_graded)
        ],
    }
    if fallback is None:
        return WeightFunction(m, None, exact, spec)
    if fallback.m != m:
        raise DimensionMismatch("fallback weight has mismatched dimension")
    if fallback.spec is not None and fallback.spec["kind"] == "power":
        spec["fallback"] = f"power:{fallback.spec['n']}"
    else:
        spec = None
    return WeightFunction(m, fallback.sequence, {**fallback.entries, **exact}, spec)


def __getattr__(name: str):
    # The counterexample family lives in ``counterexample``; this binding
    # keeps ``hypershift.weights.PerturbedPower`` importable for the
    # benchmark's workloads until they import it from there (ROADMAP item 8).
    if name == "PerturbedPower":
        from .counterexample import PerturbedPower

        return PerturbedPower
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Serialization of weight specifications


def parse_fraction(text) -> Fraction:
    """Parse "p/q" (or a bare integer) into an exact Fraction: an optional
    "-", ASCII digits, and an optional "/" with ASCII digits, between
    optional ASCII spaces.  ``Fraction`` would also take "+", decimals,
    exponents, "inf", "_" and other scripts' digits."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and text.isascii():
        body = text.strip()
        p, slash, q = body.removeprefix("-").partition("/")
        try:
            value = Fraction(parse_natural(p), parse_natural(q) if slash else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise WeightSpecError(f"not a rational: {text!r}") from exc
        return -value if body.startswith("-") else value
    raise WeightSpecError(f"not a rational: {text!r}")


def parse_natural(text: str) -> int:
    """A nonnegative integer written in ASCII digits alone; ``int`` would
    also take signs, spaces, underscores and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a nonnegative integer: {text!r}")
    return int(text)


def _integer(value, name: str) -> int:
    """A JSON integer; a bool or a float is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise WeightSpecError(f"{name} must be an integer, got {value!r}")
    return value


def _array(value, name: str) -> list:
    """A JSON array; a string is refused, not read as its characters."""
    if not isinstance(value, list):
        raise WeightSpecError(f"{name} must be an array, got {value!r}")
    return value


def _sequence_from_dict(spec: dict) -> RadialSequence:
    if not isinstance(spec, dict):
        raise WeightSpecError(f"radial sequence spec must be an object, got {spec!r}")
    if "list" in spec:
        return ExplicitSequence([parse_fraction(v) for v in _array(spec["list"], "list")])
    gen = spec.get("generator")
    if gen == "power":
        return PowerSequence(_integer(spec["n"], "n"))
    if gen == "geometric":
        return GeometricSequence(parse_fraction(spec["r"]))
    if gen == "polynomial":
        coeffs = _array(spec["coefficients"], "coefficients")
        return PolynomialSequence([parse_fraction(c) for c in coeffs])
    raise WeightSpecError(f"unknown radial sequence spec {spec!r}")


def _parse_fallback(text: str, m: int) -> WeightFunction:
    if isinstance(text, str) and text.startswith("power:"):
        return PowerKernel(parse_natural(text.split(":", 1)[1]), m)
    raise WeightSpecError(f"unknown fallback spec {text!r}")


def weight_from_dict(spec: dict) -> WeightFunction:
    """Build a weight from its JSON-level dict specification.  ``n``, ``m``,
    ``L`` and the alpha entries are JSON integers; ``list``,
    ``coefficients``, ``entries`` and ``alpha`` are arrays; a table lists
    each alpha once."""
    if not isinstance(spec, dict):
        raise WeightSpecError("weight spec must be an object")
    kind = spec.get("kind")
    try:
        if kind == "power":
            return PowerKernel(_integer(spec["n"], "n"), _integer(spec["m"], "m"))
        if kind == "radial":
            return RadialWeight(_integer(spec["m"], "m"), _sequence_from_dict(spec["a"]))
        if kind == "table":
            m = _integer(spec["m"], "m")
            entries = {}
            for e in _array(spec["entries"], "entries"):
                alpha = tuple(_integer(x, "alpha entry") for x in _array(e["alpha"], "alpha"))
                if alpha in entries:
                    raise WeightSpecError(f"table alpha {list(alpha)} is listed twice")
                entries[alpha] = parse_fraction(e["rho"])
            fallback = None
            if spec.get("fallback") not in (None, "none"):
                fallback = _parse_fallback(spec["fallback"], m)
            return TableWeight(m, entries, fallback)
        if kind == "perturbed45":
            from .counterexample import PerturbedPower

            return PerturbedPower(
                _integer(spec["n"], "n"), _integer(spec["m"], "m"), _integer(spec["L"], "L")
            )
    except WeightSpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightSpecError(f"malformed weight spec {spec!r}: {exc}") from exc
    raise WeightSpecError(f"unknown weight kind {kind!r}")
