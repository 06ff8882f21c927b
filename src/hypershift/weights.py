"""Diagonal reproducing-kernel weights on the unit ball and their shift
realizations.

A weight function rho assigns a positive rational to every multi-index; the
associated kernel is K(z, w) = sum_alpha rho(alpha) z^alpha conj(w)^alpha and
the adjoint shift tuple acts on the orthonormal diagonal basis by

    T_i e_alpha = sqrt(rho(alpha - e_i) / rho(alpha)) e_{alpha - e_i}.

Every weight follows one of two rules:

* ``RadialWeight``: rho(alpha) = a(|alpha|) |alpha|! / alpha! for a positive
  coefficient sequence a, with ``rho_ratio`` in closed form.
  ``PowerKernel(n, m)`` is the radial weight on a(i) = C(n + i - 1, i), i.e.
  rho_n(alpha) = (n + |alpha| - 1)! / (alpha! (n-1)!), the coefficient family
  of (1 - <z, w>)^{-n}.
* ``TableWeight``: finitely many explicit values over an optional fallback
  weight.  ``rho_ratio`` is the fallback's where neither index is an entry,
  and the quotient of two values otherwise.  ``PerturbedPower``, the
  counterexample family, is the table over ``PowerKernel(n, m)`` that divides
  the power values along finitely many rays by small integers.

``rho_ratio`` reads only these rules, never ``metric_decomposition`` or
``radial_split``, so the checks that read rho_ratio stay independent of the
split the exact scans and the metric read.

All weight values are exact ``Fraction``s.  Instances are immutable after
construction apart from internal value, ratio and series caches, so they are
safe to share across threads for reading.
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from math import comb, factorial, perm
from typing import NamedTuple

from . import multiindex as mi
from .errors import (
    BallDomainError,
    SequenceExhausted,
    TailUnreliableError,
    WeightDomainError,
    WeightSpecError,
)
from .multiindex import MultiIndex
from .precision import ZERO, DecimalComplex, abs_sq, conj_mul, parts, to_decimal, working_context
from .report import frac_str

# ---------------------------------------------------------------------------
# Radial coefficient sequences


class RadialSequence:
    """A positive sequence a(0), a(1), ... of exact rationals.

    ``ratio_sup(d)`` returns an upper bound for sup_{j >= d} a(j+1)/a(j), or
    None when no rigorous bound is known; tail estimates refuse to run in the
    latter case rather than guess.

    ``series`` evaluates the truncated power series of the sequence and
    memoizes it on the instance, so every weight that shares a sequence
    shares its evaluations.  The coefficient triples the series sums are
    memoized per working precision next to it, so a new t costs only the
    multiply-adds.
    """

    def __init__(self):
        self._series: dict[tuple, tuple] = {}
        # working digits -> [(a_d, d a_d, d (d-1) a_d)] for d = 0, 1, ...
        self._coefficients: dict[int, list[tuple]] = {}

    def value(self, i: int) -> Fraction:
        raise NotImplementedError

    def ratio_sup(self, start: int) -> Fraction | None:
        return None

    def max_index(self) -> int | None:
        """Largest defined index, or None when the sequence is unbounded."""
        return None

    def spec_dict(self) -> dict:
        raise NotImplementedError

    def series(self, t: Decimal, max_degree: int) -> tuple:
        """g(t), g'(t), g''(t) of g(t) = sum_{d <= max_degree} a(d) t^d and the
        geometric tail bounds of the three series beyond max_degree, in the
        current (working) decimal context.

        Memoized on the exact key (t, max_degree, working digits); the result
        depends on nothing else, so a hit is bit-identical to a fresh
        evaluation.  Raises SequenceExhausted when the sequence ends before
        max_degree and TailUnreliableError when no ratio bound is known.
        """
        digits = getcontext().prec
        key = (t, max_degree, digits)
        hit = self._series.get(key)
        if hit is not None:
            return hit
        limit = self.max_index()
        if limit is not None and limit < max_degree:
            raise SequenceExhausted(
                f"radial sequence ends at index {limit}, truncation degree {max_degree} requested"
            )
        coeffs = self._coefficients.setdefault(digits, [])
        for d in range(len(coeffs), max_degree + 1):
            a_d = to_decimal(self.value(d))
            coeffs.append((a_d, d * a_d, d * (d - 1) * a_d))
        # Running powers of t: p = t^d, p1 = t^(d-1), p2 = t^(d-2).  The
        # terms d a_d p1 and d (d-1) a_d p2 are exact zeros while p1 or p2 is.
        g = gp = gpp = p1 = p2 = ZERO
        p = Decimal(1)
        for a_d, da_d, dda_d in coeffs[: max_degree + 1]:
            g += a_d * p
            gp += da_d * p1
            gpp += dda_d * p2
            p2 = p1
            p1 = p
            p *= t

        ratio = self.ratio_sup(max_degree)
        if ratio is None:
            raise TailUnreliableError(
                "no ratio bound available for this radial sequence; tail is unreliable"
            )
        hit = (g, gp, gpp) + _geometric_tails(coeffs[max_degree][0], t, max_degree, ratio)
        self._series[key] = hit
        return hit


class PowerSequence(RadialSequence):
    """a(i) = C(n + i - 1, i), the radial profile of PowerKernel(n)."""

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise ValueError("kernel power n must be >= 1")
        self.n = n

    def value(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return Fraction(comb(self.n + i - 1, i))

    def ratio_sup(self, start: int) -> Fraction:
        # a(i+1)/a(i) = (n + i)/(i + 1), decreasing in i.
        return Fraction(self.n + start, start + 1)

    def spec_dict(self) -> dict:
        return {"generator": "power", "n": self.n}


class GeometricSequence(RadialSequence):
    """a(i) = r^i for a positive rational ratio r."""

    def __init__(self, r: Fraction):
        super().__init__()
        r = Fraction(r)
        if r <= 0:
            raise ValueError("geometric ratio must be positive")
        self.r = r

    def value(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        return self.r**i

    def ratio_sup(self, start: int) -> Fraction:
        return self.r

    def spec_dict(self) -> dict:
        return {"generator": "geometric", "r": frac_str(self.r)}


class PolynomialSequence(RadialSequence):
    """a(i) = c_0 + c_1 i + ... + c_k i^k with rational coefficients.

    Each index is evaluated once and memoized; positivity is checked on
    every evaluation, so a non-positive index raises on every request.  A
    ratio bound is only available when all coefficients are nonnegative
    (then a(i+1)/a(i) <= ((i+1)/i)^k for i >= 1 by termwise comparison).
    """

    def __init__(self, coefficients: list[Fraction]):
        super().__init__()
        coeffs = [Fraction(c) for c in coefficients]
        if not coeffs:
            raise ValueError("polynomial sequence needs at least one coefficient")
        self.coefficients = coeffs
        self._values: dict[int, Fraction] = {}
        if self.value(0) <= 0:
            raise ValueError("sequence must be positive at index 0")

    def value(self, i: int) -> Fraction:
        out = self._values.get(i)
        if out is None:
            if i < 0:
                raise ValueError("sequence index must be >= 0")
            out = self._horner(i)
            if out <= 0:
                raise WeightDomainError(f"polynomial sequence is not positive at index {i}")
            self._values[i] = out
        return out

    def _horner(self, i: int) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coefficients):
            out = out * i + c
        return out

    def ratio_sup(self, start: int) -> Fraction | None:
        if any(c < 0 for c in self.coefficients):
            return None
        deg = len(self.coefficients) - 1
        if start == 0:
            # Exact step at 0, then the i >= 1 bound evaluated at its maximum.
            bound = Fraction(2) ** deg
            return max(self.value(1) / self.value(0), bound)
        return Fraction(start + 1, start) ** deg

    def spec_dict(self) -> dict:
        return {"generator": "polynomial", "coefficients": [frac_str(c) for c in self.coefficients]}


class ExplicitSequence(RadialSequence):
    """A finite explicit list of positive rationals."""

    def __init__(self, values: list[Fraction]):
        super().__init__()
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


def _check_ratio_lengths(m: int, alpha: MultiIndex, beta: MultiIndex) -> None:
    if len(alpha) != m:
        raise ValueError("dimension mismatch")
    if len(beta) != m:
        raise ValueError("dimension mismatch in rho_ratio")


class WeightFunction:
    """Base class: a positive rational weight on multi-indices of fixed
    dimension m, normalized so that rho(0) is finite and positive."""

    kind = "abstract"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("dimension m must be >= 1")
        self.m = m
        self._cache: dict[MultiIndex, Fraction] = {}

    # -- exact values ------------------------------------------------------

    def rho(self, alpha: MultiIndex) -> Fraction:
        alpha = tuple(alpha)
        if len(alpha) != self.m:
            raise ValueError(f"multi-index has length {len(alpha)}, weight has m = {self.m}")
        cached = self._cache.get(alpha)
        if cached is None:
            mi.validate(alpha)
            cached = self._rho(alpha)
            if cached <= 0:
                raise WeightDomainError(f"weight is not positive at {alpha!r}")
            self._cache[alpha] = cached
        return cached

    def _rho(self, alpha: MultiIndex) -> Fraction:
        raise NotImplementedError

    def rho_ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        """rho(alpha - beta) / rho(alpha) for beta <= alpha.

        Radial weights override this with a telescoped closed form and
        tables with their fallback's ratio; the generic version divides two
        full values.
        """
        return self.rho(mi.sub(alpha, beta)) / self.rho(alpha)

    def shift_weight_sq(self, alpha: MultiIndex, i: int) -> Fraction:
        """Squared shift weight rho(alpha) / rho(alpha + e_i)."""
        e = mi.unit(self.m, i)
        return self.rho_ratio(mi.add(alpha, e), e)

    # -- metric structure ----------------------------------------------------

    def radial_sequence(self) -> RadialSequence | None:
        """The radial profile a with rho(alpha) = a(|alpha|) |alpha|!/alpha!,
        when the weight is exactly radial; None otherwise."""
        return None

    def metric_decomposition(self) -> tuple[RadialSequence | None, list[tuple[MultiIndex, Fraction]]]:
        """Split rho into a radial base plus finitely many exact corrections.

        Returns (base, corrections) with corrections a list of pairs
        (alpha, rho(alpha) - rho_base(alpha)).  The diagonal metric is then

            h(w) = sum_d a(d) |w|^{2d} + sum_corr delta * |w^alpha|^2

        and only the radial base needs a series tail bound.

        A table adds its entries' differences from its fallback to the
        fallback's corrections: one negative correction per divided ray
        point for ``PerturbedPower``.

        The defect engine relies on the same split: rho equals the radial
        base exactly at every index not listed in the corrections, so a
        unit step s_i(alpha) = rho(alpha - e_i)/rho(alpha) is read from the
        base unless alpha or alpha - e_i is listed.  A subclass that
        overrides ``_rho`` must therefore also override this method (or
        ``radial_sequence``), or the engine scans the base instead of it.
        """
        base = self.radial_sequence()
        if base is None:
            raise TailUnreliableError(
                f"{self.kind} weight has no radial decomposition for metric evaluation"
            )
        return base, []

    def spec_dict(self) -> dict:
        raise NotImplementedError


class RadialWeight(WeightFunction):
    """rho(alpha) = a(|alpha|) |alpha|! / alpha! for a coefficient sequence a."""

    kind = "radial"

    def __init__(self, m: int, sequence: RadialSequence):
        super().__init__(m)
        self.sequence = sequence
        # (N, b) -> a(N - b) / (a(N) (N)_b), the radial factor of rho_ratio.
        self._radial_factor: dict[tuple[int, int], Fraction] = {}

    def _rho(self, alpha: MultiIndex) -> Fraction:
        d = mi.degree(alpha)
        return self.sequence.value(d) * Fraction(factorial(d), mi.factorial(alpha))

    def rho_ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        _check_ratio_lengths(self.m, alpha, beta)
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

    def radial_sequence(self) -> RadialSequence:
        return self.sequence

    def spec_dict(self) -> dict:
        return {"kind": "radial", "m": self.m, "a": self.sequence.spec_dict()}


class PowerKernel(RadialWeight):
    """rho_n(alpha) = (n + |alpha| - 1)! / (alpha! (n - 1)!), the radial
    weight on ``PowerSequence(n)``."""

    kind = "power"

    def __init__(self, n: int, m: int):
        super().__init__(m, PowerSequence(n))
        self.n = n

    def spec_dict(self) -> dict:
        return {"kind": "power", "n": self.n, "m": self.m}


class TableWeight(WeightFunction):
    """Explicit values on finitely many multi-indices with an optional
    fallback weight covering everything else."""

    kind = "table"

    def __init__(
        self,
        m: int,
        entries: dict[MultiIndex, Fraction],
        fallback: WeightFunction | None = None,
    ):
        super().__init__(m)
        norm: dict[MultiIndex, Fraction] = {}
        for alpha, value in entries.items():
            alpha = mi.validate(tuple(alpha))
            if len(alpha) != m:
                raise ValueError(f"table entry {alpha!r} has wrong dimension")
            value = Fraction(value)
            if value <= 0:
                raise ValueError(f"table entry at {alpha!r} must be positive")
            norm[alpha] = value
        if fallback is not None and fallback.m != m:
            raise ValueError("fallback weight has mismatched dimension")
        self.entries = norm
        self.fallback = fallback

    def _rho(self, alpha: MultiIndex) -> Fraction:
        value = self.entries.get(alpha)
        if value is not None:
            return value
        if self.fallback is None:
            raise WeightDomainError(f"no table entry for {alpha!r} and no fallback")
        return self.fallback.rho(alpha)

    def rho_ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        """The fallback's ratio where neither alpha nor alpha - beta is an
        entry, else the quotient of the two table values."""
        _check_ratio_lengths(self.m, alpha, beta)
        if self.fallback is not None:
            alpha = tuple(alpha)
            if alpha not in self.entries and mi.sub(alpha, beta) not in self.entries:
                return self.fallback.rho_ratio(alpha, beta)
        return super().rho_ratio(alpha, beta)

    def metric_decomposition(self):
        if self.fallback is None:
            raise TailUnreliableError("table weight without fallback has no series tail bound")
        base, base_corr = self.fallback.metric_decomposition()
        corrections = dict(base_corr)
        for alpha, value in self.entries.items():
            delta = value - self.fallback.rho(alpha)
            corrections[alpha] = corrections.get(alpha, Fraction(0)) + delta
        items = [(a, d) for a, d in corrections.items() if d != 0]
        items.sort(key=lambda p: (mi.degree(p[0]), p[0]))
        return base, items

    def spec_dict(self) -> dict:
        out: dict = {
            "kind": "table",
            "m": self.m,
            "entries": [
                {"alpha": list(a), "rho": frac_str(v)}
                for a, v in sorted(self.entries.items(), key=lambda p: (mi.degree(p[0]), p[0]))
            ],
        }
        if self.fallback is not None:
            if isinstance(self.fallback, PowerKernel):
                out["fallback"] = f"power:{self.fallback.n}"
            else:
                raise WeightSpecError("only power-kernel fallbacks serialize")
        return out


class PerturbedPower(TableWeight):
    """A power kernel divided by small integers along finitely many rays: a
    table over the fallback ``base = PowerKernel(n, m)`` whose entries are
    base.rho(alpha) / d at the finitely many indices with divisor d > 1.

    Block l (l = 1 .. blocks) sits over the base point (0, b_l, 0, ..., 0)
    where b_l is the smallest admissible base degree

        b_l  >  max(n^n 2^{3l+1} / (n-1)! - n,  n - 2),
        b_l  >  b_{l-1} + 2(l-1),

    and divides rho at the ray points base + j e_0 (1 <= j <= 2l-1) by
    min(j, 2l-j).  The divisor profile rises to l at the midpoint and falls
    back to 1, so each block injects a bounded ray distortion of size l while
    every kernel-level quantity moves by at most a fixed factor of 2.
    Requires m >= 2 and n >= 2.
    """

    kind = "perturbed45"

    def __init__(self, n: int, m: int, blocks: int):
        if m < 2:
            raise ValueError("perturbed family needs m >= 2")
        if n < 2:
            raise ValueError("perturbed family needs n >= 2")
        if blocks < 1:
            raise ValueError("block count must be >= 1")
        self.n = n
        self.blocks = blocks
        self.base = PowerKernel(n, m)
        self.base_degrees = self._block_base_degrees(n, blocks)
        self._divisors: dict[MultiIndex, int] = {}
        for l, b in enumerate(self.base_degrees, start=1):
            for j in range(2, 2 * l - 1):
                self._divisors[(j, b) + (0,) * (m - 2)] = min(j, 2 * l - j)
        entries = {alpha: self.base.rho(alpha) / d for alpha, d in self._divisors.items()}
        super().__init__(m, entries, self.base)

    @staticmethod
    def _block_base_degrees(n: int, blocks: int) -> list[int]:
        degrees: list[int] = []
        prev = None
        for l in range(1, blocks + 1):
            lo = Fraction(n**n * 2 ** (3 * l + 1), factorial(n - 1)) - n
            lo = max(lo, Fraction(n - 2))
            b = lo.numerator // lo.denominator + 1
            if prev is not None and b <= prev + 2 * (l - 1):
                b = prev + 2 * (l - 1) + 1
            degrees.append(b)
            prev = b
        return degrees

    def divisor(self, alpha: MultiIndex) -> int:
        """The integer rho is divided by at alpha (1 off the perturbed rays)."""
        if len(alpha) != self.m:
            raise ValueError("dimension mismatch")
        return self._divisors.get(tuple(alpha), 1)

    def perturbed_entries(self) -> list[tuple[MultiIndex, int]]:
        """All (alpha, divisor) pairs with divisor > 1, graded order."""
        return sorted(self._divisors.items(), key=lambda p: (mi.degree(p[0]), p[0]))

    def spec_dict(self) -> dict:
        return {"kind": "perturbed45", "n": self.n, "m": self.m, "L": self.blocks}


def radial_split(W: WeightFunction) -> tuple[RadialSequence | None, frozenset]:
    """(base, corrected indices) from W's ``metric_decomposition``.

    rho equals the radial base a(|alpha|) |alpha|!/alpha! at every index
    outside the finite corrected set, so the exact scans read it from the
    base there.  A weight with no radial base, or a table whose fallback is
    undefined at one of its entries, gives (None, frozenset()): the scans
    then read rho at every index, and fail, if at all, where a per-index
    scan fails.
    """
    try:
        base, corrections = W.metric_decomposition()
    except (TailUnreliableError, WeightDomainError):
        return None, frozenset()
    return base, frozenset(alpha for alpha, _ in corrections)


# ---------------------------------------------------------------------------
# Serialization of weight specifications


def parse_fraction(text) -> Fraction:
    """Parse "p/q" (or a bare integer) into an exact Fraction."""
    if isinstance(text, bool):
        raise WeightSpecError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise WeightSpecError(f"not a rational: {text!r}") from exc
    raise WeightSpecError(f"not a rational: {text!r}")


def _sequence_from_dict(spec: dict) -> RadialSequence:
    if "list" in spec:
        return ExplicitSequence([parse_fraction(v) for v in spec["list"]])
    gen = spec.get("generator")
    if gen == "power":
        return PowerSequence(int(spec["n"]))
    if gen == "geometric":
        return GeometricSequence(parse_fraction(spec["r"]))
    if gen == "polynomial":
        return PolynomialSequence([parse_fraction(c) for c in spec["coefficients"]])
    raise WeightSpecError(f"unknown radial sequence spec {spec!r}")


def _parse_fallback(text: str, m: int) -> WeightFunction:
    if isinstance(text, str) and text.startswith("power:"):
        return PowerKernel(int(text.split(":", 1)[1]), m)
    raise WeightSpecError(f"unknown fallback spec {text!r}")


def weight_from_dict(spec: dict) -> WeightFunction:
    """Build a weight from its JSON-level dict specification."""
    if not isinstance(spec, dict):
        raise WeightSpecError("weight spec must be an object")
    kind = spec.get("kind")
    try:
        if kind == "power":
            return PowerKernel(int(spec["n"]), int(spec["m"]))
        if kind == "radial":
            return RadialWeight(int(spec["m"]), _sequence_from_dict(spec["a"]))
        if kind == "table":
            m = int(spec["m"])
            entries = {
                tuple(int(x) for x in e["alpha"]): parse_fraction(e["rho"])
                for e in spec["entries"]
            }
            fallback = None
            if spec.get("fallback") not in (None, "none"):
                fallback = _parse_fallback(spec["fallback"], m)
            return TableWeight(m, entries, fallback)
        if kind == "perturbed45":
            return PerturbedPower(int(spec["n"]), int(spec["m"]), int(spec["L"]))
    except WeightSpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightSpecError(f"malformed weight spec {spec!r}: {exc}") from exc
    raise WeightSpecError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# Diagonal metric evaluation


class MetricJet(NamedTuple):
    """The diagonal metric as a real jet in s = (|w_1|^2, ..., |w_m|^2).

    h(w) = sum_alpha rho(alpha) |w^alpha|^2 = F(s) depends on w only through
    s, so one jet serves every point of the modulus class ``s``: ``h`` = F,
    ``ds`` = (dF/ds_i) and ``dss`` = (d^2F/ds_i ds_j), a symmetric m x m
    nested tuple, all Decimals at the working precision.  The tails bound
    what the truncated radial base series leaves out of F, of each dF/ds_i
    and of each d^2F/ds_i ds_j.  At s = 0 ``dss`` is stored as zeros: every
    Wirtinger term it enters carries a factor conj(w_i) w_j.

    A jet from ``metric_jets`` has no point and ``grad = hess = None``;
    ``metric_jet(W, w)`` adds the Wirtinger derivatives at w as
    ``DecimalComplex`` values,

        grad_i = F_i conj(w_i),   hess_ij = F_ij conj(w_i) w_j + delta_ij F_i.
    """

    s: tuple
    h: Decimal
    ds: tuple
    dss: tuple
    tail_h: Decimal
    tail_grad: Decimal
    tail_hess: Decimal
    max_degree: int
    grad: tuple | None = None
    hess: tuple | None = None


def _geometric_tails(a_last: Decimal, t: Decimal, d: int, ratio: Fraction):
    """Tail bounds for sum a(j) t^j, its first, and its second t-derivative
    beyond degree d, assuming a(j+1)/a(j) <= r = ratio for j >= d.

    With a(d+i) <= a(d) r^i all three reduce to geometric series in
    x = r t.  Each derivative takes one factor r out of the sum instead of
    dividing by t, so no negative power of t appears for d <= 1; writing
    j(j-1) = d(d-1) + 2di + i(i-1) for j = d+i, the bounds are exact when
    a(j+1)/a(j) = r:
        sum_{j>d} a(j) t^j          <= a(d) t^d x/(1-x)
        sum_{j>d} j a(j) t^{j-1}    <= a(d) r t^d [d/(1-x) + 1/(1-x)^2]
        sum_{j>d} j(j-1) a(j) t^{j-2}
            <= a(d) r [d t^{d-1} ((d-1)/(1-x) + 2/(1-x)^2) + 2 r t^d/(1-x)^3]
    """
    r = to_decimal(ratio)
    x = r * t
    if x >= 1:
        raise TailUnreliableError(
            f"series ratio bound {float(x):.6f} >= 1 at truncation degree {d}; "
            "increase the truncation degree or shrink the radius"
        )
    u = 1 / (1 - x)
    td = t**d
    # d t^{d-1} is 0 at d = 0; t^{-1} is never formed.
    dtd1 = d * t ** (d - 1) if d else ZERO
    tail0 = a_last * td * x * u
    tail1 = a_last * r * td * u * (d + u)
    tail2 = a_last * r * u * (dtd1 * (d - 1 + 2 * u) + 2 * r * td * u * u)
    return tail0, tail1, tail2


def _sequence_key(seq: RadialSequence):
    """Equal keys mark radial sequences with bit-identical series: the same
    instance, or the same class with the same spec."""
    try:
        return type(seq), repr(seq.spec_dict())
    except NotImplementedError:
        return seq


def _correction_table(W: WeightFunction) -> tuple:
    """(base, base key, terms) for the metric of W at the working precision.

    A correction delta at alpha adds delta s^alpha to F, delta alpha_i
    s^(alpha - e_i) to F_i and delta alpha_i (alpha_j - delta_ij)
    s^(alpha - e_i - e_j) to F_ij.  Each term (slot, c, e) adds c s^e at the
    slot () for F, (i,) for F_i or (i, j) with i <= j for F_ij; c is the
    exact coefficient rounded once, and the exponents e are already shifted,
    so no negative power of s is formed and s_i = 0 needs no special case.
    """
    base, corrections = W.metric_decomposition()
    m = W.m
    terms = []
    for alpha, delta in corrections:
        terms.append(((), to_decimal(delta), alpha))
        for i, a in enumerate(alpha):
            if not a:
                continue
            lower = mi.sub(alpha, mi.unit(m, i))
            terms.append(((i,), to_decimal(delta * a), lower))
            for j in range(i, m):
                c = a * lower[j]
                if c:
                    terms.append(((i, j), to_decimal(delta * c), mi.sub(lower, mi.unit(m, j))))
    return base, _sequence_key(base), terms


def _origin_jet(W: WeightFunction, s: tuple, max_degree: int) -> MetricJet:
    """The jet at s = 0, exact from two weight layers: F = rho(0) and
    F_i = rho(e_i)."""
    m = W.m
    return MetricJet(
        s=s,
        h=to_decimal(W.rho((0,) * m)),
        ds=tuple(to_decimal(W.rho(mi.unit(m, i))) for i in range(m)),
        dss=((ZERO,) * m,) * m,
        tail_h=ZERO,
        tail_grad=ZERO,
        tail_hess=ZERO,
        max_degree=max_degree,
    )


def _class_jet(table: tuple, s: tuple, t, max_degree: int, bases: dict) -> MetricJet:
    """The real jet at the modulus class s (with t = sum s_i > 0): the base
    series g, g', g'' at t, shared through ``bases`` by equal sequences, plus
    every correction term in full."""
    base, key, terms = table
    series = bases.get(key)
    if series is None:
        series = bases[key] = base.series(t, max_degree)
    g, gp, gpp, tail0, tail1, tail2 = series
    m = len(s)
    jet = {(): g}
    for i in range(m):
        jet[(i,)] = gp
        for j in range(i, m):
            jet[(i, j)] = gpp
    for slot, c, e in terms:
        power = Decimal(1)
        for x, k in zip(s, e):
            if k:
                power *= x**k
        jet[slot] += c * power
    if jet[()] <= 0:
        raise TailUnreliableError(
            f"truncated metric h = {float(jet[()]):.6g} is not positive at "
            f"|w|^2 = {float(t):.6f}; increase the truncation degree"
        )
    return MetricJet(
        s=s,
        h=jet[()],
        ds=tuple(jet[(i,)] for i in range(m)),
        dss=tuple(tuple(jet[(min(i, j), max(i, j))] for j in range(m)) for i in range(m)),
        tail_h=tail0,
        tail_grad=tail1,
        tail_hess=tail2,
        max_degree=max_degree,
    )


def metric_jets(
    weights,
    points,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> list[tuple[MetricJet, ...]]:
    """Evaluate h(w) = sum_alpha rho(alpha) |w^alpha|^2 = F(s) as a real
    jet in s_i = |w_i|^2 (``MetricJet``) for every weight at every point,
    truncating the radial base series at ``max_degree`` and summing every
    exact correction term in full, in ``working_context(precision_bits)``.
    Returns one tuple per point holding the jet of each weight in order.

    The jet depends on the point only through its exact modulus class, the
    tuple of the s_i, each formed exactly from the coordinate and rounded
    once at the working precision, so each class is evaluated once and all
    its points share the same jet objects.  Within a call each weight's
    correction table is built once, at the first point off the origin, and
    at each class the base series is summed once for all weights on equal
    radial sequences.  Every jet is bit for bit the jet of that weight at
    that point alone, and the errors come in the order of evaluating the
    points one by one and, at each point, the weights in order.

    Raises BallDomainError if |w| >= 1, and TailUnreliableError when no
    rigorous tail bound exists at this truncation degree or the truncated
    h is not positive (negative corrections outweighing a short base
    series), since such a value is not a metric.
    """
    weights = list(weights)
    tables: list[tuple | None] = [None] * len(weights)
    moduli: dict = {}  # coordinate as given -> |x|^2
    classes: dict[tuple, list] = {}  # exact s -> jets of the weights so far
    out = []
    with localcontext(working_context(precision_bits)):
        for w in points:
            jets: list = []
            for k, W in enumerate(weights):
                if len(w) != W.m:
                    raise ValueError(f"point has dimension {len(w)}, weight has m = {W.m}")
                if max_degree < 0:
                    raise ValueError("max_degree must be >= 0")
                if precision_bits < 53:
                    raise ValueError("precision_bits must be at least 53")
                if k == 0:
                    # Converted after the first weight's checks, as in a
                    # one-point jet, so bad input is reported first.
                    for x in w:
                        if x not in moduli:
                            moduli[x] = abs_sq(parts(x))
                    s = tuple(moduli[x] for x in w)
                    t = sum(s, ZERO)
                    if t >= 1:
                        raise BallDomainError(f"|w|^2 = {float(t):.6f} is not inside the unit ball")
                    jets = classes.setdefault(s, [])
                    bases: dict = {}
                if k < len(jets):
                    continue
                if t == 0:
                    jets.append(_origin_jet(W, s, max_degree))
                    continue
                if tables[k] is None:
                    tables[k] = _correction_table(W)
                jets.append(_class_jet(tables[k], s, t, max_degree, bases))
            out.append(tuple(jets))
    return out


def metric_jet(
    W: WeightFunction,
    w,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> MetricJet:
    """The metric jet of W at the single point w: ``metric_jets([W], [w])``
    with the same arguments, with its Wirtinger ``grad`` and ``hess`` at w."""
    (jet,) = metric_jets([W], [w], max_degree=max_degree, precision_bits=precision_bits)[0]
    with localcontext(working_context(precision_bits)):
        wv = [parts(x) for x in w]
        grad = tuple(DecimalComplex(f * a, f * b.copy_negate()) for f, (a, b) in zip(jet.ds, wv))
        hess = []
        for i, (row, x, fi) in enumerate(zip(jet.dss, wv, jet.ds)):
            entries = []
            for j, (f, y) in enumerate(zip(row, wv)):
                z = conj_mul(x, y).scaled(f)
                entries.append(DecimalComplex(z.real + fi, z.imag) if i == j else z)
            hess.append(tuple(entries))
    return jet._replace(grad=grad, hess=tuple(hess))
