"""Diagonal reproducing-kernel weights on the unit ball and their shift
realizations.

A weight function rho assigns a positive rational to every multi-index; the
associated kernel is K(z, w) = sum_alpha rho(alpha) z^alpha conj(w)^alpha and
the adjoint shift tuple acts on the orthonormal diagonal basis by

    T_i e_alpha = sqrt(rho(alpha - e_i) / rho(alpha)) e_{alpha - e_i}.

Four families are provided:

* ``RadialWeight``: rho(alpha) = a(|alpha|) |alpha|! / alpha! for a positive
  coefficient sequence a.
* ``PowerKernel(n, m)``: the radial weight on a(i) = C(n + i - 1, i), i.e.
  rho_n(alpha) = (n + |alpha| - 1)! / (alpha! (n-1)!), the coefficient family
  of (1 - <z, w>)^{-n}.
* ``TableWeight``: finitely many explicit values with an optional fallback.
* ``PerturbedPower``: a power kernel divided along finitely many rays, the
  counterexample family scaled by a block count.

All weight values are exact ``Fraction``s.  Instances are immutable after
construction apart from internal value, ratio and series caches, so they are
safe to share across threads for reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING

from . import multiindex as mi
from .errors import (
    BallDomainError,
    SequenceExhausted,
    TailUnreliableError,
    WeightDomainError,
    WeightSpecError,
)
from .multiindex import MultiIndex
from .report import frac_str

# mpmath is imported inside the functions that evaluate metrics, so the exact
# layers (rho, rho_ratio, the defect engine) load without it.
if TYPE_CHECKING:
    import mpmath as mp


def _falling(x: int, k: int) -> int:
    """Falling factorial x (x-1) ... (x-k+1)."""
    out = 1
    for t in range(k):
        out *= x - t
    return out


# ---------------------------------------------------------------------------
# Radial coefficient sequences


class RadialSequence:
    """A positive sequence a(0), a(1), ... of exact rationals.

    ``ratio_sup(d)`` returns an upper bound for sup_{j >= d} a(j+1)/a(j), or
    None when no rigorous bound is known; tail estimates refuse to run in the
    latter case rather than guess.

    ``series`` evaluates the truncated power series of the sequence and
    memoizes it on the instance, so every weight that shares a sequence
    shares its evaluations.
    """

    def __init__(self):
        self._series: dict[tuple, tuple] = {}

    def value(self, i: int) -> Fraction:
        raise NotImplementedError

    def ratio_sup(self, start: int) -> Fraction | None:
        return None

    def max_index(self) -> int | None:
        """Largest defined index, or None when the sequence is unbounded."""
        return None

    def spec_dict(self) -> dict:
        raise NotImplementedError

    def series(self, t: mp.mpf, max_degree: int) -> tuple:
        """g(t), g'(t), g''(t) of g(t) = sum_{d <= max_degree} a(d) t^d and the
        geometric tail bounds of the three series beyond max_degree, at the
        working precision.

        Memoized on the exact key (t, max_degree, working precision); the
        result depends on nothing else, so a hit is bit-identical to a fresh
        evaluation.  Raises SequenceExhausted when the sequence ends before
        max_degree and TailUnreliableError when no ratio bound is known.
        """
        import mpmath as mp

        key = (t, max_degree, mp.mp.prec)
        hit = self._series.get(key)
        if hit is not None:
            return hit
        limit = self.max_index()
        if limit is not None and limit < max_degree:
            raise SequenceExhausted(
                f"radial sequence ends at index {limit}, truncation degree {max_degree} requested"
            )
        # Running powers of t: p = t^d, p1 = t^(d-1), p2 = t^(d-2).
        g = mp.mpf(0)
        gp = mp.mpf(0)
        gpp = mp.mpf(0)
        p = mp.mpf(1)
        p1 = p2 = mp.mpf(0)
        for d in range(max_degree + 1):
            a_d = _to_mpf(self.value(d))
            g += a_d * p
            if d >= 1:
                gp += d * a_d * p1
            if d >= 2:
                gpp += d * (d - 1) * a_d * p2
            p2 = p1
            p1 = p
            p *= t

        ratio = self.ratio_sup(max_degree)
        if ratio is None:
            raise TailUnreliableError(
                "no ratio bound available for this radial sequence; tail is unreliable"
            )
        a_last = _to_mpf(self.value(max_degree))
        hit = (g, gp, gpp) + _geometric_tails(a_last, t, max_degree, ratio)
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

    Positivity is checked on every evaluation.  A ratio bound is only
    available when all coefficients are nonnegative (then a(i+1)/a(i) <=
    ((i+1)/i)^k for i >= 1 by termwise comparison).
    """

    def __init__(self, coefficients: list[Fraction]):
        super().__init__()
        coeffs = [Fraction(c) for c in coefficients]
        if not coeffs:
            raise ValueError("polynomial sequence needs at least one coefficient")
        self.coefficients = coeffs
        if self.value(0) <= 0:
            raise ValueError("sequence must be positive at index 0")

    def value(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("sequence index must be >= 0")
        out = Fraction(0)
        for c in reversed(self.coefficients):
            out = out * i + c
        if out <= 0:
            raise WeightDomainError(f"polynomial sequence is not positive at index {i}")
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

        Subclasses override this with telescoped closed forms; the generic
        version divides two full values.
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
        if len(beta) != self.m:
            raise ValueError("dimension mismatch in rho_ratio")
        num = 1
        b_deg = 0
        for a, b in zip(alpha, beta):
            if b > a:
                raise ValueError(f"{beta!r} is not dominated by {alpha!r}")
            num *= _falling(a, b)
            b_deg += b
        d = mi.degree(alpha)
        factor = self._radial_factor.get((d, b_deg))
        if factor is None:
            factor = self.sequence.value(d - b_deg) / (self.sequence.value(d) * _falling(d, b_deg))
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


class PerturbedPower(WeightFunction):
    """A power kernel divided by small integers along finitely many rays.

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
        super().__init__(m)
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
        self._block_of = {b: l for l, b in enumerate(self.base_degrees, start=1)}

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
        if any(alpha[2:]):
            return 1
        l = self._block_of.get(alpha[1])
        if l is None:
            return 1
        j = alpha[0]
        if 1 <= j <= 2 * l - 1:
            return min(j, 2 * l - j)
        return 1

    def perturbed_entries(self) -> list[tuple[MultiIndex, int]]:
        """All (alpha, divisor) pairs with divisor > 1, graded order."""
        out = []
        for l, b in enumerate(self.base_degrees, start=1):
            for j in range(1, 2 * l):
                d = min(j, 2 * l - j)
                if d > 1:
                    alpha = (j, b) + (0,) * (self.m - 2)
                    out.append((alpha, d))
        out.sort(key=lambda p: (mi.degree(p[0]), p[0]))
        return out

    def _rho(self, alpha: MultiIndex) -> Fraction:
        return self.base.rho(alpha) / self.divisor(alpha)

    def rho_ratio(self, alpha: MultiIndex, beta: MultiIndex) -> Fraction:
        ratio = self.base.rho_ratio(alpha, beta)
        if len(alpha) != self.m:
            raise ValueError("dimension mismatch")
        if alpha[1] not in self._block_of and alpha[1] - beta[1] not in self._block_of:
            return ratio  # neither alpha nor alpha - beta lies on a perturbed ray
        d_top = self.divisor(alpha)
        d_sub = self.divisor(mi.sub(alpha, beta))
        if d_top != d_sub:
            ratio = ratio * Fraction(d_top, d_sub)
        return ratio

    def metric_decomposition(self):
        corrections = []
        for alpha, d in self.perturbed_entries():
            rho = self.base.rho(alpha)
            corrections.append((alpha, rho / d - rho))
        return self.base.radial_sequence(), corrections

    def spec_dict(self) -> dict:
        return {"kind": "perturbed45", "n": self.n, "m": self.m, "L": self.blocks}


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


@dataclass(frozen=True)
class MetricJet:
    """Metric value together with first and mixed second Wirtinger
    derivatives at a point, plus tail bounds for each radial series."""

    h: mp.mpf
    grad: tuple
    hess: tuple
    tail_h: mp.mpf
    tail_grad: mp.mpf
    tail_hess: mp.mpf
    max_degree: int


def _to_mpf(x: Fraction) -> mp.mpf:
    import mpmath as mp

    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _ball_radius_sq(w) -> mp.mpf:
    import mpmath as mp

    t = mp.mpf(0)
    for wi in w:
        t += abs(mp.mpc(wi)) ** 2
    return t


def _geometric_tails(a_last: mp.mpf, t: mp.mpf, d: int, ratio: Fraction):
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
    import mpmath as mp

    r = _to_mpf(ratio)
    x = r * t
    if x >= 1:
        raise TailUnreliableError(
            f"series ratio bound {float(x):.6f} >= 1 at truncation degree {d}; "
            "increase the truncation degree or shrink the radius"
        )
    u = 1 / (1 - x)
    td = t**d
    # d t^{d-1} is 0 at d = 0; t^{-1} is never formed.
    dtd1 = d * t ** (d - 1) if d else mp.mpf(0)
    tail0 = a_last * td * x * u
    tail1 = a_last * r * td * u * (d + u)
    tail2 = a_last * r * u * (dtd1 * (d - 1 + 2 * u) + 2 * r * td * u * u)
    return tail0, tail1, tail2


def _shifted_power(wv, alpha: MultiIndex, i: int):
    """w^{alpha - e_i}, evaluated directly so that w_i = 0 is handled."""
    import mpmath as mp

    out = mp.mpf(1)
    for k, (x, a) in enumerate(zip(wv, alpha)):
        e = a - 1 if k == i else a
        if e:
            out *= x**e
    return out


def metric_jet(
    W: WeightFunction,
    w,
    max_degree: int = 40,
    precision_bits: int = 80,
) -> MetricJet:
    """Evaluate h(w) = sum_alpha rho(alpha) |w^alpha|^2 together with its
    Wirtinger gradient and mixed Hessian, truncating the radial base series
    at ``max_degree`` and summing every exact correction term in full.

    Raises BallDomainError if |w| >= 1 and TailUnreliableError when no
    rigorous tail bound exists at this truncation degree.
    """
    import mpmath as mp

    if len(w) != W.m:
        raise ValueError(f"point has dimension {len(w)}, weight has m = {W.m}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    m = W.m
    with mp.workprec(precision_bits):
        wv = [mp.mpc(x) for x in w]
        t = _ball_radius_sq(wv)
        if t >= 1:
            raise BallDomainError(f"|w|^2 = {float(t):.6f} is not inside the unit ball")
        zero = mp.mpf(0)

        if t == 0:
            # Exact from three weight layers: h = rho(0), grad = 0,
            # mixed Hessian = diag(rho(e_i)).
            theta = (0,) * m
            h0 = _to_mpf(W.rho(theta))
            hess0 = tuple(
                tuple(
                    _to_mpf(W.rho(mi.unit(m, i))) if i == j else zero for j in range(m)
                )
                for i in range(m)
            )
            return MetricJet(
                h=h0,
                grad=(zero,) * m,
                hess=hess0,
                tail_h=zero,
                tail_grad=zero,
                tail_hess=zero,
                max_degree=max_degree,
            )

        base, corrections = W.metric_decomposition()
        g, gp, gpp, tail0, tail1, tail2 = base.series(t, max_degree)

        h = g
        grad = [gp * mp.conj(wv[i]) for i in range(m)]
        hess = [
            [gpp * mp.conj(wv[i]) * wv[j] + (gp if i == j else zero) for j in range(m)]
            for i in range(m)
        ]

        for alpha, delta in corrections:
            dv = _to_mpf(delta)
            wpow = mp.mpf(1)  # w^alpha
            for x, a in zip(wv, alpha):
                if a:
                    wpow *= x**a
            h += dv * (abs(wpow) ** 2)
            shifted = [
                _shifted_power(wv, alpha, i) if alpha[i] else None for i in range(m)
            ]
            for i in range(m):
                if shifted[i] is not None:
                    grad[i] += dv * alpha[i] * shifted[i] * mp.conj(wpow)
            for i in range(m):
                if shifted[i] is None:
                    continue
                for j in range(m):
                    if shifted[j] is None:
                        continue
                    hess[i][j] += dv * alpha[i] * alpha[j] * shifted[i] * mp.conj(shifted[j])

        return MetricJet(
            h=h,
            grad=tuple(grad),
            hess=tuple(tuple(row) for row in hess),
            tail_h=tail0,
            tail_grad=tail1,
            tail_hess=tail2,
            max_degree=max_degree,
        )
