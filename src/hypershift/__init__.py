"""Exact hypercontraction and similarity diagnostics for commuting
weighted-shift tuples on the unit ball.

The package works with diagonal reproducing-kernel weights: exact rational
defect diagonals and hypercontraction scans, neighbour-sum necessary
conditions, ray-product similarity ratios, high-precision curvature
comparisons, and the commutators, defects and decay of the tuple truncated
to bounded degree, plus a CLI that reproduces a ray-perturbed
counterexample family end to end.

The package needs only the standard library: metrics and curvature run
in ``decimal`` at a working precision (see ``curvature``).  The core
(errors, multi-indices, weights, and the report helpers that weights
use) is imported with the package; the names of the hypercontraction,
similarity, curvature, truncation and counterexample modules are resolved
on first use, so a caller loads only the layers it calls.  Result records
are ``typing.NamedTuple``s or plain classes, not dataclasses: importing
``dataclasses`` and building its classes would cost every short-lived CLI
process more than most of its numerics.
"""

from importlib import import_module

from .errors import (
    BallDomainError,
    DimensionMismatch,
    SequenceExhausted,
    TailUnreliableError,
    WeightDomainError,
    WeightSpecError,
)
from .weights import (
    ExplicitSequence,
    GeometricSequence,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    WeightFunction,
    RadialSequence,
    parse_fraction,
    weight_from_dict,
)

__version__ = "0.1.0"

# Name -> submodule for everything imported on first use.
_LAZY = {
    name: module
    for module, names in (
        (
            "hypercontraction",
            (
                "ConditionCheck",
                "HyperReport",
                "HyperWitness",
                "NecessaryScan",
                "defect_diag",
                "is_n_hyper_up_to",
                "necessary_condition",
                "necessary_scan",
                "radial_necessary",
            ),
        ),
        (
            "similarity",
            (
                "RatioScanReport",
                "RayWitness",
                "ray_ratio_sq",
                "ray_ratio_sq_literal",
                "similarity_scan",
            ),
        ),
        (
            "curvature",
            (
                "CurvatureMatrix",
                "MetricJet",
                "PshPoint",
                "PshReport",
                "curvature_points",
                "eigenvalues",
                "psd_check",
                "psh_boundedness_report",
                "radial_grid",
            ),
        ),
        ("truncation", ("Truncation",)),
        ("counterexample", ("PerturbedPower",)),
    )
    for name in names
}

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__ + ".")
] + list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
