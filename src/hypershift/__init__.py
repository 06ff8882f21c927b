"""Exact hypercontraction and similarity diagnostics for commuting
weighted-shift tuples on the unit ball.

The package works with diagonal reproducing-kernel weights: exact rational
defect diagonals and hypercontraction scans, neighbour-sum necessary
conditions, ray-product similarity ratios, high-precision curvature
comparisons, and a finite matrix-model oracle, plus a CLI that reproduces a
ray-perturbed counterexample family end to end.

The exact core (errors, multi-indices, weights, hypercontraction) is
imported with the package; it needs neither numpy nor mpmath.  The names of
the similarity, curvature and truncation modules are resolved on first use,
so a caller that only scans exactly never loads the numerics those modules
need.
"""

from importlib import import_module

from .errors import (
    BallDomainError,
    DimensionMismatch,
    NonHermitianError,
    SequenceExhausted,
    TailUnreliableError,
    WeightDomainError,
    WeightSpecError,
)
from .hypercontraction import (
    ConditionCheck,
    DefectDiagonal,
    HyperReport,
    HyperWitness,
    NecessaryScan,
    defect_diag,
    defect_diag_radial,
    defect_diagonal,
    is_n_hyper_up_to,
    necessary_condition,
    necessary_scan,
    radial_necessary,
    subnormality_obstruction,
)
from .weights import (
    ExplicitSequence,
    GeometricSequence,
    MetricJet,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    WeightFunction,
    RadialSequence,
    metric_jet,
    parse_fraction,
    weight_from_dict,
)

__version__ = "0.1.0"

# Name -> submodule for everything imported on first use.
_LAZY = {
    name: module
    for module, names in (
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
                "PshPoint",
                "PshReport",
                "curvature_difference",
                "default_grid",
                "eigenvalues",
                "finite_diff_check",
                "log_metric_hessian",
                "psd_check",
                "psh_boundedness_report",
                "radial_grid",
            ),
        ),
        (
            "truncation",
            (
                "DefectOperator",
                "GramResult",
                "TruncatedTuple",
                "build_truncated",
                "commutator_defect",
                "commutator_float_norm",
                "compose",
                "decay_curve",
                "defect_operator",
                "defect_operator_dense",
                "gram",
                "m_power_diag",
            ),
        ),
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
