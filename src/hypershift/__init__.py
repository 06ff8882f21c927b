"""Exact hypercontraction and similarity diagnostics for commuting
weighted-shift tuples on the unit ball.

The package works with diagonal reproducing-kernel weights: exact rational
defect diagonals and hypercontraction scans, neighbour-sum necessary
conditions, ray-product similarity ratios, high-precision curvature
comparisons, and a finite matrix-model oracle, plus a CLI that reproduces a
ray-perturbed counterexample family end to end.
"""

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
    GrowthDiagnostic,
    HyperReport,
    HyperWitness,
    NecessaryScan,
    defect_diag,
    defect_diag_radial,
    defect_diagonal,
    growth_diagnostic,
    is_n_hyper_up_to,
    necessary_condition,
    necessary_scan,
    radial_necessary,
    subnormality_obstruction,
)
from .similarity import (
    MetricRatioReport,
    RatioScanReport,
    RayWitness,
    metric_ratio_report,
    ray_ratio_sq,
    ray_ratio_sq_literal,
    similarity_scan,
)
from .curvature import (
    CurvatureMatrix,
    PshPoint,
    PshReport,
    curvature_difference,
    default_grid,
    eigenvalues,
    finite_diff_check,
    log_metric_hessian,
    min_eigenvalue,
    psd_check,
    psh_boundedness_report,
    radial_grid,
)
from .truncation import (
    DefectOperator,
    GramResult,
    TruncatedTuple,
    build_truncated,
    commutator_defect,
    commutator_float_norm,
    compose,
    decay_curve,
    defect_operator,
    defect_operator_dense,
    gram,
    m_power_diag,
)
from .weights import (
    ExplicitSequence,
    GeometricSequence,
    MetricJet,
    MetricValue,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    WeightFunction,
    RadialSequence,
    eval_metric,
    metric_jet,
    parse_fraction,
    weight_from_dict,
)

__version__ = "0.1.0"
