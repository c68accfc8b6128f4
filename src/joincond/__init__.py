"""Condition numbers of join decompositions.

Computes the local condition number of expressing a point as a sum of points
drawn from smooth manifolds (rank-one tensors for CP decompositions,
symmetric powers for Waring decompositions), the matching Grassmannian
distance to the nearest ill-posed configuration with a constructive
certificate, a norm-balanced variant, and an experiment harness for
boundary-divergence and forward-error studies.
"""

from .condition import (
    ConditionReport,
    SubspaceTuple,
    condition_number,
)
from .experiments import (
    ModelParams,
    RefineResult,
    cpd_refine,
    derive_seed,
    desilva_lim_sequence,
    example_41_kappa,
    example_42_kappa,
    example_42_kappa_analytic,
    paatero_sequence,
    run_forward_error_experiment,
    sequence_table,
    write_csv,
)
from .grassmann import (
    CertificateError,
    distance_to_illposed,
    nearest_intersecting_tuple,
    projection_distance,
)
from .segre import (
    cpd_condition_number,
    cpd_tangent_tuple,
    is_weak_3_orthogonal,
    norm_balanced_condition_number,
)
from .tensor import (
    CPDecomposition,
    RankOneTerm,
    assemble_cpd,
    normalize_decomposition,
)
from .waring import (
    SymmetricRankOneTerm,
    WaringDecomposition,
    waring_condition_number,
    waring_tangent_tuple,
)

__all__ = [
    "ConditionReport",
    "condition_number",
    "ModelParams",
    "RefineResult",
    "cpd_refine",
    "derive_seed",
    "desilva_lim_sequence",
    "example_41_kappa",
    "example_42_kappa",
    "example_42_kappa_analytic",
    "paatero_sequence",
    "run_forward_error_experiment",
    "sequence_table",
    "write_csv",
    "CertificateError",
    "SubspaceTuple",
    "distance_to_illposed",
    "nearest_intersecting_tuple",
    "projection_distance",
    "cpd_condition_number",
    "cpd_tangent_tuple",
    "is_weak_3_orthogonal",
    "norm_balanced_condition_number",
    "CPDecomposition",
    "RankOneTerm",
    "assemble_cpd",
    "normalize_decomposition",
    "SymmetricRankOneTerm",
    "WaringDecomposition",
    "waring_condition_number",
    "waring_tangent_tuple",
]

__version__ = "0.1.0"
