"""Condition numbers of join decompositions.

Computes the local condition number of expressing a point as a sum of points
drawn from smooth manifolds (rank-one tensors for CP decompositions,
symmetric powers for Waring decompositions), the matching Grassmannian
distance to the nearest ill-posed configuration with a constructive
certificate, norm-balanced and relative variants, and an experiment harness
for boundary-divergence and forward-error studies.
"""

from .condition import (
    ConditionReport,
    SubspaceTuple,
    condition_number,
    relative_condition_numbers,
)
from .experiments import (
    ForwardErrorTables,
    ModelParams,
    RefineResult,
    cpd_refine,
    derive_seed,
    desilva_lim_sequence,
    example_41_kappa,
    example_42_kappa,
    example_42_kappa_analytic,
    generate_model_tensor,
    paatero_sequence,
    run_forward_error_experiment,
    sequence_table,
    validate_rule_of_thumb,
    write_csv,
)
from .grassmann import (
    CertificateError,
    IllposedCertificate,
    distance_to_illposed,
    is_intersecting,
    nearest_intersecting_tuple,
    projection_distance,
)
from .segre import (
    cpd_condition_number,
    cpd_relative_condition_numbers,
    cpd_tangent_tuple,
    is_weak_3_orthogonal,
    norm_balanced_condition_number,
)
from .tensor import (
    CPDecomposition,
    DenseTensor,
    RankOneTerm,
    Shape,
    assemble_cpd,
    frobenius_norm,
    normalize_decomposition,
)
from .waring import (
    SymmetricRankOneTerm,
    WaringDecomposition,
    assemble_waring,
    is_symmetric_odeco,
    waring_condition_number,
    waring_tangent_tuple,
)

__all__ = [
    "ConditionReport",
    "condition_number",
    "relative_condition_numbers",
    "ForwardErrorTables",
    "ModelParams",
    "RefineResult",
    "cpd_refine",
    "derive_seed",
    "desilva_lim_sequence",
    "example_41_kappa",
    "example_42_kappa",
    "example_42_kappa_analytic",
    "generate_model_tensor",
    "paatero_sequence",
    "run_forward_error_experiment",
    "sequence_table",
    "validate_rule_of_thumb",
    "write_csv",
    "CertificateError",
    "IllposedCertificate",
    "SubspaceTuple",
    "distance_to_illposed",
    "is_intersecting",
    "nearest_intersecting_tuple",
    "projection_distance",
    "cpd_condition_number",
    "cpd_relative_condition_numbers",
    "cpd_tangent_tuple",
    "is_weak_3_orthogonal",
    "norm_balanced_condition_number",
    "CPDecomposition",
    "DenseTensor",
    "RankOneTerm",
    "Shape",
    "assemble_cpd",
    "frobenius_norm",
    "normalize_decomposition",
    "SymmetricRankOneTerm",
    "WaringDecomposition",
    "assemble_waring",
    "is_symmetric_odeco",
    "waring_condition_number",
    "waring_tangent_tuple",
]

__version__ = "0.1.0"
