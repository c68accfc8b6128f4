"""Condition numbers specialized to CP (rank-one sum) decompositions.

Per term the tangent space of the rank-one manifold at mu * a^1 x ... x a^d
has the orthonormal basis

    U_i = [ a^1 x ... x a^d | Q^1 x a^2 x ... x a^d | ... | a^1 x ... x Q^d ]

where Q^k is an orthonormal basis of the complement of a^k; the blocks are
mutually orthogonal by construction, so U_i has 1 - d + sum_k m_k columns
and U_i^T U_i = I holds to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .condition import (
    ConditionReport,
    SubspaceTuple,
    condition_number,
    kappa_from_singular_values,
    relative_condition_numbers,
)
from .tensor import (
    CPDecomposition,
    RankOneTerm,
    assemble_cpd,
    frobenius_norm,
    kron,
    kron_with_factor,
    orthonormal_complement,
)

WEAK_ORTHOGONALITY_TOL = 1e-12


def segre_tangent_basis(term: RankOneTerm) -> np.ndarray:
    """Orthonormal tangent basis of the rank-one manifold at a term."""
    blocks = [kron(term.vectors).reshape(-1, 1)]
    for k, v in enumerate(term.vectors):
        Q = orthonormal_complement(v)
        if Q.shape[1] > 0:
            blocks.append(kron_with_factor(term.vectors, k, Q))
    return np.hstack(blocks)


def cpd_tangent_tuple(decomp: CPDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms, ready for the condition-number engine."""
    return SubspaceTuple(
        decomp.shape.ambient_dim,
        tuple(segre_tangent_basis(t) for t in decomp.terms),
    )


def cpd_condition_number(decomp: CPDecomposition) -> ConditionReport:
    """Condition number of recovering the rank-one terms from their sum."""
    return condition_number(cpd_tangent_tuple(decomp))


def cpd_relative_condition_numbers(decomp: CPDecomposition) -> list[float]:
    """Per-term relative condition numbers; term norms are the mu_i."""
    report = cpd_condition_number(decomp)
    total = frobenius_norm(assemble_cpd(decomp))
    return relative_condition_numbers(report, [t.mu for t in decomp.terms], total)


def norm_balanced_basis(term: RankOneTerm) -> np.ndarray:
    """The scaled tangent matrix of the factor-vector parametrization.

    Columns are mu^(1-1/d) * [ I x a^2 x ... x a^d | ... | a^1 x ... x I ]:
    the derivative of (a^1, ..., a^d) -> a^1 x ... x a^d at the norm-balanced
    representative whose factors all have norm mu^(1/d).  Not orthonormal;
    its column span is the same tangent space as segre_tangent_basis(term).
    """
    blocks = [
        kron_with_factor(term.vectors, k, np.eye(v.size))
        for k, v in enumerate(term.vectors)
    ]
    return term.mu ** (1.0 - 1.0 / term.order) * np.hstack(blocks)


def norm_balanced_condition_number(decomp: CPDecomposition) -> float:
    """Condition number of recovering the balanced factor vectors themselves.

    Unlike the term-wise condition number this one is sensitive to the term
    norms: scaling a term toward zero drives it to infinity.  Computed as
    1 / sigma_n([B_1 ... B_r]) with B_i = norm_balanced_basis(term i) and n
    the total tangent dimension.
    """
    N = decomp.shape.ambient_dim
    n = decomp.rank * (1 - decomp.order + sum(decomp.shape.dims))
    if n > N:
        # Wide stacked matrix: sigma_n is zero, no SVD needed.
        return math.inf
    M = np.hstack([norm_balanced_basis(t) for t in decomp.terms])
    # Values only: right vectors would double the cost at larger shapes.
    s = np.linalg.svd(M, compute_uv=False)
    return kappa_from_singular_values(float(s[n - 1]), float(s[0]), n, N)


def is_weak_3_orthogonal(decomp: CPDecomposition, tol: float = WEAK_ORTHOGONALITY_TOL) -> bool:
    """True when every pair of terms is orthogonal in at least three modes."""
    terms = decomp.terms
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            orthogonal_modes = sum(
                1
                for a, b in zip(terms[i].vectors, terms[j].vectors)
                if abs(float(a @ b)) <= tol
            )
            if orthogonal_modes < 3:
                return False
    return True
