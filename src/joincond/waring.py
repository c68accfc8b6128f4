"""Condition numbers specialized to symmetric (Waring) decompositions.

A symmetric rank-one term is mu * a^(x d) with a unit vector a and a signed
nonzero mu; the sign stays on mu because it cannot be absorbed into a for
even d.  The tangent space of the symmetric rank-one manifold at such a term
has dimension m and the orthonormal basis

    V = [ a^(x d) | (1/sqrt(d)) * (Q x a^(x d-1) + a x Q x a^(x d-2) + ... ) ]

where Q is an orthonormal basis of the complement of a.  The 1/sqrt(d)
factor makes the symmetrized block orthonormal: the d summands are mutually
orthogonal columnwise (their cross inner products contain a factor a^T q = 0),
so each column of the sum has squared norm d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import ConditionReport, SubspaceTuple, condition_number
from .tensor import (
    UNIT_NORM_TOL,
    DenseTensor,
    Shape,
    _as_vector,
    as_int,
    khatri_rao,
    kron,
    kron_with_factor,
    orthonormal_complement,
)

PAIRWISE_ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SymmetricRankOneTerm:
    """mu * a^(x d): signed scale, one unit vector, order d."""

    mu: float
    vector: np.ndarray
    order: int

    def __post_init__(self):
        mu = float(self.mu)
        if mu == 0.0 or not math.isfinite(mu):
            raise ValueError(f"mu must be nonzero and finite, got {mu}")
        v = _as_vector(self.vector)
        if not abs(np.linalg.norm(v) - 1.0) <= UNIT_NORM_TOL:
            raise ValueError("vector is not unit norm")
        d = as_int(self.order, "order")
        if d < 1:
            raise ValueError("order must be >= 1")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "order", d)


@dataclass(frozen=True, eq=False)
class WaringDecomposition:
    """A sum of r symmetric rank-one terms in (R^m)^(x d)."""

    m: int
    d: int
    terms: tuple[SymmetricRankOneTerm, ...]

    def __post_init__(self):
        m, d = as_int(self.m, "m"), as_int(self.d, "d")
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        for t in terms:
            if t.vector.size != m or t.order != d:
                raise ValueError("terms must share m and d")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", terms)

    @property
    def rank(self) -> int:
        return len(self.terms)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "terms": [{"mu": t.mu, "vector": t.vector.tolist()} for t in self.terms],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WaringDecomposition":
        m, d = as_int(obj["m"], "m"), as_int(obj["d"], "d")
        terms = tuple(
            SymmetricRankOneTerm(float(t["mu"]), np.asarray(t["vector"], dtype=float), d)
            for t in obj["terms"]
        )
        return cls(m, d, terms)


def assemble_waring(decomp: WaringDecomposition) -> DenseTensor:
    """Sum the symmetric rank-one terms into a dense (m, ..., m) tensor."""
    V = np.column_stack([t.vector for t in decomp.terms])
    terms = khatri_rao([V] * decomp.d) * np.array([t.mu for t in decomp.terms])
    return DenseTensor(Shape((decomp.m,) * decomp.d), terms.sum(axis=1))


def veronese_tangent_basis(term: SymmetricRankOneTerm) -> np.ndarray:
    """Orthonormal tangent basis (N x m) of the symmetric rank-one manifold."""
    d = term.order
    first = kron([term.vector] * d).reshape(-1, 1)
    Q = orthonormal_complement(term.vector)
    if Q.shape[1] == 0:
        return first
    cols = [term.vector[:, None]] * d
    sym = np.zeros((first.shape[0], Q.shape[1]))
    for k in range(d):
        sym += kron_with_factor(cols, k, Q[None])
    return np.hstack([first, sym / np.sqrt(d)])


def waring_tangent_tuple(decomp: WaringDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms; the total tangent dimension is r * m."""
    N = decomp.m ** decomp.d
    return SubspaceTuple(N, tuple(veronese_tangent_basis(t) for t in decomp.terms))


def waring_condition_number(decomp: WaringDecomposition) -> ConditionReport:
    """Condition number of recovering the symmetric terms from their sum."""
    return condition_number(waring_tangent_tuple(decomp))


def is_symmetric_odeco(
    decomp: WaringDecomposition, tol: float = PAIRWISE_ORTHOGONALITY_TOL
) -> bool:
    """True when the term vectors are pairwise orthogonal and r <= m."""
    if decomp.rank > decomp.m:
        return False
    terms = decomp.terms
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            if abs(float(terms[i].vector @ terms[j].vector)) > tol:
                return False
    return True
