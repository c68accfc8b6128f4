"""Dense tensors, rank-one terms, and the multilinear primitives behind them.

Vectorization is C-order: element (i_1, ..., i_d) of a tensor with dims
(m_1, ..., m_d) lives at linear index ((i_1*m_2 + i_2)*m_3 + ...)*m_d + i_d,
i.e. the last index runs fastest.  Under this convention the flattening of a
rank-one tensor a^1 x ... x a^d equals the chained Kronecker product
kron(a^1, ..., a^d), which is what every tangent-basis formula in this
package relies on.

khatri_rao is the one builder of Kronecker-structured arrays: assembled
terms, tangent blocks and the refiner's Jacobian are all column-wise
Kronecker products, and kron / kron_with_factor are thin calls to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

UNIT_NORM_TOL = 1e-12


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty vector")
    return v


@dataclass(frozen=True)
class Shape:
    """Dimensions (m_1, ..., m_d) of the ambient tensor space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(m) for m in self.dims)
        if len(dims) < 1:
            raise ValueError("shape needs at least one mode")
        if any(m < 1 for m in dims):
            raise ValueError(f"all dims must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def ambient_dim(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A d-way real array stored flat in the C-order convention above."""

    shape: Shape
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != self.shape.ambient_dim:
            raise ValueError(
                f"data length {data.size} does not match dims {self.shape.dims}"
            )
        object.__setattr__(self, "data", data)

    def to_nd(self) -> np.ndarray:
        return self.data.reshape(self.shape.dims)

    @classmethod
    def from_nd(cls, array) -> "DenseTensor":
        array = np.asarray(array, dtype=float)
        return cls(Shape(array.shape), array.ravel())

    def to_json_dict(self) -> dict:
        return {"dims": list(self.shape.dims), "data": self.data.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DenseTensor":
        return cls(Shape(tuple(obj["dims"])), np.asarray(obj["data"], dtype=float))


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """A scaled rank-one tensor mu * a^1 x ... x a^d with unit mode vectors."""

    mu: float
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mu = float(self.mu)
        if not 0 < mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {mu}")
        vectors = tuple(_as_vector(v) for v in self.vectors)
        if not vectors:
            raise ValueError("rank-one term needs at least one mode vector")
        for k, v in enumerate(vectors):
            if not abs(np.linalg.norm(v) - 1.0) <= UNIT_NORM_TOL:
                raise ValueError(f"mode-{k} vector is not unit norm")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "vectors", vectors)

    @property
    def order(self) -> int:
        return len(self.vectors)

    def mode_dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vectors)


@dataclass(frozen=True, eq=False)
class CPDecomposition:
    """A sum of r rank-one terms sharing one ambient shape."""

    shape: Shape
    terms: tuple[RankOneTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        for t in terms:
            if t.mode_dims() != self.shape.dims:
                raise ValueError(
                    f"term dims {t.mode_dims()} do not match shape {self.shape.dims}"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def order(self) -> int:
        return self.shape.order

    def term_tensors(self) -> np.ndarray:
        """The assembled rank-one terms as columns of an N x r matrix."""
        factors = [np.column_stack(vs) for vs in zip(*(t.vectors for t in self.terms))]
        return khatri_rao(factors) * np.array([t.mu for t in self.terms])

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.shape.dims),
            "terms": [
                {"mu": t.mu, "vectors": [v.tolist() for v in t.vectors]}
                for t in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CPDecomposition":
        shape = Shape(tuple(obj["dims"]))
        terms = tuple(
            RankOneTerm(float(t["mu"]), tuple(np.asarray(v, dtype=float) for v in t["vectors"]))
            for t in obj["terms"]
        )
        return cls(shape, terms)


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of m_k x c matrices, chained left to right.

    Column j of the (prod_k m_k) x c result is kron(M_1[:, j], ..., M_d[:, j]).
    """
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    out = mats[0]
    c = out.shape[1]
    for M in mats[1:]:
        if M.shape[1] != c:
            raise ValueError("khatri_rao factors must have equal column counts")
        out = (out[:, None, :] * M[None, :, :]).reshape(out.shape[0] * M.shape[0], c)
    return out


def kron(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Chained Kronecker product of one or more vectors."""
    vs = [_as_vector(v) for v in vectors]
    if not vs:
        raise ValueError("kron needs at least one vector")
    return khatri_rao([v[:, None] for v in vs])[:, 0]


def kron_with_factor(vectors: Sequence[np.ndarray], k: int, matrix: np.ndarray) -> np.ndarray:
    """kron(v^1, ..., v^(k-1), matrix, v^(k+1), ..., v^d) with the v^j as columns.

    The result has prod_{j != k} m_j * matrix.shape[0] rows and
    matrix.shape[1] columns.
    """
    c = matrix.shape[1]
    mats = [np.broadcast_to(np.reshape(v, (-1, 1)), (np.size(v), c)) for v in vectors]
    mats[k] = matrix
    return khatri_rao(mats)


def assemble_cpd(decomp: CPDecomposition) -> DenseTensor:
    """Sum the rank-one terms of a decomposition into a dense tensor."""
    return DenseTensor(decomp.shape, decomp.term_tensors().sum(axis=1))


def normalize_decomposition(factor_matrices: Sequence[np.ndarray]) -> CPDecomposition:
    """Build a decomposition from factor matrices (one m_k x r matrix per mode).

    Column i of mode k holds the unnormalized mode-k vector of term i.  Each
    term gets mu_i equal to the product of its column norms and unit vectors;
    signs stay in the vectors.  A zero column has no unit direction and is
    rejected.
    """
    mats = [np.asarray(A, dtype=float) for A in factor_matrices]
    if not mats:
        raise ValueError("need at least one factor matrix")
    for A in mats:
        if A.ndim != 2:
            raise ValueError("factor matrices must be 2-dimensional")
    r = mats[0].shape[1]
    if any(A.shape[1] != r for A in mats):
        raise ValueError("all factor matrices must have the same column count")
    if r < 1:
        raise ValueError("need at least one column per factor matrix")
    shape = Shape(tuple(A.shape[0] for A in mats))
    terms = []
    for i in range(r):
        mu = 1.0
        vectors = []
        for A in mats:
            col = A[:, i]
            norm = float(np.linalg.norm(col))
            if norm == 0.0:
                raise ValueError(f"degenerate rank-one term: zero column {i}")
            mu *= norm
            vectors.append(col / norm)
        terms.append(RankOneTerm(mu, tuple(vectors)))
    return CPDecomposition(shape, tuple(terms))


def orthonormal_complement(v) -> np.ndarray:
    """Orthonormal basis of the complement of a unit vector, as an m x (m-1) matrix.

    Deterministic: the basis comes from the Householder reflector sending v to
    -sign(v_0) e_1 (with sign(0) = +1), whose trailing m-1 columns are
    orthonormal and orthogonal to v.  For v = +-e_1 this yields (e_2, ..., e_m).
    """
    v = _as_vector(v)
    m = v.size
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
        raise ValueError("expected a unit vector")
    if m == 1:
        return np.zeros((1, 0))
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0 else -1.0
    H = np.eye(m) - (2.0 / (w @ w)) * np.outer(w, w)
    return H[:, 1:]


def frobenius_norm(t: DenseTensor) -> float:
    return float(np.linalg.norm(t.data))


def frobenius_inner(a: DenseTensor, b: DenseTensor) -> float:
    if a.shape.dims != b.shape.dims:
        raise ValueError(f"shape mismatch: {a.shape.dims} vs {b.shape.dims}")
    return float(a.data @ b.data)
