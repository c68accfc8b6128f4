"""Rank-one terms, CP decompositions, and the multilinear primitives behind them.

A dense tensor is a numpy array of shape dims = (m_1, ..., m_d).  Its
vectorization is C-order: element (i_1, ..., i_d) lives at linear index
((i_1*m_2 + i_2)*m_3 + ...)*m_d + i_d, i.e. the last index runs fastest.
Under this convention the flattening of a rank-one tensor a^1 x ... x a^d
equals the chained Kronecker product kron(a^1, ..., a^d), which is what
every tangent-basis formula in this package relies on.

khatri_rao forms every chained column-wise Kronecker product in the
package: assembled terms, the refiner's MTTKRPs, segre's out-of-core
blocks and every stacked tangent basis, CP and Waring.  tangent_matrix
alone knows a term's column layout: it fills one factor per group for all
blocks at once and hands the factors to khatri_rao.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

UNIT_NORM_TOL = 1e-12


def _unit_vector(x, what: str) -> np.ndarray:
    """x as a vector of unit norm, checked with math.hypot, which unlike
    np.linalg.norm does not overflow on huge entries."""
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty vector")
    if not abs(math.hypot(*v.tolist()) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"{what} is not unit norm")
    return v


def as_int(value, what: str) -> int:
    """value as an int when it is integral; int() alone would truncate 2.5 to
    2, and operator.index alone would take True as 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def as_float(value, what: str) -> float:
    """A JSON number as a float; float() alone would also take True and "2.5"."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def as_vector(value, what: str) -> np.ndarray:
    """A JSON list of numbers as a float array; np.asarray alone would also
    take strings and booleans, and nested lists that _unit_vector ravels."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{what} must be a list of numbers")
    return np.array(value, dtype=float)


@dataclass(frozen=True, eq=False)
class RankOneTerm:
    """A scaled rank-one tensor mu * a^1 x ... x a^d with unit mode vectors."""

    mu: float
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        mu = float(self.mu)
        if not 0 < mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {mu}")
        vectors = tuple(_unit_vector(v, f"mode-{k} vector") for k, v in enumerate(self.vectors))
        if not vectors:
            raise ValueError("rank-one term needs at least one mode vector")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "vectors", vectors)

    @property
    def order(self) -> int:
        return len(self.vectors)

    def mode_dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vectors)


@dataclass(frozen=True, eq=False)
class CPDecomposition:
    """A sum of r rank-one terms in one tensor space of dims (m_1, ..., m_d)."""

    terms: tuple[RankOneTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        dims = self.dims
        for t in self.terms:
            if t.mode_dims() != dims:
                raise ValueError(f"term dims {t.mode_dims()} do not match {dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.terms[0].mode_dims()

    @property
    def ambient_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def order(self) -> int:
        return self.terms[0].order

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """((m_1, 1), ..., (m_d, 1)), the shape condition.is_defective takes."""
        return tuple((m, 1) for m in self.dims)

    def factor_matrices(self) -> list[np.ndarray]:
        """One m_k x r matrix per mode whose column i is term i's mode-k vector."""
        # C order: np.array(vs).T alone is a Fortran-ordered view
        return [np.array(vs).T.copy() for vs in zip(*(t.vectors for t in self.terms))]

    def term_tensors(self) -> np.ndarray:
        """The assembled rank-one terms as columns of an N x r matrix."""
        return khatri_rao(self.factor_matrices()) * np.array([t.mu for t in self.terms])

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "terms": [
                {"mu": t.mu, "vectors": [v.tolist() for v in t.vectors]}
                for t in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CPDecomposition":
        """Raises ValueError when the declared dims are not the vectors'."""
        dims = tuple(as_int(m, "dims") for m in obj["dims"])
        decomp = cls(tuple(
            RankOneTerm(as_float(t["mu"], "mu"), tuple(as_vector(v, "vector") for v in t["vectors"]))
            for t in obj["terms"]
        ))
        if decomp.dims != dims:
            raise ValueError(f"declared dims {dims} do not match the vectors' {decomp.dims}")
        return decomp


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


def tangent_matrix(mats, complements) -> np.ndarray:
    """[U_1 ... U_r] for the terms whose group-k vectors are the columns of
    mats[k]: term i's rank-one column kron(a_i^1, ..., a_i^d), then per group
    k the columns with a_i^k replaced by those of complements[k][i] (an
    r x m_k x c_k stack).  A CP term has one group per mode, a Waring term
    one group of symmetric-coordinate rows (see waring).

    Built in one pass: group k's factor is an m_k x (r * w) matrix, w the
    column count of a term, holding a_i^k in every column of term i but
    group k's own, which hold complements[k][i]; khatri_rao multiplies them.
    """
    r = mats[0].shape[1]
    w = 1 + sum(Q.shape[2] for Q in complements)
    factors, at = [], 1
    for A, Q in zip(mats, complements):
        F = np.empty((A.shape[0], r, w))
        F[...] = A[:, :, None]
        F[:, :, at:at + Q.shape[2]] = Q.transpose(1, 0, 2)
        at += Q.shape[2]
        factors.append(F.reshape(A.shape[0], r * w))
    return khatri_rao(factors)


def _term_blocks(U: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """tangent_matrix's output split into its r terms' column blocks, as
    views: np.hsplit's blocks, without its per-call overhead."""
    w = U.shape[1] // r
    return tuple(U[:, i:i + w] for i in range(0, r * w, w))


def assemble_cpd(decomp: CPDecomposition) -> np.ndarray:
    """Sum the rank-one terms of a decomposition into an array of shape dims."""
    return decomp.term_tensors().sum(axis=1).reshape(decomp.dims)


def normalize_decomposition(factor_matrices: Sequence[np.ndarray]) -> CPDecomposition:
    """Build a decomposition from factor matrices (one m_k x r matrix per mode).

    Column i of mode k holds the unnormalized mode-k vector of term i.  Each
    term gets mu_i equal to the product of its column norms and unit vectors;
    signs stay in the vectors.  A zero column has no unit direction and is
    rejected, and so is a non-finite entry or a term whose norm overflows.
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
    # Per mode, the r columns as contiguous rows: each norm is one BLAS dot
    # of a contiguous row, as np.linalg.norm takes it after copying a strided
    # column, and the last bits of mu and the vectors reach the model CSVs.
    rows = [np.ascontiguousarray(A.T) for A in mats]
    # A non-finite entry or an overflowing norm makes mu non-finite, and
    # RankOneTerm rejects it; a zero column is rejected before its division
    # is read.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = [[math.sqrt(row.dot(row)) for row in R] for R in rows]
        units = [R / np.array(nk)[:, None] for R, nk in zip(rows, norms)]
    terms = []
    for i in range(r):
        mu = 1.0
        for nk in norms:
            if nk[i] == 0.0:
                raise ValueError(f"degenerate rank-one term: zero column {i}")
            mu *= nk[i]
        terms.append(RankOneTerm(mu, tuple(U[i] for U in units)))
    return CPDecomposition(tuple(terms))


def orthonormal_complements(A: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the complements of the r unit columns of an
    m x r matrix, as an r x m x (m-1) stack; the columns are not checked.

    Deterministic: the basis of column v comes from the Householder
    reflector sending v to -sign(v_0) e_1 (with sign(0) = +1), whose
    trailing m-1 columns are orthonormal and orthogonal to v.  For
    v = +-e_1 this yields (e_2, ..., e_m).
    """
    # The rows w = v + sign(v_0) e_1 of the reflectors I - 2 w w^T / (w . w).
    W = A.T.copy()
    W[:, 0] += np.where(W[:, 0] >= 0, 1.0, -1.0)
    # One BLAS dot per row: a batched sum can round differently, and the
    # last bits of these entries reach kappa and the experiment CSVs.
    scale = 2.0 / np.array([w @ w for w in W])
    # The trailing m-1 columns of each reflector I - scale * w w^T.
    return np.eye(A.shape[0])[:, 1:] - scale[:, None, None] * (W[:, :, None] * W[:, None, 1:])
