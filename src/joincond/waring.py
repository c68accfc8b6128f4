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

Every column of V is a symmetric tensor, so the stacked [V_1 ... V_r] lives
in S^d(R^m), of dimension C(m+d-1, d) (Comon, Golub, Lim & Mourrain,
"Symmetric tensors and symmetric tensor rank", SIMAX 2008).  A symmetric
tensor is fixed by its entries at the sorted multi-indices i_1 <= ... <= i_d,
and the entry at I occurs d! / prod_j c_j! times among all m^d entries (c_j
is how often j occurs in I).  Keeping only the sorted rows, each scaled by
the square root of that count, is therefore an isometry on S^d(R^m): the
weighted matrix has the Gram matrix of the stacked basis, hence its singular
values and right singular vectors.  waring_condition_number decomposes that
C(m+d-1, d)-row matrix (715 rows instead of 10,000 at m=10, d=4).
condition.is_defective decides which shapes are ill posed by dimension.

One builder, _tangent_matrix, produces every Waring tangent matrix for all
terms at once from a table of weighted multi-indices: the sorted rows for
the engine, and all m^d rows in C order, of weight 1, for the dense
waring_tangent_tuple, which distance_to_illposed, the certificates and the
tests take.  It gathers the power and symmetrized complement rows and hands
them to tensor.tangent_matrix, the CP builder, as one factor group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import ConditionReport, SubspaceTuple, check_entries, condition_report
from .condition import is_defective
from .tensor import _unit_vector, as_float, as_int, as_vector
from .tensor import orthonormal_complements, tangent_matrix

# The symmetric-row weights need d! as a double, which is finite up to 170!.
MAX_ORDER = 170


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
        v = _unit_vector(self.vector, "vector")
        d = as_int(self.order, "order")
        if not 1 <= d <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {d}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "order", d)


@dataclass(frozen=True, eq=False)
class WaringDecomposition:
    """A sum of r symmetric rank-one terms in (R^m)^(x d)."""

    terms: tuple[SymmetricRankOneTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("decomposition needs at least one term")
        if any((t.vector.size, t.order) != (self.m, self.d) for t in self.terms):
            raise ValueError("terms must share m and d")

    @property
    def m(self) -> int:
        return self.terms[0].vector.size

    @property
    def d(self) -> int:
        return self.terms[0].order

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """((m, d),), the shape condition.is_defective takes."""
        return ((self.m, self.d),)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "terms": [{"mu": t.mu, "vector": t.vector.tolist()} for t in self.terms],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WaringDecomposition":
        """Raises ValueError when the declared m is not the vectors'."""
        m, d = as_int(obj["m"], "m"), as_int(obj["d"], "d")
        decomp = cls(tuple(
            SymmetricRankOneTerm(as_float(t["mu"], "mu"), as_vector(t["vector"], "vector"), d)
            for t in obj["terms"]
        ))
        if decomp.m != m:
            raise ValueError(f"declared m = {m} does not match the vectors' {decomp.m}")
        return decomp


def _vector_matrix(decomp: WaringDecomposition) -> np.ndarray:
    return np.column_stack([t.vector for t in decomp.terms])


def symmetric_dimension(m: int, d: int) -> int:
    """dim S^d(R^m) = C(m+d-1, d), the space holding every Waring tangent
    vector."""
    return math.comb(m + d - 1, d)


def _dense_rows(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All m^d multi-indices (i_1, ..., i_d) in C order, as an m^d x d array,
    each of weight 1."""
    return np.indices((m,) * d).reshape(d, -1).T, np.ones(m ** d)


def _symmetric_rows(m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The multi-indices i_1 <= ... <= i_d in lexicographic order, as a
    C(m+d-1, d) x d array, and for each the square root of its multinomial
    count d! / prod_j c_j!, the number of entries of a symmetric tensor that
    equal it (c_j is how often j occurs).

    Built one position at a time: a row ending in j has the children
    j, ..., m - 1.  prod_j c_j! is the product over positions of the length
    of the run of equal indices ending there.
    """
    rows = np.arange(m)[:, None]
    run = np.ones(m)
    ties = np.ones(m)
    for _ in range(d - 1):
        last = rows[:, -1]
        width = m - last
        parent = np.repeat(np.arange(last.size), width)
        child = np.arange(parent.size) - np.repeat(np.cumsum(width) - width - last, width)
        run = np.where(child == last[parent], run[parent] + 1.0, 1.0)
        ties = ties[parent] * run
        rows = np.column_stack([rows[parent], child])
    return rows, np.sqrt(math.factorial(d) / ties)


def _tangent_matrix(A: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The rows I of [V_1 ... V_r], each scaled by its weight, for the terms
    whose unit vectors are the columns of the m x r matrix A; V_i's columns
    are in the order of the module docstring.

    With G[I, k, i] = a_i[i_k], row I of a_i^(x d) is prod_k G[I, k, i] and
    row I of the complement column q is sum_k q[i_k] prod_(l != k) G[I, l, i],
    which prefix and suffix products over the d positions give for all rows
    and terms at once.
    """
    R, d = rows.shape
    r = A.shape[1]
    G = A[rows]
    prefix = [np.ones((R, r))]
    for k in range(d):
        prefix.append(prefix[-1] * G[:, k])
    suffix = [np.ones((R, r))]
    for k in range(d - 1, 0, -1):
        suffix.insert(0, G[:, k] * suffix[0])
    # Q[j, i] is row j of Q_i, contiguous for the row gathers below
    Q = np.ascontiguousarray(orthonormal_complements(A).transpose(1, 0, 2))
    sym = sum((prefix[k] * suffix[k])[:, :, None] * Q[rows[:, k]] for k in range(d)) / math.sqrt(d)
    w = weights[:, None]
    return tangent_matrix([prefix[d] * w], [(sym * w[:, :, None]).transpose(1, 0, 2)])


def _check_rows(decomp: WaringDecomposition, rows: int) -> None:
    """Raise ValueError, before allocating, when the tangent matrix on rows
    rows and its intermediates would exceed MAX_TANGENT_ENTRIES floats."""
    m, d, r = decomp.m, decomp.d, decomp.rank
    # Floats held at once: the index table, the gathered vectors, the d + 1
    # prefix and suffix products and the output.  A document of under 100
    # bytes can ask for more than the bound (m = 4, d = 170: 4.4e8 on the
    # symmetric rows).
    check_entries(rows * (3 * d + m) * r, f"(m, d, r) = ({m}, {d}, {r}) needs")


def waring_tangent_tuple(decomp: WaringDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms on all N = m^d rows; the total tangent
    dimension is r * m.  Raises ValueError, before allocating, above
    MAX_TANGENT_ENTRIES."""
    _check_rows(decomp, decomp.m ** decomp.d)
    U = _tangent_matrix(_vector_matrix(decomp), *_dense_rows(decomp.m, decomp.d))
    return SubspaceTuple(decomp.m ** decomp.d, tuple(np.hsplit(U, decomp.rank)))


def waring_condition_number(decomp: WaringDecomposition) -> ConditionReport:
    """Condition number of recovering the symmetric terms from their sum.

    Equal to condition_number(waring_tangent_tuple(decomp)) in exact
    arithmetic, computed on the C(m+d-1, d) weighted symmetric rows (see the
    module docstring); least_vector is in the coordinates of
    waring_tangent_tuple.  N stays m^d, and kappa is infinite whenever
    condition.is_defective flags the shape, whatever sigma_min rounds to.
    Raises ValueError, before allocating, when the matrix and its
    intermediates would exceed MAX_TANGENT_ENTRIES floats.
    """
    m, d, r = decomp.m, decomp.d, decomp.rank
    _check_rows(decomp, symmetric_dimension(m, d))
    M = _tangent_matrix(_vector_matrix(decomp), *_symmetric_rows(m, d))
    defective = is_defective(decomp.groups, r)
    return condition_report(M, r * m, m**d, "symmetric", defective=defective)
