"""Condition numbers of join decompositions from stacked tangent bases.

The sensitivity of recovering the summands p_1, ..., p_r from their sum is
governed by the n-th largest singular value of U = [U_1 ... U_r], where U_i
is any orthonormal basis of the tangent space at p_i and n is the total
column count: kappa = 1 / sigma_n(U).  When n exceeds the ambient dimension
the summation map cannot be locally inverted and kappa is infinite.

Only sigma_n, sigma_1 and a right singular vector are needed, and a caller
that reads kappa alone can skip the vector (vector=False), which leaves one
values-only SVD.  For a tall matrix (N >= 2n) the one SVD with vectors runs
on the n x n triangular factor of its QR decomposition, so U's N x n left
singular vectors are never formed; LAPACK's gesdd takes the same QR itself
at that shape, so the results are unchanged.  A report is a plain value,
complete when returned: an engine whose matrix has other columns than U
(segre's compressed core) hands condition_report the map that lifts its
least vector to U's coordinates, and the report holds the lifted vector.

For CP and Waring, kappa >= ||mu||_2 / ||T||_F for every input, with
T = p_1 + ... + p_r the decomposed tensor and mu the term norms.  Proof:
the Segre and Veronese varieties are cones, so p_i is mu_i times the first
column of U_i, and the unit x of blocks mu_i e_1 / ||mu||_2 has
U x = T / ||mu||_2, so sigma_n <= ||T||_F / ||mu||_2.  Along the paatero
and de Silva-Lim sequences the term norms diverge while T converges, so
kappa must diverge too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .blas import svd_threads
from .tensor import as_int, as_vector

# A block is accepted as orthonormal when max |U^T U - I| stays below this.
ORTHONORMAL_TOL = 1e-10
# sigma_min at or below RANK_TOL_FACTOR * max(1, sigma_1) counts as zero.
# segre.norm_balanced_condition_number weights term i by w_i = mu_i^(1-1/d):
# its sigma_1 is sqrt(d) * max w_i and its sigma_n about min w_i at most, so
# kappa becomes inf once the spread max w / min w passes about
# 1/RANK_TOL_FACTOR (at (3,3,3) r=2, mu = (1e20, 1) is finite and (1e22, 1)
# inf).  Digits go before that: sigma_n's rounding error is near eps * sigma_1,
# and over 40 random (3,3,3) r=2 inputs kappa at mu = (1e20, 1) moved by up
# to 3e-4, relatively, from its value at (1e14, 1).
RANK_TOL_FACTOR = 1e-14
# The CP and Waring engines and dense tuples refuse, before allocating, an
# input whose build and decomposition hold more floats than this (0.8 GB) at
# once; each counts its own intermediates.
MAX_TANGENT_ENTRIES = 10**8


# The Alexander-Hirschowitz exceptions (m, d, r), all with d >= 3.
_AH_EXCEPTIONS = frozenset({(3, 4, 5), (4, 4, 9), (5, 4, 14), (5, 3, 7)})


def core_shape(groups, r: int) -> tuple[int, int]:
    """(rows, columns per term) of the core of r terms, each a product of
    unit vectors of R^(m_g) to the powers d_g, groups = ((m_g, d_g), ...):
    prod_g C(k_g+d_g-1, d_g) and 1 - G + sum_g k_g, k_g = min(m_g, r)."""
    spans = [min(m, r) for m, _ in groups]
    rows = math.prod(math.comb(k + d - 1, d) for k, (_, d) in zip(spans, groups))
    return rows, 1 - len(spans) + sum(spans)


def is_defective(groups, r: int) -> bool:
    """True when r terms of the shape groups (see core_shape) have tangent
    spaces that meet at every input: kappa is inf, and cond-cpd and
    cond-waring exit 3.  Either
      - the core is wide, rows < r * columns: with P_g a k_g-dimensional
        space holding group g's vectors, term i's own direction and the
        k_g - 1 turns of each a_i^g within P_g are 1 - G + sum_g k_g
        orthonormal tangent directions in S^(d_1)(P_1) x ... x S^(d_G)(P_G),
        of prod_g C(k_g+d_g-1, d_g) dimensions (for CP, segre's Tucker
        core).  This covers n > N, every matrix decomposition and quadric of
        rank r >= 2, and shapes like (10,2,2) r=3 (n = 36 <= N = 40); or
      - one group (m, d) at rank r is an Alexander-Hirschowitz exception:
        by Terracini's lemma r generic tangent spaces, and by semicontinuity
        any r, span fewer than r * m dimensions.
    It misses (2,2,2,2) r=3, defective with a 16 x 15 core: kappa is inf
    there only through the rank tolerance."""
    rows, width = core_shape(groups, r)
    return rows < r * width or (len(groups) == 1 and (*groups[0], r) in _AH_EXCEPTIONS)


def check_entries(entries: int, what: str) -> None:
    """Raise ValueError when a build would hold more than
    MAX_TANGENT_ENTRIES floats at once; what names the input and its verb."""
    if entries > MAX_TANGENT_ENTRIES:
        raise ValueError(
            f"{what} about {entries:.2g} floats, above MAX_TANGENT_ENTRIES = "
            f"{MAX_TANGENT_ENTRIES:.0e}"
        )


@dataclass(frozen=True, eq=False)
class SubspaceTuple:
    """Subspaces W_1, ..., W_r of a common R^N, each an orthonormal column basis.

    The engine's one input type: the tangent bases of a join decomposition
    and general subspace tuples alike.  Every operation but sha256()
    depends on the subspaces only, never on the chosen bases; sha256()
    identifies the input as given, basis and all.

    _triplet, set only by an engine that builds the tuple, is
    (sigma_n, v, sigma_1) of stacked() as least_singular_triplet gives it:
    v a unit vector in the stacked columns' coordinates with
    ||stacked() v|| = sigma_n, up to rounding.  A certificate takes it in
    place of its own SVD and checks v through its residuals; a tuple
    without one (every tuple read from JSON) is decomposed.
    """

    ambient_dim: int
    subspaces: tuple[np.ndarray, ...]
    _triplet: tuple[float, np.ndarray, float] | None = field(default=None, repr=False)

    def __post_init__(self):
        N = as_int(self.ambient_dim, "ambient dimension")
        blocks = tuple(np.asarray(W, dtype=float) for W in self.subspaces)
        if not blocks:
            raise ValueError("need at least one subspace")
        for i, W in enumerate(blocks):
            if W.ndim != 2 or W.shape[0] != N or W.shape[1] < 1:
                raise ValueError(f"subspace {i} must be {N} x n_i with n_i >= 1")
            residual = np.abs(W.T @ W - np.eye(W.shape[1])).max()
            if not residual <= ORTHONORMAL_TOL:
                raise ValueError(
                    f"invalid tangent basis: subspace {i} orthonormality residual {residual:.3e}"
                )
        object.__setattr__(self, "ambient_dim", N)
        object.__setattr__(self, "subspaces", blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(W.shape[1] for W in self.subspaces)

    @property
    def n(self) -> int:
        return sum(self.block_dims)

    def stacked(self) -> np.ndarray:
        return np.hstack(self.subspaces)

    def to_json_dict(self) -> dict:
        return {
            "N": self.ambient_dim,
            "blocks": [[col.tolist() for col in W.T] for W in self.subspaces],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SubspaceTuple":
        blocks = tuple(
            np.array([as_vector(col, "block column") for col in cols]).T for cols in obj["blocks"]
        )
        return cls(obj["N"], blocks)

    def sha256(self) -> str:
        """sha256 over the little-endian int64 header [N, r, n_1, ..., n_r],
        then each block's columns, in the JSON's order, as little-endian
        float64 (W.T in C order).  It hashes the basis, not the subspaces."""
        header = (self.ambient_dim, len(self.subspaces)) + self.block_dims
        digest = hashlib.sha256(np.array(header, dtype="<i8").tobytes())
        for W in self.subspaces:
            digest.update(W.T.astype("<f8", copy=False).tobytes())
        return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Output of the condition-number engine.

    kappa is 1/sigma_min, with math.inf when the problem is ill posed (n > N
    or sigma_min below the rank tolerance); well_posed is whether kappa is
    finite.  least_vector is a unit right singular vector of the stacked
    basis attaining sigma_min; its blocks give the most weakly determined
    joint tangent direction.  It is None in a report made without it
    (condition_report's vector=False), and its JSON is then null.  sigma_1
    is the largest singular value, and path names the matrix that was
    decomposed: "dense" for the stacked basis itself, "compressed" for its
    Tucker-compressed form (see segre), "symmetric" for its weighted
    symmetric-coordinate rows (see waring).
    Every engine builds its reports with condition_report.
    """

    sigma_min: float
    kappa: float
    least_vector: np.ndarray | None
    n: int
    N: int
    sigma_1: float
    path: str = "dense"

    @property
    def well_posed(self) -> bool:
        return math.isfinite(self.kappa)

    def to_json_dict(self) -> dict:
        return {
            "sigma_min": self.sigma_min,
            "kappa": self.kappa if math.isfinite(self.kappa) else "inf",
            "n": self.n,
            "N": self.N,
            "well_posed": self.well_posed,
            "least_vector": None if self.least_vector is None else self.least_vector.tolist(),
            "sigma_1": self.sigma_1,
            "path": self.path,
        }


def _finite_matrix(M, ndims=(2,)) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim not in ndims:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("non-finite entries")
    return M


def least_singular_triplet(M) -> tuple[float, np.ndarray, float]:
    """(sigma_n, v, sigma_1) of an N x n matrix: its n-th and first largest
    singular values and a unit right singular vector v attaining sigma_n.

    For n <= N, sigma_n is min ||Mx|| over unit x.  For n > N the matrix has
    a nontrivial kernel, so sigma_n is 0 and v is a unit kernel vector.

    Only the right vectors are needed, so for N >= 2n the SVD runs on the
    n x n triangular factor R of M = QR, which has M's singular values and
    right vectors, and the N x n left factor is never formed.  LAPACK's
    gesdd takes that same QR internally above N = 11n/6, so the rule changes
    no bits, only the work and memory spent on the left vectors.  Both run
    under blas.svd_threads, which may set OpenBLAS's process-wide thread
    count (see blas for how scopes in several Python threads share it).
    """
    M = _finite_matrix(M)
    N, n = M.shape
    full = n > N
    with svd_threads(M.shape):
        if N >= 2 * n:
            M = np.linalg.qr(M, mode="r")
        try:
            _, s, vt = np.linalg.svd(M, full_matrices=full)
        except np.linalg.LinAlgError:
            # gesdd can fail to converge on benign input; the transpose takes
            # a different path through it, and its left vectors are M's right
            # ones.
            u, s, _ = np.linalg.svd(M.T, full_matrices=full)
            vt = u.T
    # abs: LAPACK can return a zero singular value as -0.0
    if full:
        return 0.0, vt[-1].copy(), abs(float(s[0]))
    return abs(float(s[n - 1])), vt[n - 1].copy(), abs(float(s[0]))


def least_singular_values(M) -> tuple[float, float]:
    """(sigma_n, sigma_1) of an N x n matrix, as least_singular_triplet
    gives them, from one values-only SVD: sigma_n is 0 for n > N.  For
    callers that read no singular vector; checks, threads and the retry on
    the transpose are least_singular_triplet's.  M may also be a stack of
    N x n matrices, decomposed in one batched call under the thread scope
    of one: then sigma_n is their least sigma_n, sigma_1 their largest.
    """
    M = _finite_matrix(M, ndims=(2, 3))
    N, n = M.shape[-2:]
    with svd_threads((N, n)):
        try:
            s = np.linalg.svd(M, compute_uv=False)
        except np.linalg.LinAlgError:
            s = np.linalg.svd(M.swapaxes(-1, -2), compute_uv=False)
    # abs: LAPACK can return 0 as -0.0; .flat: builtins beat numpy's reductions
    return (0.0 if n > N else abs(float(min(s[..., n - 1].flat)))), abs(float(max(s[..., 0].flat)))


def kappa_from_singular_values(sigma_n: float, sigma_1: float, n: int, N: int) -> float:
    """1 / sigma_n, or math.inf when the problem is ill posed: n > N, or
    sigma_n at or below RANK_TOL_FACTOR * max(1, sigma_1)."""
    if n > N or sigma_n <= RANK_TOL_FACTOR * max(1.0, sigma_1):
        return math.inf
    return 1.0 / sigma_n


def condition_report(
    M,
    n: int,
    N: int,
    path: str = "dense",
    lift=None,
    defective: bool = False,
    *,
    vector: bool = True,
) -> ConditionReport:
    """Every engine's report, from one SVD of M: a matrix with the Gram
    matrix of n stacked tangent columns in R^N, or the part of it that holds
    sigma_n and sigma_1.  kappa is inf when defective (ill posed by dimension
    alone), else kappa_from_singular_values; lift maps M's least right
    singular vector to the stacked columns' coordinates, and the report
    holds the lifted vector.

    With vector=False the SVD is values-only (least_singular_values), lift
    is not called, and least_vector is None; sigma_n and sigma_1 may then
    differ from the default's in their last bits (about eps * sigma_1), as
    another LAPACK path computes them, and kappa with them.
    """
    if vector:
        sigma, v, sigma_1 = least_singular_triplet(M)
    else:
        (sigma, sigma_1), v = least_singular_values(M), None
    if lift is not None and v is not None:
        v = lift(v)
    return ConditionReport(
        sigma_min=sigma,
        kappa=math.inf if defective else kappa_from_singular_values(sigma, sigma_1, n, N),
        least_vector=v,
        n=n,
        N=N,
        sigma_1=sigma_1,
        path=path,
    )


def condition_number(t: SubspaceTuple) -> ConditionReport:
    """Condition number of the join decomposition with tangent bases t."""
    return condition_report(t.stacked(), t.n, t.ambient_dim)
