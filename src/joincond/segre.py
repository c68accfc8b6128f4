"""Condition numbers specialized to CP (rank-one sum) decompositions.

Per term the tangent space of the rank-one manifold at mu * a^1 x ... x a^d
has the orthonormal basis

    U_i = [ a^1 x ... x a^d | Q^1 x a^2 x ... x a^d | ... | a^1 x ... x Q^d ]

where Q^k is an orthonormal basis of the complement of a^k; the blocks are
mutually orthogonal by construction, so U_i has 1 - d + sum_k m_k columns
and U_i^T U_i = I holds to rounding.

The condition number is computed on a Tucker-compressed form (Dewaele,
Breiding & Vannieuwenhoven, "The condition number of many tensor
decompositions is invariant under Tucker compression").  For a mode with
m_k > r let P_k (m_k x r) be an orthonormal basis containing the r mode-k
vectors, from the QR of A_k = [a_1^k ... a_r^k], and B_k = P_k^T A_k.  A
tangent direction whose mode-k factor x lies outside span(P_k) is
orthogonal to every other direction of every term, so in the coordinates
(P_k, P_k^perp) of each mode the stacked U = [U_1 ... U_r] is, up to row
and column order, block diagonal:

    core:  the stacked bases of the terms with vectors B_k, on
           prod_k min(m_k, r) rows;
    out-k: K_k x I_(m_k - r) per compressed mode k, where K_k, the
           Khatri-Rao product of the B_l (l != k), has term i's column
           kron(b_i^1, ..., 1, ..., b_i^d).

The singular values of U are those of the core and of the K_k (with
multiplicity), so one SVD of the much smaller matrix diag(core, K_k, ...)
gives sigma_n and sigma_1 exactly; no mode with m_k > r means no
compression, and then that matrix is U itself.

The norm-balanced condition number decomposes the same matrix with its
columns scaled.  With s_i = mu_i^(1-1/d) and t_i = a^1 x ... x a^d, term
i's norm-balanced block for mode k is s_i * (t_i a^kT + U_i^k Q^kT), U_i^k
being U_i's mode-k block.  So B_i = U_i C_i with C_i C_i^T = D_i^2 =
s_i^2 * diag(d, 1, ..., 1), as Q^kT a^k = 0, and the nonzero singular values
of [B_1 ... B_r] are those of U D, D = diag(D_i); the compression splits
U D as it splits U.
"""

from __future__ import annotations

import math

import numpy as np

from .condition import (
    ConditionReport,
    SubspaceTuple,
    kappa_from_singular_values,
    least_singular_triplet,
    relative_condition_numbers,
)
from .tensor import CPDecomposition, assemble_cpd, khatri_rao, orthonormal_complements

WEAK_ORTHOGONALITY_TOL = 1e-12


def _tangent_matrix(mats, complements) -> np.ndarray:
    """[U_1 ... U_r] for the terms whose mode-k vectors are the columns of
    mats[k], each U_i with its columns in the order of the module docstring;
    complements[k] is orthonormal_complements(mats[k]).  Block k of all
    terms is one Khatri-Rao product: column i*c + j of its mode-k factor is
    complements[k][i, :, j], and every other mode repeats each column c times.
    """
    N = math.prod(A.shape[0] for A in mats)
    r = mats[0].shape[1]
    blocks = [khatri_rao(mats).reshape(N, r, 1)]  # the columns kron(a_i^1, ..., a_i^d)
    for k, Q in enumerate(complements):
        c = Q.shape[2]
        if c:
            factors = [np.repeat(A, c, axis=1) for A in mats]
            factors[k] = Q.transpose(1, 0, 2).reshape(-1, r * c)
            blocks.append(khatri_rao(factors).reshape(N, r, c))
    return np.concatenate(blocks, axis=2).reshape(N, -1)


def cpd_tangent_tuple(decomp: CPDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms, ready for the condition-number engine."""
    mats = decomp.factor_matrices()
    U = _tangent_matrix(mats, [orthonormal_complements(A) for A in mats])
    return SubspaceTuple(decomp.shape.ambient_dim, tuple(np.hsplit(U, decomp.rank)))


def _tangent_dim(decomp: CPDecomposition) -> int:
    return decomp.rank * (1 - decomp.order + sum(decomp.shape.dims))


def is_defective(decomp: CPDecomposition) -> bool:
    """True when the tangent spaces of the terms intersect at every input,
    by dimension alone, so that kappa is infinite and cond-cpd exits 3.
    That is the case
      - when n > N;
      - for r >= 2 when at most two modes have m_k >= 2, a matrix
        decomposition: a_1 x b_2 lies in the tangent spaces of the terms
        a_1 x b_1 and a_2 x b_2 (the CP twin of Waring's d = 2).
    """
    matrix_like = sum(m >= 2 for m in decomp.shape.dims) <= 2
    return _tangent_dim(decomp) > decomp.shape.ambient_dim or (decomp.rank >= 2 and matrix_like)


class _Compression:
    """The Tucker compression of a decomposition's factor matrices.

    mats are the A_k, bases the complete Q of the QR of A_k for each mode
    with m_k > r (None for the others), core the B_k = P_k^T A_k (A_k
    itself when uncompressed), where P_k is the first r columns of Q, and
    complements those of the B_k.
    """

    def __init__(self, decomp: CPDecomposition):
        r = decomp.rank
        self.rank = r
        self.mats = decomp.factor_matrices()
        self.bases = [
            np.linalg.qr(A, mode="complete")[0] if A.shape[0] > r else None
            for A in self.mats
        ]
        self.core = [A if Q is None else Q[:, :r].T @ A for A, Q in zip(self.mats, self.bases)]
        self.modes = [k for k, Q in enumerate(self.bases) if Q is not None]
        self.complements = [orthonormal_complements(B) for B in self.core]

    @property
    def path(self) -> str:
        return "compressed" if self.modes else "dense"

    def out_blocks(self) -> list[np.ndarray]:
        """K_k for every compressed mode k: term i's column is
        kron(b_i^1, ..., 1, ..., b_i^d), the direction a_i^1 x ... x x_k x
        ... x a_i^d for a unit x_k outside span(P_k)."""
        ones = np.ones((1, self.rank))
        return [khatri_rao(self.core[:k] + [ones] + self.core[k + 1:]) for k in self.modes]

    def matrix(self, scales=None) -> np.ndarray:
        """M = diag(core, K_k, ...), which both condition numbers decompose,
        times the D of the module docstring for per-term scales s_i."""
        M = _block_diag([_tangent_matrix(self.core, self.complements)] + self.out_blocks())
        if scales is not None:
            width = 1 - len(self.core) + sum(B.shape[0] for B in self.core)
            D = np.repeat(scales, width)
            D[::width] *= math.sqrt(len(self.core))
            M *= np.concatenate([D] + [scales] * len(self.modes))
        return M

    def lift(self, v: np.ndarray) -> np.ndarray:
        """v, in the column coordinates of M = diag(core, K_k, ...), mapped
        isometrically to the coordinates of cpd_tangent_tuple, so that
        ||U lift(v)|| = ||M v||.

        Core coordinates y of term i's mode-k block are the direction
        P_k Q_c y, the K_k coordinate w_i is the direction w_i x_k with x_k
        column r + 1 of the complete Q, and both are written in the basis
        Q_o of the complement of a_i^k (Q_c, Q_o from orthonormal_complements).
        """
        r = self.rank
        n_core = v.size - r * len(self.modes)
        core = v[:n_core].reshape(r, -1)
        outs = dict(zip(self.modes, v[n_core:].reshape(-1, r)))
        parts = [core[:, :1]]
        at = 1
        for k, (A, Q, Q_c) in enumerate(zip(self.mats, self.bases, self.complements)):
            if A.shape[0] == 1:
                continue
            width = Q_c.shape[2]
            y = core[:, at:at + width]
            at += width
            if Q is None:
                parts.append(y)
                continue
            z = (Q_c @ y[:, :, None])[:, :, 0] @ Q[:, :r].T + np.outer(outs[k], Q[:, r])
            Q_o = orthonormal_complements(A)
            parts.append((z[:, None, :] @ Q_o)[:, 0, :])
        return np.hstack(parts).ravel()


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    if len(blocks) == 1:
        return blocks[0]
    M = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    i = j = 0
    for b in blocks:
        M[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return M


def cpd_condition_number(decomp: CPDecomposition) -> ConditionReport:
    """Condition number of recovering the rank-one terms from their sum.

    Equal to condition_number(cpd_tangent_tuple(decomp)) in exact
    arithmetic, computed from the compressed matrix (see the module
    docstring); least_vector is in the coordinates of cpd_tangent_tuple.
    """
    tucker = _Compression(decomp)
    sigma, v, sigma_1 = least_singular_triplet(tucker.matrix())
    n, N = _tangent_dim(decomp), decomp.shape.ambient_dim
    return ConditionReport(
        sigma_min=sigma,
        kappa=kappa_from_singular_values(sigma, sigma_1, n, N),
        least_vector=tucker.lift(v),
        n=n,
        N=N,
        sigma_1=sigma_1,
        path=tucker.path,
    )


def cpd_relative_condition_numbers(decomp: CPDecomposition) -> list[float]:
    """Per-term relative condition numbers; term norms are the mu_i."""
    report = cpd_condition_number(decomp)
    total = float(np.linalg.norm(assemble_cpd(decomp)))
    return relative_condition_numbers(report, [t.mu for t in decomp.terms], total)


def norm_balanced_condition_number(decomp: CPDecomposition) -> float:
    """Condition number of recovering the balanced factor vectors themselves.

    Unlike the term-wise condition number this one is sensitive to the term
    norms: scaling a term toward zero drives it to infinity.  Equal to
    1 / sigma_n([B_1 ... B_r]) with n the total tangent dimension and

        B_i = mu_i^(1-1/d) [ I x a^2 x ... x a^d | ... | a^1 x ... x I ],

    the derivative of (a^1, ..., a^d) -> a^1 x ... x a^d at the
    norm-balanced representative of term i, whose factors all have norm
    mu_i^(1/d); computed as one values-only SVD of the matrix of
    cpd_condition_number times D (see the module docstring).
    """
    n, N = _tangent_dim(decomp), decomp.shape.ambient_dim
    scales = np.array([t.mu ** (1.0 - 1.0 / t.order) for t in decomp.terms])
    # A wide stacked matrix, or a wide M, has a kernel: sigma_n is zero and
    # no SVD is needed.  M is built only when the first test fails.
    if n > N or (M := _Compression(decomp).matrix(scales)).shape[0] < M.shape[1]:
        return math.inf
    # Values only: right vectors would double the cost at larger shapes.
    s = np.linalg.svd(M, compute_uv=False)
    return kappa_from_singular_values(float(s[-1]), float(s[0]), n, N)


def is_weak_3_orthogonal(decomp: CPDecomposition) -> bool:
    """True when every pair of terms is orthogonal in at least three modes."""
    terms = decomp.terms
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            orthogonal_modes = sum(
                1
                for a, b in zip(terms[i].vectors, terms[j].vectors)
                if abs(float(a @ b)) <= WEAK_ORTHOGONALITY_TOL
            )
            if orthogonal_modes < 3:
                return False
    return True
