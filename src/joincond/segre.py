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
compression, and then that matrix is U itself.  The same split holds for
the norm-balanced matrix, whose out-k block is K_k scaled by mu_i^(1-1/d).
"""

from __future__ import annotations

import math

import numpy as np

from .condition import (
    ConditionReport,
    SubspaceTuple,
    _least_singular_triplet,
    kappa_from_singular_values,
    relative_condition_numbers,
)
from .tensor import (
    CPDecomposition,
    RankOneTerm,
    assemble_cpd,
    frobenius_norm,
    khatri_rao,
    kron_with_factor,
    orthonormal_complements,
)

WEAK_ORTHOGONALITY_TOL = 1e-12


def _term_blocks(mats, stacks) -> np.ndarray:
    """kron_with_factor(mats, k, stack) for each (k, stack) in stacks, as an
    N x r x c array in which term i's c columns are its blocks in order."""
    N = math.prod(A.shape[0] for A in mats)
    r = mats[0].shape[1]
    blocks = [kron_with_factor(mats, k, G).reshape(N, r, -1) for k, G in stacks]
    return np.concatenate(blocks, axis=2)


def _tangent_matrix(mats, complements) -> np.ndarray:
    """[U_1 ... U_r] for the terms whose mode-k vectors are the columns of
    mats[k], each U_i laid out as segre_tangent_basis does; complements[k]
    is orthonormal_complements(mats[k])."""
    first = (0, mats[0].T[:, :, None])  # the column kron(a_i^1, ..., a_i^d)
    U = _term_blocks(mats, [first] + [(k, Q) for k, Q in enumerate(complements) if Q.size])
    return U.reshape(U.shape[0], -1)


def _complements(mats) -> list[np.ndarray]:
    return [orthonormal_complements(A) for A in mats]


def _balanced_matrix(mats, scales) -> np.ndarray:
    """[B_1 ... B_r] for the terms with vectors mats and B_i scaled by scales[i],
    each B_i laid out as norm_balanced_basis does."""
    r = mats[0].shape[1]
    dims = [A.shape[0] for A in mats]
    eyes = [(k, np.broadcast_to(np.eye(m), (r, m, m))) for k, m in enumerate(dims)]
    B = _term_blocks(mats, eyes) * scales[:, None]
    return B.reshape(B.shape[0], -1)


def segre_tangent_basis(term: RankOneTerm) -> np.ndarray:
    """Orthonormal tangent basis of the rank-one manifold at a term."""
    cols = [v[:, None] for v in term.vectors]
    return _tangent_matrix(cols, _complements(cols))


def cpd_tangent_tuple(decomp: CPDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms, ready for the condition-number engine."""
    mats = decomp.factor_matrices()
    U = _tangent_matrix(mats, _complements(mats))
    return SubspaceTuple(decomp.shape.ambient_dim, tuple(np.hsplit(U, decomp.rank)))


def _tangent_dim(decomp: CPDecomposition) -> int:
    return decomp.rank * (1 - decomp.order + sum(decomp.shape.dims))


class _Compression:
    """The Tucker compression of a decomposition's factor matrices.

    mats are the A_k, bases the complete Q of the QR of A_k for each mode
    with m_k > r (None for the others), core the B_k = P_k^T A_k (A_k
    itself when uncompressed), where P_k is the first r columns of Q.
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

    @property
    def path(self) -> str:
        return "compressed" if self.modes else "dense"

    def out_blocks(self) -> list[np.ndarray]:
        """K_k for every compressed mode k: term i's column is
        kron(b_i^1, ..., 1, ..., b_i^d), the direction a_i^1 x ... x x_k x
        ... x a_i^d for a unit x_k outside span(P_k)."""
        ones = np.ones((1, self.rank))
        return [khatri_rao(self.core[:k] + [ones] + self.core[k + 1:]) for k in self.modes]

    def lift(self, v: np.ndarray, complements) -> np.ndarray:
        """v, in the column coordinates of M = diag(core, K_k, ...), mapped
        isometrically to the coordinates of cpd_tangent_tuple, so that
        ||U lift(v)|| = ||M v||; complements are those of the B_k.

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
        for k, (A, Q, Q_c) in enumerate(zip(self.mats, self.bases, complements)):
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
    complements = _complements(tucker.core)
    M = _block_diag([_tangent_matrix(tucker.core, complements)] + tucker.out_blocks())
    sigma, v, sigma_1 = _least_singular_triplet(M)
    n, N = _tangent_dim(decomp), decomp.shape.ambient_dim
    kappa = kappa_from_singular_values(sigma, sigma_1, n, N)
    return ConditionReport(
        sigma_min=sigma,
        kappa=kappa,
        least_vector=tucker.lift(v, complements),
        well_posed=math.isfinite(kappa),
        n=n,
        N=N,
        sigma_1=sigma_1,
        path=tucker.path,
    )


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
    scale = np.array([term.mu ** (1.0 - 1.0 / term.order)])
    return _balanced_matrix([v[:, None] for v in term.vectors], scale)


def norm_balanced_condition_number(decomp: CPDecomposition) -> float:
    """Condition number of recovering the balanced factor vectors themselves.

    Unlike the term-wise condition number this one is sensitive to the term
    norms: scaling a term toward zero drives it to infinity.  Equal to
    1 / sigma_n([B_1 ... B_r]) with B_i = norm_balanced_basis(term i) and n
    the total tangent dimension; computed, like cpd_condition_number, from
    the compressed matrix, where n becomes the core's tangent dimension plus
    r per compressed mode.
    """
    n, N = _tangent_dim(decomp), decomp.shape.ambient_dim
    if n > N:
        # Wide stacked matrix: sigma_n is zero, no SVD needed.
        return math.inf
    tucker = _Compression(decomp)
    scales = np.array([t.mu ** (1.0 - 1.0 / t.order) for t in decomp.terms])
    M = _block_diag(
        [_balanced_matrix(tucker.core, scales)] + [K * scales for K in tucker.out_blocks()]
    )
    # Values only: right vectors would double the cost at larger shapes.
    s = np.linalg.svd(M, compute_uv=False)
    r = decomp.rank
    n_core = r * (1 - decomp.order + sum(B.shape[0] for B in tucker.core))
    n_reduced = n_core + r * len(tucker.modes)
    sigma = float(s[n_reduced - 1]) if n_reduced <= s.size else 0.0
    return kappa_from_singular_values(sigma, float(s[0]), n, N)


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
