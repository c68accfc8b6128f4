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
multiplicity).  The K_k never decide sigma_n or sigma_1: for a compressed
mode k and a unit e in R^r, e x kron(b_i^l, l != k) lies in term i's
tangent space, so for every c there is a w with ||w|| = ||c|| and
core w = e x (K_k c).  Hence sigma_n(core) <= sigma_r(K_k) and
sigma_1(core) >= sigma_1(K_k), and cpd_condition_number takes sigma_n,
sigma_1 and the least vector from one SVD of the core alone (sigma_n is
zero when the core is wide, as condition.is_defective flags, which it is
whenever a K_k is: a compressed mode gives the core at least r^2 columns,
and K_k has prod_j min(m_j, r) / r rows).  No mode with m_k > r means no
compression, and then the core is U itself.

The norm-balanced condition number (Breiding & Vannieuwenhoven, arXiv
1611.08117) decomposes the same blocks with their columns scaled.  With
s_i = mu_i^(1-1/d) and t_i = a^1 x ... x a^d, term i's norm-balanced block
for mode k, s_i * (a^1 x ... x I x ... x a^d), is s_i * (t_i a^kT +
U_i^k Q^kT), U_i^k being U_i's mode-k block, as I = a^k a^kT + Q^k Q^kT.
So B_i = U_i C_i, where C_i stacks the row s_i [a^1T ... a^dT] on
s_i blkdiag(Q^kT); its rows are orthogonal as Q^kT a^k = 0, so C_i C_i^T =
D_i^2 = s_i^2 * diag(d, 1, ..., 1) (a mode with m_k = 1 has no Q^k and only
adds its entry +-1 to the first row).  The nonzero singular values of
[B_1 ... B_r], r * sum_k m_k columns, are thus those of the n columns of
U D, D = diag(D_i); the compression splits U D as it splits U, scaling term
i's columns of the core by D_i and its column of every K_k by s_i.  The
same w, now with ||w|| <= ||c|| as D_i weights the rank-one column by
sqrt(d), keeps sigma_1 in the core but no longer bounds sigma_n: at r = 1
the core is the 1 x 1 column s * sqrt(d) and sigma_n = s sits in the K_k.
So the K_k, which all have the shape (prod_j min(m_j, r) / r) x r, go as
one stack to the values-only SVD, and sigma_n is the least over the core
and the K_k.
"""

from __future__ import annotations

import math

import numpy as np

from .condition import (
    ConditionReport,
    SubspaceTuple,
    check_entries,
    condition_report,
    core_shape,
    is_defective,
    kappa_from_singular_values,
    least_singular_values,
)
from .tensor import (
    CPDecomposition,
    _term_blocks,
    householder_vectors,
    khatri_rao,
    orthonormal_complements,
    tangent_matrix,
)

WEAK_ORTHOGONALITY_TOL = 1e-12


def cpd_tangent_tuple(decomp: CPDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms, ready for the condition-number engine.
    Raises ValueError, before allocating, above MAX_TANGENT_ENTRIES."""
    dims, r, n, N = decomp.dims, decomp.rank, _tangent_dim(decomp), decomp.ambient_dim
    # Floats held at once: the N x n output, the build's last intermediate
    # (N / m_d rows) and the r x m_k x m_k complement stacks.
    entries = (N + N // dims[-1]) * n + r * sum(m * m for m in dims)
    check_entries(entries, f"dims {dims} at rank {r} need")
    mats = decomp.factor_matrices()
    U = tangent_matrix(mats, [orthonormal_complements(A) for A in mats])
    return SubspaceTuple(N, _term_blocks(U, r))


def _tangent_dim(decomp: CPDecomposition) -> int:
    return decomp.rank * (1 - decomp.order + sum(decomp.dims))


class _Compression:
    """The Tucker compression of a decomposition's factor matrices.

    mats are the A_k, bases the P_k of the QR of A_k for each mode with
    m_k > r (None for the others), core the B_k = P_k^T A_k (A_k itself
    when uncompressed), and complements those of the B_k.  The core matrix
    is self.rows x (r * self.width).  Raises ValueError, before any of it is
    built, when the floats held at once exceed MAX_TANGENT_ENTRIES.
    """

    def __init__(self, decomp: CPDecomposition):
        self.rank = r = decomp.rank
        dims = decomp.dims
        self.rows, self.width = core_shape(decomp.groups, r)
        self.modes = [k for k, m in enumerate(dims) if m > r]
        # Floats held at once: up to three core matrices (the core and the
        # two copies np.linalg.qr makes of it in least_singular_triplet; the
        # build holds at most two, tangent_matrix's output and its last
        # intermediate) and the K_k.  (10,)*5 r=10, a 4.6e7-entry core,
        # peaked at 1.1 GB.
        entries = self.rows * (3 * r * self.width + len(self.modes))
        check_entries(entries, f"dims {dims} at rank {r} need")
        self.mats = decomp.factor_matrices()
        self.bases = [np.linalg.qr(A)[0] if A.shape[0] > r else None for A in self.mats]
        self.core = [A if P is None else P.T @ A for A, P in zip(self.mats, self.bases)]
        self.complements = [orthonormal_complements(B) for B in self.core]

    @property
    def path(self) -> str:
        return "compressed" if self.modes else "dense"

    def core_matrix(self, scales=None) -> np.ndarray:
        """The core, times the D of the module docstring for per-term
        scales s_i."""
        C = tangent_matrix(self.core, self.complements)
        if scales is not None:
            D = np.repeat(scales, self.width)
            D[::self.width] *= math.sqrt(len(self.core))
            C *= D
        return C

    def out_stack(self, scales) -> np.ndarray:
        """K_k for every compressed mode k, stacked, with term i's column
        kron(b_i^1, ..., 1, ..., b_i^d) times s_i."""
        ones = np.ones((1, self.rank))
        return np.stack(
            [khatri_rao(self.core[:k] + [ones] + self.core[k + 1:]) for k in self.modes]
        ) * scales

    def lift(self, v: np.ndarray) -> np.ndarray:
        """v, in the column coordinates of the core, mapped isometrically to
        the coordinates of cpd_tangent_tuple, so that ||U lift(v)|| =
        ||core v||.

        Core coordinates y of term i's mode-k block are the direction
        P_k Q_c y, written in the basis Q_o of the complement of a_i^k (Q_c,
        Q_o from orthonormal_complements) by applying the reflector whose
        trailing columns are Q_o, without forming it.
        """
        r = self.rank
        core = v.reshape(r, -1)
        parts = [core[:, :1]]
        at = 1
        for A, P, Q_c in zip(self.mats, self.bases, self.complements):
            width = Q_c.shape[2]
            y = core[:, at:at + width]
            at += width
            if P is None:
                parts.append(y)
                continue
            z = (Q_c @ y[:, :, None])[:, :, 0] @ P.T
            # z Q_o = (z H)[1:] for the reflector H = I - 2 w w^T / (w . w)
            W = householder_vectors(A)
            z -= (2.0 * np.einsum("ij,ij->i", z, W) / np.einsum("ij,ij->i", W, W))[:, None] * W
            parts.append(z[:, 1:])
        return np.hstack(parts).ravel()


def cpd_condition_number(decomp: CPDecomposition, *, vector: bool = True) -> ConditionReport:
    """Condition number of recovering the rank-one terms from their sum.

    Equal to condition_number(cpd_tangent_tuple(decomp)) in exact
    arithmetic, computed from one SVD of the compressed core (see the module
    docstring); least_vector is in the coordinates of cpd_tangent_tuple,
    lifted from the core's on its first read (see condition_report), so
    reading kappa alone costs no lift.  With vector=False that SVD is
    values-only, lift is never called and least_vector is None; the model
    experiment, which reads kappa alone, takes it so.
    Raises ValueError above MAX_TANGENT_ENTRIES.
    """
    tucker = _Compression(decomp)
    return condition_report(
        tucker.core_matrix(),
        _tangent_dim(decomp),
        decomp.ambient_dim,
        tucker.path,
        tucker.lift,
        vector=vector,
    )


def norm_balanced_condition_number(decomp: CPDecomposition) -> float:
    """Condition number of recovering the balanced factor vectors themselves.

    Unlike the term-wise condition number this one is sensitive to the term
    norms: scaling a term toward zero drives it to infinity.  Equal to
    1 / sigma_n([B_1 ... B_r]) with n the total tangent dimension and

        B_i = mu_i^(1-1/d) [ I x a^2 x ... x a^d | ... | a^1 x ... x I ],

    the derivative of (a^1, ..., a^d) -> a^1 x ... x a^d at the
    norm-balanced representative of term i, whose factors all have norm
    mu_i^(1/d); computed from values-only SVDs of the compressed blocks
    times D (see the module docstring): one of the core and, when a mode is
    compressed, one of the stacked K_k.  Raises ValueError above
    MAX_TANGENT_ENTRIES.
    """
    # A wide core has a kernel: sigma_n is zero and no SVD is needed.
    if is_defective(decomp.groups, decomp.rank):
        return math.inf
    tucker = _Compression(decomp)
    scales = np.array([t.mu ** (1.0 - 1.0 / t.order) for t in decomp.terms])
    # Values only: right vectors would double the cost at larger shapes.
    sigma_n, sigma_1 = least_singular_values(tucker.core_matrix(scales))
    if tucker.modes:
        sigma_n = min(sigma_n, least_singular_values(tucker.out_stack(scales))[0])
    return kappa_from_singular_values(sigma_n, sigma_1, _tangent_dim(decomp), decomp.ambient_dim)


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
