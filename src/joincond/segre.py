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
vectors, the first r columns of the complete QR of A_k = [a_1^k ... a_r^k]
(the other m_k - r are P_k^perp), and B_k = P_k^T A_k.  A
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

cpd_tangent_tuple takes its bases from the same compression.  For a mode
with m_k <= r, Q^k is the Householder complement of a_i^k
(tensor.orthonormal_complements).  For a compressed mode
the complete QR of A_k gives P_k (its first r columns) and P_k^perp (the
other m_k - r), and term i's Q^k is

    [ P_k Q_c,i | P_k^perp ],

with Q_c,i the core's complement of b_i^k.  Its columns are orthonormal and
orthogonal to a_i^k = P_k b_i^k, so they span the same space as any other
choice: term i's basis now depends on the other terms' mode-k vectors
through P_k, its subspace does not.  The core coordinates y of term i's
mode-k block stand for the direction P_k Q_c,i y, the first r - 1 columns
of that Q^k, so the core's least vector lifts to U's coordinates exactly,
by m_k - r zeros for the P_k^perp columns.

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

For T = p_1 + ... + p_r, kappa_nb >= sqrt(sum_i mu_i^(2/d) / d) / ||T||_F,
the norm-balanced twin of the cone bound in the condition module.  Proof:
with the balanced factors b_i^k = mu_i^(1/d) a_i^k, M = [B_1 ... B_r]
has n + r(d - 1) columns.  Euler's identity for the degree-d map
(b^1, ..., b^d) -> b^1 x ... x b^d gives B_i [b_i^1; ...; b_i^d] = d p_i,
so x with blocks x_i = [b_i^1; ...; b_i^d] / d has M x = T and ||x||^2 =
sum_i mu_i^(2/d) / d.  M's kernel holds each term's scaling directions
[c_1 b_i^1; ...; c_d b_i^d] with c_1 + ... + c_d = 0, which keep the
product fixed: a space K of dimension r(d - 1).  The test vector x is
orthogonal to K because the factors are balanced, all of norm
mu_i^(1/d): x_i . [c_k b_i^k]_k = mu_i^(2/d) (c_1 + ... + c_d) / d = 0.
On the (r(d - 1) + 1)-dimensional space K + span(x), z = k + a x has
||M z|| = |a| ||T|| and ||z|| >= |a| ||x||, so by Courant-Fischer
sigma_n(M) <= ||T|| / ||x||, and kappa_nb = 1 / sigma_n is at least the
bound.
"""

from __future__ import annotations

import math
import weakref

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
    khatri_rao,
    orthonormal_complements,
    tangent_matrix,
)

WEAK_ORTHOGONALITY_TOL = 1e-12

# decomposition -> (report, _Compression) of the last cpd_condition_number
# with vector=True, for cpd_tangent_tuple of the same decomposition.  Weakly
# keyed, so the entry dies with its decomposition, and cleared before each
# new entry, so it holds one (briefly more when threads race); a miss costs
# time, never bytes.
_last_report = weakref.WeakKeyDictionary()


def cpd_tangent_tuple(decomp: CPDecomposition) -> SubspaceTuple:
    """Tangent bases of all terms, ready for the condition-number engine.

    Built from the decomposition's compression (see the module docstring
    for the complements it takes): that of the last vector report, when it
    was made for this decomposition, else one made here together with its
    report.  The tuple's least singular triplet (SubspaceTuple._triplet) is
    that report's: sigma_n and sigma_1 of the compressed core, which are
    U's, and the lifted least_vector, which attains sigma_n on U.  Either
    way the tuple's and the triplet's bytes depend on decomp alone.
    Raises ValueError, before allocating, above MAX_TANGENT_ENTRIES.
    """
    dims, r, n, N = decomp.dims, decomp.rank, _tangent_dim(decomp), decomp.ambient_dim
    # Floats held at once: the N x n output, the build's last intermediate
    # (N / m_d rows) and the r x m_k x m_k complement stacks.
    entries = (N + N // dims[-1]) * n + r * sum(m * m for m in dims)
    check_entries(entries, f"dims {dims} at rank {r} need")
    entry = _last_report.get(decomp)
    if entry is None:
        tucker = _Compression(decomp)
        entry = _report(decomp, tucker), tucker
    report, tucker = entry
    U = tangent_matrix(tucker.mats, tucker.dense_complements())
    triplet = (report.sigma_min, report.least_vector, report.sigma_1)
    return SubspaceTuple(N, _term_blocks(U, r), triplet)


def _tangent_dim(decomp: CPDecomposition) -> int:
    return decomp.rank * (1 - decomp.order + sum(decomp.dims))


class _Compression:
    """The Tucker compression of a decomposition's factor matrices.

    mats are the A_k; bases the complete Q of the QR of A_k for each mode
    with m_k > r, whose first r columns are P_k and the others P_k^perp
    (None for the other modes); core the B_k = P_k^T A_k (A_k itself when
    uncompressed), and complements those of the B_k.  The core matrix is
    self.rows x (r * self.width).  Raises ValueError, before building the
    Q or the core, when the floats either holds at once exceed
    MAX_TANGENT_ENTRIES.
    """

    def __init__(self, decomp: CPDecomposition):
        self.rank = r = decomp.rank
        self.dims = dims = decomp.dims
        self.rows, self.width = core_shape(decomp.groups, r)
        self.modes = [k for k, m in enumerate(dims) if m > r]
        check_entries(sum(dims[k] ** 2 for k in self.modes), f"dims {dims} at rank {r} need")
        self.mats = decomp.factor_matrices()
        self.bases = [np.linalg.qr(A, mode="complete")[0] if A.shape[0] > r else None
                      for A in self.mats]
        self.core = [A if Q is None else Q[:, :r].T @ A for A, Q in zip(self.mats, self.bases)]
        self.complements = [orthonormal_complements(B) for B in self.core]

    @property
    def path(self) -> str:
        return "compressed" if self.modes else "dense"

    def core_matrix(self, scales=None) -> np.ndarray:
        """The core, times the D of the module docstring for per-term
        scales s_i."""
        # Floats held at once: up to three core matrices (the core and the
        # two copies np.linalg.qr makes of it in least_singular_triplet; the
        # build holds at most two, tangent_matrix's output and its last
        # intermediate) and the K_k.  (10,)*5 r=10, a 4.6e7-entry core,
        # peaked at 1.1 GB.
        entries = self.rows * (3 * self.rank * self.width + len(self.modes))
        check_entries(entries, f"dims {self.dims} at rank {self.rank} need")
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

    def dense_complements(self) -> list[np.ndarray]:
        """The r x m_k x (m_k - 1) complement stacks of cpd_tangent_tuple:
        [P_k Q_c,i | P_k^perp] for term i of a compressed mode, Q_c,i its
        core complement, and the core complements of the other modes."""
        r, stacks = self.rank, []
        for Q, Q_c in zip(self.bases, self.complements):
            if Q is not None:
                dense = np.empty((r, Q.shape[0], Q.shape[0] - 1))
                dense[:, :, :r - 1] = Q[:, :r] @ Q_c
                dense[:, :, r - 1:] = Q[:, r:]
                Q_c = dense
            stacks.append(Q_c)
        return stacks

    def lift(self, v: np.ndarray) -> np.ndarray:
        """v, in the column coordinates of the core, in the coordinates of
        cpd_tangent_tuple: term i's mode-k block of the dense basis starts
        with the columns P_k Q_c,i y that core coordinates y stand for, so
        the lift inserts m_k - r zeros after them, for the P_k^perp
        columns, and ||U lift(v)|| = ||core v|| holds exactly.
        """
        r = self.rank
        core = v.reshape(r, -1)
        lifted = np.zeros((r, 1 - len(self.dims) + sum(self.dims)))
        lifted[:, 0] = core[:, 0]
        at = at_core = 1
        for m, Q_c in zip(self.dims, self.complements):
            width = Q_c.shape[2]
            lifted[:, at:at + width] = core[:, at_core:at_core + width]
            at += m - 1
            at_core += width
        return lifted.ravel()


def _report(decomp: CPDecomposition, tucker: _Compression, vector: bool = True) -> ConditionReport:
    """cpd_condition_number's report, from the compression tucker of decomp."""
    return condition_report(
        tucker.core_matrix(),
        _tangent_dim(decomp),
        decomp.ambient_dim,
        tucker.path,
        tucker.lift,
        vector=vector,
    )


def cpd_condition_number(decomp: CPDecomposition, *, vector: bool = True) -> ConditionReport:
    """Condition number of recovering the rank-one terms from their sum.

    Equal to condition_number(cpd_tangent_tuple(decomp)) in exact
    arithmetic, computed from one SVD of the compressed core (see the module
    docstring); least_vector is the core's, lifted to the coordinates of
    cpd_tangent_tuple by zero-padding.  With vector=False that SVD is
    values-only and least_vector is None; the model experiment, which reads
    kappa alone, takes it so.  A report with the vector is also kept, with
    its compression, for cpd_tangent_tuple of the same decomp.
    Raises ValueError above MAX_TANGENT_ENTRIES.
    """
    tucker = _Compression(decomp)
    report = _report(decomp, tucker, vector)
    if vector:
        _last_report.clear()
        _last_report[decomp] = report, tucker
    return report


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
    compressed, one of the stacked K_k.  The rank rule
    (kappa_from_singular_values) compares sigma_n with sigma_1, so a common
    factor c on every mu_i divides kappa by c^(1-1/d) at every scale.
    Raises ValueError above MAX_TANGENT_ENTRIES.
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
    return kappa_from_singular_values(sigma_n, sigma_1)


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
