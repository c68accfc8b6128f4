"""Projection distances between subspace tuples, and nearest ill-posed tuples.

A tuple of subspaces (W_1, ..., W_r) of R^N with dims (n_1, ..., n_r) is
ill posed for joint recovery when dim(W_1 + ... + W_r) < n_1 + ... + n_r,
i.e. the subspaces share a linear dependence.  The distance from a tuple to
that locus (in the Euclidean combination of per-block projector distances)
equals sigma_n([W_1 ... W_r]), the quantity whose inverse is the condition
number.  nearest_intersecting_tuple makes that distance constructive: from
the least singular triplet of the stacked bases (for a tuple that
cpd_tangent_tuple built, the CP engine's, which the tuple carries as data),
a closed-form rank-(r-1) step gives one witness direction per block, and
the witnesses alone fix a closest dependent tuple and check it, with one
values-only N x r SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .condition import SubspaceTuple, least_singular_triplet, least_singular_values
from .tensor import orthonormal_complements

# Tolerance for the two certificate checks.
CERTIFICATE_TOL = 1e-8
# Below this, norms are treated as zero when picking fallback directions.
DEGENERATE_TOL = 1e-12


class CertificateError(RuntimeError):
    """The constructed nearest tuple missed the certificate tolerances."""

    def __init__(self, message: str, distance_residual: float, intersect_residual: float):
        super().__init__(message)
        self.distance_residual = distance_residual
        self.intersect_residual = intersect_residual


@dataclass(frozen=True, eq=False)
class IllposedCertificate:
    """A closest dependent tuple to original, its distance, and the shared
    directions.

    witness_directions[i] is a unit vector x_i in the i-th nearest subspace;
    the witnesses span fewer than r dimensions, which is what makes the
    nearest tuple dependent.  diagnostics records the achieved residuals.
    nearest, a cached property, is built from original and the witnesses
    when it is read (the input itself when sigma_min is within
    DEGENERATE_TOL of 0), so a caller that reads only the distance never
    builds it.
    """

    original: SubspaceTuple
    distance: float
    witness_directions: tuple[np.ndarray, ...]
    diagnostics: dict

    @cached_property
    def nearest(self) -> SubspaceTuple:
        if self.diagnostics["sigma_min"] <= DEGENERATE_TOL:
            return self.original
        return SubspaceTuple(
            self.original.ambient_dim,
            tuple(_rotate_to_contain(W, x)
                  for W, x in zip(self.original.subspaces, self.witness_directions)),
        )

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "witness_directions": [x.tolist() for x in self.witness_directions],
            "nearest": self.nearest.to_json_dict(),
            "diagnostics": dict(self.diagnostics),
            "input_sha256": self.original.sha256(),
        }


def _check_compatible(W: SubspaceTuple, W2: SubspaceTuple):
    if W.ambient_dim != W2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if W.block_dims != W2.block_dims:
        raise ValueError("block dimensions differ")


def projection_distance(W: SubspaceTuple, W2: SubspaceTuple) -> float:
    """Euclidean combination of per-block projector distances.

    Per block the distance is the spectral norm of the projector difference.
    For equal-dimension subspaces that norm is the sine of the largest
    principal angle, computed as sigma_max(W_i' - W_i(W_i^T W_i')); the sine
    form stays accurate near zero, where sqrt(1 - cos^2) loses half the
    digits, and forming N x N projectors is never needed.
    """
    _check_compatible(W, W2)
    total = 0.0
    for A, B in zip(W.subspaces, W2.subspaces):
        total += min(least_singular_values(B - A @ (A.T @ B))[1], 1.0) ** 2
    return float(np.sqrt(total))


def distance_to_illposed(W: SubspaceTuple) -> float:
    """Distance from the tuple to the dependent locus: sigma_n([W_1 ... W_r]),
    from one values-only SVD."""
    if W.n > W.ambient_dim:
        return 0.0
    sigma, _ = least_singular_values(W.stacked())
    return sigma


def _rotate_to_contain(Wi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Minimally rotate the subspace spanned by Wi so it contains unit x.

    Only the direction u = Wi c / ||c|| closest to x moves (it is replaced by
    x); the orthogonal complement of u inside the subspace stays fixed.  When
    x is orthogonal to the whole subspace any direction may move, so the
    first basis column is replaced.
    """
    c = Wi.T @ x
    nc = float(np.linalg.norm(c))
    if nc <= DEGENERATE_TOL:
        out = Wi.copy()
        out[:, 0] = x
        return out
    rest = orthonormal_complements((c / nc)[:, None])[0]  # n_i x (n_i - 1)
    return np.column_stack([x, Wi @ rest])


def nearest_intersecting_tuple(W: SubspaceTuple) -> IllposedCertificate:
    """Construct a closest dependent tuple together with its witnesses.

    Construction: take a unit right singular vector v of U = [W_1 ... W_r]
    attaining sigma = sigma_n(U), split it into per-block coefficients v_i,
    and form the witness candidates y_i = W_i v_i / ||v_i|| (W_i[:, 0] when
    v_i = 0).  Y = [y_1 ... y_r] is U times the isometry diag(v_i / ||v_i||),
    so sigma_min(Y) >= sigma; and with c_i = ||v_i|| and Uv = sigma u,
    Y c = sigma u and Y^T u = sigma c.  So sigma is Y's least singular value
    and its best rank-(r-1) approximation is, in closed form,
    X = Y - (Uv) c^T.  The dependent directions x_i = X[:, i] / ||X[:, i]||
    and a minimal rotation of each W_i to contain x_i give a dependent tuple
    at distance exactly sigma.  A zero column of X needs sigma = 1 with v in
    one block W_i; the blocks are then mutually orthogonal, and any nonzero
    column of X, orthogonal to W_i, serves as x_i at the same distance 1.

    Both checks read the input and the witnesses alone.  Block i rotates
    only its direction closest to x_i, so its projector distance is the
    sine ||x_i - W_i W_i^T x_i|| and the tuple's is the root sum of their
    squares, compared with sigma as distance_residual.  Each x_i is column
    0 of nearest block i, so sigma_min([x_1 ... x_r]), from one values-only
    N x r SVD, bounds sigma_n of the nearest tuple from above; it is
    recorded as intersect_residual.  Two SVDs in all, for any r, or one
    when the tuple carries its engine's triplet (SubspaceTuple._triplet,
    which cpd_tangent_tuple sets from the CP engine's report), which the two
    checks then verify; a v that does not attain sigma fails them.  The
    nearest tuple itself is built only when IllposedCertificate.nearest is
    read.
    """
    if W.n > W.ambient_dim:
        raise ValueError("tuple is dependent outright: n exceeds the ambient dimension")
    if len(W.subspaces) == 1:
        raise ValueError("a single subspace has no dependent tuple to approach")
    U = W.stacked()
    sigma, v, _ = least_singular_triplet(U) if W._triplet is None else W._triplet

    # Every norm below is math.sqrt(x.dot(x)) of contiguous data, the one BLAS
    # dot np.linalg.norm takes after its copy of a strided vector.
    ys, c, at = [], [], 0
    for Wi in W.subspaces:
        vi = v[at:at + Wi.shape[1]]
        at += Wi.shape[1]
        nv = math.sqrt(vi.dot(vi))
        c.append(nv)
        if nv <= DEGENERATE_TOL:
            ys.append(Wi[:, 0].copy())
        else:
            ys.append(Wi @ (vi / nv))

    if sigma <= DEGENERATE_TOL:
        # Already dependent: the tuple is its own nearest dependent tuple.
        xs, distance, distance_residual, intersect_residual = ys, 0.0, 0.0, sigma
    else:
        # X's columns, as contiguous rows
        XT = np.array(ys) - np.outer(c, U @ v)
        norms = [math.sqrt(x.dot(x)) for x in XT]
        fallback = XT[int(np.argmax(norms))] / max(norms)
        xs = [x / nc if nc > DEGENERATE_TOL else fallback for x, nc in zip(XT, norms)]

        # block i turns by the angle whose sine is ||x_i - W_i W_i^T x_i||
        total = 0.0
        for Wi, x in zip(W.subspaces, xs):
            y = x - Wi @ (Wi.T @ x)
            total += min(math.sqrt(y.dot(y)), 1.0) ** 2
        distance = math.sqrt(total)
        distance_residual = abs(distance - sigma)
        intersect_residual, _ = least_singular_values(np.array(xs).T)
        if distance_residual > CERTIFICATE_TOL or intersect_residual > CERTIFICATE_TOL:
            raise CertificateError(
                "certificate tolerances not met: "
                f"|distance - sigma_n| = {distance_residual:.3e}, "
                f"sigma_min(witnesses) = {intersect_residual:.3e}",
                distance_residual=distance_residual,
                intersect_residual=intersect_residual,
            )
    return IllposedCertificate(
        original=W,
        distance=distance,
        witness_directions=tuple(xs),
        diagnostics={
            "sigma_min": sigma,
            "distance_residual": distance_residual,
            "intersect_residual": intersect_residual,
        },
    )
