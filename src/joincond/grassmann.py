"""Projection distances between subspace tuples, and nearest ill-posed tuples.

A tuple of subspaces (W_1, ..., W_r) of R^N with dims (n_1, ..., n_r) is
ill posed for joint recovery when dim(W_1 + ... + W_r) < n_1 + ... + n_r,
i.e. the subspaces share a linear dependence.  The distance from a tuple to
that locus (in the Euclidean combination of per-block projector distances)
equals sigma_n([W_1 ... W_r]), the quantity whose inverse is the condition
number.  nearest_intersecting_tuple makes that distance constructive by
exhibiting a closest dependent tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .condition import SubspaceTuple, least_singular_triplet
from .tensor import orthonormal_complements

# Tolerance for the two SVD-compounded certificate checks.
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
    """A nearest dependent tuple, its distance, and the shared directions.

    witness_directions[i] is a unit vector in the i-th nearest subspace; the
    witnesses span fewer than r dimensions, which is what makes the nearest
    tuple dependent.  diagnostics records the achieved residuals.
    """

    nearest: SubspaceTuple
    distance: float
    witness_directions: tuple[np.ndarray, ...]
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self, original: SubspaceTuple) -> dict:
        return {
            "distance": self.distance,
            "witness_directions": [x.tolist() for x in self.witness_directions],
            "nearest": self.nearest.to_json_dict(),
            "diagnostics": dict(self.diagnostics),
            "input_sha256": original.sha256(),
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
        residual = B - A @ (A.T @ B)
        sines = np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0)
        total += float(sines[0]) ** 2
    return float(np.sqrt(total))


def distance_to_illposed(W: SubspaceTuple) -> float:
    """Distance from the tuple to the dependent locus: sigma_n([W_1 ... W_r])."""
    if W.n > W.ambient_dim:
        return 0.0
    sigma, _, _ = least_singular_triplet(W.stacked())
    return sigma


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _span_vector_orthogonal_to(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A unit vector in colspan(basis) orthogonal to y, if one exists.

    Works in span coordinates: z = basis @ w is orthogonal to y iff w is
    orthogonal to c = basis^T y.  Falls back to the first basis column when
    no orthogonal direction exists (then the certificate check decides).
    """
    c = basis.T @ y
    nc = float(np.linalg.norm(c))
    if nc <= DEGENERATE_TOL or basis.shape[1] == 1:
        return basis[:, 0].copy()
    w = orthonormal_complements((c / nc)[:, None])[0, :, 0]
    return basis @ w


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
    attaining sigma_n, split it into per-block coefficients v_i, and form the
    witness candidates y_i = W_i v_i / ||v_i||.  The best rank-(r-1)
    approximation X of Y = [y_1 ... y_r] yields dependent directions
    x_i = X[:, i] / ||X[:, i]||; rotating each W_i minimally to contain x_i
    gives a dependent tuple at distance exactly sigma_n(U).  Degenerate
    blocks (v_i = 0, or a zero column of X) fall back to deterministic
    choices that preserve the bound.
    """
    if W.n > W.ambient_dim:
        raise ValueError("tuple is dependent outright: n exceeds the ambient dimension")
    if len(W.subspaces) == 1:
        raise ValueError("a single subspace has no dependent tuple to approach")
    U = W.stacked()
    sigma, v, _ = least_singular_triplet(U)

    offsets = np.cumsum((0,) + W.block_dims)
    ys = []
    for i, Wi in enumerate(W.subspaces):
        vi = v[offsets[i]:offsets[i + 1]]
        nv = float(np.linalg.norm(vi))
        if nv <= DEGENERATE_TOL:
            ys.append(Wi[:, 0].copy())
        else:
            ys.append(Wi @ (vi / nv))

    if sigma <= DEGENERATE_TOL:
        # Already dependent: the tuple is its own nearest dependent tuple.
        return IllposedCertificate(
            nearest=W,
            distance=0.0,
            witness_directions=tuple(ys),
            diagnostics={"sigma_min": sigma, "distance_residual": 0.0,
                         "intersect_residual": sigma},
        )

    Y = np.column_stack(ys)
    uy, sy, vty = np.linalg.svd(Y, full_matrices=False)
    r = Y.shape[1]
    sy_trunc = sy.copy()
    sy_trunc[-1] = 0.0
    X = (uy * sy_trunc) @ vty
    span = uy[:, : r - 1]

    xs = []
    for i in range(r):
        col = X[:, i]
        nc = float(np.linalg.norm(col))
        if nc <= DEGENERATE_TOL:
            xs.append(_unit(_span_vector_orthogonal_to(span, ys[i])))
        else:
            xs.append(col / nc)

    nearest = SubspaceTuple(
        W.ambient_dim,
        tuple(_rotate_to_contain(Wi, x) for Wi, x in zip(W.subspaces, xs)),
    )

    distance = projection_distance(W, nearest)
    distance_residual = abs(distance - sigma)
    intersect_residual, _, _ = least_singular_triplet(nearest.stacked())
    if distance_residual > CERTIFICATE_TOL or intersect_residual > CERTIFICATE_TOL:
        raise CertificateError(
            "certificate tolerances not met: "
            f"|distance - sigma_n| = {distance_residual:.3e}, "
            f"sigma_n(nearest) = {intersect_residual:.3e}",
            distance_residual=distance_residual,
            intersect_residual=intersect_residual,
        )
    return IllposedCertificate(
        nearest=nearest,
        distance=distance,
        witness_directions=tuple(xs),
        diagnostics={
            "sigma_min": sigma,
            "distance_residual": distance_residual,
            "intersect_residual": intersect_residual,
        },
    )
