"""Independent dense oracle for the benchmark's correctness checks.

Shares no code with joincond: every tangent space is rebuilt from its own
Kronecker spanning set, orthonormalised with QR, stacked, and handed to one
SVD.  Inputs are plain arrays (unit mode vectors, weights, basis blocks), so
the oracle keeps working when the package's internal types change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Same rank convention the package documents: sigma_min at or below
# 1e-14 * max(1, sigma_1) means the stacked basis is rank deficient.
RANK_TOL = 1e-14
# An op passes when its sigma_min is within SIGMA_TOL * max(1, sigma_1).
SIGMA_TOL = 1e-10
# Certificates must report distance == sigma_min within this absolute margin.
CERT_TOL = 1e-8


@dataclass(frozen=True)
class OracleResult:
    sigma_min: float
    sigma_1: float
    n: int
    N: int

    @property
    def scale(self) -> float:
        return max(1.0, self.sigma_1)

    @property
    def finite(self) -> bool:
        return self.n <= self.N and self.sigma_min > RANK_TOL * self.scale

    @property
    def near_threshold(self) -> bool:
        """True when the finite/inf verdict is within rounding of flipping."""
        return abs(self.sigma_min - RANK_TOL * self.scale) <= SIGMA_TOL * self.scale


def _kron_cols(factors) -> np.ndarray:
    """Kronecker product of matrices (C order: the last factor runs fastest)."""
    out = np.ones((1, 1))
    for F in factors:
        F = np.asarray(F, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        out = np.einsum("ip,jq->ijpq", out, F).reshape(
            out.shape[0] * F.shape[0], out.shape[1] * F.shape[1]
        )
    return out


def _complement_span(a: np.ndarray) -> np.ndarray:
    """m x (m-1) full-rank spanning set of the complement of unit vector a.

    Columns of I - a a^T, dropping the one at a's largest entry: the rest are
    independent because a is not in the span of the remaining unit vectors.
    """
    P = np.eye(a.size) - np.outer(a, a)
    return np.delete(P, int(np.argmax(np.abs(a))), axis=1)


def _orthonormal(span: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(span)
    return q


def cp_term_basis(vectors) -> np.ndarray:
    """Orthonormal tangent basis at a rank-one term with unit mode vectors."""
    vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    cols = [_kron_cols(vs)]
    for k, a in enumerate(vs):
        if a.size == 1:
            continue
        factors = list(vs)
        factors[k] = _complement_span(a)
        cols.append(_kron_cols(factors))
    return _orthonormal(np.hstack(cols))


def waring_term_basis(vector, d: int) -> np.ndarray:
    """Orthonormal tangent basis at a symmetric term a^(x d)."""
    a = np.asarray(vector, dtype=float).ravel()
    first = _kron_cols([a] * d)
    if a.size == 1:
        return _orthonormal(first)
    C = _complement_span(a)
    sym = sum(_kron_cols([a] * k + [C] + [a] * (d - k - 1)) for k in range(d))
    return _orthonormal(np.hstack([first, sym]))


def stacked_sigma(blocks, N: int) -> OracleResult:
    """sigma_n and sigma_1 of [B_1 ... B_r] after re-orthonormalising each block."""
    U = np.hstack([_orthonormal(np.asarray(B, dtype=float)) for B in blocks])
    n = U.shape[1]
    s = np.linalg.svd(U, compute_uv=False)
    sigma_min = float(s[n - 1]) if n <= N else 0.0
    return OracleResult(sigma_min, float(s[0]), n, N)


def cp_sigma(terms_vectors) -> OracleResult:
    """Oracle for a CP decomposition given each term's unit mode vectors."""
    bases = [cp_term_basis(vs) for vs in terms_vectors]
    return stacked_sigma(bases, bases[0].shape[0])


def waring_sigma(vectors, d: int) -> OracleResult:
    bases = [waring_term_basis(v, d) for v in vectors]
    return stacked_sigma(bases, bases[0].shape[0])


def norm_balanced_sigma(terms) -> OracleResult:
    """Oracle for the norm-balanced condition number.

    terms: (mu, unit mode vectors) pairs.  Each term contributes
    mu^(1-1/d) [kron(I, a^2, ..) | .. | kron(a^1, .., I)], and sigma is the
    n-th singular value with n the total tangent dimension.
    """
    blocks = []
    n = 0
    for mu, vectors in terms:
        vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
        d = len(vs)
        n += 1 - d + sum(v.size for v in vs)
        for k, a in enumerate(vs):
            factors = list(vs)
            factors[k] = np.eye(a.size)
            blocks.append(mu ** (1.0 - 1.0 / d) * _kron_cols(factors))
    M = np.hstack(blocks)
    N = M.shape[0]
    s = np.linalg.svd(M, compute_uv=False)
    sigma_min = float(s[n - 1]) if n <= N else 0.0
    return OracleResult(sigma_min, float(s[0]), n, N)


def _verdict(kappa: float, oracle: OracleResult) -> str | None:
    if math.isfinite(kappa) != oracle.finite and not oracle.near_threshold:
        return f"kappa {kappa!r} but oracle verdict is {'finite' if oracle.finite else 'inf'}"
    return None


def check_sigma(sigma_min: float, kappa: float, oracle: OracleResult) -> str | None:
    """None when a reported (sigma_min, kappa) pair agrees with the oracle,
    otherwise the reason it does not."""
    margin = SIGMA_TOL * oracle.scale
    if not abs(sigma_min - oracle.sigma_min) <= margin:
        return f"sigma_min {sigma_min!r} vs oracle {oracle.sigma_min!r} (margin {margin:.1e})"
    if math.isfinite(kappa) and abs(kappa * sigma_min - 1.0) > 1e-12:
        return f"kappa {kappa!r} is not 1 / sigma_min {sigma_min!r}"
    return _verdict(kappa, oracle)


def check_kappa(kappa: float, oracle: OracleResult) -> str | None:
    """Check a bare kappa, reported without its sigma_min, against the oracle."""
    if math.isfinite(kappa):
        margin = SIGMA_TOL * oracle.scale
        if not (kappa > 0 and abs(1.0 / kappa - oracle.sigma_min) <= margin):
            return f"1/kappa for kappa {kappa!r} vs oracle {oracle.sigma_min!r} (margin {margin:.1e})"
    return _verdict(kappa, oracle)


def check_certificate(distance: float, oracle: OracleResult) -> str | None:
    if not abs(distance - oracle.sigma_min) <= CERT_TOL:
        return f"certificate distance {distance!r} vs oracle sigma_min {oracle.sigma_min!r}"
    return None
