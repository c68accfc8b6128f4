"""Shared generators for the test suite.

All randomness flows through seeded PCG64 generators so every test is
reproducible on its own.
"""

from functools import reduce

import numpy as np

from joincond import (
    CPDecomposition,
    RankOneTerm,
    Shape,
    SubspaceTuple,
    SymmetricRankOneTerm,
    WaringDecomposition,
    cpd_tangent_tuple,
    waring_tangent_tuple,
)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def unit(v):
    return v / np.linalg.norm(v)


def random_unit(rng, m):
    return unit(rng.standard_normal(m))


def random_cpd(rng, dims, rank, mu_range=(0.5, 2.0)):
    terms = []
    for _ in range(rank):
        mu = float(rng.uniform(*mu_range))
        vectors = tuple(random_unit(rng, m) for m in dims)
        terms.append(RankOneTerm(mu, vectors))
    return CPDecomposition(Shape(tuple(dims)), tuple(terms))


def random_waring(rng, m, d, rank, signed=False):
    terms = []
    for _ in range(rank):
        mu = float(rng.uniform(0.5, 2.0))
        if signed and rng.uniform() < 0.5:
            mu = -mu
        terms.append(SymmetricRankOneTerm(mu, random_unit(rng, m), d))
    return WaringDecomposition(m, d, tuple(terms))


def random_orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, max(k, 1))))
    q = q * np.sign(np.diag(r))[None, :]
    return q[:, :k]


def random_subspace_tuple(rng, ambient, block_dims):
    blocks = tuple(random_orthonormal(rng, ambient, d) for d in block_dims)
    return SubspaceTuple(ambient, blocks)


def orthogonal_cpd(rng, dims, rank):
    """Terms pairwise orthogonal in every mode: kappa is exactly 1 for d >= 3."""
    assert all(m >= rank for m in dims)
    mats = [random_orthonormal(rng, m, rank) for m in dims]
    terms = []
    for i in range(rank):
        mu = float(rng.uniform(0.5, 2.0))
        terms.append(RankOneTerm(mu, tuple(M[:, i] for M in mats)))
    return CPDecomposition(Shape(tuple(dims)), tuple(terms))


def count_svd_calls(monkeypatch, fail_first=False, shapes=None, qr_shapes=None):
    """Route np.linalg.svd through a recorder of each call's compute_uv flag.

    With fail_first the first call raises LinAlgError, as LAPACK does when
    the SVD iteration fails to converge.  A list passed as shapes receives
    the shape of each call's matrix; one passed as qr_shapes receives the
    shape of each np.linalg.qr call's matrix.
    """
    real_svd = np.linalg.svd
    real_qr = np.linalg.qr
    calls = []

    def svd(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        if shapes is not None:
            shapes.append(np.shape(args[0]))
        if fail_first and len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(*args, **kwargs)

    def qr(*args, **kwargs):
        qr_shapes.append(np.shape(args[0]))
        return real_qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    if qr_shapes is not None:
        monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


def kron(vectors):
    """The chained Kronecker product of vectors, from np.kron alone: the
    reference for the flattened rank-one tensors the package builds."""
    return reduce(np.kron, vectors)


def segre_tangent_basis(term):
    """The orthonormal tangent basis of one rank-one term."""
    return cpd_tangent_tuple(CPDecomposition(Shape(term.mode_dims()), (term,))).subspaces[0]


def veronese_tangent_basis(term):
    """The orthonormal tangent basis (m^d x m) of one symmetric term."""
    decomp = WaringDecomposition(term.vector.size, term.order, (term,))
    return waring_tangent_tuple(decomp).subspaces[0]


def norm_balanced_basis(term):
    """mu^(1-1/d) * [ I x a^2 x ... x a^d | ... | a^1 x ... x I ], the
    derivative of (a^1, ..., a^d) -> a^1 x ... x a^d at the norm-balanced
    representative, whose factors all have norm mu^(1/d); built from np.kron
    alone as the reference for the engine's column-scaled matrix.  Not
    orthonormal; its column span is the term's tangent space."""
    cols = [v[:, None] for v in term.vectors]
    blocks = [
        reduce(np.kron, cols[:k] + [np.eye(v.size)] + cols[k + 1:])
        for k, v in enumerate(term.vectors)
    ]
    return term.mu ** (1.0 - 1.0 / term.order) * np.hstack(blocks)


def dense_norm_balanced_sigma(decomp):
    """(sigma_n, sigma_1, n, N) of the full stacked norm-balanced matrix, the
    reference for norm_balanced_condition_number (sigma_n is 0 when n > N)."""
    n = decomp.rank * (1 - decomp.order + sum(decomp.shape.dims))
    N = decomp.shape.ambient_dim
    M = np.hstack([norm_balanced_basis(t) for t in decomp.terms])
    s = np.linalg.svd(M, compute_uv=False)
    return (float(s[n - 1]) if n <= N else 0.0), float(s[0]), n, N
