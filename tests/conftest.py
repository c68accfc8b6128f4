"""Shared generators and hypothesis scaffolding for the test suite.

All randomness flows through seeded PCG64 generators so every test is
reproducible on its own.  The property tests run under one derandomized
hypothesis profile, registered and loaded here.
"""

import math
import os
import resource
import subprocess
import sys
from functools import reduce

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

import joincond
from joincond import (
    CPDecomposition,
    RankOneTerm,
    SubspaceTuple,
    SymmetricRankOneTerm,
    WaringDecomposition,
    cpd_tangent_tuple,
    normalize_decomposition,
    waring_tangent_tuple,
)
from joincond.condition import RANK_TOL_FACTOR

settings.register_profile(
    "joincond", max_examples=120, deadline=None, derandomize=True, database=None
)
settings.load_profile("joincond")

# Errors of the compressed CP path and the symmetric Waring path stay near
# eps * sigma_1; this is the bound the properties hold them to.
SIGMA_TOL = 1e-12
# kappa >= ||mu||_2 / ||T||_F (the condition module docstring) holds to this
# relative slack, 16 eps, for the rounding of sigma_n and of the two norms;
# the least kappa / bound over the generated CP and Waring inputs is
# 1 - 3.2 eps, at r = 1, where the bound is attained.
CONE_SLACK = 16 * np.finfo(float).eps


def near_threshold(sigma, sigma_1):
    """Whether sigma lies within a factor 10 of the rank tolerance, where a
    finite/infinite verdict may flip on rounding."""
    tol = RANK_TOL_FACTOR * max(1.0, sigma_1)
    return tol / 10 <= sigma <= 10 * tol


def cone_bound(mus, T):
    """||mu||_2 / ||T||_F, for term norms mus summing to the tensor T."""
    return math.hypot(*mus) / float(np.linalg.norm(T))


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
    return CPDecomposition(tuple(terms))


def random_waring(rng, m, d, rank, signed=False):
    terms = []
    for _ in range(rank):
        mu = float(rng.uniform(0.5, 2.0))
        if signed and rng.uniform() < 0.5:
            mu = -mu
        terms.append(SymmetricRankOneTerm(mu, random_unit(rng, m), d))
    return WaringDecomposition(tuple(terms))


def random_orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, max(k, 1))))
    q = q * np.sign(np.diag(r))[None, :]
    return q[:, :k]


def random_subspace_tuple(rng, ambient, block_dims):
    blocks = tuple(random_orthonormal(rng, ambient, d) for d in block_dims)
    return SubspaceTuple(ambient, blocks)


@st.composite
def cp_decompositions(draw):
    """d in 1..4, m_k in 1..9 (so prod_k m_k <= 6561) and r in 1..6, standard
    normal factors; some draws pull the second column of every factor toward
    the first so that sigma_n falls toward and through the rank threshold."""
    d = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    r = draw(st.integers(1, 6))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.standard_normal((m, r)) for m in dims]
    if pull and r > 1:
        for A in mats:
            A[:, 1] = A[:, 0] + pull * A[:, 1]
    return normalize_decomposition(mats)


def orthogonal_cpd(rng, dims, rank):
    """Terms pairwise orthogonal in every mode: kappa is exactly 1 for d >= 3."""
    assert all(m >= rank for m in dims)
    mats = [random_orthonormal(rng, m, rank) for m in dims]
    terms = []
    for i in range(rank):
        mu = float(rng.uniform(0.5, 2.0))
        terms.append(RankOneTerm(mu, tuple(M[:, i] for M in mats)))
    return CPDecomposition(tuple(terms))


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
    return cpd_tangent_tuple(CPDecomposition((term,))).subspaces[0]


def veronese_tangent_basis(term):
    """The orthonormal tangent basis (m^d x m) of one symmetric term."""
    decomp = WaringDecomposition((term,))
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
    n = decomp.rank * (1 - decomp.order + sum(decomp.dims))
    N = decomp.ambient_dim
    M = np.hstack([norm_balanced_basis(t) for t in decomp.terms])
    s = np.linalg.svd(M, compute_uv=False)
    return (float(s[n - 1]) if n <= N else 0.0), float(s[0]), n, N


def run_cli(argv, threads=1, capped=False):
    """`python -m joincond.cli argv` in a fresh interpreter on the given
    number of BLAS threads, with this checkout's src on the import path;
    capped limits its address space to 1 GB, so that an unguarded
    allocation fails at once instead of filling the machine."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = os.path.dirname(os.path.dirname(joincond.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "joincond.cli", *argv],
        env=env, preexec_fn=cap if capped else None, capture_output=True, text=True, timeout=120,
    )
