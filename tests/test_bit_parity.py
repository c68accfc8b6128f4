"""The boundary op's trimmed helpers keep every bit, and least_vector is
lifted on its first read only.

The references below are the earlier formulas of normalize_decomposition,
orthonormal_complements and the certificate's norms: np.linalg.norm per
column, the full reflectors cut to their trailing columns, and
np.column_stack.  The package's versions must give the same bytes, and the
same error for the same input.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import joincond.segre as segre
from joincond import (
    CPDecomposition,
    RankOneTerm,
    SubspaceTuple,
    condition_number,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    nearest_intersecting_tuple,
    normalize_decomposition,
    paatero_sequence,
    waring_tangent_tuple,
)
from joincond.condition import least_singular_triplet, least_singular_values
from joincond.grassmann import DEGENERATE_TOL, CertificateError
from joincond.tensor import orthonormal_complements
from conftest import random_cpd, random_waring, rng_for


def reference_normalize(mats):
    """normalize_decomposition's earlier loop, one column at a time."""
    mats = [np.asarray(A, dtype=float) for A in mats]
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(mats[0].shape[1]):
            mu = 1.0
            vectors = []
            for A in mats:
                col = A[:, i]
                norm = float(np.linalg.norm(col))
                if norm == 0.0:
                    raise ValueError(f"degenerate rank-one term: zero column {i}")
                mu *= norm
                vectors.append(col / norm)
            terms.append(RankOneTerm(mu, tuple(vectors)))
    return CPDecomposition(tuple(terms))


def reference_complements(A):
    """orthonormal_complements' earlier form: whole reflectors, cut."""
    W = A.T.copy()
    W[:, 0] += np.where(W[:, 0] >= 0, 1.0, -1.0)
    scale = 2.0 / np.array([w @ w for w in W])
    H = np.eye(A.shape[0]) - scale[:, None, None] * (W[:, :, None] * W[:, None, :])
    return H[:, :, 1:]


def reference_certificate(W):
    """(witnesses, distance, intersect_residual) of nearest_intersecting_tuple
    by its earlier norms: np.linalg.norm of slices and strided columns, from
    the triplet the certificate takes (the engine's, when W carries one)."""
    U = W.stacked()
    sigma, v, _ = least_singular_triplet(U) if W._triplet is None else W._triplet()
    offsets = np.cumsum((0,) + W.block_dims)
    ys, c = [], []
    for i, Wi in enumerate(W.subspaces):
        vi = v[offsets[i]:offsets[i + 1]]
        nv = float(np.linalg.norm(vi))
        c.append(nv)
        ys.append(Wi[:, 0].copy() if nv <= DEGENERATE_TOL else Wi @ (vi / nv))
    if sigma <= DEGENERATE_TOL:
        return ys, 0.0, sigma
    X = np.column_stack(ys) - np.outer(U @ v, c)
    norms = [float(np.linalg.norm(col)) for col in X.T]
    fallback = X[:, int(np.argmax(norms))] / max(norms)
    xs = [X[:, i] / nc if nc > DEGENERATE_TOL else fallback for i, nc in enumerate(norms)]
    total = 0.0
    for Wi, x in zip(W.subspaces, xs):
        total += min(float(np.linalg.norm(x - Wi @ (Wi.T @ x))), 1.0) ** 2
    return xs, float(np.sqrt(total)), least_singular_values(np.column_stack(xs))[0]


@st.composite
def factor_matrices(draw):
    """d in 1..4 factor matrices of m_k in 1..7 rows and r in 1..5 columns,
    C-ordered, Fortran-ordered or strided views, with one column touched by
    a special: -0.0 entries, subnormal entries (a whole column of them when
    m_k = 1, whose squared norm underflows to 0), zeros, or entries whose
    squared norm overflows."""
    dims = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    r = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    special = draw(st.sampled_from([None, "-0.0", "subnormal", "zero", "huge"]))
    k = draw(st.integers(0, len(dims) - 1))
    i = draw(st.integers(0, r - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for m in dims:
        A = rng.standard_normal((2 * m, 2 * r))
        mats.append(A[::2, ::2] if layout == "strided" else A[:m, :r].copy(order=layout))
    col = mats[k][:, i]
    if special == "-0.0":
        col[rng.uniform(size=col.size) < 0.5] = -0.0
    elif special == "subnormal":
        col[::2] *= 1e-310
    elif special == "zero":
        col[:] = 0.0
    elif special == "huge":
        col *= 1e200
    return mats


def _outcome(normalize, mats):
    """The bytes of every mu and vector, or the error message."""
    try:
        decomp = normalize(mats)
    except ValueError as err:
        return str(err)
    return [(np.float64(t.mu).tobytes(), [v.tobytes() for v in t.vectors]) for t in decomp.terms]


@given(factor_matrices())
def test_normalize_decomposition_is_the_per_column_bytes(mats):
    expected = _outcome(reference_normalize, mats)
    assert _outcome(normalize_decomposition, mats) == expected
    if isinstance(expected, str):
        return
    # the complements of the unit columns, m_k = 1 (no columns) included
    for A in normalize_decomposition(mats).factor_matrices():
        Q, ref = orthonormal_complements(A), reference_complements(A)
        assert (Q.shape, Q.tobytes()) == (ref.shape, ref.tobytes())


def test_zero_columns_name_the_first_term_that_has_one():
    mats = [np.ones((3, 4)), np.ones((2, 4))]
    mats[1][:, 2] = 0.0
    mats[0][:, 3] = 0.0
    with pytest.raises(ValueError, match=r"^degenerate rank-one term: zero column 2$"):
        normalize_decomposition(mats)
    with pytest.raises(ValueError, match=r"^degenerate rank-one term: zero column 2$"):
        reference_normalize(mats)


def test_complements_keep_the_sign_rule_at_minus_zero():
    # sign(-0.0) = +1: the reflector of (-0.0, 1) sends it to -e_1
    A = np.array([[-0.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    assert orthonormal_complements(A).tobytes() == reference_complements(A).tobytes()


@st.composite
def subspace_tuples(draw):
    """r in 2..4 blocks of dims 1..3 with n <= N <= 12; some pull one column
    of the second block toward the first's, some are dependent outright."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    N = draw(st.integers(sum(dims), 12))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12, 1e-20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.standard_normal((N, n)) for n in dims]
    if pull:
        blocks[1][:, 0] = blocks[0][:, 0] + pull * blocks[1][:, 0]
    return SubspaceTuple(N, tuple(np.linalg.qr(B)[0] for B in blocks))


def _assert_certificate_is_the_reference(t):
    xs, distance, intersect = reference_certificate(t)
    try:
        cert = nearest_intersecting_tuple(t)
    except CertificateError as err:
        assert err.intersect_residual == intersect
        return
    assert [x.tobytes() for x in cert.witness_directions] == [x.tobytes() for x in xs]
    assert np.float64(cert.distance).tobytes() == np.float64(distance).tobytes()
    assert cert.diagnostics["intersect_residual"] == intersect


@given(subspace_tuples())
def test_certificate_norms_are_the_np_linalg_norm_bytes(t):
    _assert_certificate_is_the_reference(t)


@pytest.mark.parametrize("sequence", [paatero_sequence, desilva_lim_sequence])
def test_boundary_certificates_are_the_reference_bytes(sequence):
    for s in (1, 30, 60, 90):
        _assert_certificate_is_the_reference(cpd_tangent_tuple(sequence(3, s)))


def test_tangent_tuples_split_as_np_hsplit():
    rng = rng_for(160)
    for t in (cpd_tangent_tuple(random_cpd(rng, (4, 3, 2), 3)),
              waring_tangent_tuple(random_waring(rng, 3, 3, 2))):
        r = len(t.subspaces)
        assert [W.tobytes() for W in t.subspaces] == [
            W.tobytes() for W in np.hsplit(t.stacked(), r)
        ]


def _count_lifts(monkeypatch):
    calls = []
    real = segre._Compression.lift

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(segre._Compression, "lift", counted)
    return calls


def test_kappa_alone_never_lifts_and_two_reads_lift_once(monkeypatch):
    calls = _count_lifts(monkeypatch)
    decomp = paatero_sequence(0, 40)
    assert math.isfinite(cpd_condition_number(decomp).kappa)
    assert calls == []
    report = cpd_condition_number(decomp)
    first = report.least_vector
    assert report.least_vector is first
    assert len(calls) == 1
    assert report.to_json_dict()["least_vector"] == first.tolist()
    assert len(calls) == 1
    with pytest.raises(AttributeError, match="no attribute 'vector'"):
        report.vector


@pytest.mark.parametrize("dims, rank, path", [((6, 5, 4), 3, "compressed"),
                                              ((3, 3, 3), 3, "dense")])
def test_lifted_vector_is_the_eager_bytes(dims, rank, path):
    decomp = random_cpd(rng_for(161), dims, rank)
    tucker = segre._Compression(decomp)
    eager = tucker.lift(least_singular_triplet(tucker.core_matrix())[1])
    report = cpd_condition_number(decomp)
    assert report.path == path
    assert report.least_vector.tobytes() == eager.tobytes()
    # a report without a lift holds its vector from the start
    U = cpd_tangent_tuple(decomp)
    assert condition_number(U).least_vector.tobytes() == (
        least_singular_triplet(U.stacked())[1].tobytes()
    )


def test_values_only_report_keeps_no_compression(monkeypatch):
    made = []

    class Recorded(segre._Compression):
        def __init__(self, decomp):
            super().__init__(decomp)
            made.append(weakref.ref(self))

    monkeypatch.setattr(segre, "_Compression", Recorded)
    decomp = desilva_lim_sequence(0, 40)
    values = cpd_condition_number(decomp, vector=False)
    pending = cpd_condition_number(decomp)
    gc.collect()
    assert made[0]() is None
    assert values.least_vector is None
    # a report whose vector is not yet lifted keeps its compression until then
    assert made[1]() is not None
    pending.least_vector
    gc.collect()
    assert made[1]() is None
