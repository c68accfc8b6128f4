"""The Tucker-compressed CP engine against the dense stacked-basis reference.

cpd_condition_number and norm_balanced_condition_number decompose the blocks
of one block diagonal matrix, a core on prod_k min(m_k, r) rows and one
block on prod_(l != k) min(m_l, r) rows per compressed mode k, instead of
the N = prod_k m_k rows of the stacked tangent bases, the latter with their
columns scaled; the references here are
condition_number(cpd_tangent_tuple(d)) and conftest's
dense_norm_balanced_sigma, the SVD of the stacked per-term norm-balanced
matrices built from np.kron alone.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from joincond import (
    condition_number,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    norm_balanced_condition_number,
    paatero_sequence,
)
from joincond.condition import (
    RANK_TOL_FACTOR,
    core_shape,
    is_defective,
    kappa_from_singular_values,
    least_singular_values,
)
from joincond.segre import _Compression
from conftest import (
    SIGMA_TOL,
    count_svd_calls,
    cp_decompositions,
    dense_norm_balanced_sigma,
    near_threshold,
    random_cpd,
    rng_for,
)


def _check_against_dense(decomp):
    """The checks every property test applies to one decomposition."""
    U = cpd_tangent_tuple(decomp).stacked()
    dense = condition_number(cpd_tangent_tuple(decomp))
    report = cpd_condition_number(decomp)
    scale = max(1.0, dense.sigma_1)
    assert (report.n, report.N) == (dense.n, dense.N)
    assert abs(report.sigma_min - dense.sigma_min) <= SIGMA_TOL * scale
    assert abs(report.sigma_1 - dense.sigma_1) <= SIGMA_TOL * scale
    if dense.n > dense.N or not near_threshold(dense.sigma_min, dense.sigma_1):
        assert math.isinf(report.kappa) == math.isinf(dense.kappa)
    assert abs(np.linalg.norm(report.least_vector) - 1.0) <= SIGMA_TOL
    assert abs(np.linalg.norm(U @ report.least_vector) - report.sigma_min) <= SIGMA_TOL * scale

    # the norm-balanced engine against the per-term definition [B_1 ... B_r]
    sigma_n, sigma_1, _, _ = dense_norm_balanced_sigma(decomp)
    kappa = norm_balanced_condition_number(decomp)
    assert abs(1.0 / kappa - sigma_n) <= SIGMA_TOL * max(1.0, sigma_1)
    if not near_threshold(sigma_n, sigma_1):
        assert math.isinf(kappa) == math.isinf(kappa_from_singular_values(sigma_n, sigma_1))


@given(cp_decompositions())
@example(random_cpd(rng_for(77), (2, 2, 2), 3))  # n = 12 > N = 8
def test_compressed_matches_dense_on_random_decompositions(decomp):
    _check_against_dense(decomp)


@given(cp_decompositions())
@example(random_cpd(rng_for(77), (2, 2, 2), 3))  # n = 12 > N = 8
def test_values_only_report_matches_default(decomp):
    # vector=False, the model experiment's call: one values-only SVD of the
    # same core, the same rank rule, and no least vector
    report = cpd_condition_number(decomp)
    values = cpd_condition_number(decomp, vector=False)
    assert values.least_vector is None
    assert (values.path, values.n, values.N) == (report.path, report.n, report.N)
    scale = max(1.0, report.sigma_1)
    assert abs(values.sigma_min - report.sigma_min) <= SIGMA_TOL * scale
    assert abs(values.sigma_1 - report.sigma_1) <= SIGMA_TOL * scale
    if report.n > report.N or not near_threshold(report.sigma_min, report.sigma_1):
        assert math.isinf(values.kappa) == math.isinf(report.kappa)
    core = _Compression(decomp).core_matrix()
    assert values.kappa == kappa_from_singular_values(*least_singular_values(core))


@given(
    sequence=st.sampled_from([paatero_sequence, desilva_lim_sequence]),
    seed=st.integers(0, 2**63 - 1),
    s=st.integers(1, 90),
)
def test_compressed_matches_dense_on_divergent_sequences(sequence, seed, s):
    _check_against_dense(sequence(seed, s))


@pytest.mark.parametrize("sequence", [paatero_sequence, desilva_lim_sequence])
def test_compressed_matches_dense_along_whole_sequence(sequence):
    # s = 1..90 crosses the rank threshold for both families
    for s in range(1, 91):
        decomp = sequence(42, s)
        assert cpd_condition_number(decomp).path == "compressed"
        _check_against_dense(decomp)


def test_uncompressed_report_is_bitwise_dense():
    # the model grid's shape: no m_k exceeds r, so nothing is compressed
    d = random_cpd(rng_for(150), (6, 5, 4, 4), 6)
    report = cpd_condition_number(d)
    dense = condition_number(cpd_tangent_tuple(d))
    assert report.path == dense.path == "dense"
    assert report.sigma_min == dense.sigma_min
    assert report.sigma_1 == dense.sigma_1
    assert report.kappa == dense.kappa
    assert np.array_equal(report.least_vector, dense.least_vector)
    assert (report.n, report.N, report.well_posed) == (dense.n, dense.N, dense.well_posed)
    # the norm-balanced engine's matrix is then the stacked basis with its
    # columns scaled by D: s_i * sqrt(d) on term i's rank-one column, s_i on
    # the others, s_i = mu_i^(1 - 1/d)
    tangent = cpd_tangent_tuple(d)
    D = []
    for term, W in zip(d.terms, tangent.subspaces):
        s_i = term.mu ** (1.0 - 1.0 / term.order)
        D += [s_i * math.sqrt(term.order)] + [s_i] * (W.shape[1] - 1)
    s = np.linalg.svd(tangent.stacked() * np.array(D), compute_uv=False)
    kappa = norm_balanced_condition_number(d)
    assert kappa == 1.0 / float(s[-1])
    # and agrees with the per-term definition [B_1 ... B_r]
    sigma_n, sigma_1, n, N = dense_norm_balanced_sigma(d)
    assert abs(1.0 / kappa - sigma_n) <= SIGMA_TOL * max(1.0, sigma_1)


def test_compressed_svd_runs_on_reduced_rows(monkeypatch):
    # (20,20,20) r=10: a (1000, 280) core and three out-of-span blocks of
    # 100 x 10.  cond-cpd takes one SVD, of the core's R factor; the
    # norm-balanced engine one of the scaled core and one batched SVD of the
    # scaled (3, 100, 10) stack of out blocks.
    d = random_cpd(rng_for(151), (20, 20, 20), 10)
    shapes, qr_shapes = [], []
    calls = count_svd_calls(monkeypatch, shapes=shapes, qr_shapes=qr_shapes)
    report = cpd_condition_number(d)
    assert report.path == "compressed"
    assert math.isfinite(report.kappa)
    assert calls == [True]
    assert qr_shapes == [(20, 10)] * 3 + [(1000, 280)]
    assert shapes == [(280, 280)]
    shapes.clear()
    assert math.isfinite(norm_balanced_condition_number(d))
    assert shapes == [(1000, 280), (3, 100, 10)]
    assert report.least_vector.shape == (report.n,)


def test_norm_balanced_wide_compressed_matrix_runs_no_svd(monkeypatch):
    # (9,9) r=4: n = 68 <= N = 81, but the compressed core is 16 x 28, so
    # it has a kernel and kappa is infinite from the shape alone
    wide = random_cpd(rng_for(153), (9, 9), 4)
    sigma_n, sigma_1, n, N = dense_norm_balanced_sigma(wide)
    assert (n, N) == (68, 81)
    assert sigma_n <= RANK_TOL_FACTOR * sigma_1
    tall = random_cpd(rng_for(154), (6, 5, 4, 4), 6)
    calls = count_svd_calls(monkeypatch)
    assert norm_balanced_condition_number(wide) == math.inf
    assert calls == []
    assert math.isfinite(norm_balanced_condition_number(tall))
    assert calls == [False]


@given(cp_decompositions())
def test_out_blocks_never_attain_cp_sigma(decomp):
    # why cpd_condition_number decomposes the core alone: every singular
    # value of every K_k lies between the core's sigma_n and sigma_1
    tucker = _Compression(decomp)
    if not tucker.modes or is_defective(decomp.groups, decomp.rank):
        return
    report = cpd_condition_number(decomp)
    s = np.linalg.svd(tucker.out_stack(np.ones(decomp.rank)), compute_uv=False)
    scale = max(1.0, report.sigma_1)
    assert report.sigma_min <= s[:, -1].min() + SIGMA_TOL * scale
    assert s[:, 0].max() <= report.sigma_1 + SIGMA_TOL * scale


@given(cp_decompositions())
def test_core_shape_is_the_shape_of_the_decomposed_core(decomp):
    # the shape condition.is_defective judges is the matrix that
    # cpd_condition_number decomposes, compressed or not
    rows, width = core_shape(decomp.groups, decomp.rank)
    assert _Compression(decomp).core_matrix().shape == (rows, decomp.rank * width)


def test_norm_balanced_sigma_n_in_out_block():
    # r = 1: the core is the 1 x 1 scaled rank-one column, s * sqrt(3), and
    # sigma_n = s comes from the out blocks, s = mu^(2/3)
    d = random_cpd(rng_for(165), (4, 3, 2), 1)
    s = d.terms[0].mu ** (2.0 / 3.0)
    sigma_n, sigma_1, n, N = dense_norm_balanced_sigma(d)
    assert abs(sigma_n - s) <= SIGMA_TOL * max(1.0, sigma_1)
    assert abs(sigma_1 - s * math.sqrt(3.0)) <= SIGMA_TOL * max(1.0, sigma_1)
    kappa = norm_balanced_condition_number(d)
    assert abs(1.0 / kappa - sigma_n) <= SIGMA_TOL * max(1.0, sigma_1)


def test_out_stack_svd_nonconvergence_retries_on_transpose(monkeypatch):
    # test_norm_balanced_sigma_n_in_out_block's input, whose sigma_n comes
    # from the (3, 1, 1) stack of K_k:
    # when the batched SVD fails to converge, the transposed stack is tried
    # instead of the LinAlgError escaping
    d = random_cpd(rng_for(165), (4, 3, 2), 1)
    expected = norm_balanced_condition_number(d)
    real_svd = np.linalg.svd
    shapes = []

    def svd(M, *args, **kwargs):
        shapes.append(np.shape(M))
        if len(shapes) == 2:  # the core's SVD comes first
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert norm_balanced_condition_number(d) == expected
    assert shapes == [(1, 1), (3, 1, 1), (3, 1, 1)]


def test_wide_out_blocks_give_infinite_kappa(monkeypatch):
    # (20,2,2) r=5: each K_k is 4 x 5 (prod_j min(m_j, r) = 20 < r^2), so U
    # has a kernel; a wide K_k comes with a wide core (20 x 35)
    d = random_cpd(rng_for(166), (20, 2, 2), 5)
    tucker = _Compression(d)
    assert tucker.out_stack(np.ones(5)).shape == (1, 4, 5)
    assert (tucker.rows, 5 * tucker.width) == (20, 35)
    report = cpd_condition_number(d)
    assert math.isinf(report.kappa)
    assert report.sigma_min == 0.0
    assert abs(np.linalg.norm(report.least_vector) - 1.0) <= SIGMA_TOL
    U = cpd_tangent_tuple(d).stacked()
    assert np.linalg.norm(U @ report.least_vector) <= SIGMA_TOL
    calls = count_svd_calls(monkeypatch)
    assert norm_balanced_condition_number(d) == math.inf
    assert calls == []


@given(cp_decompositions().filter(lambda d: d.order >= 2 and max(d.dims) > d.rank))
def test_lifted_vector_is_zero_on_every_complement_column(decomp):
    # compressed inputs, d = 2..4: in each term's mode-k block the last
    # m_k - r columns are P_k^perp, and the lift puts exact zeros there
    r = decomp.rank
    report = cpd_condition_number(decomp)
    assert report.path == "compressed"
    v = report.least_vector
    outside = np.zeros((r, report.n // r), dtype=bool)
    at = 1
    for m in decomp.dims:
        at += m - 1
        if m > r:
            outside[:, at - (m - r):at] = True
    assert np.all(v[outside.ravel()] == 0.0)
    assert abs(np.linalg.norm(v) - 1.0) <= SIGMA_TOL
    U = cpd_tangent_tuple(decomp).stacked()
    scale = max(1.0, report.sigma_1)
    assert abs(np.linalg.norm(U @ v) - report.sigma_min) <= SIGMA_TOL * scale


def _householder_complement(v):
    """The single-vector complement formula, kept as the stack's reference."""
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0 else -1.0
    H = np.eye(v.size) - (2.0 / (w @ w)) * np.outer(w, w)
    return H[:, 1:]


def _dense_complements(decomp):
    """Per mode, term i's complement basis of cpd_tangent_tuple: the
    single-vector formula for m_k <= r, else [P_k Q_c,i | P_k^perp] from
    the complete QR of A_k, Q_c,i the formula's for b_i = P_k^T a_i."""
    r = decomp.rank
    per_mode = []
    for A in decomp.factor_matrices():
        if A.shape[0] <= r:
            per_mode.append([_householder_complement(a) for a in A.T])
            continue
        Q = np.linalg.qr(A, mode="complete")[0]
        P = Q[:, :r]
        B = P.T @ A
        per_mode.append([np.hstack([P @ _householder_complement(b), Q[:, r:]]) for b in B.T])
    return per_mode


def test_tangent_tuple_is_bitwise_per_term_kron():
    rng = rng_for(152)
    for dims, r in (((6, 5, 4, 4), 6), ((3, 1, 7), 2), ((1, 4), 3), ((5,), 2), ((9, 7, 3), 4)):
        d = random_cpd(rng, dims, r)
        complements = _dense_complements(d)
        for i, (term, W) in enumerate(zip(d.terms, cpd_tangent_tuple(d).subspaces)):
            cols = [v[:, None] for v in term.vectors]
            blocks = [reduce(np.kron, cols)]
            for k, v in enumerate(term.vectors):
                if v.size > 1:
                    factors = cols[:k] + [complements[k][i]] + cols[k + 1:]
                    blocks.append(reduce(np.kron, factors))
            assert np.array_equal(W, np.hstack(blocks))
