"""The Tucker-compressed CP engine against the dense stacked-basis reference.

cpd_condition_number and norm_balanced_condition_number decompose one block
diagonal matrix on prod_k min(m_k, r) + sum_k prod_(l != k) min(m_l, r) rows
instead of the N = prod_k m_k rows of the stacked tangent bases, the latter
with its columns scaled; the references here are
condition_number(cpd_tangent_tuple(d)) and conftest's
dense_norm_balanced_sigma, the SVD of the stacked per-term norm-balanced
matrices built from np.kron alone.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joincond import (
    condition_number,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    norm_balanced_condition_number,
    normalize_decomposition,
    paatero_sequence,
)
from joincond.condition import RANK_TOL_FACTOR
from conftest import count_svd_calls, dense_norm_balanced_sigma, random_cpd, rng_for

# Errors of the compressed path stay near eps * sigma_1; this is the bound
# the reduction is held to.
SIGMA_TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _rank_tol(sigma_1):
    return RANK_TOL_FACTOR * max(1.0, sigma_1)


def _check_against_dense(decomp):
    """The checks every property test applies to one decomposition."""
    U = cpd_tangent_tuple(decomp).stacked()
    dense = condition_number(cpd_tangent_tuple(decomp))
    report = cpd_condition_number(decomp)
    scale = max(1.0, dense.sigma_1)
    assert (report.n, report.N) == (dense.n, dense.N)
    assert abs(report.sigma_min - dense.sigma_min) <= SIGMA_TOL * scale
    assert abs(report.sigma_1 - dense.sigma_1) <= SIGMA_TOL * scale
    tol = _rank_tol(dense.sigma_1)
    if dense.n > dense.N or not tol / 10 <= dense.sigma_min <= 10 * tol:
        assert math.isinf(report.kappa) == math.isinf(dense.kappa)
    assert abs(np.linalg.norm(report.least_vector) - 1.0) <= SIGMA_TOL
    assert abs(np.linalg.norm(U @ report.least_vector) - report.sigma_min) <= SIGMA_TOL * scale

    sigma_n, sigma_1, n, N = dense_norm_balanced_sigma(decomp)
    kappa = norm_balanced_condition_number(decomp)
    if math.isfinite(kappa):
        assert abs(1.0 / kappa - sigma_n) <= SIGMA_TOL * max(1.0, sigma_1)
    tol = _rank_tol(sigma_1)
    if n > N or not tol / 10 <= sigma_n <= 10 * tol:
        assert math.isinf(kappa) == (n > N or sigma_n <= tol)


@st.composite
def cp_decompositions(draw):
    """d in {2, 3, 4}, m_k in 1..9, r in 1..6, standard normal factors;
    some draws pull the second column of every factor toward the first so
    that sigma_n falls toward and through the rank threshold."""
    d = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    r = draw(st.integers(1, 6))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.standard_normal((m, r)) for m in dims]
    if pull and r > 1:
        for A in mats:
            A[:, 1] = A[:, 0] + pull * A[:, 1]
    return normalize_decomposition(mats)


@PROPERTY_SETTINGS
@given(cp_decompositions())
def test_compressed_matches_dense_on_random_decompositions(decomp):
    _check_against_dense(decomp)


@PROPERTY_SETTINGS
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
    # (20,20,20) r=10: core 10^3 rows plus three out-of-span blocks of 10^2
    d = random_cpd(rng_for(151), (20, 20, 20), 10)
    # (1300, 310) enters the engine, whose one SVD runs on its R factor
    shapes, qr_shapes = [], []
    calls = count_svd_calls(monkeypatch, shapes=shapes, qr_shapes=qr_shapes)
    report = cpd_condition_number(d)
    assert report.path == "compressed"
    assert math.isfinite(report.kappa)
    assert calls == [True]
    assert qr_shapes == [(20, 10)] * 3 + [(1300, 310)]
    assert shapes == [(310, 310)]
    shapes.clear()
    assert math.isfinite(norm_balanced_condition_number(d))
    assert shapes == [(1300, 310)]
    assert report.least_vector.shape == (report.n,)


def test_norm_balanced_wide_compressed_matrix_runs_no_svd(monkeypatch):
    # (9,9) r=4: n = 68 <= N = 81, but the compressed matrix is 24 x 36, so
    # it has a kernel and kappa is infinite from the shape alone
    wide = random_cpd(rng_for(153), (9, 9), 4)
    sigma_n, sigma_1, n, N = dense_norm_balanced_sigma(wide)
    assert (n, N) == (68, 81)
    assert sigma_n <= _rank_tol(sigma_1)
    tall = random_cpd(rng_for(154), (6, 5, 4, 4), 6)
    calls = count_svd_calls(monkeypatch)
    assert norm_balanced_condition_number(wide) == math.inf
    assert calls == []
    assert math.isfinite(norm_balanced_condition_number(tall))
    assert calls == [False]


def _householder_complement(v):
    """The single-vector complement formula, kept as the stack's reference."""
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0 else -1.0
    H = np.eye(v.size) - (2.0 / (w @ w)) * np.outer(w, w)
    return H[:, 1:]


def test_tangent_tuple_is_bitwise_per_term_kron():
    rng = rng_for(152)
    for dims, r in (((6, 5, 4, 4), 6), ((3, 1, 7), 2), ((1, 4), 3), ((5,), 2)):
        d = random_cpd(rng, dims, r)
        for term, W in zip(d.terms, cpd_tangent_tuple(d).subspaces):
            cols = [v[:, None] for v in term.vectors]
            blocks = [reduce(np.kron, cols)]
            for k, v in enumerate(term.vectors):
                if v.size > 1:
                    factors = cols[:k] + [_householder_complement(v)] + cols[k + 1:]
                    blocks.append(reduce(np.kron, factors))
            assert np.array_equal(W, np.hstack(blocks))
