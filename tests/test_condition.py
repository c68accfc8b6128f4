"""Generic condition-number engine: kernel accuracy, report semantics and
the invariance properties."""

import math

import numpy as np
import pytest

from joincond import (
    ConditionReport,
    SubspaceTuple,
    condition_number,
    cpd_condition_number,
    cpd_tangent_tuple,
    paatero_sequence,
)
from joincond.condition import least_singular_triplet
from conftest import count_svd_calls, random_cpd, random_orthonormal, rng_for

# Frozen closed-form values for two lines at 45 degrees: sigma = sqrt(2)*sin(pi/8).
SIGMA_45 = 0.5411961001461971
KAPPA_45 = 1.8477590650225735


def _tuple_of(*cols):
    N = cols[0].shape[0]
    return SubspaceTuple(N, tuple(c.reshape(N, -1) for c in cols))


def test_kernel_identity_and_diag():
    sigma, v, _ = least_singular_triplet(np.eye(3))
    assert math.isclose(sigma, 1.0, rel_tol=1e-15)
    assert math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12)
    sigma, v, _ = least_singular_triplet(np.diag([3.0, 2.0, 1.0]))
    assert math.isclose(sigma, 1.0, rel_tol=1e-15)
    assert np.allclose(np.abs(v), [0.0, 0.0, 1.0], atol=1e-14)


def test_kernel_matches_eigensolver_oracle():
    rng = rng_for(30)
    for _ in range(50):
        M = rng.standard_normal((8, 5))
        sigma, v, _ = least_singular_triplet(M)
        evals = np.linalg.eigvalsh(M.T @ M)
        assert math.isclose(sigma, math.sqrt(max(evals[0], 0.0)), rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12)
        assert abs(np.linalg.norm(M @ v) - sigma) <= 1e-10 * max(1.0, np.linalg.norm(M, 2))


def test_kernel_wide_matrix_null_vector():
    rng = rng_for(31)
    M = rng.standard_normal((3, 5))
    sigma, v, _ = least_singular_triplet(M)
    assert sigma == 0.0
    assert math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12)
    assert np.linalg.norm(M @ v) <= 1e-10 * np.linalg.norm(M, 2)


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        least_singular_triplet(np.zeros(3))
    with pytest.raises(ValueError):
        least_singular_triplet(np.array([[1.0, np.nan]]))


def test_orthonormal_blocks_give_kappa_one():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    report = condition_number(_tuple_of(e1, e2))
    assert math.isclose(report.sigma_min, 1.0, rel_tol=1e-14)
    assert math.isclose(report.kappa, 1.0, rel_tol=1e-14)
    assert report.well_posed
    assert report.n == 2 and report.N == 2


def test_frozen_two_line_values():
    e1 = np.array([1.0, 0.0])
    mid = np.array([1.0, 1.0]) / math.sqrt(2.0)
    report = condition_number(_tuple_of(e1, mid))
    assert abs(report.sigma_min - SIGMA_45) <= 1e-12
    assert abs(report.kappa - KAPPA_45) <= 1e-12
    # cross-check with the 2x2 eigendecomposition of U^T U = [[1, c], [c, 1]]
    c = float(e1 @ mid)
    assert math.isclose(report.sigma_min, math.sqrt(1.0 - c), rel_tol=1e-13)


def test_dimension_shortfall_gives_infinity():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    report = condition_number(_tuple_of(e1, e2, e1))
    assert report.n == 3 and report.N == 2
    assert report.sigma_min == 0.0
    assert math.isinf(report.kappa)
    assert not report.well_posed


def test_rank_deficiency_detected():
    e1 = np.array([1.0, 0.0, 0.0])
    report = condition_number(_tuple_of(e1, e1))
    assert not report.well_posed
    assert math.isinf(report.kappa)


def test_least_vector_attains_sigma():
    rng = rng_for(32)
    for _ in range(25):
        t = SubspaceTuple(
            7, (random_orthonormal(rng, 7, 2), random_orthonormal(rng, 7, 3))
        )
        report = condition_number(t)
        U = t.stacked()
        assert math.isclose(np.linalg.norm(report.least_vector), 1.0, rel_tol=1e-12)
        attained = np.linalg.norm(U @ report.least_vector)
        assert abs(attained - report.sigma_min) <= 1e-10
        if report.well_posed:
            assert math.isclose(report.kappa * report.sigma_min, 1.0, rel_tol=1e-12)


def test_courant_fisher_sampling_bound():
    rng = rng_for(33)
    t = SubspaceTuple(
        6, (random_orthonormal(rng, 6, 2), random_orthonormal(rng, 6, 2))
    )
    report = condition_number(t)
    U = t.stacked()
    for _ in range(1000):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        assert np.linalg.norm(U @ x) >= report.sigma_min - 1e-12


def test_left_orthogonal_invariance():
    rng = rng_for(34)
    for _ in range(20):
        blocks = (random_orthonormal(rng, 6, 2), random_orthonormal(rng, 6, 3))
        t = SubspaceTuple(6, blocks)
        Q = random_orthonormal(rng, 6, 6)
        rotated = SubspaceTuple(6, tuple(Q @ B for B in blocks))
        k1 = condition_number(t).kappa
        k2 = condition_number(rotated).kappa
        assert math.isclose(k1, k2, rel_tol=1e-10)


def test_block_permutation_invariance():
    rng = rng_for(35)
    blocks = (random_orthonormal(rng, 5, 1), random_orthonormal(rng, 5, 2))
    s1 = condition_number(SubspaceTuple(5, blocks)).sigma_min
    s2 = condition_number(SubspaceTuple(5, blocks[::-1])).sigma_min
    assert math.isclose(s1, s2, rel_tol=1e-12)


def test_duplicated_column_degrades_to_zero():
    rng = rng_for(36)
    B = random_orthonormal(rng, 5, 2)
    t = SubspaceTuple(5, (B, B[:, :1]))
    report = condition_number(t)
    assert report.sigma_min <= 1e-14
    assert not report.well_posed


def test_tangent_tuple_validation():
    bad = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError, match="invalid tangent basis"):
        SubspaceTuple(2, (bad,))
    with pytest.raises(ValueError):
        SubspaceTuple(2, ())


def test_svd_nonconvergence_retries_on_transpose():
    # OpenBLAS's gesdd fails to converge on this benign 60 x 30 stacked basis.
    d = paatero_sequence(4913539079944952781, 10)
    U = cpd_tangent_tuple(d).stacked()
    expected = np.linalg.svd(U, compute_uv=False)[-1]
    report = cpd_condition_number(d)
    assert math.isclose(report.sigma_min, expected, rel_tol=1e-12)
    assert math.isclose(
        np.linalg.norm(U @ report.least_vector), expected, rel_tol=1e-10
    )


@pytest.mark.parametrize("shape", [(7, 3), (3, 5), (200, 64)])
def test_svd_retry_path_matches_direct(monkeypatch, shape):
    M = rng_for(38).standard_normal(shape)
    sigma, _, _ = least_singular_triplet(M)
    calls = count_svd_calls(monkeypatch, fail_first=True)
    sigma2, v2, _ = least_singular_triplet(M)
    assert len(calls) == 2
    assert math.isclose(sigma2, sigma, rel_tol=1e-12, abs_tol=1e-14)
    assert math.isclose(np.linalg.norm(v2), 1.0, rel_tol=1e-12)
    assert math.isclose(np.linalg.norm(M @ v2), sigma, rel_tol=1e-10, abs_tol=1e-13)


@pytest.mark.parametrize(
    "source, reduced",
    [("tangent", True), ("random_tall", True), ("below_rule", False)],
)
def test_r_factor_svd_is_bitwise_direct_svd(monkeypatch, source, reduced):
    # N >= 2n lies above gesdd's own QR crossover (11n/6), so the SVD of R
    # repeats the arithmetic gesdd does on M; (480, 96) is the model grid's
    # stacked tangent matrix at (6, 5, 4, 4) r=6.
    rng = rng_for(39)
    if source == "tangent":
        M = cpd_tangent_tuple(random_cpd(rng, (6, 5, 4, 4), 6)).stacked()
        assert M.shape == (480, 96)
    elif source == "random_tall":
        M = rng.standard_normal((2000, 120))
    else:
        M = rng.standard_normal((45, 27))
    n = M.shape[1]
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    if reduced:
        _, s_r, vt_r = np.linalg.svd(np.linalg.qr(M, mode="r"), full_matrices=False)
        assert np.array_equal(s_r, s)
        assert np.array_equal(vt_r, vt)
    qr_shapes = []
    count_svd_calls(monkeypatch, qr_shapes=qr_shapes)
    sigma, v, sigma_1 = least_singular_triplet(M)
    assert qr_shapes == ([M.shape] if reduced else [])
    assert sigma == s[n - 1]
    assert sigma_1 == s[0]
    assert np.array_equal(v, vt[n - 1])


def test_report_json_serialization():
    finite = ConditionReport(
        sigma_min=0.5, kappa=2.0, least_vector=np.array([0.6, 0.8]), n=2, N=4, sigma_1=1.5
    )
    j = finite.to_json_dict()
    assert j["kappa"] == 2.0
    assert j["well_posed"] is True
    assert j["least_vector"] == [0.6, 0.8]
    assert (j["sigma_1"], j["path"]) == (1.5, "dense")
    infinite = ConditionReport(
        sigma_min=0.0, kappa=math.inf, least_vector=np.array([1.0]), n=3, N=2, sigma_1=1.0
    )
    assert infinite.to_json_dict()["kappa"] == "inf"
    # well_posed is derived from kappa, not stored
    assert infinite.to_json_dict()["well_posed"] is infinite.well_posed is False


def test_report_carries_sigma_1_and_path():
    # every engine computes sigma_1, so a report cannot leave it out
    with pytest.raises(TypeError, match="sigma_1"):
        ConditionReport(sigma_min=0.5, kappa=2.0, least_vector=np.array([1.0]), n=1, N=2)
    t = SubspaceTuple(
        7, (random_orthonormal(rng_for(36), 7, 2), random_orthonormal(rng_for(37), 7, 3))
    )
    report = condition_number(t)
    j = report.to_json_dict()
    assert j["path"] == report.path == "dense"
    assert j["sigma_1"] == report.sigma_1
    assert math.isclose(report.sigma_1, np.linalg.svd(t.stacked(), compute_uv=False)[0], rel_tol=1e-14)
