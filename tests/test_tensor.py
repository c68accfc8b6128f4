"""Vectorization, rank-one terms, assembly, and the orthonormal complement."""

import math
from functools import reduce

import numpy as np
import pytest

from joincond.tensor import khatri_rao, orthonormal_complements
from joincond import (
    CPDecomposition,
    RankOneTerm,
    Shape,
    assemble_cpd,
    normalize_decomposition,
)
from conftest import kron, random_cpd, random_unit, rng_for


def test_shape_basics():
    s = Shape((3, 4, 2))
    assert s.order == 3
    assert s.ambient_dim == 24
    with pytest.raises(ValueError):
        Shape((3, 0))
    with pytest.raises(ValueError):
        Shape(())


def _kr(vectors):
    """The chained Kronecker product of vectors, as khatri_rao builds it."""
    return khatri_rao([v[:, None] for v in vectors])[:, 0]


def test_kron_basis_vectors():
    e1 = np.array([1.0, 0.0])
    out = _kr([e1, e1])
    assert out.shape == (4,)
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0, 0.0]))


def test_kron_small_explicit():
    out = _kr([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.allclose(out, [3.0, 4.0, 6.0, 8.0])


def test_kron_norm_multiplicative():
    rng = rng_for(10)
    for _ in range(20):
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        assert math.isclose(
            np.linalg.norm(_kr([u, v])),
            np.linalg.norm(u) * np.linalg.norm(v),
            rel_tol=1e-13,
        )


def test_kron_associative():
    rng = rng_for(11)
    u, v, w = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
    left = _kr([_kr([u, v]), w])
    right = _kr([u, _kr([v, w])])
    assert np.allclose(left, right, rtol=1e-15, atol=0)


@pytest.mark.parametrize("dims", [(5,), (3, 1, 4, 1), (6, 5, 4, 4)])
def test_khatri_rao_columns_are_chained_kron(dims):
    rng = rng_for(31)
    mats = [rng.standard_normal((m, 3)) for m in dims]
    out = khatri_rao(mats)
    assert out.shape == (math.prod(dims), 3)
    for j in range(3):
        assert np.array_equal(out[:, j], reduce(np.kron, [M[:, j] for M in mats]))


def test_khatri_rao_rejects_bad_factors():
    with pytest.raises(ValueError):
        khatri_rao([])
    with pytest.raises(ValueError):
        khatri_rao([np.ones((2, 3)), np.ones((2, 1))])


def test_term_tensors_match_per_term_kron():
    d = random_cpd(rng_for(32), (3, 4, 2, 2), 5)
    expected = np.column_stack([t.mu * reduce(np.kron, t.vectors) for t in d.terms])
    assert np.array_equal(d.term_tensors(), expected)


@pytest.mark.parametrize("rank", [6, 10])
def test_assemble_cpd_matches_term_by_term_sum(rank):
    # numpy sums up to 7 columns in order and more columns pairwise, so the
    # assembly is bitwise the term-by-term sum at the model's rank 6 and
    # within a few ulps of it above 7 terms.
    d = random_cpd(rng_for(33), (4, 3, 3, 2), rank)
    terms = d.term_tensors()
    expected = np.zeros(terms.shape[0])
    for j in range(rank):
        expected += terms[:, j]
    out = assemble_cpd(d).ravel()
    if rank <= 7:
        assert np.array_equal(out, expected)
    else:
        atol = rank * np.finfo(float).eps * np.abs(terms).sum(axis=1).max()
        assert np.allclose(out, expected, rtol=0.0, atol=atol)


def test_kron_empty_rejected():
    with pytest.raises(ValueError):
        _kr([])


def test_vectorization_linear_index_convention():
    # element (i1,...,id) lives at ((i1*m2 + i2)*m3 + ...)*md + id
    rng = rng_for(12)
    dims = (2, 3, 4)
    vs = [rng.standard_normal(m) for m in dims]
    flat = _kr(vs)
    nd = flat.reshape(dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                lin = (i * dims[1] + j) * dims[2] + k
                assert flat[lin] == nd[i, j, k]
                assert math.isclose(
                    nd[i, j, k], vs[0][i] * vs[1][j] * vs[2][k], rel_tol=1e-14
                )


def test_dense_tensor_roundtrip():
    d = random_cpd(rng_for(13), (2, 3), 2)
    t = assemble_cpd(d)
    assert t.shape == d.shape.dims
    assert np.array_equal(t.ravel(), d.term_tensors().sum(axis=1))


def test_rank_one_term_validation():
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        RankOneTerm(0.0, (v, v))
    with pytest.raises(ValueError):
        RankOneTerm(-1.0, (v, v))
    with pytest.raises(ValueError):
        RankOneTerm(1.0, (2.0 * v, v))
    term = RankOneTerm(2.5, (v, v))
    assert term.order == 2
    assert term.mode_dims() == (2, 2)


def test_assemble_single_term_basis():
    e1 = np.array([1.0, 0.0])
    d = CPDecomposition(Shape((2, 2, 2)), (RankOneTerm(1.0, (e1, e1, e1)),))
    t = assemble_cpd(d)
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.array_equal(t.ravel(), expect)


def test_assemble_linearity_in_terms():
    e1 = np.array([1.0, 0.0])
    one = CPDecomposition(Shape((2, 2)), (RankOneTerm(1.0, (e1, e1)),))
    two = CPDecomposition(
        Shape((2, 2)),
        (RankOneTerm(1.0, (e1, e1)), RankOneTerm(1.0, (e1, e1))),
    )
    assert np.allclose(assemble_cpd(two), 2.0 * assemble_cpd(one))


def test_assemble_matches_elementwise_oracle():
    rng = rng_for(14)
    d = random_cpd(rng, (3, 3, 3), 3)
    t = assemble_cpd(d)
    oracle = np.zeros((3, 3, 3))
    for term in d.terms:
        a, b, c = term.vectors
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    oracle[j, k, l] += term.mu * a[j] * b[k] * c[l]
    assert np.allclose(t, oracle, atol=1e-13)


def test_assemble_invariant_under_term_permutation():
    rng = rng_for(15)
    d = random_cpd(rng, (2, 3, 4), 3)
    flipped = CPDecomposition(d.shape, tuple(reversed(d.terms)))
    assert np.allclose(assemble_cpd(d), assemble_cpd(flipped), atol=1e-14)


def test_term_tensors_columns():
    rng = rng_for(16)
    d = random_cpd(rng, (2, 3), 2)
    cols = d.term_tensors()
    assert cols.shape == (6, 2)
    for i, term in enumerate(d.terms):
        assert np.allclose(cols[:, i], term.mu * kron(list(term.vectors)))


def test_normalize_decomposition_explicit():
    F1 = np.array([[2.0], [0.0]])
    F2 = np.array([[0.0], [3.0]])
    d = normalize_decomposition([F1, F2])
    assert d.rank == 1
    assert math.isclose(d.terms[0].mu, 6.0, rel_tol=1e-15)
    assert np.allclose(d.terms[0].vectors[0], [1.0, 0.0])
    assert np.allclose(d.terms[0].vectors[1], [0.0, 1.0])


def test_normalize_decomposition_unit_columns_passthrough():
    rng = rng_for(17)
    mats = []
    for m in (3, 4):
        M = rng.standard_normal((m, 2))
        M /= np.linalg.norm(M, axis=0, keepdims=True)
        mats.append(M)
    d = normalize_decomposition(mats)
    for term in d.terms:
        assert math.isclose(term.mu, 1.0, rel_tol=1e-12)


def test_normalize_roundtrip_against_outer_products():
    rng = rng_for(18)
    mats = [rng.standard_normal((m, 3)) for m in (4, 3, 2)]
    d = normalize_decomposition(mats)
    direct = np.zeros(24)
    for i in range(3):
        direct += kron([mats[0][:, i], mats[1][:, i], mats[2][:, i]])
    assembled = assemble_cpd(d).ravel()
    assert np.allclose(assembled, direct, rtol=1e-12, atol=1e-14)


def test_normalize_rejects_zero_column():
    F1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    F2 = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate rank-one term"):
        normalize_decomposition([F1, F2])


def _complement(v):
    return orthonormal_complements(v[:, None])[0]


def test_orthonormal_complement_e1():
    Q = _complement(np.array([1.0, 0.0, 0.0]))
    assert Q.shape == (3, 2)
    span = np.abs(Q[0, :]).max()
    assert span <= 1e-14
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-13)


def test_orthonormal_complement_properties():
    rng = rng_for(19)
    for m in range(2, 51):
        v = random_unit(rng, m)
        Q = _complement(v)
        assert Q.shape == (m, m - 1)
        assert np.abs(Q.T @ Q - np.eye(m - 1)).max() <= 1e-12
        assert np.abs(Q.T @ v).max() <= 1e-12


def test_orthonormal_complement_deterministic():
    v = np.array([0.6, 0.8])
    assert np.array_equal(_complement(v), _complement(v.copy()))


def test_orthonormal_complement_edge_cases():
    assert _complement(np.array([1.0])).shape == (1, 0)


def test_frobenius_norm_and_inner():
    rng = rng_for(20)
    assert np.linalg.norm(np.zeros((2, 2))) == 0.0
    d = random_cpd(rng, (3, 4), 1, mu_range=(5.0, 5.0))
    assert math.isclose(np.linalg.norm(assemble_cpd(d)), 5.0, rel_tol=1e-13)


def test_cpd_json_roundtrip():
    rng = rng_for(21)
    d = random_cpd(rng, (2, 3, 2), 2)
    j = d.to_json_dict()
    assert j["dims"] == [2, 3, 2]
    d2 = CPDecomposition.from_json_dict(j)
    assert d2.rank == 2
    assert np.array_equal(assemble_cpd(d2), assemble_cpd(d))


def test_cpd_shape_mismatch_rejected():
    e1 = np.array([1.0, 0.0])
    e1_3 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        CPDecomposition(Shape((2, 2)), (RankOneTerm(1.0, (e1, e1_3)),))
    with pytest.raises(ValueError):
        CPDecomposition(Shape((2, 2)), ())
