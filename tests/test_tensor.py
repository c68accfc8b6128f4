"""Vectorization, rank-one terms, assembly, and the orthonormal complement."""

import math
from functools import reduce

import numpy as np
import pytest

from joincond.tensor import khatri_rao, orthonormal_complements, tangent_matrix
from joincond import (
    CPDecomposition,
    RankOneTerm,
    assemble_cpd,
    normalize_decomposition,
)
from conftest import kron, random_cpd, random_unit, rng_for


def test_shape_basics():
    # dims, order and ambient dimension are read from the terms' vectors
    d = random_cpd(rng_for(11), (3, 4, 2), 2)
    assert (d.dims, d.order, d.ambient_dim) == ((3, 4, 2), 3, 24)
    with pytest.raises(ValueError):
        RankOneTerm(1.0, (np.array([1.0, 0.0, 0.0]), np.array([])))
    with pytest.raises(ValueError):
        RankOneTerm(1.0, ())


def _kr(vectors):
    """The chained Kronecker product of vectors, as khatri_rao builds it."""
    return khatri_rao([v[:, None] for v in vectors])[:, 0]


@pytest.mark.parametrize("dims", [(5,), (3, 1, 4, 1), (6, 5, 4, 4)])
def test_khatri_rao_columns_are_chained_kron(dims):
    rng = rng_for(31)
    mats = [rng.standard_normal((m, 3)) for m in dims]
    out = khatri_rao(mats)
    assert out.shape == (math.prod(dims), 3)
    for j in range(3):
        assert np.array_equal(out[:, j], reduce(np.kron, [M[:, j] for M in mats]))


@pytest.mark.parametrize("dims", [(5,), (3, 1, 4, 1), (6, 5, 4, 4)])
def test_tangent_matrix_columns_are_chained_kron(dims):
    # bitwise: every column is the left-to-right product np.kron forms,
    # term i's rank-one column first, then group k's with a_i^k replaced
    rng = rng_for(33)
    r = 3
    mats = [rng.standard_normal((m, r)) for m in dims]
    complements = [orthonormal_complements(A / np.linalg.norm(A, axis=0)) for A in mats]
    out = tangent_matrix(mats, complements)
    cols = []
    for i in range(r):
        vectors = [A[:, i] for A in mats]
        cols.append(reduce(np.kron, vectors))
        for k, Q in enumerate(complements):
            for q in Q[i].T:
                cols.append(reduce(np.kron, vectors[:k] + [q] + vectors[k + 1:]))
    assert np.array_equal(out, np.column_stack(cols))


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
    assembled = assemble_cpd(d)
    assert assembled.shape == d.dims
    out = assembled.ravel()
    if rank <= 7:
        assert np.array_equal(out, expected)
    else:
        atol = rank * np.finfo(float).eps * np.abs(terms).sum(axis=1).max()
        assert np.allclose(out, expected, rtol=0.0, atol=atol)


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


def test_assemble_invariant_under_term_permutation():
    rng = rng_for(15)
    d = random_cpd(rng, (2, 3, 4), 3)
    flipped = CPDecomposition(tuple(reversed(d.terms)))
    assert np.allclose(assemble_cpd(d), assemble_cpd(flipped), atol=1e-14)


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
    # and no factor matrix, a 3-D one, or matrices of zero columns
    for mats, match in [([], "at least one factor"), ([np.ones((2, 2, 2))], "2-dimensional"),
                        ([np.ones((2, 0)), np.ones((3, 0))], "at least one column")]:
        with pytest.raises(ValueError, match=match):
            normalize_decomposition(mats)


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


def test_cpd_json_roundtrip():
    rng = rng_for(21)
    d = random_cpd(rng, (2, 3, 2), 2)
    j = d.to_json_dict()
    assert j["dims"] == [2, 3, 2]
    d2 = CPDecomposition.from_json_dict(j)
    assert d2.rank == 2
    assert np.array_equal(assemble_cpd(d2), assemble_cpd(d))
    with pytest.raises(ValueError, match="declared dims"):
        CPDecomposition.from_json_dict({**j, "dims": [2, 2, 3]})


def test_cpd_shape_mismatch_rejected():
    e1 = np.array([1.0, 0.0])
    e1_3 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="do not match"):
        CPDecomposition((RankOneTerm(1.0, (e1, e1)), RankOneTerm(1.0, (e1, e1_3))))
    with pytest.raises(ValueError):
        CPDecomposition(())
