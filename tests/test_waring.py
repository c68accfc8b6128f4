"""Symmetric decompositions: Veronese tangent bases and condition numbers."""

import math

import numpy as np
import pytest

from joincond import (
    SymmetricRankOneTerm,
    WaringDecomposition,
    RankOneTerm,
    waring_condition_number,
    waring_tangent_tuple,
)
from joincond.tensor import orthonormal_complements
from conftest import (
    kron,
    random_orthonormal,
    random_unit,
    random_waring,
    rng_for,
    segre_tangent_basis,
    veronese_tangent_basis,
)


def test_term_validation():
    v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        SymmetricRankOneTerm(0.0, v, 3)
    with pytest.raises(ValueError):
        SymmetricRankOneTerm(1.0, 2.0 * v, 3)
    term = SymmetricRankOneTerm(-1.5, v, 3)  # signed weights are legal
    assert term.mu == -1.5


def test_decomposition_validation():
    v2 = np.array([1.0, 0.0])
    v3 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        WaringDecomposition(2, 3, (SymmetricRankOneTerm(1.0, v3, 3),))
    with pytest.raises(ValueError):
        WaringDecomposition(2, 3, (SymmetricRankOneTerm(1.0, v2, 2),))
    with pytest.raises(ValueError):
        WaringDecomposition(2, 3, ())


def test_tangent_basis_column_count_grid():
    rng = rng_for(81)
    for m in range(2, 6):
        for d in range(2, 5):
            term = SymmetricRankOneTerm(1.0, random_unit(rng, m), d)
            V = veronese_tangent_basis(term)
            assert V.shape == (m**d, m)


def test_tangent_basis_orthonormal_grid():
    rng = rng_for(82)
    for m in range(2, 6):
        for d in range(2, 5):
            term = SymmetricRankOneTerm(1.0, random_unit(rng, m), d)
            V = veronese_tangent_basis(term)
            assert np.abs(V.T @ V - np.eye(m)).max() <= 1e-12


def test_tangent_basis_first_column():
    rng = rng_for(83)
    a = random_unit(rng, 3)
    V = veronese_tangent_basis(SymmetricRankOneTerm(1.0, a, 3))
    assert np.allclose(V[:, 0], kron([a, a, a]), atol=1e-14)


def test_sym_block_scaling_requirement():
    # dividing the d-term symmetrized sum by d leaves columns of norm
    # 1/sqrt(d): the gramian is diag(1, (1/d) I).  Dividing by sqrt(d) is
    # what makes the basis orthonormal; this test documents the distinction.
    rng = rng_for(84)
    for m, d in ((2, 2), (3, 3), (4, 2)):
        a = random_unit(rng, m)
        Q = orthonormal_complements(a[:, None])[0]
        first = kron([a] * d)
        sym = np.zeros((m**d, m - 1))
        for k in range(d):
            factors = [a.reshape(-1, 1)] * d
            factors[k] = Q
            block = factors[0]
            for f in factors[1:]:
                block = np.kron(block, f)
            sym += block
        literal = np.hstack([first.reshape(-1, 1), sym / d])
        gram = literal.T @ literal
        expect = np.diag([1.0] + [1.0 / d] * (m - 1))
        assert np.allclose(gram, expect, atol=1e-12)
        fixed = np.hstack([first.reshape(-1, 1), sym / math.sqrt(d)])
        assert np.abs(fixed.T @ fixed - np.eye(m)).max() <= 1e-12
        term = SymmetricRankOneTerm(1.0, a, d)
        assert np.allclose(veronese_tangent_basis(term), fixed, atol=1e-13)


def test_tangent_basis_contains_finite_differences():
    rng = rng_for(85)
    h = 1e-6
    for _ in range(10):
        m, d = 4, 3
        a = random_unit(rng, m)
        term = SymmetricRankOneTerm(1.2, a, d)
        V = veronese_tangent_basis(term)
        dmu = float(rng.standard_normal())
        da = rng.standard_normal(m)

        def curve(t):
            return (1.2 + t * dmu) * kron([a + t * da] * d)

        fd = (curve(h) - curve(-h)) / (2.0 * h)
        residual = fd - V @ (V.T @ fd)
        assert np.linalg.norm(residual) / np.linalg.norm(fd) <= 1e-6


def test_rank_one_kappa_is_one():
    rng = rng_for(86)
    for _ in range(20):
        d = random_waring(rng, 4, 3, 1, signed=True)
        report = waring_condition_number(d)
        assert abs(report.kappa - 1.0) <= 1e-12
        assert report.n == 4 and report.N == 64


def test_odeco_kappa_is_one():
    rng = rng_for(87)
    for _ in range(20):
        m, order, r = 5, 3, 3
        basis = random_orthonormal(rng, m, r)
        terms = tuple(
            SymmetricRankOneTerm(
                float(rng.uniform(0.5, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0),
                basis[:, i],
                order,
            )
            for i in range(r)
        )
        d = WaringDecomposition(m, order, terms)
        assert abs(waring_condition_number(d).kappa - 1.0) <= 1e-12


def test_odeco_needs_order_three():
    # for matrices (d=2) the tangent spaces of distinct eigendirections
    # overlap, so orthogonality does not buy kappa = 1
    rng = rng_for(88)
    basis = random_orthonormal(rng, 3, 2)
    terms = tuple(SymmetricRankOneTerm(1.0, basis[:, i], 2) for i in range(2))
    d = WaringDecomposition(3, 2, terms)
    assert waring_condition_number(d).kappa > 1.0 + 1e-6


def test_two_term_kappa_matches_dense_oracle():
    rng = rng_for(89)
    for theta in (0.3, 0.8, 1.2):
        a = np.array([1.0, 0.0])
        b = np.array([math.cos(theta), math.sin(theta)])
        d = WaringDecomposition(
            2,
            3,
            (SymmetricRankOneTerm(1.0, a, 3), SymmetricRankOneTerm(1.0, b, 3)),
        )
        report = waring_condition_number(d)
        V = np.hstack([veronese_tangent_basis(t) for t in d.terms])
        evals = np.linalg.eigvalsh(V.T @ V)
        oracle = 1.0 / math.sqrt(max(evals[0], 1e-300))
        assert math.isclose(report.kappa, oracle, rel_tol=1e-12)


def test_scale_and_orthogonal_invariance():
    rng = rng_for(90)
    for _ in range(20):
        m, order = 4, 3
        d = random_waring(rng, m, order, 2, signed=True)
        Q = random_orthonormal(rng, m, m)
        betas = rng.uniform(1e-2, 1e2, size=2)
        moved = WaringDecomposition(
            m,
            order,
            tuple(
                SymmetricRankOneTerm(float(b) * t.mu, Q @ t.vector, order)
                for b, t in zip(betas, d.terms)
            ),
        )
        k1 = waring_condition_number(d).kappa
        k2 = waring_condition_number(moved).kappa
        assert math.isclose(k1, k2, rel_tol=1e-10)


def test_symmetric_tangent_narrower_than_cpd_tangent():
    # re-encoding a symmetric term as an asymmetric rank-one term widens the
    # tangent space from m to 1 - d + d*m columns
    rng = rng_for(92)
    m, order = 3, 3
    a = random_unit(rng, m)
    V = veronese_tangent_basis(SymmetricRankOneTerm(1.0, a, order))
    U = segre_tangent_basis(RankOneTerm(1.0, (a,) * order))
    assert V.shape[1] == m
    assert U.shape[1] == 1 - order + order * m
    assert V.shape[1] < U.shape[1]


def test_json_roundtrip():
    rng = rng_for(93)
    d = random_waring(rng, 3, 4, 2, signed=True)
    j = d.to_json_dict()
    assert j["m"] == 3 and j["d"] == 4
    d2 = WaringDecomposition.from_json_dict(j)
    assert (d2.m, d2.d) == (d.m, d.d)
    for a, b in zip(d2.terms, d.terms):
        assert a.mu == b.mu
        assert np.array_equal(a.vector, b.vector)


def test_kappa_one_norm_check():
    rng = rng_for(94)
    d = random_waring(rng, 4, 3, 1)
    t = waring_tangent_tuple(d)
    assert t.n == 4
    term = d.terms[0]
    assert math.isclose(
        np.linalg.norm(term.mu * kron([term.vector] * 3)), abs(term.mu), rel_tol=1e-12
    )
