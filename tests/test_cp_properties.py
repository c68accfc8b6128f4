"""The paper's invariants of the CP condition number and of the norm-balanced
condition number, as properties over generated decompositions.

Generated inputs come from conftest.cp_decompositions, some with sigma_n
toward and through the rank threshold.  Values are compared to
1e-12 * max(1, sigma_1), and finite/infinite verdicts only away from the
threshold.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from joincond import (
    CPDecomposition,
    RankOneTerm,
    assemble_cpd,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    distance_to_illposed,
    is_weak_3_orthogonal,
    nearest_intersecting_tuple,
    norm_balanced_condition_number,
    normalize_decomposition,
    paatero_sequence,
)
from joincond.grassmann import CERTIFICATE_TOL
from conftest import (
    CONE_SLACK,
    SIGMA_TOL,
    cone_bound,
    cp_decompositions,
    dense_norm_balanced_sigma,
    near_threshold,
    random_orthonormal,
)


def _moved(decomp, maps=None, order=None, scales=None):
    """The decomposition with maps[k] applied to every mode-k vector, the
    terms in the given order and mu_i scaled by scales[i]."""
    r = decomp.rank
    maps = [np.eye(m) for m in decomp.dims] if maps is None else maps
    order = range(r) if order is None else order
    scales = np.ones(r) if scales is None else scales
    terms = tuple(
        RankOneTerm(
            float(scales[i]) * decomp.terms[i].mu,
            tuple(Q @ v for Q, v in zip(maps, decomp.terms[i].vectors)),
        )
        for i in order
    )
    return CPDecomposition(terms)


def _balanced_sigma(decomp):
    """1 / norm_balanced_condition_number, 0 where it is infinite."""
    return 1.0 / norm_balanced_condition_number(decomp)


@given(cp_decompositions(), st.integers(0, 2**32 - 1))
def test_invariant_under_orthogonal_maps_and_term_permutation(decomp, seed):
    rng = np.random.default_rng(seed)
    maps = [random_orthonormal(rng, m, m) for m in decomp.dims]
    moves = [_moved(decomp, maps=maps), _moved(decomp, order=rng.permutation(decomp.rank))]
    report = cpd_condition_number(decomp)
    balanced = _balanced_sigma(decomp)
    nb_sigma, nb_sigma_1, _, _ = dense_norm_balanced_sigma(decomp)
    scale, nb_scale = max(1.0, report.sigma_1), max(1.0, nb_sigma_1)
    for moved in moves:
        other = cpd_condition_number(moved)
        assert abs(other.sigma_min - report.sigma_min) <= SIGMA_TOL * scale
        assert abs(other.sigma_1 - report.sigma_1) <= SIGMA_TOL * scale
        if not near_threshold(report.sigma_min, report.sigma_1):
            assert math.isinf(other.kappa) == math.isinf(report.kappa)
        other_balanced = _balanced_sigma(moved)
        assert abs(other_balanced - balanced) <= SIGMA_TOL * nb_scale
        if not near_threshold(nb_sigma, nb_sigma_1):
            assert (other_balanced == 0.0) == (balanced == 0.0)


@given(cp_decompositions(), st.integers(0, 2**32 - 1))
def test_kappa_unchanged_by_term_scaling(decomp, seed):
    # the tangent spaces do not depend on the mu_i, so neither do the bits
    rng = np.random.default_rng(seed)
    report = cpd_condition_number(decomp)
    other = cpd_condition_number(_moved(decomp, scales=rng.uniform(1e-2, 1e2, decomp.rank)))
    assert other.sigma_min == report.sigma_min
    assert other.kappa == report.kappa
    assert np.array_equal(other.least_vector, report.least_vector)


@given(cp_decompositions(), st.integers(0, 2**32 - 1))
def test_norm_balanced_kappa_scales_with_common_mu_factor(decomp, seed):
    # every s_i = mu_i^(1-1/d) gains the factor c^(1-1/d), so sigma_n and
    # sigma_1 do and kappa loses it; the rank rule compares the two, so the
    # verdict holds at every c, here log-uniform in [1e-30, 1e30]
    c = 10.0 ** np.random.default_rng(seed).uniform(-30.0, 30.0)
    power = c ** (1.0 - 1.0 / decomp.order)
    scaled = _moved(decomp, scales=np.full(decomp.rank, c))
    sigma, sigma_1, _, _ = dense_norm_balanced_sigma(decomp)
    kappa = norm_balanced_condition_number(decomp)
    scaled_kappa = norm_balanced_condition_number(scaled)
    if math.isfinite(kappa) and math.isfinite(scaled_kappa):
        assert abs(1.0 / scaled_kappa - power / kappa) <= SIGMA_TOL * power * sigma_1
    if not near_threshold(sigma, sigma_1):
        assert math.isinf(scaled_kappa) == math.isinf(kappa)


@pytest.mark.parametrize("mu", [1e-21, 1e-30])
def test_norm_balanced_kappa_is_finite_at_tiny_common_norm(mu):
    # (3,3,3) r=2 with both term norms mu: the weights mu^(2/3) have spread
    # 1, so kappa is mu^(-2/3) times its value at mu = 1, not inf
    rng = np.random.default_rng(166)
    vectors = [tuple(random_orthonormal(rng, 3, 1)[:, 0] for _ in range(3)) for _ in range(2)]
    kappa_1 = norm_balanced_condition_number(
        CPDecomposition(tuple(RankOneTerm(1.0, v) for v in vectors))
    )
    kappa = norm_balanced_condition_number(
        CPDecomposition(tuple(RankOneTerm(mu, v) for v in vectors))
    )
    expected = mu ** (-2.0 / 3.0) * kappa_1
    assert math.isfinite(kappa)
    assert abs(kappa - expected) <= 1e-12 * expected


@given(cp_decompositions())
def test_distance_to_illposed_is_inverse_kappa_with_certificate(decomp):
    tangent = cpd_tangent_tuple(decomp)
    report = cpd_condition_number(decomp)
    scale = max(1.0, report.sigma_1)
    assert abs(distance_to_illposed(tangent) - 1.0 / report.kappa) <= SIGMA_TOL * scale
    if decomp.rank > 1 and tangent.n <= tangent.ambient_dim:
        certificate = nearest_intersecting_tuple(tangent)
        assert abs(certificate.distance - report.sigma_min) <= CERTIFICATE_TOL
        assert certificate.diagnostics["intersect_residual"] <= CERTIFICATE_TOL


@given(
    d=st.integers(3, 4),
    r=st.integers(1, 6),
    free_dim=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=3, r=1, free_dim=1, seed=63)
@example(d=3, r=3, free_dim=1, seed=64)
def test_kappa_is_one_on_weak_3_orthogonal_decompositions(d, r, free_dim, seed):
    # orthonormal mode vectors in three modes; with d = 4 the fourth mode's
    # vectors are arbitrary; r = 1 is weakly 3-orthogonal too
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(r, 8)) for _ in range(3)] + [free_dim] * (d - 3)
    mats = [random_orthonormal(rng, m, r) for m in dims[:3]]
    mats += [rng.standard_normal((m, r)) for m in dims[3:]]
    mats = [A * rng.uniform(0.5, 2.0, r) for A in mats]
    decomp = normalize_decomposition(mats)
    assert is_weak_3_orthogonal(decomp)
    assert abs(cpd_condition_number(decomp).kappa - 1.0) <= SIGMA_TOL


def _cp_cone_bound(decomp):
    return cone_bound([t.mu for t in decomp.terms], assemble_cpd(decomp))


@given(cp_decompositions())
def test_kappa_is_at_least_the_cone_bound(decomp):
    assert cpd_condition_number(decomp).kappa >= _cp_cone_bound(decomp) * (1 - CONE_SLACK)


@pytest.mark.parametrize("sequence", [paatero_sequence, desilva_lim_sequence])
def test_kappa_is_at_least_the_cone_bound_along_the_sequences(sequence):
    # the bound is why kappa diverges along both: the term norms grow while
    # the sum converges.  It is loose there: kappa / bound is at least 5.0.
    for seed in range(5):
        for s in range(1, 91):
            decomp = sequence(seed, s)
            bound = _cp_cone_bound(decomp)
            assert cpd_condition_number(decomp).kappa >= bound * (1 - CONE_SLACK), (seed, s)


def _norm_balanced_cone_bound(decomp):
    """sqrt(sum_i mu_i^(2/d) / d) / ||T||_F, proved in the segre docstring."""
    d = decomp.order
    bound = cone_bound([t.mu ** (1.0 / d) for t in decomp.terms], assemble_cpd(decomp))
    return bound / math.sqrt(d)


@given(cp_decompositions())
def test_norm_balanced_kappa_is_at_least_its_cone_bound(decomp):
    bound = _norm_balanced_cone_bound(decomp)
    assert norm_balanced_condition_number(decomp) >= bound * (1 - CONE_SLACK)


@pytest.mark.parametrize("sequence", [paatero_sequence, desilva_lim_sequence])
def test_norm_balanced_kappa_is_at_least_its_cone_bound_along_the_sequences(sequence):
    for seed in range(5):
        for s in range(1, 91):
            decomp = sequence(seed, s)
            bound = _norm_balanced_cone_bound(decomp)
            assert norm_balanced_condition_number(decomp) >= bound * (1 - CONE_SLACK), (seed, s)
