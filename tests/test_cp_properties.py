"""The paper's invariants of the CP condition number and of the norm-balanced
condition number, as properties over generated decompositions.

Generated inputs have d in 1..4, m_k in 1..7 (so prod_k m_k <= 2401, well
under 1e5) and r in 1..6; some pull the second column of every factor toward
the first so that sigma_n falls toward and through the rank threshold.
Values are compared to 1e-12 * max(1, sigma_1), and finite/infinite verdicts
only away from the threshold.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from joincond import (
    CPDecomposition,
    RankOneTerm,
    cpd_condition_number,
    cpd_tangent_tuple,
    distance_to_illposed,
    is_weak_3_orthogonal,
    nearest_intersecting_tuple,
    norm_balanced_condition_number,
    normalize_decomposition,
)
from joincond.condition import RANK_TOL_FACTOR
from joincond.grassmann import CERTIFICATE_TOL
from conftest import dense_norm_balanced_sigma, random_orthonormal

SIGMA_TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _near_threshold(sigma, sigma_1):
    tol = RANK_TOL_FACTOR * max(1.0, sigma_1)
    return tol / 10 <= sigma <= 10 * tol


@st.composite
def cp_decompositions(draw):
    d = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 7), min_size=d, max_size=d))
    r = draw(st.integers(1, 6))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.standard_normal((m, r)) for m in dims]
    if pull and r > 1:
        for A in mats:
            A[:, 1] = A[:, 0] + pull * A[:, 1]
    return normalize_decomposition(mats)


def _moved(decomp, maps=None, order=None, scales=None):
    """The decomposition with maps[k] applied to every mode-k vector, the
    terms in the given order and mu_i scaled by scales[i]."""
    r = decomp.rank
    maps = [np.eye(m) for m in decomp.shape.dims] if maps is None else maps
    order = range(r) if order is None else order
    scales = np.ones(r) if scales is None else scales
    terms = tuple(
        RankOneTerm(
            float(scales[i]) * decomp.terms[i].mu,
            tuple(Q @ v for Q, v in zip(maps, decomp.terms[i].vectors)),
        )
        for i in order
    )
    return CPDecomposition(decomp.shape, terms)


def _balanced_sigma(decomp):
    """1 / norm_balanced_condition_number, 0 where it is infinite."""
    return 1.0 / norm_balanced_condition_number(decomp)


@PROPERTY_SETTINGS
@given(cp_decompositions(), st.integers(0, 2**32 - 1))
def test_invariant_under_orthogonal_maps_and_term_permutation(decomp, seed):
    rng = np.random.default_rng(seed)
    maps = [random_orthonormal(rng, m, m) for m in decomp.shape.dims]
    moves = [_moved(decomp, maps=maps), _moved(decomp, order=rng.permutation(decomp.rank))]
    report = cpd_condition_number(decomp)
    balanced = _balanced_sigma(decomp)
    nb_sigma, nb_sigma_1, _, _ = dense_norm_balanced_sigma(decomp)
    scale, nb_scale = max(1.0, report.sigma_1), max(1.0, nb_sigma_1)
    for moved in moves:
        other = cpd_condition_number(moved)
        assert abs(other.sigma_min - report.sigma_min) <= SIGMA_TOL * scale
        assert abs(other.sigma_1 - report.sigma_1) <= SIGMA_TOL * scale
        if not _near_threshold(report.sigma_min, report.sigma_1):
            assert math.isinf(other.kappa) == math.isinf(report.kappa)
        other_balanced = _balanced_sigma(moved)
        assert abs(other_balanced - balanced) <= SIGMA_TOL * nb_scale
        if not _near_threshold(nb_sigma, nb_sigma_1):
            assert (other_balanced == 0.0) == (balanced == 0.0)


@PROPERTY_SETTINGS
@given(cp_decompositions(), st.integers(0, 2**32 - 1))
def test_kappa_unchanged_by_term_scaling(decomp, seed):
    # the tangent spaces do not depend on the mu_i, so neither do the bits
    rng = np.random.default_rng(seed)
    report = cpd_condition_number(decomp)
    other = cpd_condition_number(_moved(decomp, scales=rng.uniform(1e-2, 1e2, decomp.rank)))
    assert other.sigma_min == report.sigma_min
    assert other.kappa == report.kappa
    assert np.array_equal(other.least_vector, report.least_vector)


@PROPERTY_SETTINGS
@given(cp_decompositions(), st.floats(1e-2, 1e2))
def test_norm_balanced_kappa_scales_with_common_mu_factor(decomp, c):
    # every s_i = mu_i^(1-1/d) gains the factor c^(1-1/d), so sigma_n does
    # and kappa loses it
    power = c ** (1.0 - 1.0 / decomp.order)
    scaled = _moved(decomp, scales=np.full(decomp.rank, c))
    sigma, sigma_1, _, _ = dense_norm_balanced_sigma(decomp)
    kappa = norm_balanced_condition_number(decomp)
    scaled_kappa = norm_balanced_condition_number(scaled)
    if math.isfinite(kappa) and math.isfinite(scaled_kappa):
        assert abs(1.0 / scaled_kappa - power / kappa) <= SIGMA_TOL * max(1.0, power * sigma_1)
    if not (_near_threshold(sigma, sigma_1) or _near_threshold(power * sigma, power * sigma_1)):
        assert math.isinf(scaled_kappa) == math.isinf(kappa)


@PROPERTY_SETTINGS
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


@PROPERTY_SETTINGS
@given(
    d=st.integers(3, 4),
    r=st.integers(1, 6),
    free_dim=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_kappa_is_one_on_weak_3_orthogonal_decompositions(d, r, free_dim, seed):
    # orthonormal mode vectors in three modes; with d = 4 the fourth mode's
    # vectors are arbitrary
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(r, 8)) for _ in range(3)] + [free_dim] * (d - 3)
    mats = [random_orthonormal(rng, m, r) for m in dims[:3]]
    mats += [rng.standard_normal((m, r)) for m in dims[3:]]
    mats = [A * rng.uniform(0.5, 2.0, r) for A in mats]
    decomp = normalize_decomposition(mats)
    assert is_weak_3_orthogonal(decomp)
    assert abs(cpd_condition_number(decomp).kappa - 1.0) <= SIGMA_TOL


@PROPERTY_SETTINGS
@given(cp_decompositions())
def test_norm_balanced_matches_per_term_definition(decomp):
    sigma, sigma_1, n, N = dense_norm_balanced_sigma(decomp)
    kappa = norm_balanced_condition_number(decomp)
    assert abs(1.0 / kappa - sigma) <= SIGMA_TOL * max(1.0, sigma_1)
    if n > N or not _near_threshold(sigma, sigma_1):
        tol = RANK_TOL_FACTOR * max(1.0, sigma_1)
        assert math.isinf(kappa) == (n > N or sigma <= tol)
