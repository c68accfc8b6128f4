"""The symmetric-coordinate Waring engine against the dense stacked basis,
and the paper's invariants on it.

waring_condition_number decomposes the C(m+d-1, d) sorted rows of the
stacked Veronese tangent bases, each weighted by the square root of its
multinomial count; the reference is condition_number(waring_tangent_tuple(d))
on all m^d rows.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from joincond import (
    SymmetricRankOneTerm,
    WaringDecomposition,
    condition_number,
    distance_to_illposed,
    waring_condition_number,
    waring_tangent_tuple,
)
import joincond.condition
from joincond.condition import RANK_TOL_FACTOR
from joincond.waring import _symmetric_rows, is_defective, symmetric_dimension
from conftest import (
    SIGMA_TOL,
    count_svd_calls,
    near_threshold,
    random_orthonormal,
    random_waring,
    rng_for,
)


@st.composite
def waring_decompositions(draw):
    """m in 2..7, d in 2..5, r in 1..8 (so m^d <= 16807 rows, well under
    1e5), standard normal vectors and signed weights; some draws pull the
    second vector toward the first so that sigma_n falls toward and through
    the rank threshold, and small m with large r exceeds C(m+d-1, d)."""
    m = draw(st.integers(2, 7))
    d = draw(st.integers(2, 5))
    r = draw(st.integers(1, 8))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, r))
    if pull and r > 1:
        A[:, 1] = A[:, 0] + pull * A[:, 1]
    A /= np.linalg.norm(A, axis=0)
    mu = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
    return WaringDecomposition(
        tuple(SymmetricRankOneTerm(float(w), A[:, i], d) for i, w in enumerate(mu))
    )


def _moved(decomp, Q=None, order=None, scales=None, flips=None):
    """The same decomposition with Q applied to every vector, the terms in
    the given order, mu_i scaled by scales[i], and vectors negated where
    flips[i] is set (mu_i then takes the sign (-1)^d, so the term is the same
    tensor)."""
    r, d = decomp.rank, decomp.d
    Q = np.eye(decomp.m) if Q is None else Q
    order = range(r) if order is None else order
    scales = np.ones(r) if scales is None else scales
    flips = np.zeros(r, dtype=bool) if flips is None else flips
    terms = []
    for i in order:
        t = decomp.terms[i]
        sign = -1.0 if flips[i] else 1.0
        terms.append(
            SymmetricRankOneTerm(scales[i] * sign**d * t.mu, sign * (Q @ t.vector), d)
        )
    return WaringDecomposition(tuple(terms))


@given(waring_decompositions())
def test_symmetric_matches_dense(decomp):
    tangent = waring_tangent_tuple(decomp)
    dense = condition_number(tangent)
    report = waring_condition_number(decomp)
    scale = max(1.0, dense.sigma_1)
    assert report.path == "symmetric"
    assert (report.n, report.N) == (dense.n, dense.N)
    assert (report.n, report.N) == (decomp.rank * decomp.m, decomp.m**decomp.d)
    assert abs(report.sigma_min - dense.sigma_min) <= SIGMA_TOL * scale
    assert abs(report.sigma_1 - dense.sigma_1) <= SIGMA_TOL * scale
    if report.n > symmetric_dimension(decomp.m, decomp.d):
        assert report.sigma_min == 0.0 and math.isinf(report.kappa)
    if dense.n > dense.N or not near_threshold(dense.sigma_min, dense.sigma_1):
        assert math.isinf(report.kappa) == math.isinf(dense.kappa)
    v = report.least_vector
    assert abs(np.linalg.norm(v) - 1.0) <= SIGMA_TOL
    assert abs(np.linalg.norm(tangent.stacked() @ v) - report.sigma_min) <= SIGMA_TOL * scale


@given(waring_decompositions(), st.integers(0, 2**32 - 1))
def test_kappa_invariant_under_orthogonal_map_permutation_and_scaling(decomp, seed):
    rng = np.random.default_rng(seed)
    r = decomp.rank
    Q = random_orthonormal(rng, decomp.m, decomp.m)
    moves = [
        _moved(decomp, Q=Q),
        _moved(decomp, order=rng.permutation(r)),
        _moved(
            decomp,
            scales=rng.uniform(1e-2, 1e2, r) * rng.choice([-1.0, 1.0], r),
            flips=rng.uniform(size=r) < 0.5,
        ),
    ]
    report = waring_condition_number(decomp)
    scale = max(1.0, report.sigma_1)
    for moved in moves:
        other = waring_condition_number(moved)
        assert abs(other.sigma_min - report.sigma_min) <= SIGMA_TOL * scale
        assert abs(other.sigma_1 - report.sigma_1) <= SIGMA_TOL * scale
        if not near_threshold(report.sigma_min, report.sigma_1):
            assert math.isinf(other.kappa) == math.isinf(report.kappa)


@given(
    m=st.integers(2, 7),
    d=st.integers(3, 5),
    r=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=5, d=3, r=3, seed=87)
def test_odeco_kappa_is_one(m, d, r, seed):
    rng = np.random.default_rng(seed)
    r = min(r, m)
    basis = random_orthonormal(rng, m, r)
    mu = rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)
    decomp = WaringDecomposition(
        tuple(SymmetricRankOneTerm(float(w), basis[:, i], d) for i, w in enumerate(mu))
    )
    assert abs(waring_condition_number(decomp).kappa - 1.0) <= SIGMA_TOL


@given(waring_decompositions())
def test_distance_to_illposed_is_inverse_kappa(decomp):
    report = waring_condition_number(decomp)
    if math.isfinite(report.kappa):
        distance = distance_to_illposed(waring_tangent_tuple(decomp))
        assert abs(distance - 1.0 / report.kappa) <= SIGMA_TOL * max(1.0, report.sigma_1)


def test_symmetric_svd_runs_on_symmetric_rows(monkeypatch):
    # (10,4,12): C(13, 4) = 715 rows instead of 10^4; the QR takes them and
    # the one SVD runs on the 120 x 120 R factor
    d = random_waring(rng_for(160), 10, 4, 12, signed=True)
    shapes, qr_shapes = [], []
    calls = count_svd_calls(monkeypatch, shapes=shapes, qr_shapes=qr_shapes)
    report = waring_condition_number(d)
    assert calls == [True]
    assert qr_shapes == [(715, 120)]
    assert shapes == [(120, 120)]
    assert (report.n, report.N) == (120, 10_000)
    assert math.isfinite(report.kappa)


def test_overfull_sigma_min_is_zero_by_dimension_count():
    # r * m = 12 > dim S^3(R^3) = 10: the weighted symmetric matrix is
    # 10 x 12, so its 12th singular value is 0 exactly, while the dense
    # 27 x 12 basis only rounds to a tiny nonzero one
    d = random_waring(rng_for(161), 3, 3, 4, signed=True)
    assert symmetric_dimension(3, 3) == 10
    report = waring_condition_number(d)
    assert report.sigma_min == 0.0
    assert math.isinf(report.kappa) and not report.well_posed
    assert (report.n, report.N) == (12, 27)
    dense = condition_number(waring_tangent_tuple(d))
    assert dense.sigma_min <= RANK_TOL_FACTOR * dense.sigma_1
    U = waring_tangent_tuple(d).stacked()
    assert np.linalg.norm(U @ report.least_vector) <= SIGMA_TOL


def test_symmetric_rows_and_weights_match_brute_force():
    # every sorted multi-index once, in lexicographic order, weighted by the
    # square root of the number of all m^d multi-indices that sort to it
    for m in range(1, 6):
        for d in range(1, 6):
            rows, weights = _symmetric_rows(m, d)
            every = [tuple(sorted(i)) for i in itertools.product(range(m), repeat=d)]
            expect = sorted(set(every))
            assert [tuple(row) for row in rows] == expect
            assert len(expect) == symmetric_dimension(m, d)
            counts = np.array([every.count(i) for i in expect], dtype=float)
            assert np.allclose(weights**2, counts, rtol=1e-14, atol=0)


def test_defective_shapes_are_inf_by_dimension_not_by_rounding(monkeypatch):
    # (5,3,7) is an Alexander-Hirschowitz exception with r * m = 35 =
    # C(7, 3): sigma_min rounds to a few 1e-16, above a zero rank tolerance
    monkeypatch.setattr(joincond.condition, "RANK_TOL_FACTOR", 0.0)
    d = random_waring(rng_for(162), 5, 3, 7, signed=True)
    report = waring_condition_number(d)
    assert report.sigma_min > 0.0
    assert math.isinf(report.kappa) and not report.well_posed
    for m, deg, r in ((3, 4, 4), (5, 3, 6), (4, 4, 8)):
        assert not is_defective(m, deg, r)
        report = waring_condition_number(random_waring(rng_for(163), m, deg, r, signed=True))
        assert math.isfinite(report.kappa) and report.well_posed


def _three_clauses(m, d, r):
    """The rule is_defective had before the wide core: n > C(m+d-1, d), a
    quadric of rank r >= 2, or an Alexander-Hirschowitz exception."""
    exceptions = {(3, 4, 5), (4, 4, 9), (5, 4, 14), (5, 3, 7)}
    return r * m > symmetric_dimension(m, d) or (d == 2 and r >= 2) or (m, d, r) in exceptions


def test_wide_core_rule_equals_the_three_clauses():
    for m in range(1, 13):
        for d in range(1, 9):
            for r in range(1, symmetric_dimension(m, d) // m + 3):
                assert is_defective(m, d, r) == _three_clauses(m, d, r), (m, d, r)


def test_defective_rule_matches_the_generic_rank():
    # every shape with r * m up to one term past C(m+d-1, d): the defective
    # ones have sigma_min at rounding level on random inputs, the others
    # stay far above the rank tolerance
    rng = rng_for(164)
    for m in range(1, 6):
        for d in range(1, 5):
            for r in range(1, symmetric_dimension(m, d) // m + 2):
                reports = [waring_condition_number(random_waring(rng, m, d, r)) for _ in range(2)]
                largest = max(rep.sigma_min / max(1.0, rep.sigma_1) for rep in reports)
                if is_defective(m, d, r):
                    assert largest <= 1e-12, (m, d, r)
                else:
                    assert largest >= 1e-8, (m, d, r)
