"""CP-specific tangent bases, condition numbers, norm-balanced variant,
and weak 3-orthogonality."""

import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from joincond import (
    CPDecomposition,
    RankOneTerm,
    cpd_condition_number,
    cpd_tangent_tuple,
    distance_to_illposed,
    is_weak_3_orthogonal,
    norm_balanced_condition_number,
)
from joincond.condition import core_shape, is_defective
from conftest import (
    count_svd_calls,
    kron,
    norm_balanced_basis,
    orthogonal_cpd,
    random_cpd,
    random_unit,
    rng_for,
    segre_tangent_basis,
)


def _tangent_dim(dims):
    return 1 - len(dims) + sum(dims)


def test_tangent_basis_structure_small():
    e1 = np.array([1.0, 0.0])
    U = segre_tangent_basis(RankOneTerm(1.0, (e1, e1)))
    assert U.shape == (4, 3)
    cols = {tuple(np.round(np.abs(U[:, j]), 12)) for j in range(3)}
    # {e1 kron e1, e2 kron e1, e1 kron e2} up to sign
    assert cols == {(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0)}


def test_tangent_basis_first_column_and_count():
    rng = rng_for(60)
    for dims in [(2, 2), (3, 4, 2), (2, 3, 4, 2)]:
        vs = tuple(random_unit(rng, m) for m in dims)
        term = RankOneTerm(1.7, vs)
        U = segre_tangent_basis(term)
        assert U.shape == (int(np.prod(dims)), _tangent_dim(dims))
        assert np.allclose(U[:, 0], kron(list(vs)), atol=1e-14)


def test_tangent_basis_orthonormal():
    rng = rng_for(61)
    for _ in range(25):
        dims = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 5))))
        term = RankOneTerm(1.0, tuple(random_unit(rng, m) for m in dims))
        U = segre_tangent_basis(term)
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-12


def test_tangent_basis_contains_finite_differences():
    # central difference quotients of curves through the manifold stay in
    # the span; the quotient error is O(h^2), far below the 1e-6 budget
    rng = rng_for(62)
    h = 1e-6
    for _ in range(10):
        dims = (3, 4, 2)
        vs = [random_unit(rng, m) for m in dims]
        mu = 1.3
        term = RankOneTerm(mu, tuple(vs))
        U = segre_tangent_basis(term)
        dmu = float(rng.standard_normal())
        dvs = [rng.standard_normal(m) for m in dims]

        def curve(t):
            return (mu + t * dmu) * kron([v + t * dv for v, dv in zip(vs, dvs)])

        fd = (curve(h) - curve(-h)) / (2.0 * h)
        residual = fd - U @ (U.T @ fd)
        assert np.linalg.norm(residual) / np.linalg.norm(fd) <= 1e-6


def test_two_term_2x2x2_matches_dense_oracle():
    e1 = np.array([1.0, 0.0])
    mid = np.array([1.0, 1.0]) / math.sqrt(2.0)
    d = CPDecomposition((RankOneTerm(1.0, (e1, e1, e1)), RankOneTerm(1.0, (mid, mid, mid))))
    report = cpd_condition_number(d)
    U = np.hstack([segre_tangent_basis(t) for t in d.terms])
    s = np.linalg.svd(U, compute_uv=False)
    assert math.isclose(report.sigma_min, float(s[report.n - 1]), rel_tol=1e-12)
    evals = np.linalg.eigvalsh(U.T @ U)
    assert math.isclose(report.sigma_min, math.sqrt(max(evals[0], 0.0)), rel_tol=1e-10)


def test_kappa_matches_independent_qr_basis_oracle():
    # rebuild each tangent space from the redundant kron-with-identity span
    # and orthonormalize it differently; kappa must not care about the basis
    rng = rng_for(65)
    checked = 0
    while checked < 20:
        d = random_cpd(rng, (3, 3, 3), 2)
        report = cpd_condition_number(d)
        if not report.well_posed or report.kappa > 50.0:
            continue
        blocks = []
        for term in d.terms:
            spans = []
            vs = [v for v in term.vectors]
            for k in range(3):
                cols = [v.reshape(-1, 1) for v in vs]
                cols[k] = np.eye(len(vs[k]))
                M = cols[0]
                for c in cols[1:]:
                    M = np.kron(M, c)
                spans.append(M)
            T = np.hstack(spans)
            q, s_diag, _ = np.linalg.svd(T, full_matrices=False)
            rank = int((s_diag > 1e-10 * s_diag[0]).sum())
            assert rank == _tangent_dim((3, 3, 3))
            blocks.append(q[:, :rank])
        U = np.hstack(blocks)
        evals = np.linalg.eigvalsh(U.T @ U)
        oracle = 1.0 / math.sqrt(max(evals[0], 1e-300))
        assert math.isclose(report.kappa, oracle, rel_tol=1e-10)
        checked += 1


def test_bridge_inverse_kappa_equals_distance():
    rng = rng_for(68)
    for _ in range(25):
        d = random_cpd(rng, (3, 3, 2), 2)
        report = cpd_condition_number(d)
        W = cpd_tangent_tuple(d)
        dist = distance_to_illposed(W)
        assert abs(1.0 / report.kappa - dist) <= 1e-12 / report.kappa


def test_one_svd_per_condition_number(monkeypatch):
    # cpd_condition_number: one SVD, of the core, compressed or not
    # (the out blocks never attain sigma_n; see the segre docstring)
    for dims, r in (((3, 3, 3), 3), ((4, 3, 3), 2)):
        d = random_cpd(rng_for(70), dims, r)
        calls = count_svd_calls(monkeypatch)
        assert math.isfinite(cpd_condition_number(d).kappa)
        assert calls == [True]
    # norm-balanced: one of the core, plus one batched SVD of the out
    # blocks when a mode is compressed
    calls = count_svd_calls(monkeypatch)
    assert math.isfinite(norm_balanced_condition_number(random_cpd(rng_for(70), (3, 3, 3), 3)))
    assert calls == [False]
    calls.clear()
    assert math.isfinite(norm_balanced_condition_number(random_cpd(rng_for(70), (4, 3, 3), 2)))
    assert calls == [False, False]


def test_overcomplete_rank_gives_infinite_kappa():
    rng = rng_for(69)
    # n = r * (1 - 3 + 6) = 4r > 8 = N for r = 3
    d = random_cpd(rng, (2, 2, 2), 3)
    report = cpd_condition_number(d)
    assert report.n > report.N
    assert math.isinf(report.kappa)
    assert not report.well_posed


def test_norm_balanced_block_singular_values():
    rng = rng_for(70)
    dims = (3, 4, 2)
    d = len(dims)
    term = RankOneTerm(1.0, tuple(random_unit(rng, m) for m in dims))
    B = norm_balanced_basis(term)
    assert B.shape == (int(np.prod(dims)), sum(dims))
    s = np.linalg.svd(B, compute_uv=False)
    expect = np.array([math.sqrt(d)] + [1.0] * (sum(dims) - d) + [0.0] * (d - 1))
    assert np.allclose(s, expect, atol=1e-12)


def test_norm_balanced_scales_with_mu():
    rng = rng_for(71)
    dims = (3, 3, 3)
    vs = tuple(random_unit(rng, m) for m in dims)
    b1 = norm_balanced_basis(RankOneTerm(1.0, vs))
    b2 = norm_balanced_basis(RankOneTerm(2.0, vs))
    factor = 2.0 ** (1.0 - 1.0 / 3.0)
    assert np.allclose(b2, factor * b1, rtol=1e-13)


def test_norm_balanced_blockdiag_sigma_is_mu_min_power():
    rng = rng_for(72)
    dims = (3, 4, 2)
    order = len(dims)
    d = random_cpd(rng, dims, 2, mu_range=(0.3, 3.0))
    blocks = [norm_balanced_basis(t) for t in d.terms]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    diag = np.zeros((rows, cols))
    r0 = c0 = 0
    for b in blocks:
        diag[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    n = d.rank * _tangent_dim(dims)
    s = np.linalg.svd(diag, compute_uv=False)
    mu_min = min(t.mu for t in d.terms)
    assert math.isclose(float(s[n - 1]), mu_min ** (1.0 - 1.0 / order), rel_tol=1e-12)


def test_norm_balanced_inequality():
    rng = rng_for(73)
    dims = (3, 4, 2)
    order = len(dims)
    for _ in range(100):
        d = random_cpd(rng, dims, 2, mu_range=(0.2, 4.0))
        kappa = cpd_condition_number(d).kappa
        kt = norm_balanced_condition_number(d)
        mu_min = min(t.mu for t in d.terms)
        sigma_scaling = mu_min ** (1.0 - 1.0 / order)
        assert kt <= kappa / sigma_scaling + 1e-10


def test_norm_balanced_sharpness_on_orthogonal_decompositions():
    rng = rng_for(74)
    for _ in range(25):
        d = orthogonal_cpd(rng, (4, 5, 4), 3)
        order = d.order
        kt = norm_balanced_condition_number(d)
        mu_min = min(t.mu for t in d.terms)
        expect = mu_min ** (1.0 / order - 1.0)
        assert math.isclose(kt, expect, rel_tol=1e-8)


def test_norm_balanced_rank_one_unit_mu():
    rng = rng_for(75)
    vs = tuple(random_unit(rng, m) for m in (3, 3, 3))
    d = CPDecomposition((RankOneTerm(1.0, vs),))
    assert math.isclose(norm_balanced_condition_number(d), 1.0, rel_tol=1e-12)


def test_norm_balanced_sensitive_to_scaling_while_kappa_is_not():
    rng = rng_for(76)
    d = random_cpd(rng, (3, 3, 3), 2, mu_range=(1.0, 1.0))
    scaled = CPDecomposition((RankOneTerm(7.0 * d.terms[0].mu, d.terms[0].vectors), d.terms[1]))
    k1 = cpd_condition_number(d).kappa
    k2 = cpd_condition_number(scaled).kappa
    assert math.isclose(k1, k2, rel_tol=1e-10)
    kt1 = norm_balanced_condition_number(d)
    kt2 = norm_balanced_condition_number(scaled)
    assert abs(kt1 - kt2) > 1e-6 * max(kt1, kt2)


def test_entry_bound_counts_the_qr_copies():
    # the 1e5 x 460 core has 4.6e7 entries, under the bound, but its QR
    # holds two more copies: 1.4e8 floats at once
    d = random_cpd(rng_for(167), (10,) * 5, 10)
    with pytest.raises(ValueError, match="MAX_TANGENT_ENTRIES"):
        cpd_condition_number(d)
    with pytest.raises(ValueError, match="MAX_TANGENT_ENTRIES"):
        norm_balanced_condition_number(d)


def test_entry_bound_counts_the_complete_qr():
    # the compressed mode's complete Q is 10001 x 10001, 1.0e8 floats, while
    # the core is 1 x 1
    e = np.zeros(10001)
    e[0] = 1.0
    d = CPDecomposition((RankOneTerm(1.0, (e, np.array([1.0, 0.0]))),))
    with pytest.raises(ValueError, match="MAX_TANGENT_ENTRIES"):
        cpd_condition_number(d)
    with pytest.raises(ValueError, match="MAX_TANGENT_ENTRIES"):
        norm_balanced_condition_number(d)


def test_dense_tuple_refuses_above_the_entry_bound():
    # 1e12 rows and 1e6 x 1e6 complements: refused before any of it is built
    e = np.zeros(10**6)
    e[0] = 1.0
    d = CPDecomposition((RankOneTerm(1.0, (e, e)),))
    with pytest.raises(ValueError, match="MAX_TANGENT_ENTRIES"):
        cpd_tangent_tuple(d)


def test_weak_3_orthogonality_detection():
    rng = rng_for(78)
    e = np.eye(4)
    # orthogonal in all three modes
    t1 = RankOneTerm(1.0, (e[:, 0], e[:, 0], e[:, 0]))
    t2 = RankOneTerm(1.0, (e[:, 1], e[:, 1], e[:, 1]))
    d = CPDecomposition((t1, t2))
    assert is_weak_3_orthogonal(d)
    # shared vector in every mode
    d_same = CPDecomposition((t1, t1))
    assert not is_weak_3_orthogonal(d_same)
    # orthogonal in exactly two of three modes
    t3 = RankOneTerm(1.0, (e[:, 1], e[:, 1], e[:, 0]))
    d_two = CPDecomposition((t1, t3))
    assert not is_weak_3_orthogonal(d_two)
    # four modes, exactly three orthogonal: enough
    t4 = RankOneTerm(1.0, (e[:, 0], e[:, 0], e[:, 0], e[:, 0]))
    t5 = RankOneTerm(1.0, (e[:, 1], e[:, 1], e[:, 1], e[:, 0]))
    d4 = CPDecomposition((t4, t5))
    assert is_weak_3_orthogonal(d4)
    # matrices cannot be weak 3-orthogonal unless rank 1
    m1 = RankOneTerm(1.0, (e[:, 0], e[:, 0]))
    m2 = RankOneTerm(1.0, (e[:, 1], e[:, 1]))
    assert not is_weak_3_orthogonal(CPDecomposition((m1, m2)))
    assert is_weak_3_orthogonal(CPDecomposition((m1,)))
    # tolerance is respected
    a = random_unit(rng, 4)
    near = a + 1e-15 * rng.standard_normal(4)
    near = near / np.linalg.norm(near)
    q = np.linalg.qr(np.column_stack([a, rng.standard_normal((4, 1))]))[0][:, 1]
    tq = RankOneTerm(1.0, (q, q, q))
    ta = RankOneTerm(1.0, (a, a, a))
    assert is_weak_3_orthogonal(CPDecomposition((ta, tq)))


@pytest.mark.parametrize(
    "dims, r, defective",
    [
        ((5, 5), 2, True),
        ((5, 1, 5), 2, True),
        ((1, 6, 1, 4), 3, True),
        ((2, 2, 2), 3, True),  # n = 12 > N = 8
        # n <= N, but the cores are 12 x 15
        ((6, 2, 2), 3, True),
        ((10, 2, 2), 3, True),
        ((5, 5), 1, False),
        ((5, 5, 5), 2, False),
        ((3, 2, 2), 2, False),
    ],
)
def test_is_defective_matrix_shapes_and_overfull(dims, r, defective):
    # a defective input has kappa inf at every draw: its compressed core is
    # wide, so sigma_min is exactly 0
    rng = rng_for(151)
    for _ in range(5):
        d = random_cpd(rng, dims, r)
        assert is_defective(d.groups, d.rank) == defective
        assert (cpd_condition_number(d).kappa == math.inf) == defective


def _sweep_shapes():
    """Every shape with d 1-4, m_k 1-8 and r 1-8, modes unordered (both
    rules below are symmetric in them)."""
    for d in range(1, 5):
        for dims in combinations_with_replacement(range(8, 0, -1), d):
            for r in range(1, 9):
                yield dims, r


def _groups(dims):
    return tuple((m, 1) for m in dims)


def _matrix_or_overfull(dims, r):
    """The rule the CP engine had before it took the core's shape: n > N,
    or a matrix decomposition of rank r >= 2."""
    overfull = r * _tangent_dim(dims) > math.prod(dims)
    return overfull or (r >= 2 and sum(m >= 2 for m in dims) <= 2)


def _tucker_core(dims, r):
    """The CP rule before it took factor groups: the Tucker core's rows and
    columns per term, and whether it is wide."""
    rows = math.prod(min(m, r) for m in dims)
    width = 1 - len(dims) + sum(min(m, r) for m in dims)
    return (rows, width), rows < r * width


def test_group_rule_equals_the_tucker_core_rule():
    # every d <= 3 shape with m_k <= 8 in every mode order, and the d = 4
    # shapes with 8 >= m_1 >= ... >= m_4, each at r <= 8: 7,312 pairs
    shapes = [dims for d in range(1, 4) for dims in product(range(1, 9), repeat=d)]
    shapes += list(combinations_with_replacement(range(8, 0, -1), 4))
    pairs = [(dims, r) for dims in shapes for r in range(1, 9)]
    assert len(pairs) == 7312
    for dims, r in pairs:
        shape, wide = _tucker_core(dims, r)
        assert (core_shape(_groups(dims), r), is_defective(_groups(dims), r)) == (shape, wide)


def test_core_rule_flags_every_matrix_or_overfull_shape():
    added = []
    for dims, r in _sweep_shapes():
        defective = is_defective(_groups(dims), r)
        if _matrix_or_overfull(dims, r):
            assert defective, (dims, r)
        elif defective:
            added.append((dims, r))
    # unbalanced third-order shapes, and the same with a mode of size 1
    triples = [
        ((8, 5, 2), 6), ((8, 4, 2), 5), ((8, 3, 3), 6), ((8, 3, 2), 4), ((8, 2, 2), 3),
        ((7, 4, 2), 5), ((7, 3, 2), 4), ((7, 2, 2), 3), ((6, 3, 2), 4), ((6, 2, 2), 3),
    ]
    assert added == triples + [(dims + (1,), r) for dims, r in triples]


def test_defective_shapes_have_sigma_min_exactly_zero(monkeypatch):
    # one random input per flagged shape of the sweep: the wide core gives
    # sigma_min = +0.0, and the norm-balanced number is inf without an SVD
    rng = rng_for(153)
    calls = count_svd_calls(monkeypatch)
    flagged = 0
    for dims, r in _sweep_shapes():
        d = random_cpd(rng, dims, r)
        if not is_defective(d.groups, d.rank):
            continue
        flagged += 1
        calls.clear()
        assert norm_balanced_condition_number(d) == math.inf
        assert calls == []
        report = cpd_condition_number(d)
        assert report.sigma_min == 0.0 and math.copysign(1.0, report.sigma_min) == 1.0
        assert report.kappa == math.inf
    assert flagged == 1145


def test_norm_balanced_is_inf_once_the_weight_spread_passes_the_rank_tolerance():
    # the weights mu_i^(2/3) are 1e13.3 and 1 at mu = (1e20, 1), and 1e14.7
    # and 1 at (1e22, 1): sigma_1 = sqrt(3) * 1e14.7 puts the rank tolerance
    # above sigma_n (about 0.7); the term-wise kappa does not see mu at all
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    e = np.eye(3)
    first = (e[0], e[1], e[0])
    second = (a, a[[0, 2, 1]], a[[2, 0, 1]])
    kappas = {}
    for mu in (1.0, 1e20, 1e22):
        d = CPDecomposition((RankOneTerm(mu, first), RankOneTerm(1.0, second)))
        kappas[mu] = (cpd_condition_number(d).kappa, norm_balanced_condition_number(d))
    assert kappas[1e20][0] == kappas[1e22][0] == kappas[1.0][0] < math.inf
    assert math.isfinite(kappas[1e20][1])
    assert kappas[1e22][1] == math.inf
