"""Projection distances, the ill-posed locus, and nearest-tuple certificates."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from joincond import (
    CertificateError,
    SubspaceTuple,
    cpd_tangent_tuple,
    distance_to_illposed,
    nearest_intersecting_tuple,
    projection_distance,
    waring_tangent_tuple,
)
import joincond.grassmann as grassmann
from joincond.condition import least_singular_triplet, least_singular_values
from joincond.grassmann import CERTIFICATE_TOL, _rotate_to_contain
from conftest import (
    count_svd_calls,
    random_cpd,
    random_orthonormal,
    random_subspace_tuple,
    random_waring,
    rng_for,
)

BISECTOR_DIST = 0.7071067811865476  # sin(45 deg): span(e1) vs the bisector line
# Distances of orthonormal-column tuples are at most sqrt(r) <= 2 here, so
# their rounding errors stay far below this.
ROUNDING_TOL = 1e-12


def _line(*entries):
    v = np.array(entries, dtype=float)
    return (v / np.linalg.norm(v)).reshape(-1, 1)


def _projector(W):
    return W @ W.T


def _is_intersecting(W):
    """The dependence verdict: the distance to the locus is 0.0 when n > N."""
    return distance_to_illposed(W) <= CERTIFICATE_TOL


def test_distance_zero_on_identical_tuples():
    rng = rng_for(40)
    t = random_subspace_tuple(rng, 5, (2, 1))
    assert projection_distance(t, t) <= 1e-12


def test_distance_orthogonal_lines():
    a = SubspaceTuple(2, (_line(1, 0),))
    b = SubspaceTuple(2, (_line(0, 1),))
    assert math.isclose(projection_distance(a, b), 1.0, rel_tol=1e-13)


def test_distance_bisector_frozen_value():
    a = SubspaceTuple(2, (_line(1, 0),))
    b = SubspaceTuple(2, (_line(1, 1),))
    assert abs(projection_distance(a, b) - BISECTOR_DIST) <= 1e-12


def test_distance_matches_projector_oracle():
    # per-block spectral norm of the projector difference, formed explicitly
    rng = rng_for(41)
    for _ in range(30):
        dims = (2, 1)
        t1 = random_subspace_tuple(rng, 6, dims)
        t2 = random_subspace_tuple(rng, 6, dims)
        expected = 0.0
        for A, B in zip(t1.subspaces, t2.subspaces):
            expected += np.linalg.norm(_projector(A) - _projector(B), 2) ** 2
        expected = math.sqrt(expected)
        assert math.isclose(projection_distance(t1, t2), expected, rel_tol=1e-10, abs_tol=1e-12)


def test_distance_dimension_mismatch_rejected():
    a = SubspaceTuple(3, (_line(1, 0, 0),))
    b = SubspaceTuple(2, (_line(1, 0),))
    with pytest.raises(ValueError):
        projection_distance(a, b)
    c = SubspaceTuple(3, (np.eye(3)[:, :2],))
    with pytest.raises(ValueError):
        projection_distance(a, c)


def test_intersecting_verdict_cases():
    e1 = _line(1, 0, 0)
    e2 = _line(0, 1, 0)
    assert _is_intersecting(SubspaceTuple(3, (e1, e1)))
    assert not _is_intersecting(SubspaceTuple(3, (e1, e2)))


def test_intersecting_verdict_forced_by_dimension():
    rng = rng_for(43)
    for _ in range(10):
        t = random_subspace_tuple(rng, 3, (2, 2))
        assert _is_intersecting(t)


def test_distance_to_illposed_orthogonal_blocks():
    t = SubspaceTuple(4, (np.eye(4)[:, :2], np.eye(4)[:, 2:3]))
    assert math.isclose(distance_to_illposed(t), 1.0, rel_tol=1e-13)


def test_distance_to_illposed_two_lines_closed_form():
    for theta in np.linspace(0.1, math.pi / 2, 12):
        t = SubspaceTuple(2, (_line(1, 0), _line(math.cos(theta), math.sin(theta))))
        expected = math.sqrt(2.0) * math.sin(theta / 2.0)
        assert math.isclose(distance_to_illposed(t), expected, rel_tol=1e-12)


def test_distance_to_illposed_intersecting_and_overfull():
    e1 = _line(1, 0, 0)
    assert distance_to_illposed(SubspaceTuple(3, (e1, e1))) <= 1e-12
    rng = rng_for(44)
    t = random_subspace_tuple(rng, 3, (2, 2))
    assert distance_to_illposed(t) == 0.0


def test_distance_to_illposed_is_sigma_n():
    rng = rng_for(45)
    for _ in range(25):
        t = random_subspace_tuple(rng, 7, (2, 1, 2))
        s = np.linalg.svd(t.stacked(), compute_uv=False)
        assert math.isclose(distance_to_illposed(t), float(s[t.n - 1]), rel_tol=1e-13)


def test_certificate_soundness_random_tuples():
    rng = rng_for(46)
    for _ in range(60):
        N = int(rng.integers(3, 9))
        r = int(rng.integers(2, 4))
        dims = [1] * r
        budget = N - r
        for i in range(r):
            extra = int(rng.integers(0, budget + 1))
            dims[i] += extra
            budget -= extra
        t = random_subspace_tuple(rng, N, tuple(dims))
        cert = nearest_intersecting_tuple(t)
        assert _is_intersecting(cert.nearest)
        assert abs(cert.distance - distance_to_illposed(t)) <= 1e-8
        # witnesses: unit vectors inside the nearest blocks, jointly dependent
        X = np.column_stack(cert.witness_directions)
        for i, x in enumerate(cert.witness_directions):
            assert math.isclose(np.linalg.norm(x), 1.0, rel_tol=1e-10)
            W = cert.nearest.subspaces[i]
            assert np.linalg.norm(x - W @ (W.T @ x)) <= 1e-8
        if r >= 2:
            sv = np.linalg.svd(X, compute_uv=False)
            assert sv[-1] <= 1e-8


def test_certificate_no_closer_planted_tuple():
    # probes built to share one direction across all blocks lie in the locus;
    # none may beat the certificate distance
    rng = rng_for(47)
    for _ in range(10):
        t = random_subspace_tuple(rng, 6, (2, 2))
        cert = nearest_intersecting_tuple(t)
        for _ in range(50):
            z = rng.standard_normal(6)
            z /= np.linalg.norm(z)
            blocks = []
            for W in t.subspaces:
                basis = np.column_stack([z, W])
                q, _ = np.linalg.qr(basis)
                blocks.append(q[:, : W.shape[1]])
            probe = SubspaceTuple(6, tuple(blocks))
            assert _is_intersecting(probe)
            assert projection_distance(t, probe) >= cert.distance - 1e-8


def test_certificate_two_orthogonal_lines():
    # minimizers are non-unique here; the binding claims are the distance
    # value and that the returned blocks actually coincide in one line
    t = SubspaceTuple(2, (_line(1, 0), _line(0, 1)))
    cert = nearest_intersecting_tuple(t)
    assert math.isclose(cert.distance, 1.0, rel_tol=1e-12)
    b0 = cert.nearest.subspaces[0][:, 0]
    b1 = cert.nearest.subspaces[1][:, 0]
    assert abs(abs(float(b0 @ b1)) - 1.0) <= 1e-8
    assert _is_intersecting(cert.nearest)


def test_certificate_intersecting_input_returns_input():
    # (e1, e1) in R^3, and W_1 = [e1 e2], W_2 = [e3 e1] in R^4: both share
    # e1, so the kernel vector v of U has v_i on e1's column of W_i and both
    # witnesses W_i v_i / ||v_i|| are +-e1 (W_i[:, 0] would give e3 as well)
    e = np.eye(4)
    for t in (SubspaceTuple(3, (e[:3, :1], e[:3, :1])),
              SubspaceTuple(4, (e[:, [0, 1]], e[:, [2, 0]]))):
        cert = nearest_intersecting_tuple(t)
        assert cert.distance == 0.0
        assert cert.nearest is t
        for x in cert.witness_directions:
            assert np.abs(np.abs(x) - e[: t.ambient_dim, 0]).max() <= 1e-12


def _svd_witnesses(t):
    """The witnesses from an SVD of Y = [W_i v_i / ||v_i||], the reference
    for the closed-form rank-(r-1) step, and the gap sigma_(r-1)(Y) -
    sigma_r(Y) that makes its least singular triplet unique."""
    _, v, _ = least_singular_triplet(t.stacked())
    offsets = np.cumsum((0,) + t.block_dims)
    Y = np.column_stack([
        W @ (v[a:b] / np.linalg.norm(v[a:b]))
        for W, a, b in zip(t.subspaces, offsets, offsets[1:])
    ])
    u, s, vt = np.linalg.svd(Y, full_matrices=False)
    X = (u[:, :-1] * s[:-1]) @ vt[:-1]
    return X / np.linalg.norm(X, axis=0), s[-2] - s[-1]


def test_witnesses_match_the_svd_of_y():
    rng = rng_for(51)
    checked = 0
    for k in range(45):
        t = random_subspace_tuple(rng, 9, (2, 1, 3))
        pull = (0.0, 1e-3, 1e-6)[k % 3]
        if pull:
            W1, W2 = t.subspaces[0], t.subspaces[1]
            W2 = np.linalg.qr(W1[:, :1] + pull * W2)[0]
            t = SubspaceTuple(9, (W1, W2, t.subspaces[2]))
        reference, gap = _svd_witnesses(t)
        if gap < 1e-3:
            continue
        X = np.column_stack(nearest_intersecting_tuple(t).witness_directions)
        assert np.abs(X - reference).max() <= 1e-12
        checked += 1
    assert checked >= 30


def test_certificate_takes_2_svds_for_any_r(monkeypatch):
    # one for sigma_n(U) and its vector, then one values-only SVD of the
    # N x r witnesses; the rank-(r-1) step and the distance take none
    rng = rng_for(52)
    shapes = []
    calls = count_svd_calls(monkeypatch, shapes=shapes)
    for dims in ((2, 1), (2, 1, 3), (1,) * 6, (3, 2, 2, 1, 1)):
        t = random_subspace_tuple(rng, 12, dims)
        calls.clear()
        shapes.clear()
        nearest_intersecting_tuple(t)
        assert calls == [True, False]
        assert shapes[1] == (12, len(dims))


def test_nearest_is_the_eager_construction_bit_for_bit():
    rng = rng_for(54)
    for dims in ((2, 1), (2, 1, 3), (1, 1, 1)):
        t = random_subspace_tuple(rng, 9, dims)
        cert = nearest_intersecting_tuple(t)
        eager = SubspaceTuple(9, tuple(
            _rotate_to_contain(W, x) for W, x in zip(t.subspaces, cert.witness_directions)
        ))
        assert [W.tobytes() for W in cert.nearest.subspaces] == [
            W.tobytes() for W in eager.subspaces
        ]


def test_nearest_is_built_on_its_first_read_only(monkeypatch):
    t = random_subspace_tuple(rng_for(55), 9, (2, 1, 3))
    calls = []

    def counted(W, x):
        calls.append(1)
        return _rotate_to_contain(W, x)

    monkeypatch.setattr(grassmann, "_rotate_to_contain", counted)
    cert = nearest_intersecting_tuple(t)
    assert len(calls) == 0
    first = cert.nearest
    assert len(calls) == len(t.subspaces)
    assert cert.nearest is first
    assert len(calls) == len(t.subspaces)


def test_projection_distance_retries_a_failed_block_svd(monkeypatch):
    # a block SVD that fails to converge is retried on the transpose, so
    # grassmann --mode dist and certify exit normally
    rng = rng_for(53)
    t, t2 = random_subspace_tuple(rng, 9, (2, 1, 3)), random_subspace_tuple(rng, 9, (2, 1, 3))
    expected = projection_distance(t, t2)
    calls = count_svd_calls(monkeypatch, fail_first=True)
    assert math.isclose(projection_distance(t, t2), expected, rel_tol=1e-12)
    assert calls == [False] * 4


def test_certificate_refuses_degenerate_inputs():
    rng = rng_for(48)
    with pytest.raises(ValueError):
        nearest_intersecting_tuple(random_subspace_tuple(rng, 3, (2, 2)))
    with pytest.raises(ValueError):
        nearest_intersecting_tuple(random_subspace_tuple(rng, 4, (2,)))


def test_certificate_basis_independence():
    rng = rng_for(49)
    for _ in range(15):
        dims = (2, 1, 2)
        t = random_subspace_tuple(rng, 7, dims)
        rotated_blocks = []
        for W in t.subspaces:
            R = random_orthonormal(rng, W.shape[1], W.shape[1])
            rotated_blocks.append(W @ R)
        t2 = SubspaceTuple(7, tuple(rotated_blocks))
        assert math.isclose(
            distance_to_illposed(t), distance_to_illposed(t2), rel_tol=0, abs_tol=1e-12
        )
        assert projection_distance(t, t2) <= 1e-7  # same subspaces
        d1 = nearest_intersecting_tuple(t).distance
        d2 = nearest_intersecting_tuple(t2).distance
        assert abs(d1 - d2) <= 1e-10


def test_certificate_error_carries_residuals():
    err = CertificateError("missed", 1e-3, 2e-5)
    assert err.distance_residual == 1e-3
    assert err.intersect_residual == 2e-5


README_TUPLE = '{"N": 3, "blocks": [[[1, 0, 0]], [[0, 1, 0]]]}'


def _recipe_sha256(doc):
    """The README's recipe for input_sha256, from the JSON document alone."""
    blocks = doc["blocks"]
    header = np.array([doc["N"], len(blocks), *map(len, blocks)], dtype="<i8").tobytes()
    return hashlib.sha256(
        header + b"".join(np.array(cols, dtype="<f8").tobytes() for cols in blocks)
    ).hexdigest()


def test_input_sha256_is_pinned_and_follows_the_readme_recipe():
    doc = json.loads(README_TUPLE)
    digest = SubspaceTuple.from_json_dict(doc).sha256()
    assert digest == "9676178105d7ff91284cb26adeb8dd3fdc0143222daaef5acb84cb86ac55736f"
    assert digest == _recipe_sha256(doc)
    variants = [
        {"N": 4, "blocks": [[[1, 0, 0, 0]], [[0, 1, 0, 0]]]},  # N
        {"N": 3, "blocks": [[[1, 0, 0], [0, 1, 0]]]},  # the block split
        {"N": 3, "blocks": [[[0, 1, 0]], [[1, 0, 0]]]},  # the block order
        {"N": 3, "blocks": [[[1, -0.0, 0]], [[0, 1, 0]]]},  # a 0.0 to -0.0
    ]
    for variant in variants:
        changed = SubspaceTuple.from_json_dict(variant).sha256()
        assert changed == _recipe_sha256(variant) != digest


def test_tuple_json_roundtrip_and_hash_echo():
    rng = rng_for(50)
    t = random_subspace_tuple(rng, 5, (2, 1))
    j = t.to_json_dict()
    t2 = SubspaceTuple.from_json_dict(json.loads(json.dumps(j)))
    for a, b in zip(t.subspaces, t2.subspaces):
        assert np.array_equal(a, b)
    cert = nearest_intersecting_tuple(t)
    payload = cert.to_json_dict()
    assert payload["input_sha256"] == t.sha256()
    assert "distance" in payload and "nearest" in payload
    assert set(payload["diagnostics"]) == {
        "sigma_min",
        "distance_residual",
        "intersect_residual",
    }


def test_tangent_tuples_feed_grassmann_directly():
    rng = rng_for(89)
    for bases in (
        cpd_tangent_tuple(random_cpd(rng, (3, 3, 2), 2)),
        waring_tangent_tuple(random_waring(rng, 4, 3, 2)),
    ):
        assert type(bases) is SubspaceTuple
        sigma = distance_to_illposed(bases)
        cert = nearest_intersecting_tuple(bases)
        assert abs(cert.distance - sigma) <= 1e-8


def test_tuple_validation():
    with pytest.raises(ValueError):
        SubspaceTuple(3, (np.array([[1.0], [1.0], [0.0]]),))
    with pytest.raises(ValueError):
        SubspaceTuple(3, ())


@st.composite
def subspace_tuples(draw, fits=False):
    """Random tuples with r in 1..4 blocks of dims 1..3 in R^N, N <= 12.

    With fits, r >= 2 and n <= N, the inputs a certificate accepts;
    otherwise n may exceed N.  Some pull one column of the second block
    toward the first block's, so sigma_n falls to about the pull size.
    """
    r = draw(st.integers(2 if fits else 1, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    N = draw(st.integers(sum(dims) if fits else max(dims), 12))
    pull = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.standard_normal((N, n)) for n in dims]
    if pull and r > 1:
        blocks[1][:, 0] = blocks[0][:, 0] + pull * blocks[1][:, 0]
    return SubspaceTuple(N, tuple(np.linalg.qr(B)[0] for B in blocks))


@given(subspace_tuples(), st.integers(0, 2**32 - 1))
def test_distance_and_verdict_ignore_the_bases(t, seed):
    rng = np.random.default_rng(seed)
    moved = SubspaceTuple(
        t.ambient_dim,
        tuple(W @ random_orthonormal(rng, W.shape[1], W.shape[1]) for W in t.subspaces),
    )
    dist, moved_dist = distance_to_illposed(t), distance_to_illposed(moved)
    assert abs(dist - moved_dist) <= ROUNDING_TOL
    if t.n > t.ambient_dim:
        assert dist == moved_dist == 0.0
    if abs(dist - CERTIFICATE_TOL) > ROUNDING_TOL:
        assert _is_intersecting(t) == _is_intersecting(moved)


@given(subspace_tuples(fits=True))
def test_certificate_is_met_or_raises_with_residuals(t):
    try:
        cert = nearest_intersecting_tuple(t)
    except CertificateError as err:
        residuals = (err.distance_residual, err.intersect_residual)
        assert all(math.isfinite(x) for x in residuals)
        assert max(residuals) > CERTIFICATE_TOL
        return
    assert cert.diagnostics["distance_residual"] <= CERTIFICATE_TOL
    assert cert.diagnostics["intersect_residual"] <= CERTIFICATE_TOL
    # the witnesses are columns of the nearest blocks, so their sigma_min
    # bounds the nearest tuple's sigma_n, up to rounding
    sigma, sigma_1 = least_singular_values(cert.nearest.stacked())
    assert sigma <= cert.diagnostics["intersect_residual"] + 1e-15 * max(1.0, sigma_1)
    # the closed-form distance is the projector distance to the nearest tuple
    assert abs(projection_distance(t, cert.nearest) - cert.distance) <= 1e-12
    assert abs(cert.distance - distance_to_illposed(t)) <= CERTIFICATE_TOL
    assert _is_intersecting(cert.nearest)


@given(subspace_tuples(), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-4, 1e-9]))
def test_projection_distance_is_symmetric_and_triangular(x, seed, step):
    # y is a random tuple of x's shape, z sits a small step off x, so the
    # triangle is checked with near-zero sides as well as order-one ones
    rng = np.random.default_rng(seed)
    y = random_subspace_tuple(rng, x.ambient_dim, x.block_dims)
    z = SubspaceTuple(
        x.ambient_dim,
        tuple(
            np.linalg.qr(W + step * rng.standard_normal(W.shape))[0] for W in x.subspaces
        ),
    )
    for a, b in ((x, y), (x, z), (y, z)):
        assert abs(projection_distance(a, b) - projection_distance(b, a)) <= ROUNDING_TOL
    assert projection_distance(x, x) <= ROUNDING_TOL
    for a, b, c in ((x, y, z), (x, z, y), (y, x, z)):
        assert projection_distance(a, b) <= (
            projection_distance(a, c) + projection_distance(c, b) + ROUNDING_TOL
        )
