"""Experiment harness: seeding, the random model, divergent sequences,
curve regressions, refinement, and the forward-error study."""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from joincond import (
    CPDecomposition,
    ModelParams,
    RankOneTerm,
    assemble_cpd,
    cpd_condition_number,
    cpd_refine,
    derive_seed,
    desilva_lim_sequence,
    example_41_kappa,
    example_42_kappa,
    example_42_kappa_analytic,
    normalize_decomposition,
    paatero_sequence,
    run_forward_error_experiment,
    sequence_table,
    write_csv,
)
from joincond.blas import openblas_controls
from joincond.condition import RANK_TOL_FACTOR
from joincond.tensor import khatri_rao
import joincond.experiments as experiments
from joincond.experiments import (
    MODEL_CORE_RANKS,
    MODEL_DIMS,
    MODEL_RANK,
    MODEL_RATE,
    MODEL_TAU,
    ExperimentRecord,
    _match_columns,
    _run_sample,
    make_rng,
    splitmix64,
)
from conftest import count_svd_calls, kron, orthogonal_cpd, random_cpd, rng_for, run_cli

GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_reference_stream():
    # outputs of the canonical seed-0 stream (state advances by the golden
    # constant, so consecutive outputs are splitmix64 of 0, gamma, 2*gamma)
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(GOLDEN) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * GOLDEN) % 2**64) == 0x06C45D188009454F


def test_derive_seed_determinism_and_spread():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    seen = {derive_seed(7, s, j) for s in range(20) for j in range(20)}
    assert len(seen) == 400
    assert derive_seed(1, 5, 5) != derive_seed(2, 5, 5)


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(8)
    b = make_rng(123).standard_normal(8)
    assert np.array_equal(a, b)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(samples=0)
    assert MODEL_DIMS == (6, 5, 4, 4)
    assert MODEL_CORE_RANKS == (1, 2, 3, 4)
    assert MODEL_RANK == 6 and MODEL_RATE == 0.2 and MODEL_TAU == 5e-4


def _model_tensor(seed, s):
    """One model instance through _draw_model, as _run_sample draws it, and
    its tensor."""
    _, decomp = experiments._draw_model(make_rng(seed), s)
    return decomp, assemble_cpd(decomp)


def test_model_draw_deterministic():
    d1, t1 = _model_tensor(9, 5)
    d2, t2 = _model_tensor(9, 5)
    assert np.array_equal(t1, t2)
    for a, b in zip(d1.terms, d2.terms):
        assert a.mu == b.mu
        for x, y in zip(a.vectors, b.vectors):
            assert np.array_equal(x, y)
    d3, t3 = _model_tensor(10, 5)
    assert not np.array_equal(t1, t3)


def test_model_draw_matches_direct_draw():
    # replay the documented draw order (per mode: C, X, Y) and rebuild A_k
    seed, s = 21, 12
    decomp, tensor = _model_tensor(seed, s)
    rng = make_rng(seed)
    damp = 2.0 ** (-MODEL_RATE * s)
    mats = []
    for m_k, c_k in zip(MODEL_DIMS, MODEL_CORE_RANKS):
        C = rng.standard_normal((m_k, MODEL_RANK))
        X = rng.standard_normal((MODEL_RANK, c_k))
        Y = rng.standard_normal((MODEL_RANK, c_k))
        A = C @ (damp * np.eye(MODEL_RANK) + X @ Y.T)
        mats.append(A / np.linalg.norm(A))
    direct = np.zeros(int(np.prod(MODEL_DIMS)))
    for i in range(MODEL_RANK):
        direct += kron([M[:, i] for M in mats])
    assert np.allclose(tensor.ravel(), direct, rtol=1e-12, atol=1e-14)
    assert decomp.rank == MODEL_RANK


def test_model_factors_shrink_toward_core():
    # as s grows each normalized factor approaches its low-rank limit
    seed = 4
    gaps = []
    for s in (10, 30, 50):
        rng = make_rng(seed)
        damp = 2.0 ** (-MODEL_RATE * s)
        total = 0.0
        for m_k, c_k in zip(MODEL_DIMS, MODEL_CORE_RANKS):
            C = rng.standard_normal((m_k, MODEL_RANK))
            X = rng.standard_normal((MODEL_RANK, c_k))
            Y = rng.standard_normal((MODEL_RANK, c_k))
            A = C @ (damp * np.eye(MODEL_RANK) + X @ Y.T)
            limit = C @ (X @ Y.T)
            total += np.linalg.norm(
                A / np.linalg.norm(A) - limit / np.linalg.norm(limit)
            )
        gaps.append(total)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_paatero_sequence_structure():
    d = paatero_sequence(5, 3)
    assert d.dims == (5, 4, 3)
    assert d.rank == 3
    # same seed, same s: identical; same seed, larger s: same directions
    d2 = paatero_sequence(5, 3)
    assert np.array_equal(assemble_cpd(d), assemble_cpd(d2))


def test_paatero_sum_converges_terms_diverge():
    seed = 1
    diffs = []
    norms = []
    for s in (8, 24, 40):
        t1 = assemble_cpd(paatero_sequence(seed, s))
        t2 = assemble_cpd(paatero_sequence(seed, s + 16))
        diffs.append(np.linalg.norm(t2 - t1))
        norms.append(max(t.mu for t in paatero_sequence(seed, s).terms))
    assert diffs[0] > diffs[1] > diffs[2]
    # max term norm grows like 2^(3s/16): ratio 2^3 per 16 steps
    assert norms[1] / norms[0] == pytest.approx(8.0, rel=0.5)
    assert norms[2] / norms[1] == pytest.approx(8.0, rel=0.5)


def test_paatero_kappa_grows():
    rows = sequence_table(paatero_sequence, 3, range(1, 41))
    kappas = [row[1] for row in rows]
    assert kappas[-1] / kappas[0] > 1e4
    violations = sum(1 for a, b in zip(kappas, kappas[1:]) if b < a)
    assert violations <= 2


def test_desilva_lim_sequence_structure_and_limit():
    seed, s = 2, 60
    d = desilva_lim_sequence(seed, s)
    assert d.dims == (5, 3, 2)
    assert d.rank == 2
    # analytic limit from expanding the two terms to first order in eps
    rng = make_rng(seed)
    B1 = rng.standard_normal((5, 2))
    B2 = rng.standard_normal((3, 2))
    B3 = rng.standard_normal((2, 2))
    limit = (
        kron([B1[:, 1], B2[:, 0], B3[:, 0]])
        + kron([B1[:, 0], B2[:, 1], B3[:, 0]])
        + kron([B1[:, 0], B2[:, 0], B3[:, 1]])
    )
    assembled = assemble_cpd(d).ravel()
    assert np.linalg.norm(assembled - limit) <= 1e-2 * np.linalg.norm(limit)
    closer = assemble_cpd(desilva_lim_sequence(seed, s + 20)).ravel()
    assert np.linalg.norm(closer - limit) < np.linalg.norm(assembled - limit)


def test_desilva_lim_terms_diverge():
    seed = 6
    n1 = [t.mu for t in desilva_lim_sequence(seed, 10).terms]
    n2 = [t.mu for t in desilva_lim_sequence(seed, 50).terms]
    assert min(n2) / max(n1) > 2.0 ** (40.0 / 5.0) / 8.0
    rows = sequence_table(desilva_lim_sequence, 6, range(1, 31))
    kappas = [row[1] for row in rows]
    assert kappas[-1] > kappas[0] * 1e3


def test_desilva_lim_rank_tolerance_crossing():
    # At seed 42 kappa turns infinite because sigma_min falls below
    # RANK_TOL_FACTOR * sigma_1, not because n > N: sigma_min is
    # 1.67e-14 at s = 74 and 1.10e-14 at s = 75, with sigma_1 ~ 1.414, about
    # 18% and 22% either side of the tolerance.
    rows = sequence_table(desilva_lim_sequence, 42, range(1, 91))
    assert [s for s, kappa, _ in rows if not math.isfinite(kappa)] == list(range(75, 91))
    for s in range(75, 91):
        report = cpd_condition_number(desilva_lim_sequence(42, s))
        assert report.n == 16 and report.N == 30
        assert report.sigma_min <= RANK_TOL_FACTOR * report.sigma_1
    paatero = sequence_table(paatero_sequence, 42, range(1, 91))
    assert all(math.isfinite(kappa) for _, kappa, _ in paatero)


def _reference_paatero(seed, s):
    """paatero_sequence as written before its draws were cached: a fresh
    generator per step."""
    rng = make_rng(seed)
    A1 = rng.standard_normal((5, 3))
    A2 = rng.standard_normal((4, 3))
    A3 = rng.standard_normal((3, 3))
    lam = 2.0 ** (3.0 * s / 16.0)
    eps = 2.0 ** (-3.0 * s / 16.0 - 1.0)
    return normalize_decomposition([
        np.column_stack([-lam * (A1[:, 0] + A1[:, 1]), lam * A1[:, 1],
                         lam * (A1[:, 0] + eps * A1[:, 2])]),
        np.column_stack([A2[:, 0], A2[:, 0] + eps * A2[:, 2], A2[:, 0] + eps * A2[:, 1]]),
        np.column_stack([A3[:, 0], A3[:, 0] + eps * A3[:, 2], A3[:, 0] + eps * A3[:, 1]]),
    ])


def _reference_desilva_lim(seed, s):
    """desilva_lim_sequence with a fresh generator per step."""
    rng = make_rng(seed)
    B1 = rng.standard_normal((5, 2))
    B2 = rng.standard_normal((3, 2))
    B3 = rng.standard_normal((2, 2))
    lam = 2.0 ** (s / 5.0)
    eps = 2.0 ** (-s / 5.0)
    return normalize_decomposition([
        np.column_stack([lam * (B1[:, 0] + eps * B1[:, 1]), -lam * B1[:, 0]]),
        np.column_stack([B2[:, 0] + eps * B2[:, 1], B2[:, 0]]),
        np.column_stack([B3[:, 0] + eps * B3[:, 1], B3[:, 0]]),
    ])


def _decomp_bytes(decomp):
    return [(np.float64(t.mu).tobytes(), [v.tobytes() for v in t.vectors]) for t in decomp.terms]


@pytest.mark.parametrize("sequence, reference", [(paatero_sequence, _reference_paatero),
                                                 (desilva_lim_sequence, _reference_desilva_lim)])
def test_sequences_draw_once_per_seed_and_keep_every_byte(sequence, reference, monkeypatch):
    for seed in range(5):
        for s in range(1, 91):
            assert _decomp_bytes(sequence(seed, s)) == _decomp_bytes(reference(seed, s)), (seed, s)
    # a 90-step pass draws once: make_rng runs for its first step only
    made = []
    real = experiments.make_rng

    def counted(seed):
        made.append(seed)
        return real(seed)

    monkeypatch.setattr(experiments, "make_rng", counted)
    experiments._sequence_draws.cache_clear()
    for s in range(1, 91):
        sequence(7, s)
    assert made == [7]


def test_cached_sequence_draws_are_read_only():
    paatero_sequence(3, 1)
    draws = experiments._sequence_draws(3, ((5, 3), (4, 3), (3, 3)))
    for M in draws:
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 0.0
    assert _decomp_bytes(paatero_sequence(3, 40)) == _decomp_bytes(_reference_paatero(3, 40))


def test_example_41_constant_kappa():
    for t in np.arange(0.1, 3.05, 0.1):
        engine, analytic = example_41_kappa(float(t))
        assert analytic == 1.0
        assert abs(engine - 1.0) <= 1e-10


def test_example_42_engine_matches_analytic():
    for t in np.linspace(1.0, 12.0, 50):
        engine, analytic = example_42_kappa(float(t))
        assert math.isclose(engine, analytic, rel_tol=1e-10)


def test_example_42_even_subsequence_bounded():
    # at t = sqrt(2 k pi) the tangent angle approaches a constant
    target = 1.0 / math.sqrt(1.0 - 1.0 / math.sqrt(5.0))
    values = [example_42_kappa(math.sqrt(2.0 * k * math.pi)).engine for k in (50, 200, 800)]
    errors = [abs(v - target) for v in values]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-2


def test_example_42_odd_subsequence_diverges():
    # t = sqrt(k pi / 2), odd k: kappa grows without bound
    small = example_42_kappa(math.sqrt(2.0 * 10 * math.pi)).engine
    ks = [101, 1001, 10001]
    vals = [example_42_kappa(math.sqrt(k * math.pi / 2.0)).engine for k in ks]
    assert vals[0] > small
    assert vals[2] > 100.0
    assert example_42_kappa_analytic(math.sqrt(10001 * math.pi / 2.0)) == pytest.approx(
        vals[2], rel=1e-10
    )


def test_refine_exact_init_converges_immediately():
    rng = rng_for(100)
    d = random_cpd(rng, (3, 3, 3), 2)
    res = cpd_refine(d, assemble_cpd(d))
    assert res.converged
    assert res.iterations <= 1
    assert res.objective <= 1e-14


def test_refine_recovers_from_perturbed_init():
    rng = rng_for(101)
    base = orthogonal_cpd(rng, (4, 4, 4), 2)
    target = assemble_cpd(base)
    mats = [np.zeros((4, 2)) for _ in range(3)]
    for i, term in enumerate(base.terms):
        scale = term.mu ** (1.0 / 3.0)
        for k, v in enumerate(term.vectors):
            mats[k][:, i] = scale * v
    noisy = [M + 5e-4 * rng.standard_normal(M.shape) for M in mats]
    from joincond import normalize_decomposition

    init = normalize_decomposition(noisy)
    res = cpd_refine(init, target)
    assert res.converged
    assert res.objective <= 1e-14
    assert res.iterations >= 1
    assert np.linalg.norm(assemble_cpd(res.decomposition) - target) <= 1e-6


def test_refine_off_model_target_reports_failure_without_raising():
    rng = rng_for(102)
    d = random_cpd(rng, (3, 3, 3), 1)
    target = rng.standard_normal((3, 3, 3))
    res = cpd_refine(d, target, max_iterations=60)
    assert res.objective > 1e-10
    assert res.iterations <= 60
    assert isinstance(res.converged, bool)


def test_refine_shape_mismatch_rejected():
    rng = rng_for(103)
    d = random_cpd(rng, (3, 3), 1)
    target = np.zeros((3, 4))
    with pytest.raises(ValueError):
        cpd_refine(d, target)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_refine_rejects_a_non_finite_target(bad):
    # (3,3,3) r=2: a nan entry used to raise "overflows at scale 1.76" and an
    # inf one "overflows at scale inf"; the target is now checked first
    d = random_cpd(rng_for(104), (3, 3, 3), 2)
    target = assemble_cpd(d)
    target[1, 2, 0] = bad
    with pytest.raises(ValueError, match="target has a non-finite entry"):
        cpd_refine(d, target)


@pytest.mark.parametrize("big", [1e100, 1e150, 1e200])
@pytest.mark.parametrize("perturbed", [False, True])
def test_refine_at_extreme_scale_converges_at_the_targets_scale(big, perturbed):
    # A random (3,3,3) r=2 input with mu = (big, 1), against a zero target or
    # its own tensor times 1 + 1e-9.  Each used to overflow with a
    # RuntimeWarning (an error under this suite's filterwarnings): in the
    # first objective at 1e200, in a trial step's objective or assembly at
    # 1e100 and 1e150; then the absolute damping left 1e100 and 1e150
    # unconverged and 1e200 raised ValueError.  The refiner now works at the
    # target's scale, times 2^(dk), where each converges without a warning;
    # the objectives are those of the rescaled problem.
    d = random_cpd(rng_for(108), (3, 3, 3), 2)
    d = CPDecomposition(tuple(RankOneTerm(mu, t.vectors) for mu, t in zip((big, 1.0), d.terms)))
    target = assemble_cpd(d) * (1 + 1e-9) if perturbed else np.zeros((3, 3, 3))
    res = cpd_refine(d, target)
    assert all(math.isfinite(objective) for objective, _, _ in res.trace)
    assert res.converged and res.objective <= experiments.OBJECTIVE_TOL
    assert np.linalg.norm((assemble_cpd(res.decomposition) - target) / big) <= 1e-6


def test_refine_recovers_a_term_of_norm_1e100():
    # (3,3,3) r=2 with one factor column scaled by 1e100, from an init
    # perturbed by 1e-4 relative: the absolute damping (1e-2 up to 1e14)
    # against J^T J entries near 1e133 rejected all 16 dampings and stopped
    # after one iteration.  At the target's scale two steps converge.
    rng = rng_for(109)
    mats = [rng.standard_normal((3, 2)) for _ in range(3)]
    mats[0][:, 0] *= 1e100
    target = assemble_cpd(normalize_decomposition(mats))
    init = normalize_decomposition(
        [A + 1e-4 * np.linalg.norm(A, axis=0) * rng.standard_normal(A.shape) for A in mats]
    )
    res = cpd_refine(init, target)
    assert res.converged and res.iterations <= 5
    assert all(rejected == 0 for _, _, rejected in res.trace)
    error = np.linalg.norm(assemble_cpd(res.decomposition) - target)
    assert error <= 1e-6 * np.linalg.norm(target)


def test_refine_rescales_only_outside_the_band(monkeypatch):
    # inside [2^-30, 2^30] nothing is rescaled, so the model's refinements,
    # whose scales lie in [0.0103, 0.266], keep every bit; just outside,
    # the factors and target are multiplied by powers of two
    calls = []
    real = np.ldexp

    def counted(x, k):
        calls.append(k)
        return real(x, k)

    monkeypatch.setattr(np, "ldexp", counted)
    (term,) = random_cpd(rng_for(110), (3, 3, 3), 1).terms
    for mu, rescaled in ((2.0**30, False), (2.0**31, True), (2.0**-30, False), (2.0**-31, True)):
        # one unit rank-one term: the scale is mu, as no entry exceeds it
        d = CPDecomposition((RankOneTerm(mu, term.vectors),))
        calls.clear()
        cpd_refine(d, assemble_cpd(d), max_iterations=2)
        assert bool(calls) == rescaled, mu


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def test_refine_gives_up_when_no_damping_is_accepted(monkeypatch):
    # every damped solve fails, so all 16 dampings 1e-2, ..., 1e13 are
    # rejected in the first iteration and the refiner stops there, with one
    # trace entry
    d = random_cpd(rng_for(106), (3, 3, 3), 2)
    target = rng_for(107).standard_normal((3, 3, 3))
    monkeypatch.setattr(np.linalg, "solve", _singular)
    res = cpd_refine(d, target)
    assert not res.converged
    assert res.iterations == 1
    ((objective, damping, rejected),) = res.trace
    assert objective == res.objective > 0.0
    assert damping >= 1e14 and rejected == 16


def test_refine_returns_the_input_when_a_factor_column_collapses(monkeypatch, caplog):
    # the step zeroes term 2's mode-1 vector and fits the target exactly;
    # normalize_decomposition refuses the zero column, so the input comes
    # back, marked as not converged
    init = normalize_decomposition([np.eye(2), np.eye(2)])
    target = np.outer([1.0, 0.0], [1.0, 0.0])
    step = np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    monkeypatch.setattr(np.linalg, "solve", lambda damped, rhs: step)
    res = cpd_refine(init, target)
    assert res.decomposition is init
    assert not res.converged
    assert (res.iterations, res.objective) == (1, 0.0)
    assert "zero factor column" in caplog.text


def test_match_columns_recovers_permutation():
    rng = rng_for(104)
    P = rng.standard_normal((12, 4))
    perm = np.array([2, 0, 3, 1])
    Q = P[:, perm]
    found = _match_columns(P, Q)
    # column j of Q equals column perm[j] ... found[i] gives Q-column for P-column i
    for i in range(4):
        assert np.allclose(P[:, i], Q[:, found[i]])


def test_run_sample_record_fields():
    params = ModelParams(samples=1, base_seed=3)
    rec = _run_sample(params, 1, 0)
    assert rec.s == 1 and rec.sample == 0
    assert rec.backward >= 0.0 and rec.forward >= 0.0
    if rec.converged:
        assert math.isfinite(rec.kappa)
        assert rec.backward <= 1e-6
        assert math.isclose(
            rec.scaling, rec.forward / (rec.kappa * rec.backward), rel_tol=1e-12
        )


def test_run_sample_takes_kappa_from_one_values_only_svd(monkeypatch):
    # the (6,5,4,4) r=6 core is 480 x 96; values only, LAPACK's gesdd takes
    # its QR itself and np.linalg.qr is never called
    qr_shapes = []
    calls = count_svd_calls(monkeypatch, qr_shapes=qr_shapes)
    rec = _run_sample(ModelParams(samples=1, base_seed=3), 1, 0)
    assert (calls, qr_shapes) == ([False], [])
    assert math.isfinite(rec.kappa)


def test_values_only_kappa_moves_model_records_at_rounding_level_only(monkeypatch):
    # the model cell of the CSV tests, once as is and once with the least
    # vector computed: the refinement is untouched, and kappa, and the
    # scaling factor through it, move by rounding alone
    params = ModelParams(samples=2, base_seed=0)
    values_only = run_forward_error_experiment(params, range(1, 7)).records
    real = experiments.cpd_condition_number
    monkeypatch.setattr(
        experiments, "cpd_condition_number", lambda d, **kw: real(d, **{**kw, "vector": True})
    )
    with_vector = run_forward_error_experiment(params, range(1, 7)).records
    assert len(values_only) == len(with_vector) == 12
    fields = ("s", "sample", "backward", "forward", "converged", "iterations")
    for a, b in zip(values_only, with_vector):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields], (a, b)
        for f in ("kappa", "scaling"):
            x, y = getattr(a, f), getattr(b, f)
            assert math.isnan(x) == math.isnan(y), (f, a, b)
            if not math.isnan(x):
                assert x == y or abs(x - y) <= 1e-13 * abs(y), (f, a, b)


def _degenerate_draws(monkeypatch, count):
    """Make the first `count` model draws degenerate (a zero column) after
    they consume their share of the stream; returns the list of draws made."""
    real = experiments._draw_model_factors
    draws = []

    def draw(rng, s):
        mats = real(rng, s)
        draws.append(mats)
        if len(draws) <= count:
            mats[0][:, 0] = 0.0
        return mats

    monkeypatch.setattr(experiments, "_draw_model_factors", draw)
    return draws


def _second_draw_tensor(seed, s):
    rng = make_rng(seed)
    experiments._draw_model_factors(rng, s)
    mats = experiments._draw_model_factors(rng, s)
    return assemble_cpd(normalize_decomposition(mats))


def test_degenerate_draw_redraws_from_same_stream(monkeypatch):
    params = ModelParams(samples=1, base_seed=4)
    seed, s = 21, 3
    expected = _second_draw_tensor(seed, s)
    draws = _degenerate_draws(monkeypatch, 1)
    _, tensor = _model_tensor(seed, s)
    assert len(draws) == 2
    assert np.array_equal(tensor, expected)

    expected = _second_draw_tensor(derive_seed(params.base_seed, s, 0), s)
    targets = []

    def refine(init, target):
        targets.append(target)
        return experiments.RefineResult(init, True, 0.0, ())

    monkeypatch.setattr(experiments, "cpd_refine", refine)
    draws.clear()
    _run_sample(params, s, 0)
    assert len(draws) == 2
    assert np.array_equal(targets[0], expected)


def test_persistently_degenerate_draws_raise(monkeypatch):
    params = ModelParams(samples=1)
    draws = _degenerate_draws(monkeypatch, math.inf)
    with pytest.raises(RuntimeError):
        _model_tensor(5, 2)
    assert len(draws) == 8
    draws.clear()
    with pytest.raises(RuntimeError):
        _run_sample(params, 2, 0)
    assert len(draws) == 8


def test_forward_error_experiment_small_run(tmp_path):
    params = ModelParams(samples=4, base_seed=5)
    tables = run_forward_error_experiment(params, s_values=(1, 5), out_dir=tmp_path)
    assert len(tables.records) == 8
    assert [row[0] for row in tables.deciles] == [1, 5]
    assert [row[0] for row in tables.kappa_quartiles] == [1, 5]
    for row in tables.deciles:
        values = row[1:]
        assert len(values) == 9
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(8))
    for row in tables.kappa_quartiles:
        q1, med, q3 = row[1:]
        assert q1 <= med <= q3
    deciles_csv = (tmp_path / "scaling_factor_deciles.csv").read_bytes()
    quartiles_csv = (tmp_path / "kappa_quartiles.csv").read_bytes()
    assert deciles_csv.startswith(b"s,decile_1,decile_2")
    assert quartiles_csv.startswith(b"s,q1,median,q3")
    assert b"\r" not in deciles_csv and b"\r" not in quartiles_csv


def test_forward_error_s_without_usable_samples_writes_nan_rows(tmp_path, monkeypatch):
    # a refiner that never converges leaves s = 3 without a usable sample:
    # both tables get a row of NaNs there and every sample is discarded
    monkeypatch.setattr(np.linalg, "solve", _singular)
    params = ModelParams(samples=2, base_seed=5)
    tables = run_forward_error_experiment(params, s_values=(3,), out_dir=tmp_path)
    assert tables.discarded == 2
    assert tables.discard_reasons == {"not converged": 2, "kappa inf": 0, "zero backward": 0}
    assert all(not rec.converged and math.isnan(rec.scaling) for rec in tables.records)
    deciles = (tmp_path / "scaling_factor_deciles.csv").read_text().splitlines()
    quartiles = (tmp_path / "kappa_quartiles.csv").read_text().splitlines()
    assert deciles[1:] == ["3," + ",".join(["nan"] * 9)]
    assert quartiles[1:] == ["3,nan,nan,nan"]


def test_discard_reasons_follow_the_usable_rule_in_order(tmp_path, monkeypatch):
    # hand-made records in place of the model's samples: each dropped one is
    # counted once, under its first reason, and the CSVs aggregate the rest
    nan, inf = math.nan, math.inf
    made = {
        (1, 0): (1e-9, 1e-8, 5.0, 0.2, True),  # usable
        (1, 1): (1e-9, 1e-8, inf, nan, False),  # not converged, kappa inf too
        (1, 2): (1e-9, 1e-8, 5.0, nan, False),  # not converged
        (2, 0): (1e-9, 1e-8, inf, nan, True),  # kappa inf
        (2, 1): (0.0, 0.0, inf, nan, True),  # kappa inf, zero backward too
        (2, 2): (0.0, 0.0, 5.0, nan, True),  # zero backward
    }

    def sample(params, s, j):
        backward, forward, kappa, scaling, converged = made[(s, j)]
        return ExperimentRecord(s, j, backward, forward, kappa, scaling, converged, 3)

    monkeypatch.setattr(experiments, "_run_sample", sample)
    tables = run_forward_error_experiment(ModelParams(samples=3), (1, 2), out_dir=tmp_path)
    assert tables.discard_reasons == {"not converged": 2, "kappa inf": 2, "zero backward": 1}
    assert list(tables.discard_reasons) == list(experiments.DISCARD_REASONS)
    assert tables.discarded == 5
    quartiles = (tmp_path / "kappa_quartiles.csv").read_text().splitlines()
    assert quartiles[1:] == ["1,5.0,5.0,5.0", "2,nan,nan,nan"]


def test_forward_error_experiment_deterministic(tmp_path):
    params = ModelParams(samples=3, base_seed=8)
    t1 = run_forward_error_experiment(params, s_values=(2,), out_dir=tmp_path / "a")
    t2 = run_forward_error_experiment(params, s_values=(2,), out_dir=tmp_path / "b")
    assert t1.records == t2.records
    assert (tmp_path / "a" / "scaling_factor_deciles.csv").read_bytes() == (
        tmp_path / "b" / "scaling_factor_deciles.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "kappa_quartiles.csv").read_bytes() == (
        tmp_path / "b" / "kappa_quartiles.csv"
    ).read_bytes()


# Across BLAS thread counts the model CSVs agree only to rounding that the
# refiner's stopping point amplifies.  Measured on 2 vCPUs with OpenBLAS
# 0.3.31, largest relative differences in the kappa quartiles and scaling
# deciles: 8.0e-15 and 3.0e-10 for the cell below, 3.6e-12 and 8.9e-10 for
# --samples 4 --s-max 50.  The bounds sit about 30x and 100x above the
# larger pair, for other CPUs; a change of seed or model moves both at order one.
CROSS_THREAD_RTOL = {"kappa_quartiles.csv": 1e-10, "scaling_factor_deciles.csv": 1e-7}


def _model_cli_csvs(out_dir, threads):
    """Run a small model cell in a fresh interpreter under the given BLAS
    thread count and return its CSVs' bytes."""
    argv = ["experiment", "--name", "model", "--seed", "0", "--samples", "2",
            "--s-min", "1", "--s-max", "6", "--out", str(out_dir)]
    done = run_cli(argv, threads)
    assert done.returncode == 0, done.stderr
    return {name: (out_dir / name).read_bytes() for name in CROSS_THREAD_RTOL}


def test_model_csvs_identical_per_thread_count_and_close_across(tmp_path):
    # The contract: identical flags, numpy/BLAS build and BLAS thread count
    # give identical bytes.  OpenBLAS splits work by thread count, so 1 and
    # 2 threads may differ, but only at rounding level, and not at all where
    # the experiment can pin numpy's OpenBLAS to one thread.
    runs = {}
    for threads in (1, 2):
        first = _model_cli_csvs(tmp_path / f"{threads}a", threads)
        assert _model_cli_csvs(tmp_path / f"{threads}b", threads) == first
        runs[threads] = first
    for name, data in runs[1].items():
        lines = data.decode("ascii").splitlines()
        assert lines[0].startswith("s,") and len(lines) == 7, name  # s = 1..6
    for name, rtol in CROSS_THREAD_RTOL.items():
        one, two = (
            np.loadtxt(io.BytesIO(runs[t][name]), delimiter=",", skiprows=1) for t in (1, 2)
        )
        assert one.shape == two.shape
        np.testing.assert_allclose(two, one, rtol=rtol, atol=0)
    if openblas_controls() is not None:
        assert runs[1] == runs[2]


def _dense_jacobian(mats):
    """The factor Jacobian built with one chained Kronecker product per
    (mode, term) block: the reference for the Gram-built normal equations."""
    r = mats[0].shape[1]
    blocks = []
    for k, M in enumerate(mats):
        for i in range(r):
            factors = [F[:, i:i + 1] for F in mats]
            factors[k] = np.eye(M.shape[0])
            blocks.append(kron(factors))
    return np.hstack(blocks)


def _dense_normal_equations(mats, residual):
    J = _dense_jacobian(mats)
    return J.T @ J, J.T @ residual


@given(
    dims=st.integers(2, 4).flatmap(
        lambda d: st.lists(st.integers(1, 7), min_size=d, max_size=d)
    ),
    r=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_normal_equations_match_dense_jacobian(dims, r, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((m, r)) for m in dims]
    residual = rng.standard_normal(int(np.prod(dims)))
    hessian, gradient = experiments._normal_equations(mats, residual)
    J = _dense_jacobian(mats)
    # relative to the largest |J|^T |J| and |J|^T |r|, the scales of the
    # rounding error in either build
    absJ = np.abs(J)
    assert np.array_equal(hessian, hessian.T)
    assert np.abs(hessian - J.T @ J).max() <= 1e-13 * (absJ.T @ absJ).max()
    assert np.abs(gradient - J.T @ residual).max() <= 1e-13 * (absJ.T @ np.abs(residual)).max()


def _blockwise_normal_equations(mats, residual):
    """The normal equations block by block, one numpy expression per block:
    the reference whose bytes the gather-plan build must reproduce."""
    d = len(mats)
    r = mats[0].shape[1]
    dims = [M.shape[0] for M in mats]
    offsets = np.cumsum([0] + [m * r for m in dims])
    grams = [M.T @ M for M in mats]

    def hadamard(skip):
        W = np.ones_like(grams[0])
        for p, G in enumerate(grams):
            if p not in skip:
                W = W * G
        return W

    hessian = np.empty((offsets[-1], offsets[-1]))
    gradient = np.empty(offsets[-1])
    R = residual.reshape(dims)
    for k, (A, m) in enumerate(zip(mats, dims)):
        rows = slice(offsets[k], offsets[k + 1])
        block = hadamard((k,))[:, None, :, None] * np.eye(m)[None, :, None, :]
        hessian[rows, rows] = block.reshape(r * m, r * m)
        for l in range(k + 1, d):
            cols = slice(offsets[l], offsets[l + 1])
            W = hadamard((k, l))
            block = W[:, None, :, None] * A[None, :, :, None] * mats[l].T[:, None, None, :]
            hessian[rows, cols] = block.reshape(r * m, r * dims[l])
            hessian[cols, rows] = hessian[rows, cols].T
        others = [mats[p] for p in range(d) if p != k] or [np.ones((1, r))]
        mttkrp = np.moveaxis(R, k, 0).reshape(m, -1) @ khatri_rao(others)
        gradient[rows] = mttkrp.T.ravel()
    return hessian, gradient


def _assert_same_bytes(mats, residual):
    hessian, gradient = experiments._normal_equations(mats, residual)
    ref_hessian, ref_gradient = _blockwise_normal_equations(mats, residual)
    assert hessian.shape == ref_hessian.shape
    assert hessian.tobytes() == ref_hessian.tobytes()
    assert gradient.tobytes() == ref_gradient.tobytes()


@given(
    dims=st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(1, 7), min_size=d, max_size=d)
    ),
    r=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-3, 3),
    signed_zero=st.booleans(),
)
def test_normal_equations_are_the_blockwise_bytes(dims, r, seed, exponent, signed_zero):
    rng = np.random.default_rng(seed)
    mats = [10.0**exponent * rng.standard_normal((m, r)) for m in dims]
    if signed_zero:
        # a -0.0 factor entry gives -0.0 and +0.0 products, which the
        # gathers must keep apart
        mats[0][0, 0] = -0.0
    residual = rng.standard_normal(int(np.prod(dims)))
    _assert_same_bytes(mats, residual)


def test_normal_equations_bytes_at_the_model_shape_on_cache_miss_and_hit():
    rng = rng_for(130)
    mats = [rng.standard_normal((m, MODEL_RANK)) for m in MODEL_DIMS]
    residual = rng.standard_normal(int(np.prod(MODEL_DIMS)))
    experiments._gather_plan.cache_clear()
    miss = experiments._normal_equations(mats, residual)
    hit = experiments._normal_equations(mats, residual)
    info = experiments._gather_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert [a.tobytes() for a in miss] == [a.tobytes() for a in hit]
    _assert_same_bytes(mats, residual)


def test_gather_plan_cache_is_bounded():
    bound = experiments._gather_plan.cache_info().maxsize
    assert bound is not None
    rng = rng_for(131)
    experiments._gather_plan.cache_clear()
    shapes = [((m, 2, 3), 2) for m in range(1, bound + 6)]
    for dims, r in shapes + shapes[:3]:
        mats = [rng.standard_normal((m, r)) for m in dims]
        _assert_same_bytes(mats, rng.standard_normal(int(np.prod(dims))))
    info = experiments._gather_plan.cache_info()
    assert info.currsize == bound
    # the first three shapes were evicted, so they miss again
    assert (info.misses, info.hits) == (len(shapes) + 3, 0)


def _model_refine_problem(params, s, sample):
    rng = make_rng(derive_seed(params.base_seed, s, sample))
    mats, decomp = experiments._draw_model(rng, s)
    init = normalize_decomposition(
        [B + MODEL_TAU * rng.standard_normal(B.shape) for B in mats]
    )
    return init, assemble_cpd(decomp)


@pytest.mark.parametrize("s", [1, 25, 50])
def test_refine_with_gram_equations_matches_dense_jacobian(monkeypatch, s):
    params = ModelParams(samples=3)
    problems = [_model_refine_problem(params, s, j) for j in range(params.samples)]
    fast = [cpd_refine(init, target) for init, target in problems]
    monkeypatch.setattr(experiments, "_normal_equations", _dense_normal_equations)
    for (init, target), got in zip(problems, fast):
        ref = cpd_refine(init, target)
        assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
        assert [t[1:] for t in got.trace] == [t[1:] for t in ref.trace]
        # the final objectives (~1e-16) carry the rounding differences of
        # the iterates; eps times the starting objective is their scale
        start = 0.5 * float(np.sum((assemble_cpd(init) - target) ** 2))
        for a, b in zip(got.trace, ref.trace):
            assert abs(a[0] - b[0]) <= 1e-10 * b[0] + np.finfo(float).eps * start


# What Gram squaring costs.  J has an r(d-1)-dimensional kernel (each term's
# scaling indeterminacy), so the damped normal equations
# (J^T J + lam I) delta = -J^T r have condition number cond_ne =
# (sigma_1(J)^2 + lam) / lam, the square of that of the least-squares form
# [J; sqrt(lam) I] delta = [-r; 0].  At s = 50, the top of the model's s
# range, from the refiner's start on each of the first three samples, the
# relative gap between the two steps measured (2 vCPUs, OpenBLAS 0.3.31)
#   lam = 1e-2: 1.5e-15 .. 2.8e-15     lam = 1e-8:  6.2e-11 .. 4.8e-10
#   lam = 1e-6: 8.0e-13 .. 5.7e-12     lam = 1e-16: 2.9e-3 .. 2.5e-2,
# that is 0.02 .. 0.22 * eps * cond_ne, and up to 1.7 * eps * cond_ne at
# lam = 1e-2, where cond_ne is about 10 and both solves' rounding counts.
# The damping schedule's floor is 1e-16, but over s = 40..50 (20 samples
# each) the refiner accepted no step below lam = 1e-9, where the gap is at
# most a few 1e-9.
@pytest.mark.parametrize("sample", range(3))
@pytest.mark.parametrize("lam", [1e-2, 1e-6, 1e-8, 1e-16])
def test_gram_squaring_cost_of_one_damped_step(sample, lam):
    init, target = _model_refine_problem(ModelParams(), 50, sample)
    scales = np.array([t.mu ** (1.0 / init.order) for t in init.terms])
    mats = [A * scales for A in init.factor_matrices()]  # as cpd_refine starts
    residual = sum(kron([M[:, i] for M in mats]) for i in range(MODEL_RANK)) - target.ravel()
    hessian, gradient = experiments._normal_equations(mats, residual)
    hessian[np.diag_indices_from(hessian)] += lam
    step = np.linalg.solve(hessian, -gradient)

    J = _dense_jacobian(mats)
    n = J.shape[1]
    reference = np.linalg.lstsq(
        np.vstack([J, math.sqrt(lam) * np.eye(n)]),
        np.concatenate([-residual, np.zeros(n)]),
        rcond=None,
    )[0]
    sigma = np.linalg.svd(J, compute_uv=False)
    assert sigma[n - MODEL_RANK * (len(mats) - 1)] <= 1e-14 * sigma[0]  # the kernel
    cond_ne = (sigma[0] ** 2 + lam) / lam
    gap = np.linalg.norm(step - reference) / np.linalg.norm(reference)
    eps = np.finfo(float).eps
    assert gap <= 10 * eps * cond_ne
    if lam == 1e-16:
        # at the floor the squaring shows: the gap is far above the
        # eps * sqrt(cond_ne) error scale of the least-squares form
        assert gap >= 1e3 * eps * math.sqrt(cond_ne)


def test_refine_trace_records_every_iteration():
    params = ModelParams(samples=1)
    init, target = _model_refine_problem(params, 25, 0)
    res = cpd_refine(init, target)
    assert res.converged
    assert res.iterations >= 1
    objectives = [t[0] for t in res.trace]
    assert all(b < a for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] == res.objective
    assert all(damping > 0 and rejected >= 0 for _, damping, rejected in res.trace)

    rng = rng_for(105)
    d = random_cpd(rng, (3, 3, 3), 1)
    off_model = rng.standard_normal((3, 3, 3))
    res = cpd_refine(d, off_model, max_iterations=60)
    objectives = [t[0] for t in res.trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_model_sample_and_kappa_never_call_np_kron(monkeypatch):
    params = ModelParams(samples=1, base_seed=5)
    decomp = random_cpd(rng_for(92), (6, 5, 4, 4), 6)
    expected_record = _run_sample(params, 3, 0)
    expected_kappa = cpd_condition_number(decomp).kappa

    def forbidden(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", forbidden)
    assert _run_sample(params, 3, 0) == expected_record
    assert cpd_condition_number(decomp).kappa == expected_kappa


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", [(1, 0.5), (2, float("inf"))])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.5\n2,inf\n"
