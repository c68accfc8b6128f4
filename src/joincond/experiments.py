"""Experiment harness: the forward-error study on the paper's one random
ill-conditioned CP model (its dims, ranks, rate and start perturbation are
module constants; ModelParams holds only the sample count and base seed),
divergent sequences, regression curves, a small nonlinear least-squares
refiner (normal equations from factor Grams, never the Jacobian).

Determinism contract: every random draw flows through numpy's PCG64 bit
generator (standard_normal uses the ziggurat algorithm), seeded either
directly or through derive_seed, which mixes a base seed with a per-sample
key via the splitmix64 finalizer.  Identical parameters and seeds, run on the
same numpy/BLAS build with the same BLAS thread count, therefore produce
identical outputs, bit for bit.  OpenBLAS splits its work by thread count, so
another thread count can change the CSVs at rounding level; the model
experiment avoids that where it can by running its BLAS single-threaded
(blas.single_threaded).
"""

from __future__ import annotations

import functools
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .blas import single_threaded
from .condition import SubspaceTuple, condition_number
from .segre import cpd_condition_number
from .tensor import (
    CPDecomposition,
    khatri_rao,
    normalize_decomposition,
)

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 finalizer (a 64-bit avalanche mix)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, s: int, sample: int) -> int:
    """Per-sample seed: base_seed XOR splitmix64((s << 32) | sample).

    Each (s, sample) cell gets an independent stream, so results do not
    depend on execution order or parallelism.
    """
    key = ((s & 0xFFFFFFFF) << 32) | (sample & 0xFFFFFFFF)
    return (base_seed ^ splitmix64(key)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# The random model of the forward-error study, with factor matrices
#
#     A_k(s) = C_k (2^(-MODEL_RATE*s) I_r + X_k Y_k^T),   entries i.i.d. N(0, 1),
#
# where r = MODEL_RANK, C_k is MODEL_DIMS[k] x r and X_k, Y_k are
# r x MODEL_CORE_RANKS[k], each A_k scaled to unit Frobenius norm.  As s grows
# each A_k(s) approaches the rank-MODEL_CORE_RANKS[k] matrix C_k X_k Y_k^T,
# which makes the decomposition of the assembled tensor increasingly ill
# conditioned.  The refiner starts from A_k + MODEL_TAU * G_k, G_k standard
# normal.
MODEL_DIMS = (6, 5, 4, 4)
MODEL_CORE_RANKS = (1, 2, 3, 4)
MODEL_RANK = 6
MODEL_RATE = 0.2
MODEL_TAU = 5e-4


@dataclass(frozen=True)
class ModelParams:
    """Samples per s and base seed of the forward-error study."""

    samples: int = 250
    base_seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def _draw_model_factors(rng: np.random.Generator, s: float) -> list[np.ndarray]:
    # Draw order (per mode: C, X, Y) is part of the determinism contract.
    damp = 2.0 ** (-MODEL_RATE * s)
    mats = []
    for m_k, c_k in zip(MODEL_DIMS, MODEL_CORE_RANKS):
        C = rng.standard_normal((m_k, MODEL_RANK))
        X = rng.standard_normal((MODEL_RANK, c_k))
        Y = rng.standard_normal((MODEL_RANK, c_k))
        A = C @ (damp * np.eye(MODEL_RANK) + X @ Y.T)
        mats.append(A / np.linalg.norm(A))
    return mats


def _draw_model(
    rng: np.random.Generator, s: float
) -> tuple[list[np.ndarray], CPDecomposition]:
    """Factor matrices and their normalized decomposition.

    A zero column has probability zero; such a draw is redrawn from the same
    stream, giving up after 8 draws.
    """
    for _ in range(8):
        mats = _draw_model_factors(rng, s)
        try:
            return mats, normalize_decomposition(mats)
        except ValueError:
            logger.warning("degenerate model draw at s=%s, redrawing", s)
    raise RuntimeError("could not draw a nondegenerate model instance")


# ---------------------------------------------------------------------------
# Two classical sequences whose sums converge while the terms diverge.
# The CLI runs them and the model at |s| <= S_LIMIT: from |s| of about 2500
# on, a term norm or the model's damping leaves the double range.
S_LIMIT = 1000


@functools.lru_cache(maxsize=32)
def _sequence_draws(seed: int, shapes: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Standard normal matrices of the given shapes, drawn in order from
    make_rng(seed); read-only, as every step of a sequence shares them."""
    rng = make_rng(seed)
    draws = tuple(rng.standard_normal(shape) for shape in shapes)
    for M in draws:
        M.flags.writeable = False
    return draws


def paatero_sequence(seed: int, s: float) -> CPDecomposition:
    """Rank-3 decompositions in R^(5x4x3) approaching a border tensor.

    With lam = 2^(3s/16) and eps = 1/(2*lam), the three terms are

        -lam (a1 + a2) x b1        x c1
         lam  a2       x (b1+eps b3) x (c1+eps c3)
         lam (a1+eps a3) x (b1+eps b2) x (c1+eps c2)

    where the per-mode vectors are the columns of 5x3, 4x3, 3x3 standard
    normal matrices drawn once per seed.  The assembled tensor converges as
    s grows while the term norms blow up like lam.
    """
    A1, A2, A3 = _sequence_draws(seed, ((5, 3), (4, 3), (3, 3)))
    lam = 2.0 ** (3.0 * s / 16.0)
    eps = 2.0 ** (-3.0 * s / 16.0 - 1.0)
    F1 = np.column_stack([
        -lam * (A1[:, 0] + A1[:, 1]),
        lam * A1[:, 1],
        lam * (A1[:, 0] + eps * A1[:, 2]),
    ])
    F2 = np.column_stack([
        A2[:, 0],
        A2[:, 0] + eps * A2[:, 2],
        A2[:, 0] + eps * A2[:, 1],
    ])
    F3 = np.column_stack([
        A3[:, 0],
        A3[:, 0] + eps * A3[:, 2],
        A3[:, 0] + eps * A3[:, 1],
    ])
    return normalize_decomposition([F1, F2, F3])


def desilva_lim_sequence(seed: int, s: float) -> CPDecomposition:
    """Rank-2 decompositions in R^(5x3x2) approaching a rank-3 tensor.

    With lam = 2^(s/5) and eps = 1/lam, the two terms are

         lam (a1+eps a2) x (b1+eps b2) x (c1+eps c2)
        -lam  a1         x  b1         x  c1

    with per-mode vector pairs drawn once per seed.  The sum converges to
    a2 x b1 x c1 + a1 x b2 x c1 + a1 x b1 x c2 while both term norms diverge.
    """
    B1, B2, B3 = _sequence_draws(seed, ((5, 2), (3, 2), (2, 2)))
    lam = 2.0 ** (s / 5.0)
    eps = 2.0 ** (-s / 5.0)
    F1 = np.column_stack([lam * (B1[:, 0] + eps * B1[:, 1]), -lam * B1[:, 0]])
    F2 = np.column_stack([B2[:, 0] + eps * B2[:, 1], B2[:, 0]])
    F3 = np.column_stack([B3[:, 0] + eps * B3[:, 1], B3[:, 0]])
    return normalize_decomposition([F1, F2, F3])


def sequence_table(
    sequence: Callable[[int, float], CPDecomposition],
    seed: int,
    s_values: Iterable[int],
) -> list[tuple[int, float, float]]:
    """Rows (s, kappa, max term norm) along one of the sequences above."""
    rows = []
    for s in s_values:
        decomp = sequence(seed, s)
        kappa = cpd_condition_number(decomp).kappa
        rows.append((int(s), kappa, max(t.mu for t in decomp.terms)))
    return rows


# ---------------------------------------------------------------------------
# Two explicit curve families used as condition-number regressions.


class CurveKappa(NamedTuple):
    engine: float
    analytic: float


def example_41_kappa(t: float) -> CurveKappa:
    """Two curves in R^3 with orthogonal unit tangents for every t in (0, pi).

    Curve 1 runs along the unit circle in the xy-plane, curve 2 along the
    z-axis, so the stacked tangent matrix always has orthonormal columns and
    the condition number is identically 1 even though the summed curve
    approaches a point with no decomposition.
    """
    u1 = np.array([math.cos(t), math.sin(t), 0.0])
    u2 = np.array([0.0, 0.0, 1.0])
    report = condition_number(
        SubspaceTuple(3, (u1.reshape(-1, 1), u2.reshape(-1, 1)))
    )
    return CurveKappa(engine=report.kappa, analytic=1.0)


def _example_42_tangent(t: float) -> np.ndarray:
    return np.array([
        1.0,
        (-math.sin(t) * t - math.cos(t)) / t**2,
        2.0 * math.cos(t**2) - math.sin(t**2) / t**2,
    ])


def example_42_kappa_analytic(t) -> np.ndarray:
    """Closed form for the oscillating-curve condition number, vectorized.

    The two tangent lines are spanned by (1, 0, 0) and w(t) with
    w = (1, (-t sin t - cos t)/t^2, 2 cos(t^2) - sin(t^2)/t^2); writing
    ||w||^2 = 1 + z, the smallest stacked singular value is
    sqrt(1 - (1 + z)^(-1/2)) = sqrt(2) sin(theta/2), where
    theta = arccos((1+z)^(-1/2)) is the angle between the lines, and kappa
    is its inverse.  kappa oscillates with t and has both bounded and
    divergent subsequences.
    """
    t = np.asarray(t, dtype=float)
    w1 = (-np.sin(t) * t - np.cos(t)) / t**2
    w2 = 2.0 * np.cos(t**2) - np.sin(t**2) / t**2
    z = w1**2 + w2**2
    sigma = np.sqrt(1.0 - 1.0 / np.sqrt(1.0 + z))
    return 1.0 / sigma


def example_42_kappa(t: float) -> CurveKappa:
    """Engine and analytic condition number for the oscillating curve pair."""
    w = _example_42_tangent(t)
    u1 = np.array([1.0, 0.0, 0.0])
    u2 = w / np.linalg.norm(w)
    report = condition_number(
        SubspaceTuple(3, (u1.reshape(-1, 1), u2.reshape(-1, 1)))
    )
    return CurveKappa(engine=report.kappa, analytic=float(example_42_kappa_analytic(t)))


# ---------------------------------------------------------------------------
# Damped Gauss-Newton refinement of a decomposition toward a target tensor.


@dataclass(frozen=True, eq=False)
class RefineResult:
    """Outcome of cpd_refine.

    trace has one (objective, damping, rejected_solves) entry per iteration:
    the objective after it (unchanged when no damping was accepted), the
    damping of the accepted step (or, when none was, the value at which the
    schedule gave up), and how many dampings were rejected in it.  The
    objectives are those of the problem cpd_refine solves, whose target is
    rescaled when its scale is extreme (see cpd_refine).
    """

    decomposition: CPDecomposition
    converged: bool
    objective: float
    trace: tuple[tuple[float, float, int], ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)


class _GatherPlan(NamedTuple):
    # The Hadamard products W_S as rows of the Gram stack, the gather
    # indices of J^T J's distinct entries, and where each of its n^2
    # entries is among them; see _normal_equations.  Read-only, as the cache
    # hands the same arrays to every caller.
    w_modes: np.ndarray
    w_index: np.ndarray
    f_index: np.ndarray
    g_index: np.ndarray
    place: np.ndarray


@functools.lru_cache(maxsize=16)
def _gather_plan(dims: tuple[int, ...], r: int) -> _GatherPlan:
    d = len(dims)
    # W_S for S = {k} (slot k) and S = {k, l}, k < l (slots d, d+1, ...):
    # the modes not in S, in order, padded with slot d of the Gram stack,
    # which holds ones
    pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
    w_modes = np.full((d + len(pairs), max(d - 1, 1)), d)
    for slot, skip in enumerate([(k,) for k in range(d)] + pairs):
        others = [p for p in range(d) if p not in skip]
        w_modes[slot, :len(others)] = others
    slot_of = np.diag(np.arange(d))
    for slot, (k, l) in enumerate(pairs, start=d):
        slot_of[k, l] = slot_of[l, k] = slot

    # mode k, term i and entry a of each row of J^T J
    mode = np.repeat(np.arange(d), [r * m for m in dims])
    term = np.concatenate([np.repeat(np.arange(r), m) for m in dims])
    entry = np.concatenate([np.tile(np.arange(m), r) for m in dims])
    # the factor stack: A_1, ..., A_d flattened row-major, then 0.0 and 1.0
    f_offset = np.cumsum([0] + [m * r for m in dims])
    zero, one = f_offset[-1], f_offset[-1] + 1
    # entry (p, q) of a block below the diagonal is entry (q, p) above it
    upper = mode[:, None] <= mode[None, :]
    k, l = np.where(upper, mode[:, None], mode), np.where(upper, mode, mode[:, None])
    i, j = np.where(upper, term[:, None], term), np.where(upper, term, term[:, None])
    a, b = np.where(upper, entry[:, None], entry), np.where(upper, entry, entry[:, None])
    diagonal = k == l
    w_index = ((slot_of[k, l] * r + i) * r + j).ravel()
    f_index = np.where(diagonal, np.where(a == b, one, zero), f_offset[k] + a * r + j).ravel()
    g_index = np.where(diagonal, one, f_offset[l] + b * r + i).ravel()
    key = (w_index * (one + 1) + f_index) * (one + 1) + g_index
    _, first, place = np.unique(key, return_index=True, return_inverse=True)
    plan = _GatherPlan(w_modes, w_index[first], f_index[first], g_index[first], place)
    for index in plan:
        index.flags.writeable = False
    return plan


def _normal_equations(
    mats: Sequence[np.ndarray], residual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r for the factor Jacobian J, without forming J.

    J's columns are ordered mode-major, then term, then vector entry, as in
    _apply_step; the column for (mode k, term i, entry a) is
    kron(A_1[:, i], ..., e_a, ..., A_d[:, i]).  With the factor Grams
    G_p = A_p^T A_p and W_S their Hadamard product over the modes p not in S
    (left to right, ones when no mode is left), block (k, k) of J^T J is
    W_{k} x I_(m_k) and block (k, l), k < l, has entry
    (W_{k,l}[i, j] A_k[a, j]) A_l[b, i] at row (i, a), column (j, b);
    block (l, k) is its transpose.  Block k of J^T r is the mode-k MTTKRP of
    the residual tensor (Kolda & Bader, SIAM Review 2009; Phan, Tichavsky &
    Cichocki, SIMAX 2013).  The cost is O(d^2 r^2 max m_k^2 + d N r) instead
    of the O(N (r sum m_k)^2) of J^T J.

    Where each entry of J^T J comes from depends only on (dims, r), so a
    gather plan, built with index arithmetic and cached for the last 16
    shapes (functools.lru_cache), holds it.  Each distinct entry gets three
    indices, one into the stack of W's and two into the flattened factors
    followed by 0.0 and 1.0 (a diagonal block's entry W_{k}[i, j] * delta_ab
    is times 1.0 as well), and each of the n^2 entries (n = r sum m_k) one
    index into the distinct ones: block (l, k) reads block (k, l)'s values.
    That is at most 2.5 n^2 + 6 d r^2 indices, so the plan takes at most
    about 2.5 times J^T J's own bytes; at the model's (6,5,4,4) r=6 it is
    28,332 indices, 0.23 MB.  A call then gathers and multiplies whole
    arrays, and each product rounds as in the blockwise formulas above.
    """
    dims = tuple(M.shape[0] for M in mats)
    d, r = len(dims), mats[0].shape[1]
    plan = _gather_plan(dims, r)
    grams = np.stack([M.T @ M for M in mats] + [np.ones((r, r))])
    W = grams[plan.w_modes[:, 0]]
    for c in range(1, plan.w_modes.shape[1]):
        W *= grams[plan.w_modes[:, c]]
    factors = np.concatenate([M.ravel() for M in mats] + [np.array([0.0, 1.0])])
    entries = W.ravel()[plan.w_index] * factors[plan.f_index]
    entries *= factors[plan.g_index]
    n = r * sum(dims)
    R = residual.reshape(dims)
    mttkrps = []
    for k in range(d):
        others = [p for p in range(d) if p != k]
        KR = khatri_rao([mats[p] for p in others] or [np.ones((1, r))])
        mttkrps.append((R.transpose((k, *others)).reshape(dims[k], -1) @ KR).T.ravel())
    return entries[plan.place].reshape(n, n), np.concatenate(mttkrps)


def _apply_step(mats: Sequence[np.ndarray], delta: np.ndarray) -> list[np.ndarray]:
    out = []
    pos = 0
    for M in mats:
        m, r = M.shape
        out.append(M + delta[pos:pos + m * r].reshape(r, m).T)
        pos += m * r
    return out


# cpd_refine stops once 0.5 * ||assembled - target||^2 is at or below this.
OBJECTIVE_TOL = 1e-14
# An input whose scale (largest term norm or target entry) lies outside
# [1 / _SCALE_BAND, _SCALE_BAND] is refined at scale near 1.
# The model's targets lie in [0.0103, 0.266], far inside.
_SCALE_BAND = 2.0**30


def cpd_refine(
    init: CPDecomposition, target: np.ndarray, max_iterations: int = 1000
) -> RefineResult:
    """Damped Gauss-Newton on the factor-matrix parametrization.

    Minimizes 0.5 * ||assembled - target||^2 with a Levenberg-Marquardt
    damping schedule (start 1e-2, x10 on reject, /10 on accept).  Each step
    solves (J^T J + lam I) delta = -J^T r with the normal equations formed
    from factor Grams and MTTKRPs; the Jacobian J is never built.  Stops when
    the objective reaches OBJECTIVE_TOL or after max_iterations accepted
    steps.  Never raises on non-convergence; the flag in the result decides.
    A trial step that overflows is rejected; an overflow of the objective or
    the normal equations at the start or an accepted iterate, which no
    damping avoids, raises ValueError naming the input's scale; a target
    with a non-finite entry raises ValueError before any of it is scaled.

    The damping schedule and OBJECTIVE_TOL are absolute, so an input whose
    scale lies outside [2^-30, 2^30] (_SCALE_BAND) is refined at the
    target's scale instead: every factor is multiplied by 2^k and the
    target by 2^(dk), with 2^(dk) * scale near 1, and the result is scaled
    back.  Powers of two keep every bit (barring underflow), and the
    objectives reported are those of the rescaled problem.
    """
    if np.shape(target) != init.dims:
        raise ValueError("init and target shapes differ")
    target_vec = np.ravel(target)
    if not np.isfinite(target_vec).all():
        raise ValueError("cpd_refine target has a non-finite entry")
    # the norm-balanced factors: every column of term i scaled by mu_i^(1/d)
    scales = np.array([t.mu ** (1.0 / init.order) for t in init.terms])
    mats = [A * scales for A in init.factor_matrices()]
    scale = max(max(t.mu for t in init.terms), float(np.abs(target_vec).max()))
    overflow = f"cpd_refine overflows at scale {scale:.3g} (largest term norm or target entry)"
    k = 0
    if not 1.0 / _SCALE_BAND <= scale <= _SCALE_BAND:
        k = -round(math.frexp(scale)[1] / init.order)
        mats = [np.ldexp(A, k) for A in mats]
        target_vec = np.ldexp(target_vec, init.order * k)
    n = sum(M.size for M in mats)
    lam = 1e-2
    trace = []
    # Overflow gives inf or nan, checked below, instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = khatri_rao(mats).sum(axis=1) - target_vec
        objective = 0.5 * float(residual @ residual)
        if not math.isfinite(objective):
            raise ValueError(overflow)
        converged = objective <= OBJECTIVE_TOL
        while not converged and len(trace) < max_iterations:
            hessian, gradient = _normal_equations(mats, residual)
            if not (np.isfinite(hessian).all() and np.isfinite(gradient).all()):
                raise ValueError(overflow)
            rejected = 0
            while lam < 1e14:
                damped = hessian.copy()
                damped.flat[::n + 1] += lam
                try:
                    delta = np.linalg.solve(damped, -gradient)
                except np.linalg.LinAlgError:
                    new_objective = math.nan
                else:
                    new_mats = _apply_step(mats, delta)
                    new_residual = khatri_rao(new_mats).sum(axis=1) - target_vec
                    new_objective = 0.5 * float(new_residual @ new_residual)
                if new_objective < objective:  # False for inf and nan
                    mats, residual, objective = new_mats, new_residual, new_objective
                    trace.append((objective, lam, rejected))
                    lam = max(lam / 10.0, 1e-16)
                    break
                lam *= 10.0
                rejected += 1
            else:  # no damping gave a smaller objective
                trace.append((objective, lam, rejected))
                break
            converged = objective <= OBJECTIVE_TOL
    try:
        refined = normalize_decomposition([np.ldexp(A, -k) for A in mats] if k else mats)
    except ValueError:
        # A factor column collapsed to zero; report failure on the input.
        logger.warning("refinement produced a zero factor column")
        return RefineResult(init, False, objective, tuple(trace))
    return RefineResult(refined, converged, objective, tuple(trace))


# ---------------------------------------------------------------------------
# Forward-error study on the random model.


@dataclass(frozen=True)
class ExperimentRecord:
    s: int
    sample: int
    backward: float
    forward: float
    kappa: float
    scaling: float
    converged: bool
    iterations: int


# Why a sample is left out of the aggregates, in order of precedence.
DISCARD_REASONS = ("not converged", "kappa inf", "zero backward")


def _discard_reason(rec: ExperimentRecord) -> str | None:
    """The first of DISCARD_REASONS that holds for rec, or None when rec is
    usable: converged with a finite scaling factor.  _run_sample leaves the
    scaling factor finite on a converged sample unless kappa is inf or the
    backward error is zero."""
    if rec.converged and math.isfinite(rec.scaling):
        return None
    if not rec.converged:
        return "not converged"
    if not math.isfinite(rec.kappa):
        return "kappa inf"
    return "zero backward"


@dataclass(frozen=True, eq=False)
class ForwardErrorTables:
    """records, the CSV rows, and the dropped samples: discarded in all,
    discard_reasons per reason (every key of DISCARD_REASONS, summing to
    discarded)."""

    records: list[ExperimentRecord]
    deciles: list[tuple]
    kappa_quartiles: list[tuple]
    discarded: int
    discard_reasons: dict[str, int]


def _match_columns(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Greedy assignment of columns of Q to columns of P by cosine similarity.

    The refiner returns terms in arbitrary order; this pairs each original
    term with the most similar computed term before differencing.
    """
    r = P.shape[1]
    Pn = P / np.linalg.norm(P, axis=0, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=0, keepdims=True)
    similarity = Pn.T @ Qn
    perm = np.full(r, -1, dtype=int)
    for _ in range(r):
        i, j = np.unravel_index(int(np.argmax(similarity)), similarity.shape)
        perm[i] = j
        similarity[i, :] = -np.inf
        similarity[:, j] = -np.inf
    return perm


def _run_sample(params: ModelParams, s: int, sample: int) -> ExperimentRecord:
    rng = make_rng(derive_seed(params.base_seed, s, sample))
    mats, decomp = _draw_model(rng, s)
    # term sums are assemble_cpd, bit for bit; the terms are reused below
    original_terms = decomp.term_tensors()
    target = original_terms.sum(axis=1)
    init = normalize_decomposition(
        [B + MODEL_TAU * rng.standard_normal(B.shape) for B in mats]
    )
    result = cpd_refine(init, target.reshape(decomp.dims))
    computed_terms = result.decomposition.term_tensors()
    backward = float(np.linalg.norm(computed_terms.sum(axis=1) - target))
    perm = _match_columns(original_terms, computed_terms)
    forward = float(np.linalg.norm(original_terms - computed_terms[:, perm]))
    # the record needs kappa alone, so the SVD skips the least vector
    kappa = cpd_condition_number(result.decomposition, vector=False).kappa
    if result.converged and math.isfinite(kappa) and backward > 0:
        scaling = forward / (kappa * backward)
    else:
        scaling = math.nan
    return ExperimentRecord(
        s=s,
        sample=sample,
        backward=backward,
        forward=forward,
        kappa=kappa,
        scaling=scaling,
        converged=result.converged,
        iterations=result.iterations,
    )


def run_forward_error_experiment(
    params: ModelParams,
    s_values: Iterable[int],
    out_dir: str | os.PathLike | None = None,
) -> ForwardErrorTables:
    """Per (s, sample): draw a model instance, refine from a start perturbed
    by MODEL_TAU, and record backward error, matched forward error, the
    condition number at the computed decomposition, and the scaling factor
    forward / (kappa * backward).

    Aggregates per s: deciles 1..9 of the scaling factor and quartiles of
    kappa over the usable samples: converged, with a finite scaling factor.
    The others are excluded from the aggregates, counted in `discarded` and,
    by their first reason, in `discard_reasons`.  With out_dir set, the
    tables land in scaling_factor_deciles.csv and kappa_quartiles.csv.
    """
    svals = list(s_values)
    with single_threaded():
        records = [_run_sample(params, s, j) for s in svals for j in range(params.samples)]

    reasons = dict.fromkeys(DISCARD_REASONS, 0)
    kept = []
    for rec in records:
        reason = _discard_reason(rec)
        if reason is None:
            kept.append(rec)
        else:
            reasons[reason] += 1

    deciles = []
    quartiles = []
    for s in svals:
        usable = [rec for rec in kept if rec.s == s]
        if usable:
            scalings = np.array([rec.scaling for rec in usable])
            kappas = np.array([rec.kappa for rec in usable])
            deciles.append((s, *np.percentile(scalings, range(10, 100, 10))))
            quartiles.append((s, *np.percentile(kappas, (25, 50, 75))))
        else:
            deciles.append((s,) + (math.nan,) * 9)
            quartiles.append((s,) + (math.nan,) * 3)

    tables = ForwardErrorTables(records, deciles, quartiles, sum(reasons.values()), reasons)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "scaling_factor_deciles.csv",
            "s," + ",".join(f"decile_{i}" for i in range(1, 10)),
            tables.deciles,
        )
        write_csv(out / "kappa_quartiles.csv", "s,q1,median,q3", tables.kappa_quartiles)
    return tables


# ---------------------------------------------------------------------------
# Deterministic CSV output.


def _format_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: str | os.PathLike, header: str, rows: Iterable[Sequence]) -> None:
    """Write rows with a fixed header, repr-formatted floats, and LF endings."""
    lines = [header]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
