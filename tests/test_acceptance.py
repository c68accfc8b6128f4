"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with `python3 -m pytest -s tests/test_acceptance.py -v` to see the
verdict lines as they happen; without -s they still appear in captured
output on failure.
"""

import math
import time

import numpy as np
import pytest

import joincond.cli as cli
from joincond import (
    CPDecomposition,
    ModelParams,
    RankOneTerm,
    SymmetricRankOneTerm,
    WaringDecomposition,
    cpd_condition_number,
    cpd_tangent_tuple,
    desilva_lim_sequence,
    distance_to_illposed,
    example_41_kappa,
    example_42_kappa,
    example_42_kappa_analytic,
    is_weak_3_orthogonal,
    nearest_intersecting_tuple,
    norm_balanced_condition_number,
    paatero_sequence,
    run_forward_error_experiment,
    waring_condition_number,
)
from joincond.grassmann import CERTIFICATE_TOL
from conftest import (
    kron,
    norm_balanced_basis,
    orthogonal_cpd,
    random_cpd,
    random_orthonormal,
    random_unit,
    random_waring,
    rng_for,
    segre_tangent_basis,
)


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: acceptance {num} - {label}{suffix}")
    assert ok, f"acceptance {num} failed{suffix}"


def _well_conditioned_cpd(rng, dims, rank, kappa_cap=1e4):
    # redraw until kappa is moderate; float invariance checks at 1e-10
    # relative need sigma_n comfortably above the SVD noise floor
    while True:
        d = random_cpd(rng, dims, rank)
        report = cpd_condition_number(d)
        if report.well_posed and report.kappa <= kappa_cap:
            return d, report


def _well_conditioned_waring(rng, m, order, rank, kappa_cap=1e4):
    while True:
        d = random_waring(rng, m, order, rank, signed=True)
        report = waring_condition_number(d)
        if report.well_posed and report.kappa <= kappa_cap:
            return d, report


@pytest.fixture(scope="module")
def forward_error_run():
    params = ModelParams(samples=50, base_seed=2024)
    return run_forward_error_experiment(params, s_values=(1, 50))


def test_01_exactness_families():
    start = time.perf_counter()
    rng = rng_for(201)
    worst = 0.0
    for _ in range(100):
        d = random_cpd(rng, (3, 4, 2), 1)
        worst = max(worst, abs(cpd_condition_number(d).kappa - 1.0))
    for _ in range(100):
        r = int(rng.integers(2, 5))
        d = orthogonal_cpd(rng, (4, 4, 4), r)
        assert is_weak_3_orthogonal(d)
        worst = max(worst, abs(cpd_condition_number(d).kappa - 1.0))
    for _ in range(100):
        r = int(rng.integers(1, 5))
        basis = random_orthonormal(rng, 5, r)
        terms = tuple(
            SymmetricRankOneTerm(
                float(rng.uniform(0.5, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0),
                basis[:, i],
                3,
            )
            for i in range(r)
        )
        w = WaringDecomposition(terms)
        worst = max(worst, abs(waring_condition_number(w).kappa - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(
        1,
        "kappa = 1 on rank-1, weak-3-orthogonal, and odeco families",
        ok,
        f"max |kappa-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_invariance_suite():
    rng = rng_for(202)
    worst = 0.0
    for _ in range(200):
        dims = (3, 4, 2)
        d, report = _well_conditioned_cpd(rng, dims, 2)
        betas = rng.uniform(1e-3, 1e3, size=d.rank)
        scaled = CPDecomposition(
            tuple(RankOneTerm(float(b) * t.mu, t.vectors) for b, t in zip(betas, d.terms)),
        )
        qs = [random_orthonormal(rng, m, m) for m in dims]
        rotated = CPDecomposition(
            tuple(
                RankOneTerm(t.mu, tuple(q @ v for q, v in zip(qs, t.vectors)))
                for t in d.terms
            ),
        )
        k = report.kappa
        worst = max(worst, abs(cpd_condition_number(scaled).kappa - k) / k)
        worst = max(worst, abs(cpd_condition_number(rotated).kappa - k) / k)
    for _ in range(200):
        m, order = 4, 3
        d, report = _well_conditioned_waring(rng, m, order, 2)
        Q = random_orthonormal(rng, m, m)
        betas = rng.uniform(1e-3, 1e3, size=d.rank)
        moved = WaringDecomposition(
            tuple(
                SymmetricRankOneTerm(float(b) * t.mu, Q @ t.vector, order)
                for b, t in zip(betas, d.terms)
            ),
        )
        k = report.kappa
        worst = max(worst, abs(waring_condition_number(moved).kappa - k) / k)
    ok = worst <= 1e-10
    _verdict(
        2,
        "scale and orthogonal invariance on 200 CPD + 200 Waring instances",
        ok,
        f"max relative drift = {worst:.2e}",
    )


def test_03_bridge_and_certificates():
    rng = rng_for(203)
    worst_gap = 0.0
    worst_cert = 0.0
    for _ in range(200):
        d = random_cpd(rng, (3, 3, 2), 2)
        report = cpd_condition_number(d)
        tangent = cpd_tangent_tuple(d)
        dist = distance_to_illposed(tangent)
        gap = abs(1.0 / report.kappa - dist)
        worst_gap = max(worst_gap, gap * report.kappa)  # in units of 1e-12/kappa
        cert = nearest_intersecting_tuple(tangent)
        assert distance_to_illposed(cert.nearest) <= CERTIFICATE_TOL
        worst_cert = max(worst_cert, abs(cert.distance - dist))
    ok = worst_gap <= 1e-12 and worst_cert <= 1e-8
    _verdict(
        3,
        "1/kappa equals distance to the ill-posed locus, certificates verify",
        ok,
        f"max kappa-scaled gap = {worst_gap:.2e}, max certificate gap = {worst_cert:.2e}",
    )


def test_04_norm_balanced_inequality_and_sharpness():
    rng = rng_for(204)
    dims = (3, 4, 2)
    order = len(dims)
    worst_violation = -math.inf
    for _ in range(1000):
        d, report = _well_conditioned_cpd(rng, dims, 2)
        kt = norm_balanced_condition_number(d)
        blocks = [norm_balanced_basis(t) for t in d.terms]
        rows = sum(b.shape[0] for b in blocks)
        cols = sum(b.shape[1] for b in blocks)
        diag = np.zeros((rows, cols))
        r0 = c0 = 0
        for b in blocks:
            diag[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
            r0 += b.shape[0]
            c0 += b.shape[1]
        s = np.linalg.svd(diag, compute_uv=False)
        sigma_scaling = float(s[report.n - 1])
        worst_violation = max(worst_violation, kt - report.kappa / sigma_scaling)
    worst_sharp = 0.0
    for _ in range(200):
        d = orthogonal_cpd(rng, (4, 5, 4), 3)
        kt = norm_balanced_condition_number(d)
        mu_min = min(t.mu for t in d.terms)
        expect = mu_min ** (1.0 / d.order - 1.0)
        worst_sharp = max(worst_sharp, abs(kt - expect) / expect)
    ok = worst_violation <= 1e-10 and worst_sharp <= 1e-8
    _verdict(
        4,
        "norm-balanced inequality on 1000 samples, sharpness on orthogonal ones",
        ok,
        f"max violation = {worst_violation:.2e}, max sharpness error = {worst_sharp:.2e}",
    )


def test_05_boundary_divergence():
    start = time.perf_counter()
    ratios = []
    diverging_counts = []
    violation_fractions = []
    for sequence in (paatero_sequence, desilva_lim_sequence):
        for seed in range(5):
            kappas = []
            first_norms = None
            last_norms = None
            prev = -math.inf
            violations = 0
            for s in range(1, 91):
                d = sequence(seed, s)
                k = cpd_condition_number(d).kappa
                kappas.append(k)
                norms = [t.mu for t in d.terms]
                if s == 1:
                    first_norms = norms
                if s == 90:
                    last_norms = norms
                if k < prev:
                    violations += 1
                prev = k
            ratios.append(kappas[-1] / kappas[0])
            grown = sum(
                1 for a, b in zip(first_norms, last_norms) if b / a >= 1e4
            )
            diverging_counts.append(grown)
            violation_fractions.append(violations / 89.0)
    elapsed = time.perf_counter() - start
    ok = (
        min(ratios) >= 1e8
        and min(diverging_counts) >= 2
        and max(violation_fractions) <= 0.05
        and elapsed < 120.0
    )
    _verdict(
        5,
        "kappa and term norms diverge along both boundary sequences",
        ok,
        f"min kappa ratio = {min(ratios):.2e}, min diverging terms = {min(diverging_counts)}, "
        f"max violation fraction = {max(violation_fractions):.3f}, {elapsed:.1f}s",
    )


def test_06_counterexample_regressions():
    worst_const = 0.0
    for i in range(1, 31):
        engine, _ = example_41_kappa(i / 10.0)
        worst_const = max(worst_const, abs(engine - 1.0))
    worst_match = 0.0
    for t in np.linspace(1.0, 12.0, 50):
        engine, analytic = example_42_kappa(float(t))
        worst_match = max(worst_match, abs(engine - analytic) / analytic)
    ks = np.arange(1, 1_000_001, 2, dtype=np.int64)
    ts = np.sqrt(ks * (math.pi / 2.0))
    analytic_kappas = example_42_kappa_analytic(ts)
    best = int(np.argmax(analytic_kappas))
    engine_peak = example_42_kappa(float(ts[best])).engine
    ok = worst_const <= 1e-10 and worst_match <= 1e-10 and engine_peak > 1e6
    _verdict(
        6,
        "constant-kappa curve, oscillating-curve formula, odd subsequence blow-up",
        ok,
        f"max |kappa-1| = {worst_const:.2e}, max formula mismatch = {worst_match:.2e}, "
        f"odd-subsequence peak = {engine_peak:.2e}",
    )


def test_07_condition_number_medians(forward_error_run):
    start = time.perf_counter()
    records = forward_error_run.records
    medians = {}
    for s in (1, 50):
        kappas = [r.kappa for r in records if r.s == s and r.converged]
        medians[s] = float(np.median(kappas))
    ref = {1: 2.04e1, 50: 3.44e4}
    ok = all(ref[s] / 5.0 <= medians[s] <= ref[s] * 5.0 for s in (1, 50))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _verdict(
        7,
        "median kappa at s=1 and s=50 within factor 5 of the reference run",
        ok,
        f"medians = {medians[1]:.3g} (ref 20.4), {medians[50]:.3g} (ref 3.44e4)",
    )


def test_08_forward_error_rule(forward_error_run):
    records = forward_error_run.records
    fractions = {}
    ninth_deciles = {}
    for s in (1, 50):
        conv = [r for r in records if r.s == s and r.converged]
        within = sum(1 for r in conv if r.forward <= r.kappa * r.backward)
        fractions[s] = within / len(conv)
        ninth_deciles[s] = float(
            np.percentile([r.scaling for r in conv if math.isfinite(r.scaling)], 90)
        )
    ok = all(f >= 0.85 for f in fractions.values())
    above = sum(1 for v in ninth_deciles.values() if v > 0.3)
    ok = ok and above >= 1
    _verdict(
        8,
        "forward error bounded by kappa times backward error",
        ok,
        f"fractions = {fractions[1]:.2f}, {fractions[50]:.2f}; "
        f"9th deciles = {ninth_deciles[1]:.2f}, {ninth_deciles[50]:.2f}",
    )


def test_09_oracle_equivalence():
    rng = rng_for(209)
    dims = (3, 3, 3)
    tangent_dim = 1 - len(dims) + sum(dims)
    worst_kappa = 0.0
    worst_fd = 0.0
    checked = 0
    while checked < 50:
        d = random_cpd(rng, dims, 2)
        report = cpd_condition_number(d)
        if not report.well_posed or report.kappa > 50.0:
            continue
        blocks = []
        for term in d.terms:
            spans = []
            vs = list(term.vectors)
            for k in range(len(dims)):
                cols = [v.reshape(-1, 1) for v in vs]
                cols[k] = np.eye(dims[k])
                M = cols[0]
                for c in cols[1:]:
                    M = np.kron(M, c)
                spans.append(M)
            T = np.hstack(spans)
            q, s_diag, _ = np.linalg.svd(T, full_matrices=False)
            rank = int((s_diag > 1e-10 * s_diag[0]).sum())
            assert rank == tangent_dim
            blocks.append(q[:, :rank])
        U = np.hstack(blocks)
        evals = np.linalg.eigvalsh(U.T @ U)
        oracle = 1.0 / math.sqrt(max(evals[0], 1e-300))
        worst_kappa = max(worst_kappa, abs(report.kappa - oracle) / oracle)
        # finite-difference containment for one random curve per instance
        term = d.terms[0]
        Useg = segre_tangent_basis(term)
        dmu = float(rng.standard_normal())
        dvs = [rng.standard_normal(m) for m in dims]
        h = 1e-6

        def curve(t, term=term, dmu=dmu, dvs=dvs):
            return (term.mu + t * dmu) * kron(
                [v + t * dv for v, dv in zip(term.vectors, dvs)]
            )

        fd = (curve(h) - curve(-h)) / (2.0 * h)
        residual = np.linalg.norm(fd - Useg @ (Useg.T @ fd)) / np.linalg.norm(fd)
        worst_fd = max(worst_fd, residual)
        checked += 1
    ok = worst_kappa <= 1e-10 and worst_fd <= 1e-6
    _verdict(
        9,
        "independent tangent assembly and eigensolver agree on 50 instances",
        ok,
        f"max kappa mismatch = {worst_kappa:.2e}, max FD residual = {worst_fd:.2e}",
    )


def test_10_cli_determinism(tmp_path):
    pairs = []
    for name, flags in (
        ("paatero", ["--seed", "42", "--s-min", "1", "--s-max", "20"]),
        ("model", ["--seed", "9", "--samples", "3", "--s-min", "1", "--s-max", "2"]),
    ):
        run_dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = cli.main(["experiment", "--name", name, *flags, "--out", str(out)])
            assert code == 0
            run_dirs.append(out)
        for csv_path in sorted(run_dirs[0].glob("*.csv")):
            twin = run_dirs[1] / csv_path.name
            pairs.append(csv_path.read_bytes() == twin.read_bytes())
    ok = bool(pairs) and all(pairs)
    _verdict(
        10,
        "repeated experiment invocations produce byte-identical CSV",
        ok,
        f"{len(pairs)} file pairs compared",
    )
