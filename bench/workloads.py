"""The benchmark's three workloads.

Each workload builds its inputs from the seed at construction (that is the
set-up the benchmark times), hands out ops in whole rounds, runs one op
through joincond's public functions, and checks an op's output against the
independent oracle after the timed phase.  Functions are looked up on the
package modules at call time, so the traced run's wrappers see every call.

Runs stop only between rounds, so a run's op mix is a fixed multiple of
one round and its percentiles do not drift with where the clock ran out.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import tracing


def derived_seed(seed: int, *key: int) -> int:
    """A 63-bit seed for one (seed, key...) cell, independent of joincond."""
    state = np.random.SeedSequence([seed, *key]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class Op:
    label: str  # op type, for the run record's op counts
    args: tuple
    key: object = None  # which oracle value the output is checked against
    data: dict = field(default_factory=dict)


class OpError:
    """An op that raised; the message goes into the run record."""

    def __init__(self, message: str):
        self.message = message


class Workload:
    name = ""
    # Reference kernel (bench/speed.py) whose time scales op latencies.
    kernel = "interpreter"

    def __init__(self, jc, seed: int, workdir: Path, smoke: bool):
        self.jc = jc
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def start(self) -> None:
        """Called before the timed phases."""

    def stop(self) -> None:
        """Called after the timed phases."""

    def round(self, w: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        raise NotImplementedError

    def finish(self, results) -> tuple[list[str], float]:
        """Run-level reasons the run is invalid, and the kept-sample ratio."""
        return [], 1.0


# ---------------------------------------------------------------------------


class ModelGrid(Workload):
    """One op = one s-row of the forward-error experiment with K samples.

    Round w holds the ten rows s = k, k+5, ..., k+45 with k = 1 + w % 5, so
    five rounds sweep s = 1..50 once, with base seed derived_seed(seed, w // 5):
    no two ops of a run repeat a (base seed, s, sample) cell.  The reports the
    experiment computes are recorded through a pass-through wrapper on
    segre.cpd_condition_number (one list append per sample) so that kappa
    can be checked against the oracle after the run.
    """

    name = "model-grid"
    SAMPLES = 2
    S_STRIDE = 5  # rounds per sweep of s = 1..50
    S_SMOKE = (1, 25, 50)
    # Acceptance 8: forward <= kappa * backward on this share of converged samples.
    RULE_SHARE = 0.85

    def __init__(self, jc, seed, workdir, smoke):
        super().__init__(jc, seed, workdir, smoke)
        self.captured: list[tuple] = []
        self._undo = None

    def start(self):
        def make(fn):
            def recorder(decomp, *args, **kwargs):
                report = fn(decomp, *args, **kwargs)
                self.captured.append((decomp, report))
                return report

            return recorder

        self._undo = tracing.patch_everywhere("segre.cpd_condition_number", make)

    def stop(self):
        if self._undo is not None:
            self._undo()

    def round(self, w):
        base = derived_seed(self.seed, w // self.S_STRIDE)
        first = 1 + w % self.S_STRIDE
        s_values = self.S_SMOKE if self.smoke else range(first, 51, self.S_STRIDE)
        return [Op("model-row", (s, base)) for s in s_values]

    def run(self, op):
        s, base = op.args
        ex = self.jc.experiments
        first = len(self.captured)
        tables = ex.run_forward_error_experiment(
            ex.ModelParams(base_seed=base, samples=self.SAMPLES), s_values=(s,)
        )
        return tables.records, tables.discarded, self.captured[first:]

    def check(self, op, output):
        records, _, captured = output
        if len(records) != self.SAMPLES:
            return f"{len(records)} records for {self.SAMPLES} samples"
        if len(captured) != len(records):
            return f"{len(captured)} condition reports seen for {len(records)} samples"
        for decomp, report in captured:
            truth = oracle.cp_sigma([t.vectors for t in decomp.terms])
            reason = oracle.check_sigma(report.sigma_min, report.kappa, truth)
            if reason:
                return reason
        for rec, (_, report) in zip(records, captured):
            if not (rec.kappa == report.kappa or
                    (math.isinf(rec.kappa) and math.isinf(report.kappa))):
                return f"record kappa {rec.kappa!r} is not the computed {report.kappa!r}"
        return None

    def finish(self, results):
        converged = within = samples = discarded = 0
        for _, out, _ in results:
            if isinstance(out, OpError):
                continue
            records, dropped, _ = out
            samples += len(records)
            discarded += dropped
            for rec in records:
                if rec.converged:
                    converged += 1
                    within += rec.forward <= rec.kappa * rec.backward
        reasons = []
        if converged == 0 or within < self.RULE_SHARE * converged:
            reasons.append(f"forward <= kappa * backward on {within} of {converged} "
                           f"converged samples (need {self.RULE_SHARE:.0%})")
        return reasons, 1.0 - discarded / samples if samples else 0.0


# ---------------------------------------------------------------------------


def _unit_columns(rng, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    A = rng.standard_normal((m, r))
    norms = np.linalg.norm(A, axis=0)
    return A / norms, norms


def _run_cli(jc, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = jc.cli.main(argv)
    return code, buf.getvalue()


class CliLadder(Workload):
    """In-process CLI calls on JSON files, plus a library op per CP rung.

    Per-round weights give each op type between about 1 and 2 s of a 13 s
    round on the seed code (2 cores): a (20,20,20) cond-cpd op takes about
    1.3 s, a (6,5,4,4) one about 22 ms.  They also put the median inside the
    (6,5,4,4) cond-cpd ops and the 90th percentile inside the (10,10,10)
    ones, away from the edges between op types, so that the percentiles
    measure one op type each rather than where two types meet.  Every op in
    a round has its own input; rounds reuse the same inputs.

    Most of this workload's time is SVDs on both BLAS threads, so its
    latencies are scaled by the LAPACK reference kernel.
    """

    name = "cli-ladder"
    kernel = "lapack"
    # (dims, rank, cond-cpd ops per round, norm-balanced ops per round)
    RUNGS = (
        ((6, 5, 4, 4), 6, 100, 100),
        ((10, 10, 10), 8, 16, 40),
        ((15, 15, 15), 10, 3, 9),
        ((20, 20, 20), 10, 1, 2),
    )
    WARING = (10, 4, 12, 6)  # m, d, r, ops per round
    CERTIFY = (400, 10, 20, 3)  # N, blocks, block dim, ops per round

    def __init__(self, jc, seed, workdir, smoke):
        super().__init__(jc, seed, workdir, smoke)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        for dims, r, n_cli, n_lib in self.RUNGS:
            tag = "x".join(map(str, dims)) + f"-r{r}"
            for i in range(1 if smoke else n_cli):
                doc = self._cp_doc(rng, dims, r)
                path = self._write(f"cpd-{tag}-{i}.json", doc)
                self.ops.append(Op(f"cond-cpd {tag}", ("cond-cpd", "--input", path),
                                   key=path, data=doc))
            for i in range(1 if smoke else n_lib):
                doc = self._cp_doc(rng, dims, r)
                decomp = jc.CPDecomposition.from_json_dict(doc)
                self.ops.append(Op(f"norm-balanced {tag}", (decomp,), key=("nb", tag, i),
                                   data=doc))
        m, d, r, n_ops = self.WARING
        for i in range(1 if smoke else n_ops):
            vectors, _ = _unit_columns(rng, m, r)
            mus = rng.choice((-1.0, 1.0), r) * np.exp(rng.standard_normal(r))
            doc = {"m": m, "d": d, "terms": [{"mu": float(mu), "vector": v.tolist()}
                                             for mu, v in zip(mus, vectors.T)]}
            path = self._write(f"waring-{i}.json", doc)
            self.ops.append(Op("cond-waring", ("cond-waring", "--input", path), key=path,
                               data=doc))
        N, blocks, k, n_ops = self.CERTIFY
        for i in range(1 if smoke else n_ops):
            bases = [np.linalg.qr(rng.standard_normal((N, k)))[0] for _ in range(blocks)]
            doc = {"N": N, "blocks": [B.T.tolist() for B in bases]}
            path = self._write(f"tuple-{i}.json", doc)
            self.ops.append(Op("grassmann-certify",
                               ("grassmann", "--mode", "certify", "--input", path),
                               key=path, data=doc))
        self._truth: dict = {}

    @staticmethod
    def _cp_doc(rng, dims, r) -> dict:
        factors = [_unit_columns(rng, m, r) for m in dims]
        mus = np.prod([norms for _, norms in factors], axis=0)
        return {"dims": list(dims),
                "terms": [{"mu": float(mus[i]),
                           "vectors": [U[:, i].tolist() for U, _ in factors]}
                          for i in range(r)]}

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def round(self, w):
        return self.ops

    def run(self, op):
        if op.label.startswith("norm-balanced"):
            return self.jc.segre.norm_balanced_condition_number(*op.args)
        return _run_cli(self.jc, list(op.args))

    def _oracle(self, op) -> oracle.OracleResult:
        if op.key not in self._truth:
            doc = op.data
            if op.label.startswith("norm-balanced"):
                truth = oracle.norm_balanced_sigma(
                    [(t["mu"], t["vectors"]) for t in doc["terms"]])
            elif op.label.startswith("cond-cpd"):
                truth = oracle.cp_sigma([t["vectors"] for t in doc["terms"]])
            elif op.label == "cond-waring":
                truth = oracle.waring_sigma([t["vector"] for t in doc["terms"]], doc["d"])
            else:
                truth = oracle.stacked_sigma([np.array(b).T for b in doc["blocks"]], doc["N"])
            self._truth[op.key] = truth
        return self._truth[op.key]

    def check(self, op, output):
        truth = self._oracle(op)
        if op.label.startswith("norm-balanced"):
            return oracle.check_kappa(float(output), truth)
        code, text = output
        if code != 0:
            return f"exit code {code}, expected 0"
        out = json.loads(text)
        if op.label == "grassmann-certify":
            reason = oracle.check_certificate(float(out["distance"]), truth)
            if reason:
                return reason
            nearest = out["nearest"]
            dep = oracle.stacked_sigma([np.array(b).T for b in nearest["blocks"]], nearest["N"])
            if dep.sigma_min > oracle.CERT_TOL:
                return f"nearest tuple is not dependent: oracle sigma_min {dep.sigma_min!r}"
            return None
        if (out["n"], out["N"]) != (truth.n, truth.N):
            return f"(n, N) = {(out['n'], out['N'])}, oracle {(truth.n, truth.N)}"
        kappa = math.inf if out["kappa"] == "inf" else float(out["kappa"])
        return oracle.check_sigma(float(out["sigma_min"]), kappa, truth)


# ---------------------------------------------------------------------------


class Boundary(Workload):
    """One op = one step (seed, s) of the paatero or de Silva-Lim sequence:
    the decomposition, its condition number, and the certified nearest
    ill-posed tuple of its tangent spaces.

    A round is one paatero pass and two dsl passes over s = 1..90, each with
    its own derived seed.  The 1:2 mix keeps the median inside the dsl steps
    and the 90th percentile inside the slower paatero steps rather than on
    the boundary between the two populations.
    """

    name = "boundary"
    S_VALUES = tuple(range(1, 91))
    S_SMOKE = (1, 45, 90)
    PASSES = ("paatero", "dsl", "dsl")

    def _sequence(self, name):
        ex = self.jc.experiments
        return ex.paatero_sequence if name == "paatero" else ex.desilva_lim_sequence

    def round(self, w):
        s_values = self.S_SMOKE if self.smoke else self.S_VALUES
        return [Op(name, (name, derived_seed(self.seed, w, j), s))
                for j, name in enumerate(self.PASSES) for s in s_values]

    def run(self, op):
        name, seed, s = op.args
        jc = self.jc
        decomp = self._sequence(name)(seed, s)
        report = jc.segre.cpd_condition_number(decomp)
        bases = jc.segre.cpd_tangent_tuple(decomp)
        if not isinstance(bases, jc.grassmann.SubspaceTuple):
            bases = jc.grassmann.SubspaceTuple(bases.ambient_dim, bases.blocks)
        cert = jc.grassmann.nearest_intersecting_tuple(bases)
        return float(report.sigma_min), float(report.kappa), float(cert.distance)

    def check(self, op, output):
        name, seed, s = op.args
        sigma_min, kappa, distance = output
        decomp = self._sequence(name)(seed, s)
        truth = oracle.cp_sigma([t.vectors for t in decomp.terms])
        return (oracle.check_sigma(sigma_min, kappa, truth)
                or oracle.check_certificate(distance, truth))


WORKLOADS = {cls.name: cls for cls in (ModelGrid, CliLadder, Boundary)}
