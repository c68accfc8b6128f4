"""joincond benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {model-grid,cli-ladder,boundary} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root; the package is imported from ./src.  The run
times set-up in fresh interpreters (bench/setup_probe.py), runs whole rounds
of ops (bench/workloads.py) from one driver thread until --seconds have
passed, checks every op's output against the independent oracle
(bench/oracle.py) outside the timed phase, and prints a run record line and
then, as the last line, the result JSON.  Timings are scaled to a fixed
reference speed by a kernel timed after every op (bench/speed.py); the
unscaled figures are in the run record.  With --trace 1 it runs the same
rounds a second time with spans around the package's public functions
(bench/tracing.py) and reports per-layer metrics instead.  --smoke runs one
small round, for the self-tests (bench/selftest.py).

Thread settings are left as the user's environment has them and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Not used while the benchmark was written; keep it for confirming claims.
HELD_OUT_SEED = 424242
THREAD_VARS = ("JOINCOND_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class SetupError(Exception):
    """The program or its inputs could not be set up; no result is printed."""


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("model-grid", "cli-ladder", "boundary"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one small round (self-tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package():
    if not (SRC / "joincond" / "__init__.py").is_file():
        raise SetupError(f"no joincond package under {SRC}")
    sys.path.insert(0, str(SRC))
    import joincond
    import joincond.cli  # not imported by the package itself

    if Path(joincond.__file__).resolve().parent != SRC / "joincond":
        raise SetupError(f"imported joincond from {joincond.__file__}, not {SRC}")
    return joincond


def _probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Set-up times of `count` fresh interpreters (import + input build)."""
    probes = []
    for i in range(count):
        workdir = WORK / f"probe-{os.getpid()}-{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


class Phase(NamedTuple):
    results: list  # (op, output, raw latency in s)
    latency_s: np.ndarray  # op latencies scaled to the reference speed
    kernel_s: np.ndarray  # reference-kernel time after each op
    round_of: np.ndarray  # round index of each op
    wall_s: float
    rounds: int
    peak_rss_mb: float  # ru_maxrss after the first round

    @property
    def ops_per_s(self) -> float:
        """Median over rounds of a round's ops per second of op time, at the
        reference speed.  Every round is the same op mix, so one slow round
        (a refiner run that never converges) moves the median little."""
        return float(np.median([
            np.count_nonzero(self.round_of == w) / self.latency_s[self.round_of == w].sum()
            for w in range(self.rounds)
        ]))


def _run_phase(workload, seconds: float, rounds: int | None, tracer=None, first_id=0) -> Phase:
    """Run whole rounds until `seconds` pass (or exactly `rounds` rounds),
    timing the workload's reference kernel after every op."""
    measure = speed.KERNELS[workload.kernel][0]
    results, kernel, round_of = [], [], []
    peak_rss_mb = 0.0
    w = 0
    start = perf_counter()
    while (w < rounds) if rounds is not None else (w == 0 or perf_counter() - start < seconds):
        for op in workload.round(w):
            t = perf_counter()
            try:
                if tracer is None:
                    out = workload.run(op)
                else:
                    out = tracer.run_op(first_id + len(results), workload.run, op)
            except Exception as exc:  # an op failure is a result, not the end of the run
                out = workloads.OpError("".join(traceback.format_exception_only(exc)).strip())
            results.append((op, out, perf_counter() - t))
            kernel.append(measure())
            round_of.append(w)
        if w == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        w += 1
    wall = perf_counter() - start
    raw = np.array([lat for _, _, lat in results])
    scaled = raw * speed.scale_factors(workload.kernel, kernel)
    return Phase(results, scaled, np.array(kernel), np.array(round_of), wall, w, peak_rss_mb)


def _check(workload, results) -> list[str]:
    """One entry per failed op: why it failed."""
    failures = []
    for op, out, _ in results:
        if isinstance(out, workloads.OpError):
            failures.append(f"{op.label}: raised {out.message}")
            continue
        try:
            reason = workload.check(op, out)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures.append(f"{op.label}: {reason}")
    return failures


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        return {"name": None, "version": None}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _layer_metrics(tracer, import_s, overhead, op_wall_s) -> dict:
    calls, self_s = tracer.self_times()
    m = {}
    for layer in tracing.LAYERS + (tracing.ROOT,):
        if layer in tracer.missing:
            continue
        m[f"{layer}.calls"] = _metric(calls.get(layer, 0), "count")
        m[f"{layer}.self_s"] = _metric(self_s.get(layer, 0.0), "s")

    def extra(layer, name, value, unit):
        if layer not in tracer.missing and layer not in tracer.broken:
            m[f"{layer}.{name}"] = _metric(value, unit)

    acc = tracer.extras
    refine = "experiments.cpd_refine"
    its = acc.get(refine, {}).get("iterations", 0)
    n_refine = calls.get(refine, 0)
    extra(refine, "iterations", its, "count")
    extra(refine, "s_per_iter", self_s.get(refine, 0.0) / its if its else 0.0, "s")
    extra(refine, "converged_ratio",
          acc.get(refine, {}).get("converged", 0) / n_refine if n_refine else 0.0, "ratio")
    cond = "condition.condition_number"
    extra(cond, "matrix_mb", acc.get(cond, {}).get("matrix_mb", 0.0), "MB")
    extra(cond, "illposed", acc.get(cond, {}).get("illposed", 0), "count")
    tangent = "segre.cpd_tangent_tuple"
    extra(tangent, "basis_mb", acc.get(tangent, {}).get("basis_mb", 0.0), "MB")
    cert = "grassmann.nearest_intersecting_tuple"
    extra(cert, "cert_failures", acc.get(cert, {}).get("cert_failures", 0), "count")
    extra(cert, "residual_max", acc.get(cert, {}).get("residual_max", 0.0), "1")
    m["setup.import_s"] = _metric(import_s, "s")
    m["trace.overhead"] = _metric(overhead, "ratio")
    m["trace.op_wall_s"] = _metric(op_wall_s, "s")
    m["trace.self_sum_s"] = _metric(sum(self_s.values()), "s")
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        jc = _import_package()
        probes = _probe_setup(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES)
    except (SetupError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](jc, args.seed, workdir, args.smoke)
    rounds = 1 if args.smoke else None
    tracer = None
    try:
        workload.start()
        try:
            timed = _run_phase(workload, args.seconds, rounds)
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = _run_phase(workload, args.seconds, timed.rounds, tracer,
                                        first_id=len(timed.results))
                finally:
                    tracer.uninstall()
        finally:
            workload.stop()
        checked = timed.results + (traced.results if args.trace else [])
        failures = _check(workload, checked)
        invalid, kept_ratio = workload.finish(checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(checked)
    setup_s = statistics.median((p["import_s"] + p["build_s"]) * p["scale"] for p in probes)
    import_s = statistics.median(p["import_s"] * p["scale"] for p in probes)
    raw_ms = np.array([lat for _, _, lat in timed.results]) * 1e3
    if args.trace:
        op_wall = sum(end - start for name, start, end, _, _ in tracer.spans
                      if name == tracing.ROOT)
        metrics = _layer_metrics(tracer, import_s, traced.ops_per_s / timed.ops_per_s, op_wall)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(timed.ops_per_s, "1/s"),
            "op_p50_ms": _metric(np.percentile(timed.latency_s, 50) * 1e3, "ms"),
            "op_p90_ms": _metric(np.percentile(timed.latency_s, 90) * 1e3, "ms"),
            "peak_rss_mb": _metric(timed.peak_rss_mb, "MB"),
            "pass_ratio": _metric((attempted - len(failures)) / attempted, "ratio"),
            "kept_ratio": _metric(kept_ratio, "ratio"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": timed.rounds,
        "timed_ops": len(timed.results),
        "op_counts": dict(Counter(op.label for op, _, _ in timed.results)),
        "op_p50_ms_by_type": {
            label: float(np.median([lat for (op, _, _), lat in zip(timed.results, timed.latency_s)
                                    if op.label == label])) * 1e3
            for label in dict.fromkeys(op.label for op, _, _ in timed.results)
        },
        "unscaled": {
            "wall_s": timed.wall_s,
            "ops_per_wall_s": len(timed.results) / timed.wall_s,
            "op_p50_ms": float(np.percentile(raw_ms, 50)),
            "op_p90_ms": float(np.percentile(raw_ms, 90)),
            "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
            "kernel": workload.kernel,
            "kernel_median_ms": float(np.median(timed.kernel_s)) * 1e3,
            "kernel_reference_ms": speed.KERNELS[workload.kernel][1] * 1e3,
        },
        "setup_probes": probes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "failures": failures[:10],
        "invalid": invalid,
        "missing_layers": tracer.missing if tracer else [],
        "broken_layer_extras": sorted(tracer.broken) if tracer else [],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not failures and not invalid,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
