"""Command-line interface.

Subcommands are thin adapters: each parses its input, calls exactly one
library entry point, and serializes the result (JSON for structured reports,
CSV for experiment tables).  Diagnostics go to stderr only.

Exit codes: 0 success, 2 input error, 3 dimensionally ill-posed (the report
is still emitted where one exists), 4 numerical-certificate failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .condition import SubspaceTuple
from .experiments import (
    S_LIMIT,
    ModelParams,
    desilva_lim_sequence,
    example_41_kappa,
    example_42_kappa,
    paatero_sequence,
    run_forward_error_experiment,
    sequence_table,
    write_csv,
)
from .grassmann import (
    CERTIFICATE_TOL,
    CertificateError,
    distance_to_illposed,
    nearest_intersecting_tuple,
    projection_distance,
)
from .segre import cpd_condition_number, is_defective as cpd_is_defective
from .tensor import CPDecomposition, normalize_decomposition
from .waring import WaringDecomposition, is_defective, waring_condition_number

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIMENSION = 3
EXIT_CERTIFICATE = 4


class InputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _read(path: str, parse, what: str):
    """parse applied to the JSON document at path; every failure to read or
    parse it is an InputError that names the file or the kind of document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise InputError(f"cannot read JSON input {path}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from exc


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    indent=2 forces json's pure-Python encoder, so this writes the layout
    itself: each scalar and key goes through json.dumps, and a non-empty
    list of finite, exactly-float items is written in one str() call, whose
    float repr is json's.  Lists holding NaN or inf (json writes NaN and
    Infinity), other types or nothing take the generic branch.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{inner}{json.dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(obj) is list and obj and set(map(type, obj)) == {float}:
        text = str(obj)
        if "n" not in text:  # nan, inf
            return "[\n" + inner + text[1:-1].replace(", ", ",\n" + inner) + "\n" + indent + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(inner + _dumps(x, inner) for x in obj) + "\n" + indent + "]"
    return json.dumps(obj)


def _emit(payload: dict, out: str | None) -> None:
    text = _dumps(payload)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _load_cpd(args) -> CPDecomposition:
    if args.format == "csv":
        paths = [p for p in args.input.split(",") if p]
        if not paths:
            raise InputError("csv format needs comma-separated factor paths")
        try:
            with warnings.catch_warnings():
                # loadtxt only warns about an empty file; that is an input error
                warnings.simplefilter("error", UserWarning)
                mats = [np.loadtxt(p, delimiter=",", ndmin=2) for p in paths]
        except (OSError, ValueError, UserWarning) as exc:
            raise InputError(f"cannot read factor CSV: {exc}") from exc
        try:
            return normalize_decomposition(mats)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return _read(args.input, CPDecomposition.from_json_dict, "decomposition")


def cmd_cond_cpd(args) -> int:
    decomp = _load_cpd(args)
    try:
        report = cpd_condition_number(decomp)
    except ValueError as exc:  # above condition.MAX_TANGENT_ENTRIES
        raise InputError(str(exc)) from exc
    _emit(report.to_json_dict(), args.out)
    return EXIT_DIMENSION if cpd_is_defective(decomp) else EXIT_OK


def cmd_cond_waring(args) -> int:
    decomp = _read(args.input, WaringDecomposition.from_json_dict, "decomposition")
    try:
        report = waring_condition_number(decomp)
    except ValueError as exc:  # above condition.MAX_TANGENT_ENTRIES
        raise InputError(str(exc)) from exc
    _emit(report.to_json_dict(), args.out)
    return EXIT_DIMENSION if is_defective(decomp.m, decomp.d, decomp.rank) else EXIT_OK


def _tuple_pair(data) -> tuple[SubspaceTuple, SubspaceTuple]:
    if not (isinstance(data, list) and len(data) == 2):
        raise InputError("dist mode expects a JSON array of two tuples")
    return SubspaceTuple.from_json_dict(data[0]), SubspaceTuple.from_json_dict(data[1])


def cmd_grassmann(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise InputError("--tol must be a finite number >= 0")
    if args.mode == "dist":
        first, second = _read(args.input, _tuple_pair, "subspace tuple")
        try:
            distance = projection_distance(first, second)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        _emit({"distance": distance}, args.out)
        return EXIT_OK
    tup = _read(args.input, SubspaceTuple.from_json_dict, "subspace tuple")
    if args.mode == "illposed":
        # one SVD: the distance is 0 when n > N, and tol >= 0 was checked
        distance = distance_to_illposed(tup)
        _emit({"distance": distance, "intersecting": distance <= args.tol}, args.out)
        return EXIT_OK
    if tup.n > tup.ambient_dim:
        print("error: total block dimension exceeds the ambient dimension", file=sys.stderr)
        return EXIT_DIMENSION
    try:
        certificate = nearest_intersecting_tuple(tup)
    except CertificateError as exc:
        print(f"error: certificate tolerance not met: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(certificate.to_json_dict(original=tup), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    s_lo = args.s_min if args.s_min is not None else 1
    s_hi = args.s_max if args.s_max is not None else (50 if args.name == "model" else 90)
    if args.name != "examples":
        if s_lo > s_hi:
            raise InputError(f"--s-min {s_lo} exceeds --s-max {s_hi}")
        if max(abs(s_lo), abs(s_hi)) > S_LIMIT:
            raise InputError(f"--s-min and --s-max must lie in [-{S_LIMIT}, {S_LIMIT}]")
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    out_dir = Path(args.out if args.out is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.name == "model":
        params = ModelParams(samples=args.samples, base_seed=args.seed)
        run_forward_error_experiment(params, range(s_lo, s_hi + 1), out_dir)
        return EXIT_OK
    if args.name in ("paatero", "dsl"):
        sequence = paatero_sequence if args.name == "paatero" else desilva_lim_sequence
        rows = sequence_table(sequence, args.seed, range(s_lo, s_hi + 1))
        write_csv(out_dir / f"{args.name}_kappa.csv", "s,kappa,max_term_norm", rows)
        return EXIT_OK
    # Fixed evaluation grids for the two explicit curve families.
    constant_rows = [(i / 10.0, example_41_kappa(i / 10.0).engine) for i in range(1, 31)]
    write_csv(out_dir / "example_constant_kappa.csv", "t,kappa", constant_rows)
    oscillating_rows = []
    for t in np.linspace(1.0, 10.0, 50):
        engine, analytic = example_42_kappa(float(t))
        oscillating_rows.append((float(t), engine, analytic))
    write_csv(
        out_dir / "example_oscillating_kappa.csv",
        "t,kappa,kappa_analytic",
        oscillating_rows,
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="joincond",
        description="Condition numbers of join decompositions: CP, Waring, "
        "and Grassmannian distance-to-ill-posedness certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cond_cpd = sub.add_parser("cond-cpd", help="condition number of a CP decomposition")
    cond_cpd.add_argument("--input", required=True, help="decomposition JSON, or comma-separated per-mode factor CSVs with --format csv")
    cond_cpd.add_argument("--format", choices=("json", "csv"), default="json")
    cond_cpd.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    cond_cpd.set_defaults(func=cmd_cond_cpd)

    cond_waring = sub.add_parser("cond-waring", help="condition number of a symmetric decomposition")
    cond_waring.add_argument("--input", required=True, help="decomposition JSON")
    cond_waring.add_argument("--out", default=None)
    cond_waring.set_defaults(func=cmd_cond_waring)

    grassmann = sub.add_parser("grassmann", help="subspace-tuple distances and certificates")
    grassmann.add_argument("--input", required=True, help="subspace tuple JSON (an array of two tuples for --mode dist)")
    grassmann.add_argument("--mode", choices=("dist", "illposed", "certify"), default="illposed")
    grassmann.add_argument("--tol", type=float, default=CERTIFICATE_TOL, help="intersection tolerance for illposed mode")
    grassmann.add_argument("--out", default=None)
    grassmann.set_defaults(func=cmd_grassmann)

    experiment = sub.add_parser("experiment", help="reproduction experiments, CSV output")
    experiment.add_argument("--name", choices=("model", "paatero", "dsl", "examples"), required=True)
    experiment.add_argument("--seed", type=_seed, default=0)
    experiment.add_argument("--samples", type=int, default=ModelParams.samples, help="samples per s (model experiment)")
    experiment.add_argument("--s-min", type=int, default=None)
    experiment.add_argument("--s-max", type=int, default=None)
    experiment.add_argument("--out", default=None, help="output directory (default: current)")
    experiment.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
