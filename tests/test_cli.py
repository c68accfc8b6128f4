"""CLI adapters: every subcommand must mirror the library result exactly,
with the documented exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import joincond.cli as cli
import joincond.grassmann as grassmann
from joincond import (
    CertificateError,
    ModelParams,
    SubspaceTuple,
    WaringDecomposition,
    SymmetricRankOneTerm,
    cpd_condition_number,
    cpd_tangent_tuple,
    distance_to_illposed,
    nearest_intersecting_tuple,
    normalize_decomposition,
    sequence_table,
    paatero_sequence,
    waring_condition_number,
)
from joincond.experiments import S_LIMIT
from joincond.grassmann import CERTIFICATE_TOL
from conftest import (
    count_svd_calls,
    random_cpd,
    random_orthonormal,
    random_subspace_tuple,
    random_waring,
    rng_for,
    run_cli,
)


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cond_cpd_json_matches_library(tmp_path, capsys):
    rng = rng_for(120)
    d = random_cpd(rng, (3, 4, 2), 2)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path])
    assert code == 0
    payload = json.loads(out)
    report = cpd_condition_number(d)
    assert payload == report.to_json_dict()


def test_cond_cpd_keeps_the_least_vector(tmp_path, capsys, monkeypatch):
    # the model experiment's shape: cond-cpd takes the SVD with vectors, of
    # the R factor of the 480 x 96 stacked basis, and prints the vector
    d = random_cpd(rng_for(129), (6, 5, 4, 4), 6)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    qr_shapes = []
    calls = count_svd_calls(monkeypatch, qr_shapes=qr_shapes)
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path])
    assert code == 0
    assert (calls, qr_shapes) == ([True], [(480, 96)])
    payload = json.loads(out)
    assert payload["path"] == "dense"
    assert len(payload["least_vector"]) == 96
    assert abs(np.linalg.norm(payload["least_vector"]) - 1.0) <= 1e-12


def test_cond_cpd_rank_one_kappa_one(tmp_path, capsys):
    rng = rng_for(121)
    d = random_cpd(rng, (3, 3, 3), 1)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path])
    assert code == 0
    assert abs(json.loads(out)["kappa"] - 1.0) <= 1e-12


def test_cond_cpd_csv_equals_json(tmp_path, capsys):
    rng = rng_for(122)
    mats = [rng.standard_normal((m, 2)) for m in (3, 4, 2)]
    d = normalize_decomposition(mats)
    json_path = _write_json(tmp_path / "d.json", d.to_json_dict())
    csv_paths = []
    for k, M in enumerate(mats):
        p = tmp_path / f"f{k}.csv"
        np.savetxt(p, M, delimiter=",")
        csv_paths.append(str(p))
    code1, out1, _ = _run(capsys, ["cond-cpd", "--input", json_path])
    code2, out2, _ = _run(
        capsys, ["cond-cpd", "--input", ",".join(csv_paths), "--format", "csv"]
    )
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert math.isclose(a["kappa"], b["kappa"], rel_tol=1e-12)
    assert a["n"] == b["n"] and a["N"] == b["N"]


def test_cond_cpd_matrix_shaped_csv_exits_3_with_report(tmp_path, capsys):
    # the CSV twin of the matrix rows of test_cli_fuzz::test_documents_that_exit_3
    paths = [tmp_path / f"f{k}.csv" for k in range(2)]
    for p, A in zip(paths, random_cpd(rng_for(149), (5, 5), 2).factor_matrices()):
        np.savetxt(p, A, delimiter=",")
    spec = ",".join(map(str, paths))
    code, out, _ = _run(capsys, ["cond-cpd", "--input", spec, "--format", "csv"])
    assert code == 3
    payload = json.loads(out)
    assert payload["n"] <= payload["N"]
    assert payload["kappa"] == "inf"
    assert payload["well_posed"] is False


@pytest.mark.parametrize("dims, r", [((5, 5), 1), ((5, 5, 5), 2)])
def test_cond_cpd_rank_one_matrix_and_third_order_exit_0(tmp_path, capsys, dims, r):
    d = random_cpd(rng_for(150), dims, r)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path])
    assert code == 0
    assert math.isfinite(json.loads(out)["kappa"])


def test_cond_cpd_out_file(tmp_path, capsys):
    rng = rng_for(124)
    d = random_cpd(rng, (3, 3), 1)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text()) == cpd_condition_number(d).to_json_dict()


def test_cond_waring_odeco(tmp_path, capsys):
    rng = rng_for(125)
    basis = random_orthonormal(rng, 4, 2)
    d = WaringDecomposition(
        tuple(SymmetricRankOneTerm(1.0, basis[:, i], 3) for i in range(2))
    )
    path = _write_json(tmp_path / "w.json", d.to_json_dict())
    code, out, _ = _run(capsys, ["cond-waring", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["kappa"] - 1.0) <= 1e-12
    assert payload == waring_condition_number(d).to_json_dict()


def _cond_waring_capped(tmp_path, m, deg):
    """Capped cond-waring on the term e_1^(x deg) in R^m."""
    vector = [1.0] + [0.0] * (m - 1)
    path = _write_json(tmp_path / "w.json", {"m": m, "d": deg, "terms": [{"mu": 1.0, "vector": vector}]})
    return run_cli(["cond-waring", "--input", path], capped=True)


def test_cond_waring_above_entry_limit_exits_2_before_allocating(tmp_path):
    # a 66-byte document asking for about 4.4e8 floats (3.5 GB)
    done = _cond_waring_capped(tmp_path, 4, 170)
    assert done.returncode == 2, done.stderr
    assert "MAX_TANGENT_ENTRIES" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_cond_waring_below_entry_limit_runs_under_the_cap(tmp_path):
    done = _cond_waring_capped(tmp_path, 4, 60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["n"] == 4


def test_cond_cpd_above_entry_limit_exits_2_before_allocating(tmp_path):
    # a 15 kB document: nothing is compressed at (10,)*7 r=10, so the core
    # is the 1e7 x 640 stacked basis (51 GB)
    d = random_cpd(rng_for(160), (10,) * 7, 10)
    path = _write_json(tmp_path / "big.json", d.to_json_dict())
    done = run_cli(["cond-cpd", "--input", path], capped=True)
    assert done.returncode == 2, done.stderr
    assert "MAX_TANGENT_ENTRIES" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_cond_cpd_below_entry_limit_runs_under_the_cap(tmp_path):
    d = random_cpd(rng_for(161), (30, 30, 30), 10)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    done = run_cli(["cond-cpd", "--input", path], capped=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["path"] == "compressed"


def test_engine_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the engine SVDs of these inputs fall in blas.svd_threads' one-thread
    # window, so stdout is the same bytes on one BLAS thread and on two
    docs = [
        ("cond-cpd", random_cpd(rng_for(162), (15, 15, 15), 10)),
        ("cond-cpd", random_cpd(rng_for(163), (20, 20, 20), 10)),
        ("cond-waring", random_waring(rng_for(164), 10, 4, 12, signed=True)),
    ]
    for i, (command, d) in enumerate(docs):
        path = _write_json(tmp_path / f"{i}.json", d.to_json_dict())
        one, two = (run_cli([command, "--input", path], threads=t) for t in (1, 2))
        assert one.returncode == two.returncode == 0, (one.stderr, two.stderr)
        assert one.stdout == two.stdout, command


def test_grassmann_dist_identical_tuples(tmp_path, capsys):
    rng = rng_for(126)
    t = random_subspace_tuple(rng, 5, (2, 1))
    path = _write_json(tmp_path / "pair.json", [t.to_json_dict(), t.to_json_dict()])
    code, out, _ = _run(capsys, ["grassmann", "--input", path, "--mode", "dist"])
    assert code == 0
    assert json.loads(out)["distance"] <= 1e-12


def test_grassmann_illposed_orthogonal_lines(tmp_path, capsys):
    t = SubspaceTuple(3, (np.eye(3)[:, :1], np.eye(3)[:, 1:2]))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    code, out, _ = _run(capsys, ["grassmann", "--input", path, "--mode", "illposed"])
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["distance"], 1.0, rel_tol=1e-12)
    assert payload["intersecting"] is False


@pytest.mark.parametrize("tol", [1e-8, 2.0])
def test_grassmann_illposed_runs_one_svd(tmp_path, capsys, monkeypatch, tol):
    t = random_subspace_tuple(rng_for(127), 40, (3, 4, 5))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    qr_shapes = []
    calls = count_svd_calls(monkeypatch, qr_shapes=qr_shapes)
    argv = ["grassmann", "--input", path, "--mode", "illposed", "--tol", str(tol)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    # values only: one SVD without singular vectors, and no QR before it
    assert (calls, qr_shapes) == ([False], [])
    payload = json.loads(out)
    assert payload["distance"] == distance_to_illposed(t)
    assert payload["intersecting"] is (payload["distance"] <= tol)


def test_grassmann_illposed_overfull_runs_no_svd(tmp_path, capsys, monkeypatch):
    t = random_subspace_tuple(rng_for(126), 3, (2, 2))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    calls = count_svd_calls(monkeypatch)
    argv = ["grassmann", "--input", path, "--mode", "illposed", "--tol", "0"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert calls == []
    assert json.loads(out) == {"distance": 0.0, "intersecting": True}


def test_grassmann_certify_matches_illposed(tmp_path, capsys):
    rng = rng_for(128)
    t = random_subspace_tuple(rng, 6, (2, 1, 2))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    code, out, _ = _run(capsys, ["grassmann", "--input", path, "--mode", "certify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnostics"]["intersect_residual"] <= 1e-8
    assert abs(payload["distance"] - distance_to_illposed(t)) <= 1e-8
    assert payload["input_sha256"] == t.sha256()
    library = nearest_intersecting_tuple(t)
    assert math.isclose(payload["distance"], library.distance, rel_tol=1e-12)


def test_grassmann_certify_tolerance_failure_exits_4(tmp_path, capsys, monkeypatch):
    rng = rng_for(131)
    t = random_subspace_tuple(rng, 5, (1, 1))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())

    def boom(_):
        raise CertificateError("synthetic residual failure", 1e-3, 1e-3)

    monkeypatch.setattr(cli, "nearest_intersecting_tuple", boom)
    code, _, err = _run(capsys, ["grassmann", "--input", path, "--mode", "certify"])
    assert code == 4
    assert "certificate" in err


def test_grassmann_certify_invalid_nearest_exits_2(tmp_path, capsys, monkeypatch):
    # the nearest tuple is built and validated while the payload is, inside
    # the try that maps a ValueError to an input error
    t = random_subspace_tuple(rng_for(132), 6, (2, 1))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    monkeypatch.setattr(grassmann, "_rotate_to_contain", lambda W, x: 2.0 * W)
    code, out, err = _run(capsys, ["grassmann", "--input", path, "--mode", "certify"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid tangent basis") and "Traceback" not in err


def test_experiment_paatero_matches_library_and_reruns_identically(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    argv = ["experiment", "--name", "paatero", "--seed", "42", "--s-min", "1", "--s-max", "8"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "paatero_kappa.csv").read_bytes()
    b2 = (out2 / "paatero_kappa.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode("ascii").strip().split("\n")
    assert lines[0] == "s,kappa,max_term_norm"
    rows = sequence_table(paatero_sequence, 42, range(1, 9))
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert int(first[0]) == rows[0][0]
    assert float(first[1]) == pytest.approx(rows[0][1], rel=1e-15)


def test_experiment_dsl_small_grid(tmp_path, capsys):
    out = tmp_path / "dsl"
    code = cli.main(
        ["experiment", "--name", "dsl", "--seed", "7", "--s-min", "1", "--s-max", "5", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    lines = (out / "dsl_kappa.csv").read_text().strip().split("\n")
    assert lines[0] == "s,kappa,max_term_norm"
    assert len(lines) == 6
    kappas = [float(l.split(",")[1]) for l in lines[1:]]
    assert kappas == sorted(kappas)


def test_experiment_examples_outputs(tmp_path, capsys):
    out = tmp_path / "ex"
    code = cli.main(["experiment", "--name", "examples", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    const = (out / "example_constant_kappa.csv").read_text().strip().split("\n")
    assert const[0] == "t,kappa"
    assert len(const) == 31
    for line in const[1:]:
        assert abs(float(line.split(",")[1]) - 1.0) <= 1e-10
    osc = (out / "example_oscillating_kappa.csv").read_text().strip().split("\n")
    assert osc[0] == "t,kappa,kappa_analytic"
    assert len(osc) == 51
    for line in osc[1:]:
        _, engine, analytic = line.split(",")
        assert math.isclose(float(engine), float(analytic), rel_tol=1e-10)


def test_experiment_model_tiny(tmp_path, capsys):
    out = tmp_path / "model"
    code = cli.main(
        [
            "experiment",
            "--name",
            "model",
            "--seed",
            "1",
            "--samples",
            "2",
            "--s-min",
            "1",
            "--s-max",
            "2",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    deciles = (out / "scaling_factor_deciles.csv").read_text().strip().split("\n")
    quartiles = (out / "kappa_quartiles.csv").read_text().strip().split("\n")
    assert deciles[0] == "s," + ",".join(f"decile_{i}" for i in range(1, 10))
    assert quartiles[0] == "s,q1,median,q3"
    assert len(deciles) == 3 and len(quartiles) == 3


def test_seed_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--name", "paatero", "--seed", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_experiment_model_nonpositive_samples_exits_2(tmp_path, capsys, samples):
    argv = ["experiment", "--name", "model", "--samples", samples, "--out", str(tmp_path / "m")]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize("name", ["model", "paatero", "dsl"])
def test_experiment_reversed_s_range_exits_2(tmp_path, capsys, name):
    out = tmp_path / name
    argv = ["experiment", "--name", name, "--s-min", "5", "--s-max", "1", "--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "--s-min" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["model", "paatero", "dsl"])
@pytest.mark.parametrize("s", [S_LIMIT, -S_LIMIT])
def test_experiment_runs_at_the_s_bound(tmp_path, capsys, name, s):
    # the sequences and the model still run, warning-free, at |s| = 1000
    assert S_LIMIT == 1000
    out = tmp_path / name
    argv = ["experiment", "--name", name, "--samples", "1", "--s-min", str(s),
            "--s-max", str(s), "--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 0
    assert err == ""
    csv = "kappa_quartiles.csv" if name == "model" else f"{name}_kappa.csv"
    assert (out / csv).read_text().splitlines()[1].startswith(f"{s},")


@pytest.mark.parametrize("name", ["model", "paatero", "dsl"])
@pytest.mark.parametrize("s_min, s_max", [(S_LIMIT + 1, S_LIMIT + 1), (-S_LIMIT - 1, 1)])
def test_experiment_s_beyond_bound_exits_2(tmp_path, capsys, name, s_min, s_max):
    out = tmp_path / name
    argv = ["experiment", "--name", name, "--s-min", str(s_min), "--s-max", str(s_max),
            "--out", str(out)]
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "[-1000, 1000]" in err
    assert not out.exists()


def test_parser_defaults_are_the_library_values():
    parser = cli._build_parser()
    experiment = parser.parse_args(["experiment", "--name", "model"])
    assert experiment.samples == ModelParams().samples
    grassmann = parser.parse_args(["grassmann", "--input", "t.json"])
    assert grassmann.tol == CERTIFICATE_TOL


@pytest.mark.parametrize("tol", ["nan", "-0.001"])
def test_grassmann_illposed_bad_tolerance_exits_2(tmp_path, capsys, tol):
    t = random_subspace_tuple(rng_for(142), 4, (1, 1))
    path = _write_json(tmp_path / "t.json", t.to_json_dict())
    code, _, err = _run(capsys, ["grassmann", "--input", path, "--mode", "illposed", "--tol", tol])
    assert code == 2
    assert "--tol" in err


def test_cond_cpd_integral_float_dims_exit_0(tmp_path, capsys):
    # 2.5 is refused (test_cli_fuzz::test_documents_that_raised_exit_2); 2.0 is an integer
    payload = {"dims": [2.0, 2], "terms": [{"mu": 1.0, "vectors": [[1.0, 0.0], [1.0, 0.0]]}]}
    assert _run(capsys, ["cond-cpd", "--input", _write_json(tmp_path / "d.json", payload)])[0] == 0


def test_cond_cpd_reports_path_and_sigma_1(tmp_path, capsys):
    # m_k = 5 > r = 2 in every mode, so the SVD runs on the compressed matrix
    d = random_cpd(rng_for(143), (5, 5, 5), 2)
    path = _write_json(tmp_path / "d.json", d.to_json_dict())
    code, out, _ = _run(capsys, ["cond-cpd", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "compressed"
    U = cpd_tangent_tuple(d).stacked()
    assert math.isclose(payload["sigma_1"], np.linalg.svd(U, compute_uv=False)[0], rel_tol=1e-12)


def test_parser_is_built_once_and_reused_across_calls(tmp_path, capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    cpd = _write_json(tmp_path / "d.json", random_cpd(rng_for(145), (3, 4, 2), 2).to_json_dict())
    waring = _write_json(tmp_path / "w.json", random_waring(rng_for(146), 3, 3, 2).to_json_dict())
    tup = _write_json(tmp_path / "t.json", random_subspace_tuple(rng_for(147), 6, (2, 1)).to_json_dict())
    bad = _write_json(tmp_path / "bad.json", {"m": 3, "terms": []})
    calls = [
        ["cond-cpd", "--input", cpd],
        ["cond-waring", "--input", bad],
        ["grassmann", "--input", tup, "--mode", "illposed", "--tol", "0"],
        ["cond-waring", "--input", waring],
        ["cond-cpd", "--input", cpd, "--bogus"],
        ["grassmann", "--input", tup, "--mode", "certify"],
        ["cond-cpd", "--input", cpd],
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    reused = run_all()
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, ("SystemExit", 2), 0, 0]
    assert reused[0] == reused[-1]
    # the same calls, each through a freshly built parser, print the same bytes
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == reused


# The emitter's float lists: finite ones take its str() branch, and lists
# with NaN, inf, np.float64 or other items take the generic one.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(
    FINITE,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-310, 1e300, 5e-324]),
    FINITE.map(np.float64),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text())
PAYLOADS = st.recursive(
    st.one_of(SCALARS, st.lists(FINITE), st.lists(FLOATS)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


@given(payload=PAYLOADS)
@example(payload={"a": [], "b": {}, "c": [[1.0, -0.0], [2.0, math.nan]], "\u00e9": [1e300, 1]})
@example(payload=[True, 1.0])
def test_emitter_writes_the_bytes_of_json_dumps(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
