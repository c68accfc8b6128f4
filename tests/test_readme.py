"""The README's examples run as written: the Python quick start prints what
it says, and its JSON documents go through the command line."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import joincond.cli as cli
from joincond import cpd_tangent_tuple, nearest_intersecting_tuple, paatero_sequence
from conftest import random_subspace_tuple, rng_for
from test_grassmann import _recipe_sha256

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_quick_start(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "1.0\n" * 3


def _run(tmp_path, capsys, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(document, encoding="utf-8")
    code = cli.main(argv + ["--input", str(path)])
    return code, capsys.readouterr().out


def test_readme_json_documents_exit_0(tmp_path, capsys):
    documents = _blocks("json")
    assert len(documents) == 2
    for command, document in zip(("cond-cpd", "cond-waring"), documents):
        code, out = _run(tmp_path, capsys, [command], document)
        assert code == 0, command
        assert json.loads(out)["well_posed"] is True


def test_readme_tuple_certificate_at_distance_1(tmp_path, capsys):
    (document,) = re.findall(r'`(\{"N": 3, .*?\})`', README.read_text())
    code, out = _run(tmp_path, capsys, ["grassmann", "--mode", "certify"], document)
    assert code == 0
    cert = json.loads(out)
    # block 1 turns onto block 0's line: two equal witnesses, dependent
    # exactly
    x, y = cert["witness_directions"]
    assert cert["distance"] == 1.0 and x == y
    assert cert["diagnostics"]["intersect_residual"] == 0.0
    assert cert["input_sha256"] == _recipe_sha256(json.loads(document))


def _check(monkeypatch, tuple_path, cert_path):
    """Run the README's certificate checker on two files, as its command
    line would."""
    checker = _blocks("python")[1]
    assert len(checker.splitlines()) <= 6
    monkeypatch.setattr(sys, "argv", ["check.py", str(tuple_path), str(cert_path)])
    exec(compile(checker, str(README), "exec"), {})


def test_readme_checker_accepts_certificates_and_rejects_a_moved_witness(tmp_path, monkeypatch):
    (readme_tuple,) = re.findall(r'`(\{"N": 3, .*?\})`', README.read_text())
    rng = rng_for(150)
    documents = [json.loads(readme_tuple)] + [
        random_subspace_tuple(rng, N, dims).to_json_dict()
        for N, dims in ((12, (2, 2, 2)), (9, (2, 1, 3)), (6, (1,) * 6))
    ]
    for document in documents:
        tuple_path = tmp_path / "tuple.json"
        tuple_path.write_text(json.dumps(document), encoding="utf-8")
        assert cli.main(["grassmann", "--mode", "certify", "--input", str(tuple_path),
                         "--out", str(tmp_path / "cert.json")]) == 0
        _check(monkeypatch, tuple_path, tmp_path / "cert.json")
    # witness 0 of the last certificate, turned 1e-3 toward a unit vector
    # orthogonal to it, is still a unit vector but breaks the dependence
    cert = json.loads((tmp_path / "cert.json").read_text())
    x = np.array(cert["witness_directions"][0])
    z = rng.standard_normal(x.size)
    z -= (z @ x) * x
    moved = x + 1e-3 * z / np.linalg.norm(z)
    cert["witness_directions"][0] = (moved / np.linalg.norm(moved)).tolist()
    (tmp_path / "moved.json").write_text(json.dumps(cert), encoding="utf-8")
    with pytest.raises(AssertionError):
        _check(monkeypatch, tuple_path, tmp_path / "moved.json")


def test_readme_checker_accepts_an_engine_certificate(tmp_path, monkeypatch):
    # a paatero tangent tuple's certificate starts from the CP engine's
    # triplet, not the dense SVD; the checker sees only the two documents
    t = cpd_tangent_tuple(paatero_sequence(0, 40))
    cert = nearest_intersecting_tuple(t)
    assert cert.distance > 0.0
    for name, document in (("tuple.json", t), ("cert.json", cert)):
        (tmp_path / name).write_text(json.dumps(document.to_json_dict()), encoding="utf-8")
    _check(monkeypatch, tmp_path / "tuple.json", tmp_path / "cert.json")


def test_readme_stays_within_430_lines():
    # proofs live in module docstrings and history in CHANGES.md
    assert len(README.read_text().splitlines()) <= 430
