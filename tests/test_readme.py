"""The README's examples run as written: the Python quick start prints what
it says, and its JSON documents go through the command line."""

import json
import re
from pathlib import Path

import joincond.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_quick_start(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
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
    assert json.loads(out)["distance"] == 1.0
