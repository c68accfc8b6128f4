"""Generated malformed CLI input: every case ends in a documented exit code
(0, 2, 3 or 4) and no exception escapes cli.main.

Documents start from a valid cond-cpd, cond-waring or grassmann input and
take up to three mutations: a value replaced by junk or by its JSON text,
a key or list item dropped, or junk appended.  A draw that holds a string,
boolean or null must exit 2.  Tensors keep prod_k m_k <= 1e5 (m_k <= 6 in at
most four modes; m <= 4 and d <= 8, or m = 1 and d <= MAX_ORDER, for
Waring terms), so no example allocates much.  argparse reports a usage
error by raising SystemExit(2), which is exit 2 as well.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import joincond.cli as cli
from joincond import (
    CPDecomposition,
    WaringDecomposition,
    cpd_condition_number,
    waring_condition_number,
)
from joincond.waring import MAX_ORDER

# the conftest profile, with 150 examples instead of 120
FUZZ_SETTINGS = settings(max_examples=150)
EXIT_CODES = {0, 2, 3, 4}

# Junk for any position.  Waring's "d" takes the kind that keeps m^d small
# or is past MAX_ORDER: the symmetric rows grow with d.
ORDER_JUNK = st.one_of(
    st.sampled_from([None, True, False, -1, 0, 1, 2.5, -0.0, math.nan, math.inf, "", "3", [], {}]),
    st.sampled_from([171, 1e308, 10**400, 2**64]),
    st.integers(-3, 8),
)
JUNK = st.one_of(
    ORDER_JUNK,
    st.sampled_from([5e-324, -(10**400), [[]], [1.0], [[1.0, 0.0]], {"mu": 1}]),
    st.floats(),
    st.text(max_size=3),
)


def _unit_columns(rng, m, r):
    A = rng.standard_normal((m, r))
    return A / np.linalg.norm(A, axis=0)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def _mutated(draw, doc):
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        # a copy, so that appending into junk never edits the strategy's own
        junk = copy.deepcopy(draw(ORDER_JUNK if path and path[-1] == "d" else JUNK))
        if not path:
            doc = junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "drop", "append", "quote"]))
        if action == "replace":
            parent[path[-1]] = junk
        elif action == "quote":
            # a number turns into a numeric string, which is still no number
            parent[path[-1]] = json.dumps(parent[path[-1]])
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(junk)
    return doc


@st.composite
def cpd_documents(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = [_unit_columns(rng, m, r) for m in dims]
    doc = {
        "dims": dims,
        "terms": [
            {"mu": float(rng.uniform(0.5, 2.0)), "vectors": [F[:, i].tolist() for F in factors]}
            for i in range(r)
        ],
    }
    return draw(_mutated(doc))


@st.composite
def waring_documents(draw):
    m, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.integers(1, MAX_ORDER if m == 1 else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = _unit_columns(rng, m, r)
    doc = {
        "m": m,
        "d": d,
        "terms": [{"mu": float(rng.choice((-1.0, 1.0))), "vector": v.tolist()} for v in V.T],
    }
    return draw(_mutated(doc))


def _tuple_doc(rng, N, block_dims):
    blocks = [np.linalg.qr(rng.standard_normal((N, k)))[0] for k in block_dims]
    return {"N": N, "blocks": [B.T.tolist() for B in blocks]}


@st.composite
def grassmann_documents(draw, pair):
    """One tuple, or for --mode dist a pair, mostly of equal block dims."""
    N = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = st.lists(st.integers(1, min(N, 3)), min_size=1, max_size=3)
    first = draw(shape)
    doc = _tuple_doc(rng, N, first)
    if pair:
        doc = [doc, _tuple_doc(rng, N, draw(st.sampled_from([first, first, draw(shape)])))]
    return draw(_mutated(doc))


# Whole files that are no JSON document at all.
RAW_TEXT = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"", b"{", b'{"dims": [2], "terms": [', b"[" * 5000, b"\xff\xfe{}"]),
)


def _holds_non_number(node):
    """Whether a document holds a string, boolean or null value (keys aside);
    no valid document does, so each such draw must exit 2."""
    if isinstance(node, dict):
        return any(_holds_non_number(value) for value in node.values())
    if isinstance(node, list):
        return any(_holds_non_number(value) for value in node)
    return node is None or isinstance(node, (str, bool))


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"usage error exited {exc.code}"
            return 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, suffix, payload):
    """payload, bytes or a document to encode as JSON, in a new file; on some
    filesystems overwriting a file is far slower than creating one."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode()
    fd, path = tempfile.mkstemp(suffix=suffix, dir=workdir)
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
    return path


@FUZZ_SETTINGS
@given(doc=st.one_of(cpd_documents(), RAW_TEXT))
def test_cond_cpd_fuzz(workdir, doc):
    path = _write(workdir, ".json", doc)
    code = _exit_code(["cond-cpd", "--input", path])
    assert code == 2 if _holds_non_number(doc) else code in EXIT_CODES


@FUZZ_SETTINGS
@given(doc=st.one_of(waring_documents(), RAW_TEXT))
def test_cond_waring_fuzz(workdir, doc):
    path = _write(workdir, ".json", doc)
    code = _exit_code(["cond-waring", "--input", path])
    assert code == 2 if _holds_non_number(doc) else code in EXIT_CODES


@FUZZ_SETTINGS
@given(
    mode=st.sampled_from(["dist", "illposed", "certify"]),
    misfit=st.sampled_from([False, False, False, True]),
    tol=st.sampled_from([None, None, None, "0", "1e-3", "-1", "nan", "inf", "x"]),
    data=st.data(),
)
def test_grassmann_fuzz(workdir, mode, misfit, tol, data):
    # a pair of tuples for --mode dist and one tuple otherwise, unless misfit
    kind = grassmann_documents(pair=(mode == "dist") != misfit)
    doc = data.draw(st.one_of(kind, RAW_TEXT))
    path = _write(workdir, ".json", doc)
    argv = ["grassmann", "--input", path, "--mode", mode]
    if tol is not None:
        argv += ["--tol", tol]
    code = _exit_code(argv)
    assert code == 2 if _holds_non_number(doc) else code in EXIT_CODES


# Each draw carries at least one of these, so no model grid ever runs.
BAD_EXPERIMENT_FLAGS = st.sampled_from([
    ["--samples", "0"],
    ["--samples", "-7"],
    ["--samples", "1.5"],
    ["--seed", "-1"],
    ["--seed", str(2**64)],
    ["--seed", "x"],
    ["--s-min", "5", "--s-max", "1"],
    ["--s-min", "1001"],
    ["--s-max", "-1001"],
    ["--s-max", str(10**30)],
    ["--s-min", "2.5"],
    ["--name", "frobnicate"],
    ["--bogus"],
    ["--out", "FILE"],
])


@FUZZ_SETTINGS
@given(
    name=st.sampled_from(["model", "paatero", "dsl", "examples"]),
    s_min=st.integers(-3, 3),
    bad=st.lists(BAD_EXPERIMENT_FLAGS, min_size=1, max_size=3),
)
def test_experiment_bad_flags_fuzz(workdir, name, s_min, bad):
    taken = _write(workdir, ".csv", b"")
    argv = ["experiment", "--name", name, "--samples", "1", "--s-min", str(s_min),
            "--s-max", str(s_min + 1), "--out", tempfile.mkdtemp(dir=workdir)]
    for flags in bad:
        argv += [taken if flag == "FILE" else flag for flag in flags]
    code = _exit_code(argv)
    assert code in EXIT_CODES
    if name != "examples":
        assert code == 2


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "case, second",
    [
        ("empty path list", None),
        ("missing file", None),
        ("ragged rows", "1.0,2.0\n3.0\n"),
        ("zero column", "1.0,0.0\n2.0,0.0\n"),
        ("nan", "1.0,nan\n2.0,3.0\n"),
        ("empty file", ""),
        ("infinite entry", "1.0,inf\n2.0,3.0\n"),
        ("overflowing norm", "1e200,1.0\n1e200,2.0\n"),
    ],
)
def test_cond_cpd_csv_failures_exit_2(tmp_path, capsys, case, second):
    first = _write_csv(tmp_path / "a.csv", "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    if case == "empty path list":
        spec = ","
    elif case == "missing file":
        spec = f"{first},{tmp_path / 'nope.csv'}"
    else:
        spec = f"{first},{_write_csv(tmp_path / 'b.csv', second)}"
    code = cli.main(["cond-cpd", "--format", "csv", "--input", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


BIG = "1" + "0" * 400  # an integer literal too large for a float


# Each row: the command, the document's text (None: no file at that path),
# and a substring that stderr must hold.
@pytest.mark.parametrize(
    "command, text, err",
    [
        ("cond-cpd", None, ""),
        ("cond-cpd", '{"broken', ""),
        ("cond-cpd", "[" * 5000, ""),
        ("grassmann", "\udcff", ""),
        ("cond-waring", '{"m": 3, "terms": []}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": %s, "vectors": [[1.0, 0.0]]}]}' % BIG, ""),
        ("cond-cpd", '{"dims": [1], "terms": [{"mu": 1.0, "vectors": [[1e308]]}]}', ""),
        ("cond-waring", '{"m": 2, "d": 3, "terms": [{"mu": 1.0, "vector": [%s, 0]}]}' % BIG, ""),
        ("grassmann", '{"N": 2, "blocks": [[[%s, 0]]]}' % BIG, ""),
        # non-finite weights, vectors and bases
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": Infinity, "vectors": [[1, 0]]}]}', "finite"),
        ("cond-waring", '{"m": 2, "d": 3, "terms": [{"mu": NaN, "vector": [1, 0]}]}', "finite"),
        ("cond-cpd", '{"dims": [2, 2], "terms": [{"mu": 1.0, "vectors": [[NaN, 0], [1, 0]]}]}',
         "unit norm"),
        ("cond-waring", '{"m": 2, "d": 3, "terms": [{"mu": 1.0, "vector": [NaN, 0]}]}',
         "unit norm"),
        ("grassmann --mode illposed", '{"N": 3, "blocks": [[[1, 0, 0]], [[0, NaN, 0]]]}',
         "orthonormality"),
        ("grassmann --mode illposed", '{"N": 3, "blocks": [[[1, 1, 0]]]}', ""),
        # non-integral dims, m, d and N, and Waring orders outside 1..MAX_ORDER
        ("cond-cpd", '{"dims": [2.5, 2], "terms": [{"mu": 1.0, "vectors": [[1, 0], [1, 0]]}]}',
         "dims must be an integer"),
        ("cond-waring", '{"m": 2.7, "d": 3, "terms": [{"mu": 1.0, "vector": [1, 0]}]}',
         "m must be an integer"),
        ("cond-waring", '{"m": 2, "d": 2.5, "terms": [{"mu": 1.0, "vector": [1, 0]}]}',
         "d must be an integer"),
        ("grassmann --mode illposed", '{"N": 3.5, "blocks": [[[1, 0, 0]], [[0, 1, 0]]]}',
         "ambient dimension must be an integer"),
        ("cond-waring", '{"m": 2, "d": 0, "terms": [{"mu": 1.0, "vector": [1, 0]}]}',
         "order must be in 1..170"),
        ("cond-waring", '{"m": 1, "d": 171, "terms": [{"mu": 1.0, "vector": [1.0]}]}', ""),
        # a string, boolean or null is no number, and a nested list no vector
        ("cond-cpd", '{"dims": [true, 2], "terms": [{"mu": 1.0, "vectors": [[1], [1, 0]]}]}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": "2.5", "vectors": [[1, 0]]}]}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": true, "vectors": [[1, 0]]}]}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": 1.0, "vectors": [["1", "0"]]}]}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": 1.0, "vectors": [[1, false]]}]}', ""),
        ("cond-cpd", '{"dims": [2], "terms": [{"mu": 1.0, "vectors": [[[1, 0]]]}]}', ""),
        ("cond-waring", '{"m": 2, "d": true, "terms": [{"mu": 1.0, "vector": [1, 0]}]}', ""),
        ("cond-waring", '{"m": 2, "d": 3, "terms": [{"mu": 1.0, "vector": ["1", "0"]}]}', ""),
        ("cond-waring", '{"m": 2, "d": 3, "terms": [{"mu": 1.0, "vector": [[1, 0]]}]}', ""),
        ("grassmann", '{"N": true, "blocks": [[[1]]]}', ""),
        ("grassmann", '{"N": 2, "blocks": [[["1", 0]], [[0, "1"]]]}', ""),
        ("grassmann", '{"N": 2, "blocks": [[[1, false]], [[false, 1]]]}', ""),
        # declared dims or m that are not the vectors'
        ("cond-cpd", '{"dims": [3], "terms": [{"mu": 1.0, "vectors": [[1, 0]]}]}', ""),
        ("cond-waring", '{"m": 3, "d": 2, "terms": [{"mu": 1.0, "vector": [1, 0]}]}', ""),
        # a term without mode vectors, blocks of the wrong height or no
        # width, one tuple or a pair in different ambient spaces for --mode
        # dist, and one block to certify
        ("cond-cpd", '{"dims": [], "terms": [{"mu": 1.0, "vectors": []}]}', ""),
        ("grassmann", '{"N": 3, "blocks": [[[1, 0]]]}', ""),
        ("grassmann", '{"N": 3, "blocks": [[], [[0, 1, 0]]]}', ""),
        ("grassmann --mode dist", '{"N": 4, "blocks": [[[1, 0, 0, 0]], [[0, 1, 0, 0]]]}', ""),
        ("grassmann --mode dist",
         '[{"N": 2, "blocks": [[[1, 0]]]}, {"N": 3, "blocks": [[[1, 0, 0]]]}]', ""),
        ("grassmann --mode certify", '{"N": 4, "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]]]}', ""),
    ],
)
def test_documents_that_raised_exit_2(tmp_path, capsys, command, text, err):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code = cli.main(command.split() + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert err in captured.err


LIBRARY = {
    "cond-cpd": lambda doc: cpd_condition_number(CPDecomposition.from_json_dict(doc)),
    "cond-waring": lambda doc: waring_condition_number(WaringDecomposition.from_json_dict(doc)),
}


# Each row: a document that is ill posed by its dimensions alone.  Its
# vectors are basis vectors and (0.6, 0.8) pairs, so no verdict rests on
# rounding.
@pytest.mark.parametrize(
    "command, text",
    [
        # n = 12 > N = 8
        ("cond-cpd", '{"dims": [2, 2, 2], "terms": ['
         '{"mu": 1.0, "vectors": [[1, 0], [1, 0], [1, 0]]}, '
         '{"mu": 1.0, "vectors": [[0, 1], [0, 1], [0, 1]]}, '
         '{"mu": 1.0, "vectors": [[0.6, 0.8], [0.6, 0.8], [0.6, 0.8]]}]}'),
        # matrix decompositions with n <= N: a_1 x b_2 lies in both tangent spaces
        ("cond-cpd", '{"dims": [5, 5], "terms": ['
         '{"mu": 1.0, "vectors": [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]}, '
         '{"mu": 2.0, "vectors": [[0, 1, 0, 0, 0], [0, 1, 0, 0, 0]]}]}'),
        ("cond-cpd", '{"dims": [5, 1, 5], "terms": ['
         '{"mu": 1.0, "vectors": [[1, 0, 0, 0, 0], [1], [1, 0, 0, 0, 0]]}, '
         '{"mu": 2.0, "vectors": [[0, 1, 0, 0, 0], [1], [0.6, 0.8, 0, 0, 0]]}]}'),
        # unbalanced shapes with n <= N whose compressed cores are 12 x 15
        ("cond-cpd", '{"dims": [6, 2, 2], "terms": ['
         '{"mu": 1.0, "vectors": [[1, 0, 0, 0, 0, 0], [1, 0], [1, 0]]}, '
         '{"mu": 2.0, "vectors": [[0, 1, 0, 0, 0, 0], [0, 1], [0, 1]]}, '
         '{"mu": 1.0, "vectors": [[0, 0, 0.6, 0.8, 0, 0], [0.6, 0.8], [0.6, 0.8]]}]}'),
        ("cond-cpd", '{"dims": [10, 2, 2], "terms": ['
         '{"mu": 1.0, "vectors": [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [1, 0], [1, 0]]}, '
         '{"mu": 2.0, "vectors": [[0, 0, 0, 0, 0, 0, 0, 0, 0.6, 0.8], [0, 1], [0.6, 0.8]]}, '
         '{"mu": 1.0, "vectors": [[0, 0.6, 0.8, 0, 0, 0, 0, 0, 0, 0], [0.6, 0.8], [0, 1]]}]}'),
        # n = r * m = 12 > dim S^3(R^3) = 10
        ("cond-waring", '{"m": 3, "d": 3, "terms": ['
         '{"mu": 1.0, "vector": [1, 0, 0]}, {"mu": 1.0, "vector": [0, 1, 0]}, '
         '{"mu": -1.0, "vector": [0, 0, 1]}, {"mu": 1.0, "vector": [0.6, 0.8, 0]}]}'),
        # a quadric of rank 3 (its core is wide: 3 * 3 > C(4, 2)), and the
        # Alexander-Hirschowitz shape (m, d, r) = (3, 4, 5)
        ("cond-waring", '{"m": 5, "d": 2, "terms": ['
         '{"mu": 1.0, "vector": [1, 0, 0, 0, 0]}, {"mu": -1.0, "vector": [0, 1, 0, 0, 0]}, '
         '{"mu": 1.0, "vector": [0, 0, 0.6, 0.8, 0]}]}'),
        ("cond-waring", '{"m": 3, "d": 4, "terms": ['
         '{"mu": 1.0, "vector": [1, 0, 0]}, {"mu": 1.0, "vector": [0, 1, 0]}, '
         '{"mu": 1.0, "vector": [0, 0, 1]}, {"mu": -1.0, "vector": [0.6, 0.8, 0]}, '
         '{"mu": 1.0, "vector": [0, 0.6, 0.8]}]}'),
        # n = 4 > N = 3: no certificate
        ("grassmann --mode certify",
         '{"N": 3, "blocks": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]}'),
    ],
)
def test_documents_that_exit_3(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = cli.main(command.split() + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    # no -0.0 token: a zero singular value is +0.0
    assert "-0.0" not in re.findall(r"[-+.\w]+", captured.out)
    if command.startswith("grassmann"):
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return
    payload = json.loads(captured.out)
    assert payload["kappa"] == "inf"
    assert payload["well_posed"] is False
    assert payload == LIBRARY[command](json.loads(text)).to_json_dict()


def test_waring_runs_at_the_order_bound(tmp_path, capsys):
    # one past it is rejected above; the weights need MAX_ORDER!, a finite double
    path = tmp_path / "w.json"
    path.write_text('{"m": 1, "d": %d, "terms": [{"mu": 1.0, "vector": [1.0]}]}' % MAX_ORDER)
    assert cli.main(["cond-waring", "--input", str(path)]) == 0
    assert abs(json.loads(capsys.readouterr().out)["kappa"] - 1.0) <= 1e-12


def test_unwritable_out_exits_2(tmp_path, capsys):
    doc = tmp_path / "d.json"
    doc.write_text('{"dims": [2], "terms": [{"mu": 1.0, "vectors": [[1.0, 0.0]]}]}')
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["cond-cpd", "--input", str(doc), "--out", str(tmp_path / "no" / "r.json")]) == 2
    assert cli.main(["experiment", "--name", "examples", "--out", str(taken)]) == 2
    assert capsys.readouterr().out == ""


CSV_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["nan", "inf", "1e400", "0", "", "x"]),
)


@FUZZ_SETTINGS
@given(
    rows=st.one_of(
        # two columns, as in the other factor matrix, or any ragged shape
        st.lists(st.lists(CSV_CELL, min_size=2, max_size=2), min_size=1, max_size=4),
        st.lists(st.lists(CSV_CELL, min_size=1, max_size=3), min_size=1, max_size=4),
    ),
)
def test_cond_cpd_csv_fuzz(workdir, rows):
    good = _write(workdir, ".csv", b"1.0,2.0\n3.0,4.0\n5.0,7.0\n6.0,-1.0\n")
    text = "\n".join(",".join(str(cell) for cell in row) for row in rows) + "\n"
    fuzzed = _write(workdir, ".csv", text.encode())
    argv = ["cond-cpd", "--format", "csv", "--input", f"{good},{fuzzed}"]
    assert _exit_code(argv) in EXIT_CODES
