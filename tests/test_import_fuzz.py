"""Fuzzing the table importer: mutated exports of catalog tables either load
or fail with one `error:` line and exit 2 from `jsalg import`; no input
may crash the importer (exit 3).

Mutations act on the exported JSON tree: a node is dropped, replaced by a
value of another type, or given an extra key or entry; an integer becomes
an index outside the basis; a number becomes a fraction string; a parity
is flipped.  Several may stack on one file."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jsalg import jordan as jd
from jsalg.cli import main

EXPORTS = {
    "Kalg": jd.kalg().to_json_dict(),
    "Dt(2)": jd.dt(Fraction(2)).to_json_dict(),
    "Dt(-3/7)": jd.dt(Fraction(-3, 7)).to_json_dict(),
    "GLplus(1,1)": jd.glplus(1, 1).to_json_dict(),
    "JP(1,1)|deg2": jd.jp(1, 1, 2).to_json_dict(),  # carries outOfSpan
}

LEAVES = (st.none() | st.booleans() | st.integers(-3, 40)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.text(max_size=4)
          | st.sampled_from(["1/2", "-3/7", "0/0", "1/0", "x", "", "2.5"]))
JSON = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=4)
                    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
                    max_leaves=6)


def _draw_path(data, doc):
    """A path from the root, drawn by a walk that stops at the root with
    probability 1/10 and at each node below it with probability 1/4, so
    top-level keys are hit about as often as any one deep entry."""
    path, node = (), doc
    while (isinstance(node, (dict, list)) and node
           and data.draw(st.integers(0, 3 if path else 9)) < (3 if path else 9)):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        path, node = path + (key,), node[key]
    return path


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, doc):
    """One mutation at a drawn node; returns the new document (the root
    itself may be replaced)."""
    path = _draw_path(data, doc)
    node = _get(doc, path)
    kinds = ["replace", "extra", "drop", "index", "fraction", "parity"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop" and path:
        parent = _get(doc, path[:-1])
        del parent[path[-1]]
        return doc
    if kind == "extra" and isinstance(node, (dict, list)):
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=8))] = data.draw(JSON)
        else:
            node.append(data.draw(JSON))
        return doc
    if kind == "index" and isinstance(node, int) and not isinstance(node, bool):
        basis = doc.get("basis") if isinstance(doc, dict) else None
        dim = len(basis) if isinstance(basis, list) else 0
        new = data.draw(st.sampled_from([dim, dim + 7, -1, -dim - 1, 2**70]))
    elif kind == "fraction" and isinstance(node, int):
        new = data.draw(st.sampled_from([f"{node}/2", f"{node}", f"{node}/0", "1//2", "a/b"]))
    elif kind == "parity" and isinstance(node, dict) and node.get("parity") in (0, 1):
        node["parity"] ^= 1
        return doc
    else:
        new = data.draw(JSON)
    if not path:
        return new
    _get(doc, path[:-1])[path[-1]] = new
    return doc


def _import(doc):
    """(exit code, stdout, stderr) of `jsalg import` on doc written as JSON."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["import", "--in", path])
        return rc, out.getvalue(), err.getvalue()
    finally:
        os.unlink(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(EXPORTS)), data=st.data())
def test_mutated_exports_load_or_exit_2_with_one_line(name, data):
    doc = json.loads(json.dumps(EXPORTS[name]))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    rc, out, err = _import(doc)
    assert rc in (0, 2), err
    if rc == 0:
        assert out.startswith("ok: ") and not err
        jd.FiniteSuperAlgebra.from_json_dict(doc)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unmutated_exports_load():
    for name, doc in EXPORTS.items():
        assert _import(doc)[0] == 0, name


def test_non_list_tables_exit_2():
    # found by the fuzz test: a "c" or "outOfSpan" that is not a list
    basis = [{"label": "a", "parity": 0}]
    for key in ("c", "outOfSpan"):
        for bad in (None, 5, 2.5, True):
            rc, _out, err = _import({"basis": basis, key: bad})
            assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, (key, bad)


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["import", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repeated_coefficient_exits_2():
    # two 'c' entries for one (i, j, k) are two readings of one file
    basis = [{"label": "a", "parity": 0}]
    rc, _out, err = _import({"basis": basis, "c": [[0, 0, 0, 1, 1], [0, 0, 0, 2, 1]]})
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "repeats" in err


def test_pair_both_stored_and_out_of_span_exits_2():
    # a pair has a product or has none, not both
    basis = [{"label": "a", "parity": 0}]
    rc, _out, err = _import({"basis": basis, "c": [[0, 0, 0, 1, 1]], "outOfSpan": [[0, 0]]})
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "outOfSpan" in err
