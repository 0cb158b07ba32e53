"""Wire-format round trips, the packaged schemas, and CLI behavior (exit
codes, reproducibility metadata, output documents against their schemas)."""

import ast
import contextlib
import copy
import fractions
import functools
import hashlib
import importlib.resources
import io
import json
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for
from referencing import Registry
from referencing.jsonschema import DRAFT202012
from sympy.matrices.normalforms import invariant_factors

from abdyn import cli, exactalg, serialize
from abdyn.cli import main
from abdyn.errors import ContractError, SchemaError
from abdyn.exactalg import IntMatrix, IntPolynomial, cyclotomic
from abdyn.orbit import real_dual_coords
from abdyn.toroidal import delaunay_fan

from util import (BLOCK_SUM_DRAWS, FREE_BLOCKS, block_sum, count_spectrum_runs, nakamura_data,
                  poly_from_json, restricted_char_poly)

REPO = pathlib.Path(__file__).resolve().parents[1]


SCHEMA_NAMES = {"integer", "matrix", "polynomial", "semiabelian_aut", "family_descriptor",
                "verdict", "degree_profile", "fan", "metric", "nphi", "lattice", "alpha",
                "orbit_report", "split_report", "fan_validation", "fan_extension",
                "catalog_list"}


def test_packaged_schemas():
    root = importlib.resources.files("abdyn") / "schemas"
    assert {f.name for f in root.iterdir()} \
        == {f"{name}.schema.json" for name in SCHEMA_NAMES}
    for name in SCHEMA_NAMES:
        schema = json.loads((root / f"{name}.schema.json").read_text())
        validator_for(schema).check_schema(schema)
    serialize._validator.cache_clear()
    serialize.validate_schema([[1]], "matrix")
    serialize.validate_schema([[2]], "matrix")
    info = serialize._validator.cache_info()
    assert (info.misses, info.hits) == (2, 1)  # matrix, and the integer it refers to


def _schema(name):
    root = importlib.resources.files("abdyn") / "schemas"
    return json.loads((root / f"{name}.schema.json").read_text())


def test_each_schema_is_defined_once():
    """Each packaged $id is declared in exactly one schema file, its own, and
    every $ref that is not a fragment names a packaged schema: a schema used
    inside another is referred to, not copied.  _compile refuses a $ref to
    any other name."""
    ids, refs = {}, []

    def walk(node, name):
        if isinstance(node, dict):
            if "$id" in node:
                ids.setdefault(node["$id"], []).append(name)
            if not node.get("$ref", "#").startswith("#"):
                refs.append(node["$ref"])
            node = list(node.values())
        if isinstance(node, list):
            for value in node:
                walk(value, name)

    for name in SCHEMA_NAMES:
        walk(_schema(name), name)
    assert ids == {f"abdyn/{name}": [name] for name in SCHEMA_NAMES}
    assert refs and set(refs) <= SCHEMA_NAMES
    with pytest.raises(ValueError, match="no packaged schema"):
        serialize._compile({"items": {"$ref": "integer_matrix"}}, {})


@functools.cache
def _reference_validator(name):
    """jsonschema's validator of a packaged schema: the oracle.  Its
    registry holds every packaged schema, which their `$ref`s name."""
    schema = _schema(name)
    registry = Registry().with_resources(
        (s["$id"], DRAFT202012.create_resource(s)) for s in map(_schema, SCHEMA_NAMES))
    return validator_for(schema)(schema, registry=registry)


@pytest.mark.parametrize("keyword, value", [
    ("oneOf", [{"type": "integer"}]), ("format", "date"), ("const", 1)])
def test_compile_refuses_unsupported_keywords(keyword, value):
    """A keyword the compiler does not implement raises when the schema is
    compiled, wherever it sits (also behind a $ref), so no schema is
    silently under-checked; every packaged schema compiles."""
    nested = {"type": "object",
              "properties": {"x": {"type": "array", "items": {keyword: value}}}}
    behind_ref = {"$defs": {"d": {keyword: value}}, "items": {"$ref": "#/$defs/d"}}
    for schema in (nested, behind_ref):
        with pytest.raises(ValueError, match=keyword):
            serialize._compile(schema, schema)
    for name in SCHEMA_NAMES:
        serialize._compile(_schema(name), _schema(name))


def _cli_result(argv, stdin_text=None):
    """The result block of a successful CLI call (run_cli without the
    function-scoped fixtures, for a module-scoped one)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    finally:
        sys.stdin = saved
    return json.loads(out.getvalue())["result"]


@pytest.fixture(scope="module")
def schema_seeds(tmp_path_factory):
    """Real CLI inputs and output blocks, keyed by the schema they follow."""
    fan_file = tmp_path_factory.mktemp("seeds") / "fan.json"
    fan_file.write_text(json.dumps(_cli_result(["fan", "build", "--B", "[[1,0],[0,0]]"])))
    e2e = _cli_result(["end-to-end", "--case", "2.2", "--d", "2", "--r", "1"])
    split = _cli_result(["split"], "[[0,-1,0,0],[1,0,0,0],[0,0,2,1],[0,0,1,1]]")
    orbit = _cli_result(["orbit", "analyze", "--lattice", SQUARE_LATTICE,
                         "--alpha", "[[1.4142135623730951,0]]"])
    fan = json.loads(fan_file.read_text())
    seeds = {
        "integer": [e2e["automorphism"][0][0], 2],
        "matrix": [e2e["automorphism"], split["cyclotomic_lattice"]["basis"]],
        "polynomial": [e2e["charpoly"], ["1", 0, "-1"]],
        "semiabelian_aut": [{"r": 2, "g": 1, "u_T": [[2, 1], [1, 1]],
                             "u_A_rat": [["0", "-1"], ["1", "0"]]}],  # an analyze input
        "family_descriptor": [e2e["family_descriptor"],
                              {"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1}],
        "verdict": [e2e["verdict"]],
        "degree_profile": [e2e["degrees"]],
        "fan": [_cli_result(["fan", "build", "--B", "[[2,1],[1,2]]"]), fan],
        "metric": [fan["metric"], [[2, 1], ["1/2", 1.5]]],  # a --metric value
        "nphi": [[0, 1], ["1", 0]],
        "alpha": [[[1.4142135623730951, 0]], [0.5, [0.25, 0]]],
        "lattice": [json.loads(SQUARE_LATTICE),
                    {"g": 2, "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                       [[0.5, 2.5], [0, 1]], [[0, 1], [0.25, 2]]],
                     "polarization": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                                      ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]]}],
        "orbit_report": [orbit],
        "split_report": [split],
        "fan_validation": [_cli_result(["fan", "validate", str(fan_file)])],
        "fan_extension": [_cli_result(["fan", "extends", "--nphi", nphi, str(fan_file)])
                          for nphi in ("[0,1]", "[1,0]")],
        "catalog_list": [_cli_result(["catalog", "list", "--g", "3"])],
    }
    for name, docs in seeds.items():  # every seed is valid as it stands
        assert all(_reference_validator(name).is_valid(doc) for doc in docs), name
    return seeds


# Values that sit on the edges of the JSON types: bool vs integer, integral
# and fractional floats, a digit string with a trailing newline (which
# re.search's "$" accepts), a rational string, a big integer, empty containers.
EDGE_ATOMS = [True, False, 1, 0, -1, 1.0, -1.0, 1.5, "12\n", " 12", "1/2", "7",
              "-3", "x", 2 ** 70, None, [], {}]


def _nodes(doc, path=()):
    """(path, value) of doc and of every value inside it."""
    yield path, doc
    children = doc.items() if isinstance(doc, dict) \
        else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _mutate(doc, data):
    """One random edit of doc: replace a value by an edge atom, retype it,
    drop it (a dict key, required or not, or a list entry), or add to an
    object an extra key or to an array a copy of one of its entries (which
    keeps the entry types but may break a length bound)."""
    op = data.draw(st.sampled_from(["replace", "retype", "drop", "add"]))
    nodes = [(path, node) for path, node in _nodes(doc)
             if op != "add" or isinstance(node, (dict, list))]
    if not nodes:
        return doc
    path, node = data.draw(st.sampled_from(nodes))
    parent = functools.reduce(lambda value, key: value[key], path[:-1], doc)
    if op == "add":
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(["extra", "g", "r", "rays"]))] = \
                copy.deepcopy(data.draw(st.sampled_from(EDGE_ATOMS)))
        else:
            node.append(copy.deepcopy(data.draw(st.sampled_from(node))) if node
                        else copy.deepcopy(data.draw(st.sampled_from(EDGE_ATOMS))))
        return doc
    if op == "drop":
        if path:
            del parent[path[-1]]
        return doc
    if op == "replace":
        new = copy.deepcopy(data.draw(st.sampled_from(EDGE_ATOMS)))
    else:  # retype
        options = [str(node), [node], {"v": node}]
        if isinstance(node, str) and node.lstrip("-").isdigit():
            options += [int(node), float(int(node)), node + "\n", " " + node]
        elif isinstance(node, bool):
            options.append(int(node))
        elif isinstance(node, (int, float)):
            options += [float(node), int(node), True]
        new = data.draw(st.sampled_from(options))
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def _accepts(doc, name):
    """validate_schema's verdict on doc, once the schema's fast test and its
    explaining check are seen to agree on it."""
    check, test = serialize._validator(name)
    assert test(doc) == (check(doc) is None), doc
    try:
        serialize.validate_schema(doc, name)
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(SCHEMA_NAMES))
def test_compiled_schemas_agree_with_jsonschema_on_edge_atoms(name, schema_seeds):
    """Each edge atom, put in turn at each kind of position of each real
    document of the schema (array indices collapsed: the first entry stands
    for all), is accepted by validate_schema exactly when jsonschema
    accepts it."""
    for seed in schema_seeds[name]:
        kinds = set()
        for path, _ in _nodes(seed):
            kind = tuple("*" if isinstance(key, int) else key for key in path)
            if not path or kind in kinds:
                continue
            kinds.add(kind)
            for atom in EDGE_ATOMS:
                doc = copy.deepcopy(seed)
                parent = functools.reduce(lambda value, key: value[key], path[:-1], doc)
                parent[path[-1]] = copy.deepcopy(atom)
                assert _accepts(doc, name) == _reference_validator(name).is_valid(doc), \
                    (path, atom)


@pytest.mark.parametrize("schema", [
    {"enum": [1, 0, "I"]}, {"minimum": 1}, {"anyOf": [{"minimum": 0}, {"pattern": "^a$"}]},
    {"type": "object", "additionalProperties": {"minimum": 1}, "required": ["x"]},
    {"title": "no keyword that checks"}, {"type": "array", "maxItems": 0}],
    ids=["enum", "minimum", "anyOf", "additionalProperties", "no-check", "maxItems"])
def test_compiled_keywords_agree_with_jsonschema_beyond_packaged_use(schema):
    """Keyword semantics the packaged schemas do not exercise on their own:
    an enum that holds 1 and 0 (True and False are not in it, 1.0 is), a
    minimum with no type beside it (bools and strings skip it), a node that
    admits every value, falsy ones included, and maxItems.  The fast test
    and the explaining check agree with jsonschema on each."""
    check, test = serialize._compile(schema, schema)
    reference = validator_for(schema)(schema)
    for atom in EDGE_ATOMS + [{"x": atom} for atom in EDGE_ATOMS]:
        assert test(atom) == (check(atom) is None) == reference.is_valid(atom), atom


@pytest.mark.parametrize("name", sorted(SCHEMA_NAMES))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_schemas_agree_with_jsonschema(name, data, schema_seeds):
    """validate_schema accepts exactly what jsonschema accepts, on real CLI
    inputs and outputs (of this schema or any other) after random edits."""
    own = schema_seeds[name]
    every = [doc for docs in schema_seeds.values() for doc in docs]
    doc = copy.deepcopy(data.draw(st.sampled_from(own) | st.sampled_from(every)))
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(doc, data)
    expected = _reference_validator(name).is_valid(doc)
    event("accepted" if expected else "rejected")
    assert _accepts(doc, name) == expected, doc


def test_matrix_round_trip():
    M = IntMatrix.from_rows([[10 ** 30, -1], [0, 7]])
    doc = serialize.matrix_to_json(M)
    assert doc[0][0] == str(10 ** 30)  # decimal string, arbitrary precision
    assert serialize.matrix_from_json(doc) == M
    # plain ints accepted on input
    assert serialize.matrix_from_json([[2, 1], [1, 1]]).rows == 2
    with pytest.raises(SchemaError):
        serialize.matrix_from_json([[1], [1, 2]])  # ragged
    with pytest.raises(SchemaError):
        serialize.matrix_from_json([["x"]])


def test_poly_round_trip():
    p = IntPolynomial([1, -3, 1])
    assert poly_from_json(serialize.poly_to_json(p)) == p


def test_fan_round_trip():
    gd = nakamura_data(IntMatrix.from_rows([[1, 3], [0, 1]]))
    fan = delaunay_fan(gd)
    doc = serialize.fan_to_json(fan)
    back = serialize.fan_from_json(doc)
    assert set(back.cones) == set(fan.cones)
    assert back.gamma == fan.gamma
    assert back.metric == fan.metric


def test_lattice_round_trip():
    doc = {"g": 1, "basis": [[[1.0, 0.0]], [[0.0, 1.0]]]}
    lat = serialize.lattice_from_json(doc)
    assert lat.g == 1 and lat.basis[1][0] == 1j
    assert serialize.lattice_to_json(lat)["basis"] == doc["basis"]


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None, tmp=None):
    import io
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze_matrix(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze"], "[[2,1],[1,1]]", capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    lam = doc["result"]["degrees"]["lambdas"]
    assert abs(lam[1] - 2.6180339887) < 1e-8
    # reproducibility metadata embedded
    assert doc["options"] == {"tol": 1e-9}
    assert doc["input"]["matrix"] == [[2, 1], [1, 1]]


def test_cli_analyze_identity(capsys, monkeypatch):
    code, out, _ = run_cli(["analyze"], "[[1,0],[0,1]]", capsys, monkeypatch)
    assert code == 0
    lam = json.loads(out)["result"]["degrees"]["lambdas"]
    assert all(x == 1.0 for x in lam)


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("argv, stdin_text", [
    (["analyze"], "[[2,1],[1,1]]"),
    (["end-to-end", "--case", "2.2"], None),
    (["orbit", "analyze", "--lattice", '{"g":1,"basis":[[[1,0]],[[0,1]]]}',
      "--alpha", "[[0.5,0]]"], None)], ids=["analyze", "end-to-end", "orbit"])
def test_cli_non_finite_tol_exit_3(argv, stdin_text, tol, capsys, monkeypatch):
    code, out, err = run_cli(argv + ["--tol", tol], stdin_text, capsys, monkeypatch)
    assert code == 3 and out == ""
    assert err.splitlines() == ["contract error: tol must be positive and finite"]


@pytest.mark.parametrize("payload", [
    '{"r":0,"g":1,"u_T":[[2,1],[1,1]],"u_A_rat":[[1,0],[0,1]]}',
    '{"r":2,"g":0,"u_T":[[2,1],[1,1]],"u_A_rat":[[1,0],[0,1]]}'])
def test_cli_analyze_rejects_part_for_zero_rank(payload, capsys, monkeypatch):
    code, out, err = run_cli(["analyze"], payload, capsys, monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("contract error:") and "given for" in err


def test_cli_malformed_json_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(["analyze"], "not json", capsys, monkeypatch)
    assert code == 2 and "schema" in err


def test_cli_error_printed_once():
    """In a fresh process a schema error and a usage error each reach stderr
    as exactly one line, with nothing on stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv, stdin_text, prefix in ((["analyze"], "not json", "schema error:"),
                                     (["analyze", "--tol", "abc"], "", "usage error:")):
        proc = subprocess.run([sys.executable, "-m", "abdyn.cli"] + argv, input=stdin_text,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(prefix)


def test_cli_contract_error_exit_3(capsys, monkeypatch):
    code, _, err = run_cli(
        ["decide"], '{"g": 2, "charpoly": [1,0,0,0,1], "r": 7}',
        capsys, monkeypatch)
    assert code == 3


def test_cli_decide_examples(capsys, monkeypatch):
    cases = [
        ({"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1},
         "NotRegularizable"),
        ({"g": 2, "charpoly": [1, -3, 1, -3, 1], "r": 0}, "Regularizable"),
        ({"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 2, "k": 1},
         "Undetermined"),
    ]
    for payload, expected in cases:
        code, out, _ = run_cli(["decide"], json.dumps(payload),
                               capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["result"]["status"] == expected


def test_cli_fan_pipeline(tmp_path, capsys, monkeypatch):
    fan_file = tmp_path / "fan.json"
    code, out, _ = run_cli(["fan", "build", "--B", "[[2]]",
                            "--out", str(fan_file)], None, capsys, monkeypatch)
    assert code == 0 and fan_file.exists()
    code, out, _ = run_cli(["fan", "validate", str(fan_file)],
                           None, capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["ok"] and doc["central_fiber"] == {"vertices": 2,
                                                  "maximal_cells": 2}
    code, out, _ = run_cli(["fan", "extends", "--nphi", "[3]", str(fan_file)],
                           None, capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["extends"] and doc["regularizing_power"] == 2


def test_cli_fan_build_random_metric_reproducible(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["fan", "build", "--B", "[[1,0],[0,1]]",
                                "--metric", "random", "--seed", "11"],
                               None, capsys, monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["options"]["seed"] == 11


def test_cli_fan_build_reproducible_without_seed(capsys, monkeypatch):
    # B = I gives the cospherical square lattice, which the standard metric
    # triangulates with no random draw; the default seed fixes the random one
    for extra in ([], ["--metric", "random"]):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(["fan", "build", "--B", "[[1,0],[0,1]]"]
                                   + extra, None, capsys, monkeypatch)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["options"]["seed"] == 0


def test_cli_fan_build_stores_the_standard_metric(tmp_path, capsys, monkeypatch):
    """The standard metric of the square lattice is cospherical: `fan build`
    stores it as the identity, and `fan validate` accepts the file."""
    fan_file, fan = _built_fan("[[1,0],[0,1]]", tmp_path, capsys, monkeypatch)
    assert fan["metric"] == [["1", "0"], ["0", "1"]]
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["result"]["ok"]


def test_cli_fan_build_keeps_a_cospherical_metric(tmp_path, capsys, monkeypatch):
    """diag(1, 1/100000) on the square lattice, whose Delaunay cells are the
    unit squares: `fan build` exits 0 and stores that metric, each maximal
    cell is half of a unit square, and `fan validate` accepts the file.
    Before, a random perturbation about 80 times larger than the second
    entry was stored, with triangles that refine no unit square."""
    fan_file = tmp_path / "fan.json"
    code, _, err = run_cli(["fan", "build", "--B", "[[1,0],[0,1]]", "--metric",
                            '[[1,0],[0,"1/100000"]]', "--out", str(fan_file)],
                           None, capsys, monkeypatch)
    assert (code, err) == (0, "")
    fan = json.loads(fan_file.read_text())["result"]
    assert fan["metric"] == [["1", "0"], ["0", "1/100000"]]
    rays = [[int(x) for x in ray[:-1]] for ray in fan["rays"]]
    top = [[rays[i] for i in c] for c in fan["cones"] if len(c) == 3]
    assert len(top) == 2
    assert all(max(col) - min(col) == 1 for cell in top for col in zip(*cell))
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["result"]["ok"]


def test_cli_consecutive_calls_keep_no_state(capsys, monkeypatch):
    """main builds its parser once per process; each call still starts from
    the defaults."""
    code, out, _ = run_cli(["fan", "build", "--B", "[[2]]", "--seed", "7"],
                           None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["options"]["seed"] == 7
    code, out, _ = run_cli(["fan", "build", "--B", "[[2]]"], None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["options"]["seed"] == 0
    orbit = ["orbit", "analyze", "--lattice", SQUARE_LATTICE, "--alpha", "[[0.5,0]]"]
    code, out, _ = run_cli(orbit + ["--height", "10"], None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["options"]["height"] == 10
    code, out, _ = run_cli(orbit, None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["options"]["height"] == 50


def _built_fan(B, tmp_path, capsys, monkeypatch):
    fan_file = tmp_path / "fan.json"
    code, _, _ = run_cli(["fan", "build", "--B", B, "--out", str(fan_file)],
                         None, capsys, monkeypatch)
    assert code == 0
    return fan_file, json.loads(fan_file.read_text())["result"]


@pytest.mark.parametrize("B, message", [
    ("[[1,2,3],[4,5,6]]", "period translation matrix is not symmetric"),
    ("[[1,2],[3,4]]", "period translation matrix is not symmetric"),
    ("[[1,0],[0,-1]]", "period translation matrix is not positive semi-definite"),
    ("[[0,0],[0,0]]", "non-degenerating monodromy (B = 0): no fan to build"),
    ("[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]", "Delaunay cells are computed for r' <= 3 only")])
def test_cli_fan_build_refuses_B(B, message, capsys, monkeypatch):
    """fan build normalizes B itself, with no monodromy matrix: a B that is
    not symmetric (a non-square one among them), not positive
    semi-definite, 0, or of torus rank r' > 3 exits 3 with one contract
    error line."""
    code, out, err = run_cli(["fan", "build", "--B", B], None, capsys, monkeypatch)
    assert (code, out, err) == (3, "", f"contract error: {message}\n")


@pytest.mark.parametrize("metric, message", [
    ("[[1,2],[0,1]]", "metric is not symmetric"),
    ("[[1,2],[2,1]]", "metric is not positive definite")])
def test_cli_fan_build_refuses_the_metric(metric, message, capsys, monkeypatch):
    """fan build checks the metric once, in face_set: a refusal exits 3
    with face_set's reason on one contract error line, the violation fan
    validate reports for such a fan file."""
    argv = ["fan", "build", "--B", "[[2,1],[1,3]]", "--metric", metric]
    code, out, err = run_cli(argv, None, capsys, monkeypatch)
    assert (code, out, err) == (3, "", f"contract error: {message}\n")


def test_cli_fan_validate_indefinite_metric(tmp_path, capsys, monkeypatch):
    fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
    fan["metric"] = [["-1", "0"], ["0", "1"]]
    fan_file.write_text(json.dumps(fan))
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    doc = json.loads(out)["result"]
    assert code == 3 and doc["ok"] is False
    assert "metric is not positive definite" in doc["violations"]


def test_cli_fan_validate_rejects_a_repeated_zero_cone(tmp_path, capsys, monkeypatch):
    """A fan file that lists the zero cone twice is refused: the second is a
    Gamma-duplicate of the first."""
    fan_file, fan = _built_fan("[[2]]", tmp_path, capsys, monkeypatch)
    first = fan["cones"].index([])
    fan["cones"].append([])
    fan_file.write_text(json.dumps(fan))
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    doc = json.loads(out)["result"]
    assert code == 3 and doc["ok"] is False
    assert doc["violations"] == [
        f"cone {len(fan['cones']) - 1}: Gamma-duplicate of cone {first}"]


def _drop_maximal_cone(fan):
    top = max(len(c) for c in fan["cones"])
    fan["cones"].remove(next(c for c in fan["cones"] if len(c) == top))


def _flip_metric(fan):
    # the standard metric is triangulated like [[1, e], [e, 1]] for a small
    # e > 0; this one puts the cells on the other diagonal
    fan["metric"] = [["1", "-1/3"], ["-1/3", "1"]]


@pytest.mark.parametrize("edit, violation", [
    (_drop_maximal_cone, "missing cone ((0, 0, 1), (0, 1, 1), (1, 0, 1))"),
    (_flip_metric, "cone 5: not a cone of the Delaunay fan of the metric")])
def test_cli_fan_extends_refuses_uncertified_fan(edit, violation, tmp_path, capsys,
                                                 monkeypatch):
    fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
    code, out, _ = run_cli(["fan", "extends", "--nphi", "[1,1]", str(fan_file)],
                           None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["result"]["extends"] is True
    edit(fan)
    fan_file.write_text(json.dumps(fan))
    code, out, err = run_cli(["fan", "extends", "--nphi", "[1,1]", str(fan_file)],
                             None, capsys, monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("contract error:") and violation in err
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    assert code == 3
    assert any(v.startswith(violation) for v in json.loads(out)["result"]["violations"])


def test_cli_fan_extends_checks_lower_cones(tmp_path, capsys, monkeypatch):
    """fan extends runs the certificate of fan validate, lower-dimensional
    cones included: with the ray cone [0] of a B = [[2]] fan removed, fan
    validate names that missing cone and exits 3, and fan extends refuses
    with the same violation and exits 3."""
    fan_file, fan = _built_fan("[[2]]", tmp_path, capsys, monkeypatch)
    fan["cones"].remove([0])
    fan_file.write_text(json.dumps(fan))
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    assert code == 3
    assert json.loads(out)["result"]["violations"] == ["missing cone ((0, 1),)"]
    code, out, err = run_cli(["fan", "extends", "--nphi", "[1]", str(fan_file)],
                             None, capsys, monkeypatch)
    assert (code, out) == (3, "")
    assert err == "contract error: not the Delaunay fan of its metric: missing cone ((0, 1),)\n"


# Runs in a fresh interpreter: the commands that do without numpy, then a
# check of which numeric packages they loaded, then analyze, which needs
# numpy, then a check that no command loaded jsonschema or the packages it
# depends on.
COLD_START = """\
import contextlib, io, json, sys
import abdyn.cli
d = sys.argv[1]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return abdyn.cli.main(list(argv))


without_numpy = [run("fan", "build", "--B", "[[2,1],[1,3]]", "--out", d + "/fan.json"),
                 run("fan", "validate", d + "/fan.json"),
                 run("fan", "extends", "--nphi", "[1,2]", d + "/fan.json"),
                 run("split", "--in", d + "/split.json"),
                 run("decide", "--in", d + "/decide.json"),
                 run("catalog", "list", "--g", "4"),
                 run("catalog", "build", "--case", "2.2", "--r", "1"),
                 run("orbit", "analyze", "--lattice", '{"g":1,"basis":[[[1,0]],[[0,1]]]}',
                     "--alpha", "[[0.5,0.25]]")]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
stdlib = sorted(m for m in ("argparse", "logging", "dataclasses", "inspect", "ast", "dis",
                            "tokenize") if m in sys.modules)
numeric = [run("analyze", "--in", d + "/analyze.json")]
schema_libs = sorted(m for m in sys.modules if m.split(".")[0]
                     in ("jsonschema", "referencing", "rpds", "attrs", "attr"))
print(json.dumps({"without_numpy": without_numpy, "loaded": loaded, "numeric": numeric,
                  "schema_libs": schema_libs, "stdlib": stdlib}))
"""


def test_import_cli_leaves_scipy_out(tmp_path):
    """A cold process that imports abdyn.cli and builds, validates and
    extends a fan, splits, decides, reads the catalog and analyzes an orbit
    never loads numpy or scipy; analyze, which needs numpy, still runs after
    them in the same process.  No command loads jsonschema (nor referencing,
    rpds or attrs): the schemas are checked by serialize's own compiled
    checks.  The numpy-free commands load neither argparse nor logging:
    argv is read against the command table.  Nor do they load dataclasses,
    or inspect, ast, dis and tokenize, which it imports: the records are
    namedtuples."""
    payloads = {"split": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]],
                "decide": {"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1},
                "analyze": [[2, 1], [1, 1]]}
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"without_numpy": [0] * 8, "loaded": [],
                                       "numeric": [0], "schema_libs": [], "stdlib": []}


def _numpy_imports(node, where):
    """The scopes (module.function) under node that import numpy."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "numpy" for m in modules):
            yield where
        inner = f"{where}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
        yield from _numpy_imports(child, inner)


def test_numpy_imported_only_by_eigenvalue_moduli():
    """Read with ast: the one numpy import under src/abdyn is the one in
    exactalg.eigenvalue_moduli, so no module or function starts loading
    numpy unnoticed."""
    found = []
    for path in sorted((REPO / "src" / "abdyn").rglob("*.py")):
        found += _numpy_imports(ast.parse(path.read_text()), path.stem)
    assert found == ["exactalg.eigenvalue_moduli"]


def test_no_dataclasses_in_src():
    """Read with ast: no module under src/abdyn imports dataclasses or uses
    object.__setattr__; each record is a namedtuple that converts and checks
    its fields in __new__."""
    found = []
    for path in sorted((REPO / "src" / "abdyn").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [(path.stem, m) for m in modules if m.split(".")[0] == "dataclasses"]
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
                    and isinstance(node.value, ast.Name) and node.value.id == "object":
                found.append((path.stem, "object.__setattr__"))
    assert found == []


@pytest.mark.parametrize("argv, stdin_text", [
    pytest.param(["analyze", "--in", "{missing}"], None, id="analyze-in"),
    pytest.param(["analyze", "--out", "{missing}/x.json"], "[[2,1],[1,1]]",
                 id="analyze-out"),
    pytest.param(["fan", "build", "--B", "@{missing}"], None, id="fan-build-B"),
    pytest.param(["fan", "validate", "{missing}"], None, id="fan-validate"),
    pytest.param(["fan", "extends", "--nphi", "[1]", "{missing}"], None,
                 id="fan-extends"),
    pytest.param(["fan", "validate", "{binary}"], None, id="fan-validate-binary")])
def test_cli_unreadable_file_exit_2(argv, stdin_text, tmp_path, capsys, monkeypatch):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe[")
    argv = [a.format(missing=tmp_path / "missing", binary=binary) for a in argv]
    path = next(a.lstrip("@") for a in argv if str(tmp_path) in a)
    code, out, err = run_cli(argv, stdin_text, capsys, monkeypatch)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("schema error: cannot ") and path in err


def test_cli_orbit_analyze(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["orbit", "analyze",
         "--lattice", '{"g":1,"basis":[[[1,0]],[[0,1]]]}',
         "--alpha", "[[1.4142135623730951,0]]"],
        None, capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert (doc["result"]["h"], doc["result"]["s"]) == (1, 0)
    assert doc["options"] == {"height": 50, "tol": 1e-10}


SQUARE_LATTICE = '{"g":1,"basis":[[[1,0]],[[0,1]]]}'


def test_cli_orbit_huge_coordinate_exit_4(capsys, monkeypatch):
    code, _, err = run_cli(["orbit", "analyze", "--lattice", SQUARE_LATTICE,
                            "--alpha", "[[1e300,0]]"], None, capsys, monkeypatch)
    assert code == 4
    assert err.startswith("numeric indeterminacy:") and "Traceback" not in err


@pytest.mark.parametrize("lattice, alpha", [
    *(pytest.param(SQUARE_LATTICE, alpha, id=alpha)
      for alpha in ('[["Infinity",0]]', "[[Infinity,0]]", "[[NaN,0]]",
                    "[[true,0]]")),
    *(pytest.param('{"g":1,"basis":[[[%s,0]],[[0,1]]]}' % x, "[[0.5,0]]",
                   id=f"lattice-{x}") for x in ("NaN", "Infinity", "true"))])
def test_cli_orbit_bad_alpha_exit_2(lattice, alpha, capsys, monkeypatch):
    code, _, err = run_cli(["orbit", "analyze", "--lattice", lattice,
                            "--alpha", alpha], None, capsys, monkeypatch)
    assert code == 2
    assert err.startswith("schema error:") and "Traceback" not in err


def _bad_metric(fan):
    fan["metric"][0][0] = "1/0"


def _short_ray(fan):
    fan["rays"][0] = fan["rays"][0][:-1]


def _negative_cone_index(fan):
    fan["cones"][-1] = [-1]


@pytest.mark.parametrize("metric, edit, command", [
    *(pytest.param(metric, None, "build", id=f"metric-{metric}")
      for metric in ('[["abc"]]', '[["NaN"]]', '[[null]]', '[[1e400]]', "5",
                     '[["1/0"]]', '[[true]]')),
    *(pytest.param(None, edit, command, id=f"{edit.__name__}-{command}")
      for edit in (_bad_metric, _short_ray, _negative_cone_index)
      for command in ("validate", "extends"))])
def test_cli_fan_bad_input_exit_2(metric, edit, command, tmp_path, capsys,
                                  monkeypatch):
    if command == "build":
        argv = ["fan", "build", "--B", "[[2]]", "--metric", metric]
    else:
        fan = serialize.fan_to_json(
            delaunay_fan(nakamura_data(IntMatrix.from_rows([[1, 3], [0, 1]]))))
        edit(fan)
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(fan))
        argv = ["fan", command, str(fan_file)]
        if command == "extends":
            argv[2:2] = ["--nphi", "[1]"]
    code, _, err = run_cli(argv, None, capsys, monkeypatch)
    assert code == 2
    assert err.startswith("schema error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("entry, accepted", [
    (2, True), (2.0, True), ("3/2", True), ("-3", True), ("007/010", True),
    ("1/0", False), (" 1/2", False), ("2\n", False), (True, False), (None, False),
    ("x", False)])
def test_fan_metric_entries_read_alike_in_files_and_flags(entry, accepted, tmp_path, capsys,
                                                          monkeypatch):
    """A fan file's metric and --metric have one grammar: an entry that
    `fan build --metric` refuses, `fan validate` and `fan extends` refuse
    in a file too (exit 2, one schema error line), and one that it accepts
    passes the schema of both."""
    metric = json.dumps([[entry]])
    fan = serialize.fan_to_json(delaunay_fan(nakamura_data(IntMatrix.from_rows([[1, 2], [0, 1]]))))
    fan["metric"] = [[entry]]
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(fan))
    for argv in (["fan", "build", "--B", "[[2]]", "--metric", metric],
                 ["fan", "validate", str(fan_file)],
                 ["fan", "extends", "--nphi", "[1]", str(fan_file)]):
        code, out, err = run_cli(argv, None, capsys, monkeypatch)
        assert (code != 2) == accepted, (argv, err)
        if not accepted:
            (line,) = err.splitlines()
            assert line.startswith("schema error: payload does not match schema ") \
                and out == ""


@pytest.mark.parametrize("argv, stdin_text, names", [
    (["analyze"], "[[2,1],[1,1]]", ["matrix"]),
    (["analyze"], '{"r": 0, "g": 1, "u_A_rat": [[0,-1],[1,0]]}', ["semiabelian_aut"]),
    (["decide"], '{"g": 2, "charpoly": [1, -3, 1, -3, 1], "r": 0}', ["family_descriptor"]),
    (["split"], "[[0,-1],[1,0]]", ["matrix"]),
    (["fan", "build", "--B", "[[2,1],[1,2]]", "--metric", '[[2,1],[1,"3/2"]]'], None,
     ["matrix", "metric"]),
    (["fan", "build", "--B", "[[2]]", "--metric", "random"], None, ["matrix"]),
    (["fan", "validate", "{fan}"], None, []),
    (["fan", "extends", "--nphi", "[0,1]", "{fan}"], None, ["nphi"]),
    (["fan", "validate", "{miss}"], None, ["fan"]),
    (["fan", "extends", "--nphi", "[0,1]", "{miss}"], None, ["fan", "nphi"]),
    (["orbit", "analyze", "--lattice", SQUARE_LATTICE, "--alpha", "[[0.5,0]]"], None,
     ["lattice", "alpha"]),
    (["catalog", "build", "--case", "2.2"], None, [])],
    ids=["analyze-matrix", "analyze-aut", "decide", "split", "fan-build", "fan-build-random",
         "fan-validate", "fan-extends", "fan-validate-miss", "fan-extends-miss",
         "orbit-analyze", "catalog-build"])
def test_cli_checks_each_json_input_once_by_name(argv, stdin_text, names, tmp_path, capsys,
                                                 monkeypatch):
    """Each JSON value a command reads (payload, --B, --metric, --nphi,
    --lattice, --alpha, the fan file) is checked by at most one
    validate_schema call with its own schema, and nothing else calls it.
    A fan file that is exactly what `fan build` wrote ({fan}) is accepted
    by its fast test with no `fan` check; one that misses it ({miss}, the
    same cones in reverse order) gets one.  Either way the face set of its
    metric is enumerated once (one _delaunay_faces call)."""
    from abdyn import toroidal
    fan = _cli_result(["fan", "build", "--B", "[[1,0],[0,0]]"])
    files = {"{fan}": tmp_path / "fan.json", "{miss}": tmp_path / "miss.json"}
    files["{fan}"].write_text(json.dumps(fan))
    files["{miss}"].write_text(json.dumps(dict(fan, cones=fan["cones"][::-1])))
    calls, faces = [], []

    def spy(obj, name, *path, check=serialize.validate_schema):
        calls.append(name)
        return check(obj, name, *path)

    def faces_spy(*args, enumerate_faces=toroidal._delaunay_faces):
        faces.append(args)
        return enumerate_faces(*args)

    monkeypatch.setattr(serialize, "validate_schema", spy)
    monkeypatch.setattr(toroidal, "_delaunay_faces", faces_spy)
    argv = [str(files.get(a, a)) for a in argv]
    code, _, err = run_cli(argv, stdin_text, capsys, monkeypatch)
    assert code == 0, err
    assert calls == names
    if argv[:2] in (["fan", "validate"], ["fan", "extends"]):
        assert len(faces) == 1


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                  "[[1, NaN]]", '{"g": [1e400]}'])
def test_load_json_refuses_non_finite_numbers(text):
    """The NaN and Infinity tokens and float literals beyond the float range
    are refused by load_json, so no schema ever sees a non-finite number;
    the largest finite float still reads."""
    token = next(t for t in ("-Infinity", "Infinity", "NaN", "-1e400", "1e400") if t in text)
    with pytest.raises(SchemaError, match=f"^non-finite number {token}$"):
        serialize.load_json(text)
    assert serialize.load_json("[1.7976931348623157e308]") == [1.7976931348623157e308]


@pytest.mark.parametrize("text", ["\ufeff[1]", "\ufeff", "\ufeff {}"])
def test_load_json_refuses_a_leading_bom_as_json_loads_does(text):
    """load_json decodes with one decoder built at import, which would read
    past a leading byte order mark; the refusal keeps json.loads's text."""
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(SchemaError) as got:
        serialize.load_json(text)
    assert str(got.value) == f"malformed JSON: {want.value}"


def test_cli_deeply_nested_json_exit_2(capsys, monkeypatch):
    """JSON nested past the recursion limit is malformed input (exit 2, one
    line), not a traceback."""
    code, out, err = run_cli(["split"], "[" * 100000, capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("schema error: malformed JSON: maximum recursion depth exceeded") \
        and len(err.splitlines()) == 1


BIG = "1" * 5000  # past Python's 4300-digit limit on int conversion


@pytest.mark.parametrize("argv, stdin_text, line", [
    (["split"], f"[[{BIG}]]", "schema error: malformed JSON: Exceeds the limit (4300 digits)"),
    (["split"], f'[["{BIG}"]]', "schema error: payload does not match schema 'matrix': $[0][0]"),
    (["fan", "build", "--B", "[[2]]", "--metric", f'[["1/{BIG}"]]'], None,
     "schema error: payload does not match schema 'metric': $[0][0]"),
    (["fan", "extends", "--nphi", f'["{BIG}"]', "{fan}"], None,
     "schema error: payload does not match schema 'nphi': $[0]"),
    (["orbit", "analyze", "--lattice", SQUARE_LATTICE, "--alpha", f"[[{BIG[:400]},0]]"], None,
     f"schema error: expected a finite number, got {BIG[:400]}"),
    (["orbit", "analyze", "--lattice", SQUARE_LATTICE.replace("[[1,0]]", f"[[0,{BIG[:400]}]]"),
      "--alpha", "[0.5]"], None, f"schema error: expected a finite number, got {BIG[:400]}")],
    ids=["int-literal", "int-string", "metric", "nphi", "alpha", "lattice"])
def test_cli_oversized_numbers_exit_2(argv, stdin_text, line, tmp_path, capsys, monkeypatch):
    """An integer past the int conversion limit, as a literal or a string,
    and an integer too large for a float where a float is made, each exit 2
    with one schema error line, not a traceback."""
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(_cli_result(["fan", "build", "--B", "[[2]]"])))
    argv = [str(fan_file) if a == "{fan}" else a for a in argv]
    code, out, err = run_cli(argv, stdin_text, capsys, monkeypatch)
    assert code == 2 and out == ""
    (got,) = err.splitlines()
    assert got.startswith(line)


def test_output_digit_limit_is_the_integer_schema_bound():
    """exactalg.MAX_INT_DIGITS, the longest integer int_to_json writes, is
    the digit bound of the integer schema: an integer is written exactly
    when it could be read back."""
    limit = exactalg.MAX_INT_DIGITS
    assert _schema("integer")["anyOf"][1]["pattern"] == f"^-?[0-9]{{1,{limit}}}$(?!\\n)"
    assert exactalg.INT_BOUND == 10 ** limit
    for x in (10 ** limit - 1, 1 - 10 ** limit):
        assert _accepts(serialize.int_to_json(x), "integer")
    for x in (10 ** limit, -10 ** limit):
        with pytest.raises(ContractError, match=f"more than {limit} digits"):
            serialize.int_to_json(x)


def _past_the_digit_limit():
    """A det-1 matrix A (+) A, A = [[N, N+1], [N-1, N]] at N = 10^4000,
    whose char poly has 8001-digit coefficients."""
    n = 10 ** 4000
    a = IntMatrix.from_rows([[n, n + 1], [n - 1, n]])
    return json.dumps([[str(x) for x in row] for row in IntMatrix.block_diag(a, a).to_rows()])


@pytest.mark.parametrize("argv, stdin_text, line", [
    (["split"], _past_the_digit_limit(), "an output integer has more than 4300 digits"),
    (["catalog", "build", "--case", "2.2", "--d", "100000039"], None,
     "the fundamental unit of Z[sqrt 100000039] has more than 4300 digits"),
    (["end-to-end", "--case", "2.2", "--d", "100000039"], None,
     "the fundamental unit of Z[sqrt 100000039] has more than 4300 digits")],
    ids=["split", "catalog-build", "end-to-end"])
def test_cli_output_past_the_digit_limit_exits_3(argv, stdin_text, line, capsys, monkeypatch):
    """A result with an integer of more than 4300 digits, which the integer
    schema could not read back (and str refuses on Python 3.11), exits 3
    with one contract error line and no output: before, a traceback."""
    code, out, err = run_cli(argv, stdin_text, capsys, monkeypatch)
    assert (code, out, err) == (3, "", f"contract error: {line}\n")


def test_cli_fan_build_stores_a_cospherical_metric_at_the_digit_limit(tmp_path, capsys,
                                                                      monkeypatch):
    """A cospherical metric with 4300-digit denominators, whose random
    perturbation once pushed the stored entries past the digit limit (exit
    3), is stored as given, and the fan file validates."""
    big = f"1/{'9' * 4300}"
    fan_file = tmp_path / "fan.json"
    code, _, err = run_cli(["fan", "build", "--B", "[[2,1],[1,2]]", "--metric",
                            json.dumps([[big, "0"], ["0", big]]), "--out", str(fan_file)],
                           None, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(fan_file.read_text())["result"]["metric"] == [[big, "0"], ["0", big]]
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["result"]["ok"]


def test_cli_pell_unit_past_the_digit_limit_ends_in_seconds(capsys, monkeypatch):
    """The fundamental unit of Z[sqrt 99999999977] has more than 4300 digits:
    the Pell loop stops at the first convergent past 10^4300, within a 5 s
    budget (the loop takes about 0.015 s on a 2-core x86-64 VM), where it ran
    on to the end of the continued-fraction period, past 20 s."""
    def expire(signum, frame):
        raise TimeoutError("catalog build ran past 5 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, out, err = run_cli(["catalog", "build", "--case", "2.2", "--d", "99999999977"],
                                 None, capsys, monkeypatch)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (code, out) == (3, "")
    assert err == ("contract error: the fundamental unit of Z[sqrt 99999999977] has more "
                   "than 4300 digits\n")


@pytest.mark.parametrize("value", ["2\n", "-2\n", "2\n\n", "2", "-2", 2])
def test_integer_schema_refuses_a_final_newline(value):
    """A decimal string with a final newline is no integer, for the
    compiled check and for jsonschema alike: re.search's "$" matches before
    a final newline, so the pattern ends in "$(?!\\n)" as an ECMA-262 "$"
    would."""
    accepted = not (isinstance(value, str) and value.endswith("\n"))
    assert _accepts(value, "integer") == _reference_validator("integer").is_valid(value) \
        == accepted


@pytest.mark.parametrize("argv, stdin_text, where", [
    (["split"], '[["2\\n"]]', "'matrix': $[0][0]"),
    (["fan", "build", "--B", '[["2\\n"]]'], None, "'matrix': $[0][0]"),
    (["fan", "extends", "--nphi", '["2\\n"]', "{fan}"], None, "'nphi': $[0]")],
    ids=["split", "fan-build", "nphi"])
def test_cli_integer_string_with_a_final_newline_exits_2(argv, stdin_text, where, tmp_path,
                                                          capsys, monkeypatch):
    """An integer string with a final newline exits 2 with one schema error
    line that names the integer pattern: before, split went on to a
    contract error and fan build accepted it."""
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(_cli_result(["fan", "build", "--B", "[[2]]"])))
    argv = [str(fan_file) if a == "{fan}" else a for a in argv]
    code, out, err = run_cli(argv, stdin_text, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err == (f"schema error: payload does not match schema {where}: "
                   "'2\\n' does not match '^-?[0-9]{1,4300}$(?!\\\\n)'\n")


def _bad_ray_entry(fan):
    fan["rays"][1][-1] = "1/2"
    return f"$.rays[1][{len(fan['rays'][1]) - 1}]: '1/2' does not match"


def _bool_in_bprime(fan):
    fan["gamma"]["Bprime"][0][0] = True
    return "$.gamma.Bprime[0][0]: True is not valid under any of the given schemas"


@pytest.mark.parametrize("command", ["validate", "extends"])
@pytest.mark.parametrize("edit", [_bad_ray_entry, _bool_in_bprime])
def test_cli_fan_schema_error_names_path(edit, command, tmp_path, capsys, monkeypatch):
    """A bad entry deep in a fan file exits 2 with one line that names the
    schema and the JSON path of that entry."""
    fan = serialize.fan_to_json(
        delaunay_fan(nakamura_data(IntMatrix.from_rows([[1, 3], [0, 1]]))))
    where = edit(fan)
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(fan))
    argv = ["fan", command, str(fan_file)]
    if command == "extends":
        argv[2:2] = ["--nphi", "[1]"]
    code, out, err = run_cli(argv, None, capsys, monkeypatch)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("schema error: payload does not match schema 'fan': " + where)


def _fan_argv(command, path, nphi="[1]"):
    return ["fan", command, str(path)] if command == "validate" \
        else ["fan", "extends", "--nphi", nphi, str(path)]


@pytest.mark.parametrize("command", ["validate", "extends"])
@pytest.mark.parametrize("wrapped", [True, False], ids=["fan-build-output", "bare"])
def test_cli_fan_schema_error_path_starts_at_the_file_root(wrapped, command, tmp_path,
                                                            capsys, monkeypatch):
    """The JSON path of a schema error in a fan file starts at the root of
    the file: under `result` in a `fan build` output, which the README's fan
    section writes with --out, and at the top of a bare fan."""
    build = _cli_result(["fan", "build", "--B", "[[2, 1], [1, 2]]"])
    build["rays"][1][0] = "1/2"
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps({"command": "fan build", "result": build} if wrapped
                                   else build))
    code, out, err = run_cli(_fan_argv(command, fan_file, "[1, 1]"), None, capsys, monkeypatch)
    assert (code, out) == (2, "")
    where = "$.result.rays[1][0]" if wrapped else "$.rays[1][0]"
    assert err == (f"schema error: payload does not match schema 'fan': {where}: "
                   "'1/2' does not match '^-?[0-9]{1,4300}$(?!\\\\n)'\n")


def _fault(field, line, edit):
    return field, line, edit


# The faults of a fan file (B' = [[2, 1], [1, 2]], 10 cones), in the order
# a load reports them: the schema, ragged Bprime rows, the GammaData checks
# (shape, symmetric, positive definite), the ray lengths, the cones one by
# one (an index out of range, two equal generators), the metric's shape.
# field names what an edit rewrites; two edits of one field do not combine.
FAN_FAULTS = [
    _fault("seed", "schema error: payload does not match schema 'fan': $.seed: 'x' is not "
           "valid under any of the given schemas", lambda f: f.update(seed="x")),
    _fault("Bprime", "schema error: ragged matrix rows",
           lambda f: f["gamma"].update(Bprime=[["2", "1"], ["1"]])),
    _fault("r_prime", "contract error: Bprime must be r' x r'",
           lambda f: f["gamma"].update(r_prime=3)),
    _fault("Bprime", "contract error: Bprime must be symmetric",
           lambda f: f["gamma"].update(Bprime=[["2", "0"], ["1", "2"]])),
    _fault("Bprime", "contract error: Bprime must be positive definite",
           lambda f: f["gamma"].update(Bprime=[["1", "2"], ["2", "1"]])),
    _fault("rays", "schema error: every ray must have g' + r' + 1 = 3 coordinates",
           lambda f: f["rays"][-1].append("0")),
    _fault("cone 3", "schema error: cone refers to a missing ray index",
           lambda f: f["cones"].__setitem__(3, [0, 999])),
    _fault("cone 4", "contract error: duplicate cone generators",
           lambda f: f["cones"].__setitem__(4, [1, 1])),
    _fault("cone 5", "schema error: cone refers to a missing ray index",
           lambda f: f["cones"].__setitem__(5, [-1])),
    _fault("metric", "schema error: metric must be an r' x r' = 2 x 2 array of rows",
           lambda f: f.update(metric=[["1"]])),
]


@pytest.mark.parametrize("first, second", [
    (i, j) for i in range(len(FAN_FAULTS)) for j in range(i + 1, len(FAN_FAULTS))
    if FAN_FAULTS[i][0] != FAN_FAULTS[j][0]])
def test_fan_file_with_two_faults_reports_the_first_in_load_order(first, second, tmp_path,
                                                                 capsys, monkeypatch):
    """A fan file with two faults is refused for the one the load meets
    first, in the order of FAN_FAULTS, whichever of the two was made first."""
    for order in ((first, second), (second, first)):
        fan = _cli_result(["fan", "build", "--B", "[[2, 1], [1, 2]]"])
        for k in order:
            FAN_FAULTS[k][2](fan)
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(fan))
        for command in ("validate", "extends"):
            code, out, err = run_cli(_fan_argv(command, fan_file, "[0, 1]"), None, capsys,
                                     monkeypatch)
            assert out == "" and err == FAN_FAULTS[first][1] + "\n", (order, command)
            assert code == (2 if err.startswith("schema error") else 3)


@pytest.fixture(scope="module")
def corpus_fan_files():
    """The `fan build` outputs of the benchmark's fan corpus B (perfbench/
    corpus.py FAN_BS), under the standard metric and, for r' <= 2, a random
    one."""
    bs = ([[[n]] for n in range(1, 7)]
          + [[[2, 1], [1, 3]], [[1, 0], [0, 1]], [[2, 1], [1, 2]], [[2, 1, 0], [1, 2, 0], [0, 0, 0]],
             [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    docs = []
    for B in bs:
        for metric in ["standard"] + (["random"] if len(B) < 3 or B[2][2] == 0 else []):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["fan", "build", "--B", json.dumps(B), "--metric", metric,
                             "--seed", "3"]) == 0
            docs.append(json.loads(out.getvalue()))
    return docs


def test_cli_fan_schema_errors_follow_the_explaining_check(corpus_fan_files, tmp_path, capsys,
                                                           monkeypatch):
    """Seeded edits of the corpus fan files, each of which breaks the `fan`
    schema (jsonschema is the judge): `fan validate` and `fan extends` on
    the file, as `fan build` wrote it and bare, exit 2 with the one line
    that the schema's explaining check gives, its path from the file's
    root.  The fast test fails on each edit, and the explaining check
    finds the fault."""
    rng = random.Random(25)
    check, test = serialize._validator("fan")
    seen = 0
    while seen < 120:
        wrapper = copy.deepcopy(rng.choice(corpus_fan_files))
        fan = wrapper["result"]
        nodes = [path for path, _ in _nodes(fan) if path]
        path = rng.choice(nodes)
        parent = functools.reduce(lambda value, key: value[key], path[:-1], fan)
        if rng.random() < 0.2:
            del parent[path[-1]]
        elif rng.random() < 0.1 and isinstance(parent, dict):
            parent["extra"] = 0
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(EDGE_ATOMS))
        if _reference_validator("fan").is_valid(fan):
            continue
        seen += 1
        assert not test(fan)
        error = check(fan)
        for doc, keys in ((wrapper, ["result"]), (fan, [])):
            fan_file = tmp_path / "fan.json"
            fan_file.write_text(json.dumps(doc))
            line = ("schema error: payload does not match schema 'fan': "
                    + serialize._describe(error + keys))
            for command in ("validate", "extends"):
                code, out, err = run_cli(_fan_argv(command, fan_file), None, capsys,
                                         monkeypatch)
                assert (code, out, err) == (2, "", line + "\n"), (path, doc)


def _number(entry):
    """A metric entry ("p" or "p/q") as a JSON number: the int, else the
    nearest float."""
    x = fractions.Fraction(entry)
    return int(x) if x.denominator == 1 else float(x)


def _remap_rays(fan):
    """The rays in reverse order, with each cone's indices remapped to match."""
    n = len(fan["rays"])
    fan["rays"].reverse()
    fan["cones"] = [[n - 1 - i for i in cone] for cone in fan["cones"]]


def _set_height(fan, value):
    """The height of the first ray, the entry "1", written as value."""
    fan["rays"][0][-1] = value


def _set_cone_index(fan, value):
    """The index 1 in the first cone that holds it written as value."""
    cone = next(c for c in fan["cones"] if 1 in c)
    cone[cone.index(1)] = value


def _true_r_prime(fan):
    """r' = 1 written as true; a fan of higher r' has no room for the edit."""
    if fan["gamma"]["r_prime"] != 1:
        raise IndexError("r' is not 1")
    fan["gamma"]["r_prime"] = True


def _fan_file_edits():
    """(name, edit) of each single edit of a fan file that the fast test
    must send down the full path, or that the full path refuses."""
    edits = [
        ("as built", lambda f: None),
        ("cones reversed", lambda f: f["cones"].reverse()),
        ("one cone's indices reversed",
         lambda f: next(c for c in f["cones"] if len(c) > 1).reverse()),
        ("rays reversed, cones remapped", _remap_rays),
        ("ray entry an int", lambda f: _set_height(f, 1)),
        ("ray entry '001'", lambda f: _set_height(f, "001")),
        ("ray entry '+1'", lambda f: _set_height(f, "+1")),
        ("cone index 1.0", lambda f: _set_cone_index(f, 1.0)),
        ("cone index true", lambda f: _set_cone_index(f, True)),
        ("g' a float", lambda f: f["gamma"].update(g_prime=float(f["gamma"]["g_prime"]))),
        ("r' a float", lambda f: f["gamma"].update(r_prime=float(f["gamma"]["r_prime"]))),
        ("r' true", _true_r_prime),
        ("seed 3.0", lambda f: f.update(seed=float(f["seed"]))),
        ("seed true", lambda f: f.update(seed=True)),
        ("no metric", lambda f: f.pop("metric")),
        ("metric entry a number", lambda f: f["metric"][0].__setitem__(
            0, _number(f["metric"][0][0]))),
        ("extra key", lambda f: f.update(extra=0)),
    ]
    return edits + [(f"FAN_FAULTS {field}: {line}", edit) for field, line, edit in FAN_FAULTS]


def test_fan_file_fast_test_agrees_with_the_full_path(corpus_fan_files, tmp_path, capsys,
                                                      monkeypatch):
    """On every corpus fan file, as `fan build` wrote it and bare, under each
    single edit of _fan_file_edits: `fan validate` and `fan extends` print
    the document (stdout, stderr, exit code) that they print with the fast
    test forced to miss (serialize.built_fan finds nothing), that is, with
    the schema walk, the conversion and the certificate of the full path.
    The fast test accepts each file as built and misses on every other edit
    but those of FAN_FAULTS (at r' = 1 the metric [["1"]] has the face set
    of any other, so the file stays what `fan build` writes for it)."""
    fast = serialize.built_fan
    accepted = []

    def counting(obj):
        fan, faces, gamma = fast(obj)
        accepted[:] = [fan is not None]
        return fan, faces, gamma

    fan_file = tmp_path / "fan.json"
    for wrapper in corpus_fan_files:
        gamma = wrapper["result"]["gamma"]
        nphi = json.dumps([0] * gamma["g_prime"] + [1] * gamma["r_prime"])
        for name, edit in _fan_file_edits():
            for wrapped in (True, False):
                doc = copy.deepcopy(wrapper)
                try:
                    edit(doc["result"])
                except (IndexError, StopIteration):  # an edit this fan has no room for
                    continue
                fan_file.write_text(json.dumps(doc if wrapped else doc["result"]))
                for command in ("validate", "extends"):
                    documents = []
                    for built_fan in (counting, lambda obj: (None, None, None)):
                        monkeypatch.setattr(serialize, "built_fan", built_fan)
                        documents.append(run_cli(_fan_argv(command, fan_file, nphi), None,
                                                 capsys, monkeypatch))
                    assert documents[0] == documents[1], (name, wrapped, command)
                    if not name.startswith("FAN_FAULTS"):
                        assert accepted == [name == "as built"], (name, wrapped, command)


@pytest.mark.parametrize("command", ["validate", "extends"])
def test_fan_file_missing_the_fast_test_builds_one_gamma(command, tmp_path, capsys,
                                                          monkeypatch):
    """A fan file that misses the fast test (its cones reversed) builds one
    GammaData: fan_from_json takes the fast test's."""
    from abdyn import toroidal
    fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
    fan_file.write_text(json.dumps(dict(fan, cones=fan["cones"][::-1])))
    calls = []
    new = toroidal.GammaData.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(toroidal.GammaData, "__new__", counting)
    code, _, err = run_cli(_fan_argv(command, fan_file, "[1, 1]"), None, capsys, monkeypatch)
    assert (code, err) == (0, "") and len(calls) == 1


def test_cli_catalog_and_end_to_end(capsys, monkeypatch):
    code, out, _ = run_cli(["catalog", "list", "--g", "4"],
                           None, capsys, monkeypatch)
    assert code == 0
    assert [c["m"] for c in json.loads(out)["result"]] \
        == [1, 2, 4, 2, 4, 6, 2, 3]
    code, out, _ = run_cli(["end-to-end", "--case", "2.2", "--d", "2",
                            "--r", "1"], None, capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["verdict"]["status"] == "NotRegularizable"
    assert doc["m"] == 2
    code, out, _ = run_cli(["end-to-end", "--case", "5.5"],
                           None, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["result"]["m"] == 5


def test_cli_outputs_match_schemas(tmp_path, capsys, monkeypatch):
    """Each output block that has a schema validates against it."""
    def result(args, stdin_text=None):
        code, out, _ = run_cli(args, stdin_text, capsys, monkeypatch)
        assert code == 0
        return json.loads(out)["result"]

    checks = []
    doc = result(["decide"], '{"g": 2, "charpoly": [1,-4,6,-4,1], "r": 1, "k": 1}')
    checks.append((doc, "verdict"))
    doc = result(["analyze"], "[[2,1],[1,1]]")
    checks += [(doc["degrees"], "degree_profile"),
               (doc["parts"]["u_T"]["charpoly"], "polynomial")]
    doc = result(["end-to-end", "--case", "2.2", "--d", "2", "--r", "1"])
    checks += [(doc["verdict"], "verdict"), (doc["degrees"], "degree_profile"),
               (doc["family_descriptor"], "family_descriptor"),
               (doc["automorphism"], "matrix"), (doc["charpoly"], "polynomial")]
    doc = result(["orbit", "analyze", "--lattice", SQUARE_LATTICE,
                  "--alpha", "[[1.4142135623730951,0]]"])
    checks.append((doc, "orbit_report"))
    doc = result(["fan", "build", "--B", "[[2,1],[1,2]]"])
    checks.append((doc, "fan"))
    doc = result(["catalog", "build", "--case", "2.2", "--r", "1"])
    checks += [(doc["family_descriptor"], "family_descriptor"),
               (doc["automorphism"], "matrix")]
    doc = result(["split"], "[[0,-1,0,0],[1,0,0,0],[0,0,2,1],[0,0,1,1]]")
    for name in ("cyclotomic_lattice", "cyclotomic_free_lattice"):
        assert doc[name]["basis"]  # both lattices non-empty
        checks += [(doc[name]["charpoly"], "polynomial"),
                   (doc[name]["basis"], "matrix")]
    checks.append((doc, "split_report"))
    empty = result(["split"], "[[2,1],[1,1]]")
    assert not empty["cyclotomic_lattice"]["basis"]
    checks.append((empty, "split_report"))
    fan_file = tmp_path / "fan.json"
    fan_file.write_text(json.dumps(result(["fan", "build", "--B", "[[1,0],[0,0]]"])))
    checks.append((result(["fan", "validate", str(fan_file)]), "fan_validation"))
    for nphi in ("[0,1]", "[1,0]"):  # extends with a beta; abelian part: null
        doc = result(["fan", "extends", "--nphi", nphi, str(fan_file)])
        assert (doc["beta"] is None) == (nphi == "[1,0]")
        checks.append((doc, "fan_extension"))
    for g in range(2, 6):
        checks.append((result(["catalog", "list", "--g", str(g)]), "catalog_list"))
    for block, name in checks:
        serialize.validate_schema(block, name)
    with pytest.raises(SchemaError):  # the lattices are checked through $ref
        serialize.validate_schema(dict(empty, cyclotomic_lattice={
            "basis": [[1, 0]], "charpoly": ["1"]}), "split_report")


# A 10 x 10 conjugated block sum whose kernel basis, taken from a Smith
# normal form, once had entries of over 20,000 digits: `split` took seconds
# and then ended in a traceback (Python's limit on int-to-str digits).
SPLIT_10X10 = [[-1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [-3, 2, 1, 2, -1, 2, -1, 0, 0, -1],
               [-1, 2, 0, 2, 0, 0, -1, -1, 1, 0], [2, -1, -1, -1, 1, 1, 1, 0, 0, 0],
               [1, 1, 0, 1, 0, 0, 0, 0, 1, 0], [-1, 0, 0, 0, 0, 4, 0, 0, 0, -1],
               [4, -2, 0, -3, 0, 3, 3, -1, 0, 0], [-5, 3, 1, 4, -1, 0, -3, 1, 0, -1],
               [1, -2, 0, -2, -1, -3, 0, 0, -1, 1], [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]]


def test_cli_split_10x10_kernels_match_sympy(capsys, monkeypatch):
    """The split ends well inside 10 s, and each lattice is Z^10 intersect
    ker f(u) by sympy: basis in the kernel, rank = nullity, saturated."""
    def expire(signum, frame):
        raise TimeoutError("split ran past 10 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code, out, _ = run_cli(["split"], json.dumps(SPLIT_10X10), capsys, monkeypatch)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 0
    result = json.loads(out)["result"]
    u = sympy.Matrix(SPLIT_10X10)
    t = sympy.Symbol("t")
    product, stacked = 1, []
    for name in ("cyclotomic_lattice", "cyclotomic_free_lattice"):
        lat = result[name]
        f = sympy.Poly([int(c) for c in reversed(lat["charpoly"])], t)
        f_u = sympy.zeros(10, 10)
        for c in f.all_coeffs():  # Horner
            f_u = f_u * u + c * sympy.eye(10)
        basis = sympy.Matrix([[int(x) for x in v] for v in lat["basis"]])
        assert basis.rows == len(f_u.nullspace()) == f.degree()
        assert f_u * basis.T == sympy.zeros(10, basis.rows)
        assert set(invariant_factors(basis)) == {1}
        product *= f
        stacked += basis.tolist()
    assert product.all_coeffs() == u.charpoly(t).all_coeffs()
    assert int(result["index"]) == abs(sympy.Matrix(stacked).det())


def _check_split_result(matrix, result):
    """The `split` result block of matrix against references: each printed
    charpoly is restricted_char_poly (an exact solve in the printed basis),
    each basis is saturated (sympy's invariant factors all 1), and index is
    |det [L0; L1]| (sympy).  Returns the two printed charpolys."""
    u = IntMatrix.from_rows(matrix)
    stacked, charpolys = [], []
    for name in ("cyclotomic_lattice", "cyclotomic_free_lattice"):
        lat = result[name]
        basis = tuple(tuple(int(x) for x in v) for v in lat["basis"])
        charpolys.append(poly_from_json(lat["charpoly"]))
        assert charpolys[-1] == restricted_char_poly(u, basis)
        assert not basis or set(invariant_factors(sympy.Matrix(basis))) == {1}
        stacked += basis
    assert len(stacked) == u.rows
    assert int(result["index"]) == abs(sympy.Matrix(stacked).det()) >= 1
    return charpolys


@example([cyclotomic(4)], [IntPolynomial([1, -3, 1])], True, 1)
@example([cyclotomic(1), cyclotomic(12)], [], True, 2)  # all cyclotomic
@example([], [FREE_BLOCKS[0], FREE_BLOCKS[4]], False, 3)  # no cyclotomic factor
@settings(max_examples=40, deadline=None, derandomize=True)
@given(*BLOCK_SUM_DRAWS)
def test_cli_split_matches_reference_on_conjugated_block_sums(cyc, free, glued, seed):
    """`split` through cli.main on the conjugated block sums of
    test_split_reassembles_conjugated_block_sums: the printed charpolys are
    the block products P and Q and agree with the reference restricted char
    polys of the printed bases (_check_split_result)."""
    assume(cyc or free)
    u, P, Q = block_sum(cyc, free, glued, seed)
    event("trivial split" if P.is_one() or Q.is_one() else "two kernels")
    rows = u.to_rows()
    assert _check_split_result(rows, _cli_result(["split"], json.dumps(rows))) == [P, Q]


@pytest.mark.parametrize("matrix", [
    [[1]], [[-1]], IntMatrix.identity(4).to_rows(),
    IntMatrix.companion(IntPolynomial([1, -3, 1])).to_rows(), SPLIT_10X10],
    ids=["one", "minus-one", "I4", "companion-T2-3T+1", "split-10x10"])
def test_cli_split_matches_reference_on_examples(matrix):
    """_check_split_result on the edge cases (1 x 1, all cyclotomic, no
    cyclotomic factor) and on SPLIT_10X10."""
    _check_split_result(matrix, _cli_result(["split"], json.dumps(matrix)))


@pytest.mark.parametrize("matrix, eliminations, reductions", [
    ([[0, -1], [1, 0]], 0, 0),  # Q = 1
    ([[2, 1], [1, 1]], 0, 0),  # P = 1
    ([[1]], 0, 0),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]], 3, 2)],
    ids=["Q-is-1", "P-is-1", "one", "mixed"])
def test_cli_split_call_counts(matrix, eliminations, reductions, monkeypatch):
    """One `split` document computes one char poly (one top-level Berkowitz
    run: the split library call and the P, Q read by the document share the
    one kept on the matrix) and runs no exact solve (the lattice charpolys
    are the factors P and Q: orbit's real_dual_coords, the one solve in src,
    never runs).  When neither factor is 1 it runs three _bareiss passes
    (the kernel of F(u), the left null space of F(u) for the image lattice,
    and the index) and one lll_reduce per lattice; otherwise none."""
    counts = count_spectrum_runs(monkeypatch)
    counts.update(dict.fromkeys(("real_dual_coords", "_bareiss", "lll_reduce"), 0))

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {"real_dual_coords": real_dual_coords, "_bareiss": exactalg._bareiss,
                 "lll_reduce": exactalg.lll_reduce}
    for module in [m for name, m in sys.modules.items() if name.startswith("abdyn.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    _cli_result(["split"], json.dumps(matrix))
    assert counts == {"berkowitz": 1, "split": 1, "real_dual_coords": 0,
                      "_bareiss": eliminations, "lll_reduce": reductions}


@pytest.mark.parametrize("argv, stdin_text, runs", [
    (["analyze"], "[[2,1],[1,1]]", 1),
    (["analyze"], json.dumps({"r": 2, "g": 1, "u_T": [[2, 1], [1, 1]],
                              "u_A_rat": [[0, -1], [1, 0]]}), 2),
    (["end-to-end", "--case", "2.2"], None, 1),
    (["end-to-end", "--case", "3.1"], None, 1),
    (["catalog", "build", "--case", "4.8"], None, 1),
    (["decide"], json.dumps({"g": 2, "charpoly": [1, 0, 0, 0, 1], "r": 1, "k": 1}),
     {"berkowitz": 0, "split": 1}),
    (["split"], "[[0,-1,0,0],[1,0,0,0],[0,0,2,1],[0,0,1,1]]", 1)],
    ids=["analyze-torus", "analyze-both-parts", "end-to-end-2.2", "end-to-end-3.1",
         "catalog-build-4.8", "decide", "split"])
def test_cli_computes_each_spectrum_once(argv, stdin_text, runs, monkeypatch):
    """One document runs one top-level Berkowitz and one cyclotomic split per
    matrix part (decide: one split of its charpoly), however many consumers
    read them: the degrees, the parts, the verdict rules, k and the split."""
    counts = count_spectrum_runs(monkeypatch)
    _cli_result(argv, stdin_text)
    assert counts == (runs if isinstance(runs, dict) else {"berkowitz": runs, "split": runs})


@pytest.mark.parametrize("matrix, message", [
    ([[1, 2, 3], [4, 5, 6]], "expected a square matrix"),
    ([[2]], "expected det = +/-1"),
    ([[2, 0], [0, 2]], "expected det = +/-1")])
def test_cli_split_refusals(matrix, message, capsys, monkeypatch):
    """A non-square matrix is refused before det != +/-1, each with one
    stderr line, no stdout and exit 3."""
    code, out, err = run_cli(["split"], json.dumps(matrix), capsys, monkeypatch)
    assert (code, out, err.splitlines()) == (3, "", [f"contract error: {message}"])


def test_cli_orbit_relations_are_decimal_strings(capsys, monkeypatch):
    """Relation integers follow the wire rule (decimal strings), and the
    orbit_report schema rejects bare JSON integers there."""
    code, out, _ = run_cli(["orbit", "analyze", "--lattice", SQUARE_LATTICE,
                            "--alpha", "[[1.4142135623730951,0]]"],
                           None, capsys, monkeypatch)
    assert code == 0
    doc = json.loads(out)["result"]
    (rel,) = doc["relations"]
    assert [int(x) for x in rel["q"]] in ([0, 1], [0, -1])
    assert rel["q_prime"] == "0"
    serialize.validate_schema(doc, "orbit_report")
    for bad in ({"q": [0, 1]}, {"q_prime": 0}, {"residual": "0"}):
        with pytest.raises(SchemaError):
            serialize.validate_schema(dict(doc, relations=[dict(rel, **bad)]),
                                      "orbit_report")


def _bare_fan_file(tmp_path, Bprime):
    fan_file = tmp_path / "bare.json"
    fan_file.write_text(json.dumps({"gamma": {"g_prime": 0, "r_prime": len(Bprime),
                                              "Bprime": Bprime},
                                    "rays": [], "cones": []}))
    return fan_file


@pytest.mark.parametrize("Bprime", [[[2, 1], [1, 1000]], [["1999"]]], ids=["2x2", "1x1"])
@pytest.mark.parametrize("command", ["build", "validate", "extends"])
def test_cli_fan_det_bprime_limit(command, Bprime, tmp_path, capsys, monkeypatch):
    """det B' = 1999 is above toroidal.MAX_DET_BPRIME: build and extends
    exit 3 with one contract error line naming the limit, validate reports
    it as a violation and exits 3.  None of them enumerates the classes of
    Z^r' / B' Z^r', and each ends in well under a second."""
    from abdyn import toroidal

    def no_enumeration(gamma):
        raise AssertionError("coset representatives enumerated")

    monkeypatch.setattr(toroidal, "_coset_representatives", no_enumeration)
    if command == "build":
        argv = ["fan", "build", "--B", json.dumps(Bprime)]
    else:
        argv = ["fan", command, str(_bare_fan_file(tmp_path, Bprime))]
        if command == "extends":
            argv[2:2] = ["--nphi", json.dumps([1] * len(Bprime))]
    start = time.perf_counter()
    code, out, err = run_cli(argv, None, capsys, monkeypatch)
    assert time.perf_counter() - start < 1.0
    limit = "det B' = 1999 is above the limit 1000"
    assert code == 3
    if command == "validate":
        assert limit in json.loads(out)["result"]["violations"] and err == ""
    else:
        assert out == "" and err == f"contract error: {limit}\n"


@pytest.mark.parametrize("command", ["build", "validate", "extends"])
def test_cli_fan_selling_step_limit(command, tmp_path, capsys, monkeypatch):
    """The metric [[1, N], [N, N^2 + 2]] at N = 10^6 needs far more Selling
    steps than toroidal.MAX_SELLING_STEPS: build and extends exit 3 with one
    contract error line naming the limit, validate reports it as a violation
    and exits 3, and each ends in well under a second."""
    n = 10 ** 6
    metric = [[1, n], [n, n * n + 2]]
    if command == "build":
        argv = ["fan", "build", "--B", "[[2,1],[1,2]]", "--metric", json.dumps(metric)]
    else:
        fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
        fan["metric"] = [[str(x) for x in row] for row in metric]
        fan_file.write_text(json.dumps(fan))
        argv = ["fan", command, str(fan_file)]
        if command == "extends":
            argv[2:2] = ["--nphi", "[1,1]"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, None, capsys, monkeypatch)
    assert time.perf_counter() - start < 0.5
    limit = "the metric needs more than 1000 Selling steps"
    assert code == 3
    if command == "validate":
        assert json.loads(out)["result"]["violations"] == [limit] and err == ""
    else:
        assert out == "" and err == f"contract error: {limit}\n"


def _one_ray_fan(Bprime, metric):
    """A bare fan file with B' and the metric as strings and one ray."""
    strings = lambda rows: [[str(x) for x in row] for row in rows]  # noqa: E731
    return {"gamma": {"g_prime": 0, "r_prime": len(Bprime), "Bprime": strings(Bprime)},
            "rays": [["0"] * len(Bprime) + ["1"]], "cones": [[0]],
            "metric": strings(metric), "seed": 0}


@pytest.mark.parametrize("edit, outcome", [
    (lambda fan: fan, "accepted"),
    (lambda fan: dict(fan, cones=fan["cones"][::-1]), "cones reversed"),
    (lambda fan: dict(fan, rays=[[int(x) for x in ray] for ray in fan["rays"]]), "int rays"),
    (lambda fan: _one_ray_fan([[1999]], [[1]]), "det B' above the limit"),
    (lambda fan: _one_ray_fan([[2, 1], [1, 2]], [[1, 10 ** 6], [10 ** 6, 10 ** 12 + 2]]),
     "Selling steps above the limit"),
    (lambda fan: _one_ray_fan([[2, 1], [1, 2]], [[1, 0], [0, 1]]), "cospherical metric")],
    ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("command", ["validate", "extends"])
def test_cli_fan_file_runs_selling_and_the_face_enumeration_once(edit, outcome, command, tmp_path,
                                                                 capsys, monkeypatch):
    """One `fan validate` or `fan extends` document runs the Selling
    reduction at most once and enumerates the coset representatives at
    most once, whether the fast test accepts the file, the full path reads
    it (and reuses the face set), or the metric is refused: det B' above
    its limit (before any Selling step) or more Selling steps than the
    limit.  A cospherical metric is triangulated, so its one-ray fan is
    rejected cone by cone, as any other fan that is not its face set."""
    from abdyn import toroidal
    fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
    fan = edit(fan)
    fan_file.write_text(json.dumps(fan))
    nphi = json.dumps([1] * fan["gamma"]["r_prime"])
    counts = {"_obtuse_superbase": 0, "_coset_representatives": 0}
    for name in counts:
        def counting(*args, name=name, fn=getattr(toroidal, name)):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(toroidal, name, counting)
    code, _, err = run_cli(_fan_argv(command, fan_file, nphi), None, capsys, monkeypatch)
    refused = outcome in ("det B' above the limit", "Selling steps above the limit")
    assert code == (3 if refused or outcome == "cospherical metric" else 0), err
    assert counts == {"_obtuse_superbase": int(outcome != "det B' above the limit"),
                      "_coset_representatives": int(not refused)}


def test_cli_fan_commands_check_each_matrix_once(tmp_path, capsys, monkeypatch):
    """fan build, and fan validate and fan extends on the file it writes,
    each run one definiteness pass (_definite_adjugate) per matrix: on B'
    in GammaData, then on the metric in face_set."""
    from abdyn import toroidal
    passes = []

    def counting(rows, fn=exactalg._definite_adjugate):
        passes.append([list(row) for row in rows])
        return fn(rows)
    monkeypatch.setattr(exactalg, "_definite_adjugate", counting)
    monkeypatch.setattr(toroidal, "_definite_adjugate", counting)
    fan_file = tmp_path / "fan.json"
    for argv in (["fan", "build", "--B", "[[2,1],[1,3]]", "--out", str(fan_file)],
                 ["fan", "validate", str(fan_file)],
                 ["fan", "extends", "--nphi", "[1,1]", str(fan_file)]):
        passes.clear()
        code, _, err = run_cli(argv, None, capsys, monkeypatch)
        assert (code, err) == (0, "")
        assert passes == [[[2, 1], [1, 3]], [[1, 0], [0, 1]]], argv


@pytest.mark.parametrize("B, metric", [("[[2,1,0],[1,2,1],[0,1,2]]", "standard"),
                                       ("[[2,1],[1,3]]", "random"), ("[[5]]", "standard")],
                         ids=["A3", "r'=2-random", "r'=1"])
@pytest.mark.parametrize("command", ["validate", "extends"])
def test_cli_certified_fan_file_call_counts(B, metric, command, tmp_path, capsys, monkeypatch):
    """`fan validate` and `fan extends` on a file that `fan build` wrote run
    one Selling reduction and two eliminations (the definiteness passes on
    B' in GammaData and on the metric in face_set, no _bareiss), and build
    the face set once (one _delaunay_faces, one coset enumeration).  The
    fast test accepts the file by comparing it with that face set's
    fan_to_json, so validate_fan and section_extends take the fan as
    certified and run no second comparison (no _certify)."""
    from abdyn import toroidal
    fan_file = tmp_path / "fan.json"
    code, _, err = run_cli(["fan", "build", "--B", B, "--metric", metric, "--seed", "4",
                            "--out", str(fan_file)], None, capsys, monkeypatch)
    assert (code, err) == (0, "")
    originals = {"_obtuse_superbase": toroidal._obtuse_superbase,
                 "_delaunay_faces": toroidal._delaunay_faces,
                 "_coset_representatives": toroidal._coset_representatives,
                 "_definite_adjugate": exactalg._definite_adjugate,
                 "_bareiss": exactalg._bareiss, "_certify": toroidal._certify}
    counts = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.startswith("abdyn.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    nphi = json.dumps([1] * len(json.loads(B)))
    code, out, err = run_cli(_fan_argv(command, fan_file, nphi), None, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["ok" if command == "validate" else "extends"] is True
    assert counts == {"_obtuse_superbase": 1, "_delaunay_faces": 1, "_coset_representatives": 1,
                      "_definite_adjugate": 2, "_bareiss": 0, "_certify": 0}


@pytest.mark.parametrize("B, r_prime, products", [("[[2,1,0],[1,2,0],[0,0,0]]", 2, 0),
                                                  ("[[1,2],[2,4]]", 1, 2)],
                         ids=["unit-rows", "completion"])
def test_cli_fan_build_singular_B_call_counts(B, r_prime, products, capsys, monkeypatch):
    """`fan build` on a singular B runs two eliminations: the one of
    kernel_completion and period_data's pass over the kernel rows, whose
    last pivot is +-det W, so no IntMatrix.det runs.  When the unit rows
    complete the kernel rows (|det W| = 1), B' is read off B's rows with no
    matrix product; otherwise it is R B R^T for the completion rows R."""
    counts = dict.fromkeys(("_bareiss", "det", "__matmul__"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    bareiss = exactalg._bareiss
    for module in [m for name, m in sys.modules.items() if name.startswith("abdyn.")]:
        if getattr(module, "_bareiss", None) is bareiss:
            monkeypatch.setattr(module, "_bareiss", counting("_bareiss", bareiss))
    for name in ("det", "__matmul__"):
        monkeypatch.setattr(IntMatrix, name, counting(name, getattr(IntMatrix, name)))
    code, out, err = run_cli(["fan", "build", "--B", B], None, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["gamma"]["r_prime"] == r_prime
    assert counts == {"_bareiss": 2, "det": 0, "__matmul__": products}


@pytest.mark.parametrize("B", ["[[2,1,0],[1,2,1],[0,1,2]]", "[[1,0,0],[0,1,0],[0,0,1]]",
                               "[[2,1,1],[1,2,1],[1,1,2]]"], ids=["A3", "I3", "B3-1"])
def test_cli_fan_random_metric_round_trip_at_r3(B, tmp_path, capsys, monkeypatch):
    """At r' = 3, `fan build --metric random` with --seed 1..5 exits 0 in
    well under 0.5 s (about 2 ms here), `fan validate` reads its file as ok,
    and `fan extends` answers on it (g' = 0, so every section extends)."""
    fan_file = tmp_path / "fan.json"
    for seed in range(1, 6):
        start = time.perf_counter()
        code, _, err = run_cli(["fan", "build", "--B", B, "--metric", "random", "--seed",
                                str(seed), "--out", str(fan_file)], None, capsys, monkeypatch)
        assert (code, err) == (0, "") and time.perf_counter() - start < 0.5, seed
        code, out, err = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
        result = json.loads(out)["result"]
        assert (code, err, result["ok"], result["violations"]) == (0, "", True, []), seed
        code, out, err = run_cli(_fan_argv("extends", fan_file, "[1,-2,3]"), None, capsys,
                                 monkeypatch)
        assert (code, err) == (0, "") and json.loads(out)["result"]["extends"] is True, seed


@pytest.mark.parametrize("command, ints, floats", [
    ("decide", '{"g": 2, "charpoly": [1, -3, 1, -3, 1], "r": 0}',
     '{"g": 2.0, "charpoly": [1, -3, 1, -3, 1], "r": 0}'),
    ("decide", '{"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1}',
     '{"g": 2.0, "charpoly": [1, -4, 6, -4.0, 1], "r": 1.0, "k": 1.0}'),
    ("analyze", "[[2, 1], [1, 1]]", "[[2.0, 1], [1, 1.0]]"),
    ("analyze", '{"r": 2, "g": 0, "u_T": [[2, 1], [1, 1]]}',
     '{"r": 2.0, "g": 0.0, "u_T": [[2, 1], [1, 1.0]]}')])
def test_cli_integral_floats_read_as_ints(command, ints, floats, capsys, monkeypatch):
    """An integral float, which the schemas' integer type admits, is read as
    that int: the same exit code and result, and the same echo wherever
    the input is echoed through its parsed form ("g": 2, not 2.0)."""
    code_i, out_i, _ = run_cli([command], ints, capsys, monkeypatch)
    code_f, out_f, err = run_cli([command], floats, capsys, monkeypatch)
    assert code_i == code_f == 0 and err == ""
    assert json.loads(out_f)["result"] == json.loads(out_i)["result"]
    if command == "decide" or ints.startswith("{"):
        assert out_f == out_i


def _float_ray_entry(fan):
    fan["rays"][0][-1] = 1.0


def _float_gamma(fan):
    fan["gamma"]["g_prime"], fan["gamma"]["r_prime"] = 0.0, 1.0
    fan["gamma"]["Bprime"][0][0] = 3.0


@pytest.mark.parametrize("edit", [_float_ray_entry, _float_gamma])
def test_cli_fan_file_integral_floats(edit, tmp_path, capsys, monkeypatch):
    fan = serialize.fan_to_json(
        delaunay_fan(nakamura_data(IntMatrix.from_rows([[1, 3], [0, 1]]))))
    fan_file = tmp_path / "fan.json"
    results = []
    for edited in (False, True):
        if edited:
            edit(fan)
        fan_file.write_text(json.dumps(fan))
        for argv in (["fan", "validate", str(fan_file)],
                     ["fan", "extends", "--nphi", "[2]", str(fan_file)]):
            code, out, err = run_cli(argv, None, capsys, monkeypatch)
            assert code == 0 and err == ""
            results.append(json.loads(out)["result"])
    assert results[0]["ok"] and results[:2] == results[2:]


def test_cli_orbit_integral_float_g(capsys, monkeypatch):
    outs = [run_cli(["orbit", "analyze", "--lattice", lattice, "--alpha", "[[0.5,0]]"],
                    None, capsys, monkeypatch)
            for lattice in (SQUARE_LATTICE, SQUARE_LATTICE.replace('"g":1', '"g":1.0'))]
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("alpha, n", [("[]", 0), ("[[0.5,0],[0.25,0]]", 2)])
def test_cli_orbit_alpha_length_exit_2(alpha, n, capsys, monkeypatch):
    """An alpha with other than g entries is a schema error (exit 2, one
    line), not a traceback."""
    code, out, err = run_cli(["orbit", "analyze", "--lattice", SQUARE_LATTICE,
                              "--alpha", alpha], None, capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err == f"schema error: alpha must have g = 1 entries, got {n}\n"


# Entries at and beyond the edges of the float range, for the orbit contract
ORBIT_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, -1e300,
                  1.7976931348623157e308, 1.0, -1.0, 0.5, 1.4142135623730951, 1e-9)


@st.composite
def orbit_argv(draw):
    """An `orbit analyze` argv: the standard or a skew lattice at g = 1 or 2
    and an alpha, then up to three mutations (an entry of the basis or of
    alpha replaced, a basis vector copied over another, g or the length of
    alpha changed), with a drawn --tol and --height."""
    g = draw(st.integers(1, 2))
    basis = [[[float(i == j), 0.0] for i in range(g)] for j in range(g)]
    if draw(st.booleans()):
        basis += [[[0.0, float(i == j)] for i in range(g)] for j in range(g)]
    else:
        entry = st.floats(-0.5, 0.5)
        basis += [[[draw(entry), float(i == j) + draw(entry) / 4] for i in range(g)]
                  for j in range(g)]
    alpha = [[draw(st.floats(-2, 2)), draw(st.floats(-2, 2))] for _ in range(g)]
    number = st.one_of(st.sampled_from(ORBIT_EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False))
    doc_g = g
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(st.sampled_from(["basis", "alpha", "copy", "g", "length"]))
        if mutation == "basis":
            draw(st.sampled_from(draw(st.sampled_from(basis))))[draw(st.integers(0, 1))] \
                = draw(number)
        elif mutation == "alpha" and alpha:
            draw(st.sampled_from(alpha))[draw(st.integers(0, 1))] = draw(number)
        elif mutation == "copy":
            src, dst = draw(st.integers(0, 2 * g - 1)), draw(st.integers(0, 2 * g - 1))
            basis[dst] = copy.deepcopy(basis[src])
        elif mutation == "g":
            doc_g = draw(st.integers(0, 3))
        elif alpha and draw(st.booleans()):
            alpha.pop()
        else:
            alpha.append([draw(number), draw(number)])
    tol = draw(st.sampled_from(["1e-10", "1e-16", "0.1", "1e300", "1e-300", "1e-310",
                                "5e-324", "0", "-1", "nan", "inf"]))
    height = draw(st.sampled_from(["50", "1", "0", "-3", "1000000", str(10 ** 30)]))
    return ["orbit", "analyze", "--lattice", json.dumps({"g": doc_g, "basis": basis}),
            "--alpha", json.dumps(alpha), "--tol", tol, "--height", height]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(orbit_argv())
def test_cli_orbit_analyze_contract(argv):
    """Whatever the lattice, alpha, tol and height: exit 0, 2, 3 or 4, never
    a traceback; a refusal prints exactly one stderr line and no stdout, and
    a report validates against orbit_report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        serialize.validate_schema(json.loads(out.getvalue())["result"], "orbit_report")


# --- contract of analyze, split and decide -------------------------------------

# Matrix entries at the edges of the float range and beyond it: 2^520 squares
# past it, 2^1100 does not convert to a float.
ALGEBRA_EXTREMES = (0, 1, -1, 3, 2 ** 520, -(2 ** 520), 2 ** 1100, str(-(2 ** 1100)))
ALGEBRA_MATRICES = ([[2, 1], [1, 1]], [[1, 1], [0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])


def _mutate_matrix(draw, rows):
    """rows after one mutation: an entry replaced (also by a non-integer), a
    shear row_i += N row_j (det is kept, the spectrum is not), a row copied
    over another, or a row shortened.  Applied again to its own output, an
    entry past the end of a shortened row is appended and an empty row is
    not shortened; the draws are the same either way."""
    rows = copy.deepcopy(rows)
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    mutation = draw(st.sampled_from(["entry", "shear", "shear", "copy", "short"]))
    if mutation == "entry":
        value = draw(st.sampled_from(ALGEBRA_EXTREMES + (1.5, True, None, "x")))
        if j < len(rows[i]):
            rows[i][j] = value
        else:
            rows[i].append(value)
    elif mutation == "shear" and i != j and all(type(x) is int for x in rows[i] + rows[j]):
        N = int(draw(st.sampled_from(ALGEBRA_EXTREMES)))
        rows[i] = [a + N * b for a, b in zip(rows[i], rows[j])]
    elif mutation == "copy":
        rows[i] = list(rows[j])
    elif mutation == "short" and rows[i]:
        rows[i].pop()
    return rows


@st.composite
def algebra_argv(draw):
    """(argv, stdin) of an `analyze` (a bare matrix or a semi-abelian
    automorphism, with a drawn --tol), `split` or `decide` document, built
    from a real input by up to three mutations."""
    command = draw(st.sampled_from(["analyze", "analyze-aut", "split", "decide"]))
    count = draw(st.integers(0, 3))
    if command == "decide":
        doc = draw(st.sampled_from([{"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1},
                                    {"g": 2, "charpoly": [1, -1, -1, -1, 1], "r": 2},
                                    {"g": 1, "charpoly": [1, 0, 1], "finite_order": True}]))
        doc = copy.deepcopy(doc)
        for _ in range(count):
            key = draw(st.sampled_from(["charpoly", "charpoly", "g", "r", "k", "finite_order"]))
            value = draw(st.sampled_from(ALGEBRA_EXTREMES + (2, None, "2", 2.0)))
            if key == "charpoly" and draw(st.booleans()):
                doc["charpoly"][draw(st.integers(0, len(doc["charpoly"]) - 1))] = value
            elif key == "charpoly":
                doc["charpoly"].append(value)
            else:
                doc[key] = value
        return ["decide"], json.dumps(doc)
    if command == "analyze-aut":
        doc = draw(st.sampled_from([
            {"r": 2, "g": 1, "u_T": [[2, 1], [1, 1]], "u_A_rat": [[0, -1], [1, 0]]},
            {"r": 0, "g": 2, "u_A_rat": [[2, 1, 0, 0], [1, 1, 0, 0],
                                         [0, 0, 2, 1], [0, 0, 1, 1]]}]))
        doc = copy.deepcopy(doc)
        for _ in range(count):
            key = draw(st.sampled_from(sorted(doc)))
            if key in ("u_T", "u_A_rat"):
                doc[key] = _mutate_matrix(draw, doc[key])
            else:
                doc[key] = draw(st.integers(-1, 3))
        payload = doc
    else:
        payload = draw(st.sampled_from(ALGEBRA_MATRICES))
        for _ in range(count):
            payload = _mutate_matrix(draw, payload)
    if command == "split":
        return ["split"], json.dumps(payload)
    tol = draw(st.sampled_from(["1e-9", "0.5", "1e300", "1e-300", "5e-324", "0", "-1",
                                "nan", "inf"]))
    return ["analyze", "--tol", tol], json.dumps(payload)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(algebra_argv())
def test_cli_algebra_contract(doc):
    """Whatever the matrix, automorphism, descriptor or tol: exit 0, 2, 3 or
    4, never a traceback; a refusal prints one stderr line and no stdout, and
    a result has no Infinity or NaN and validates against its schemas."""
    argv, stdin = doc
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert err.getvalue() == ""
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()
    result = json.loads(out.getvalue())["result"]
    if argv[0] == "analyze":
        serialize.validate_schema(result["degrees"], "degree_profile")
        for part in result["parts"].values():
            for name in ("charpoly", "cyclotomic_part", "cyclotomic_free_part"):
                serialize.validate_schema(part[name], "polynomial")
    else:
        serialize.validate_schema(result, {"split": "split_report", "decide": "verdict"}[argv[0]])


# --- contract of fan build, validate and extends ---------------------------------

FAN_CONTRACT_BS = ([[2]], [[2, 1], [1, 2]], [[1, 0], [0, 0]], [[2, 1, 0], [1, 2, 0], [0, 0, 0]],
                   [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
# Entries of B, rays, cones, B', metrics and n_phi: small, huge (2^1100 does
# not convert to a float), and values of the wrong JSON type.
FAN_EXTREMES = (0, 1, -1, 2, 3, 7, 2 ** 70, -(2 ** 70), 2 ** 1100, -(2 ** 1100), "3", "-1",
                "1/2", "2/0", "10/3", 1.5, 2.0, -0.5, 1e300, 5e-324, True, None, "x", [])
FAN_METRICS = (None, "standard", "identity", "random", "[[1]]", '[["2", "1/2"], ["1/2", "1"]]',
               "[[1, 0], [0, 1]]", '[["-1"]]', "[[0]]", "[[1, 2], [3, 4]]", '[["1/3"]]',
               "[[1e300]]", "[[5e-324]]", "[[1e-300, 0], [0, 1e300]]", '[["10/0"]]',
               "[[1, 0, 0]]", "[]", "5", '"abc"', "bogus", "[[2, 1], [1, 2], [0, 0]]")


@functools.cache
def _contract_fan(B):
    """The `fan build` output document for B (a JSON text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fan", "build", "--B", B, "--seed", "0"]) == 0
    return out.getvalue()


def _replace_entry(draw, rows, value):
    """An entry of one of the rows (lists) replaced by a drawn value."""
    rows = [row for row in rows if isinstance(row, list) and row]
    if rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(value)


def _add_or_drop(draw, rows):
    """The last of the rows dropped, or a copy of one appended."""
    if rows and draw(st.booleans()):
        rows.pop()
    elif rows:
        rows.append(copy.deepcopy(draw(st.sampled_from(rows))))


def _mutate_fan(draw, doc):
    """One mutation of a fan document: a ray, cone, B', metric, gamma or
    seed entry replaced, or a ray entry, ray, cone or row added or dropped."""
    fan = doc["result"] if "result" in doc else doc
    value = st.sampled_from(FAN_EXTREMES)
    mutation = draw(st.sampled_from(["ray", "ray_length", "rays", "cone", "cones",
                                     "cone_empty", "bprime", "bprime_rows", "metric",
                                     "metric_rows", "metric_drop", "gamma", "seed"]))
    rays, cones = fan["rays"], fan["cones"]
    if mutation == "ray":
        _replace_entry(draw, rays, value)
    elif mutation == "ray_length" and rays:
        _add_or_drop(draw, draw(st.sampled_from(rays)))
    elif mutation == "rays":
        _add_or_drop(draw, rays)
    elif mutation == "cone":
        index = st.one_of(st.sampled_from([-1, len(rays), 2 ** 70, 1.0, "0", None]),
                          st.integers(0, max(len(rays) - 1, 0)))
        _replace_entry(draw, cones, index)
    elif mutation == "cones":
        _add_or_drop(draw, cones)
    elif mutation == "cone_empty":
        cones.append([])
    elif mutation == "bprime":
        _replace_entry(draw, fan["gamma"]["Bprime"], value)
    elif mutation == "bprime_rows":
        _add_or_drop(draw, fan["gamma"]["Bprime"])
    elif mutation == "metric" and "metric" in fan:
        _replace_entry(draw, fan["metric"], value)
    elif mutation == "metric_rows" and "metric" in fan:
        _add_or_drop(draw, fan["metric"])
    elif mutation == "metric_drop":
        fan.pop("metric", None)
    elif mutation == "gamma":
        fan["gamma"][draw(st.sampled_from(["g_prime", "r_prime"]))] = draw(value)
    elif mutation == "seed":
        fan["seed"] = draw(value)


@st.composite
def fan_argv(draw):
    """(argv, fan file text or None): a `fan build` with a mutated B, --metric
    and --seed, or a `fan validate` or `fan extends` on a built fan after up
    to three mutations, with an --nphi at the edges."""
    command = draw(st.sampled_from(["build", "validate", "extends"]))
    B = draw(st.sampled_from(FAN_CONTRACT_BS))
    if command == "build":
        if draw(st.booleans()):
            B = _mutate_matrix(draw, B)
        argv = ["fan", "build", "--B", json.dumps(B)]
        metric = draw(st.sampled_from(FAN_METRICS))
        if metric is None and draw(st.booleans()):  # a metric with a drawn entry
            r = draw(st.integers(1, 3))
            rows = [[str(int(i == j)) for j in range(r)] for i in range(r)]
            rows[draw(st.integers(0, r - 1))][draw(st.integers(0, r - 1))] \
                = draw(st.sampled_from(FAN_EXTREMES))
            metric = json.dumps(rows)
        if metric is not None:
            argv += ["--metric", metric]
        if draw(st.booleans()):
            argv += ["--seed", draw(st.sampled_from(["0", "1", "-1", "123456", str(2 ** 70),
                                                     str(-(2 ** 100))]))]
        return argv, None
    doc = json.loads(_contract_fan(json.dumps(B)))
    if draw(st.booleans()):
        doc = doc["result"]  # a bare fan file
    for _ in range(draw(st.integers(0, 3))):
        _mutate_fan(draw, doc)
    argv = ["fan", command, "@FAN"]
    if command == "extends":
        g = len(B)
        n_phi = [draw(st.integers(-6, 6)) for _ in range(g)]
        edge = draw(st.sampled_from(["none", "entry", "length", "value"]))
        if edge == "entry":
            n_phi[draw(st.integers(0, g - 1))] = draw(st.sampled_from(FAN_EXTREMES))
        elif edge == "length":
            n_phi = n_phi[:-1] if draw(st.booleans()) else n_phi + [1]
        text = json.dumps(n_phi) if edge != "value" else \
            draw(st.sampled_from(["5", "{}", "null", "[]", '"1"', "[[1]]", "nope"]))
        argv[2:2] = ["--nphi", text]
    return argv, json.dumps(doc)


FAN_OUTPUT_SCHEMAS = {"build": "fan", "validate": "fan_validation", "extends": "fan_extension"}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(fan_argv())
def test_cli_fan_contract(tmp_path_factory, doc):
    """Whatever B, metric, seed, fan file and n_phi: exit 0, 2 or 3, never a
    traceback, and never exit 4, as every positive definite metric has its
    triangulation.  A refusal prints one stderr line and no stdout, except that
    `fan validate` reports a fan that fails validation on stdout with exit 3;
    an output validates against its schema."""
    argv, text = doc
    if text is not None:
        path = tmp_path_factory.getbasetemp() / "contract_fan.json"
        path.write_text(text)
        argv = [str(path) if a == "@FAN" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[1]}: exit {code}")
    assert code in (0, 2, 3)
    reported = argv[1] == "validate" and code == 3 and out.getvalue()
    if code and not reported:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert err.getvalue() == ""
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()
    result = json.loads(out.getvalue())["result"]
    serialize.validate_schema(result, FAN_OUTPUT_SCHEMAS[argv[1]])
    if reported:
        assert result["ok"] is False and result["violations"]


# --- contract of catalog list, catalog build and end-to-end -------------------------

CATALOG_INTS = ("-1", "0", "1", "2", "3", "4", "5", "6", "7", "9", "16", "100000",
                str(10 ** 30), str(-10 ** 30))
CATALOG_CASES = ("2.1", "2.2", "3.1", "3.2", "4.5", "4.8", "5.5", "4.1", "5.1", "2.3",
                 "9.9", "", "2", "2.x", "x.1", "-2.1", " 2.1", "2.1.1", "10.1", "0.1")


@st.composite
def catalog_argv(draw):
    """A `catalog list` with a drawn --g, or a `catalog build` or `end-to-end`
    with a drawn case id (tabulated, untabulated or malformed), --d, --r and
    (end-to-end) --tol."""
    command = draw(st.sampled_from(["list", "build", "end-to-end"]))
    if command == "list":
        return ["catalog", "list", "--g", draw(st.sampled_from(CATALOG_INTS))]
    argv = ["catalog", "build"] if command == "build" else ["end-to-end"]
    argv += ["--case", draw(st.sampled_from(CATALOG_CASES))]
    for flag in ("--d", "--r"):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(CATALOG_INTS))]
    if command == "end-to-end" and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-9", "0.5", "1e300", "5e-324", "0", "-1",
                                                "nan", "inf"]))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(catalog_argv())
def test_cli_catalog_contract(argv):
    """Whatever the g, case, d, r and tol: exit 0, 2, 3 or 4, never a
    traceback; a refusal prints one stderr line and no stdout, and an output
    has no Infinity or NaN (`catalog list` validates against its schema)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0] if argv[0] == 'end-to-end' else ' '.join(argv[:2])}: exit {code}")
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert err.getvalue() == ""
    assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue()
    if argv[1] == "list":
        serialize.validate_schema(json.loads(out.getvalue())["result"], "catalog_list")


@pytest.mark.parametrize("command", ["validate", "extends"])
def test_cli_fan_file_integral_float_cone_index(command, tmp_path, capsys, monkeypatch):
    """A cone index written 1.0 (an integer to the fan schema) reads as 1:
    the same output as the file with integer indices, not a traceback."""
    fan = serialize.fan_to_json(
        delaunay_fan(nakamura_data(IntMatrix.from_rows([[1, 3], [0, 1]]))))
    outputs = []
    for edit in (False, True):
        if edit:
            fan["cones"] = [[float(i) for i in cone] for cone in fan["cones"]]
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps(fan))
        argv = ["fan", command, str(fan_file)]
        if command == "extends":
            argv[2:2] = ["--nphi", "[1]"]
        outputs.append(run_cli(argv, None, capsys, monkeypatch))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


@pytest.mark.parametrize("exponent, code, lambda_1", [
    (500, 0, 3.273390607896142e+150), (520, 0, 3.432398830065305e+156),
    (1023, 0, 8.98846567431158e+307), (1100, 4, None)])
def test_cli_analyze_huge_eigenvalue(exponent, code, lambda_1, capsys, monkeypatch):
    """[[N+1, N], [1, 1]] has det 1 and an eigenvalue near N: a finite
    lambda_1 is reported, and a char poly beyond the float range is refused
    with one line (exit 4)."""
    N = 2 ** exponent
    got, out, err = run_cli(["analyze"], json.dumps([[N + 1, N], [1, 1]]), capsys, monkeypatch)
    assert got == code
    if code:
        assert out == "" and err == ("numeric indeterminacy: a char poly coefficient "
                                     "is beyond the float range\n")
    else:
        assert json.loads(out)["result"]["degrees"]["lambdas"] == [1.0, lambda_1, 1.0]


@pytest.mark.parametrize("payload", ["torus", "abelian"])
def test_cli_analyze_degree_beyond_float_range_exit_4(payload, capsys, monkeypatch):
    """Two blocks [[N+1, N], [1, 1]] at N = 2^520: lambda_2 of the torus
    (a product) and lambda_1 of the abelian part (a square) are beyond the
    float range although every modulus is finite."""
    N = 2 ** 520
    m = [[N + 1, N, 0, 0], [1, 1, 0, 0], [0, 0, N + 1, N], [0, 0, 1, 1]]
    doc = m if payload == "torus" else {"r": 0, "g": 2, "u_A_rat": m}
    code, out, err = run_cli(["analyze"], json.dumps(doc), capsys, monkeypatch)
    assert (code, out) == (4, "")
    assert err == "numeric indeterminacy: a dynamical degree is beyond the float range\n"


def test_cli_orbit_tol_below_float_resolution_exit_3(capsys, monkeypatch):
    """A tol below the float resolution of q . x at the height bound is
    refused (exit 3); at the default tol the same input finds its three
    relations."""
    lattice = json.dumps({"g": 2, "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                            [[0.3, 1.1], [0.1, 0.05]],
                                            [[0.1, 0.05], [-0.2, 1.3]]]})
    alpha = "[[0.7071067811865476,0.1],[0.3333333333333333,1.4142135623730951]]"
    argv = ["orbit", "analyze", "--lattice", lattice, "--alpha", alpha]
    code, out, _ = run_cli(argv, None, capsys, monkeypatch)
    assert code == 0 and json.loads(out)["result"]["h"] == 1
    for extra in (["--tol", "1e-300"], ["--tol", "1e-14"], ["--height", str(10 ** 30)]):
        code, out, err = run_cli(argv + extra, None, capsys, monkeypatch)
        assert code == 3 and out == ""
        assert err.startswith("contract error: tol = ") and len(err.splitlines()) == 1


# --- the argv contract: usage errors, help and version ---------------------------

def _call(argv, stdin_text=""):
    """(code, stdout, stderr) of main(argv); a SystemExit fails the test."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        raise AssertionError(f"main raised SystemExit({exc.code!r})") from None
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_cli_no_command_is_a_usage_error():
    code, out, err = _call([])
    assert code == 2 and out == ""
    assert err.splitlines() == ["usage error: abdyn: expected one of analyze, decide, split, "
                                "fan, orbit, catalog, end-to-end, got nothing"]


def test_cli_version():
    from abdyn import __version__
    assert _call(["--version"]) == (0, __version__ + "\n", "")


def test_cli_group_without_subcommand_is_a_usage_error():
    code, out, err = _call(["orbit"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["usage error: orbit: expected one of analyze, got nothing"]


@pytest.mark.parametrize("argv, line", [
    (["analyze", "--tol", "abc"], "analyze: --tol expects FLOAT, got 'abc'"),
    (["fan", "build", "--bogus", "1"], "fan build: unknown flag '--bogus'"),
    (["fan", "build", "--B", "[[2]]", "--B", "[[3]]"], "fan build: --B given twice"),
    (["fan", "build", "--seed", "1"], "fan build: --B is required"),
    (["fan", "extends", "x.json", "--nphi"], "fan extends: --nphi needs a value"),
    (["fan", "validate"], "fan validate: expected 1 positional argument(s), got []"),
    (["catalog", "list", "--g", "1.5"], "catalog list: --g expects INT, got '1.5'"),
    (["fan", "build", "--B", "[[2]]", "--lat", "x"], "fan build: unknown flag '--lat'"),
    (["orbit", "analyze", "--lat", "x"], "orbit analyze: unknown flag '--lat'"),
    (["catalog", "bogus"], "catalog: expected one of list, build, got 'bogus'")])
def test_cli_usage_errors(argv, line):
    """A usage error is one `usage error:` line and exit 2; flags are matched
    whole, so an abbreviation such as --lat is unknown."""
    assert _call(argv) == (2, "", f"usage error: {line}\n")


def test_cli_flag_values_that_look_like_flags():
    """The token after a flag is its value: --tol -1 and --height -3 reach
    the command, which refuses them; --flag=value reads like --flag value."""
    lattice = '{"g":1,"basis":[[[1,0]],[[0,1]]]}'
    base = ["orbit", "analyze", "--lattice", lattice, "--alpha", "[[0.5,0.25]]"]
    code, out, err = _call(base + ["--tol", "-1"])
    assert code == 3 and out == "" and err.startswith("contract error:")
    assert _call(base + ["--height", "-3"]) \
        == (3, "", "contract error: height bound must be >= 1\n")
    assert _call(base + ["--height=20"]) == _call(base + ["--height", "20"])
    assert _call(["orbit", "analyze", "--lattice=" + lattice, "--alpha=[[0.5,0.25]]"]) \
        == _call(base)


def test_cli_help():
    """-h/--help print to stdout and exit 0: the command list at the top and
    under a group, the flags of a command."""
    code, out, err = _call(["--help"])
    assert code == 0 and err == "" and out.startswith("usage: abdyn COMMAND")
    assert all(" ".join(words) in out for words in cli.COMMANDS)
    code, out, err = _call(["fan", "-h"])
    assert code == 0 and "fan extends" in out and "orbit analyze" not in out
    code, out, err = _call(["fan", "build", "--B", "[[2]]", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: abdyn fan build --B JSON [--metric JSON|random]")


def test_build_parser_returns_the_command_table():
    """build_parser is kept as a name and returns the command table: words
    -> (handler, flags, positionals, help)."""
    table = cli.build_parser()
    assert table is cli.COMMANDS
    assert table[("fan", "extends")][0] is cli.cmd_fan_extends
    assert table[("fan", "extends")][2] == ("file",)
    assert table[("orbit", "analyze")][1]["--height"][:4] == ("height", int, 50, False)


ARGV_LATTICE = '{"g":1,"basis":[[[1,0]],[[0,1]]]}'
# command words -> (flag and positional items of a valid argv, stdin); @FAN and
# @DECIDE are the paths of files the fixture writes
ARGV_BASES = {
    ("analyze",): ([["--tol", "1e-9"]], "[[2,1],[1,1]]"),
    ("decide",): ([["--in", "@DECIDE"]], ""),
    ("split",): ([], "[[0,-1,0,0],[1,0,0,0],[0,0,2,1],[0,0,1,1]]"),
    ("fan", "build"): ([["--B", "[[2,1],[1,3]]"], ["--seed", "3"]], ""),
    ("fan", "validate"): ([["@FAN"]], ""),
    ("fan", "extends"): ([["--nphi", "[1,2]"], ["@FAN"]], ""),
    ("orbit", "analyze"): ([["--lattice", ARGV_LATTICE], ["--alpha", "[[0.5,0.25]]"],
                            ["--height", "20"], ["--tol", "1e-10"]], ""),
    ("catalog", "list"): ([["--g", "2"]], ""),
    ("catalog", "build"): ([["--case", "2.2"], ["--d", "2"], ["--r", "1"]], ""),
    ("end-to-end",): ([["--case", "2.2"], ["--d", "3"], ["--r", "1"], ["--tol", "1e-9"]], ""),
}
NUMERIC_FLAGS = {"--seed", "--height", "--g", "--d", "--r", "--tol"}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The files the valid argv name, and each valid argv's own outcome."""
    d = tmp_path_factory.mktemp("argv")
    files = {"@FAN": str(d / "fan.json"), "@DECIDE": str(d / "decide.json")}
    pathlib.Path(files["@DECIDE"]).write_text('{"g":2,"charpoly":[1,-4,6,-4,1],"r":1,"k":1}')
    assert _call(["fan", "build", "--B", "[[2,1],[1,3]]", "--out", files["@FAN"]])[0] == 0
    outcomes = {}
    for words, (items, stdin_text) in ARGV_BASES.items():
        argv = list(words) + [files.get(t, t) for item in items for t in item]
        outcomes[words] = _call(argv, stdin_text)
    return files, outcomes


@st.composite
def usage_argv(draw):
    """A valid argv of a drawn command with at most one mutation: an unknown,
    repeated or dropped flag, a flag with no value, a non-numeric number, an
    extra or missing positional, a bad command word, -h/--help or --version
    at a drawn place; some flags drawn in --flag=value form.  Returns (words,
    the tokens after them, stdin, what the mutation makes of it: "same",
    "valid", "usage", "help" or "version")."""
    words = draw(st.sampled_from(sorted(ARGV_BASES)))
    items, stdin_text = ARGV_BASES[words]
    items = [list(item) for item in items]
    flags = cli.COMMANDS[words][1]
    mutation = draw(st.sampled_from(["none", "unknown", "repeat", "drop", "no value",
                                     "number", "extra", "command", "help", "version"]))
    expect = "same"
    at = draw(st.integers(0, len(items)))
    if mutation == "unknown":
        other = next(f for f in ("--tol", "--g", "--in") if f not in flags)
        items.insert(at, draw(st.sampled_from([["--bogus", "1"], ["--bogus"], ["-x"],
                                               [other + "=1"]])))
        expect = "usage"
    elif mutation == "repeat" and any(len(i) == 2 for i in items):
        items.insert(at, list(draw(st.sampled_from([i for i in items if len(i) == 2]))))
        expect = "usage"
    elif mutation == "drop" and items:
        item = items.pop(draw(st.integers(0, len(items) - 1)))
        expect = "usage" if len(item) == 1 or flags[item[0]][3] else "valid"
    elif mutation == "no value":
        items.append([draw(st.sampled_from(sorted(flags)))])
        expect = "usage"
    elif mutation == "number" and any(i[0] in NUMERIC_FLAGS for i in items):
        item = draw(st.sampled_from([i for i in items if i[0] in NUMERIC_FLAGS]))
        item[1] = draw(st.sampled_from(["abc", "", "1.5" if flags[item[0]][1] is int
                                        else "1e", "0x10", "1,5", "--"]))
        expect = "usage"
    elif mutation == "extra":
        items.insert(at, ["extra.json"])
        expect = "usage"
    elif mutation == "command":      # a group alone, a bad word, a stray word
        words = draw(st.sampled_from([words[:-1], ("bogus",) + words[1:], words + ("x",)]))
        expect = "usage"
    elif mutation in ("help", "version"):
        token = draw(st.sampled_from(["-h", "--help"])) if mutation == "help" else "--version"
        where = draw(st.integers(0, len(words) + len(items)))
        if where <= len(words):
            words = words[:where] + (token,) + words[where:]
            expect = mutation if mutation == "help" or where == 0 else "usage"
        else:
            items.insert(where - len(words), [token])
            expect = "help" if mutation == "help" else "usage"
    if expect in ("same", "valid"):
        for item in items:
            if len(item) == 2 and draw(st.booleans()):
                item[:] = [f"{item[0]}={item[1]}"]
    return words, [t for item in items for t in item], stdin_text, expect


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=usage_argv())
def test_cli_argv_contract(argv_files, doc):
    """Whatever is done to a valid argv: main returns 0, 2, 3 or 4 (no fan
    command returns 4) and never raises SystemExit; an error prints at most one stderr line; a usage error
    is exit 2 with one `usage error:` line and no stdout; -h/--help and
    --version print to stdout and exit 0; a valid argv whose flags are only
    rewritten as --flag=value gives exactly the output of the original."""
    files, outcomes = argv_files
    words, rest, stdin_text, expect = doc
    argv = list(words) + [functools.reduce(lambda t, f: t.replace(*f), files.items(), t)
                          for t in rest]
    code, out, err = _call(argv, stdin_text)
    event(f"{expect}: exit {code}")
    assert code in ((0, 2, 3) if words[:1] == ("fan",) else (0, 2, 3, 4))
    if code:
        assert len(err.splitlines()) <= 1
    if err.startswith("usage error:") or expect == "usage":
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        assert err.startswith("usage error:") == (expect == "usage")
    elif expect == "help":
        assert code == 0 and err == "" and out.startswith("usage: abdyn")
    elif expect == "version":
        assert (code, out, err) == (0, cli.__version__ + "\n", "")
    elif expect == "same":
        assert (code, out, err) == outcomes[words]


# the reproduction parameters of each command; the others have none
ENVELOPE_OPTIONS = {("analyze",): {"tol"}, ("end-to-end",): {"tol"},
                    ("fan", "build"): {"seed"}, ("orbit", "analyze"): {"height", "tol"}}


def test_cli_envelope_follows_the_command_table(argv_files):
    """The exit-0 document of every command is {command, input, options,
    result}: command is the table's words joined by a space, and options
    holds exactly the flags the table marks as reproduction parameters, with
    the values the argv gave them."""
    _, outcomes = argv_files
    for words, (_, flags, _, _) in cli.COMMANDS.items():
        code, out, err = outcomes[words]
        assert (code, err) == (0, ""), words
        doc = json.loads(out)
        marked = {flag: spec for flag, spec in flags.items() if spec[6]}
        assert {spec[0] for spec in marked.values()} == ENVELOPE_OPTIONS.get(words, set())
        given = {marked[item[0]][0]: marked[item[0]][1](item[1])
                 for item in ARGV_BASES[words][0] if item[0] in marked}
        assert sorted(doc) == ["command", "input", "options", "result"]
        assert (doc["command"], doc["options"]) == (" ".join(words), given)


# --- golden results of analyze and split -----------------------------------------

GOLDEN_CYCLOTOMIC = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 1, 1, 1, 1])
GOLDEN_FREE = ([1, -3, 1], [-1, -1, 1], [-1, -1, 0, 1], [1, -1, -1, -1, 1],
               [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def _golden_matrices():
    """20 seeded matrices u M u^-1 of sizes 2..10, in plain integers: M a
    block sum of companion matrices of cyclotomic and cyclotomic-free
    polynomials, u a word of 4n elementary row operations."""
    rng = random.Random("golden")
    out = []
    for n in [2, 3, 4, 5, 6, 7, 8, 9, 10] * 2 + [4, 10]:
        polys, size = [], 0
        while size < n:
            fits = [p for p in GOLDEN_FREE + GOLDEN_CYCLOTOMIC if len(p) - 1 <= n - size]
            polys.append(rng.choice(fits))
            size += len(polys[-1]) - 1
        m = [[0] * n for _ in range(n)]
        off = 0
        for p in polys:
            d = len(p) - 1
            for i in range(d):
                if i:
                    m[off + i][off + i - 1] = 1
                m[off + i][off + d - 1] = -p[i]
            off += d
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        uinv = [row[:] for row in u]
        for _ in range(4 * n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            u[i] = [x + s * y for x, y in zip(u[i], u[j])]   # row_i += s row_j
            for row in uinv:                                # col_j -= s col_i
                row[j] -= s * row[i]
        um = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in u]
        out.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*uinv)]
                    for row in um])
    return out


# sha256 of the canonical JSON of the result blocks, in order.  The analyze
# digest also pins the float lambdas, which come from numpy's root finder.
# The split digest pins LLL-reduced bases, which a change to the LLL input
# can alter with every lattice kept: re-pin it only after checking that each
# changed basis has the Hermite normal form of the basis it replaces.
GOLDEN_DIGESTS = {
    "analyze": "36b048edcb1e61e49c05efa8404e7293944c0e124322fa87fc7df5dac973a778",
    "split": "82d37601937aaae13ed1b526a5b54963dabedc5cb7c6fbb2a9b8202baeb37800"}


def test_cli_golden_analyze_and_split_results():
    """The result blocks of analyze and split on 20 conjugated matrices are
    exactly those of the released kernels: a rewrite of the exact kernels
    may not change a basis, a char poly or a degree unless the change is
    declared and the digest re-pinned."""
    digests = {}
    for command in GOLDEN_DIGESTS:
        h = hashlib.sha256()
        for matrix in _golden_matrices():
            result = _cli_result([command], json.dumps(matrix))
            h.update(json.dumps(result, sort_keys=True).encode())
        digests[command] = h.hexdigest()
    assert digests == GOLDEN_DIGESTS


# --- the direct JSON writer ---------------------------------------------------

def _json_text(dump, obj):
    """dump(obj), or TypeError when it refuses obj."""
    try:
        return dump(obj)
    except TypeError:
        return TypeError


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
               1.7976931348623157e308, -1e308, float("nan"), math.inf, -math.inf, 0.1, 1e16)
JSON_STRINGS = ("", '"', "\\", "/", "\n\r\t\b\f", "\x00\x01\x1f\x7f", "\u2028\u2029",
                "caf\u00e9", "\u00ff\u0100", "\U0001f600", "\ud800", "key")
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10 ** 1000, 10 ** 1000),
    st.floats(), st.sampled_from(JSON_FLOATS),
    st.text(), st.sampled_from(JSON_STRINGS))
json_keys = st.one_of(
    st.text(), st.sampled_from(JSON_STRINGS),                  # str keys
    st.integers(-10 ** 1000, 10 ** 1000), st.floats(),          # numbers sort together
    st.sampled_from(JSON_FLOATS), st.booleans())


def _dicts(children):
    """Dicts of str keys, of number and bool keys, of one None key, or (rarely
    sortable) of mixed keys."""
    return st.one_of(
        st.dictionaries(st.text() | st.sampled_from(JSON_STRINGS), children, max_size=5),
        st.dictionaries(st.integers() | st.floats() | st.booleans()
                        | st.sampled_from(JSON_FLOATS), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(json_keys | st.none(), children, max_size=3))


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


# Items that dump_json writes in its loops (an exact str, int or finite
# float) beside the look-alikes it does not: bools, 1.0 for 1, non-finite
# floats, subclasses, and empty or tuple containers.
INLINE_EDGES = (True, 1, 1.0, False, 0, -0.0, math.nan, math.inf, -math.inf, _Int(1),
                _Float(1.0), _Float(math.inf), _Str("s"), [], (), {}, [()], ((),), {"k": ()})
json_trees = st.recursive(
    json_scalars | st.sampled_from(INLINE_EDGES),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               _dicts(children)),
    max_leaves=40)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(json_trees)
def test_dump_json_matches_json_dumps(tree):
    """The bytes of json.dumps(indent=2, sort_keys=True) plus a newline, on
    trees with escapes, control characters, non-ASCII text, huge ints, the
    float edges, tuples and non-str keys, and lists and dict values that mix
    True, 1 and 1.0, NaN and +-inf, subclasses of str, int and float, and
    empty and tuple containers; where json refuses the tree (keys that do
    not sort), dump_json refuses it too."""
    want = _json_text(_json_dumps, tree)
    event("refused" if want is TypeError else "written")
    assert _json_text(serialize.dump_json, tree) == want


@pytest.mark.parametrize("value", [fractions.Fraction(1, 3), object(), 1j, {1, 2}, b"x",
                                   [1, [fractions.Fraction(2)]], {"a": object()},
                                   {(1, 2): 3}, {fractions.Fraction(1, 2): 0}])
def test_dump_json_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        _json_dumps(value)
    with pytest.raises(TypeError):
        serialize.dump_json(value)


# --- golden stdout of every command -------------------------------------------

GOLDEN_FAN_BS = ([[1]], [[3]], [[2, 1], [1, 2]], [[1, 0], [0, 0]],
                 [[2, 1, 0], [1, 2, 0], [0, 0, 0]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
GOLDEN_CASES = ("2.1", "2.2", "3.1", "3.2", "4.5", "4.8", "5.5")


def _golden_documents():
    """{command: [argv, stdin]} for a seeded set of documents of every
    command, a few refusals among them.  `fan validate` and `fan extends`
    read the files fan0.json, fan1.json, ... that the `fan build` documents
    write, by relative path, so their output does not depend on the
    directory."""
    rng = random.Random("golden-stdout")
    matrices = _golden_matrices()
    docs = {"analyze": [[["analyze"], json.dumps(m)] for m in matrices[:4]]
            + [[["analyze", "--tol", "1e-6"], json.dumps(
                {"r": 2, "g": 1, "u_T": [[2, 1], [1, 1]], "u_A_rat": [[0, -1], [1, 0]]})],
               [["analyze"], json.dumps({"r": 0, "g": 2, "u_A_rat": [
                   [2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]})],
               [["analyze"], "[[1, 2], [3]]"]],
            "decide": [[["decide"], json.dumps(d)] for d in (
                {"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 1, "k": 1},
                {"g": 2, "charpoly": [1, -4, 6, -4, 1], "r": 2, "k": 0},
                {"g": 2, "charpoly": [1, -1, -1, -1, 1], "r": 2},
                {"g": 1, "charpoly": [1, 0, 1], "finite_order": True},
                {"g": 2, "charpoly": [1, 2, 3], "r": 1})],
            "split": [[["split"], json.dumps(m)] for m in matrices[4:9]],
            "fan build": [], "fan validate": [], "fan extends": [], "orbit analyze": [],
            "catalog list": [[["catalog", "list", "--g", str(g)], ""] for g in range(1, 6)],
            "catalog build": [], "end-to-end": []}
    for B in GOLDEN_FAN_BS:
        metrics = [[]] if len(B) == 3 and B[2][2] else [[], ["--metric", "random"]]
        for metric in metrics:
            i = len(docs["fan build"])
            docs["fan build"].append([["fan", "build", "--B", json.dumps(B), *metric,
                                       "--seed", str(rng.randrange(10 ** 6))], ""])
            docs["fan validate"].append([["fan", "validate", f"fan{i}.json"], ""])
            for _ in range(2):
                n_phi = [rng.randrange(-3, 4) for _ in B]
                docs["fan extends"].append([["fan", "extends", "--nphi", json.dumps(n_phi),
                                             f"fan{i}.json"], ""])
    docs["fan build"].append([["fan", "build", "--B", "[[2, 1], [1, 2]]", "--metric",
                               '[["2", "1/2"], ["1/2", "1"]]'], ""])
    docs["fan build"].append([["fan", "build", "--B", "[[0]]"], ""])
    for g in (1, 2):
        for skew in (False, True):
            basis = [[[float(i == j), 0.0] for i in range(g)] for j in range(g)]
            basis += [[[round(rng.uniform(-0.5, 0.5), 3) if skew else 0.0,
                        float(i == j) + (round(rng.uniform(-0.2, 0.2), 3) if skew else 0.0)]
                       for i in range(g)] for j in range(g)]
            for kind in ("uniform", "rational", "quadratic"):
                x = [rng.random() if kind == "uniform"
                     else rng.randrange(7) / rng.randrange(1, 8)
                     + (rng.choice((0, 1, -1)) * math.sqrt(2) if kind == "quadratic" else 0)
                     for _ in range(2 * g)]
                alpha = [[sum(x[j] * basis[j][i][k] for j in range(2 * g)) for k in (0, 1)]
                         for i in range(g)]
                docs["orbit analyze"].append([["orbit", "analyze", "--lattice", json.dumps(
                    {"g": g, "basis": basis}), "--alpha", json.dumps(alpha)], ""])
    docs["orbit analyze"].append([["orbit", "analyze", "--lattice", json.dumps(
        {"g": 1, "basis": [[[5e-324, 0]], [[0, 5e-324]]]}), "--alpha", "[[0.5, 0.5]]"], ""])
    for case in GOLDEN_CASES:
        g = int(case[0])
        opts = ["--case", case, "--d", str(rng.choice((2, 3, 5))),
                "--r", str(rng.randrange(g + 1))]
        docs["catalog build"].append([["catalog", "build", *opts], ""])
        docs["end-to-end"].append([["end-to-end", *opts], ""])
    return docs


# sha256, per command, of the argv, exit code, stdout and stderr of each
# document in order: every byte of the output, whitespace included.  The
# split digest follows the rule of GOLDEN_DIGESTS.
GOLDEN_STDOUT_DIGESTS = {
    "analyze": "62b415f17e3fa34f8c066a88fec420103d3542ca918e398a1dab6c25eb5d7ab5",
    "decide": "bc4cc3485b74b5006da0fe75509ba83d2e71b140ab1b22945775a70dd61822d7",
    "split": "6d8de385cc5503e20132c4de66ddaf50836035c5616d90ff9b98404e86e3ff6a",
    "fan build": "1cca989426a1750fbcb5bf40abaf9525aaf1cbefd436d62c0430f2ca4bad375e",
    "fan validate": "5bba0238f2d4ed889b5cc37a32f1cfcbad40e15bc41e54e80f1028a6d29e8f39",
    "fan extends": "0c464ab772861bdd79e4e2e1859de9f73a13950a71994b7e8f89689e09450123",
    "orbit analyze": "10928ed2818c00056969f2e1cf2f666da99fe94872c62340230dd7456bc40133",
    "catalog list": "68f42cea3de5cdf46e62692a38c2f90674d0612364dcf8790fac23d531e8a354",
    "catalog build": "8d67b69adbe91244a5ba180499c6d85689c58e64b2b156735bc90e9951209784",
    "end-to-end": "0f5af8d18ad350b1d0e78c6dd1bad1363da49937b5bf1c6493a29f5a213782a2"}


def _golden_stdout_digests():
    digests = {}
    for command, docs in _golden_documents().items():
        h = hashlib.sha256()
        for i, (argv, stdin) in enumerate(docs):
            out, err = io.StringIO(), io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            finally:
                sys.stdin = saved
            if command == "fan build" and code == 0:
                pathlib.Path(f"fan{i}.json").write_text(out.getvalue())
            h.update(json.dumps([argv, code]).encode() + b"\0" + out.getvalue().encode()
                     + b"\0" + err.getvalue().encode() + b"\0")
        digests[command] = h.hexdigest()
    return digests


def test_cli_golden_stdout(tmp_path, monkeypatch):
    """The full stdout and stderr of a seeded set of documents of every
    command, byte for byte, are those of the released program."""
    monkeypatch.chdir(tmp_path)
    assert _golden_stdout_digests() == GOLDEN_STDOUT_DIGESTS
