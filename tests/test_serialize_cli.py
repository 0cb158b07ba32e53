"""Wire-format round trips, the packaged schemas, and CLI behavior (exit
codes, reproducibility metadata, output documents against their schemas)."""

import importlib.resources
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest
import sympy
from jsonschema.validators import validator_for
from sympy.matrices.normalforms import invariant_factors

from abdyn import serialize
from abdyn.cli import main
from abdyn.errors import SchemaError
from abdyn.exactalg import IntMatrix, IntPolynomial
from abdyn.toroidal import delaunay_fan, nakamura_data

REPO = pathlib.Path(__file__).resolve().parents[1]


SCHEMA_NAMES = {"matrix", "polynomial", "semiabelian_aut", "family_descriptor",
                "verdict", "degree_profile", "fan", "lattice", "orbit_report",
                "split_report", "fan_validation", "fan_extension", "catalog_list"}


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
    assert (info.misses, info.hits) == (1, 1)


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
    assert serialize.poly_from_json(serialize.poly_to_json(p)) == p


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
    """Without ABDYN_LOG, an error reaches stderr once (no second copy from
    logging's last-resort handler)."""
    env = {k: v for k, v in os.environ.items() if k != "ABDYN_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "abdyn.cli", "analyze"],
                          input="not json", capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert sum(line.startswith("schema error:") for line in lines) == 1


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
    # B = I gives the cospherical square lattice, so the standard metric is
    # perturbed too; the default seed must fix both perturbations
    for extra in ([], ["--metric", "random"]):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(["fan", "build", "--B", "[[1,0],[0,1]]"]
                                   + extra, None, capsys, monkeypatch)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["options"]["seed"] == 0


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


def test_cli_fan_validate_indefinite_metric(tmp_path, capsys, monkeypatch):
    fan_file, fan = _built_fan("[[2,1],[1,2]]", tmp_path, capsys, monkeypatch)
    fan["metric"] = [["-1", "0"], ["0", "1"]]
    fan_file.write_text(json.dumps(fan))
    code, out, _ = run_cli(["fan", "validate", str(fan_file)], None, capsys, monkeypatch)
    doc = json.loads(out)["result"]
    assert code == 3 and doc["ok"] is False
    assert "metric is not positive definite" in doc["violations"]


def _drop_maximal_cone(fan):
    top = max(len(c) for c in fan["cones"])
    fan["cones"].remove(next(c for c in fan["cones"] if len(c) == top))


def _drop_metric(fan):
    del fan["metric"]  # the standard metric, cospherical at r' = 2


@pytest.mark.parametrize("edit, violation", [
    (_drop_maximal_cone, "maximal cones are not the Delaunay cells of the metric"),
    (_drop_metric, "metric has no Delaunay triangulation")])
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


def test_import_cli_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, abdyn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


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
