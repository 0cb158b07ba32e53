"""JSON wire-format helpers.

The JSON Schemas of the wire formats are the package data files
abdyn/schemas/<name>.schema.json; each is compiled on first use.
Conventions (shared by the CLI and those schemas):
  * integers are emitted as decimal strings (arbitrary precision); plain JSON
    integers are also accepted on input,
  * matrices are row-major arrays of arrays,
  * polynomials are ascending coefficient arrays,
  * complex numbers are [re, im] pairs,
  * rationals (fan metrics) are "p/q" strings.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import re
from fractions import Fraction

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .criteria import FamilyDescriptor
from .degrees import SemiAbelianAut
from .errors import SchemaError
from .exactalg import IntMatrix, IntPolynomial
from .orbit import NumericLattice
from .toroidal import Cone, Fan, GammaData


@functools.cache
def _validator(name):
    """The validator of schemas/<name>.schema.json, built once per process
    (the schema is checked against its draft's meta-schema here, once)."""
    path = importlib.resources.files("abdyn") / "schemas" / f"{name}.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_schema(obj, schema_name):
    """Validate a decoded JSON object against one of the named schemas;
    raises SchemaError with the validator's diagnostic (the error that
    jsonschema.validate would raise)."""
    error = best_match(_validator(schema_name).iter_errors(obj))
    if error is not None:
        raise SchemaError(f"payload does not match schema "
                          f"'{schema_name}': {error.message}") from error


def int_to_json(x):
    return str(int(x))


def int_from_json(obj):
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise SchemaError(f"expected an integer or decimal string, got {obj!r}")
    try:
        return int(obj)
    except ValueError as exc:
        raise SchemaError(f"bad integer literal {obj!r}") from exc


def matrix_to_json(M):
    return [[int_to_json(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def matrix_from_json(obj):
    validate_schema(obj, "matrix")
    rows = [[int_from_json(x) for x in row] for row in obj]
    if any(len(row) != len(rows[0]) for row in rows):
        raise SchemaError("ragged matrix rows")
    return IntMatrix.from_rows(rows)


def poly_to_json(p):
    return [int_to_json(c) for c in p.coeffs]


def poly_from_json(obj):
    validate_schema(obj, "polynomial")
    return IntPolynomial([int_from_json(c) for c in obj])


def vector_from_json(obj):
    if not isinstance(obj, list):
        raise SchemaError("expected a JSON array for a vector")
    return tuple(int_from_json(x) for x in obj)


def semiabelian_aut_to_json(aut):
    out = {"r": aut.r, "g": aut.g}
    if aut.u_T is not None:
        out["u_T"] = matrix_to_json(aut.u_T)
    if aut.u_A_rat is not None:
        out["u_A_rat"] = matrix_to_json(aut.u_A_rat)
    return out


def semiabelian_aut_from_json(obj):
    validate_schema(obj, "semiabelian_aut")
    u_T = matrix_from_json(obj["u_T"]) if "u_T" in obj else None
    u_A = matrix_from_json(obj["u_A_rat"]) if "u_A_rat" in obj else None
    return SemiAbelianAut(r=obj["r"], g=obj["g"], u_T=u_T, u_A_rat=u_A)


def family_descriptor_to_json(desc):
    return {"g": desc.g, "charpoly": poly_to_json(desc.charpoly),
            "r": desc.r, "k": desc.k, "finite_order": desc.finite_order}


def family_descriptor_from_json(obj):
    validate_schema(obj, "family_descriptor")
    return FamilyDescriptor(g=obj["g"],
                            charpoly=poly_from_json(obj["charpoly"]),
                            r=obj.get("r"), k=obj.get("k"),
                            finite_order=obj.get("finite_order", False))


def _frac_to_json(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rational_from_json(x):
    """An int, a finite float or a "p/q" string (q > 0), as a Fraction."""
    if isinstance(x, str) and _RATIONAL.fullmatch(x) \
            or isinstance(x, int) and not isinstance(x, bool) \
            or isinstance(x, float) and math.isfinite(x):
        return Fraction(x)
    raise SchemaError(f"expected an int, a finite float or a 'p/q' string, got {x!r}")


def metric_from_json(obj, r_prime):
    """A fan metric: an r' x r' array of rows of rationals, as Fraction rows
    (symmetry and positive definiteness are the fan builder's contract)."""
    if not isinstance(obj, list) or len(obj) != r_prime \
            or any(not isinstance(row, list) or len(row) != r_prime for row in obj):
        raise SchemaError(f"metric must be an r' x r' = {r_prime} x {r_prime} array of rows")
    return tuple(tuple(_rational_from_json(x) for x in row) for row in obj)


def fan_to_json(fan):
    """Fan file format: {gamma, rays, cones (ray-index lists), metric, seed}.
    Only maximal-dimension data is needed to reconstruct a simplicial fan,
    but every cone in the stored set is kept, encoded via its generators."""
    ray_index = {}
    rays = []
    cones = []
    for cone in fan.cones:
        idxs = []
        for gen in cone.generators:
            if gen not in ray_index:
                ray_index[gen] = len(rays)
                rays.append([int_to_json(x) for x in gen])
            idxs.append(ray_index[gen])
        cones.append(sorted(idxs))
    return {
        "gamma": {"g_prime": fan.gamma.g_prime,
                  "r_prime": fan.gamma.r_prime,
                  "Bprime": matrix_to_json(fan.gamma.Bprime)},
        "rays": rays,
        "cones": cones,
        "metric": [[_frac_to_json(x) for x in row] for row in fan.metric],
        "seed": fan.seed,
    }


def fan_from_json(obj):
    validate_schema(obj, "fan")
    g = obj["gamma"]
    gamma = GammaData(g_prime=g["g_prime"], r_prime=g["r_prime"],
                      Bprime=matrix_from_json(g["Bprime"]))
    rays = [tuple(int_from_json(x) for x in ray) for ray in obj["rays"]]
    if any(len(ray) != gamma.g + 1 for ray in rays):
        raise SchemaError(f"every ray must have g' + r' + 1 = {gamma.g + 1} coordinates")
    cones = []
    for idxs in obj["cones"]:
        if any(not 0 <= i < len(rays) for i in idxs):
            raise SchemaError("cone refers to a missing ray index")
        cones.append(Cone(tuple(rays[i] for i in idxs)))
    metric = obj.get("metric")
    if metric is None:  # the standard metric
        metric = [[int(i == j) for j in range(gamma.r_prime)] for i in range(gamma.r_prime)]
    return Fan(cones=tuple(cones), gamma=gamma,
               metric=metric_from_json(metric, gamma.r_prime), seed=obj.get("seed"))


def lattice_to_json(lat):
    out = {"g": lat.g,
           "basis": [[[z.real, z.imag] for z in v] for v in lat.basis]}
    if lat.polarization is not None:
        out["polarization"] = matrix_to_json(lat.polarization)
    return out


def lattice_from_json(obj):
    validate_schema(obj, "lattice")
    basis = tuple(tuple(complex(_finite_number(z[0]), _finite_number(z[1]))
                        for z in v) for v in obj["basis"])
    pol = obj.get("polarization")
    return NumericLattice(g=obj["g"], basis=basis,
                          polarization=None if pol is None
                          else matrix_from_json(pol))


def _finite_number(x):
    """A JSON number that a float holds finitely; bools, strings, the
    Infinity/NaN tokens and out-of-range integers are schema errors."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            if math.isfinite(x):
                return x
        except OverflowError:  # an integer beyond the float range
            pass
    raise SchemaError(f"expected a finite number, got {x!r}")


def complex_vector_from_json(obj):
    """An alpha vector: list of [re, im] pairs (or plain numbers)."""
    if not isinstance(obj, list):
        raise SchemaError("expected a JSON array for a complex vector")
    out = []
    for z in obj:
        if isinstance(z, list):
            if len(z) != 2:
                raise SchemaError("complex entries must be [re, im] pairs")
            out.append(complex(_finite_number(z[0]), _finite_number(z[1])))
        else:
            out.append(complex(_finite_number(z)))
    return tuple(out)


def load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
