"""JSON wire-format helpers.

The JSON Schemas of the wire formats are the package data files
abdyn/schemas/<name>.schema.json, which name each other by `$ref` rather
than copy; on first use each is compiled by `_compile` into nested closures
that check a payload with the semantics of JSON Schema draft 2020-12 (the
schemas are checked against the draft's meta-schema, and the closures
against the jsonschema package, in the tests).
Every JSON value the CLI reads is checked once, against its own schema,
and then converted by plain int, Fraction and complex calls; load_json
refuses non-finite numbers.
Conventions (shared by the CLI and those schemas):
  * integers (schema `integer`) are emitted as decimal strings (arbitrary
    precision); plain JSON integers are also accepted on input,
  * matrices are row-major arrays of arrays,
  * polynomials are ascending coefficient arrays,
  * complex numbers are [re, im] pairs,
  * rationals (fan metrics, schema `metric`) are emitted as "p/q" strings
    and read from numbers or "p/q" strings (q > 0).
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import re
from fractions import Fraction

from .criteria import FamilyDescriptor
from .degrees import SemiAbelianAut
from .errors import AbdynError, ContractError, SchemaError
from .exactalg import INT_BOUND, MAX_INT_DIGITS, IntMatrix, IntPolynomial
from .orbit import NumericLattice
from .toroidal import MAX_R_PRIME, Fan, GammaData, face_set, fan_of_faces


def _is_number(x):  # a bool is True or False, so "is" tests are enough
    return isinstance(x, (int, float)) and x is not True and x is not False


# The JSON types as the draft defines them on decoded JSON values: a bool is
# neither an integer nor a number, and an integral float is an integer.
_TYPES = {
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and x is not True and x is not False
    or isinstance(x, float) and x.is_integer(),
    "number": _is_number,
    "string": lambda x: isinstance(x, str),
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
}

# Every keyword the packaged schemas use; `_compile` refuses any other.
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
             "minItems", "maxItems", "minimum", "pattern", "anyOf", "enum",
             "$ref", "$defs", "$id", "title"}


def _compile(schema, root):
    """(check, test) for one schema node, built in one walk.  test(x) is
    True when x is valid: the keywords' tests joined by `and`, an array's
    items tested by all(map(...)).  check(x) is None when x is valid, else
    a list [keyword, its schema value, the bad value, key_n, ..., key_1]:
    the first keyword whose test fails and the path to the value it failed
    on, innermost key first, found by following the failing tests down.
    `root` is the schema resource (the innermost node with an `$id`) that
    "#/..." `$ref`s point into; any other `$ref` names another packaged
    schema ("matrix" from "abdyn/fan" is "abdyn/matrix") and is checked by
    its compiled pair, `_validator(name)`.  Anything `_compile` does not
    implement (a keyword outside `_KEYWORDS`, a type given as a list, an
    enum of arrays or objects, a `$ref` that is neither a local JSON pointer
    nor a packaged schema) raises ValueError here."""
    if not isinstance(schema, dict):
        raise ValueError(f"unsupported schema {schema!r}: not an object")
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"unsupported schema keyword(s) {sorted(unknown)}")
    if "$id" in schema:
        root = schema
    parts = []  # (test, explain) of each keyword; explain(x) runs when test(x) fails
    name = schema.get("type")
    if "type" in schema:
        pred = _TYPES.get(name) if isinstance(name, str) else None
        if pred is None:
            raise ValueError(f"unsupported type {name!r}")
        parts.append((pred, lambda x: ["type", name, x]))
    # the test of an object, array or string keyword passes other values,
    # unless the type is its kind: then the fast test needs no type test
    kind = {"object": dict, "array": list, "string": str}.get(name)
    kinds = set()  # the kinds that have a keyword here

    props = {k: _compile(v, root) for k, v in schema.get("properties", {}).items()}
    required = schema.get("required", ())
    extra = schema.get("additionalProperties", True)
    if props or required or extra is not True:
        extra_check, extra_test = _compile(extra, root) if isinstance(extra, dict) \
            else (None, lambda value: extra)
        sub_tests = {k: test for k, (_, test) in props.items()}

        def explain_object(x):
            missing = [key for key in required if key not in x]
            if missing:
                return ["required", missing[0], x]
            key, value = next((k, v) for k, v in x.items()
                              if not sub_tests.get(k, extra_test)(v))
            sub = props[key][0] if key in props else extra_check
            return ["additionalProperties", key, x] if sub is None else sub(value) + [key]
        kinds.add(dict)
        parts.append((lambda x: all(map(x.__contains__, required)) and all(
            sub_tests.get(k, extra_test)(v) for k, v in x.items())
            if isinstance(x, dict) else kind is not dict, explain_object))

    items, items_test = _compile(schema["items"], root) if "items" in schema else (None, None)
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    if items or lo or hi < math.inf:
        def explain_array(x):
            if not lo <= len(x) <= hi:
                return ["minItems", lo, x] if len(x) < lo else ["maxItems", hi, x]
            i = next(i for i, value in enumerate(x) if not items_test(value))
            return items(x[i]) + [i]
        kinds.add(list)
        parts.append((lambda x: lo <= len(x) <= hi and (items is None or all(map(items_test, x)))
                      if isinstance(x, list) else kind is not list, explain_array))

    if "minimum" in schema:
        minimum = schema["minimum"]
        parts.append((lambda x: not _is_number(x) or x >= minimum,
                      lambda x: ["minimum", minimum, x]))

    if "pattern" in schema:
        pattern = schema["pattern"]
        search = re.compile(pattern).search  # so "$" also matches before a final "\n"
        kinds.add(str)
        parts.append((lambda x: search(x) is not None if isinstance(x, str) else kind is not str,
                      lambda x: ["pattern", pattern, x]))

    if "enum" in schema:
        values = schema["enum"]
        if any(isinstance(v, (list, dict)) for v in values):
            raise ValueError(f"unsupported enum {values!r}: arrays or objects")
        # True is not 1, but 1 is 1.0
        parts.append((lambda x: any(x == v and isinstance(x, bool) == isinstance(v, bool)
                                    for v in values), lambda x: ["enum", values, x]))

    if "anyOf" in schema:
        branches = [_compile(sub, root) for sub in schema["anyOf"]]

        def explain_any_of(x):
            # name the one branch whose type fits x, if there is just one
            fitting = [e for e in (check(x) for check, _ in branches)
                       if len(e) > 3 or e[0] != "type"]
            return fitting[0] if len(fitting) == 1 else ["anyOf", None, x]
        parts.append((functools.reduce(lambda a, b: lambda x: a(x) or b(x),
                                       [test for _, test in branches]), explain_any_of))

    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#"):  # another packaged schema, by its name
            try:
                ref_check, ref_test = _validator(ref)
            except OSError:  # no schema file of that name
                raise ValueError(f"unsupported $ref {ref!r}: no packaged schema "
                                 f"of that name") from None
        else:
            target = root
            try:
                if not ref.startswith("#/"):
                    raise KeyError(ref)
                for part in ref[2:].split("/"):
                    target = target[part.replace("~1", "/").replace("~0", "~")]
            except (KeyError, TypeError):
                raise ValueError(f"unsupported $ref {ref!r}: not a local JSON pointer "
                                 f"into the schema") from None
            ref_check, ref_test = _compile(target, root)
        parts.append((ref_test, ref_check))

    def check(x):
        for test, explain in parts:
            if not test(x):
                return explain(x)
    tests = [test for test, _ in parts]
    if kind in kinds:  # the type's own test, the first, is part of its kind's
        del tests[0]
    return check, functools.reduce(lambda a, b: lambda x: a(x) and b(x),
                                   tests or [lambda x: True])


_MESSAGES = {
    "type": "{value} is not of type {detail}",
    "required": "{detail} is a required property",
    "additionalProperties": "additional property {detail} is not allowed",
    "minItems": "{value} has fewer than {detail} items",
    "maxItems": "{value} has more than {detail} items",
    "minimum": "{value} is less than the minimum of {detail}",
    "pattern": "{value} does not match {detail}",
    "enum": "{value} is not one of {detail}",
    "anyOf": "{value} is not valid under any of the given schemas",
}


def _describe(error):
    """The text "$.json.path: message" of an error list of a compiled check."""
    keyword, detail, value, *keys = error
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(keys))
    value = repr(value)
    if len(value) > 60:
        value = value[:57] + "..."
    return f"${path}: " + _MESSAGES[keyword].format(value=value, detail=repr(detail))


@functools.cache
def _validator(name):
    """The compiled (check, test) of schemas/<name>.schema.json, built once
    per process."""
    path = importlib.resources.files("abdyn") / "schemas" / f"{name}.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    return _compile(schema, schema)


def validate_schema(obj, schema_name, path=()):
    """Validate a decoded JSON object against one of the named schemas;
    raises SchemaError naming the JSON path of the first bad value, from
    the root of a document in which obj sits at the keys path.  The fast
    test runs first, and the check that explains a fault only when it
    fails."""
    check, test = _validator(schema_name)
    if not test(obj):
        raise SchemaError(f"payload does not match schema "
                          f"'{schema_name}': {_describe(check(obj) + list(reversed(path)))}")


def int_to_json(x):
    """x as a decimal string; ContractError when it has more digits than
    the integer schema admits (MAX_INT_DIGITS), which str would refuse on
    Python 3.11 and later."""
    x = int(x)
    if abs(x) >= INT_BOUND:
        raise ContractError(f"an output integer has more than {MAX_INT_DIGITS} digits")
    return str(x)


def matrix_to_json(M):
    return [[int_to_json(M[i, j]) for j in range(M.cols)] for i in range(M.rows)]


def matrix_from_json(obj):
    validate_schema(obj, "matrix")
    return _matrix(obj)


def _matrix(obj):
    """An IntMatrix from rows that passed the matrix schema (as a payload of
    its own or as a block of a larger one)."""
    if any(len(row) != len(obj[0]) for row in obj):
        raise SchemaError("ragged matrix rows")
    return IntMatrix._of(len(obj), len(obj[0]), [int(x) for row in obj for x in row])


def poly_to_json(p):
    return [int_to_json(c) for c in p.coeffs]


def nphi_from_json(obj):
    """Vanishing orders n_phi (the `nphi` schema) as a tuple of ints."""
    validate_schema(obj, "nphi")
    return tuple(map(int, obj))


def semiabelian_aut_to_json(aut):
    out = {"r": aut.r, "g": aut.g}
    if aut.u_T is not None:
        out["u_T"] = matrix_to_json(aut.u_T)
    if aut.u_A_rat is not None:
        out["u_A_rat"] = matrix_to_json(aut.u_A_rat)
    return out


def semiabelian_aut_from_json(obj):
    validate_schema(obj, "semiabelian_aut")
    u_T = _matrix(obj["u_T"]) if "u_T" in obj else None
    u_A = _matrix(obj["u_A_rat"]) if "u_A_rat" in obj else None
    return SemiAbelianAut(r=int(obj["r"]), g=int(obj["g"]), u_T=u_T, u_A_rat=u_A)


def family_descriptor_to_json(desc):
    return {"g": desc.g, "charpoly": poly_to_json(desc.charpoly),
            "r": desc.r, "k": desc.k, "finite_order": desc.finite_order}


def family_descriptor_from_json(obj):
    validate_schema(obj, "family_descriptor")
    r, k = obj.get("r"), obj.get("k")
    return FamilyDescriptor(g=int(obj["g"]),
                            charpoly=IntPolynomial(list(map(int, obj["charpoly"]))),
                            r=None if r is None else int(r), k=None if k is None else int(k),
                            finite_order=obj.get("finite_order", False))


def _frac_to_json(x):
    """An int or Fraction as "p" or "p/q"."""
    p = int_to_json(x.numerator)
    return p if x.denominator == 1 else f"{p}/{int_to_json(x.denominator)}"


def metric_from_json(obj, r_prime):
    """A fan metric (the `metric` schema) as r' x r' Fraction rows (symmetry
    and positive definiteness are the fan builder's contract)."""
    validate_schema(obj, "metric")
    return _metric(obj, r_prime)


def _metric(obj, r_prime):
    """The Fraction rows of rows that passed the metric schema (as a payload
    of its own or as the metric of a fan file), which must be r' x r'."""
    if len(obj) != r_prime or any(len(row) != r_prime for row in obj):
        raise SchemaError(f"metric must be an r' x r' = {r_prime} x {r_prime} array of rows")
    return tuple(tuple(map(_rational, row)) for row in obj)


def _rational(x):
    """The Fraction of a metric entry: a number, or a "p/q" or "p" string,
    which is split here (Fraction's own parser takes twice as long)."""
    if isinstance(x, str):
        p, _, q = x.partition("/")
        return Fraction(int(p), int(q or 1))
    return Fraction(x)


def fan_to_json(fan):
    """Fan file format: {gamma, rays, cones (ray-index lists), metric, seed}.
    Only maximal-dimension data is needed to reconstruct a simplicial fan,
    but every cone in the stored set is kept, encoded via its generators."""
    ray_index = {}
    rays = []
    cones = []
    for cone in fan.cones:
        idxs = []
        for gen in cone:
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


def fan_from_json(obj, path=(), gamma=None):
    """The Fan of a fan file (the `fan` schema); path is where obj sits in
    its file, for a schema error's JSON path, and gamma the GammaData of its
    `gamma` if built_fan has built it.  After the schema, each part is
    converted and checked in one pass, so the first fault is reported:
    ragged Bprime rows, the GammaData checks, the ray lengths, then cone by
    cone in file order an index out of range or two equal generators, and
    last the metric's shape."""
    validate_schema(obj, "fan", path)
    if gamma is None:
        g = obj["gamma"]
        gamma = GammaData(g_prime=int(g["g_prime"]), r_prime=int(g["r_prime"]),
                          Bprime=_matrix(g["Bprime"]))
    rays = [tuple(map(int, ray)) for ray in obj["rays"]]
    if any(map((gamma.g + 1).__ne__, map(len, rays))):
        raise SchemaError(f"every ray must have g' + r' + 1 = {gamma.g + 1} coordinates")
    cones, ray = [], rays.__getitem__
    for idxs in obj["cones"]:
        if idxs and (min(idxs) < 0 or max(idxs) >= len(rays)):
            raise SchemaError("cone refers to a missing ray index")
        gens = tuple(sorted(map(ray, map(int, idxs))))  # the schema's integers admit 1.0
        if len(set(gens)) != len(gens):
            raise ContractError("duplicate cone generators")
        cones.append(gens)
    metric = obj.get("metric")
    if metric is None:  # the standard metric
        metric = [[int(i == j) for j in range(gamma.r_prime)] for i in range(gamma.r_prime)]
    return Fan(cones=tuple(cones), gamma=gamma,
               metric=_metric(metric, gamma.r_prime), seed=obj.get("seed"))


def built_fan(obj):
    """The fast test of a fan file obj: (fan, faces, gamma).  gamma is the
    GammaData of its `gamma` as fan_from_json reads it, and faces face_set
    of gamma and its metric (either None if it cannot be built, if r' >
    MAX_R_PRIME, or for faces if the first ray is not g' + r' + 1 long);
    fan is the Fan when obj is exactly its fan_to_json, ints typed as the
    schema."""
    faces = gamma = None
    try:
        g = obj["gamma"]
        if int(g["r_prime"]) > MAX_R_PRIME:
            return None, None, None
        gamma = GammaData(int(g["g_prime"]), int(g["r_prime"]), _matrix(g["Bprime"]))
        Q = _metric(obj["metric"], gamma.r_prime)
        if len(obj["rays"][0]) != gamma.g + 1:
            return None, None, gamma
        faces, seed = face_set(gamma, Q), obj.get("seed")
        if (isinstance(faces, set) and type(g["g_prime"]) is type(g["r_prime"]) is int
                and (seed is None or type(seed) is int)):
            fan = fan_of_faces(faces, gamma, Q, seed)
            if fan_to_json(fan) == obj and {type(i) for c in obj["cones"] for i in c} <= {int}:
                return fan, faces, gamma
    except (AbdynError, ArithmeticError, LookupError, TypeError, ValueError):
        pass  # a shape, or an output integer, that the full path refuses and names
    return None, faces, gamma


def lattice_to_json(lat):
    out = {"g": lat.g,
           "basis": [[[z.real, z.imag] for z in v] for v in lat.basis]}
    if lat.polarization is not None:
        out["polarization"] = matrix_to_json(lat.polarization)
    return out


def lattice_from_json(obj):
    validate_schema(obj, "lattice")
    basis = tuple(tuple(complex(_float(x), _float(y)) for x, y in v)
                  for v in obj["basis"])
    pol = obj.get("polarization")
    return NumericLattice(g=int(obj["g"]), basis=basis,
                          polarization=None if pol is None
                          else _matrix(pol))


def _float(x):
    """float(x) of a JSON number; an integer too large for a float is a
    SchemaError."""
    try:
        return float(x)
    except OverflowError:
        raise SchemaError(f"expected a finite number, got {x!r}") from None


def alpha_from_json(obj, g):
    """A translation alpha (the `alpha` schema) as g complex numbers: each
    entry is an [re, im] pair or a real number."""
    validate_schema(obj, "alpha")
    if len(obj) != g:
        raise SchemaError(f"alpha must have g = {g} entries, got {len(obj)}")
    return tuple(complex(_float(z[0]), _float(z[1])) if isinstance(z, list)
                 else complex(_float(z)) for z in obj)


def _finite_float(token):
    """The float of a JSON number token; json passes its NaN and Infinity
    tokens here too, which are refused with the literals beyond the float
    range, such as 1e400."""
    x = float(token)
    if not math.isfinite(x):
        raise SchemaError(f"non-finite number {token}")
    return x


_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def load_json(text):
    """The JSON value of text, in which every number is finite."""
    try:  # json.loads would build a decoder per call; it refuses a leading BOM
        return json.loads(text) if text.startswith("\ufeff") else _DECODER.decode(text)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:  # also an integer past int's digit limit
        raise SchemaError(f"malformed JSON: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder of json


def _scalar_text(x):
    """The JSON text of a str, None, bool, int or float as json writes it
    (with its NaN and Infinity spellings); None for any other value."""
    if isinstance(x, str):
        return _encode_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        return "-Infinity" if x == -math.inf else float.__repr__(x)
    return None


def _key_text(key):
    """A dict key as json writes it: a str, or the quoted text of another
    scalar (none of those texts needs an escape)."""
    if isinstance(key, str):
        return _encode_str(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return f'"{text}"'


# depth d -> the strings that open a list and a dict, separate items, and
# close a list and a dict at depth d, each with its newline and indent
_PIECES = {}


def _write(obj, depth, out):
    """Append the pieces of the JSON text of obj to out; depth is obj's
    nesting depth, whose strings _PIECES holds from the first call at it.
    An item of a container that is exactly a str, an int or a finite float
    is written in the loop, with no call; any other scalar goes through
    _scalar_text."""
    if depth not in _PIECES:
        line, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        _PIECES[depth] = ("[" + inner, "{" + inner, "," + inner, line + "]", line + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep, _, comma, close, _ = _PIECES[depth]
        inner = depth + 1
        for item in obj:
            out.append(sep)
            sep = comma
            kind = type(item)
            if kind is str:
                out.append(_encode_str(item))
            elif kind is int or kind is float and item - item == 0:
                out.append(kind.__repr__(item))
            else:
                _write(item, inner, out)
        out.append(close)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        _, sep, comma, _, close = _PIECES[depth]
        inner = depth + 1
        for key, item in sorted(obj.items()):
            out.append(sep + _key_text(key) + ": ")
            sep = comma
            kind = type(item)
            if kind is str:
                out.append(_encode_str(item))
            elif kind is int or kind is float and item - item == 0:
                out.append(kind.__repr__(item))
            else:
                _write(item, inner, out)
        out.append(close)
    else:
        text = _scalar_text(obj)
        if text is None:
            raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
        out.append(text)


def dump_json(obj):
    """The bytes of json.dumps(obj, indent=2, sort_keys=True) plus a newline,
    written directly: json's indented output never runs its C encoder."""
    out = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)
