"""Command-line interface.

Single binary with subcommands (analyze, decide, split, fan, orbit, catalog,
end-to-end); JSON payloads on stdin or via --in, results on stdout or --out.
Every output embeds the inputs, tolerances, heights, and seeds needed to
reproduce it.  The argv is read against one command table, COMMANDS.  Exit
codes: 0 success (also -h/--help and --version), 2 usage error (an argv that
does not fit the table) or schema error (also a file that cannot be read or
written), 3 contract error, 4 numeric indeterminacy; every error is one
stderr line.
"""

from __future__ import annotations

import sys
import types
from fractions import Fraction

from . import __version__, serialize
from .catalog import build_case_matrices, classification_cases, moduli_dim_formula
from .criteria import (FamilyDescriptor, decide_regularizable,
                       growth_exponent_k, split_invariant_subfamily)
from .degrees import SemiAbelianAut, semiabelian_degrees
from .errors import (AbdynError, ContractError, NumericIndeterminacyError,
                     SchemaError)
from .exactalg import IntMatrix, char_poly_split
from .orbit import orbit_dims
from .serialize import (dump_json, fan_from_json, fan_to_json,
                        family_descriptor_from_json, family_descriptor_to_json,
                        lattice_from_json, load_json, matrix_from_json,
                        matrix_to_json, poly_to_json, semiabelian_aut_from_json,
                        semiabelian_aut_to_json, vector_from_json)
from .toroidal import (central_fiber_combinatorics, delaunay_fan,
                       nakamura_data, section_extends, translation_regularizable,
                       validate_fan)


def _read_file(path):
    """The text of the file at path; a file that cannot be opened or decoded
    is a SchemaError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read {path}: {exc.reason}") from exc


def _read_payload(args):
    if getattr(args, "infile", None):
        return load_json(_read_file(args.infile))
    return load_json(sys.stdin.read())


def _emit(args, doc):
    text = dump_json(doc)
    if getattr(args, "outfile", None):
        try:
            with open(args.outfile, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {args.outfile}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _inline_json(value):
    """Inline JSON argument; an @path prefix reads the file instead."""
    if value.startswith("@"):
        return load_json(_read_file(value[1:]))
    return load_json(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    payload = _read_payload(args)
    if isinstance(payload, list):
        # bare matrix: a torus automorphism
        M = matrix_from_json(payload)
        aut = SemiAbelianAut(r=M.rows, g=0, u_T=M)
        echo = {"matrix": payload, "interpreted_as": "torus"}
    else:
        aut = semiabelian_aut_from_json(payload)
        echo = {"semiabelian_aut": semiabelian_aut_to_json(aut)}
    profile = semiabelian_degrees(aut, tol=args.tol)
    parts = {name: {"charpoly": poly_to_json(cp),
                    "cyclotomic_part": poly_to_json(P),
                    "cyclotomic_free_part": poly_to_json(Q),
                    "roots_of_unity_only": Q.is_one()}
             for name, M in (("u_T", aut.u_T), ("u_A_rat", aut.u_A_rat)) if M is not None
             for cp, P, Q, _ in (char_poly_split(M),)}
    result = {"degrees": profile.to_json_dict(), "parts": parts}
    _emit(args, {"command": "analyze", "input": echo,
                 "options": {"tol": args.tol},
                 "result": result})


def cmd_decide(args):
    payload = _read_payload(args)
    desc = family_descriptor_from_json(payload)
    verdict = decide_regularizable(desc)
    _emit(args, {"command": "decide",
                 "input": family_descriptor_to_json(desc),
                 "options": {},
                 "result": verdict.to_json_dict()})


def cmd_split(args):
    payload = _read_payload(args)
    u = matrix_from_json(payload)
    L0, L1, index, P, Q = split_invariant_subfamily(u)
    result = {
        "cyclotomic_lattice": {
            "basis": [list(map(str, v)) for v in L0.basis],
            "charpoly": poly_to_json(P)},
        "cyclotomic_free_lattice": {
            "basis": [list(map(str, v)) for v in L1.basis],
            "charpoly": poly_to_json(Q)},
        "index": str(index),
    }
    _emit(args, {"command": "split", "input": {"matrix": payload},
                 "options": {}, "result": result})


def _random_metric(r_prime, seed):
    """Seeded random positive definite rational metric: Q = A^T A + I with
    small integer A."""
    import random
    rng = random.Random(seed)
    A = [[rng.randint(-2, 2) for _ in range(r_prime)] for _ in range(r_prime)]
    Q = [[Fraction(sum(A[k][i] * A[k][j] for k in range(r_prime))
                   + (1 if i == j else 0))
          for j in range(r_prime)] for i in range(r_prime)]
    return Q


def cmd_fan_build(args):
    B = matrix_from_json(_inline_json(args.B))
    g = B.rows
    # assemble the normalized unipotent monodromy [[I, B], [0, I]]
    rows = []
    for i in range(g):
        rows.append([1 if j == i else 0 for j in range(g)] + list(B.row(i)))
    for i in range(g):
        rows.append([0] * g + [1 if j == i else 0 for j in range(g)])
    M = IntMatrix.from_rows(rows)
    gamma = nakamura_data(M)
    if args.metric == "random":
        metric = _random_metric(gamma.r_prime, args.seed)
        metric_echo = "random"
    elif args.metric in (None, "standard", "identity"):
        metric = "standard"
        metric_echo = "standard"
    else:
        metric_echo = _inline_json(args.metric)
        metric = serialize.metric_from_json(metric_echo, gamma.r_prime)
    fan = delaunay_fan(gamma, metric=metric, seed=args.seed)
    _emit(args, {"command": "fan build",
                 "input": {"B": matrix_to_json(B), "metric": metric_echo},
                 "options": {"seed": args.seed},
                 "result": fan_to_json(fan)})


def _load_fan_file(path):
    doc = load_json(_read_file(path))
    # accept either a bare fan file or a `fan build` output wrapper
    if isinstance(doc, dict) and "result" in doc and "gamma" not in doc:
        doc = doc["result"]
    return fan_from_json(doc)


def cmd_fan_validate(args):
    fan = _load_fan_file(args.file)
    report = validate_fan(fan)
    n_vertices, n_max_cells = central_fiber_combinatorics(fan)
    _emit(args, {"command": "fan validate", "input": {"file": args.file},
                 "options": {},
                 "result": {"ok": report.ok,
                            "violations": list(report.violations),
                            "non_regular": list(report.non_regular),
                            "central_fiber": {"vertices": n_vertices,
                                              "maximal_cells": n_max_cells}}})
    return 0 if report.ok else 3


def cmd_fan_extends(args):
    fan = _load_fan_file(args.file)
    n_phi = vector_from_json(_inline_json(args.nphi))
    extends = section_extends(n_phi, fan)
    res, diag = translation_regularizable(n_phi, fan.gamma)
    N, beta = res if res is not None else (None, None)
    _emit(args, {"command": "fan extends",
                 "input": {"file": args.file, "n_phi": list(n_phi)},
                 "options": {},
                 "result": {"extends": extends,
                            "regularizing_power": N,
                            "beta": list(beta) if beta is not None else None,
                            "diagnostic": diag}})


def cmd_orbit_analyze(args):
    lattice = lattice_from_json(_inline_json(args.lattice))
    alpha = serialize.complex_vector_from_json(_inline_json(args.alpha))
    if len(alpha) != lattice.g:
        raise SchemaError(f"alpha must have g = {lattice.g} entries, got {len(alpha)}")
    report = orbit_dims(lattice, alpha, height_bound=args.height, tol=args.tol)
    _emit(args, {"command": "orbit analyze",
                 "input": {"lattice": serialize.lattice_to_json(lattice),
                           "alpha": [[z.real, z.imag] for z in alpha]},
                 "options": {"height": args.height, "tol": args.tol},
                 "result": report.to_json_dict()})


def cmd_catalog_list(args):
    cases = classification_cases(args.g)
    result = [{"case": c.id, "g": c.g, "albert_type": c.albert_type,
               "parameters": c.parameters, "description": c.description,
               "m": c.m, "m_formula": moduli_dim_formula(c)} for c in cases]
    _emit(args, {"command": "catalog list", "input": {"g": args.g},
                 "options": {}, "result": result})


def _catalog_bundle(case_id, d, r):
    """The case's matrices and family descriptor."""
    data = build_case_matrices(case_id, d=d)
    auto = data["automorphism"]
    k = growth_exponent_k(auto) if data["cyclotomic_free_part"].is_one() else None
    desc = FamilyDescriptor(g=auto.rows // 2, charpoly=data["charpoly"], r=r, k=k)
    return data, desc


def cmd_catalog_build(args):
    data, desc = _catalog_bundle(args.case, args.d, args.r)
    result = {
        "case": data["case"], "label": data["label"],
        "automorphism": matrix_to_json(data["automorphism"]),
        "charpoly": poly_to_json(data["charpoly"]),
        "cyclotomic_part": poly_to_json(data["cyclotomic_part"]),
        "cyclotomic_free_part": poly_to_json(data["cyclotomic_free_part"]),
        "is_cyclotomic_free": data["is_cyclotomic_free"],
        "family_descriptor": family_descriptor_to_json(desc),
    }
    _emit(args, {"command": "catalog build",
                 "input": {"case": args.case, "d": args.d, "r": args.r},
                 "options": {}, "result": result})


def cmd_end_to_end(args):
    data, desc = _catalog_bundle(args.case, args.d, args.r)
    auto = data["automorphism"]
    g = auto.rows // 2
    aut = SemiAbelianAut(r=0, g=g, u_A_rat=auto)
    profile = semiabelian_degrees(aut, tol=args.tol)
    verdict = decide_regularizable(desc)
    case_meta = next((c for c in classification_cases(int(args.case.split(".")[0]))
                      if c.id == args.case), None)
    bundle = {
        "case": data["case"], "label": data["label"],
        "m": case_meta.m if case_meta else None,
        "automorphism": matrix_to_json(auto),
        "charpoly": poly_to_json(data["charpoly"]),
        "is_cyclotomic_free": data["is_cyclotomic_free"],
        "family_descriptor": family_descriptor_to_json(desc),
        "degrees": profile.to_json_dict(),
        "verdict": verdict.to_json_dict(),
    }
    _emit(args, {"command": "end-to-end",
                 "input": {"case": args.case, "d": args.d, "r": args.r},
                 "options": {"tol": args.tol},
                 "result": bundle})


# ---------------------------------------------------------------------------
# command table and argv reader
# ---------------------------------------------------------------------------

def _flag(dest, kind=str, default=None, required=False, meta=None, help=""):
    """(dest, type, default, required, metavar, help); kind reads the token."""
    return dest, kind, default, required, meta or (
        "JSON" if kind is str else kind.__name__.upper()), help


_IN = {"--in": _flag("infile", meta="FILE", help="read the JSON payload (default stdin)")}
_OUT = {"--out": _flag("outfile", meta="FILE", help="write the JSON result (default stdout)")}
_CASE = {"--case": _flag("case", required=True, meta="ID", help="catalog case id, e.g. 2.2"),
         "--d": _flag("d", int, 2, help="real quadratic field discriminant parameter (default 2)"),
         "--r": _flag("r", int, help="torus rank of the degeneration (optional)")}
_TOL = "positive finite tolerance (default {})"

# words -> (handler, flags, positionals, help).  Flags are matched whole (no
# prefix abbreviations); a positional is a dest.
COMMANDS = {
    ("analyze",): (cmd_analyze, {**_IN, **_OUT, "--tol": _flag(
        "tol", float, 1e-9, help=_TOL.format("1e-9"))}, (),
        "charpoly, cyclotomic split, and degree profile of an automorphism"),
    ("decide",): (cmd_decide, {**_IN, **_OUT}, (),
                  "regularizability verdict for a family descriptor"),
    ("split",): (cmd_split, {**_IN, **_OUT}, (),
                 "cyclotomic/cyclotomic-free invariant lattice splitting of a matrix"),
    ("fan", "build"): (cmd_fan_build, {
        "--B": _flag("B", required=True, help="symmetric PSD integer matrix (JSON or @file)"),
        "--metric": _flag("metric", meta="JSON|random", help="positive definite r' x r' metric "
                          "(rows of ints, finite floats or 'p/q' strings), or 'random'"),
        "--seed": _flag("seed", int, 0, help="seed of the metric perturbations (default 0)"),
        **_OUT}, (), "build a Delaunay fan from a monodromy translation matrix B"),
    ("fan", "validate"): (cmd_fan_validate, _OUT, ("file",), "validate a fan file"),
    ("fan", "extends"): (cmd_fan_extends, {
        "--nphi": _flag("nphi", required=True, help="vanishing orders (JSON or @file)"),
        **_OUT}, ("file",), "does a section with the given vanishing orders extend?"),
    ("orbit", "analyze"): (cmd_orbit_analyze, {
        "--lattice": _flag("lattice", required=True, help="period lattice (JSON or @file)"),
        "--alpha": _flag("alpha", required=True, help="translation: g [re, im] pairs"),
        "--height": _flag("height", int, 50, help="integer-relation search bound (default 50)"),
        "--tol": _flag("tol", float, 1e-10, help=_TOL.format("1e-10")), **_OUT}, (),
        "translation orbit-closure analysis"),
    ("catalog", "list"): (cmd_catalog_list, {
        "--g": _flag("g", int, required=True, help="dimension"), **_OUT}, (),
        "classification cases of positive-entropy examples in dimension g"),
    ("catalog", "build"): (cmd_catalog_build, {**_CASE, **_OUT}, (),
                           "matrix model and family descriptor of a catalog case"),
    ("end-to-end",): (cmd_end_to_end, {**_CASE, "--tol": _flag(
        "tol", float, 1e-9, help=_TOL.format("1e-9")), **_OUT}, (),
        "catalog -> degrees -> verdict bundle"),
}


def build_parser():
    """The command table, COMMANDS; the argv reader needs nothing built."""
    return COMMANDS


class UsageError(Exception):
    """An argv that does not fit the command table (exit 2)."""


def _help(words):
    """Help of one command (its flags), or of the commands under words."""
    if words in COMMANDS:
        _, flags, positionals, text = COMMANDS[words]
        usage = [f"{f} {spec[4]}" if spec[3] else f"[{f} {spec[4]}]"
                 for f, spec in flags.items()] + [p.upper() for p in positionals]
        return "\n".join([f"usage: abdyn {' '.join(words + tuple(usage))}", text]
                         + [f"  {f + ' ' + spec[4]:20} {spec[5]}" for f, spec in flags.items()])
    return "\n".join([f"usage: {' '.join(('abdyn',) + words)} COMMAND [FLAGS]"
                      + ("" if words else " | --version"), "commands:"]
                     + [f"  {' '.join(w):16} {c[3]}" for w, c in COMMANDS.items()
                        if w[:len(words)] == words])


def _no_command(argv):
    """The help or version text that argv asks for before it names a whole
    command; else a UsageError naming the words that could come next."""
    words = ()
    for tok in argv + [None]:
        if tok in ("-h", "--help"):
            return _help(words)
        if tok == "--version" and not words:
            return __version__
        nxt = list(dict.fromkeys(w[len(words)] for w in COMMANDS if w[:len(words)] == words))
        if tok not in nxt:
            raise UsageError(f"{' '.join(words) or 'abdyn'}: expected one of {', '.join(nxt)}, "
                             f"got {'nothing' if tok is None else repr(tok)}")
        words += (tok,)


def _parse(argv):
    """(handler, args) for argv, or (None, text) for -h/--help and --version.
    The token after a flag is its value, whatever it looks like; --flag=value
    works too.  Raises UsageError."""
    words = next((tuple(argv[:n]) for n in (1, 2) if tuple(argv[:n]) in COMMANDS), None)
    if words is None:
        return None, _no_command(argv)
    handler, flags, positionals, _ = COMMANDS[words]
    name, values, pos = " ".join(words), {}, []
    rest = iter(argv[len(words):])
    for tok in rest:
        if tok[:1] != "-" or tok == "-":
            pos.append(tok)
        elif tok == "--":
            pos += rest
        elif tok in ("-h", "--help"):
            return None, _help(words)
        else:
            flag, eq, value = tok.partition("=")
            if flag not in flags:
                raise UsageError(f"{name}: unknown flag {flag!r}")
            if flag in values:
                raise UsageError(f"{name}: {flag} given twice")
            values[flag] = value if eq else next(rest, None)
            if values[flag] is None:
                raise UsageError(f"{name}: {flag} needs a value")
    if len(pos) != len(positionals):
        raise UsageError(f"{name}: expected {len(positionals)} positional argument(s), "
                         f"got {pos!r}")
    args = dict(zip(positionals, pos))
    for flag, (dest, kind, default, required, meta, _) in flags.items():
        if flag in values:
            try:
                args[dest] = kind(values[flag])
            except ValueError:
                raise UsageError(f"{name}: {flag} expects {meta}, "
                                 f"got {values[flag]!r}") from None
        elif required:
            raise UsageError(f"{name}: {flag} is required")
        else:
            args[dest] = default
    return handler, types.SimpleNamespace(**args)


def main(argv=None):
    """Run one command; returns the exit code and never raises SystemExit."""
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if handler is None:
            print(args)
            return 0
        code = handler(args)
        return 0 if code is None else code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except NumericIndeterminacyError as exc:
        print(f"numeric indeterminacy: {exc}", file=sys.stderr)
        return 4
    except (ContractError, AbdynError) as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
