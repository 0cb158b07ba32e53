"""Command-line interface.

Single binary with subcommands (analyze, decide, split, fan, orbit, catalog,
end-to-end); JSON payloads on stdin or via --in, results on stdout or --out.
Every output embeds the inputs, tolerances, heights, and seeds needed to
reproduce it: one writer (_emit) builds each document {command, input,
options, result} from the command table, COMMANDS, which the argv is read
against and which marks the flags that options echoes.  Exit
codes: 0 success (also -h/--help and --version), 2 usage error (an argv that
does not fit the table) or schema error (also a file that cannot be read or
written), 3 contract error, 4 numeric indeterminacy; every error is one
stderr line.
"""

from __future__ import annotations

import sys
import types

from . import __version__, serialize
from .catalog import build_case_matrices, classification_cases, moduli_dim_formula
from .criteria import (FamilyDescriptor, decide_regularizable,
                       growth_exponent_k, split_invariant_subfamily)
from .degrees import SemiAbelianAut, semiabelian_degrees
from .errors import AbdynError, NumericIndeterminacyError, SchemaError
from .exactalg import char_poly_split
from .orbit import orbit_dims
from .serialize import (dump_json, fan_from_json, fan_to_json,
                        family_descriptor_from_json, family_descriptor_to_json,
                        int_to_json, lattice_from_json, load_json, matrix_from_json,
                        matrix_to_json, poly_to_json, semiabelian_aut_from_json,
                        semiabelian_aut_to_json)
from .toroidal import (central_fiber_combinatorics, delaunay_fan, gamma_from_B,
                       section_extends, translation_regularizable, validate_fan)


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
    if args.infile:
        return load_json(_read_file(args.infile))
    return load_json(sys.stdin.read())


def _emit(words, args, echo, result):
    """Write the document of one run of the command named by words: the
    command's words joined by a space, the input echo, the value of each
    flag that COMMANDS marks as a reproduction parameter, and the result.
    It goes to --out, else stdout."""
    options = {spec[0]: getattr(args, spec[0])
               for spec in COMMANDS[words][1].values() if spec[6]}
    text = dump_json({"command": " ".join(words), "input": echo,
                      "options": options, "result": result})
    if args.outfile:
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
# subcommands: each returns (input echo, result), and an exit code when it
# can be other than 0; main writes the document (_emit)
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
    return echo, {"degrees": profile.to_json_dict(), "parts": parts}


def cmd_decide(args):
    desc = family_descriptor_from_json(_read_payload(args))
    return family_descriptor_to_json(desc), decide_regularizable(desc).to_json_dict()


def cmd_split(args):
    payload = _read_payload(args)
    u = matrix_from_json(payload)
    L0, L1, index = split_invariant_subfamily(u)
    _, P, Q, _ = char_poly_split(u)
    result = {name: {"basis": [list(map(int_to_json, v)) for v in L],
                     "charpoly": poly_to_json(p)}
              for name, L, p in (("cyclotomic_lattice", L0, P),
                                 ("cyclotomic_free_lattice", L1, Q))}
    result["index"] = int_to_json(index)
    return {"matrix": payload}, result


def _random_metric(r_prime, seed):
    """Seeded random positive definite integer metric, as rows: Q = A^T A + I
    with small integer A (delaunay_fan stores it as Fractions)."""
    import random
    rng = random.Random(seed)
    A = [[rng.randint(-2, 2) for _ in range(r_prime)] for _ in range(r_prime)]
    return [[sum(A[k][i] * A[k][j] for k in range(r_prime)) + int(i == j)
             for j in range(r_prime)] for i in range(r_prime)]


def cmd_fan_build(args):
    B = matrix_from_json(_inline_json(args.B))
    gamma = gamma_from_B(B)
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
    return {"B": matrix_to_json(B), "metric": metric_echo}, fan_to_json(fan)


def _load_fan_file(path):
    """(fan, faces) of a fan file, bare or a `fan build` output: the
    certified fan of the fast test (serialize.built_fan), or fan_from_json's
    with the fast test's GammaData; faces is the fast test's face set (or
    the reason there is none)."""
    doc = load_json(_read_file(path))
    keys = ("result",) if isinstance(doc, dict) and "result" in doc and "gamma" not in doc else ()
    obj = doc["result"] if keys else doc
    fan, faces, gamma = serialize.built_fan(obj)
    return (fan_from_json(obj, keys, gamma) if fan is None else fan), faces


def cmd_fan_validate(args):
    fan, faces = _load_fan_file(args.file)
    report = validate_fan(fan, faces)
    n_vertices, n_max_cells = central_fiber_combinatorics(fan)
    result = {"ok": report.ok,
              "violations": list(report.violations),
              "non_regular": list(report.non_regular),
              "central_fiber": {"vertices": n_vertices,
                                "maximal_cells": n_max_cells}}
    return {"file": args.file}, result, 0 if report.ok else 3


def cmd_fan_extends(args):
    fan, faces = _load_fan_file(args.file)
    n_phi = serialize.nphi_from_json(_inline_json(args.nphi))
    extends = section_extends(n_phi, fan, faces)
    res, diag = translation_regularizable(n_phi, fan.gamma)
    N, beta = res if res is not None else (None, None)
    return {"file": args.file, "n_phi": list(n_phi)}, {
        "extends": extends, "regularizing_power": N,
        "beta": list(beta) if beta is not None else None, "diagnostic": diag}


def cmd_orbit_analyze(args):
    lattice = lattice_from_json(_inline_json(args.lattice))
    alpha = serialize.alpha_from_json(_inline_json(args.alpha), lattice.g)
    report = orbit_dims(lattice, alpha, height_bound=args.height, tol=args.tol)
    return {"lattice": serialize.lattice_to_json(lattice),
            "alpha": [[z.real, z.imag] for z in alpha]}, report.to_json_dict()


def cmd_catalog_list(args):
    return {"g": args.g}, [
        {"case": c.id, "g": c.g, "albert_type": c.albert_type,
         "parameters": c.parameters, "description": c.description,
         "m": c.m, "m_formula": moduli_dim_formula(c)}
        for c in classification_cases(args.g)]


def _catalog_bundle(args):
    """The case's automorphism, its family descriptor, and the result fields
    that catalog build and end-to-end share.  The char poly and split are
    the ones kept on the automorphism (char_poly_split)."""
    label, auto = build_case_matrices(args.case, d=args.d)
    cp, P, Q, _ = char_poly_split(auto)
    k = growth_exponent_k(auto) if Q.is_one() else None
    desc = FamilyDescriptor(g=auto.rows // 2, charpoly=cp, r=args.r, k=k)
    return auto, desc, {
        "case": args.case, "label": label, "automorphism": matrix_to_json(auto),
        "charpoly": poly_to_json(cp), "is_cyclotomic_free": P.is_one(),
        "family_descriptor": family_descriptor_to_json(desc)}


def cmd_catalog_build(args):
    auto, _, result = _catalog_bundle(args)
    _, P, Q, _ = char_poly_split(auto)
    result.update(cyclotomic_part=poly_to_json(P), cyclotomic_free_part=poly_to_json(Q))
    return {"case": args.case, "d": args.d, "r": args.r}, result


def cmd_end_to_end(args):
    auto, desc, result = _catalog_bundle(args)
    g = auto.rows // 2
    profile = semiabelian_degrees(SemiAbelianAut(r=0, g=g, u_A_rat=auto), tol=args.tol)
    result.update(m=next(c.m for c in classification_cases(g) if c.id == args.case),
                  degrees=profile.to_json_dict(),
                  verdict=decide_regularizable(desc).to_json_dict())
    return {"case": args.case, "d": args.d, "r": args.r}, result


# ---------------------------------------------------------------------------
# command table and argv reader
# ---------------------------------------------------------------------------

def _flag(dest, kind=str, default=None, required=False, meta=None, help="", option=False):
    """(dest, type, default, required, metavar, help, option); kind reads the
    token.  option marks a reproduction parameter: its value is echoed in
    the document's options."""
    return dest, kind, default, required, meta or (
        "JSON" if kind is str else kind.__name__.upper()), help, option


_IN = {"--in": _flag("infile", meta="FILE", help="read the JSON payload (default stdin)")}
_OUT = {"--out": _flag("outfile", meta="FILE", help="write the JSON result (default stdout)")}
_CASE = {"--case": _flag("case", required=True, meta="ID", help="catalog case id, e.g. 2.2"),
         "--d": _flag("d", int, 2, help="real quadratic field discriminant parameter (default 2)"),
         "--r": _flag("r", int, help="torus rank of the degeneration (optional)")}
_TOL = {"--tol": _flag("tol", float, 1e-9, help="positive finite tolerance (default 1e-9)",
                       option=True)}

# words -> (handler, flags, positionals, help).  Flags are matched whole (no
# prefix abbreviations); a positional is a dest.
COMMANDS = {
    ("analyze",): (cmd_analyze, {**_IN, **_OUT, **_TOL}, (),
                   "charpoly, cyclotomic split, and degree profile of an automorphism"),
    ("decide",): (cmd_decide, {**_IN, **_OUT}, (),
                  "regularizability verdict for a family descriptor"),
    ("split",): (cmd_split, {**_IN, **_OUT}, (),
                 "cyclotomic/cyclotomic-free invariant lattice splitting of a matrix"),
    ("fan", "build"): (cmd_fan_build, {
        "--B": _flag("B", required=True, help="symmetric PSD integer matrix (JSON or @file)"),
        "--metric": _flag("metric", meta="JSON|random", help="positive definite r' x r' metric "
                          "(rows of ints, finite floats or 'p/q' strings), or 'random'"),
        "--seed": _flag("seed", int, 0, help="seed of --metric random (default 0)",
                        option=True),
        **_OUT}, (), "build a Delaunay fan from a monodromy translation matrix B"),
    ("fan", "validate"): (cmd_fan_validate, _OUT, ("file",), "validate a fan file"),
    ("fan", "extends"): (cmd_fan_extends, {
        "--nphi": _flag("nphi", required=True, help="vanishing orders (JSON or @file)"),
        **_OUT}, ("file",), "does a section with the given vanishing orders extend?"),
    ("orbit", "analyze"): (cmd_orbit_analyze, {
        "--lattice": _flag("lattice", required=True, help="period lattice (JSON or @file)"),
        "--alpha": _flag("alpha", required=True, help="translation: g [re, im] pairs"),
        "--height": _flag("height", int, 50, help="integer-relation search bound (default 50)",
                          option=True),
        "--tol": _flag("tol", float, 1e-10, help="positive finite tolerance (default 1e-10)",
                       option=True), **_OUT}, (),
        "translation orbit-closure analysis"),
    ("catalog", "list"): (cmd_catalog_list, {
        "--g": _flag("g", int, required=True, help="dimension"), **_OUT}, (),
        "classification cases of positive-entropy examples in dimension g"),
    ("catalog", "build"): (cmd_catalog_build, {**_CASE, **_OUT}, (),
                           "matrix model and family descriptor of a catalog case"),
    ("end-to-end",): (cmd_end_to_end, {**_CASE, **_TOL, **_OUT}, (),
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
    """(words, args) for argv, or (None, text) for -h/--help and --version.
    The token after a flag is its value, whatever it looks like; --flag=value
    works too.  Raises UsageError."""
    words = next((tuple(argv[:n]) for n in (1, 2) if tuple(argv[:n]) in COMMANDS), None)
    if words is None:
        return None, _no_command(argv)
    _, flags, positionals, _ = COMMANDS[words]
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
    for flag, (dest, kind, default, required, meta, *_) in flags.items():
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
    return words, types.SimpleNamespace(**args)


def main(argv=None):
    """Run one command; returns the exit code and never raises SystemExit."""
    try:
        words, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if words is None:
            print(args)
            return 0
        echo, result, *code = COMMANDS[words][0](args)
        _emit(words, args, echo, result)
        return code[0] if code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except NumericIndeterminacyError as exc:
        print(f"numeric indeterminacy: {exc}", file=sys.stderr)
        return 4
    except AbdynError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
