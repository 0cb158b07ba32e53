"""Command-line interface.

Single binary with subcommands (analyze, decide, split, fan, orbit, catalog,
end-to-end); JSON payloads on stdin or via --in, results on stdout or --out.
Every output embeds the inputs, tolerances, heights, and seeds needed to
reproduce it.  Exit codes: 0 success, 2 schema error, 3 contract error,
4 numeric indeterminacy.  Set ABDYN_LOG=debug|info|... for logging.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from fractions import Fraction

from . import __version__, serialize
from .catalog import build_case_matrices, classification_cases, moduli_dim_formula
from .criteria import (FamilyDescriptor, decide_regularizable,
                       growth_exponent_k, restricted_char_poly,
                       split_invariant_subfamily)
from .degrees import SemiAbelianAut, semiabelian_degrees
from .errors import (AbdynError, ContractError, NumericIndeterminacyError,
                     SchemaError)
from .exactalg import IntMatrix, char_poly, cyclotomic_split
from .orbit import orbit_dims
from .serialize import (dump_json, fan_from_json, fan_to_json,
                        family_descriptor_from_json, family_descriptor_to_json,
                        lattice_from_json, load_json, matrix_from_json,
                        matrix_to_json, poly_to_json, semiabelian_aut_from_json,
                        semiabelian_aut_to_json, vector_from_json)
from .toroidal import (GammaData, central_fiber_combinatorics, delaunay_fan,
                       nakamura_data, section_extends, translation_regularizable,
                       validate_fan)

log = logging.getLogger("abdyn")


def _setup_logging():
    level = os.environ.get("ABDYN_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO),
                            format="%(levelname)s %(name)s: %(message)s")


def _read_payload(args):
    if getattr(args, "infile", None):
        with open(args.infile) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return load_json(text)


def _emit(args, doc):
    text = dump_json(doc)
    if getattr(args, "outfile", None):
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inline_json(value):
    """Inline JSON argument; an @path prefix reads the file instead."""
    if value.startswith("@"):
        with open(value[1:]) as fh:
            return load_json(fh.read())
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
    parts = {}
    for name, M in (("u_T", aut.u_T), ("u_A_rat", aut.u_A_rat)):
        if M is None:
            continue
        cp = char_poly(M)
        P, Q = cyclotomic_split(cp)
        parts[name] = {"charpoly": poly_to_json(cp),
                       "cyclotomic_part": poly_to_json(P),
                       "cyclotomic_free_part": poly_to_json(Q),
                       "roots_of_unity_only": Q.is_one()}
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
    L0, L1, index = split_invariant_subfamily(u)
    result = {
        "cyclotomic_lattice": {
            "basis": [list(map(str, v)) for v in L0.basis],
            "charpoly": poly_to_json(restricted_char_poly(u, L0))},
        "cyclotomic_free_lattice": {
            "basis": [list(map(str, v)) for v in L1.basis],
            "charpoly": poly_to_json(restricted_char_poly(u, L1))},
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
    with open(path) as fh:
        doc = load_json(fh.read())
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
    res, diag = translation_regularizable(n_phi, fan.gamma, with_diagnostic=True)
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
    data = build_case_matrices(case_id, d=d)
    auto = data["automorphism"]
    g = auto.rows // 2
    k = None
    if data["cyclotomic_free_part"].is_one():
        k = growth_exponent_k(auto)
    desc = FamilyDescriptor(g=g, charpoly=data["charpoly"], r=r, k=k)
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
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def _add_io(parser):
    parser.add_argument("--in", dest="infile", metavar="FILE",
                        help="read the JSON payload from FILE (default stdin)")


def _add_out(parser):
    parser.add_argument("--out", dest="outfile", metavar="FILE",
                        help="write the JSON result to FILE (default stdout)")


@functools.cache
def build_parser():
    """The argparse tree, built once per process (main parses into a fresh
    namespace on every call)."""
    top = argparse.ArgumentParser(
        prog="abdyn",
        description="Dynamical invariants of automorphisms of families of "
                    "polarized abelian varieties.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="charpoly, cyclotomic split, and "
                                       "degree profile of an automorphism")
    _add_io(p)
    _add_out(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decide", help="regularizability verdict for a "
                                      "family descriptor")
    _add_io(p)
    _add_out(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("split", help="cyclotomic/cyclotomic-free invariant "
                                     "lattice splitting of a matrix")
    _add_io(p)
    _add_out(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fan", help="toroidal degeneration fans")
    fansub = p.add_subparsers(dest="fan_command", required=True)
    q = fansub.add_parser("build", help="build a Delaunay fan from a "
                                        "monodromy translation matrix B")
    q.add_argument("--B", required=True, metavar="JSON",
                   help="symmetric PSD integer matrix (inline JSON or @file)")
    q.add_argument("--metric", metavar="JSON|random",
                   help="positive definite r' x r' metric (rows of ints, "
                        "finite floats or 'p/q' strings), or 'random'")
    q.add_argument("--seed", type=int, default=0,
                   help="seed of the metric perturbations (default 0)")
    _add_out(q)
    q.set_defaults(func=cmd_fan_build)
    q = fansub.add_parser("validate", help="validate a fan file")
    q.add_argument("file")
    _add_out(q)
    q.set_defaults(func=cmd_fan_validate)
    q = fansub.add_parser("extends", help="does a section with the given "
                                          "vanishing orders extend?")
    q.add_argument("--nphi", required=True, metavar="JSON")
    q.add_argument("file")
    _add_out(q)
    q.set_defaults(func=cmd_fan_extends)

    p = sub.add_parser("orbit", help="translation orbit-closure analysis")
    orbsub = p.add_subparsers(dest="orbit_command", required=True)
    q = orbsub.add_parser("analyze")
    q.add_argument("--lattice", required=True, metavar="JSON")
    q.add_argument("--alpha", required=True, metavar="JSON")
    q.add_argument("--height", type=int, default=50)
    q.add_argument("--tol", type=float, default=1e-10)
    _add_out(q)
    q.set_defaults(func=cmd_orbit_analyze)

    p = sub.add_parser("catalog", help="classification catalog of "
                                       "positive-entropy examples")
    catsub = p.add_subparsers(dest="catalog_command", required=True)
    q = catsub.add_parser("list")
    q.add_argument("--g", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=cmd_catalog_list)
    q = catsub.add_parser("build")
    q.add_argument("--case", required=True)
    q.add_argument("--d", type=int, default=2,
                   help="real quadratic field discriminant parameter")
    q.add_argument("--r", type=int, default=None,
                   help="torus rank of the degeneration (optional)")
    _add_out(q)
    q.set_defaults(func=cmd_catalog_build)

    p = sub.add_parser("end-to-end", help="catalog -> degrees -> verdict "
                                          "bundle")
    p.add_argument("--case", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_out(p)
    p.set_defaults(func=cmd_end_to_end)

    return top


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        return 0 if code is None else code
    except SchemaError as exc:
        log.debug("schema error: %s", exc)
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except NumericIndeterminacyError as exc:
        log.debug("numeric indeterminacy: %s", exc)
        print(f"numeric indeterminacy: {exc}", file=sys.stderr)
        return 4
    except (ContractError, AbdynError) as exc:
        log.debug("contract error: %s", exc)
        print(f"contract error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
