"""Command-line interface.

Subcommands: invariants, equiv, canonical, random, restrict, verify.
Exit codes: 0 ok / equivalent, 1 check failed / not equivalent, 2 parse
error, 3 class mismatch, 4 degenerate or indeterminate input. Commands
never emit partial JSON: output is built in full before printing, and any
command with a --seed is byte-identical across runs.
"""

import argparse
import sys

from . import verify as verify_mod
from .errors import DegenerateSpectrum, StateFormatError, ZeroVector
from .invariants import (
    lmm_invariants,
    lmm_positive_cone_check,
    lmm_section_invariants,
    octahedral_invariants,
    sym_invariants,
)
from .orbits import (
    DEFAULT_TOL,
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    sym_canonical,
)
from .serialize import bloch_document, density_document, dumps, load_state_file
from .states import (
    DEFAULT_CLASS_TOL,
    StateClass,
    bloch_of,
    classify,
    density_of,
    is_positive,
    random_bloch,
    random_state,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_DEGENERATE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load(path):
    fmt, payload = load_state_file(path)
    if fmt == "bloch":
        return density_of(payload), payload
    return payload, bloch_of(payload)


def _is_lmm(cls):
    return cls in (StateClass.LMM, StateClass.SYMMETRIC_LMM)


def _is_sym(cls):
    return cls in (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM)


def _sym_state(bloch):
    """(v, A) of a symmetric state, with C symmetrized exactly."""
    return bloch.v, 0.5 * (bloch.C + bloch.C.T)


def cmd_invariants(args):
    rho, bloch = _load(args.file)
    cls = classify(rho, tol=args.class_tol)
    requested = args.state_class
    if requested == "auto":
        if cls is StateClass.GENERAL:
            raise CliError(
                "general states have no invariant set in scope; "
                "expected an lmm or symmetric state", EXIT_CLASS)
        requested = "sym" if cls is StateClass.SYMMETRIC else "lmm"
    if requested == "lmm" and not _is_lmm(cls):
        raise CliError(f"state classified as {cls.value}, not lmm", EXIT_CLASS)
    if requested == "sym" and not _is_sym(cls):
        raise CliError(f"state classified as {cls.value}, not symmetric", EXIT_CLASS)

    out = {"class": cls.value}
    if requested == "lmm":
        inv = lmm_invariants(bloch.C)
        out.update(inv.as_dict())
        out["positive"] = is_positive(rho)
        out["bounds_ok"] = lmm_positive_cone_check(inv)
    else:
        inv = sym_invariants(*_sym_state(bloch))
        out.update(inv.as_dict())
        out["positive"] = is_positive(rho)
    print(dumps(out))
    return EXIT_OK


def cmd_equiv(args):
    rho_a, bloch_a = _load(args.file_a)
    rho_b, bloch_b = _load(args.file_b)
    cls_a = classify(rho_a, tol=args.class_tol)
    cls_b = classify(rho_b, tol=args.class_tol)
    if _is_lmm(cls_a) and _is_lmm(cls_b):
        verdict = decide_equiv_lmm(bloch_a.C, bloch_b.C, tol=args.tol)
        pair = verdict.witness
        witness = None if pair is None else {"R1": pair[0], "R2": pair[1]}
    elif _is_sym(cls_a) and _is_sym(cls_b):
        verdict = decide_equiv_sym(_sym_state(bloch_a), _sym_state(bloch_b), tol=args.tol)
        witness = None if verdict.witness is None else {"R": verdict.witness}
    else:
        raise CliError(
            f"states classified as {cls_a.value} and {cls_b.value}; "
            "equivalence is decided for matching lmm or symmetric classes",
            EXIT_CLASS)
    out = {
        "verdict": verdict.verdict.value,
        "invariant_distance": float(verdict.invariant_distance),
        "witness": witness,
    }
    print(dumps(out))
    codes = {Verdict.EQUIVALENT: EXIT_OK, Verdict.NOT_EQUIVALENT: EXIT_FAIL}
    return codes.get(verdict.verdict, EXIT_DEGENERATE)


def cmd_canonical(args):
    rho, bloch = _load(args.file)
    cls = classify(rho, tol=args.class_tol)
    if _is_lmm(cls):
        form = lmm_canonical(bloch.C)
        out = {
            "class": "lmm",
            "diag": form.diag,
            "degenerate": form.degenerate,
            "witness": {"R1": form.witness[0], "R2": form.witness[1]},
        }
    elif cls is StateClass.SYMMETRIC:
        form = sym_canonical(*_sym_state(bloch))
        out = {
            "class": "sym",
            "eigs": form.eigs,
            "w": form.w,
            "witness": {"R": form.witness},
        }
    else:
        raise CliError("general states have no canonical form in scope", EXIT_CLASS)
    print(dumps(out))
    return EXIT_OK


def cmd_random(args):
    state_class = StateClass(args.state_class)
    if args.positive:
        rho = random_state(state_class, args.seed, positive=True)
        doc = density_document(rho)
    else:
        doc = bloch_document(random_bloch(state_class, args.seed))
    print(dumps(doc))
    return EXIT_OK


def cmd_restrict(args):
    rho, bloch = _load(args.file)
    cls = classify(rho, tol=args.class_tol)
    if _is_lmm(cls):
        form = lmm_canonical(bloch.C)
        section = lmm_section_invariants(form.diag)
        out = {
            "class": "lmm",
            "x": form.diag,
            "degenerate": form.degenerate,
            "witness": {"R1": form.witness[0], "R2": form.witness[1]},
        }
        out.update(section.as_dict())
    elif cls is StateClass.SYMMETRIC:
        form = sym_canonical(*_sym_state(bloch))
        out = {
            "class": "sym",
            "w": form.w,
            "lambda": form.eigs,
            "witness": {"R": form.witness},
        }
        out.update(octahedral_invariants(form.w).as_dict())
    else:
        raise CliError("general states have no slice restriction in scope", EXIT_CLASS)
    print(dumps(out))
    return EXIT_OK


def cmd_verify(args):
    suites = verify_mod.SUITES if args.suite == "all" else (args.suite,)
    reports = verify_mod.run_all(args.samples, args.seed, suites=suites)
    if args.json:
        print(dumps(verify_mod.report_json(reports)))
    else:
        print(verify_mod.report_table(reports))
    total_time = sum(r.wall_time for r in reports)
    print(f"wall time: {total_time:.2f} s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blochinv",
        description="Local-unitary invariants and equivalence tests for "
                    "two-qubit states in the Bloch-matrix representation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--class-tol", type=float, default=DEFAULT_CLASS_TOL,
                       help="tolerance for state classification (default %(default)g)")

    p = sub.add_parser("invariants", help="invariant report for a state file")
    p.add_argument("file")
    p.add_argument("--class", dest="state_class", choices=("auto", "lmm", "sym"),
                   default="auto", help="override the auto-detected class")
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("equiv", help="decide local-unitary equivalence of two states")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("canonical", help="canonical form and witness of a state")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("random", help="emit a random state file on stdout")
    p.add_argument("--class", dest="state_class",
                   choices=[c.value for c in StateClass], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--positive", action="store_true",
                   help="draw a positive semidefinite state")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("restrict", help="slice coordinates and slice invariants")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("verify", help="run the seeded verification battery")
    p.add_argument("--suite", choices=("all",) + verify_mod.SUITES, default="all")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, StateFormatError, DegenerateSpectrum, ZeroVector) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_PARSE if isinstance(exc, StateFormatError) else EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
