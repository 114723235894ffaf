"""Command-line interface.

Subcommands: invariants, equiv, canonical, random, restrict, verify.
invariants, equiv, canonical and restrict load and classify each state
once, at --class-tol, and work on one stratum by the stratum rule: lmm if
every state is lmm or symlmm, else sym if every state is sym or symlmm,
else exit 3 with a message naming the classes.
Exit codes: 0 ok / equivalent, 1 check failed / not equivalent, 2 parse
error, 3 class mismatch, 4 indeterminate verdict or another typed error (a
degenerate input, an invariant too large to represent). Commands never
emit partial JSON: output is built in full before printing, and any
command with a --seed is byte-identical across runs.
"""

import argparse
import math
import sys

from . import SUITES
from .errors import BlochInvError, StateFormatError
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
from .states import DEFAULT_CLASS_TOL, StateClass, _class_of, bloch_of, density_of, is_positive

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_DEGENERATE = 4


class CliError(BlochInvError):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _stratum(paths, class_tol):
    """Load and classify the state in each file once, and pick their stratum
    by the stratum rule. Returns the stratum and, per file, (class, rho, x):
    x is C on lmm and (v, A), A = (C + C^T)/2 symmetrized exactly, on sym.
    A Bloch file is classified on its own fields, a density file on the
    fields of its one Bloch table."""
    states = []
    for path in paths:
        fmt, payload = load_state_file(path)
        states.append((density_of(payload), payload) if fmt == "bloch"
                      else (payload, bloch_of(payload)))
    classes = [_class_of(b, class_tol) for _, b in states]
    # The classes on each stratum, in the order the stratum rule tries them.
    strata = {"lmm": (StateClass.LMM, StateClass.SYMMETRIC_LMM),
              "sym": (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM)}
    stratum = next((name for name, members in strata.items()
                    if all(cls in members for cls in classes)), None)
    if stratum is None:
        raise CliError(
            f"classified as {' and '.join(cls.value for cls in classes)}; expected "
            "every state lmm or symlmm, or every state sym or symlmm", EXIT_CLASS)
    return stratum, [
        (cls, rho, b.C if stratum == "lmm" else (b.v, _symmetrized(b.C)))
        for cls, (rho, b) in zip(classes, states)]


def _symmetrized(c):
    """(C + C^T) / 2 of rows of floats, entry by entry, halved before the
    sum so that it does not overflow."""
    return [[0.5 * x + 0.5 * y for x, y in zip(row, col)] for row, col in zip(c, zip(*c))]


def cmd_invariants(args):
    stratum, [(cls, rho, x)] = _stratum([args.file], args.class_tol)
    if stratum == "lmm":
        inv = lmm_invariants(x)
        out = {"class": cls.value, **inv.as_dict(), "positive": is_positive(rho),
               "bounds_ok": lmm_positive_cone_check(inv)}
    else:
        out = {"class": cls.value, **sym_invariants(*x).as_dict(), "positive": is_positive(rho)}
    print(dumps(out))
    return EXIT_OK


def cmd_equiv(args):
    stratum, [(_, _, a), (_, _, b)] = _stratum([args.file_a, args.file_b], args.class_tol)
    if stratum == "lmm":
        verdict = decide_equiv_lmm(a, b, tol=args.tol)
        witness = None if verdict.witness is None else dict(zip(("R1", "R2"), verdict.witness))
    else:
        verdict = decide_equiv_sym(a, b, tol=args.tol)
        witness = None if verdict.witness is None else {"R": verdict.witness}
    out = {
        "verdict": verdict.verdict.value,
        "invariant_distance": float(verdict.invariant_distance),
        "witness": witness,
    }
    print(dumps(out))
    codes = {Verdict.EQUIVALENT: EXIT_OK, Verdict.NOT_EQUIVALENT: EXIT_FAIL}
    return codes.get(verdict.verdict, EXIT_DEGENERATE)


def cmd_canonical(args):
    stratum, [(_, _, x)] = _stratum([args.file], args.class_tol)
    if stratum == "lmm":
        form = lmm_canonical(x)
        out = {"class": "lmm", "diag": form.diag, "degenerate": form.degenerate,
               "witness": {"R1": form.witness[0], "R2": form.witness[1]}}
    else:
        form = sym_canonical(*x)
        out = {"class": "sym", "eigs": form.eigs, "w": form.w, "witness": {"R": form.witness}}
    print(dumps(out))
    return EXIT_OK


def cmd_random(args):
    from .groups import random_bloch, random_state

    state_class = StateClass(args.state_class)
    if args.positive:
        rho = random_state(state_class, args.seed, positive=True)
        doc = density_document(rho)
    else:
        doc = bloch_document(random_bloch(state_class, args.seed))
    print(dumps(doc))
    return EXIT_OK


def cmd_restrict(args):
    stratum, [(_, _, x)] = _stratum([args.file], args.class_tol)
    if stratum == "lmm":
        form = lmm_canonical(x)
        out = {"class": "lmm", "x": form.diag, "degenerate": form.degenerate,
               "witness": {"R1": form.witness[0], "R2": form.witness[1]},
               **lmm_section_invariants(form.diag).as_dict()}
    else:
        form = sym_canonical(*x)
        out = {"class": "sym", "w": form.w, "lambda": form.eigs, "witness": {"R": form.witness},
               **octahedral_invariants(form.w).as_dict()}
    print(dumps(out))
    return EXIT_OK


def cmd_verify(args):
    from . import verify as verify_mod

    suites = SUITES if args.suite == "all" else (args.suite,)
    reports = verify_mod.run_all(args.samples, args.seed, suites=suites)
    if args.json:
        print(dumps(verify_mod.report_json(reports)))
    else:
        print(verify_mod.report_table(reports))
    total_time = sum(r.wall_time for r in reports)
    print(f"wall time: {total_time:.2f} s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _tolerance(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and positive")
    return value


def _class_tolerance(text):
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and non-negative")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blochinv",
        description="Local-unitary invariants and equivalence tests for "
                    "two-qubit states in the Bloch-matrix representation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--class-tol", type=_class_tolerance, default=DEFAULT_CLASS_TOL,
                       help="tolerance for state classification, finite and "
                            "non-negative (default %(default)g)")

    p = sub.add_parser("invariants", help="invariant report for a state file")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("equiv", help="decide local-unitary equivalence of two states")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="decision tolerance, finite and positive (default %(default)g)")
    add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("canonical", help="canonical form and witness of a state")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("random", help="emit a random state file on stdout")
    p.add_argument("--class", dest="state_class",
                   choices=[c.value for c in StateClass], required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--positive", action="store_true",
                   help="draw a positive semidefinite state")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("restrict", help="slice coordinates and slice invariants")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("verify", help="run the seeded verification battery")
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlochInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return EXIT_PARSE if isinstance(exc, StateFormatError) else EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
