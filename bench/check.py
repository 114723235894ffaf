"""Output checker. Each check returns None when the op's outputs are right,
or a short reason naming the first contract the op broke. The reasons feed
the failure count, and through it the error rate.

An op fails when it raises an error its contract does not allow for that
input, returns a verdict outside the input's allowed set, returns a witness
whose residual breaks its bound, breaks the canonical reconstruction bound
(1e-10 * max(1, |C|_inf)), returns invariants that disagree with the numpy
references, fails a battery check, or (for a CLI process) exits with an
unexpected code or prints stdout that does not parse or does not match.
"""

import json

import numpy as np

from gen import EQ, IND, NE

RECON_TOL = 1e-10  # canonical reconstruction, relative to max(1, |C|_inf)
SV_TOL = 1e-10  # canonical diagonal against numpy svd / eigh, same scale
INV_TOL = 1e-10  # t2, t3, t4, tr A, tr A^2, det A, relative to scale^degree
XYZ_TOL = 1e-8  # octahedral ratios, absolute (they are scale-free)
ROT_TOL = 1e-10  # distance of a witness factor from SO(3)
DECIDE_TOL = 1e-8  # decide_equiv_* default tol; witness bound is 10 tol scale

DEGENERATE = "DegenerateSpectrum"
ZERO_VECTOR = "ZeroVector"


def _inf(m):
    return float(np.max(np.abs(m)))


def _rotation_error(r):
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return np.inf
    return max(_inf(r.T @ r - np.eye(3)), abs(float(np.linalg.det(r)) - 1.0))


def _verdict_name(verdict):
    return getattr(getattr(verdict, "verdict", None), "value", verdict)


def _verdict_reason(verdict_name, allowed):
    if verdict_name not in (EQ, NE, IND):
        return f"verdict:unknown:{verdict_name}"
    if verdict_name not in allowed:
        return f"verdict:{verdict_name}"
    return None


# ------------------------------------------------------------------ lmm


def lmm_invariants(inv, ref):
    s = ref["scale"]
    for name, deg in (("t2", 2), ("t3", 3), ("t4", 4)):
        if abs(float(inv[name]) - ref[name]) > INV_TOL * s**deg:
            return f"invariants:{name}"
    return None


def lmm_canonical(diag, r1, r2, c, ref):
    """diag, witness (r1, r2) with r1 c r2^T = diag(diag)."""
    diag = np.asarray(diag, dtype=float)
    s = ref["scale"]
    if max(_rotation_error(r1), _rotation_error(r2)) > ROT_TOL:
        return "canonical:witness_not_rotation"
    if _inf(np.asarray(r1) @ c @ np.asarray(r2).T - np.diag(diag)) > RECON_TOL * s:
        return "canonical:reconstruction"
    if not diag[0] >= diag[1] >= abs(diag[2]) - RECON_TOL * s or diag[1] < -RECON_TOL * s:
        return "canonical:order"
    if _inf(np.abs(diag) - ref["sv"]) > SV_TOL * s:
        return "canonical:singular_values"
    if ref["sv"][2] > SV_TOL * s and np.sign(diag[2]) != ref["det_sign"]:
        return "canonical:det_sign"
    return None


def lmm_witness(witness, c, m):
    r1, r2 = witness
    if max(_rotation_error(r1), _rotation_error(r2)) > ROT_TOL:
        return "witness:not_rotation"
    if _inf(np.asarray(r1) @ c @ np.asarray(r2).T - m) > 10 * DECIDE_TOL * max(1.0, _inf(m)):
        return "witness:residual"
    return None


def lmm_pair(item, result):
    states, verdict = result
    for (bloch, cls, inv, form), ref in zip(states, item.refs):
        if _inf(bloch.C - ref["C"]) > INV_TOL * ref["scale"] or _inf(bloch.u) > INV_TOL * ref["scale"]:
            return "bloch_of:mismatch"
        if cls.value not in ("lmm", "symlmm"):
            return f"classify:{cls.value}"
        reason = lmm_invariants(inv.as_dict(), ref) or lmm_canonical(
            form.diag, form.witness[0], form.witness[1], bloch.C, ref)
        if reason:
            return reason
    name = _verdict_name(verdict)
    reason = _verdict_reason(name, item.allowed)
    if reason is None and name == EQ:
        reason = lmm_witness(verdict.witness, states[0][0].C, states[1][0].C)
    return reason


# ------------------------------------------------------------------ sym


def sym_invariants(inv, ref):
    s = ref["scale"]
    for name, deg in (("trA", 1), ("trA2", 2), ("detA", 3)):
        if abs(float(inv[name]) - ref[name]) > INV_TOL * s**deg:
            return f"invariants:{name}"
    if ref["xyz"] is not None:
        got = np.array([inv["pX"], inv["pY"], inv["pZ"]], dtype=float)
        if _inf(got - ref["xyz"]) > XYZ_TOL:
            return "invariants:xyz"
    return None


def sym_canonical(eigs, w, r, ref):
    s = ref["scale"]
    r = np.asarray(r, dtype=float)
    if _rotation_error(r) > ROT_TOL:
        return "canonical:witness_not_rotation"
    if _inf(r @ ref["A"] @ r.T - np.diag(eigs)) > RECON_TOL * s:
        return "canonical:reconstruction"
    if _inf(r @ ref["v"] - np.asarray(w, dtype=float)) > RECON_TOL * max(s, _inf(ref["v"])):
        return "canonical:w"
    if _inf(np.asarray(eigs, dtype=float) - ref["eigs"]) > SV_TOL * s:
        return "canonical:eigenvalues"
    return None


def sym_witness(r, state_a, state_b):
    (v1, a1), (v2, a2) = state_a, state_b
    r = np.asarray(r, dtype=float)
    if _rotation_error(r) > ROT_TOL:
        return "witness:not_rotation"
    residual = max(_inf(r @ v1 - v2), _inf(r @ a1 @ r.T - a2))
    if residual > 10 * DECIDE_TOL * max(1.0, _inf(a2), _inf(v2)):
        return "witness:residual"
    return None


def _allowed_error(exc, ref, what):
    name = type(exc).__name__
    if name == DEGENERATE and ref["degenerate"]:
        return None
    if name == ZERO_VECTOR and ref["zero_v"] and what == "invariants":
        return None
    return f"{what}:raised:{name}"


def sym_pair(item, result):
    states, verdict = result
    for (inv, form), ref in zip(states, item.refs):
        if isinstance(inv, Exception):
            reason = _allowed_error(inv, ref, "invariants")
        else:
            reason = sym_invariants(inv.as_dict(), ref)
        if reason:
            return reason
        if isinstance(form, Exception):
            reason = _allowed_error(form, ref, "canonical")
        else:
            reason = sym_canonical(form.eigs, form.w, form.witness, ref)
        if reason:
            return reason
    name = _verdict_name(verdict)
    reason = _verdict_reason(name, item.allowed)
    if reason is None and name == EQ:
        reason = sym_witness(verdict.witness, *item.inputs)
    return reason


# -------------------------------------------------------------- battery


SUITES = ("bloch", "lmm", "sym", "group", "orbit")


def battery(item, reports):
    if not set(SUITES) <= {r.suite for r in reports}:
        return "battery:suites"
    for rep in reports:
        if not rep.checks:
            return f"battery:{rep.suite}:empty"
        for chk in rep.checks:
            if not chk.passed:
                return f"battery:{rep.suite}:{chk.name}"
    return None


# ------------------------------------------------------------------ cli

EXIT_CODES = {EQ: 0, NE: 1}


def cli(item, result):
    """A CLI request: exit code, parseable stdout, and values that match."""
    code, stdout = result
    command = item.inputs[0]
    expected = EXIT_CODES[next(iter(item.allowed))] if command == "equiv" else 0
    if code != expected:
        return f"cli:{command}:exit:{code}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"cli:{command}:stdout_not_json"
    try:
        return _cli_values(item, command, out)
    except (KeyError, TypeError, ValueError, IndexError):
        return f"cli:{command}:stdout_schema"


def _cli_values(item, command, out):
    lmm = item.kind == "lmm"
    ref = item.refs[0]
    if command == "invariants":
        if out["class"] != item.kind:
            return "cli:invariants:class"
        reason = lmm_invariants(out, ref) if lmm else sym_invariants(out, ref)
    elif command == "canonical":
        w = out["witness"]
        if lmm:
            reason = lmm_canonical(out["diag"], w["R1"], w["R2"], ref["C"], ref)
        else:
            reason = sym_canonical(out["eigs"], out["w"], w["R"], ref)
    else:
        reason = _verdict_reason(out["verdict"], item.allowed)
        if reason is None and out["verdict"] == EQ:
            w = out["witness"]
            ref_b = item.refs[1]
            if lmm:
                reason = lmm_witness((w["R1"], w["R2"]), ref["C"], ref_b["C"])
            else:
                reason = sym_witness(w["R"], (ref["v"], ref["A"]), (ref_b["v"], ref_b["A"]))
    return f"cli:{reason}" if reason else None


CHECKS = {"lmm-pairs": lmm_pair, "sym-pairs": sym_pair, "battery": battery, "cli-procs": cli}


def check(workload, item, result):
    """None if the op's result is right for item, else the failure reason."""
    if isinstance(result, Exception):
        return f"raised:{type(result).__name__}"
    return CHECKS[workload](item, result)
