"""Canonical forms on the diagonal slices and a constructive local-unitary
equivalence decision with explicit rotation witnesses.

Conventions fixed here (any transversal of the residual finite symmetry
works; these are branch-free to test):
  * locally maximally mixed states: diagonal entries d1 >= d2 >= |d3| with
    d1, d2 >= 0 and sign(d1 d2 d3) = sign(det C);
  * symmetric states: eigenvalues sorted strictly descending and the
    rotated 1-point vector made lexicographically greatest over the four
    even sign flips of the eigenbasis;
  * a witness always maps the FIRST argument's state onto the second's.

Both groups are compact, so every orbit is closed and the canonical forms
separate all of them: decide_equiv_* need no gate beyond the invariant fast
reject, the canonical-form distance and the witness residual. Both first
divide their inputs by the power of two that brings max(1, |matrix|_inf)
into [1, 2), 1 below norm 2, so that no invariant overflows, and take the
canonical forms of the divided inputs; distances, witnesses and residuals
run on Python floats, composed and applied in a fixed association order.

The verdict rule is written once, in _decide; each stratum supplies only
its gate sequence (_lmm_gates, _sym_gates), a generator that yields its
gate distances in order and returns its witness and the entries the
residual compares. A fix to one gate changes one yield.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrum
from .invariants import _lmm_triple, _nondegenerate_eig
from .linalg import (
    _matmul3,
    _matvec3,
    _pow2_floor,
    _rows3,
    _sym_rows3,
    _trace_invariants,
    _vec3,
    _worst,
    signed_svd3,
)

DEFAULT_TOL = 1e-8
TIE_TOL = 1e-10

# The stabilizer of a sorted distinct spectrum inside the rotation group:
# diagonal sign matrices with an even number of flips.
EVEN_SIGN_FLIPS = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)


class Verdict(Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INDETERMINATE = "indeterminate"


@dataclass
class LmmCanonicalForm:
    """Slice representative of a 2-point matrix: diag entries in the sign
    and order convention above, plus the rotation pair that moves the input
    onto diag(diag)."""

    diag: np.ndarray
    witness: tuple
    degenerate: bool


@dataclass
class SymCanonicalForm:
    """Slice representative of a symmetric state: sorted eigenvalues, the
    canonicalized 1-point vector, and the rotation that realizes them."""

    eigs: np.ndarray
    w: np.ndarray
    witness: np.ndarray


@dataclass
class EquivalenceVerdict:
    """invariant_distance is the largest rel_dist among the gates that ran;
    witness is None unless the verdict is EQUIVALENT."""

    verdict: Verdict
    witness: object
    invariant_distance: float


def rel_dist(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|), the uniform comparison
    metric used throughout the package, on Python floats (the inputs are
    short). NaN if any entry is NaN or infinite."""
    return _rel_dist(*(np.asarray(x, dtype=float).ravel().tolist() for x in (a, b)))


def _rel_dist(xs, ys):
    """rel_dist on two equally long sequences of Python floats."""
    return _worst(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys, strict=True))


def lmm_canonical(c):
    """Canonical form of a 2-point matrix under rotation pairs.

    Always succeeds; the degenerate flag is set when singular values
    collide within TIE_TOL relative to scale, in which case the witness is
    no longer unique (the diagonal still is a complete orbit datum).
    """
    svd = signed_svd3(c)
    d0, d1, d2 = svd.diag.tolist()
    tie = TIE_TOL * max(1.0, d0)
    return LmmCanonicalForm(diag=svd.diag, witness=(svd.left.T, svd.right.T),
                            degenerate=d0 - d1 <= tie or d1 - abs(d2) <= tie)


def sym_canonical(v, a):
    """Canonical form of a symmetric state (v, A) under rotations.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues; outside
        that locus the orbit has no slice-unique representative.
    """
    v = _vec3(v, "sym_canonical input")
    eigs, rotation, _, _ = _nondegenerate_eig(*_rows3(a, "sym_canonical input"),
                                              "repeated eigenvalues; no canonical form")
    w0 = _matvec3(rotation, v)
    # The first flip whose image of w0 is lexicographically greatest.
    flip = max(EVEN_SIGN_FLIPS, key=lambda f: [s * t for s, t in zip(f, w0)])
    witness = [[s * x for x in row] for s, row in zip(flip, rotation)]
    return SymCanonicalForm(eigs=np.array(eigs), w=np.array([s * t for s, t in zip(flip, w0)]),
                            witness=np.array(witness))


def _decide(tol, gates):
    """The verdict rule of both deciders, run on one stratum's gates.

    gates is a generator that reads and divides its inputs, yields each
    gate's distance in order and returns (witness, moved, target, size):
    moved holds the rows of the witness's image of the first state, target
    those of the second state, and size scales the residual bound.
    NOT_EQUIVALENT comes once the largest distance so far exceeds tol;
    INDETERMINATE when a gate raises DegenerateSpectrum; EQUIVALENT only
    when every |moved - target| <= 10 tol max(1, size); INDETERMINATE
    otherwise. invariant_distance is the largest distance of the gates that
    ran, reduced through linalg._worst.

    Raises:
        ValueError: if tol is not finite and positive, before gates reads
        any input: a negative tol rejects a state against itself, an
        infinite one certifies any pair and a NaN one decides nothing.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    dist = 0.0
    try:
        while True:
            dist = _worst((dist, next(gates)))
            if dist > tol:
                return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    except StopIteration as done:
        witness, moved, target, size = done.value
    except DegenerateSpectrum:
        return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
    residual = _worst(abs(x - y) for row, ref in zip(moved, target) for x, y in zip(row, ref))
    if residual <= 10.0 * tol * max(1.0, size):
        return EquivalenceVerdict(Verdict.EQUIVALENT, witness, dist)
    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)


def decide_equiv_lmm(c, m, tol=DEFAULT_TOL):
    """Decide whether two 2-point matrices lie on the same rotation-pair
    orbit.

    NOT_EQUIVALENT comes from the invariant fast reject or the distance
    between canonical diagonals; EQUIVALENT only from a composed witness
    (R1, R2) with |R1 C R2^T - M|_inf <= 10 tol max(1, |M|_inf), which tied
    singular values leave non-unique but valid; INDETERMINATE otherwise.

    Raises:
        ValueError: if tol is not finite and positive, or if C or M has the
        wrong shape or a NaN or Inf entry.
    """
    return _decide(tol, _lmm_gates(c, m))


def _lmm_gates(c, m):
    """The gates of decide_equiv_lmm: the invariant triple, then the
    canonical diagonals; returns the witness (R1, R2), then R1 C R2^T, M and
    |M|_inf of the divided inputs."""
    (rows_c, norm_c), (rows_m, norm_m) = (_rows3(x, "decide_equiv_lmm input") for x in (c, m))
    scale = _pow2_floor(max(1.0, norm_c, norm_m))
    c, m = ([[x / scale for x in row] for row in rows] for rows in (rows_c, rows_m))
    yield _rel_dist(_lmm_triple(c), _lmm_triple(m))
    ca, cb = lmm_canonical(c), lmm_canonical(m)
    yield _rel_dist(ca.diag.tolist(), cb.diag.tolist())
    # R1 = W_b1^T W_a1 and R2 = W_b2^T W_a2, then (R1 C) R2^T.
    r1, r2 = (_matmul3(wb.T.tolist(), wa.tolist()) for wa, wb in zip(ca.witness, cb.witness))
    moved = _matmul3(_matmul3(r1, c), list(zip(*r2)))
    return (np.array(r1), np.array(r2)), moved, m, norm_m / scale


def decide_equiv_sym(state_a, state_b, tol=DEFAULT_TOL):
    """Decide whether two symmetric states (v, A) and (v', A') lie on the
    same rotation orbit.

    NOT_EQUIVALENT comes from the (tr A, tr A^2, det A) fast reject, run
    before any diagonalization, or the distance between canonical
    eigenvalues and w, the latter up to even sign flips; EQUIVALENT only
    from a witness R with (R v, R A R^T) within 10 tol max(1, |A'|_inf,
    |v'|_inf) of (v', A'), a zero v included; INDETERMINATE otherwise, or
    for a (near-)repeated spectrum.

    Raises:
        ValueError: if tol is not finite and positive, or if v, v', A or A'
        has the wrong shape or a NaN or Inf entry.
        NotSymmetric: if A or A' is not symmetric within linalg.SYM_TOL.
    """
    return _decide(tol, _sym_gates(state_a, state_b))


def _sym_gates(state_a, state_b):
    """The gates of decide_equiv_sym: the trace invariants, then the larger
    of the eigenvalue and the flip-matched w distance as one gate; returns
    the witness R, then (R v, R A R^T), (v', A') and max(|A'|_inf, |v'|_inf)
    of the divided inputs."""
    (v1, a1), (v2, a2) = state_a, state_b
    v1, v2 = (_vec3(v, "decide_equiv_sym input") for v in (v1, v2))
    (rows1, norm1), (rows2, norm2) = (_sym_rows3(a, "decide_equiv_sym input") for a in (a1, a2))
    scale = _pow2_floor(max(1.0, norm1, norm2))
    a1, a2 = ([[x / scale for x in row] for row in rows] for rows in (rows1, rows2))
    yield _rel_dist(_trace_invariants(a1), _trace_invariants(a2))
    v1, v2 = ([x / scale for x in v] for v in (v1, v2))
    forms = [sym_canonical(v1, a1), sym_canonical(v2, a2)]
    (eigs_a, wa, witness_a), (eigs_b, wb, witness_b) = (
        (f.eigs.tolist(), f.w.tolist(), f.witness.tolist()) for f in forms)
    # The lexicographic w jumps where a coordinate vanishes, so take
    # rel_dist(f * w_a, w_b) for f in EVEN_SIGN_FLIPS (-x - y = -(x + y)); the
    # first minimum keeps the identity wherever it attains it.
    den = [max(1.0, abs(x), abs(y)) for x, y in zip(wa, wb)]
    s0, s1, s2 = (abs(x - y) / d for x, y, d in zip(wa, wb, den))
    f0, f1, f2 = (abs(x + y) / d for x, y, d in zip(wa, wb, den))
    w_dists = [max(s0, s1, s2), max(s0, f1, f2), max(f0, s1, f2), max(f0, f1, s2)]
    w_dist = min(w_dists)
    yield max(_rel_dist(eigs_a, eigs_b), w_dist)
    # R = W_b^T (flip W_a), then R v and (R A) R^T.
    flip = EVEN_SIGN_FLIPS[w_dists.index(w_dist)]
    r = _matmul3(list(zip(*witness_b)), [[f * x for x in row] for f, row in zip(flip, witness_a)])
    moved = _matmul3(_matmul3(r, a1), list(zip(*r)))
    return np.array(r), [_matvec3(r, v1), *moved], [v2, *a2], max(norm2 / scale, *map(abs, v2))
