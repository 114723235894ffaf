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
The records hold lists of floats: rows for a matrix, including each
witness rotation.

The verdict rule is written once, in _decide; each stratum supplies only
its gate sequence (_lmm_gates, _sym_gates), a generator that yields its
gate distances in order and returns its witness and the entries the
residual compares. A fix to one gate changes one yield.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateSpectrum, NotRepresentable
from .invariants import _lmm_triple, _nondegenerate_eig
from .linalg import (
    _matmul3,
    _matvec3,
    _pow2_floor,
    _rows3,
    _scaled,
    _sym_rows3,
    _trace_invariants,
    _transpose,
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
    onto diag(diag): a list of three floats and (R1, R2) as rows."""

    diag: list
    witness: tuple
    degenerate: bool


@dataclass
class SymCanonicalForm:
    """Slice representative of a symmetric state: sorted eigenvalues, the
    canonicalized 1-point vector, and the rotation that realizes them, as
    lists of floats (the rotation as rows)."""

    eigs: list
    w: list
    witness: list


@dataclass
class EquivalenceVerdict:
    """invariant_distance is the largest _rel_dist among the gates that ran;
    witness is None unless the verdict is EQUIVALENT."""

    verdict: Verdict
    witness: object
    invariant_distance: float


def _rel_dist(xs, ys):
    """max_i |x_i - y_i| / max(1, |x_i|, |y_i|), the uniform comparison
    metric used throughout the package, on two triples of Python floats.
    NaN if any entry is NaN or infinite."""
    (x0, x1, x2), (y0, y1, y2) = xs, ys
    d0 = abs(x0 - y0) / max(1.0, abs(x0), abs(y0))
    d1 = abs(x1 - y1) / max(1.0, abs(x1), abs(y1))
    d2 = abs(x2 - y2) / max(1.0, abs(x2), abs(y2))
    nan = d0 + d1 + d2  # NaN exactly when one of them is: none is negative
    return max(d0, d1, d2) if nan == nan else nan


def lmm_canonical(c):
    """Canonical form of a 2-point matrix under rotation pairs.

    Always succeeds; the degenerate flag is set when singular values
    collide within TIE_TOL relative to scale, in which case the witness is
    no longer unique (the diagonal still is a complete orbit datum).
    """
    svd = signed_svd3(c)
    d0, d1, d2 = svd.diag
    tie = TIE_TOL * max(1.0, d0)
    return LmmCanonicalForm(diag=svd.diag, witness=(_transpose(svd.left), _transpose(svd.right)),
                            degenerate=d0 - d1 <= tie or d1 - abs(d2) <= tie)


def sym_canonical(v, a):
    """Canonical form of a symmetric state (v, A) under rotations.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues; outside
        that locus the orbit has no slice-unique representative.
        NotRepresentable: if a coordinate of w = R v is not a finite
        double, which only a v near the top of the double range gives.
    """
    v = _vec3(v, "sym_canonical input")
    eigs, rotation, _, _ = _nondegenerate_eig(_rows3(a, "sym_canonical input"),
                                              "repeated eigenvalues; no canonical form")
    w0, w1, w2 = _matvec3(rotation, v)
    if w0 * 0.0 + w1 * 0.0 + w2 * 0.0 != 0.0:  # x * 0.0 is 0.0 unless x is NaN or +-Inf
        raise NotRepresentable("sym_canonical: a coordinate of w is not a finite double")
    # The first flip whose image of w is lexicographically greatest; the
    # images of the flips in EVEN_SIGN_FLIPS, in order (-x is -1.0 * x).
    images = ((w0, w1, w2), (w0, -w1, -w2), (-w0, w1, -w2), (-w0, -w1, w2))
    w = max(images)
    s0, s1, s2 = EVEN_SIGN_FLIPS[images.index(w)]
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    witness = [[s0 * r00, s0 * r01, s0 * r02], [s1 * r10, s1 * r11, s1 * r12],
               [s2 * r20, s2 * r21, s2 * r22]]
    return SymCanonicalForm(eigs=eigs, w=list(w), witness=witness)


def _decide(tol, gates):
    """The verdict rule of both deciders, run on one stratum's gates.

    gates is a generator that reads and divides its inputs, yields each
    gate's distance in order and returns (witness, moved, target, size):
    moved holds the rows of the witness's image of the first state, target
    those of the second state, and size scales the residual bound.
    NOT_EQUIVALENT comes once the largest distance so far exceeds tol;
    INDETERMINATE once it is NaN, which no gate can decide on, or when a
    gate raises DegenerateSpectrum; EQUIVALENT only when every
    |moved - target| <= 10 tol max(1, size); INDETERMINATE otherwise.
    invariant_distance is the largest distance of the gates that
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
            if not dist <= tol:  # a NaN distance fails this test too
                if dist != dist:
                    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
                return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    except StopIteration as done:
        witness, moved, target, size = done.value
    except DegenerateSpectrum:
        return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
    # Every |moved - target| within the bound; a NaN fails the test.
    bound = 10.0 * tol * max(1.0, size)
    for (x0, x1, x2), (y0, y1, y2) in zip(moved, target):
        if not (abs(x0 - y0) <= bound and abs(x1 - y1) <= bound and abs(x2 - y2) <= bound):
            return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
    return EquivalenceVerdict(Verdict.EQUIVALENT, witness, dist)


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
    pair_c = _rows3(c, "decide_equiv_lmm input")
    pair_m = _rows3(m, "decide_equiv_lmm input")
    scale = _pow2_floor(max(1.0, pair_c[1], pair_m[1]))
    pair_c, pair_m = _scaled(pair_c, scale), _scaled(pair_m, scale)
    (c, _), (m, norm_m) = pair_c, pair_m
    yield _rel_dist(_lmm_triple(c), _lmm_triple(m))
    ca, cb = lmm_canonical(pair_c), lmm_canonical(pair_m)
    yield _rel_dist(ca.diag, cb.diag)
    # R1 = W_b1^T W_a1 and R2 = W_b2^T W_a2, then (R1 C) R2^T.
    (wa1, wa2), (wb1, wb2) = ca.witness, cb.witness
    r1, r2 = _matmul3(_transpose(wb1), wa1), _matmul3(_transpose(wb2), wa2)
    moved = _matmul3(_matmul3(r1, c), _transpose(r2))
    return (r1, r2), moved, m, norm_m


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
        NotRepresentable: if a canonical w of the divided inputs is not a
        finite double (sym_canonical), which only a v or v' near the top of
        the double range gives.
    """
    return _decide(tol, _sym_gates(state_a, state_b))


def _sym_gates(state_a, state_b):
    """The gates of decide_equiv_sym: the trace invariants, then the larger
    of the eigenvalue and the flip-matched w distance as one gate; returns
    the witness R, then (R v, R A R^T), (v', A') and max(|A'|_inf, |v'|_inf)
    of the divided inputs."""
    (v1, a1), (v2, a2) = state_a, state_b
    v1, v2 = _vec3(v1, "decide_equiv_sym input"), _vec3(v2, "decide_equiv_sym input")
    pair1 = _sym_rows3(a1, "decide_equiv_sym input")
    pair2 = _sym_rows3(a2, "decide_equiv_sym input")
    scale = _pow2_floor(max(1.0, pair1[1], pair2[1]))
    pair1, pair2 = _scaled(pair1, scale), _scaled(pair2, scale)
    (a1, _), (a2, norm2) = pair1, pair2
    yield _rel_dist(_trace_invariants(a1), _trace_invariants(a2))
    (x0, x1, x2), (y0, y1, y2) = v1, v2
    v1, v2 = [x0 / scale, x1 / scale, x2 / scale], [y0 / scale, y1 / scale, y2 / scale]
    fa, fb = sym_canonical(v1, pair1), sym_canonical(v2, pair2)
    # The lexicographic w jumps where a coordinate vanishes, so take
    # rel_dist(f * w_a, w_b) for f in EVEN_SIGN_FLIPS (-x - y = -(x + y)); the
    # first minimum keeps the identity wherever it attains it.
    (p0, p1, p2), (q0, q1, q2) = fa.w, fb.w
    d0, d1, d2 = max(1.0, abs(p0), abs(q0)), max(1.0, abs(p1), abs(q1)), max(1.0, abs(p2), abs(q2))
    s0, s1, s2 = abs(p0 - q0) / d0, abs(p1 - q1) / d1, abs(p2 - q2) / d2
    f0, f1, f2 = abs(p0 + q0) / d0, abs(p1 + q1) / d1, abs(p2 + q2) / d2
    w_dists = (max(s0, s1, s2), max(s0, f1, f2), max(f0, s1, f2), max(f0, f1, s2))
    # max and min drop a NaN; the sum of the terms, none negative, keeps it.
    nan = s0 + s1 + s2 + f0 + f1 + f2
    w_dist = min(w_dists) if nan == nan else nan
    yield _worst((_rel_dist(fa.eigs, fb.eigs), w_dist))
    # R = W_b^T (flip W_a), then R v and (R A) R^T.
    g0, g1, g2 = EVEN_SIGN_FLIPS[w_dists.index(w_dist)]
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = fa.witness
    r = _matmul3(_transpose(fb.witness), [[g0 * b00, g0 * b01, g0 * b02],
                                          [g1 * b10, g1 * b11, g1 * b12],
                                          [g2 * b20, g2 * b21, g2 * b22]])
    moved = _matmul3(_matmul3(r, a1), _transpose(r))
    y0, y1, y2 = v2
    return r, [_matvec3(r, v1), *moved], [v2, *a2], max(norm2, abs(y0), abs(y1), abs(y2))
