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
into [1, 2), 1 below norm 2, so that no invariant overflows; distances and
residuals are those of the divided inputs.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrum
from .invariants import _lmm_triple, _nondegenerate_eig
from .linalg import (
    _pow2_floor,
    _rows3,
    _sym_rows3,
    _trace_invariants,
    _vec3,
    norm_inf,
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


def _worst(values):
    """The largest of values, 0.0 for none, or the first NaN among them.

    rel_dist and every residual of the verify battery reduce through it:
    Python's max keeps its running value against a NaN, which would hide it.
    """
    worst = 0.0
    for x in values:
        if x != x:
            return x
        if x > worst:
            worst = x
    return worst


def rel_dist(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|), the uniform comparison
    metric used throughout the package, on Python floats (the inputs are
    short). NaN if any entry is NaN or infinite."""
    pairs = zip(*(np.asarray(x, dtype=float).ravel().tolist() for x in (a, b)), strict=True)
    return _worst(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in pairs)


def lmm_canonical(c):
    """Canonical form of a 2-point matrix under rotation pairs.

    Always succeeds; the degenerate flag is set when singular values
    collide within TIE_TOL relative to scale, in which case the witness is
    no longer unique (the diagonal still is a complete orbit datum).
    """
    svd = signed_svd3(c)
    scale = max(1.0, float(svd.diag[0]))
    s = np.abs(svd.diag)
    degenerate = bool(s[0] - s[1] <= TIE_TOL * scale or s[1] - s[2] <= TIE_TOL * scale)
    witness = (svd.left.T.copy(), svd.right.T.copy())
    return LmmCanonicalForm(diag=svd.diag.copy(), witness=witness, degenerate=degenerate)


def sym_canonical(v, a):
    """Canonical form of a symmetric state (v, A) under rotations.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues; outside
        that locus the orbit has no slice-unique representative.
    """
    v = _vec3(v, "sym_canonical input")
    eig, _, _ = _nondegenerate_eig(a, "repeated eigenvalues; no canonical form")
    w0 = eig.rotation @ v
    coords = w0.tolist()
    # The first flip whose image of w0 is lexicographically greatest.
    flips = np.array(max(EVEN_SIGN_FLIPS, key=lambda f: [s * t for s, t in zip(f, coords)]))
    witness = flips[:, None] * eig.rotation
    return SymCanonicalForm(eigs=eig.eigenvalues.copy(), w=flips * w0, witness=witness)


def decide_equiv_lmm(c, m, tol=DEFAULT_TOL):
    """Decide whether two 2-point matrices lie on the same rotation-pair
    orbit.

    NOT_EQUIVALENT comes from the invariant fast reject or the distance
    between canonical diagonals; EQUIVALENT only from a composed witness
    (R1, R2) with |R1 C R2^T - M|_inf <= 10 tol max(1, |M|_inf), which tied
    singular values leave non-unique but valid; INDETERMINATE otherwise.
    """
    (rows_c, norm_c), (rows_m, norm_m) = (_rows3(x, "decide_equiv_lmm input") for x in (c, m))
    scale = _pow2_floor(max(1.0, norm_c, norm_m))
    dist = rel_dist(*(_lmm_triple([[x / scale for x in row] for row in rows])
                      for rows in (rows_c, rows_m)))
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    c, m = np.array(rows_c) / scale, np.array(rows_m) / scale
    ca, cb = lmm_canonical(c), lmm_canonical(m)
    dist = max(dist, rel_dist(ca.diag, cb.diag))
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    r1 = cb.witness[0].T @ ca.witness[0]
    r2 = cb.witness[1].T @ ca.witness[1]
    residual = norm_inf(r1 @ c @ r2.T - m)
    if residual <= 10.0 * tol * max(1.0, norm_m / scale):
        return EquivalenceVerdict(Verdict.EQUIVALENT, (r1, r2), dist)
    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)


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
        ValueError: if v, v', A or A' has the wrong shape or a NaN or Inf
        entry.
        NotSymmetric: if A or A' is not symmetric within linalg.SYM_TOL.
    """
    (v1, a1), (v2, a2) = state_a, state_b
    v1, v2 = (_vec3(v, "decide_equiv_sym input") for v in (v1, v2))
    (rows1, norm1), (rows2, norm2) = (_sym_rows3(a, "decide_equiv_sym input") for a in (a1, a2))
    scale = _pow2_floor(max(1.0, norm1, norm2))
    base1, base2 = (_trace_invariants([[x / scale for x in row] for row in rows])
                    for rows in (rows1, rows2))
    dist = rel_dist(base1, base2)
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    v1, a1, v2, a2 = (np.array(x) / scale for x in (v1, rows1, v2, rows2))
    try:
        ca, cb = sym_canonical(v1, a1), sym_canonical(v2, a2)
    except DegenerateSpectrum:
        return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
    # The lexicographic w jumps where a coordinate vanishes, so take
    # rel_dist(f * w_a, w_b) for f in EVEN_SIGN_FLIPS (-x - y = -(x + y)); the
    # first minimum keeps the identity wherever it attains it.
    wa, wb = ca.w.tolist(), cb.w.tolist()
    den = [max(1.0, abs(x), abs(y)) for x, y in zip(wa, wb)]
    s0, s1, s2 = (abs(x - y) / d for x, y, d in zip(wa, wb, den))
    f0, f1, f2 = (abs(x + y) / d for x, y, d in zip(wa, wb, den))
    w_dists = [max(s0, s1, s2), max(s0, f1, f2), max(f0, s1, f2), max(f0, f1, s2)]
    w_dist = min(w_dists)
    dist = max(dist, rel_dist(ca.eigs, cb.eigs), w_dist)
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    flip = np.array(EVEN_SIGN_FLIPS[w_dists.index(w_dist)])
    r = cb.witness.T @ (flip[:, None] * ca.witness)
    residual = max(norm_inf(r @ v1 - v2), norm_inf(r @ a1 @ r.T - a2))
    if residual <= 10.0 * tol * max(1.0, norm2 / scale, norm_inf(v2)):
        return EquivalenceVerdict(Verdict.EQUIVALENT, r, dist)
    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
