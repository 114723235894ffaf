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
reject, the canonical-form distance and the witness residual.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpectrum
from .invariants import _nondegenerate_eig, lmm_invariants
from .linalg import _rows3, _trace_invariants, norm_inf, signed_svd3

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
    metric used throughout the package."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    den = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / den))


def lmm_canonical(c, tie_tol=TIE_TOL):
    """Canonical form of a 2-point matrix under rotation pairs.

    Always succeeds; the degenerate flag is set when singular values
    collide within tie_tol relative to scale, in which case the witness is
    no longer unique (the diagonal still is a complete orbit datum).
    """
    c = np.asarray(c, dtype=float)
    svd = signed_svd3(c)
    scale = max(1.0, float(svd.diag[0]))
    s = np.abs(svd.diag)
    degenerate = bool(s[0] - s[1] <= tie_tol * scale or s[1] - s[2] <= tie_tol * scale)
    witness = (svd.left.T.copy(), svd.right.T.copy())
    return LmmCanonicalForm(diag=svd.diag.copy(), witness=witness, degenerate=degenerate)


def sym_canonical(v, a):
    """Canonical form of a symmetric state (v, A) under rotations.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues; outside
        that locus the orbit has no slice-unique representative.
    """
    v = np.asarray(v, dtype=float)
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
    c = np.asarray(c, dtype=float)
    m = np.asarray(m, dtype=float)
    dist = rel_dist(lmm_invariants(c).as_tuple(), lmm_invariants(m).as_tuple())
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    ca = lmm_canonical(c)
    cb = lmm_canonical(m)
    dist = max(dist, rel_dist(ca.diag, cb.diag))
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    r1 = cb.witness[0].T @ ca.witness[0]
    r2 = cb.witness[1].T @ ca.witness[1]
    residual = norm_inf(r1 @ c @ r2.T - m)
    if residual <= 10.0 * tol * max(1.0, norm_inf(m)):
        return EquivalenceVerdict(Verdict.EQUIVALENT, (r1, r2), dist)
    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)


def decide_equiv_sym(state_a, state_b, tol=DEFAULT_TOL):
    """Decide whether two symmetric states (v, A) and (v', A') lie on the
    same rotation orbit.

    NOT_EQUIVALENT comes from the (tr A, tr A^2, det A) fast reject, run
    before any diagonalization, or the distance between canonical
    eigenvalues and w; EQUIVALENT only from a witness R with (R v, R A R^T)
    within 10 tol max(1, |A'|_inf, |v'|_inf) of (v', A'), a zero v
    included; INDETERMINATE otherwise, or for a (near-)repeated spectrum.
    """
    v1, a1 = (np.asarray(x, dtype=float) for x in state_a)
    v2, a2 = (np.asarray(x, dtype=float) for x in state_b)

    base1, base2 = (_trace_invariants(_rows3(a, "decide_equiv_sym input")[0]) for a in (a1, a2))
    dist = rel_dist(base1, base2)
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    try:
        ca = sym_canonical(v1, a1)
        cb = sym_canonical(v2, a2)
    except DegenerateSpectrum:
        return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
    dist = max(dist, rel_dist(ca.eigs, cb.eigs), rel_dist(ca.w, cb.w))
    if dist > tol:
        return EquivalenceVerdict(Verdict.NOT_EQUIVALENT, None, dist)
    r = cb.witness.T @ ca.witness
    residual = max(
        norm_inf(r @ v1 - v2),
        norm_inf(r @ a1 @ r.T - a2),
    )
    scale = max(1.0, norm_inf(a2), norm_inf(v2))
    if residual <= 10.0 * tol * scale:
        return EquivalenceVerdict(Verdict.EQUIVALENT, r, dist)
    return EquivalenceVerdict(Verdict.INDETERMINATE, None, dist)
