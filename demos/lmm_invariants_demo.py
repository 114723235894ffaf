#!/usr/bin/env python3
"""Invariants and canonical forms of locally maximally mixed states.

The 2-point correlation matrix C of a locally maximally mixed state
transforms as C -> R1 C R2^T under the rotation-pair action. The three
polynomials t2 = tr CC^T, t3 = det C, t4 = tr (CC^T)^2 generate all
polynomial invariants, and a signed singular value decomposition moves any
state onto the diagonal slice, giving canonical forms and constructive
equivalence tests.
"""

import numpy as np

from blochinv import (
    bell_projector,
    bloch_of,
    decide_equiv_lmm,
    haar_so3,
    lmm_canonical,
    lmm_invariants,
)
from blochinv.invariants import lmm_positive_cone_check

rng = np.random.default_rng(7)

print("=" * 70)
print("Bell states saturate the positive-cone bounds")
print("=" * 70)
for name in ("phi+", "phi-", "psi+", "psi-"):
    inv = lmm_invariants(bloch_of(bell_projector(name)).C)
    print(f"{name}: t2 = {inv.t2:+.3f}  t3 = {inv.t3:+.3f}  t4 = {inv.t4:+.3f}"
          f"  bounds_ok = {lmm_positive_cone_check(inv)}")
print("(all four Bell states carry the same invariants: they are all")
print(" local-unitary equivalent)")

print()
print("=" * 70)
print("Canonical form: rotate any C onto a signed diagonal")
print("=" * 70)
d_true = np.array([1.4, 0.9, -0.3])
c = haar_so3(rng) @ np.diag(d_true) @ haar_so3(rng).T
print("scrambled C =\n", c.round(4))
form = lmm_canonical(c)
print("recovered diagonal:", np.round(form.diag, 12), " (true:", d_true, ")")
r1, r2 = map(np.asarray, form.witness)
print("witness residual |R1 C R2^T - diag|:",
      np.max(np.abs(r1 @ c @ r2.T - np.diag(form.diag))))

print()
print("=" * 70)
print("Equivalence decisions with witnesses")
print("=" * 70)
ca = haar_so3(rng) @ np.diag(d_true) @ haar_so3(rng).T
cb = haar_so3(rng) @ np.diag(d_true) @ haar_so3(rng).T
verdict = decide_equiv_lmm(ca, cb)
print("two scrambles of the same diagonal:", verdict.verdict.value)
w1, w2 = map(np.asarray, verdict.witness)
print("witness maps the first onto the second, residual:",
      np.max(np.abs(w1 @ ca @ w2.T - cb)))

verdict = decide_equiv_lmm(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, -3.0]))
print("diag(1,2,3) vs diag(1,2,-3):", verdict.verdict.value,
      " (det C has opposite sign; t3 separates them)")

verdict = decide_equiv_lmm(np.zeros((3, 3)), np.zeros((3, 3)))
print("origin vs origin:", verdict.verdict.value,
      " (all singular values tie; any rotation pair is a witness)")

print()
print("=" * 70)
print("The positive cone in invariant coordinates")
print("=" * 70)
print("For C = diag(1, 0, 0) the state (I + sigma1 x sigma1)/4 is positive")
inv = lmm_invariants(np.diag([1.0, 0.0, 0.0]))
print("(t2, t3, t4) =", inv.as_tuple())
print("exact cone check (t2 <= 3, t3 <= (1-t2)/2, 2 t4 >= t2^2+2t2-1+8t3):",
      lmm_positive_cone_check(inv))
print("the commonly quoted upper bound t4 <= -2 t3 + (1-t2)^2/4 excludes it:",
      inv.t4 > -2 * inv.t3 + (1 - inv.t2) ** 2 / 4)
