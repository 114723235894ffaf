#!/usr/bin/env python3
"""Symmetric two-qubit states: swap-invariant states with Bloch data
(v, A), A symmetric, acted on by a single rotation as (Rv, R A R^T).

Six rational invariants generate everything: the octahedral ratios
X, Y, Z of the eigenbasis-rotated 1-point vector, plus tr A, tr A^2,
det A. This script walks through the octahedral invariants, the degree-9
relation p4^2 = P9(p1, p2, p3), the lifted invariant g and its
discriminant quotient, and the six-generator equivalence test.
"""

import numpy as np

from blochinv import (
    decide_equiv_sym,
    g_invariant,
    haar_so3,
    octahedral_group,
    octahedral_invariants,
    p9_eval,
    r_invariant,
    sym_canonical,
    sym_invariants,
)

rng = np.random.default_rng(11)

print("=" * 70)
print("Octahedral invariants of a 3-vector")
print("=" * 70)
v = np.array([1.0, 2.0, 3.0])
p = octahedral_invariants(v)
print("v =", v)
print(f"p1 = {p.p1}, p2 = {p.p2}, p3 = {p.p3}, p4 = {p.p4}")
print(f"X = {p.X}, Y = {p.Y}, Z = {p.Z}")
print("invariance is exact under all 24 signed rotations:")
g = octahedral_group()[17]
print("  element\n", g.matrix(), "\n  p4 unchanged:",
      octahedral_invariants(g.apply(v)).p4 == p.p4)

print()
print("the square of p4 is a polynomial in p1, p2, p3:")
print(f"  p4^2 = {p.p4 ** 2},  P9(p1, p2, p3) = {p9_eval(p.p1, p.p2, p.p3)}")

print()
print("=" * 70)
print("The lifted invariant g and the quotient g^2 / disc")
print("=" * 70)
lam = np.array([1.0, 2.0, 3.0])
w = np.ones(3)
print("on the diagonal slice, g(v, diag(l)) = v1 v2 v3 times the")
print("eigenvalue Vandermonde:",
      g_invariant(w, np.diag(lam)), "for v = (1,1,1), l = (1,2,3)")
print("g^2/disc restricts to (v1 v2 v3)^2:",
      r_invariant(w, np.diag(lam)))
r0 = haar_so3(rng)
a = r0.T @ np.diag(lam) @ r0
print("and it is a genuine rotation invariant:",
      r_invariant(r0 @ w, r0 @ a @ r0.T) - r_invariant(w, a), "drift")

print()
print("=" * 70)
print("The six generating invariants")
print("=" * 70)
v = np.array([0.7, -0.4, 0.2])
a = np.diag([1.3, 0.2, -0.8])
inv = sym_invariants(v, a)
print("(v, A) on the slice:", inv.as_dict())
r = haar_so3(rng)
inv_rot = sym_invariants(r @ v, r @ a @ r.T)
print("after a random rotation:",
      {k: round(val, 12) for k, val in inv_rot.as_dict().items()})

print()
print("=" * 70)
print("Canonical forms and equivalence")
print("=" * 70)
form = sym_canonical(np.array([-1.0, -2.0, 3.0]), np.diag([3.0, 2.0, 1.0]))
print("v = (-1,-2,3), A = diag(3,2,1) canonicalizes to w =", form.w,
      "via an even sign flip")

ra, rb = haar_so3(rng), haar_so3(rng)
sa = (ra.T @ v, ra.T @ a @ ra)
sb = (rb.T @ v, rb.T @ a @ rb)
verdict = decide_equiv_sym(sa, sb)
print("two scrambles of the same slice point:", verdict.verdict.value)
r = np.asarray(verdict.witness)
print("witness residual:",
      max(np.max(np.abs(r @ sa[0] - sb[0])), np.max(np.abs(r @ sa[1] @ r.T - sb[1]))))

verdict = decide_equiv_sym((v, a), (2.0 * v, a))
print("(v, A) vs (2v, A):", verdict.verdict.value,
      " (the 1-point scale is an invariant of the orbit)")
