#!/usr/bin/env python3
"""A tour of the Bloch-matrix representation of two-qubit states.

Builds a few states, reads off their 1- and 2-point correlation
coordinates, and demonstrates the load-bearing fact of the whole package:
conjugating a state by a local unitary pair rotates its Bloch coordinates
by the covering rotations, exactly.
"""

import numpy as np

from blochinv import (
    act_bloch,
    act_density,
    bell_projector,
    bloch_of,
    classify,
    density_of,
    haar_su2,
    partial_trace,
    random_bloch,
    so3_of_u2,
)
from blochinv.states import StateClass

rng = np.random.default_rng(2024)

print("=" * 70)
print("The maximally mixed state sits at the origin of Bloch coordinates")
print("=" * 70)
rho = 0.25 * np.eye(4, dtype=complex)
b = bloch_of(rho)
print("u =", b.u, " v =", b.v)
print("C =\n", b.C)
print("class:", classify(rho).value)

print()
print("=" * 70)
print("A Bell state: locally maximally mixed, maximally correlated")
print("=" * 70)
bell = bell_projector("phi+")
b = bloch_of(bell)
print("both partial traces equal I/2:")
print(np.asarray(partial_trace(bell, 1)).real)
print("u =", b.u, " v =", b.v)
print("C = diag(1, -1, 1):\n", np.round(b.C, 12))

print()
print("=" * 70)
print("Bloch coordinates and density matrices are interchangeable")
print("=" * 70)
b = random_bloch(StateClass.GENERAL, rng)
rho = density_of(b)
back = bloch_of(rho)
print("round-trip residual:",
      max(np.max(np.abs(np.subtract(back.u, b.u))), np.max(np.abs(np.subtract(back.C, b.C)))))

print()
print("=" * 70)
print("Equivariance: local unitaries act as a rotation pair")
print("=" * 70)
worst = 0.0
for _ in range(2000):
    u1, u2 = haar_su2(rng), haar_su2(rng)
    b = random_bloch(StateClass.GENERAL, rng)
    lhs = bloch_of(act_density(u1, u2, density_of(b)))
    rhs = act_bloch(so3_of_u2(u1), so3_of_u2(u2), b)
    worst = max(worst, np.max(np.abs(np.subtract(lhs.C, rhs.C))))
print("worst residual of B(U rho U*) vs (r(U1), r(U2)) . B(rho) over 2000")
print("Haar-random triples:", worst)

print()
print("A product state is neither locally maximally mixed nor symmetric:")
p0 = np.array([[1, 0], [0, 0]], dtype=complex)
p1 = np.array([[0, 0], [0, 1]], dtype=complex)
prod = np.kron(p0, p1)
b = bloch_of(prod)
print("u =", b.u, " v =", b.v, " class:", classify(prod).value)
