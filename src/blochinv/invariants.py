"""Invariant functions of two-qubit states under local rotations.

For locally maximally mixed states: the generating triple
t2 = tr C C^T, t3 = det C, t4 = tr (C C^T)^2 together with the exact
positive cone and the diagonal-slice invariants (s1, s2, s3). For symmetric
states: the octahedral invariants of a 3-vector, the lifted invariant
g(v, A) with its discriminant quotient g^2 / disc, and the six generators
(pX, pY, pZ, tr A, tr A^2, det A).

The scalar expressions are evaluated in fixed association orders so that
the diagonal restriction identities and the finite-group invariance of the
octahedral polynomials hold bit for bit, not just within tolerance.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateSpectrum, ZeroVector
from .linalg import (
    _det3_rows,
    _pow2_floor,
    _rows3,
    _sym_rows3,
    _trace_invariants,
    det3,
    eig_sym3,
    norm_inf,
    require_finite,
)

# A symmetric spectrum counts as degenerate when its discriminant (the
# product of squared eigenvalue gaps) is at most DISC_TOL * max(1, |A|_inf)^6.
DISC_TOL = 1e-12
# A 1-point vector counts as zero when |v|_inf <= ZERO_VECTOR_TOL.
ZERO_VECTOR_TOL = 1e-12


@dataclass
class LmmInvariants:
    t2: float
    t3: float
    t4: float

    def as_dict(self):
        return {"t2": self.t2, "t3": self.t3, "t4": self.t4}

    def as_tuple(self):
        return (self.t2, self.t3, self.t4)


@dataclass
class LmmSectionInvariants:
    s1: float
    s2: float
    s3: float

    def as_dict(self):
        return {"s1": self.s1, "s2": self.s2, "s3": self.s3}

    def as_tuple(self):
        return (self.s1, self.s2, self.s3)


@dataclass
class OctahedralInvariants:
    """Invariants of a 3-vector under signed permutations of determinant +1.

    p1, p2, p3 are the elementary symmetric polynomials in the squared
    coordinates; p4 is the product of the coordinates times the squared-
    coordinate Vandermonde. X, Y, Z are the scale-normalized generators
    p2/p1^2, p3/p1^3, p4/p1^4, defined only for nonzero vectors.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def _check_nonzero(self):
        if self.p1 <= 0.0:
            raise ZeroVector("X, Y, Z are undefined for the zero vector")

    @property
    def X(self):
        self._check_nonzero()
        return self.p2 / (self.p1 * self.p1)

    @property
    def Y(self):
        self._check_nonzero()
        return self.p3 / (self.p1 * self.p1 * self.p1)

    @property
    def Z(self):
        self._check_nonzero()
        return self.p4 / (self.p1 * self.p1 * self.p1 * self.p1)

    def as_dict(self):
        return {
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "p4": self.p4,
            "X": self.X,
            "Y": self.Y,
            "Z": self.Z,
        }


@dataclass
class SymInvariants:
    pX: float
    pY: float
    pZ: float
    trA: float
    trA2: float
    detA: float

    def as_dict(self):
        return {
            "pX": self.pX,
            "pY": self.pY,
            "pZ": self.pZ,
            "trA": self.trA,
            "trA2": self.trA2,
            "detA": self.detA,
        }

    def as_tuple(self):
        return (self.pX, self.pY, self.pZ, self.trA, self.trA2, self.detA)


def lmm_invariants(c):
    """The degree 2, 3, 4 rotation-pair invariants of a 2-point matrix.

    t2 and t4 are written as explicit ordered sums so that on diagonal
    input they reproduce lmm_section_invariants bit for bit.
    """
    return LmmInvariants(*_lmm_triple(_rows3(c, "lmm_invariants input")[0]))


def _lmm_triple(rows):
    """(t2, t3, t4) of a 2-point matrix given as rows of floats."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = rows
    t2 = (
        c00 * c00 + c01 * c01 + c02 * c02
        + c10 * c10 + c11 * c11 + c12 * c12
        + c20 * c20 + c21 * c21 + c22 * c22
    )
    t3 = _det3_rows(*rows)
    m00 = c00 * c00 + c01 * c01 + c02 * c02
    m01 = c00 * c10 + c01 * c11 + c02 * c12
    m02 = c00 * c20 + c01 * c21 + c02 * c22
    m11 = c10 * c10 + c11 * c11 + c12 * c12
    m12 = c10 * c20 + c11 * c21 + c12 * c22
    m22 = c20 * c20 + c21 * c21 + c22 * c22
    t4 = (
        m00 * m00 + m01 * m01 + m02 * m02
        + m01 * m01 + m11 * m11 + m12 * m12
        + m02 * m02 + m12 * m12 + m22 * m22
    )
    return t2, t3, t4


def lmm_section_invariants(x):
    """Slice invariants of a diagonal 2-point matrix diag(x1, x2, x3):
    s1 = sum x_i^2, s2 = x1 x2 x3, s3 = sum x_i^4."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    s1 = x1 * x1 + x2 * x2 + x3 * x3
    # Association matches the cofactor expansion used by det3 on diagonals.
    s2 = x1 * (x2 * x3)
    s3 = (x1 * x1) * (x1 * x1) + (x2 * x2) * (x2 * x2) + (x3 * x3) * (x3 * x3)
    return LmmSectionInvariants(s1=s1, s2=s2, s3=s3)


def lmm_section_jacobian(x):
    """Jacobian determinant det(d s_i / d x_j) of the slice invariants,
    in closed form: 8 (x1^2 x3^4 - x1^2 x2^4 - x2^2 x3^4 + x1^4 x2^2
    + x3^2 x2^4 - x1^4 x3^2)."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    q1, q2, q3 = x1 * x1, x2 * x2, x3 * x3
    return 8.0 * (
        q1 * q3 * q3 - q1 * q2 * q2 - q2 * q3 * q3
        + q1 * q1 * q2 + q3 * q2 * q2 - q1 * q1 * q3
    )


def lmm_positive_cone_check(inv, tol=1e-9):
    """Exact invariant-level positivity test for locally maximally mixed
    states: t2 <= 3, t3 <= (1 - t2)/2 and 2 t4 >= t2^2 + 2 t2 - 1 + 8 t3.

    These are the conditions e_k >= 0 on the elementary symmetric
    functions of the density-matrix eigenvalues, which evaluate to
    e2 = (3 - t2)/8, e3 = (1 - t2 - 2 t3)/16 and
    e4 = (1 - 2 t2 - t2^2 - 8 t3 + 2 t4)/256 on this stratum; together
    they characterize the positive semidefinite cone exactly.
    """
    t2, t3, t4 = inv.t2, inv.t3, inv.t4
    return bool(
        t2 <= 3.0 + tol
        and t3 <= 0.5 * (1.0 - t2) + tol
        and 2.0 * t4 >= t2 * t2 + 2.0 * t2 - 1.0 + 8.0 * t3 - tol
    )


def lmm_invariants_jacobian(c):
    """3x9 Jacobian of (t2, t3, t4) in the nine entries of C:
    grad t2 = 2C, grad t3 = cofactor matrix of C, grad t4 = 4 C C^T C."""
    c = np.asarray(c, dtype=float)
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(c, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * (
                minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            )
    rows = [2.0 * c, cof, 4.0 * (c @ c.T @ c)]
    return np.stack([r.reshape(9) for r in rows])


def octahedral_invariants(v):
    """Invariants p1..p4 of a 3-vector under the 24 signed permutations of
    determinant +1.

    The symmetric parts are evaluated on the sorted squared coordinates and
    the sign of p4 is tracked through exact comparisons, so the returned
    values are bitwise invariant under the group, not only up to roundoff.
    """
    v = np.asarray(v, dtype=float)
    require_finite(v, "octahedral_invariants input")
    a = np.sort(np.abs(v))
    a0, a1, a2 = float(a[0]), float(a[1]), float(a[2])
    x0, x1, x2 = a0 * a0, a1 * a1, a2 * a2
    p1 = (x0 + x1) + x2
    p2 = (x0 * x1 + x0 * x2) + x1 * x2
    p3 = (x0 * x1) * x2
    mag = (a0 * a1) * a2
    vand = ((x1 - x0) * (x2 - x0)) * (x2 - x1)
    q0, q1, q2 = float(v[0]) ** 2, float(v[1]) ** 2, float(v[2]) ** 2
    sgn = float(np.sign(v[0]) * np.sign(v[1]) * np.sign(v[2]))
    tau = float(np.sign(q0 - q1) * np.sign(q0 - q2) * np.sign(q1 - q2))
    p4 = (sgn * tau) * (mag * vand)
    return OctahedralInvariants(p1=p1, p2=p2, p3=p3, p4=p4)


def p9_eval(p1, p2, p3):
    """The quasi-homogeneous degree-9 polynomial with P9(p1, p2, p3) = p4^2:
    p3 times the discriminant of x^3 - p1 x^2 + p2 x - p3.

    Evaluated in exact rational arithmetic: near the discriminant locus the
    five terms cancel down to machine epsilon times their magnitude, which
    a plain double evaluation cannot resolve.
    """
    q1, q2, q3 = Fraction(float(p1)), Fraction(float(p2)), Fraction(float(p3))
    value = q3 * (
        q1 * q1 * q2 * q2
        - 4 * q2**3
        - 4 * q1**3 * q3
        + 18 * q1 * q2 * q3
        - 27 * q3 * q3
    )
    return float(value)


def g_invariant(v, a):
    """The lifted cubic invariant g(v, A) = det [v | A v | A^2 v].

    Equals the antisymmetric index sum over eps_ijk A_jl A_km A_mn v_i v_l
    v_n; on diagonal A = diag(l1, l2, l3) it evaluates to
    v1 v2 v3 (l2 - l1)(l3 - l1)(l3 - l2), the ascending Vandermonde order.
    Downstream use is g^2 / disc, which does not see the global sign.
    """
    _sym_rows3(a, "g_invariant input")
    return _g_unchecked(v, np.asarray(a, dtype=float))


def _g_unchecked(v, a):
    """g_invariant on a matrix already checked finite and symmetric."""
    v = np.asarray(v, dtype=float)
    av = a @ v
    aav = a @ av
    return det3(np.column_stack([v, av, aav]))


def _nondegenerate_eig(a, message):
    """eig_sym3 of a symmetric matrix, the power of two s that brings
    max(1, |a|_inf) into [1, 2), and the discriminant of a / s as its product
    of squared eigenvalue gaps, from one diagonalization. Dividing by s is
    exact, so neither the degeneracy test nor g^2 / disc overflows.

    Raises:
        DegenerateSpectrum(message): if the discriminant is below DISC_TOL
        relative to max(1, |a|_inf)^6.
    """
    eig = eig_sym3(a)
    norm = max(1.0, norm_inf(a))
    scale = _pow2_floor(norm)
    l0, l1, l2 = (eig.eigenvalues / scale).tolist()
    disc = ((l0 - l1) ** 2 * (l0 - l2) ** 2) * ((l1 - l2) ** 2)
    if abs(disc) <= DISC_TOL * (norm / scale) ** 6:
        raise DegenerateSpectrum(message)
    return eig, scale, disc


def r_invariant(v, a):
    """The rotation invariant g(v, A)^2 / disc(A).

    On diagonal A it restricts to (v1 v2 v3)^2. Raises DegenerateSpectrum
    when the discriminant is below DISC_TOL relative to scale^6.
    """
    a = np.asarray(a, dtype=float)
    _, scale, disc = _nondegenerate_eig(a, "discriminant vanishes; invariant undefined")
    g = _g_unchecked(v, a / scale)
    return (g * g) / disc


def sym_invariants(v, a):
    """The six generating invariants of a symmetric state (v, A).

    Diagonalizes A with a rotation R (eigenvalues sorted descending),
    rotates v into the eigenbasis and evaluates the octahedral X, Y, Z
    there; tr A, tr A^2 and det A are evaluated directly. The residual
    freedom in R is an even sign flip of the eigenbasis, under which
    X, Y, Z are invariant, so the result does not depend on the
    eigendecomposition branch.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues.
        ZeroVector: if |v|_inf <= ZERO_VECTOR_TOL.
    """
    v = np.asarray(v, dtype=float)
    eig, _, _ = _nondegenerate_eig(a, "repeated eigenvalues; invariants undefined")
    if all(abs(x) <= ZERO_VECTOR_TOL for x in v.tolist()):
        raise ZeroVector("zero 1-point vector; pX, pY, pZ undefined")
    oct_inv = octahedral_invariants(eig.rotation @ v)
    tr_a, tr_a2, det_a = _trace_invariants(np.asarray(a, dtype=float).tolist())
    return SymInvariants(pX=oct_inv.X, pY=oct_inv.Y, pZ=oct_inv.Z,
                         trA=tr_a, trA2=tr_a2, detA=det_a)
