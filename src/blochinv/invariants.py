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

from .errors import DegenerateSpectrum, NotRepresentable, ZeroVector
from .linalg import (
    _det3_rows,
    _finite,
    _matmul3,
    _matvec3,
    _pow2_floor,
    _rows3,
    _scaled,
    _sym_rows3,
    _trace_invariants,
    _vec3,
    eig_sym3,
)

# A symmetric spectrum counts as degenerate when its discriminant (the
# product of squared eigenvalue gaps) is at most DISC_TOL * max(1, |A|_inf)^6.
DISC_TOL = 1e-12
# A 1-point vector counts as zero when |v|_inf <= ZERO_VECTOR_TOL.
ZERO_VECTOR_TOL = 1e-12


class _Record:
    """as_dict and as_tuple of a dataclass record, in field order: its
    instance dict holds exactly the fields, set in that order by __init__.
    Every field is a finite number, else NotRepresentable."""

    def __post_init__(self):
        _finite(self, vars(self).values(), "an invariant")

    def as_dict(self):
        return dict(vars(self))

    def as_tuple(self):
        return tuple(vars(self).values())


@dataclass
class LmmInvariants(_Record):
    t2: float
    t3: float
    t4: float


@dataclass
class LmmSectionInvariants(_Record):
    s1: float
    s2: float
    s3: float


@dataclass
class OctahedralInvariants(_Record):
    """Invariants of a 3-vector under signed permutations of determinant +1.

    p1, p2, p3 are the elementary symmetric polynomials in the squared
    coordinates; p4 is the product of the coordinates times the squared-
    coordinate Vandermonde. X, Y, Z are the scale-normalized generators
    p2/p1^2, p3/p1^3, p4/p1^4, defined (else ZeroVector) only where that
    power of p1 is positive: not at 0 nor where the power underflows.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def _ratio(self, p, power):
        if power > 0.0:
            return p / power
        raise ZeroVector("X, Y, Z are undefined: p1 or its power is 0")

    @property
    def X(self):
        return self._ratio(self.p2, self.p1 * self.p1)

    @property
    def Y(self):
        return self._ratio(self.p3, self.p1 * self.p1 * self.p1)

    @property
    def Z(self):
        return self._ratio(self.p4, self.p1 * self.p1 * self.p1 * self.p1)

    def as_dict(self):
        return {**super().as_dict(), "X": self.X, "Y": self.Y, "Z": self.Z}


@dataclass
class SymInvariants(_Record):
    pX: float
    pY: float
    pZ: float
    trA: float
    trA2: float
    detA: float


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
    x1, x2, x3 = _vec3(x, "lmm_section_invariants input")
    s1 = x1 * x1 + x2 * x2 + x3 * x3
    # Association matches the cofactor expansion used by det3 on diagonals.
    s2 = x1 * (x2 * x3)
    s3 = (x1 * x1) * (x1 * x1) + (x2 * x2) * (x2 * x2) + (x3 * x3) * (x3 * x3)
    return LmmSectionInvariants(s1=s1, s2=s2, s3=s3)


def lmm_section_jacobian(x):
    """Jacobian determinant det(d s_i / d x_j) of the slice invariants,
    in closed form: 8 (x1^2 x3^4 - x1^2 x2^4 - x2^2 x3^4 + x1^4 x2^2
    + x3^2 x2^4 - x1^4 x3^2). Raises NotRepresentable when it is not a
    finite double."""
    x1, x2, x3 = _vec3(x, "lmm_section_jacobian input")
    q1, q2, q3 = x1 * x1, x2 * x2, x3 * x3
    jac = 8.0 * (
        q1 * q3 * q3 - q1 * q2 * q2 - q2 * q3 * q3
        + q1 * q1 * q2 + q3 * q2 * q2 - q1 * q1 * q3
    )
    _finite("lmm_section_jacobian", (jac,), "the determinant")
    return jac


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
    """3x9 Jacobian of (t2, t3, t4) in the nine entries of C, as three rows
    of floats: grad t2 = 2C, grad t3 = cofactor matrix of C,
    grad t4 = 4 C C^T C. Raises NotRepresentable when an entry is not a
    finite double."""
    m = _rows3(c, "lmm_invariants_jacobian input")[0]
    # Cyclic indices carry the cofactor signs:
    # cof_ij = c[i+1][j+1] c[i+2][j+2] - c[i+1][j+2] c[i+2][j+1] (mod 3).
    cof = [m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
           - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
           for i in range(3) for j in range(3)]
    cct_c = _matmul3(_matmul3(m, list(zip(*m))), m)
    grad_t2, grad_t4 = [2.0 * x for row in m for x in row], [4.0 * x for row in cct_c for x in row]
    _finite("lmm_invariants_jacobian", (*grad_t2, *cof, *grad_t4), "an entry")
    return [grad_t2, cof, grad_t4]


def octahedral_invariants(v):
    """Invariants p1..p4 of a 3-vector under the 24 signed permutations of
    determinant +1.

    The symmetric parts are evaluated on the sorted squared coordinates and
    the sign of p4 is tracked through exact comparisons, so the returned
    values are bitwise invariant under the group, not only up to roundoff.
    """
    return _octahedral_unchecked(_vec3(v, "octahedral_invariants input"))


def _octahedral_unchecked(v):
    """octahedral_invariants on a 3-vector of floats already checked finite."""
    v0, v1, v2 = v
    a0, a1, a2 = sorted((abs(v0), abs(v1), abs(v2)))
    x0, x1, x2 = a0 * a0, a1 * a1, a2 * a2
    p1 = (x0 + x1) + x2
    p2 = (x0 * x1 + x0 * x2) + x1 * x2
    p3 = (x0 * x1) * x2
    mag = (a0 * a1) * a2
    vand = ((x1 - x0) * (x2 - x0)) * (x2 - x1)
    q0, q1, q2 = v0 * v0, v1 * v1, v2 * v2
    # The product of the signs of the coordinates and of the squared-
    # coordinate differences, each 1.0, -1.0 or 0.0; + 0.0 makes a zero p4
    # +0.0 whatever the signs, so that its sign bit is invariant too.
    sign = 1.0
    for x in (v0, v1, v2, q0 - q1, q0 - q2, q1 - q2):
        sign *= (x > 0.0) - (x < 0.0)
    p4 = sign * (mag * vand) + 0.0
    return OctahedralInvariants(p1=p1, p2=p2, p3=p3, p4=p4)


def p9_eval(p1, p2, p3):
    """The quasi-homogeneous degree-9 polynomial with P9(p1, p2, p3) = p4^2:
    p3 times the discriminant of x^3 - p1 x^2 + p2 x - p3.

    Evaluated in exact rational arithmetic: near the discriminant locus the
    five terms cancel down to machine epsilon times their magnitude, which
    a plain double evaluation cannot resolve. ValueError unless p1, p2, p3
    are finite; NotRepresentable when the value is not a finite double.
    """
    from fractions import Fraction  # here: no command-line path evaluates P9

    q1, q2, q3 = map(Fraction, _vec3((p1, p2, p3), "p9_eval input"))
    value = q3 * (
        q1 * q1 * q2 * q2
        - 4 * q2**3
        - 4 * q1**3 * q3
        + 18 * q1 * q2 * q3
        - 27 * q3 * q3
    )
    try:
        return float(value)
    except OverflowError:  # an exact value beyond the double range
        raise NotRepresentable("p9_eval: the value is not a finite double") from None


def g_invariant(v, a):
    """The lifted cubic invariant g(v, A) = det [v | A v | A^2 v].

    Equals the antisymmetric index sum over eps_ijk A_jl A_km A_mn v_i v_l
    v_n; on diagonal A = diag(l1, l2, l3) it evaluates to
    v1 v2 v3 (l2 - l1)(l3 - l1)(l3 - l2), the ascending Vandermonde order.
    Downstream use is g^2 / disc, which does not see the global sign.
    Raises NotRepresentable when g is not a finite double.
    """
    v = _vec3(v, "g_invariant input")
    g = _g_unchecked(v, _sym_rows3(a, "g_invariant input")[0])
    _finite("g_invariant", (g,), "an invariant")
    return g


def _g_unchecked(v, rows):
    """g_invariant on a 3-vector and the rows of a matrix already checked
    (finite, and the matrix symmetric)."""
    av = _matvec3(rows, v)
    return _det3_rows(*zip(v, av, _matvec3(rows, av)))


def _nondegenerate_eig(pair, message):
    """The eigenvalues and rotation rows, as lists, of a matrix given as the
    _Checked pair (rows, norm) from _rows3, from eig_sym3, which takes the
    pair as it is and makes the symmetry check; the power of two s that
    brings max(1, norm) into [1, 2); and the discriminant of a / s as its
    product of squared eigenvalue gaps, from that one diagonalization.
    Dividing by s is exact, so neither the degeneracy test nor g^2 / disc
    overflows.

    Raises:
        NotSymmetric: if the matrix is not symmetric within linalg.SYM_TOL.
        DegenerateSpectrum(message): if the discriminant is below DISC_TOL
        relative to max(1, norm)^6.
    """
    eigenvalues, rotation = eig_sym3(pair)
    norm = max(1.0, pair[1])
    scale = _pow2_floor(norm)
    e0, e1, e2 = eigenvalues
    l0, l1, l2 = e0 / scale, e1 / scale, e2 / scale
    disc = ((l0 - l1) ** 2 * (l0 - l2) ** 2) * ((l1 - l2) ** 2)
    if abs(disc) <= DISC_TOL * (norm / scale) ** 6:
        raise DegenerateSpectrum(message)
    return eigenvalues, rotation, scale, disc


def r_invariant(v, a):
    """The rotation invariant g(v, A)^2 / disc(A).

    On diagonal A it restricts to (v1 v2 v3)^2. Raises DegenerateSpectrum
    when the discriminant is below DISC_TOL relative to scale^6, and
    NotRepresentable when the value is not a finite double.
    """
    v = _vec3(v, "r_invariant input")
    pair = _rows3(a, "r_invariant input")
    _, _, scale, disc = _nondegenerate_eig(pair, "discriminant vanishes; invariant undefined")
    g = _g_unchecked(v, _scaled(pair, scale)[0])
    r = (g * g) / disc
    _finite("r_invariant", (r,), "an invariant")
    return r


def sym_invariants(v, a):
    """The six generating invariants of a symmetric state (v, A).

    Diagonalizes A with a rotation R (eigenvalues sorted descending),
    rotates v into the eigenbasis and evaluates the octahedral X, Y, Z
    there; tr A, tr A^2 and det A are evaluated directly. The residual
    freedom in R is an even sign flip of the eigenbasis, under which
    X, Y, Z are invariant, so the result does not depend on the
    eigendecomposition branch. pX, pY and pZ are finite at any scale of v.

    Raises:
        DegenerateSpectrum: if A has (near-)repeated eigenvalues.
        ZeroVector: if |v|_inf <= ZERO_VECTOR_TOL.
    """
    v = _vec3(v, "sym_invariants input")
    pair = _rows3(a, "sym_invariants input")
    _, rotation, _, _ = _nondegenerate_eig(pair, "repeated eigenvalues; invariants undefined")
    x0, x1, x2 = v
    norm = max(abs(x0), abs(x1), abs(x2))
    if norm <= ZERO_VECTOR_TOL:
        raise ZeroVector("zero 1-point vector; pX, pY, pZ undefined")
    # X, Y have degree 0 in v and Z degree 1 (Z^2 = p1 P9(1, X, Y)); taking them
    # on R v / s, s = 2^floor(log2 |v|_inf), is exact and overflows no p_k.
    scale = _pow2_floor(norm)
    oct_inv = _octahedral_unchecked(_matvec3(rotation, [x0 / scale, x1 / scale, x2 / scale]))
    tr_a, tr_a2, det_a = _trace_invariants(pair[0])
    return SymInvariants(pX=oct_inv.X, pY=oct_inv.Y, pZ=oct_inv.Z * scale,
                         trA=tr_a, trA2=tr_a2, detA=det_a)
