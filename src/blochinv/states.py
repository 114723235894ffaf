"""Two-qubit state model: density operators on the trace-one Hermitian
affine space, the Bloch-matrix representation built from 1- and 2-point
spin correlation functions, partial traces and state classification.

Every function here runs on Python complex numbers and floats and none
imports numpy: a state is read from nested lists or an array (through its
tolist) and comes back as rows of Python complex numbers, Bloch fields as
lists of floats. The Bloch map and its inverse are closed forms summed in
the order of the einsum over the Pauli basis sigma_a (x) sigma_b, so they
match it in float.hex; partial_trace, bloch_vector (up to the sign of a
zero) and bell_projector match numpy's trace, matrix product and outer
product the same way. The seeded random draws live in groups.

Every two-qubit state argument is read once by _checked_density, one
complex() per entry, and its tests and correlation table run in
_density_body behind a memo of its last 16 distinct inputs (an lru_cache
of linalg._MEMO_SIZE entries, as the kernel bodies have), because callers
read the same state several times: classify after bloch_of, or the CLI's
parse, table and positivity test of one density file. The key is the bytes
of the 32 doubles of the converted entries, so -0.0 and 0.0 are different
keys, and an array, its list and its tuple share one. The memo stores
only the table, a tuple, never an error: each call makes its own
NotRepresentable test on the table and returns fresh lists, and
validate_density and is_positive read the caller's own converted complex
numbers. So no output bit depends on the memo's state.

Index conventions, fixed once for the whole package:
  * qubit 1 is the left tensor factor, composite index = 2*i1 + i2;
  * the tensor-swap involution exchanges basis states |01> and |10>.
"""

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum

from .errors import NonHermitianInput, NotRepresentable, StateFormatError
from .linalg import _MEMO_SIZE, _SEQUENCE, _pow2_floor, _refused, _rows3, _shape, _vec3

# The Pauli matrices sigma_0..sigma_3 and the tensor swap, as rows.
PAULI = (
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
)

SWAP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]

DEFAULT_CLASS_TOL = 1e-9
# Relative tolerance of the Hermitian and unit-trace checks of validate_density.
DENSITY_TOL = 1e-12
# is_positive accepts eigenvalues down to -POSITIVITY_TOL.
POSITIVITY_TOL = 1e-10


class StateClass(Enum):
    GENERAL = "general"
    LMM = "lmm"
    SYMMETRIC = "sym"
    SYMMETRIC_LMM = "symlmm"


@dataclass
class BlochMatrix:
    """Bloch-matrix coordinates of a two-qubit state.

    u, v are the 1-point correlation vectors of qubit 1 and qubit 2;
    C is the 3x3 matrix of 2-point correlations. The implicit (0,0)
    entry is 1 by trace normalization. bloch_of fills them with lists of
    Python floats (C as rows); density_of reads any 3-vectors and 3x3
    matrix, arrays included.
    """

    u: list
    v: list
    C: list


def validate_density(rho):
    """Check the trace-one Hermitian invariants of a density operator.

    The one check of every two-qubit state argument: rho is nested lists or
    an array (read through its tolist), and the result is its rows of Python
    complex numbers. StateFormatError unless rho is a 4x4 matrix of numbers
    (complex() reads numeric strings too) with unit trace, ValueError for a
    NaN or Inf entry or an integer beyond the double range, and
    NonHermitianInput unless rho is Hermitian, to DENSITY_TOL * max(1,
    |rho|_inf). Both tests run on rho divided by a power of two, so that
    they stay finite up to the top of the double range.
    Positivity is deliberately not required: states range over the whole
    trace-one Hermitian affine space, and positivity is reported separately
    by is_positive.
    """
    return _checked_density(rho)[0]


def _density_shape_error(rho):
    return StateFormatError(f"expected a 4x4 matrix, got shape {_shape(rho)}")


def _checked_density(rho):
    """validate_density's check, one straight-line pass on named locals:
    one shape test and one complex() per entry here, then the finiteness
    and tolerance tests in _density_body, through its memo, on the packed
    real and imaginary parts of the 16 entries. Returns the rows of rho,
    fresh lists of the complex numbers converted here, and the body's
    table."""
    rho = rho.tolist() if hasattr(rho, "tolist") else rho
    if not (isinstance(rho, _SEQUENCE) and len(rho) == 4):
        raise _density_shape_error(rho)
    r0, r1, r2, r3 = rho
    if not (isinstance(r0, _SEQUENCE) and isinstance(r1, _SEQUENCE) and isinstance(r2, _SEQUENCE)
            and isinstance(r3, _SEQUENCE) and len(r0) == len(r1) == len(r2) == len(r3) == 4):
        raise _density_shape_error(rho)
    (z00, z01, z02, z03), (z10, z11, z12, z13), (z20, z21, z22, z23), (z30, z31, z32, z33) = rho
    try:
        z00, z01, z02, z03 = complex(z00), complex(z01), complex(z02), complex(z03)
        z10, z11, z12, z13 = complex(z10), complex(z11), complex(z12), complex(z13)
        z20, z21, z22, z23 = complex(z20), complex(z21), complex(z22), complex(z23)
        z30, z31, z32, z33 = complex(z30), complex(z31), complex(z32), complex(z33)
    except (TypeError, ValueError, OverflowError):
        if _shape(rho) != (4, 4):  # nested one level too deep
            raise _density_shape_error(rho) from None
        if _refused(complex, (*r0, *r1, *r2, *r3)):
            raise StateFormatError("expected a 4x4 matrix of numbers, got an entry that is not "
                                   "a number") from None
        raise ValueError("density matrix contains NaN or Inf entries") from None
    return [[z00, z01, z02, z03], [z10, z11, z12, z13], [z20, z21, z22, z23],
            [z30, z31, z32, z33]], _density_body(struct.pack(
                "32d", z00.real, z01.real, z02.real, z03.real, z10.real, z11.real, z12.real,
                z13.real, z20.real, z21.real, z22.real, z23.real, z30.real, z31.real, z32.real,
                z33.real, z00.imag, z01.imag, z02.imag, z03.imag, z10.imag, z11.imag, z12.imag,
                z13.imag, z20.imag, z21.imag, z22.imag, z23.imag, z30.imag, z31.imag, z32.imag,
                z33.imag))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _density_body(key):
    """The tests and the correlation table of a density matrix, on the
    packed real and then imaginary parts of its 16 entries in row-major
    order: the table, tr(rho sigma_a (x) sigma_b) in row-major order, as a
    tuple. An error is raised, never stored.

    One finiteness test of the 32 parts (x * 0.0 is 0.0 unless x is NaN or
    +-Inf), then the Hermitian and unit-trace tests on the 32 named parts
    of rho / s, s the power of two that brings max(1, largest real or
    imaginary part) into [1, 2), then the 16 table sums times s.
    """
    (x00, x01, x02, x03, x10, x11, x12, x13, x20, x21, x22, x23, x30, x31, x32, x33,
     y00, y01, y02, y03, y10, y11, y12, y13, y20, y21, y22, y23, y30, y31, y32, y33) = (
        struct.unpack("32d", key))
    if (x00 * 0.0 + x01 * 0.0 + x02 * 0.0 + x03 * 0.0 + x10 * 0.0 + x11 * 0.0 + x12 * 0.0
            + x13 * 0.0 + x20 * 0.0 + x21 * 0.0 + x22 * 0.0 + x23 * 0.0 + x30 * 0.0 + x31 * 0.0
            + x32 * 0.0 + x33 * 0.0 + y00 * 0.0 + y01 * 0.0 + y02 * 0.0 + y03 * 0.0 + y10 * 0.0
            + y11 * 0.0 + y12 * 0.0 + y13 * 0.0 + y20 * 0.0 + y21 * 0.0 + y22 * 0.0 + y23 * 0.0
            + y30 * 0.0 + y31 * 0.0 + y32 * 0.0 + y33 * 0.0) != 0.0:
        raise ValueError("density matrix contains NaN or Inf entries")
    # Both sides of each test divided by s, exact, so that neither
    # |rho|_inf, rho - rho^dagger nor the trace overflows. |z| is hypot.
    scale = _pow2_floor(max(
        1.0, abs(x00), abs(x01), abs(x02), abs(x03), abs(x10), abs(x11), abs(x12), abs(x13),
        abs(x20), abs(x21), abs(x22), abs(x23), abs(x30), abs(x31), abs(x32), abs(x33),
        abs(y00), abs(y01), abs(y02), abs(y03), abs(y10), abs(y11), abs(y12), abs(y13),
        abs(y20), abs(y21), abs(y22), abs(y23), abs(y30), abs(y31), abs(y32), abs(y33)))
    if scale != 1.0:  # x / 1.0 is x
        (x00, x01, x02, x03, x10, x11, x12, x13, x20, x21, x22, x23, x30, x31, x32, x33,
         y00, y01, y02, y03, y10, y11, y12, y13, y20, y21, y22, y23, y30, y31, y32, y33) = (
            x00 / scale, x01 / scale, x02 / scale, x03 / scale, x10 / scale, x11 / scale,
            x12 / scale, x13 / scale, x20 / scale, x21 / scale, x22 / scale, x23 / scale,
            x30 / scale, x31 / scale, x32 / scale, x33 / scale, y00 / scale, y01 / scale,
            y02 / scale, y03 / scale, y10 / scale, y11 / scale, y12 / scale, y13 / scale,
            y20 / scale, y21 / scale, y22 / scale, y23 / scale, y30 / scale, y31 / scale,
            y32 / scale, y33 / scale)
    hypot = math.hypot
    tol = DENSITY_TOL * max(
        1.0 / scale, hypot(x00, y00), hypot(x01, y01), hypot(x02, y02), hypot(x03, y03),
        hypot(x10, y10), hypot(x11, y11), hypot(x12, y12), hypot(x13, y13), hypot(x20, y20),
        hypot(x21, y21), hypot(x22, y22), hypot(x23, y23), hypot(x30, y30), hypot(x31, y31),
        hypot(x32, y32), hypot(x33, y33))
    # |rho_kl - conj(rho_lk)|, the same for (k, l) and (l, k); on the
    # diagonal hypot(0, 2 y) is |2 y|.
    if max(abs(y00 + y00), hypot(x01 - x10, y01 + y10), hypot(x02 - x20, y02 + y20),
           hypot(x03 - x30, y03 + y30), abs(y11 + y11), hypot(x12 - x21, y12 + y21),
           hypot(x13 - x31, y13 + y31), abs(y22 + y22), hypot(x23 - x32, y23 + y32),
           abs(y33 + y33)) > tol:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    if hypot(x00 + x11 + x22 + x33 - 1.0 / scale, y00 + y11 + y22 + y33) > tol:
        raise StateFormatError("matrix does not have unit trace")
    # The table of _table; + 0.0 turns the -0.0 of an all-negative-zero sum
    # into the +0.0 of a sum started from +0.0.
    table = (
        (x00 + x11 + x22 + x33 + 0.0) * scale, (x10 + x01 + x32 + x23 + 0.0) * scale,
        (y10 - y01 + y32 - y23 + 0.0) * scale, (x00 - x11 + x22 - x33 + 0.0) * scale,
        (x20 + x31 + x02 + x13 + 0.0) * scale, (x30 + x21 + x12 + x03 + 0.0) * scale,
        (y30 - y21 + y12 - y03 + 0.0) * scale, (x20 - x31 + x02 - x13 + 0.0) * scale,
        (y20 + y31 - y02 - y13 + 0.0) * scale, (y30 + y21 - y12 - y03 + 0.0) * scale,
        (-x30 + x21 + x12 - x03 + 0.0) * scale, (y20 - y31 - y02 + y13 + 0.0) * scale,
        (x00 + x11 - x22 - x33 + 0.0) * scale, (x10 + x01 - x32 - x23 + 0.0) * scale,
        (y10 - y01 - y32 + y23 + 0.0) * scale, (x00 - x11 - x22 + x33 + 0.0) * scale,
    )
    return table


def _table(rho):
    """Correlation table tr(rho sigma_a (x) sigma_b), a, b in 0..3, as
    fresh rows of _density_body's table.

    Each entry is the real part of sum_ij (sigma_a (x) sigma_b)_ij rho_ji,
    its four nonzero terms summed in increasing i from +0.0, as
    einsum("abij,ji->ab") sums them, on rho / s and multiplied back by s
    (s from _density_body), so that no partial sum overflows.
    validate_density bounds |rho - rho^dagger|_inf relative to |rho|_inf,
    so the imaginary residue is already small at the scale of rho.

    Raises:
        NotRepresentable: if an entry is not a finite double.
    """
    (t00, t01, t02, t03, t10, t11, t12, t13, t20, t21, t22, t23, t30, t31, t32, t33) = (
        _checked_density(rho)[1])
    if (t00 * 0.0 + t01 * 0.0 + t02 * 0.0 + t03 * 0.0 + t10 * 0.0 + t11 * 0.0 + t12 * 0.0
            + t13 * 0.0 + t20 * 0.0 + t21 * 0.0 + t22 * 0.0 + t23 * 0.0 + t30 * 0.0 + t31 * 0.0
            + t32 * 0.0 + t33 * 0.0) != 0.0:
        raise NotRepresentable("a Bloch coordinate is not a finite double")
    return [[t00, t01, t02, t03], [t10, t11, t12, t13], [t20, t21, t22, t23],
            [t30, t31, t32, t33]]


def correlation(rho, i, j):
    """Correlation function tr(rho sigma_i (x) sigma_j), as a real number."""
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise IndexError("correlation indices must lie in 0..3")
    return _table(rho)[i][j]


def bloch_of(rho):
    """Bloch-matrix representation of a density operator, as lists of floats.

    Raises:
        NotRepresentable: if a coordinate is not a finite double.
    """
    (_, v1, v2, v3), (u1, c11, c12, c13), (u2, c21, c22, c23), (u3, c31, c32, c33) = _table(rho)
    return BlochMatrix(u=[u1, u2, u3], v=[v1, v2, v3],
                       C=[[c11, c12, c13], [c21, c22, c23], [c31, c32, c33]])


def density_of(bloch):
    """Density operator with the given Bloch matrix, as rows of Python
    complex numbers.

    Inverts the correlation map through Pauli orthogonality:
    rho = (1/4) sum_ab B_ab sigma_a (x) sigma_b with B_00 = 1, each entry's
    real and imaginary parts summed over increasing (a, b) from +0.0, as
    einsum("ab,abij->ij") sums them. ValueError unless u, v have shape (3,),
    C shape (3, 3) and every entry is finite.
    """
    u0, u1, u2 = _vec3(bloch.u, "density_of input")
    v0, v1, v2 = _vec3(bloch.v, "density_of input")
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = _rows3(bloch.C, "density_of input")[0]
    # Scaling first keeps every partial sum within max |B|, so rho is finite.
    b01, b02, b03 = 0.25 * v0, 0.25 * v1, 0.25 * v2
    b10, b11, b12, b13 = 0.25 * u0, 0.25 * c00, 0.25 * c01, 0.25 * c02
    b20, b21, b22, b23 = 0.25 * u1, 0.25 * c10, 0.25 * c11, 0.25 * c12
    b30, b31, b32, b33 = 0.25 * u2, 0.25 * c20, 0.25 * c21, 0.25 * c22
    # The upper triangle, B_00 / 4 = 0.25; + 0.0 as in _table, but a sum
    # from 0.25 is never -0.0.
    d0, d1 = 0.25 + b03 + b30 + b33, 0.25 - b03 + b30 - b33
    d2, d3 = 0.25 + b03 - b30 - b33, 0.25 - b03 - b30 + b33
    x01, y01 = b01 + b31 + 0.0, -b02 - b32 + 0.0
    x02, y02 = b10 + b13 + 0.0, -b20 - b23 + 0.0
    x03, y03 = b11 - b22 + 0.0, -b12 - b21 + 0.0
    x12, y12 = b11 + b22 + 0.0, b12 - b21 + 0.0
    x13, y13 = b10 - b13 + 0.0, -b20 + b23 + 0.0
    x23, y23 = b01 - b31 + 0.0, -b02 + b32 + 0.0
    # The lower triangle is the conjugate: its terms are the negated ones.
    return [
        [complex(d0, 0.0), complex(x01, y01), complex(x02, y02), complex(x03, y03)],
        [complex(x01, -y01 + 0.0), complex(d1, 0.0), complex(x12, y12), complex(x13, y13)],
        [complex(x02, -y02 + 0.0), complex(x12, -y12 + 0.0), complex(d2, 0.0),
         complex(x23, y23)],
        [complex(x03, -y03 + 0.0), complex(x13, -y13 + 0.0), complex(x23, -y23 + 0.0),
         complex(d3, 0.0)],
    ]


def partial_trace(rho, which):
    """Partial trace over the other factor: which=1 returns the reduced
    state of qubit 1 (trace over qubit 2), which=2 the reduced state of
    qubit 2, as rows of Python complex numbers. Each entry is the sum of
    its two terms in increasing order of the traced index, as numpy's
    trace of the (2, 2, 2, 2) reshape sums them. Raises NotRepresentable
    when an entry is not a finite double."""
    r = validate_density(rho)
    if which == 1:
        rows = [[r[2 * i][2 * k] + r[2 * i + 1][2 * k + 1] for k in (0, 1)] for i in (0, 1)]
    elif which == 2:
        rows = [[r[j][l] + r[2 + j][2 + l] for l in (0, 1)] for j in (0, 1)]
    else:
        raise ValueError("which must be 1 or 2")
    (p00, p01), (p10, p11) = rows
    if p00 * 0.0 + p01 * 0.0 + p10 * 0.0 + p11 * 0.0 != 0.0:  # as in _table
        raise NotRepresentable("partial_trace: an entry is not a finite double")
    return rows


def bloch_vector(rho2):
    """Bloch vector tr(rho2 sigma_i), i = 1, 2, 3, of a single-qubit density
    matrix, as a list of floats. The real part of each trace is a sum of two
    exact products with the Pauli entries 0, +-1 and +-i.

    One straight-line pass, with linalg._rows3's order of errors: ValueError
    for a shape other than (2, 2), then for an entry complex() refuses, then
    for a NaN, an Inf or an integer beyond the double range; NotRepresentable
    when a coordinate is not a finite double.
    """
    rho2 = rho2.tolist() if hasattr(rho2, "tolist") else rho2
    if not (isinstance(rho2, _SEQUENCE) and len(rho2) == 2 and isinstance(rho2[0], _SEQUENCE)
            and isinstance(rho2[1], _SEQUENCE) and len(rho2[0]) == len(rho2[1]) == 2):
        raise ValueError(f"bloch_vector input must have shape (2, 2), got {_shape(rho2)}")
    (r00, r01), (r10, r11) = rho2
    try:
        r00, r01, r10, r11 = complex(r00), complex(r01), complex(r10), complex(r11)
    except (TypeError, ValueError, OverflowError):
        if _refused(complex, (r00, r01, r10, r11)):
            raise ValueError("bloch_vector input must have complex number entries, got shape "
                             f"{_shape(rho2)}") from None
        raise ValueError("bloch_vector input contains NaN or Inf entries") from None
    if r00 * 0.0 + r01 * 0.0 + r10 * 0.0 + r11 * 0.0 != 0.0:
        raise ValueError("bloch_vector input contains NaN or Inf entries")
    x, y, z = r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real
    if x * 0.0 + y * 0.0 + z * 0.0 != 0.0:
        raise NotRepresentable("bloch_vector: a coordinate is not a finite double")
    return [x, y, z]


def classify(rho, tol=DEFAULT_CLASS_TOL):
    """Classify a state by its Bloch coordinates.

    Locally maximally mixed: both 1-point vectors vanish. Symmetric:
    u = v and C is symmetric (equivalently the state commutes with the
    tensor swap). Both conditions together give SYMMETRIC_LMM. ValueError
    unless tol is finite and non-negative; 0 classifies exact coordinates.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return _class_of(bloch_of(rho), tol)


def _class_of(b, tol):
    """classify's rule on the fields of a BlochMatrix, lists of floats, at a
    tol already checked."""
    (u1, u2, u3), (v1, v2, v3) = b.u, b.v
    (_, c12, c13), (c21, _, c23), (c31, c32, _) = b.C
    lmm = max(abs(u1), abs(u2), abs(u3), abs(v1), abs(v2), abs(v3)) <= tol
    sym = max(abs(u1 - v1), abs(u2 - v2), abs(u3 - v3),
              abs(c12 - c21), abs(c13 - c31), abs(c23 - c32)) <= tol
    if lmm and sym:
        return StateClass.SYMMETRIC_LMM
    if lmm:
        return StateClass.LMM
    if sym:
        return StateClass.SYMMETRIC
    return StateClass.GENERAL


def is_positive(rho):
    """True if all eigenvalues of the 4x4 matrix are >= -POSITIVITY_TOL.

    Tested as the Cholesky factorization of rho + POSITIVITY_TOL I, on the
    rows of validate_density read from its lower triangle as numpy's
    eigvalsh reads it: every pivot must be positive. Cholesky is backward
    stable (Higham 2002, ch. 10), so the two tests can differ only where
    the smallest eigenvalue lies within a few eps |rho|_inf of
    -POSITIVITY_TOL. A state with a real or imaginary part of 2 or more has
    unit trace to within 1e-12 of its size, so its smallest eigenvalue is
    below -1/3; an overflow there makes a pivot NaN or -inf: False either way.
    """
    rows = validate_density(rho)
    lower = []  # rows of L with rho + POSITIVITY_TOL I = L L^dagger; a float diagonal
    for i, row in enumerate(rows):
        li = []
        for j, lj in enumerate(lower):
            li.append((row[j] - sum(li[k] * lj[k].conjugate() for k in range(j))) / lj[j])
        pivot = row[i].real + POSITIVITY_TOL - sum(z.real * z.real + z.imag * z.imag for z in li)
        if not pivot > 0.0:
            return False
        li.append(math.sqrt(pivot))
        lower.append(li)
    return True


_H = 1.0 / math.sqrt(2.0)
BELL_KETS = {
    "phi+": (_H, 0.0, 0.0, _H),
    "phi-": (_H, 0.0, 0.0, -_H),
    "psi+": (0.0, _H, _H, 0.0),
    "psi-": (0.0, _H, -_H, 0.0),
}


def bell_projector(which):
    """Projector onto one of the four Bell states: phi+, phi-, psi+, psi-,
    as rows of Python complex numbers, the outer product |k><k| of the ket."""
    if which not in BELL_KETS:
        raise ValueError(f"unknown Bell state {which!r}; choose from {tuple(BELL_KETS)}")
    ket = [complex(x) for x in BELL_KETS[which]]
    return [[x * y.conjugate() for y in ket] for x in ket]
