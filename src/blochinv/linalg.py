"""Fixed-size linear algebra kernel: 3x3 symmetric eigendecomposition by
cyclic Jacobi rotations, a one-sided Jacobi signed SVD with both factors
in SO(3), the 3x3 determinant and trace invariants, and the input checks
of the scalar core.

Each 3x3 input, an array or nested lists or tuples, is converted to Python
floats and checked once, by _rows3 (shape and finiteness) or _sym_rows3
(also symmetry); each 3-vector input by _vec3 (shape and finiteness).
Each check is one straight-line pass on named locals, with no loop, map
or generator: a shape test, one float() per entry, one finiteness test
and, for a matrix, its norm as one max. rotation_residual reads its
matrix the same way but, a residual, skips the finiteness test.
_rows3 returns (rows, norm) as a _Checked pair and a _Checked argument as
it is, as _sym_rows3 does after its symmetry test (a pair does not imply
symmetry); _scaled keeps a pair checked. Its rows are tuples, so a pair
stays a checked matrix wherever it goes; a vector is read once by each
public function it reaches. A function hands its pair to the public
functions it calls, so every call keeps its check while a decision
converts each matrix once.
No function here imports numpy: an array is read through its tolist. The
records returned here hold lists of Python floats (rows for a matrix).
Both kernels divide their input exactly by a power of two and multiply
their values back, so they run at any finite scale and raise
NotRepresentable for a value beyond the double range. Both kernels are
straight-line code on named locals, one per matrix entry, behind one
entry layer, the public eig_sym3 (through which every diagonalization in
the package goes) and signed_svd3, which has the same steps: check,
divide, memo lookup, multiply back, its own NotRepresentable test and
fresh lists.

Each kernel body (_eig_body, _svd_body) sits behind a memo of its last 16
distinct inputs (_MEMO_SIZE, an lru_cache), because one decision
diagonalizes the same matrix several times: sym_invariants, sym_canonical
and decide_equiv_sym each diagonalize A, and the decider a copy divided by
a power of two. The key is the bytes of the doubles the body reads after
that division (for eig_sym3 the six entries of the symmetrized matrix and
norm / scale, for signed_svd3 the nine entries of C / scale), so -0.0 and
0.0 are different keys and A and A * 2^k share one. The memo holds the
body's values before they are multiplied back, as tuples; each call
multiplies back by its own scale, makes its own NotRepresentable test and
returns fresh lists. So no output bit depends on the memo's state.

_matvec3 and _matmul3, written out on unpacked entries like _transpose,
are the only 3x3 products of the scalar core (linalg, invariants,
orbits), each summed in one fixed order, so its digits do not depend on
the BLAS build.

All tolerances are relative to max(1, entrywise infinity norm of the input),
since correlation matrices of physical states are O(1) but the ambient
affine space is unbounded.
"""

import functools
import math
import struct
from typing import NamedTuple

from .errors import NotRepresentable, NotSymmetric

JACOBI_OFFDIAG_FACTOR = 1e-14
JACOBI_MAX_SWEEPS = 40
JACOBI_ORTH_FACTOR = 1e-15
# Relative symmetry tolerance of the eig_sym3 / g_invariant precondition.
SYM_TOL = 1e-12
# The bound of each kernel body's memo, and the layouts of their keys: the
# divided entries each body reads, as doubles (see the module docstring).
_MEMO_SIZE = 16
_EIG_KEY = struct.Struct("7d")
_SVD_KEY = struct.Struct("9d")


def rotation_residual(r):
    """Deviation of a matrix from SO(3): max of |R^T R - I| and |det R - 1|,
    on Python floats, the ten terms folded through _worst in row-major
    order of the Gram matrix, then the determinant.

    ValueError naming rotation_residual and (3, 3) for any other shape, and
    for an entry float() refuses. A residual helper, it is exempt from the
    finiteness check of the other public functions: a NaN or Inf entry
    gives NaN or inf, not an error or a warning, and an integer beyond the
    double range gives inf. The battery folds the residual through _worst,
    so a check on a non-finite matrix fails and reports it.
    """
    r = r.tolist() if hasattr(r, "tolist") else r
    if not (isinstance(r, _SEQUENCE) and len(r) == 3):
        raise _shape_error("rotation_residual input", (3, 3), r)
    r0, r1, r2 = r
    if not (isinstance(r0, _SEQUENCE) and isinstance(r1, _SEQUENCE)
            and isinstance(r2, _SEQUENCE) and len(r0) == len(r1) == len(r2) == 3):
        raise _shape_error("rotation_residual input", (3, 3), r)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r0, r1, r2
    try:
        r00, r01, r02 = float(r00), float(r01), float(r02)
        r10, r11, r12 = float(r10), float(r11), float(r12)
        r20, r21, r22 = float(r20), float(r21), float(r22)
    except OverflowError:
        if _refused(float, (r00, r01, r02, r10, r11, r12, r20, r21, r22)):
            raise _entry_error("rotation_residual input", r) from None
        return math.inf
    except (TypeError, ValueError):
        raise _entry_error("rotation_residual input", r) from None
    # R^T R summed as _matmul3 sums it; it is symmetric bit for bit, since
    # each lower entry has the upper one's products in the same order.
    g01 = abs(r00 * r01 + r10 * r11 + r20 * r21)
    g02 = abs(r00 * r02 + r10 * r12 + r20 * r22)
    g12 = abs(r01 * r02 + r11 * r12 + r21 * r22)
    return _worst((abs(r00 * r00 + r10 * r10 + r20 * r20 - 1.0), g01, g02,
                   g01, abs(r01 * r01 + r11 * r11 + r21 * r21 - 1.0), g12,
                   g02, g12, abs(r02 * r02 + r12 * r12 + r22 * r22 - 1.0),
                   abs(_det3_rows((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) - 1.0)))


def _worst(values):
    """The largest of values, 0.0 for none, or the first NaN among them.

    rotation_residual, rel_dist and every battery residual reduce through
    it: Python's max keeps its running value against a NaN, hiding it.
    """
    worst = 0.0
    for x in values:
        if x != x:
            return x
        if x > worst:
            worst = x
    return worst


def _matmul3(a, b):
    """a @ b on 3x3 rows of floats, each entry summed left to right:
    (a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j, the same order on every platform."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return [
        [a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22],
        [a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22],
        [a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22],
    ]


def _transpose(a):
    """The transpose of a 3x3 matrix given as rows, as rows (lists)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return [[a00, a10, a20], [a01, a11, a21], [a02, a12, a22]]


def _matvec3(a, x):
    """a @ x on 3x3 rows and a 3-vector of floats, summed as in _matmul3."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    x0, x1, x2 = x
    return [a00 * x0 + a01 * x1 + a02 * x2, a10 * x0 + a11 * x1 + a12 * x2,
            a20 * x0 + a21 * x1 + a22 * x2]


def _det3_rows(r0, r1, r2):
    """Cofactor expansion along the first row, on three rows of floats."""
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


_SEQUENCE = (list, tuple)


def _shape(a):
    """The shape numpy would give nested lists or tuples, () for anything
    else. A ragged nesting gives the dimensions its entries agree on, then
    "ragged", as text: "(2, ragged)" for [[1, 0], [0]]; a nesting that holds
    numpy arrays gives the dimensions above them, then "arrays": "(3, arrays)"
    for a list of three array rows. Only error messages use it."""
    dims, below = _dims(a)
    return "(" + "".join(f"{d}, " for d in dims) + below + ")" if below else dims


def _dims(a):
    """(dims, below): the dimensions that every entry of a nesting of lists
    or tuples agrees on, and below them "arrays" if an entry at any depth is
    a numpy array of one or more dimensions, else "ragged" if entries
    disagree, else ""."""
    if not isinstance(a, _SEQUENCE):
        return (), "arrays" if getattr(a, "ndim", 0) else ""
    inner = [_dims(x) for x in a]
    shapes, belows = {dims for dims, _ in inner}, {below for _, below in inner}
    below = ("arrays" if "arrays" in belows
             else "ragged" if "ragged" in belows or len(shapes) > 1 else "")
    return (len(a), *(shapes.pop() if len(shapes) == 1 else ())), below


def _shape_error(what, shape, a):
    return ValueError(f"{what} must have shape {shape}, got {_shape(a)}")


def _entry_error(what, a):
    """The error for an entry that float() refuses: a sequence nested one
    level too deep (the shape names it), a complex number, a string that is
    not a number or any other object."""
    return ValueError(f"{what} must have real number entries, got shape {_shape(a)}")


def _refused(convert, entries):
    """Whether convert, float or complex, refuses one of entries as not a
    number. Only an integer beyond the double range makes either overflow,
    and such an entry counts as non-finite, not as refused."""
    for x in entries:
        try:
            convert(x)
        except OverflowError:
            pass
        except (TypeError, ValueError):
            return True
    return False


class _Checked(tuple):
    """(rows, norm): the rows of a 3x3 matrix as tuples of Python floats,
    each finite, and its entrywise infinity norm. Only _rows3 and _scaled
    build one; a tuple cannot change, so the pair stays checked wherever it
    goes."""

    __slots__ = ()


def _rows3(a, what):
    """Rows of a 3x3 input as tuples of Python floats and its entrywise
    infinity norm, as a _Checked pair; ValueError unless the shape is
    (3, 3) and every entry is finite; a _Checked argument as it is.

    One straight-line pass on named locals: a shape test, one float() per
    entry, one finiteness test (x * 0.0 is 0.0 unless x is NaN or +-Inf)
    and the norm as one max. The errors come in that order: a wrong shape,
    an entry float() refuses, then a NaN, an Inf or an integer beyond the
    double range. float() also reads numeric strings such as "0.25", as
    numpy's conversion did.
    """
    if type(a) is _Checked:
        return a
    a = a.tolist() if hasattr(a, "tolist") else a
    if not (isinstance(a, _SEQUENCE) and len(a) == 3):
        raise _shape_error(what, (3, 3), a)
    r0, r1, r2 = a
    if not (isinstance(r0, _SEQUENCE) and isinstance(r1, _SEQUENCE)
            and isinstance(r2, _SEQUENCE) and len(r0) == len(r1) == len(r2) == 3):
        raise _shape_error(what, (3, 3), a)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = r0, r1, r2
    try:
        a00, a01, a02 = float(a00), float(a01), float(a02)
        a10, a11, a12 = float(a10), float(a11), float(a12)
        a20, a21, a22 = float(a20), float(a21), float(a22)
    except (TypeError, ValueError, OverflowError):
        if _refused(float, (*r0, *r1, *r2)):
            raise _entry_error(what, a) from None
        raise ValueError(f"{what} contains NaN or Inf entries") from None
    if (a00 * 0.0 + a01 * 0.0 + a02 * 0.0 + a10 * 0.0 + a11 * 0.0 + a12 * 0.0
            + a20 * 0.0 + a21 * 0.0 + a22 * 0.0) != 0.0:
        raise ValueError(f"{what} contains NaN or Inf entries")
    return _Checked((((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), max(
        abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12),
        abs(a20), abs(a21), abs(a22))))


def _vec3(v, what):
    """A 3-vector input as a list of three Python floats; ValueError unless
    the shape is (3,) and every entry is finite. Written and ordered like
    _rows3, but every argument is converted: a vector is read once by each
    public function it reaches."""
    v = v.tolist() if hasattr(v, "tolist") else v
    if not (isinstance(v, _SEQUENCE) and len(v) == 3):
        raise _shape_error(what, (3,), v)
    x0, x1, x2 = v
    try:
        x0, x1, x2 = float(x0), float(x1), float(x2)
    except (TypeError, ValueError, OverflowError):
        if _refused(float, v):
            raise _entry_error(what, v) from None
        raise ValueError(f"{what} contains NaN or Inf entries") from None
    if x0 * 0.0 + x1 * 0.0 + x2 * 0.0 != 0.0:
        raise ValueError(f"{what} contains NaN or Inf entries")
    return [x0, x1, x2]


def _sym_rows3(a, what):
    """_rows3, plus NotSymmetric unless |a - a^T|_inf <= SYM_TOL max(1, |a|_inf).
    A _Checked argument is tested for symmetry too: the pair does not imply it."""
    pair = _rows3(a, what)
    ((_, a01, a02), (a10, _, a12), (a20, a21, _)), norm = pair
    if max(abs(a01 - a10), abs(a02 - a20), abs(a12 - a21)) > SYM_TOL * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return pair


def _scaled(pair, scale):
    """A _Checked pair with its rows and norm divided by scale, a power of
    two >= 1, so the entries stay finite; the pair itself when scale is 1.0,
    since x / 1.0 is x. Rounding is monotone, so norm / scale is the largest
    |entry| of the divided rows exactly, subnormal ones included."""
    if scale == 1.0:
        return pair
    ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)), norm = pair
    return _Checked((((a00 / scale, a01 / scale, a02 / scale),
                      (a10 / scale, a11 / scale, a12 / scale),
                      (a20 / scale, a21 / scale, a22 / scale)), norm / scale))


def _trace_invariants(rows):
    """(tr A, tr A^2, det A) of a 3x3 matrix given as rows of floats;
    tr A^2 sums a_ij a_ji left to right in row-major order of (i, j)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    tr2 = (a00 * a00 + a01 * a10 + a02 * a20 + a10 * a01 + a11 * a11
           + a12 * a21 + a20 * a02 + a21 * a12 + a22 * a22)
    return a00 + a11 + a22, tr2, _det3_rows(*rows)


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row.

    The expansion order is fixed so that evaluation on diagonal input
    reproduces x1 * (x2 * x3) bit for bit; the diagonal-restriction
    identities rely on this. Raises NotRepresentable when the determinant
    is not a finite double.
    """
    return _finite("det3", (_det3_rows(*_rows3(m, "det3 input")[0]),), "the determinant")[0]


class EigenSym3(NamedTuple):
    """Spectral data of a symmetric 3x3 matrix.

    eigenvalues: sorted descending, a list of three floats.
    rotation: R in SO(3) with R A R^T diagonal (diagonal = eigenvalues),
    as three rows of floats.
    """

    eigenvalues: list
    rotation: list


class SignedSVD3(NamedTuple):
    """Signed singular value decomposition C = left @ diag(diag) @ right.T.

    left and right are in SO(3); diag satisfies d1 >= d2 >= |d3| with
    d1, d2 >= 0 and sign(d1*d2*d3) = sign(det C) (zero when det C is zero).
    left and right are three rows of floats each, diag a list of three floats.
    """

    left: list
    right: list
    diag: list


def eig_sym3(a):
    """Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.

    The body, _eig_body, runs through its memo on the six entries of the
    symmetrized matrix and its norm, divided by the power of two that puts
    |a|_inf in [1, 2), so no intermediate overflows; the eigenvalues are
    multiplied back here.

    Args:
        a: real 3x3 array, symmetric within SYM_TOL * max(1, |a|_inf).

    Returns:
        EigenSym3 with eigenvalues sorted descending (ties broken by the
        original axis index, stably) and a rotation in SO(3).

    Raises:
        ValueError: if the input has NaN or Inf entries.
        NotSymmetric: if the input fails the symmetry precondition.
        NotRepresentable: if an eigenvalue is not a finite double.
    """
    rows, norm = _sym_rows3(a, "eig_sym3 input")
    scale = _pow2_floor(norm)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    # Symmetrize to remove representation noise; 0.5 * (x + x) is x on the
    # diagonal.
    a01, a02 = 0.5 * (r01 / scale + r10 / scale), 0.5 * (r02 / scale + r20 / scale)
    a12 = 0.5 * (r12 / scale + r21 / scale)
    (d0, d1, d2), (x, y, z) = _eig_body(_EIG_KEY.pack(
        r00 / scale, r11 / scale, r22 / scale, a01, a02, a12, norm / scale))
    e0, e1, e2 = scale * d0, scale * d1, scale * d2
    if e0 * 0.0 + e1 * 0.0 + e2 * 0.0 != 0.0:  # x * 0.0 is 0.0 unless x is NaN or +-Inf
        raise NotRepresentable("eig_sym3: an eigenvalue is not a finite double")
    return EigenSym3(eigenvalues=[e0, e1, e2], rotation=[list(x), list(y), list(z)])


def _jacobi_rotation(app, aqq, apq):
    """Tangent, cosine and sine of the Jacobi rotation that zeroes the
    off-diagonal entry apq of the pivot block [[app, apq], [apq, aqq]]."""
    theta = 0.5 * (aqq - app) / apq
    if abs(theta) > 1e154:
        t = 0.5 / theta
    else:
        t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return t, c, t * c


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _eig_body(key):
    """The cyclic Jacobi sweeps of eig_sym3 on the packed entries a00, a11,
    a22, a01, a02, a12 of the divided matrix and its norm: its eigenvalues,
    sorted descending, and the rotation rows, as tuples.

    The six distinct entries of the symmetrized matrix and the nine of the
    accumulated rotation V are named locals; each pivot (p, q) of a sweep
    applies one rotation from _jacobi_rotation to the rows and columns
    p, q of the matrix and to the columns p, q of V.
    """
    a00, a11, a22, a01, a02, a12, size = _EIG_KEY.unpack(key)
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    thresh = JACOBI_OFFDIAG_FACTOR * size

    for _ in range(JACOBI_MAX_SWEEPS):
        if abs(a01) + abs(a02) + abs(a12) <= thresh:
            break
        if a01 != 0.0:  # pivot (0, 1); the remaining index is 2
            t, c, s = _jacobi_rotation(a00, a11, a01)
            a00, a11, a01 = a00 - t * a01, a11 + t * a01, 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
            v00, v01 = c * v00 - s * v01, s * v00 + c * v01
            v10, v11 = c * v10 - s * v11, s * v10 + c * v11
            v20, v21 = c * v20 - s * v21, s * v20 + c * v21
        if a02 != 0.0:  # pivot (0, 2); the remaining index is 1
            t, c, s = _jacobi_rotation(a00, a22, a02)
            a00, a22, a02 = a00 - t * a02, a22 + t * a02, 0.0
            # a01 is a zero: pivot (0, 1) zeroed it or skipped it as zero.
            a01, a12 = -(s * a12), c * a12
            v00, v02 = c * v00 - s * v02, s * v00 + c * v02
            v10, v12 = c * v10 - s * v12, s * v10 + c * v12
            v20, v22 = c * v20 - s * v22, s * v20 + c * v22
        if a12 != 0.0:  # pivot (1, 2); the remaining index is 0
            t, c, s = _jacobi_rotation(a11, a22, a12)
            a11, a22, a12 = a11 - t * a12, a22 + t * a12, 0.0
            # a02 is a zero: pivot (0, 2) zeroed it or skipped it as zero.
            a01, a02 = c * a01, s * a01
            v01, v02 = c * v01 - s * v02, s * v01 + c * v02
            v11, v12 = c * v11 - s * v12, s * v11 + c * v12
            v21, v22 = c * v21 - s * v22, s * v21 + c * v22

    # Rows of rot are the columns of V (the eigenvectors), in descending
    # order of eigenvalue, ties kept in axis order; the sign test expands
    # det3 over their column matrix.
    diag = (a00, a11, a22)
    cols = ((v00, v10, v20), (v01, v11, v21), (v02, v12, v22))
    i, j, k = sorted(range(3), key=(-a00, -a11, -a22).__getitem__)
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = cols[i], cols[j], cols[k]
    if _reflected(_det3_rows((x0, x1, x2), (y0, y1, y2), (z0, z1, z2))):
        x2, y2, z2 = -x2, -y2, -z2
    return (diag[i], diag[j], diag[k]), ((x0, y0, z0), (x1, y1, z1), (x2, y2, z2))


def _finite(owner, values, what):
    """values, unless one of them is not a finite double: NotRepresentable
    naming owner and what the values are."""
    if not all(map(math.isfinite, values)):
        raise NotRepresentable(f"{owner}: {what} is not a finite double")
    return values


def _pow2_floor(x):
    """The power of two in (x/2, x] (0.5 for x = 0): x / it is exact, in [1, 2)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _reflected(det):
    """Whether sorted columns of determinant det form a reflection, which
    each kernel body undoes by negating its last column."""
    return det < 0.0


def signed_svd3(c):
    """Signed SVD of a real 3x3 matrix with both factors in SO(3).

    One-sided (Hestenes) Jacobi on C itself (Demmel & Veselic 1992): plane
    rotations V orthogonalize the columns of A = C V relative to their
    norms, each the _jacobi_rotation of eig_sym3 on the 2x2 Gram block of
    the pair, and the sorted column norms are the singular values, accurate
    to about eps |C| also on graded and rank-deficient input. C is scaled
    exactly, by the power of two that puts its largest entry in [1, 2), so
    squared norms stay in range at any input scale. A reflection in V moves
    onto the last column of A; three Givens rotations then make A triangular
    with nonnegative first two diagonal entries, so the left factor is in
    SO(3) and the smallest singular value carries sign(det C). The body,
    _svd_body, runs on the divided entries through its memo, and the
    singular values are multiplied back here.

    Returns:
        SignedSVD3; tied singular values keep their column order.

    Raises:
        ValueError: if the input has NaN or Inf entries.
        NotRepresentable: if a singular value is not a finite double.
    """
    rows, norm = _rows3(c, "signed_svd3 input")
    scale = _pow2_floor(norm)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = rows
    (d0, d1, d2), negative, (l0, l1, l2), (r0, r1, r2) = _svd_body(_SVD_KEY.pack(
        c00 / scale, c01 / scale, c02 / scale, c10 / scale, c11 / scale, c12 / scale,
        c20 / scale, c21 / scale, c22 / scale))
    diag = _finite("signed_svd3", [scale * d0, scale * d1, scale * d2], "a singular value")
    if negative:
        diag[2] = -diag[2]
    return SignedSVD3(left=[list(l0), list(l1), list(l2)],
                      right=[list(r0), list(r1), list(r2)], diag=diag)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _svd_body(key):
    """The one-sided Jacobi and the Givens QR of signed_svd3 on the packed
    entries of the divided matrix, in row-major order: its singular values,
    whether the last carries a minus sign, and the rows of the left and
    right factors, as tuples.

    Like _eig_body, the body is straight-line on named locals: aij, vij and
    qij are the entries (i, j) of A, V and Q^T, and s0, s1, s2 the squared
    column norms of A. The products with the 1.0 and 0.0 of the identities
    that V and Q^T start from are formed, not folded: they fix the signs of
    zeros.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = _SVD_KEY.unpack(key)
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    s0 = a00 * a00 + a10 * a10 + a20 * a20
    s1 = a01 * a01 + a11 * a11 + a21 * a21
    s2 = a02 * a02 + a12 * a12 + a22 * a22

    # Each pivot (p, q) rotates the columns p, q of A and of V unless they
    # are already orthogonal relative to their norms.
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        gamma = a00 * a01 + a10 * a11 + a20 * a21
        if abs(gamma) > JACOBI_ORTH_FACTOR * math.sqrt(s0 * s1):  # pivot (0, 1)
            rotated = True
            _, cs, sn = _jacobi_rotation(s0, s1, gamma)
            a00, a01 = cs * a00 - sn * a01, sn * a00 + cs * a01
            a10, a11 = cs * a10 - sn * a11, sn * a10 + cs * a11
            a20, a21 = cs * a20 - sn * a21, sn * a20 + cs * a21
            s0 = a00 * a00 + a10 * a10 + a20 * a20
            s1 = a01 * a01 + a11 * a11 + a21 * a21
            v00, v01 = cs * v00 - sn * v01, sn * v00 + cs * v01
            v10, v11 = cs * v10 - sn * v11, sn * v10 + cs * v11
            v20, v21 = cs * v20 - sn * v21, sn * v20 + cs * v21
        gamma = a00 * a02 + a10 * a12 + a20 * a22
        if abs(gamma) > JACOBI_ORTH_FACTOR * math.sqrt(s0 * s2):  # pivot (0, 2)
            rotated = True
            _, cs, sn = _jacobi_rotation(s0, s2, gamma)
            a00, a02 = cs * a00 - sn * a02, sn * a00 + cs * a02
            a10, a12 = cs * a10 - sn * a12, sn * a10 + cs * a12
            a20, a22 = cs * a20 - sn * a22, sn * a20 + cs * a22
            s0 = a00 * a00 + a10 * a10 + a20 * a20
            s2 = a02 * a02 + a12 * a12 + a22 * a22
            v00, v02 = cs * v00 - sn * v02, sn * v00 + cs * v02
            v10, v12 = cs * v10 - sn * v12, sn * v10 + cs * v12
            v20, v22 = cs * v20 - sn * v22, sn * v20 + cs * v22
        gamma = a01 * a02 + a11 * a12 + a21 * a22
        if abs(gamma) > JACOBI_ORTH_FACTOR * math.sqrt(s1 * s2):  # pivot (1, 2)
            rotated = True
            _, cs, sn = _jacobi_rotation(s1, s2, gamma)
            a01, a02 = cs * a01 - sn * a02, sn * a01 + cs * a02
            a11, a12 = cs * a11 - sn * a12, sn * a11 + cs * a12
            a21, a22 = cs * a21 - sn * a22, sn * a21 + cs * a22
            s1 = a01 * a01 + a11 * a11 + a21 * a21
            s2 = a02 * a02 + a12 * a12 + a22 * a22
            v01, v02 = cs * v01 - sn * v02, sn * v01 + cs * v02
            v11, v12 = cs * v11 - sn * v12, sn * v11 + cs * v12
            v21, v22 = cs * v21 - sn * v22, sn * v21 + cs * v22
        if not rotated:
            break

    # Columns in descending order of norm, ties in column order; a
    # reflection in V moves onto the last column of A.
    i, j, k = sorted(range(3), key=(-s0, -s1, -s2).__getitem__)
    sq = (s0, s1, s2)
    s0, s1, s2 = sq[i], sq[j], sq[k]
    cols_v = ((v00, v10, v20), (v01, v11, v21), (v02, v12, v22))
    cols_a = ((a00, a10, a20), (a01, a11, a21), (a02, a12, a22))
    (v00, v10, v20), (v01, v11, v21), (v02, v12, v22) = cols_v[i], cols_v[j], cols_v[k]
    (a00, a10, a20), (a01, a11, a21), (a02, a12, a22) = cols_a[i], cols_a[j], cols_a[k]
    if _reflected(_det3_rows((v00, v10, v20), (v01, v11, v21), (v02, v12, v22))):
        v02, v12, v22, a02, a12, a22 = -v02, -v12, -v22, -a02, -a12, -a22

    # Givens QR of A on the row pairs (0, 1), (0, 2) and (1, 2), each
    # rotation applied to the same rows of Q^T. Only the entries of R that a
    # later rotation or the sign of r22 reads are formed.
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    h = math.hypot(a00, a10)
    if h != 0.0:  # zeroes a10
        cs, sn = a00 / h, a10 / h
        a00, a01, a02, a11, a12 = (
            cs * a00 + sn * a10, cs * a01 + sn * a11, cs * a02 + sn * a12,
            cs * a11 - sn * a01, cs * a12 - sn * a02)
        q00, q01, q02, q10, q11, q12 = (
            cs * q00 + sn * q10, cs * q01 + sn * q11, cs * q02 + sn * q12,
            cs * q10 - sn * q00, cs * q11 - sn * q01, cs * q12 - sn * q02)
    h = math.hypot(a00, a20)
    if h != 0.0:  # zeroes a20
        cs, sn = a00 / h, a20 / h
        a21, a22 = cs * a21 - sn * a01, cs * a22 - sn * a02
        q00, q01, q02, q20, q21, q22 = (
            cs * q00 + sn * q20, cs * q01 + sn * q21, cs * q02 + sn * q22,
            cs * q20 - sn * q00, cs * q21 - sn * q01, cs * q22 - sn * q02)
    h = math.hypot(a11, a21)
    if h != 0.0:  # zeroes a21
        cs, sn = a11 / h, a21 / h
        a22 = cs * a22 - sn * a12
        q10, q11, q12, q20, q21, q22 = (
            cs * q10 + sn * q20, cs * q11 + sn * q21, cs * q12 + sn * q22,
            cs * q20 - sn * q10, cs * q21 - sn * q11, cs * q22 - sn * q12)

    return ((math.sqrt(s0), math.sqrt(s1), math.sqrt(s2)), a22 < 0.0,
            ((q00, q10, q20), (q01, q11, q21), (q02, q12, q22)),
            ((v00, v01, v02), (v10, v11, v12), (v20, v21, v22)))
