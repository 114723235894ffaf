"""Fixed-size linear algebra kernel: 3x3 symmetric eigendecomposition by
cyclic Jacobi rotations, a one-sided Jacobi signed SVD with both factors
in SO(3), the 3x3 determinant and trace invariants, and small predicates
for the 2x2 / 4x4 complex matrices used elsewhere in the package.

Each 3x3 input is converted to Python floats and checked once, by _rows3
(finiteness) or _sym_rows3 (finiteness and symmetry).

All tolerances are relative to max(1, entrywise infinity norm of the input),
since correlation matrices of physical states are O(1) but the ambient
affine space is unbounded.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NotSymmetric

JACOBI_OFFDIAG_FACTOR = 1e-14
JACOBI_MAX_SWEEPS = 40
JACOBI_ORTH_FACTOR = 1e-15
# Relative symmetry tolerance of the eig_sym3 / g_invariant precondition.
SYM_TOL = 1e-12


def norm_inf(a):
    """Entrywise infinity norm (max absolute entry)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def require_finite(a, what="input"):
    if not np.all(np.isfinite(np.asarray(a, dtype=complex))):
        raise ValueError(f"{what} contains NaN or Inf entries")


def dagger(m):
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def is_hermitian(m, tol=1e-12):
    m = np.asarray(m)
    return norm_inf(m - dagger(m)) <= tol * max(1.0, norm_inf(m))


def is_unitary(m, tol=1e-12):
    m = np.asarray(m)
    return norm_inf(dagger(m) @ m - np.eye(m.shape[0])) <= tol


def rotation_residual(r):
    """Deviation of a matrix from SO(3): max of |R^T R - I| and |det R - 1|."""
    r = np.asarray(r, dtype=float)
    return max(norm_inf(r.T @ r - np.eye(3)), abs(det3(r) - 1.0))


def kron22(a, b):
    """Kronecker product of two 2x2 matrices, left factor slow index."""
    return np.kron(np.asarray(a), np.asarray(b))


def _det3_rows(r0, r1, r2):
    """Cofactor expansion along the first row, on three rows of floats."""
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _rows3(a, what):
    """Rows of a 3x3 input as Python floats and its entrywise infinity norm;
    ValueError if an entry is NaN or Inf."""
    rows = np.asarray(a, dtype=float).tolist()
    flat = rows[0] + rows[1] + rows[2]
    if not all(map(math.isfinite, flat)):
        raise ValueError(f"{what} contains NaN or Inf entries")
    return rows, max(map(abs, flat))


def _sym_rows3(a, what):
    """_rows3, plus NotSymmetric unless |a - a^T|_inf <= SYM_TOL max(1, |a|_inf)."""
    rows, norm = _rows3(a, what)
    asym = max(abs(rows[i][j] - rows[j][i]) for i, j in ((0, 1), (0, 2), (1, 2)))
    if asym > SYM_TOL * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return rows, norm


def _trace_invariants(rows):
    """(tr A, tr A^2, det A) of a 3x3 matrix given as rows of floats."""
    tr2 = 0.0
    for i in range(3):
        for j in range(3):
            tr2 += rows[i][j] * rows[j][i]
    return rows[0][0] + rows[1][1] + rows[2][2], tr2, _det3_rows(*rows)


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row.

    The expansion order is fixed so that evaluation on diagonal input
    reproduces x1 * (x2 * x3) bit for bit; the diagonal-restriction
    identities rely on this.
    """
    return _det3_rows(*np.asarray(m, dtype=float).tolist())


class EigenSym3(NamedTuple):
    """Spectral data of a symmetric 3x3 matrix.

    eigenvalues: sorted descending.
    rotation: R in SO(3) with R A R^T diagonal (diagonal = eigenvalues).
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray


class SignedSVD3(NamedTuple):
    """Signed singular value decomposition C = left @ diag(diag) @ right.T.

    left and right are in SO(3); diag satisfies d1 >= d2 >= |d3| with
    d1, d2 >= 0 and sign(d1*d2*d3) = sign(det C) (zero when det C is zero).
    """

    left: np.ndarray
    right: np.ndarray
    diag: np.ndarray


def eig_sym3(a):
    """Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.

    Args:
        a: real 3x3 array, symmetric within SYM_TOL * max(1, |a|_inf).

    Returns:
        EigenSym3 with eigenvalues sorted descending (ties broken by the
        original axis index, stably) and a rotation in SO(3).

    Raises:
        ValueError: if the input has NaN or Inf entries.
        NotSymmetric: if the input fails the symmetry precondition.
    """
    # Every check and sweep runs on Python floats, converted once.
    rows, norm = _sym_rows3(a, "eig_sym3 input")

    # Symmetrize to remove representation noise.
    m = [[0.5 * (rows[i][j] + rows[j][i]) for j in range(3)] for i in range(3)]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    thresh = JACOBI_OFFDIAG_FACTOR * norm

    for _ in range(JACOBI_MAX_SWEEPS):
        off = abs(m[0][1]) + abs(m[0][2]) + abs(m[1][2])
        if off <= thresh:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = m[p][q]
            if apq == 0.0:
                continue
            theta = 0.5 * (m[q][q] - m[p][p]) / apq
            if abs(theta) > 1e154:
                t = 0.5 / theta
            else:
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            app = m[p][p]
            aqq = m[q][q]
            m[p][p] = app - t * apq
            m[q][q] = aqq + t * apq
            m[p][q] = 0.0
            m[q][p] = 0.0
            r = 3 - p - q  # the remaining index
            arp = m[r][p]
            arq = m[r][q]
            m[r][p] = c * arp - s * arq
            m[p][r] = m[r][p]
            m[r][q] = s * arp + c * arq
            m[q][r] = m[r][q]
            for k in range(3):
                vkp = v[k][p]
                vkq = v[k][q]
                v[k][p] = c * vkp - s * vkq
                v[k][q] = s * vkp + c * vkq

    # Rows of rot are the eigenvectors, in descending order; the sign test
    # expands det3 over their column matrix.
    order = sorted(range(3), key=lambda k: -m[k][k])
    rot = [[v[0][k], v[1][k], v[2][k]] for k in order]
    if _det3_rows(*zip(*rot)) < 0.0:
        rot[2] = [-x for x in rot[2]]
    return EigenSym3(eigenvalues=np.array([m[k][k] for k in order]), rotation=np.array(rot))


def _pow2_floor(x):
    """The power of two in (x/2, x] (0.5 for x = 0): x / it is exact, in [1, 2)."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _orient_right(v, a):
    """Move a reflection in V onto the last column of A = C V (both given as
    lists of columns), so that V is in SO(3) and the QR factorization of A
    carries sign(det C) on its last diagonal entry."""
    if _det3_rows(*v) < 0.0:
        v[2] = [-x for x in v[2]]
        a[2] = [-x for x in a[2]]
    return v, a


def signed_svd3(c):
    """Signed SVD of a real 3x3 matrix with both factors in SO(3).

    One-sided (Hestenes) Jacobi on C itself (Demmel & Veselic 1992): plane
    rotations V orthogonalize the columns of A = C V relative to their
    norms, and the sorted column norms are the singular values, accurate to
    about eps |C| also on graded and rank-deficient input. C is first scaled
    exactly, by the power of two that puts its largest entry in [1, 2), so
    squared norms stay in range at any input scale. A reflection in V moves
    onto the last column of A; three Givens rotations then make A triangular
    with nonnegative first two diagonal entries, so the left factor is in
    SO(3) and the smallest singular value carries sign(det C).

    Returns:
        SignedSVD3; tied singular values keep their column order.

    Raises:
        ValueError: if the input has NaN or Inf entries.
    """
    rows, norm = _rows3(c, "signed_svd3 input")
    scale = _pow2_floor(norm)

    # Columns of A = C V / scale and of V.
    a = [[rows[0][j] / scale, rows[1][j] / scale, rows[2][j] / scale] for j in range(3)]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    sq = [x * x + y * y + z * z for x, y, z in a]  # squared column norms
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            ap0, ap1, ap2 = a[p]
            aq0, aq1, aq2 = a[q]
            gamma = ap0 * aq0 + ap1 * aq1 + ap2 * aq2
            if abs(gamma) <= JACOBI_ORTH_FACTOR * math.sqrt(sq[p] * sq[q]):
                continue
            rotated = True
            zeta = 0.5 * (sq[q] - sq[p]) / gamma
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(zeta, 1.0))
            cs = 1.0 / math.sqrt(t * t + 1.0)
            sn = t * cs
            x, y, z = a[p] = [cs * ap0 - sn * aq0, cs * ap1 - sn * aq1, cs * ap2 - sn * aq2]
            sq[p] = x * x + y * y + z * z
            x, y, z = a[q] = [sn * ap0 + cs * aq0, sn * ap1 + cs * aq1, sn * ap2 + cs * aq2]
            sq[q] = x * x + y * y + z * z
            vp0, vp1, vp2 = v[p]
            vq0, vq1, vq2 = v[q]
            v[p] = [cs * vp0 - sn * vq0, cs * vp1 - sn * vq1, cs * vp2 - sn * vq2]
            v[q] = [sn * vp0 + cs * vq0, sn * vp1 + cs * vq1, sn * vp2 + cs * vq2]
        if not rotated:
            break

    order = sorted(range(3), key=lambda k: -sq[k])
    v, a = _orient_right([v[k] for k in order], [a[k] for k in order])

    # Givens QR of A, on its rows; qt accumulates Q^T.
    r = [list(x) for x in zip(*a)]
    qt = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i, j, k in ((0, 1, 0), (0, 2, 0), (1, 2, 1)):
        h = math.hypot(r[i][k], r[j][k])
        if h == 0.0:
            continue
        cs = r[i][k] / h
        sn = r[j][k] / h
        for m in (r, qt):
            mi, mj = m[i], m[j]
            m[i] = [cs * x + sn * y for x, y in zip(mi, mj)]
            m[j] = [cs * y - sn * x for x, y in zip(mi, mj)]

    diag = [scale * math.sqrt(sq[k]) for k in order]
    if r[2][2] < 0.0:
        diag[2] = -diag[2]
    return SignedSVD3(left=np.array(qt).T, right=np.array(v).T, diag=np.array(diag))
