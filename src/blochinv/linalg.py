"""Fixed-size linear algebra kernel: 3x3 symmetric eigendecomposition by
cyclic Jacobi rotations, a sign-corrected SVD whose orthogonal factors land
in SO(3), characteristic-polynomial helpers, and small predicates for the
2x2 / 4x4 complex matrices used elsewhere in the package.

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
SVD_NULL_FACTOR = 1e-13


def norm_inf(a):
    """Entrywise infinity norm (max absolute entry)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


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


def is_rotation(r, tol=1e-11):
    """True if r is in SO(3) within tolerance."""
    r = np.asarray(r, dtype=float)
    if norm_inf(r.T @ r - np.eye(3)) > tol:
        return False
    return abs(det3(r) - 1.0) <= tol


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


def det3(m):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row.

    The expansion order is fixed so that evaluation on diagonal input
    reproduces x1 * (x2 * x3) bit for bit; the diagonal-restriction
    identities rely on this.
    """
    return _det3_rows(*np.asarray(m, dtype=float).tolist())


def charpoly3(a):
    """Coefficients (c2, c1, c0) of det(xI - A) = x^3 + c2 x^2 + c1 x + c0.

    c2 = -tr A, c1 = ((tr A)^2 - tr A^2) / 2, c0 = -det A.
    """
    a = np.asarray(a, dtype=float)
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    tr2 = 0.0
    for i in range(3):
        for j in range(3):
            tr2 += a[i, j] * a[j, i]
    c2 = -tr
    c1 = 0.5 * (tr * tr - tr2)
    c0 = -det3(a)
    return float(c2), float(c1), float(c0)


def discriminant3(a):
    """Discriminant of the characteristic polynomial of a 3x3 matrix.

    For x^3 + b x^2 + c x + d this is 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2,
    which equals the product of squared eigenvalue gaps when the matrix is
    symmetric (hence is nonnegative up to roundoff in that case).
    """
    b, c, d = charpoly3(a)
    return float(
        18.0 * b * c * d
        - 4.0 * b**3 * d
        + b**2 * c**2
        - 4.0 * c**3
        - 27.0 * d**2
    )


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


def eig_sym3(a, sym_tol=1e-12):
    """Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.

    Args:
        a: real 3x3 array, symmetric within sym_tol * max(1, |a|_inf).
        sym_tol: relative symmetry tolerance of the precondition.

    Returns:
        EigenSym3 with eigenvalues sorted descending (ties broken by the
        original axis index, stably) and a rotation in SO(3).

    Raises:
        ValueError: if the input has NaN or Inf entries.
        NotSymmetric: if the input fails the symmetry precondition.
    """
    # Every check and sweep runs on Python floats, converted once.
    rows = np.asarray(a, dtype=float).tolist()
    flat = rows[0] + rows[1] + rows[2]
    if not all(map(math.isfinite, flat)):
        raise ValueError("eig_sym3 input contains NaN or Inf entries")
    norm = max(map(abs, flat))
    asym = max(abs(rows[i][j] - rows[j][i]) for i, j in ((0, 1), (0, 2), (1, 2)))
    if asym > sym_tol * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")

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


def _orient_left(left, d3):
    """Push a negative determinant of the left factor onto the smallest
    singular value, keeping left @ diag @ right.T unchanged."""
    if det3(left) < 0.0:
        left = left.copy()
        left[:, 2] = -left[:, 2]
        d3 = -d3
    return left, d3


def _complement_column(u0):
    """Unit vector orthogonal to u0, chosen deterministically."""
    k = int(np.argmin(np.abs(u0)))
    e = np.zeros(3)
    e[k] = 1.0
    w = e - np.dot(e, u0) * u0
    return w / math.sqrt(float(np.dot(w, w)))


def signed_svd3(c):
    """Signed SVD of a real 3x3 matrix with both factors in SO(3).

    The right factor comes from the eigendecomposition of C^T C. Each left
    column is C v_i, orthogonalized against the previous columns and
    normalized, with the diagonal entry taken from the column norm (which
    makes the per-column reconstruction residual vanish identically, also
    for numerically rank-deficient input where sqrt of the normal-matrix
    eigenvalue would be pure noise). Null directions are completed
    orthonormally with zero diagonal weight. A reflection in the left
    factor is traded for a sign on the smallest diagonal entry, so that
    sign(d1*d2*d3) = sign(det C).

    The normal-equations route squares the conditioning of C: the strict
    reconstruction bound holds while the second singular value stays above
    roughly 1e-4 of the first (or vanishes outright), which covers the
    O(1)-normalized correlation matrices this package works on.

    Returns:
        SignedSVD3. Never raises; ties among singular values are resolved
        by the deterministic ordering of eig_sym3.
    """
    c = np.asarray(c, dtype=float)
    require_finite(c, "signed_svd3 input")
    m = c.T @ c
    m = 0.5 * (m + m.T)
    eig = eig_sym3(m)
    right = eig.rotation.T.copy()  # columns are eigenvectors of C^T C

    cutoff = SVD_NULL_FACTOR * max(1.0, norm_inf(c))
    left = np.zeros((3, 3))
    diag = np.zeros(3)
    built = 0
    for i in range(3):
        col = c @ right[:, i]
        for j in range(built):
            col = col - np.dot(col, left[:, j]) * left[:, j]
        n = math.sqrt(float(np.dot(col, col)))
        if n <= cutoff:
            break
        left[:, i] = col / n
        diag[i] = n
        built = i + 1

    # Eigenvalue ordering makes the norms descending up to roundoff-level
    # inversions inside clusters; clamp those.
    if diag[1] > diag[0]:
        diag[1] = diag[0]
    if diag[2] > diag[1]:
        diag[2] = diag[1]

    if built == 3:
        left, diag[2] = _orient_left(left, diag[2])
    else:
        if built == 0:
            left[:, 0] = (1.0, 0.0, 0.0)
            left[:, 1] = (0.0, 1.0, 0.0)
        elif built == 1:
            left[:, 1] = _complement_column(left[:, 0])
        left[:, 2] = np.cross(left[:, 0], left[:, 1])
        # Null directions carry no reconstruction weight, so the sign of the
        # smallest diagonal entry is taken from det C directly.
        dc = det3(c)
        if dc < 0.0:
            diag[2] = -diag[2]
        left, _ = _orient_left(left, 0.0)
    return SignedSVD3(left=left, right=right, diag=diag)
