"""Group machinery and the seeded draws, in one of the two modules that
import numpy (verify is the other): the covering map U(2) -> SO(3), the
rotation-pair action on Bloch matrices, the chiral octahedral group of
signed permutations, the effective residual group acting on diagonal
correlation matrices, Haar sampling on SU(2), and random Bloch coordinates
and states of each class."""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary
from .linalg import _finite, _rows3, det3
from .states import SWAP, BlochMatrix, StateClass, bloch_of, density_of, validate_density

# Tolerance of the unitarity precondition of so3_of_u2.
UNITARY_TOL = 1e-12


def so3_of_u2(u):
    """Rotation induced by a 2x2 unitary on the Bloch ball.

    R_ij = Re tr(sigma_i U sigma_j U*) / 2 for i, j in {1,2,3}. With
    U = [[p, q], [r, s]] and x* the complex conjugate of x, this is

        [[ Re(ps* + qr*),  Im(ps* - qr*),  Re(pr* - qs*)],
         [-Im(ps* + qr*),  Re(ps* - qr*), -Im(pr* - qs*)],
         [ Re(pq* - rs*),  Im(pq* - rs*), (|p|^2 - |q|^2 - |r|^2 + |s|^2)/2]],

    evaluated on Python complex numbers. This is a group homomorphism onto
    SO(3) and kills a global phase.

    Raises:
        NotUnitary: unless U is a finite 2x2 matrix with
            max |U*U - I| <= UNITARY_TOL.
    """
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):  # a ragged input or an entry that is not a number
        raise NotUnitary("input is not a 2x2 unitary within tolerance") from None
    if u.shape != (2, 2):
        raise NotUnitary("input is not a 2x2 unitary within tolerance")
    (p, q), (r, s) = u.tolist()
    return _so3_of_entries(p, q, r, s)


def _so3_of_entries(p, q, r, s):
    """so3_of_u2 of U = [[p, q], [r, s]] given as four Python complex
    numbers: the finiteness and unitarity tests, then the nine entries."""
    # z* z is |z|^2 with an exactly zero imaginary part.
    pp, qq = p.conjugate() * p, q.conjugate() * q
    rr, ss = r.conjugate() * r, s.conjugate() * s
    finite = cmath.isfinite(p) and cmath.isfinite(q) and cmath.isfinite(r) and cmath.isfinite(s)
    if not finite or max(
        abs(pp + rr - 1.0), abs(p.conjugate() * q + r.conjugate() * s), abs(qq + ss - 1.0)
    ) > UNITARY_TOL:
        raise NotUnitary("input is not a 2x2 unitary within tolerance")
    ps, qr = p * s.conjugate(), q * r.conjugate()
    pr, qs = p * r.conjugate(), q * s.conjugate()
    a, b, c = ps + qr, ps - qr, pr - qs
    d = p * q.conjugate() - r * s.conjugate()
    return np.array([
        [a.real, b.imag, c.real],
        [-a.imag, b.real, -c.imag],
        [d.real, d.imag, 0.5 * (pp - qq - rr + ss).real],
    ])


def act_density(u1, u2, rho):
    """Conjugate a two-qubit state, checked by validate_density, by the
    local unitary pair (U1, U2)."""
    validate_density(rho)
    g = np.kron(u1, u2)
    return g @ np.asarray(rho, dtype=complex) @ g.conj().T


def act_bloch(r1, r2, bloch):
    """Rotation-pair action on Bloch coordinates:
    u -> R1 u, v -> R2 v, C -> R1 C R2^T, the fields lists of floats.

    Raises:
        ValueError: unless R1 and R2 are finite 3x3 matrices (linalg._rows3).
        NotRepresentable: when an entry of a field is not a finite double.
    """
    r1 = np.array(_rows3(r1, "act_bloch input")[0])
    r2 = np.array(_rows3(r2, "act_bloch input")[0])
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports it
        u, v, c = (r1 @ bloch.u).tolist(), (r2 @ bloch.v).tolist(), (r1 @ bloch.C @ r2.T).tolist()
    c0, c1, c2 = c
    _finite("act_bloch", (*u, *v, *c0, *c1, *c2), "an entry of a field")
    return BlochMatrix(u=u, v=v, C=c)


@dataclass(frozen=True)
class SignedPerm:
    """Signed permutation of the three axes, kept in exact integers.

    As a matrix it sends e_j to signs[j] * e_perm[j], i.e. the matrix has
    entry signs[j] at row perm[j], column j.
    """

    perm: tuple
    signs: tuple

    def _rows(self):
        """The matrix as three rows of Python ints."""
        (p0, p1, p2), (s0, s1, s2) = self.perm, self.signs
        rows = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        rows[p0][0], rows[p1][1], rows[p2][2] = s0, s1, s2
        return rows

    def matrix(self):
        return np.array(self._rows(), dtype=int)

    def determinant(self):
        return int(det3(self._rows()))

    def sign_product(self):
        return self.signs[0] * self.signs[1] * self.signs[2]

    def apply(self, vec):
        out = np.zeros(3, dtype=np.asarray(vec).dtype)
        for j in range(3):
            out[self.perm[j]] = self.signs[j] * vec[j]
        return out

    def compose(self, other):
        """self after other, matching matrix multiplication."""
        perm, signs = self.perm, self.signs
        (o0, o1, o2), (t0, t1, t2) = other.perm, other.signs
        return SignedPerm(perm=(perm[o0], perm[o1], perm[o2]),
                          signs=(t0 * signs[o0], t1 * signs[o1], t2 * signs[o2]))


def signed_permutations():
    """All 48 signed permutation matrices, in a fixed deterministic order."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            out.append(SignedPerm(perm=perm, signs=signs))
    return out


def octahedral_group():
    """The 24 signed permutation matrices of determinant +1, the group of
    rotational symmetries of the octahedron."""
    return [g for g in signed_permutations() if g.determinant() == 1]


def lmm_weyl_action_group():
    """The 24 signed permutations with sign product +1.

    This is the effective group induced on diagonal 2-point matrices by
    rotation pairs (E1 P, E2 P) that normalize the diagonal slice: the
    permutation part is free and the entrywise sign pattern is the product
    of the two sign matrices, which forces an even number of flips.
    """
    return [g for g in signed_permutations() if g.sign_product() == 1]


def lmm_weyl_pair(sp):
    """Exact integer rotation pair (R1, R2), both of determinant +1,
    realizing the action diag(c) -> diag(sp.apply(c)) as R1 diag(c) R2^T.

    Requires sp.sign_product() == +1.
    """
    if sp.sign_product() != 1:
        raise ValueError("only even sign patterns are realized by rotation pairs")
    unsigned = SignedPerm(perm=sp.perm, signs=(1, 1, 1))
    pm = unsigned.matrix()
    # det E1 must equal det P; entrywise, e1 * e2 must equal the sign
    # pattern carried onto row perm[j], which is sp applied to (1, 1, 1).
    # diag(e) @ P is P with row i scaled by e[i].
    e1 = np.array([[unsigned.determinant()], [1], [1]])
    e2 = sp.apply(np.ones(3, dtype=int))[:, None] * e1
    return e1 * pm, e2 * pm


def lmm_normalizer_pairs(group):
    """All 96 pairs (E1 P, E2 P) of determinant +1 that map diagonal
    matrices to diagonal matrices under (R1, R2): C -> R1 C R2^T, i.e. the
    pairs of octahedral rotations with the same permutation part, from
    group, the list octahedral_group returns."""
    return [(g.matrix(), h.matrix()) for g in group for h in group if g.perm == h.perm]


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _haar_pair(seed):
    """A pair (a, b) of complex Gaussians normalized to |a|^2 + |b|^2 = 1,
    the first column of a Haar-random SU(2) element."""
    rng = _as_rng(seed)
    z0, z1, z2, z3 = rng.standard_normal(4).tolist()
    a = complex(z0, z1)
    b = complex(z2, z3)
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a /= n
    b /= n
    return a, b


def haar_su2(seed):
    """Haar-random SU(2) element: a normalized pair of complex Gaussians
    placed in the standard special-unitary form."""
    a, b = _haar_pair(seed)
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def haar_so3(seed):
    """Haar-random rotation, pushed forward from SU(2) through the cover:
    so3_of_u2 of the entries haar_su2 would return, with the same
    finiteness and unitarity tests, without building the 2x2 array."""
    a, b = _haar_pair(seed)
    return _so3_of_entries(a, -b.conjugate(), b, a.conjugate())


def random_bloch(state_class, seed):
    """Random Bloch coordinates with entries uniform in [-1, 1], respecting
    the linear constraints of the class exactly (zero 1-point vectors for
    LMM, shared vector and symmetric C for symmetric states); the fields
    are lists of floats, as bloch_of fills them."""
    rng = _as_rng(seed)
    state_class = StateClass(state_class)
    if state_class in (StateClass.LMM, StateClass.SYMMETRIC_LMM):
        u = np.zeros(3)
        v = np.zeros(3)
    elif state_class is StateClass.SYMMETRIC:
        u = rng.uniform(-1.0, 1.0, size=3)
        v = u.copy()
    else:
        u = rng.uniform(-1.0, 1.0, size=3)
        v = rng.uniform(-1.0, 1.0, size=3)
    if state_class in (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM):
        c = np.zeros((3, 3))
        for i in range(3):
            c[i, i] = rng.uniform(-1.0, 1.0)
            for j in range(i + 1, 3):
                c[i, j] = c[j, i] = rng.uniform(-1.0, 1.0)
    else:
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
    return BlochMatrix(u=u.tolist(), v=v.tolist(), C=c.tolist())


def _ginibre_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_state(state_class, seed, positive=False):
    """Seeded random density operator of the given class, as a 4x4 array.

    With positive=True the draw is GG*/tr(GG*) for a complex Gaussian G,
    then projected onto the class: symmetric states average the state with
    its swap conjugate, LMM states drop the 1-point blocks in Bloch
    coordinates (both operations preserve positivity). With positive=False
    the state is a uniform draw in Bloch coordinates and is generally not
    positive semidefinite.
    """
    rng = _as_rng(seed)
    state_class = StateClass(state_class)
    if not positive:
        return np.array(density_of(random_bloch(state_class, rng)))
    rho = _ginibre_state(rng)
    if state_class in (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM):
        swap = np.array(SWAP, dtype=complex)
        rho = 0.5 * (rho + swap @ rho @ swap)
    if state_class in (StateClass.LMM, StateClass.SYMMETRIC_LMM):
        zero = [0.0, 0.0, 0.0]
        rho = np.array(density_of(BlochMatrix(zero, zero, bloch_of(rho).C)))
    return rho
