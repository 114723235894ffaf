"""Two-qubit state model: density operators on the trace-one Hermitian
affine space, the Bloch-matrix representation built from 1- and 2-point
spin correlation functions, partial traces, state classification, and
seeded random generation.

Index conventions, fixed once for the whole package:
  * qubit 1 is the left tensor factor, composite index = 2*i1 + i2;
  * the tensor-swap involution exchanges basis states |01> and |10>.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonHermitianInput, StateFormatError
from .linalg import _pow2_floor, _rows3, _vec3, norm_inf

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# PAULI_KRON[i, j] = sigma_i (x) sigma_j, the 16-element trace-orthogonal
# basis of 4x4 Hermitian matrices (tr products = 4 * delta).
PAULI_KRON = np.array([[np.kron(PAULI[i], PAULI[j]) for j in range(4)] for i in range(4)])

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=complex,
)

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
    entry is 1 by trace normalization.
    """

    u: np.ndarray
    v: np.ndarray
    C: np.ndarray


def validate_density(rho):
    """Check the trace-one Hermitian invariants of a density operator.

    The one check of every two-qubit state argument. StateFormatError unless
    rho is 4x4 with unit trace, ValueError for a NaN or Inf entry and
    NonHermitianInput unless rho is Hermitian, to DENSITY_TOL * max(1, |rho|_inf).
    Both tests run on rho divided by a power of two, so that they stay finite
    up to the top of the double range.
    Positivity is deliberately not required: states range over the whole
    trace-one Hermitian affine space, and positivity is reported separately
    by is_positive.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise StateFormatError(f"expected a 4x4 matrix, got shape {rho.shape}")
    # The largest real or imaginary part; NaN or Inf if any entry is.
    part = float(np.abs(np.ascontiguousarray(rho).view(float)).max())
    if not part < math.inf:
        raise ValueError("density matrix contains NaN or Inf entries")
    # Both sides of each test divided by the power of two that brings
    # max(1, part) into [1, 2), exact and 1 below 2, so that neither
    # |rho|_inf, rho - rho^dagger nor the trace overflows.
    scale = _pow2_floor(max(1.0, part))
    scaled = rho / scale
    tol = DENSITY_TOL * max(1.0 / scale, norm_inf(scaled))
    if norm_inf(scaled - scaled.conj().T) > tol:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    if abs(np.trace(scaled) - 1.0 / scale) > tol:
        raise StateFormatError("matrix does not have unit trace")
    return rho


def _table(rho):
    """Correlation table tr(rho sigma_a (x) sigma_b), a, b in 0..3."""
    # validate_density bounds |rho - rho^dagger|_inf relative to |rho|_inf,
    # so the imaginary residue is already small at the scale of rho.
    return np.einsum("abij,ji->ab", PAULI_KRON, validate_density(rho)).real


def correlation(rho, i, j):
    """Correlation function tr(rho sigma_i (x) sigma_j), as a real number."""
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise IndexError("correlation indices must lie in 0..3")
    return float(_table(rho)[i, j])


def bloch_of(rho):
    """Bloch-matrix representation of a density operator."""
    b = _table(rho)
    return BlochMatrix(u=b[1:, 0].copy(), v=b[0, 1:].copy(), C=b[1:, 1:].copy())


def density_of(bloch):
    """Density operator with the given Bloch matrix.

    Inverts the correlation map through Pauli orthogonality:
    rho = (1/4) sum_ij B_ij sigma_i (x) sigma_j with B_00 = 1. ValueError
    unless u, v have shape (3,), C shape (3, 3) and every entry is finite.
    """
    u, v = (_vec3(x, "density_of input") for x in (bloch.u, bloch.v))
    rows = _rows3(bloch.C, "density_of input")[0]
    # Scaling first keeps every partial sum within max |B|, so rho is finite.
    b = 0.25 * np.array([[1.0, *v], *([x, *row] for x, row in zip(u, rows))])
    return np.einsum("ab,abij->ij", b, PAULI_KRON)


def partial_trace(rho, which):
    """Partial trace over the other factor: which=1 returns the reduced
    state of qubit 1 (trace over qubit 2), which=2 the reduced state of
    qubit 2."""
    rho = validate_density(rho).reshape(2, 2, 2, 2)
    if which == 1:
        return np.trace(rho, axis1=1, axis2=3)
    if which == 2:
        return np.trace(rho, axis1=0, axis2=2)
    raise ValueError("which must be 1 or 2")


def bloch_vector(rho2):
    """Bloch vector of a single-qubit density matrix."""
    rho2 = np.asarray(rho2, dtype=complex)
    return np.array([np.trace(rho2 @ PAULI[i]).real for i in (1, 2, 3)])


def classify(rho, tol=DEFAULT_CLASS_TOL):
    """Classify a state by its Bloch coordinates.

    Locally maximally mixed: both 1-point vectors vanish. Symmetric:
    u = v and C is symmetric (equivalently the state commutes with the
    tensor swap). Both conditions together give SYMMETRIC_LMM. ValueError
    unless tol is finite and non-negative; 0 classifies exact coordinates.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    b = bloch_of(rho)
    lmm = norm_inf(b.u) <= tol and norm_inf(b.v) <= tol
    sym = norm_inf(b.u - b.v) <= tol and norm_inf(b.C - b.C.T) <= tol
    if lmm and sym:
        return StateClass.SYMMETRIC_LMM
    if lmm:
        return StateClass.LMM
    if sym:
        return StateClass.SYMMETRIC
    return StateClass.GENERAL


def is_positive(rho):
    """True if all eigenvalues of the 4x4 matrix are >= -POSITIVITY_TOL."""
    eigs = np.linalg.eigvalsh(validate_density(rho))
    return bool(eigs[0] >= -POSITIVITY_TOL)


BELL_KETS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_projector(which):
    """Projector onto one of the four Bell states: phi+, phi-, psi+, psi-."""
    ket = BELL_KETS[which]
    return np.outer(ket, ket.conj())


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_bloch(state_class, seed):
    """Random Bloch coordinates with entries uniform in [-1, 1], respecting
    the linear constraints of the class exactly (zero 1-point vectors for
    LMM, shared vector and symmetric C for symmetric states)."""
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
    return BlochMatrix(u=u, v=v, C=c)


def _ginibre_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(state_class, seed, positive=False):
    """Seeded random density operator of the given class.

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
        return density_of(random_bloch(state_class, rng))
    rho = _ginibre_state(rng)
    if state_class in (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM):
        rho = 0.5 * (rho + SWAP @ rho @ SWAP)
    if state_class in (StateClass.LMM, StateClass.SYMMETRIC_LMM):
        b = bloch_of(rho)
        b.u[:] = 0.0
        b.v[:] = 0.0
        rho = density_of(b)
    return rho
