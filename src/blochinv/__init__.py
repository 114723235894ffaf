"""Local-unitary invariants of two-qubit states in the Bloch-matrix model.

The package computes the invariant triple (t2, t3, t4) of locally
maximally mixed states, the six generating invariants of symmetric
states, canonical forms on the diagonal slices, and constructive
local-unitary equivalence decisions with rotation witnesses, together
with a seeded verification battery for every identity these rest on.
"""

from .errors import (
    BlochInvError,
    DegenerateSpectrum,
    NonHermitianInput,
    NotRepresentable,
    NotSymmetric,
    NotUnitary,
    StateFormatError,
    ZeroVector,
)
from .groups import (
    SignedPerm,
    act_bloch,
    act_density,
    haar_so3,
    haar_su2,
    lmm_weyl_action_group,
    lmm_weyl_pair,
    octahedral_group,
    so3_of_u2,
)
from .invariants import (
    LmmInvariants,
    OctahedralInvariants,
    SymInvariants,
    g_invariant,
    lmm_invariants,
    lmm_section_invariants,
    lmm_section_jacobian,
    octahedral_invariants,
    p9_eval,
    r_invariant,
    sym_invariants,
)
from .linalg import (
    EigenSym3,
    SignedSVD3,
    eig_sym3,
    signed_svd3,
)
from .orbits import (
    EquivalenceVerdict,
    LmmCanonicalForm,
    SymCanonicalForm,
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    sym_canonical,
)
from .states import (
    BlochMatrix,
    StateClass,
    bell_projector,
    bloch_of,
    classify,
    correlation,
    density_of,
    is_positive,
    partial_trace,
    random_bloch,
    random_state,
)
from .verify import run_all, run_suite

__version__ = "0.1.0"
