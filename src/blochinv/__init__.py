"""Local-unitary invariants of two-qubit states in the Bloch-matrix model.

The package computes the invariant triple (t2, t3, t4) of locally
maximally mixed states, the six generating invariants of symmetric
states, canonical forms on the diagonal slices, and constructive
local-unitary equivalence decisions with rotation witnesses, together
with a seeded verification battery for every identity these rest on.

Importing the package does not import numpy: only the group machinery
with the seeded draws (blochinv.groups) and the battery (blochinv.verify)
import it, and they load on first use of one of their names.
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
)

__version__ = "0.1.0"

# The battery's suites, in the order that seeds their trial generators
# (verify.trial_rng); defined here so that the command line lists them
# without importing the battery.
SUITES = ("bloch", "lmm", "sym", "group", "orbit")

# Names of the two modules that import numpy when loaded, resolved on first
# use (PEP 562), so that `import blochinv` does not load numpy.
_LAZY = {
    **dict.fromkeys(("SignedPerm", "act_bloch", "act_density", "haar_so3", "haar_su2",
                     "lmm_weyl_action_group", "lmm_weyl_pair", "octahedral_group",
                     "random_bloch", "random_state", "so3_of_u2"), "groups"),
    **dict.fromkeys(("run_all", "run_suite"), "verify"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
