"""Exception types shared across the package."""


class BlochInvError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(BlochInvError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotUnitary(BlochInvError):
    """A matrix required to be unitary is not, beyond tolerance."""


class NonHermitianInput(BlochInvError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DegenerateSpectrum(BlochInvError):
    """Eigenvalues (or singular values) coincide, so the requested
    quantity is not well defined on this input."""


class ZeroVector(BlochInvError):
    """The 1-point vector vanishes, so scale-normalized invariants
    are undefined."""


class NotRepresentable(BlochInvError):
    """A computed invariant is not a finite double at this scale."""


class StateFormatError(BlochInvError):
    """A state file or JSON document does not match the expected schema."""
