"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotSkewHermitianError(ValueError):
    """A matrix required to be skew-Hermitian and traceless is not."""


class NotUnitaryError(ValueError):
    """A matrix required to be unitary is not, beyond tolerance."""


class EigenConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


class BlockStructureError(ValueError):
    """A block partition is malformed or does not match its operand."""


class InvalidQuasiPureError(ValueError):
    """A quasi-pure specification violates its normalization constraints."""


class SpectraMismatchError(ValueError):
    """Two quasi-pure states do not share the same spectrum."""


class DistinguishedStateNotMappedError(ValueError):
    """The candidate unitary does not carry one distinguished ray to the other."""


class StationaryStateError(ValueError):
    """The state is an eigenvector of the Hamiltonian, so its ray never moves."""


class NotOptimalError(ValueError):
    """The Hamiltonian does not drive the state at maximal speed."""


class FoldExceededError(ValueError):
    """A trajectory window crossed the fold of the ray distance at pi/2."""


class SerializationError(ValueError):
    """A JSON document does not match the interchange schema."""
