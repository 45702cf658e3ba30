"""Exception hierarchy."""


class SiegelDynamicsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SiegelDynamicsError):
    pass


class InvalidPoint(SiegelDynamicsError):
    pass


class InvalidDescriptor(SiegelDynamicsError):
    pass


class ModelMismatch(SiegelDynamicsError):
    pass


class NoBackwardStep(SiegelDynamicsError):
    """No in-domain preimage within the pseudo-hyperbolic step bound."""


class ConstructionFailed(SiegelDynamicsError):
    """Special backward-sequence construction could not keep the step bound."""


class OrbitTooShort(SiegelDynamicsError):
    pass
