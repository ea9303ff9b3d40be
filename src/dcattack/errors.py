"""Exception types shared across the package."""


class DcAttackError(Exception):
    """Base class for all package errors."""


class CaseError(DcAttackError):
    """Malformed or inconsistent network case input."""


class ModelError(DcAttackError):
    """Network cannot be turned into a usable DC model (disconnected, no loads, ...)."""


class SolverError(DcAttackError):
    """LP kernel failed numerically (iteration cap, singular basis, bad certificate)."""


class PreconditionError(DcAttackError):
    """A documented operation precondition was violated by the caller."""


class AttackError(DcAttackError):
    """No certified attack could be produced."""


class RestartSignal(DcAttackError):
    """A local attack start cannot make progress and should be resampled."""


class DeadlineSignal(DcAttackError):
    """The caller's wall-clock deadline passed inside a solve."""


class PolicyVerificationError(DcAttackError):
    """A defense policy failed sampled verification inside its claimed ball."""


class GeometryError(DcAttackError):
    """Degenerate geometry (e.g. affinely dependent simplex vertices)."""
