"""Exception hierarchy shared across the simulation modules."""


class SimulationError(Exception):
    """Base class for all nanorotor errors."""


class DomainError(SimulationError, ValueError):
    """Invalid quantum numbers or arguments outside an operation's domain."""


class ResolutionError(SimulationError):
    """A grid or basis is too coarse to represent the requested state."""


class TruncationError(SimulationError):
    """Significant state weight sits at the angular-momentum truncation boundary."""


class CoverageError(DomainError):
    """A spectrum table does not cover the (j, k) support of a state."""


class LevelAssignmentError(SimulationError):
    """Asymmetric-rotor eigenvalues cannot be attributed to symmetric-top labels."""


class PeakError(SimulationError):
    """Peak search failed (maximum at window edge or too few samples)."""


class ConfigError(SimulationError):
    """Experiment configuration failed validation."""


class TruncationWarning(UserWarning):
    """Raised as a warning when a truncated expansion loses tail mass."""
