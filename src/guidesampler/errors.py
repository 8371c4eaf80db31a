"""Exception types shared across the package."""


class GuideSamplerError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedContextError(GuideSamplerError):
    """A masked context has no consistent completion with positive mass."""

    def __init__(self, message, positions=None):
        super().__init__(message)
        self.positions = tuple(positions) if positions is not None else None


class SizeCapError(GuideSamplerError):
    """An enumeration cap (state space or pattern count) was exceeded."""


class CapabilityError(GuideSamplerError):
    """A component lacks an optional capability the caller requires."""


class DegenerateStepError(GuideSamplerError):
    """All guided weights at one decode step fell below the usable floor."""

    def __init__(self, step, position, message=None):
        self.step = step
        self.position = position
        super().__init__(
            message
            or f"all guided symbol weights vanished at decode step {step} "
            f"(position {position})"
        )


class TrainingDivergedError(GuideSamplerError):
    """Training produced a non-finite loss."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"training loss became non-finite at step {step}")


class TimeHorizonError(GuideSamplerError):
    """Rates were requested too close to the t=1 singularity."""


class ConfigError(GuideSamplerError):
    """Invalid run configuration (CLI exit code 2)."""
