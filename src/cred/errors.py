"""Exception types shared across the package."""


class CredError(Exception):
    """Base class for all library errors."""


class ConfigurationError(CredError):
    """Physically or structurally invalid input data."""


class NumericalError(CredError):
    """A numerical routine failed to converge or produced unusable output."""


class DegenerateEigenvalueError(CredError):
    """Sensitivity requested at a repeated (non-simple) eigenvalue."""


class TrackingError(CredError):
    """Eigenvalue continuity lost while sweeping a gain parameter."""


class CoverageError(CredError):
    """A piecewise table was evaluated or required outside its swept range."""


class ContractError(CredError):
    """An argument breaks a function's stated contract (e.g. eta outside (0, 1))."""


class InsufficientDataError(CredError):
    """Too few detection samples to form moment estimates."""


class BuildError(CredError):
    """An optimization instance could not be assembled."""


class InfeasibleError(CredError):
    """The optimization problem admits no feasible point."""


class BandInfeasibleError(InfeasibleError):
    """No droop within a period's wind band meets every stability row; shedding cannot mend it."""


class ValidationFailure(CredError):
    """An exact a-posteriori stability check rejected a solved dispatch."""


class ClassificationError(CredError):
    """A trajectory does not contain enough structure to classify."""


class ScenarioError(CredError):
    """Scenario or sample file is malformed."""
