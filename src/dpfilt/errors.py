"""Exception hierarchy shared across the toolkit.

Every error carries an ``exit_code`` used by the CLI:
2 = invalid configuration or input, 3 = numerical failure,
4 = infeasible design for the given problem data, 5 = a stored design
whose noise scale is below what its privacy calibration requires.
"""


class DpfiltError(Exception):
    exit_code = 3


class ConfigError(DpfiltError):
    exit_code = 2


class InvalidDelta(ConfigError):
    """delta outside (0, 1)."""


class DimensionMismatch(ConfigError):
    """Signal/system channel counts do not line up."""


class NotDiagonal(ConfigError):
    """A diagonal system was required."""


class ImproperTransferFunction(ConfigError):
    """Rational entry is not a causal transfer function."""


class MissingForecastModel(ConfigError):
    """Forecast filter coefficients absent or malformed."""


class UnstableSystem(DpfiltError):
    exit_code = 4


class UnstableInverse(DpfiltError):
    exit_code = 4


class NotFactorizable(DpfiltError):
    exit_code = 4


class NotPositiveDefinite(DpfiltError):
    exit_code = 4


class DegenerateObjective(DpfiltError):
    exit_code = 4


class NotErgodic(DpfiltError):
    exit_code = 4


class LyapunovFailure(DpfiltError):
    exit_code = 3


class HorizonExceeded(DpfiltError):
    exit_code = 3


class OracleTooLarge(DpfiltError):
    exit_code = 3


class FactorizationStalled(DpfiltError):
    exit_code = 3


class OptimizerStalled(DpfiltError):
    exit_code = 3

    def __init__(self, message, best_profile=None):
        super().__init__(message)
        self.best_profile = best_profile    # the best allocation x reached


class InsufficientNoise(DpfiltError):
    """Stored noise_sigma below kappa times the recomputed sensitivity."""

    exit_code = 5
