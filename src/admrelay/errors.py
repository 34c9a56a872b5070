"""Exception hierarchy shared across the toolkit.

Two branches matter to callers: ``ModelError`` for bad inputs or scenario
content (CLI exit status 1) and ``NumericalError`` for singular systems,
undefined measurements and non-finite results (CLI exit status 2).
"""

import cmath


class AdmrelayError(Exception):
    """Base class for all toolkit errors."""


class ModelError(AdmrelayError):
    """Invalid model data or an operation applied to an incompatible model."""


class ScenarioError(ModelError):
    """Malformed scenario file; message names the offending section/field."""


class NumericalError(AdmrelayError):
    """A computation failed numerically (singular, degenerate or divergent)."""


class DegenerateParallelError(NumericalError):
    """Parallel combination of impedances whose sum is numerically zero."""


class SingularSystemError(NumericalError):
    """Nodal system is singular or its solution residual is unacceptable."""


class ConvergenceError(NumericalError):
    """Calibration found no positive-sequence voltage to measure unbalance against."""


class MeasurementError(NumericalError):
    """Relay measurement is undefined (no current in the fault loop)."""


def require_finite(**values: complex) -> None:
    """A non-finite result is a numerical failure, never a printed row."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise NumericalError(f"{name} is not finite: {value}")
