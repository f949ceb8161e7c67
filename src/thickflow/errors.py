"""Exception types shared across the solvers and the CLI harness."""


class ThickflowError(Exception):
    """Base class for all package errors."""


class FluxOverflow(ThickflowError):
    """Viscous flux magnitude exceeded the 1e300 overflow clamp."""


class VacuumError(ThickflowError):
    """Density dropped to zero or below after a transport update."""


class NewtonDivergence(ThickflowError):
    """Implicit viscous solve failed to reach the residual tolerance.

    Carries the last residual norm and the damping history so failed
    runs can be diagnosed from the CLI error report.
    """

    def __init__(self, message, last_residual=None, damping_history=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.damping_history = damping_history or []


class ConstraintViolation(ThickflowError):
    """Shear magnitude reached or crossed the |du/dx| = 1 barrier.

    For the singular-viscosity solver this always indicates a scheme
    bug, never a legitimate state.
    """


class SolverDivergence(ThickflowError):
    """Velocity minimization in the 2D solver failed to converge."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class StepFailure(ThickflowError):
    """A time step failed after retries; carries the failing time."""

    def __init__(self, message, t=None, cause=None):
        super().__init__(message)
        self.t = t
        self.cause = cause


class ParseError(ThickflowError):
    """Config text could not be parsed; message carries line numbers."""


class ValidationError(ThickflowError):
    """Config parsed but failed validation; carries all field errors."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
