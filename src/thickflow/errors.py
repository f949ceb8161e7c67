"""Exception types shared across the solvers and the CLI harness, and
the checked base of the run-parameter classes."""

import numbers
from dataclasses import fields


class ThickflowError(Exception):
    """Base class for all package errors."""


class FluxOverflow(ThickflowError):
    """Viscous flux magnitude exceeded the 1e300 overflow clamp."""


class VacuumError(ThickflowError):
    """Density dropped to zero or below after a transport update."""


class NewtonDivergence(ThickflowError):
    """Implicit viscous solve failed to reach the residual tolerance;
    the message gives the last residual norm."""


class ConstraintViolation(ThickflowError):
    """Shear magnitude reached or crossed the |du/dx| = 1 barrier.

    For the singular-viscosity solver this always indicates a scheme
    bug, never a legitimate state.
    """


class SolverDivergence(ThickflowError):
    """Velocity minimization in the 2D solver failed to converge."""


class StepFailure(ThickflowError):
    """A time step failed after retries; carries the failing time."""

    def __init__(self, message, t=None, cause=None):
        super().__init__(message)
        self.t = t
        self.cause = cause


class ParseError(ThickflowError):
    """Config text could not be parsed; message carries line numbers."""


class ValidationError(ThickflowError, ValueError):
    """Config or parameters failed validation; carries all field errors."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def is_number(value, kind=float):
    """True for an int, or for any real number if kind is float; no bool."""
    return not isinstance(value, bool) and isinstance(
        value, numbers.Integral if kind is int else numbers.Real)


class Params:
    """Base of the run-parameter dataclasses, the one place of their
    defaults (the field defaults) and ranges (rules(), a list of (field,
    holds, message)). Building one raises one ValidationError that lists,
    as "field: message", every field that is not a number of its type or,
    if all are, every rule that fails."""

    def __post_init__(self):
        errors = [f"{f.name}: expected a number, got {getattr(self, f.name)!r}"
                  for f in fields(self)
                  if not is_number(getattr(self, f.name), f.type)]
        errors = errors or [f"{name}: {message}"
                            for name, holds, message in self.rules() if not holds]
        if errors:
            raise ValidationError(errors)


def solver_rules(params):
    """The rules of the fields every solver's params class has: the
    pressure constant a, gamma, cfl, newton_tol and newton_max_iter."""
    return [
        ("a", params.a > 0, "pressure constant a must be positive"),
        ("gamma", params.gamma > 1, "adiabatic exponent gamma must exceed 1"),
        ("cfl", 0 < params.cfl <= 1, "cfl must lie in (0, 1]"),
        ("newton_tol", params.newton_tol > 0,
         "Newton tolerance newton_tol must be positive"),
        ("newton_max_iter", params.newton_max_iter >= 1,
         "Newton iteration budget newton_max_iter must be >= 1"),
    ]
