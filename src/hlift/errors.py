"""Exception types shared across the package.

Everything recoverable derives from HliftError so callers can catch one
base class at the boundary.  Programming errors (wrong seed dimensions,
mutated shared state) raise plain ValueError / AssertionError instead and
are not part of this hierarchy on purpose.
"""


class HliftError(Exception):
    """Base class for all recoverable errors raised by this package."""


class NonFiniteError(HliftError):
    """A scalar operation left the real domain (sqrt/log of a non-positive
    argument, exp overflow).  Raised eagerly instead of propagating NaN."""


class ExprSyntaxError(HliftError):
    """Malformed expression text.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(HliftError):
    """An expression references a name that is not a variable, declared
    parameter, constant, or builtin function."""

    def __init__(self, name: str, offset: int = -1):
        where = f" (at offset {offset})" if offset >= 0 else ""
        super().__init__(f"unknown identifier '{name}'{where}")
        self.name = name
        self.offset = offset


class ExprEvalError(HliftError):
    """Expression evaluation failed (division by zero, log of a non-positive
    value, unbound variable).  Carries the span of the failing subexpression."""

    def __init__(self, message: str, span: tuple = (-1, -1)):
        super().__init__(f"{message} (span {span[0]}..{span[1]})")
        self.span = span


class FieldEvalError(HliftError):
    """A metric/potential/generator field could not be evaluated at a point."""


class AsymmetricMetricError(HliftError):
    """The kinetic block of a system evaluated to a visibly asymmetric matrix."""


class SingularMetricError(HliftError):
    """Metric (equivalently its kinetic block) is numerically singular."""


class SingularJacobianError(HliftError):
    """A point transformation has a singular Jacobian where it was probed."""


class StepLimitExceededError(HliftError):
    """The adaptive integrator hit its step budget before reaching the goal."""


class BlowUpError(HliftError):
    """Trajectory norm escaped beyond the blow-up threshold, or step size
    underflowed while trying to control a runaway solution."""


class MonotonicityViolationError(HliftError):
    """du/dsigma lost positivity, so the trajectory cannot be reparametrized
    by u.  Carries the first offending sigma."""

    def __init__(self, message: str, sigma: float):
        super().__init__(f"{message} (sigma = {sigma:.17g})")
        self.sigma = sigma


class SigmaInversionError(HliftError):
    """The root finder for the sigma at which a geodesic trajectory
    reaches a given u did not converge."""


class NonPositiveUdotError(HliftError):
    """Lifting a reduced state requires a strictly positive du/dsigma."""


class ZeroUdotError(HliftError):
    """An operation dividing by du/dsigma received zero."""


class OverdampedUnsupportedError(HliftError):
    """The closed-form damped solution only covers the underdamped range."""


class ScenarioError(HliftError):
    """A scenario file is malformed: unknown keys, missing parameters,
    or values of the wrong shape."""
