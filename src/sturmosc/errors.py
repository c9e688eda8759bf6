"""Exception taxonomy shared across the package."""


class SturmoscError(Exception):
    """Base class for every error raised by this library."""


class NonFiniteSample(SturmoscError):
    """An evaluator returned nan or inf inside a queried interval."""


class ToleranceNotMet(SturmoscError):
    """The adaptive quadrature budget was exhausted before convergence."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class TailInfoMissing(SturmoscError):
    """A decision needed tail metadata that the profile does not declare."""


class SingularStartFailure(SturmoscError):
    """The Picard bootstrap at the singular origin did not settle."""


class AtPole(SturmoscError):
    """A comparison function was evaluated at (numerically) its pole."""


class OutOfValidity(SturmoscError):
    """An envelope was queried outside its validity interval."""


class MismatchedAnchor(SturmoscError):
    """Riccati comparison inputs disagree at the anchor point."""


class InvalidParams(SturmoscError):
    """Arguments violate a checker's or constructor's preconditions."""


class HypothesisViolated(SturmoscError):
    """Sampled data contradicts a criterion's standing hypothesis."""


class NoZeroAtT2(SturmoscError):
    """The Rayleigh construction needs a certified zero at the cut radius."""


class ConfigError(SturmoscError):
    """An experiment configuration file is malformed or incomplete."""
