"""Exception types shared across the package, and one bool check raising them."""


class HyperheatError(Exception):
    """Base class for all package errors."""


class ParameterError(HyperheatError, ValueError):
    """A parameter is outside its documented domain."""


class SymmetryError(HyperheatError, ValueError):
    """Spectral coefficients violate Hermitian symmetry beyond tolerance."""


class InconsistentGridError(HyperheatError, ValueError):
    """Two fields that must share a grid do not."""


class IntegrationError(HyperheatError, RuntimeError):
    """A time step produced non-finite or unstable values.

    Carries ``step`` (slab index) and ``time`` of the offending step.
    """

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class BlowupSuspectedError(HyperheatError, RuntimeError):
    """Fixed-point iteration diverged; blow-up of the solution suspected.

    Carries ``report``, the partial iteration report collected so far.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(HyperheatError, ValueError):
    """An experiment configuration file is malformed."""


def _reject_bools(obj, names, error=ParameterError):
    """Raise ``error`` if a named attribute of ``obj`` is a bool: range checks
    take True as 1, and a config holding it emits "True", which it cannot parse."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool):
            raise error(f"{name} must be a number, not the bool {value!r}")
