"""Exception types shared across the package, and one bool check raising them."""


class HyperheatError(Exception):
    """Base class for all package errors."""


class ParameterError(HyperheatError, ValueError):
    """A parameter is outside its documented domain."""


class SymmetryError(HyperheatError, ValueError):
    """Spectral coefficients violate Hermitian symmetry beyond tolerance."""


class InconsistentGridError(HyperheatError, ValueError):
    """Two fields that must share a grid do not."""


class BlowupSuspectedError(HyperheatError, RuntimeError):
    """A solve cannot go past ``time``, the slab time where it stopped.

    The Picard march raises it when its iteration diverges or stops
    contracting, with ``report`` the partial report of the slabs certified
    before (None when the first slab fails); the exponential integrator
    raises it at an unstable step, with no report.
    """

    def __init__(self, message, time, report=None):
        super().__init__(message)
        self.time = time
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
