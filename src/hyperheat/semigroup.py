"""The dissipative semigroup W_t = exp(-t (-Laplace)^alpha) on the torus.

W_t acts as the Fourier multiplier exp(-t |xi|^(2 alpha)). W_0 is the
identity exactly, the zero mode is conserved for all t, and the torus
kernel G_t (inverse transform of the multiplier, normalized to unit mass)
is the periodization of the whole-space kernel. For alpha = 1 and small t
it matches the periodized Gaussian (4 pi t)^(-n/2) exp(-|x|^2 / 4t);
for alpha >= 2 it changes sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import _block_l2_norms, a_norms_of_spectra
from .errors import InconsistentGridError, ParameterError, _reject_bools
from .grid import RealField, SpectralField, l2_norms_of_spectra, real_samples, real_spectra


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters: dissipation order alpha, power r, dimension n.

    alpha is a positive integer in the supported regime; non-integer
    alpha > 0 is accepted as a plain multiplier exponent and flagged as an
    extension via ``integer_order``. r >= 2, n >= 1.
    """

    alpha: float
    r: float
    n: int

    def __post_init__(self):
        _reject_bools(self, ("alpha", "r", "n"))
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not (self.r >= 2 and math.isfinite(self.r)):
            raise ParameterError(f"r must satisfy r >= 2, got {self.r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")

    @property
    def integer_order(self):
        return float(self.alpha).is_integer()

    def critical_smoothness(self, p):
        """n/p - 2 alpha / (r - 1), the scaling-invariant data smoothness."""
        if not p >= 1:
            raise ParameterError(f"p must satisfy 1 <= p <= inf, got {p}")
        n_over_p = 0.0 if math.isinf(p) else self.n / p
        return n_over_p - 2.0 * self.alpha / (self.r - 1.0)


def dissipation_symbol(grid, m):
    """|xi|^(2 alpha) on the rfftn half lattice, shape ``grid.half_shape``,
    as numpy's power (|xi|^2)^alpha, exact at alpha = 1 and 2. Every operator
    built from it refuses, through it, a model whose dimension is not the
    grid's."""
    if m.n != grid.n:
        raise InconsistentGridError(f"model of dimension n = {m.n} used on a {grid.n}-D grid")
    return grid.xi_squared ** m.alpha


def _orbit_multipliers(grid, m, times):
    """exp(-t_i |xi|^(2 alpha)) on the rfftn half lattice, stacked over the
    times: W_t for every t_i at once, shape ``(len(times),) + grid.half_shape``."""
    t = np.asarray(times, dtype=np.float64).reshape((-1,) + (1,) * grid.n)
    return np.exp(-t * dissipation_symbol(grid, m))


def apply_semigroup(F, t, m):
    """W_t applied to a spectral field; W_0 multiplies by exactly 1.

    The multiplier is real and even in k, so a Hermitian input stays Hermitian.
    """
    if not isinstance(F, SpectralField):
        raise ParameterError(f"the semigroup acts on a SpectralField, got {type(F).__name__}")
    if not t >= 0:
        raise ParameterError(f"semigroup time must satisfy t >= 0, got {t}")
    return SpectralField(F.grid, F.coefficients * _orbit_multipliers(F.grid, m, [t])[0])


def semigroup_property_check(F, t, s, m):
    """Relative defect || W_{t+s} F - W_t W_s F ||_2 / ||F||_2."""
    combined = apply_semigroup(F, t + s, m)
    staged = apply_semigroup(apply_semigroup(F, s, m), t, m)
    diff = combined.coefficients - staged.coefficients
    scale, defect = l2_norms_of_spectra(np.stack([F.coefficients, diff]), F.grid)
    if scale == 0.0:
        return 0.0
    return float(defect / scale)


def synthesize_kernel(t, grid, m):
    """The kernel G_t of W_t on the torus, normalized to unit integral.

    G_t(x) = L^-n sum_k exp(-t |xi_k|^(2 alpha)) exp(i xi_k . x); convolving
    against it reproduces the multiplier, and its Riemann integral is 1.
    """
    if not t > 0:
        raise ParameterError(f"kernel time must satisfy t > 0, got {t}")
    multiplier = _orbit_multipliers(grid, m, [t])[0]
    scale = math.sqrt(grid.size) / grid.volume
    return RealField(grid, real_samples(multiplier * scale, grid))


@dataclass(frozen=True)
class SmoothingReport:
    """Fitted decay of || W_t omega ||_{A^{s+d}} against t.

    slope/intercept come from least squares on log-log samples; the
    weighted ratios are t^(d / 2 alpha) * norm(t) / norm(0-gain), which the
    smoothing bound keeps under a constant. ``degenerate`` marks spectra
    concentrated in a single block, where the bound saturates trivially.
    """

    d: float
    slope: float
    intercept: float
    times: tuple
    norms: tuple
    weighted_ratios: tuple
    base_norm: float
    degenerate: bool
    note: str


def smoothing_rate(omega, sp, d, times, m):
    """Measure the norm-inflation rate of W_t from A^s into A^{s+d}.

    Samples || W_t omega ||_{A^{s+d}} over the given times in (0, 1], fits
    slope and intercept of the log-log decay, and reports the weighted
    ratios. The expected slope is -d / (2 alpha) on spectra that keep every
    scale active.
    """
    if not d >= 0:
        raise ParameterError(f"smoothness gain d must be >= 0, got {d}")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size < 2:
        raise ParameterError("need at least two sample times for a slope fit")
    if np.any(times <= 0) or np.any(times > 1.0):
        raise ParameterError("sample times must lie in (0, 1]")
    if np.any(np.diff(times) <= 0):
        raise ParameterError("sample times must be strictly increasing")
    grid = omega.grid
    C = real_spectra(omega.samples, grid)[None]
    base_norm = a_norms_of_spectra(C, grid, sp)[0]
    if base_norm == 0.0:
        raise ParameterError("smoothing probe needs a nonzero field")
    norms = a_norms_of_spectra(_orbit_multipliers(grid, m, times) * C, grid,
                               sp.with_smoothness(sp.s + d))
    if np.any(norms <= 0):
        raise ParameterError("semigroup output norm vanished; field outside covered band?")
    slope, intercept = np.polyfit(np.log(times), np.log(norms), 1)
    ratios = times ** (d / (2.0 * m.alpha)) * norms / base_norm
    # Energy spread across blocks; one active block makes the rate trivial.
    blocks = _block_l2_norms(C, grid)[0]
    degenerate = bool(np.count_nonzero(blocks > 1e-8 * np.linalg.norm(blocks)) <= 1)
    note = "bound saturated trivially: single active block" if degenerate else ""
    return SmoothingReport(d=float(d), slope=float(slope), intercept=float(intercept),
                           times=tuple(float(t) for t in times),
                           norms=tuple(float(v) for v in norms),
                           weighted_ratios=tuple(float(v) for v in ratios),
                           base_norm=float(base_norm), degenerate=degenerate, note=note)
