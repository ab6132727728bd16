"""Time-weighted trajectory norms and admissibility of weight exponents.

The weighted norm over a horizon (0, T) is

    ( integral_0^T t^(b*vexp) ||u(.,t)||_X^vexp dt )^(1/vexp),

with sup_{0<t<T} t^b ||u(.,t)||_X at vexp = inf. The spatial norm X is a
scale-indexed A^s_{p,q} norm. Quadrature is trapezoidal in log t on the
trajectory's own sample grid; a coverage flag records whether the samples
actually span the decades of (0, T).

Admissibility couples the weight exponent a, the integrability v, and the
smoothness gap s - s0: with inv_v = 1/v (0 at v = inf), the window is

    r (s - s0) / alpha  <  a + inv_v  <  2,      1/2 < v <= inf,

and the solver-facing derived quantities are

    delta = a v - r (s - s0) v / alpha + 1,
    kappa = a v + 2 r v - a r v - r + 1,

both required positive. delta > 0 is equivalent to the lower window bound;
kappa > 0 is implied by the upper bound (it is equivalent to the weaker
a + inv_v < 2r/(r-1)), so the joint sign test matches the window exactly
on the regime a < 2 - inv_v where these exponents are used.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dyadic import a_norms_of_spectra
from .errors import InconsistentGridError, ParameterError, _reject_bools
from .grid import RealField, TorusGrid, _batches, real_samples, real_spectra


@dataclass(frozen=True)
class TimeWeight:
    """Weight exponent b, integrability v in [1/2, inf], horizon T."""

    b: float
    v: float
    T: float

    def __post_init__(self):
        _reject_bools(self, ("b", "v", "T"))
        if not math.isfinite(self.b):
            raise ParameterError(f"weight exponent b must be finite, got {self.b}")
        if not self.v >= 0.5:
            raise ParameterError(f"v must satisfy 1/2 <= v <= inf, got {self.v}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"horizon T must be positive and finite, got {self.T}")


def _sample_times(times, count):
    """The sample times as a tuple of floats, checked against ``count`` fields."""
    times = tuple(float(t) for t in times)
    if len(times) != count or not times:
        raise ParameterError("times and fields must be equal-length and nonempty")
    arr = np.asarray(times)
    if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
        raise ParameterError("sample times must be positive and strictly increasing")
    return times


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """Time samples 0 < t_1 < ... < t_M and the real field at each of them,
    held as one read-only stack ``spectra`` of shape (M,) + grid.half_shape:
    the unitary rfftn half spectrum of every field.

    ``Trajectory(times, fields)`` transforms a sequence of real fields on one
    grid; ``from_spectra`` adopts a stack the library has built.
    """

    times: tuple
    spectra: np.ndarray
    grid: TorusGrid

    def __init__(self, times, fields):
        fields = tuple(fields)
        times = _sample_times(times, len(fields))
        grid = fields[0].grid
        spectra = np.empty((len(fields),) + grid.half_shape, dtype=np.complex128)
        for part in _batches(len(fields), 16 * math.prod(grid.half_shape)):
            chunk = fields[part]
            if any(f.grid != grid for f in chunk):
                raise InconsistentGridError("all trajectory fields must share one grid")
            spectra[part] = real_spectra(np.stack([f.samples for f in chunk]), grid)
        self._adopt(times, spectra, grid)

    @classmethod
    def from_spectra(cls, times, spectra, grid):
        """A trajectory owning ``spectra`` (locked in place, not copied)."""
        if spectra.dtype != np.complex128 or spectra.shape[1:] != grid.half_shape:
            raise ParameterError(
                f"spectra of shape {spectra.shape} and type {spectra.dtype} are not a "
                f"complex128 stack of half spectra {grid.half_shape}")
        traj = cls.__new__(cls)
        traj._adopt(_sample_times(times, len(spectra)), spectra, grid)
        return traj

    def _adopt(self, times, spectra, grid):
        spectra.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "spectra", spectra)
        object.__setattr__(self, "grid", grid)

    def __len__(self):
        return len(self.times)

    @property
    def fields(self):
        """The real fields, each transformed from ``spectra`` when accessed."""
        return _Fields(self.spectra, self.grid)

    @property
    def terminal(self):
        return self.fields[-1]


class _Fields(Sequence):
    """Read-only sequence of the real fields of a spectra stack; every access
    makes one inverse transform and keeps nothing."""

    def __init__(self, spectra, grid):
        self._spectra = spectra
        self._grid = grid

    def __len__(self):
        return len(self._spectra)

    def __getitem__(self, index):
        return RealField(self._grid, real_samples(self._spectra[index], self._grid))


def log_time_grid(t_min, t_max, per_decade=64):
    """Log-spaced sample times, ``per_decade`` samples per decade."""
    if not 0 < t_min < t_max:
        raise ParameterError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    decades = math.log10(t_max / t_min)
    count = max(2, int(math.ceil(decades * per_decade)) + 1)
    return np.geomspace(t_min, t_max, count)


@dataclass(frozen=True)
class WeightedNormResult:
    """Value of a weighted trajectory norm plus a sample-coverage flag."""

    value: float
    coverage_ok: bool
    note: str = ""

    def __float__(self):
        return self.value


def weighted_norm(traj, w, sp, vexp, decomposition=None):
    """Weighted norm of a trajectory; trapezoid in log t for finite vexp.

    Sample times must lie in (0, T]. Coverage is flagged when the earliest
    sample is above T/1000 or the last sits below 0.98 T, since then the
    quadrature cannot see the full decade span of (0, T). The norms use the
    grid's own dyadic decomposition; one passed in must belong to the
    trajectory's grid.
    """
    if decomposition is not None and decomposition.grid != traj.grid:
        raise InconsistentGridError(
            f"decomposition of {decomposition.grid} used on {traj.grid}")
    if not vexp >= 1:
        raise ParameterError(f"integration exponent must satisfy 1 <= vexp <= inf, got {vexp}")
    times = np.asarray(traj.times)
    if times[-1] > w.T * (1 + 1e-12):
        raise ParameterError(f"trajectory reaches t = {times[-1]} beyond horizon T = {w.T}")
    coverage_ok = times[0] <= w.T * 1e-3 * (1 + 1e-12) and times[-1] >= 0.98 * w.T
    note = "" if coverage_ok else (
        f"samples cover [{times[0]:.3e}, {times[-1]:.3e}] of (0, {w.T:.3e}); "
        "weighted norm may miss mass near the endpoints")
    if not math.isinf(vexp) and times.size < 2:
        raise ParameterError("finite-exponent weighted norms need at least two samples")
    norms = a_norms_of_spectra(traj.spectra, traj.grid, sp)
    return WeightedNormResult(value=time_weighted_norm(times, norms, w.b, vexp),
                              coverage_ok=coverage_ok, note=note)


def time_weighted_norm(times, norms, b, vexp):
    """The weighted norm from spatial norms sampled at ``times``.

    sup_i t_i^b norms_i at vexp = inf, else the trapezoid in log t of
    t^(b vexp) norms^vexp dt, to the power 1/vexp.
    """
    times = np.asarray(times)
    if math.isinf(vexp):
        return float(np.max(times ** b * norms))
    integrand = times ** (b * vexp) * norms ** vexp
    # dt = t dlog t: trapezoid on the log axis.
    return float(np.trapezoid(integrand * times, np.log(times)) ** (1.0 / vexp))


@dataclass(frozen=True)
class Admissibility:
    """Joint record for one exponent tuple (a, v, s, s0) and model params.

    ``delta`` and ``kappa`` are the contraction exponents; at v = inf the
    stored values are their leading coefficients in v (the additive
    constants vanish in the limit), keeping the sign information. The
    classification compares s0 against the scaling-critical smoothness
    n/p - 2 alpha / (r-1).
    """

    a: float
    v: float
    s: float
    s0: float
    alpha: float
    r: float
    p: float
    delta: float
    kappa: float
    admissible: bool
    critical_s0: float
    classification: str


def _window_predicate(a, v, s, s0, m):
    """The strict two-sided window on a + 1/v, with 1/v = 0 at v = inf."""
    inv_v = 0.0 if math.isinf(v) else 1.0 / v
    gap = m.r * (s - s0) / m.alpha
    return gap < a + inv_v < 2.0


def _sign_exponents(a, v, s, s0, m):
    """(delta, kappa); leading-order coefficients in v when v = inf."""
    gap = m.r * (s - s0) / m.alpha
    if math.isinf(v):
        return a - gap, a * (1.0 - m.r) + 2.0 * m.r
    delta = a * v - gap * v + 1.0
    kappa = a * v + 2.0 * m.r * v - a * m.r * v - m.r + 1.0
    return delta, kappa


def admissibility(a, v, s, s0, m, p):
    """Evaluate the admissibility window and derived exponents for one tuple.

    Requires s >= s0 and 1/2 < v <= inf. ``p`` fixes the integrability of
    the data space for the criticality classification.
    """
    if not s >= s0:
        raise ParameterError(f"need s >= s0, got s = {s}, s0 = {s0}")
    if not v > 0.5:
        raise ParameterError(f"need 1/2 < v <= inf, got v = {v}")
    if not p >= 1:
        raise ParameterError(f"p must satisfy 1 <= p <= inf, got {p}")
    delta, kappa = _sign_exponents(a, v, s, s0, m)
    admissible = _window_predicate(a, v, s, s0, m)
    critical = m.critical_smoothness(p)
    tol = 1e-12 * max(1.0, abs(critical), abs(s0))
    if s0 > critical + tol:
        classification = "supercritical: local solutions expected for large data"
    elif s0 < critical - tol:
        classification = "subcritical: well-posedness in this scale not expected"
    else:
        classification = "critical: global solutions expected for small data"
    return Admissibility(a=float(a), v=float(v), s=float(s), s0=float(s0),
                         alpha=float(m.alpha), r=float(m.r), p=float(p),
                         delta=float(delta), kappa=float(kappa),
                         admissible=bool(admissible), critical_s0=float(critical),
                         classification=classification)


def equivalence_check(a, v, s, s0, m):
    """Whether the window predicate agrees with (delta > 0 and kappa > 0).

    The agreement is an identity on the regime a < 2 - 1/v; outside it the
    sign test is strictly weaker on the upper side (see module docstring).
    """
    if not v > 0.5:
        raise ParameterError(f"need 1/2 < v <= inf, got v = {v}")
    delta, kappa = _sign_exponents(a, v, s, s0, m)
    return _window_predicate(a, v, s, s0, m) == (delta > 0.0 and kappa > 0.0)
