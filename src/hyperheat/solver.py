"""Mild solutions as fixed points of the variation-of-constants operator.

The operator maps a trajectory u to

    (T u)(t) = W_t u0 + integral_0^t W_{t-tau} |u|^{r-1} u (tau) dtau.

The integral is evaluated mode by mode, exactly against a reconstruction
of the nonlinearity that is piecewise linear in tau between slab
endpoints; the slab weights are the phi-functions

    phi1(z) = (e^z - 1)/z,    phi2(z) = (e^z - 1 - z)/z^2,

with z = -dt |xi|^(2 alpha); the recursion carries the solution itself from
slab end to slab end, U_i = e^z U_{i-1} + (slab integral), U_0 = u0. Fixed
points are found by Picard iteration, with distances measured in the
time-weighted norm, from a first iterate near the fixed point: one causal
march of the same recursion, each slab's end forcing first taken at an
exponential Adams-Bashforth 3 prediction (Cox & Matthews 2002) and then
re-evaluated at the corrected slab end until the defect left for the sweep
fits a share of the tolerance or stops shrinking, an exponential
predictor-corrector (Hochbruck & Ostermann 2010). The march is the only
per-slab convergence control: every sweep then runs over all slabs from u0,
and one sweep usually certifies the start. A sweep only reads its iterate,
so its distance is that iterate's measured fixed-point defect, and the
solve returns the iterate its last sweep read. A march that runs away ends
the solve with a blow-up error dated at the slab where it left the data's
scale.
An exponential predictor-corrector integrator marching the same slabs
provides an independent trajectory for cross-validation.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .dyadic import a_norms_of_spectra
from .errors import (BlowupSuspectedError, InconsistentGridError, IntegrationError,
                     ParameterError, _reject_bools)
from .grid import RealField, _batches, l2_norms_of_spectra, real_samples, real_spectra
from .semigroup import dissipation_symbol
from .timenorms import Trajectory, admissibility, log_time_grid, time_weighted_norm


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls for one solve.

    The default time grid is hybrid: 32 log-spaced samples per decade from
    horizon * 1e-4 up to horizon * 1e-2 (a fixed head, so weighted norms see
    the decades near t = 0), then ``slabs`` uniform samples up to the horizon
    (so centered time differences stay accurate). A non-empty ``times``
    tuple replaces that construction; ``extra_times`` are merged into
    either grid. The slab quadrature has no option: the forcing is
    reconstructed piecewise linearly in tau and integrated exactly.
    """

    horizon: float
    slabs: int = 160
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    dealias_factor: float = 1.5
    times: tuple = ()
    extra_times: tuple = ()

    def __post_init__(self):
        _reject_bools(self, ("horizon", "slabs", "picard_tol", "picard_max_iter",
                             "dealias_factor"))
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        for name in ("slabs", "picard_max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.slabs < 4:
            raise ParameterError(f"need at least 4 slabs, got {self.slabs}")
        if not 0 < self.picard_tol < 1:
            raise ParameterError(f"picard_tol must be in (0, 1), got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ParameterError("picard_max_iter must be >= 1")
        if not self.dealias_factor >= 1:
            raise ParameterError(f"dealias_factor must be >= 1, got {self.dealias_factor}")
        for name in ("times", "extra_times"):
            value = getattr(self, name)
            value = () if value is None else tuple(float(t) for t in value)
            if not all(map(math.isfinite, value)):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


def slab_times(cfg):
    """The slab-endpoint grid 0 < t_1 < ... < t_M = horizon."""
    T = cfg.horizon
    extra = np.asarray(cfg.extra_times, dtype=np.float64)
    if extra.size and (np.any(extra <= 0) or np.any(extra >= T * (1 - 1e-9))):
        raise ParameterError("extra_times must lie strictly inside (0, horizon)")
    if cfg.times:
        t = np.asarray(cfg.times, dtype=np.float64)
        if t.size < 2:
            raise ParameterError("explicit times must be a grid of >= 2 points")
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("explicit times must be positive and strictly increasing")
        if abs(t[-1] - T) > 1e-9 * T:
            raise ParameterError(f"explicit times must end at the horizon {T}, got {t[-1]}")
    else:
        t = np.concatenate([np.linspace(0.0, T, cfg.slabs + 1)[1:],
                            log_time_grid(T * 1e-4, T * 1e-2, 32)])
    t = np.unique(np.concatenate([t, extra]))
    keep = np.concatenate([[True], np.diff(t) > 1e-12 * T])
    return t[keep]


# phi-function Taylor weights 1/(k+1)! and 1/(k+2)!, k = 0..12.
_PHI1_COEFFS = np.array([1.0 / math.factorial(k + 1) for k in range(13)])
_PHI2_COEFFS = np.array([1.0 / math.factorial(k + 2) for k in range(13)])


def _phi(z, coeffs, closed_form):
    """A phi-function: its Taylor series (``coeffs``, Horner) below
    |z| = 1/2 to dodge cancellation, ``closed_form`` above."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) <= 0.5
    out = np.empty_like(z)
    zs = z[small]
    taylor = np.zeros_like(zs)
    for c in coeffs[::-1]:
        taylor = taylor * zs + c
    out[small] = taylor
    zb = z[~small]
    out[~small] = closed_form(zb)
    return out


def phi1(z):
    """(e^z - 1)/z, Taylor below |z| = 1/2 to dodge cancellation."""
    return _phi(z, _PHI1_COEFFS, lambda zb: np.expm1(zb) / zb)


def phi2(z):
    """(e^z - 1 - z)/z^2, Taylor below |z| = 1/2 to dodge cancellation."""
    return _phi(z, _PHI2_COEFFS, lambda zb: (np.expm1(zb) - zb) / (zb * zb))


def _move_halves(src, dst, axis, h):
    """Copy the low modes k = 0..h-1 and the high modes k = -h+1..-1 of
    ``src`` along ``axis`` into the same modes of ``dst`` and zero the rows
    between them in ``dst``. With the longer lattice in ``dst`` this embeds
    the axis in padding, with the shorter one it truncates the axis; either
    way the Nyquist row k = h is dropped."""
    lead = (slice(None),) * axis
    low, gap, high = (lead + (part,) for part in (slice(None, h), slice(h, 1 - h),
                                                   slice(1 - h, None)))
    dst[low] = src[low]
    dst[gap] = 0.0
    dst[high] = src[high]


@lru_cache(maxsize=16)
def _kernel_plan(grid, dealias_factor):
    """The power kernel's plan on one grid, immutable and shared by every
    call: the even points M per axis of the dealiasing lattice and the bytes
    one slab of a batch touches. Those are the kernel's buffers (the padded
    spectrum, the intermediate lattices of the full axes, the magnitude and
    the half-lattice output), the real field of its irfft and the spectrum
    of its rfft, the only arrays its transforms make (the full axes
    transform in place), and the recursion rows of the slab."""
    if not dealias_factor >= 1:
        raise ParameterError(f"dealias_factor must be >= 1, got {dealias_factor}")
    n, N = grid.n, grid.points_per_dim
    M = 2 * math.ceil(N * dealias_factor / 2)
    padded = M ** (n - 1) * (M // 2 + 1)
    # Full axis j < n - 1 has its own lattice: axes up to j at M points, the
    # later full axes at N and the last axis at N/2.
    stages = sum(M ** j * N ** (n - 1 - j) for j in range(1, n - 1)) * (N // 2)
    half = math.prod(grid.half_shape)
    slab_bytes = 16 * (2 * padded + stages) + 8 * 2 * M ** n + 16 * 3 * half + 8 * 3 * half
    return M, slab_bytes


def _power_map(grid, r, dealias_factor, batch):
    """The power kernel for stacks of at most ``batch`` fields: a function
    from the half-lattice spectra of real fields u to those of |u|^{r-1} u,
    dealiased, returned as a view of the map's output buffer that its next
    call overwrites.

    Each field is zero-padded to the lattice enlarged by ``dealias_factor``,
    evaluated pointwise there and truncated back, one axis at a time, so no
    transform runs over a pencil that holds only padding (FFT pruning). On
    the way in each full axis is embedded into M points (``_move_halves``)
    and transformed while later axes stay at N points; the last axis, in
    M/2 + 1 columns, takes an irfft. On the way out an rfft keeps N/2
    columns and each full axis, last first, is transformed and truncated
    before the next. The unpaired Nyquist planes are zero on the way in and
    out (they cannot be embedded symmetrically); band-limited workflows
    never populate them.

    The map owns its buffers, one batch long: the zeroed padded spectrum and
    output, a lattice per full axis but the last (reused on the way out),
    and the magnitude. The full axes transform in place, so each call zeroes
    their padding rows again. Callers build a map per call and drop it on
    return, so nested and concurrent calls share no buffer.
    """
    n, N = grid.n, grid.points_per_dim
    M = _kernel_plan(grid, dealias_factor)[0]
    h = N // 2
    # Unitary transforms on the two lattices differ by (M/N)^(n/2); the power
    # map is homogeneous of degree r, so the factor is applied once, on the
    # way out.
    gain = ((M / N) ** (n / 2.0)) ** (r - 1.0)
    stages = [np.zeros((batch,) + (M,) * j + (N,) * (n - 1 - j) + (h,), dtype=np.complex128)
              for j in range(1, n - 1)]
    padded = np.zeros((batch,) + (M,) * (n - 1) + (M // 2 + 1,), dtype=np.complex128)
    magnitudes = np.empty((batch,) + (M,) * n)
    out = np.zeros((batch,) + grid.half_shape, dtype=np.complex128)
    # Full axis j is embedded into stages[j - 1], the last into the padded
    # spectrum's first N/2 columns.
    lattices = stages + [padded[..., :h]]

    def power(spectra):
        count = len(spectra)
        field = spectra[..., :h]
        if n == 1:
            padded[:count, :h] = field
        # The full axes transform in place (``out=`` is their input), so the
        # last one lands in ``padded`` for the irfft.
        for axis, lattice in zip(range(1, n), lattices):
            lattice = lattice[:count]
            _move_halves(field, lattice, axis, h)
            field = np.fft.ifft(lattice, axis=axis, norm="ortho", out=lattice)
        fine = np.fft.irfft(padded[:count], n=M, axis=-1, norm="ortho")
        magnitude = np.abs(fine, out=magnitudes[:count])
        magnitude **= r - 1.0
        fine *= magnitude
        field = np.fft.rfft(fine, axis=-1, norm="ortho")[..., :h]
        del fine
        for axis in range(n - 1, 0, -1):
            np.fft.fft(field, axis=axis, norm="ortho", out=field)
            if axis > 1:
                _move_halves(field, stages[axis - 2][:count], axis, h)
                field = stages[axis - 2][:count]
        if n == 1:
            np.multiply(field, gain, out=out[:count, :h])
        else:
            field *= gain
            _move_halves(field, out[:count][..., :h], 1, h)
        return out[:count]

    return power


def _power_batches(spectra, grid, r, dealias_factor):
    """Half-lattice spectra of |u|^{r-1} u for a stack of half-lattice spectra
    of real fields u, one batch of slabs at a time, through one
    ``_power_map``.

    Yields ``(start, stop, power)``, ``power`` being the result for
    ``spectra[start:stop]``. It is a view of the map's output buffer that the
    next batch overwrites, and each batch, cut by ``grid._batches`` at the
    plan's bytes per slab, is read from ``spectra`` only when it is reached,
    so the caller may overwrite the slabs it has been given.
    """
    batches = _batches(len(spectra), _kernel_plan(grid, dealias_factor)[1])
    # The first batch is the longest.
    power = _power_map(grid, r, dealias_factor, batches[0].stop if batches else 0)
    for part in batches:
        yield part.start, part.stop, power(spectra[part])


def _power_spectra(spectra, grid, r, dealias_factor):
    """The whole stack of ``_power_batches`` as one array."""
    out = np.empty_like(spectra)
    for start, stop, power in _power_batches(spectra, grid, r, dealias_factor):
        out[start:stop] = power
    return out


def nonlinearity(u, r, dealias_factor=1.5):
    """|u|^{r-1} u evaluated pointwise on the dealiasing grid.

    Odd in u by construction. Exact for polynomial powers as long as the
    active band times (r+1)/2 stays inside the padded lattice; for other
    powers the residual aliasing can be measured with ``aliasing_probe``.
    """
    if not r > 1:
        raise ParameterError(f"nonlinearity exponent must exceed 1, got {r}")
    c = real_spectra(u.samples, u.grid)
    out = _power_spectra(c[None], u.grid, r, dealias_factor)[0]
    return RealField(u.grid, real_samples(out, u.grid))


def aliasing_probe(u, r, dealias_factor=1.5):
    """Relative sup-norm shift of the nonlinearity when padding is doubled."""
    base = nonlinearity(u, r, dealias_factor)
    ref = nonlinearity(u, r, 2.0 * dealias_factor)
    scale = max(float(np.max(np.abs(ref.samples))), 1e-300)
    return float(np.max(np.abs(base.samples - ref.samples))) / scale


@dataclass(frozen=True, eq=False)
class _SlabWeights:
    """Per-slab factors on the half lattice, slab i = (t_{i-1}, t_i]:
    decay = exp(z), phi1 = dt phi1(z) and phi2 = dt phi2(z) with
    z = -dt |xi|^(2 alpha), one row per distinct step dt, slab i reading row
    ``step[i]``. The recursion carries the solution, so no row needs t_i."""

    step: np.ndarray
    decay: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray


@lru_cache(maxsize=4)
def _slab_weights(grid, m, times):
    """The slab weights for a tuple of slab-end times, built once and shared by
    the Duhamel recursion and the exponential integrator (read-only). Four
    slab grids are kept, so a solve interleaved with an order study at three
    slab counts rebuilds none of them."""
    lam = dissipation_symbol(grid, m)
    steps, step = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    dt = steps.reshape((-1,) + (1,) * grid.n)
    z = -dt * lam
    arrays = [step, np.exp(z), dt * phi1(z), dt * phi2(z)]
    for a in arrays:
        a.setflags(write=False)
    return _SlabWeights(*arrays)


def _duhamel_sweep(stack, carry, weights, grid, r, dealias_factor):
    """The solution U_i = e^{-dt_i lam} U_{i-1} + (slab integral of w) at the
    slab ends i = 1 .. len(stack), from ``carry``, the solution u0 at tau = 0,
    which the sweep never writes.

    The forcing w = |u|^{r-1} u, that of ``carry`` and of ``stack`` batch by
    batch, is piecewise linear in tau; each slab integral is exact for that
    reconstruction via phi1/phi2. Yields ``(start, stop, terms)``, the image
    at slab ends start+1..stop; the caller may then overwrite those slabs of
    ``stack``, but not ``terms``, whose last slab carries.
    """
    left = _power_map(grid, r, dealias_factor, 1)(carry[None])[0]
    for start, stop, forcing in _power_batches(stack, grid, r, dealias_factor):
        rows = weights.step[start:stop]
        previous = np.concatenate([left[None], forcing[:-1]])
        terms = weights.phi1[rows] * previous + weights.phi2[rows] * (forcing - previous)
        decay = weights.decay[rows]
        terms[0] += decay[0] * carry
        for i in range(1, len(terms)):
            terms[i] += decay[i] * terms[i - 1]
        left = forcing[-1].copy()
        carry = terms[-1]
        yield start, stop, terms


def _duhamel_spectra(u0_hat, stack, times, cfg, m, grid):
    """The operator applied, from data of half spectrum ``u0_hat``, to a
    trajectory given as the half-lattice spectra ``stack`` at the slab-end
    ``times``; the image overwrites ``stack``, which is returned."""
    weights = _slab_weights(grid, m, tuple(float(t) for t in times))
    for start, stop, terms in _duhamel_sweep(stack, u0_hat, weights, grid, m.r,
                                             cfg.dealias_factor):
        stack[start:stop] = terms
    return stack


def duhamel_apply(u0, traj, cfg, m):
    """One application of the variation-of-constants operator to a trajectory.

    The trajectory must live on slab endpoints ending at the horizon; the
    nonlinearity at tau = 0 is taken from u0.
    """
    if traj.grid != u0.grid:
        raise InconsistentGridError("trajectory and initial data live on different grids")
    grid = u0.grid
    times = np.asarray(traj.times)
    if abs(times[-1] - cfg.horizon) > 1e-9 * cfg.horizon:
        raise ParameterError(
            f"trajectory must end at the horizon {cfg.horizon}, got {times[-1]}")
    image = _duhamel_spectra(real_spectra(u0.samples, grid), traj.spectra.copy(), times,
                             cfg, m, grid)
    return Trajectory.from_spectra(times, image, grid)


@dataclass(frozen=True)
class PicardReport:
    """Outcome of a Picard solve.

    ``distances`` holds one entry per sweep over all slabs: the weighted norm
    of the change one application of the operator makes to the iterate the
    sweep read, relative to that iterate's weighted norm. ``trajectory`` is
    the iterate the last sweep read, so ``distances[-1]`` is its measured
    fixed-point defect and ``weighted_norm`` its weighted norm.
    ``note`` says why the iteration stopped short; on a blow-up report whose
    starting march ran away, it names the slab time where the march left
    the amplitude bound, and the trajectory holds the slabs marched before.
    """

    converged: bool
    iterations: int
    tolerance: float
    distances: tuple
    contraction_factors: tuple
    weighted_norm: float
    trajectory: Trajectory
    note: str = ""


# Kernel evaluations the starting march spends on one slab at most. On every
# converging solve measured the march stopped on its own first (39 at most).
_MARCH_PASSES = 64


def picard_solve(u0, cfg, m, w, sp):
    """Iterate the operator until the weighted change it makes to the
    iterate drops below picard_tol (relative to the iterate).

    The first iterate marches the slab recursion once, slab by slab. The
    forcing w_i at each slab end is first evaluated at the exponential
    Adams-Bashforth 3 prediction e^z U_{i-1} + dt phi1 w_{i-1} + dt phi2 q,
    q the rise from w_{i-1} to t_i of the quadratic through the forcings at
    the last three slab ends (the line through w_0 and w_1 on the second
    slab, no phi2 term on the first), and the recursion integrates the line
    from w_{i-1} to w_i. Then w_i is evaluated again at the slab end U_i so
    found and the line integrated again, until the defect left for the
    sweep, the slab's contraction times the last correction ||U_i - g||
    (g the point last evaluated at), fits the slab's share of a quarter of
    picard_tol; the contraction is the ratio of consecutive corrections,
    carried to later slabs per unit step and per ||U_i||^(r-1). A pass
    that fails to shrink the correction leaves the slab to the sweeps, and
    so does one after which the passes left under ``_MARCH_PASSES``, each
    shrinking the correction by the ratio this pass did, cannot make the
    defect fit. So one sweep usually certifies the start. At the first slab
    where a point to evaluate or the end kept is not finite or exceeds 1e3
    times the data's L2 norm, the solve ends with a blow-up error naming
    that slab's time; its report has no sweep, and its trajectory holds the
    slabs marched before (no report when the first slab runs away).

    Each iterate is one stack of half-lattice spectra over all slab times.
    Each sweep runs the recursion over all of them from u0 and only reads
    the iterate: it norms the iterate and the change to its image. On a
    miss the recursion runs again and its image overwrites the iterate, so
    the trajectory returned, on convergence, at picard_max_iter or with an
    abort, is the iterate the last sweep read, and ``distances[-1]`` is its
    measured defect.

    Preconditions: the exponent tuple implied by (w, sp) must be admissible
    and the space must sit in the multiplication regime s > n/p. Three
    consecutive growing distances, an image whose amplitude exceeds 1e3
    times the data's, or a weighted norm or distance that is not finite
    abort with a blow-up-suspected error carrying the partial report.
    """
    a = 2.0 * m.r * w.b
    adm = admissibility(a, w.v, sp.s, sp.s0, m, sp.p)
    if not adm.admissible:
        raise ParameterError(
            f"weight a = {a:.6g}, v = {w.v:.6g} inadmissible for s - s0 = "
            f"{sp.s - sp.s0:.6g}: need r(s-s0)/alpha < a + 1/v < 2")
    n_over_p = 0.0 if math.isinf(sp.p) else u0.grid.n / sp.p
    if not sp.s > n_over_p:
        raise ParameterError(
            f"solver requires s > n/p (multiplication regime), got s = {sp.s}, "
            f"n/p = {n_over_p}")
    if abs(cfg.horizon - w.T) > 1e-9 * w.T:
        raise ParameterError(f"solver horizon {cfg.horizon} differs from weight horizon {w.T}")
    vexp = math.inf if math.isinf(w.v) else 2.0 * m.r * w.v
    times = slab_times(cfg)
    grid = u0.grid
    weights = _slab_weights(grid, m, tuple(times.tolist()))
    u0_hat = real_spectra(u0.samples, grid)
    u0_l2 = l2_norms_of_spectra(u0_hat[None], grid)[0]
    # The one iterate stack, overwritten batch by batch as the sweep passes;
    # the march writes the first iterate straight into it.
    current = np.empty((len(times),) + u0_hat.shape, dtype=np.complex128)
    steps = np.diff(times, prepend=0.0).tolist()
    power = _power_map(grid, m.r, cfg.dealias_factor, 1)
    # The forcing at the slab's left end, and its rises over the last two
    # slabs, oldest first.
    forcing = power(u0_hat[None])[0].copy()
    rises = []
    # The sweep after the march moves slab end i by the decayed sum of the
    # defects the march leaves on slabs 1..i, each the correction a further
    # pass would make. A defect enters the sweep twice, at its slab's end and
    # in the next slab's left-end forcing, and the space's norm can weigh it
    # about twice as much as L2 does; so slabs 1..i may leave, relative to
    # their L2 norms, i / (slab count) of a quarter of picard_tol, and one
    # sweep certifies.
    budget, spent, rate = 0.25 * cfg.picard_tol / len(times), 0.0, math.inf
    bound = 1e3 * u0_l2

    def escape(i):
        """The blow-up error of a march that left ``bound`` on slab i."""
        message = f"the starting march left 1e3 x data at t = {times[i]:.6g}"
        report = None
        if i:
            marched = current[:i]
            weighted = time_weighted_norm(
                times[:i], a_norms_of_spectra(marched, grid, sp), w.b, vexp)
            report = _build_report(False, 0, cfg, [], weighted, times[:i], grid, marched,
                                   message)
        return BlowupSuspectedError(message, report=report)

    for i, row in enumerate(weights.step):
        left = current[i - 1] if i else u0_hat
        base = weights.phi1[row] * forcing + weights.decay[row] * left
        point = base + weights.phi2[row] * _predicted_rise(rises, steps[max(i - 2, 0):i + 1])
        prior = math.inf
        for passes_left in range(_MARCH_PASSES - 1, -1, -1):
            size = float(l2_norms_of_spectra(point[None], grid)[0])
            # NaN and inf both fail the comparison.
            if not size <= bound:
                raise escape(i)
            value = power(point[None])[0]
            rise = value - forcing
            u = base + weights.phi2[row] * rise
            correction = float(l2_norms_of_spectra((u - point)[None], grid)[0])
            # The defect is the slab's contraction, about dt phi2 r |u|^(r-1),
            # times this correction. The last contraction observed, per unit
            # step and per size^(r-1), carries to later slabs; before any, 1
            # is assumed (inf * 0 is NaN, which min skips).
            reach = steps[i] * size ** (m.r - 1.0)
            # An overspent budget can drive the corrections to exactly 0.
            if 0 < prior < math.inf and reach > 0:
                rate = correction / prior / reach
            defect = min(1.0, rate * reach) * correction
            allowance = ((i + 1) * budget - spent) * size
            # The slab is left to the sweeps once its defect fits the budget,
            # when a pass fails to shrink the correction, or when the passes
            # left, each shrinking it as this one did, cannot make it fit.
            if (defect <= allowance or correction >= prior or (
                    prior < math.inf
                    and defect * (correction / prior) ** passes_left > allowance)):
                break
            prior = correction
            point = u
        # The end kept is normed only if the triangle inequality cannot bound it.
        if not (size + correction <= bound or l2_norms_of_spectra(u[None], grid)[0] <= bound):
            raise escape(i)
        current[i] = u
        spent += defect / size if size > 0 else 0.0
        forcing = value.copy()
        rises = rises[-1:] + [rise]
    norms = np.empty(len(times))
    gaps = np.empty(len(times))
    distances = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.picard_max_iter + 1):
        # The sweep writes nothing: its distance is the defect of the iterate it reads.
        peak = 0.0
        for start, stop, new in _duhamel_sweep(current, u0_hat, weights, grid, m.r,
                                               cfg.dealias_factor):
            old = current[start:stop]
            # A batch's slabs and their change, normed in one call.
            norms[start:stop], gaps[start:stop] = np.split(
                a_norms_of_spectra(np.concatenate([old, new - old]), grid, sp), 2)
            peak = max(peak, float(np.max(l2_norms_of_spectra(new, grid))))
        scale = time_weighted_norm(times, norms, w.b, vexp)
        # Only a zero trajectory has distance 0; a norm or distance that is
        # not finite ends the solve.
        rel = time_weighted_norm(times, gaps, w.b, vexp) / scale if scale != 0 else 0.0
        distances.append(rel)
        if not (math.isfinite(scale) and math.isfinite(rel)):
            report = _build_report(False, iterations, cfg, distances, scale, times, grid,
                                   current, "weighted norm or distance not finite")
            raise BlowupSuspectedError(
                f"sweep {iterations}: weighted norm {scale:.3e} or distance {rel:.3e} "
                "not finite", report=report)
        if rel <= cfg.picard_tol:
            converged = True
            break
        grew = u0_l2 > 0 and peak > bound
        if grew or len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            note, message = (
                ("amplitude grew past 1e3 x data",
                 f"iterate amplitude {peak:.3e} exceeds 1e3 x data norm {u0_l2:.3e}") if grew
                else ("three consecutive growing distances",
                      "Picard distances grew three times in a row"))
            report = _build_report(False, iterations, cfg, distances, scale, times, grid,
                                   current, note)
            raise BlowupSuspectedError(message, report=report)
        if iterations < cfg.picard_max_iter:
            _duhamel_spectra(u0_hat, current, times, cfg, m, grid)
    note = "" if converged else "max iterations reached without convergence"
    return _build_report(converged, iterations, cfg, distances, scale, times, grid, current,
                         note)


def _predicted_rise(rises, steps):
    """The forcing's rise over the next slab, of step ``steps[-1]``, from its
    rises over the last (up to two) slabs, of steps ``steps[:-1]``, oldest
    first: none (0), the line through two slab ends or the quadratic through
    three, by divided differences on any spacing."""
    if not rises:
        return 0.0
    h, h1 = steps[-1], steps[-2]
    if len(rises) == 1:
        return rises[-1] * (h / h1)
    bend = h * (h + h1) / (h1 + steps[-3])
    return rises[-1] * ((h + bend) / h1) - rises[-2] * (bend / steps[-3])


def _build_report(converged, iterations, cfg, distances, weighted, times, grid, spectra,
                  note):
    factors = tuple(distances[i] / distances[i - 1] for i in range(1, len(distances))
                    if distances[i - 1] > 0)
    return PicardReport(converged=converged, iterations=iterations,
                        tolerance=cfg.picard_tol, distances=tuple(distances),
                        contraction_factors=factors, weighted_norm=float(weighted),
                        trajectory=Trajectory.from_spectra(times, spectra, grid),
                        note=note)


def etd_oracle(u0, cfg, m):
    """Independent exponential predictor-corrector march over the same slabs.

    Order 2 (predictor with phi1, corrector with phi2). Each step writes its
    spectrum into one stack, which becomes the returned trajectory, and
    evaluates the forcing through one ``_power_map`` per call. Non-finite or
    violently growing steps raise IntegrationError.
    """
    times = slab_times(cfg)
    grid = u0.grid
    weights = _slab_weights(grid, m, tuple(times.tolist()))
    power = _power_map(grid, m.r, cfg.dealias_factor, 1)
    u = real_spectra(u0.samples, grid)
    bound = 1e6 * max(l2_norms_of_spectra(u[None], grid)[0], 1.0)
    marched = np.empty((len(times),) + u.shape, dtype=np.complex128)
    for i, t in enumerate(times):
        row = weights.step[i]
        # The map's next call overwrites the forcing it returns.
        nu = power(u[None])[0].copy()
        predictor = weights.decay[row] * u + weights.phi1[row] * nu
        marched[i] = predictor + weights.phi2[row] * (power(predictor[None])[0] - nu)
        u = marched[i]
        # NaN and inf both fail the comparison.
        if not l2_norms_of_spectra(u[None], grid)[0] <= bound:
            raise IntegrationError(
                f"unstable step {i + 1} at t = {t:.6g}", step=i + 1, time=float(t))
    return Trajectory.from_spectra(times, marched, grid)


def pde_residual(traj, m, dealias_factor=1.5):
    """Max relative L_2 defect of du/dt + (-Laplace)^alpha u - |u|^{r-1} u.

    The time derivative uses centered differences on the (possibly
    nonuniform) sample grid, so only interior samples are tested.
    """
    if len(traj) < 3:
        raise ParameterError("residual check needs at least three samples")
    grid = traj.grid
    lam = dissipation_symbol(grid, m)
    shape = (-1,) + (1,) * grid.n
    h = np.diff(np.asarray(traj.times))
    spectra = traj.spectra
    worst = 0.0
    # The kernel's batches of interior samples, each with its two neighbours.
    for start, stop, power in _power_batches(spectra[1:-1], grid, m.r, dealias_factor):
        before, middle, after = (spectra[start + k:stop + k] for k in range(3))
        h0 = h[start:stop].reshape(shape)
        h1 = h[start + 1:stop + 1].reshape(shape)
        # The centered difference plus the dissipation, less the forcing.
        resid = (-h1 / (h0 * (h0 + h1)) * before + (h1 - h0) / (h0 * h1) * middle
                 + h0 / (h1 * (h0 + h1)) * after + lam * middle - power)
        scale = l2_norms_of_spectra(middle, grid)
        live = scale > 0.0
        ratios = l2_norms_of_spectra(resid, grid)[live] / scale[live]
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst


def strong_convergence_check(traj, u0, sp0, at_times):
    """Distances || u(., t) - u0 ||_{A^{s0}} at the samples nearest to each
    of ``at_times``, in the requested order, as a list of (t, distance)
    tuples."""
    grid = traj.grid
    if u0.grid != grid:
        raise InconsistentGridError("trajectory and initial data live on different grids")
    times = np.asarray(traj.times)
    indices = [int(np.argmin(np.abs(times - target))) for target in at_times]
    gaps = traj.spectra[indices] - real_spectra(u0.samples, grid)
    dists = a_norms_of_spectra(gaps, grid, sp0)
    return [(float(times[i]), float(dist)) for i, dist in zip(indices, dists)]


@cache
def _unit_gauss_legendre():
    """32-node Gauss-Legendre nodes and weights on [0, 1], built on first use
    so that importing the solver does no quadrature work."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _path_power_integral(a, d, r):
    """integral_0^1 |a + theta d|^{r-1} dtheta, elementwise on arrays.

    Split at the sign change theta* = -a/d and substitute theta ~ theta*
    +/- tau^2 on each side so the integrand becomes tau^(2r-1) x smooth;
    32-node Gauss-Legendre is then exact to roundoff for the exponents in
    use (and polynomial-exact for integer r <= 16).
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    out = np.empty_like(a)
    flat_a = a.ravel()
    flat_d = d.ravel()
    flat_out = out.ravel()
    constant = flat_d == 0.0
    flat_out[constant] = np.abs(flat_a[constant]) ** (r - 1.0)
    moving = ~constant
    am = flat_a[moving][:, None]
    dm = flat_d[moving][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta_c = np.clip(-am / dm, 0.0, 1.0)
    x, w = (row[None, :] for row in _unit_gauss_legendre())
    # Left piece [0, theta_c], anchored at theta_c: theta = theta_c (1 - tau^2).
    theta_left = theta_c * (1.0 - x * x)
    left = np.sum(w * 2.0 * theta_c * x
                  * np.abs(am + dm * theta_left) ** (r - 1.0), axis=1)
    # Right piece [theta_c, 1], anchored at theta_c: theta = theta_c + (1-theta_c) tau^2.
    theta_right = theta_c + (1.0 - theta_c) * x * x
    right = np.sum(w * 2.0 * (1.0 - theta_c) * x
                   * np.abs(am + dm * theta_right) ** (r - 1.0), axis=1)
    flat_out[moving] = left + right
    return out


def contraction_identity_check(u, v, r):
    """Max pointwise defect of the difference-of-powers factorization

        |u|^{r-1} u - |v|^{r-1} v = r (u - v) integral_0^1 |v + theta(u-v)|^{r-1} dtheta,

    with the path integral by piecewise Gauss-Legendre quadrature.
    """
    if not r > 1:
        raise ParameterError(f"exponent r must exceed 1, got {r}")
    if u.grid != v.grid:
        raise InconsistentGridError("fields must share a grid")
    us = u.samples
    vs = v.samples
    lhs = np.abs(us) ** (r - 1.0) * us - np.abs(vs) ** (r - 1.0) * vs
    rhs = r * (us - vs) * _path_power_integral(vs, us - vs, r)
    return float(np.max(np.abs(lhs - rhs)))
