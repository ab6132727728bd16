"""Mild solutions as fixed points of the variation-of-constants operator.

The operator maps a trajectory u to

    (T u)(t) = W_t u0 + integral_0^t W_{t-tau} |u|^{r-1} u (tau) dtau.

The integral is evaluated mode by mode, exactly against a reconstruction
of the nonlinearity that is piecewise linear in tau between slab
endpoints; the slab weights are the phi-functions

    phi1(z) = (e^z - 1)/z,    phi2(z) = (e^z - 1 - z)/z^2,

with z = -dt |xi|^(2 alpha); the recursion carries the solution itself from
slab end to slab end, U_i = e^z U_{i-1} + (slab integral), U_0 = u0, and
one function takes that step for the march's predictor, its corrector
passes and the operator's re-application. The operator is causal, so its
fixed point is found by Picard iteration taken slab by slab: one march
keeps at each slab end the point whose forcing it last evaluated, carries
the operator's image of the kept trajectory, and corrects the slab until
the image moves the point by at most picard_tol of its norm in the space.
The time-weighted norm is monotone in those per-slab norms, so the march
certifies the whole trajectory and no sweep over the horizon follows. The
march's first point on a slab continues the cubic through the forcing at
the last four slab ends, an exponential predictor-corrector (Hochbruck &
Ostermann 2010). A slab where a point is not finite or leaves 1e3 times
the data, a norm is not finite, or the iteration stops contracting ends
the solve with a BlowupSuspectedError whose ``time`` is that slab's.
An exponential predictor-corrector integrator marching the same slabs
provides an independent trajectory for cross-validation; an unstable step
ends it with the same error, dated at that step.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import a_norms_of_spectra
from .errors import BlowupSuspectedError, InconsistentGridError, ParameterError, _reject_bools
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
    ``picard_max_iter`` caps the Picard passes on one slab.
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
        T, t = self.horizon, self.times
        if any(e <= 0 or e >= T * (1 - 1e-9) for e in self.extra_times):
            raise ParameterError("extra_times must lie strictly inside (0, horizon)")
        if t and (len(t) < 2 or t[0] <= 0 or any(b <= a for a, b in zip(t, t[1:]))):
            raise ParameterError("explicit times must be >= 2 positive, strictly increasing "
                                 "points")
        if t and abs(t[-1] - T) > 1e-9 * T:
            raise ParameterError(f"explicit times must end at the horizon {T}, got {t[-1]}")


def slab_times(cfg):
    """The slab-endpoint grid 0 < t_1 < ... < t_M = horizon."""
    T = cfg.horizon
    if cfg.times:
        t = np.asarray(cfg.times, dtype=np.float64)
    else:
        t = np.concatenate([np.linspace(0.0, T, cfg.slabs + 1)[1:],
                            log_time_grid(T * 1e-4, T * 1e-2, 32)])
    t = np.unique(np.concatenate([t, np.asarray(cfg.extra_times, dtype=np.float64)]))
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


def _slab_image(weights, row, left, rise, carry, out=None):
    """The operator's one slab step, U_i = e^z U_{i-1} + dt phi1 w_{i-1} +
    dt phi2 (w_i - w_{i-1}), exact for forcing linear in tau on the slab:
    ``left`` is w_{i-1}, ``rise`` the forcing's rise across the slab,
    ``carry`` U_{i-1} and ``row`` the weights' row of the slab's step. The
    three terms are summed in that order, into ``out`` when given."""
    out = np.multiply(weights.phi1[row], left, out=out)
    out += weights.phi2[row] * rise
    out += weights.decay[row] * carry
    return out


def _duhamel_spectra(u0_hat, stack, times, cfg, m, grid):
    """The operator applied, from data of half spectrum ``u0_hat``, to a
    trajectory given as the half-lattice spectra ``stack`` at the slab-end
    ``times``; the image overwrites ``stack``, which is returned.

    The image is the solution at the slab ends from U_0 = u0, one
    ``_slab_image`` per slab, against the forcing w = |u|^{r-1} u of u0 and
    of ``stack``, evaluated batch by batch; each slab's image is written
    over it once its batch's forcing is evaluated.
    """
    weights = _slab_weights(grid, m, tuple(float(t) for t in times))
    left = _power_map(grid, m.r, cfg.dealias_factor, 1)(u0_hat[None])[0]
    carry = u0_hat
    for start, stop, forcing in _power_batches(stack, grid, m.r, cfg.dealias_factor):
        for i, value in enumerate(forcing, start):
            carry = _slab_image(weights, weights.step[i], left, value - left, carry, stack[i])
            left = value
        # The map's next batch overwrites the forcing it returned.
        left = left.copy()
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

    ``trajectory`` holds at each slab end the last point whose forcing the
    march evaluated, ``weighted_norm`` its weighted norm and ``defect`` its
    measured fixed-point defect: the weighted norm of the change one
    application of the operator makes to it, relative to ``weighted_norm``.
    ``iterations`` is the most passes any slab took and ``contraction`` the
    largest ratio of successive corrections on any slab (0.0 when every
    slab took one pass). ``note`` says why the solve stopped short; on a
    blow-up report it names the slab time where the march stopped, and the
    trajectory holds the slabs certified before it. The tolerance the defect
    is held to is the config's ``picard_tol``.
    """

    converged: bool
    iterations: int
    defect: float
    contraction: float
    weighted_norm: float
    trajectory: Trajectory
    note: str = ""


def picard_solve(u0, cfg, m, w, sp):
    """Picard iteration of the operator, taken slab by slab: the operator is
    causal, so one march certifies each slab before it moves on.

    On slab i the march keeps g_i, the last point whose forcing F(g_i) it
    evaluated, and carries the operator's image U_i of the kept trajectory,
    the ``_slab_image`` step from U_{i-1} with rise F(g_i) - F(g_{i-1}), so
    U_i - g_i is the kept trajectory's exact defect at t_i. The first point
    is the same step with rise q, the rise from F(g_{i-1}) to t_i of the
    cubic through the forcings at the last four slab ends (fewer ends on the
    first three slabs, so the first keeps its forcing constant). Each pass
    evaluates F(g), forms U_i and norms g and U_i - g in the space's norm;
    the slab is done once ||U_i - g|| <= picard_tol ||g||, and otherwise
    g <- U_i and another pass runs, an exponential predictor-corrector
    (Hochbruck & Ostermann 2010). The weighted norm is monotone in its
    per-slab norms, so ``report.defect``, the returned trajectory's
    measured defect, is then at most picard_tol, and no sweep follows.

    ``picard_max_iter`` caps the passes on one slab. A slab that reaches the
    cap without fitting is kept as it stands, the march goes on, and the
    solve returns converged=False with a note naming the first such slab.
    The solve ends with a blow-up error dated at slab i when a point to
    evaluate is not finite or exceeds 1e3 times the data's L2 norm, when a
    norm is not finite, or when the iteration stopped contracting: a pass's
    correction does not shrink, or the passes left, each shrinking it as
    this one did, cannot make it fit. The error's ``time`` is that slab
    time t_i, and its ``report`` the report of the slabs certified before
    (None when the first slab fails).

    Preconditions: the exponent tuple implied by (w, sp) must be admissible
    and the space must sit in the multiplication regime s > n/p.
    """
    a = 2.0 * m.r * w.b
    if not admissibility(a, w.v, sp.s, sp.s0, m).admissible:
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
    bound = 1e3 * l2_norms_of_spectra(u0_hat[None], grid)[0]
    tol, cap = cfg.picard_tol, cfg.picard_max_iter
    kept = np.empty((len(times),) + u0_hat.shape, dtype=np.complex128)
    norms, defects = np.empty(len(times)), np.empty(len(times))
    # A point and the correction its pass makes, normed in one call.
    pair = np.empty((2,) + u0_hat.shape, dtype=np.complex128)
    power = _power_map(grid, m.r, cfg.dealias_factor, 1)
    # The forcings at the last (up to four) slab ends and their times, oldest
    # first; the map's next call overwrites what it returns.
    nodes, forcings = [0.0], [power(u0_hat[None])[0].copy()]
    image = u0_hat
    most, contraction, capped = 0, 0.0, None

    def report(i, converged, note):
        """The report of slabs 1..i."""
        scale = time_weighted_norm(times[:i], norms[:i], w.b, vexp)
        defect = time_weighted_norm(times[:i], defects[:i], w.b, vexp)
        return PicardReport(converged, most, defect / scale if scale else 0.0,
                            contraction, scale,
                            Trajectory.from_spectra(times[:i], kept[:i], grid), note)

    def blowup(i, reason):
        message = f"{reason} at t = {times[i]:.6g}"
        return BlowupSuspectedError(message, float(times[i]),
                                    report(i, False, message) if i else None)

    for i, row in enumerate(weights.step):
        left = forcings[-1]
        point = _slab_image(weights, row, left, _lagrange_rise(nodes, forcings, times[i]),
                            image)
        prior = math.inf
        for passes in range(1, cap + 1):
            # NaN and inf both fail the comparison.
            if not l2_norms_of_spectra(point[None], grid)[0] <= bound:
                raise blowup(i, "the march left 1e3 x data")
            value = power(point[None])[0]
            image_i = _slab_image(weights, row, left, value - left, image)
            pair[0] = point
            np.subtract(image_i, point, out=pair[1])
            size, correction = a_norms_of_spectra(pair, grid, sp).tolist()
            if not (math.isfinite(size) and math.isfinite(correction)):
                raise blowup(i, "a norm was not finite")
            ratio = correction / prior
            contraction = max(contraction, ratio)
            if correction <= tol * size:
                break
            if ratio >= 1.0:
                raise blowup(i, "the iteration stopped contracting")
            if passes == cap:
                capped = i if capped is None else capped
                break
            if correction * ratio ** (cap - passes) > tol * size:
                raise blowup(i, "the iteration stopped contracting")
            prior, point = correction, image_i
        kept[i] = point
        norms[i], defects[i] = size, correction
        most = max(most, passes)
        image = image_i
        nodes, forcings = nodes[-3:] + [times[i]], forcings[-3:] + [value.copy()]
    note = "" if capped is None else (
        f"slab at t = {times[capped]:.6g} reached picard_max_iter = {cap} passes "
        "without fitting picard_tol")
    return report(len(times), capped is None, note)


def _lagrange_rise(nodes, forcings, t):
    """The rise from ``forcings[-1]`` to time t of the polynomial through
    ``forcings`` at the distinct times ``nodes``, in Lagrange form on any
    spacing: 0 through one node, the line through two, up to the cubic
    through four."""
    rise = 0.0
    for k, (node, forcing) in enumerate(zip(nodes[:-1], forcings[:-1])):
        weight = math.prod((t - other) / (node - other)
                           for j, other in enumerate(nodes) if j != k)
        rise = rise + weight * (forcing - forcings[-1])
    return rise


def etd_oracle(u0, cfg, m):
    """Independent exponential predictor-corrector march over the same slabs.

    Order 2 (predictor with phi1, corrector with phi2). Each step writes its
    spectrum into one stack, which becomes the returned trajectory, and
    evaluates the forcing through one ``_power_map`` per call. A step that is
    not finite or leaves 1e6 times the data (or 1e6) raises
    BlowupSuspectedError, its ``time`` the step's slab time and no report.
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
            raise BlowupSuspectedError(f"unstable step {i + 1} at t = {t:.6g}", float(t))
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
