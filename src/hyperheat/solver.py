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
march of the same recursion, each slab's end forcing taken at an exponential
Adams-Bashforth 2 prediction (Cox & Matthews 2002).
Because (T u)(t) reads u only on [0, t], the iterate settles on a prefix of
slabs before the horizon; once its predicted next change is below roundoff
that prefix is frozen and later iterations sweep only the slabs after it
(waveform relaxation with adaptive windows).
An exponential predictor-corrector integrator marching the same slabs
provides an independent trajectory for cross-validation.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import leggauss

from .dyadic import a_norms_of_spectra, build_decomposition
from .errors import (BlowupSuspectedError, InconsistentGridError, IntegrationError,
                     ParameterError)
from .grid import (_PAD_BATCH_BYTES, RealField, fft_workers, l2_norms_of_spectra,
                   real_samples, real_spectra)
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
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        for name in ("slabs", "picard_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.slabs < 4:
            raise ParameterError(f"need at least 4 slabs, got {self.slabs}")
        if not 0 < self.picard_tol < 1:
            raise ParameterError(f"picard_tol must be in (0, 1), got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ParameterError("picard_max_iter must be >= 1")
        if not self.dealias_factor >= 1:
            raise ParameterError(f"dealias_factor must be >= 1, got {self.dealias_factor}")
        times = () if self.times is None else self.times
        object.__setattr__(self, "times", tuple(float(t) for t in times))
        object.__setattr__(self, "extra_times", tuple(float(t) for t in self.extra_times))


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


def _padded_points(N, dealias_factor):
    """Points per axis of the (even) dealiasing lattice."""
    if not dealias_factor >= 1:
        raise ParameterError(f"dealias_factor must be >= 1, got {dealias_factor}")
    M = int(math.ceil(N * dealias_factor))
    return M + M % 2


@lru_cache(maxsize=16)
def _slab_bytes(grid, dealias_factor):
    """Bytes one slab of a batch touches: its padded spectrum, real field,
    magnitude and transformed spectrum on the dealiasing lattice, and its
    half-lattice output and recursion rows (left forcing, image and three
    weight rows)."""
    M = _padded_points(grid.points_per_dim, dealias_factor)
    padded = M ** (grid.n - 1) * (M // 2 + 1)
    half = math.prod(grid.half_shape)
    return 16 * 2 * padded + 8 * 2 * M ** grid.n + 16 * 3 * half + 8 * 3 * half


def _batch_length(grid, dealias_factor):
    """Slabs per batch: the whole working set of a batch fits
    ``_PAD_BATCH_BYTES``, or one slab when a single slab does not."""
    return max(1, _PAD_BATCH_BYTES // _slab_bytes(grid, dealias_factor))


def _index_blocks(n, N, M):
    """Matching (coarse, padded) index blocks of the half-lattice modes with
    every |k_i| < N/2, between the N- and M-point lattices of a stack.

    Along the full axes these are k = 0..N/2-1 and the negative modes
    k = -N/2+1..-1 at the top of each lattice; along the halved last axis
    only k = 0..N/2-1. The unpaired Nyquist planes fall in no block.
    """
    h = N // 2
    full_axis = ((slice(0, h), slice(0, h)), (slice(h + 1, N), slice(M - h + 1, M)))
    last_axis = ((slice(0, h), slice(0, h)),)
    blocks = []
    for combo in product(*([full_axis] * (n - 1) + [last_axis])):
        coarse = (slice(None),) + tuple(c for c, _ in combo)
        padded = (slice(None),) + tuple(p for _, p in combo)
        blocks.append((coarse, padded))
    return tuple(blocks)


@lru_cache(maxsize=16)
def _kernel_plan(grid, dealias_factor):
    """The power kernel's padded size M and its ``_index_blocks``: immutable,
    so every call shares them."""
    M = _padded_points(grid.points_per_dim, dealias_factor)
    return M, _index_blocks(grid.n, grid.points_per_dim, M)


def _power_batches(spectra, grid, r, dealias_factor):
    """Half-lattice spectra of |u|^{r-1} u for a stack of half-lattice spectra
    of real fields u, dealiased, one batch of slabs at a time.

    Yields ``(start, stop, power)``, ``power`` being the result for
    ``spectra[start:stop]``. It is a view of the call's output buffer that the
    next batch overwrites, and each batch, of ``_batch_length`` slabs, is read
    from ``spectra`` only when it is reached, so the caller may overwrite the
    slabs it has been given.

    Each field is zero-padded to the lattice enlarged by ``dealias_factor``,
    evaluated pointwise there and truncated back. The unpaired Nyquist planes
    are zero on the way in and out (they cannot be embedded symmetrically);
    band-limited workflows never populate them. Each call allocates its own
    zeroed padded and output buffers and a magnitude buffer, one batch long,
    and every batch writes the same block entries of them, so the rest stays
    zero. Nothing outlives the call, so nested and concurrent calls share no
    buffer.
    """
    n = grid.n
    N = grid.points_per_dim
    M, blocks = _kernel_plan(grid, dealias_factor)
    axes = tuple(range(1, n + 1))
    # Unitary transforms on the two lattices differ by (M/N)^(n/2); the power
    # map is homogeneous of degree r, so the factor is applied once, on the
    # way out.
    gain = ((M / N) ** (n / 2.0)) ** (r - 1.0)
    batch = max(1, min(len(spectra), _batch_length(grid, dealias_factor)))
    workers = fft_workers()
    padded = np.zeros((batch,) + (M,) * (n - 1) + (M // 2 + 1,), dtype=np.complex128)
    out = np.zeros((batch,) + grid.half_shape, dtype=np.complex128)
    magnitudes = np.empty((batch,) + (M,) * n)
    for start in range(0, len(spectra), batch):
        stop = min(start + batch, len(spectra))
        fill = padded[:stop - start]
        for src, dst in blocks:
            fill[dst] = spectra[start:stop][src]
        fine = scipy.fft.irfftn(fill, s=(M,) * n, axes=axes, norm="ortho",
                                workers=workers)
        magnitude = np.abs(fine, out=magnitudes[:stop - start])
        magnitude **= r - 1.0
        fine *= magnitude
        fine_hat = scipy.fft.rfftn(fine, axes=axes, norm="ortho", workers=workers)
        del fine
        power = out[:stop - start]
        for src, dst in blocks:
            np.multiply(fine_hat[dst], gain, out=power[src])
        del fine_hat
        yield start, stop, power


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


def _duhamel_terms(start, carry, forcing, weights, offset=0):
    """The solution U_i = e^{-dt_i lam} U_{i-1} + (slab integral of w) at the
    slab ends i = offset+1 .. offset+len(forcing).

    ``forcing`` stacks w_i at those slab ends; ``start`` and ``carry`` are
    the forcing and the solution at the left end of the first of them (w_0
    and u0 at tau = 0). The forcing is piecewise linear in tau; each slab
    integral is exact for that reconstruction via phi1/phi2.
    """
    rows = weights.step[offset:offset + len(forcing)]
    previous = np.concatenate([start[None], forcing[:-1]])
    terms = weights.phi1[rows] * previous
    rise = np.subtract(forcing, previous, out=previous)
    rise *= weights.phi2[rows]
    terms += rise
    decay = weights.decay[rows]
    terms[0] += decay[0] * carry
    for i in range(1, len(terms)):
        terms[i] += decay[i] * terms[i - 1]
    return terms


def _duhamel_sweep(left, carry, weights, batches, offset=0):
    """The slab recursion run over ``batches``, a ``_power_batches`` iterator
    over the spectra of slabs offset+1.., with ``left`` the forcing and
    ``carry`` the solution at their left end (w_0 and u0 at tau = 0).

    Yields ``(start, stop, terms)`` per batch, ``terms`` holding the image
    at the slab ends start+1..stop (counted from tau = 0); the caller may
    then overwrite those slabs, but not ``terms``, whose last slab carries.
    """
    for start, stop, forcing in batches:
        start, stop = start + offset, stop + offset
        terms = _duhamel_terms(left, carry, forcing, weights, start)
        left = forcing[-1].copy()
        carry = terms[-1]
        yield start, stop, terms


def _duhamel_spectra(spectra, times, cfg, m, grid):
    """The operator applied to a trajectory given as half-lattice spectra:
    ``spectra[0]`` is u0, ``spectra[1:]`` the trajectory at the slab-end
    ``times``. The image is swept in batches over ``spectra[1:]``, which it
    overwrites and which is returned.
    """
    weights = _slab_weights(grid, m, tuple(float(t) for t in times))
    u0_hat, trajectory = spectra[0], spectra[1:]
    w0_hat = _power_spectra(u0_hat[None], grid, m.r, cfg.dealias_factor)[0]
    batches = _power_batches(trajectory, grid, m.r, cfg.dealias_factor)
    for start, stop, terms in _duhamel_sweep(w0_hat, u0_hat, weights, batches):
        trajectory[start:stop] = terms
    return trajectory


def duhamel_apply(u0, traj, cfg, m):
    """One application of the variation-of-constants operator to a trajectory.

    The trajectory must live on slab endpoints ending at the horizon; the
    nonlinearity at tau = 0 is taken from u0.
    """
    if traj.grid != u0.grid:
        raise InconsistentGridError("trajectory and initial data live on different grids")
    times = np.asarray(traj.times)
    if abs(times[-1] - cfg.horizon) > 1e-9 * cfg.horizon:
        raise ParameterError(
            f"trajectory must end at the horizon {cfg.horizon}, got {times[-1]}")
    grid = u0.grid
    spectra = np.empty((len(traj) + 1,) + grid.half_shape, dtype=np.complex128)
    spectra[0] = real_spectra(u0.samples, grid)
    spectra[1:] = traj.spectra
    return Trajectory.from_spectra(times, _duhamel_spectra(spectra, times, cfg, m, grid),
                                   grid)


@dataclass(frozen=True)
class PicardReport:
    """Outcome of a Picard solve.

    ``distances`` are the weighted norms of consecutive-iterate differences,
    relative to the weighted norm of the current iterate; frozen slabs count
    0 in them. ``frozen`` holds the frozen prefix length, in slabs, that each
    iteration used. ``weighted_norm`` is that of the final trajectory.
    ``note`` says why the iteration stopped short, and where the starting
    march left the amplitude bound, if it did.
    """

    converged: bool
    iterations: int
    tolerance: float
    distances: tuple
    contraction_factors: tuple
    frozen: tuple
    weighted_norm: float
    trajectory: Trajectory
    note: str = ""


def picard_solve(u0, cfg, m, w, sp):
    """Iterate the operator until the weighted distance between consecutive
    iterates drops below picard_tol (relative).

    The first iterate marches the slab recursion once, slab by slab. The
    forcing w_i at each slab end is evaluated once, at the exponential
    Adams-Bashforth 2 prediction
    e^z U_{i-1} + dt phi1 w_{i-1} + dt phi2 (w_{i-1} - w_{i-2}) dt_i/dt_{i-1}
    (no phi2 term on the first slab), and the recursion integrates the line
    from w_{i-1} to w_i, so the start lies near the fixed point. From the
    first slab whose prediction is not finite or exceeds 1e3 times the
    data's L2 norm, the decay rows alone carry it, and the report's note
    and any blow-up message name that slab's time.

    Each iterate is one stack of half-lattice spectra over all slab times.
    The operator is causal, so the iterate on a slab prefix settles before
    the horizon does. After each iteration the longest prefix of slabs whose
    predicted next change, gap * min(1, gap / previous gap) in the A-norm,
    is at most 1e-2 picard_tol times the slab's norm is frozen: later sweeps
    start at the first unfrozen slab, carrying the frozen iterate at the
    edge and its forcing. The prefix never shrinks and never takes the
    horizon slab.

    Preconditions: the exponent tuple implied by (w, sp) must be admissible
    and the space must sit in the multiplication regime s > n/p. Three
    consecutive growing distances, or amplitude growth past 1e3 times the
    data, abort with a blow-up-suspected error carrying the partial report.
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
    dec = build_decomposition(grid)
    weights = _slab_weights(grid, m, tuple(times.tolist()))
    u0_hat = real_spectra(u0.samples, grid)
    u0_l2 = l2_norms_of_spectra(u0_hat[None], grid)[0]
    # The forcing and the solution at the left end of the first unfrozen slab.
    left = _power_spectra(u0_hat[None], grid, m.r, cfg.dealias_factor)[0]
    carry = u0_hat
    # The one iterate stack, overwritten batch by batch as the sweep passes;
    # the march writes the first iterate straight into it.
    current = np.empty((len(times),) + u0_hat.shape, dtype=np.complex128)
    dt = np.diff(times, prepend=0.0)
    # Equal forcings on the first slab leave its prediction without phi2 term.
    forcing = before = left
    escaped = ""
    for i, row in enumerate(weights.step):
        u = np.multiply(weights.decay[row], current[i - 1] if i else u0_hat, out=current[i])
        if escaped:
            continue
        base = u + weights.phi1[row] * forcing
        guess = base + weights.phi2[row] * ((forcing - before) * (dt[i] / dt[i - 1]))
        if not l2_norms_of_spectra(guess[None], grid)[0] <= 1e3 * u0_l2:
            escaped = f"; the starting march left 1e3 x data at t = {times[i]:.6g}"
            continue
        before, forcing = forcing, _power_spectra(guess[None], grid, m.r,
                                                  cfg.dealias_factor)[0]
        np.add(base, weights.phi2[row] * (forcing - before), out=u)
    norms = np.empty(len(times))
    gaps = np.zeros(len(times))
    previous = np.zeros(len(times))
    distances = []
    frozen_used = []
    frozen = 0
    converged = False
    iterations = 0
    # A batch's new slabs and their change, normed in one call: the dyadic
    # weights are read once per batch, however short the batches are.
    batch = min(len(times), _batch_length(grid, cfg.dealias_factor))
    pairs = np.empty((2 * batch,) + u0_hat.shape, dtype=np.complex128)
    for iterations in range(1, cfg.picard_max_iter + 1):
        peak = 0.0
        previous, gaps = gaps, previous
        gaps[:frozen] = 0.0
        batches = _power_batches(current[frozen:], grid, m.r, cfg.dealias_factor)
        for start, stop, new in _duhamel_sweep(left, carry, weights, batches, frozen):
            count = stop - start
            old = current[start:stop]
            pair = pairs[:2 * count]
            pair[:count] = new
            np.subtract(new, old, out=pair[count:])
            norms[start:stop], gaps[start:stop] = np.split(
                a_norms_of_spectra(pair, grid, sp, dec), 2)
            peak = max(peak, float(np.max(l2_norms_of_spectra(new, grid))))
            old[...] = new
        frozen_used.append(frozen)
        scale = time_weighted_norm(times, norms, w.b, vexp)
        rel = time_weighted_norm(times, gaps, w.b, vexp) / scale if scale > 0 else 0.0
        distances.append(rel)
        if rel <= cfg.picard_tol:
            converged = True
            break
        grew = u0_l2 > 0 and peak > 1e3 * u0_l2
        if grew or len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            note, message = (
                ("amplitude grew past 1e3 x data",
                 f"iterate amplitude {peak:.3e} exceeds 1e3 x data norm {u0_l2:.3e}") if grew
                else ("three consecutive growing distances",
                      "Picard distances grew three times in a row"))
            report = _build_report(False, iterations, cfg, distances, frozen_used, scale,
                                   times, grid, current, note + escaped)
            raise BlowupSuspectedError(message + escaped, report=report)
        edge = frozen + _settled_prefix(gaps[frozen:-1], previous[frozen:-1],
                                        1e-2 * cfg.picard_tol * norms[frozen:-1])
        if edge > frozen:
            frozen = edge
            carry = current[frozen - 1].copy()
            left = _power_spectra(current[frozen - 1:frozen], grid, m.r,
                                  cfg.dealias_factor)[0]
    note = ("" if converged else "max iterations reached without convergence") + escaped
    return _build_report(converged, iterations, cfg, distances, frozen_used, scale, times,
                         grid, current, note.removeprefix("; "))


def _settled_prefix(gaps, previous, bound):
    """Length of the leading run of slabs whose predicted next change,
    gap * min(1, gap / previous), is at most ``bound`` (ratio 1 where no
    previous gap is known)."""
    ratio = np.divide(gaps, previous, out=np.ones_like(gaps), where=previous > 0)
    settled = gaps * np.minimum(ratio, 1.0) <= bound
    return len(settled) if settled.all() else int(np.argmin(settled))


def _build_report(converged, iterations, cfg, distances, frozen, weighted, times, grid,
                  spectra, note):
    factors = tuple(distances[i] / distances[i - 1] for i in range(1, len(distances))
                    if distances[i - 1] > 0)
    return PicardReport(converged=converged, iterations=iterations,
                        tolerance=cfg.picard_tol, distances=tuple(distances),
                        contraction_factors=factors, frozen=tuple(frozen),
                        weighted_norm=float(weighted),
                        trajectory=Trajectory.from_spectra(times, spectra, grid),
                        note=note)


def etd_oracle(u0, cfg, m):
    """Independent exponential predictor-corrector march over the same slabs.

    Order 2 (predictor with phi1, corrector with phi2). The marched spectra
    fill one stack, which becomes the returned trajectory. Non-finite or
    violently growing steps raise IntegrationError.
    """
    times = slab_times(cfg)
    grid = u0.grid
    weights = _slab_weights(grid, m, tuple(times.tolist()))

    def power(c):
        return _power_spectra(c[None], grid, m.r, cfg.dealias_factor)[0]

    u = real_spectra(u0.samples, grid)
    bound = 1e6 * max(l2_norms_of_spectra(u[None], grid)[0], 1.0)
    marched = np.empty((len(times),) + u.shape, dtype=np.complex128)
    for i, t in enumerate(times):
        row = weights.step[i]
        decay = weights.decay[row]
        nu = power(u)
        predictor = decay * u + weights.phi1[row] * nu
        u = predictor + weights.phi2[row] * (power(predictor) - nu)
        if not np.all(np.isfinite(u)) or l2_norms_of_spectra(u[None], grid)[0] > bound:
            raise IntegrationError(
                f"unstable step {i + 1} at t = {t:.6g}", step=i + 1, time=float(t))
        marched[i] = u
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
        # The centered difference plus the dissipation, accumulated in place.
        resid = -h1 / (h0 * (h0 + h1)) * before
        term = np.multiply((h1 - h0) / (h0 * h1), middle)
        resid += term
        resid += np.multiply(h0 / (h1 * (h0 + h1)), after, out=term)
        resid += np.multiply(lam, middle, out=term)
        del term
        resid -= power
        scale = l2_norms_of_spectra(middle, grid)
        live = scale > 0.0
        ratios = l2_norms_of_spectra(resid, grid)[live] / scale[live]
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst


def strong_convergence_check(traj, u0, sp0, at_times=None, count=8,
                             decomposition=None):
    """Distances || u(., t) - u0 ||_{A^{s0}} at selected sample times.

    With ``at_times`` given, the nearest sample to each requested time is
    used (in the requested order); otherwise the ``count`` earliest samples.
    Returns a list of (t, distance) pairs.
    """
    grid = traj.grid
    if u0.grid != grid:
        raise InconsistentGridError("trajectory and initial data live on different grids")
    dec = decomposition or build_decomposition(grid)
    times = np.asarray(traj.times)
    if at_times is not None:
        indices = [int(np.argmin(np.abs(times - target))) for target in at_times]
    else:
        indices = list(range(min(count, len(times))))
    gaps = traj.spectra[indices] - real_spectra(u0.samples, grid)
    dists = a_norms_of_spectra(gaps, grid, sp0, dec)
    return [(float(times[i]), float(dist)) for i, dist in zip(indices, dists)]


_GL_NODES, _GL_WEIGHTS = leggauss(32)
_GL_X = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


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
    x = _GL_X[None, :]
    w = _GL_W[None, :]
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
