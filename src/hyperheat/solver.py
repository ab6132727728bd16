"""Mild solutions as fixed points of the variation-of-constants operator.

The operator maps a trajectory u to

    (T u)(t) = W_t u0 + integral_0^t W_{t-tau} |u|^{r-1} u (tau) dtau.

The integral is evaluated mode by mode, exactly against a reconstruction
of the nonlinearity that is piecewise linear in tau between slab
endpoints; the slab weights are the phi-functions

    phi1(z) = (e^z - 1)/z,    phi2(z) = (e^z - 1 - z)/z^2,

with z = -dt |xi|^(2 alpha). Fixed points are found by Picard iteration
from u^(0) = W_t u0, with distances measured in the time-weighted norm.
An exponential predictor-corrector integrator marching the same slabs
provides an independent trajectory for cross-validation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import leggauss

from .dyadic import a_norms_of_spectra, build_decomposition
from .errors import (BlowupSuspectedError, InconsistentGridError, IntegrationError,
                     ParameterError)
from .grid import (RealField, fft_workers, half_lattice, l2_norms_of_spectra,
                   real_samples, real_spectra)
from .semigroup import _orbit_multipliers, dissipation_symbol
from .timenorms import Trajectory, admissibility, log_time_grid, time_weighted_norm


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and iteration controls for one solve.

    The default time grid is hybrid: log-spaced samples from
    horizon * t_min_frac up to horizon * uniform_start_frac (so weighted
    norms see the decades near t = 0), then ``slabs`` uniform samples up
    to the horizon (so centered time differences stay accurate). An
    explicit ``times`` tuple overrides the construction; ``extra_times``
    are merged in.
    """

    horizon: float
    slabs: int = 160
    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    dealias_factor: float = 1.5
    quadrature_order: int = 2
    t_min_frac: float = 1e-4
    uniform_start_frac: float = 1e-2
    geometric_per_decade: int = 32
    times: tuple = None
    extra_times: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.slabs < 4:
            raise ParameterError(f"need at least 4 slabs, got {self.slabs}")
        if not 0 < self.picard_tol < 1:
            raise ParameterError(f"picard_tol must be in (0, 1), got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ParameterError("picard_max_iter must be >= 1")
        if not self.dealias_factor >= 1:
            raise ParameterError(f"dealias_factor must be >= 1, got {self.dealias_factor}")
        if self.quadrature_order not in (1, 2):
            raise ParameterError(
                f"quadrature_order must be 1 (piecewise constant) or 2 (piecewise "
                f"linear), got {self.quadrature_order}")
        if not 0 < self.t_min_frac < self.uniform_start_frac < 1:
            raise ParameterError("need 0 < t_min_frac < uniform_start_frac < 1")
        if self.times is not None:
            object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "extra_times", tuple(float(t) for t in self.extra_times))


def slab_times(cfg):
    """The slab-endpoint grid 0 < t_1 < ... < t_M = horizon."""
    T = cfg.horizon
    if cfg.times is not None:
        t = np.asarray(cfg.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ParameterError("explicit times must be a 1-D grid with >= 2 points")
        if np.any(t <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("explicit times must be positive and strictly increasing")
        if abs(t[-1] - T) > 1e-9 * T:
            raise ParameterError(f"explicit times must end at the horizon {T}, got {t[-1]}")
        return t
    extra = np.asarray(cfg.extra_times, dtype=np.float64)
    if extra.size and (np.any(extra <= 0) or np.any(extra >= T * (1 - 1e-9))):
        raise ParameterError("extra_times must lie strictly inside (0, horizon)")
    uniform = np.linspace(0.0, T, cfg.slabs + 1)[1:]
    geometric = log_time_grid(T * cfg.t_min_frac, T * cfg.uniform_start_frac,
                              cfg.geometric_per_decade)
    t = np.unique(np.concatenate([uniform, geometric, extra]))
    keep = np.concatenate([[True], np.diff(t) > 1e-12 * T])
    return t[keep]


# phi-function Taylor weights 1/(k+1)! and 1/(k+2)!, k = 0..12.
_PHI1_COEFFS = np.array([1.0 / math.factorial(k + 1) for k in range(13)])
_PHI2_COEFFS = np.array([1.0 / math.factorial(k + 2) for k in range(13)])


def _phi_taylor(z, coeffs):
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def phi1(z):
    """(e^z - 1)/z, Taylor below |z| = 1/2 to dodge cancellation."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) <= 0.5
    out = np.empty_like(z)
    out[small] = _phi_taylor(z[small], _PHI1_COEFFS)
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def phi2(z):
    """(e^z - 1 - z)/z^2, Taylor below |z| = 1/2 to dodge cancellation."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) <= 0.5
    out = np.empty_like(z)
    out[small] = _phi_taylor(z[small], _PHI2_COEFFS)
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out


# Padded spectra of one nonlinearity batch stay within this many bytes (16 B
# per padded half-lattice mode), about one core's L2 cache: the batched
# transforms run fastest there, and no stack of all slabs is ever padded.
_PAD_BATCH_BYTES = 1 << 21


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


def _power_spectra(spectra, grid, r, dealias_factor):
    """Half-lattice spectra of |u|^{r-1} u for a stack of half-lattice spectra
    of real fields u, dealiased.

    Each field is zero-padded to the lattice enlarged by ``dealias_factor``,
    evaluated pointwise there and truncated back. The unpaired Nyquist planes
    are zeroed on the way in and out (they cannot be embedded symmetrically);
    band-limited workflows never populate them. The stack is transformed in
    batches whose padded spectra fit ``_PAD_BATCH_BYTES``.
    """
    if not dealias_factor >= 1:
        raise ParameterError(f"dealias_factor must be >= 1, got {dealias_factor}")
    n = grid.n
    N = grid.points_per_dim
    M = int(math.ceil(N * dealias_factor))
    M += M % 2
    blocks = _index_blocks(n, N, M)
    padded_shape = (M,) * (n - 1) + (M // 2 + 1,)
    axes = tuple(range(1, n + 1))
    # Unitary transforms on the two lattices differ by this factor.
    scale = (M / N) ** (n / 2.0)
    batch = max(1, _PAD_BATCH_BYTES // (16 * math.prod(padded_shape)))
    workers = fft_workers()
    out = np.zeros_like(spectra)
    for start in range(0, len(spectra), batch):
        coarse = spectra[start:start + batch]
        padded = np.zeros((len(coarse),) + padded_shape, dtype=np.complex128)
        for src, dst in blocks:
            np.multiply(coarse[src], scale, out=padded[dst])
        fine = scipy.fft.irfftn(padded, s=(M,) * n, axes=axes, norm="ortho",
                                workers=workers)
        fine = np.abs(fine) ** (r - 1.0) * fine
        padded = scipy.fft.rfftn(fine, axes=axes, norm="ortho", workers=workers)
        target = out[start:start + batch]
        for src, dst in blocks:
            np.divide(padded[dst], scale, out=target[src])
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
    """Stacked per-slab factors on the half lattice, slab i = (t_{i-1}, t_i]:
    decay = exp(z), phi1 = dt phi1(z), phi2 = dt phi2(z) (None at order 1)
    with z = -dt |xi|^(2 alpha), and orbit = exp(-t_i |xi|^(2 alpha))."""

    decay: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    orbit: np.ndarray


@lru_cache(maxsize=2)
def _slab_weights(grid, m, times, order):
    """The slab weights for a tuple of slab-end times, built once and shared by
    the Duhamel recursion and the exponential integrator (read-only)."""
    lam = half_lattice(dissipation_symbol(grid, m))
    t = np.asarray(times).reshape((-1,) + (1,) * grid.n)
    dt = np.diff(t, axis=0, prepend=0.0)
    z = -dt * lam
    arrays = [np.exp(z), dt * phi1(z), dt * phi2(z) if order == 2 else None,
              _orbit_multipliers(grid, m, times)]
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    return _SlabWeights(*arrays)


def _duhamel_terms(start, forcing, weights, order):
    """D(t_i) = integral_0^{t_i} e^{-(t_i - tau) lam} w(tau) dtau for every slab.

    ``start`` is the forcing spectrum w_0 at tau = 0 and ``forcing`` stacks
    w_1..w_M at the slab ends. Piecewise linear in tau at order 2,
    left-endpoint constant at order 1; each slab integral is exact for the
    reconstruction via phi1/phi2.
    """
    previous = np.concatenate([start[None], forcing[:-1]])
    terms = weights.phi1 * previous
    if order == 2:
        rise = np.subtract(forcing, previous, out=previous)
        rise *= weights.phi2
        terms += rise
    for i in range(1, len(terms)):
        terms[i] += weights.decay[i] * terms[i - 1]
    return terms


def _trajectory(times, spectra, grid):
    """A trajectory from a stack of half-lattice spectra, in one inverse transform."""
    samples = real_samples(spectra, grid)
    return Trajectory(times=tuple(times), fields=tuple(RealField(grid, s) for s in samples))


def _duhamel_spectra(spectra, times, cfg, m, grid):
    """The operator applied to a trajectory given as half-lattice spectra:
    ``spectra[0]`` is u0, ``spectra[1:]`` the trajectory at the slab-end
    ``times``. Returns the image's spectra; ``spectra[1:]`` is overwritten.
    """
    weights = _slab_weights(grid, m, tuple(float(t) for t in times), cfg.quadrature_order)
    forcing = _power_spectra(spectra, grid, m.r, cfg.dealias_factor)
    terms = _duhamel_terms(forcing[0], forcing[1:], weights, cfg.quadrature_order)
    terms += np.multiply(weights.orbit, spectra[0], out=spectra[1:])
    return terms


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
    spectra = real_spectra(np.stack([u0.samples] + [f.samples for f in traj.fields]), grid)
    return _trajectory(times, _duhamel_spectra(spectra, times, cfg, m, grid), grid)


@dataclass(frozen=True)
class PicardReport:
    """Outcome of a Picard solve.

    ``distances`` are the weighted norms of consecutive-iterate differences,
    relative to the weighted norm of the current iterate; ``weighted_norm``
    is that of the final trajectory, to be read against the unit
    ``ball_radius`` of the fixed-point argument.
    """

    converged: bool
    iterations: int
    tolerance: float
    distances: tuple
    contraction_factors: tuple
    weighted_norm: float
    ball_radius: float
    trajectory: Trajectory
    note: str = ""


def picard_solve(u0, cfg, m, w, sp):
    """Iterate the operator from u^(0) = W_t u0 until the weighted distance
    between consecutive iterates drops below picard_tol (relative).

    Each iterate is one stack of half-lattice spectra over all slab times.
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
    weights = _slab_weights(grid, m, tuple(times.tolist()), cfg.quadrature_order)

    def weighted(spectra):
        return time_weighted_norm(times, a_norms_of_spectra(spectra, grid, sp, dec),
                                  w.b, vexp)

    u0_hat = real_spectra(u0.samples, grid)
    u0_l2 = l2_norms_of_spectra(u0_hat[None], grid)[0]
    homogeneous = weights.orbit * u0_hat
    current = homogeneous
    w0_hat = _power_spectra(u0_hat[None], grid, m.r, cfg.dealias_factor)[0]
    distances = []
    converged = False
    iterations = 0
    note = ""
    for iterations in range(1, cfg.picard_max_iter + 1):
        new = _duhamel_terms(w0_hat, _power_spectra(current, grid, m.r, cfg.dealias_factor),
                             weights, cfg.quadrature_order)
        new += homogeneous
        scale = weighted(new)
        raw = weighted(new - current)
        rel = raw / scale if scale > 0 else 0.0
        distances.append(rel)
        current = new
        if rel <= cfg.picard_tol:
            converged = True
            break
        peak = float(np.max(l2_norms_of_spectra(current, grid)))
        if u0_l2 > 0 and peak > 1e3 * u0_l2:
            report = _build_report(False, iterations, cfg, distances, scale, times,
                                   grid, current, "amplitude grew past 1e3 x data")
            raise BlowupSuspectedError(
                f"iterate amplitude {peak:.3e} exceeds 1e3 x data norm {u0_l2:.3e}",
                report=report)
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            report = _build_report(False, iterations, cfg, distances, scale, times,
                                   grid, current, "three consecutive growing distances")
            raise BlowupSuspectedError(
                "Picard distances grew three times in a row", report=report)
    if not converged:
        note = "max iterations reached without convergence"
    return _build_report(converged, iterations, cfg, distances, weighted(current), times,
                         grid, current, note)


def _build_report(converged, iterations, cfg, distances, weighted, times, grid,
                  spectra, note):
    factors = tuple(distances[i] / distances[i - 1] for i in range(1, len(distances))
                    if distances[i - 1] > 0)
    return PicardReport(converged=converged, iterations=iterations,
                        tolerance=cfg.picard_tol, distances=tuple(distances),
                        contraction_factors=factors, weighted_norm=float(weighted),
                        ball_radius=1.0, trajectory=_trajectory(times, spectra, grid),
                        note=note)


def etd_oracle(u0, cfg, m, nonlinear=True):
    """Independent exponential predictor-corrector march over the same slabs.

    Order 2 (predictor with phi1, corrector with phi2); with
    quadrature_order = 1 the corrector is skipped. ``nonlinear=False``
    integrates only the linear flow, which must reproduce the semigroup
    exactly. Non-finite or violently growing steps raise IntegrationError.
    """
    times = slab_times(cfg)
    grid = u0.grid
    order = cfg.quadrature_order
    weights = _slab_weights(grid, m, tuple(times.tolist()), order)

    def power(c):
        return _power_spectra(c[None], grid, m.r, cfg.dealias_factor)[0]

    u = real_spectra(u0.samples, grid)
    bound = 1e6 * max(l2_norms_of_spectra(u[None], grid)[0], 1.0)
    marched = np.empty((len(times),) + u.shape, dtype=np.complex128)
    for i, t in enumerate(times):
        decay = weights.decay[i]
        if nonlinear:
            nu = power(u)
            predictor = decay * u + weights.phi1[i] * nu
            if order == 2:
                u = predictor + weights.phi2[i] * (power(predictor) - nu)
            else:
                u = predictor
        else:
            u = decay * u
        if not np.all(np.isfinite(u)) or l2_norms_of_spectra(u[None], grid)[0] > bound:
            raise IntegrationError(
                f"unstable step {i + 1} at t = {t:.6g}", step=i + 1, time=float(t))
        marched[i] = u
    return _trajectory(times, marched, grid)


def pde_residual(traj, m, dealias_factor=1.5):
    """Max relative L_2 defect of du/dt + (-Laplace)^alpha u - |u|^{r-1} u.

    The time derivative uses centered differences on the (possibly
    nonuniform) sample grid, so only interior samples are tested.
    """
    if len(traj) < 3:
        raise ParameterError("residual check needs at least three samples")
    grid = traj.grid
    lam = half_lattice(dissipation_symbol(grid, m))
    shape = (-1,) + (1,) * grid.n
    h = np.diff(np.asarray(traj.times))
    h0 = h[:-1].reshape(shape)
    h1 = h[1:].reshape(shape)
    spectra = real_spectra(np.stack([f.samples for f in traj.fields]), grid)
    before, middle, after = spectra[:-2], spectra[1:-1], spectra[2:]
    # The centered difference plus the dissipation, accumulated in place.
    resid = -h1 / (h0 * (h0 + h1)) * before
    term = np.multiply((h1 - h0) / (h0 * h1), middle)
    resid += term
    resid += np.multiply(h0 / (h1 * (h0 + h1)), after, out=term)
    resid += np.multiply(lam, middle, out=term)
    del term
    resid -= _power_spectra(middle, grid, m.r, dealias_factor)
    scale = l2_norms_of_spectra(middle, grid)
    live = scale > 0.0
    return float(np.max(l2_norms_of_spectra(resid, grid)[live] / scale[live], initial=0.0))


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
    gaps = np.stack([traj.fields[i].samples for i in indices]) - u0.samples
    dists = a_norms_of_spectra(real_spectra(gaps, grid), grid, sp0, dec)
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
