"""Periodic grids, real/spectral fields, and unitary discrete transforms.

Fields live on the uniform grid of the torus [0, L)^n with N points per
dimension. The frequency lattice is xi_k = 2*pi*k/L for integer k in
[-N/2, N/2). A real field has a Hermitian spectrum, c(-k) = conj(c(k)), so
every array indexed by mode (spectra, multipliers, masks) lives on the rfftn
half lattice, shape ``TorusGrid.half_shape``: the last axis keeps
k = 0..N/2, the others the full FFT layout. It holds each conjugate pair
once, so only the self-conjugate planes k_last = 0 and N/2 can break the
symmetry. Transforms use the unitary normalization (a symmetric
1/sqrt(N^n) on both directions) so the discrete Parseval identity holds
to roundoff; physical L_p norms are Riemann sums with cell volume (L/N)^n.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentGridError, ParameterError, SymmetryError, _reject_bools

# Cap on per-field storage; grids whose complex spectrum would not fit are
# rejected at construction time.
MAX_FIELD_BYTES = 1 << 30

# Work on a stack of many fields runs in batches (``_batches``) whose working
# set stays within this many bytes, so no temporary spans the whole stack. It
# bounds memory first: batches save per-call overhead on small grids, but on
# large ones a batch is no faster per field than one field at a time (the
# 128^2 power map, on its 192^2 padded lattice, took 0.55-0.60 ms per field in
# batches of 7 and 0.36-0.38 ms alone, on a 2-vCPU x86-64 host with numpy
# 2.4's single-threaded numpy.fft).
_PAD_BATCH_BYTES = 1 << 21


def _batches(count, item_bytes):
    """Slices cutting ``count`` stacked items into consecutive batches whose
    items, ``item_bytes`` of working set each, fit ``_PAD_BATCH_BYTES``
    together; an item larger than the budget makes a batch of its own."""
    length = max(1, _PAD_BATCH_BYTES // item_bytes)
    return [slice(start, min(start + length, count)) for start in range(0, count, length)]


def fft_workers():
    """Worker-thread count from HYPERHEAT_THREADS (default 1).

    No library transform reads it: numpy.fft runs on one thread. It is kept
    for the benchmark's traced runs, which pass it to their own transforms.
    """
    raw = os.environ.get("HYPERHEAT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ParameterError(f"HYPERHEAT_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ParameterError(f"HYPERHEAT_THREADS must be >= 1, got {workers}")
    return workers


def _is_power_of_two(m):
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, length)^n with points_per_dim samples per axis.

    points_per_dim must be a power of two and at least 8; the total size
    must fit the storage budget ``MAX_FIELD_BYTES``.
    """

    n: int
    points_per_dim: int
    length: float = 2.0 * math.pi

    def __post_init__(self):
        _reject_bools(self, ("n", "points_per_dim", "length"))
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"dimension n must be a positive integer, got {self.n}")
        N = self.points_per_dim
        if not isinstance(N, int) or not _is_power_of_two(N) or N < 8:
            raise ParameterError(f"points_per_dim must be a power of two >= 8, got {N}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ParameterError(f"length must be positive and finite, got {self.length}")
        # 16 bytes per complex128 sample.
        if 16 * self.points_per_dim ** self.n > MAX_FIELD_BYTES:
            raise ParameterError(
                f"grid of {self.points_per_dim}^{self.n} points exceeds the "
                f"storage budget of {MAX_FIELD_BYTES} bytes")

    @property
    def shape(self):
        return (self.points_per_dim,) * self.n

    @property
    def size(self):
        return self.points_per_dim ** self.n

    @property
    def spacing(self):
        return self.length / self.points_per_dim

    @property
    def cell_volume(self):
        return self.spacing ** self.n

    @property
    def volume(self):
        return self.length ** self.n

    def axis_coordinates(self):
        """Sample coordinates along one axis."""
        return np.arange(self.points_per_dim) * self.spacing

    def coordinates(self):
        """Sparse meshgrid of sample coordinates, one array per axis."""
        x = self.axis_coordinates()
        return np.meshgrid(*([x] * self.n), indexing="ij", sparse=True)

    def axis_integer_modes(self):
        """Integer mode numbers k along one axis, FFT layout."""
        N = self.points_per_dim
        return np.fft.fftfreq(N, d=1.0 / N)

    def axis_frequencies(self):
        """Frequencies xi = 2*pi*k/length along one axis, FFT layout."""
        return (2.0 * math.pi / self.length) * self.axis_integer_modes()

    @property
    def half_shape(self):
        """Shape of the rfftn half lattice: the last axis keeps k = 0..N/2."""
        return self.shape[:-1] + (self.points_per_dim // 2 + 1,)

    @cached_property
    def xi_squared(self):
        """|xi|^2 on the rfftn half lattice, shape ``self.half_shape``."""
        xi = self.axis_frequencies()
        # The last axis keeps k = 0..N/2; |xi|^2 is even in each component.
        last = xi[: self.points_per_dim // 2 + 1]
        axes = np.meshgrid(*([xi] * (self.n - 1) + [last]), indexing="ij", sparse=True)
        total = np.zeros(self.half_shape)
        for a in axes:
            total = total + a * a
        total.setflags(write=False)
        return total

    @cached_property
    def half_lattice_weights(self):
        """Parseval multiplicity of each half-lattice mode, shape ``half_shape``.

        Every mode with 0 < k_last < N/2 stands for itself and its conjugate
        partner -k, so it counts twice; the k_last = 0 and N/2 planes hold
        their own partners and count once.
        """
        weights = np.full(self.half_shape, 2.0)
        weights[..., 0] = 1.0
        weights[..., -1] = 1.0
        weights.setflags(write=False)
        return weights

    @cached_property
    def max_frequency(self):
        """Largest |xi| on the lattice (lives at the Nyquist corner)."""
        return float(math.sqrt(np.max(self.xi_squared)))


def _as_locked(array, dtype):
    out = np.array(array, dtype=dtype)
    out.setflags(write=False)
    return out


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise InconsistentGridError(f"grids differ: {a.grid} vs {b.grid}")


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples on a TorusGrid; treated as immutable after construction."""

    grid: TorusGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = _as_locked(self.samples, np.float64)
        if samples.shape != self.grid.shape:
            raise ParameterError(
                f"sample shape {samples.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("field samples must be finite")
        object.__setattr__(self, "samples", samples)

    def __add__(self, other):
        require_same_grid(self, other)
        return RealField(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        require_same_grid(self, other)
        return RealField(self.grid, self.samples - other.samples)

    def __neg__(self):
        return RealField(self.grid, -self.samples)

    def __mul__(self, scalar):
        return RealField(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__


def _partner_index(N, sizes):
    """Open-mesh index taking each mode k of an array in FFT layout, with the
    given lengths on its leading axes, to its partner -k mod N."""
    return np.ix_(*[-np.arange(size) % N for size in sizes])


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Unitary rfftn coefficients of a real field, shape ``grid.half_shape``.

    The half lattice holds each conjugate pair c(k), c(-k) = conj(c(k))
    once; only the self-conjugate planes k_last = 0 and N/2 can break the
    symmetry, and ``hermitian_defect`` measures that.
    """

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = _as_locked(self.coefficients, np.complex128)
        if coeff.shape != self.grid.half_shape:
            raise ParameterError(
                f"coefficient shape {coeff.shape} does not match the half lattice "
                f"{self.grid.half_shape}")
        if not np.all(np.isfinite(coeff)):
            raise ParameterError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeff)

    def hermitian_defect(self):
        """Sup-norm distance to the Hermitian part on the self-conjugate
        planes k_last = 0 and N/2, relative to max |c|."""
        c = self.coefficients
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            return 0.0
        N = self.grid.points_per_dim
        planes = c[..., ::N // 2]
        partners = planes[_partner_index(N, planes.shape[:-1])]
        return float(np.max(np.abs(planes - np.conj(partners)))) / scale


def forward_transform(f):
    """Unitary DFT of a real field, on the half lattice (``real_spectra``)."""
    return SpectralField(f.grid, real_spectra(f.samples, f.grid))


def inverse_transform(F):
    """Unitary inverse DFT of a half-lattice spectrum (``real_samples``).

    A relative Hermitian defect above 1e-10 raises SymmetryError.
    """
    defect = F.hermitian_defect()
    if defect > 1e-10:
        raise SymmetryError(f"relative Hermitian defect {defect:.3e} exceeds 1e-10")
    return RealField(F.grid, real_samples(F.coefficients, F.grid))


def _unitary_factor(grid):
    """1/sqrt(N^n), correctly rounded: 1/N^n is exact for a power of two N,
    and its square root is rounded once. The transforms apply it once, where
    numpy's norm="ortho" multiplies each axis by 1/sqrt(N), a factor rounded
    twice (square root, then reciprocal)."""
    return math.sqrt(1.0 / grid.size)


def real_spectra(samples, grid):
    """Unitary rfftn over the trailing grid axes of real samples.

    ``samples`` has shape ``grid.shape`` or a stack of them; the result holds
    the half-lattice coefficients, which equal the full-lattice unitary DFT
    there and determine it by Hermitian symmetry. One axis at a time: an
    rfft of the last axis, scaled once by ``_unitary_factor``, then each
    full axis in place in its output, so the result is the only array made.
    """
    spectra = np.fft.rfft(samples, axis=-1)
    spectra *= _unitary_factor(grid)
    for axis in range(-grid.n, -1):
        np.fft.fft(spectra, axis=axis, out=spectra)
    return spectra


def real_samples(spectra, grid, overwrite=False):
    """Inverse of ``real_spectra``: real samples from half-lattice spectra.

    The full axes transform first, into a new complex array, or in place in
    ``spectra`` under ``overwrite`` (for a caller that reads it no more);
    an irfft of the last axis then makes the result, scaled once by
    ``_unitary_factor``.
    """
    for axis in range(-grid.n, -1):
        spectra = np.fft.ifft(spectra, axis=axis, norm="forward",
                              out=spectra if overwrite else None)
        # Later axes transform in place in the array this call now owns.
        overwrite = True
    samples = np.fft.irfft(spectra, n=grid.points_per_dim, axis=-1, norm="forward")
    samples *= _unitary_factor(grid)
    return samples


def l2_norms_of_spectra(spectra, grid):
    """Physical L_2 norm of each field in a stack of half-lattice spectra.

    Parseval over the half lattice, each mode weighted by its multiplicity.
    """
    power = spectra.real ** 2 + spectra.imag ** 2
    squared = power.reshape(len(spectra), -1) @ grid.half_lattice_weights.ravel()
    return np.sqrt(grid.cell_volume * squared)


def _lp_norms(samples, p, grid):
    """Riemann-sum L_p norm over the trailing grid axes of a stack of samples;
    p = inf gives the sample maximum."""
    a = np.abs(samples)
    axes = tuple(range(-grid.n, 0))
    if math.isinf(p):
        return np.max(a, axis=axes)
    return (np.sum(np.power(a, p, out=a), axis=axes) * grid.cell_volume) ** (1.0 / p)


def lp_norm(f, p):
    """``_lp_norms`` of one field on the torus."""
    if not p >= 1:
        raise ParameterError(f"p must satisfy 1 <= p <= inf, got {p}")
    return float(_lp_norms(f.samples, p, f.grid))


def nyquist_mask(grid):
    """True on the half-lattice modes (shape ``grid.half_shape``) that lie
    on the unpaired Nyquist plane k = N/2 of any axis."""
    half = grid.points_per_dim // 2
    mask = np.zeros(grid.half_shape, dtype=bool)
    for axis, size in enumerate(grid.half_shape):
        shape = [1] * grid.n
        shape[axis] = size
        mask |= (np.arange(size) == half).reshape(shape)
    return mask


def zero_field(grid):
    return RealField(grid, np.zeros(grid.shape))


def constant_field(grid, value):
    return RealField(grid, np.full(grid.shape, float(value)))
