"""The full-lattice spectral route, kept in the tests as an independent reference.

The library holds every spectrum, multiplier and mask on the rfftn half
lattice. This module builds the same objects on the whole FFT lattice,
shape ``grid.shape``, without the library's spectral code: |xi|^2 from the
frequencies of every axis, the Nyquist mask, the dissipation symbol and the
dyadic cutoffs; the unitary ``fftn``; an ``ifftn`` that checks Hermitian
symmetry and the imaginary residue; ``conj_reverse``; and the Parseval L2
norm. A half-lattice array equals the full one at ``[..., :N // 2 + 1]``.
Its transforms are scipy.fft's, another library than the numpy.fft the
library runs.
"""

import math

import numpy as np
import scipy.fft

from hyperheat import RealField, SymmetryError, radial_profile


def xi_squared(grid):
    """|xi|^2 on the full lattice."""
    xi = grid.axis_frequencies()
    total = np.zeros(grid.shape)
    for a in np.meshgrid(*([xi] * grid.n), indexing="ij", sparse=True):
        total = total + a * a
    return total


def nyquist_mask(grid):
    """True on modes whose index hits the unpaired Nyquist plane of any axis."""
    N = grid.points_per_dim
    on_axis = grid.axis_integer_modes() == -(N // 2)
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = N
        mask |= on_axis.reshape(shape)
    return mask


def dissipation_symbol(grid, m):
    """|xi|^(2 alpha); exponentiation by squaring for integer alpha."""
    base = xi_squared(grid)
    if not m.integer_order:
        return base ** m.alpha
    e = int(m.alpha)
    result = np.ones_like(base)
    power = base
    while e > 0:
        if e & 1:
            result = result * power
        power = power * power
        e >>= 1
    return result


def cutoffs(dec):
    """phi_0 .. phi_J of a decomposition on the full lattice, through
    ``radial_profile``: phi_j = phi_0(2^-j xi) - phi_0(2^-j+1 xi)."""
    rho = np.sqrt(xi_squared(dec.grid))
    profiles = [radial_profile(rho / 2.0 ** j) for j in range(dec.J + 1)]
    return [profiles[0]] + [profiles[j] - profiles[j - 1] for j in range(1, dec.J + 1)]


def forward(f):
    """Unitary DFT of a real field on the full lattice."""
    return scipy.fft.fftn(f.samples, norm="ortho")


def conj_reverse(coefficients):
    """conj(c(-k)) on the FFT lattice: flip every axis, then roll by one."""
    n = coefficients.ndim
    flipped = np.flip(coefficients)
    rolled = np.roll(flipped, shift=(1,) * n, axis=tuple(range(n)))
    return np.conj(rolled)


def inverse(coefficients, grid):
    """Unitary inverse DFT of full-lattice coefficients, as a real field.

    A Hermitian defect above 1e-10 of max |c|, or an imaginary residue above
    1e-12 of the field scale, raises SymmetryError.
    """
    scale = float(np.max(np.abs(coefficients)))
    if scale > 0.0:
        defect = float(np.max(np.abs(coefficients - conj_reverse(coefficients)))) / scale
        if defect > 1e-10:
            raise SymmetryError(f"relative Hermitian defect {defect:.3e} exceeds 1e-10")
    y = scipy.fft.ifftn(coefficients, norm="ortho")
    size = max(float(np.max(np.abs(y))), 1e-300)
    residue = float(np.max(np.abs(y.imag)))
    if residue > 1e-12 * size:
        raise SymmetryError(
            f"imaginary residue {residue:.3e} exceeds 1e-12 of field scale {size:.3e}")
    return RealField(grid, y.real)


def l2_norm(coefficients, grid):
    """Physical L_2 norm from unitary full-lattice coefficients (Parseval)."""
    return float(math.sqrt(grid.cell_volume) * np.linalg.norm(coefficients.ravel()))
