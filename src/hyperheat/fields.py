"""Builders for probe fields: lattice cosines and seeded random spectra."""

import math

import numpy as np

from .errors import ParameterError
from .grid import (RealField, conj_reverse, half_lattice, nyquist_mask, real_samples,
                   real_spectra)


def cosine_mode(grid, mode, amplitude=1.0, phase=0.0):
    """amplitude * cos(xi . x + phase) for an integer lattice mode.

    ``mode`` is a tuple of integers, one per axis, each within (-N/2, N/2).
    """
    mode = tuple(int(k) for k in np.atleast_1d(mode))
    if len(mode) != grid.n:
        raise ParameterError(f"mode needs {grid.n} components, got {len(mode)}")
    half = grid.points_per_dim // 2
    if any(abs(k) >= half for k in mode):
        raise ParameterError(f"mode {mode} leaves the lattice band (-{half}, {half})")
    coords = grid.coordinates()
    arg = np.zeros(grid.shape)
    for k, x in zip(mode, coords):
        arg = arg + (2.0 * math.pi / grid.length) * k * x
    return RealField(grid, amplitude * np.cos(arg + phase))


def spectrum_field(grid, envelope, seed, max_radius=None, zero_mean=True):
    """Real field with random phases under a radial spectral envelope.

    ``envelope`` maps |xi| (array) to coefficient magnitudes. Modes beyond
    ``max_radius`` (in frequency units) and the Nyquist planes are zeroed;
    the result is Hermitian-symmetrized, so samples are real. Deterministic
    for a given seed.
    """
    rng = np.random.default_rng(seed)
    radius = np.sqrt(grid.xi_squared)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.asarray(envelope(radius), dtype=np.float64)
    mag[~np.isfinite(mag)] = 0.0
    raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c = mag * raw
    if max_radius is not None:
        c[radius > max_radius] = 0.0
    c[nyquist_mask(grid)] = 0.0
    if zero_mean:
        c[(0,) * grid.n] = 0.0
    c = half_lattice(0.5 * (c + conj_reverse(c)))
    return RealField(grid, real_samples(c, grid))


def random_band_limited(grid, seed, max_radius, amplitude=1.0, zero_mean=True):
    """Random smooth field supported on |xi| <= max_radius, sup-normalized.

    The sample maximum equals ``amplitude`` exactly (unless the band is
    empty, which raises a parameter error).
    """
    f = spectrum_field(grid, lambda rho: np.ones_like(rho), seed,
                       max_radius=max_radius, zero_mean=zero_mean)
    peak = float(np.max(np.abs(f.samples)))
    if peak == 0.0:
        raise ParameterError(f"no lattice modes inside radius {max_radius}")
    return RealField(f.grid, f.samples * (amplitude / peak))


def power_spectrum_field(grid, decay, seed, max_radius=None, amplitude=1.0):
    """Random field with coefficient magnitudes |xi|^(-decay), mean zero."""
    def envelope(rho):
        with np.errstate(divide="ignore"):
            mag = rho ** (-float(decay))
        return np.where(rho > 0, mag, 0.0)

    f = spectrum_field(grid, envelope, seed, max_radius=max_radius, zero_mean=True)
    peak = float(np.max(np.abs(f.samples)))
    if peak == 0.0:
        raise ParameterError("empty spectrum")
    return RealField(f.grid, f.samples * (amplitude / peak))


def radial_power_field(grid, decay, max_radius=None):
    """Real field whose spectrum is exactly |xi|^(-decay), zero mean.

    Deterministic: every coefficient is real and positive, so dyadic-block
    L2 norms follow the envelope without sampling noise. With decay equal
    to s + n/p the weighted block norms are comparable across all scales,
    which makes decay-rate fits sharp.
    """
    radius = np.sqrt(grid.xi_squared)
    with np.errstate(divide="ignore"):
        mag = np.where(radius > 0, radius ** (-float(decay)), 0.0)
    if max_radius is not None:
        mag = np.where(radius > max_radius, 0.0, mag)
    mag[nyquist_mask(grid)] = 0.0
    if not np.any(mag):
        raise ParameterError("empty spectrum")
    return RealField(grid, real_samples(half_lattice(mag), grid))


def band_limit(f, max_radius):
    """Zero all modes with |xi| > max_radius; returns a new real field."""
    c = real_spectra(f.samples, f.grid)
    c[np.sqrt(half_lattice(f.grid.xi_squared)) > max_radius] = 0.0
    return RealField(f.grid, real_samples(c, f.grid))
