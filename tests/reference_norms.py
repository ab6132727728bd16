"""The full-lattice dyadic norm, kept as an independent reference.

The library evaluates every A^s_{p,q} norm on stacked half-lattice spectra
(``dyadic.a_norms_of_spectra``). This route works on the full complex
lattice instead, one field and one block at a time: the Parseval sum over
all modes for B with p = 2, otherwise a Hermitian-checked
``inverse_transform`` per block and a Riemann-sum L_p norm.
"""

import math

import numpy as np

from hyperheat import (RealField, SpectralField, build_decomposition, forward_transform,
                       inverse_transform, l2_norm_of_coefficients, lp_norm)


def _combine_scales(values, weights, q):
    weighted = weights * values
    if math.isinf(q):
        return np.max(weighted, axis=0)
    return np.sum(weighted ** q, axis=0) ** (1.0 / q)


def a_norm_of_coefficients(coefficients, grid, sp, decomposition=None):
    """Scale-indexed norm evaluated from unitary full-lattice coefficients."""
    dec = decomposition or build_decomposition(grid)
    weights = np.array([2.0 ** (j * sp.s) for j in range(dec.block_count)])
    if sp.family == "B":
        if sp.p == 2:
            block_norms = np.array([
                l2_norm_of_coefficients(phi * coefficients, grid) for phi in dec.cutoffs])
        else:
            block_norms = np.array([
                lp_norm(inverse_transform(SpectralField(grid, phi * coefficients)), sp.p)
                for phi in dec.cutoffs])
        return float(_combine_scales(block_norms, weights, sp.q))
    # F family: combine over scales pointwise, then take the L_p norm.
    stacked = np.stack([
        np.abs(inverse_transform(SpectralField(grid, phi * coefficients)).samples)
        for phi in dec.cutoffs])
    pointwise = _combine_scales(stacked, weights.reshape((-1,) + (1,) * grid.n), sp.q)
    return float(lp_norm(RealField(grid, pointwise), sp.p))


def a_norm_of_field(f, sp, decomposition=None):
    """The reference norm of a real field, through its full-lattice DFT."""
    return a_norm_of_coefficients(forward_transform(f).coefficients, f.grid, sp,
                                  decomposition)
