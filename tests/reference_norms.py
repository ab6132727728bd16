"""The full-lattice dyadic norm, kept as an independent reference.

The library evaluates every A^s_{p,q} norm on stacked half-lattice spectra
(``dyadic.a_norms_of_spectra``). This route works on the full complex
lattice instead (``full_lattice``), one field and one block at a time: the
Parseval sum over all modes for B with p = 2, otherwise a Hermitian-checked
inverse transform per block and a Riemann-sum L_p norm.
"""

import math

import numpy as np

import full_lattice
from hyperheat import RealField, build_decomposition, lp_norm


def _combine_scales(values, weights, q):
    weighted = weights * values
    if math.isinf(q):
        return np.max(weighted, axis=0)
    return np.sum(weighted ** q, axis=0) ** (1.0 / q)


def a_norm_of_coefficients(coefficients, grid, sp, decomposition=None):
    """Scale-indexed norm evaluated from unitary full-lattice coefficients."""
    dec = decomposition or build_decomposition(grid)
    weights = np.array([2.0 ** (j * sp.s) for j in range(dec.block_count)])
    cutoffs = full_lattice.cutoffs(dec)
    if sp.family == "B":
        if sp.p == 2:
            block_norms = np.array([
                full_lattice.l2_norm(phi * coefficients, grid) for phi in cutoffs])
        else:
            block_norms = np.array([
                lp_norm(full_lattice.inverse(phi * coefficients, grid), sp.p)
                for phi in cutoffs])
        return float(_combine_scales(block_norms, weights, sp.q))
    # F family: combine over scales pointwise, then take the L_p norm.
    stacked = np.stack([
        np.abs(full_lattice.inverse(phi * coefficients, grid).samples)
        for phi in cutoffs])
    pointwise = _combine_scales(stacked, weights.reshape((-1,) + (1,) * grid.n), sp.q)
    return float(lp_norm(RealField(grid, pointwise), sp.p))


def a_norm_of_field(f, sp, decomposition=None):
    """The reference norm of a real field, through its full-lattice DFT."""
    return a_norm_of_coefficients(full_lattice.forward(f), f.grid, sp, decomposition)
