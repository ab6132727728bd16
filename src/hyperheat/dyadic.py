"""Dyadic frequency decomposition and scale-indexed smoothness norms.

The base cutoff is a radial C^infinity bump phi_0 with phi_0 = 1 on
|xi| <= 1 and phi_0 = 0 on |xi| >= 3/2, built from the classical
exp(-1/x) transition. The annular pieces

    phi_j(xi) = phi_0(2^-j xi) - phi_0(2^-j+1 xi),   j >= 1,

are supported on 2^(j-1) <= |xi| <= 3*2^(j-1) and telescope:
sum_{j<=J} phi_j(xi) = phi_0(2^-J xi), which equals 1 on |xi| <= 2^J
(the covered ball). J is the smallest integer with 3*2^(J-1) >= max|xi|
on the lattice.

Two norm families over the blocks u_j = (phi_j * u):

    B: ( sum_j (2^{js} ||u_j||_p)^q )^(1/q)        (sum over scales last)
    F: || ( sum_j (2^{js} |u_j(x)|)^q )^(1/q) ||_p (sum over scales first)

with the usual sup conventions at q = inf, and p < inf required for F.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, _reject_bools
from .grid import RealField, _batches, _lp_norms, real_samples, real_spectra


@dataclass(frozen=True)
class SpaceParams:
    """Identifies a smoothness space: family A in {B, F}, order s, p, q.

    ``s0`` optionally carries the smoothness of the initial-data space;
    it defaults to s. p = inf is rejected for the F family.
    """

    family: str
    s: float
    p: float
    q: float
    s0: float = None

    def __post_init__(self):
        _reject_bools(self, ("s", "p", "q", "s0"))
        if self.family not in ("B", "F"):
            raise ParameterError(f"family must be 'B' or 'F', got {self.family!r}")
        if not (self.p >= 1):
            raise ParameterError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        if not (self.q >= 1):
            raise ParameterError(f"q must satisfy 1 <= q <= inf, got {self.q}")
        if self.family == "F" and math.isinf(self.p):
            raise ParameterError("the F family requires p < inf")
        if not math.isfinite(self.s):
            raise ParameterError(f"s must be finite, got {self.s}")
        if self.s0 is None:
            object.__setattr__(self, "s0", float(self.s))

    def with_smoothness(self, s):
        """Same space with the smoothness order replaced."""
        return SpaceParams(self.family, float(s), self.p, self.q, self.s0)

    def initial_space(self):
        """The space A^{s0}_{p,q} used for initial data."""
        return SpaceParams(self.family, self.s0, self.p, self.q, self.s0)


def smooth_step(u):
    """C^infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / ui)
        b = np.exp(-1.0 / (1.0 - ui))
    out[inside] = a / (a + b)
    return out


def radial_profile(rho):
    """The base cutoff as a function of |xi|: 1 on [0,1], 0 on [3/2,inf)."""
    return 1.0 - smooth_step(2.0 * (np.asarray(rho, dtype=np.float64) - 1.0))


@dataclass(frozen=True, eq=False)
class DyadicDecomposition:
    """Tabulated cutoffs phi_0..phi_J on the rfftn half lattice of one grid,
    each of shape ``grid.half_shape``."""

    grid: object
    J: int
    cutoffs: tuple

    @property
    def block_count(self):
        return self.J + 1

    @property
    def covered_radius(self):
        """Partition of unity holds on |xi| <= this radius."""
        return 2.0 ** self.J

    def partition_sum(self):
        """sum_j phi_j on the half lattice (equals 1 on the covered ball)."""
        return sum(self.cutoffs, np.zeros(self.grid.half_shape))

    @cached_property
    def half_block_weights(self):
        """Matrix W with (|c|^2 @ W)[j] = ||u_j||_2^2 for a flattened
        half-lattice spectrum c of a real field u: cell volume times the
        Parseval multiplicity times phi_j^2, one column per block."""
        grid = self.grid
        columns = [phi ** 2 * grid.half_lattice_weights for phi in self.cutoffs]
        weights = grid.cell_volume * np.stack([c.ravel() for c in columns], axis=1)
        weights.setflags(write=False)
        return weights

    def support_annulus(self, j):
        """(inner, outer) support radii of phi_j."""
        if j == 0:
            return (0.0, 1.5)
        return (2.0 ** (j - 1), 3.0 * 2.0 ** (j - 1))


@lru_cache(maxsize=16)
def build_decomposition(grid):
    """Tabulate the dyadic cutoffs for a grid.

    Requires max|xi| >= 2 so that at least one annulus fits.
    """
    max_xi = grid.max_frequency
    if max_xi < 2.0:
        raise ParameterError(
            f"grid too coarse for a dyadic decomposition: max|xi| = {max_xi:.3g} < 2")
    J = 1
    while 3.0 * 2.0 ** (J - 1) < max_xi:
        J += 1
    rho = np.sqrt(grid.xi_squared)
    # Tabulate t_j = phi_0(2^-j |xi|) once; differences telescope exactly.
    profiles = [radial_profile(rho / 2.0 ** j) for j in range(J + 1)]
    cutoffs = [profiles[0]]
    for j in range(1, J + 1):
        cutoffs.append(profiles[j] - profiles[j - 1])
    for phi in cutoffs:
        phi.setflags(write=False)
    return DyadicDecomposition(grid=grid, J=J, cutoffs=tuple(cutoffs))


def block(f, j):
    """The j-th dyadic block of a real field, as a real field."""
    dec = build_decomposition(f.grid)
    if not 0 <= j <= dec.J:
        raise ParameterError(f"block index {j} outside 0..{dec.J}")
    c = real_spectra(f.samples, f.grid) * dec.cutoffs[j]
    return RealField(f.grid, real_samples(c, f.grid))


def _combine_scales(values, weights, q):
    """(sum (w_j v_j)^q)^(1/q) along axis 0, with the sup convention at q=inf.
    Works in ``values``, which callers pass as a temporary of their own."""
    values *= weights
    if math.isinf(q):
        return np.max(values, axis=0)
    return np.sum(np.power(values, q, out=values), axis=0) ** (1.0 / q)


def _block_l2_norms(spectra, grid):
    """||u_j||_2 of each field (row) and dyadic block (column) of a stack of
    half-lattice spectra: the square root of |c|^2 @ ``half_block_weights``."""
    power = (spectra.real ** 2 + spectra.imag ** 2).reshape(len(spectra), -1)
    return np.sqrt(power @ build_decomposition(grid).half_block_weights)


def a_norms_of_spectra(spectra, grid, sp):
    """Norm in A^s_{p,q} of each real field in a stack of half-lattice spectra.

    The stack is normed in ``grid._batches``, so no temporary spans it: for B
    spaces with p = 2 by ``_block_l2_norms``, else by one inverse transform of
    the cutoffs times a batch. Its bytes per field are that product and the
    block samples; the sums then work in place, beside at most |u_j|.
    """
    dec = build_decomposition(grid)
    weights = np.array([2.0 ** (j * sp.s) for j in range(dec.block_count)])
    norms = np.empty(len(spectra))
    if sp.family == "B" and sp.p == 2:
        for part in _batches(len(spectra), 16 * math.prod(grid.half_shape)):
            norms[part] = _combine_scales(_block_l2_norms(spectra[part], grid).T,
                                          weights[:, None], sp.q)
        return norms
    cutoffs = np.stack(dec.cutoffs)[:, None]
    field_bytes = dec.block_count * (16 * math.prod(grid.half_shape) + 8 * grid.size)
    for part in _batches(len(spectra), field_bytes):
        # Block samples indexed (block, time, x), freed before the next batch's.
        blocks = real_samples(cutoffs * spectra[None, part], grid, overwrite=True)
        if sp.family == "B":
            norms[part] = _combine_scales(_lp_norms(blocks, sp.p, grid), weights[:, None],
                                          sp.q)
        else:
            norms[part] = _lp_norms(
                _combine_scales(np.abs(blocks, out=blocks),
                                weights.reshape((-1,) + (1,) * (grid.n + 1)), sp.q),
                sp.p, grid)
        del blocks
    return norms


def a_norm(f, sp):
    """Norm of a real field in A^s_{p,q}, A in {B, F}.

    Frequencies outside the covered ball |xi| <= 2^J are only partially
    weighted by the cutoffs; band-limit fields to the covered ball when
    exact reconstruction matters.
    """
    spectra = real_spectra(f.samples, f.grid)[None]
    return float(a_norms_of_spectra(spectra, f.grid, sp)[0])


@dataclass(frozen=True)
class PowerMapProbe:
    """Measured norm ratio for u -> |u|^{r-1} u in one space."""

    ratio: float
    numerator: float
    denominator: float
    within_hypothesis: bool


def power_map_probe(f, r, sp):
    """Ratio || |f|^{r-1} f ||_{A^s} / ||f||_{A^s}^r, with a hypothesis flag.

    The flag marks whether n/p < s < r, the regime where the power map is
    bounded; outside it the ratio is still computed, just labeled. The
    F-family corner p = 1, s = 1 is refused.
    """
    if not r > 1:
        raise ParameterError(f"power-map exponent r must exceed 1, got {r}")
    if sp.family == "F" and sp.p == 1 and sp.s == 1:
        raise ParameterError("power-map probe is undefined on the F-family corner p=1, s=1")
    w = RealField(f.grid, np.abs(f.samples) ** (r - 1.0) * f.samples)
    numerator = a_norm(w, sp)
    denominator = a_norm(f, sp) ** r
    if denominator == 0.0:
        raise ParameterError("power-map probe needs a nonzero field")
    n_over_p = 0.0 if math.isinf(sp.p) else f.grid.n / sp.p
    within = n_over_p < sp.s < r
    return PowerMapProbe(ratio=numerator / denominator, numerator=numerator,
                         denominator=denominator, within_hypothesis=within)
