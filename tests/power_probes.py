"""Two probes of the power map u -> |u|^{r-1} u that only the tests use.

``contraction_identity_check`` measures the difference-of-powers
factorization behind the contraction estimate, with its path integral by
piecewise Gauss-Legendre quadrature (criterion 6). ``power_map_probe``
measures the map's norm ratio in one smoothness space, with a flag for the
regime where the map is bounded. Neither runs in a solve or an experiment.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from hyperheat import InconsistentGridError, ParameterError, RealField, a_norm


def _unit_gauss_legendre():
    """32-node Gauss-Legendre nodes and weights on [0, 1]."""
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
