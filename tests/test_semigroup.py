"""Dissipative semigroup: identity, composition, kernels, smoothing rates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperheat import (ModelParams, ParameterError, SpaceParams, TorusGrid,
                       apply_semigroup, cosine_mode, dissipation_symbol,
                       forward_transform, radial_power_field, random_band_limited,
                       semigroup_property_check, smoothing_rate,
                       synthesize_kernel)


def periodized_gaussian(x, t, length, images=8):
    """Heat kernel on the line wrapped around the circle of given length."""
    total = np.zeros_like(x)
    for m in range(-images, images + 1):
        y = x + m * length
        total += np.exp(-y * y / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return total


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(alpha=0, r=3.0, n=1)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1, r=1.0, n=1)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1, r=3.0, n=0)

    @pytest.mark.parametrize("kwargs", [dict(alpha=True, r=3.0, n=1),
                                        dict(alpha=1, r=3.0, n=True)])
    def test_bools_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_integer_order_flag(self):
        assert ModelParams(alpha=2, r=3.0, n=1).integer_order
        assert not ModelParams(alpha=1.5, r=3.0, n=1).integer_order

    def test_critical_smoothness_pins(self):
        # n/p - 2 alpha / (r - 1) at two reference parameter points.
        assert ModelParams(alpha=1, r=3.0, n=2).critical_smoothness(2.0) == 0.0
        assert ModelParams(alpha=2, r=2.0, n=4).critical_smoothness(2.0) == -2.0


class TestSymbol:
    def test_integer_alpha_is_exact_power(self, grid2d):
        for alpha in (1, 2, 3):
            sym = dissipation_symbol(grid2d, ModelParams(alpha=alpha, r=2.0, n=2))
            assert np.array_equal(sym, grid2d.xi_squared ** alpha)

    def test_fractional_alpha(self, grid1d):
        sym = dissipation_symbol(grid1d, ModelParams(alpha=0.75, r=2.0, n=1))
        assert_allclose(sym, grid1d.xi_squared ** 0.75, rtol=1e-14)


class TestSemigroup:
    def test_time_zero_is_identity(self, grid2d):
        F = forward_transform(random_band_limited(grid2d, 3, max_radius=8.0))
        out = apply_semigroup(F, 0.0, ModelParams(alpha=1, r=3.0, n=2))
        assert np.array_equal(out.coefficients, F.coefficients)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_composition_defect(self, grid2d, alpha):
        F = forward_transform(random_band_limited(grid2d, 5, max_radius=8.0))
        m = ModelParams(alpha=alpha, r=3.0, n=2)
        assert semigroup_property_check(F, 0.1, 0.15, m) < 1e-12

    def test_mean_is_conserved(self, grid2d):
        rng = np.random.default_rng(11)
        from hyperheat import RealField
        f = RealField(grid2d, rng.standard_normal(grid2d.shape) + 4.0)
        F = forward_transform(f)
        out = apply_semigroup(F, 0.7, ModelParams(alpha=2, r=3.0, n=2))
        assert out.coefficients[0, 0] == F.coefficients[0, 0]

    def test_single_mode_damping_oracle(self):
        # Mode |xi| = 2, alpha = 1, t = 1/4: the multiplier is exp(-1).
        g = TorusGrid(1, 64)
        F = forward_transform(cosine_mode(g, (2,)))
        out = apply_semigroup(F, 0.25, ModelParams(alpha=1, r=3.0, n=1))
        ratio = out.coefficients[2] / F.coefficients[2]
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-14)
        # Same damping for alpha = 2 at t = 1/16: exp(-t |xi|^4) = exp(-1).
        out2 = apply_semigroup(F, 1.0 / 16.0, ModelParams(alpha=2, r=3.0, n=1))
        assert out2.coefficients[2] / F.coefficients[2] == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_contractive_in_l2(self, grid2d):
        F = forward_transform(random_band_limited(grid2d, 13, max_radius=8.0))
        out = apply_semigroup(F, 0.3, ModelParams(alpha=1.5, r=3.0, n=2))
        assert np.linalg.norm(out.coefficients) <= np.linalg.norm(F.coefficients)

    def test_negative_time_rejected(self, grid1d):
        F = forward_transform(cosine_mode(grid1d, (1,)))
        with pytest.raises(ParameterError):
            apply_semigroup(F, -0.1, ModelParams(alpha=1, r=3.0, n=1))

    @pytest.mark.parametrize("t", [0.0, 0.1])
    def test_real_field_rejected_at_every_time(self, grid1d, t):
        # A RealField has samples, not coefficients: refused at the boundary,
        # also at t = 0, where the identity would hand it back unchanged.
        u = cosine_mode(grid1d, (1,))
        m = ModelParams(alpha=1, r=3.0, n=1)
        with pytest.raises(ParameterError, match="SpectralField"):
            apply_semigroup(u, t, m)
        with pytest.raises(ParameterError, match="SpectralField"):
            semigroup_property_check(u, t, t, m)


class TestKernel:
    def test_heat_kernel_matches_periodized_gaussian(self):
        g = TorusGrid(1, 256)
        t = 0.01
        kernel = synthesize_kernel(t, g, ModelParams(alpha=1, r=3.0, n=1))
        x = g.axis_coordinates()
        # Compare on the symmetric representative of each sample point.
        x_sym = np.where(x > g.length / 2, x - g.length, x)
        oracle = periodized_gaussian(x_sym, t, g.length)
        assert np.max(np.abs(kernel.samples - oracle)) < 1e-8

    def test_kernel_mass_is_one(self):
        g = TorusGrid(1, 256)
        for alpha in (1, 2):
            kernel = synthesize_kernel(0.01, g, ModelParams(alpha=alpha, r=3.0, n=1))
            mass = float(np.sum(kernel.samples)) * g.cell_volume
            assert abs(mass - 1.0) < 1e-10

    def test_fourth_order_kernel_goes_negative(self):
        # alpha = 2 destroys positivity: the kernel oscillates.
        g = TorusGrid(1, 256)
        kernel = synthesize_kernel(0.01, g, ModelParams(alpha=2, r=3.0, n=1))
        assert float(np.min(kernel.samples)) < 0.0

    def test_long_time_limit_is_mean_projector(self):
        g = TorusGrid(1, 64)
        kernel = synthesize_kernel(100.0, g, ModelParams(alpha=1, r=3.0, n=1))
        assert_allclose(kernel.samples, 1.0 / g.length, rtol=0, atol=1e-12)


class TestSmoothingRate:
    def test_slope_on_saturating_spectrum(self):
        # d/(2 alpha) decay per pair; the deterministic power-law spectrum
        # keeps every block active so the fit is sharp.
        g = TorusGrid(1, 512)
        sp = SpaceParams("B", 0.0, 2.0, 2.0)
        omega = radial_power_field(g, sp.s + 1.0 / sp.p)
        m = ModelParams(alpha=1, r=3.0, n=1)
        times = np.geomspace(1e-4, 5e-2, 24)
        rep = smoothing_rate(omega, sp, 2.0, times, m)
        assert rep.slope == pytest.approx(-1.0, abs=0.02)
        assert not rep.degenerate

    def test_zero_gain_never_amplifies(self, grid1d):
        f = random_band_limited(grid1d, 17, max_radius=10.0)
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        rep = smoothing_rate(f, sp, 0.0, np.geomspace(1e-6, 1e-2, 12),
                             ModelParams(alpha=1, r=3.0, n=1))
        assert max(rep.weighted_ratios) <= 1.0 + 1e-12

    def test_single_block_flagged_degenerate(self, grid1d):
        f = cosine_mode(grid1d, (4,))
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        rep = smoothing_rate(f, sp, 1.0, np.geomspace(1e-4, 1e-2, 8),
                             ModelParams(alpha=1, r=3.0, n=1))
        assert rep.degenerate

    def test_rejects_times_beyond_one(self, grid1d):
        f = random_band_limited(grid1d, 19, max_radius=8.0)
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            smoothing_rate(f, sp, 1.0, np.array([0.5, 2.0]),
                           ModelParams(alpha=1, r=3.0, n=1))
