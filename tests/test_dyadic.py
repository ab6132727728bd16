"""Dyadic cutoffs, block projections, and scale-indexed smoothness norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import full_lattice
from hyperheat import (ParameterError, RealField, SpaceParams, TorusGrid, a_norm, block,
                       build_decomposition, constant_field, cosine_mode, lp_norm,
                       radial_profile, random_band_limited, smooth_step)
from hyperheat.dyadic import a_norms_of_spectra
from hyperheat.grid import real_spectra
from power_probes import power_map_probe
from reference_norms import a_norm_of_coefficients, a_norm_of_field


class TestProfiles:
    def test_smooth_step_endpoints(self):
        u = np.array([-1.0, 0.0, 1.0, 2.0])
        out = smooth_step(u)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == 1.0 and out[3] == 1.0

    def test_smooth_step_monotone(self):
        u = np.linspace(-0.5, 1.5, 201)
        assert np.all(np.diff(smooth_step(u)) >= 0)

    def test_radial_profile_plateaus(self):
        rho = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        out = radial_profile(rho)
        assert_allclose(out[:3], 1.0, atol=0)
        assert_allclose(out[3:], 0.0, atol=0)

    def test_radial_profile_smooth_transition(self):
        rho = np.linspace(1.0, 1.5, 101)
        vals = radial_profile(rho)
        assert np.all(np.diff(vals) <= 0)
        assert 0.0 < vals[50] < 1.0


class TestDecomposition:
    def test_partition_of_unity(self, grid2d):
        # Inside the covered ball the cutoffs must sum to one exactly
        # (telescoping), up to accumulated roundoff.
        dec = build_decomposition(grid2d)
        inside = np.sqrt(grid2d.xi_squared) <= dec.covered_radius
        residual = np.max(np.abs(dec.partition_sum() - 1.0)[inside])
        assert residual < 1e-14

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
    def test_cutoffs_are_the_full_lattice_cutoffs_on_the_half(self, n, N):
        dec = build_decomposition(TorusGrid(n, N))
        for phi, full in zip(dec.cutoffs, full_lattice.cutoffs(dec), strict=True):
            assert phi.shape == dec.grid.half_shape
            assert np.array_equal(phi, full[..., : N // 2 + 1])

    def test_covered_radius_reaches_lattice(self, grid2d):
        dec = build_decomposition(grid2d)
        assert 3.0 * dec.covered_radius / 2.0 >= grid2d.max_frequency

    def test_block_supports(self, grid1d):
        # A mode at |xi| = 2^j sits purely in block j: the annuli overlap
        # only on (2^j, 3 * 2^(j-1)).
        dec = build_decomposition(grid1d)
        f = cosine_mode(grid1d, (4,))
        for j in range(dec.block_count):
            piece = block(f, j)
            norm = lp_norm(piece, 2)
            if j == 2:
                assert norm == pytest.approx(lp_norm(f, 2), rel=1e-12)
            else:
                assert norm < 1e-13

    def test_reconstruction(self, grid2d):
        dec = build_decomposition(grid2d)
        f = random_band_limited(grid2d, 31, max_radius=dec.covered_radius)
        total = np.zeros(grid2d.shape)
        for j in range(dec.block_count):
            total = total + block(f, j).samples
        assert np.max(np.abs(total - f.samples)) < 1e-12 * np.max(np.abs(f.samples))

    def test_coarse_grid_rejected(self):
        with pytest.raises(ParameterError):
            build_decomposition(TorusGrid(1, 8, length=100.0))

    def test_cached(self, grid1d):
        assert build_decomposition(grid1d) is build_decomposition(TorusGrid(1, 64))


class TestSpaceParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SpaceParams("X", 1.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            SpaceParams("B", 1.0, 0.5, 2.0)
        with pytest.raises(ParameterError):
            SpaceParams("B", 1.0, 2.0, 0.9)

    def test_s0_defaults_to_s(self):
        sp = SpaceParams("B", 1.25, 2.0, 2.0)
        assert sp.s0 == 1.25
        assert sp.initial_space().s == 1.25

    def test_with_smoothness(self):
        sp = SpaceParams("B", 1.0, 2.0, 2.0, s0=0.5)
        assert sp.with_smoothness(2.0).s == 2.0
        assert sp.with_smoothness(2.0).s0 == 0.5


class TestNorms:
    def test_single_mode_scale_factor(self, grid1d):
        # One mode at |xi| = 2^j occupies one block, so changing s rescales
        # the norm by exactly 2^(j (s - s')).
        f = cosine_mode(grid1d, (8,))  # j = 3
        for family in ("B", "F"):
            hi = a_norm(f, SpaceParams(family, 2.0, 2.0, 2.0))
            lo = a_norm(f, SpaceParams(family, 0.5, 2.0, 2.0))
            assert hi / lo == pytest.approx(2.0 ** (3 * 1.5), rel=1e-12)

    def test_zero_mode_lands_in_block_zero(self, grid1d):
        f = constant_field(grid1d, 2.0)
        sp = SpaceParams("B", 3.0, 2.0, 2.0)
        # Block 0 has unit weight regardless of s.
        assert a_norm(f, sp) == pytest.approx(lp_norm(f, 2), rel=1e-13)

    def test_holder_zygmund_cosine(self, grid1d):
        # B^s_{inf,inf}: sup_j 2^(js) ||block_j||_inf; a pure cosine at
        # |xi| = 2^j gives 2^(js) times its amplitude.
        s = 0.75
        sp = SpaceParams("B", s, math.inf, math.inf)
        for j, amp in ((1, 1.0), (3, 2.0)):
            f = cosine_mode(grid1d, (2 ** j,), amplitude=amp)
            assert a_norm(f, sp) == pytest.approx(2.0 ** (j * s) * amp, rel=1e-12)

    def test_besov_p2_matches_generic_route(self, grid2d):
        # p = 2 takes a Parseval shortcut; cross-check against the literal
        # sum over sampled blocks.
        f = random_band_limited(grid2d, 41, max_radius=8.0)
        dec = build_decomposition(grid2d)
        sp = SpaceParams("B", 1.2, 2.0, 3.0)
        direct = sum((2.0 ** (j * sp.s) * lp_norm(block(f, j), 2)) ** sp.q
                     for j in range(dec.block_count)) ** (1.0 / sp.q)
        assert a_norm(f, sp) == pytest.approx(direct, rel=1e-12)

    def test_triebel_lizorkin_equals_besov_at_p_eq_q(self, grid2d):
        # With p = q both families reduce to the same iterated sum.
        f = random_band_limited(grid2d, 43, max_radius=8.0)
        b = a_norm(f, SpaceParams("B", 0.8, 3.0, 3.0))
        fnorm = a_norm(f, SpaceParams("F", 0.8, 3.0, 3.0))
        assert fnorm == pytest.approx(b, rel=1e-11)

    def test_coefficient_route_matches_field_route(self, grid2d):
        f = random_band_limited(grid2d, 47, max_radius=6.0)
        sp = SpaceParams("F", 1.1, 2.5, 4.0)
        C = full_lattice.forward(f)
        assert a_norm_of_coefficients(C, grid2d, sp) == pytest.approx(
            a_norm(f, sp), rel=1e-12)

    @pytest.mark.parametrize("sp", [
        SpaceParams("B", 1.5, 2.0, 2.0),          # one matrix product
        SpaceParams("B", -0.5, 2.0, math.inf),    # one matrix product, sup over scales
        SpaceParams("B", 1.2, 3.0, 2.0),          # field-by-field fallback, p != 2
        SpaceParams("F", 1.1, 2.0, 4.0),          # field-by-field fallback, F family
    ])
    def test_stacked_norms_match_per_field_norms(self, sp):
        # Full-band white noise, so every block and the Nyquist planes carry
        # energy; the half-lattice multiplicities must account for all of it.
        for grid in (TorusGrid(1, 64), TorusGrid(2, 32), TorusGrid(3, 16)):
            rng = np.random.default_rng(grid.n)
            samples = rng.standard_normal((4,) + grid.shape)
            dec = build_decomposition(grid)
            got = a_norms_of_spectra(real_spectra(samples, grid), grid, sp)
            want = [a_norm_of_field(RealField(grid, s), sp, dec) for s in samples]
            assert_allclose(got, want, rtol=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(-50.0, 50.0, allow_nan=False),
           s=st.floats(-1.0, 2.0),
           p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
           q=st.sampled_from([1.0, 2.0, math.inf]))
    def test_homogeneity(self, scale, s, p, q):
        grid = TorusGrid(1, 64)
        f = random_band_limited(grid, 53, max_radius=10.0)
        sp = SpaceParams("B", s, p, q)
        assert a_norm(scale * f, sp) == pytest.approx(abs(scale) * a_norm(f, sp),
                                                      rel=1e-10, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), family=st.sampled_from(["B", "F"]))
    def test_triangle_inequality(self, seed, family):
        grid = TorusGrid(1, 64)
        f = random_band_limited(grid, (seed, 0), max_radius=9.0)
        g = random_band_limited(grid, (seed, 1), max_radius=9.0)
        sp = SpaceParams(family, 1.0, 2.0, 2.0)
        assert a_norm(f + g, sp) <= a_norm(f, sp) + a_norm(g, sp) + 1e-12


class TestPowerMap:
    def test_constant_field_closed_form(self):
        # For constants only block 0 is active, so the probe ratio is
        # volume^((1-r)/p) independent of the constant.
        g = TorusGrid(1, 64)  # volume 2*pi
        sp = SpaceParams("B", 1.5, 2.0, 2.0)
        for c in (0.5, 2.0):
            probe = power_map_probe(constant_field(g, c), 3.0, sp)
            assert probe.ratio == pytest.approx((2.0 * math.pi) ** -1.0, rel=1e-12)

    def test_hypothesis_flag(self, grid1d):
        f = random_band_limited(grid1d, 59, max_radius=8.0)
        inside = power_map_probe(f, 3.0, SpaceParams("B", 1.5, 2.0, 2.0))
        assert inside.within_hypothesis
        outside = power_map_probe(f, 3.0, SpaceParams("B", 0.25, 2.0, 2.0))
        assert not outside.within_hypothesis

    def test_refuses_f_family_corner(self, grid1d):
        f = random_band_limited(grid1d, 61, max_radius=8.0)
        with pytest.raises(ParameterError):
            power_map_probe(f, 2.0, SpaceParams("F", 1.0, 1.0, 2.0))

    def test_refuses_r_at_most_one(self, grid1d):
        f = random_band_limited(grid1d, 61, max_radius=8.0)
        with pytest.raises(ParameterError):
            power_map_probe(f, 1.0, SpaceParams("B", 1.5, 2.0, 2.0))
