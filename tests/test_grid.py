"""Grid construction, unitary transforms, Parseval, and norm closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import full_lattice
from hyperheat import (InconsistentGridError, ParameterError, RealField,
                       SpectralField, SymmetryError, TorusGrid, constant_field,
                       cosine_mode, fft_workers, forward_transform, inverse_transform,
                       lp_norm, nyquist_mask, zero_field)
from hyperheat.grid import l2_norms_of_spectra


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal(grid.shape))


class TestTorusGrid:
    def test_geometry(self):
        g = TorusGrid(2, 16, length=4.0)
        assert g.shape == (16, 16)
        assert g.size == 256
        assert g.spacing == 0.25
        assert g.cell_volume == 0.0625
        assert g.volume == 16.0
        x = g.axis_coordinates()
        assert x[0] == 0.0
        assert x[-1] == 4.0 - 0.25

    def test_frequencies(self):
        # Default length 2*pi makes xi equal the integer modes.
        g = TorusGrid(1, 16)
        xi = g.axis_frequencies()
        assert_allclose(np.sort(xi), np.arange(-8, 8), atol=1e-12)
        assert g.max_frequency == pytest.approx(8.0)
        g2 = TorusGrid(2, 16)
        assert g2.max_frequency == pytest.approx(8.0 * math.sqrt(2.0))

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, points_per_dim=16),
        dict(n=1, points_per_dim=12),   # not a power of two
        dict(n=1, points_per_dim=4),    # below the minimum
        dict(n=1, points_per_dim=16, length=-1.0),
        dict(n=1, points_per_dim=16, length=math.inf),
        dict(n=3, points_per_dim=1024),  # 16 GiB of spectrum
        dict(n=True, points_per_dim=16),
        dict(n=1, points_per_dim=True),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            TorusGrid(**kwargs)

    def test_xi_squared_readonly(self, grid1d):
        with pytest.raises(ValueError):
            grid1d.xi_squared[0] = 1.0

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (3, 8)])
    def test_xi_squared_is_the_full_lattice_on_the_half(self, n, N):
        g = TorusGrid(n, N)
        assert g.xi_squared.shape == g.half_shape
        assert np.array_equal(g.xi_squared, full_lattice.xi_squared(g)[..., : N // 2 + 1])


class TestFields:
    def test_real_field_shape_and_finiteness(self, grid1d):
        with pytest.raises(ParameterError):
            RealField(grid1d, np.zeros(3))
        bad = np.zeros(grid1d.shape)
        bad[0] = np.nan
        with pytest.raises(ParameterError):
            RealField(grid1d, bad)

    def test_arithmetic(self, grid1d):
        f = random_field(grid1d, 1)
        g = random_field(grid1d, 2)
        assert_allclose((f + g).samples, f.samples + g.samples)
        assert_allclose((f - g).samples, f.samples - g.samples)
        assert_allclose((2.5 * f).samples, 2.5 * f.samples)
        assert_allclose((-f).samples, -f.samples)

    def test_mixed_grids_rejected(self, grid1d):
        other = random_field(TorusGrid(1, 128), 3)
        with pytest.raises(InconsistentGridError):
            _ = random_field(grid1d) + other

    def test_samples_locked(self, grid1d):
        f = zero_field(grid1d)
        with pytest.raises(ValueError):
            f.samples[0] = 1.0


class TestTransforms:
    def test_round_trip(self, grid2d):
        f = random_field(grid2d, 7)
        back = inverse_transform(forward_transform(f))
        assert_allclose(back.samples, f.samples, rtol=0, atol=1e-12)

    def test_parseval(self, grid2d):
        f = random_field(grid2d, 8)
        assert lp_norm(f, 2) == pytest.approx(
            full_lattice.l2_norm(full_lattice.forward(f), grid2d), rel=1e-13)

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 8)])
    def test_half_lattice_round_trip_and_parseval(self, n, N):
        g = TorusGrid(n, N)
        f = random_field(g, 10 + n)
        F = forward_transform(f)
        assert F.coefficients.shape == g.half_shape
        assert_allclose(F.coefficients, full_lattice.forward(f)[..., : N // 2 + 1],
                        rtol=0, atol=1e-12)
        assert_allclose(inverse_transform(F).samples, f.samples, rtol=0, atol=1e-12)
        assert l2_norms_of_spectra(F.coefficients[None], g)[0] == pytest.approx(
            lp_norm(f, 2), rel=1e-13)

    def test_cosine_coefficients(self):
        # Unitary normalization puts sqrt(N)/2 at +/- k for a unit cosine.
        g = TorusGrid(1, 64)
        c = full_lattice.forward(cosine_mode(g, (5,)))
        assert c[5] == pytest.approx(math.sqrt(64) / 2, abs=1e-12)
        assert c[-5] == pytest.approx(math.sqrt(64) / 2, abs=1e-12)
        others = np.delete(np.abs(c), [5, 64 - 5])
        assert np.max(others) < 1e-12

    def test_cosine_phase(self):
        g = TorusGrid(1, 64)
        theta = 0.7
        F = forward_transform(cosine_mode(g, (3,), phase=theta))
        expect = math.sqrt(64) / 2 * np.exp(1j * theta)
        assert abs(F.coefficients[3] - expect) < 1e-12

    def test_hermitian_symmetry_of_real_data(self, grid2d):
        F = forward_transform(random_field(grid2d, 9))
        assert F.hermitian_defect() < 1e-13

    def test_conj_reverse_is_involution(self, grid2d):
        c = (np.random.default_rng(4).standard_normal(grid2d.shape)
             + 1j * np.random.default_rng(5).standard_normal(grid2d.shape))
        assert_allclose(full_lattice.conj_reverse(full_lattice.conj_reverse(c)), c, atol=0)

    def test_inverse_rejects_asymmetric_spectrum(self, grid1d):
        # On the full lattice a mode with no conjugate partner at -3 is not real.
        c = np.zeros(grid1d.shape, dtype=complex)
        c[3] = 1.0
        with pytest.raises(SymmetryError):
            full_lattice.inverse(c, grid1d)

    def test_inverse_accepts_an_interior_mode_alone(self, grid1d):
        # The half lattice holds c(3) for itself and its partner c(-3).
        c = np.zeros(grid1d.half_shape, dtype=complex)
        c[3] = 1.0
        F = SpectralField(grid1d, c)
        assert F.hermitian_defect() == 0.0
        back = inverse_transform(F)
        assert_allclose(max(abs(back.samples)), 2.0 / math.sqrt(64), rtol=1e-12)

    @pytest.mark.parametrize("index", [0, 32])
    def test_inverse_rejects_imaginary_self_conjugate_mode_1d(self, grid1d, index):
        c = np.zeros(grid1d.half_shape, dtype=complex)
        c[1] = 1.0
        c[index] = 0.5j
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(grid1d, c))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("last", [0, 4])
    def test_inverse_rejects_broken_pair_on_self_conjugate_plane(self, n, last):
        g = TorusGrid(n, 8)
        c = np.zeros(g.half_shape, dtype=complex)
        mode = (1,) * (n - 1) + (last,)
        partner = (8 - 1,) * (n - 1) + (last,)
        c[mode] = 1.0 + 1.0j
        c[partner] = 1.0 + 1.0j  # conj(c(k)) would be 1 - 1j
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(g, c))
        c[partner] = 1.0 - 1.0j
        assert SpectralField(g, c).hermitian_defect() == 0.0
        inverse_transform(SpectralField(g, c))

    def test_spectral_field_lives_on_the_half_lattice(self, grid2d):
        with pytest.raises(ParameterError):
            SpectralField(grid2d, np.zeros(grid2d.shape, dtype=complex))


class TestNorms:
    def test_constant_closed_form(self):
        g = TorusGrid(1, 16, length=5.0)
        f = constant_field(g, -3.0)
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(3.0 * 5.0 ** (1.0 / p), rel=1e-14)
        assert lp_norm(f, math.inf) == 3.0

    def test_cosine_l2(self):
        # ||A cos||_2 = A sqrt(V / 2): the lattice Riemann sum is exact.
        g = TorusGrid(1, 64)
        f = cosine_mode(g, (3,), amplitude=2.0)
        assert lp_norm(f, 2) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)
        assert lp_norm(f, math.inf) == pytest.approx(2.0)

    def test_invalid_exponent(self, grid1d):
        with pytest.raises(ParameterError):
            lp_norm(zero_field(grid1d), 0.5)


class TestNyquist:
    def test_mask_counts(self):
        g1 = TorusGrid(1, 8)
        assert int(np.sum(full_lattice.nyquist_mask(g1))) == 1
        g2 = TorusGrid(2, 8)
        assert int(np.sum(full_lattice.nyquist_mask(g2))) == 2 * 8 - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mask_is_the_full_mask_on_the_half_lattice(self, n):
        g = TorusGrid(n, 8)
        mask = nyquist_mask(g)
        assert mask.shape == g.half_shape
        assert np.array_equal(mask, full_lattice.nyquist_mask(g)[..., :5])

    def test_mask_position(self):
        g = TorusGrid(1, 8)
        k = g.axis_integer_modes()
        assert k[np.where(nyquist_mask(g))[0][0]] == -4


class TestWorkers:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("HYPERHEAT_THREADS", raising=False)
        assert fft_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HYPERHEAT_THREADS", "4")
        assert fft_workers() == 4

    @pytest.mark.parametrize("raw", ["0", "-2", "two"])
    def test_rejects_bad_values(self, monkeypatch, raw):
        monkeypatch.setenv("HYPERHEAT_THREADS", raw)
        with pytest.raises(ParameterError):
            fft_workers()
