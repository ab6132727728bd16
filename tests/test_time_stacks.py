"""Time-indexed work on stacked half-lattice spectra against per-time references.

Every reference here takes the single-field full-lattice route of
``full_lattice`` one time at a time: the full DFT, the multiplier on the full
lattice, an explicit Hermitian projection, the checked inverse DFT and the
full-lattice norm of ``reference_norms``.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import full_lattice
from hyperheat import (InconsistentGridError, ModelParams, RealField, SpaceParams,
                       SpectralField, SolverConfig, TimeWeight, TorusGrid, Trajectory,
                       a_norm, apply_semigroup, band_limit, block, build_decomposition,
                       default_config, duhamel_apply, forward_transform,
                       pde_residual, picard_solve, power_spectrum_field,
                       radial_power_field, random_band_limited, run_experiment,
                       slab_times, spectrum_field, smoothing_rate,
                       strong_convergence_check, synthesize_kernel, weighted_norm)
from hyperheat.grid import l2_norms_of_spectra, real_samples, real_spectra
from hyperheat.solver import _power_spectra, _slab_weights
from reference_norms import a_norm_of_coefficients, a_norm_of_field


def with_extras(cfg, **overrides):
    extras = dict(cfg.extras)
    extras.update({k: str(v) for k, v in overrides.items()})
    return dataclasses.replace(cfg, extras=extras)


def semigroup_reference(c, grid, t, m):
    """W_t on full-lattice coefficients, re-projected onto Hermitian symmetry."""
    c = c * np.exp(-t * full_lattice.dissipation_symbol(grid, m))
    return 0.5 * (c + full_lattice.conj_reverse(c))


def orbit_norms_reference(f, sp, d, times, m, dec):
    """(base norm, || W_t f ||_{A^{s+d}} per time), one time at a time."""
    gained = sp.with_smoothness(sp.s + d)
    C = full_lattice.forward(f)
    norms = [a_norm_of_coefficients(semigroup_reference(C, f.grid, float(t), m),
                                    f.grid, gained, dec) for t in times]
    return a_norm_of_field(f, sp, dec), np.array(norms)


def relative_sup(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


SPACES = {
    "B(1.5,2,2)": SpaceParams("B", 1.5, 2.0, 2.0),
    "B(0.5,3,2)": SpaceParams("B", 0.5, 3.0, 2.0),
    "F(1.1,2,4)": SpaceParams("F", 1.1, 2.0, 4.0),
}


class TestSmoothingRate:
    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("n, N", [(1, 512), (2, 32)])
    @pytest.mark.parametrize("saturating", [True, False])
    def test_norms_and_ratios_match_per_time_reference(self, space, n, N, saturating):
        # B(1.5,2,2) takes the matrix-product path; p = 3 and the F family
        # take the block-field fallback.
        grid = TorusGrid(n, N)
        sp = SPACES[space]
        m = ModelParams(alpha=2, r=3.0, n=n)
        dec = build_decomposition(grid)
        f = (radial_power_field(grid, sp.s + n / sp.p) if saturating
             else power_spectrum_field(grid, 0.6, seed=(4, n)))
        times = np.geomspace(1e-5, 0.5, 9 if space.startswith("F") else 17)
        d = 2.0
        rep = smoothing_rate(f, sp, d, times, m)
        base, norms = orbit_norms_reference(f, sp, d, times, m, dec)
        assert rep.base_norm == pytest.approx(base, rel=1e-12)
        assert_allclose(rep.norms, norms, rtol=1e-12, atol=0)
        assert_allclose(rep.weighted_ratios, times ** (d / (2.0 * m.alpha)) * norms / base,
                        rtol=1e-12, atol=0)

    def test_fallback_checks_no_symmetry(self, monkeypatch):
        # The block fields of the fallback come from batched irfftn, so no
        # spectrum goes through the Hermitian-checked inverse transform.
        calls = []
        checked = SpectralField.hermitian_defect

        def counting(self):
            calls.append(1)
            return checked(self)

        monkeypatch.setattr(SpectralField, "hermitian_defect", counting)
        grid = TorusGrid(1, 512)
        f = power_spectrum_field(grid, 0.6, seed=(4, 1))
        rep = smoothing_rate(f, SPACES["F(1.1,2,4)"], 2.0, np.geomspace(1e-5, 1.0, 121),
                             ModelParams(alpha=2, r=3.0, n=1))
        assert len(rep.norms) == 121 and np.all(np.isfinite(rep.norms))
        assert calls == []

    @pytest.mark.parametrize("mode, degenerate", [((4,), True), ((2, 8), False)])
    def test_degenerate_flag_matches_per_block_norms(self, mode, degenerate):
        # |xi| = 2, 4 and 8 each sit where a single cutoff equals one.
        grid = TorusGrid(1, 64)
        k = np.fft.fftfreq(64, d=1.0 / 64)
        c = np.where(np.isin(np.abs(k), mode), 1.0, 0.0).astype(np.complex128)
        f = full_lattice.inverse(c, grid)
        dec = build_decomposition(grid)
        weights = [full_lattice.l2_norm(phi * c, grid) for phi in full_lattice.cutoffs(dec)]
        active = sum(w > 1e-8 * math.sqrt(sum(x * x for x in weights)) for w in weights)
        assert (active <= 1) == degenerate
        rep = smoothing_rate(f, SpaceParams("B", 1.0, 2.0, 2.0), 1.0,
                             np.geomspace(1e-4, 1e-2, 8), ModelParams(alpha=1, r=3.0, n=1))
        assert rep.degenerate is degenerate


class TestApplySemigroup:
    @pytest.mark.parametrize("alpha", [1, 2, 1.5])
    def test_real_field_matches_symmetrized_output(self, grid2d, alpha):
        rng = np.random.default_rng(21)
        f = RealField(grid2d, rng.standard_normal(grid2d.shape))
        F = forward_transform(f)
        m = ModelParams(alpha=alpha, r=3.0, n=2)
        for t in (1e-4, 0.01, 0.3):
            got = apply_semigroup(F, t, m).coefficients
            want = semigroup_reference(full_lattice.forward(f), grid2d, t, m)
            want = want[..., : grid2d.points_per_dim // 2 + 1]
            assert relative_sup(got, want) <= 1e-15
            assert SpectralField(grid2d, got).hermitian_defect() <= 1e-15


def reference_spectrum(grid, envelope, seed, max_radius=None, zero_mean=True):
    """The full-lattice route's spectrum: same draws, then conj_reverse."""
    rng = np.random.default_rng(seed)
    radius = np.sqrt(full_lattice.xi_squared(grid))
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.asarray(envelope(radius), dtype=np.float64)
    mag[~np.isfinite(mag)] = 0.0
    c = mag * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    if max_radius is not None:
        c[radius > max_radius] = 0.0
    c[full_lattice.nyquist_mask(grid)] = 0.0
    if zero_mean:
        c[(0,) * grid.n] = 0.0
    return 0.5 * (c + full_lattice.conj_reverse(c))


def reference_spectrum_field(grid, envelope, seed, max_radius=None, zero_mean=True):
    """The full-lattice route: ``reference_spectrum``, then the checked ifftn."""
    c = reference_spectrum(grid, envelope, seed, max_radius, zero_mean)
    return full_lattice.inverse(c, grid).samples


GRIDS = [TorusGrid(1, 64), TorusGrid(2, 32), TorusGrid(3, 16)]


class TestProbeFields:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
    def test_random_spectra_match_full_lattice_route(self, grid):
        decay = lambda rho: np.where(rho > 0, rho ** -0.7, 0.0)  # noqa: E731
        cases = [
            (spectrum_field(grid, np.exp, 8, max_radius=5.0, zero_mean=False).samples,
             reference_spectrum_field(grid, np.exp, 8, max_radius=5.0, zero_mean=False)),
            (random_band_limited(grid, (3, 4), 5.0).samples,
             reference_spectrum_field(grid, np.ones_like, (3, 4), max_radius=5.0)),
            (power_spectrum_field(grid, 0.7, (5, 1)).samples,
             reference_spectrum_field(grid, decay, (5, 1))),
        ]
        for got, want in cases:
            # The sup-normalized builders rescale; compare shapes, not scale.
            got, want = got / np.max(np.abs(got)), want / np.max(np.abs(want))
            assert relative_sup(got, want) <= 1e-13
        # Through the same inverse transform, the unnormalized field is the
        # full-lattice route's spectrum to the last bit.
        full = reference_spectrum(grid, np.exp, 8, max_radius=5.0, zero_mean=False)
        want = real_samples(full[..., : grid.points_per_dim // 2 + 1], grid)
        got = spectrum_field(grid, np.exp, 8, max_radius=5.0, zero_mean=False).samples
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
    def test_deterministic_spectra_match_full_lattice_route(self, grid):
        radius = np.sqrt(full_lattice.xi_squared(grid))
        with np.errstate(divide="ignore"):
            mag = np.where((radius > 0) & (radius <= 7.0), radius ** -0.5, 0.0)
        mag[full_lattice.nyquist_mask(grid)] = 0.0
        want = full_lattice.inverse(mag.astype(np.complex128), grid).samples
        assert relative_sup(radial_power_field(grid, 0.5, max_radius=7.0).samples,
                            want) <= 1e-13
        m = ModelParams(alpha=2, r=3.0, n=grid.n)
        scale = math.sqrt(grid.size) / grid.volume
        kernel = np.exp(-0.01 * full_lattice.dissipation_symbol(grid, m)) * scale
        want = full_lattice.inverse(kernel.astype(np.complex128), grid).samples
        assert relative_sup(synthesize_kernel(0.01, grid, m).samples, want) <= 1e-13

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
    def test_projections_match_full_lattice_route(self, grid):
        # White noise fills every mode, the Nyquist planes included.
        f = RealField(grid, np.random.default_rng(1).standard_normal(grid.shape))
        F = full_lattice.forward(f)
        c = np.where(np.sqrt(full_lattice.xi_squared(grid)) > 4.5, 0.0, F)
        want = full_lattice.inverse(c, grid).samples
        assert relative_sup(band_limit(f, 4.5).samples, want) <= 1e-13
        dec = build_decomposition(grid)
        for j, phi in enumerate(full_lattice.cutoffs(dec)):
            want = full_lattice.inverse(F * phi, grid).samples
            assert relative_sup(block(f, j).samples, want) <= 1e-13


@pytest.fixture(scope="module")
def small_solve():
    grid = TorusGrid(2, 16)
    m = ModelParams(alpha=1, r=3.0, n=2)
    sp = SpaceParams("B", 1.5, 2.0, 2.0)
    cfg = SolverConfig(horizon=0.1, slabs=24, extra_times=(0.05, 0.025, 0.0125))
    u0 = random_band_limited(grid, 7, 3.0, amplitude=0.8)
    report = picard_solve(u0, cfg, m, TimeWeight(b=0.5 / 6.0, v=1.0, T=0.1), sp)
    return u0, report.trajectory, cfg, m


class TestStackedDistances:
    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_strong_convergence_matches_per_field_norms(self, small_solve, space):
        u0, traj, _, _ = small_solve
        sp0 = SPACES[space]
        at_times = (0.05, 0.0125, 0.025)
        got = strong_convergence_check(traj, u0, sp0, at_times)
        times = np.asarray(traj.times)
        indices = [int(np.argmin(np.abs(times - t))) for t in at_times]
        assert len(got) == len(indices)
        for (t, dist), i in zip(got, indices):
            assert t == traj.times[i]
            assert dist == pytest.approx(a_norm_of_field(traj.fields[i] - u0, sp0),
                                         rel=1e-12)

    def test_strong_convergence_rejects_data_on_another_grid(self, small_solve):
        _, traj, _, _ = small_solve
        other = random_band_limited(TorusGrid(2, 16, length=4.0 * math.pi), 7, 3.0)
        with pytest.raises(InconsistentGridError):
            strong_convergence_check(traj, other, SPACES["B(1.5,2,2)"], (0.05,))

    def test_stability_deviations_match_per_field_norms(self):
        cfg = dataclasses.replace(default_config("stability"), grid=TorusGrid(2, 16),
                                  solver=SolverConfig(horizon=0.1, slabs=16))
        cfg = with_extras(cfg, delta_grid="1e-3,1e-2")
        rec = run_experiment(cfg)
        sp, sp0 = cfg.space, cfg.space.initial_space()
        dec = build_decomposition(cfg.grid)
        band = cfg.get_float("band_radius")
        u0 = random_band_limited(cfg.grid, (cfg.seed, 40), band, cfg.get_float("amplitude"))
        direction = random_band_limited(cfg.grid, (cfg.seed, 41), band, 1.0)
        direction = direction * (1.0 / a_norm(direction, sp0))
        w = cfg.time_weight()
        base = picard_solve(u0, cfg.solver, cfg.model, w, sp).trajectory
        pert = picard_solve(u0 + direction * 1e-2, cfg.solver, cfg.model, w, sp).trajectory
        want = [a_norm_of_field(f1 - f2, sp0, dec)
                for f1, f2 in zip(base.fields, pert.fields)]
        rows = np.array(rec.series["stability_profile"].rows)
        assert_allclose(rows[:, 0], base.times, rtol=0, atol=0)
        assert_allclose(rows[:, 1], want, rtol=1e-12, atol=0)


class TestContraction:
    def test_ratios_match_field_route(self):
        cfg = with_extras(default_config("contraction"), halvings=2, sample_pairs=1,
                          t_top=0.2)
        rec = run_experiment(cfg)
        m, sp, grid = cfg.model, cfg.space, cfg.grid
        dec = build_decomposition(grid)
        vexp = cfg.integration_exponent()
        band = cfg.get_float("band_radius")
        left, right, u0_raw = (random_band_limited(grid, (cfg.seed, k), band, 1.0)
                               for k in (30, 31, 29))
        ratios = []
        for T in (0.2, 0.1):
            scfg = dataclasses.replace(cfg.solver, horizon=T, times=None)
            times = slab_times(scfg)
            w = TimeWeight(b=cfg.weight_a / (2.0 * m.r), v=cfg.weight_v, T=T)

            def orbit(f):
                C = full_lattice.forward(f)
                return Trajectory(times, [
                    full_lattice.inverse(semigroup_reference(C, grid, t, m), grid)
                    for t in times])

            def norm(traj):
                return weighted_norm(traj, w, sp, vexp, dec).value

            def diff(a, b):
                return Trajectory(a.times, [x - y for x, y in zip(a.fields, b.fields)])

            def scaled(traj, rho):
                factor = rho / norm(traj)
                return Trajectory(traj.times, [f * factor for f in traj.fields])

            a, b = scaled(orbit(left), 1.0), scaled(orbit(right), 0.7)
            u0 = u0_raw * (0.5 / norm(orbit(u0_raw)))
            image = diff(duhamel_apply(u0, a, scfg, m), duhamel_apply(u0, b, scfg, m))
            ratios.append(norm(image) / norm(diff(a, b)))
        rows = np.array(rec.series["contraction_ratios"].rows)
        assert_allclose(rows[:, 1], ratios, rtol=1e-12, atol=0)


class TestInPlaceAccumulation:
    def test_duhamel_apply_bytes_match_out_of_place_sum(self, small_solve):
        # The reference runs the recursion from u0 over every slab at once.
        u0, traj, cfg, m = small_solve
        grid = u0.grid
        weights = _slab_weights(grid, m, traj.times)
        spectra = np.concatenate([real_spectra(u0.samples, grid)[None], traj.spectra])
        forcing = _power_spectra(spectra, grid, m.r, cfg.dealias_factor)
        previous = forcing[:-1]
        terms = weights.phi1[weights.step] * previous
        terms += weights.phi2[weights.step] * (forcing[1:] - previous)
        decay = weights.decay[weights.step]
        terms[0] += decay[0] * spectra[0]
        for i in range(1, len(terms)):
            terms[i] += decay[i] * terms[i - 1]
        want = real_samples(terms, grid)
        got = np.stack([f.samples for f in duhamel_apply(u0, traj, cfg, m).fields])
        assert np.array_equal(got, want)

    def test_pde_residual_bytes_match_out_of_place_sum(self, small_solve):
        _, traj, cfg, m = small_solve
        grid = traj.grid
        lam = full_lattice.dissipation_symbol(grid, m)[..., : grid.points_per_dim // 2 + 1]
        shape = (-1,) + (1,) * grid.n
        h = np.diff(np.asarray(traj.times))
        h0, h1 = h[:-1].reshape(shape), h[1:].reshape(shape)
        spectra = traj.spectra
        before, middle, after = spectra[:-2], spectra[1:-1], spectra[2:]
        dudt = (-h1 / (h0 * (h0 + h1)) * before
                + (h1 - h0) / (h0 * h1) * middle
                + h0 / (h1 * (h0 + h1)) * after)
        resid = dudt + lam * middle - _power_spectra(middle, grid, m.r, cfg.dealias_factor)
        scale = l2_norms_of_spectra(middle, grid)
        want = np.max(l2_norms_of_spectra(resid, grid) / scale)
        assert pde_residual(traj, m, cfg.dealias_factor) == float(want)
