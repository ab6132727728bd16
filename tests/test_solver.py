"""Duhamel machinery: phi functions, dealiased powers, Picard, ETD cross-check."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from numpy.testing import assert_allclose

from hyperheat import (BlowupSuspectedError, InconsistentGridError, IntegrationError,
                       ModelParams, ParameterError, RealField, SolverConfig, SpaceParams,
                       TimeWeight, TorusGrid, Trajectory, aliasing_probe,
                       apply_semigroup, constant_field, semigroup_property_check,
                       smoothing_rate, synthesize_kernel,
                       contraction_identity_check, cosine_mode,
                       dissipation_symbol, duhamel_apply, etd_oracle,
                       forward_transform, inverse_transform, nonlinearity,
                       pde_residual, phi1, phi2, picard_solve,
                       random_band_limited, slab_times, SpectralField,
                       strong_convergence_check, zero_field)
from hyperheat import solver

MODEL = ModelParams(alpha=1, r=3.0, n=1)
SPACE = SpaceParams("B", 1.5, 2.0, 2.0)


def small_weight(T, r=3.0, v=1.0):
    # a = 2 r b = 0.5: admissible with s = s0 since 0 < 0.5 + 1/v < 2.
    return TimeWeight(b=0.25 / r, v=v, T=T)


class TestPhiFunctions:
    def test_reference_values(self):
        z = np.array([-1.0])
        assert phi1(z)[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert phi2(z)[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        zero = np.array([0.0])
        assert phi1(zero)[0] == 1.0
        assert phi2(zero)[0] == 0.5

    def test_seam_continuity(self):
        # Taylor branch below |z| = 0.5, direct formula above: the jump at
        # the seam must stay at roundoff (the probes sit 1e-14 apart, so
        # the true value changes by well under the bound).
        for seam in (0.5, -0.5):
            inner = np.array([seam * (1 - 1e-14)])
            outer = np.array([seam * (1 + 1e-14)])
            assert abs(phi1(inner)[0] - phi1(outer)[0]) < 1e-13
            assert abs(phi2(inner)[0] - phi2(outer)[0]) < 1e-13

    def test_large_negative_argument(self):
        z = np.array([-50.0])
        assert phi1(z)[0] == pytest.approx(1.0 / 50.0, rel=1e-13)
        assert phi2(z)[0] == pytest.approx((1.0 - 1.0 / 50.0) / 50.0, rel=1e-12)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(horizon=-1.0),
        dict(horizon=1.0, slabs=2),
        dict(horizon=1.0, picard_tol=2.0),
        dict(horizon=1.0, dealias_factor=0.5),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("key, value", [("slabs", 16.5), ("slabs", 16.0),
                                            ("slabs", True), ("slabs", "16"),
                                            ("picard_max_iter", 2.5),
                                            ("picard_max_iter", False)])
    def test_integer_fields_reject_other_types(self, key, value):
        with pytest.raises(ParameterError, match=key):
            SolverConfig(horizon=1.0, **{key: value})

    @pytest.mark.parametrize("kwargs", [
        dict(times=(0.1, math.nan, 0.25)),
        dict(times=(math.nan, 0.25)),
        dict(times=(0.1, math.inf)),
        dict(extra_times=(math.nan,)),
        dict(extra_times=(0.1, -math.inf)),
    ], ids=["nan inside times", "nan first in times", "inf times", "nan extra time",
            "-inf extra time"])
    def test_non_finite_times_rejected(self, kwargs):
        # np.unique sorts NaN last, where the slab grid would drop it.
        with pytest.raises(ParameterError, match="finite"):
            SolverConfig(horizon=0.25, **kwargs)

    @pytest.mark.parametrize("key", ["times", "extra_times"])
    def test_none_times_mean_empty(self, key):
        assert SolverConfig(horizon=0.25, **{key: None}) == SolverConfig(horizon=0.25)

    def test_integer_fields_take_numpy_integers(self):
        cfg = SolverConfig(horizon=1.0, slabs=np.int64(16), picard_max_iter=np.int32(5))
        assert cfg == SolverConfig(horizon=1.0, slabs=16, picard_max_iter=5)
        assert len(slab_times(cfg)) == len(slab_times(SolverConfig(horizon=1.0, slabs=16)))

    def test_slab_grid_structure(self):
        cfg = SolverConfig(horizon=0.5, slabs=16)
        t = slab_times(cfg)
        assert t[0] > 0
        assert t[-1] == pytest.approx(0.5, rel=1e-12)
        assert np.all(np.diff(t) > 0)
        # The fixed geometric head reaches down to 1e-4 * horizon.
        assert t[0] <= 1e-4 * 0.5

    def test_explicit_times_must_reach_horizon(self):
        cfg = SolverConfig(horizon=1.0, times=(0.25, 0.5))
        with pytest.raises(ParameterError):
            slab_times(cfg)

    def test_extra_times_merged(self):
        cfg = SolverConfig(horizon=1.0, slabs=8, extra_times=(0.013,))
        t = slab_times(cfg)
        assert np.min(np.abs(t - 0.013)) < 1e-12

    def test_extra_times_must_be_interior(self):
        cfg = SolverConfig(horizon=1.0, slabs=8, extra_times=(1.5,))
        with pytest.raises(ParameterError):
            slab_times(cfg)

    def test_extra_times_merged_into_explicit_times(self):
        cfg = SolverConfig(horizon=1.0, times=(0.25, 0.5, 1.0), extra_times=(0.1,))
        assert slab_times(cfg).tolist() == [0.1, 0.25, 0.5, 1.0]

    def test_extra_times_checked_against_explicit_times(self):
        cfg = SolverConfig(horizon=1.0, times=(0.25, 0.5, 1.0), extra_times=(2.0,))
        with pytest.raises(ParameterError):
            slab_times(cfg)


class TestNonlinearity:
    def test_cubic_trig_identity(self):
        # cos^3(2x) = (3 cos(2x) + cos(6x)) / 4, reproduced exactly once
        # the padded lattice holds the tripled band.
        g = TorusGrid(1, 64)
        u = cosine_mode(g, (2,))
        want = 0.75 * cosine_mode(g, (2,)).samples + 0.25 * cosine_mode(g, (6,)).samples
        got = nonlinearity(u, 3.0)
        assert np.max(np.abs(got.samples - want)) < 1e-13

    def test_odd_symmetry(self, grid2d):
        u = random_band_limited(grid2d, 71, max_radius=6.0)
        for r in (2.0, 3.0, 3.5):
            plus = nonlinearity(u, r)
            minus = nonlinearity(-1.0 * u, r)
            assert np.max(np.abs(plus.samples + minus.samples)) < 1e-12

    def test_integer_power_has_no_aliasing(self, grid1d):
        u = random_band_limited(grid1d, 73, max_radius=5.0, amplitude=0.5)
        assert aliasing_probe(u, 3.0) < 1e-13

    def test_fractional_power_aliasing_is_measurable(self, grid1d):
        u = random_band_limited(grid1d, 73, max_radius=5.0, amplitude=0.5)
        probe = aliasing_probe(u, 3.5)
        assert 0.0 <= probe < 1e-2

    def test_rejects_r_at_most_one(self, grid1d):
        with pytest.raises(ParameterError):
            nonlinearity(cosine_mode(grid1d, (1,)), 1.0)


class TestDuhamel:
    def test_zero_data_and_trajectory_stay_zero(self, grid1d):
        # The tau = 0 forcing comes from u0, so only the all-zero pair is
        # forcing-free; its image must vanish identically.
        cfg = SolverConfig(horizon=0.2, slabs=16)
        times = slab_times(cfg)
        zero = zero_field(grid1d)
        traj = Trajectory(tuple(times), tuple(zero for _ in times))
        out = duhamel_apply(zero, traj, cfg, MODEL)
        for f in out.fields:
            assert np.max(np.abs(f.samples)) == 0.0

    def test_flat_mode_closed_form(self, grid1d):
        # Constant data: zero dissipation on the mean, constant forcing,
        # so T(u)(t) = c + t |c|^(r-1) c exactly at either quadrature order.
        c = 0.1
        cfg = SolverConfig(horizon=0.3, slabs=12)
        times = slab_times(cfg)
        u0 = constant_field(grid1d, c)
        traj = Trajectory(tuple(times), tuple(u0 for _ in times))
        out = duhamel_apply(u0, traj, cfg, MODEL)
        for t, f in zip(out.times, out.fields):
            assert_allclose(f.samples, c + t * c ** 3, rtol=0, atol=1e-14)

    def test_linear_forcing_oracle(self, grid1d):
        # u(tau) = sqrt(tau) g with g >= 0 and r = 2 makes the forcing
        # exactly linear in tau, where the order-2 slab quadrature is exact:
        # each mode returns t^2 phi2(-t lambda) times the spectrum of g^2.
        g_field = RealField(grid1d, 0.05 * (1.0 + cosine_mode(grid1d, (2,)).samples))
        m = ModelParams(alpha=1, r=2.0, n=1)
        cfg = SolverConfig(horizon=0.4, slabs=20)
        times = slab_times(cfg)
        traj = Trajectory(tuple(times),
                          tuple(math.sqrt(t) * g_field for t in times))
        out = duhamel_apply(zero_field(grid1d), traj, cfg, m)
        lam = dissipation_symbol(grid1d, m)
        g2_hat = forward_transform(RealField(grid1d, g_field.samples ** 2)).coefficients
        for t, f in zip(out.times, out.fields):
            oracle = t * t * phi2(-t * lam) * g2_hat
            want = inverse_transform(SpectralField(grid1d, oracle))
            scale = np.max(np.abs(want.samples))
            assert np.max(np.abs(f.samples - want.samples)) < 1e-10 * max(scale, 1e-30)

    def test_horizon_mismatch_rejected(self, grid1d):
        cfg = SolverConfig(horizon=0.2, slabs=8)
        times = slab_times(SolverConfig(horizon=0.1, slabs=8))
        zero = zero_field(grid1d)
        traj = Trajectory(tuple(times), tuple(zero for _ in times))
        with pytest.raises(ParameterError):
            duhamel_apply(zero, traj, cfg, MODEL)


class TestPicard:
    def test_zero_data_is_fixed_point(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=16)
        report = picard_solve(zero_field(grid1d), cfg, MODEL,
                              small_weight(0.25), SPACE)
        assert report.converged
        assert report.iterations == 1
        assert report.weighted_norm == 0.0
        assert all(np.max(np.abs(f.samples)) == 0.0 for f in report.trajectory.fields)

    def test_small_data_converges_and_is_self_consistent(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=24)
        u0 = random_band_limited(grid1d, 83, max_radius=6.0, amplitude=0.01)
        w = small_weight(0.25)
        report = picard_solve(u0, cfg, MODEL, w, SPACE)
        assert report.converged
        assert report.weighted_norm < 1.0
        # One more operator application leaves the trajectory in place.
        again = duhamel_apply(u0, report.trajectory, cfg, MODEL)
        worst = max(np.max(np.abs(a.samples - b.samples))
                    for a, b in zip(again.fields, report.trajectory.fields))
        amp = max(np.max(np.abs(f.samples)) for f in report.trajectory.fields)
        assert worst < 10.0 * cfg.picard_tol * amp

    def test_contraction_factors_reported(self, grid1d, monkeypatch):
        # The marched start certifies this solve in one sweep, which reports
        # no factor; capped at one kernel evaluation per slab it starts
        # further away and Picard sweeps more than once.
        one_pass_march(monkeypatch)
        cfg = SolverConfig(horizon=0.25, slabs=16)
        u0 = random_band_limited(grid1d, 89, max_radius=6.0, amplitude=2.0)
        report = picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
        assert report.converged and report.iterations > 1
        assert report.contraction_factors
        assert all(f < 1.0 for f in report.contraction_factors)

    def test_inadmissible_weight_rejected(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=16)
        u0 = random_band_limited(grid1d, 83, max_radius=6.0, amplitude=0.01)
        gapped = SpaceParams("B", 1.5, 2.0, 2.0, s0=0.0)  # r (s-s0)/alpha = 4.5
        with pytest.raises(ParameterError, match="inadmissible"):
            picard_solve(u0, cfg, MODEL, small_weight(0.25), gapped)

    def test_low_smoothness_rejected(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=16)
        u0 = random_band_limited(grid1d, 83, max_radius=6.0, amplitude=0.01)
        rough = SpaceParams("B", 0.4, 2.0, 2.0)  # below n/p = 0.5
        with pytest.raises(ParameterError, match="s > n/p"):
            picard_solve(u0, cfg, MODEL, small_weight(0.25), rough)

    def test_horizon_mismatch_rejected(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=16)
        u0 = random_band_limited(grid1d, 83, max_radius=6.0, amplitude=0.01)
        with pytest.raises(ParameterError, match="horizon"):
            picard_solve(u0, cfg, MODEL, small_weight(0.3), SPACE)

    def test_large_data_flags_blowup(self, grid1d):
        # Focusing cubic nonlinearity with O(50) data on a unit horizon:
        # the iterates must run away and the solver must say so. On the way
        # the march overspends its budget and drives a slab's corrections to
        # exactly 0, which the contraction estimate must not divide by.
        cfg = SolverConfig(horizon=1.0, slabs=16)
        u0 = random_band_limited(grid1d, 97, max_radius=4.0, amplitude=50.0)
        with pytest.raises(BlowupSuspectedError) as err:
            picard_solve(u0, cfg, MODEL, small_weight(1.0), SPACE)
        assert err.value.report is not None
        assert not err.value.report.converged

    def test_overflowing_data_raises_at_the_first_slab(self, grid1d):
        # With overflow warnings not errors, as under the CLI, sweeps of such
        # data used to overflow into a NaN weighted norm read as distance 0.
        cfg = SolverConfig(horizon=0.25, slabs=16)
        u0 = random_band_limited(grid1d, 0, max_radius=6.0, amplitude=1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(BlowupSuspectedError) as err:
                picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
        # Nothing was marched before the escape, so there is no report.
        assert err.value.report is None
        assert float(march_escape(str(err.value))) == pytest.approx(slab_times(cfg)[0],
                                                                     rel=1e-5)


class TestConstantDataClosedForm:
    """Constant data c solve u' = u^3, so u(t) = c (1 - 2 c^2 t)^(-1/2), which
    blows up at T* = 1 / (2 c^2); here c = 1 on the 8^2 torus."""

    MODEL = ModelParams(alpha=1, r=3.0, n=2)

    @staticmethod
    def uniform(horizon, slabs):
        return SolverConfig(horizon=horizon,
                            times=tuple(np.linspace(0.0, horizon, slabs + 1)[1:]))

    def solve(self, horizon, slabs):
        w = TimeWeight(b=0.5 / (2 * self.MODEL.r), v=1.0, T=horizon)
        return picard_solve(constant_field(TorusGrid(2, 8), 1.0),
                            self.uniform(horizon, slabs), self.MODEL, w,
                            SpaceParams("B", 1.5, 2.0, 2.0, s0=1.5))

    def test_converged_march_certifies_in_one_sweep(self):
        for slabs in (80, 160, 320):
            report = self.solve(0.25, slabs)
            assert report.converged and report.iterations == 1
            assert report.distances[0] <= 0.5 * report.tolerance

    def test_picard_is_second_order_on_the_multi_sweep_path(self, monkeypatch):
        # Capped at one evaluation per slab, the march lands 1.2e-7 to
        # 1.8e-9 from the fixed point, and Picard sweeps more than once.
        one_pass_march(monkeypatch)
        exact = 1.0 / math.sqrt(1.0 - 2.0 * 0.25)
        errors = {}
        for slabs in (80, 160, 320):
            report = self.solve(0.25, slabs)
            assert report.converged and report.iterations > 1
            errors[slabs] = np.max(np.abs(report.trajectory.terminal.samples - exact))
        for coarse in (80, 160):
            assert math.log2(errors[coarse] / errors[2 * coarse]) == pytest.approx(2.0, abs=0.2)
        assert errors[160] <= 1e-5 and errors[320] <= 1e-5

    def test_oracle_is_second_order(self):
        exact = 1.0 / math.sqrt(1.0 - 2.0 * 0.25)
        errors = {}
        for slabs in (80, 160, 320):
            traj = etd_oracle(constant_field(TorusGrid(2, 8), 1.0),
                              self.uniform(0.25, slabs), self.MODEL)
            errors[slabs] = np.max(np.abs(traj.terminal.samples - exact))
        for coarse in (80, 160):
            assert math.log2(errors[coarse] / errors[2 * coarse]) == pytest.approx(2.0, abs=0.2)

    def test_blowup_detector_fires_past_the_blowup_time(self):
        # At 0.45, near T* = 0.5, the march's corrector still settles every
        # slab, and one sweep certifies the start.
        report = self.solve(0.45, 160)
        assert report.converged and report.iterations == 1
        with pytest.raises(BlowupSuspectedError):
            self.solve(0.6, 160)

    def test_blowup_names_where_the_start_grew(self):
        # Picard starts from a march of the equation itself, which passes
        # 1e3 x data near T* = 0.5; the error says where.
        with pytest.raises(BlowupSuspectedError) as err:
            self.solve(0.6, 160)
        for text in (err.value.report.note, str(err.value)):
            assert 0.4 <= float(march_escape(text)) <= 0.6


def march_escape(text):
    """The slab time a blow-up message names for the starting march."""
    found = re.search(r"starting march left 1e3 x data at t = (\S+)$", text)
    assert found, text
    return found.group(1)


def linear_rise(monkeypatch):
    """Predict the march's forcing with the line through the last two slab
    ends, the rule the quadratic replaced."""
    rise = solver._predicted_rise
    monkeypatch.setattr(solver, "_predicted_rise",
                        lambda rises, steps: rise(rises[-1:], steps[-2:]))


def one_pass_march(monkeypatch):
    """Cap the starting march at one kernel evaluation per slab, at the
    predicted end: the march then lands further from the fixed point and
    Picard sweeps more than once."""
    monkeypatch.setattr(solver, "_MARCH_PASSES", 1)


def count_kernel_fields(monkeypatch):
    """Count the fields each power map the solver builds evaluates: the
    returned list gains one entry per map, in the order they are built."""
    fields = []
    power_map = solver._power_map

    def counted(*args):
        power = power_map(*args)
        count = len(fields)
        fields.append(0)

        def evaluate(spectra):
            fields[count] += len(spectra)
            return power(spectra)

        return evaluate

    monkeypatch.setattr(solver, "_power_map", counted)
    return fields


class TestMarchedStart:
    """The first iterate marches the recursion with each slab's end forcing
    predicted by the quadratic through the last three slab ends."""

    MODEL = ModelParams(alpha=1, r=3.0, n=2)
    SPACE = SpaceParams("B", 1.5, 2.0, 2.0, s0=1.5)

    @staticmethod
    def solve_data(amplitude):
        """The initial data of ``solve``."""
        return random_band_limited(TorusGrid(2, 64), (0, 50), 1.9, amplitude=amplitude)

    def solve(self, amplitude, cfg=None):
        """Amplitude data on the 64^2 grid, by default on the default slab grid."""
        cfg = cfg or SolverConfig(horizon=0.25)
        u0 = self.solve_data(amplitude)
        w = TimeWeight(b=0.5 / (2 * self.MODEL.r), v=1.0, T=cfg.horizon)
        return picard_solve(u0, cfg, self.MODEL, w, self.SPACE)

    @pytest.mark.parametrize("known", [1, 2, 3])
    def test_rise_is_exact_for_polynomials_through_the_known_forcings(self, known):
        # Degree known - 1 through unevenly spaced slab ends: zero, line, quadratic.
        coeffs = [1.0, -3.0, 40.0][:known]
        nodes, t = [0.0, 1e-3, 0.0105][3 - known:], 0.02
        values = [polyval(x, coeffs) * np.ones(3) for x in nodes]
        rises = [b - a for a, b in zip(values, values[1:])]
        steps = list(np.diff(nodes + [t]))
        want = polyval(t, coeffs) - polyval(nodes[-1], coeffs)
        kept = [rise.copy() for rise in rises]
        got = solver._predicted_rise(rises, steps)
        assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # The march keeps its rises for the next slab's prediction.
        for rise, copy in zip(rises, kept, strict=True):
            assert rise.tobytes() == copy.tobytes()

    def test_amplitude_one_converges_in_one_sweep(self):
        report = self.solve(1.0)
        assert report.converged and report.iterations == 1
        assert report.distances[0] <= 0.5 * report.tolerance

    def test_amplitude_one_and_a_half_needs_at_most_two_sweeps(self):
        report = self.solve(1.5)
        assert report.converged and report.iterations <= 2

    def test_blowup_names_the_march_escape_time(self):
        cfg = SolverConfig(horizon=0.25)
        with pytest.raises(IntegrationError) as unstable:
            etd_oracle(self.solve_data(2.0), cfg, self.MODEL)
        with pytest.raises(BlowupSuspectedError) as err:
            self.solve(2.0, cfg)
        # The uniform slab width, plus the rounding of the message's 6 digits.
        escape = float(march_escape(str(err.value)))
        assert abs(escape - unstable.value.time) <= 0.25 / 160 + 1e-6

    @pytest.mark.parametrize("case, most", [("1-D amplitude 3", 298),
                                            ("64^2 amplitude 2, T = 0.25", 635)])
    def test_runaway_march_ends_the_solve(self, case, most, monkeypatch):
        # The march that leaves 1e3 x data raises at once, before any sweep;
        # carried on by the decay alone to the horizon and swept from there,
        # these solves spent 462 and 861 kernel fields.
        fields = count_kernel_fields(monkeypatch)
        with pytest.raises(BlowupSuspectedError) as err:
            if case == "1-D amplitude 3":
                cfg = SolverConfig(horizon=0.25, slabs=16)
                u0 = random_band_limited(TorusGrid(1, 64), 0, max_radius=6.0, amplitude=3.0)
                picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
            else:
                self.solve(2.0)
        report = err.value.report
        assert report.iterations == 0 and report.distances == ()
        assert report.note == str(err.value)
        assert sum(fields) <= most

    def test_quadratic_prediction_saves_march_evaluations(self, monkeypatch):
        fields = count_kernel_fields(monkeypatch)
        march = {}
        for prediction in ("quadratic", "line"):
            if prediction == "line":
                linear_rise(monkeypatch)
            fields.clear()
            assert self.solve(1.0).converged
            # The march's map is the first the solve builds.
            march[prediction] = fields[0]
        assert march["quadratic"] < march["line"]

    @pytest.mark.parametrize("case, most", [("1-D amplitude 3", 238),
                                            ("64^2 amplitude 2, T = 0.21", 924)])
    def test_march_settles_contracting_solves_for_one_sweep(self, case, most, monkeypatch):
        # The march keeps correcting slabs whose passes shrink the correction
        # slowly (by 0.535 per pass at the last slab of the 64^2 solve), so
        # one sweep certifies the start. A march that gave up after four
        # passes, or on a pass failing to halve the correction, left 6 and 30
        # sweeps here (306 and 1653 kernel fields).
        fields = count_kernel_fields(monkeypatch)
        if case == "1-D amplitude 3":
            cfg = SolverConfig(horizon=0.25, slabs=16)
            u0 = random_band_limited(TorusGrid(1, 64), 89, max_radius=6.0, amplitude=3.0)
            report = picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
        else:
            report = self.solve(2.0, SolverConfig(horizon=0.21))
        assert report.converged and report.iterations == 1
        assert sum(fields) <= most

    @pytest.mark.parametrize("times", ["step ratio 1e5", "geometric", "extra times"])
    def test_irregular_grids_start_no_further_than_the_line(self, times, monkeypatch):
        # One evaluation per slab, so the start is the prediction's; the
        # march's corrector brings either start within its budget.
        one_pass_march(monkeypatch)
        T = 0.25
        cfg = {
            "step ratio 1e5": SolverConfig(horizon=T, times=tuple(
                [k * 2.5e-7 for k in range(1, 9)] + [2e-6 + k * 0.025 for k in range(1, 10)]
                + [T])),
            "geometric": SolverConfig(horizon=T, times=tuple(T * np.geomspace(1e-4, 1, 60))),
            "extra times": SolverConfig(horizon=T, slabs=24,
                                        extra_times=tuple(T / 2.0 ** k for k in range(1, 7))),
        }[times]
        quadratic = self.solve(1.0, cfg)
        linear_rise(monkeypatch)
        line = self.solve(1.0, cfg)
        assert quadratic.converged and line.converged
        assert quadratic.iterations <= line.iterations
        assert quadratic.distances[0] <= line.distances[0]


class TestEtdOracle:
    def test_linear_flow_is_exact(self, grid1d, monkeypatch):
        # With the forcing zeroed the integrator is the semigroup alone.
        monkeypatch.setattr(solver, "_power_map",
                            lambda *args: lambda spectra: np.zeros_like(spectra))
        cfg = SolverConfig(horizon=0.3, slabs=16)
        u0 = random_band_limited(grid1d, 101, max_radius=8.0)
        traj = etd_oracle(u0, cfg, MODEL)
        U0 = forward_transform(u0)
        want = inverse_transform(apply_semigroup(U0, traj.times[-1], MODEL))
        assert np.max(np.abs(traj.terminal.samples - want.samples)) < 1e-12

    def test_agrees_with_picard(self, grid1d):
        cfg = SolverConfig(horizon=0.25, slabs=64)
        u0 = random_band_limited(grid1d, 103, max_radius=6.0, amplitude=0.01)
        report = picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
        oracle = etd_oracle(u0, cfg, MODEL)
        diff = np.max(np.abs(oracle.terminal.samples - report.trajectory.terminal.samples))
        assert diff < 1e-8 * np.max(np.abs(oracle.terminal.samples))

    def test_unstable_march_raises(self, grid1d):
        cfg = SolverConfig(horizon=1.0, slabs=8)
        u0 = random_band_limited(grid1d, 107, max_radius=4.0, amplitude=1e5)
        with pytest.raises(IntegrationError) as err:
            etd_oracle(u0, cfg, MODEL)
        assert err.value.step >= 1


class TestResidualAndConvergence:
    def test_residual_small_on_solution(self, grid1d):
        # Centered differences leave an O(lambda^3 h^2) defect; the band
        # keeps lambda <= 4, so 96 slabs put it far below the bound.
        cfg = SolverConfig(horizon=0.25, slabs=96)
        u0 = random_band_limited(grid1d, 109, max_radius=2.0, amplitude=0.01)
        report = picard_solve(u0, cfg, MODEL, small_weight(0.25), SPACE)
        assert pde_residual(report.trajectory, MODEL) < 1e-4

    def test_strong_convergence_picks_nearest_samples(self, grid1d):
        from hyperheat import a_norm
        f1 = cosine_mode(grid1d, (1,))
        f2 = 2.0 * f1
        f3 = 3.0 * f1
        traj = Trajectory((0.1, 0.2, 0.3), (f1, f2, f3))
        u0 = zero_field(grid1d)
        out = strong_convergence_check(traj, u0, SPACE, at_times=(0.19, 0.31))
        assert [t for t, _ in out] == [0.2, 0.3]
        assert out[0][1] == pytest.approx(a_norm(f2, SPACE), rel=1e-12)


class TestModelDimension:
    """Every solver and semigroup entry point refuses a model whose dimension
    is not its grid's: a 1-D model on a 2-D grid would run on the wrong
    symbol."""

    GRID = TorusGrid(2, 16)
    CFG = SolverConfig(horizon=0.1, slabs=8)
    ENTRY_POINTS = {
        "picard_solve": lambda u0, traj, cfg, m: picard_solve(
            u0, cfg, m, small_weight(cfg.horizon), SPACE),
        "etd_oracle": lambda u0, traj, cfg, m: etd_oracle(u0, cfg, m),
        "duhamel_apply": lambda u0, traj, cfg, m: duhamel_apply(u0, traj, cfg, m),
        "pde_residual": lambda u0, traj, cfg, m: pde_residual(traj, m),
        "apply_semigroup": lambda u0, traj, cfg, m: apply_semigroup(
            forward_transform(u0), 0.1, m),
        "semigroup_property_check": lambda u0, traj, cfg, m: semigroup_property_check(
            forward_transform(u0), 0.1, 0.1, m),
        "synthesize_kernel": lambda u0, traj, cfg, m: synthesize_kernel(0.1, u0.grid, m),
        "smoothing_rate": lambda u0, traj, cfg, m: smoothing_rate(
            u0, SPACE, 1.0, (0.1, 0.2), m),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_model_of_another_dimension(self, entry):
        u0 = random_band_limited(self.GRID, 3, 3.0, amplitude=0.1)
        m = ModelParams(alpha=1, r=3.0, n=2)
        traj = picard_solve(u0, self.CFG, m, small_weight(0.1), SPACE).trajectory
        with pytest.raises(InconsistentGridError, match="dimension"):
            self.ENTRY_POINTS[entry](u0, traj, self.CFG, MODEL)


class TestContractionIdentity:
    def test_scalar_oracles(self, grid1d):
        # r = 2, u = 1, v = -1: both sides equal 2 (the path integral
        # crosses its kink at theta = 1/2, which the quadrature splits).
        u = constant_field(grid1d, 1.0)
        v = constant_field(grid1d, -1.0)
        assert contraction_identity_check(u, v, 2.0) < 1e-14
        # r = 3, u = 2, v = 1: lhs = 8 - 1, rhs = 3 * integral (1+theta)^2.
        u2 = constant_field(grid1d, 2.0)
        v2 = constant_field(grid1d, 1.0)
        assert contraction_identity_check(u2, v2, 3.0) < 1e-12

    @pytest.mark.parametrize("r", [2.0, 3.0, 3.5])
    def test_random_fields(self, grid2d, r):
        u = random_band_limited(grid2d, (113, 0), max_radius=6.0)
        v = random_band_limited(grid2d, (113, 1), max_radius=6.0)
        assert contraction_identity_check(u, v, r) < 1e-10

    def test_rejects_r_at_most_one(self, grid1d):
        u = constant_field(grid1d, 1.0)
        with pytest.raises(ParameterError):
            contraction_identity_check(u, u, 1.0)
