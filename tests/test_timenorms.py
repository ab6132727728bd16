"""Weighted trajectory norms and the admissibility window arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperheat import (InconsistentGridError, ModelParams, ParameterError, RealField,
                       SpaceParams, TimeWeight, TorusGrid, Trajectory, admissibility,
                       a_norm, build_decomposition, cosine_mode, equivalence_check,
                       log_time_grid, random_band_limited, weighted_norm)
from hyperheat import grid as grid_module


def power_trajectory(grid, beta, T, per_decade=128):
    """u(t) = t^beta cos(4x): spatial norm K t^beta with constant K."""
    f = cosine_mode(grid, (4,))
    times = log_time_grid(T * 1e-4, T, per_decade=per_decade)
    fields = [float(t) ** beta * f for t in times]
    return Trajectory(tuple(times), tuple(fields)), f


class TestTimeWeight:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeWeight(b=math.nan, v=1.0, T=1.0)
        with pytest.raises(ParameterError):
            TimeWeight(b=0.1, v=0.4, T=1.0)
        with pytest.raises(ParameterError):
            TimeWeight(b=0.1, v=1.0, T=0.0)


class TestTrajectory:
    def test_validation(self, grid1d):
        f = cosine_mode(grid1d, (1,))
        with pytest.raises(ParameterError):
            Trajectory((0.0, 1.0), (f, f))
        with pytest.raises(ParameterError):
            Trajectory((1.0, 0.5), (f, f))
        with pytest.raises(ParameterError):
            Trajectory((), ())

    def test_terminal(self, grid1d):
        f = cosine_mode(grid1d, (1,))
        traj = Trajectory((0.5, 1.0), (f, 2.0 * f))
        assert np.array_equal(traj.terminal.samples, traj.fields[-1].samples)
        assert np.allclose(traj.terminal.samples, 2.0 * f.samples, rtol=0, atol=1e-15)
        assert len(traj) == 2

    def test_rejects_mixed_grids(self, grid1d):
        other = TorusGrid(1, 64, length=4.0 * math.pi)
        with pytest.raises(InconsistentGridError):
            Trajectory((0.5, 1.0), (cosine_mode(grid1d, (1,)), cosine_mode(other, (1,))))


def white_noise_fields(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [RealField(grid, s) for s in rng.standard_normal((count,) + grid.shape)]


class TestSpectraLayout:
    GRIDS = [TorusGrid(1, 64), TorusGrid(2, 32), TorusGrid(3, 16)]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
    def test_fields_round_trip(self, grid):
        # White noise fills every mode, the Nyquist planes included.
        fields = white_noise_fields(grid, 7, grid.n)
        traj = Trajectory(np.linspace(0.1, 0.7, 7), fields)
        assert traj.spectra.shape == (7,) + grid.half_shape
        assert traj.spectra.dtype == np.complex128
        assert traj.grid == grid and len(traj.fields) == 7
        for got, want in zip(traj.fields, fields):
            assert got.grid == grid
            assert (np.linalg.norm(got.samples - want.samples)
                    <= 1e-15 * np.linalg.norm(want.samples))
        assert traj.terminal.samples.tobytes() == traj.fields[6].samples.tobytes()
        with pytest.raises(IndexError):
            traj.fields[7]

    def test_spectra_are_read_only(self, grid2d):
        traj = Trajectory((0.5, 1.0), white_noise_fields(grid2d, 2, 0))
        assert not traj.spectra.flags.writeable
        with pytest.raises(ValueError):
            traj.spectra[0] = 0.0
        with pytest.raises(ValueError):
            traj.fields[0].samples[0, 0] = 1.0
        # Fields are transformed on access, never stored.
        assert traj.fields[0] is not traj.fields[0]

    def test_batches_do_not_change_the_stack(self, grid2d, monkeypatch):
        fields = white_noise_fields(grid2d, 9, 3)
        times = np.linspace(0.1, 0.9, 9)
        stacks = []
        # One field per batch, four (a ragged last batch) and all at once.
        for budget in (1, 4 * 16 * math.prod(grid2d.half_shape), 1 << 40):
            monkeypatch.setattr(grid_module, "_PAD_BATCH_BYTES", budget)
            stacks.append(Trajectory(times, fields).spectra.tobytes())
        assert stacks[0] == stacks[1] == stacks[2]

    def test_from_spectra_adopts_the_stack(self, grid2d):
        spectra = Trajectory((0.5, 1.0), white_noise_fields(grid2d, 2, 1)).spectra.copy()
        traj = Trajectory.from_spectra((0.5, 1.0), spectra, grid2d)
        assert traj.spectra is spectra and not spectra.flags.writeable
        with pytest.raises(ParameterError):
            Trajectory.from_spectra((0.5,), spectra, grid2d)
        with pytest.raises(ParameterError):
            Trajectory.from_spectra((0.5, 1.0), spectra[..., :-1].copy(), grid2d)


class TestLogTimeGrid:
    def test_endpoints_and_count(self):
        t = log_time_grid(1e-3, 1.0, per_decade=10)
        assert t[0] == pytest.approx(1e-3, rel=1e-12)
        assert t[-1] == pytest.approx(1.0, rel=1e-12)
        assert len(t) == 31

    def test_rejects_bad_range(self):
        with pytest.raises(ParameterError):
            log_time_grid(1.0, 0.5)


class TestWeightedNorm:
    def test_power_law_closed_form(self, grid1d):
        # || t^b K t^beta ||_{L^v dt} ^ v = K^v T^((b+beta)v+1) / ((b+beta)v+1).
        beta, b, v, T = 0.5, 0.25, 2.0, 0.8
        traj, f = power_trajectory(grid1d, beta, T)
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        K = a_norm(f, sp)
        q = (b + beta) * v
        expect = K * (T ** (q + 1.0) / (q + 1.0)) ** (1.0 / v)
        result = weighted_norm(traj, TimeWeight(b=b, v=v, T=T), sp, v)
        assert result.coverage_ok
        assert result.value == pytest.approx(expect, rel=1e-4)

    def test_sup_norm_form(self, grid1d):
        # v = inf takes the max of t^b ||u(t)||; rising power beta > -b
        # puts the max at the final sample.
        beta, b, T = 0.5, 0.25, 0.8
        traj, f = power_trajectory(grid1d, beta, T)
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        w = TimeWeight(b=b, v=math.inf, T=T)
        expect = T ** (b + beta) * a_norm(f, sp)
        assert weighted_norm(traj, w, sp, math.inf).value == pytest.approx(
            expect, rel=1e-12)

    def test_homogeneity(self, grid1d):
        traj, _ = power_trajectory(grid1d, 0.0, 1.0, per_decade=16)
        scaled = Trajectory(traj.times, tuple(3.0 * f for f in traj.fields))
        sp = SpaceParams("B", 1.0, 2.0, 2.0)
        w = TimeWeight(b=0.1, v=2.0, T=1.0)
        assert weighted_norm(scaled, w, sp, 2.0).value == pytest.approx(
            3.0 * weighted_norm(traj, w, sp, 2.0).value, rel=1e-12)

    def test_coverage_flag(self, grid1d):
        f = cosine_mode(grid1d, (1,))
        late = Trajectory((0.5, 1.0), (f, f))
        out = weighted_norm(late, TimeWeight(b=0.0, v=1.0, T=1.0),
                            SpaceParams("B", 1.0, 2.0, 2.0), 1.0)
        assert not out.coverage_ok
        assert "cover" in out.note

    def test_rejects_samples_beyond_horizon(self, grid1d):
        f = cosine_mode(grid1d, (1,))
        traj = Trajectory((0.5, 2.0), (f, f))
        with pytest.raises(ParameterError):
            weighted_norm(traj, TimeWeight(b=0.0, v=1.0, T=1.0),
                          SpaceParams("B", 1.0, 2.0, 2.0), 1.0)

    @pytest.mark.parametrize("space", [SpaceParams("B", 1.5, 2.0, 2.0),
                                       SpaceParams("F", 1.1, 2.0, 4.0)], ids=["B", "F"])
    def test_rejects_the_decomposition_of_another_grid(self, grid2d, space):
        # Same shape, half the length: its cutoffs mark other modes, so a norm
        # taken with them would read another number, not fail.
        other = build_decomposition(TorusGrid(2, 32, length=math.pi))
        f = random_band_limited(grid2d, 5, 6.0)
        traj = Trajectory((0.5, 1.0), (f, 0.5 * f))
        w = TimeWeight(b=0.1, v=1.0, T=1.0)
        with pytest.raises(InconsistentGridError):
            weighted_norm(traj, w, space, 6.0, other)
        own = build_decomposition(TorusGrid(2, 32))
        assert (weighted_norm(traj, w, space, 6.0, own).value
                == weighted_norm(traj, w, space, 6.0).value)

    def test_rejects_exponent_below_one(self, grid1d):
        f = cosine_mode(grid1d, (1,))
        traj = Trajectory((0.5, 1.0), (f, f))
        with pytest.raises(ParameterError):
            weighted_norm(traj, TimeWeight(b=0.0, v=1.0, T=1.0),
                          SpaceParams("B", 1.0, 2.0, 2.0), 0.5)


class TestAdmissibility:
    def test_exponent_arithmetic(self):
        # a=1/2, v=1, s=s0, r=2: delta = av - 0 + 1 = 3/2,
        # kappa = av + 2rv - arv - r + 1 = 1/2 + 4 - 1 - 2 + 1 = 5/2.
        m = ModelParams(alpha=1, r=2.0, n=1)
        adm = admissibility(0.5, 1.0, 1.0, 1.0, m, 2.0)
        assert adm.delta == 1.5
        assert adm.kappa == 2.5
        assert adm.admissible

    def test_lower_boundary_gives_delta_zero(self):
        # a + 1/v exactly at r (s - s0) / alpha makes delta vanish.
        m = ModelParams(alpha=2, r=3.0, n=1)
        gap = m.r * 0.5 / m.alpha  # s - s0 = 0.5
        adm = admissibility(gap - 1.0, 1.0, 1.5, 1.0, m, 2.0)
        assert adm.delta == 0.0
        assert not adm.admissible

    def test_infinite_v_conventions(self):
        # At v = inf the stored values are the leading coefficients:
        # delta -> a - gap, kappa -> a(1-r) + 2r.
        m = ModelParams(alpha=1, r=3.0, n=1)
        adm = admissibility(1.0, math.inf, 1.25, 1.0, m, 2.0)
        assert adm.delta == pytest.approx(1.0 - 3.0 * 0.25)
        assert adm.kappa == pytest.approx(1.0 * (1.0 - 3.0) + 6.0)
        assert adm.admissible  # 0.75 < 1.0 < 2

    def test_classification_pins(self):
        m1 = ModelParams(alpha=1, r=3.0, n=2)
        assert admissibility(0.5, 1.0, 0.0, 0.0, m1, 2.0).classification.startswith(
            "critical")
        assert admissibility(0.5, 1.0, 0.5, 0.5, m1, 2.0).classification.startswith(
            "supercritical")
        assert admissibility(0.5, 1.0, -0.5, -0.5, m1, 2.0).classification.startswith(
            "subcritical")

    def test_rejects_bad_arguments(self):
        m = ModelParams(alpha=1, r=3.0, n=1)
        with pytest.raises(ParameterError):
            admissibility(0.5, 1.0, 0.0, 1.0, m, 2.0)   # s < s0
        with pytest.raises(ParameterError):
            admissibility(0.5, 0.5, 1.0, 1.0, m, 2.0)   # v at the open endpoint
        with pytest.raises(ParameterError):
            admissibility(0.5, 1.0, 1.0, 1.0, m, 0.5)   # p < 1


class TestEquivalence:
    def test_agrees_inside_working_range(self):
        # On a + 1/v < 2 the window is equivalent to delta > 0 and kappa > 0.
        rng = np.random.default_rng(101)
        m_cache = {}
        for _ in range(2000):
            alpha = float(rng.choice([1.0, 2.0]))
            r = float(rng.uniform(2.0, 4.0))
            v = float(rng.uniform(0.51, 4.0))
            s0 = float(rng.uniform(-1.0, 1.0))
            s = s0 + float(rng.uniform(0.0, 1.5))
            a = float(rng.uniform(-3.0, 2.0 - 1.0 / v))
            m = m_cache.setdefault((alpha, r), ModelParams(alpha=alpha, r=r, n=1))
            assert equivalence_check(a, v, s, s0, m)

    def test_counterexample_beyond_working_range(self):
        # kappa > 0 is weaker than the upper bound: at a = 2.5, v = 1, r = 2,
        # s = s0 both exponents are positive but a + 1/v = 3.5 >= 2.
        m = ModelParams(alpha=1, r=2.0, n=1)
        assert not equivalence_check(2.5, 1.0, 1.0, 1.0, m)
        adm = admissibility(2.5, 1.0, 1.0, 1.0, m, 2.0)
        assert adm.delta > 0 and adm.kappa > 0 and not adm.admissible

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-3.0, 1.0), v=st.floats(0.51, 5.0),
           gap=st.floats(0.0, 1.0), r=st.floats(2.0, 4.0))
    def test_property_sweep(self, a, v, gap, r):
        if a + 1.0 / v >= 2.0:
            return
        m = ModelParams(alpha=1, r=r, n=1)
        assert equivalence_check(a, v, 1.0 + gap, 1.0, m)
