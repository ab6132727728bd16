"""The solver streams over slab batches: bounded working memory, and results
that do not depend on where the batch boundaries fall.

A "stack" below is one half-lattice spectrum array over all slab times,
the size of one Picard iterate. Memory is measured with ``tracemalloc`` as
the peak above what was allocated before the call, so the returned value
counts; the dyadic tables are built first, and so are the cached slab
weights unless the measurement is cold.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import test_time_stacks
from hyperheat import (BlowupSuspectedError, ModelParams, SolverConfig, SpaceParams,
                       TimeWeight, TorusGrid, build_decomposition, duhamel_apply,
                       etd_oracle, pde_residual, picard_solve, random_band_limited,
                       slab_times, weighted_norm)
from hyperheat import dyadic, solver, timenorms

MODEL = ModelParams(alpha=1, r=3.0, n=2)
SPACE = SpaceParams("B", 1.5, 2.0, 2.0)


def set_batch_bytes(monkeypatch, budget):
    """Patch the one batch budget in every module that sizes batches by it."""
    for module in (dyadic, timenorms, solver):
        monkeypatch.setattr(module, "_PAD_BATCH_BYTES", budget)


def padded_slab_bytes(g, dealias_factor):
    M = solver._padded_points(g.points_per_dim, dealias_factor)
    return 16 * M ** (g.n - 1) * (M // 2 + 1)


class TestWorkingMemory:
    # 128^2 with the default slab grid (225 times), so one stack is 30 MB and
    # the batch temporaries, a few MB, are a small share of it. At amplitude
    # 1e-3 Picard converges in about two iterations.
    GRID = TorusGrid(2, 128)
    CFG = SolverConfig(horizon=0.25)
    WEIGHT = TimeWeight(b=0.5 / 6.0, v=1.0, T=0.25)

    @pytest.fixture(scope="class")
    def solved(self):
        u0 = random_band_limited(self.GRID, (0, 50), 1.9, amplitude=1e-3)
        return u0, picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE).trajectory

    def stacks_above_kept(self, call, cold=False):
        times = slab_times(self.CFG)
        solver._slab_weights.cache_clear()
        if not cold:
            solver._slab_weights(self.GRID, MODEL, tuple(times.tolist()))
        build_decomposition(self.GRID).half_block_weights
        stack = 16 * len(times) * math.prod(self.GRID.half_shape)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not was_tracing:
                tracemalloc.stop()
        del result  # held until the peak was read, so the returned value counts
        return (peak - base) / stack

    def test_picard_solve_holds_one_iterate_stack(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(
            lambda: picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE)) <= 2.5

    def test_duhamel_apply_sweeps_in_place(self, solved):
        u0, traj = solved
        assert self.stacks_above_kept(
            lambda: duhamel_apply(u0, traj, self.CFG, MODEL)) <= 2.5

    def test_etd_oracle_builds_its_trajectory_in_batches(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(lambda: etd_oracle(u0, self.CFG, MODEL)) <= 2.5

    def test_pde_residual_works_per_batch(self, solved):
        _, traj = solved
        assert self.stacks_above_kept(
            lambda: pde_residual(traj, MODEL, self.CFG.dealias_factor)) <= 2.0

    def test_weighted_norm_takes_norms_per_batch(self, solved):
        _, traj = solved
        assert self.stacks_above_kept(
            lambda: weighted_norm(traj, self.WEIGHT, SPACE, 6.0)) <= 0.5

    # With the trajectory stored as one spectra stack, no call converts it to
    # or from fields: each keeps about one stack beyond its result.
    def test_picard_solve_keeps_only_its_iterate(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(
            lambda: picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE)) <= 1.5

    def test_duhamel_apply_copies_the_stack_once(self, solved):
        u0, traj = solved
        assert self.stacks_above_kept(
            lambda: duhamel_apply(u0, traj, self.CFG, MODEL)) <= 1.5

    def test_etd_oracle_returns_its_marched_stack(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(lambda: etd_oracle(u0, self.CFG, MODEL)) <= 1.25

    def test_slab_weight_cache_stores_one_row_per_distinct_step(self):
        times = tuple(slab_times(self.CFG).tolist())
        weights = solver._slab_weights(self.GRID, MODEL, times)
        assert len(weights.decay) < len(times) / 2
        cached = sum(getattr(weights, f.name).nbytes for f in dataclasses.fields(weights))
        assert cached <= 32e6

    # The recursion carries the solution, so no weight is indexed by slab
    # time: 225 times at 128^2 cache 74 rows of three weights.
    def test_slab_weight_cache_holds_no_per_time_rows(self):
        times = tuple(slab_times(self.CFG).tolist())
        weights = solver._slab_weights(self.GRID, MODEL, times)
        arrays = [getattr(weights, f.name) for f in dataclasses.fields(weights)]
        assert sum(a.nbytes for a in arrays) <= 16e6
        row = math.prod(self.GRID.half_shape)
        assert all(a.size < len(times) * row for a in arrays)

    # Cold: the slab weights are built inside the measured call.
    def test_cold_picard_solve_counts_its_weights(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(
            lambda: picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE), cold=True) <= 2.0

    def test_cold_etd_oracle_counts_its_weights(self, solved):
        u0, _ = solved
        assert self.stacks_above_kept(
            lambda: etd_oracle(u0, self.CFG, MODEL), cold=True) <= 1.75


def relative(a, b):
    return abs(a - b) / abs(b)


class TestBatchBoundaries:
    GRID = TorusGrid(2, 16)
    CFG = SolverConfig(horizon=0.1, slabs=24, extra_times=(0.05, 0.025, 0.0125))
    WEIGHT = TimeWeight(b=0.5 / 6.0, v=1.0, T=0.1)
    # One slab per batch, three (a ragged last batch) and every slab at once.
    BUDGETS = {"1 slab": 1, "3 slabs": 3 * padded_slab_bytes(GRID, 1.5),
               "all slabs": 1 << 40}

    def run(self, monkeypatch, budget):
        set_batch_bytes(monkeypatch, budget)
        u0 = random_band_limited(self.GRID, 7, 3.0, amplitude=0.8)
        report = picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE)
        traj = report.trajectory
        return {
            "distances": np.array(report.distances),
            "terminal": traj.terminal.samples.tobytes(),
            "duhamel": b"".join(f.samples.tobytes()
                                for f in duhamel_apply(u0, traj, self.CFG, MODEL).fields),
            "oracle": b"".join(f.samples.tobytes()
                               for f in etd_oracle(u0, self.CFG, MODEL).fields),
            "residual": pde_residual(traj, MODEL, self.CFG.dealias_factor),
            "weighted": [weighted_norm(traj, self.WEIGHT, sp, 6.0).value
                         for sp in (SPACE, SpaceParams("F", 1.1, 2.0, 4.0))],
        }

    @pytest.fixture(scope="class")
    def reference(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return self.run(monkeypatch, self.BUDGETS["all slabs"])

    @pytest.mark.parametrize("budget, slabs", [("1 slab", 1), ("3 slabs", 3)])
    def test_results_do_not_depend_on_batching(self, budget, slabs, monkeypatch,
                                               reference):
        got = self.run(monkeypatch, self.BUDGETS[budget])
        assert solver._batch_length(self.GRID, 1.5) == slabs
        assert len(slab_times(self.CFG)) > 10 * slabs
        assert len(reference["distances"]) >= 4
        for key in ("terminal", "duhamel", "oracle"):
            assert got[key] == reference[key], key
        # The norm products of smaller batches may round differently.
        np.testing.assert_allclose(got["distances"], reference["distances"],
                                   rtol=1e-14, atol=0)
        assert relative(got["residual"], reference["residual"]) <= 1e-14
        np.testing.assert_allclose(got["weighted"], reference["weighted"], rtol=1e-14,
                                   atol=0)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_blowup_report_survives_the_overwrite(self, budget, monkeypatch):
        set_batch_bytes(monkeypatch, self.BUDGETS[budget])
        cfg = SolverConfig(horizon=1.0, slabs=16)
        u0 = random_band_limited(self.GRID, 97, max_radius=4.0, amplitude=50.0)
        with pytest.raises(BlowupSuspectedError) as err:
            picard_solve(u0, cfg, MODEL, TimeWeight(b=0.25 / MODEL.r, v=1.0, T=1.0), SPACE)
        traj = err.value.report.trajectory
        assert traj.times == tuple(slab_times(cfg))
        samples = np.stack([f.samples for f in traj.fields])
        assert np.all(np.isfinite(samples))
        assert np.max(np.abs(samples)) > np.max(np.abs(u0.samples))
        # Every slab holds its own time, not a batch buffer written over later.
        assert len({f.samples.tobytes() for f in traj.fields}) == len(traj)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_contraction_ratios_match_field_route(self, budget, monkeypatch):
        set_batch_bytes(monkeypatch, self.BUDGETS[budget])
        test_time_stacks.TestContraction().test_ratios_match_field_route()


class TestNoFieldRoundTrips:
    # A solved trajectory is already a spectra stack: reading it back must not
    # transform grid samples forward again.
    GRID = TorusGrid(2, 16)
    CFG = SolverConfig(horizon=0.1, slabs=24)
    WEIGHT = TimeWeight(b=0.5 / 6.0, v=1.0, T=0.1)

    def fields_transformed(self, monkeypatch, call):
        """Grid-shaped fields passed to ``scipy.fft.rfftn`` during ``call``."""
        counted = []
        forward = scipy.fft.rfftn

        def counting(x, *args, **kwargs):
            if np.shape(x)[-self.GRID.n:] == self.GRID.shape:
                counted.append(np.size(x) // self.GRID.size)
            return forward(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(scipy.fft, "rfftn", counting)
            call()
        return sum(counted)

    @pytest.mark.parametrize("space", [SPACE, SpaceParams("F", 1.1, 2.0, 4.0)],
                             ids=["B", "F"])
    def test_solved_trajectory_is_read_as_spectra(self, monkeypatch, space):
        u0 = random_band_limited(self.GRID, 7, 3.0, amplitude=0.8)
        traj = picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE).trajectory
        assert len(traj) > 20
        # duhamel_apply transforms its data u0, one field, and nothing else.
        assert self.fields_transformed(
            monkeypatch, lambda: duhamel_apply(u0, traj, self.CFG, MODEL)) == 1
        assert self.fields_transformed(
            monkeypatch, lambda: pde_residual(traj, MODEL, self.CFG.dealias_factor)) == 0
        assert self.fields_transformed(
            monkeypatch, lambda: weighted_norm(traj, self.WEIGHT, space, 6.0)) == 0
