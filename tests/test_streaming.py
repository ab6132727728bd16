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
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import test_time_stacks
from hyperheat import (BlowupSuspectedError, ModelParams, SolverConfig, SpaceParams,
                       TimeWeight, TorusGrid, build_decomposition, default_config,
                       duhamel_apply, etd_oracle, pde_residual, picard_solve,
                       random_band_limited, slab_times, weighted_norm)
from hyperheat import grid as grid_module
from hyperheat import solver
from hyperheat.dyadic import a_norms_of_spectra
from hyperheat.grid import real_spectra
from test_solver import STALLED
from test_solver_kernel import kernel_batch, slab_bytes

MODEL = ModelParams(alpha=1, r=3.0, n=2)
SPACE = SpaceParams("B", 1.5, 2.0, 2.0)
# One space per path of the norm layer: the B, p = 2 matrix product and the
# block fields of the F family and of p != 2.
NORM_SPACES = {"B(1.5,2,2)": SPACE, "F(1.1,2,4)": SpaceParams("F", 1.1, 2.0, 4.0),
               "B(0.5,3,2)": SpaceParams("B", 0.5, 3.0, 2.0)}


def set_batch_bytes(monkeypatch, budget):
    """Patch the one batch budget, which ``grid._batches`` alone reads."""
    monkeypatch.setattr(grid_module, "_PAD_BATCH_BYTES", budget)


def traced(call):
    """``tracemalloc`` bytes above those allocated before ``call``: its peak,
    which counts the returned value (allocated during the call), and what
    the call still holds once that value is dropped."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        call()
        kept, peak = tracemalloc.get_traced_memory()
        return peak - base, kept - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestWorkingMemory:
    # 128^2 with the default slab grid (225 times), so one stack is 30 MB and
    # the batch temporaries, a few MB, are a small share of it. At amplitude
    # 1e-3 the march certifies every slab.
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
        return traced(call)[0] / stack

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

    # The norm layer cuts its own batches, so neither path builds |c|^2 or the
    # block fields of the whole stack.
    @pytest.mark.parametrize("space", ["B(1.5,2,2)", "F(1.1,2,4)"])
    def test_stack_norms_work_per_batch(self, solved, space):
        _, traj = solved
        assert self.stacks_above_kept(
            lambda: a_norms_of_spectra(traj.spectra, self.GRID, NORM_SPACES[space])) <= 0.25

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


class TestKernelWorkspace:
    # The contraction experiment's grid and top slab grid: 32^2, 129 slab
    # times, several kernel batches per sweep.
    CONFIG = default_config("contraction")
    GRID = CONFIG.grid

    def stacks(self, count, seed):
        rng = np.random.default_rng(seed)
        return real_spectra(rng.standard_normal((count,) + self.GRID.shape), self.GRID)

    def test_warm_sweep_peaks_within_the_batch_budget(self):
        # Batches are sized by their whole working set and each kernel call
        # reuses its own buffers across batches, so a sweep holds one
        # batch's temporaries.
        times = slab_times(self.CONFIG.solver)
        assert len(times) == 129
        assert len(times) > 4 * kernel_batch(self.GRID)
        u = random_band_limited(self.GRID, 3, 1.9, 1.0)
        scale = np.linspace(0.5, 1.0, len(times) + 1).reshape(-1, 1, 1)
        stack = real_spectra(scale * u.samples, self.GRID)

        def sweep(spectra):
            solver._duhamel_spectra(spectra[0], spectra[1:], times, self.CONFIG.solver,
                                    self.CONFIG.model, self.GRID)

        sweep(stack.copy())  # warm: slab weights and kernel plan
        spectra = stack.copy()
        assert traced(lambda: sweep(spectra))[0] <= grid_module._PAD_BATCH_BYTES

    def test_interleaved_iterators_keep_their_own_batches(self):
        # A second live iterator on one grid must not write the first one's
        # buffers: each yielded batch is read after the other advanced.
        batch = kernel_batch(self.GRID)
        x, y = self.stacks(2 * batch + 3, 1), self.stacks(2 * batch + 3, 2)
        want = [solver._power_spectra(s, self.GRID, 3.0, 1.5).tobytes() for s in (x, y)]
        got = [np.empty_like(x), np.empty_like(y)]
        shapes = []
        pairs = zip(solver._power_batches(x, self.GRID, 3.0, 1.5),
                    solver._power_batches(y, self.GRID, 3.0, 1.5))
        for (a0, a1, pa), (b0, b1, pb) in pairs:
            got[0][a0:a1] = pa
            got[1][b0:b1] = pb
            shapes.append((pa.shape, pb.shape))
        assert [g.tobytes() for g in got] == want
        assert shapes == [((length,) + self.GRID.half_shape,) * 2
                          for length in (batch, batch, 3)]

    def test_threads_sharing_a_plan_keep_their_own_results(self):
        # More threads than cores on one grid, switching often: a thread that
        # wrote into another's live buffers would change its bytes.
        batch = kernel_batch(self.GRID)
        stacks = [self.stacks(2 * batch + 3, seed) for seed in range(4)]
        want = [solver._power_spectra(s, self.GRID, 3.0, 1.5).tobytes() for s in stacks]
        got = [[] for _ in stacks]

        def work(i):
            for _ in range(5):
                got[i].append(solver._power_spectra(stacks[i], self.GRID, 3.0, 1.5).tobytes())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(stacks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[w] * 5 for w in want]

    @pytest.mark.parametrize("points, count", [(128, 1), (32, 129)],
                             ids=["128sq-one-slab", "32sq-batches"])
    def test_cold_call_keeps_no_buffer(self, points, count):
        # A cold call builds its plan, and keeps no more than that: not even
        # one slab's output row outlives it, at one slab or over several
        # batches.
        grid = TorusGrid(2, points)
        rng = np.random.default_rng(points)
        spectra = real_spectra(rng.standard_normal((count,) + grid.shape), grid)
        assert count == 1 or count > 2 * kernel_batch(grid)
        solver._kernel_plan.cache_clear()
        kept = traced(lambda: solver._power_spectra(spectra, grid, 3.0, 1.5))[1]
        assert kept < 16 * math.prod(grid.half_shape)


class TestNormBatches:
    # 32^2 with five dyadic blocks: a block-path batch holds the cutoffs times
    # its spectra and its block samples, 84 kB a field, so the budget binds
    # at 24 fields and 129 fields take six batches.
    GRID = TorusGrid(2, 32)

    @pytest.mark.parametrize("space", ["F(1.1,2,4)", "B(0.5,3,2)"])
    def test_block_path_peaks_within_the_batch_budget(self, space):
        dec = build_decomposition(self.GRID)
        rng = np.random.default_rng(32)
        spectra = real_spectra(rng.standard_normal((129,) + self.GRID.shape), self.GRID)
        assert len(spectra) * 8 * dec.block_count * self.GRID.size > (
            2 * grid_module._PAD_BATCH_BYTES)
        sp = NORM_SPACES[space]
        a_norms_of_spectra(spectra[:1], self.GRID, sp)
        peak = traced(lambda: a_norms_of_spectra(spectra, self.GRID, sp))[0]
        assert peak <= grid_module._PAD_BATCH_BYTES


def relative(a, b):
    return abs(a - b) / abs(b)


class TestBatchBoundaries:
    GRID = TorusGrid(2, 16)
    # The march takes up to three passes on a slab here.
    CFG = SolverConfig(horizon=0.2, slabs=24, extra_times=(0.1, 0.05, 0.025))
    WEIGHT = TimeWeight(b=0.5 / 6.0, v=1.0, T=0.2)
    # One slab per batch, three (a ragged last batch) and every slab at once.
    BUDGETS = {"1 slab": 1, "3 slabs": 3 * slab_bytes(GRID),
               "all slabs": 1 << 40}

    def run(self, monkeypatch, budget):
        set_batch_bytes(monkeypatch, budget)
        u0 = random_band_limited(self.GRID, 7, 3.0, amplitude=0.8)
        report = picard_solve(u0, self.CFG, MODEL, self.WEIGHT, SPACE)
        traj = report.trajectory
        return {
            "passes": report.iterations,
            "defect": report.defect,
            "terminal": traj.terminal.samples.tobytes(),
            "duhamel": b"".join(f.samples.tobytes()
                                for f in duhamel_apply(u0, traj, self.CFG, MODEL).fields),
            "oracle": b"".join(f.samples.tobytes()
                               for f in etd_oracle(u0, self.CFG, MODEL).fields),
            "residual": pde_residual(traj, MODEL, self.CFG.dealias_factor),
            "weighted": [weighted_norm(traj, self.WEIGHT, sp, 6.0).value
                         for sp in (SPACE, SpaceParams("F", 1.1, 2.0, 4.0))],
            "norms": {name: a_norms_of_spectra(traj.spectra, self.GRID, sp)
                      for name, sp in NORM_SPACES.items()},
        }

    @pytest.fixture(scope="class")
    def reference(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return self.run(monkeypatch, self.BUDGETS["all slabs"])

    @pytest.mark.parametrize("budget, slabs", [("1 slab", 1), ("3 slabs", 3)])
    def test_results_do_not_depend_on_batching(self, budget, slabs, monkeypatch,
                                               reference):
        got = self.run(monkeypatch, self.BUDGETS[budget])
        assert kernel_batch(self.GRID) == slabs
        assert len(slab_times(self.CFG)) > 10 * slabs
        assert got["passes"] == reference["passes"] >= 3
        for key in ("terminal", "duhamel", "oracle"):
            assert got[key] == reference[key], key
        # The norm products of smaller batches may round differently.
        assert relative(got["defect"], reference["defect"]) <= 1e-14
        assert relative(got["residual"], reference["residual"]) <= 1e-14
        np.testing.assert_allclose(got["weighted"], reference["weighted"], rtol=1e-14,
                                   atol=0)
        # The block path transforms and sums each field on its own, whatever
        # its batch; the matrix product of the B, p = 2 path may round
        # differently over other batches.
        for name in ("F(1.1,2,4)", "B(0.5,3,2)"):
            assert got["norms"][name].tobytes() == reference["norms"][name].tobytes(), name
        np.testing.assert_allclose(got["norms"]["B(1.5,2,2)"],
                                   reference["norms"]["B(1.5,2,2)"], rtol=1e-14, atol=0)

    BLOWUP_CFG = SolverConfig(horizon=1.0, slabs=16)

    def blowup(self, monkeypatch, budget):
        """Amplitude-50 data and its blow-up error under one batch budget."""
        set_batch_bytes(monkeypatch, budget)
        u0 = random_band_limited(self.GRID, 97, max_radius=4.0, amplitude=50.0)
        with pytest.raises(BlowupSuspectedError, match=STALLED) as err:
            picard_solve(u0, self.BLOWUP_CFG, MODEL,
                         TimeWeight(b=0.25 / MODEL.r, v=1.0, T=1.0), SPACE)
        return u0, err.value

    @pytest.fixture(scope="class")
    def blowup_reference(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return self.blowup(monkeypatch, self.BUDGETS["all slabs"])

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_blowup_report_survives_the_overwrite(self, budget, monkeypatch,
                                                  blowup_reference):
        u0, err = self.blowup(monkeypatch, self.BUDGETS[budget])
        traj = err.report.trajectory
        # The slabs the march certified before it stopped, the next slab time.
        times = tuple(slab_times(self.BLOWUP_CFG))
        assert 0 < len(traj) < len(times) and traj.times == times[:len(traj)]
        assert err.time == times[len(traj)]
        samples = np.stack([f.samples for f in traj.fields])
        assert np.all(np.isfinite(samples))
        assert np.max(np.abs(samples)) > np.max(np.abs(u0.samples))
        # Every slab holds its own time, not a buffer written over later.
        assert len({f.samples.tobytes() for f in traj.fields}) == len(traj)
        # The march runs slab by slab whatever the batch budget.
        reference = blowup_reference[1].report
        assert traj.spectra.tobytes() == reference.trajectory.spectra.tobytes()
        # The norm products of smaller batches may round differently.
        assert relative(err.report.weighted_norm, reference.weighted_norm) <= 1e-14

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
        """Grid-shaped fields passed to ``numpy.fft.rfft``, the forward
        transform's first axis, during ``call``."""
        counted = []
        forward = np.fft.rfft

        def counting(x, *args, **kwargs):
            if np.shape(x)[-self.GRID.n:] == self.GRID.shape:
                counted.append(np.size(x) // self.GRID.size)
            return forward(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "rfft", counting)
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
