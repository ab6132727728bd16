"""The stacked real-spectrum solver core against per-field c2c references.

The references below are the plain route the stacked core replaces: one
field at a time on the full complex lattice, zero-padding through an
fftshift round trip, per-slab phi weights, and per-time, per-block norms.
Its transforms are scipy.fft's, where the library's are numpy.fft's.
"""

import inspect
import math

import numpy as np
import pytest
import scipy.fft

import full_lattice
from hyperheat import (BlowupSuspectedError, ModelParams, RealField, SolverConfig,
                       SpaceParams, TimeWeight, TorusGrid, build_decomposition,
                       etd_oracle, nonlinearity, phi1, phi2, picard_solve,
                       random_band_limited, slab_times, weighted_norm)
from hyperheat import grid as grid_module
from hyperheat import solver
from hyperheat.grid import l2_norms_of_spectra, real_spectra
from reference_norms import a_norm_of_coefficients
from test_solver import STALLED, march_stop


def slab_bytes(grid, dealias_factor=1.5):
    """The power kernel's bytes per slab, from its plan."""
    return solver._kernel_plan(grid, dealias_factor)[1]


def kernel_batch(grid, count=1024):
    """Slabs in the first, longest, power-kernel batch over ``count`` slabs."""
    return grid_module._batches(count, slab_bytes(grid))[0].stop


def reference_power_coefficients(c, grid, r, dealias_factor):
    """Full-lattice spectrum of |u|^{r-1} u from the full spectrum of real u."""
    N = grid.points_per_dim
    n = grid.n
    work = np.array(c)
    work[full_lattice.nyquist_mask(grid)] = 0.0
    M = int(math.ceil(N * dealias_factor))
    M += M % 2
    off = (M - N) // 2
    inner = tuple(slice(off, off + N) for _ in range(n))
    if M > N:
        padded = np.zeros((M,) * n, dtype=np.complex128)
        padded[inner] = np.fft.fftshift(work)
        work = np.fft.ifftshift(padded)
    scale = (M / N) ** (n / 2.0)
    fine = scipy.fft.ifftn(work * scale, norm="ortho").real
    cw = scipy.fft.fftn(np.abs(fine) ** (r - 1.0) * fine, norm="ortho") / scale
    if M > N:
        cw = np.fft.ifftshift(np.fft.fftshift(cw)[inner])
    cw[full_lattice.nyquist_mask(grid)] = 0.0
    return cw


class ReferenceLoop:
    """Picard's iteration for a solve, one full spectrum at a time."""

    def __init__(self, u0, cfg, m, w, sp):
        self.grid = u0.grid
        self.cfg, self.w, self.sp = cfg, w, sp
        self.r = m.r
        self.times = slab_times(cfg)
        self.dec = build_decomposition(self.grid)
        self.lam = full_lattice.dissipation_symbol(self.grid, m)
        self.vexp = 2.0 * m.r * w.v
        self.u0_hat = scipy.fft.fftn(u0.samples, norm="ortho")

    def power(self, c):
        return reference_power_coefficients(c, self.grid, self.r, self.cfg.dealias_factor)

    def weighted(self, spectra):
        norms = np.array([a_norm_of_coefficients(c, self.grid, self.sp, self.dec)
                          for c in spectra])
        integrand = self.times ** (self.w.b * self.vexp) * norms ** self.vexp
        return np.trapezoid(integrand * self.times, np.log(self.times)) ** (1.0 / self.vexp)

    def apply(self, current):
        """The operator at every slab end: W_t u0 plus the slab integrals of
        the forcing, linear in tau between slab ends."""
        forcing = [self.power(self.u0_hat)] + [self.power(c) for c in current]
        D = np.zeros_like(self.u0_hat)
        new = []
        prev_t = 0.0
        for i, t in enumerate(self.times, start=1):
            z = -(t - prev_t) * self.lam
            slab = (t - prev_t) * phi1(z) * forcing[i - 1]
            slab = slab + (t - prev_t) * phi2(z) * (forcing[i] - forcing[i - 1])
            D = np.exp(z) * D + slab
            new.append(np.exp(-t * self.lam) * self.u0_hat + D)
            prev_t = t
        return new

    def defect(self, traj):
        """Weighted distance from ``traj`` to its image, relative to ``traj``."""
        current = spectra_of(traj)
        new = self.apply(current)
        return self.weighted([a - b for a, b in zip(new, current)]) / self.weighted(current)

    def fixed_point(self):
        """Picard's iteration of the operator over the whole horizon, from
        W_t u0, until a sweep's distance reaches roundoff or stops shrinking.
        Returns the last image and the distances, one per sweep, each
        relative to the iterate the sweep read."""
        current = [np.exp(-t * self.lam) * self.u0_hat for t in self.times]
        distances = []
        while True:
            new = self.apply(current)
            distances.append(self.weighted([a - b for a, b in zip(new, current)])
                             / self.weighted(current))
            current = new
            if distances[-1] <= 1e-14 or len(distances) > 1 and distances[-1] >= distances[-2]:
                return current, distances


def spectra_of(traj):
    """Full-lattice spectra of a trajectory's fields."""
    return [scipy.fft.fftn(f.samples, norm="ortho") for f in traj.fields]


def memory_owner(array):
    """The array that owns the memory ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def kernel_inputs(grid, count, seed):
    """White-noise real fields: every mode, Nyquist planes included, is live."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count,) + grid.shape)


GRIDS = {1: TorusGrid(1, 64), 2: TorusGrid(2, 32), 3: TorusGrid(3, 16)}


class TestPowerKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [2.0, 2.5, 3.0])
    # 1.25 gives M = 80, 40 and 20 points, not multiples of N.
    @pytest.mark.parametrize("dealias_factor", [1.0, 1.25, 1.5, 2.0])
    def test_matches_per_field_c2c_reference(self, n, r, dealias_factor):
        grid = GRIDS[n]
        samples = kernel_inputs(grid, 5, (n, int(10 * r)))
        got = solver._power_spectra(real_spectra(samples, grid), grid, r, dealias_factor)
        half = grid.points_per_dim // 2 + 1
        for field, out in zip(samples, got):
            want = reference_power_coefficients(
                scipy.fft.fftn(field, norm="ortho"), grid, r, dealias_factor)[..., :half]
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_do_not_depend_on_batching(self, n, monkeypatch):
        grid = GRIDS[n]
        spectra = real_spectra(kernel_inputs(grid, 7, n), grid)
        results = []
        # One slab per batch, three per batch (a ragged last batch), all in one.
        for budget, lengths in ((1, [1] * 7), (3 * slab_bytes(grid), [3, 3, 1]),
                                (1 << 40, [7])):
            monkeypatch.setattr(grid_module, "_PAD_BATCH_BYTES", budget)
            assert kernel_batch(grid, len(spectra)) == lengths[0]
            results.append(solver._power_spectra(spectra, grid, 2.5, 1.5).tobytes())
            shapes = [power.shape for _, _, power in
                      solver._power_batches(spectra, grid, 2.5, 1.5)]
            assert shapes == [(length,) + grid.half_shape for length in lengths]
        assert results[0] == results[1] == results[2]

    def test_public_nonlinearity_uses_the_kernel(self):
        grid = GRIDS[2]
        u = random_band_limited(grid, 5, max_radius=6.0)
        want = scipy.fft.ifftn(reference_power_coefficients(
            scipy.fft.fftn(u.samples, norm="ortho"), grid, 3.0, 1.5), norm="ortho").real
        got = nonlinearity(u, 3.0).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_single_field_calls_reuse_one_plan(self):
        solver._kernel_plan.cache_clear()
        grid = GRIDS[2]
        m = ModelParams(alpha=1, r=3.0, n=2)
        u0 = random_band_limited(grid, 5, max_radius=6.0)
        plans = {}
        for dealias_factor in (1.5, 2.0):
            # 100 steps, each evaluating the power of one field twice.
            cfg = SolverConfig(horizon=0.1, dealias_factor=dealias_factor,
                               times=tuple(np.linspace(0.0, 0.1, 101)[1:]))
            for _ in range(2):
                etd_oracle(u0, cfg, m)
                plan = solver._kernel_plan(grid, dealias_factor)
                assert plans.setdefault(dealias_factor, plan) is plan
        # One plan built per dealias factor, over 800 one-field evaluations.
        assert solver._kernel_plan.cache_info().misses == 2
        assert [M for M, _ in plans.values()] == [48, 64]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shared_buffers_keep_single_fields_bit_identical(self, n):
        # Every batch reuses its call's buffers; the entries outside the
        # index blocks, Nyquist planes included, must stay zero.
        grid = GRIDS[n]
        spectra = real_spectra(kernel_inputs(grid, 7, n), grid)
        solver._kernel_plan.cache_clear()
        first = solver._power_spectra(spectra[:1], grid, 3.0, 1.5)
        whole = solver._power_spectra(spectra[::-1], grid, 3.0, 1.5)[::-1]
        single = [solver._power_spectra(spectra[i:i + 1], grid, 3.0, 1.5)
                  for i in range(len(spectra))]
        assert first.tobytes() == single[0].tobytes()
        assert np.concatenate(single).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_field_map_matches_a_sweep_batch(self, n):
        # The march and the oracle evaluate one field at a time through a
        # one-field map; a sweep evaluates the same field inside a batch.
        grid = GRIDS[n]
        spectra = real_spectra(kernel_inputs(grid, 2 * kernel_batch(grid), n), grid)
        _, _, batch = next(solver._power_batches(spectra, grid, 3.0, 1.5))
        assert len(batch) > 1
        power = solver._power_map(grid, 3.0, 1.5, 1)
        for i in (0, len(batch) - 1):
            assert power(spectra[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_do_not_depend_on_fft_workers(self, n, monkeypatch):
        # HYPERHEAT_THREADS, which only ``fft_workers`` parses for the
        # benchmark, leaves the map alone: no transform takes a worker count.
        grid = GRIDS[n]
        spectra = real_spectra(kernel_inputs(grid, 7, n), grid)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HYPERHEAT_THREADS", threads)
            results.append(solver._power_spectra(spectra, grid, 2.5, 1.5).tobytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("grid", [TorusGrid(1, 512), TorusGrid(1, 64), TorusGrid(2, 32),
                                      TorusGrid(2, 64), TorusGrid(3, 16)],
                             ids=["1d512", "1d64", "2d32", "2d64", "3d16"])
    def test_batch_working_set_fits_the_budget(self, grid, monkeypatch):
        # The per-slab count covers at least the kernel's own arrays, read
        # off a sweep: every array its per-axis transforms read or return
        # (the embedding lattices and the transforms' outputs), each counted
        # once however many views of it the transforms saw, a magnitude row
        # as large as the real field, and its output rows.
        batch = kernel_batch(grid)
        spectra = real_spectra(kernel_inputs(grid, 2 * batch + 1, grid.n), grid)
        seen = []
        for name in ("ifft", "irfft", "rfft", "fft"):
            def recording(x, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
                result = _transform(x, *args, **kwargs)
                seen.extend([(_name, "reads", memory_owner(x)),
                             (_name, "returns", memory_owner(result))])
                return result
            monkeypatch.setattr(np.fft, name, recording)
        lengths = []
        for _, _, power in solver._power_batches(spectra, grid, 3.0, 1.5):
            if not lengths:
                rows = {id(array): array.nbytes // len(array) for _, _, array in seen}
                (field,) = [array for name, role, array in seen
                            if (name, role) == ("irfft", "returns")]
                kernel = sum(rows.values()) + field[0].nbytes + power[0].nbytes
            lengths.append(len(power))
        assert lengths == [batch, batch, 1] and batch > 1
        per_slab = slab_bytes(grid)
        assert kernel <= per_slab
        assert batch * per_slab <= grid_module._PAD_BATCH_BYTES

    @pytest.mark.parametrize("points", [128, 256])
    def test_large_grids_take_one_slab_per_batch(self, points):
        # Two 128^2 slabs exceed the budget; one 256^2 slab alone does.
        grid = TorusGrid(2, points)
        assert 2 * slab_bytes(grid) > grid_module._PAD_BATCH_BYTES
        assert kernel_batch(grid) == 1

    def test_rejects_padding_below_one(self):
        grid = GRIDS[1]
        with pytest.raises(ValueError, match="dealias_factor"):
            nonlinearity(RealField(grid, kernel_inputs(grid, 1, 0)[0]), 3.0, 0.5)


def sixteen_case():
    """A 16^2 amplitude-1 solve whose march takes up to four passes on a slab."""
    grid = TorusGrid(2, 16)
    m = ModelParams(alpha=1, r=3.0, n=2)
    cfg = SolverConfig(horizon=0.25, slabs=16)
    w = TimeWeight(b=0.5 / (2 * m.r), v=1.0, T=0.25)
    sp = SpaceParams("B", 1.5, 2.0, 2.0)
    u0 = random_band_limited(grid, (7, 50), 1.9, amplitude=1.0)
    return u0, cfg, m, w, sp


class TestStackedPicard:
    """The march against the reference loop's own fixed point, and the
    Duhamel pass of ``duhamel_apply`` against the reference operator."""

    def test_distances_match_reference_loop(self):
        # The reference sweeps from W_t u0 14 times, each distance 0.05 to 0.2
        # times the one before, to 5.7e-16. A trajectory whose defect is d
        # lies within d / (1 - q) of the fixed point of an operator that
        # contracts by q; the march's lies 6.66e-11 away, with d = 6.41e-11.
        case = sixteen_case()
        report = picard_solve(*case)
        loop = ReferenceLoop(*case)
        fixed, distances = loop.fixed_point()
        assert len(distances) >= 10 and distances[-1] <= 1e-14
        q = max(b / a for a, b in zip(distances, distances[1:]))
        assert q < 0.5
        gaps = [a - b for a, b in zip(spectra_of(report.trajectory), fixed)]
        gap = loop.weighted(gaps) / loop.weighted(fixed)
        assert gap <= (report.defect + distances[-1]) / (1.0 - q)
        assert report.converged and report.iterations > 1

    def test_dropping_the_carried_integral_is_caught(self, monkeypatch):
        # A mutant of the Duhamel pass, compiled from its source: each batch
        # after the first starts from zero instead of the solution at the
        # last slab end of the batch before; the first keeps its carry, u0.
        source = inspect.getsource(solver._duhamel_spectra)
        carried = "carry = image[-1]"
        assert source.count(carried) == 1
        mutant = {}
        exec(source.replace(carried, "carry = np.zeros_like(image[-1])"), vars(solver),
             mutant)

        case = sixteen_case()
        u0, cfg, m = case[:3]
        traj = picard_solve(*case).trajectory
        want = scipy.fft.ifftn(ReferenceLoop(*case).apply(spectra_of(traj))[-1],
                               norm="ortho").real
        scale = np.linalg.norm(want)

        def gap():
            got = solver.duhamel_apply(u0, traj, cfg, m).terminal.samples
            return np.linalg.norm(got - want) / scale

        assert gap() <= 1e-13
        monkeypatch.setattr(solver, "_duhamel_spectra", mutant["_duhamel_spectra"])
        # Three slabs per batch.
        monkeypatch.setattr(grid_module, "_PAD_BATCH_BYTES", 3 * slab_bytes(TorusGrid(2, 16)))
        assert gap() > 1e-12

    def test_bytes_do_not_depend_on_fft_workers(self, monkeypatch):
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HYPERHEAT_THREADS", threads)
            report = picard_solve(*sixteen_case())
            results.append((report.defect, report.trajectory.spectra.tobytes()))
        assert results[0] == results[1]


def identity_image(monkeypatch):
    """Make the march see the operator's image of each point it evaluates as
    that point, T g = g: the correction it norms is zero."""
    norms = solver.a_norms_of_spectra

    def no_correction(stack, grid, sp):
        out = norms(stack, grid, sp)
        # The march norms a point and its correction, in that order.
        out[1:] = 0.0
        return out

    monkeypatch.setattr(solver, "a_norms_of_spectra", no_correction)


class TestReferenceFixedPointDefect:
    """An operator that returns its input "converges" at once on any start:
    the march keeps each slab's predicted point after one pass and reports
    the defect 0. One application of the reference operator to the solver's
    fixed point does not, as long as that start is not itself the fixed
    point; here it lies 6.5e-7 away."""

    def test_solution_is_a_fixed_point_of_the_reference_operator(self):
        case = sixteen_case()
        report = picard_solve(*case)
        assert ReferenceLoop(*case).defect(report.trajectory) <= 2.0 * case[1].picard_tol

    def test_identity_operator_is_caught(self, monkeypatch):
        identity_image(monkeypatch)
        case = sixteen_case()
        report = picard_solve(*case)
        assert report.converged and report.iterations == 1 and report.defect == 0.0
        assert ReferenceLoop(*case).defect(report.trajectory) > 2.0 * case[1].picard_tol


class TestFoldedLinearFlow:
    """With the forcing switched off the carried recursion is the semigroup
    alone: U_i = exp(-t_i |xi|^2) u0 at every slab end."""

    def test_zero_forcing_reproduces_the_semigroup(self, monkeypatch):
        power_map = solver._power_map
        single = []

        def zero_forcing(*args):
            power = power_map(*args)

            def zeroed(spectra):
                single.append(len(spectra) == 1)
                return np.zeros_like(power(spectra))

            return zeroed

        monkeypatch.setattr(solver, "_power_map", zero_forcing)
        grid = TorusGrid(2, 32)
        m = ModelParams(alpha=1, r=3.0, n=2)
        cfg = SolverConfig(horizon=0.25)
        w = TimeWeight(b=0.5 / (2 * m.r), v=1.0, T=0.25)
        u0 = random_band_limited(grid, (11, 50), 6.0, amplitude=1.0)
        report = picard_solve(u0, cfg, m, w, SpaceParams("B", 1.5, 2.0, 2.0))
        image = solver.duhamel_apply(u0, report.trajectory, cfg, m)
        times = slab_times(cfg)
        k = np.fft.fftfreq(32, 1.0 / 32)
        lam = (k[:, None] ** 2 + k[None, :] ** 2)[:, :17]
        want = (np.exp(-times[:, None, None] * lam)
                * np.fft.rfftn(u0.samples, norm="ortho"))
        scale = np.linalg.norm(want, axis=(1, 2))
        assert len(times) > 200
        for traj in (report.trajectory, image):
            gap = np.linalg.norm(traj.spectra - want, axis=(1, 2))
            assert np.max(gap / scale) <= 1e-13
        # The march evaluates the zeroed forcing at least once per slab end and
        # once more at tau = 0, so it is W_t u0 and its image agrees with it.
        assert sum(single) >= len(times)
        assert report.defect <= 1e-14


class TestBlowupReport:
    def test_partial_trajectory_travels_with_the_error(self):
        grid = TorusGrid(2, 16)
        m = ModelParams(alpha=1, r=3.0, n=2)
        cfg = SolverConfig(horizon=1.0, slabs=16)
        w = TimeWeight(b=0.25 / m.r, v=1.0, T=1.0)
        u0 = random_band_limited(grid, 97, max_radius=4.0, amplitude=50.0)
        sp = SpaceParams("B", 1.5, 2.0, 2.0)
        with pytest.raises(BlowupSuspectedError) as err:
            picard_solve(u0, cfg, m, w, sp)
        report = err.value.report
        # A pass on the slab at t = 0.000205353 moved its point further than
        # the pass before, just past the comparison bound 1 / (2 * 50^2) on
        # the solution's life; the slabs before are certified.
        assert not report.converged and report.iterations >= 1
        assert report.defect <= report.tolerance
        # The report holds the slabs certified before the stop, which the
        # error dates at the next slab time.
        traj = report.trajectory
        times = tuple(slab_times(cfg))
        assert 0 < len(traj) < len(times) and traj.times == times[:len(traj)]
        for text in (report.note, str(err.value)):
            assert march_stop(text, STALLED) == f"{times[len(traj)]:.6g}"
        assert all(f.grid == grid for f in traj.fields)
        assert np.all(np.isfinite(traj.spectra))
        assert march_stop(str(err.value), STALLED) == "0.000205353"
        assert float(march_stop(str(err.value), STALLED)) >= 1.0 / (
            2.0 * np.max(np.abs(u0.samples)) ** 2)
        data = l2_norms_of_spectra(real_spectra(u0.samples, grid)[None], grid)[0]
        assert np.max(l2_norms_of_spectra(traj.spectra, grid)) <= 1e3 * data
        # The marched slabs have run away from the data they started from.
        peak = max(np.max(np.abs(f.samples)) for f in traj.fields)
        assert peak > np.max(np.abs(u0.samples))
        assert report.weighted_norm == pytest.approx(
            weighted_norm(traj, w, sp, 2.0 * m.r * w.v).value, rel=1e-14)


class TestSlabWeights:
    def test_rows_per_distinct_step_equal_per_slab_weights(self):
        # The default hybrid grid repeats step sizes, both in its uniform part
        # and between its log-spaced samples.
        grid = TorusGrid(2, 16)
        m = ModelParams(alpha=1, r=3.0, n=2)
        times = tuple(slab_times(SolverConfig(horizon=0.25)).tolist())
        weights = solver._slab_weights(grid, m, times)
        lam = full_lattice.dissipation_symbol(grid, m)[..., :9]
        dts = np.diff(times, prepend=0.0)
        assert len(weights.decay) == len(set(dts.tolist())) < len(times) / 2
        for i, dt in enumerate(dts):
            z = -dt * lam
            row = weights.step[i]
            assert weights.decay[row].tobytes() == np.exp(z).tobytes()
            assert weights.phi1[row].tobytes() == (dt * phi1(z)).tobytes()
            assert weights.phi2[row].tobytes() == (dt * phi2(z)).tobytes()
