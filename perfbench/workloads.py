"""The benchmark's workloads: set-up, one round, and the checks on a round.

A round is the work one user run does: set-up, the timed part, and the
reference solve (``picard_solve``, ``etd_oracle``, ``pde_residual`` and a
``duhamel_apply`` re-application with its ``weighted_norm`` defect). On
``strong-solve-n128`` the reference solve is the timed part. The two
experiment workloads make no solve of their own, so their reference solve
is the closed-form constant-data order study on the workload's grid: Picard
and the oracle at 80, 160 and 320 slabs, the residual and re-application at
160. It gives ``solve_s`` and ``oracle_s`` there and stays out of ``wall_s``.

Checks compare against closed forms, plain-numpy computations, or
properties the method must have, never against stored outputs.
"""

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import hyperheat as hh

HORIZON = 0.25
PICARD_TOL = 1e-10
SPACE = hh.SpaceParams("B", 1.5, 2.0, 2.0, s0=1.5)
WEIGHT_A = 0.5
WEIGHT_V = 1.0
BAND = 1.9
# Closed-form constant data: u(t) = c (1 - 2 c^2 t)^(-1/2) for r = 3.
CONSTANT = 1.0
ORDER_SLABS = (80, 160, 320)
REFERENCE_SLABS = 160
ORDER_GRID = (2, 8)


def model(n):
    return hh.ModelParams(alpha=1, r=3.0, n=n)


def time_weight(m):
    return hh.TimeWeight(b=WEIGHT_A / (2.0 * m.r), v=WEIGHT_V, T=HORIZON)


def uniform_slabs(count):
    return hh.SolverConfig(horizon=HORIZON, picard_tol=PICARD_TOL,
                           times=tuple(np.linspace(0.0, HORIZON, count + 1)[1:]))


def closed_form(t):
    return CONSTANT / math.sqrt(1.0 - 2.0 * CONSTANT ** 2 * t)


@dataclass
class Problem:
    """Inputs of one solve."""

    u0: object
    cfg: object
    m: object
    w: object
    dec: object
    closed_form: bool

    @property
    def vexp(self):
        return 2.0 * self.m.r * self.w.v


def constant_problem(grid, slabs):
    m = model(grid.n)
    return Problem(hh.constant_field(grid, CONSTANT), uniform_slabs(slabs), m,
                   time_weight(m), hh.build_decomposition(grid), True)


@dataclass
class Solve:
    """Outputs and timings of one reference solve."""

    report: object
    oracle: object
    residual: float
    defect: float
    seconds: dict


def solve(p, full=True):
    """The reference solve; each step is timed on its own. ``full=False``
    stops after ``picard_solve`` and ``etd_oracle``."""
    t0 = perf_counter()
    report = hh.picard_solve(p.u0, p.cfg, p.m, p.w, SPACE)
    t1 = perf_counter()
    oracle = hh.etd_oracle(p.u0, p.cfg, p.m)
    t2 = perf_counter()
    seconds = {"solve_s": t1 - t0, "oracle_s": t2 - t1}
    if not full:
        return Solve(report, oracle, None, None, seconds)
    traj = report.trajectory
    residual = hh.pde_residual(traj, p.m, p.cfg.dealias_factor)
    t3 = perf_counter()
    again = hh.duhamel_apply(p.u0, traj, p.cfg, p.m)
    diff = hh.Trajectory(times=traj.times,
                         fields=tuple(a - b for a, b in zip(again.fields, traj.fields)))
    scale = hh.weighted_norm(traj, p.w, SPACE, p.vexp, p.dec).value
    defect = hh.weighted_norm(diff, p.w, SPACE, p.vexp, p.dec).value / scale
    t4 = perf_counter()
    return Solve(report, oracle, residual, defect,
                 dict(seconds, residual_s=t3 - t2, reapply_s=t4 - t3))


def order_study(grid):
    """Closed-form constant-data solves at each of ORDER_SLABS on ``grid``;
    the REFERENCE_SLABS one is a full reference solve. Returns
    ({slabs: Solve}, summed seconds)."""
    solves = {slabs: solve(constant_problem(grid, slabs), slabs == REFERENCE_SLABS)
              for slabs in ORDER_SLABS}
    seconds = {}
    for s in solves.values():
        for key, value in s.seconds.items():
            seconds[key] = seconds.get(key, 0.0) + value
    return solves, seconds


@dataclass
class Round:
    """What one round produced: timings, solves by slab count, output bytes."""

    seconds: dict
    solves: dict
    files: dict


class Checks:
    """Named pass/fail results; each one is an operation of the round."""

    def __init__(self):
        self.items = []

    def add(self, name, value, comparison, bound):
        value = float(value)
        ok = {"<=": value <= bound, ">=": value >= bound,
              "==": value == bound}[comparison] and not math.isnan(value)
        self.items.append({"name": name, "value": value, "comparison": comparison,
                           "bound": float(bound), "passed": bool(ok)})

    def within(self, name, value, lo, hi):
        self.add(f"{name}_low", value, ">=", lo)
        self.add(f"{name}_high", value, "<=", hi)


def heat_flow(samples, length, t):
    """exp(t Laplace) applied with plain numpy.fft (alpha = 1)."""
    n = samples.ndim
    N = samples.shape[0]
    k = np.fft.fftfreq(N, d=1.0 / N) * (2.0 * math.pi / length)
    xi2 = sum((k.reshape((-1,) + (1,) * (n - 1 - a)) ** 2) for a in range(n))
    return np.fft.ifftn(np.exp(-t * xi2) * np.fft.fftn(samples)).real


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_solve(checks, prefix, p, s):
    """Checks of one reference solve against independent computations."""
    terminal = s.report.trajectory.terminal.samples
    checks.add(f"{prefix}picard_converged", s.report.converged, "==", 1.0)
    linear = heat_flow(p.u0.samples, p.u0.grid.length, HORIZON)
    share = rel_l2(linear, terminal)
    checks.add(f"{prefix}nonlinear_share", share, ">=", 1e-2)
    checks.add(f"{prefix}picard_oracle_gap", rel_l2(s.oracle.terminal.samples, terminal),
               "<=", 1e-4 * share)
    checks.add(f"{prefix}pde_residual", s.residual, "<=", 1e-4)
    checks.add(f"{prefix}fixed_point_defect", s.defect, "<=", 2.0 * PICARD_TOL)
    if p.closed_form:
        exact = np.full_like(terminal, closed_form(HORIZON))
        checks.add(f"{prefix}closed_form_error", rel_l2(terminal, exact), "<=", 1e-5)


def check_order(checks, solves):
    """Observed order of Picard and the ETD oracle against the closed form."""
    exact = closed_form(HORIZON)
    for key in ("picard", "oracle"):
        errors = []
        for slabs in ORDER_SLABS:
            s = solves[slabs]
            samples = (s.report.trajectory if key == "picard" else s.oracle).terminal.samples
            errors.append(rel_l2(samples, np.full_like(samples, exact)))
        for coarse, fine, slabs in zip(errors, errors[1:], ORDER_SLABS):
            checks.within(f"order_{key}_{slabs}", math.log2(coarse / fine), 1.8, 2.2)


def fingerprint(files, arrays):
    """Bytes that must repeat exactly between rounds."""
    out = dict(files)
    for name, a in arrays.items():
        out[name] = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest().encode()
    return out


def read_outputs(paths):
    return {p.name: p.read_bytes() for p in paths}


def csv_rows(data):
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    return header, [[float(x) for x in row] for row in reader]


class StrongSolve:
    """2-D 128^2 torus, r = 3, amplitude-1 band-limited data, default slab grid."""

    name = "strong-solve-n128"
    # picard_solve, etd_oracle, pde_residual, the re-application, emit_results.
    operations = 5

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        m = model(2)
        grid = hh.TorusGrid(n=2, points_per_dim=128)
        cfg = hh.SolverConfig(horizon=HORIZON, picard_tol=PICARD_TOL)
        dec = hh.build_decomposition(grid)
        u0 = hh.random_band_limited(grid, (self.seed, 50), BAND, amplitude=1.0)
        return Problem(u0, cfg, m, time_weight(m), dec, False)

    def grid(self, state):
        """The grid the workload and its reference solve run on."""
        return state.u0.grid

    def stored_slab_times(self, state):
        """Slab times of the longest trajectory a round stores."""
        return len(hh.slab_times(state.cfg))

    def run(self, state, out_dir):
        t0 = perf_counter()
        s = solve(state)
        record = hh.ResultRecord(experiment="solve", config_digest=self.name, seed=self.seed)
        traj = s.report.trajectory
        record.add_metric("picard_iterations", s.report.iterations)
        record.add_metric("pde_residual", s.residual)
        record.add_metric("fixed_point_defect", s.defect)
        record.add_series("trajectory_l2", ("t", "picard_l2", "oracle_l2"),
                          [(t, np.linalg.norm(a.samples), np.linalg.norm(b.samples))
                           for t, a, b in zip(traj.times, traj.fields, s.oracle.fields)])
        paths = hh.emit_results(record, out_dir)
        seconds = dict(s.seconds, wall_s=perf_counter() - t0)
        files = fingerprint(read_outputs(paths), {
            "picard_terminal": traj.terminal.samples,
            "oracle_terminal": s.oracle.terminal.samples})
        return Round(seconds, {self.name: s}, files)

    def check(self, checks, state, rnd):
        check_solve(checks, "", state, rnd.solves[self.name])
        solves, _ = order_study(hh.TorusGrid(n=ORDER_GRID[0], points_per_dim=ORDER_GRID[1]))
        check_order(checks, solves)


class ExperimentWorkload:
    """One experiment at its default config, through run_experiment and
    emit_results, plus the closed-form order study on its grid."""

    experiment = None
    # run_experiment, emit_results; Picard and the oracle at each order-study
    # level; the residual and the re-application at the reference level.
    operations = 2 + 2 * len(ORDER_SLABS) + 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        cfg = replace(hh.default_config(self.experiment), seed=self.seed)
        hh.build_decomposition(cfg.grid)
        return cfg

    def grid(self, cfg):
        return cfg.grid

    def stored_slab_times(self, cfg):
        return max(ORDER_SLABS)

    def run(self, cfg, out_dir):
        t0 = perf_counter()
        record = hh.run_experiment(cfg)
        paths = hh.emit_results(record, out_dir)
        wall = perf_counter() - t0
        solves, seconds = order_study(cfg.grid)
        files = fingerprint(read_outputs(paths), {
            f"reference_{key}_{slabs}": traj.terminal.samples
            for slabs, s in solves.items()
            for key, traj in (("picard", s.report.trajectory), ("oracle", s.oracle))})
        return Round(dict(seconds, wall_s=wall), solves, files)

    def check(self, checks, cfg, rnd):
        reference = constant_problem(cfg.grid, REFERENCE_SLABS)
        check_solve(checks, "reference_", reference, rnd.solves[REFERENCE_SLABS])
        check_order(checks, rnd.solves)
        own = json.loads(rnd.files["record.json"])
        for c in own["checks"]:
            checks.add(f"own_{c['name']}", c["passed"], "==", 1.0)
        self.check_outputs(checks, cfg, rnd.files, own)

    def check_outputs(self, checks, cfg, files, own):
        raise NotImplementedError


class Contraction(ExperimentWorkload):
    """2-D 32^2, six horizons, four pairs: many small transforms and fields."""

    name = "contraction-n32"
    experiment = "contraction"

    def stored_slab_times(self, cfg):
        top = replace(cfg.solver, horizon=cfg.get_float("t_top"))
        return max(len(hh.slab_times(top)), max(ORDER_SLABS))

    def check_outputs(self, checks, cfg, files, own):
        header, rows = csv_rows(files["contraction_ratios.csv"])
        col = header.index("max_ratio")
        by_horizon = [row[col] for row in sorted(rows, key=lambda r: -r[0])]
        worst = max(b / a for a, b in zip(by_horizon, by_horizon[1:]))
        checks.add("ratios_decrease_as_horizon_halves", worst, "<=", 1.0 - 1e-12)
        checks.add("smallest_ratio_below_one", min(by_horizon), "<=", 1.0 - 1e-12)


class Smoothing(ExperimentWorkload):
    """1-D N = 512: semigroup and dyadic norms only."""

    name = "smoothing-1d512"
    experiment = "smoothing"

    def check_outputs(self, checks, cfg, files, own):
        pattern = re.compile(r"smoothing_alpha([0-9.]+)_d([0-9.]+)\.csv")
        fitted = [pattern.fullmatch(fname) for fname in sorted(files)]
        fitted = [match for match in fitted if match]
        checks.add("slope_series", len(fitted), "==", len(cfg.get_pairs("pairs")))
        for match in fitted:
            fname = match.group(0)
            alpha, d = (float(g) for g in match.groups())
            header, rows = csv_rows(files[fname])
            t = np.array([r[header.index("t")] for r in rows])
            norm = np.array([r[header.index("norm")] for r in rows])
            slope = np.polyfit(np.log(t), np.log(norm), 1)[0]
            checks.add(f"slope_alpha{alpha:g}_d{d:g}", abs(slope + d / (2.0 * alpha)),
                       "<=", 0.05)
        checks.add("d0_ratio", own["metrics"]["d0_ratio_bound"], "<=", 1.0)


WORKLOADS = {cls.name: cls for cls in (StrongSolve, Contraction, Smoothing)}
