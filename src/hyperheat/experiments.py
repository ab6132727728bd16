"""Experiment drivers binding the library into reproducible verification runs.

Each ``run_*`` function consumes an ExperimentConfig and returns a
ResultRecord whose checks carry the experiment's declared tolerances;
``run_experiment`` dispatches on the experiment id. Outputs are
deterministic for a fixed config (the seed is part of the config).
"""

import math
from dataclasses import replace
from itertools import product

import numpy as np

from .config import config_digest
from .dyadic import a_norm, a_norms_of_spectra
from .errors import ConfigError, ParameterError
from .fields import power_spectrum_field, radial_power_field, random_band_limited
from .grid import RealField, TorusGrid, l2_norms_of_spectra, real_spectra
from .records import ResultRecord
from .semigroup import ModelParams, _orbit_multipliers, smoothing_rate
from .solver import (_duhamel_spectra, aliasing_probe, duhamel_apply, etd_oracle,
                     pde_residual, picard_solve, slab_times, strong_convergence_check)
from .timenorms import (TimeWeight, Trajectory, admissibility, equivalence_check,
                        log_time_grid, time_weighted_norm, weighted_norm)


def _new_record(cfg):
    return ResultRecord(experiment=cfg.experiment, config_digest=config_digest(cfg),
                        seed=cfg.seed)


def _model_with(alpha, r, n):
    alpha = int(alpha) if float(alpha).is_integer() else float(alpha)
    return ModelParams(alpha=alpha, r=float(r), n=int(n))


def _rel_l2(got, want):
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    return diff / scale if scale > 0 else diff


def _spearman_against_index(values):
    """Spearman correlation of the values against their index order (1 = strictly
    increasing, no ties)."""
    v = np.asarray(values, dtype=np.float64)
    count = v.size
    ranks = np.argsort(np.argsort(v))
    d = ranks - np.arange(count)
    return 1.0 - 6.0 * float(np.sum(d * d)) / (count * (count * count - 1))


def run_smoothing(cfg):
    """Fit the semigroup's norm-inflation rate and bound the weighted ratios.

    Saturating spectra (coefficients ~ |xi|^-(s + n/p)) pin the fitted
    log-log slope to -d/(2 alpha) per (alpha, d) pair; arbitrary random
    spectra must keep the weighted ratio t^(d/2 alpha) * norm(t) / norm(0)
    under a constant fitted on a calibration subset of the sample times.
    """
    rec = _new_record(cfg)
    grid = cfg.grid
    sp = cfg.space
    pairs = cfg.get_pairs("pairs")
    samples = cfg.get_int("window_samples")
    slope_tol = cfg.get_float("slope_tol")
    slack = cfg.get_float("envelope_slack")
    n_fields = cfg.get_int("envelope_fields")
    if not pairs:
        raise ConfigError("smoothing needs at least one alpha:d pair")
    n_over_p = 0.0 if math.isinf(sp.p) else grid.n / sp.p
    saturating = radial_power_field(grid, sp.s + n_over_p)
    rng = np.random.default_rng((cfg.seed, 2))
    decays = rng.uniform(0.0, 1.5, size=n_fields)
    envelopes = [power_spectrum_field(grid, float(dk), seed=(cfg.seed, 10 + i))
                 for i, dk in enumerate(decays)]
    # Slope-fit window keeps the dominant decaying frequency inside the band:
    # t ranges over (d/2 alpha) / xi^(2 alpha) for xi in [xi_lo, xi_hi].
    xi_hi = grid.max_frequency / 2.5
    xi_lo = 3.0
    t_all = log_time_grid(1e-6, 1.0, per_decade=20)
    worst_stability = 0.0
    for alpha, d in pairs:
        m = _model_with(alpha, cfg.model.r, cfg.model.n)
        rate = d / (2.0 * m.alpha)
        t_lo = rate / xi_hi ** (2.0 * m.alpha)
        t_hi = min(1.0, rate / xi_lo ** (2.0 * m.alpha))
        if not t_lo < t_hi:
            raise ParameterError(
                f"grid too coarse to resolve the decay window for alpha={alpha:g}, d={d:g}")
        times = np.geomspace(t_lo, t_hi, samples)
        report = smoothing_rate(saturating, sp, d, times, m)
        tag = f"alpha{alpha:g}_d{d:g}"
        rec.add_check(f"slope_error_{tag}",
                      f"fitted log-log decay of the smoothness-gain norm against the "
                      f"target -d/(2 alpha) at alpha={alpha:g}, d={d:g}",
                      abs(report.slope + rate), "<=", slope_tol)
        rec.add_metric(f"slope_{tag}", report.slope)
        rec.add_series(f"smoothing_{tag}", ("t", "norm", "weighted_ratio"),
                       list(zip(report.times, report.norms, report.weighted_ratios)))
        pair_constant = 0.0
        for field in envelopes:
            rep = smoothing_rate(field, sp, d, t_all, m)
            ratios = np.asarray(rep.weighted_ratios)
            fitted = float(np.max(ratios[::2]))
            worst_stability = max(worst_stability, float(np.max(ratios)) / fitted)
            pair_constant = max(pair_constant, float(np.max(ratios)))
        rec.add_metric(f"ratio_constant_{tag}", pair_constant)
    rec.add_check("ratio_constant_stability",
                  "largest weighted ratio over dense sample times, relative to the "
                  "constant fitted on every second sample",
                  worst_stability, "<=", slack)
    m_flat = _model_with(pairs[0][0], cfg.model.r, cfg.model.n)
    flat = smoothing_rate(saturating, sp, 0.0, np.geomspace(1e-6, 1e-4, samples), m_flat)
    rec.add_check("d0_ratio_bound",
                  "largest norm ratio at zero smoothness gain (the multiplier never "
                  "exceeds one, so the norm cannot grow)",
                  max(flat.weighted_ratios), "<=", 1.0 + 1e-12)
    rec.add_metric("slope_d0", flat.slope)
    if cfg.get_str("report_beyond_unit_time") == "yes":
        alpha, d = pairs[0]
        m = _model_with(alpha, cfg.model.r, cfg.model.n)
        t = np.geomspace(1.0, 10.0, 25)
        C = real_spectra(saturating.samples, grid)
        base_norm = a_norms_of_spectra(C[None], grid, sp)[0]
        norms = a_norms_of_spectra(_orbit_multipliers(grid, m, t) * C, grid,
                                   sp.with_smoothness(sp.s + d))
        rec.add_series("beyond_unit_time", ("t", "norm", "weighted_ratio"),
                       zip(t, norms, t ** (d / (2.0 * m.alpha)) * norms / base_norm))
        rec.add_note("ratios beyond unit time are reported, not asserted; the decay "
                     "bound is only claimed on t <= 1")
    rec.add_note(f"slope windows anchored at frequencies [{xi_lo:g}, {xi_hi:g}] so the "
                 "dominant decaying mode stays inside the lattice band")
    return rec


def run_scaling(cfg):
    """Verify the rescaling symmetry of computed solutions.

    If u solves the equation, so does lam^(2 alpha/(r-1)) u(lam x, lam^(2 alpha) t)
    on the domain shrunk by lam with the horizon divided by lam^(2 alpha).
    For integer lam the coarse grid's sample points sit inside the fine
    grid, so both solves are compared pointwise without interpolation.
    """
    rec = _new_record(cfg)
    lam = cfg.get_float("rescale_factor")
    if not (lam > 1 and float(lam).is_integer()):
        raise ConfigError(f"rescale_factor must be an integer >= 2, got {lam}")
    lam_i = int(lam)
    n = cfg.model.n
    N = cfg.grid.points_per_dim
    N2 = cfg.get_int("rescaled_points")
    if N2 * lam_i != N:
        raise ConfigError(
            f"rescaled_points * rescale_factor must equal points_per_dim "
            f"({N2} * {lam_i} != {N})")
    band = cfg.get_float("band_radius")
    amplitude = cfg.get_float("amplitude")
    tol = cfg.get_float("mismatch_tol")
    sp = cfg.space
    stride = (slice(None, None, lam_i),) * n
    for k, (alpha, r) in enumerate(cfg.get_pairs("pairs")):
        m = _model_with(alpha, r, n)
        u0 = random_band_limited(cfg.grid, (cfg.seed, 20 + k), band, amplitude)
        w = TimeWeight(b=cfg.weight_a / (2.0 * m.r), v=cfg.weight_v, T=cfg.solver.horizon)
        base = picard_solve(u0, cfg.solver, m, w, sp)
        dilation = lam ** (2.0 * m.alpha)
        factor = lam ** (2.0 * m.alpha / (m.r - 1.0))
        grid2 = TorusGrid(n=n, points_per_dim=N2, length=cfg.grid.length / lam)
        u0_2 = RealField(grid2, factor * u0.samples[stride])
        times2 = tuple(t / dilation for t in base.trajectory.times)
        cfg2 = replace(cfg.solver, horizon=cfg.solver.horizon / dilation, times=times2,
                       extra_times=())
        w2 = TimeWeight(b=w.b, v=w.v, T=cfg2.horizon)
        rescaled = picard_solve(u0_2, cfg2, m, w2, sp)
        rows = []
        worst = 0.0
        for t, f_base, f_small in zip(base.trajectory.times, base.trajectory.fields,
                                      rescaled.trajectory.fields):
            miss = _rel_l2(f_small.samples, factor * f_base.samples[stride])
            worst = max(worst, miss)
            rows.append((t, miss))
        tag = f"alpha{alpha:g}_r{r:g}"
        rec.add_check(f"mismatch_{tag}",
                      f"largest relative L2 mismatch between the rescaled solve and "
                      f"the rescaling of the base solve at alpha={alpha:g}, r={r:g}",
                      worst, "<=", tol)
        rec.add_metric(f"amplitude_factor_{tag}", factor)
        rec.add_metric(f"time_dilation_{tag}", dilation)
        rec.add_series(f"scaling_{tag}", ("t", "relative_mismatch"), rows)
    rec.add_note(f"rescale factor {lam_i}: coarse-grid samples coincide with every "
                 f"{lam_i}-th fine-grid sample, so the comparison needs no interpolation")
    return rec


def run_criticality(cfg):
    """Tabulate the scaling-critical smoothness over a parameter sweep.

    For each (n, p, alpha, r) the critical order is n/p - 2 alpha/(r-1);
    data smoothness above it classifies as supercritical, below as
    subcritical, equality as critical. The table also flags whether the
    solvable window critical < s0 <= s < r-1 can be nonempty.
    """
    rec = _new_record(cfg)
    n_list = [int(x) for x in cfg.get_floats("n_list")]
    p_list = cfg.get_floats("p_list")
    alpha_list = cfg.get_floats("alpha_list")
    r_list = cfg.get_floats("r_list")
    offset = cfg.get_float("sample_offset")
    if not offset > 0:
        raise ConfigError(f"sample_offset must be positive, got {offset}")
    rows = []
    consistent = 0
    total = 0
    for n_, p_, alpha_, r_ in product(n_list, p_list, alpha_list, r_list):
        m = _model_with(alpha_, r_, n_)
        crit = m.critical_smoothness(p_)
        window_possible = crit < m.r - 1.0
        agree = True
        for s0, expect in ((crit + offset, "supercritical"),
                           (crit, "critical"),
                           (crit - offset, "subcritical")):
            adm = admissibility(cfg.weight_a, cfg.weight_v, s0, s0, m, p_)
            agree = agree and adm.classification.startswith(expect)
        total += 1
        consistent += agree
        rows.append((n_, p_, m.alpha, m.r, crit, float(window_possible)))
    rec.add_check("pin_n2_p2_alpha1_r3",
                  "critical smoothness n/p - 2 alpha/(r-1) at n=2, p=2, alpha=1, r=3",
                  ModelParams(1, 3.0, 2).critical_smoothness(2.0), "==", 0.0)
    rec.add_check("pin_n4_p2_alpha2_r2",
                  "critical smoothness n/p - 2 alpha/(r-1) at n=4, p=2, alpha=2, r=2",
                  ModelParams(2, 2.0, 4).critical_smoothness(2.0), "==", -2.0)
    rec.add_check("classification_consistency",
                  "fraction of sweep entries classified supercritical, critical, and "
                  "subcritical at the offsets +offset, 0, -offset from the critical "
                  "order", consistent / total, "==", 1.0)
    rec.add_series("criticality_table",
                   ("n", "p", "alpha", "r", "critical_s0", "window_possible"), rows)
    return rec


def run_contraction(cfg):
    """Measure Lipschitz ratios of the solution operator as the horizon shrinks.

    Trajectory pairs are semigroup orbits of random data normalized into
    the unit ball of the weighted norm. The homogeneous part cancels in
    differences, so the ratio isolates the integral term; it must decrease
    strictly as the horizon halves and drop below one within the grid.
    Every orbit and operator image stays a stack of half-lattice spectra.
    """
    rec = _new_record(cfg)
    m = cfg.model
    sp = cfg.space
    grid = cfg.grid
    band = cfg.get_float("band_radius")
    t_top = cfg.get_float("t_top")
    halvings = cfg.get_int("halvings")
    n_pairs = cfg.get_int("sample_pairs")
    if halvings < 2:
        raise ConfigError(f"halvings must be >= 2, got {halvings}")
    if n_pairs < 1:
        raise ConfigError(f"sample_pairs must be >= 1, got {n_pairs}")
    vexp = cfg.integration_exponent()
    b = cfg.weight_a / (2.0 * m.r)
    fields = [random_band_limited(grid, (cfg.seed, 30 + i), band, 1.0)
              for i in range(2 * n_pairs)]
    data = real_spectra(np.stack([f.samples for f in fields]), grid)
    u0_raw = real_spectra(random_band_limited(grid, (cfg.seed, 29), band, 1.0).samples, grid)
    horizons = [t_top * 0.5 ** g for g in range(halvings)]
    max_ratios = []
    mean_ratios = []
    for T in horizons:
        scfg = replace(cfg.solver, horizon=T, times=())
        times = slab_times(scfg)
        orbit = _orbit_multipliers(grid, m, times)

        def weighted(spectra):
            return time_weighted_norm(times, a_norms_of_spectra(spectra, grid, sp), b, vexp)

        orbits = []
        for i, g in enumerate(data):
            spectra = orbit * g
            rho = 1.0 if i % 2 == 0 else 0.7
            spectra *= rho / weighted(spectra)
            orbits.append(spectra)
        u0 = u0_raw * (0.5 / weighted(orbit * u0_raw))

        ratios = []
        for k in range(n_pairs):
            left, right = orbits[2 * k], orbits[2 * k + 1]
            gap = weighted(left - right)
            # Each orbit is read once more: the operator overwrites it with its image.
            ratios.append(weighted(_duhamel_spectra(u0, left, times, scfg, m, grid)
                                   - _duhamel_spectra(u0, right, times, scfg, m, grid)) / gap)
        max_ratios.append(max(ratios))
        mean_ratios.append(sum(ratios) / len(ratios))
    decrease = max(max_ratios[g + 1] / max_ratios[g] for g in range(halvings - 1))
    rec.add_check("ratios_strictly_decreasing",
                  "largest consecutive ratio of per-horizon Lipschitz bounds as the "
                  "horizon halves", decrease, "<=", 0.999)
    rec.add_check("min_ratio_below_one",
                  "smallest measured Lipschitz ratio across the horizon grid",
                  min(max_ratios), "<=", 0.999999)
    below = [T for T, q in zip(horizons, max_ratios) if q < 1.0]
    rec.add_metric("t_star", max(below) if below else 0.0)
    rec.add_metric("lipschitz_slope",
                   float(np.polyfit(np.log(horizons), np.log(max_ratios), 1)[0]))
    rec.add_series("contraction_ratios", ("T", "max_ratio", "mean_ratio"),
                   list(zip(horizons, max_ratios, mean_ratios)))
    rec.add_note("t_star is the largest tested horizon whose ratio is below one; the "
                 "log-log slope of ratio against horizon is reported, not asserted")
    return rec


def run_stability(cfg):
    """Measure deviation growth under perturbed initial data.

    Perturbations of exact initial-space size delta are added along a fixed
    normalized direction; the sup-in-time deviation of the perturbed
    solution must increase with delta (perfect rank correlation) and stay
    below the declared tolerance at the threshold delta.
    """
    rec = _new_record(cfg)
    m = cfg.model
    sp = cfg.space
    sp0 = sp.initial_space()
    grid = cfg.grid
    band = cfg.get_float("band_radius")
    amplitude = cfg.get_float("amplitude")
    deltas = sorted(cfg.get_floats("delta_grid"))
    if len(deltas) < 2 or deltas[0] <= 0:
        raise ConfigError("delta_grid needs at least two positive entries")
    threshold_delta = cfg.get_float("threshold_delta")
    tol = cfg.get_float("deviation_tol")
    w = cfg.time_weight()
    u0 = random_band_limited(grid, (cfg.seed, 40), band, amplitude)
    direction = random_band_limited(grid, (cfg.seed, 41), band, 1.0)
    direction = direction * (1.0 / a_norm(direction, sp0))
    base = picard_solve(u0, cfg.solver, m, w, sp)
    sups = []
    terminals = []
    profile_rows = []
    for delta in deltas:
        pert = picard_solve(u0 + direction * delta, cfg.solver, m, w, sp)
        devs = a_norms_of_spectra(base.trajectory.spectra - pert.trajectory.spectra,
                                  grid, sp0)
        sups.append(max(devs))
        terminals.append(devs[-1])
        profile_rows = list(zip(base.trajectory.times, devs))
    rec.add_check("deviation_rank_correlation",
                  "rank correlation between the perturbation size and the sup-in-time "
                  "deviation of the perturbed solution",
                  _spearman_against_index(sups), "==", 1.0)
    idx = int(np.argmin(np.abs(np.asarray(deltas) - threshold_delta)))
    if not math.isclose(deltas[idx], threshold_delta, rel_tol=1e-9):
        rec.add_note(f"threshold delta {threshold_delta:g} is not on the grid; using "
                     f"the nearest entry {deltas[idx]:g}")
    rec.add_check("small_delta_deviation",
                  f"sup-in-time initial-space deviation at data distance {deltas[idx]:g}",
                  sups[idx], "<=", tol)
    rec.add_metric("max_deviation_over_delta",
                   max(s / d for s, d in zip(sups, deltas)))
    rec.add_series("stability_deviation",
                   ("delta", "sup_deviation", "terminal_deviation"),
                   list(zip(deltas, sups, terminals)))
    rec.add_series("stability_profile", ("t", "deviation"), profile_rows)
    rec.add_note("the profile series reports the deviation against time for the "
                 "largest perturbation")
    return rec


def run_solve(cfg):
    """Run one fixed-point solve with oracle, residual, and convergence checks.

    Consolidates the full pipeline: Picard iteration, comparison against the
    independent exponential integrator, the discrete equation residual, the
    reapplication (fixed-point) defect, and distances to the initial data at
    dyadic times. Strong-convergence checks activate when the config carries
    a strong_final_ratio bound.
    """
    rec = _new_record(cfg)
    m = cfg.model
    sp = cfg.space
    sp0 = sp.initial_space()
    grid = cfg.grid
    band = cfg.get_float("band_radius")
    amplitude = cfg.get_float("amplitude")
    oracle_tol = cfg.get_float("oracle_tol")
    residual_tol = cfg.get_float("residual_tol")
    levels = cfg.get_int("strong_levels")
    if not 1 <= levels <= 40:
        raise ConfigError(f"strong_levels must be in 1..40, got {levels}")
    ratio_raw = cfg.get_str("strong_final_ratio").strip()
    w = cfg.time_weight()
    vexp = cfg.integration_exponent()
    T = cfg.solver.horizon
    dyadic = tuple(T / 2.0 ** k for k in range(1, levels + 1))
    scfg = replace(cfg.solver,
                   extra_times=tuple(cfg.solver.extra_times) + dyadic)
    u0 = random_band_limited(grid, (cfg.seed, 50), band, amplitude)
    report = picard_solve(u0, scfg, m, w, sp)
    traj = report.trajectory
    rec.add_check("picard_converged",
                  "fixed-point iteration reached its relative tolerance",
                  float(report.converged), "==", 1.0)
    rec.add_metric("picard_iterations", report.iterations)
    rec.add_metric("weighted_norm", report.weighted_norm)
    if report.contraction_factors:
        rec.add_metric("max_contraction_factor", max(report.contraction_factors))
    oracle = etd_oracle(u0, scfg, m)
    rec.add_check("oracle_terminal_rel_l2",
                  "terminal relative L2 distance between the fixed point and the "
                  "independent exponential integrator",
                  _rel_l2(oracle.terminal.samples, traj.terminal.samples),
                  "<=", oracle_tol)
    rec.add_check("pde_residual",
                  "largest relative L2 defect of the time-differenced equation at "
                  "interior samples",
                  pde_residual(traj, m, cfg.solver.dealias_factor), "<=", residual_tol)
    reapplied = duhamel_apply(u0, traj, scfg, m)
    change = Trajectory.from_spectra(traj.times, reapplied.spectra - traj.spectra, grid)
    defect = weighted_norm(change, w, sp, vexp).value
    scale = weighted_norm(traj, w, sp, vexp).value
    rec.add_check("fixed_point_defect",
                  "relative weighted-norm change after one more operator application",
                  defect / scale if scale > 0 else defect,
                  "<=", 2.0 * cfg.solver.picard_tol)
    base_norm = a_norm(u0, sp0)
    at_dyadic = strong_convergence_check(traj, u0, sp0, sorted(dyadic))
    rec.add_series("strong_convergence", ("t", "distance", "relative_distance"),
                   [(t, dist, dist / base_norm if base_norm > 0 else dist)
                    for t, dist in at_dyadic])
    if ratio_raw:
        bound = float(ratio_raw)
        dists = [dist for _, dist in sorted(at_dyadic, reverse=True)]
        worst = max((dists[i + 1] / dists[i] if dists[i] > 0 else 0.0)
                    for i in range(len(dists) - 1))
        rec.add_check("strong_distances_decreasing",
                      "largest ratio of successive initial-space distances to the "
                      "data as the sample time halves", worst, "<=", 0.999)
        final_rel = dists[-1] / base_norm if base_norm > 0 else dists[-1]
        rec.add_check("strong_final_ratio",
                      "initial-space distance at the smallest dyadic time, relative "
                      "to the data norm", final_rel, "<=", bound)
    rec.add_series("trajectory_norms",
                   ("t", "l2_norm", "space_norm", "initial_space_norm"),
                   zip(traj.times, l2_norms_of_spectra(traj.spectra, grid),
                       a_norms_of_spectra(traj.spectra, grid, sp),
                       a_norms_of_spectra(traj.spectra, grid, sp0)))
    # Only odd integer r makes |u|^(r-1) u a polynomial that padding can
    # dealias exactly; r = 2 (|u| u) is not one.
    if not (float(m.r).is_integer() and int(m.r) % 2 == 1):
        rec.add_metric("aliasing_defect",
                       aliasing_probe(traj.terminal, m.r, cfg.solver.dealias_factor))
        rec.add_note("power not an odd integer: dealiasing is approximate; the defect "
                     "metric compares against doubled padding")
    return rec


def run_sweep(cfg):
    """Cross-check the admissibility window against the derived sign exponents.

    Random exponent tuples are drawn with a below 2 - 1/v, the regime where
    the window predicate and the joint sign test are provably the same;
    agreement there must be universal. Above that threshold the sign test
    is strictly weaker on the upper side (documented, not sampled).
    """
    rec = _new_record(cfg)
    count = cfg.get_int("tuples")
    if count < 1:
        raise ConfigError(f"tuples must be >= 1, got {count}")
    alpha_choices = [int(a) for a in cfg.get_floats("alpha_choices")]
    r_lo, r_hi = cfg.get_floats("r_range")
    v_lo, v_hi = cfg.get_floats("v_range")
    a_floor = cfg.get_float("a_floor")
    gap_max = cfg.get_float("gap_max")
    if not v_lo > 0.5:
        raise ConfigError(f"v_range must start above 1/2, got {v_lo}")
    rng = np.random.default_rng((cfg.seed, 60))
    agree = 0
    window_hits = 0
    sample_rows = []
    for i in range(count):
        alpha = int(rng.choice(alpha_choices))
        r = float(rng.uniform(r_lo, r_hi))
        v = math.inf if rng.uniform() < 0.05 else float(rng.uniform(v_lo, v_hi))
        inv_v = 0.0 if math.isinf(v) else 1.0 / v
        gap = float(rng.uniform(0.0, gap_max))
        s0 = float(rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(a_floor, 2.0 - inv_v))
        m = ModelParams(alpha=alpha, r=r, n=cfg.model.n)
        agrees = equivalence_check(a, v, s0 + gap, s0, m)
        adm = admissibility(a, v, s0 + gap, s0, m, cfg.space.p)
        agree += agrees
        window_hits += adm.admissible
        if i < 50:
            sample_rows.append((a, v, gap, alpha, r, float(adm.admissible),
                                float(agrees)))
    rec.add_check("equivalence_agreement",
                  "fraction of sampled exponent tuples where the admissibility window "
                  "matches the joint sign test of the derived exponents",
                  agree / count, "==", 1.0)
    rec.add_metric("tuples_tested", count)
    rec.add_metric("window_fraction", window_hits / count)
    rec.add_series("sweep_sample", ("a", "v", "gap", "alpha", "r", "window", "agrees"),
                   sample_rows)
    rec.add_note("weight exponents sampled below 2 - 1/v, where the window and the "
                 "sign test are equivalent; above that threshold the sign test is "
                 "strictly weaker on the upper side")
    return rec


RUNNERS = {
    "smoothing": run_smoothing,
    "scaling": run_scaling,
    "criticality": run_criticality,
    "contraction": run_contraction,
    "stability": run_stability,
    "solve": run_solve,
    "sweep": run_sweep,
}


def run_experiment(cfg):
    """Dispatch one experiment config to its runner."""
    try:
        runner = RUNNERS[cfg.experiment]
    except KeyError as exc:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}") from exc
    return runner(cfg)
