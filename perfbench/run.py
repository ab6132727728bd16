"""Benchmark: time to a verified solve, and per-layer numbers from a traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload runs whole rounds until S
seconds have passed, checks every round, and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds); with ``--trace 1`` untraced and traced rounds alternate and the
metrics are the per-layer ones from the traced rounds. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repo  # pins thread counts; must precede numpy

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

SETUP_PROBES = 5
# Floor timings batch enough transform pairs to fill this many seconds.
FLOOR_BATCH_S = 0.02
FLOOR_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s", "oracle_s": "s",
                    "peak_rss_mb": "MB"}

# Per-layer metric units; every name here is printed by a traced run.
PER_LAYER_UNITS = {
    "grid.transform_calls": "count", "grid.transform_s": "s",
    "grid.hermitian_checks": "count", "grid.fields_built": "count",
    "grid.transform_x_floor": "ratio",
    "fft.floor_pair_s": "s", "fft.padded_floor_pair_s": "s", "fft.calls": "count",
    "fft.points": "count", "fft.bytes_computed": "B", "fft.self_s": "s",
    "dyadic.norm_calls": "count", "dyadic.self_s": "s",
    "semigroup.apply_calls": "count", "semigroup.self_s": "s",
    "timenorms.weighted_norm_calls": "count", "timenorms.self_s": "s",
    "solver.picard_iterations": "count", "solver.slab_times": "count",
    "solver.picard_iteration_s": "s", "solver.slab_steps_per_s": "1/s",
    "solver.picard_x_fft_floor": "ratio", "solver.etd_step_s": "s",
    "solver.duhamel_apply_calls": "count", "solver.duhamel_apply_s": "s",
    "solver.phi_calls": "count", "solver.residual_s": "s", "solver.self_s": "s",
    "fields.self_s": "s", "experiments.self_s": "s", "records.emit_s": "s",
    "trace.overhead_s": "s",
}
COUNT_UNITS = ("count", "B")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def cache_sizes():
    """{'L1d': bytes, ...} of the first CPU, from sysfs, else from lscpu."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    sizes = {}
    for entry in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((entry / name).read_text().strip()
                             for name in ("level", "type", "size"))
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = (int(size[:-1]) * scale[size[-1]]
                                      if size[-1] in scale else int(size))
    if not sizes:
        out = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, timeout=30)
        for line in out.stdout.splitlines():
            key, _, value = line.partition(":")
            if key.strip().endswith("cache") and value.split():
                sizes[key.split()[0]] = int(value.split()[0])
    return sizes


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args):
    caches = cache_sizes()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches_bytes": caches,
        "llc_bytes": max(caches.values()) if caches else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ[k] for k in repo.PINNED_THREADS},
    }


def probe_setup(args):
    """Seconds of SETUP_PROBES fresh-process set-ups."""
    script = repo.BENCH / "probe_setup.py"
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(script), args.workload, str(args.seed)],
                             capture_output=True, text=True, cwd=repo.ROOT,
                             env=os.environ, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def floor_pair_s(shape, workers):
    """Median seconds of a bare scipy.fft c2c forward+inverse pair on ``shape``."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def pair():
        y = scipy.fft.fftn(x, norm="ortho", workers=workers)
        return scipy.fft.ifftn(y, norm="ortho", workers=workers)

    pair()
    start = time.perf_counter()
    pair()
    batch = max(1, int(FLOOR_BATCH_S / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            pair()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def padded_shape(grid, dealias_factor):
    """The dealiasing grid the solver pads to, as in its nonlinearity."""
    M = math.ceil(grid.points_per_dim * dealias_factor)
    M += M % 2
    return (max(M, grid.points_per_dim),) * grid.n


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, floors):
    """Per-layer metrics of one traced round."""
    calls, incl, self_s = tracer.summary()
    work = tracer.amounts
    transform_calls = calls["grid.forward_transform"] + calls["grid.inverse_transform"]
    transform_s = incl["grid.forward_transform"] + incl["grid.inverse_transform"]
    iterations = work["solver.picard_iterations"]
    slab_steps = work["solver.slab_steps"]
    picard_s = incl["solver.picard_solve"]
    return {
        "grid.transform_calls": transform_calls,
        "grid.transform_s": transform_s,
        "grid.hermitian_checks": calls["grid.SpectralField.hermitian_defect"],
        "grid.fields_built": (calls["grid.RealField.__post_init__"]
                              + calls["grid.SpectralField.__post_init__"]),
        "grid.transform_x_floor": ratio(ratio(transform_s, transform_calls / 2),
                                        floors["pair_s"]),
        "fft.floor_pair_s": floors["pair_s"],
        "fft.padded_floor_pair_s": floors["padded_pair_s"],
        "fft.calls": sum(v for k, v in calls.items() if k.startswith("fft.")),
        "fft.points": work["fft.points"],
        "fft.bytes_computed": 32 * work["fft.points"],
        "fft.self_s": self_s["fft"],
        "dyadic.norm_calls": calls["dyadic.a_norm_of_coefficients"],
        "dyadic.self_s": self_s["dyadic"],
        "semigroup.apply_calls": calls["semigroup.apply_semigroup"],
        "semigroup.self_s": self_s["semigroup"],
        "timenorms.weighted_norm_calls": calls["timenorms.weighted_norm"],
        "timenorms.self_s": self_s["timenorms"],
        "solver.picard_iterations": iterations,
        "solver.slab_times": work["solver.slab_times"],
        "solver.picard_iteration_s": ratio(picard_s, iterations),
        "solver.slab_steps_per_s": ratio(slab_steps, picard_s),
        "solver.picard_x_fft_floor": ratio(ratio(picard_s, slab_steps),
                                           floors["padded_pair_s"]),
        "solver.etd_step_s": ratio(incl["solver.etd_oracle"], work["solver.etd_steps"]),
        "solver.duhamel_apply_calls": calls["solver.duhamel_apply"],
        "solver.duhamel_apply_s": incl["solver.duhamel_apply"],
        "solver.phi_calls": calls["solver.phi1"] + calls["solver.phi2"],
        "solver.residual_s": incl["solver.pde_residual"],
        "solver.self_s": self_s["solver"],
        "fields.self_s": self_s["fields"],
        "experiments.self_s": self_s["experiments"],
        "records.emit_s": incl["records.emit_results"],
    }


# Work the tracer reads off results: Picard iterations, slab times and slab
# steps (iterations x slab times), summed over picard_solve calls; ETD steps.
TRACE_AMOUNTS = {
    "solver.picard_solve": lambda args, kwargs, report: {
        "solver.picard_iterations": report.iterations,
        "solver.slab_times": len(report.trajectory),
        "solver.slab_steps": report.iterations * len(report.trajectory)},
    "solver.etd_oracle": lambda args, kwargs, traj: {"solver.etd_steps": len(traj)},
}


def measure_floors(hyperheat, grid):
    """Bare FFT pair timings on the workload grid and the padded grids."""
    workers = hyperheat.fft_workers()
    dealias = hyperheat.SolverConfig(horizon=1.0).dealias_factor
    return {
        "pair_s": floor_pair_s(grid.shape, workers),
        "padded_pair_s": floor_pair_s(padded_shape(grid, dealias), workers),
    }


def play_round(hyperheat, workload, out_dir, tracer, checks):
    """One round: set-up, timed part, reference solve, then its checks.

    Returns (seconds, output fingerprint, operations attempted). Everything
    else the round built is dropped here, so rounds do not add up in memory.
    """
    # Each round starts from the same state: no cached decomposition, as in a
    # fresh process, and no garbage left for the collector from earlier rounds.
    hyperheat.build_decomposition.cache_clear()
    gc.collect()
    if tracer:
        tracer.install(hyperheat, TRACE_AMOUNTS)
    try:
        state = workload.setup()
        rnd = workload.run(state, out_dir)
    finally:
        if tracer:
            tracer.uninstall()
    before = len(checks.items)
    workload.check(checks, state, rnd)
    return rnd.seconds, rnd.files, workload.operations + len(checks.items) - before


def run(args, hyperheat, workloads, Tracer):
    """Run the workload for ``args.seconds``; returns the result dict."""
    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    setup_samples = [] if args.trace else probe_setup(args)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out_root = repo.OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    state = workload.setup()
    grid = workload.grid(state)
    slabs = workload.stored_slab_times(state)
    del state
    print(f"working_set bytes={slabs * grid.size * 16} ({slabs} slab times x {grid.size} "
          f"points x 16 B per stored trajectory) llc_bytes={env['llc_bytes']}")
    floors = measure_floors(hyperheat, grid) if args.trace else None

    checks = workloads.Checks()
    rounds = []
    layers = []
    attempted = 0
    first_files = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        # A traced run plays each round twice, untraced and then traced.
        for tracer in ([None, Tracer()] if args.trace else [None]):
            seconds, files, ops = play_round(hyperheat, workload,
                                             out_root / f"round-{len(rounds)}", tracer,
                                             checks)
            first_files = first_files or files
            checks.add("outputs_repeat_first_round", files == first_files, "==", 1.0)
            attempted += ops + 1
            rounds.append({"traced": tracer is not None, "seconds": seconds})
            if len(rounds) == 1:
                first_round_checks = list(checks.items)
            if tracer:
                layers.append(layer_metrics(tracer, floors))
                tracer.write(out_root / "spans.csv")
                counts = {k: v for k, v in layers[-1].items()
                          if PER_LAYER_UNITS[k] in COUNT_UNITS}
                if len(layers) == 1:
                    first_counts = counts
                checks.add("trace_counts_repeat", counts == first_counts, "==", 1.0)
                attempted += 1

    plain = [r["seconds"] for r in rounds if not r["traced"]]
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_wall = statistics.median(r["seconds"]["wall_s"] for r in rounds if r["traced"])
        metrics["trace.overhead_s"] = traced_wall - statistics.median(
            s["wall_s"] for s in plain)
        units = PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(s[name] for s in plain)
                   for name in ("wall_s", "solve_s", "oracle_s")}
        metrics["setup_s"] = statistics.median(setup_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    failed = sum(not c["passed"] for c in checks.items)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {"environment": env, "rounds": rounds, "setup_samples_s": setup_samples,
               "fft_floors_s": floors, "checks": checks.items, "result": result}
    (out_root / f"result-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n")
    for c in first_round_checks + [c for c in checks.items if not c["passed"]]:
        print(f"check {c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
              f"{c['value']:.6g} {c['comparison']} {c['bound']:.6g}")
    print(f"rounds={len(rounds)} attempted={attempted} failed={failed}")
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    return result


def main(argv=None):
    args = parse_args(argv)
    try:
        repo.prepare()
        import hyperheat
        repo.check_imported(hyperheat)
    except repo.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args, hyperheat, workloads, Tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
