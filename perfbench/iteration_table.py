"""Reference command: the cost of one Picard iteration against its FFT floor.

Usage: python3 perfbench/iteration_table.py [--seed N] [--repeats K]

Not a workload. It re-measures the per-iteration table of ROADMAP
"Recent" on 2-D grids with N = 64, 128 and 256 and on the 1-D N = 512
grid, with the default slab grid (225 slab times), r = 3 and
``random_band_limited(grid, (seed, 50), 1.9, amplitude=1.0)`` data.

One iteration is the median over K repeats of ``picard_solve`` capped at
two iterations minus ``picard_solve`` capped at one, so the set-up both
share cancels. The floor is slab times x one bare ``scipy.fft`` c2c
forward+inverse pair on the padded (1.5 N) grid, the two transforms per
slab time the nonlinearity cannot avoid; the unpadded floor is printed
beside it.
"""

import argparse
import statistics
import sys
import time
from dataclasses import replace

import repo  # pins thread counts; must precede numpy

GRIDS = ((2, 64), (2, 128), (2, 256), (1, 512))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    try:
        repo.prepare()
    except repo.MissingSource as exc:
        print(f"iteration_table: {exc}", file=sys.stderr)
        return 2
    import hyperheat as hh
    repo.check_imported(hh)
    import workloads
    from run import floor_pair_s, padded_shape

    print("grid slab_times iteration_s padded_floor_s unpadded_floor_s iteration_x_floor")
    for n, N in GRIDS:
        grid = hh.TorusGrid(n=n, points_per_dim=N)
        m = workloads.model(n)
        cfg = hh.SolverConfig(horizon=workloads.HORIZON, picard_tol=workloads.PICARD_TOL)
        u0 = hh.random_band_limited(grid, (args.seed, 50), workloads.BAND, amplitude=1.0)
        w = workloads.time_weight(m)
        costs = []
        for _ in range(args.repeats):
            took = []
            for cap in (1, 2):
                start = time.perf_counter()
                hh.picard_solve(u0, replace(cfg, picard_max_iter=cap), m, w, workloads.SPACE)
                took.append(time.perf_counter() - start)
            costs.append(took[1] - took[0])
        slabs = len(hh.slab_times(cfg))
        workers = hh.fft_workers()
        padded = slabs * floor_pair_s(padded_shape(grid, cfg.dealias_factor), workers)
        plain = slabs * floor_pair_s(grid.shape, workers)
        iteration = statistics.median(costs)
        print(f"{n}-D N={N} {slabs} {iteration:.4f} {padded:.4f} {plain:.4f} "
              f"{iteration / padded:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
