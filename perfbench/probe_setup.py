"""Time one workload set-up in a fresh process and print the seconds.

Usage: python3 perfbench/probe_setup.py WORKLOAD SEED

Set-up is what a user pays before any work: importing hyperheat (and with
it numpy and scipy), then building the config, grid, dyadic decomposition
and initial data.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import repo  # noqa: E402


def main(argv):
    repo.prepare()
    import workloads
    name, seed = argv[1], int(argv[2])
    workloads.WORKLOADS[name](seed).setup()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv)
