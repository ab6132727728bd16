"""A fresh process: what importing the library loads, and what it computes."""

import os
import subprocess
import sys
import textwrap

import hyperheat

SRC = os.path.dirname(os.path.dirname(hyperheat.__file__))


def fresh_process(code):
    """Run ``code`` in a new interpreter that imports this checkout's package;
    its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_a_solve_loads_no_scipy():
    # Every library transform is numpy.fft's: scipy is a test dependency only.
    out = fresh_process("""
        import sys

        import hyperheat as hh

        imported = sorted(name for name in sys.modules
                          if name.split(".")[0] == "scipy"
                          or name.startswith("numpy.polynomial"))
        m = hh.ModelParams(alpha=1, r=3.0, n=2)
        grid = hh.TorusGrid(n=2, points_per_dim=16)
        u0 = hh.random_band_limited(grid, 7, 3.0, amplitude=0.8)
        report = hh.picard_solve(u0, hh.SolverConfig(horizon=0.1, slabs=24), m,
                                 hh.TimeWeight(b=0.5 / 6.0, v=1.0, T=0.1),
                                 hh.SpaceParams("B", 1.5, 2.0, 2.0))
        assert report.converged
        print(imported, "scipy" in sys.modules)
    """)
    # Nor does the import build the quadrature nodes, which live in
    # numpy.polynomial, before a caller asks for them.
    assert out.split() == ["[]", "False"]
