"""The benchmark in perfbench/ drives the package by name: every name it
references must resolve, and its tracer must install and uninstall. The
benchmark's scripts are only read here."""

import re
from pathlib import Path

import pytest

import hyperheat
from test_imports import fresh_process

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def referenced_names():
    """Every ``hh.<name>`` and ``hyperheat.<name>`` in the benchmark's scripts."""
    pattern = re.compile(r"\b(?:hh|hyperheat)\.([A-Za-z_]\w*)")
    return sorted({name for path in SCRIPTS
                   for name in pattern.findall(path.read_text(encoding="utf-8"))})


def test_the_benchmark_scripts_are_read():
    assert {"run.py", "tracer.py", "workloads.py"} <= {path.name for path in SCRIPTS}
    assert "picard_solve" in referenced_names()


@pytest.mark.parametrize("name", referenced_names())
def test_every_name_the_benchmark_references_resolves(name):
    assert hasattr(hyperheat, name), f"perfbench/ uses hyperheat.{name}"


def test_the_tracer_installs_and_uninstalls_on_the_package():
    # A fresh process, since the tracer patches the package's modules and
    # scipy.fft while it is installed.
    out = fresh_process(f"""
        import sys

        sys.path.insert(0, {str(BENCH)!r})
        import hyperheat
        from hyperheat import solver
        from tracer import Tracer

        before = solver.slab_times
        tracer = Tracer()
        tracer.install(hyperheat)
        wrapped = hyperheat.slab_times is not before and solver.slab_times is not before
        hyperheat.slab_times(hyperheat.SolverConfig(horizon=1.0))
        tracer.uninstall()
        calls = tracer.summary()[0]
        print(wrapped, calls["solver.slab_times"],
              hyperheat.slab_times is before and solver.slab_times is before)
    """)
    assert out.split() == ["True", "1", "True"]
