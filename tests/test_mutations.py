"""Mutations of the solver that the acceptance battery must catch.

Each test breaks one piece of the solver by monkeypatching and requires a
named acceptance check to fail: criterion 12 (constant data against its
closed form) for the nonlinearity and the slab quadrature, and criterion 7's
PDE residual for the slab decay, which constant data, a single mode at
frequency 0, never feels. The starting march's quadratic forcing prediction,
swapped for the line through two slab ends, must fail the one-sweep start
of ``test_solver.TestMarchedStart``.
"""

import dataclasses

import numpy as np
import pytest

import test_solver
from hyperheat import default_config, run_experiment, solver
from test_acceptance import closed_form_error, get_check


def mutate_power(monkeypatch, change):
    """Pass every batch of ``_power_batches`` through ``change``."""
    power_batches = solver._power_batches

    def mutated(*args):
        for start, stop, power in power_batches(*args):
            yield start, stop, change(power)

    monkeypatch.setattr(solver, "_power_batches", mutated)


def mutate_weights(monkeypatch, **changes):
    """Apply ``changes`` (field name to function) to every ``_slab_weights``
    result, leaving the cached weights untouched."""
    slab_weights = solver._slab_weights

    def mutated(*args):
        weights = slab_weights(*args)
        return dataclasses.replace(weights, **{name: change(getattr(weights, name))
                                               for name, change in changes.items()})

    monkeypatch.setattr(solver, "_slab_weights", mutated)


MUTATIONS = {
    "nonlinearity-sign-flipped": lambda mp: mutate_power(mp, np.negative),
    "nonlinearity-zeroed": lambda mp: mutate_power(mp, np.zeros_like),
    "phi2-term-dropped": lambda mp: mutate_weights(mp, phi2=np.zeros_like),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_fails_criterion_12(mutation, monkeypatch):
    MUTATIONS[mutation](monkeypatch)
    assert closed_form_error() > 1e-5


def test_halved_decay_fails_criterion_07(monkeypatch):
    mutate_weights(monkeypatch, decay=np.sqrt)
    residual = get_check(run_experiment(default_config("solve")), "pde_residual")
    assert residual.bound == 1e-4 and not residual.passed


def test_linear_forcing_prediction_fails_the_one_sweep_start(monkeypatch):
    test_solver.linear_rise(monkeypatch)
    with pytest.raises(AssertionError):
        test_solver.TestMarchedStart().test_amplitude_one_converges_in_one_sweep()
