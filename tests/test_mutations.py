"""Mutations of the solver that the acceptance battery must catch.

Each test breaks one piece of the solver by monkeypatching and requires a
named acceptance check to fail: criterion 12 (constant data against its
closed form) for the nonlinearity and the slab quadrature, and criterion 7's
PDE residual for the slab decay, which constant data, a single mode at
frequency 0, never feels. The march capped at one pass per slab must fail
the order study of ``test_solver.TestConstantDataClosedForm``, and its cubic
forcing prediction, swapped for the line through two slab ends, the kernel
field bound of ``test_solver.TestMarchedStart``. A march that carries its
image without the decay must report a defect that the re-application
contradicts; a slab step that drops its carried solution moves the march
and the re-application alike, so criterion 12 must catch it instead. A
wrong scaling exponent must fail criterion 9 at amplitude 1 and both
criticality pins. The
power kernel's pruned embedding and truncation, broken on one full axis,
must fail its per-field c2c reference in
``test_solver_kernel``. A norm that comes out NaN must end a solve with a
blow-up error, not pass as defect 0.
"""

import dataclasses

import numpy as np
import pytest

import test_solver
import test_solver_kernel
from hyperheat import (BlowupSuspectedError, ModelParams, SolverConfig, TimeWeight,
                       default_config, etd_oracle, run_experiment, solver)
from test_acceptance import closed_form_error, get_check


def mutate_power(monkeypatch, change):
    """Pass every result of every ``_power_map`` through ``change``: the
    march, the sweeps, the oracle and the residual all build one."""
    power_map = solver._power_map

    def mutated(*args):
        power = power_map(*args)
        return lambda spectra: change(power(spectra))

    monkeypatch.setattr(solver, "_power_map", mutated)


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


@pytest.mark.parametrize("mutation", ["nonlinearity-sign-flipped", "nonlinearity-zeroed"])
def test_power_mutation_reaches_the_march_and_the_oracle(mutation, monkeypatch):
    start = test_solver.TestMarchedStart()
    u0 = start.solve_data(1.0)
    cfg = SolverConfig(horizon=0.25)
    oracle = etd_oracle(u0, cfg, start.MODEL).spectra
    solved = start.solve(1.0).trajectory.spectra
    MUTATIONS[mutation](monkeypatch)
    # The march certifies the mutated operator's fixed point, a whole
    # nonlinear term away from the true one; so does the oracle.
    report = start.solve(1.0)
    assert report.converged and report.defect <= cfg.picard_tol
    for before, after in ((solved, report.trajectory.spectra),
                          (oracle, etd_oracle(u0, cfg, start.MODEL).spectra)):
        assert np.max(np.abs(after - before)) > 1e-3 * np.max(np.abs(before))


def test_halved_decay_fails_criterion_07(monkeypatch):
    mutate_weights(monkeypatch, decay=np.sqrt)
    residual = get_check(run_experiment(default_config("solve")), "pde_residual")
    assert residual.bound == 1e-4 and not residual.passed


def test_one_pass_march_fails_the_one_sweep_order_study(monkeypatch):
    test_solver.one_pass_march(monkeypatch)
    with pytest.raises(AssertionError):
        test_solver.TestConstantDataClosedForm().test_converged_march_certifies_in_one_sweep(
            monkeypatch)


def test_linear_forcing_prediction_fails_the_one_sweep_start(monkeypatch):
    # The corrector settles the line's start too, in 386 kernel fields.
    test_solver.fewer_ends(monkeypatch, 2)
    with pytest.raises(AssertionError):
        test_solver.TestMarchedStart().test_amplitude_one_converges_in_one_sweep(monkeypatch)


def test_dropped_decay_in_the_carried_image_fails_the_reapplied_defect(monkeypatch):
    # The march carries U_i = U_(i-1) + (slab integral), without e^z, and
    # certifies that operator's fixed point (defect 6.4e-11); the true
    # operator moves it by 0.31 of its weighted norm.
    start = test_solver.TestMarchedStart()
    cfg = SolverConfig(horizon=0.25)
    w = TimeWeight(b=0.5 / (2 * start.MODEL.r), v=1.0, T=cfg.horizon)
    with monkeypatch.context() as patched:
        mutate_weights(patched, decay=np.ones_like)
        report = start.solve(1.0, cfg)
    assert report.converged and report.defect <= cfg.picard_tol
    defect, _ = test_solver.reapplied_defect(start.solve_data(1.0), report, cfg,
                                             start.MODEL, w, start.SPACE)
    assert abs(report.defect - defect) > 1e-3 * defect


def test_slab_step_without_its_carry_fails_criterion_12(monkeypatch):
    # The march and duhamel_apply share _slab_image, so a step that drops
    # e^z U_(i-1) certifies its own fixed point (defect 1.4e-14) and the
    # re-application measures the same defect; the closed form for constant
    # data reads a relative error of 1.0.
    def without_carry(weights, row, left, rise, carry, out=None):
        out = np.multiply(weights.phi1[row], left, out=out)
        out += weights.phi2[row] * rise
        return out

    monkeypatch.setattr(solver, "_slab_image", without_carry)
    start = test_solver.TestMarchedStart()
    cfg = SolverConfig(horizon=0.25)
    w = TimeWeight(b=0.5 / (2 * start.MODEL.r), v=1.0, T=cfg.horizon)
    report = start.solve(1.0, cfg)
    defect, _ = test_solver.reapplied_defect(start.solve_data(1.0), report, cfg,
                                             start.MODEL, w, start.SPACE)
    assert report.converged and report.defect == pytest.approx(defect, rel=1e-12)
    assert closed_form_error() > 1e-5


def test_wrong_scaling_exponent_fails_criterion_09_and_the_criticality_pins(monkeypatch):
    # lam^(2 alpha/r) in place of lam^(2 alpha/(r-1)) passes criterion 9 at
    # the default amplitude 1e-3 (mismatches 3.1e-8 and 3.4e-8), where the
    # flow is nearly linear; at amplitude 1 the nonlinearity tells them apart.
    cfg = default_config("scaling")
    cfg = dataclasses.replace(cfg, extras={**cfg.extras, "amplitude": "1.0"})
    mismatches = ("mismatch_alpha1_r3", "mismatch_alpha2_r3")
    control = run_experiment(cfg)
    assert all(get_check(control, name).passed for name in mismatches)
    monkeypatch.setattr(ModelParams, "scaling_exponent",
                        property(lambda m: 2.0 * m.alpha / m.r))
    mutated = run_experiment(cfg)
    assert all(get_check(mutated, name).value > 1e-5 for name in mismatches)
    pins = run_experiment(default_config("criticality"))
    assert not any(get_check(pins, name).passed
                   for name in ("pin_n2_p2_alpha1_r3", "pin_n4_p2_alpha2_r2"))


def test_nan_weighted_norm_ends_the_solve(monkeypatch):
    # Norms turn NaN from the march's 21st call on, on its 11th slab at the
    # latest; the slabs before travel with the error.
    norms = solver.a_norms_of_spectra
    calls = []

    def nan_from_the_21st_call(*args):
        calls.append(None)
        out = norms(*args)
        return np.full_like(out, np.nan) if len(calls) > 20 else out

    monkeypatch.setattr(solver, "a_norms_of_spectra", nan_from_the_21st_call)
    with pytest.raises(BlowupSuspectedError, match="not finite") as err:
        test_solver.TestMarchedStart().solve(1.0)
    report = err.value.report
    assert not report.converged and 10 <= len(report.trajectory) <= 20
    assert report.defect <= SolverConfig(horizon=0.25).picard_tol


def mutate_first_axis(monkeypatch, change):
    """Follow every ``_move_halves`` along the first full axis by
    ``change(src, dst, h)``, on the way in and out."""
    move_halves = solver._move_halves

    def mutated(src, dst, axis, h):
        move_halves(src, dst, axis, h)
        if axis == 1:
            change(src, dst, h)

    monkeypatch.setattr(solver, "_move_halves", mutated)


def high_half_one_index_off(src, dst, h):
    """The high modes k = -h+1..-1 land one row low."""
    dst[:, -h:-1] = src[:, 1 - h:]


def truncation_skipped(src, dst, h):
    """On the way out the first N rows are kept, padding rows among them."""
    if src.shape[1] > dst.shape[1]:
        dst[...] = src[:, :dst.shape[1]]


KERNEL_MUTATIONS = {
    "high-half-one-index-off": high_half_one_index_off,
    "truncation-skipped": truncation_skipped,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutation", KERNEL_MUTATIONS)
def test_kernel_mutation_fails_the_c2c_reference(mutation, n, monkeypatch):
    mutate_first_axis(monkeypatch, KERNEL_MUTATIONS[mutation])
    with pytest.raises(AssertionError):
        test_solver_kernel.TestPowerKernel().test_matches_per_field_c2c_reference(n, 3.0, 1.5)
