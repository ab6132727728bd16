"""Experiment runners: dispatch, cheap end-to-end runs, validation paths."""

import dataclasses

import pytest

from hyperheat import (EXPERIMENTS, ConfigError, ModelParams, TorusGrid,
                       default_config, run_experiment)
from hyperheat.experiments import RUNNERS


def with_extras(cfg, **overrides):
    extras = dict(cfg.extras)
    extras.update({k: str(v) for k, v in overrides.items()})
    return dataclasses.replace(cfg, extras=extras)


class TestDispatch:
    def test_every_experiment_has_a_runner(self):
        assert set(RUNNERS) == set(EXPERIMENTS)

    def test_record_carries_identity(self):
        cfg = with_extras(default_config("sweep"), tuples=200)
        rec = run_experiment(cfg)
        assert rec.experiment == "sweep"
        assert rec.seed == cfg.seed
        assert len(rec.config_digest) == 16


class TestCheapRunners:
    def test_criticality_pins(self):
        rec = run_experiment(default_config("criticality"))
        assert rec.passed
        assert rec.metrics["pin_n2_p2_alpha1_r3"] == 0.0
        assert rec.metrics["pin_n4_p2_alpha2_r2"] == -2.0
        table = rec.series["criticality_table"]
        # 3 dimensions x 3 integrabilities x 2 orders x 2 powers.
        assert len(table.rows) == 36

    def test_sweep_agreement(self):
        rec = run_experiment(with_extras(default_config("sweep"), tuples=2000))
        assert rec.passed
        assert rec.metrics["equivalence_agreement"] == 1.0
        assert rec.metrics["tuples_tested"] == 2000.0

    def test_sweep_determinism(self):
        cfg = with_extras(default_config("sweep"), tuples=300)
        assert run_experiment(cfg).to_json_dict() == run_experiment(cfg).to_json_dict()

    def test_seed_changes_sweep_sample(self):
        base = with_extras(default_config("sweep"), tuples=300)
        other = dataclasses.replace(base, seed=base.seed + 1)
        a = run_experiment(base).series["sweep_sample"]
        b = run_experiment(other).series["sweep_sample"]
        assert a.rows != b.rows


class TestAliasingReport:
    @pytest.mark.parametrize("r, reported", [(2.0, True), (3.0, False), (4.0, True)])
    def test_defect_reported_unless_power_is_odd_integer(self, r, reported):
        # |u| u at r = 2 and |u|^3 u at r = 4 are not polynomials, so padding
        # cannot dealias them exactly; only odd integer powers are exempt.
        cfg = dataclasses.replace(default_config("solve"), grid=TorusGrid(2, 32),
                                  model=ModelParams(alpha=1, r=r, n=2))
        cfg = with_extras(cfg, amplitude=0.5, strong_levels=2)
        rec = run_experiment(cfg)
        assert ("aliasing_defect" in rec.metrics) == reported
        if reported:
            assert rec.metrics["aliasing_defect"] > 1e-12


class TestValidation:
    def test_sweep_rejects_v_range_at_half(self):
        cfg = with_extras(default_config("sweep"), v_range="0.5,4")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_smoothing_rejects_empty_pairs(self):
        cfg = with_extras(default_config("smoothing"), pairs="")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_scaling_rejects_fractional_factor(self):
        cfg = with_extras(default_config("scaling"), rescale_factor="2.5")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_scaling_rejects_inconsistent_grids(self):
        # factor x rescaled_points must reproduce the base grid exactly.
        cfg = with_extras(default_config("scaling"), rescaled_points=16)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_solve_rejects_zero_strong_levels(self):
        cfg = with_extras(default_config("solve"), strong_levels=0)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_solve_keeps_every_strong_level_apart(self):
        # T/2^40 lies within the slab grid's 1e-12 T merge tolerance of
        # T/2^39, so 40 levels would share a slab end: refused before the
        # solve. 39 levels keep 39 distinct sample times, each nearer the
        # data than the one before.
        cfg = with_extras(default_config("solve"), strong_final_ratio="1e-3")
        with pytest.raises(ConfigError, match="strong_levels"):
            run_experiment(with_extras(cfg, strong_levels=40))
        rec = run_experiment(with_extras(cfg, strong_levels=39))
        rows = rec.series["strong_convergence"].rows
        assert len(rows) == len({t for t, _, _ in rows}) == 39
        decreasing = next(c for c in rec.checks if c.name == "strong_distances_decreasing")
        assert decreasing.passed
