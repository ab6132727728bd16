"""INI experiment configs: defaults, round-trip, strict parsing."""

import configparser
import dataclasses
import math

import pytest

from hyperheat import (EXPERIMENTS, ConfigError, ParameterError, config_digest,
                       default_config, emit_config, load_config, parse_config)


class TestDefaults:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_has_a_default(self, experiment):
        cfg = default_config(experiment)
        assert cfg.experiment == experiment
        assert cfg.seed == 2025

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            default_config("warp")

    def test_derived_weight(self):
        cfg = default_config("solve")
        w = cfg.time_weight()
        assert w.b == pytest.approx(cfg.weight_a / (2.0 * cfg.model.r))
        assert w.T == cfg.solver.horizon
        assert cfg.integration_exponent() == 2.0 * cfg.model.r * cfg.weight_v

    def test_infinite_v_gives_sup_norm_exponent(self):
        cfg = dataclasses.replace(default_config("solve"), weight_v=math.inf)
        assert math.isinf(cfg.integration_exponent())


class TestRoundTrip:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_parse_inverts_emit(self, experiment):
        cfg = default_config(experiment)
        assert parse_config(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("alpha", [2, 1.5])
    def test_model_order_round_trips(self, alpha):
        cfg = default_config("solve")
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, alpha=alpha))
        assert parse_config(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("key", ["alpha", "n"])
    def test_bool_model_parameter_rejected_before_emit(self, key):
        # Emitted, alpha = True would read "alpha = True", which parse_config
        # cannot read back; the model rejects it at construction.
        cfg = default_config("solve")
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg.model, **{key: True})

    @pytest.mark.parametrize("part, key", [
        ("grid", "length"), ("space", "s"), ("space", "p"), ("space", "q"),
        ("space", "s0"), ("solver", "horizon"), ("solver", "dealias_factor"),
        ("time_weight", "b"), ("time_weight", "v"), ("time_weight", "T"),
        ("experiment", "weight_a"), ("experiment", "weight_v")])
    def test_bool_number_rejected_before_emit(self, part, key):
        # bool passes every range check as 1; emitted, it reads "True", which
        # parse_config cannot read back. The same 1.0 as a float round-trips.
        cfg = default_config("solve")

        def with_value(value):
            if part == "experiment":
                return dataclasses.replace(cfg, **{key: value})
            if part == "time_weight":
                return dataclasses.replace(cfg.time_weight(), **{key: value})
            return dataclasses.replace(
                cfg, **{part: dataclasses.replace(getattr(cfg, part), **{key: value})})

        error = ConfigError if part == "experiment" else ParameterError
        with pytest.raises(error, match=key):
            with_value(True)
        numeric = with_value(1.0)
        if part != "time_weight":
            assert parse_config(emit_config(numeric)) == numeric

    def test_digest_is_stable(self):
        cfg = default_config("sweep")
        d1 = config_digest(cfg)
        d2 = config_digest(parse_config(emit_config(cfg)))
        assert d1 == d2
        assert len(d1) == 16
        int(d1, 16)  # hex

    def test_digest_tracks_content(self):
        cfg = default_config("sweep")
        other = dataclasses.replace(cfg, seed=1)
        assert config_digest(cfg) != config_digest(other)

    def test_load_config(self, tmp_path):
        cfg = default_config("criticality")
        path = tmp_path / "c.ini"
        path.write_text(emit_config(cfg))
        assert load_config(path) == cfg

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config("[experiment]\nid = solve\n")
        assert cfg == default_config("solve")

    def test_overrides_apply(self):
        text = "\n".join([
            "[experiment]",
            "id = solve",
            "seed = 99",
            "",
            "[model]",
            "alpha = 2",
            "r = 2.5",
            "",
            "[grid]",
            "points_per_dim = 32",
        ])
        cfg = parse_config(text)
        assert cfg.seed == 99
        assert cfg.model.alpha == 2
        assert isinstance(cfg.model.alpha, int)
        assert cfg.model.r == 2.5
        assert cfg.grid.points_per_dim == 32

    def test_missing_id_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nseed = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config("[experiment]\nid = solve\n\n[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="key"):
            parse_config("[experiment]\nid = solve\n\n[model]\nmass = 1\n")

    def test_removed_quadrature_order_key_rejected(self):
        # The slab quadrature is always piecewise linear; the key is gone.
        with pytest.raises(ConfigError, match="quadrature_order"):
            parse_config("[experiment]\nid = solve\n\n[solver]\nquadrature_order = 2\n")

    def test_removed_beyond_unit_time_key_rejected(self):
        # The smoothing experiment reports no rows past t = 1; its key is gone.
        with pytest.raises(ConfigError, match="report_beyond_unit_time"):
            parse_config("[experiment]\nid = smoothing\nreport_beyond_unit_time = no\n")

    @pytest.mark.parametrize("key, value", [("t_min_frac", "0.0001"),
                                            ("uniform_start_frac", "0.01"),
                                            ("geometric_per_decade", "32")])
    def test_removed_time_grid_keys_rejected(self, key, value):
        # The log-spaced head of the slab grid is fixed; its keys are gone,
        # even when set to the values of that head.
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[experiment]\nid = solve\n\n[solver]\n{key} = {value}\n")

    @pytest.mark.parametrize("section, key", [("solver", "slabs"),
                                              ("grid", "points_per_dim")])
    def test_non_integral_integer_key_rejected(self, section, key):
        with pytest.raises(ConfigError):
            parse_config(f"[experiment]\nid = solve\n\n[{section}]\n{key} = 16.5\n")

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nid = solve\n\n[model]\nr = sometimes\n")

    def test_invalid_model_parameters_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nid = solve\n\n[model]\nalpha = -1\n")

    def test_non_finite_slab_time_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config("[experiment]\nid = solve\n\n[solver]\nhorizon = 0.25\n"
                         "times = 0.1,nan,0.25\n")

    @pytest.mark.parametrize("experiment, key", [("solve", "oracle_tl"),
                                                 ("contraction", "oracle_tol"),
                                                 ("sweep", "seeds")])
    def test_unknown_experiment_key_rejected(self, experiment, key):
        # A misspelled knob, or one of another experiment, would be ignored.
        with pytest.raises(ConfigError, match=key):
            parse_config(f"[experiment]\nid = {experiment}\n{key} = 1\n")

    def test_free_extras_allowed_in_experiment_section(self):
        cfg = parse_config("[experiment]\nid = solve\noracle_tol = 1e-8\n")
        assert cfg.get_float("oracle_tol") == 1e-8


# One non-default value per typed key of the "solve" config, as INI text, and
# the value the parsed config must carry.
OVERRIDES = {
    ("model", "alpha"): ("1.5", 1.5),
    ("model", "r"): ("2.5", 2.5),
    ("model", "n"): ("1", 1),
    ("grid", "points_per_dim"): ("32", 32),
    ("grid", "length"): ("3.0", 3.0),
    ("space", "family"): ("F", "F"),
    ("space", "s"): ("2.5", 2.5),
    ("space", "p"): ("3.0", 3.0),
    ("space", "q"): ("1.0", 1.0),
    ("space", "s0"): ("0.5", 0.5),
    ("time_weight", "a"): ("0.25", 0.25),
    ("time_weight", "v"): ("inf", math.inf),
    ("solver", "horizon"): ("0.5", 0.5),
    ("solver", "slabs"): ("32", 32),
    ("solver", "picard_tol"): ("1e-08", 1e-8),
    ("solver", "picard_max_iter"): ("7", 7),
    ("solver", "dealias_factor"): ("2.0", 2.0),
    ("solver", "times"): ("0.125,0.25", (0.125, 0.25)),
    ("solver", "extra_times"): ("0.1,0.2", (0.1, 0.2)),
}


def carried(cfg, section, key):
    if section == "time_weight":
        return {"a": cfg.weight_a, "v": cfg.weight_v}[key]
    return getattr(getattr(cfg, section), key)


class TestTypedKeys:
    def test_every_emitted_key_has_an_override(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(emit_config(default_config("solve")))
        emitted = {(section, key) for section in parser.sections() if section != "experiment"
                   for key in parser.options(section)}
        assert emitted == set(OVERRIDES)

    @pytest.mark.parametrize("section, key", sorted(OVERRIDES))
    def test_override_parses_and_round_trips(self, section, key):
        text, want = OVERRIDES[section, key]
        assert carried(default_config("solve"), section, key) != want
        cfg = parse_config(f"[experiment]\nid = solve\n\n[{section}]\n{key} = {text}\n")
        assert carried(cfg, section, key) == want
        assert type(carried(cfg, section, key)) is type(want)
        assert parse_config(emit_config(cfg)) == cfg


class TestExtrasAccessors:
    def test_typed_accessors(self):
        cfg = default_config("smoothing")
        assert cfg.get_int("window_samples") == 20
        assert cfg.get_float("slope_tol") == 0.05
        assert cfg.get_pairs("pairs") == ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 4.0))

    def test_float_list(self):
        cfg = default_config("stability")
        deltas = cfg.get_floats("delta_grid")
        assert deltas[0] == 1e-4 and len(deltas) == 5

    def test_missing_key_without_default(self):
        cfg = default_config("solve")
        with pytest.raises(ConfigError):
            cfg.get_float("absent")

    def test_malformed_values(self):
        cfg = dataclasses.replace(default_config("smoothing"),
                                  extras={"pairs": "1:2:3", "n": "x"})
        with pytest.raises(ConfigError):
            cfg.get_pairs("pairs")
        with pytest.raises(ConfigError):
            cfg.get_int("n")

    def test_infinity_spelled_inf(self):
        cfg = dataclasses.replace(default_config("solve"),
                                  extras={"v": "inf"})
        assert math.isinf(cfg.get_float("v"))


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(default_config("solve"), seed=-1)

    def test_bad_experiment_name_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(default_config("solve"), experiment="nope")
