"""Experiment configuration: flat key-value text with typed sections.

The on-disk format is INI. [experiment] holds the id, the seed, and any
experiment-specific keys (kept as strings); the typed sections [model],
[grid], [space], [time_weight], [solver] are read from one table,
``_sections``, and reject unknown keys. Parsing starts from the
per-experiment defaults, so a config file only needs the keys it overrides.
parse_config(emit_config(cfg)) round-trips exactly.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields

from .dyadic import SpaceParams
from .errors import ConfigError, _reject_bools
from .grid import TorusGrid
from .semigroup import ModelParams
from .solver import SolverConfig
from .timenorms import TimeWeight

EXPERIMENTS = ("smoothing", "scaling", "criticality", "contraction", "stability",
               "solve", "sweep")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    model: ModelParams
    grid: TorusGrid
    space: SpaceParams
    weight_a: float
    weight_v: float
    solver: SolverConfig
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {', '.join(EXPERIMENTS)}")
        _reject_bools(self, ("seed", "weight_a", "weight_v"), ConfigError)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def time_weight(self):
        """TimeWeight with b = a/(2r) over the solver horizon."""
        return TimeWeight(b=self.weight_a / (2.0 * self.model.r), v=self.weight_v,
                          T=self.solver.horizon)

    def integration_exponent(self):
        """The exponent 2 r v used for trajectory norms (inf at v = inf)."""
        if math.isinf(self.weight_v):
            return math.inf
        return 2.0 * self.model.r * self.weight_v

    def get_str(self, key):
        value = self.extras.get(key)
        if value is None:
            raise ConfigError(f"experiment key {key!r} is required")
        return value

    def get_float(self, key):
        raw = self.get_str(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be a number, got {raw!r}") from exc

    def get_int(self, key):
        raw = self.get_str(key)
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be an integer, got {raw!r}") from exc

    def get_floats(self, key, count=None):
        """The comma-separated numbers under ``key``, ``count`` of them if given."""
        raw = self.get_str(key)
        try:
            values = tuple(float(part) for part in raw.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be comma-separated numbers, "
                              f"got {raw!r}") from exc
        if count is not None and len(values) != count:
            raise ConfigError(f"experiment key {key!r} must hold {count} numbers, got {raw!r}")
        return values

    def get_pairs(self, key):
        """Parse 'a:b,c:d' into ((a, b), (c, d)) of floats."""
        raw = self.get_str(key)
        pairs = []
        try:
            for part in raw.split(","):
                part = part.strip()
                if not part:
                    continue
                left, right = part.split(":")
                pairs.append((float(left), float(right)))
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must look like 'a:b,c:d', "
                              f"got {raw!r}") from exc
        return tuple(pairs)


_DEFAULT_EXTRAS = {
    "smoothing": {
        "pairs": "1:1,1:2,2:2,2:4",
        "window_samples": "20",
        "envelope_fields": "6",
        "envelope_slack": "1.25",
        "slope_tol": "0.05",
    },
    "scaling": {
        "pairs": "1:3,2:3",
        "rescale_factor": "2",
        "rescaled_points": "32",
        "band_radius": "1.9",
        "amplitude": "0.001",
        "mismatch_tol": "1e-5",
    },
    "criticality": {
        "n_list": "1,2,4",
        "p_list": "1,2,inf",
        "alpha_list": "1,2",
        "r_list": "2,3",
        "sample_offset": "0.5",
    },
    "contraction": {
        "t_top": "0.4",
        "halvings": "6",
        "sample_pairs": "4",
        "band_radius": "1.9",
    },
    "stability": {
        "delta_grid": "1e-4,2e-4,1e-3,2e-3,1e-2",
        "amplitude": "0.001",
        "band_radius": "1.9",
        "threshold_delta": "1e-4",
        "deviation_tol": "1e-3",
    },
    "solve": {
        "amplitude": "0.001",
        "band_radius": "1.9",
        "oracle_tol": "1e-6",
        "residual_tol": "1e-4",
        "strong_levels": "6",
        "strong_final_ratio": "",
    },
    "sweep": {
        "tuples": "20000",
        "alpha_choices": "1,2,3",
        "r_range": "2,4",
        "v_range": "0.51,4",
        "a_floor": "-3",
        "gap_max": "1.5",
    },
}


def default_config(experiment):
    """Acceptance-grade defaults for one experiment."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    model = ModelParams(alpha=1, r=3.0, n=2)
    grid = TorusGrid(n=2, points_per_dim=64)
    space = SpaceParams("B", 1.5, 2.0, 2.0, s0=1.5)
    solver = SolverConfig(horizon=0.25)
    if experiment == "smoothing":
        model = ModelParams(alpha=1, r=3.0, n=1)
        grid = TorusGrid(n=1, points_per_dim=512)
        space = SpaceParams("B", 0.0, 2.0, 2.0, s0=0.0)
    elif experiment == "contraction":
        grid = TorusGrid(n=2, points_per_dim=32)
        solver = SolverConfig(horizon=0.4, slabs=64)
    elif experiment == "stability":
        solver = SolverConfig(horizon=0.1, slabs=96)
    elif experiment == "scaling":
        solver = SolverConfig(horizon=0.25, slabs=96)
    extras = dict(_DEFAULT_EXTRAS.get(experiment, {}))
    return ExperimentConfig(experiment=experiment, seed=2025, model=model, grid=grid,
                            space=space, weight_a=0.5, weight_v=1.0, solver=solver,
                            extras=extras)


def _sections(cfg):
    """The typed INI sections of a config as ``{section: {key: value}}``: every
    field of the model, space and solver; [grid] takes its dimension from n."""
    def fields_of(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}

    return {
        "model": fields_of(cfg.model),
        "grid": {"points_per_dim": cfg.grid.points_per_dim, "length": cfg.grid.length},
        "space": fields_of(cfg.space),
        "time_weight": {"a": cfg.weight_a, "v": cfg.weight_v},
        "solver": fields_of(cfg.solver),
    }


def _text(value):
    """INI text of a value: floats in round-trip form, tuples comma-separated."""
    if isinstance(value, tuple):
        return ",".join(_text(float(x)) for x in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def _coerce(key, raw, default):
    """Parse INI text to the type of the key's default. Integer keys reject
    non-integral text; alpha alone may be an integer or a float."""
    if key == "alpha":
        value = float(raw)
        return int(value) if value.is_integer() else value
    if isinstance(default, tuple):
        return tuple(float(x) for x in raw.split(",") if x.strip())
    return type(default)(raw)


def emit_config(cfg):
    """Serialize a config to the INI text form; deterministic key order."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["experiment"] = {"id": cfg.experiment, "seed": str(cfg.seed)}
    for key in sorted(cfg.extras):
        parser["experiment"][key] = str(cfg.extras[key])
    for section, values in _sections(cfg).items():
        parser[section] = {key: _text(value) for key, value in values.items()}
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


def parse_config(text):
    """Parse the INI text form, starting from the experiment's defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not parser.has_section("experiment") or not parser.has_option("experiment", "id"):
        raise ConfigError("config must carry [experiment] with an 'id' key")
    experiment = parser.get("experiment", "id")
    base = default_config(experiment)
    table = _sections(base)
    for section in parser.sections():
        if section == "experiment":
            continue
        if section not in table:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser.options(section)) - set(table[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    unknown = set(parser.options("experiment")) - {"id", "seed"} - set(base.extras)
    if unknown:
        raise ConfigError(f"unknown keys in [experiment]: {', '.join(sorted(unknown))}")
    extras = {**base.extras, **parser["experiment"]}
    del extras["id"]
    try:
        seed = int(extras.pop("seed", base.seed))
    except ValueError as exc:
        raise ConfigError("seed must be an integer") from exc
    try:
        for section, values in table.items():
            for key, raw in (parser[section].items() if section in parser else ()):
                values[key] = _coerce(key, raw, values[key])
        model = ModelParams(**table["model"])
        grid = TorusGrid(n=model.n, **table["grid"])
        space = SpaceParams(**table["space"])
        solver = SolverConfig(**table["solver"])
    except ValueError as exc:  # a ParameterError or text of the wrong type
        raise ConfigError(f"invalid value: {exc}") from exc
    weight = table["time_weight"]
    return ExperimentConfig(experiment=experiment, seed=seed, model=model, grid=grid,
                            space=space, weight_a=weight["a"], weight_v=weight["v"],
                            solver=solver, extras=extras)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_digest(cfg):
    """Short stable digest of the canonical serialized form."""
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()[:16]
