"""Experiment configuration: flat key-value text with typed sections.

The on-disk format is INI. [experiment] holds the id, the seed, and any
experiment-specific keys (kept as strings); the typed sections [model],
[grid], [space], [time_weight], [solver] reject unknown keys. Parsing
starts from the per-experiment defaults, so a config file only needs the
keys it overrides. parse_config(emit_config(cfg)) round-trips exactly.
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field

from .dyadic import SpaceParams
from .errors import ConfigError, ParameterError
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

    def get_str(self, key, default=None):
        value = self.extras.get(key, default)
        if value is None:
            raise ConfigError(f"experiment key {key!r} is required")
        return value

    def get_float(self, key, default=None):
        raw = self.get_str(key, default if default is None else repr(float(default)))
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be a number, got {raw!r}") from exc

    def get_int(self, key, default=None):
        raw = self.get_str(key, default if default is None else str(int(default)))
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be an integer, got {raw!r}") from exc

    def get_floats(self, key, default=None):
        raw = self.get_str(key, default)
        try:
            return tuple(float(part) for part in raw.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"experiment key {key!r} must be comma-separated numbers, "
                              f"got {raw!r}") from exc

    def get_pairs(self, key, default=None):
        """Parse 'a:b,c:d' into ((a, b), (c, d)) of floats."""
        raw = self.get_str(key, default)
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
        "report_beyond_unit_time": "no",
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


def _float_repr(x):
    x = float(x)
    return repr(x)


def emit_config(cfg):
    """Serialize a config to the INI text form; deterministic key order."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["experiment"] = {"id": cfg.experiment, "seed": str(cfg.seed)}
    for key in sorted(cfg.extras):
        parser["experiment"][key] = str(cfg.extras[key])
    parser["model"] = {
        "alpha": _float_repr(cfg.model.alpha),
        "r": _float_repr(cfg.model.r),
        "n": str(cfg.model.n),
    }
    parser["grid"] = {
        "points_per_dim": str(cfg.grid.points_per_dim),
        "length": _float_repr(cfg.grid.length),
    }
    parser["space"] = {
        "family": cfg.space.family,
        "s": _float_repr(cfg.space.s),
        "p": _float_repr(cfg.space.p),
        "q": _float_repr(cfg.space.q),
        "s0": _float_repr(cfg.space.s0),
    }
    parser["time_weight"] = {
        "a": _float_repr(cfg.weight_a),
        "v": _float_repr(cfg.weight_v),
    }
    solver = cfg.solver
    parser["solver"] = {
        "horizon": _float_repr(solver.horizon),
        "slabs": str(solver.slabs),
        "picard_tol": _float_repr(solver.picard_tol),
        "picard_max_iter": str(solver.picard_max_iter),
        "dealias_factor": _float_repr(solver.dealias_factor),
        "t_min_frac": _float_repr(solver.t_min_frac),
        "uniform_start_frac": _float_repr(solver.uniform_start_frac),
        "geometric_per_decade": str(solver.geometric_per_decade),
        "times": ",".join(_float_repr(t) for t in solver.times) if solver.times else "",
        "extra_times": ",".join(_float_repr(t) for t in solver.extra_times),
    }
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


_SECTION_KEYS = {
    "model": {"alpha", "r", "n"},
    "grid": {"points_per_dim", "length"},
    "space": {"family", "s", "p", "q", "s0"},
    "time_weight": {"a", "v"},
    "solver": {"horizon", "slabs", "picard_tol", "picard_max_iter", "dealias_factor",
               "t_min_frac", "uniform_start_frac", "geometric_per_decade", "times",
               "extra_times"},
}


def _get(parser, section, key, fallback):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return fallback


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
    for section in parser.sections():
        if section != "experiment" and section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        if section in _SECTION_KEYS:
            unknown = set(parser.options(section)) - _SECTION_KEYS[section]
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    experiment = parser.get("experiment", "id")
    base = default_config(experiment)
    extras = dict(base.extras)
    seed = base.seed
    for key in parser.options("experiment"):
        if key == "id":
            continue
        if key == "seed":
            try:
                seed = int(parser.get("experiment", "seed"))
            except ValueError as exc:
                raise ConfigError("seed must be an integer") from exc
            continue
        extras[key] = parser.get("experiment", key)
    try:
        alpha_raw = float(_get(parser, "model", "alpha", base.model.alpha))
        alpha = int(alpha_raw) if float(alpha_raw).is_integer() else alpha_raw
        model = ModelParams(alpha=alpha,
                            r=float(_get(parser, "model", "r", base.model.r)),
                            n=int(_get(parser, "model", "n", base.model.n)))
        grid = TorusGrid(n=model.n,
                         points_per_dim=int(_get(parser, "grid", "points_per_dim",
                                                 base.grid.points_per_dim)),
                         length=float(_get(parser, "grid", "length", base.grid.length)))
        space = SpaceParams(_get(parser, "space", "family", base.space.family),
                            float(_get(parser, "space", "s", base.space.s)),
                            float(_get(parser, "space", "p", base.space.p)),
                            float(_get(parser, "space", "q", base.space.q)),
                            s0=float(_get(parser, "space", "s0", base.space.s0)))
        times_raw = _get(parser, "solver", "times", "")
        extra_raw = _get(parser, "solver", "extra_times", "")
        times = tuple(float(x) for x in times_raw.split(",") if x.strip()) or None
        extra_times = tuple(float(x) for x in extra_raw.split(",") if x.strip())
        solver = SolverConfig(
            horizon=float(_get(parser, "solver", "horizon", base.solver.horizon)),
            slabs=int(_get(parser, "solver", "slabs", base.solver.slabs)),
            picard_tol=float(_get(parser, "solver", "picard_tol", base.solver.picard_tol)),
            picard_max_iter=int(_get(parser, "solver", "picard_max_iter",
                                     base.solver.picard_max_iter)),
            dealias_factor=float(_get(parser, "solver", "dealias_factor",
                                      base.solver.dealias_factor)),
            t_min_frac=float(_get(parser, "solver", "t_min_frac", base.solver.t_min_frac)),
            uniform_start_frac=float(_get(parser, "solver", "uniform_start_frac",
                                          base.solver.uniform_start_frac)),
            geometric_per_decade=int(_get(parser, "solver", "geometric_per_decade",
                                          base.solver.geometric_per_decade)),
            times=times,
            extra_times=extra_times,
        )
        weight_a = float(_get(parser, "time_weight", "a", base.weight_a))
        weight_v = float(_get(parser, "time_weight", "v", base.weight_v))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"malformed value: {exc}") from exc
    return ExperimentConfig(experiment=experiment, seed=seed, model=model, grid=grid,
                            space=space, weight_a=weight_a, weight_v=weight_v,
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
