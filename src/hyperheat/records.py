"""Structured experiment results and deterministic file emission.

Each experiment produces one ResultRecord: scalar metrics, tolerance
checks (each carrying the quantity it probes), and named data series.
``emit_results`` writes a schema-versioned JSON record plus one CSV per
series; identical records produce byte-identical files.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ParameterError

SCHEMA_VERSION = 1

_COMPARATORS = {
    "<=": lambda value, bound: value <= bound,
    ">=": lambda value, bound: value >= bound,
    "==": lambda value, bound: value == bound,
}


@dataclass(frozen=True)
class Check:
    """One tolerance check: value `comparison` bound, plus what it probes."""

    name: str
    probes: str
    value: float
    comparison: str
    bound: float
    passed: bool


@dataclass(frozen=True)
class Series:
    """A plot-ready table: column names and float rows."""

    columns: tuple
    rows: tuple


@dataclass
class ResultRecord:
    experiment: str
    config_digest: str
    seed: int
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add_metric(self, name, value):
        self.metrics[name] = float(value)

    def add_check(self, name, probes, value, comparison, bound):
        if comparison not in _COMPARATORS:
            raise ParameterError(f"unknown comparison {comparison!r}")
        value = float(value)
        passed = bool(_COMPARATORS[comparison](value, float(bound)))
        if math.isnan(value):
            passed = False
        check = Check(name=name, probes=probes, value=value, comparison=comparison,
                      bound=float(bound), passed=passed)
        self.checks.append(check)
        self.metrics[name] = value
        return check

    def add_series(self, name, columns, rows):
        self.series[name] = Series(columns=tuple(columns),
                                   rows=tuple(tuple(float(x) for x in row) for row in rows))

    def add_note(self, text):
        self.notes.append(str(text))

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "passed": self.passed,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "checks": [asdict(c) for c in self.checks],
            "series": sorted(self.series),
            "notes": list(self.notes),
        }


def _format_value(x):
    # repr gives the shortest round-trip form, so files are deterministic.
    return repr(float(x))


def emit_results(record, out_dir):
    """Write record.json and one <series>.csv per series; returns the paths.

    A record with no series yields only the JSON file; empty series yield
    header-only CSVs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    record_path = out / "record.json"
    record_path.write_text(json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n")
    paths.append(record_path)
    for name in sorted(record.series):
        series = record.series[name]
        lines = [",".join(series.columns)]
        for row in series.rows:
            lines.append(",".join(_format_value(x) for x in row))
        csv_path = out / f"{name}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        paths.append(csv_path)
    return paths
