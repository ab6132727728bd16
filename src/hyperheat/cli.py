"""Command-line entry point: run one experiment and emit its results.

Usage: hyperheat <experiment> [--config FILE] [--out DIR] [--seed N]

Exit codes: 0 when every declared check passed, 2 when at least one
tolerance check failed, 1 on configuration or runtime errors. No
environment variable is consulted (every transform runs on one thread);
everything comes from the config file.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import EXPERIMENTS, ConfigError, default_config, load_config
from .errors import HyperheatError
from .experiments import run_experiment
from .records import emit_results

_DESCRIPTIONS = {
    "smoothing": "fit semigroup norm-inflation rates and bound weighted ratios",
    "scaling": "verify the rescaling symmetry of computed solutions",
    "criticality": "tabulate critical smoothness over a parameter sweep",
    "contraction": "measure Lipschitz ratios of the solution operator per horizon",
    "stability": "measure deviation growth under perturbed initial data",
    "solve": "run one fixed-point solve with oracle, residual, and convergence checks",
    "sweep": "cross-check the admissibility window against the derived sign exponents",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperheat",
        description="Construct mild solutions of the hyperdissipative equation "
                    "du/dt + (-Laplace)^alpha u = |u|^(r-1) u on a periodic grid "
                    "and run quantitative verification experiments.")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for verb in EXPERIMENTS:
        p = sub.add_parser(verb, help=_DESCRIPTIONS[verb], description=_DESCRIPTIONS[verb])
        p.add_argument("--config", metavar="FILE",
                       help="experiment config (INI); defaults baked in per experiment")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default: results/<experiment>)")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
            if cfg.experiment != args.experiment:
                raise ConfigError(
                    f"config declares experiment {cfg.experiment!r} but the "
                    f"{args.experiment!r} command was invoked")
        else:
            cfg = default_config(args.experiment)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        record = run_experiment(cfg)
        out_dir = Path(args.out) if args.out else Path("results") / cfg.experiment
        paths = emit_results(record, out_dir)
    except (HyperheatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in record.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.value:.6g} {check.comparison} "
              f"{check.bound:.6g}")
    for note in record.notes:
        print(f"note: {note}")
    print(f"wrote {paths[0]}")
    verdict = "PASS" if record.passed else "FAIL"
    print(f"{cfg.experiment}: {verdict} ({len(record.checks)} checks)")
    return 0 if record.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
