"""The README's examples run as written: its minimal solve and its config,
and every name the package exports for them resolves."""

import re
from pathlib import Path

import hyperheat
from hyperheat import default_config, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(language):
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_minimal_solve_runs():
    namespace = {}
    exec(compile(fenced_block("python"), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.converged
    assert namespace["u_final"].grid == namespace["grid"]


def test_config_block_parses():
    cfg = parse_config(fenced_block("ini"))
    assert cfg.experiment == "solve"
    assert cfg == default_config("solve")


def test_every_exported_name_resolves():
    missing = [name for name in hyperheat.__all__ if not hasattr(hyperheat, name)]
    assert missing == []
    assert len(set(hyperheat.__all__)) == len(hyperheat.__all__)
