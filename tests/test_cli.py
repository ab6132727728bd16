"""Command-line interface: exit codes, emitted files, determinism."""

import json

import pytest

from hyperheat import default_config, emit_config
from hyperheat.cli import build_parser, main

# The sweep verb is the cheapest end-to-end run; a small tuple budget keeps
# each CLI invocation here well under a second.
FAST_SWEEP = "[experiment]\nid = sweep\ntuples = 500\n"
# A solve on a 16^2 grid with 48 uniform slabs (enough for the residual
# check to pass): every check and series of the full verb, in well under a second.
FAST_SOLVE = ("[experiment]\nid = solve\n\n[grid]\npoints_per_dim = 16\n\n"
              "[solver]\nhorizon = 0.25\nslabs = 48\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParser:
    def test_all_experiments_are_verbs(self):
        parser = build_parser()
        for verb in ("smoothing", "scaling", "criticality", "contraction",
                     "stability", "solve", "sweep"):
            args = parser.parse_args([verb])
            assert args.experiment == verb

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_missing_verb_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS equivalence_agreement" in out
        assert "sweep: PASS" in out

    def test_failing_check_is_two(self, tmp_path, capsys):
        # An unreachable tolerance turns a healthy run into a reported FAIL.
        cfg = write(tmp_path, "smoothing.ini",
                    "[experiment]\nid = smoothing\nslope_tol = 1e-9\n")
        code = main(["smoothing", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_missing_config_is_one(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", "[experiment]\nid = sweep\n\n[bogus]\nx = 1\n")
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_verb_config_mismatch_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "declares experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("r_range = 2,3,4", "r_range"),
                                           ("v_range = 1", "v_range"),
                                           ("alpha_choices = 1.5", "alpha_choices"),
                                           ("alpha_choices = 1,2.5,3", "alpha_choices"),
                                           ("alpha_choices =", "alpha_choices")])
    def test_malformed_sweep_knob_is_one(self, tmp_path, capsys, line, key):
        # A range of other than two numbers used to end in an unpacking
        # traceback, alpha 1.5 ran silently as alpha 1, and no alpha at all
        # failed inside numpy's choice.
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP + line + "\n")
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_negative_seed_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        code = main(["sweep", "--config", cfg, "--seed", "-3",
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestOutputs:
    def test_record_and_series_written(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["experiment"] == "sweep"
        assert record["passed"] is True
        assert (out / "sweep_sample.csv").exists()

    def test_seed_override_lands_in_record(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--seed", "42",
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["seed"] == 42

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", FAST_SWEEP)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "record.json").read_bytes() == (b / "record.json").read_bytes()
        assert (a / "sweep_sample.csv").read_bytes() == (b / "sweep_sample.csv").read_bytes()

    def test_solve_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "solve.ini", FAST_SOLVE)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(b)]) == 0
        written = sorted(p.name for p in a.iterdir())
        assert written == sorted(p.name for p in b.iterdir())
        assert "record.json" in written
        assert {"strong_convergence.csv", "trajectory_norms.csv"} <= set(written)
        for name in written:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_default_config_round_trips_through_cli(self, tmp_path, capsys):
        # Emitting the baked-in defaults and feeding them back must agree
        # with running on the defaults directly.
        text = emit_config(default_config("criticality"))
        cfg = write(tmp_path, "crit.ini", text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["criticality", "--config", cfg, "--out", str(a)]) == 0
        assert main(["criticality", "--out", str(b)]) == 0
        assert (a / "record.json").read_bytes() == (b / "record.json").read_bytes()
