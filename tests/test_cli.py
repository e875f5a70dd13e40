"""Tests for config parsing and the command line entry point."""

import csv
from dataclasses import fields
import json
import subprocess
import sys

import pytest

from pla_bench import cli, harness
from pla_bench.attacks import AttackStrategy
from pla_bench.errors import ConfigError, InfeasibleTargetError
from pla_bench.harness import DefenderSpec, ExperimentConfig


TINY_CONFIG = """\
# smoke-test experiment: single carrier, statistical defender
defender.kind = llr
n_subcarriers = 1
rho_AE = 0.5
rho_EB = 0.5
target_pfa = 0.05
n_trials = 2000
n_datasets = 2
seed = 3
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestParseConfig:
    def test_happy_path_fields(self):
        text = (
            "# top comment\n"
            "defender.kind = combined   # trailing comment\n"
            "n_subcarriers = 1, 2, 3\n"
            "rho_AE = 0.1, 0.9\n"
            "target_pfa = 1e-2, 1e-3, 1e-4\n"
            "alpha_II = 0.8\n"
            "n_trials = 5000\n"
            "attacker.kind = exponent\n"
            "attacker.x = 0.5\n"
            "attacker.y = -1\n"
            "attacker.averaged = true\n"
            "seed = 7\n"
        )
        config = cli.parse_config(text)
        assert config.defender.kind == "combined"
        assert config.n_subcarriers == (1, 2, 3)
        assert config.rho_AE == (0.1, 0.9)
        assert config.target_pfa == (1e-2, 1e-3, 1e-4)
        assert config.alpha_II == (0.8,)
        assert config.n_trials == 5000
        assert config.attacker.strategy.kind == "exponent"
        assert config.attacker.strategy.x == 0.5
        assert config.attacker.strategy.y == -1.0
        assert config.attacker.averaged is True
        assert config.seed == 7

    def test_scalar_target_pfa(self):
        config = cli.parse_config("defender.kind = llr\ntarget_pfa = 0.01\n")
        assert config.target_pfa == 0.01

    def test_default_attacker_is_simplified(self):
        config = cli.parse_config("defender.kind = llr\ntarget_pfa = 0.01\n")
        assert config.attacker.strategy.kind == "simplified"
        assert config.attacker.averaged is False

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            cli.parse_config("defender.kind llr\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config("defender.kind = llr\nbogus = 1\n")

    def test_unknown_defender_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config("defender.kind = llr\ndefender.bogus = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            cli.parse_config("defender.kind = ideal\ndefender.ideal_sigma2 = 0.1\n")

    def test_unknown_attacker_key(self):
        with pytest.raises(ConfigError):
            cli.parse_config("defender.kind = llr\nattacker.bogus = 1\n")

    def test_key_set_twice(self):
        # the later value would otherwise run silently in place of the first
        with pytest.raises(ConfigError, match=r"line 4: 'seed' is already set on line 2"):
            cli.parse_config("defender.kind = llr\nseed = 1\ntarget_pfa = 0.01\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"line 3: 'attacker\.x' is already set on line 2"):
            cli.parse_config("defender.kind = llr\nattacker.x = 0.5\nattacker.x = 0.7\n")

    def test_exponent_on_the_default_attack(self):
        # the scaled replay would run unchanged under its own label
        with pytest.raises(ConfigError, match="simplified.*takes no x or y"):
            cli.parse_config("defender.kind = llr\ntarget_pfa = 0.01\nattacker.x = 0.5\n")

    def test_missing_defender_kind(self):
        with pytest.raises(ConfigError, match="defender.kind"):
            cli.parse_config("n_trials = 1000\n")

    def test_bad_numeric_value(self):
        for line in ("n_trials = soon", "attacker.x = abc", "rho_AE = 0.1, high",
                     "target_pfa = 1e-2, low", "record_timing = treu",
                     "attacker.averaged = ture"):
            with pytest.raises(ConfigError, match="line 2"):
                cli.parse_config(f"defender.kind = llr\n{line}\n")

    def test_flags_accept_only_boolean_words(self):
        for word, want in (("TRUE", True), ("Yes", True), ("1", True),
                           ("false", False), ("NO", False), ("0", False)):
            config = cli.parse_config(f"defender.kind = ocnn\nrecord_timing = {word}\n"
                                      f"attacker.averaged = {word}\n")
            assert config.record_timing is want and config.attacker.averaged is want

    def test_config_keys_track_the_dataclasses(self):
        # a field deleted with its key left behind would raise TypeError past main
        assert set(cli._DEFENDER_FIELDS) == {f.name for f in fields(DefenderSpec)}
        assert set(cli._ATTACKER_FIELDS) == {f.name for f in fields(AttackStrategy)} | {"averaged"}
        keys = [*harness._SWEEP_FIELDS, *cli._SCALAR_FIELDS, "target_pfa"]
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(ExperimentConfig)} - {"defender", "attacker"}


class TestRunCommand:
    def test_run_writes_loadable_csv(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "csv"])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["defender"] == "llr"
        assert int(row["n_alice"]) == 2000
        assert 0.0 <= float(row["p_fa"]) <= 1.0

    def test_run_json_meta_and_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "res.json"
        code = cli.main(
            ["run", "--config", str(cfg), "--out", str(out), "--format", "json", "--seed", "11"]
        )
        assert code == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["seed"] == 11
        assert meta["defender"] == "llr"

    def test_run_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        for text in ("n_trials = 1000\n", "defender.kind = llr\nattacker.x = abc\n"):
            cfg = write_config(tmp_path, text)
            code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
            assert code == 2
            assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, TINY_CONFIG)
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--workers", workers])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{cfg}", "--out", "{out}"],
        ["reproduce", "--target", "table2", "--scale", "0.05", "--seed", "-1", "--out", "{out}"],
        ["optimize-thresholds", "--n", "1", "--target-pfa", "0.01",
         "--seed", "18446744073709551616"],
    ], ids=["run", "reproduce", "optimize-thresholds"])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, TINY_CONFIG.replace("seed = 3", "seed = -1"))
        out = tmp_path / "res.csv"
        code = cli.main([a.format(cfg=cfg, out=out) for a in argv])
        assert code == 2
        assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["ideal", "llr", "ocnn"])
    def test_target_pfa_out_of_range_exits_2(self, tmp_path, capsys, kind):
        text = TINY_CONFIG.replace("defender.kind = llr", f"defender.kind = {kind}")
        cfg = write_config(tmp_path, text.replace("target_pfa = 0.05", "target_pfa = 1.5"))
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "target_pfa must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["llr", "ocnn"])
    def test_nan_alpha_exits_2(self, tmp_path, capsys, kind):
        # NaN compares false both ways; it must not reach a calibration or a row
        text = TINY_CONFIG.replace("defender.kind = llr", f"defender.kind = {kind}")
        if kind == "ocnn":
            text = text.replace("target_pfa = 0.05\n", "")
        cfg = write_config(tmp_path, text + "alpha_II = nan\n")
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "alpha_II" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_shard_exits_2_with_its_address(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, "defender.kind = ocsvm\nm_training = 5\n"
                                     "n_trials = 1000\nn_datasets = 2\n")
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(cfg), "--out", str(out), "--workers", workers])
        assert code == 2
        assert "config error: (point 0, dataset 0) " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestOptimizeThresholdsCommand:
    def test_happy_path_prints_json(self, capsys):
        code = cli.main(
            [
                "optimize-thresholds",
                "--n", "1",
                "--target-pfa", "0.01",
                "--n-mc", "20000",
                "--seed", "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["theta", "epsilon", "pfa_estimate", "pmd_estimate", "n_feasible"]
        assert payload["theta"] > 0.0
        assert payload["epsilon"] > 0.0
        assert 0.0 <= payload["pfa_estimate"] <= 1.0
        assert 0.0 <= payload["pmd_estimate"] <= 1.0
        assert payload["n_feasible"] >= 1

    def test_numeric_failure_exits_3(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise InfeasibleTargetError("no grid point reaches the target")

        monkeypatch.setattr(cli, "optimize_thresholds", boom)
        code = cli.main(["optimize-thresholds", "--n", "1", "--target-pfa", "0.01"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestAttackSearchCommand:
    def test_happy_path_finds_symmetric_optimum(self, capsys):
        code = cli.main(
            [
                "attack-search",
                "--n", "1",
                "--rho", "1.0",
                "--target-pfa", "0.01",
                "--grid-step", "0.5",
                "--n-mc", "2000",
                "--calibration-trials", "50000",
                "--seed", "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # with a fully revealing observation every exponent pair forges the
        # same signal, so the tie-break lands on the plain replay (1, 1)
        assert payload["x"] == 1.0
        assert payload["y"] == 1.0
        assert 0.0 <= payload["p_md"] <= 1.0
        assert payload["theta"] > 0.0


    # each bad grid step, and an empty attack draw, which used to be caught
    # only after both calibration draws
    @pytest.mark.parametrize("step, n_mc, field", [
        ("0", "2000", "grid_step"), ("nan", "2000", "grid_step"), ("-0.5", "2000", "grid_step"),
        ("0.1", "0", "n_mc"),
    ], ids=["0", "nan", "-0.5", "n_mc=0"])
    def test_bad_grid_step_exits_2_before_calibrating(self, monkeypatch, capsys, step, n_mc,
                                                      field):
        calls = []
        for name in ("null_calibration", "select_thresholds"):  # every calibration draw
            monkeypatch.setattr(harness, name, lambda *args, **kwargs: calls.append(args))
        code = cli.main(["attack-search", "--n", "1", "--rho", "0.5", "--target-pfa", "0.01",
                         "--grid-step", step, "--n-mc", n_mc,
                         "--calibration-trials", "1000000"])
        assert code == 2
        assert field in capsys.readouterr().err
        assert calls == []


class TestArgparseBehaviour:
    def test_reproduce_rejects_unknown_target(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["reproduce", "--target", "table99"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pla_bench.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("run", "reproduce", "optimize-thresholds", "attack-search"):
            assert name in proc.stdout
