"""Command-line contract: subcommands, exit codes, artifacts."""

import json

import numpy as np
from trustgate.cli import parse_and_run


def run_cli(capsys, *argv):
    code = parse_and_run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_exit_zero_and_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["passed"] for r in reports)
        assert all(set(r) == {"name", "passed", "max_error", "detail"} for r in reports)


    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert "usage:" in err and "non-negative" in err


class TestLandscape:
    def test_grid_size_bound(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, _ = run_cli(
            capsys,
            "landscape",
            "--objective", "nll",
            "--p-steps", "2",
            "--h-steps", "2",
            "--vocab", "4",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p,entropy,magnitude"
        assert len(lines) - 1 <= 4

    def test_json_format(self, tmp_path, capsys):
        out_path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys,
            "landscape",
            "--objective", "deft",
            "--p-steps", "3",
            "--h-steps", "4",
            "--vocab", "8",
            "--out", str(out_path),
            "--format", "json",
        )
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["objective"] == "deft" and body["normalization"] == "per-grid"

    def test_unnormalizable_grid_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, err = run_cli(
            capsys,
            "landscape",
            "--objective", "alpha:1e308",
            "--p-steps", "5",
            "--h-steps", "5",
            "--vocab", "8",
            "--out", str(out_path),
        )
        assert code == 2
        assert "alpha:1e+308" in err and "normalized" in err
        assert not out_path.exists()

    def test_unknown_objective_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "landscape",
            "--objective", "focal",
            "--p-steps", "2",
            "--h-steps", "2",
            "--vocab", "8",
            "--out", str(tmp_path / "g.csv"),
        )
        assert code == 2
        assert "focal" in err


class TestTrain:
    def _config(self, tmp_path, **overrides):
        body = {
            "regime": "weak",
            "vocab_size": 32,
            "num_contexts": 64,
            "objective": "deft",
            "learning_rate": 0.5,
            "steps": 10,
            "seed": 3,
        }
        body.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        return path

    def test_run_and_record(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out_path = tmp_path / "run.json"
        code, out, _ = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 0
        record = json.loads(out_path.read_text())
        assert set(record) == {"config", "mean_target_p", "mean_alpha", "quadrants", "histograms"}
        assert len(record["mean_target_p"]) == 10
        summary = json.loads(out)
        assert summary["objective"] == "deft"

    def test_flags_override_config(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out_path = tmp_path / "run.json"
        code, _, _ = run_cli(
            capsys,
            "train",
            "--config", str(config),
            "--out", str(out_path),
            "--objective", "linear",
            "--steps", "4",
        )
        assert code == 0
        record = json.loads(out_path.read_text())
        assert record["config"]["objective"] == "linear"
        assert record["config"]["steps"] == 4

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")
        )
        assert code == 2
        assert "missing.json" in err

    def test_unknown_field_named_in_error(self, tmp_path, capsys):
        config = self._config(tmp_path, warmup=5)
        code, _, err = run_cli(
            capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json")
        )
        assert code == 2
        assert "warmup" in err

    def test_bad_field_type_exits_two(self, tmp_path, capsys):
        config = self._config(tmp_path, steps="lots")
        code, _, err = run_cli(
            capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json")
        )
        assert code == 2
        assert "steps" in err

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        config = self._config(tmp_path)
        code, _, err = run_cli(
            capsys,
            "train",
            "--config", str(config),
            "--out", str(tmp_path / "o.json"),
            "--seed", "-3",
        )
        assert code == 2
        assert "usage:" in err

    def test_negative_config_seed_exits_two(self, tmp_path, capsys):
        config = self._config(tmp_path, task_seed=-1)
        code, _, err = run_cli(
            capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json")
        )
        assert code == 2
        assert "task_seed" in err

    def test_impossible_conflict_spec_exits_two(self, tmp_path, capsys):
        """Confident-only conflicts on a weak prior are a config error, caught before any work."""
        config = self._config(tmp_path, conflict_fraction=0.5)
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 2
        assert "confident_only" in err and out == ""
        assert not out_path.exists()

    def test_determinism_across_invocations(self, tmp_path, capsys):
        config = self._config(tmp_path)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(capsys, "train", "--config", str(config), "--out", str(first))[0] == 0
        assert run_cli(capsys, "train", "--config", str(config), "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestDuality:
    def test_proper_rule_recovers_truth(self, tmp_path, capsys):
        out_path = tmp_path / "d.json"
        code, out, _ = run_cli(
            capsys,
            "duality",
            "--r", "0.8,0.2",
            "--alpha", "0.5",
            "--rule", "proper",
            "--out", str(out_path),
        )
        assert code == 0
        body = json.loads(out_path.read_text())
        assert body["rule"] == "proper"
        assert abs(body["risk"] - body["tsallis_entropy"]) <= 1e-3
        minimizer = np.array(body["minimizer"])
        assert float(np.abs(minimizer - np.array([0.8, 0.2])).max()) <= 0.01

    def test_main_rule_reports_shifted_minimizer(self, capsys):
        code, out, _ = run_cli(capsys, "duality", "--r", "0.8,0.2", "--alpha", "0.5", "--rule", "main")
        assert code == 0
        body = json.loads(out)
        minimizer = np.array(body["minimizer"])
        assert float(np.abs(minimizer - np.array([0.8, 0.2])).max()) > 0.05

    def test_malformed_distribution_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "duality", "--r", "0.8;0.2", "--alpha", "0.5")
        assert code == 2

    def test_invalid_distribution_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "duality", "--r", "0.8,0.1", "--alpha", "0.5")
        assert code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "verify", "--sneed", "7")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2
