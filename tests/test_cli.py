"""Command-line contract: subcommands, exit codes, artifacts."""

import dataclasses
import json
import os
import random

import numpy as np
import pytest
from trustgate import (
    NLL, DomainError, ObjectiveKind, RegimeSpec, build_task, cli, trainer, tsallis_entropy, verification,
)
from trustgate.cli import parse_and_run
from trustgate.landscape import MAX_GRID_ENTRIES


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


    def test_timings_line_on_stderr_changes_no_other_byte(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "7")
        assert code == 0 and err == ""
        code, timed_out, timed_err = run_cli(capsys, "verify", "--seed", "7", "--timings")
        assert code == 0 and timed_out == out
        (line,) = timed_err.splitlines()
        timings = json.loads(line)
        assert list(timings) == [
            "qlog", "deformed-loss", "concentration", "mobius", "gradient", "gate", "jacobian",
            "duality", "index-relation", "gate-limit", "flow", "peak", "landscape",
        ]
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert all(set(r) == {"name", "passed", "max_error", "detail"} for r in json.loads(timed_out))

    def test_library_fault_in_suite_exits_one(self, monkeypatch, capsys):
        """A sub-suite that raises prints as one failing report, and verify exits 1, not 2 (usage)."""
        mobius_alpha = verification.mobius_alpha
        monkeypatch.setattr(verification, "mobius_alpha", lambda z, kappa: mobius_alpha(z, kappa) * (1.0 + 1e-3))
        code, out, err = run_cli(capsys, "verify")
        assert code == 1 and err == ""
        failed = [r for r in json.loads(out) if not r["passed"]]
        assert [r["name"] for r in failed] == ["suite-mobius-raised"]
        assert failed[0]["detail"].startswith("DomainError: radius must lie in [0, 1]")

    def test_negative_seed_is_usage_error(self, capsys):
        """run_property_suite refuses the seed before any work, in one error line."""
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"


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

    @pytest.mark.parametrize("vocab", ["-5", "0", "2"])
    def test_small_vocabulary_is_usage_error(self, vocab, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, _, err = run_cli(
            capsys,
            "landscape",
            "--objective", "nll",
            "--p-steps", "2",
            "--h-steps", "2",
            "--vocab", vocab,
            "--out", str(out_path),
        )
        assert code == 2
        assert err == f"error: vocabulary must lie in [3, {MAX_GRID_ENTRIES}], got {vocab}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("axis", ["p", "h"])
    @pytest.mark.parametrize("steps", ["-1", "0"])
    def test_empty_grid_is_usage_error(self, axis, steps, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        counts = {"p": "2", "h": "2", axis: steps}
        code, out, err = run_cli(
            capsys,
            "landscape",
            "--objective", "nll",
            "--p-steps", counts["p"],
            "--h-steps", counts["h"],
            "--vocab", "8",
            "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: {axis}_steps must be >= 1, got {steps}\n"
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

    def test_subnormal_fixed_exponent_is_usage_error(self, tmp_path, capsys):
        """alpha:1e-320 is subnormal: its loss would be off by up to 100 % relative."""
        out_path = tmp_path / "g.csv"
        code, out, err = run_cli(
            capsys,
            "landscape",
            "--objective", "alpha:1e-320",
            "--p-steps", "2",
            "--h-steps", "2",
            "--vocab", "8",
            "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err == "error: fixed exponent alpha must be finite and >= 2.2250738585072014e-308, got 1e-320\n"
        assert not out_path.exists()

    def _no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("gradient_landscape must not run")

        monkeypatch.setattr(cli, "gradient_landscape", refuse)

    def _landscape(self, capsys, p_steps, out, objective="nll"):
        return run_cli(
            capsys,
            "landscape",
            "--objective", objective,
            "--p-steps", str(p_steps),
            "--h-steps", "256",
            "--vocab", "32",
            "--out", out,
        )

    def test_oversized_grid_exits_two_before_work(self, tmp_path, monkeypatch, capsys):
        """2049 x 256 steps at vocabulary 32 is one column past the bound."""
        self._no_grid(monkeypatch)
        code, out, err = self._landscape(capsys, 2049, str(tmp_path / "g.csv"))
        assert code == 2 and out == ""
        assert "a 2049 x 256 grid at vocabulary 32 exceeds 16777216 entries" in err
        assert os.listdir(tmp_path) == []

    def test_missing_out_directory_fails_before_the_grid(self, tmp_path, monkeypatch, capsys):
        """An --out whose directory is missing exits 1 naming the given path, before any work."""
        self._no_grid(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = self._landscape(capsys, 2048, "nodir/x.csv")
        assert code == 1 and out == ""
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.csv'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("p_steps, objective, message", [(2049, "nll", "exceeds"), (2, "focal", "focal")])
    def test_usage_errors_take_precedence_over_a_bad_out(
        self, p_steps, objective, message, tmp_path, monkeypatch, capsys
    ):
        self._no_grid(monkeypatch)
        code, _, err = self._landscape(capsys, p_steps, str(tmp_path / "nodir" / "x.csv"), objective)
        assert code == 2 and message in err


_TRAIN_DATACLASS_FIELDS = [*dataclasses.fields(RegimeSpec), *dataclasses.fields(trainer.TrainConfig)]
# JSON values of the wrong type, by the annotation of the dataclass field: true, a
# float where a count is due, a string where a number is due, a number where text is
# due, and null where None is not a default.
_WRONGLY_TYPED = {
    "str": [True, 3, None],
    "ObjectiveKind": [True, 5, None],
    "int": [True, 8.0, "8", None],
    "int | None": [True, 8.0, "8"],
    "float": [True, "0.5", None],
}


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

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_subnormal_fixed_exponent_exits_two(self, where, tmp_path, capsys):
        config = self._config(tmp_path, **({"objective": "alpha:1e-320"} if where == "config" else {}))
        out_path = tmp_path / "run.json"
        flags = ["--objective", "alpha:1e-320"] if where == "flag" else []
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path), *flags)
        assert code == 2 and out == ""
        assert err == "error: fixed exponent alpha must be finite and >= 2.2250738585072014e-308, got 1e-320\n"
        assert not out_path.exists()

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
        assert err == "error: seed must be >= 0, got -3\n"

    @pytest.mark.parametrize("field", ["seed", "task_seed"])
    def test_negative_config_seed_exits_two(self, field, tmp_path, capsys):
        """A negative seed is refused by TrainConfig, a negative task_seed by the integer check of the library."""
        config = self._config(tmp_path, **{field: -1})
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: {field} must be >= 0, got -1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("name, value, flag", [("seed", -1, "3"), ("seed", None, "3"), ("steps", "2", "2")])
    def test_flag_overrides_a_bad_config_field(self, name, value, flag, tmp_path, capsys):
        """Every value is checked after the flags override it, so a flag can replace a bad or wrongly typed one."""
        config = self._config(tmp_path, **{name: value})
        out_path = tmp_path / "run.json"
        code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path), f"--{name}", flag)
        assert code == 0 and err == ""
        assert json.loads(out_path.read_text())["config"][name] == int(flag)

    def test_oversized_integer_learning_rate_exits_two(self, tmp_path, capsys):
        """An int too large for a float is refused in one error line, not a traceback."""
        config = self._config(tmp_path, learning_rate=10**400)
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: learning_rate must lie in (0, 1.7976931348623157e+308], got 1000")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_config_at_the_defaults_matches_an_empty_config(self, tmp_path, capsys):
        """Spelling out every field at the value the CLI defaults to moves no byte of stdout or the artifact."""
        defaults = {
            field.name: field.default for field in _TRAIN_DATACLASS_FIELDS if field.default is not dataclasses.MISSING
        }
        spelled_out = defaults | {"objective": "nll", "task_seed": defaults["seed"]}
        assert set(spelled_out) == cli._TRAIN_FIELDS
        config, out_path = tmp_path / "config.json", tmp_path / "run.json"
        runs = []
        for body in ({}, spelled_out):
            config.write_text(json.dumps(body))
            code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
            assert code == 0 and err == ""
            runs.append((out, out_path.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", [field.name for field in _TRAIN_DATACLASS_FIELDS if field.type == "float"])
    def test_float_field_accepts_an_int(self, name, tmp_path, capsys):
        """An int in a float field is taken as written, and the artifact records it as an int."""
        value = next(v for v in _CONFIG_FIELDS[name][0] if type(v) is int)
        config = self._config(tmp_path, **{name: value})
        out_path = tmp_path / "run.json"
        code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 0 and err == ""
        recorded = json.loads(out_path.read_text())["config"]
        assert type(recorded.get(name, value)) is int

    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param(field.name, value, id=f"{field.name}={value!r}")
            for field in _TRAIN_DATACLASS_FIELDS
            for value in _WRONGLY_TYPED[field.type]
        ],
    )
    def test_wrongly_typed_field_gets_the_library_message(self, name, value, tmp_path, capsys):
        """The CLI prints what the dataclass or ObjectiveKind.parse raises for the same value, in one line."""
        with pytest.raises(DomainError) as refused:
            if name == "objective":
                ObjectiveKind.parse(value)
            elif name in {field.name for field in dataclasses.fields(RegimeSpec)}:
                RegimeSpec(**{name: value})
            else:
                trainer.TrainConfig(NLL, **{name: value})
        config = self._config(tmp_path, **{name: value})
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: {refused.value}\n"
        assert name in err and not out_path.exists()

    def test_impossible_conflict_spec_exits_two(self, tmp_path, capsys):
        """Confident-only conflicts on a weak prior are a config error, caught before any work."""
        config = self._config(tmp_path, conflict_fraction=0.5)
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 2
        assert "confident_only" in err and out == ""
        assert not out_path.exists()

    def _no_build(self, monkeypatch):
        def refuse(spec, seed):
            raise AssertionError("build_task must not run")

        monkeypatch.setattr(cli, "build_task", refuse)

    def test_missing_out_directory_fails_before_training(self, tmp_path, monkeypatch, capsys):
        """An --out whose directory is missing exits 1 naming the given path, before any work."""
        config = self._config(tmp_path)
        self._no_build(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", "nodir/x.json")
        assert code == 1 and out == ""
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.json'\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_directory_out_fails_before_training(self, tmp_path, monkeypatch, capsys):
        config = self._config(tmp_path)
        self._no_build(monkeypatch)
        code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path))
        assert code == 1
        assert err.rstrip().endswith(repr(str(tmp_path)))

    def test_oversized_table_exits_two_before_allocation(self, tmp_path, monkeypatch, capsys):
        config = self._config(tmp_path, vocab_size=2**20, num_contexts=2**20)
        self._no_build(monkeypatch)
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json"))
        assert code == 2 and out == ""
        assert "1048576 x 1048576 logit table exceeds" in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_too_many_steps_exit_two_before_work(self, where, tmp_path, monkeypatch, capsys):
        """More than MAX_TRAIN_STEPS steps is a usage error, named with the bound, before the task is built."""
        steps = trainer.MAX_TRAIN_STEPS + 1
        config = self._config(tmp_path, **({"steps": steps} if where == "config" else {}))
        flags = ["--steps", str(steps)] if where == "flag" else []
        self._no_build(monkeypatch)
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path), *flags)
        assert code == 2 and out == ""
        assert f"steps must lie in [0, {trainer.MAX_TRAIN_STEPS}], got {steps}" in err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_steps_at_the_bound_pass_the_check(self):
        bound = trainer.MAX_TRAIN_STEPS
        assert trainer.TrainConfig(objective=trainer.NLL, steps=bound).steps == bound

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 32.0 GiB"), MemoryError()])
    def test_memory_error_exits_one(self, error, tmp_path, monkeypatch, capsys):
        """Running out of memory is a runtime failure reported in one line, not a traceback."""
        def exhaust(spec, seed):
            raise error

        monkeypatch.setattr(cli, "build_task", exhaust)
        config = self._config(tmp_path)
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json"))
        assert code == 1 and out == ""
        assert err == f"error: {str(error) or 'MemoryError'}\n"

    def test_pretraining_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        """A task that cannot be built is a runtime failure, and no artifact is written."""
        monkeypatch.setattr(trainer, "_PRETRAIN_MAX_STEPS", 0)
        config = self._config(tmp_path, regime="strong")
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o.json"))
        assert code == 1 and out == ""
        assert err == "error: pretraining did not reach mean target probability 0.95 within 0 steps\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    def test_timings_line_on_stderr_changes_no_other_byte(self, tmp_path, capsys):
        config = self._config(tmp_path, regime="strong", num_contexts=256, conflict_fraction=0.25)
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(plain))
        assert code == 0 and err == ""
        code, timed_out, timed_err = run_cli(
            capsys, "train", "--config", str(config), "--out", str(timed), "--timings"
        )
        assert code == 0
        assert timed_out == out.replace(str(plain), str(timed))
        assert timed.read_bytes() == plain.read_bytes()
        (line,) = timed_err.splitlines()
        timings = json.loads(line)
        assert list(timings) == ["build_s", "pretrain_steps", "pretrain_chunks", "finetune_s", "emit_s", "workers"]
        assert all(timings[key] >= 0.0 for key in ("build_s", "finetune_s", "emit_s"))
        task = build_task(RegimeSpec("strong", 32, 256, conflict_fraction=0.25), 3)
        assert timings["pretrain_steps"] == task.pretrain_steps > 0
        assert timings["pretrain_chunks"] == task.pretrain_chunks > 0
        assert timings["workers"] == trainer.BLOCK_WORKERS

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

    @pytest.mark.parametrize("rule", ["proper", "main"])
    @pytest.mark.parametrize("alpha", ["1e-300", "1e-15", "1e-12", "1e-10", "1e-8", "1e-5"])
    def test_tiny_order_keeps_risk_and_entropy(self, alpha, rule, capsys):
        """Near order 0 the risk is the entropy; once it read 1.0 (proper) or 0.0 (main) at 1e-300.

        At orders <= 1e-8 the two agree within 1e-12; at 1e-5 the main rule's
        minimizer is the escort of r, whose risk is 2.7e-11 from the entropy.
        """
        code, out, _ = run_cli(capsys, "duality", "--r", "0.8,0.2", "--alpha", alpha, "--rule", rule)
        assert code == 0
        body = json.loads(out)
        r, a = np.array([0.8, 0.2]), float(alpha)
        # the main rule's minimizer is the escort of r, 2.2e-6 from it at 1e-5
        expected = r if rule == "proper" else r ** (1.0 / (1.0 - a)) / (r ** (1.0 / (1.0 - a))).sum()
        assert float(np.abs(np.array(body["minimizer"]) - expected).max()) <= 1e-6
        assert abs(body["risk"] - body["tsallis_entropy"]) <= (1e-12 if a <= 1e-8 else 1e-9)
        entropy = -(r * np.log(r)).sum()
        assert abs(body["tsallis_entropy"] - entropy) <= 1e-5

    def test_five_tokens_with_small_entries_recover_truth(self, capsys):
        """The old descent stopped at [0.592, 0.257, 0.106, 0.045, 0.0] with risk 0.74154 here."""
        r = [0.6, 0.25, 0.1, 0.04, 0.01]
        code, out, _ = run_cli(capsys, "duality", "--r", ",".join(map(str, r)), "--alpha", "0.5")
        assert code == 0
        body = json.loads(out)
        assert float(np.abs(np.array(body["minimizer"]) - r).max()) <= 1e-6
        assert abs(body["risk"] - tsallis_entropy(r, 1.5)) <= 1e-12

    def test_point_mass_under_main_rule_scores_zero(self, capsys):
        """Moves onto a vertex are divided by their sum, so the minimizer is the vertex exactly."""
        code, out, _ = run_cli(capsys, "duality", "--r", "0,0,1", "--alpha", "0.5", "--rule", "main")
        assert code == 0
        body = json.loads(out)
        assert body["minimizer"] == [0.0, 0.0, 1.0]
        assert body["risk"] == 0.0

    def test_malformed_distribution_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "duality", "--r", "0.8;0.2", "--alpha", "0.5")
        assert code == 2

    def test_invalid_distribution_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "duality", "--r", "0.8,0.1", "--alpha", "0.5")
        assert code == 2

    def test_missing_out_directory_names_the_given_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "duality", "--r", "0.8,0.2", "--alpha", "0.5", "--out", "nodir/x.json")
        assert code == 1 and out == ""
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.json'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("alpha", ["1e-320", "5e-324"])
    def test_subnormal_order_exits_two(self, alpha, capsys):
        code, out, err = run_cli(capsys, "duality", "--r", "0.8,0.2", "--alpha", alpha)
        assert code == 2 and out == ""
        interval = f"[2.2250738585072014e-308, {verification._MAX_ORDER!r}]"
        assert err == f"error: score order must lie in {interval}, got {float(alpha)!r}\n"

    def test_underflowing_order_exits_two(self, tmp_path, capsys):
        """At order 1e300 every p^a underflows and the risk surface is flat: a usage error."""
        out_path = tmp_path / "d.json"
        code, out, err = run_cli(
            capsys, "duality", "--r", "0.8,0.2", "--alpha", "1e300", "--out", str(out_path)
        )
        assert code == 2
        interval = f"[2.2250738585072014e-308, {verification._MAX_ORDER!r}]"
        assert err == f"error: score order must lie in {interval}, got 1e+300\n"
        assert out == ""
        assert not out_path.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "verify", "--sneed", "7")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("command", ["landscape", "train", "duality"])
    def test_directory_out_names_the_given_path(self, command, tmp_path, capsys):
        """An --out that is a directory exits 1 naming that path, and leaves no temp file."""
        target = tmp_path / "out"
        target.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"regime": "weak", "num_contexts": 64, "steps": 2}))
        argv = {
            "landscape": ["--objective", "nll", "--p-steps", "3", "--h-steps", "3", "--vocab", "8"],
            "train": ["--config", str(config)],
            "duality": ["--r", "0.8,0.2", "--alpha", "0.5"],
        }[command]
        code, _, err = run_cli(capsys, command, *argv, "--out", str(target))
        assert code == 1
        assert err.startswith("error: ") and err.rstrip().endswith(repr(str(target)))
        assert ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]
        assert os.listdir(target) == []


class TestParserCache:
    """The parser is built once per process, and each call still starts from its defaults."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_verify_seed_does_not_leak(self, monkeypatch, capsys):
        seeds = []
        monkeypatch.setattr(cli, "run_property_suite", lambda seed, timings: seeds.append(seed) or [])
        assert run_cli(capsys, "verify", "--seed", "3")[0] == 0
        assert run_cli(capsys, "verify")[0] == 0
        assert seeds == [3, 7]

    def test_train_objective_does_not_leak(self, monkeypatch, capsys):
        objectives = []

        def record(path, args):
            objectives.append(args.objective)
            raise cli.ConfigError("stop")

        monkeypatch.setattr(cli, "_load_train_config", record)
        argv = ["train", "--config", "c.json", "--out", "r.json"]
        assert run_cli(capsys, *argv, "--objective", "deft")[0] == 2
        assert run_cli(capsys, *argv)[0] == 2
        assert objectives == ["deft", None]

# Values for the seeded argv fuzz, as (valid, bad) pools; each value is drawn
# from its bad pool with probability _BAD. Sizes stay small (vocabularies <= 9,
# 64 contexts, <= 3 steps, grids <= 3x3), so no case allocates much or runs
# long. A verify run that starts the suite takes seconds, so verify seeds come
# from the bad pool only; a valid run is covered by TestVerify.
_BAD = 0.1
_OBJECTIVES = (
    ["nll", "linear", "deft", "cayley", "eaft", "alpha:0.5", "alpha:2"],
    ["alpha:1e308", "alpha:1e-320", "alpha:-1", "alpha:nan", "alpha:inf", "alpha:x", "focal", ""],
)
_CONFIG_FIELDS = {
    "regime": (["strong", "weak", "intermediate"], ["bogus", 3, None]),
    "vocab_size": ([8, 9], [4, -1, "8", 8.0, True]),
    "num_contexts": ([64, 65], [10, 0, None]),
    "conflict_fraction": ([0, 0.25], [1.0, -0.1, float("nan"), "x"]),
    "conflict_policy": (["confident_only", "uniform"], ["nope"]),
    "objective": _OBJECTIVES,
    "learning_rate": ([0.5, 10], [0, -1.0, 1e308, 10**400, float("nan"), float("inf")]),
    "steps": ([0, 2, 3], [-1, 2.5]),
    "batch_size": ([None, 1, 16, 1000], [0, -4]),
    "seed": ([0, 5, 2**40], [-1]),
    "task_seed": ([0, 9], [-2, "3", None]),
    "warmup": ([], [1]),
}


def test_fuzz_pools_cover_the_train_schema():
    """Every config field has a fuzz pool, so a new dataclass field cannot go unfuzzed."""
    assert set(_CONFIG_FIELDS) - {"warmup"} == cli._TRAIN_FIELDS


@pytest.mark.parametrize(
    "name, value",
    [
        pytest.param(name, value, id=f"{name}={value!r:.24}")
        for name, (_, bad) in _CONFIG_FIELDS.items()
        for value in bad
    ],
)
def test_each_bad_config_value_alone_keeps_exit_code_contract(name, value, tmp_path, capsys):
    """Each bad value of the fuzz pools, in an otherwise small valid config, exits 0, 1 or 2 in one error line."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vocab_size": 8, "num_contexts": 64, "steps": 2, name: value}))
    code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "run.json"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


_FLAG_VALUES = {
    "verify": {"--seed": ([], ["-1", "x", "", "1.5", "1e3", "--seed"])},
    "landscape": {
        "--objective": _OBJECTIVES,
        "--p-steps": (["1", "3"], ["-1", "0", "x", "2.5"]),
        "--h-steps": (["1", "3"], ["-1", "0", "x"]),
        "--vocab": (["3", "9"], ["-5", "0", "1", "2", "x"]),
        "--format": (["csv", "json"], ["xml"]),
        "--out": (["{tmp}/g.out"], ["{tmp}", "{tmp}/missing/g.csv"]),
    },
    "train": {
        "--config": (["{config}"], ["{tmp}/absent.json", "{tmp}"]),
        "--out": (["{tmp}/run.json"], ["{tmp}", "{tmp}/missing/run.json"]),
        "--objective": _OBJECTIVES,
        "--steps": (["1", "3"], ["-1", "x"]),
        "--seed": (["3"], ["-1", "x"]),
        "--learning-rate": (["0.5", "4"], ["nan", "-1", "inf", "1e308", "x"]),
    },
    "duality": {
        "--r": (
            ["0.8,0.2", "0.5,0.5", "1,0", "0.2,0.3,0.5", "0.1,0.2,0.3,0.4", "0.1,0.1,0.1,0.1,0.1,0.5"],
            ["0.1,0.1,0.1,0.1,0.1,0.1,0.4", "0.5", "", "nan,0.5", "inf,0", "-0.5,1.5", "a,b",
             "0.8;0.2", "1e-320,1"],
        ),
        "--alpha": (["0.5", "1", "2", "24.6"], ["25", "1e300", "1e-309", "0", "-1", "nan", "inf", "x"]),
        "--rule": (["proper", "main"], ["brier"]),
        "--out": (["{tmp}/d.json"], ["{tmp}", "{tmp}/missing/d.json"]),
    },
}

_REQUIRED = {
    "landscape": ("--objective", "--p-steps", "--h-steps", "--vocab", "--out"),
    "train": ("--config", "--out"),
    "duality": ("--r", "--alpha"),
}


def _draw(rng: random.Random, pools: tuple[list, list]):
    valid, bad = pools
    return rng.choice(bad if not valid or rng.random() < _BAD else valid)


def _fuzz_argv(rng: random.Random, tmp_path) -> list[str]:
    command = rng.choice(sorted(_FLAG_VALUES))
    config = tmp_path / "config.json"
    if command == "train":
        body = {key: _draw(rng, pools) for key, pools in _CONFIG_FIELDS.items() if rng.random() < 0.5}
        body = {key: value for key, value in body.items() if key != "warmup" or rng.random() < _BAD}
        config.write_text(json.dumps(body) if rng.random() >= _BAD else rng.choice([json.dumps([body]), "{x"]))
    argv = [command]
    for flag, pools in _FLAG_VALUES[command].items():
        # a required flag is sometimes left out, an optional one often
        if command == "verify" or rng.random() < (0.97 if flag in _REQUIRED[command] else 0.5):
            argv += [flag, _draw(rng, pools).format(tmp=tmp_path, config=config)]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "7", "-x"]))
    return argv


@pytest.mark.parametrize("case", range(150))
def test_argv_fuzz_keeps_exit_code_contract(case, tmp_path, capsys):
    """Any argv exits 0, 1 or 2 and reports failures in one line, never a traceback."""
    argv = _fuzz_argv(random.Random(case), tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code:
        assert err.startswith("error: ") or "usage:" in err, argv
