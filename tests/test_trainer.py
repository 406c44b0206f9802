"""Synthetic task construction and fine-tuning dynamics."""

import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trustgate import (
    CAYLEY,
    DEFT,
    EAFT,
    LINEAR,
    NLL,
    BuildError,
    DomainError,
    RegimeSpec,
    TokenDeltas,
    ToyModel,
    TrainConfig,
    TrainingError,
    build_task,
    finetune,
    fixed_alpha,
    gate,
    gradient_flow_ordering,
    quadrant_stats,
    run_property_suite,
    softmax,
)
from trustgate import objectives, trainer
from trustgate.cli import parse_and_run
from trustgate.core_math import PROB_FLOOR
from trustgate.objectives import focus_per_row, loss_per_row, softmax_into
from trustgate.trainer import DEFAULT_HISTOGRAM_EDGES, MAX_TABLE_ENTRIES


def final_probs(record):
    table = record.final_table
    expd = np.exp(table - table.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def label_probs(model, labels):
    """The probability each context of the model assigns to its label."""
    return softmax(model.logit_table)[np.arange(model.num_contexts), labels]


def clean_retention(record, task):
    probs = final_probs(record)
    return float(probs[np.arange(len(task.labels)), task.clean_labels].mean())


def _step_tables(model, labels, cfg, clean_labels=None):
    """The table at the start of each step of a run: a run of k steps ends on step k's table."""
    return [
        finetune(model, labels, dataclasses.replace(cfg, steps=k), clean_labels=clean_labels).final_table
        for k in range(cfg.steps)
    ]


class TestBuildTask:
    def test_strong_regime_clears_pretraining_bar(self):
        task = build_task(RegimeSpec(regime="strong"), 7)
        assert float(label_probs(task.model, task.labels).mean()) >= 0.6

    def test_weak_regime_starts_near_uniform(self):
        task = build_task(RegimeSpec(regime="weak", vocab_size=32), 7)
        assert float(label_probs(task.model, task.labels).mean()) == pytest.approx(
            1.0 / 32.0, abs=0.01
        )

    def test_intermediate_regime_lands_in_band(self):
        task = build_task(RegimeSpec(regime="intermediate"), 7)
        mean_p = float(label_probs(task.model, task.labels).mean())
        assert 0.25 <= mean_p <= 0.45

    def test_confident_conflicts_count_and_eligibility(self):
        spec = RegimeSpec(regime="strong", conflict_fraction=0.1, conflict_policy="confident_only")
        task = build_task(spec, 7)
        assert task.conflict_mask.sum() == int(0.1 * spec.num_contexts)
        # pre-injection model state: rebuild without injection from the same seed
        pristine = build_task(RegimeSpec(regime="strong"), 7)
        probs = softmax(pristine.model.logit_table)
        assert bool((probs.max(axis=1)[task.conflict_mask] >= 0.5).all())
        argmax = probs.argmax(axis=1)
        assert bool((task.labels[task.conflict_mask] != argmax[task.conflict_mask]).all())
        npt.assert_array_equal(task.labels[~task.conflict_mask], task.clean_labels[~task.conflict_mask])

    def test_confident_conflicts_impossible_on_weak_prior(self):
        """A weak model has no confident contexts, so the spec itself is rejected."""
        with pytest.raises(DomainError, match="confident_only"):
            RegimeSpec(regime="weak", conflict_fraction=0.1, conflict_policy="confident_only")

    def test_confident_policy_on_weak_prior_valid_without_conflicts(self):
        """Specs whose conflict count rounds to zero place no conflicts and stay valid."""
        for fraction in (0.0, 0.003):
            spec = RegimeSpec(regime="weak", conflict_fraction=fraction, conflict_policy="confident_only")
            assert spec.num_conflicts == 0
            assert build_task(spec, 7).conflict_mask.sum() == 0

    def test_confident_conflicts_scarce_on_intermediate_prior(self):
        """Eligibility that depends on the pretrained model still fails at build time."""
        spec = RegimeSpec(regime="intermediate", conflict_fraction=0.9, conflict_policy="confident_only")
        with pytest.raises(BuildError, match="qualify"):
            build_task(spec, 7)

    def test_uniform_conflicts_on_weak_prior(self):
        spec = RegimeSpec(regime="weak", conflict_fraction=0.25, conflict_policy="uniform")
        task = build_task(spec, 7)
        assert task.conflict_mask.sum() == int(0.25 * spec.num_contexts)

    def test_deterministic_given_seed(self):
        spec = RegimeSpec(regime="strong", conflict_fraction=0.1)
        a = build_task(spec, 3)
        b = build_task(spec, 3)
        npt.assert_array_equal(a.model.logit_table, b.model.logit_table)
        npt.assert_array_equal(a.labels, b.labels)

    def test_pretraining_metadata(self):
        """Steps taken and the mean clean-label probability where pretraining stopped."""
        strong = build_task(RegimeSpec(regime="strong"), 7)
        assert strong.pretrain_steps > 0 and strong.pretrain_mean_p >= 0.95
        intermediate = build_task(RegimeSpec(regime="intermediate"), 7)
        assert intermediate.pretrain_steps > 0
        assert 0.25 <= intermediate.pretrain_mean_p <= 0.45
        assert intermediate.pretrain_mean_p == float(
            label_probs(intermediate.model, intermediate.clean_labels).mean()
        )
        weak = build_task(RegimeSpec(regime="weak"), 7)
        assert weak.pretrain_steps == weak.pretrain_chunks == 0
        assert weak.pretrain_mean_p == float(label_probs(weak.model, weak.clean_labels).mean())
        # a table of one block takes one step per chunk
        assert strong.pretrain_chunks == strong.pretrain_steps
        assert intermediate.pretrain_chunks == intermediate.pretrain_steps

    def test_pretraining_chunks_on_many_blocks(self, monkeypatch):
        """On 4 blocks the strong build's 54 steps come in chunks of 16, 16, 11, 6, 3, 1 and 1."""
        admitted = []
        bound = trainer._nll_bound_steps
        monkeypatch.setattr(trainer, "_nll_bound_steps", lambda *args: admitted.append(bound(*args)) or admitted[-1])
        task = build_task(_build_spec("strong"), 1)
        assert len(trainer._row_blocks(*task.model.logit_table.shape)) == 4
        assert admitted == [16, 16, 11, 6, 3, 1, 1]
        assert (task.pretrain_steps, task.pretrain_chunks) == (54, 7)

    @pytest.mark.parametrize("regime", ["strong", "intermediate"])
    def test_pretraining_budget_covers_its_last_update(self, regime, monkeypatch):
        """A budget of exactly the steps taken builds the same task; one step fewer raises."""
        spec = RegimeSpec(regime=regime)
        task = build_task(spec, 0)
        monkeypatch.setattr(trainer, "_PRETRAIN_MAX_STEPS", task.pretrain_steps)
        assert _task_digest(build_task(spec, 0)) == _task_digest(task)
        monkeypatch.setattr(trainer, "_PRETRAIN_MAX_STEPS", task.pretrain_steps - 1)
        with pytest.raises(BuildError, match=f"within {task.pretrain_steps - 1} steps"):
            build_task(spec, 0)

    def test_non_finite_pretraining_update_exits_one_at_once(self, tmp_path, monkeypatch, capsys):
        """Pretraining takes the fine-tuning check: a NaN weight is refused after the first update."""
        monkeypatch.setattr(trainer, "_PRETRAIN_MAX_STEPS", 50)
        _nan_nll_weight(monkeypatch)
        with pytest.raises(TrainingError, match="^non-finite logits after update at step 0$"):
            build_task(RegimeSpec(regime="strong"), 0)
        config, out = tmp_path / "config.json", tmp_path / "run.json"
        config.write_text(json.dumps({"regime": "strong", "objective": "linear", "steps": 3}))
        code = parse_and_run(["train", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: non-finite logits after update at step 0\n"
        assert not out.exists()

    def test_intermediate_pretraining_past_its_band_raises(self, monkeypatch):
        """The first state past the intermediate stop lies above a band that ends at the stop."""
        spec = RegimeSpec(regime="intermediate")
        assert build_task(spec, 0).pretrain_mean_p > trainer._INTERMEDIATE_STOP
        monkeypatch.setattr(trainer, "INTERMEDIATE_PRETRAIN_BAND", (0.25, trainer._INTERMEDIATE_STOP))
        with pytest.raises(BuildError, match=r"intermediate pretraining landed at 0\.\d+, outside \[0\.25, 0\.35\]"):
            build_task(spec, 0)

    def test_table_size_bounded_before_allocation(self):
        """A spec is checked on its sizes alone: building one allocates no table."""
        RegimeSpec(vocab_size=MAX_TABLE_ENTRIES // 4096, num_contexts=4096)
        with pytest.raises(DomainError, match="exceeds"):
            RegimeSpec(vocab_size=MAX_TABLE_ENTRIES // 4096 + 1, num_contexts=4096)
        with pytest.raises(DomainError, match="exceeds"):
            RegimeSpec(vocab_size=2**40, num_contexts=2**40)
        assert MAX_TABLE_ENTRIES >= 8 * 4096 * 1024

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            RegimeSpec(regime="mega")
        with pytest.raises(DomainError):
            RegimeSpec(vocab_size=4)
        with pytest.raises(DomainError):
            RegimeSpec(conflict_fraction=1.0)
        with pytest.raises(DomainError):
            RegimeSpec(conflict_policy="always")


def _nan_nll_weight(monkeypatch):
    """Give ``nll`` a NaN weight rule, declared as reading nothing, so its unit-gate skip no longer applies."""

    def nan_weight(kind, probs, labels):
        return np.full(probs.shape[0], np.nan)

    monkeypatch.setitem(objectives._RULES, "nll", (nan_weight, objectives._RULES["nll"][1]))
    monkeypatch.setitem(objectives._READS, nan_weight, objectives.Reads.NOTHING)


LABEL_ARGUMENTS = ["labels", "clean_labels"]


def _finetune_labels(task, argument, value):
    """A 3-step DEFT run on the task's labels and clean labels, with ``argument`` replaced by ``value``."""
    labels = {"labels": task.labels, "clean_labels": task.clean_labels, argument: value}
    cfg = TrainConfig(objective=DEFT, steps=3, seed=0)
    return finetune(task.model, labels["labels"], cfg, clean_labels=labels["clean_labels"])


class TestFinetune:
    def test_zero_steps_is_identity(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        record = finetune(task.model, task.labels, TrainConfig(objective=NLL, steps=0, seed=0))
        assert record.mean_target_p == [] and record.mean_alpha == []
        npt.assert_array_equal(record.deltas.p_before, record.deltas.p_after)
        assert record.quadrants["learning"] == 0.0
        assert record.quadrants["forgetting"] == 0.0
        npt.assert_array_equal(record.final_table, task.model.logit_table)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(objective=NLL, seed=-1)

    @pytest.mark.parametrize(
        "seeded",
        [
            lambda seed: build_task(RegimeSpec(regime="weak"), seed),
            run_property_suite,
            lambda seed: gradient_flow_ordering("weak", (LINEAR, NLL), seed),
        ],
        ids=["build_task", "run_property_suite", "gradient_flow_ordering"],
    )
    @pytest.mark.parametrize("seed", [None, True, 3.0, -1, np.float64(2.0)])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seeded, seed):
        """A seed is never left to numpy, which would draw one from the OS for None: the runs are deterministic."""
        message = "seed must be >= 0, got -1" if seed == -1 else f"seed must be an integer, got {seed!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            seeded(seed)

    def test_objective_that_is_not_an_objective_kind_rejected(self):
        """A text encoding is parsed by the caller: a string would fail only at the first step."""
        with pytest.raises(DomainError, match="^objective must be an ObjectiveKind, got 'nll'$"):
            TrainConfig("nll")

    def test_learning_rate_too_large_for_a_float_rejected(self):
        """An int beyond the largest float is refused with DomainError rather than raising OverflowError."""
        with pytest.raises(DomainError, match=r"^learning_rate must lie in \(0, 1\.7976931348623157e\+308\], got 1000"):
            TrainConfig(objective=NLL, learning_rate=10**400)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (TrainConfig, "steps", 3.0),
            (TrainConfig, "steps", True),
            (TrainConfig, "batch_size", 16.0),
            (TrainConfig, "batch_size", np.True_),
            (TrainConfig, "seed", 2.0),
            (RegimeSpec, "vocab_size", 8.0),
            (RegimeSpec, "num_contexts", 64.0),
            (RegimeSpec, "num_contexts", 64.5),
        ],
    )
    def test_count_that_is_not_an_integer_rejected(self, cls, field, value):
        kwargs = {"objective": NLL} if cls is TrainConfig else {}
        with pytest.raises(DomainError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            cls(**kwargs, **{field: value})

    @pytest.mark.parametrize(
        "cls, field", [(TrainConfig, "learning_rate"), (RegimeSpec, "conflict_fraction")]
    )
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", "0.1", None])
    def test_rate_or_fraction_that_is_not_a_number_rejected(self, cls, field, value):
        kwargs = {"objective": NLL} if cls is TrainConfig else {}
        with pytest.raises(DomainError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"):
            cls(**kwargs, **{field: value})

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_counts_are_kept_as_ints(self, integer):
        spec = RegimeSpec(regime="weak", vocab_size=integer(8), num_contexts=integer(64))
        cfg = TrainConfig(objective=DEFT, steps=integer(3), batch_size=integer(16), seed=integer(2))
        counts = (spec.vocab_size, spec.num_contexts, cfg.steps, cfg.batch_size, cfg.seed)
        assert [type(count) for count in counts] == [int] * 5
        task, plain = build_task(spec, 1), build_task(RegimeSpec(regime="weak", vocab_size=8, num_contexts=64), 1)
        npt.assert_array_equal(task.model.logit_table, plain.model.logit_table)
        record = finetune(task.model, task.labels, cfg)
        expected = finetune(plain.model, plain.labels, TrainConfig(objective=DEFT, steps=3, batch_size=16, seed=2))
        assert json.dumps(record.to_dict()) == json.dumps(expected.to_dict())

    def test_zero_context_table_rejected(self):
        with pytest.raises(DomainError, match="contexts >= 1"):
            ToyModel(np.zeros((0, 8)))

    @pytest.mark.parametrize("alpha", [0.3, 1e308])
    @pytest.mark.parametrize("batch_size", [None, 64])
    def test_static_focus_trace_is_its_exponent(self, alpha, batch_size):
        """A fixed exponent is recorded as written: a mean over 256 rows would round 0.3 and overflow 1e308."""
        task = build_task(RegimeSpec(regime="weak"), 1)
        cfg = TrainConfig(objective=fixed_alpha(alpha), steps=3, batch_size=batch_size, seed=0)
        assert finetune(task.model, task.labels, cfg).mean_alpha == [alpha] * 3

    def test_trace_lengths_match_steps(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        record = finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=17, seed=0))
        assert len(record.mean_target_p) == 17
        assert len(record.mean_alpha) == 17

    def test_bit_identical_given_seed(self):
        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.1), 2)
        cfg = TrainConfig(objective=DEFT, steps=60, seed=9)
        a = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        b = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        npt.assert_array_equal(a.final_table, b.final_table)
        assert a.to_dict() == b.to_dict()

    def test_caller_model_not_mutated(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        before = task.model.logit_table.copy()
        finetune(task.model, task.labels, TrainConfig(objective=NLL, steps=5, seed=0))
        npt.assert_array_equal(task.model.logit_table, before)

    def test_rows_remain_valid_distributions(self):
        """Every update leaves each context with a finite, normalized row."""
        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.1), 4)
        cfg = TrainConfig(objective=NLL, steps=25, seed=0)
        tables = _step_tables(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        assert len(tables) == 25
        for table in tables:
            probs = softmax(table)
            assert np.all(np.isfinite(probs))
            npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        record = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        assert np.all(np.isfinite(record.final_table))

    def test_runtime_signal_ordering(self):
        """Per token and state, linear signal <= collision signal <= open signal."""
        task = build_task(RegimeSpec(regime="intermediate"), 5)
        rng = np.random.default_rng(0)
        samples = rng.integers(0, task.model.num_contexts, size=100)
        cfg = TrainConfig(objective=DEFT, steps=20, seed=0)
        for table in _step_tables(task.model, task.labels, cfg):
            probs = softmax(table)
            for context in samples[:10]:
                dist = probs[context]
                target = int(task.labels[context])
                lin = gate(LINEAR, dist, target).signal
                dft = gate(DEFT, dist, target).signal
                nll = gate(NLL, dist, target).signal
                assert lin <= dft + 1e-12
                assert dft <= nll + 1e-12

    # the first three keep their original ids (kind0-kind2); the rest complete the family
    @pytest.mark.parametrize("kind", [NLL, LINEAR, DEFT, fixed_alpha(0.5), CAYLEY, EAFT])
    def test_vectorized_step_matches_per_token_gradient(self, kind):
        """One full-batch step equals applying the per-token gradient per row."""
        from trustgate import logit_gradient

        task = build_task(RegimeSpec(regime="intermediate"), 2)
        cfg = TrainConfig(objective=kind, learning_rate=0.5, steps=1, seed=0)
        record = finetune(task.model, task.labels, cfg)
        expected = task.model.logit_table.copy()
        for context in range(task.model.num_contexts):
            grad = logit_gradient(kind, task.model.logit_table[context], int(task.labels[context]))
            expected[context] -= 0.5 * grad
        npt.assert_allclose(record.final_table, expected, atol=1e-14)

    def test_minibatch_covers_all_contexts(self):
        task = build_task(RegimeSpec(regime="weak"), 3)
        cfg = TrainConfig(objective=NLL, steps=8, batch_size=64, seed=1)
        record = finetune(task.model, task.labels, cfg)
        # 8 batches of 64 over 256 contexts = 2 epochs; every row moved
        assert not np.any(np.all(record.final_table == task.model.logit_table, axis=1))

    @pytest.mark.parametrize("argument", LABEL_ARGUMENTS)
    def test_label_shape_mismatch(self, argument):
        task = build_task(RegimeSpec(regime="weak"), 1)
        with pytest.raises(DomainError, match=f"^{argument}: expected 256 target indices, got shape \\(255,\\)$"):
            _finetune_labels(task, argument, task.labels[:-1])

    @pytest.mark.parametrize("argument", LABEL_ARGUMENTS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.full(256, -1), "target index -1 out of range"),
            (np.full(256, 32), "target index 32 out of range"),
            (np.full(256, 1.7), "target indices must be integers, got 1.7"),
            (np.full(256, 0.9), "target indices must be integers, got 0.9"),
            (np.full(256, True), "target indices must be integers, got True"),
            ([0.9, 1.7, 2.2, True] * 64, "target indices must be integers, got 0.9"),
            ([0, 1, 2, True] * 64, "target indices must be integers, got True"),
        ],
        ids=["negative", "past-vocab", "1.7", "0.9", "True", "mixed-list", "bool-among-ints"],
    )
    def test_clean_labels_checked_like_labels(self, argument, bad, message):
        """Each argument is refused with its own name, not truncated to integers."""
        task = build_task(RegimeSpec(regime="weak"), 1)
        with pytest.raises(DomainError, match=f"^{argument}: {message}"):
            _finetune_labels(task, argument, bad)

    @pytest.mark.parametrize("argument", LABEL_ARGUMENTS)
    @pytest.mark.parametrize("convert", [list, lambda labels: labels.astype(np.int32)], ids=["int-list", "int32"])
    def test_integer_labels_of_any_width_accepted(self, argument, convert):
        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 1)
        assert task.labels.dtype == np.int64
        expected = _finetune_labels(task, argument, getattr(task, argument))
        record = _finetune_labels(task, argument, convert(getattr(task, argument)))
        assert record.to_dict() == expected.to_dict()
        assert record.final_table.tobytes() == expected.final_table.tobytes()


def _deltas(*tokens):
    """TokenDeltas from (p_before, p_after, loss_before, loss_after) tuples, one per context."""
    columns = np.array(tokens, dtype=np.float64).reshape(-1, 4).T
    return TokenDeltas(*columns)


def _quadrant_stats_per_token(deltas):
    """Reference: the per-token classification into quadrants, one context at a time."""
    learning, forgetting, learn_high, forget_high = 0, 0, 0, 0
    for pb, pa, lb, la in zip(deltas.p_before, deltas.p_after, deltas.loss_before, deltas.loss_after):
        moved = abs(pa - pb) >= 0.05
        high = pb >= 0.5
        if pa - pb > 0.0 and la - lb < 0.0 and moved:
            learning += 1
            learn_high += high
        elif pa - pb < 0.0 and la - lb > 0.0 and moved:
            forgetting += 1
            forget_high += high
    total = deltas.p_before.size
    return {
        "count": total,
        "learning": learning / total,
        "forgetting": forgetting / total,
        "learning_high": learn_high / total,
        "learning_low": (learning - learn_high) / total,
        "forgetting_high": forget_high / total,
        "forgetting_low": (forgetting - forget_high) / total,
        "learning_high_share": learn_high / learning if learning else 0.0,
        "forgetting_high_share": forget_high / forgetting if forgetting else 0.0,
    }


class TestQuadrantStats:
    def test_no_motion_means_no_learning_or_forgetting(self):
        stats = quadrant_stats(_deltas(*[(0.4, 0.4, 1.0, 1.0)] * 10))
        assert stats["learning"] == 0.0 and stats["forgetting"] == 0.0

    def test_single_confident_drop_is_pure_forgetting(self):
        stats = quadrant_stats(_deltas((0.8, 0.4, 0.22, 0.92)))
        assert stats["forgetting"] == 1.0
        assert stats["forgetting_high_share"] == 1.0
        assert stats["learning"] == 0.0

    def test_small_motion_below_threshold_not_counted(self):
        stats = quadrant_stats(_deltas((0.8, 0.79, 0.22, 0.23)))
        assert stats["forgetting"] == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            quadrant_stats(_deltas())

    def test_matches_per_token_classification(self):
        """Every sign pattern, ties and the change threshold, against a per-token loop."""
        rng = np.random.default_rng(3)
        grid = np.array([0.1, 0.45, 0.5, 0.52, 0.9])
        p_before = rng.choice(grid, 400)
        p_after = np.clip(p_before + rng.choice([-0.3, -0.05, -0.01, 0.0, 0.01, 0.05, 0.3], 400), 0.0, 1.0)
        loss_before = rng.choice([0.5, 1.0], 400)
        loss_after = loss_before + rng.choice([-0.2, 0.0, 0.2], 400)
        deltas = TokenDeltas(p_before, p_after, loss_before, loss_after)
        assert quadrant_stats(deltas) == _quadrant_stats_per_token(deltas)

    def test_finetune_deltas_follow_the_run(self):
        """The record holds one entry per context: the original-label p and loss before and after."""
        from trustgate import loss

        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.1), 6)
        record = finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=5, seed=6),
                          clean_labels=task.clean_labels)
        final = final_probs(record)
        start = softmax(task.model.logit_table)
        for context in (0, 17, 255):
            label = int(task.clean_labels[context])
            assert record.deltas.p_before[context] == start[context, label]
            assert record.deltas.p_after[context] == final[context, label]
            assert record.deltas.loss_before[context] == pytest.approx(loss(DEFT, start[context], label), abs=1e-12)
            assert record.deltas.loss_after[context] == pytest.approx(loss(DEFT, final[context], label), abs=1e-12)
        assert record.quadrants == _quadrant_stats_per_token(record.deltas)

    def test_proportions_bounded_by_one(self):
        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.1), 6)
        record = finetune(
            task.model,
            task.labels,
            TrainConfig(objective=NLL, steps=100, seed=6),
            clean_labels=task.clean_labels,
        )
        stats = record.quadrants
        assert 0.0 <= stats["learning"] + stats["forgetting"] <= 1.0


def _start_histogram(model, labels):
    """The run record's step-0 histogram of the label probabilities."""
    return finetune(model, labels, TrainConfig(objective=NLL, steps=0, seed=0)).histograms[0]


class TestProbabilityHistogram:
    def test_confident_model_fills_top_bin(self):
        table = np.zeros((64, 8))
        table[:, 0] = 40.0
        snapshot = _start_histogram(ToyModel(table), np.zeros(64, dtype=np.int64))
        assert snapshot["step"] == 0
        assert snapshot["edges"] == DEFAULT_HISTOGRAM_EDGES.tolist()
        assert snapshot["counts"][-1] == 64
        assert sum(snapshot["counts"]) == 64

    def test_weak_model_mass_sits_at_one_over_vocab(self):
        task = build_task(RegimeSpec(regime="weak", vocab_size=32), 7)
        counts = _start_histogram(task.model, task.labels)["counts"]
        bin_of_uniform = int(np.digitize(1.0 / 32.0, DEFAULT_HISTOGRAM_EDGES)) - 1
        assert counts[bin_of_uniform] == task.model.num_contexts

    def test_sharpening_raises_top_bin(self):
        task = build_task(RegimeSpec(regime="strong"), 8)
        record = finetune(task.model, task.labels, TrainConfig(objective=LINEAR, steps=100, seed=8))
        before = record.histograms[0]["counts"]
        after = record.histograms[-1]["counts"]
        assert after[-1] >= before[-1]

    def test_zero_step_run_ends_on_its_start_histogram(self):
        task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
        start, end = finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=0, seed=0)).histograms
        assert end == start


class TestRegimeContrasts:
    def test_collision_index_initializes_by_regime(self):
        strong = build_task(RegimeSpec(regime="strong"), 11)
        weak = build_task(RegimeSpec(regime="weak"), 11)
        cfg = TrainConfig(objective=DEFT, steps=1, seed=11)
        strong_alpha = finetune(strong.model, strong.labels, cfg).mean_alpha[0]
        weak_alpha = finetune(weak.model, weak.labels, cfg).mean_alpha[0]
        assert strong_alpha > weak_alpha

    def test_weak_regime_collision_trace_rises(self):
        task = build_task(RegimeSpec(regime="weak"), 12)
        record = finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=200, seed=12))
        trace = np.asarray(record.mean_alpha)
        smoothed = np.convolve(trace, np.ones(5) / 5.0, mode="valid")
        assert np.all(np.diff(smoothed) >= -1e-12)

    def test_confident_conflicts_forgotten_less_under_collision_gate(self):
        spec = RegimeSpec(regime="strong", conflict_fraction=0.1, conflict_policy="confident_only")
        task = build_task(spec, 13)
        runs = {}
        for kind in (NLL, DEFT):
            cfg = TrainConfig(objective=kind, steps=100, seed=13)
            runs[kind.name] = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        assert (
            runs["deft"].quadrants["forgetting_high"] < runs["nll"].quadrants["forgetting_high"]
        )
        assert clean_retention(runs["deft"], task) >= clean_retention(runs["nll"], task)

    def test_weak_regime_plasticity_ordering(self):
        task = build_task(RegimeSpec(regime="weak"), 14)
        finals = {}
        for kind in (NLL, LINEAR, DEFT):
            cfg = TrainConfig(objective=kind, steps=200, seed=14)
            record = finetune(task.model, task.labels, cfg)
            finals[kind.name] = clean_retention(record, task)
        assert finals["linear"] < finals["nll"]
        assert finals["deft"] >= 0.9 * finals["nll"]


# sha256 of `train` artifacts at 120 steps, seed 5, 256 contexts x 32 tokens and
# 0.25 conflicts (confident_only on the strong prior, uniform elsewhere),
# keyed by (regime, objective, batch_size); pinned before the trainer's
# start and end states were read from one softmax each.
GOLDEN_TRAIN_SHA256 = {
    ("strong", "nll", None): "d1f06604c9927547421eaa7d4b31c090fa90bd4509fd8e2494f467c118fcca60",
    ("strong", "nll", 64): "2de3548623c57f11fdf4df51add6a93dd92ca5b66837d500ca360cfde66e0a5b",
    ("strong", "linear", None): "e2fd393109f2ffb8c95e76ec6d244438838e60e04e3b130669f9d248fdc0977e",
    ("strong", "linear", 64): "68f282a41b009b27a048a255be782b05871deedd8725c6c6c5929626bb8a0dc0",
    ("strong", "alpha:0.5", None): "b478aed4635963044138a926a4cc7f836007ab01687c5298ad3e0b9981de41be",
    ("strong", "alpha:0.5", 64): "611b95cffc19880b9c3dd9181de38e9469532ce988c47a82d5c6a3f8ac9cd3c8",
    ("strong", "cayley", None): "88141142641ad58b686b0df0bb58ab6f0c048eb3d7d2e976f3e6acf139f34600",
    ("strong", "cayley", 64): "5a5dff7db5125e30dd3908d57ec87ebfa201037101589c3f0c7167c7629ff648",
    ("strong", "deft", None): "88ba3ab59663f718c4e11eb145eaa1db9cb4dd4bbdbc88ab24b46a409c098478",
    ("strong", "deft", 64): "6cb03509151da51e0f5f72c68fb18634726e2598a56a0d147a08b41b1f101220",
    ("strong", "eaft", None): "bf41ba5ca71ab0964f8a525167d6681e1702fc8e0572f73531f0a888c043370a",
    ("strong", "eaft", 64): "6abe94941fad2dcf06270676a1d2e86cb748548ca5344e5b78716cf756ded94a",
    ("intermediate", "deft", 64): "bce3bd7495cd354b688838305d0fc86b68c349f0ccc89c8c3cfbe4aa427589b4",
    ("weak", "cayley", None): "d655fbb47e8d658d05c117cf91360546bbad64d19e8d423ee30d5a1a271370f6",
}


@pytest.mark.parametrize("regime, objective, batch_size", list(GOLDEN_TRAIN_SHA256))
def test_golden_train_artifact(regime, objective, batch_size, tmp_path, capsys):
    body = {
        "regime": regime,
        "conflict_fraction": 0.25,
        "conflict_policy": "confident_only" if regime == "strong" else "uniform",
        "objective": objective,
        "steps": 120,
        "batch_size": batch_size,
        "seed": 5,
    }
    config, out = tmp_path / "config.json", tmp_path / "run.json"
    config.write_text(json.dumps(body))
    assert parse_and_run(["train", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_TRAIN_SHA256[(regime, objective, batch_size)]


MEMBERS = [NLL, LINEAR, fixed_alpha(0.5), CAYLEY, DEFT, EAFT]


def _finetune_peak_in_tables(kind, batch_size):
    rng = np.random.default_rng(0)
    model = ToyModel(rng.normal(0.0, 2.0, size=(1024, 256)))
    labels = rng.integers(0, 256, size=1024)
    cfg = TrainConfig(objective=kind, steps=2, batch_size=batch_size, seed=0)
    tracemalloc.start()
    try:
        finetune(model, labels, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / model.logit_table.nbytes


@pytest.mark.parametrize("batch_size", [None, 256])
@pytest.mark.parametrize("kind", MEMBERS, ids=lambda kind: kind.encode())
def test_finetune_peak_memory_in_tables(kind, batch_size, monkeypatch):
    """A run holds its working table plus a few table-sized temporaries, never a start-state copy."""
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 1)
    assert _finetune_peak_in_tables(kind, batch_size) <= 3.5


@pytest.mark.parametrize("batch_size", [None, 256])
@pytest.mark.parametrize("kind", MEMBERS, ids=lambda kind: kind.encode())
def test_finetune_peak_memory_in_tables_on_four_workers(kind, batch_size, monkeypatch):
    """Four blocks in flight at once (each a quarter of this table) stay within the same bound."""
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 4)
    assert _finetune_peak_in_tables(kind, batch_size) <= 3.5


# sha256 of build_task's table, labels, clean labels and conflict mask bytes at
# 1024 contexts x 256 tokens, 0.25 conflicts (confident_only on the strong
# prior, uniform elsewhere), seed 1; pinned before pretraining took its
# softmax in place.
GOLDEN_BUILD_SHA256 = {
    "strong": "d08296e1f4d70b4ee9d893eb3992a89a3d619394944b849c83990271372942fc",
    "intermediate": "9ac1c78ea7f36e6a0cb687f68473c6aead1202d1fede3c0fc3bb6423b97e9072",
    "weak": "30cc22e498ba2b981ec8ed8725d3d3bf9f0c4eaf041f918d43bbf0319a9acb2a",
}


def _build_spec(regime):
    policy = "confident_only" if regime == "strong" else "uniform"
    return RegimeSpec(regime, 256, 1024, conflict_fraction=0.25, conflict_policy=policy)


def _build_digest(regime):
    return _task_digest(build_task(_build_spec(regime), 1))


def _task_digest(task):
    digest = hashlib.sha256()
    for array in (task.model.logit_table, task.labels, task.clean_labels, task.conflict_mask):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("block_entries", [trainer._BLOCK_ENTRIES, 7 * 256])
@pytest.mark.parametrize("regime", list(GOLDEN_BUILD_SHA256))
def test_golden_build_task(regime, block_entries, monkeypatch):
    """The same bits at the default blocks (4 per table) and at 7-row blocks, the last one short."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", block_entries)
    assert _build_digest(regime) == GOLDEN_BUILD_SHA256[regime]


def _build_task_peak_in_tables():
    spec = _build_spec("strong")
    tracemalloc.start()
    try:
        build_task(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (spec.num_contexts * spec.vocab_size * 8)


def test_build_task_peak_memory_in_tables(monkeypatch):
    """Pretraining holds the table, one buffer for its probabilities and update, and block temporaries."""
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 1)
    assert _build_task_peak_in_tables() <= 2.75


def test_build_task_peak_memory_in_tables_on_four_workers(monkeypatch):
    """Four blocks in flight at once (each a quarter of this table) stay within the same bound."""
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 4)
    assert _build_task_peak_in_tables() <= 2.75


def _reference_softmax(table):
    """The trainer's softmax before it was taken in place: fresh arrays at each stage."""
    shifted = table - table.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


@st.composite
def tables_and_rows(draw):
    """Logit tables up to 64 x 300 in [-700, 700], with a subset of their rows in any order."""
    rows = draw(st.integers(1, 64))
    vocab = draw(st.integers(2, 300))
    table = draw(hnp.arrays(np.float64, (rows, vocab), elements=st.floats(-700.0, 700.0)))
    subset = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows, unique=True))
    return table, np.array(subset)


@settings(max_examples=200, deadline=None)
@given(case=tables_and_rows())
def test_softmax_kernel_matches_reference_on_any_rows(case):
    """The in-place kernel equals the reference bit for bit, on the whole table and on gathered rows."""
    table, subset = case
    expected = _reference_softmax(table)
    whole = softmax_into(table, np.empty_like(table))
    assert whole.tobytes() == expected.tobytes()
    gathered = table[subset]
    assert softmax_into(gathered, gathered).tobytes() == expected[subset].tobytes()
    assert np.shares_memory(softmax_into(table, table), table)
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_entries", [trainer._BLOCK_ENTRIES, 5 * 32])
@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("kind", MEMBERS, ids=lambda kind: kind.encode())
def test_traces_match_fresh_softmax_of_each_state(kind, batch_size, block_entries, monkeypatch):
    """Every traced value equals a fresh softmax and focus of the table at the start of its step.

    So do the two histograms, of the start table and of the final one. Run
    with the whole 256 x 32 table as one block and with 5-row blocks, which
    split a batch of 64 into 13 parts, the last one short.
    """
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", block_entries)
    task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
    rows = np.arange(task.model.num_contexts)
    expected_p, expected_alpha = [], []
    cfg = TrainConfig(objective=kind, steps=12, batch_size=batch_size, seed=4)
    for table in _step_tables(task.model, task.labels, cfg, clean_labels=task.clean_labels):
        probs = _reference_softmax(table)
        expected_p.append(float(probs[rows, task.labels].mean()))
        expected_alpha.append(float(focus_per_row(kind, probs, task.labels).mean()))

    record = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
    assert record.mean_target_p == expected_p
    assert record.mean_alpha == expected_alpha
    final = _reference_softmax(record.final_table)
    assert record.deltas.p_after.tobytes() == final[rows, task.clean_labels].tobytes()
    expected_loss = loss_per_row(kind, final, task.clean_labels)
    assert record.deltas.loss_after.tobytes() == expected_loss.tobytes()
    for histogram, table in zip(record.histograms, [task.model.logit_table, record.final_table]):
        counts, _ = np.histogram(_reference_softmax(table)[rows, task.labels], bins=DEFAULT_HISTOGRAM_EDGES)
        assert histogram["counts"] == counts.tolist()


def _reference_step(kind, table, labels, members, learning_rate):
    """The step on ``members`` as the trainer took it before flat positions: a fresh softmax, 2-D indexing."""
    probs = _reference_softmax(table[members])
    member_labels = labels[members]
    rows = np.arange(members.size)
    weight, focus = objectives._RULES[kind.name]
    p = np.minimum(np.maximum(probs[rows, member_labels], PROB_FLOOR), 1.0)
    g = weight(kind, probs, member_labels) * p ** focus(kind, probs, member_labels)
    update = probs * g[:, None]
    update[rows, member_labels] -= g
    update *= learning_rate
    stepped = table.copy()
    stepped[members] -= update
    return stepped


@pytest.mark.parametrize("batch_size", [256, 1000, 1], ids=["contexts", "past-contexts", "one-row"])
@pytest.mark.parametrize("kind", [LINEAR, DEFT], ids=lambda kind: kind.encode())
def test_edge_batches_match_a_reference_step(kind, batch_size):
    """A batch of every context or more is a full batch, and a batch of one updates a one-row part.

    The traces equal a fresh softmax and focus of each state's table, and
    each table is the reference step of the one before on the rows it moved.
    """
    task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
    rows = np.arange(task.model.num_contexts)
    cfg = TrainConfig(objective=kind, steps=12, batch_size=batch_size, seed=4)
    tables = _step_tables(task.model, task.labels, cfg, clean_labels=task.clean_labels)
    record = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
    states = [_reference_softmax(table) for table in tables]
    assert record.mean_target_p == [float(probs[rows, task.labels].mean()) for probs in states]
    assert record.mean_alpha == [float(focus_per_row(kind, probs, task.labels).mean()) for probs in states]
    final = _reference_softmax(record.final_table)
    assert record.deltas.p_after.tobytes() == final[rows, task.clean_labels].tobytes()
    assert record.deltas.loss_after.tobytes() == loss_per_row(kind, final, task.clean_labels).tobytes()
    for before, after in zip(tables, tables[1:] + [record.final_table]):
        members = np.flatnonzero((after != before).any(axis=1))
        assert members.size == min(batch_size, rows.size)
        assert after.tobytes() == _reference_step(kind, before, task.labels, members, cfg.learning_rate).tobytes()


def _count_focus_calls(kind, monkeypatch):
    """Swap ``kind``'s focus rule for one that records the rows of each call, declared at its own level."""
    weight, focus = objectives._RULES[kind.name]
    calls = []

    def counted(kind, probs, labels):
        calls.append(probs.shape[0])
        return focus(kind, probs, labels)

    monkeypatch.setitem(objectives._RULES, kind.name, (weight, counted))
    monkeypatch.setitem(objectives._READS, counted, objectives._READS[focus])
    return calls


def test_full_batch_step_evaluates_the_focus_once_per_row(monkeypatch):
    """Per block: the start fill, one refresh per step, and the two frozen-loss readings."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    calls = _count_focus_calls(DEFT, monkeypatch)
    assert objectives._READS[objectives._RULES["deft"][1]] == objectives.Reads.ROW
    task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
    steps = 10
    finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=steps, seed=0))
    blocks = task.model.num_contexts // 32
    assert len(calls) == blocks * (steps + 3)
    assert set(calls) == {32}


@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("kind", [LINEAR, fixed_alpha(0.5)], ids=lambda kind: kind.encode())
def test_static_focus_is_filled_once_and_never_refreshed(kind, batch_size, monkeypatch):
    """Per block: the start fill and the two frozen-loss readings, however many steps run."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    calls = _count_focus_calls(kind, monkeypatch)
    assert not kind.is_dynamic
    task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
    finetune(task.model, task.labels, TrainConfig(objective=kind, steps=10, batch_size=batch_size, seed=0))
    blocks = task.model.num_contexts // 32
    assert len(calls) == blocks * 3
    assert set(calls) == {32}


@pytest.mark.parametrize("steps", [1, 40])
def test_full_batch_takes_target_positions_once_per_block(steps, monkeypatch):
    """A full batch's blocks and labels never change: their positions are taken once, however many steps run.

    ``linear`` reads no positions in its focus, so the calls are the loop's
    one for the table, one per block, and one per block in each of the two
    frozen-loss readings.
    """
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    task = build_task(RegimeSpec(regime="strong", conflict_fraction=0.25), 4)
    calls = []
    positions = objectives._positions
    counted = lambda probs, labels: calls.append(probs.shape[0]) or positions(probs, labels)  # noqa: E731
    monkeypatch.setattr(objectives, "_positions", counted)
    monkeypatch.setattr(trainer, "_positions", counted)
    record = finetune(task.model, task.labels, TrainConfig(objective=LINEAR, steps=steps, seed=0))
    blocks = task.model.num_contexts // 32
    assert len(calls) == 1 + 3 * blocks
    assert record.mean_alpha == [1.0] * steps


def _poison_blocks(monkeypatch, at):
    """Make the update of the block starting at row r non-finite at step s, for each (r, s) in ``at``.

    A block's first row is read from the offset of its label view; its step
    is the number of updates it has taken before.
    """
    kernel, taken = trainer.gate_error_into, {}

    def poisoned(kind, probs, labels, focus, positions=None):
        out = kernel(kind, probs, labels, focus, positions)
        first_row = (labels.ctypes.data - labels.base.ctypes.data) // labels.itemsize
        taken[first_row] = step = taken.get(first_row, -1) + 1
        if (first_row, step) in at:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(trainer, "gate_error_into", poisoned)


@pytest.mark.parametrize("workers", [1, 3])
def test_non_finite_update_raises_at_the_lowest_step_of_any_block(workers, monkeypatch):
    """A late block failing at an earlier step than an early block: the step-major step, on any worker count.

    Block 0 takes its chunk first and fails at step 5; block 7 fails at
    step 2, which a step-major loop meets first.
    """
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", workers)
    task = build_task(RegimeSpec(regime="strong"), 4)
    _poison_blocks(monkeypatch, {(0, 5), (7 * 32, 2)})
    with pytest.raises(TrainingError, match="^non-finite logits after update at step 2$"):
        finetune(task.model, task.labels, TrainConfig(objective=LINEAR, steps=10, seed=0))
    monkeypatch.setattr(trainer, "_CHUNK_STEPS", 1)
    _poison_blocks(monkeypatch, {(0, 5), (7 * 32, 2)})
    with pytest.raises(TrainingError, match="^non-finite logits after update at step 2$"):
        finetune(task.model, task.labels, TrainConfig(objective=LINEAR, steps=10, seed=0))


def test_a_bound_that_admits_the_bar_inside_a_chunk_raises(monkeypatch):
    """A chunk whose inner mean reaches the bar would overshoot the stop: it is refused, never replayed."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    monkeypatch.setattr(trainer, "_nll_bound_steps", lambda target_p, lr, bar, most: most)
    spec = RegimeSpec(regime="intermediate")
    with pytest.raises(BuildError, match=r"^pretraining reached mean target probability 0\.35 at step 7, "
                       r"inside a chunk of 16 steps that the NLL bound admitted$"):
        build_task(spec, 0)


def _outcome(spec, seed, cfg, clean):
    """Everything a build and a run produce, or the error they raise, as comparable values."""
    try:
        task = build_task(spec, seed)
        record = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels if clean else None)
    except (BuildError, TrainingError) as exc:
        return type(exc).__name__, str(exc)
    arrays = [record.final_table, *dataclasses.astuple(record.deltas)]
    return (
        _task_digest(task), task.pretrain_steps, task.pretrain_mean_p,
        json.dumps(record.to_dict()), [array.tobytes() for array in arrays],
    )


@st.composite
def chunk_cases(draw):
    """Small tables cut into blocks of 2-8 rows, any member, both pretraining bars, 1-3 workers, some poisoned."""
    regime = draw(st.sampled_from(["strong", "intermediate"]))
    policy = "confident_only" if regime == "strong" else "uniform"
    spec = RegimeSpec(regime, draw(st.integers(8, 40)), draw(st.integers(64, 128)), 0.25, policy)
    cfg = TrainConfig(
        objective=draw(st.sampled_from(MEMBERS)), steps=draw(st.integers(0, 36)),
        batch_size=draw(st.sampled_from([None, 17, 64])), seed=draw(st.integers(0, 99)),
    )
    return spec, cfg, {
        "block_rows": draw(st.integers(2, 8)), "workers": draw(st.integers(1, 3)),
        "poison": draw(st.sampled_from([None, 0.5, 0.9, 0.99])), "clean": draw(st.booleans()),
    }


@settings(max_examples=20, deadline=None)
@given(case=chunk_cases())
def test_chunked_loop_matches_one_step_chunks(case):
    """Chunks of _CHUNK_STEPS give the bytes, traces, pretraining steps and errors of one-step chunks.

    A poisoned case makes a row's update non-finite once its label
    probability passes the drawn level, in pretraining or fine-tuning.
    """
    spec, cfg, draw = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trainer, "_BLOCK_ENTRIES", draw["block_rows"] * spec.vocab_size)
        patch.setattr(trainer, "BLOCK_WORKERS", draw["workers"])
        if draw["poison"] is not None:
            kernel = trainer.gate_error_into

            def poisoned(kind, probs, labels, focus, positions=None):
                passed = probs[np.arange(labels.size), labels] > draw["poison"]
                out = kernel(kind, probs, labels, focus, positions)
                out[passed] = np.nan
                return out

            patch.setattr(trainer, "gate_error_into", poisoned)
        chunked = _outcome(spec, 5, cfg, draw["clean"])
        patch.setattr(trainer, "_CHUNK_STEPS", 1)
        assert _outcome(spec, 5, cfg, draw["clean"]) == chunked


@st.composite
def bound_cases(draw):
    """Rows whose mass sits on the label and a few rivals (where the bound is tightest), and a bar at a real state."""
    vocab = draw(st.integers(2, 6))
    table = draw(hnp.arrays(np.float64, (draw(st.integers(1, 24)), vocab), elements=st.floats(-30.0, 30.0)))
    labels = draw(hnp.arrays(np.int64, table.shape[:1], elements=st.integers(0, vocab - 1)))
    return table, labels, draw(st.integers(1, 15)), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=bound_cases())
def test_nll_bound_never_admits_the_bar_inside_a_chunk(case):
    """Set the bar at the mean of real state j (or one ulp above it): the bound admits no chunk with j inside."""
    table, labels, j, above = case
    lr, most = trainer._PRETRAIN_LEARNING_RATE, 16
    record = finetune(ToyModel(table), labels, TrainConfig(objective=NLL, learning_rate=lr, steps=most, seed=0))
    means = record.mean_target_p
    bar = np.nextafter(means[j], np.inf) if above else means[j]
    if means[0] >= bar:
        return  # pretraining would not start
    start = softmax(table)[np.arange(labels.size), labels]
    length = trainer._nll_bound_steps(start, lr, bar, most)
    assert 1 <= length <= most
    assert all(mean < bar for mean in means[1:length])


@pytest.mark.parametrize(
    "run, error",
    [("build", None), ("full-batch", None), ("minibatch", None), ("build", TrainingError), ("build", BuildError)],
    ids=["build_task", "full-batch", "minibatch", "training-error", "build-error"],
)
def test_the_loop_gives_back_the_callers_buffer_size(run, error, monkeypatch):
    """The loop's ufunc buffer size reaches every worker's steps; the caller and the pool keep their own."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 32 * 32)
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 3)
    task = build_task(RegimeSpec(regime="strong"), 4)
    pool_size = trainer._pool(trainer.BLOCK_WORKERS - 1).submit(np.getbufsize).result()
    seen = []
    kernel = trainer.gate_error_into
    monkeypatch.setattr(trainer, "gate_error_into", lambda *args: seen.append(np.getbufsize()) or kernel(*args))
    if error is TrainingError:
        _nan_nll_weight(monkeypatch)
    if error is BuildError:
        monkeypatch.setattr(trainer, "_PRETRAIN_MAX_STEPS", 3)
    runs = {
        "build": lambda: build_task(RegimeSpec(regime="strong"), 4),
        "full-batch": lambda: finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=3)),
        "minibatch": lambda: finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=3, batch_size=64)),
    }
    caller_size = np.setbufsize(4096)
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            runs[run]()
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(caller_size)
    assert trainer._pool(trainer.BLOCK_WORKERS - 1).submit(np.getbufsize).result() == pool_size
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy keeps the size per thread before 2.0
        assert seen and set(seen) == {512}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("regime", list(GOLDEN_BUILD_SHA256))
def test_golden_build_task_on_any_worker_count(regime, workers, monkeypatch):
    """147 blocks of 7 rows, the last one short, shared out over 1, 2 or 3 workers: the same bits."""
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 7 * 256)
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", workers)
    assert _build_digest(regime) == GOLDEN_BUILD_SHA256[regime]


@pytest.fixture(scope="module")
def multi_block_task():
    return build_task(_build_spec("strong"), 1)


@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize("kind", MEMBERS, ids=lambda kind: kind.encode())
def test_finetune_bits_do_not_depend_on_worker_count(kind, batch_size, multi_block_task, monkeypatch):
    """Records and final tables of 1, 2 and 3 workers over 7-row blocks are byte-identical.

    A full batch of 1024 rows is 147 parts and a minibatch of 64 is 10, the
    last part short either way.
    """
    task = multi_block_task
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 7 * 256)
    cfg = TrainConfig(objective=kind, steps=6, batch_size=batch_size, seed=2)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", workers)
        record = finetune(task.model, task.labels, cfg, clean_labels=task.clean_labels)
        arrays = [record.final_table, *dataclasses.astuple(record.deltas)]
        runs.append((json.dumps(record.to_dict()), [array.tobytes() for array in arrays]))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_more_workers_than_cores_under_fast_thread_switching(multi_block_task, monkeypatch):
    """Eight workers switching every microsecond still give the one-worker bytes."""
    task = multi_block_task
    monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 7 * 256)
    cfg = TrainConfig(objective=DEFT, steps=4, batch_size=512, seed=6)
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 1)
    expected = finetune(task.model, task.labels, cfg).final_table.tobytes()
    monkeypatch.setattr(trainer, "BLOCK_WORKERS", 8)
    tables = []
    runner = threading.Thread(
        target=lambda: tables.append(finetune(task.model, task.labels, cfg).final_table), daemon=True
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert tables[0].tobytes() == expected


class TestEachBlock:
    @staticmethod
    def _work(done, failing):
        def work(part):
            time.sleep({1: 0.05, 3: 0.02, 6: 0.06}.get(part, 0.0))  # some parts end late
            if part in failing:
                raise ValueError(f"part {part}")
            done.append(part)

        return work

    @pytest.mark.parametrize("failing", [{0}, {1, 3}, {2, 5}, {4, 7}, {7}, {8}])
    def test_first_error_in_part_order_once_every_thread_stopped(self, failing, monkeypatch):
        """With {1, 3}, part 3 fails while part 1 still sleeps, which then fails too."""
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", 3)
        done = []
        with pytest.raises(ValueError, match=f"^part {min(failing)}$"):
            trainer._each_block(self._work(done, failing), list(range(9)))
        ended = sorted(done)
        time.sleep(0.1)
        assert sorted(done) == ended  # no part was still running
        assert set(range(min(failing))) <= set(ended)
        # the pool serves the next call
        done.clear()
        trainer._each_block(self._work(done, set()), list(range(9)))
        assert sorted(done) == list(range(9))

    @pytest.mark.skipif(
        np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy keeps its error state per thread before 2.0"
    )
    def test_every_thread_sees_the_callers_numpy_error_state(self, monkeypatch):
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", 3)
        seen = []

        def work(part):
            time.sleep(0.01)
            seen.append((threading.get_ident(), np.geterr()["invalid"]))

        with np.errstate(invalid="raise"):
            trainer._each_block(work, list(range(9)))
        assert len({ident for ident, _ in seen}) > 1
        assert {state for _, state in seen} == {"raise"}

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        """The child has none of the parent's pool threads; submitting to that pool would hang."""
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", 2)
        trainer._each_block(lambda part: None, [0, 1])
        context = multiprocessing.get_context("fork")
        queue = context.SimpleQueue()

        def child():
            done = []
            trainer._each_block(done.append, list(range(4)))
            queue.put(sorted(done))

        process = context.Process(target=child)
        process.start()
        process.join(timeout=20.0)
        hung = process.is_alive()
        if hung:
            process.kill()
        assert not hung and process.exitcode == 0
        assert queue.get() == [0, 1, 2, 3]

    def test_one_worker_is_the_plain_loop(self, monkeypatch):
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", 1)
        done = []
        with pytest.raises(ValueError, match="^part 5$"):
            trainer._each_block(self._work(done, {5, 7}), list(range(9)))
        assert done == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_update_in_a_late_part_exits_one(self, workers, tmp_path, monkeypatch, capsys):
        """A weight that turns NaN on the short last part: the serial message, exit 1, on any count."""
        monkeypatch.setattr(trainer, "_BLOCK_ENTRIES", 7 * 32)
        monkeypatch.setattr(trainer, "BLOCK_WORKERS", workers)
        weight, focus = objectives._RULES["linear"]

        def short_part_nan(kind, probs, labels):
            w = weight(kind, probs, labels)
            return w * np.nan if probs.shape[0] != 7 else w

        monkeypatch.setitem(objectives._RULES, "linear", (short_part_nan, focus))
        config, out = tmp_path / "config.json", tmp_path / "run.json"
        config.write_text(json.dumps({"regime": "strong", "objective": "linear", "steps": 3}))
        code = parse_and_run(["train", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: non-finite logits after update at step 0\n"
        assert not out.exists()
