"""Synthetic task construction and fine-tuning dynamics."""

import numpy as np
import numpy.testing as npt
import pytest

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
    build_task,
    finetune,
    fixed_alpha,
    gate,
    probability_histogram,
    quadrant_stats,
)
from trustgate.trainer import DEFAULT_HISTOGRAM_EDGES


def final_probs(record):
    table = record.final_table
    expd = np.exp(table - table.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def clean_retention(record, task):
    probs = final_probs(record)
    return float(probs[np.arange(len(task.labels)), task.clean_labels].mean())


class TestBuildTask:
    def test_strong_regime_clears_pretraining_bar(self):
        task = build_task(RegimeSpec(regime="strong"), 7)
        assert float(task.model.target_probs(task.labels).mean()) >= 0.6

    def test_weak_regime_starts_near_uniform(self):
        task = build_task(RegimeSpec(regime="weak", vocab_size=32), 7)
        assert float(task.model.target_probs(task.labels).mean()) == pytest.approx(
            1.0 / 32.0, abs=0.01
        )

    def test_intermediate_regime_lands_in_band(self):
        task = build_task(RegimeSpec(regime="intermediate"), 7)
        mean_p = float(task.model.target_probs(task.labels).mean())
        assert 0.25 <= mean_p <= 0.45

    def test_confident_conflicts_count_and_eligibility(self):
        spec = RegimeSpec(regime="strong", conflict_fraction=0.1, conflict_policy="confident_only")
        task = build_task(spec, 7)
        assert task.num_conflicts == int(0.1 * spec.num_contexts)
        # pre-injection model state: rebuild without injection from the same seed
        pristine = build_task(RegimeSpec(regime="strong"), 7)
        peak = pristine.model.probs().max(axis=1)
        assert bool((peak[task.conflict_mask] >= 0.5).all())
        argmax = pristine.model.probs().argmax(axis=1)
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
            assert build_task(spec, 7).num_conflicts == 0

    def test_confident_conflicts_scarce_on_intermediate_prior(self):
        """Eligibility that depends on the pretrained model still fails at build time."""
        spec = RegimeSpec(regime="intermediate", conflict_fraction=0.9, conflict_policy="confident_only")
        with pytest.raises(BuildError, match="qualify"):
            build_task(spec, 7)

    def test_uniform_conflicts_on_weak_prior(self):
        spec = RegimeSpec(regime="weak", conflict_fraction=0.25, conflict_policy="uniform")
        task = build_task(spec, 7)
        assert task.num_conflicts == int(0.25 * spec.num_contexts)

    def test_deterministic_given_seed(self):
        spec = RegimeSpec(regime="strong", conflict_fraction=0.1)
        a = build_task(spec, 3)
        b = build_task(spec, 3)
        npt.assert_array_equal(a.model.logit_table, b.model.logit_table)
        npt.assert_array_equal(a.labels, b.labels)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            RegimeSpec(regime="mega")
        with pytest.raises(DomainError):
            RegimeSpec(vocab_size=4)
        with pytest.raises(DomainError):
            RegimeSpec(conflict_fraction=1.0)
        with pytest.raises(DomainError):
            RegimeSpec(conflict_policy="always")


class TestFinetune:
    def test_zero_steps_is_identity(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        record = finetune(task.model, task.labels, TrainConfig(objective=NLL, steps=0, seed=0))
        assert record.mean_target_p == [] and record.mean_alpha == []
        npt.assert_array_equal(record.deltas.p_before, record.deltas.p_after)
        assert record.quadrants["learning"] == 0.0
        assert record.quadrants["forgetting"] == 0.0
        npt.assert_array_equal(record.final_table, task.model.logit_table)

    def test_zero_context_table_rejected(self):
        with pytest.raises(DomainError, match="contexts >= 1"):
            ToyModel(np.zeros((0, 8)))

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
        seen = []

        def check(step, model):
            probs = model.probs()
            assert np.all(np.isfinite(probs))
            npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            seen.append(step)

        record = finetune(
            task.model,
            task.labels,
            TrainConfig(objective=NLL, steps=25, seed=0),
            clean_labels=task.clean_labels,
            on_step=check,
        )
        assert seen == list(range(25))
        assert np.all(np.isfinite(record.final_table))

    def test_runtime_signal_ordering(self):
        """Per token and state, linear signal <= collision signal <= open signal."""
        task = build_task(RegimeSpec(regime="intermediate"), 5)
        rng = np.random.default_rng(0)
        samples = rng.integers(0, task.model.num_contexts, size=100)

        def check(step, model):
            probs = model.probs()
            for context in samples[:10]:
                dist = probs[context]
                target = int(task.labels[context])
                lin = gate(LINEAR, dist, target).signal
                dft = gate(DEFT, dist, target).signal
                nll = gate(NLL, dist, target).signal
                assert lin <= dft + 1e-12
                assert dft <= nll + 1e-12

        finetune(
            task.model,
            task.labels,
            TrainConfig(objective=DEFT, steps=20, seed=0),
            on_step=check,
        )

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

    def test_label_shape_mismatch(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        with pytest.raises(DomainError):
            finetune(task.model, task.labels[:-1], TrainConfig(objective=NLL, steps=1, seed=0))

    @pytest.mark.parametrize("bad", [np.full(256, -1), np.full(256, 32), np.zeros(255, dtype=int)])
    def test_clean_labels_checked_like_labels(self, bad):
        task = build_task(RegimeSpec(regime="weak"), 1)
        with pytest.raises(DomainError, match="clean_labels"):
            cfg = TrainConfig(objective=NLL, steps=1, seed=0)
            finetune(task.model, task.labels, cfg, clean_labels=bad)


def _deltas(*tokens):
    """TokenDeltas from (p_before, p_after, loss_before, loss_after) tuples, one per context."""
    columns = np.array(tokens, dtype=np.float64).reshape(-1, 4).T
    return TokenDeltas(*columns)


def _quadrant_stats_per_token(deltas, min_change=0.05):
    """Reference: the per-token classification into quadrants, one context at a time."""
    learning, forgetting, learn_high, forget_high = 0, 0, 0, 0
    for pb, pa, lb, la in zip(deltas.p_before, deltas.p_after, deltas.loss_before, deltas.loss_after):
        moved = abs(pa - pb) >= min_change
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
        start = task.model.probs()
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


class TestProbabilityHistogram:
    def test_confident_model_fills_top_bin(self):
        table = np.zeros((64, 8))
        table[:, 0] = 40.0
        model = ToyModel(table)
        labels = np.zeros(64, dtype=np.int64)
        counts = probability_histogram(model, labels, DEFAULT_HISTOGRAM_EDGES)
        assert counts[-1] == 64
        assert counts.sum() == 64

    def test_weak_model_mass_sits_at_one_over_vocab(self):
        task = build_task(RegimeSpec(regime="weak", vocab_size=32), 7)
        counts = probability_histogram(task.model, task.labels, DEFAULT_HISTOGRAM_EDGES)
        bin_of_uniform = int(np.digitize(1.0 / 32.0, DEFAULT_HISTOGRAM_EDGES)) - 1
        assert counts[bin_of_uniform] == task.model.num_contexts

    def test_sharpening_raises_top_bin(self):
        task = build_task(RegimeSpec(regime="strong"), 8)
        record = finetune(task.model, task.labels, TrainConfig(objective=LINEAR, steps=100, seed=8))
        before = record.histograms[0]["counts"]
        after = record.histograms[-1]["counts"]
        assert after[-1] >= before[-1]

    def test_malformed_edges_rejected(self):
        task = build_task(RegimeSpec(regime="weak"), 1)
        with pytest.raises(DomainError):
            probability_histogram(task.model, task.labels, [0.0, 0.5, 0.4, 1.0])
        with pytest.raises(DomainError):
            probability_histogram(task.model, task.labels, [0.2, 0.5, 1.0])


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
