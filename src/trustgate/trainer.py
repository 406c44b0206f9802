"""Desk-scale synthetic fine-tuning harness.

The model is a per-context logit table, i.e. softmax regression with one-hot
context features, so every gradient is exact and contexts do not interfere.
A consequence worth stating once: a row's supervised-token probability rises
monotonically under its own gradient, so damage to prior knowledge is only
visible on the ORIGINAL pretraining targets. Training therefore always drives
the (possibly conflict-injected) supervision labels, while token deltas and
retention metrics are measured against the original labels; the two coincide
on clean contexts.

Three capability regimes are supported: ``strong`` (pretrained until the mean
supervised-token probability clears a high bar, then optionally
conflict-injected), ``intermediate`` (pretrained into a middle band), and
``weak`` (near-uniform random model with fresh random labels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core_math import DomainError
from .objectives import ObjectiveKind, focus_per_row, frozen_state, loss_per_row

REGIMES = ("strong", "intermediate", "weak")
CONFLICT_POLICIES = ("confident_only", "uniform")

# Pretraining bars per regime. The strong bar is deliberately high so that
# injected conflicts face a genuinely confident prior; the intermediate band
# matches a partially aligned prior.
STRONG_PRETRAIN_TARGET = 0.95
INTERMEDIATE_PRETRAIN_BAND = (0.25, 0.45)
_INTERMEDIATE_STOP = 0.35
_PRETRAIN_LEARNING_RATE = 0.5
_PRETRAIN_MAX_STEPS = 20_000
_WEAK_LOGIT_SCALE = 0.01

# Confidence threshold for the high/low split of token deltas, and the
# minimum |delta p| for a token to count as learned/forgotten in the
# quadrant proportions.
HIGH_CONFIDENCE_THRESHOLD = 0.5
MIN_COUNTED_CHANGE = 0.05

DEFAULT_HISTOGRAM_EDGES = np.linspace(0.0, 1.0, 21)


class BuildError(RuntimeError):
    """A synthetic task could not be constructed as specified."""


class TrainingError(RuntimeError):
    """A fine-tuning run produced a non-finite update."""


@dataclass(frozen=True)
class RegimeSpec:
    """Synthetic task description: capability regime plus conflict injection."""

    regime: str = "strong"
    vocab_size: int = 32
    num_contexts: int = 256
    conflict_fraction: float = 0.0
    conflict_policy: str = "confident_only"

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if self.vocab_size < 8:
            raise DomainError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.num_contexts < 64:
            raise DomainError(f"num_contexts must be >= 64, got {self.num_contexts}")
        if not 0.0 <= self.conflict_fraction < 1.0:
            raise DomainError(f"conflict_fraction must lie in [0, 1), got {self.conflict_fraction}")
        if self.conflict_policy not in CONFLICT_POLICIES:
            raise DomainError(
                f"unknown conflict_policy {self.conflict_policy!r}, expected one of {CONFLICT_POLICIES}"
            )
        if self.regime == "weak" and self.conflict_policy == "confident_only" and self.num_conflicts:
            raise DomainError(
                f"confident_only conflicts need {self.num_conflicts} confident contexts, but a weak "
                "model has none; use conflict_policy 'uniform'"
            )

    @property
    def num_conflicts(self) -> int:
        """Number of contexts whose label is replaced."""
        return int(self.conflict_fraction * self.num_contexts)


@dataclass
class ToyModel:
    """Per-context next-token model: one independent logit row per context."""

    logit_table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.logit_table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
            raise DomainError(f"logit table must be (contexts >= 1, vocab >= 2), got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise DomainError("logit table contains non-finite entries")
        self.logit_table = table

    @property
    def num_contexts(self) -> int:
        return self.logit_table.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logit_table.shape[1]

    def probs(self) -> np.ndarray:
        """Row-wise softmax of the logit table."""
        return _row_softmax(self.logit_table)

    def target_probs(self, labels: np.ndarray) -> np.ndarray:
        """Probability each context assigns to its label."""
        return self.probs()[np.arange(self.num_contexts), labels]

    def copy(self) -> "ToyModel":
        return ToyModel(self.logit_table.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one fine-tuning run; fully determined by its seed."""

    objective: ObjectiveKind
    learning_rate: float = 0.5
    steps: int = 200
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise DomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class TokenDeltas:
    """Original-label probability and frozen-state loss of every context, before and after a run.

    Entry i of each array belongs to context i. Quadrants follow the
    (delta p, delta loss) plane: Q4 (p up, loss down) is learning, Q2 (p down,
    loss up) is forgetting; Q1/Q3 hold ties and the remaining sign patterns.
    A token is high-confidence when its probability before training reached
    HIGH_CONFIDENCE_THRESHOLD.
    """

    p_before: np.ndarray
    p_after: np.ndarray
    loss_before: np.ndarray
    loss_after: np.ndarray


@dataclass
class SyntheticTask:
    """A pretrained model plus its (possibly conflict-injected) supervision."""

    model: ToyModel
    labels: np.ndarray
    clean_labels: np.ndarray
    conflict_mask: np.ndarray
    spec: RegimeSpec

    @property
    def num_conflicts(self) -> int:
        return int(self.conflict_mask.sum())


@dataclass
class RunRecord:
    """Per-step traces and end-of-run summaries of one fine-tuning run.

    ``mean_target_p`` and ``mean_alpha`` are recorded at the start of each
    step (index 0 is the initial state); deltas compare the initial and final
    states on the original labels. ``final_table`` is kept for downstream
    analysis and is not part of the JSON form.
    """

    config: dict
    mean_target_p: list[float]
    mean_alpha: list[float]
    deltas: TokenDeltas
    quadrants: dict
    histograms: list[dict]
    final_table: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "mean_target_p": self.mean_target_p,
            "mean_alpha": self.mean_alpha,
            "quadrants": self.quadrants,
            "histograms": self.histograms,
        }


def _row_softmax(table: np.ndarray) -> np.ndarray:
    shifted = table - table.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _nll_pretrain(table: np.ndarray, labels: np.ndarray, stop_at: float, ceiling: float | None) -> None:
    """Full-batch NLL ascent of the label probabilities, in place.

    Stops as soon as the mean label probability reaches ``stop_at``; raises
    BuildError if the budget runs out or ``ceiling`` is overshot.
    """
    rows = np.arange(table.shape[0])
    for _ in range(_PRETRAIN_MAX_STEPS):
        probs = _row_softmax(table)
        mean_p = float(probs[rows, labels].mean())
        if mean_p >= stop_at:
            if ceiling is not None and mean_p > ceiling:
                raise BuildError(
                    f"pretraining overshot: mean target probability {mean_p:.3f} > {ceiling}"
                )
            return
        grad = probs.copy()
        grad[rows, labels] -= 1.0
        table -= _PRETRAIN_LEARNING_RATE * grad
    raise BuildError(
        f"pretraining did not reach mean target probability {stop_at} "
        f"within {_PRETRAIN_MAX_STEPS} steps"
    )


def _inject_conflicts(
    model: ToyModel, labels: np.ndarray, spec: RegimeSpec, rng: np.random.Generator
) -> np.ndarray:
    """Replace labels on a fraction of contexts; returns the conflict mask."""
    mask = np.zeros(model.num_contexts, dtype=bool)
    count = spec.num_conflicts
    if count == 0:
        return mask
    probs = model.probs()
    argmax = probs.argmax(axis=1)
    if spec.conflict_policy == "confident_only":
        eligible = np.flatnonzero(probs.max(axis=1) >= 0.5)
        if eligible.size < count:
            raise BuildError(
                f"confident_only conflicts need {count} contexts with argmax probability "
                f">= 0.5 but only {eligible.size} qualify"
            )
    else:
        eligible = np.arange(model.num_contexts)
    chosen = rng.choice(eligible, size=count, replace=False)
    for context in chosen:
        # wrong label, drawn uniformly from the non-argmax tokens
        offset = int(rng.integers(model.vocab_size - 1))
        token = offset + (offset >= argmax[context])
        labels[context] = token
    mask[chosen] = True
    return mask


def build_task(spec: RegimeSpec, seed: int) -> SyntheticTask:
    """Construct the pretrained model and supervision labels for a regime.

    ``strong``: pretrain toward ground-truth labels until their mean
    probability reaches STRONG_PRETRAIN_TARGET, then inject conflicts.
    ``intermediate``: pretrain into INTERMEDIATE_PRETRAIN_BAND.
    ``weak``: near-zero random logits and a fresh random label mapping, so
    the mean label probability starts near 1/vocab.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, spec.vocab_size, size=spec.num_contexts).astype(np.int64)
    table = rng.normal(0.0, _WEAK_LOGIT_SCALE, size=(spec.num_contexts, spec.vocab_size))

    if spec.regime == "weak":
        # fresh mapping, independent of the (unused) pretraining draw
        labels = rng.integers(0, spec.vocab_size, size=spec.num_contexts).astype(np.int64)
    elif spec.regime == "strong":
        _nll_pretrain(table, labels, STRONG_PRETRAIN_TARGET, ceiling=None)
    else:
        low, high = INTERMEDIATE_PRETRAIN_BAND
        _nll_pretrain(table, labels, _INTERMEDIATE_STOP, ceiling=high)
        mean_p = float(_row_softmax(table)[np.arange(spec.num_contexts), labels].mean())
        if not low <= mean_p <= high:
            raise BuildError(f"intermediate pretraining landed at {mean_p:.3f}, outside [{low}, {high}]")

    model = ToyModel(table)
    clean_labels = labels.copy()
    mask = _inject_conflicts(model, labels, spec, rng)
    return SyntheticTask(
        model=model, labels=labels, clean_labels=clean_labels, conflict_mask=mask, spec=spec
    )


def _token_deltas(
    kind: ObjectiveKind,
    before: np.ndarray,
    after: np.ndarray,
    clean_labels: np.ndarray,
) -> TokenDeltas:
    probs_before = _row_softmax(before)
    probs_after = _row_softmax(after)
    rows = np.arange(before.shape[0])
    return TokenDeltas(
        p_before=probs_before[rows, clean_labels],
        p_after=probs_after[rows, clean_labels],
        loss_before=loss_per_row(kind, probs_before, clean_labels),
        loss_after=loss_per_row(kind, probs_after, clean_labels),
    )


def quadrant_stats(deltas: TokenDeltas, min_change: float = MIN_COUNTED_CHANGE) -> dict:
    """Learning/forgetting proportions, split by prior confidence.

    A token counts as learning (forgetting) when it sits in Q4 (Q2) and its
    probability moved by at least ``min_change``. ``*_high``/``*_low`` are
    proportions of the whole population; ``*_high_share`` is the
    high-confidence fraction within the quadrant (0 when the quadrant is
    empty). Proportions sum to at most 1; the remainder sits in Q1/Q3 or
    below the change threshold.
    """
    total = deltas.p_before.size
    if total == 0:
        raise DomainError("quadrant_stats requires at least one token delta")
    delta_p = deltas.p_after - deltas.p_before
    delta_loss = deltas.loss_after - deltas.loss_before
    moved = np.abs(delta_p) >= min_change
    learning = (delta_p > 0.0) & (delta_loss < 0.0) & moved
    forgetting = (delta_p < 0.0) & (delta_loss > 0.0) & moved
    high = deltas.p_before >= HIGH_CONFIDENCE_THRESHOLD
    learn, forget = int(learning.sum()), int(forgetting.sum())
    learn_high, forget_high = int((learning & high).sum()), int((forgetting & high).sum())
    return {
        "count": total,
        "learning": learn / total,
        "forgetting": forget / total,
        "learning_high": learn_high / total,
        "learning_low": (learn - learn_high) / total,
        "forgetting_high": forget_high / total,
        "forgetting_low": (forget - forget_high) / total,
        "learning_high_share": learn_high / learn if learn else 0.0,
        "forgetting_high_share": forget_high / forget if forget else 0.0,
    }


def probability_histogram(model: ToyModel, labels: np.ndarray, bins) -> np.ndarray:
    """Counts of label probabilities per bin; counts sum to the context count."""
    edges = np.asarray(bins, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise DomainError("bin edges must be a strictly ascending vector of length >= 2")
    if edges[0] > 1e-12 or edges[-1] < 1.0:
        raise DomainError(f"bin edges must cover (0, 1], got [{edges[0]}, {edges[-1]}]")
    counts, _ = np.histogram(model.target_probs(np.asarray(labels)), bins=edges)
    return counts


def _histogram_snapshot(step: int, model: ToyModel, labels: np.ndarray) -> dict:
    counts = probability_histogram(model, labels, DEFAULT_HISTOGRAM_EDGES)
    return {
        "step": step,
        "edges": [float(e) for e in DEFAULT_HISTOGRAM_EDGES],
        "counts": [int(c) for c in counts],
    }


def _check_labels(name: str, labels, model: ToyModel) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (model.num_contexts,):
        raise DomainError(
            f"{name} shape {labels.shape} does not match {model.num_contexts} contexts"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= model.vocab_size:
        raise DomainError(f"{name} contain out-of-range token indices")
    return labels


def finetune(
    model: ToyModel,
    labels: np.ndarray,
    cfg: TrainConfig,
    clean_labels: np.ndarray | None = None,
    on_step: Callable[[int, ToyModel], None] | None = None,
) -> RunRecord:
    """Gradient-descend the logit table on the supervised labels.

    The caller's model is not mutated. Each step applies the exact
    frozen-exponent logit gradient to every context in the batch (full batch
    by default). Traces record the state at the start of each step; deltas
    and quadrant statistics compare the initial and final states on
    ``clean_labels`` (defaults to the supervision labels). ``on_step``, when
    given, sees the current model before each update, for instrumentation.
    """
    labels = _check_labels("labels", labels, model)
    if clean_labels is None:
        clean_labels = labels
    clean_labels = _check_labels("clean_labels", clean_labels, model)

    table = model.logit_table.copy()
    initial = table.copy()
    rows = np.arange(table.shape[0])
    rng = np.random.default_rng(cfg.seed)
    batch = cfg.batch_size if cfg.batch_size is not None else table.shape[0]
    batch = min(batch, table.shape[0])
    order = np.arange(table.shape[0])
    cursor = 0

    mean_target_p: list[float] = []
    mean_alpha: list[float] = []
    for step in range(cfg.steps):
        probs = _row_softmax(table)
        mean_target_p.append(float(probs[rows, labels].mean()))
        if on_step is not None:
            on_step(step, ToyModel(table.copy()))

        if batch == table.shape[0]:
            members = rows
            member_probs = probs
        else:
            if cursor + batch > order.size:
                rng.shuffle(order)
                cursor = 0
            members = order[cursor : cursor + batch]
            cursor += batch
            member_probs = probs[members]

        member_labels = labels[members]
        p, w, a = frozen_state(cfg.objective, member_probs, member_labels)
        # a full batch already holds the focus of every context for the trace
        focus = a if members is rows else focus_per_row(cfg.objective, probs, labels)
        mean_alpha.append(float(focus.mean()))
        gates = w * p**a
        grad = gates[:, None] * member_probs
        grad[np.arange(members.size), member_labels] -= gates
        table[members] -= cfg.learning_rate * grad
        if not np.all(np.isfinite(table)):
            raise TrainingError(f"non-finite logits after update at step {step}")

    final_model = ToyModel(table.copy())
    deltas = _token_deltas(cfg.objective, initial, table, clean_labels)
    histograms = [
        _histogram_snapshot(0, ToyModel(initial.copy()), labels),
        _histogram_snapshot(cfg.steps, final_model, labels),
    ]
    config = {
        "objective": cfg.objective.encode(),
        "learning_rate": cfg.learning_rate,
        "steps": cfg.steps,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
    }
    return RunRecord(
        config=config,
        mean_target_p=mean_target_p,
        mean_alpha=mean_alpha,
        deltas=deltas,
        quadrants=quadrant_stats(deltas),
        histograms=histograms,
        final_table=table,
    )
