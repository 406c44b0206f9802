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

import contextlib
import contextvars
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core_math import PROB_FLOOR, DomainError, _choice, _floats, _instance, _integer, _real
from .objectives import (
    NLL, ObjectiveKind, _positions, _with_targets, focus_per_row, gate_error_into, loss_per_row, softmax_into
)

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

# Largest logit table a task may have, in entries (512 MiB of float64). It
# admits 4096 contexts x 1024 tokens sixteen times over and is checked before
# anything is allocated.
MAX_TABLE_ENTRIES = 2**26

# Most fine-tuning steps a run may take, checked before any work. Each step
# keeps two Python floats for the record's traces and writes them as two JSON
# lines (about 48 bytes), so at the bound the traces take about 6 MiB in memory
# and 5 MB in the artifact. It is 5x the pretraining budget.
MAX_TRAIN_STEPS = 100_000

# Entries per block of rows in the row-wise kernels (512 KiB of float64). A
# block's logits, probabilities and temporaries stay in one core's cache
# through every operation of a step, and a full batch takes a whole chunk of
# steps on one block before the next, so a large table is read from memory
# once per chunk rather than once per operation, and no temporary grows with
# the table.
_BLOCK_ENTRIES = 2**16

# Steps in a full-batch chunk: how long a block stays in cache. The records
# hold up to two floats per row per step (1 MiB at 4096 rows). At 4096 x 1024
# on 2 vCPUs, 48 NLL steps took 0.44 s one at a time and 0.37, 0.36 and
# 0.36 s in chunks of 8, 16 and 32 (0.88, 0.74, 0.68 and 0.65 s on one core).
_CHUNK_STEPS = 16

# How far the NLL bound keeps a pretraining chunk's inner means below the bar.
# Over a chunk, float64 rounding in the steps, the bound and the means moves a
# mean off the bound by about 5e-13 at the logits a 4096 x 1024 strong build
# reaches (|z| < 10), and by under 2e-10 even at |z| = 1e4 (CHANGES.md). A
# chunk that the margin cuts short only ends a step earlier.
_BOUND_MARGIN = 1e-9

# Threads that take the row blocks: every core in the process's affinity mask
# (``taskset`` confines a run). Each block writes only its own rows, and every
# reduction runs after all blocks are done, so no bit depends on this count.
BLOCK_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

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
        for name, value in dict(
            regime=_choice(self.regime, "regime", REGIMES),
            vocab_size=_integer(self.vocab_size, "vocab_size", 8),
            num_contexts=_integer(self.num_contexts, "num_contexts", 64),
            conflict_fraction=_real(self.conflict_fraction, "conflict_fraction", 0, 1, closed="left"),
            conflict_policy=_choice(self.conflict_policy, "conflict_policy", CONFLICT_POLICIES),
        ).items():
            object.__setattr__(self, name, value)  # the dataclass is frozen
        if self.vocab_size * self.num_contexts > MAX_TABLE_ENTRIES:
            raise DomainError(
                f"a {self.num_contexts} x {self.vocab_size} logit table exceeds "
                f"{MAX_TABLE_ENTRIES} entries"
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
        table = _floats(self.logit_table, "logit table")
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 2:
            raise DomainError(f"logit table must be (contexts >= 1, vocab >= 2), got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise DomainError("logit table contains non-finite entries")
        self.logit_table = table

    @property
    def num_contexts(self) -> int:
        return self.logit_table.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one fine-tuning run; fully determined by its seed."""

    objective: ObjectiveKind
    learning_rate: float = 0.5
    steps: int = 200
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self) -> None:
        _instance(self.objective, "objective", ObjectiveKind)
        for name, value in dict(
            learning_rate=_real(self.learning_rate, "learning_rate", 0, sys.float_info.max, closed="right"),
            steps=_integer(self.steps, "steps", 0, MAX_TRAIN_STEPS),
            batch_size=None if self.batch_size is None else _integer(self.batch_size, "batch_size", 1),
            seed=_integer(self.seed, "seed", 0),
        ).items():
            object.__setattr__(self, name, value)  # the dataclass is frozen


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
    """A pretrained model plus its (possibly conflict-injected) supervision.

    ``pretrain_steps`` is the number of pretraining updates taken (0 for the
    weak regime), ``pretrain_chunks`` the number of chunks they were taken in
    (one per step on a table of one block), and ``pretrain_mean_p`` the mean
    probability of the clean labels where pretraining stopped. None of them
    is part of any artifact.
    """

    model: ToyModel
    labels: np.ndarray
    clean_labels: np.ndarray
    conflict_mask: np.ndarray
    pretrain_steps: int
    pretrain_chunks: int
    pretrain_mean_p: float


@dataclass
class RunRecord:
    """Per-step traces and end-of-run summaries of one fine-tuning run.

    ``mean_target_p`` and ``mean_alpha`` are recorded at the start of each
    step (index 0 is the initial state); deltas compare the initial and final
    states on the original labels. ``final_table`` is kept for downstream
    analysis, and ``updates`` counts the table updates the run took: one per
    step for a full batch, one per epoch segment for a minibatch. Neither is
    part of the JSON form.
    """

    config: dict
    mean_target_p: list[float]
    mean_alpha: list[float]
    deltas: TokenDeltas
    quadrants: dict
    histograms: list[dict]
    final_table: np.ndarray = field(repr=False)
    updates: int

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "mean_target_p": self.mean_target_p,
            "mean_alpha": self.mean_alpha,
            "quadrants": self.quadrants,
            "histograms": self.histograms,
        }


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices that cut ``rows`` rows of ``width`` entries into blocks of about _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


@functools.cache
def _pool(threads: int):
    """The process's pool of ``threads`` block threads, made on first use; it starts a thread only as tasks arrive."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(threads, "trustgate-blocks")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has none of the parent's threads


def _each_block(work, parts: list) -> None:
    """``work(part)`` for every part, the parts shared out over the workers.

    The calling thread and up to ``BLOCK_WORKERS - 1`` threads of a shared
    pool claim the parts in order, one at a time, so a core that runs slow
    takes fewer of them; parts must touch disjoint rows. Every thread has
    stopped when this returns or raises. After an error no further part is
    claimed, and the error raised is the first in part order, the one the
    plain loop raises. With one part or one worker it is that loop.
    """
    workers = min(BLOCK_WORKERS, len(parts))
    if workers <= 1:
        for part in parts:
            work(part)
        return
    pool = _pool(BLOCK_WORKERS - 1)
    claims = itertools.count()
    errors = {}

    def run() -> None:
        # parts are claimed in order, so every part before a failed one has run
        while not errors:
            index = next(claims)
            if index >= len(parts):
                return
            try:
                work(parts[index])
            except BaseException as exc:  # raised below, once every thread has stopped
                errors[index] = exc

    # each thread sees the caller's context, numpy's error state and buffer size included
    futures = [pool.submit(contextvars.copy_context().run, run) for _ in range(workers - 1)]
    run()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]


def _softmax_table(table: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a whole table into a new buffer, one block of rows at a time."""
    out = np.empty_like(table)
    _each_block(lambda block: softmax_into(table[block], out[block]), _row_blocks(*table.shape))
    return out


def _by_blocks(rule, kind: ObjectiveKind, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """A row-wise objective rule over a whole table, one block of rows at a time."""
    out = np.empty(probs.shape[0])

    def fill(block: slice) -> None:
        out[block] = rule(kind, probs[block], labels[block])

    _each_block(fill, _row_blocks(*probs.shape))
    return out


def _descend(
    kind: ObjectiveKind, lr: float, table: np.ndarray, probs: np.ndarray, labels: np.ndarray, batch: int, rng
):
    """Descend ``table`` on ``labels`` under ``kind`` in place, ``probs`` its softmax: the one training loop.

    A generator of chunks of steps. It first yields the start state; sent a
    number of steps, it takes them and yields the states they reach. Each
    yield is ``(mean_p, mean_alpha, target_p, updates)``: the mean label
    probability and the mean focus of each state, as lists (a static
    member's constant focus as it is, not summed), every row's label
    probability at the last state, in an array of its own that the caller
    may keep, and the number of table updates taken so far.

    A step forms ``lr * gate * (P - onehot)`` over its ``batch`` rows through
    ``gate_error_into``, subtracts it and softmaxes the rows back; a dynamic
    member's focus is refreshed. Rows never interact, so a full batch takes
    each block of the table through the whole chunk while it stays in cache,
    and records its rows' label probability and focus after each step. A
    minibatch takes consecutive cuts of ``batch`` rows from an order of the
    rows, the unshuffled one first, and shuffles it by ``rng`` when the next
    cut would run past its end. The cuts between two shuffles are disjoint,
    so each such epoch (cut short where the chunk ends) is one update of the
    union of its cuts, each row at the step of its cut: the table's blocks
    when the union is every row, else the sorted union in parts, each
    gathered once and scattered back. The calling thread rebuilds the
    epoch's records from the states before and after it, a row at step
    ``k`` holding the state after its update when its step is at most
    ``k``, and reduces each record in one call, a row per state: the bits of
    ``np.mean`` of each state of the step-major loop. A non-finite update
    stops its part, and once the parts have stopped the loop raises
    TrainingError at the lowest step among the failing rows, the step the
    step-major loop meets first. The ufunc buffer is 512 entries while the
    loop runs (the same bits, column broadcasts kept in cache), and the
    caller's size comes back when the loop raises or is closed.
    """
    rows, width = table.shape
    flat, positions = probs.ravel(), _positions(probs, labels)
    focus = _by_blocks(focus_per_row, kind, probs, labels)
    dynamic = kind.is_dynamic
    static_alpha = None if dynamic else float(focus[0])
    # for an epoch of every row: basic slices, whose probs and table rows are views and whose target positions
    # never change
    blocks = None
    if rows % batch == 0:
        blocks = [(block, _positions(probs[block], labels[block])) for block in _row_blocks(rows, width)]
    order = np.arange(rows)
    cursor = updates = 0
    step_of = np.zeros(rows, dtype=np.int64)  # each row's step in the current epoch (stale outside it)
    failed = []  # the lowest step of each part whose update turned non-finite

    def update(part, part_positions, step: np.ndarray) -> bool:
        """The one update, of ``part``'s rows, each at its ``step``.

        False, with nothing softmaxed or scattered, if the new rows are not finite.
        """
        part_probs, part_labels = probs[part], labels[part]
        gate_error_into(kind, part_probs, part_labels, focus[part], part_positions)
        part_probs *= lr
        # a view for a block; the rows of a partial epoch are gathered once and scattered back
        updated = table[part]
        updated -= part_probs
        if not np.isfinite(updated).all():
            failed.append(int(step[~np.isfinite(updated).all(axis=1)].min()))
            return False
        # the part's probs take the softmax of its updated rows
        softmax_into(updated, part_probs)
        if not isinstance(part, slice):
            table[part] = updated
            probs[part] = part_probs
        del updated  # gathered rows are freed before the focus rule takes its temporaries
        if dynamic:
            focus[part] = focus_per_row(kind, part_probs, part_labels)
        return True

    def chunk_on(part: tuple, row_steps: np.ndarray, target_p: np.ndarray, focuses: np.ndarray | None) -> None:
        """Update a block once per row of ``row_steps`` (each row's step), recording its rows after each."""
        block, block_positions = part
        block_flat = probs[block].ravel()
        for k in range(row_steps.shape[0]):
            if not update(block, block_positions, row_steps[k, block]):
                return
            target_p[k, block] = block_flat[block_positions]
            if dynamic:
                focuses[k, block] = focus[block]

    def reached(target_p: np.ndarray, focuses: np.ndarray | None) -> tuple[list, list, np.ndarray, int]:
        mean_p = (target_p.sum(axis=1) / rows).tolist()
        mean_alpha = (focuses.sum(axis=1) / rows).tolist() if dynamic else [static_alpha] * len(mean_p)
        return mean_p, mean_alpha, target_p[-1], updates

    bufsize = np.setbufsize(512)
    try:
        before_p, before_focus = flat[positions], focus.copy()
        steps = yield reached(before_p[None], focus[None])
        first = 0
        while True:
            target_p = np.empty((steps, rows))
            focuses = np.empty((steps, rows)) if dynamic else None
            if batch == rows:
                row_steps = np.broadcast_to(np.arange(first, first + steps)[:, None], target_p.shape)
                _each_block(lambda part: chunk_on(part, row_steps, target_p, focuses), blocks)
                updates += steps
            else:
                k = 0
                while k < steps and not failed:
                    if cursor + batch > rows:
                        rng.shuffle(order)
                        cursor = 0
                    cuts = min(steps - k, (rows - cursor) // batch)
                    members = order[cursor : cursor + cuts * batch]
                    cursor += cuts * batch
                    step_of[members] = first + k + np.arange(members.size) // batch
                    end = k + cuts - 1  # the epoch's last step, by which each of its rows has taken its update
                    if members.size == rows:
                        ends = (target_p[end : end + 1], focuses[end : end + 1] if dynamic else None)
                        _each_block(lambda part: chunk_on(part, step_of[None], *ends), blocks)
                    else:
                        union = np.sort(members)
                        parts = [union[cut] for cut in _row_blocks(union.size, width)]
                        _each_block(lambda part: update(part, None, step_of[part]), parts)
                        target_p[end] = flat[positions]
                        if dynamic:
                            focuses[end] = focus
                    updates += 1
                    # each earlier step of the epoch holds a row's state before its update or after it
                    later = step_of > np.arange(first + k, first + end)[:, None]
                    target_p[k:end] = np.where(later, before_p, target_p[end])
                    before_p = target_p[end]
                    if dynamic:
                        focuses[k:end] = np.where(later, before_focus, focuses[end])
                        before_focus = focuses[end]
                    k = end + 1
            if failed:
                raise TrainingError(f"non-finite logits after update at step {min(failed)}")
            first += steps
            steps = yield reached(target_p, focuses)
    finally:
        np.setbufsize(bufsize)


def _nll_bound_steps(target_p: np.ndarray, lr: float, bar: float, most: int) -> int:
    """Longest chunk, of at most ``most`` steps, in which no state before the last can reach mean ``bar``.

    The rows start at label probability ``target_p``, and each step is
    full-batch NLL at rate ``lr`` < 2. Such a step moves a row's label
    probability from p to at most f(p) = 1 / (1 + (1 - p) / p * exp(-2 lr (1 - p))),
    since every other entry is at most 1 - p, and f increases in p when
    lr < 2, so the row is at most f^k(p) after k steps. The chunk ends at the
    first k whose bound on the mean comes within _BOUND_MARGIN of the bar.
    Its last state may reach the bar; that state is where pretraining stops.
    """
    p = np.maximum(target_p, PROB_FLOOR) if most > 1 else target_p
    for steps in range(1, most):
        p = 1.0 / (1.0 + (1.0 - p) / p * np.exp(-2.0 * lr * (1.0 - p)))
        if p.sum() / p.size >= bar - _BOUND_MARGIN:
            return steps
    return most


def _inject_conflicts(
    probs: np.ndarray, labels: np.ndarray, spec: RegimeSpec, rng: np.random.Generator
) -> np.ndarray:
    """Replace labels on a fraction of contexts, given the model's probs; returns the conflict mask."""
    num_contexts, vocab_size = probs.shape
    mask = np.zeros(num_contexts, dtype=bool)
    count = spec.num_conflicts
    if count == 0:
        return mask
    argmax = probs.argmax(axis=1)
    if spec.conflict_policy == "confident_only":
        eligible = np.flatnonzero(probs.max(axis=1) >= 0.5)
        if eligible.size < count:
            raise BuildError(
                f"confident_only conflicts need {count} contexts with argmax probability "
                f">= 0.5 but only {eligible.size} qualify"
            )
    else:
        eligible = np.arange(num_contexts)
    chosen = rng.choice(eligible, size=count, replace=False)
    # wrong labels, drawn uniformly from the non-argmax tokens
    offsets = rng.integers(vocab_size - 1, size=count)
    labels[chosen] = offsets + (offsets >= argmax[chosen])
    mask[chosen] = True
    return mask


def build_task(spec: RegimeSpec, seed: int) -> SyntheticTask:
    """Construct the pretrained model and supervision labels for a regime.

    ``strong``: pretrain toward ground-truth labels until their mean
    probability reaches STRONG_PRETRAIN_TARGET, then inject conflicts.
    ``intermediate``: pretrain into INTERMEDIATE_PRETRAIN_BAND.
    ``weak``: near-zero random logits and a fresh random label mapping, so
    the mean label probability starts near 1/vocab (pretraining stops at
    once, after 0 steps).
    Pretraining, full-batch NLL, raises BuildError if the state after
    _PRETRAIN_MAX_STEPS updates is still short of the bar. It runs in
    chunks that ``_nll_bound_steps`` admits, each ending no later than the
    first state that can reach the bar, so the state where it stops is a
    chunk's last; a mean inside a chunk at the bar raises BuildError.
    """
    _instance(spec, "spec", RegimeSpec)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    labels = rng.integers(0, spec.vocab_size, size=spec.num_contexts).astype(np.int64)
    table = rng.normal(0.0, _WEAK_LOGIT_SCALE, size=(spec.num_contexts, spec.vocab_size))

    low, high = INTERMEDIATE_PRETRAIN_BAND
    if spec.regime == "weak":
        # fresh mapping, independent of the (unused) pretraining draw
        labels = rng.integers(0, spec.vocab_size, size=spec.num_contexts).astype(np.int64)
        stop_at = 0.0
    elif spec.regime == "strong":
        stop_at = STRONG_PRETRAIN_TARGET
    else:
        stop_at = _INTERMEDIATE_STOP
    probs = _softmax_table(table)
    # one block stays in cache from step to step anyway, so it takes its steps one at a time
    longest = _CHUNK_STEPS if len(_row_blocks(*table.shape)) > 1 else 1
    steps = chunks = 0
    states = _descend(NLL, _PRETRAIN_LEARNING_RATE, table, probs, labels, spec.num_contexts, None)
    with contextlib.closing(states):
        (mean_p,), _, target_p, _ = next(states)
        while mean_p < stop_at:
            if steps == _PRETRAIN_MAX_STEPS:
                raise BuildError(
                    f"pretraining did not reach mean target probability {stop_at} "
                    f"within {_PRETRAIN_MAX_STEPS} steps"
                )
            length = _nll_bound_steps(
                target_p, _PRETRAIN_LEARNING_RATE, stop_at, min(longest, _PRETRAIN_MAX_STEPS - steps)
            )
            means, _, target_p, _ = states.send(length)
            if max(means[:-1], default=-math.inf) >= stop_at:
                inner = next(k for k, mean in enumerate(means) if mean >= stop_at)
                raise BuildError(
                    f"pretraining reached mean target probability {stop_at} at step {steps + inner + 1}, "
                    f"inside a chunk of {length} steps that the NLL bound admitted"
                )
            steps, chunks, mean_p = steps + length, chunks + 1, means[-1]
    if spec.regime == "intermediate" and not low <= mean_p <= high:
        raise BuildError(f"intermediate pretraining landed at {mean_p:.3f}, outside [{low}, {high}]")

    clean_labels = labels.copy()
    mask = _inject_conflicts(probs, labels, spec, rng)
    return SyntheticTask(
        model=ToyModel(table), labels=labels, clean_labels=clean_labels, conflict_mask=mask,
        pretrain_steps=steps, pretrain_chunks=chunks, pretrain_mean_p=mean_p
    )


def quadrant_stats(deltas: TokenDeltas) -> dict:
    """Learning/forgetting proportions, split by prior confidence.

    A token counts as learning (forgetting) when it sits in Q4 (Q2) and its
    probability moved by at least MIN_COUNTED_CHANGE. ``*_high``/``*_low`` are
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
    moved = np.abs(delta_p) >= MIN_COUNTED_CHANGE
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


def _histogram_snapshot(step: int, target_p: np.ndarray) -> dict:
    counts, _ = np.histogram(target_p, bins=DEFAULT_HISTOGRAM_EDGES)
    return {
        "step": step,
        "edges": DEFAULT_HISTOGRAM_EDGES.tolist(),
        "counts": counts.tolist(),
    }


def _check_labels(name: str, labels, model: ToyModel) -> np.ndarray:
    """One label per context, checked as objective targets are, the message prefixed with ``name``."""
    try:
        return _with_targets(model.logit_table, labels)[1]
    except DomainError as exc:
        raise DomainError(f"{name}: {exc}") from None


def _label_state(kind: ObjectiveKind, probs: np.ndarray, clean_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clean-label p and clean-label frozen loss of one state's probs."""
    return probs[np.arange(probs.shape[0]), clean_labels], _by_blocks(loss_per_row, kind, probs, clean_labels)


def finetune(
    model: ToyModel,
    labels: np.ndarray,
    cfg: TrainConfig,
    clean_labels: np.ndarray | None = None,
) -> RunRecord:
    """Gradient-descend the logit table on the supervised labels.

    The caller's model is not mutated. Each step applies the exact
    frozen-exponent logit gradient to every context in the batch (full batch
    by default, updated in place). Traces record the state at the start of
    each step ``k``, which is the final table of a ``k``-step run; deltas and
    quadrant statistics compare the start and end states on ``clean_labels``
    (defaults to the supervision labels), read from the loop's softmax
    buffer. The two histograms take the supervised-label probabilities that
    the loop yields for its start state and its last state. No copy of the
    start table is kept.
    """
    _instance(model, "model", ToyModel)
    _instance(cfg, "cfg", TrainConfig)
    labels = _check_labels("labels", labels, model)
    if clean_labels is None:
        clean_labels = labels
    clean_labels = _check_labels("clean_labels", clean_labels, model)

    table = model.logit_table.copy()
    probs = _softmax_table(table)
    p_before, loss_before = _label_state(cfg.objective, probs, clean_labels)
    batch = min(cfg.batch_size or table.shape[0], table.shape[0])
    states = _descend(cfg.objective, cfg.learning_rate, table, probs, labels, batch, np.random.default_rng(cfg.seed))
    with contextlib.closing(states):
        mean_target_p, mean_alpha, target_p_before, updates = next(states)
        target_p_after = target_p_before
        for first in range(0, cfg.steps, _CHUNK_STEPS):
            mean_p, alpha, target_p_after, updates = states.send(min(_CHUNK_STEPS, cfg.steps - first))
            mean_target_p += mean_p
            mean_alpha += alpha
    # the state after the last step is not traced
    del mean_target_p[cfg.steps :], mean_alpha[cfg.steps :]

    p_after, loss_after = _label_state(cfg.objective, probs, clean_labels)
    deltas = TokenDeltas(p_before, p_after, loss_before, loss_after)
    histograms = [
        _histogram_snapshot(0, target_p_before),
        _histogram_snapshot(cfg.steps, target_p_after),
    ]
    config = {attr.name: getattr(cfg, attr.name) for attr in fields(cfg)} | {"objective": cfg.objective.encode()}
    return RunRecord(
        config=config,
        mean_target_p=mean_target_p,
        mean_alpha=mean_alpha,
        deltas=deltas,
        quadrants=quadrant_stats(deltas),
        histograms=histograms,
        final_table=table,
        updates=updates,
    )
