"""Gradient-magnitude landscapes over (target probability, predictive entropy).

A grid point (p, H) is realized by a spike-plus-tail distribution: mass p on
the target, and the remaining mass split between a secondary spike and a
uniform tail, with the mixing weight found by one masked bisection on the
Shannon entropy, where each cell keeps its index and the midpoint it stops at.
A member has three distinct entries (p, the spike and V - 2 equal tail shares):
the bisection scores those three per cell, and each row is built only once.
Only objectives whose gate reads the whole row (``ObjectiveKind.reads`` is
``Reads.ROW``) are bisected: every realized row holds p exactly, so each cell
of the others is gated as the mixing-weight-0 member of its p row. Cells whose
entropy is unattainable for their p are left absent. Grids normalize to their
own maximum (per-grid, recorded in the JSON metadata), and render themselves
as byte-deterministic CSV or JSON text, formatting each distinct value once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core_math import DomainError, _floats, _integer, _one_or_stack, entropy_rows
from .objectives import ObjectiveKind, Reads, gate

_BISECTION_TOL = 1e-6
_BISECTION_MAX_ITERS = 200
# Grid cells are bisected in chunks of at most this many cells, then built and
# gated in blocks of at most this many distribution entries (512 cells at
# vocabulary 32; one row when the vocabulary is larger), so peak memory stays
# flat in the grid size.
_BLOCK_ENTRIES = 1 << 14
# Largest grid, in p steps x entropy steps x vocabulary entries. It admits a
# 100 x 100 grid at vocabulary 32 fifty times over and is checked before
# anything is allocated.
MAX_GRID_ENTRIES = 2**24
# The vocabularies a landscape takes, from the smallest with a tail.
_VOCABULARY = (3, MAX_GRID_ENTRIES)


class FeasibilityError(DomainError):
    """The requested (probability, entropy) pair is not attainable."""


@dataclass
class LandscapeGrid:
    """Normalized learning-signal magnitudes; NaN cells are infeasible."""

    p_grid: np.ndarray
    h_grid: np.ndarray
    cells: np.ndarray
    vocab_size: int
    objective: str

    def to_csv(self) -> str:
        """Header ``p,entropy,magnitude``, then one line per feasible cell.

        Lines are sorted by (p, entropy), with 9 significant digits and LF
        endings, so identical grids give identical bytes.
        """
        row, col = np.nonzero(np.isfinite(self.cells))
        ps = _format_once(self.p_grid, ".9g") + ","
        hs = _format_once(self.h_grid, ".9g") + ","
        lines = map("".join, zip(ps[row], hs[col], _format_once(self.cells[row, col], ".9g")))
        return "\n".join(["p,entropy,magnitude", *lines]) + "\n"

    def to_json(self) -> str:
        """The bytes of ``json.dumps(body, indent=2) + "\\n"``, with infeasible cells ``null``.

        The body holds ``objective``, ``vocab_size``, ``normalization``
        (``"per-grid"``), ``p_grid``, ``h_grid`` and ``cells``, one list per
        p, in that order.
        """
        cells = _format_once(self.cells, "")
        cells[~np.isfinite(self.cells)] = "null"
        fields = {
            "objective": json.dumps(self.objective),
            "vocab_size": json.dumps(self.vocab_size),
            "normalization": json.dumps("per-grid"),
            "p_grid": _json_array(_json_numbers(self.p_grid).tolist(), 1),
            "h_grid": _json_array(_json_numbers(self.h_grid).tolist(), 1),
            "cells": _json_array([_json_array(row, 2) for row in cells.tolist()], 1),
        }
        return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields.items()) + "\n}\n"


def _format_once(values: np.ndarray, spec: str) -> np.ndarray:
    """``format(v, spec)`` of each float64 value, as an object array of the values' shape.

    Each distinct bit pattern is formatted once, not each value, so -0.0 and
    0.0 (and two values that differ in the last bit) keep their own text. The
    spec ``""`` gives a float's repr.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    words = np.array(list(map(float.__format__, bits.view(np.float64).tolist(), repeat(spec))), dtype=object)
    return words[inverse].reshape(values.shape)


def _json_numbers(values: np.ndarray) -> np.ndarray:
    """Each float64 value as ``json.dumps`` writes it: its repr, or ``NaN``, ``Infinity``, ``-Infinity``."""
    words = _format_once(values, "")
    odd = ~np.isfinite(values)
    words[odd] = [json.dumps(value) for value in values[odd].tolist()]
    return words


def _json_array(items: list[str], depth: int) -> str:
    """Rendered items as a JSON array, laid out as ``json.dumps(..., indent=2)`` does at nesting ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _family_entries(p: np.ndarray, mix, vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """The secondary spike and the tail share of each member; the target holds p."""
    tail_mass = 1.0 - p
    share = tail_mass * mix / (vocab - 1)
    return tail_mass * (1.0 - mix) + share, share


def _family_rows(p: np.ndarray, mix, vocab: int) -> np.ndarray:
    """Spike-plus-tail members, one row per cell: target p, a secondary spike fading into a tail."""
    spike, share = _family_entries(p, mix, vocab)
    rows = np.empty((p.size, vocab))
    rows[:, 0] = p
    rows[:, 1] = spike
    rows[:, 2:] = share[:, None]
    return rows


def _family_entropy(target_term: np.ndarray, p: np.ndarray, mix: np.ndarray, vocab: int) -> np.ndarray:
    """Shannon entropy of each member from its three distinct entries, through the one kernel.

    ``target_term`` is ``entropy_rows(p[:, None])``, constant for a cell, so a
    bisection takes it once. (0 - a) + (0 - b) has the bits of 0 - (a + b), so
    this equals ``entropy_rows`` of the stack ``[p, spike]`` plus the tail's
    V - 2 equal terms.
    """
    spike, share = _family_entries(p, mix, vocab)
    return target_term + entropy_rows(spike[:, None]) + (vocab - 2) * entropy_rows(share[:, None])


def _blocks(count: int, vocab: int):
    step = max(1, _BLOCK_ENTRIES // vocab)
    return (slice(start, start + step) for start in range(0, count, step))


def check_grid_size(p_steps: int, h_steps: int, vocab: int) -> None:
    """Refuse a grid of more than MAX_GRID_ENTRIES p steps x entropy steps x vocabulary entries, checking each count."""
    p_steps, h_steps = _integer(p_steps, "p_steps", 1), _integer(h_steps, "h_steps", 1)
    vocab = _integer(vocab, "vocabulary", *_VOCABULARY)
    if p_steps * h_steps * vocab > MAX_GRID_ENTRIES:
        raise DomainError(
            f"a {p_steps} x {h_steps} grid at vocabulary {vocab} exceeds "
            f"{MAX_GRID_ENTRIES} entries"
        )


def _entropy_bounds(p: np.ndarray, vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """Attainable entropy interval [low, high] for each target mass in p."""
    low, high = np.empty(p.size), np.empty(p.size)
    for block in _blocks(p.size, vocab):
        low[block] = entropy_rows(_family_rows(p[block], 0.0, vocab))
        high[block] = entropy_rows(_family_rows(p[block], 1.0, vocab))
    return low, high


def _realize(p, entropy, low, high, vocab: int) -> np.ndarray:
    """Mixing weight of the member hitting each cell's entropy, by one masked bisection over all cells.

    Cells must be feasible (within _BISECTION_TOL of [low, high]). Each cell
    follows the scalar rule: clamp the target into [low, high], take an
    endpoint member when it lands on one, else bisect the mixing weight from
    [0, 1] until the entropy is within _BISECTION_TOL / 2 of the target or
    _BISECTION_MAX_ITERS midpoints were tried. Each cell keeps its index and
    the midpoint it stops at; ``going`` marks the cells still bisecting, and
    ``_family_entropy`` scores every cell's member until the last one stops.
    """
    target = np.minimum(np.maximum(entropy, low), high)
    mix = np.where(target == low, 0.0, 1.0)
    going = (target != low) & (target != high)
    term = entropy_rows(p[:, None])
    lo, hi = np.zeros(p.size), np.ones(p.size)
    for _ in range(_BISECTION_MAX_ITERS):
        if not going.any():
            break
        mid = 0.5 * (lo + hi)
        value = _family_entropy(term, p, mid, vocab)
        mix = np.where(going, mid, mix)
        below = value < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        going &= np.abs(value - target) > _BISECTION_TOL * 0.5
    return mix


def feasible_entropy_range(p, vocab: int):
    """Attainable Shannon-entropy interval [low, high] for target mass p in this family.

    A scalar p gives a pair of floats; a vector of target masses gives one
    interval per entry, as two arrays. The vocabulary is an integer from 3 to
    MAX_GRID_ENTRIES (a numpy integer is taken as a Python int).
    """
    vocab = _integer(vocab, "vocabulary", *_VOCABULARY)
    p, back = _one_or_stack(_floats(p, "target probability"), row_ndim=0)
    if p.ndim != 1:
        raise DomainError(f"target probabilities must be a scalar or a 1-d vector, got shape {p.shape}")
    outside = ~((0.0 < p) & (p < 1.0))
    if outside.any():
        raise DomainError(f"target probability must lie in (0, 1), got {p[outside][0].tolist()!r}")
    low, high = _entropy_bounds(p, vocab)
    return back(low), back(high)


def construct_distribution(p, entropy, vocab: int) -> np.ndarray:
    """Distribution with target entry exactly p and Shannon entropy ~ ``entropy``.

    The mixing weight from spike to tail is found by bisection (entropy is
    strictly increasing in it) to tolerance 1e-6 within 200 iterations. A
    vector of target masses gives one distribution per entry, all realized by
    one batched bisection, each independently of the others; ``entropy`` is
    then one value for every entry or one per entry. Raises FeasibilityError,
    naming the attainable interval of the first pair that cannot be realized.
    At most MAX_GRID_ENTRIES target masses x vocabulary entries are realized.
    """
    vocab = _integer(vocab, "vocabulary", *_VOCABULARY)
    p, entropy, back = _one_or_stack(_floats(p, "target probability"), _floats(entropy, "entropy"), row_ndim=0)
    if p.size * vocab > MAX_GRID_ENTRIES:
        raise DomainError(f"{p.size} target masses at vocabulary {vocab} exceed {MAX_GRID_ENTRIES} entries")
    low, high = feasible_entropy_range(p, vocab)
    if entropy.shape not in ((), p.shape):
        raise DomainError(
            f"entropies of shape {entropy.shape} do not match target probabilities of shape {p.shape}"
        )
    entropy = np.broadcast_to(entropy, p.shape)
    infeasible = ~((entropy >= low - _BISECTION_TOL) & (entropy <= high + _BISECTION_TOL))
    if infeasible.any():
        i = int(np.flatnonzero(infeasible)[0])
        raise FeasibilityError(
            f"entropy {float(entropy[i])!r} unattainable for p={float(p[i])!r}, vocab={vocab}: "
            f"feasible interval is [{low[i]:.6f}, {high[i]:.6f}]"
        )
    return back(_family_rows(p, _realize(p, entropy, low, high, vocab), vocab))


def _check_grid(values: np.ndarray, what: str) -> None:
    if (
        values.ndim != 1
        or values.size == 0
        or not np.all(np.isfinite(values))
        or np.any(np.diff(values) <= 0.0)
    ):
        raise DomainError(f"{what} grid must be a nonempty ascending vector of finite values")


def gradient_landscape(kind: ObjectiveKind, p_grid, h_grid, vocab: int) -> LandscapeGrid:
    """Learning-signal magnitude at each feasible (p, H) cell, grid-normalized.

    When the gate reads the whole row (``kind.reads`` is ``Reads.ROW``), the
    mixing weights of all feasible cells are found by one batched bisection
    (see ``construct_distribution``), chunk by chunk; otherwise every cell
    keeps mixing weight 0, since each realized row holds p exactly and its
    gate would have the same bits. Then the rows are built block by block, and
    a block's magnitudes are ``objectives.gate(...).signal`` of its rows with
    the target at entry 0, so the grids check and gate their rows as a library
    caller does. Raises DomainError when feasible cells exist but none carries
    a positive finite signal, since the grid then cannot be normalized.
    """
    p_grid, h_grid = _floats(p_grid, "p grid"), _floats(h_grid, "entropy grid")
    _check_grid(p_grid, "p")
    _check_grid(h_grid, "entropy")
    check_grid_size(p_grid.size, h_grid.size, vocab)

    low, high = feasible_entropy_range(p_grid, vocab)
    row, col = np.nonzero(
        (h_grid >= low[:, None] - _BISECTION_TOL) & (h_grid <= high[:, None] + _BISECTION_TOL)
    )
    mix = np.zeros(row.size)
    if kind.reads == Reads.ROW:
        for block in _blocks(row.size, 1):
            i = row[block]
            mix[block] = _realize(p_grid[i], h_grid[col[block]], low[i], high[i], vocab)
    signal = np.empty(row.size)
    for block in _blocks(row.size, vocab):
        dists = _family_rows(p_grid[row[block]], mix[block], vocab)
        signal[block] = gate(kind, dists, np.zeros(len(dists), dtype=np.intp)).signal
    cells = np.full((p_grid.size, h_grid.size), np.nan)
    if signal.size:
        top = signal.max()
        if not (np.isfinite(top) and top > 0.0):
            raise DomainError(
                f"objective {kind.encode()} has no positive finite learning signal on any "
                "feasible cell, so the grid cannot be normalized"
            )
        cells[row, col] = signal / top
    return LandscapeGrid(
        p_grid=p_grid, h_grid=h_grid, cells=cells, vocab_size=int(vocab), objective=kind.encode()
    )
