"""Landscape realization, grid construction, and artifact text and writing."""

import hashlib
import json
import math
import os
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustgate import (
    DEFT,
    LINEAR,
    NLL,
    DomainError,
    FeasibilityError,
    RegimeSpec,
    TrainConfig,
    build_task,
    construct_distribution,
    default_kinds,
    feasible_entropy_range,
    finetune,
    fixed_alpha,
    gate,
    gradient_landscape,
    shannon_entropy,
)
from trustgate import landscape
from trustgate.cli import parse_and_run, write_atomic
from trustgate.core_math import entropy_rows
from trustgate.landscape import (
    MAX_GRID_ENTRIES,
    LandscapeGrid,
    _family_rows,
    _format_once,
    _realize,
    check_grid_size,
)
from trustgate.objectives import _RULES, ObjectiveKind, Reads, frozen_state


def scalar_construct(p, entropy, vocab):
    """Per-cell reference: the spike-plus-tail bisection as one Python loop per cell.

    Kept apart from the batched code on purpose: the batched bisection must
    reproduce this rule bit for bit.
    """

    def member(mix):
        dist = np.empty(vocab)
        dist[0] = p
        share = (1.0 - p) * mix / (vocab - 1)
        dist[1] = (1.0 - p) * (1.0 - mix) + share
        dist[2:] = share
        return dist

    low, high = shannon_entropy(member(0.0)), shannon_entropy(member(1.0))
    if entropy < low - 1e-6 or entropy > high + 1e-6:
        return None
    target = min(max(entropy, low), high)
    if target == low:
        return member(0.0)
    if target == high:
        return member(1.0)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dist = member(mid)
        value = shannon_entropy(dist)
        if abs(value - target) <= 0.5e-6:
            return dist
        if value < target:
            lo = mid
        else:
            hi = mid
    return dist


def rowwise_mixes(p, entropy, low, high, vocab):
    """Row-based reference for ``_realize``: one batched bisection whose every midpoint is
    scored by ``entropy_rows`` over the full (cells, vocab) member rows.

    Kept apart from the library on purpose, as ``scalar_construct`` is: the
    bisection on each member's three distinct entries must pick these mixing
    weights bit for bit.
    """

    def members(p, mix):
        rows = np.empty((p.size, vocab))
        share = (1.0 - p) * mix / (vocab - 1)
        rows[:, 0] = p
        rows[:, 1] = (1.0 - p) * (1.0 - mix) + share
        rows[:, 2:] = share[:, None]
        return rows

    target = np.minimum(np.maximum(entropy, low), high)
    mix = np.where(target == low, 0.0, 1.0)
    cell = np.flatnonzero((target != low) & (target != high))
    lo, hi, mid = np.zeros(cell.size), np.ones(cell.size), np.empty(0)
    for _ in range(200):
        if cell.size == 0:
            break
        mid = 0.5 * (lo + hi)
        value = entropy_rows(members(p[cell], mid))
        below = value < target[cell]
        going = np.abs(value - target[cell]) > 0.5e-6
        mix[cell[~going]] = mid[~going]
        lo, hi = np.where(below, mid, lo)[going], np.where(below, hi, mid)[going]
        cell, mid = cell[going], mid[going]
    mix[cell] = mid
    return mix


def json_oracle(grid):
    """The JSON text as ``json.dumps`` writes the grid's body, infeasible cells as ``None``."""
    cells = grid.cells.astype(object)
    cells[~np.isfinite(grid.cells)] = None
    body = {
        "objective": grid.objective,
        "vocab_size": grid.vocab_size,
        "normalization": "per-grid",
        "p_grid": grid.p_grid.tolist(),
        "h_grid": grid.h_grid.tolist(),
        "cells": cells.tolist(),
    }
    return json.dumps(body, indent=2) + "\n"


def csv_oracle(grid):
    """The CSV text formatted value by value."""
    lines = ["p,entropy,magnitude"]
    for i, p in enumerate(grid.p_grid.tolist()):
        for j, h in enumerate(grid.h_grid.tolist()):
            m = float(grid.cells[i, j])
            if math.isfinite(m):
                lines.append(f"{p:.9g},{h:.9g},{m:.9g}")
    return "\n".join(lines) + "\n"


class TestConstructDistribution:
    def test_max_entropy_tail_is_uniform(self):
        _, high = feasible_entropy_range(0.5, 4)
        dist = construct_distribution(0.5, high, 4)
        npt.assert_allclose(dist, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-9)

    def test_min_entropy_tail_is_full_spike(self):
        low, _ = feasible_entropy_range(0.5, 4)
        dist = construct_distribution(0.5, low, 4)
        npt.assert_allclose(dist, [0.5, 0.5, 0.0, 0.0], atol=1e-9)

    def test_bisection_hits_requested_entropy(self):
        dist = construct_distribution(0.3, 1.0, 8)
        assert dist[0] == 0.3
        assert shannon_entropy(dist) == pytest.approx(1.0, abs=1e-6)

    def test_random_feasible_targets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(0.02, 0.98))
            vocab = int(rng.integers(3, 24))
            low, high = feasible_entropy_range(p, vocab)
            target = float(rng.uniform(low, high))
            dist = construct_distribution(p, target, vocab)
            assert dist[0] == p
            assert np.all(dist >= 0.0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert shannon_entropy(dist) == pytest.approx(target, abs=1e-6)

    def test_infeasible_entropy_names_interval(self):
        low, high = feasible_entropy_range(0.5, 4)
        with pytest.raises(FeasibilityError) as err:
            construct_distribution(0.5, high + 0.5, 4)
        assert f"{low:.6f}" in str(err.value) and f"{high:.6f}" in str(err.value)

    def test_requires_three_tokens(self):
        with pytest.raises(DomainError):
            construct_distribution(0.5, 0.5, 2)

    def test_matches_scalar_reference_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = float(rng.uniform(0.01, 0.99))
            vocab = int(rng.integers(3, 300))
            low, high = feasible_entropy_range(p, vocab)
            entropy = rng.choice([low, high, low - 1e-6, high + 1e-6, rng.uniform(low, high)])
            dist = construct_distribution(p, float(entropy), vocab)
            assert np.array_equal(dist, scalar_construct(p, float(entropy), vocab))


def test_mixes_match_row_based_bisection_bit_for_bit():
    """Over 100k seeded cells at vocabularies 3 to 1024, endpoints and near-bound targets
    included, ``_realize`` picks the row-based reference's mixing weights bit for bit."""
    rng = np.random.default_rng(24)
    vocabs = np.union1d(np.rint(np.exp(rng.uniform(math.log(3), math.log(1024), 200))), [3, 1024])
    cells = 100_000 // vocabs.size + 1
    checked = 0
    for vocab in vocabs.astype(int).tolist():
        u = rng.uniform(0.0, 1.0, cells)
        tiny = 10.0 ** -rng.uniform(1.0, 12.0, cells)  # target masses near 0 and near 1
        p = np.choose(rng.integers(0, 3, cells), [np.where(u > 0.0, u, 0.5), tiny, 1.0 - tiny])
        low, high = feasible_entropy_range(p, vocab)
        near = rng.uniform(0.0, 1e-6, cells)
        inside = low + rng.uniform(0.0, 1.0, cells) * (high - low)
        choices = [low, high, low - 1e-6, high + 1e-6, low + near, high - near, inside]
        entropy = np.choose(rng.integers(0, len(choices), cells), choices)
        mix = _realize(p, entropy, low, high, vocab)
        assert np.array_equal(mix, rowwise_mixes(p, entropy, low, high, vocab)), vocab
        checked += cells
    assert checked >= 100_000


# Most midpoints one _realize call may score here. Its guard, _BISECTION_MAX_ITERS,
# is 200; the grids and cells below stop within 26.
MOST_MIDPOINTS = 40


@pytest.fixture
def midpoints(monkeypatch):
    """The number of midpoints (``_family_entropy`` calls) each ``_realize`` call scores, in call order."""
    counts = []
    score, realize = landscape._family_entropy, landscape._realize

    def spy_realize(*args):
        counts.append(0)
        return realize(*args)

    def spy_score(*args):
        counts[-1] += 1
        return score(*args)

    monkeypatch.setattr(landscape, "_family_entropy", spy_score)
    monkeypatch.setattr(landscape, "_realize", spy_realize)
    monkeypatch.setitem(globals(), "_realize", spy_realize)  # as this module's tests call it
    return counts


def test_bisection_of_cli_grids_stops_early(midpoints):
    """The masked bisection scores every cell until the slowest stops, so each call must stop
    well inside its guard on the CLI's grids, vocabularies 3 to 4096 and 20 x 20 to 300 x 300."""
    for steps in (20, 50, 100, 200, 300):
        for vocab in (3, 8, 32, 100, 256, 1024, 4096):
            if steps * steps * vocab <= MAX_GRID_ENTRIES:
                p_grid = (np.arange(steps) + 1.0) / (steps + 1.0)
                gradient_landscape(DEFT, p_grid, np.linspace(0.0, math.log(vocab), steps), vocab)
    assert midpoints and max(midpoints) <= MOST_MIDPOINTS


def test_bisection_of_the_differential_cells_stops_early(midpoints):
    """Each ``_realize`` call of the 100k-cell differential test stops well inside its guard."""
    test_mixes_match_row_based_bisection_bit_for_bit()
    assert midpoints and max(midpoints) <= MOST_MIDPOINTS


class TestRowForms:
    """construct_distribution and feasible_entropy_range on vectors of target masses."""

    def test_names_first_infeasible_pair(self):
        ps = np.array([0.3, 0.5, 0.7])
        low, high = feasible_entropy_range(ps, 4)
        entropy = np.array([low[0], high[1] + 0.5, high[2] + 0.5])
        with pytest.raises(FeasibilityError) as err:
            construct_distribution(ps, entropy, 4)
        assert f"entropy {float(entropy[1])!r} unattainable for p=0.5, vocab=4" in str(err.value)
        assert f"[{low[1]:.6f}, {high[1]:.6f}]" in str(err.value)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, float("nan")])
    def test_names_target_mass_outside_open_interval(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            feasible_entropy_range([0.5, bad, 0.2], 8)
        with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
            feasible_entropy_range(bad, 8)

    def test_entropies_must_broadcast_to_the_target_masses(self):
        message = "entropies of shape (3,) do not match target probabilities of shape (2,)"
        with pytest.raises(DomainError, match=re.escape(message)):
            construct_distribution([0.5, 0.4], [1.0, 1.0, 1.0], 8)
        scalar = construct_distribution([0.5, 0.4], 1.0, 8)
        npt.assert_array_equal(scalar, construct_distribution([0.5, 0.4], [1.0, 1.0], 8))

    def test_rejects_stack_of_target_masses(self):
        with pytest.raises(DomainError, match="1-d vector"):
            feasible_entropy_range([[0.5, 0.2]], 8)


class TestGridSizeBound:
    def test_benchmark_grid_admitted(self):
        check_grid_size(100, 100, 32)
        check_grid_size(2048, 256, 32)
        assert 2048 * 256 * 32 == MAX_GRID_ENTRIES

    def test_one_entry_column_past_the_bound_refused(self):
        with pytest.raises(DomainError, match="a 2049 x 256 grid at vocabulary 32 exceeds 16777216 entries"):
            check_grid_size(2049, 256, 32)

    @pytest.fixture
    def unrealized(self, monkeypatch):
        """Make realizing any row, the first allocation past the size checks, an AssertionError."""
        from trustgate import landscape

        def refuse(*args):
            raise AssertionError("no cell may be realized")

        monkeypatch.setattr(landscape, "_entropy_bounds", refuse)

    def test_gradient_landscape_refuses_before_realizing(self, unrealized):
        p_grid = (np.arange(2049) + 1.0) / 2050.0
        with pytest.raises(DomainError, match="exceeds"):
            gradient_landscape(NLL, p_grid, np.linspace(0.0, 3.0, 256), 32)

    def test_construct_distribution_refuses_one_entry_past_the_bound(self, unrealized):
        message = f"1024 target masses at vocabulary 16385 exceed {MAX_GRID_ENTRIES} entries"
        with pytest.raises(DomainError, match=re.escape(message)):
            construct_distribution(np.full(1024, 0.5), 1.0, 2**14 + 1)
        with pytest.raises(AssertionError):  # the bound itself is admitted
            construct_distribution(np.full(1024, 0.5), 1.0, 2**14)

    def test_feasible_entropy_range_refuses_a_vocabulary_past_the_bound(self, unrealized):
        message = f"vocabulary must lie in [3, {MAX_GRID_ENTRIES}], got {MAX_GRID_ENTRIES + 1}"
        with pytest.raises(DomainError, match=re.escape(message)):
            feasible_entropy_range(0.5, MAX_GRID_ENTRIES + 1)
        with pytest.raises(AssertionError):  # the bound itself is admitted
            feasible_entropy_range(0.5, MAX_GRID_ENTRIES)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
    vocab=st.integers(3, 256),
    fraction=st.floats(0.0, 1.0),
    others=st.lists(st.tuples(st.floats(0.02, 0.98), st.floats(0.0, 1.0)), max_size=6),
)
def test_batched_row_matches_one_cell_call(p, vocab, fraction, others):
    """A cell realized inside a batch equals its one-cell and scalar-reference realizations."""
    cells = [(p, fraction)] + others
    ps = np.array([c[0] for c in cells])
    bounds = [feasible_entropy_range(float(q), vocab) for q in ps]
    low = np.array([b[0] for b in bounds])
    high = np.array([b[1] for b in bounds])
    targets = low + np.array([c[1] for c in cells]) * (high - low)
    row = _family_rows(ps, _realize(ps, targets, low, high, vocab), vocab)[0]
    target = float(targets[0])
    assert row[0] == p
    assert abs(row.sum() - 1.0) <= 1e-9
    assert abs(shannon_entropy(row) - target) <= 1e-6
    assert np.array_equal(row, construct_distribution(p, target, vocab))
    assert np.array_equal(row, scalar_construct(p, target, vocab))


class TestGradientLandscape:
    def test_log_loss_rows_constant_in_entropy(self):
        p_grid = np.linspace(0.1, 0.9, 7)
        h_grid = np.linspace(0.3, math.log(8.0) - 1e-6, 9)
        grid = gradient_landscape(NLL, p_grid, h_grid, 8)
        for i, p in enumerate(p_grid):
            row = grid.cells[i][np.isfinite(grid.cells[i])]
            if row.size:
                assert float(row.max() - row.min()) <= 1e-9
        # cell values proportional to 1 - p: the lowest-p row carries the max
        finite_rows = [i for i in range(p_grid.size) if np.isfinite(grid.cells[i]).any()]
        top = finite_rows[0]
        assert np.nanmax(grid.cells[top]) == pytest.approx(1.0, abs=0.0)

    def test_normalization_bounds(self):
        grid = gradient_landscape(DEFT, np.linspace(0.1, 0.9, 5), np.linspace(0.5, 2.0, 5), 8)
        finite = grid.cells[np.isfinite(grid.cells)]
        assert finite.max() == 1.0
        assert finite.min() >= 0.0

    def test_linear_member_peaks_near_half(self):
        p_grid = np.linspace(0.05, 0.95, 19)
        h_grid = np.array([1.2])
        grid = gradient_landscape(LINEAR, p_grid, h_grid, 8)
        column = grid.cells[:, 0]
        peak_p = p_grid[np.nanargmax(column)]
        assert abs(peak_p - 0.5) <= 0.06

    def test_collision_member_rises_with_entropy_at_low_p(self):
        low, high = feasible_entropy_range(0.1, 16)
        h_grid = np.linspace(low + 1e-9, high - 1e-9, 10)
        grid = gradient_landscape(DEFT, np.array([0.1]), h_grid, 16)
        row = grid.cells[0]
        assert np.all(np.isfinite(row))
        assert np.all(np.diff(row) >= -1e-12)

    @pytest.mark.parametrize("vocab", [3, 8, 64])
    def test_matches_per_cell_reference(self, vocab):
        """Batched grid against construct_distribution plus the scalar gate, cell by cell."""
        p_grid = np.linspace(0.03, 0.97, 9)
        h_grid = np.linspace(0.0, math.log(vocab), 11)
        for kind in default_kinds() + [fixed_alpha(1.37)]:
            grid = gradient_landscape(kind, p_grid, h_grid, vocab)
            reference = np.full(grid.cells.shape, np.nan)
            for i, p in enumerate(p_grid):
                for j, entropy in enumerate(h_grid):
                    try:
                        dist = construct_distribution(float(p), float(entropy), vocab)
                    except FeasibilityError:
                        continue
                    reference[i, j] = gate(kind, dist, 0).signal
            reference /= np.nanmax(reference)
            assert np.array_equal(np.isfinite(grid.cells), np.isfinite(reference))
            feasible = np.isfinite(reference)
            assert float(np.abs(grid.cells[feasible] - reference[feasible]).max()) <= 4.5e-16

    @pytest.mark.parametrize("vocab", [8, 100])
    def test_bisection_chunks_and_gated_blocks_stay_bounded(self, vocab, monkeypatch):
        """No bisection chunk holds more than _BLOCK_ENTRIES cells, and no gated block more
        than max(_BLOCK_ENTRIES, vocab) entries; the chunking moves no cell's bits."""
        from trustgate import landscape

        p_grid, h_grid = np.linspace(0.05, 0.95, 20), np.linspace(0.0, math.log(vocab), 20)
        expected = gradient_landscape(DEFT, p_grid, h_grid, vocab)
        chunks, blocks = [], []
        realize, gate_rows = landscape._realize, landscape.gate

        def spy_realize(p, *args):
            chunks.append(p.size)
            return realize(p, *args)

        def spy_gate(kind, dists, targets):
            blocks.append(dists.size)
            return gate_rows(kind, dists, targets)

        monkeypatch.setattr(landscape, "_BLOCK_ENTRIES", 64)
        monkeypatch.setattr(landscape, "_realize", spy_realize)
        monkeypatch.setattr(landscape, "gate", spy_gate)
        grid = gradient_landscape(DEFT, p_grid, h_grid, vocab)
        feasible = int(np.isfinite(grid.cells).sum())
        assert len(chunks) > 1 and max(chunks) <= 64 and sum(chunks) == feasible
        assert len(blocks) > 1 and max(blocks) <= max(64, vocab) and sum(blocks) == feasible * vocab
        assert np.array_equal(grid.cells, expected.cells, equal_nan=True)

    def test_unnormalizable_grid_names_objective(self):
        # p**1e308 underflows to 0 in every cell
        kind = fixed_alpha(1e308)
        with pytest.raises(DomainError, match=re.escape(kind.encode())):
            gradient_landscape(kind, np.linspace(0.2, 0.8, 5), np.linspace(0.5, 2.0, 5), 8)

    @pytest.mark.parametrize(
        "p_grid, h_grid",
        [([0.2, np.nan], [0.5]), ([0.5], [0.5, np.nan]), ([0.5], [np.inf]), ([0.5, 0.4], [0.5])],
    )
    def test_rejects_bad_grids(self, p_grid, h_grid):
        with pytest.raises(DomainError):
            gradient_landscape(NLL, np.array(p_grid), np.array(h_grid), 8)

    @pytest.mark.parametrize("p_grid, bad", [([0.0, 0.5], 0.0), ([-0.5, 0.2, 1.0], -0.5), ([0.5, 1.0, 1.5], 1.0)])
    def test_p_grid_outside_open_interval_names_first_bad_entry(self, p_grid, bad):
        """The grid takes the target-mass rule of feasible_entropy_range, message included."""
        with pytest.raises(DomainError, match=re.escape(f"target probability must lie in (0, 1), got {bad!r}")):
            gradient_landscape(NLL, p_grid, [0.5, 1.0], 8)

    def test_requires_three_tokens(self):
        with pytest.raises(DomainError, match=re.escape(f"vocabulary must lie in [3, {MAX_GRID_ENTRIES}], got 2")):
            gradient_landscape(NLL, [0.5], [0.5], 2)

    @pytest.mark.parametrize("vocab", [8.0, np.float64(8.0), 8.5, True, np.True_, "8", None])
    def test_refuses_a_vocabulary_that_is_not_an_integer(self, vocab):
        """A string is named as well: it is checked before it is multiplied into the grid bound."""
        message = f"vocabulary must be an integer, got {vocab!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            feasible_entropy_range(0.5, vocab)
        with pytest.raises(DomainError, match=re.escape(message)):
            construct_distribution(0.5, 1.0, vocab)
        with pytest.raises(DomainError, match=re.escape(message)):
            gradient_landscape(NLL, [0.2, 0.5], [0.5, 1.0], vocab)
        with pytest.raises(DomainError, match=re.escape(message)):
            check_grid_size(2, 2, vocab)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
    def test_takes_a_numpy_integer_vocabulary_as_an_int(self, integer):
        grid = gradient_landscape(DEFT, [0.2, 0.5], [0.5, 1.0], integer(8))
        assert type(grid.vocab_size) is int
        assert grid.to_json() == gradient_landscape(DEFT, [0.2, 0.5], [0.5, 1.0], 8).to_json()
        assert np.array_equal(construct_distribution(0.5, 1.0, integer(8)), construct_distribution(0.5, 1.0, 8))

    def test_infeasible_cells_absent(self):
        # entropy 0 is unattainable whenever the target holds less than full mass
        grid = gradient_landscape(NLL, np.array([0.5]), np.array([1e-6]), 8)
        assert not np.isfinite(grid.cells[0, 0])


def _kind(name):
    return fixed_alpha(0.5) if name == "alpha" else ObjectiveKind(name)


def _frozen_bits(kind, rows):
    """Bits of the frozen weight and focus exponent of each row, target at entry 0: one column per row."""
    _, weight, focus = frozen_state(kind, rows, np.zeros(len(rows), dtype=np.intp))
    return np.stack([weight, focus]).view(np.int64)


@pytest.mark.parametrize("name", sorted(_RULES))
def test_reads_exactly_what_the_frozen_state_responds_to(name):
    """Each member's level is exactly what moves its frozen weight and focus bits.

    It reads nothing when the bits stay put as the target mass moves, the
    target when they move with it but not with the tail, and the row when
    they move with the tail.
    """
    kind = _kind(name)
    rng = np.random.default_rng(25)
    ps = (0.05, 0.3, 0.7, 0.95)
    by_target = _frozen_bits(kind, _family_rows(np.array(ps), 0.0, 8))
    moves_with_target = not (by_target == by_target[:, :1]).all()
    moves_with_tail = False
    for p in ps:
        tails = (1.0 - p) * rng.dirichlet(np.ones(7), size=2)
        rows = np.vstack([np.column_stack([np.full(2, p), tails]), _family_rows(np.array([p]), 0.0, 8)])
        by_tail = _frozen_bits(kind, rows)
        moves_with_tail |= not (by_tail == by_tail[:, :1]).all()
    level = Reads.ROW if moves_with_tail else Reads.TARGET if moves_with_target else Reads.NOTHING
    assert kind.reads == level


@pytest.mark.parametrize("kind", default_kinds(), ids=lambda kind: kind.encode())
def test_bisects_exactly_the_members_that_read_the_row(kind, monkeypatch):
    calls = []
    realize = landscape._realize
    monkeypatch.setattr(landscape, "_realize", lambda *args: calls.append(args) or realize(*args))
    gradient_landscape(kind, [0.2, 0.5, 0.8], [0.5, 1.0, 1.5], 8)
    assert bool(calls) == (kind.reads == Reads.ROW)


@pytest.mark.parametrize("steps, vocab", [(20, 8), (37, 3)])
@pytest.mark.parametrize("kind", default_kinds() + [fixed_alpha(1.37)], ids=lambda kind: kind.encode())
def test_grid_without_bisection_matches_bisected_grid(kind, steps, vocab, monkeypatch):
    """A member that reads only the target mass gets the bits the bisected grid gives it."""
    p_grid = (np.arange(steps) + 1.0) / (steps + 1.0)
    h_grid = np.linspace(0.0, math.log(vocab), steps)
    grid = gradient_landscape(kind, p_grid, h_grid, vocab)
    monkeypatch.setattr(ObjectiveKind, "reads", property(lambda self: Reads.ROW))
    bisected = gradient_landscape(kind, p_grid, h_grid, vocab)
    assert np.isfinite(grid.cells).any()
    assert np.array_equal(grid.cells.view(np.int64), bisected.cells.view(np.int64))


# sha256 of the CSV written by the seed's per-cell bisection for the CLI grids
# used by the benchmark (100x100) and the README (20x20), both at vocab 32.
GOLDEN_CSV_SHA256 = {
    ("nll", 100): "87d14098eeb1393ab15ae08496c2c2dee1cd8bc2014adc08169014d4bf2711be",
    ("nll", 20): "65ea5f6f9c8afa7b0ab179fd7c7544d1c3d5bda6ecc116a0474817d68f6634dc",
    ("linear", 100): "bbee164f33e7bb1c99d926e9a3f250167c44be65bb3e77d82b6311c122ac10f1",
    ("linear", 20): "baab045c682a03668dbd94202f6e9b7bcce901a09b35b5ce8848fb0edcb3fc99",
    ("alpha:0.5", 100): "058e08f9738e65a5f4726fd57bd535d00fdc9168ac8356996ac3f0a6e2b19d04",
    ("alpha:0.5", 20): "cc47a19dd8e55d2f87e804632a7226559b04a16b02d8fbf849c1e08b07f132e7",
    ("cayley", 100): "de495dc9c019fe8c6fa9067d311e49a00777beb2cfda2745f854b42f368c9ebe",
    ("cayley", 20): "7fc67786e8bd10448d0134979aea7919755a977170d87ed155161c91456b7078",
    ("deft", 100): "41e074c736cac79ced7122cf29261f13839f9558b3e7ea1267a5c169c774bf3f",
    ("deft", 20): "aa3858db1e81d4d8f15734873f72a0151a7ccde8db27d37c6f8395e15b08fc00",
    ("eaft", 100): "c2e17ac2a2fcc8e5dc638b51a38345f33a56d353ca1e345fd32721983d1ac21e",
    ("eaft", 20): "d39b7608bb4ea805aa4a4976cb21da0618c81f7c508f5aecd010888b0d634a89",
}


# sha256 of the JSON that json.dumps(..., indent=2) wrote for the same grids
# before the grid rendered its own JSON text.
GOLDEN_JSON_SHA256 = {
    ("nll", 100): "2c230a53198a40259645cc7ae0bbd689ba8c458f6149be7a810d7d6efd93410d",
    ("nll", 20): "d53ba501060fb09219fc25079fec2af3d742b69c30d0f6a4887a754de976025b",
    ("linear", 100): "d8fcd748259df55a69e73e9f76119e0f2d3a4fe937714b1b89276f27137993d0",
    ("linear", 20): "c88813ee54bac20d89ed91b7c6bd88cd0c75015e64ec48af0426e40c45ab87a1",
    ("alpha:0.5", 100): "7748be08dc9e32196573c024b0a5de55e11f3b92302f9694ba67fc027e21edc4",
    ("alpha:0.5", 20): "a24006a771c02e5a103d8262f7f7a185cbbfb821d3f528bfa0a9ae6394e1551e",
    ("cayley", 100): "92f1bcbf765c4768160df797d4eb5bcf5774c131a16c1510b25855d0b0b0cc9d",
    ("cayley", 20): "42a4ae3a0aa57b218cbb8356308f23f1665d311ec8fbae8339f6dafd2a0118a8",
    ("deft", 100): "a4c50ce8f355b577cba75f08a8b978d849e1ee72f1e71aec45457faa0d7152ea",
    ("deft", 20): "3e3a89139f2f6df66c0f58201aee7301e75924f8a8dcf22ccd61ac36e7bd9b0f",
    ("eaft", 100): "47f6276fc16a860171d7d6f78dd34ba38793a2debd422e2af85158ab272e8f9a",
    ("eaft", 20): "d16a21f32c320a6b4330fba463043fd0051cc4701a03432f9d40f001b1e32447",
}


def _cli_grid_sha256(objective, steps, fmt, tmp_path, capsys):
    out = tmp_path / f"grid.{fmt}"
    argv = ["landscape", "--objective", objective, "--p-steps", str(steps), "--h-steps", str(steps)]
    assert parse_and_run(argv + ["--vocab", "32", "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("objective, steps", sorted(GOLDEN_CSV_SHA256))
def test_golden_csv(objective, steps, tmp_path, capsys):
    assert _cli_grid_sha256(objective, steps, "csv", tmp_path, capsys) == GOLDEN_CSV_SHA256[(objective, steps)]


@pytest.mark.parametrize("objective, steps", sorted(GOLDEN_JSON_SHA256))
def test_golden_json(objective, steps, tmp_path, capsys):
    assert _cli_grid_sha256(objective, steps, "json", tmp_path, capsys) == GOLDEN_JSON_SHA256[(objective, steps)]


class TestWriteAtomic:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        write_atomic(path, "new\r\nline\n")
        assert path.read_bytes() == b"new\r\nline\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "partial" + "\ud800")  # a lone surrogate cannot be encoded
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize(
        "parent, error", [("missing", FileNotFoundError), ("file.txt", NotADirectoryError)]
    )
    def test_unwritable_parent_refused_by_name(self, parent, error, tmp_path):
        (tmp_path / "file.txt").write_text("kept\n")
        path = tmp_path / parent / "out.txt"
        with pytest.raises(error) as caught:
            write_atomic(path, "new\n")
        assert caught.value.filename == str(path)
        assert sorted(os.listdir(tmp_path)) == ["file.txt"]
        assert (tmp_path / "file.txt").read_text() == "kept\n"

    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(path, "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestArtifactText:
    def test_csv_schema_and_row_count(self):
        grid = gradient_landscape(NLL, np.array([0.4, 0.6]), np.array([0.8, 1.1]), 8)
        lines = grid.to_csv().splitlines()
        assert lines[0] == "p,entropy,magnitude"
        feasible = int(np.isfinite(grid.cells).sum())
        assert len(lines) == 1 + feasible

    def test_csv_rows_sorted(self):
        grid = gradient_landscape(DEFT, np.linspace(0.2, 0.8, 4), np.linspace(0.6, 1.6, 4), 8)
        rows = [line.split(",") for line in grid.to_csv().splitlines()[1:]]
        keys = [(float(a), float(b)) for a, b, _ in rows]
        assert keys == sorted(keys)

    def test_csv_byte_deterministic(self):
        def grid():
            return gradient_landscape(DEFT, np.linspace(0.2, 0.8, 4), np.linspace(0.6, 1.6, 4), 8)

        text = grid().to_csv()
        assert text == grid().to_csv()
        assert text.endswith("\n") and "\r" not in text

    def test_csv_skips_infeasible_cells(self):
        grid = gradient_landscape(NLL, np.array([0.5]), np.array([1e-6, 0.8]), 8)
        assert len(grid.to_csv().splitlines()) == 2  # header + 1 feasible cell

    def test_grid_json_metadata(self):
        grid = gradient_landscape(NLL, np.array([0.5]), np.array([1e-6, 0.8]), 8)
        body = json.loads(grid.to_json())
        assert body["normalization"] == "per-grid"
        assert body["objective"] == "nll"
        assert body["cells"][0][0] is None  # the infeasible cell

    def test_format_once_keeps_signed_zeros_and_last_bit_neighbours_apart(self):
        one_up = float(np.nextafter(1.0, 2.0))
        values = np.array([[0.0, -0.0, 1.0], [one_up, 0.0, 1.0]])
        assert _format_once(values, "").tolist() == [["0.0", "-0.0", "1.0"], [repr(one_up), "0.0", "1.0"]]
        assert _format_once(values, ".9g").tolist() == [["0", "-0", "1"], ["1", "0", "1"]]
        assert _format_once(values[:, :0], "").shape == (2, 0)

    @pytest.mark.parametrize("kind", default_kinds(), ids=lambda kind: kind.encode())
    def test_renderers_match_their_oracles_on_computed_grids(self, kind):
        grid = gradient_landscape(kind, (np.arange(20) + 1.0) / 21.0, np.linspace(0.0, math.log(8.0), 20), 8)
        assert not np.isfinite(grid.cells).all()
        assert grid.to_json() == json_oracle(grid)
        assert grid.to_csv() == csv_oracle(grid)

    def test_run_record_json_schema(self):
        task = build_task(RegimeSpec(regime="weak"), 0)
        record = finetune(task.model, task.labels, TrainConfig(objective=DEFT, steps=5, seed=0))
        body = json.loads(json.dumps(record.to_dict()))
        assert set(body) == {"config", "mean_target_p", "mean_alpha", "quadrants", "histograms"}
        assert len(body["mean_target_p"]) == 5


_ONE_DOWN = float(np.nextafter(1.0, 0.0))
_CELL_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, _ONE_DOWN, 0.5, 5e-324, 1e-300]),
    st.floats(0.0, 1.0),
)


@st.composite
def landscape_grids(draw):
    """Grids with infeasible cells, empty and single-cell grids and repeated values among their draws."""
    p_steps, h_steps = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    axis = st.floats() | st.sampled_from([0.0, -0.0, 0.5])
    p_grid = np.array(draw(st.lists(axis, min_size=p_steps, max_size=p_steps)))
    h_grid = np.array(draw(st.lists(axis, min_size=h_steps, max_size=h_steps)))
    cells = draw(st.lists(_CELL_VALUES, min_size=p_steps * h_steps, max_size=p_steps * h_steps))
    objective = draw(st.sampled_from(["nll", "alpha:0.5", "deft"]) | st.text(max_size=8))
    return LandscapeGrid(
        p_grid=p_grid,
        h_grid=h_grid,
        cells=np.array(cells).reshape(p_steps, h_steps),
        vocab_size=draw(st.integers(3, 2**24)),
        objective=objective,
    )


@settings(max_examples=300, deadline=None)
@given(grid=landscape_grids())
def test_renderers_match_their_oracles(grid):
    assert grid.to_json() == json_oracle(grid)
    assert grid.to_csv() == csv_oracle(grid)
