"""Correctness checks made apart from trustgate.

Each check recomputes what a job's output should be from its inputs, with
numpy code written here, and raises ``CheckError`` when the output disagrees.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REPORT_NAMES = (
    "cayley-arctanh-identity",
    "cayley-asymptotics",
    "cayley-surprisal-linearization",
    "concentration-equals-collision-exponential",
    "concentration-range",
    "conflict-suppression",
    "deformed-loss-monotone-and-continuous-at-zero",
    "duality-proper-minimizer",
    "duality-proper-risk",
    "fd-gradient-dynamic",
    "fd-gradient-static",
    "focus-decomposition-bounds",
    "gate-monotone-in-alpha",
    "gate-open-limit",
    "gate-ordering-linear-deft-nll",
    "gradient-sum-zero",
    "jacobian-chain-consistency",
    "landscape-distribution-realization",
    "landscape-nll-entropy-independent",
    "loss-entropy-index-relation",
    "main-rule-escort-shift",
    "mobius-involution",
    "qlog-derivative",
    "qlog-limit-at-one",
    "risk-flow-strong-linear-vs-nll",
    "risk-flow-weak-linear-vs-nll",
    "signal-peak-concave",
    "signal-peak-convex",
)

PROB_FLOOR = 1e-12
BISECTION_TOL = 1e-6
MONOTONE_SLACK = 1e-12
TRACE_MATCH_TOL = 1e-9
CSV_REL_TOL = 1e-8


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- verify


def check_reports(reports: list[dict]) -> int:
    """A passing ``verify`` run: 28 passed reports, sorted by name."""
    names = [r["name"] for r in reports]
    require(tuple(names) == REPORT_NAMES, f"report names differ: {names}")
    failed = [r["name"] for r in reports if not r["passed"]]
    require(not failed, f"reports failed: {failed}")
    for r in reports:
        require(set(r) == {"name", "passed", "max_error", "detail"}, f"report keys {sorted(r)}")
    return len(reports)


def check_hook(reports, expected_failures: set[str], hook: str) -> None:
    names = [r.name for r in reports]
    require(tuple(names) == REPORT_NAMES, f"{hook}: report names differ")
    failed = {r.name for r in reports if not r.passed}
    require(failed == expected_failures, f"{hook}: failed {sorted(failed)}, expected {sorted(expected_failures)}")


# ---------------------------------------------------------------- train


def softmax_rows(table: np.ndarray) -> np.ndarray:
    e = np.exp(table - table.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_gate(objective: str, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Frozen trust gate per row, written from the objective definitions."""
    p = np.clip(probs[np.arange(len(labels)), labels], PROB_FLOOR, 1.0)
    if objective == "nll":
        return np.ones_like(p)
    if objective == "eaft":
        logs = np.log(np.where(probs > 0.0, probs, 1.0))
        return -(probs * logs).sum(axis=1) / math.log(probs.shape[1])
    if objective == "linear":
        return p
    if objective.startswith("alpha:"):
        return p ** float(objective.split(":", 1)[1])
    if objective == "cayley":
        return p ** ((1.0 - np.sqrt(1.0 - p)) / (1.0 + np.sqrt(1.0 - p)))
    if objective == "deft":
        return p ** (probs * probs).sum(axis=1)
    raise CheckError(f"no reference gate for {objective!r}")


def reference_mean_target_p(table, labels, objective, lr, steps, batch_size, seed) -> np.ndarray:
    """Mean label probability at the start of each step of the frozen-gate update."""
    table = np.array(table, dtype=np.float64)
    n = table.shape[0]
    batch = n if batch_size is None else min(batch_size, n)
    order = np.arange(n)
    rng = np.random.default_rng(seed)
    cursor = 0
    trace = np.empty(steps)
    for step in range(steps):
        probs = softmax_rows(table)
        trace[step] = probs[np.arange(n), labels].mean()
        if batch == n:
            members = order.copy()
        else:
            if cursor + batch > n:
                rng.shuffle(order)
                cursor = 0
            members = order[cursor : cursor + batch]
            cursor += batch
        sub = probs[members]
        gate = reference_gate(objective, sub, labels[members])
        onehot = np.zeros_like(sub)
        onehot[np.arange(members.size), labels[members]] = 1.0
        table[members] -= lr * gate[:, None] * (sub - onehot)
    return trace


def check_run_record(record: dict, job) -> int:
    """Checks one ``train`` output; returns the number of row updates."""
    steps, objective = job.steps, job.objective
    require(record["config"]["objective"] == objective, "objective not echoed")
    require(record["config"]["regime"] == job.regime, "regime not echoed")
    trace = np.asarray(record["mean_target_p"], dtype=np.float64)
    alpha = np.asarray(record["mean_alpha"], dtype=np.float64)
    require(trace.shape == (steps,) and alpha.shape == (steps,), "trace length differs from steps")
    require(bool(np.all(np.diff(trace) >= -MONOTONE_SLACK)), f"{objective}: mean_target_p decreased")
    if objective in ("nll", "eaft"):
        require(bool(np.all(alpha == 0.0)), f"{objective}: mean_alpha not 0")
    elif objective == "linear":
        require(bool(np.all(alpha == 1.0)), "linear: mean_alpha not 1")
    elif objective.startswith("alpha:"):
        a = float(objective.split(":", 1)[1])
        require(bool(np.all(np.abs(alpha - a) <= 1e-12 * a)), f"{objective}: mean_alpha not {a}")
    else:
        require(bool(np.all((alpha > 0.0) & (alpha <= 1.0))), f"{objective}: mean_alpha outside (0, 1]")
    hists = record["histograms"]
    require([h["step"] for h in hists] == [0, steps], "histogram steps")
    for h in hists:
        require(sum(h["counts"]) == job.contexts, "histogram counts do not sum to the context count")
        require(len(h["counts"]) == len(h["edges"]) - 1, "histogram edges and counts disagree")
    require(record["quadrants"]["count"] == job.contexts, "quadrant count")
    batch = job.contexts if job.batch_size is None else min(job.batch_size, job.contexts)
    return batch * steps


def check_forgetting(forgetting: dict[str, float], task: str) -> None:
    """On a conflict-injected task the gated members forget no more than nll."""
    require(all(k in forgetting for k in ("nll", "deft", "linear")), f"{task}: a run is missing")
    base = forgetting["nll"]
    for objective in ("deft", "linear"):
        require(
            forgetting[objective] <= base,
            f"{task}: forgetting under {objective} {forgetting[objective]} > nll {base}",
        )


# ---------------------------------------------------------------- landscape


def family_entropy(p, mix, vocab: int):
    """Closed-form Shannon entropy of the spike-plus-tail family."""
    p = np.asarray(p, dtype=np.float64)
    mix = np.asarray(mix, dtype=np.float64)
    tail = 1.0 - p
    share = tail * mix / (vocab - 1)
    spike = tail * (1.0 - mix) + share

    def plogp(x):
        return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)

    return -(plogp(p) + plogp(spike) + (vocab - 2) * plogp(share))


def family_mix(p, entropy, vocab: int):
    """Mixing weight that realizes ``entropy`` (vectorized bisection to 1e-15)."""
    lo = np.zeros(np.shape(p))
    hi = np.ones(np.shape(p))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = family_entropy(p, mid, vocab) < entropy
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _signal(objective: str, p, mix, vocab: int):
    tail = 1.0 - p
    share = tail * mix / (vocab - 1)
    spike = tail * (1.0 - mix) + share
    if objective == "deft":
        collision = p * p + spike * spike + (vocab - 2) * share * share
        gate = p**collision
    elif objective == "eaft":
        gate = family_entropy(p, mix, vocab) / math.log(vocab)
    elif objective == "nll":
        gate = np.ones_like(p)
    elif objective == "linear":
        gate = p
    elif objective.startswith("alpha:"):
        gate = p ** float(objective.split(":", 1)[1])
    elif objective == "cayley":
        gate = p ** ((1.0 - np.sqrt(1.0 - p)) / (1.0 + np.sqrt(1.0 - p)))
    else:
        raise CheckError(f"no reference signal for {objective!r}")
    return gate * (1.0 - p)


def parse_landscape(path: str, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, entropy, magnitude) of every feasible cell, in file order."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[0] == ["p", "entropy", "magnitude"], "csv header")
        values = np.array([[float(v) for v in row] for row in rows[1:]])
        return values[:, 0], values[:, 1], values[:, 2]
    body = json.loads(text)
    require(body["normalization"] == "per-grid", "json normalization")
    cells = [
        (p, h, v)
        for p, row in zip(body["p_grid"], body["cells"])
        for h, v in zip(body["h_grid"], row)
        if v is not None
    ]
    values = np.array(cells, dtype=np.float64)
    return values[:, 0], values[:, 1], values[:, 2]


def check_landscape(path: str, fmt: str, objective: str, p_steps: int, h_steps: int, vocab: int) -> int:
    """Checks one landscape artifact; returns the number of feasible cells."""
    p_grid = np.arange(1, p_steps + 1) / (p_steps + 1.0)
    h_grid = np.linspace(0.0, math.log(vocab), h_steps)
    pp, hh = np.meshgrid(p_grid, h_grid, indexing="ij")
    low = family_entropy(pp, 0.0, vocab)
    high = family_entropy(pp, 1.0, vocab)
    feasible = (hh >= low - BISECTION_TOL) & (hh <= high + BISECTION_TOL)
    p, h, m = parse_landscape(path, fmt)
    require(p.size == int(feasible.sum()), f"{p.size} cells written, {int(feasible.sum())} feasible")
    require(np.allclose(p, pp[feasible], rtol=CSV_REL_TOL, atol=0.0), "p coordinates differ")
    require(np.allclose(h, hh[feasible], rtol=CSV_REL_TOL, atol=1e-12), "entropy coordinates differ")
    require(abs(float(m.max()) - 1.0) <= CSV_REL_TOL, f"largest magnitude {m.max()} is not 1")

    p, target = pp[feasible], np.clip(hh[feasible], low[feasible], high[feasible])
    if objective in ("deft", "eaft"):
        # the program bisects the entropy to 1e-6; bracket each cell by the
        # signal at the two ends of that tolerance band (the signal is
        # monotone in entropy for fixed p), then by the same band on the max
        lo_h = np.maximum(target - BISECTION_TOL, low[feasible])
        hi_h = np.minimum(target + BISECTION_TOL, high[feasible])
        s_lo = _signal(objective, p, family_mix(p, lo_h, vocab), vocab)
        s_hi = _signal(objective, p, family_mix(p, hi_h, vocab), vocab)
        s_lo, s_hi = np.minimum(s_lo, s_hi), np.maximum(s_lo, s_hi)
        lower = s_lo / s_hi.max() * (1.0 - CSV_REL_TOL)
        upper = s_hi / s_lo.max() * (1.0 + CSV_REL_TOL)
        bad = int(((m < lower) | (m > upper)).sum())
        require(bad == 0, f"{objective}: {bad} cells outside the reconstruction band")
    else:
        signal = _signal(objective, p, np.zeros_like(p), vocab)
        expected = signal / signal.max()
        require(
            np.allclose(m, expected, rtol=CSV_REL_TOL, atol=1e-15),
            f"{objective}: magnitudes differ from p^a(1-p) by {np.abs(m - expected).max():.3e}",
        )
    return p.size
