"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are pinned here and do not
drift with implementation details.
"""

import json
import math
import time

import numpy as np
from trustgate import (
    CAYLEY,
    DEFT,
    LINEAR,
    NLL,
    RULE_MAIN,
    RULE_PROPER,
    RegimeSpec,
    TrainConfig,
    build_task,
    cayley_alpha,
    concentration,
    default_kinds,
    fd_gradient,
    finetune,
    gate,
    gradient_flow_ordering,
    gradient_landscape,
    logit_gradient,
    minimize_risk,
    mobius_alpha,
    peak_location,
    tsallis_entropy,
)
from trustgate.cli import parse_and_run, write_atomic
from trustgate.landscape import feasible_entropy_range
from trustgate.verification import surprisal_linearization_residual


def _criterion(number: int, name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _final_probs(record):
    table = record.final_table
    expd = np.exp(table - table.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def test_01_gradient_exactness():
    rng = np.random.default_rng(101)
    kinds = default_kinds()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 33))
        z = rng.normal(0.0, 2.0, size)
        target = int(rng.integers(size))
        for kind in kinds:
            analytic = logit_gradient(kind, z, target)
            numeric = fd_gradient(kind, z, target)
            scale = max(float(np.abs(analytic).max()), 1e-12)
            worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "gradient exactness",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_duality_theorem():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_risk = 0.0
    worst_minimizer = 0.0
    for index in range(50):
        size = 2 + index % 2
        r = rng.dirichlet(np.ones(size))
        for alpha in (0.25, 0.5, 1.0):
            minimizer, risk = minimize_risk(r, alpha, RULE_PROPER)
            worst_risk = max(worst_risk, abs(risk - tsallis_entropy(r, 1.0 + alpha)))
            worst_minimizer = max(worst_minimizer, float(np.abs(minimizer - r).max()))
    shifted, _ = minimize_risk(np.array([0.8, 0.2]), 0.5, RULE_MAIN)
    shift = float(np.abs(shifted - np.array([0.8, 0.2])).max())
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "duality theorem",
        worst_risk <= 1e-3 and worst_minimizer <= 0.01 and shift > 0.05 and elapsed < 30.0,
        f"risk err {worst_risk:.2e}, minimizer err {worst_minimizer:.2e}, "
        f"escort shift {shift:.3f}, {elapsed:.1f}s",
    )


def test_03_cayley_identities():
    exact_endpoints = cayley_alpha(0.0) == 0.0 and cayley_alpha(1.0) == 1.0
    ps = np.concatenate([np.logspace(-6, -0.02, 400), np.linspace(0.01, 0.999, 400)])
    arctanh_err = max(
        abs(math.atanh(cayley_alpha(float(p))) - (-0.25 * math.log1p(-float(p)))) for p in ps
    )
    zs = np.linspace(0.0, 1.0, 513)
    involution_err = max(
        abs(mobius_alpha(mobius_alpha(float(z), kappa), kappa) - z)
        for kappa in (0.0, 0.5, 1.0, 2.0)
        for z in zs
    )
    residual_one = surprisal_linearization_residual(1.0)
    residual_others = min(surprisal_linearization_residual(0.0), surprisal_linearization_residual(2.0))
    _criterion(
        3,
        "cayley identities",
        exact_endpoints
        and arctanh_err <= 1e-9
        and involution_err <= 1e-12
        and residual_one <= 1e-10
        and residual_others > 1e-6,
        f"arctanh {arctanh_err:.1e}, involution {involution_err:.1e}, "
        f"affinity residual kappa=1 {residual_one:.1e} vs others {residual_others:.1e}",
    )


def test_04_gate_limits():
    open_gate = 1e-6 ** cayley_alpha(1e-6)
    sharp_ratio = 0.999 ** cayley_alpha(0.999) / 0.999
    _criterion(
        4,
        "gate limits",
        open_gate >= 0.999 and abs(sharp_ratio - 1.0) <= 1e-3,
        f"gate(1e-6)={open_gate:.6f}, gate(0.999)/p={sharp_ratio:.6f}",
    )


def test_05_collision_index_bounds():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 65))
        dist = rng.dirichlet(np.ones(size))
        target = int(rng.integers(size))
        p = float(dist[target])
        if p >= 1.0 - 1e-12:
            continue
        index = concentration(dist)
        tail = dist[np.arange(size) != target] / (1.0 - p)
        decomposition = p**2 + (1.0 - p) ** 2 * float((tail * tail).sum())
        lower = p**2 + (1.0 - p) ** 2 / (size - 1)
        upper = p**2 + (1.0 - p) ** 2
        worst = max(worst, abs(index - decomposition), lower - index, index - upper)
    _criterion(5, "collision index decomposition and bounds", worst <= 1e-12, f"worst {worst:.2e}")


def test_06_conflict_suppression():
    vocab = 16
    worst = 0.0
    for p in np.linspace(1e-6, 0.1 - 1e-6, 1000):
        dist = np.full(vocab, (0.1 - p) / (vocab - 2))
        dist[0] = float(p)
        dist[1] = 0.9
        signal = gate(DEFT, dist, 0).signal
        worst = max(worst, signal - float(p) ** 0.81 * (1.0 - float(p)))
    cayley_signal = gate(CAYLEY, np.array([1e-6, 1.0 - 1e-6]), 0).signal
    _criterion(
        6,
        "conflict suppression",
        worst <= 1e-12 and cayley_signal >= 0.999,
        f"bound slack {worst:.2e}, open-gate signal {cayley_signal:.6f}",
    )


def test_07_peak_location():
    convex = [peak_location(lambda p: -np.log(p)), peak_location(lambda p: 1.0 - p)]
    concave = peak_location(lambda p: (1.0 - p**2) / 2.0)
    _criterion(
        7,
        "signal peak location",
        all(0.0 <= v <= 0.5 + 1e-3 for v in convex)
        and 0.5 - 1e-3 <= concave <= 1.0
        and abs(concave - 2.0 / 3.0) <= 1e-3,
        f"convex argmax {convex}, concave argmax {concave:.4f}",
    )


def test_08_risk_flow_ordering():
    ok = True
    for seed in range(20):
        strong = gradient_flow_ordering("strong", (LINEAR, NLL), seed=seed)
        weak = gradient_flow_ordering("weak", (LINEAR, NLL), seed=seed)
        ok = ok and strong.passed and weak.passed
    _criterion(8, "risk-flow ordering over 20 seeds", ok)


def test_09_mechanism_trends():
    start = time.perf_counter()
    seeds = [0, 1, 2, 3, 4]

    strong_spec = RegimeSpec(
        regime="strong", conflict_fraction=0.1, conflict_policy="confident_only"
    )
    forgetting_wins = 0
    retention_wins = 0
    strong_alpha0 = []
    for seed in seeds:
        task = build_task(strong_spec, seed)
        runs = {}
        for kind in (NLL, DEFT):
            cfg = TrainConfig(objective=kind, steps=100, seed=seed)
            runs[kind.name] = finetune(
                task.model, task.labels, cfg, clean_labels=task.clean_labels
            )
        if runs["deft"].quadrants["forgetting_high"] < runs["nll"].quadrants["forgetting_high"]:
            forgetting_wins += 1
        rows = np.arange(task.model.num_contexts)
        retain = {
            name: float(_final_probs(rec)[rows, task.clean_labels].mean())
            for name, rec in runs.items()
        }
        if retain["deft"] >= retain["nll"]:
            retention_wins += 1
        strong_alpha0.append(runs["deft"].mean_alpha[0])

    weak_spec = RegimeSpec(regime="weak")
    linear_losses = 0
    deft_coverage = 0
    weak_alpha0 = []
    alpha_trace_ok = True
    for seed in seeds:
        task = build_task(weak_spec, seed)
        finals = {}
        for kind in (NLL, LINEAR, DEFT):
            cfg = TrainConfig(objective=kind, steps=200, seed=seed)
            record = finetune(task.model, task.labels, cfg)
            finals[kind.name] = float(
                _final_probs(record)[np.arange(task.model.num_contexts), task.labels].mean()
            )
            if kind.name == "deft":
                weak_alpha0.append(record.mean_alpha[0])
                smoothed = np.convolve(record.mean_alpha, np.ones(5) / 5.0, mode="valid")
                alpha_trace_ok = alpha_trace_ok and bool(np.all(np.diff(smoothed) >= -1e-12))
        if finals["linear"] < finals["nll"]:
            linear_losses += 1
        if finals["deft"] >= 0.9 * finals["nll"]:
            deft_coverage += 1

    alpha_ordering = sum(s > w for s, w in zip(strong_alpha0, weak_alpha0))
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        "mechanism trends",
        forgetting_wins >= 4
        and retention_wins >= 4
        and linear_losses >= 4
        and deft_coverage >= 4
        and alpha_ordering == 5
        and alpha_trace_ok
        and elapsed < 60.0,
        f"forgetting {forgetting_wins}/5, retention {retention_wins}/5, "
        f"linear-lag {linear_losses}/5, coverage {deft_coverage}/5, "
        f"alpha order {alpha_ordering}/5, trace ok {alpha_trace_ok}, {elapsed:.1f}s",
    )


def test_10_landscape_sanity(tmp_path):
    p_grid = np.linspace(0.1, 0.9, 7)
    h_grid = np.linspace(0.3, math.log(8.0) - 1e-6, 9)
    nll_grid = gradient_landscape(NLL, p_grid, h_grid, 8)
    spread = 0.0
    for row in nll_grid.cells:
        finite = row[np.isfinite(row)]
        if finite.size:
            spread = max(spread, float(finite.max() - finite.min()))

    low, high = feasible_entropy_range(0.1, 16)
    deft_grid = gradient_landscape(
        DEFT, np.array([0.1]), np.linspace(low + 1e-9, high - 1e-9, 12), 16
    )
    deft_row = deft_grid.cells[0]
    monotone = bool(np.all(np.isfinite(deft_row)) and np.all(np.diff(deft_row) >= -1e-12))

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_atomic(first, nll_grid.to_csv())
    write_atomic(second, nll_grid.to_csv())
    deterministic = first.read_bytes() == second.read_bytes()
    _criterion(
        10,
        "landscape sanity",
        spread <= 1e-9 and monotone and deterministic,
        f"row spread {spread:.1e}, monotone {monotone}, deterministic {deterministic}",
    )


def test_11_cli_gate(capsys):
    code = parse_and_run(["verify", "--seed", "7"])
    out = capsys.readouterr().out
    reports = json.loads(out)
    all_passed = bool(reports) and all(r["passed"] for r in reports)
    _criterion(
        11,
        "cli verify gate",
        code == 0 and all_passed,
        f"exit {code}, {sum(r['passed'] for r in reports)}/{len(reports)} reports passed",
    )
