"""Workload definitions: one round of CLI jobs per workload, made from a seed.

A run repeats the same round until its time is up, so every run attempts
whole rounds and the share of failed jobs is the same in every run. This
module uses the standard library only, so that building a round can be timed
as part of set-up without importing numpy early.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

FAMILY = ("nll", "linear", "alpha", "cayley", "deft", "eaft")
REGIMES = ("strong", "intermediate", "weak")

VERIFY_FIXED_SEEDS = (7, 21)  # 7 is the documented default; 21 fails (see CHANGES.md)
VERIFY_SEED_POOL = tuple(s for s in range(24) if s not in VERIFY_FIXED_SEEDS)

LARGE = {"contexts": 4096, "vocab": 1024, "steps": 10, "minibatch": 1024, "conflicts": 0.25}
SWEEP = {"contexts": 256, "vocab": 32, "steps": 500, "minibatch": 64, "conflicts": 0.25}
GRID = {"p_steps": 100, "h_steps": 100, "vocab": 32}

# How steeply a job's time follows the speed probe's (calibrate.py), as the
# slope of log job time on log probe time. The train-large kernels stream
# 32 MiB tables and slow down about half as much as the probe in the
# machine's slow spells; the other workloads run interpreter-bound code that
# follows it one for one (see README.md).
SPEED_EXPONENT = {"verify": 1.0, "train-large": 0.5, "train-sweep": 1.0, "landscape": 1.0}


@dataclass
class Job:
    argv: list[str]
    kind: str  # verify | train | landscape
    out: str | None = None
    fmt: str = "csv"
    objective: str = ""
    # train only
    regime: str = ""
    contexts: int = 0
    steps: int = 0
    batch_size: int | None = None
    task: str = ""  # jobs sharing a conflict-injected task, for the forgetting check
    reference: bool = False  # recompute the trace with the benchmark's own update
    config: dict = field(default_factory=dict)


def _alpha_member(rng: random.Random) -> str:
    return f"alpha:{round(rng.uniform(0.25, 2.0), 3)!r}"


def _train_job(workdir: str, name: str, config: dict, **fields) -> Job:
    path = os.path.join(workdir, f"{name}.config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    out = os.path.join(workdir, f"{name}.out.json")
    return Job(
        argv=["train", "--config", path, "--out", out],
        kind="train",
        out=out,
        objective=config["objective"],
        regime=config["regime"],
        contexts=config["num_contexts"],
        steps=config["steps"],
        batch_size=config["batch_size"],
        config=config,
        **fields,
    )


def verify_round(rng: random.Random, workdir: str) -> list[Job]:
    seeds = list(VERIFY_FIXED_SEEDS) + [rng.choice(VERIFY_SEED_POOL)]
    return [Job(argv=["verify", "--seed", str(s)], kind="verify") for s in seeds]


def train_large_round(rng: random.Random, workdir: str) -> list[Job]:
    """nll, linear and deft full-batch on one conflict task, plus a minibatch run."""
    base = {
        "regime": "strong",
        "vocab_size": LARGE["vocab"],
        "num_contexts": LARGE["contexts"],
        "conflict_fraction": LARGE["conflicts"],
        "conflict_policy": "confident_only",
        "steps": LARGE["steps"],
        "learning_rate": 0.5,
        "task_seed": rng.randrange(2**31),
        "seed": rng.randrange(2**31),
    }
    jobs = []
    for objective in ("nll", "linear", "deft"):
        config = dict(base, objective=objective, batch_size=None)
        jobs.append(_train_job(workdir, f"large-{objective}", config, task="large"))
    extra = rng.choice([_alpha_member(rng), "cayley", "eaft"])
    config = dict(base, objective=extra, batch_size=LARGE["minibatch"])
    jobs.append(_train_job(workdir, "large-minibatch", config))
    return jobs


def train_sweep_round(rng: random.Random, workdir: str) -> list[Job]:
    """Six members x three regimes x {clean, conflicts} x {full batch, minibatch}."""
    alpha = _alpha_member(rng)
    objectives = [alpha if name == "alpha" else name for name in FAMILY]
    jobs = []
    cell = 0
    for regime in REGIMES:
        for conflicts in (0.0, SWEEP["conflicts"]):
            for batch in (None, SWEEP["minibatch"]):
                base = {
                    "regime": regime,
                    "vocab_size": SWEEP["vocab"],
                    "num_contexts": SWEEP["contexts"],
                    "conflict_fraction": conflicts,
                    # a weak model has no confident contexts to conflict with
                    "conflict_policy": "confident_only" if regime == "strong" else "uniform",
                    "steps": SWEEP["steps"],
                    "learning_rate": 0.5,
                    "batch_size": batch,
                    "task_seed": rng.randrange(2**31),
                    "seed": rng.randrange(2**31),
                }
                task = f"sweep-{cell}" if conflicts else ""
                for index, objective in enumerate(objectives):
                    config = dict(base, objective=objective)
                    name = f"sweep-{cell}-{index}"
                    jobs.append(
                        _train_job(workdir, name, config, task=task, reference=index == cell % 6)
                    )
                cell += 1
    return jobs


def landscape_round(rng: random.Random, workdir: str) -> list[Job]:
    """All six members on one grid, alternating CSV and JSON output."""
    parity = rng.randrange(2)
    jobs = []
    for index, name in enumerate(FAMILY):
        objective = _alpha_member(rng) if name == "alpha" else name
        fmt = ("csv", "json")[(index + parity) % 2]
        out = os.path.join(workdir, f"landscape-{name}.{fmt}")
        argv = ["landscape", "--objective", objective, "--format", fmt, "--out", out]
        for flag in ("p_steps", "h_steps", "vocab"):
            argv += ["--" + flag.replace("_", "-"), str(GRID[flag])]
        jobs.append(Job(argv=argv, kind="landscape", out=out, fmt=fmt, objective=objective))
    return jobs


WORKLOADS = {
    "verify": verify_round,
    "train-large": train_large_round,
    "train-sweep": train_sweep_round,
    "landscape": landscape_round,
}


def make_round(workload: str, seed: int, workdir: str) -> list[Job]:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
