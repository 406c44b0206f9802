"""Command-line front end: verification suite, landscapes, training runs, duality.

Exit codes: 0 success (for ``verify``: every property passed), 1 runtime
failure, 2 usage or configuration error. Flags override config-file fields;
there are no environment variables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .core_math import DomainError, tsallis_entropy
from .landscape import emit, gradient_landscape, write_atomic
from .objectives import ObjectiveKind
from .trainer import BuildError, RegimeSpec, TrainConfig, build_task, finetune
from .verification import RULE_MAIN, RULE_PROPER, minimize_risk, reports_to_json, run_property_suite


class ConfigError(ValueError):
    """A config file or flag value violates the expected schema."""


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_property_suite(args.seed)
    print(reports_to_json(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_landscape(args: argparse.Namespace) -> int:
    if args.p_steps < 1 or args.h_steps < 1:
        raise ConfigError("p-steps and h-steps must be >= 1")
    kind = ObjectiveKind.parse(args.objective)
    p_grid = (np.arange(args.p_steps) + 1.0) / (args.p_steps + 1.0)
    max_h = math.log(args.vocab)
    if args.h_steps == 1:
        h_grid = np.array([0.5 * max_h])
    else:
        h_grid = np.linspace(0.0, max_h, args.h_steps)
    grid = gradient_landscape(kind, p_grid, h_grid, args.vocab)
    emit(grid, args.out, args.format)
    print(json.dumps({"out": args.out, "format": args.format, "objective": kind.encode()}))
    return 0


_TRAIN_SCHEMA = {
    "regime": str,
    "vocab_size": int,
    "num_contexts": int,
    "conflict_fraction": (int, float),
    "conflict_policy": str,
    "objective": str,
    "learning_rate": (int, float),
    "steps": int,
    "batch_size": (int, type(None)),
    "seed": int,
    "task_seed": int,
}


def _load_train_config(path: str, args: argparse.Namespace) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    for key, value in raw.items():
        if key not in _TRAIN_SCHEMA:
            raise ConfigError(f"unknown config field {key!r}")
        if not isinstance(value, _TRAIN_SCHEMA[key]) or isinstance(value, bool):
            raise ConfigError(f"config field {key!r} has invalid type {type(value).__name__}")
        if key in ("seed", "task_seed") and value < 0:
            raise ConfigError(f"config field {key!r} must be a non-negative integer, got {value}")
    # flags take precedence over config fields
    for flag in ("objective", "steps", "seed", "learning_rate"):
        value = getattr(args, flag)
        if value is not None:
            raw[flag] = value
    return raw


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_train_config(args.config, args)
    try:
        spec = RegimeSpec(
            regime=cfg.get("regime", "strong"),
            vocab_size=cfg.get("vocab_size", 32),
            num_contexts=cfg.get("num_contexts", 256),
            conflict_fraction=cfg.get("conflict_fraction", 0.0),
            conflict_policy=cfg.get("conflict_policy", "confident_only"),
        )
        seed = cfg.get("seed", 0)
        train_cfg = TrainConfig(
            objective=ObjectiveKind.parse(cfg.get("objective", "nll")),
            learning_rate=cfg.get("learning_rate", 0.5),
            steps=cfg.get("steps", 200),
            batch_size=cfg.get("batch_size"),
            seed=seed,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    task = build_task(spec, cfg.get("task_seed", seed))
    record = finetune(task.model, task.labels, train_cfg, clean_labels=task.clean_labels)
    record.config["regime"] = spec.regime
    emit(record, args.out, "json")
    summary = {
        "out": args.out,
        "objective": train_cfg.objective.encode(),
        "steps": train_cfg.steps,
        "quadrants": record.quadrants,
    }
    print(json.dumps(summary))
    return 0


def _cmd_duality(args: argparse.Namespace) -> int:
    try:
        r = np.array([float(part) for part in args.r.split(",")])
    except ValueError as exc:
        raise ConfigError(f"malformed distribution {args.r!r}") from exc
    rule = {"proper": RULE_PROPER, "main": RULE_MAIN}[args.rule]
    minimizer, risk = minimize_risk(r, args.alpha, rule)
    body = {
        "r": [float(v) for v in r],
        "alpha": args.alpha,
        "rule": args.rule,
        "minimizer": [float(v) for v in minimizer],
        "risk": risk,
        "entropy_order": 1.0 + args.alpha,
        "tsallis_entropy": tsallis_entropy(r, 1.0 + args.alpha),
    }
    payload = json.dumps(body, indent=2)
    print(payload)
    if args.out:
        write_atomic(args.out, payload + "\n")
    return 0


def _seed(text: str) -> int:
    """argparse type for RNG seeds: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: expected a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustgate",
        description="Deformed-log token objectives: property verification, "
        "gradient landscapes, and synthetic fine-tuning runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full numerical property suite")
    p_verify.add_argument("--seed", type=_seed, default=7)
    p_verify.set_defaults(func=_cmd_verify)

    p_land = sub.add_parser("landscape", help="export a gradient-magnitude grid")
    p_land.add_argument("--objective", required=True, help="nll|linear|alpha:<float>|cayley|deft|eaft")
    p_land.add_argument("--p-steps", type=int, required=True)
    p_land.add_argument("--h-steps", type=int, required=True)
    p_land.add_argument("--vocab", type=int, required=True)
    p_land.add_argument("--out", required=True)
    p_land.add_argument("--format", choices=("csv", "json"), default="csv")
    p_land.set_defaults(func=_cmd_landscape)

    p_train = sub.add_parser(
        "train",
        help="build a synthetic task and fine-tune it per a JSON config "
        "(flags override config fields)",
    )
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--objective", default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--seed", type=_seed, default=None)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_train.set_defaults(func=_cmd_train)

    p_dual = sub.add_parser("duality", help="search the expected-score minimizer over the simplex")
    p_dual.add_argument("--r", required=True, help="comma-separated probabilities, e.g. 0.8,0.2")
    p_dual.add_argument("--alpha", type=float, required=True)
    p_dual.add_argument("--rule", choices=("proper", "main"), default="proper")
    p_dual.add_argument("--out", default=None)
    p_dual.set_defaults(func=_cmd_duality)
    return parser


def parse_and_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BuildError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))
